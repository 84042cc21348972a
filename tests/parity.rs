//! Parity regression: the flow's canonical surfaces must be
//! **bit-identical** at 1 and 8 workers, and a flow swept over several
//! targets (warm calibration and pooled workspaces carried across
//! `run_target` calls) must match a fresh single-target flow per target:
//!
//! * full `InsertionResult`s (modulo wall times and the solver counters,
//!   which are non-canonical by contract),
//! * fleet journal bytes and canonical report bytes, including after a
//!   mid-campaign kill and resume.
//!
//! CI reruns this suite under `PSBI_NO_SEARCH_PRUNE=1` and
//! `PSBI_SIMD_BACKEND=scalar` (both read once per process), so each
//! reference mode is held to the same contract.

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod};
use psbi::fleet::{run_campaign, CampaignReport, CampaignSpec, FleetOptions};
use psbi::netlist::bench_suite;
use std::path::PathBuf;

/// Strips the non-canonical surfaces: wall times always differ between
/// runs, and the solver counters are non-canonical by contract.
fn normalized(mut r: InsertionResult) -> InsertionResult {
    r.runtime = Default::default();
    r.diagnostics = Default::default();
    r
}

#[test]
fn full_flow_is_bit_identical_across_workers_and_warm_sweeps() {
    let circuit = bench_suite::tiny_demo(42);
    let cfg = |threads: usize| FlowConfig {
        samples: 160,
        yield_samples: 300,
        calibration_samples: 300,
        seed: 2024,
        threads,
        target: TargetPeriod::SigmaFactor(0.0),
        record_histograms: 2,
        ..FlowConfig::default()
    };
    // Flows swept over adjacent targets versus a fresh single-target
    // flow per target, at both worker counts.
    let variants = [("w1", cfg(1)), ("w8", cfg(8))];
    let flows: Vec<(&str, BufferInsertionFlow)> = variants
        .iter()
        .map(|(name, c)| {
            (
                *name,
                BufferInsertionFlow::builder(&circuit, c.clone())
                    .build()
                    .unwrap(),
            )
        })
        .collect();
    for k in [0.0, 0.5, 1.0] {
        let target = TargetPeriod::SigmaFactor(k);
        let reference = normalized(
            BufferInsertionFlow::builder(&circuit, FlowConfig { target, ..cfg(1) })
                .build()
                .unwrap()
                .run(),
        );
        for (name, flow) in &flows {
            assert_eq!(
                normalized(flow.run_target(target)),
                reference,
                "{name} diverged from the fresh flow at k = {k}"
            );
        }
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psbi_parity_{tag}_{}", std::process::id()))
}

#[test]
fn fleet_journal_bytes_are_identical_across_workers() {
    let spec = CampaignSpec {
        samples: 100,
        yield_samples: 200,
        calibration_samples: 200,
        seed: 2024,
        // Adjacent sigma factors: one flow per circuit serves the sweep.
        sigma_factors: vec![0.0, 0.25, 0.5],
        ..CampaignSpec::example()
    };
    let mut journals: Vec<(PathBuf, Vec<u8>, String)> = Vec::new();
    for (tag, workers) in [("w1", 1), ("w8", 8)] {
        let path = tmp(tag);
        let _ = std::fs::remove_file(&path);
        let opts = FleetOptions {
            workers,
            ..FleetOptions::default()
        };
        let outcome = run_campaign(&spec, &path, &opts).expect("campaign runs");
        assert!(outcome.complete());
        let report = CampaignReport::from_outcome(&spec, &outcome).canonical_json();
        let bytes = std::fs::read(&path).expect("journal written");
        journals.push((path, bytes, report));
    }
    let (_, reference_bytes, reference_report) = &journals[0];
    for (path, bytes, report) in &journals[1..] {
        assert_eq!(
            bytes,
            reference_bytes,
            "journal bytes differ: {}",
            path.display()
        );
        assert_eq!(report, reference_report, "canonical report differs");
    }
    for (path, _, _) in &journals {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn fleet_kill_and_resume_reproduces_bytes() {
    // A mid-campaign kill + resume must reproduce the uninterrupted
    // journal and canonical report byte for byte.
    let spec = CampaignSpec {
        samples: 80,
        yield_samples: 160,
        calibration_samples: 160,
        seed: 77,
        sigma_factors: vec![0.0, 0.25],
        ..CampaignSpec::example()
    };
    let full = tmp("resume_full");
    let split = tmp("resume_split");
    for p in [&full, &split] {
        let _ = std::fs::remove_file(p);
    }
    let uninterrupted = run_campaign(&spec, &full, &FleetOptions::default()).unwrap();
    assert!(uninterrupted.complete());
    let first = run_campaign(
        &spec,
        &split,
        &FleetOptions {
            max_jobs: Some(1),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    assert!(!first.complete());
    let second = run_campaign(&spec, &split, &FleetOptions::default()).unwrap();
    assert!(second.complete());
    assert_eq!(second.records, uninterrupted.records);
    assert_eq!(
        std::fs::read(&full).unwrap(),
        std::fs::read(&split).unwrap(),
        "kill + resume must reproduce the uninterrupted journal bytes"
    );
    assert_eq!(
        CampaignReport::from_outcome(&spec, &second).canonical_json(),
        CampaignReport::from_outcome(&spec, &uninterrupted).canonical_json()
    );
    for p in [&full, &split] {
        let _ = std::fs::remove_file(p);
    }
}
