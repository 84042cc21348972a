//! Region-parallel parity regression: fanning a chip's independent
//! region searches out on the region pool commits results in pinned
//! region order, so it must be **bit-invisible**.  Every surface the flow
//! produces is compared with region-parallel search on and off, at 1 and
//! 8 workers, on flows swept over several targets (warm calibration and
//! pooled workspaces carried across `run_target` calls) against fresh
//! single-target flows:
//!
//! * full `InsertionResult`s (modulo wall times and the solver counters,
//!   which are non-canonical by contract),
//! * fleet journal bytes and canonical report bytes, including after a
//!   mid-campaign kill and resume.
//!
//! The `PSBI_NO_REGION_PARALLEL=1` environment form of the same contract
//! is pinned by the CI determinism job (the env flag is read once per
//! process, so this in-process test uses the equivalent config/option
//! knobs instead).

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
fn full_flow_is_bit_identical_across_region_parallel_and_workers() {
    let circuit = bench_suite::tiny_demo(42);
    let cfg = |threads: usize, region_parallel: bool| FlowConfig {
        samples: 160,
        yield_samples: 300,
        calibration_samples: 300,
        seed: 2024,
        threads,
        target: TargetPeriod::SigmaFactor(0.0),
        record_histograms: 2,
        region_parallel,
        ..FlowConfig::default()
    };
    // Flows swept over adjacent targets versus a fresh single-target
    // flow per target, at both worker counts.
    let variants = [
        ("region-parallel w1", cfg(1, true)),
        ("region-parallel w8", cfg(8, true)),
        ("no-region-parallel w8", cfg(8, false)),
    ];
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
    assert!(!flows[2].1.region_parallel_enabled());
    for k in [0.0, 0.5, 1.0] {
        let target = TargetPeriod::SigmaFactor(k);
        let reference = normalized(
            BufferInsertionFlow::builder(
                &circuit,
                FlowConfig {
                    target,
                    ..cfg(1, false)
                },
            )
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
fn fleet_journal_bytes_are_identical_across_region_parallel_and_workers() {
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
    for (tag, workers, region_parallel) in [
        ("rp_w1", 1, true),
        ("rp_w8", 8, true),
        ("no_rp_w1", 1, false),
        ("no_rp_w8", 8, false),
    ] {
        let path = tmp(tag);
        let _ = std::fs::remove_file(&path);
        let opts = FleetOptions {
            workers,
            region_parallel,
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
