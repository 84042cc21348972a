//! Determinism regression: the flow result — insertion ranges, deployment
//! and yields — is bit-identical with `RAYON_NUM_THREADS=1` and with the
//! default worker count, at 1 and 8 workers, and whether a flow is swept
//! over several targets (warm calibration and pooled workspaces carried
//! across `run_target` calls) or built fresh per target.
//!
//! This pins the batched engine's contract: fixed chunk boundaries,
//! per-chip seeded RNGs and chunk-ordered merges make the outcome
//! independent of how the work-stealing scheduler interleaves chunks.
//! CI reruns this suite under `PSBI_NO_SEARCH_PRUNE=1`, `PSBI_VERIFY=1`
//! and `PSBI_SIMD_BACKEND=scalar` (each read once per process), so every
//! reference mode is held to the same contract.

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, InsertionResult, TargetPeriod};
use psbi::netlist::bench_suite;

fn run_once(threads: usize) -> InsertionResult {
    let circuit = bench_suite::tiny_demo(42);
    let cfg = FlowConfig {
        samples: 200,
        yield_samples: 400,
        calibration_samples: 300,
        seed: 2024,
        // 0 = let the parallel runtime decide (RAYON_NUM_THREADS / cores);
        // > 0 = explicit worker pool.
        threads,
        target: TargetPeriod::SigmaFactor(0.0),
        record_histograms: 2,
        ..FlowConfig::default()
    };
    BufferInsertionFlow::builder(&circuit, cfg)
        .build()
        .expect("valid circuit")
        .run()
}

/// Strips the non-canonical surfaces: wall-clock times (including the
/// per-stage solver times inside the diagnostics) legitimately differ
/// between runs, and the cache counters vary with worker scheduling.
fn normalized(mut r: InsertionResult) -> InsertionResult {
    r.runtime = Default::default();
    r.diagnostics = Default::default();
    r
}

#[test]
fn flow_is_bit_identical_across_thread_counts() {
    // Leg 1: RAYON_NUM_THREADS=1 versus the default worker count.
    // Single test function: the runs must not interleave with other tests
    // mutating the same process-wide environment variable.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let env_single = normalized(run_once(0));
    std::env::remove_var("RAYON_NUM_THREADS");
    let env_default = normalized(run_once(0));
    assert!(
        env_single.nb > 0,
        "flow should deploy at least one buffer at µT"
    );
    assert_eq!(
        env_single, env_default,
        "flow result differs between RAYON_NUM_THREADS=1 and the default"
    );

    // Leg 2: explicit 1-thread and 8-thread pools.  This leg stays
    // meaningful on single-core machines (and under runtimes that read
    // RAYON_NUM_THREADS only once at global-pool initialisation): eight
    // oversubscribed workers still race for chunks in a different order.
    let pool_single = normalized(run_once(1));
    let pool_eight = normalized(run_once(8));
    assert_eq!(
        pool_single, pool_eight,
        "flow result differs between explicit 1-thread and 8-thread pools"
    );
    assert_eq!(
        env_single, pool_single,
        "env-capped and pool-capped single-thread runs disagree"
    );
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
