//! The paper's headline experiment in miniature: run the insertion flow on
//! an ISCAS89-sized benchmark at the three target periods of Table I
//! (µT, µT+σT, µT+2σT) and print the Nb/Ab/Y/Yi row.
//!
//! ```text
//! cargo run --release --example yield_improvement
//! ```
//!
//! For the full-scale reproduction use the dedicated harness:
//! `cargo run -p psbi-bench --release --bin table1 -- --all --samples 10000`.

use psbi::core::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
use psbi::netlist::bench_suite;

fn main() {
    let spec = bench_suite::by_name("s9234").expect("paper benchmark");
    let circuit = spec.generate();
    println!(
        "benchmark {} ({}): ns = {}, ng = {}",
        spec.name,
        spec.origin,
        circuit.num_ffs(),
        circuit.num_gates()
    );
    println!(
        "{:<16} {:>6} {:>6} {:>8} {:>8} {:>8}",
        "target", "Nb", "Ab", "Yo(%)", "Y(%)", "Yi(%)"
    );
    for (label, sigma) in [("muT", 0.0), ("muT+sigma", 1.0), ("muT+2sigma", 2.0)] {
        let cfg = FlowConfig {
            samples: 800,
            yield_samples: 3_000,
            calibration_samples: 1_500,
            target: TargetPeriod::SigmaFactor(sigma),
            ..FlowConfig::default()
        };
        let r = BufferInsertionFlow::builder(&circuit, cfg)
            .build()
            .expect("valid")
            .run();
        println!(
            "{label:<16} {:>6} {:>6.2} {:>8.2} {:>8.2} {:>8.2}",
            r.nb, r.ab, r.yield_baseline, r.yield_with_buffers, r.improvement
        );
    }
    println!();
    println!("expected shape (paper, 10000 samples): large Yi at muT (~27 points),");
    println!("moderate at +1 sigma (~12), small at +2 sigma (~1.5); Nb stays a small");
    println!("fraction of the flip-flops and Ab stays well below the 20-step maximum.");
    // Writes the PSBI_TRACE / PSBI_METRICS files when either is set.
    psbi::obs::flush_all();
}
