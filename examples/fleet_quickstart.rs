//! Fleet quickstart: a tiny 2-circuit campaign with a mid-campaign
//! checkpoint and a resume that reproduces the uninterrupted run exactly.
//!
//! ```text
//! cargo run --release --example fleet_quickstart
//! ```
//!
//! The same campaign is available from the shell:
//!
//! ```text
//! cargo run --release --bin psbi-fleet -- init --out campaign.json
//! cargo run --release --bin psbi-fleet -- run --spec campaign.json --journal c.journal
//! ```

use psbi::fleet::{run_campaign, CampaignReport, CampaignSpec, FleetOptions};

fn main() {
    // A declarative campaign: two generated demo circuits, swept over the
    // aggressive (k = 0, ~50 % unbuffered yield) and relaxed (k = 2,
    // ~98 %) target periods.
    let spec = CampaignSpec {
        samples: 200,
        yield_samples: 400,
        calibration_samples: 300,
        ..CampaignSpec::example()
    };
    println!(
        "campaign `{}`: {} circuits x {} targets = {} jobs (fingerprint {})",
        spec.name,
        spec.circuits.len(),
        spec.sigma_factors.len(),
        spec.jobs().len(),
        spec.fingerprint()
    );

    let dir = std::env::temp_dir();
    let journal = dir.join(format!(
        "psbi_fleet_quickstart_{}.journal",
        std::process::id()
    ));
    let reference = dir.join(format!(
        "psbi_fleet_quickstart_ref_{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&reference);

    // 1. Start the campaign but stop after two jobs — a checkpoint, as if
    //    the process had been killed mid-campaign.
    let partial = run_campaign(
        &spec,
        &journal,
        &FleetOptions {
            max_jobs: Some(2),
            ..FleetOptions::default()
        },
    )
    .expect("campaign starts");
    println!(
        "\ncheckpoint: {}/{} jobs journaled at {}",
        partial.records.len(),
        partial.total_jobs,
        journal.display()
    );

    // 2. Resume: only the missing jobs run; completed ones replay from
    //    the journal.
    let resumed =
        run_campaign(&spec, &journal, &FleetOptions::default()).expect("campaign resumes");
    assert!(resumed.complete());
    println!(
        "resumed: {} jobs replayed from the journal, {} executed\n",
        resumed.resumed_jobs, resumed.executed_jobs
    );

    // 3. The aggregated report: per-circuit / per-k yield, buffers, area.
    let report = CampaignReport::from_outcome(&spec, &resumed);
    print!("{}", report.text());

    // 4. Determinism check: an uninterrupted run of the same spec yields
    //    byte-identical journal and canonical report.
    let uninterrupted =
        run_campaign(&spec, &reference, &FleetOptions::default()).expect("campaign runs");
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        std::fs::read(&reference).unwrap(),
        "journal bytes must not depend on interruption"
    );
    assert_eq!(
        report.canonical_json(),
        CampaignReport::from_outcome(&spec, &uninterrupted).canonical_json(),
        "canonical reports must not depend on interruption"
    );
    println!("\ncheckpoint + resume reproduced the uninterrupted campaign byte-for-byte");

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&reference);
    // Writes the PSBI_TRACE / PSBI_METRICS files when either is set.
    psbi::obs::flush_all();
}
