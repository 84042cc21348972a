//! Rendering of insertion results as Markdown and CSV.
//!
//! The experiment binaries use these helpers to produce the tables recorded
//! in `EXPERIMENTS.md`; they are exposed publicly so downstream users can
//! log flow outcomes uniformly.

use crate::flow::InsertionResult;
use std::fmt::Write as _;

/// One labelled result (e.g. `("s9234", "muT", result)`).
pub type LabelledResult<'a> = (&'a str, &'a str, &'a InsertionResult);

/// Renders results as a GitHub-flavoured Markdown table with the paper's
/// Table-I columns.
pub fn markdown_table(rows: &[LabelledResult<'_>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| circuit | target | ns | ng | Nb | Ab | Yo (%) | Y (%) | Yi (pts) | T (s) |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for (circuit, target, r) in rows {
        let _ = writeln!(
            out,
            "| {circuit} | {target} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |",
            r.n_ffs,
            r.n_gates,
            r.nb,
            r.ab,
            r.yield_baseline,
            r.yield_with_buffers,
            r.improvement,
            r.runtime.total_s
        );
    }
    out
}

/// Renders results as CSV with a header row.
pub fn csv_table(rows: &[LabelledResult<'_>]) -> String {
    let mut out = String::from(
        "circuit,target,ns,ng,nb,ab,yo,y,yi,runtime_s,mu_t,sigma_t,rescued,broken,buffers_before_grouping\n",
    );
    for (circuit, target, r) in rows {
        let _ = writeln!(
            out,
            "{circuit},{target},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.2},{:.2},{},{},{}",
            r.n_ffs,
            r.n_gates,
            r.nb,
            r.ab,
            r.yield_baseline,
            r.yield_with_buffers,
            r.improvement,
            r.runtime.total_s,
            r.mu_t,
            r.sigma_t,
            r.rescued,
            r.broken,
            r.buffers_before_grouping
        );
    }
    out
}

/// One-paragraph human summary of a result.
pub fn summary(r: &InsertionResult) -> String {
    format!(
        "{}: {} buffers (avg range {:.1} steps) lift yield from {:.2}% to {:.2}% \
         (+{:.2} points, {} chips rescued, {} broken) at T = {:.1} ps \
         (muT = {:.1}, sigmaT = {:.1}); flow took {:.2}s.",
        r.circuit,
        r.nb,
        r.ab,
        r.yield_baseline,
        r.yield_with_buffers,
        r.improvement,
        r.rescued,
        r.broken,
        r.period,
        r.mu_t,
        r.sigma_t,
        r.runtime.total_s
    )
}

/// Per-pass region and search counters as a small Markdown table — the
/// observability surface for `region_cap` saturation and search effort.
/// Non-canonical (like wall times): the node counts legitimately differ
/// between pruned and `PSBI_NO_SEARCH_PRUNE=1` runs.
pub fn solver_diagnostics(r: &InsertionResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| pass | regions | saturated (region_cap) | search nodes | pruned (bound) | pruned (symmetry) |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
    let d = &r.diagnostics;
    let total = d.total();
    for (pass, p) in [
        ("A1", &d.a1),
        ("A3", &d.a3),
        ("B1", &d.b1),
        ("B2", &d.b2),
        ("total", &total),
    ] {
        let _ = writeln!(
            out,
            "| {pass} | {} | {} | {} | {} | {} |",
            p.regions_total,
            p.regions_saturated,
            p.search_nodes,
            p.search_pruned_bound,
            p.search_pruned_symmetry
        );
    }
    out
}

/// Solver-stage wall times (discovery / saturation screen / search /
/// push-MILP) as a Markdown table, read from the process-wide obs
/// histograms `solve.stage.*` — the observability surface behind
/// `BENCH_sampling.json`'s `solver_stages` section.  Wall times are
/// non-canonical by contract.  Requires the metrics registry to be
/// armed (`PSBI_METRICS` or `psbi_obs::metrics::arm`) around the flow
/// run; when disarmed every row renders as zero, because the solver
/// reads no clock at all on the disarmed path.
pub fn solver_stage_times() -> String {
    let snap = psbi_obs::metrics::snapshot();
    let secs = |name: &str| -> f64 {
        snap.histogram(name)
            .map(|h| h.sum as f64 / 1e9)
            .unwrap_or(0.0)
    };
    let mut out = String::new();
    let _ = writeln!(out, "| stage | wall (s) | calls |");
    let _ = writeln!(out, "|---|---:|---:|");
    let mut total_s = 0.0;
    let mut total_calls = 0u64;
    for stage in ["discovery", "screen", "search", "milp"] {
        let name = format!("solve.stage.{stage}");
        let s = secs(&name);
        let calls = snap.histogram(&name).map(|h| h.count).unwrap_or(0);
        total_s += s;
        total_calls += calls;
        let _ = writeln!(out, "| {stage} | {s:.4} | {calls} |");
    }
    let _ = writeln!(out, "| total | {total_s:.4} | {total_calls} |");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{BufferInsertionFlow, FlowConfig, TargetPeriod};
    use psbi_netlist::bench_suite;

    fn sample_result() -> InsertionResult {
        let c = bench_suite::tiny_demo(17);
        let cfg = FlowConfig {
            samples: 60,
            yield_samples: 150,
            calibration_samples: 150,
            threads: 1,
            target: TargetPeriod::SigmaFactor(0.0),
            ..FlowConfig::default()
        };
        BufferInsertionFlow::builder(&c, cfg).build().unwrap().run()
    }

    #[test]
    fn markdown_has_row_per_result() {
        let r = sample_result();
        let table = markdown_table(&[("tiny", "muT", &r), ("tiny", "muT+2s", &r)]);
        assert_eq!(table.lines().count(), 4); // header + separator + 2 rows
        assert!(table.contains("| tiny | muT |"));
        assert!(table.contains("| Nb |"));
    }

    #[test]
    fn csv_is_parseable() {
        let r = sample_result();
        let csv = csv_table(&[("tiny", "muT", &r)]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(row.starts_with("tiny,muT,24,220,"));
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let r = sample_result();
        let s = summary(&r);
        assert!(s.contains("tiny_demo"));
        assert!(s.contains("buffers"));
        assert!(s.contains("yield"));
    }

    #[test]
    fn solver_diagnostics_renders_all_passes() {
        let r = sample_result();
        let table = solver_diagnostics(&r);
        assert_eq!(table.lines().count(), 7); // header + sep + 4 passes + total
        assert!(table.contains("search nodes"));
        for pass in ["A1", "A3", "B1", "B2", "total"] {
            assert!(table.contains(&format!("| {pass} |")), "missing {pass}");
        }
        // The sample flow has violated chips, so the table is not all
        // zeros: at minimum the A1 pass solved some regions.
        assert!(r.diagnostics.total().regions_total > 0);
    }

    #[test]
    fn solver_stage_times_renders_all_stages() {
        let table = psbi_obs::metrics::with_metrics(None, || {
            let _ = sample_result();
            solver_stage_times()
        });
        assert_eq!(table.lines().count(), 7); // header + sep + 4 stages + total
        for stage in ["discovery", "screen", "search", "milp", "total"] {
            assert!(table.contains(&format!("| {stage} |")), "missing {stage}");
        }
        // The flow solved real chips under an armed registry, so the
        // screen stage ran (it is unconditional per chip per pass) and
        // recorded a nonzero call count in its histogram row.
        let screen_row = table
            .lines()
            .find(|l| l.starts_with("| screen |"))
            .expect("screen row");
        let calls: u64 = screen_row
            .trim_end_matches('|')
            .rsplit('|')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(calls > 0, "screen stage never timed: {table}");
    }
}
