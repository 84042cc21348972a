//! Aggregated campaign reporting: per-circuit/per-k tables in
//! human-readable and JSON form.
//!
//! The JSON report has a **canonical** part — campaign identity, the job
//! records, and summary aggregates, all computed in job order with
//! deterministic float formatting — and an optional `timings` section.
//! Wall-clock times are the only run-dependent data a campaign produces,
//! so excluding them (the default, and always the `canonical_json` form)
//! makes the report byte-identical across worker counts and across
//! interrupted-and-resumed runs; the determinism tests compare exactly
//! these bytes.

use crate::journal::JobRecord;
use crate::json::{escape, fmt_f64};
use crate::runner::CampaignOutcome;
use crate::spec::CampaignSpec;
use psbi_core::flow::FlowDiagnostics;
use std::fmt::Write as _;

/// Aggregates per sigma factor `k` (one column group of the paper's
/// Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct SigmaSummary {
    /// The sigma factor.
    pub sigma_factor: f64,
    /// Jobs recorded at this factor.
    pub jobs: usize,
    /// Mean unbuffered yield (%).
    pub mean_yield_baseline: f64,
    /// Mean buffered yield (%).
    pub mean_yield_buffered: f64,
    /// Mean improvement (pts).
    pub mean_improvement: f64,
    /// Total physical buffers.
    pub total_buffers: usize,
    /// Total delay elements (area proxy).
    pub total_delay_elements: u64,
}

/// The assembled campaign report.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Spec fingerprint (binds report to journal and spec).
    pub fingerprint: String,
    /// Grid size.
    pub total_jobs: usize,
    /// Completed records in job order.
    pub records: Vec<JobRecord>,
    /// Per-job wall seconds (`None` when resumed or unavailable).
    pub job_wall_s: Vec<Option<f64>>,
    /// Per-job solver counters (`None` when resumed or unavailable).
    /// Non-canonical, exactly like the wall times, so they live outside
    /// the canonical byte surface.
    ///
    /// Resumed jobs are always `None`: diagnostics are quarantined from
    /// the journal by design, so a resumed campaign only reports the
    /// jobs *this* invocation executed (the tables and the
    /// `solver_cache` section say so explicitly).
    pub job_diagnostics: Vec<Option<FlowDiagnostics>>,
    /// Wall time of the producing invocation, when known.
    pub wall_s: Option<f64>,
}

impl CampaignReport {
    /// Builds the report from a live run's outcome (timings available).
    pub fn from_outcome(spec: &CampaignSpec, outcome: &CampaignOutcome) -> Self {
        Self {
            name: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            total_jobs: outcome.total_jobs,
            records: outcome.records.clone(),
            job_wall_s: outcome.job_wall_s.clone(),
            job_diagnostics: outcome.job_diagnostics.clone(),
            wall_s: Some(outcome.wall_s),
        }
    }

    /// Builds the report from replayed journal records (no timings).
    pub fn from_records(spec: &CampaignSpec, records: Vec<JobRecord>) -> Self {
        let total = spec.jobs().len();
        Self {
            name: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            total_jobs: total,
            job_wall_s: vec![None; total],
            job_diagnostics: vec![None; total],
            records,
            wall_s: None,
        }
    }

    /// Solver counters summed over the jobs this invocation executed,
    /// when any were recorded.
    pub fn solver_cache_totals(&self) -> Option<psbi_core::solve::PassDiagnostics> {
        let mut any = false;
        let mut total = psbi_core::solve::PassDiagnostics::default();
        for diag in self.job_diagnostics.iter().flatten() {
            any = true;
            total.merge(&diag.total());
        }
        any.then_some(total)
    }

    /// Whether every grid cell has a record.
    pub fn complete(&self) -> bool {
        self.records.len() == self.total_jobs
    }

    /// Records that exhausted their retry budget and carry no result
    /// (their numeric fields are zeroed — see `JobRecord::quarantined`).
    pub fn quarantined(&self) -> Vec<&JobRecord> {
        self.records.iter().filter(|r| r.quarantined).collect()
    }

    /// Per-sigma-factor aggregates, in first-appearance (grid) order.
    /// Quarantined records are excluded — averaging their zeroed fields
    /// would silently drag every mean down.
    pub fn sigma_summaries(&self) -> Vec<SigmaSummary> {
        let healthy: Vec<&JobRecord> = self.records.iter().filter(|r| !r.quarantined).collect();
        let mut order: Vec<f64> = Vec::new();
        for r in &healthy {
            if !order
                .iter()
                .any(|k| k.to_bits() == r.sigma_factor.to_bits())
            {
                order.push(r.sigma_factor);
            }
        }
        order
            .into_iter()
            .map(|k| {
                let rows: Vec<&JobRecord> = healthy
                    .iter()
                    .copied()
                    .filter(|r| r.sigma_factor.to_bits() == k.to_bits())
                    .collect();
                let n = rows.len() as f64;
                SigmaSummary {
                    sigma_factor: k,
                    jobs: rows.len(),
                    mean_yield_baseline: rows.iter().map(|r| r.yield_baseline).sum::<f64>() / n,
                    mean_yield_buffered: rows.iter().map(|r| r.yield_with_buffers).sum::<f64>() / n,
                    mean_improvement: rows.iter().map(|r| r.improvement).sum::<f64>() / n,
                    total_buffers: rows.iter().map(|r| r.nb).sum(),
                    total_delay_elements: rows.iter().map(|r| r.delay_elements).sum(),
                }
            })
            .collect()
    }

    /// The human-readable report: per-job table, per-k aggregates, and
    /// wall times when available.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign `{}` ({}): {}/{} jobs complete",
            self.name,
            self.fingerprint,
            self.records.len(),
            self.total_jobs
        );
        let _ = writeln!(
            out,
            "| job | circuit | ns | ng | k | T (ps) | Nb | Ab | Yo (%) | Y (%) | Yi (pts) | elems | bits | wall (s) |"
        );
        let _ = writeln!(
            out,
            "|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"
        );
        for r in &self.records {
            let wall = self
                .job_wall_s
                .get(r.job)
                .copied()
                .flatten()
                .map_or_else(|| "cached".to_string(), |w| format!("{w:.2}"));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.2} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {} | {} |",
                r.job,
                r.circuit_id,
                r.n_ffs,
                r.n_gates,
                r.sigma_factor,
                r.period,
                r.nb,
                r.ab,
                r.yield_baseline,
                r.yield_with_buffers,
                r.improvement,
                r.delay_elements,
                r.config_bits,
                wall
            );
        }
        let _ = writeln!(out);
        let quarantined = self.quarantined();
        if !quarantined.is_empty() {
            let _ = writeln!(out, "quarantined jobs (excluded from aggregates):");
            for r in &quarantined {
                let _ = writeln!(
                    out,
                    "  job {} {} k={}: {}",
                    r.job, r.circuit_id, r.sigma_factor, r.fault
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "per-sigma aggregates:");
        for s in self.sigma_summaries() {
            let _ = writeln!(
                out,
                "  k={}: {} jobs, mean Yo {:.2}% -> Y {:.2}% (Yi {:.2} pts), \
                 {} buffers, {} delay elements",
                s.sigma_factor,
                s.jobs,
                s.mean_yield_baseline,
                s.mean_yield_buffered,
                s.mean_improvement,
                s.total_buffers,
                s.total_delay_elements
            );
        }
        if let Some(cache) = self.solver_cache_totals() {
            let _ = writeln!(
                out,
                "solver cache (executed jobs; resumed jobs' counters stay in the \
                 journal-quarantined past): {} of {} regions saturated region_cap",
                cache.regions_saturated, cache.regions_total
            );
        }
        if let Some(wall) = self.wall_s {
            let executed = self.job_wall_s.iter().flatten().count();
            let _ = writeln!(
                out,
                "executed {executed} jobs in {wall:.2} s ({} resumed from journal)",
                self.records.len().saturating_sub(executed)
            );
        }
        out
    }

    /// The JSON report.  With `include_timings == false` this is the
    /// canonical byte-deterministic form.
    pub fn json(&self, include_timings: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"campaign\": \"{}\",", escape(&self.name));
        let _ = writeln!(out, "  \"fingerprint\": \"{}\",", self.fingerprint);
        let _ = writeln!(out, "  \"jobs_total\": {},", self.total_jobs);
        let _ = writeln!(out, "  \"jobs_completed\": {},", self.records.len());
        let _ = writeln!(out, "  \"jobs_quarantined\": {},", self.quarantined().len());
        let _ = writeln!(out, "  \"complete\": {},", self.complete());
        let _ = writeln!(out, "  \"results\": [");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", r.to_json_line());
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"summary\": {{");
        let _ = writeln!(out, "    \"per_sigma\": [");
        let summaries = self.sigma_summaries();
        for (i, s) in summaries.iter().enumerate() {
            let comma = if i + 1 < summaries.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "      {{\"sigma_factor\":{},\"jobs\":{},\"mean_yield_baseline\":{},\
                 \"mean_yield_buffered\":{},\"mean_improvement\":{},\"total_buffers\":{},\
                 \"total_delay_elements\":{}}}{comma}",
                fmt_f64(s.sigma_factor),
                s.jobs,
                fmt_f64(s.mean_yield_baseline),
                fmt_f64(s.mean_yield_buffered),
                fmt_f64(s.mean_improvement),
                s.total_buffers,
                s.total_delay_elements
            );
        }
        let _ = writeln!(out, "    ],");
        let _ = writeln!(
            out,
            "    \"total_buffers\": {},",
            self.records.iter().map(|r| r.nb).sum::<usize>()
        );
        let _ = writeln!(
            out,
            "    \"total_delay_elements\": {},",
            self.records.iter().map(|r| r.delay_elements).sum::<u64>()
        );
        let _ = writeln!(
            out,
            "    \"total_config_bits\": {}",
            self.records.iter().map(|r| r.config_bits).sum::<u64>()
        );
        if include_timings {
            let _ = writeln!(out, "  }},");
            let _ = writeln!(out, "  \"timings\": {{");
            let walls: Vec<String> = self
                .job_wall_s
                .iter()
                .map(|w| w.map_or_else(|| "null".to_string(), |v| format!("{v:.6}")))
                .collect();
            let _ = writeln!(out, "    \"job_wall_s\": [{}],", walls.join(", "));
            let _ = writeln!(
                out,
                "    \"total_wall_s\": {}",
                self.wall_s
                    .map_or_else(|| "null".to_string(), |v| format!("{v:.6}"))
            );
            // The solver counters ride in the same non-canonical section
            // as the wall times: both describe how the results were
            // computed, not the results.
            match self.solver_cache_totals() {
                Some(cache) => {
                    let _ = writeln!(out, "  }},");
                    let _ = writeln!(out, "  \"solver_cache\": {{");
                    let _ = writeln!(out, "    \"regions_total\": {},", cache.regions_total);
                    let _ = writeln!(
                        out,
                        "    \"regions_saturated\": {}",
                        cache.regions_saturated
                    );
                    let _ = writeln!(out, "  }}");
                }
                None => {
                    let _ = writeln!(out, "  }}");
                }
            }
        } else {
            let _ = writeln!(out, "  }}");
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// The byte-deterministic report form (no timing section): identical
    /// across worker counts and across kill + resume.
    pub fn canonical_json(&self) -> String {
        self.json(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn record(job: usize, k: f64, nb: usize) -> JobRecord {
        JobRecord {
            job,
            circuit_id: format!("tiny_demo:{}", job / 2 + 1),
            circuit: "tiny_demo".into(),
            n_ffs: 24,
            n_gates: 220,
            sigma_factor: k,
            mu_t: 1000.0,
            sigma_t: 50.0,
            period: 1000.0 + k * 50.0,
            step: 7.8125,
            nb,
            ab: 4.0,
            yield_baseline: 50.0 + 20.0 * k,
            yield_with_buffers: 90.0 + 4.0 * k,
            improvement: 40.0 - 16.0 * k,
            rescued: 100,
            broken: 0,
            buffers_before_grouping: nb + 1,
            delay_elements: 8 * nb as u64,
            config_bits: 3 * nb as u64,
            a1_infeasible: 0,
            b2_infeasible: 0,
            refit_ran: false,
            quarantined: false,
            fault: String::new(),
        }
    }

    fn sample_report() -> CampaignReport {
        let spec = CampaignSpec::example();
        let records = vec![
            record(0, 0.0, 3),
            record(1, 2.0, 2),
            record(2, 0.0, 5),
            record(3, 2.0, 1),
        ];
        CampaignReport::from_records(&spec, records)
    }

    #[test]
    fn aggregates_group_by_sigma_in_grid_order() {
        let report = sample_report();
        assert!(report.complete());
        let sums = report.sigma_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].sigma_factor, 0.0);
        assert_eq!(sums[0].jobs, 2);
        assert_eq!(sums[0].total_buffers, 8);
        assert_eq!(sums[1].sigma_factor, 2.0);
        assert_eq!(sums[1].mean_improvement, 8.0);
    }

    #[test]
    fn canonical_json_is_valid_and_excludes_timings() {
        let report = sample_report();
        let canonical = report.canonical_json();
        let v = Json::parse(&canonical).unwrap();
        assert_eq!(v.get("jobs_completed").unwrap().as_usize(), Some(4));
        assert!(v.get("timings").is_none());
        assert_eq!(v.get("results").unwrap().as_arr().unwrap().len(), 4);
        // Timed form parses too and carries the section.
        let timed = report.json(true);
        assert!(Json::parse(&timed).unwrap().get("timings").is_some());
        // Canonical form is independent of timing data.
        let mut with_walls = report.clone();
        with_walls.job_wall_s = vec![Some(1.0); 4];
        with_walls.wall_s = Some(9.0);
        assert_eq!(with_walls.canonical_json(), canonical);
    }

    #[test]
    fn quarantined_records_are_excluded_from_aggregates() {
        let spec = CampaignSpec::example();
        let mut bad = record(2, 0.0, 0);
        bad.quarantined = true;
        bad.fault = "injected fault: fleet.job.panic".into();
        bad.nb = 0;
        bad.yield_baseline = 0.0;
        bad.yield_with_buffers = 0.0;
        bad.improvement = 0.0;
        let records = vec![record(0, 0.0, 3), record(1, 2.0, 2), bad, record(3, 2.0, 1)];
        let report = CampaignReport::from_records(&spec, records);
        assert_eq!(report.quarantined().len(), 1);
        let sums = report.sigma_summaries();
        // k=0 now aggregates ONE healthy job; the zeroed quarantined
        // record must not drag the mean to half.
        assert_eq!(sums[0].jobs, 1);
        assert_eq!(sums[0].mean_yield_baseline, 50.0);
        assert_eq!(sums[0].total_buffers, 3);
        let text = report.text();
        assert!(text.contains("quarantined jobs (excluded from aggregates):"));
        assert!(text.contains("injected fault: fleet.job.panic"));
        let json = report.canonical_json();
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("jobs_quarantined").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn text_report_renders_rows_and_aggregates() {
        let report = sample_report();
        let text = report.text();
        assert!(text.contains("4/4 jobs complete"));
        assert!(text.contains("| 0 | tiny_demo:1 |"));
        assert!(text.contains("per-sigma aggregates:"));
        assert!(text.contains("k=0:"));
    }
}
