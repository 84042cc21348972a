//! Named metrics, correctness tallies, and the printed result.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// What the value rests on (sample counts, percentiles), for people.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self::noted(name, value, unit, String::new())
    }

    /// A metric with a note printed beside it.
    pub fn noted(name: &'static str, value: f64, unit: &'static str, note: String) -> Self {
        Self {
            name,
            value,
            unit,
            note,
        }
    }
}

/// Correctness tally of one run: every timed request and every extra
/// check is attempted once; each one that fails counts as failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Units of work checked (jobs, or a campaign's grid jobs).
    pub attempted: u64,
    /// Units whose check failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `units` units of work that passed (`Ok`) or failed.
    pub fn record(&mut self, units: u64, result: Result<(), String>) {
        self.attempted += units;
        if let Err(why) = result {
            self.failed += units;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// Attempted units that passed, as a share of those attempted.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness tally.
    pub checks: Checks,
    /// Host and run description (`key`, JSON value text).
    pub meta: Vec<(&'static str, String)>,
    /// Human-readable findings (layer predictions and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The printed result: one human-readable line per metric, the
    /// metadata and notes, and as the very last line the JSON object
    /// `{"correct", "attempted", "failed", "metrics"}`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(
                out,
                "metric {:<28} {:>16} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        for failure in &self.checks.failures {
            let _ = writeln!(out, "failure {failure}");
        }
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let _ = writeln!(out, "meta {{{}}}", meta.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    fmt_value(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        );
        out
    }
}

/// Shortest round-trip text of a value; non-finite values (never produced
/// by a sound run) print as 0 so the line stays valid JSON.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
