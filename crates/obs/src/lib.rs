#![warn(missing_docs)]
//! Zero-dependency observability for the PSBI workspace.
//!
//! Two subsystems, both disarmed by default and both costing a single
//! relaxed atomic load per site when disarmed (the `psbi_fault` fast-path
//! pattern):
//!
//! * [`trace`] — span-based tracing.  RAII [`Span`] guards bracket named
//!   regions of work; armed via `PSBI_TRACE=<path>` (or programmatically
//!   with [`trace::arm`]), the buffered events flush as a Chrome
//!   trace-event JSON array loadable in Perfetto.
//! * [`metrics`] — a process-wide registry of named counters, gauges and
//!   log-bucketed histograms.  Armed via `PSBI_METRICS=<path>` (or
//!   programmatically); snapshots export as JSON and Prometheus text.
//!
//! Nothing is written until a flush: a process holds a [`FlushOnDrop`]
//! guard (or calls [`flush_all`]) around its run, so both files land when
//! the run ends on any path.
//!
//! Span and metric names follow a `layer.noun[.verb]` scheme
//! (`sample.batch.fill`, `flow.pass.a1`, `solve.stage.search`,
//! `fleet.job`); the README's Observability section tabulates them.
//!
//! # Determinism contract
//!
//! Observability writes only to its own output files.  Canonical outputs
//! (journals, canonical reports, results) are byte-identical with tracing
//! and metrics armed or disarmed — `tests/obs.rs` pins this.  Wall-time
//! metric *values* are non-canonical like wall times everywhere else in
//! the repo; event *counts* on deterministic code paths are reproducible
//! across worker counts.
//!
//! This crate is deliberately dependency-free (not even the vendored
//! shims): the observability layer must never perturb what it observes,
//! and it sits below every other workspace crate.

pub mod metrics;
pub mod trace;

pub use trace::Span;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises tests that arm the process-global trace sink or metrics
/// registry: [`trace::with_trace`], [`metrics::with_metrics`] and
/// [`test_lock`] all queue on this one gate.
static TEST_GATE: Mutex<()> = Mutex::new(());

pub(crate) fn test_gate() -> MutexGuard<'static, ()> {
    TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires the process-global observability test gate directly — for
/// tests that need to sequence *both* an unarmed reference run and armed
/// runs under one critical section (byte-neutrality comparisons).  While
/// the guard is held, call [`trace::arm`] / [`metrics::arm`] /
/// [`trace::disarm`] / [`metrics::disarm`] manually; do **not** call
/// [`trace::with_trace`] or [`metrics::with_metrics`], which would
/// deadlock on the same (non-reentrant) gate.
pub fn test_lock() -> MutexGuard<'static, ()> {
    test_gate()
}

/// Flushes both sinks — the trace, then the metrics snapshot — warning on
/// stderr instead of failing when a write does: by the time a caller
/// flushes, its real output is already safe.  Sinks that are not armed
/// are skipped, so this is free in a default run.  A library caller that
/// sets `PSBI_TRACE` / `PSBI_METRICS` calls this once when its run ends
/// to get the files written.
pub fn flush_all() {
    if trace::enabled() {
        if let Err(e) = trace::flush() {
            eprintln!("psbi_obs: warning: trace flush failed: {e}");
        }
    }
    if metrics::enabled() {
        if let Err(e) = metrics::flush() {
            eprintln!("psbi_obs: warning: metrics flush failed: {e}");
        }
    }
}

/// Calls [`flush_all`] when dropped: hold one for the length of a run
/// (a campaign, a worker or dispatcher process) so its trace and metrics
/// files are written whichever way the run returns.
pub struct FlushOnDrop;

impl Drop for FlushOnDrop {
    fn drop(&mut self) {
        flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_all_writes_every_armed_sink() {
        let _gate = test_lock();
        let dir = std::env::temp_dir();
        let trace_path = dir.join(format!("psbi_obs_flush_all_{}.json", std::process::id()));
        let metrics_path = dir.join(format!("psbi_obs_flush_all_{}.m.json", std::process::id()));
        trace::arm(trace_path.clone());
        metrics::arm(Some(metrics_path.clone()));
        {
            let _span = Span::enter("obs.flush_all");
            metrics::counter_add("obs.flush_all", 1);
        }
        // The guard is the RAII form of `flush_all`.
        drop(FlushOnDrop);
        trace::disarm();
        metrics::disarm();
        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        let snapshot = std::fs::read_to_string(&metrics_path).expect("metrics written");
        assert!(trace.contains("obs.flush_all"));
        assert!(snapshot.contains("obs.flush_all"));
        // Disarmed sinks are skipped: nothing is rewritten.
        std::fs::remove_file(&trace_path).unwrap();
        flush_all();
        assert!(!trace_path.exists());
        let mut prom = metrics_path.clone().into_os_string();
        prom.push(".prom");
        for p in [metrics_path, prom.into()] {
            let _ = std::fs::remove_file(p);
        }
    }
}
