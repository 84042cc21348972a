//! The in-process campaign executor.
//!
//! Worker threads claim jobs one at a time from the campaign's
//! [`Ledger`] — lowest pending index first, the fixed-chunk discipline
//! `psbi_core::flow` uses for sample chunks, lifted one level up — and
//! hand every finished record back to it.  Determinism comes from three
//! ingredients:
//!
//! 1. every job's result is a pure function of (spec, job index) — the
//!    flow is bit-reproducible for any thread count, and job `i` always
//!    names the same (circuit, sigma factor) cell;
//! 2. the ledger commits records to the journal **in job-index order**
//!    (its reorder buffer parks early finishers), so the journal's bytes
//!    never depend on completion order;
//! 3. wall-clock times stay out of the journal (they live in
//!    [`CampaignOutcome`]).
//!
//! Together: a campaign's journal and canonical report are byte-identical
//! for any worker count, and a mid-campaign kill + resume reproduces the
//! uninterrupted run exactly (pinned by `tests/fleet_determinism.rs`).
//! The dispatcher's executors go through the same ledger and the same
//! per-job function ([`execute_batch`]), so a distributed campaign is
//! byte-identical too.
//!
//! One flow per circuit is built up front and serves the whole sigma
//! sweep of the invocation (calibration cached, timing graph built once);
//! every flow shares one [`psbi_core::flow::WorkspacePool`].

use crate::error::FleetError;
use crate::journal::JobRecord;
use crate::ledger::Ledger;
use crate::spec::{CampaignSpec, JobSpec};
use psbi_core::flow::{
    BufferInsertionFlow, FlowConfig, FlowDiagnostics, InsertionResult, TargetPeriod, WorkspacePool,
};
use psbi_netlist::Circuit;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Execution knobs for one `run_campaign` invocation.
///
/// These are *runtime* knobs: none of them participates in the spec
/// fingerprint, because none of them may change a result.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Concurrent jobs (0 = all cores).  Total parallelism is
    /// `workers × threads_per_job`.
    pub workers: usize,
    /// Stop after this many *newly executed* jobs (checkpoint test hook
    /// and incremental-run knob); `None` runs to completion.
    pub max_jobs: Option<usize>,
    /// Print per-job progress lines to stderr, plus a periodic summary
    /// line (jobs done / total, quarantines, elapsed, ETA) read from the
    /// campaign ledger.
    pub progress: bool,
    /// How many times a panicking job is re-executed before it is
    /// quarantined.  Retries are deterministic: job `i` always re-runs
    /// the same pure function, so a retry either reproduces the panic
    /// (systematic fault → quarantine) or the first panic was transient
    /// injection and the retry's result is the canonical one.
    pub retries: usize,
    /// Run the independent result verifier on every job
    /// (`FlowConfig::verify`).  Canonical outputs are untouched; a
    /// failed verification surfaces as [`FleetError::Verify`] *after*
    /// the campaign completes and every record is journaled.
    pub verify: bool,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            max_jobs: None,
            progress: false,
            retries: 2,
            verify: false,
        }
    }
}

/// What one `run_campaign` invocation produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Committed records, in job order (resumed prefix + newly executed).
    pub records: Vec<JobRecord>,
    /// Jobs replayed from the journal instead of executed.
    pub resumed_jobs: usize,
    /// Jobs executed by this invocation.
    pub executed_jobs: usize,
    /// Grid size.
    pub total_jobs: usize,
    /// Per-job wall time in seconds; `None` for jobs that were resumed
    /// from the journal (or not yet run).  Indexed by job.
    pub job_wall_s: Vec<Option<f64>>,
    /// Per-job solver counters; `None` for resumed jobs.  Non-canonical,
    /// like [`CampaignOutcome::job_wall_s`].
    ///
    /// Jobs **resumed from the journal are `None` by design**: the
    /// journal carries only the canonical byte surface, and these
    /// counters are quarantined from it (they differ between prune
    /// modes while the results do not), so an interrupted-and-resumed
    /// campaign cannot recover the diagnostics of jobs a previous
    /// process executed.  Aggregations label themselves "executed jobs"
    /// accordingly (`resumed_diagnostics_quarantined` in the runner
    /// tests pins this contract).
    pub job_diagnostics: Vec<Option<FlowDiagnostics>>,
    /// Always 0: no per-chip solver state is kept between jobs.  Kept so
    /// existing readers of the counter still compile.
    pub peak_resident_states: u64,
    /// Wall time of this invocation.
    pub wall_s: f64,
}

impl CampaignOutcome {
    /// Whether every grid cell has a record.
    pub fn complete(&self) -> bool {
        self.records.len() == self.total_jobs
    }
}

/// Best-effort human-readable panic payload (deterministic for string
/// panics, which is all the fault harness and the flow ever raise).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under `catch_unwind` with a bounded retry budget.
///
/// `Ok` is the job's (bit-deterministic) result; `Err` carries the final
/// panic message after the budget is exhausted — the caller quarantines.
/// Unwinding cannot corrupt the flow: workspaces checked out when a
/// panic strikes are simply not returned to the pool, shared mutexes
/// recover from poisoning, and every retry recomputes from the same
/// deterministic inputs.
fn execute_job(
    flow: &BufferInsertionFlow,
    job: &JobSpec,
    retries: usize,
) -> Result<InsertionResult, String> {
    let mut fault = String::new();
    for attempt in 0..=retries {
        let _span = psbi_obs::Span::enter_with(
            "fleet.job.attempt",
            &[("job", job.index as u64), ("attempt", attempt as u64)],
        );
        psbi_obs::metrics::counter_add("fleet.job.attempts", 1);
        if attempt > 0 {
            psbi_obs::metrics::counter_add("fleet.jobs.retried", 1);
        }
        match catch_unwind(AssertUnwindSafe(|| {
            if psbi_fault::failpoint!("fleet.job.panic", "job" = job.index) {
                panic!("injected fault: fleet.job.panic");
            }
            flow.run_target(TargetPeriod::SigmaFactor(job.sigma_factor))
        })) {
            Ok(result) => return Ok(result),
            Err(payload) => fault = panic_message(payload),
        }
    }
    Err(fault)
}

/// One executed job: its journal record plus the non-canonical extras
/// that never reach the journal.
struct JobRun {
    record: JobRecord,
    wall_s: f64,
    /// `None` for a quarantined job (it produced no result).
    diagnostics: Option<FlowDiagnostics>,
}

impl JobRun {
    /// The independent verifier's failure report, when it ran and failed.
    fn verify_failure(&self) -> Option<String> {
        self.diagnostics
            .as_ref()
            .and_then(|d| d.verify.as_ref())
            .filter(|report| !report.passed)
            .map(ToString::to_string)
    }
}

/// Runs grid job `job` on `flow` — the one "run job `i`" of every
/// executor: the `fleet.job` span and wall timer around
/// [`execute_job`], then a result record, or a quarantine record once the
/// retry budget is spent.
fn run_job(flow: &BufferInsertionFlow, job: &JobSpec, retries: usize) -> JobRun {
    let _job_span = psbi_obs::Span::enter_with("fleet.job", &[("job", job.index as u64)]);
    let t_job = Instant::now();
    let executed = {
        let _timer = psbi_obs::metrics::timer("fleet.job.wall");
        execute_job(flow, job, retries)
    };
    let wall_s = t_job.elapsed().as_secs_f64();
    psbi_obs::metrics::counter_add("fleet.jobs.executed", 1);
    let (record, diagnostics) = match executed {
        Ok(result) => (
            JobRecord::from_result(job, &result),
            Some(result.diagnostics),
        ),
        Err(fault) => {
            psbi_obs::metrics::counter_add("fleet.jobs.quarantined", 1);
            (JobRecord::quarantined(job, fault), None)
        }
    };
    JobRun {
        record,
        wall_s,
        diagnostics,
    }
}

/// Materialises each circuit `jobs` name once, keyed by circuit index.
fn circuits_of<'a>(
    jobs: impl IntoIterator<Item = &'a JobSpec>,
) -> Result<BTreeMap<usize, Circuit>, FleetError> {
    let mut circuits = BTreeMap::new();
    for job in jobs {
        if let Entry::Vacant(slot) = circuits.entry(job.circuit_index) {
            slot.insert(job.circuit.materialize().map_err(FleetError::Circuit)?);
        }
    }
    Ok(circuits)
}

/// Builds one flow per circuit, every flow checking worker scratch out of
/// the shared `pool`.  A flow serves its circuit's whole sigma sweep: the
/// timing graph and sampler are built once, and the µT/σT calibration is
/// computed on first use and cached.
fn flows_for<'c>(
    circuits: &'c BTreeMap<usize, Circuit>,
    cfg: &FlowConfig,
    pool: &Arc<WorkspacePool>,
) -> Result<BTreeMap<usize, BufferInsertionFlow<'c>>, FleetError> {
    circuits
        .iter()
        .map(|(&index, circuit)| {
            BufferInsertionFlow::builder(circuit, cfg.clone())
                .pool(Arc::clone(pool))
                .build()
                .map(|flow| (index, flow))
                .map_err(|e| FleetError::Circuit(format!("{}: {e}", circuit.name)))
        })
        .collect()
}

/// Runs a batch of grid jobs sequentially through [`run_job`], handing
/// each finished [`JobRecord`] to `emit` — the execution core of the
/// dispatch worker and the dispatcher's inline fallback, which differ only
/// in where records go (the wire vs the ledger).  `emit`'s second
/// argument is the independent verifier's failure report when `verify` is
/// set and the re-check failed (non-canonical — it never reaches the
/// journal); `emit` returning `Ok(false)` stops the batch early (lease
/// expired, connection lost) — remaining jobs are simply not run.
///
/// # Errors
///
/// Circuit materialisation / flow construction failures, and whatever
/// `emit` raises.
pub(crate) fn execute_batch(
    spec: &CampaignSpec,
    jobs: &[JobSpec],
    pool: &Arc<WorkspacePool>,
    retries: usize,
    verify: bool,
    emit: &mut dyn FnMut(JobRecord, Option<String>) -> Result<bool, FleetError>,
) -> Result<(), FleetError> {
    let mut cfg = spec.flow_config();
    cfg.verify = verify;
    let circuits = circuits_of(jobs)?;
    let flows = flows_for(&circuits, &cfg, pool)?;
    for job in jobs {
        let run = run_job(&flows[&job.circuit_index], job, retries);
        let verify_failed = run.verify_failure();
        if !emit(run.record, verify_failed)? {
            break;
        }
    }
    Ok(())
}

/// Locks the ledger.  Its commit window catches panics, so a poisoned
/// lock can only follow a panic between complete updates.
fn lock(ledger: &Mutex<Ledger>) -> MutexGuard<'_, Ledger> {
    ledger.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs (or resumes) `spec` against the journal at `journal_path`.
///
/// Completed jobs found in the journal are never re-executed; the rest are
/// sharded over the worker pool.  See the module docs for the determinism
/// contract.
///
/// # Errors
///
/// Spec validation, circuit materialisation / flow construction failures,
/// journal mismatches and IO errors.
pub fn run_campaign(
    spec: &CampaignSpec,
    journal_path: &std::path::Path,
    opts: &FleetOptions,
) -> Result<CampaignOutcome, FleetError> {
    let t_start = Instant::now();
    // The journal is on disk before the obs files are written.
    let _flush_obs = psbi_obs::FlushOnDrop;
    spec.validate()?;
    let ledger = Ledger::open(spec, journal_path, opts.max_jobs)?;
    let total = ledger.total();
    let resumed = ledger.resumed();
    let _campaign_span = psbi_obs::Span::enter_with("fleet.campaign", &[("jobs", total as u64)]);
    psbi_obs::metrics::gauge_set("fleet.jobs.total", total as u64);
    psbi_obs::metrics::counter_add("fleet.jobs.resumed", resumed as u64);

    let pool = Arc::new(WorkspacePool::new());
    let mut cfg = spec.flow_config();
    cfg.verify = opts.verify;
    let circuits = circuits_of(ledger.pending())?;
    let flows = flows_for(&circuits, &cfg, &pool)?;

    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(ledger.pending().count())
    .max(1);
    let ledger = Mutex::new(ledger);

    // A panic escaping a worker (only possible outside the retry harness
    // and the ledger's commit guard) fails the campaign with the worker
    // class instead of unwinding the caller; resume recovers the rest.
    let (runs, worker_panic) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // (job, wall time, diagnostics) of every job this thread ran.
                    let mut runs = Vec::new();
                    loop {
                        let job = {
                            let mut ledger = lock(&ledger);
                            let Some(j) = ledger.claim(1, false).pop_first() else {
                                break runs;
                            };
                            ledger.job(j).clone()
                        };
                        let run = run_job(&flows[&job.circuit_index], &job, opts.retries);
                        if opts.progress {
                            print_job_line(&run, total, opts.retries);
                        }
                        let verify_failed = run.verify_failure();
                        runs.push((job.index, run.wall_s, run.diagnostics));
                        let mut ledger = lock(&ledger);
                        if let Err(e) = ledger.accept(run.record, verify_failed) {
                            ledger.fail(e);
                        }
                    }
                })
            })
            .collect();
        // The periodic summary line, every 2 s until the workers finish.
        let mut last = Instant::now();
        while opts.progress && !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(100));
            if last.elapsed() < Duration::from_secs(2) {
                continue;
            }
            last = Instant::now();
            let (done, quarantined, end) = {
                let ledger = lock(&ledger);
                (ledger.committed(), ledger.quarantined(), ledger.end())
            };
            let elapsed = t_start.elapsed().as_secs_f64();
            let eta = if done > resumed && done < end {
                let eta = (end - done) as f64 * elapsed / (done - resumed) as f64;
                format!(", ETA {eta:.0}s")
            } else {
                String::new()
            };
            eprintln!(
                "psbi-fleet: progress {done}/{total} jobs committed \
                 ({quarantined} quarantined), {elapsed:.1}s elapsed{eta}"
            );
        }
        let mut runs = Vec::new();
        let mut worker_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(ran) => runs.extend(ran),
                Err(payload) => _ = worker_panic.get_or_insert(payload),
            }
        }
        (runs, worker_panic)
    });

    let mut ledger = ledger.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = worker_panic {
        ledger.fail(FleetError::Worker(panic_message(payload)));
    }
    let records = ledger.finish()?;
    let mut job_wall_s = vec![None; total];
    let mut job_diagnostics = vec![None; total];
    for (job, wall_s, diagnostics) in runs {
        job_wall_s[job] = Some(wall_s);
        job_diagnostics[job] = diagnostics;
    }
    Ok(CampaignOutcome {
        executed_jobs: records.len() - resumed,
        records,
        resumed_jobs: resumed,
        total_jobs: total,
        job_wall_s,
        job_diagnostics,
        peak_resident_states: 0,
        wall_s: t_start.elapsed().as_secs_f64(),
    })
}

/// The per-job progress line on stderr.
fn print_job_line(run: &JobRun, total: usize, retries: usize) {
    let r = &run.record;
    let outcome = if r.quarantined {
        format!("QUARANTINED after {} attempts: {}", retries + 1, r.fault)
    } else {
        let (y0, y1) = (r.yield_baseline, r.yield_with_buffers);
        format!(
            "Y {y0:.2}% -> {y1:.2}% ({} buffers, {:.2}s)",
            r.nb, run.wall_s
        )
    };
    let (job, circuit, k) = (r.job + 1, &r.circuit_id, r.sigma_factor);
    eprintln!("psbi-fleet: job {job}/{total} {circuit} k={k} {outcome}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "psbi_fleet_runner_test_{tag}_{}",
            std::process::id()
        ))
    }

    fn quick_spec() -> CampaignSpec {
        CampaignSpec {
            samples: 60,
            yield_samples: 120,
            calibration_samples: 120,
            ..CampaignSpec::example()
        }
    }

    #[test]
    fn campaign_runs_resumes_and_is_worker_count_invariant() {
        let spec = quick_spec();
        let path_a = tmp_path("a");
        let path_b = tmp_path("b");
        let path_c = tmp_path("c");
        for p in [&path_a, &path_b, &path_c] {
            let _ = std::fs::remove_file(p);
        }

        // Uninterrupted, 1 worker.
        let one = run_campaign(&spec, &path_a, &FleetOptions::default()).unwrap();
        assert!(one.complete());
        assert_eq!(one.executed_jobs, 4);

        // Uninterrupted, 4 workers: identical journal bytes and records.
        let four = run_campaign(
            &spec,
            &path_b,
            &FleetOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(one.records, four.records);
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap()
        );

        // Interrupted after 1 job, then resumed: same bytes again.
        let partial = run_campaign(
            &spec,
            &path_c,
            &FleetOptions {
                max_jobs: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!partial.complete());
        assert_eq!(partial.executed_jobs, 1);
        let finished = run_campaign(
            &spec,
            &path_c,
            &FleetOptions {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(finished.complete());
        assert_eq!(finished.resumed_jobs, 1);
        assert_eq!(finished.executed_jobs, 3);
        assert_eq!(finished.records, one.records);
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_c).unwrap()
        );

        // Re-running a complete campaign executes nothing.
        let noop = run_campaign(&spec, &path_a, &FleetOptions::default()).unwrap();
        assert_eq!(noop.executed_jobs, 0);
        assert_eq!(noop.resumed_jobs, 4);
        assert_eq!(noop.records, one.records);

        for p in [&path_a, &path_b, &path_c] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn verify_option_is_byte_neutral_and_populates_reports() {
        // --verify must not change a single canonical byte: the verifier
        // only *re-checks* results.  Its reports land in the (in-memory,
        // non-canonical) diagnostics.
        let spec = quick_spec();
        let path_plain = tmp_path("verify_plain");
        let path_verify = tmp_path("verify_on");
        for p in [&path_plain, &path_verify] {
            let _ = std::fs::remove_file(p);
        }
        let plain = run_campaign(&spec, &path_plain, &FleetOptions::default()).unwrap();
        let verified = run_campaign(
            &spec,
            &path_verify,
            &FleetOptions {
                verify: true,
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.records, verified.records);
        assert_eq!(
            std::fs::read(&path_plain).unwrap(),
            std::fs::read(&path_verify).unwrap()
        );
        for (j, diag) in verified.job_diagnostics.iter().enumerate() {
            let report = diag
                .as_ref()
                .and_then(|d| d.verify.as_ref())
                .unwrap_or_else(|| panic!("job {j} missing verify report"));
            assert!(report.passed, "job {j}: {report}");
            assert!(report.checks > 0);
        }
        assert!(plain
            .job_diagnostics
            .iter()
            .flatten()
            .all(|d| d.verify.is_none()));
        for p in [&path_plain, &path_verify] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn resumed_diagnostics_quarantined() {
        // Solver counters are quarantined from the journal (they differ
        // between prune modes while the canonical bytes do not),
        // so a resumed invocation CANNOT recover them for jobs a prior
        // process executed: resumed slots stay `None`, executed slots
        // are `Some`, and the aggregate labels itself "executed jobs".
        let spec = quick_spec();
        let path = tmp_path("quarantine");
        let _ = std::fs::remove_file(&path);
        let first = run_campaign(
            &spec,
            &path,
            &FleetOptions {
                max_jobs: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(first.executed_jobs, 1);
        assert!(first.job_diagnostics[0].is_some());
        let resumed = run_campaign(&spec, &path, &FleetOptions::default()).unwrap();
        assert!(resumed.complete());
        assert_eq!(resumed.resumed_jobs, 1);
        assert!(
            resumed.job_diagnostics[0].is_none(),
            "journal-resumed jobs must not fabricate diagnostics"
        );
        for j in 1..resumed.total_jobs {
            assert!(
                resumed.job_diagnostics[j].is_some(),
                "executed job {j} must carry diagnostics"
            );
        }
        let report = crate::CampaignReport::from_outcome(&spec, &resumed);
        assert!(report.text().contains("executed jobs"));
        let timed = report.json(true);
        assert!(timed.contains("\"solver_cache\""));
        let _ = std::fs::remove_file(&path);
    }
}
