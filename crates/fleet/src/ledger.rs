//! The campaign ledger: the one commit path every executor shares.
//!
//! Runner threads ([`crate::runner::run_campaign`]), remote workers on
//! leases and the dispatcher's inline fallback ([`crate::dispatch`]) all
//! claim jobs from, and hand finished records to, one [`Ledger`].  It
//! owns everything between "a job is pending" and "its line is on disk":
//!
//! * the pending set;
//! * a grid-identity check of every record (its job, circuit and sigma
//!   factor must be a cell of this grid);
//! * first-committed-wins deduplication — both copies of a job are the
//!   same pure function of (spec, job index), so dropping either is safe;
//! * the reorder buffer: records commit **in job-index order**, so the
//!   journal's bytes cannot depend on worker count, completion order or
//!   kill pattern;
//! * the `fleet.commit` span, the `fleet.commit.before_write` failpoint
//!   and the crate's only [`Journal::append`] call;
//! * quarantine and verifier-failure counts and the campaign-fatal error,
//!   which [`Ledger::finish`] turns into the campaign's one result.
//!
//! A panic in the commit window (the failpoint models one) fails the
//! campaign with [`FleetError::Worker`] under every executor: the journal
//! keeps its valid prefix, and a resume re-executes the unwritten job.

use crate::error::FleetError;
use crate::journal::{JobRecord, Journal};
use crate::runner::panic_message;
use crate::spec::{CampaignSpec, JobSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// One campaign's commit state (see the module docs).
pub(crate) struct Ledger {
    spec: CampaignSpec,
    jobs: Vec<JobSpec>,
    journal: Journal,
    /// Records replayed from the journal when it was opened.
    resumed: usize,
    /// One past the last job this invocation commits (the grid size, or
    /// fewer under a `max_jobs` budget).
    end: usize,
    /// Unclaimed, uncommitted jobs below `end`.
    pending: BTreeSet<usize>,
    /// Finished jobs waiting for their predecessors, each with its
    /// verifier failure report (non-canonical, never journaled).
    parked: BTreeMap<usize, (JobRecord, Option<String>)>,
    /// Committed records in job order, resumed prefix included; the next
    /// job to commit is `records.len()`.
    records: Vec<JobRecord>,
    /// Verifier failures of committed jobs, in job order.
    verify_failures: Vec<(usize, String)>,
    /// Campaign-fatal error; once set nothing more is claimed or committed.
    fatal: Option<FleetError>,
}

impl Ledger {
    /// Opens the journal for `spec` at `path` (repairing a torn tail) and
    /// marks every job after its resumed prefix pending — at most
    /// `max_jobs` of them when a budget is given.
    ///
    /// # Errors
    ///
    /// Whatever [`Journal::open`] refuses.
    pub(crate) fn open(
        spec: &CampaignSpec,
        path: &Path,
        max_jobs: Option<usize>,
    ) -> Result<Self, FleetError> {
        let jobs = spec.jobs();
        let (journal, records) = Journal::open(path, spec)?;
        let resumed = records.len();
        let end = max_jobs.map_or(jobs.len(), |k| jobs.len().min(resumed + k));
        Ok(Self {
            spec: spec.clone(),
            jobs,
            journal,
            resumed,
            end,
            pending: (resumed..end).collect(),
            parked: BTreeMap::new(),
            records,
            verify_failures: Vec::new(),
            fatal: None,
        })
    }

    pub(crate) fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    pub(crate) fn job(&self, index: usize) -> &JobSpec {
        &self.jobs[index]
    }

    /// Grid size.
    pub(crate) fn total(&self) -> usize {
        self.jobs.len()
    }

    /// Records replayed from the journal when it was opened.
    pub(crate) fn resumed(&self) -> usize {
        self.resumed
    }

    /// One past the last job this invocation commits.
    pub(crate) fn end(&self) -> usize {
        self.end
    }

    pub(crate) fn journal_path(&self) -> &Path {
        self.journal.path()
    }

    /// Records committed so far, resumed prefix included.
    pub(crate) fn committed(&self) -> usize {
        self.records.len()
    }

    /// Quarantined records committed so far, resumed prefix included.
    pub(crate) fn quarantined(&self) -> u64 {
        self.records.iter().filter(|r| r.quarantined).count() as u64
    }

    /// Unclaimed jobs, in job order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &JobSpec> {
        self.pending.iter().map(|&j| &self.jobs[j])
    }

    /// Whether every job of this invocation is committed.
    pub(crate) fn is_done(&self) -> bool {
        self.records.len() == self.end
    }

    /// Records parked behind a missing predecessor.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Whether a campaign-fatal error has been recorded.
    pub(crate) fn failed(&self) -> bool {
        self.fatal.is_some()
    }

    /// Claims up to `cap` pending jobs, lowest first.  With
    /// `circuit_aligned` the claim stays within the circuit of the lowest
    /// pending job, so one flow (and its calibration) serves all of it.
    pub(crate) fn claim(&mut self, cap: usize, circuit_aligned: bool) -> BTreeSet<usize> {
        let Some(&first) = self.pending.first() else {
            return BTreeSet::new();
        };
        let circuit = self.jobs[first].circuit_index;
        let claimed: BTreeSet<usize> = self
            .pending
            .iter()
            .copied()
            .filter(|&j| !circuit_aligned || self.jobs[j].circuit_index == circuit)
            .take(cap)
            .collect();
        for j in &claimed {
            self.pending.remove(j);
        }
        claimed
    }

    /// Returns claimed-but-unfinished jobs to the pending set (an expired
    /// lease).  A failed campaign takes nothing back.
    pub(crate) fn release(&mut self, jobs: &BTreeSet<usize>) {
        if self.fatal.is_none() {
            self.pending.extend(jobs.iter().copied());
        }
    }

    /// Feeds one finished record into the reorder buffer and commits every
    /// record that has become next in line.  Returns `Ok(false)` when the
    /// record was discarded — its job is already committed or parked
    /// (first-committed-wins), or the campaign has failed.
    ///
    /// `verify_failed` is the independent verifier's failure report for
    /// this job, if it ran and failed.
    ///
    /// # Errors
    ///
    /// [`FleetError::Dispatch`] when the record does not belong to this
    /// grid: a job index outside it, or a circuit or sigma factor other
    /// than the grid cell's.  Nothing is recorded in that case.
    pub(crate) fn accept(
        &mut self,
        record: JobRecord,
        verify_failed: Option<String>,
    ) -> Result<bool, FleetError> {
        let job = record.job;
        let Some(expected) = self.jobs.get(job) else {
            return Err(FleetError::Dispatch(format!(
                "result names job {job} outside the {}-job grid",
                self.jobs.len()
            )));
        };
        if record.circuit_id != expected.circuit.id()
            || record.sigma_factor.to_bits() != expected.sigma_factor.to_bits()
        {
            return Err(FleetError::Dispatch(format!(
                "record for job {job} does not match the campaign grid \
                 (circuit `{}` σ {}, expected `{}` σ {})",
                record.circuit_id,
                record.sigma_factor,
                expected.circuit.id(),
                expected.sigma_factor
            )));
        }
        if self.fatal.is_some() || job < self.records.len() || self.parked.contains_key(&job) {
            return Ok(false);
        }
        self.pending.remove(&job);
        self.parked.insert(job, (record, verify_failed));
        self.drain();
        Ok(true)
    }

    /// Commits parked records while the next one in job order is present.
    fn drain(&mut self) {
        while let Some((record, verify_failed)) = self.parked.remove(&self.records.len()) {
            let job = self.records.len();
            let _span = psbi_obs::Span::enter_with("fleet.commit", &[("job", job as u64)]);
            let written = catch_unwind(AssertUnwindSafe(|| {
                if psbi_fault::failpoint!("fleet.commit.before_write", "job" = job) {
                    // A crash between claiming the commit slot and writing
                    // the record: the journal keeps its valid prefix and
                    // resume re-executes this job.
                    panic!("injected fault: fleet.commit.before_write");
                }
                self.journal.append(&record)
            }));
            match written {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return self.fail(e),
                Err(payload) => return self.fail(FleetError::Worker(panic_message(payload))),
            }
            if let Some(report) = verify_failed {
                self.verify_failures.push((job, report));
            }
            self.records.push(record);
            psbi_obs::metrics::counter_add("fleet.jobs.committed", 1);
        }
    }

    /// Records a campaign-fatal error (the first one wins) and stops
    /// handing out work: pending jobs are pointless once the campaign
    /// cannot finish.
    pub(crate) fn fail(&mut self, error: FleetError) {
        self.fatal.get_or_insert(error);
        self.pending.clear();
    }

    /// The campaign's terminal result: the committed records in job order,
    /// or the fatal error, or — when every record is journaled but some
    /// failed independent verification — one [`FleetError::Verify`]
    /// listing them in job order.  Consuming the ledger closes the journal
    /// (and releases its lock).
    ///
    /// # Errors
    ///
    /// As described above.
    pub(crate) fn finish(self) -> Result<Vec<JobRecord>, FleetError> {
        if let Some(e) = self.fatal {
            return Err(e);
        }
        if !self.verify_failures.is_empty() {
            let detail: Vec<String> = self
                .verify_failures
                .iter()
                .map(|(job, report)| format!("job {job}: {report}"))
                .collect();
            return Err(FleetError::Verify(format!(
                "{} of {} job(s) failed independent verification — {}",
                self.verify_failures.len(),
                self.records.len(),
                detail.join("; ")
            )));
        }
        Ok(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psbi_ledger_test_{tag}_{}", std::process::id()))
    }

    fn rec(spec: &CampaignSpec, j: usize) -> JobRecord {
        JobRecord::quarantined(&spec.jobs()[j], "test".into())
    }

    #[test]
    fn claims_are_ordered_capped_and_circuit_aligned() {
        let spec = CampaignSpec::example();
        let path = tmp("claim");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&spec, &path, None).unwrap();
        let per_circuit = spec.sigma_factors.len();
        assert_eq!(ledger.claim(1, false), BTreeSet::from([0]));
        // Circuit-aligned: the rest of circuit 0, never spilling over.
        let aligned = ledger.claim(usize::MAX, true);
        assert_eq!(aligned, (1..per_circuit).collect());
        ledger.release(&aligned);
        assert_eq!(ledger.claim(1, false), BTreeSet::from([1]));
        drop(ledger);
        // A budget bounds what one invocation may claim.
        let mut budgeted = Ledger::open(&spec, &path, Some(1)).unwrap();
        assert_eq!(budgeted.end(), 1);
        assert_eq!(budgeted.claim(usize::MAX, false), BTreeSet::from([0]));
        assert!(budgeted.claim(usize::MAX, false).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_records_are_refused_and_leave_no_trace() {
        let spec = CampaignSpec::example();
        let path = tmp("foreign");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&spec, &path, None).unwrap();
        let mut wrong_cell = rec(&spec, 0);
        wrong_cell.sigma_factor += 1.0;
        assert!(ledger.accept(wrong_cell, None).is_err());
        let mut off_grid = rec(&spec, 0);
        off_grid.job = ledger.total();
        assert!(ledger.accept(off_grid, None).is_err());
        assert_eq!(ledger.committed(), 0);
        assert_eq!(ledger.pending().count(), ledger.total());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_failures_report_once_in_job_order() {
        let spec = CampaignSpec::example();
        let path = tmp("verify");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&spec, &path, None).unwrap();
        let total = ledger.total();
        for j in (0..total).rev() {
            let report = (j % 2 == 1).then(|| format!("bad {j}"));
            assert!(ledger.accept(rec(&spec, j), report).unwrap());
        }
        assert!(ledger.is_done());
        assert_eq!(ledger.quarantined(), total as u64);
        let Err(FleetError::Verify(message)) = ledger.finish() else {
            panic!("verify failures must fail the campaign");
        };
        assert_eq!(
            message,
            format!(
                "2 of {total} job(s) failed independent verification — \
                 job 1: bad 1; job 3: bad 3"
            )
        );
        let _ = std::fs::remove_file(&path);
    }
}
