//! The dispatch clients: `psbi-fleet worker` and `psbi-fleet submit`.
//!
//! # Worker
//!
//! [`run_worker`] connects to a dispatcher, requests leases and executes
//! them through [`crate::runner`]'s batch core — the same per-job
//! function the single-process runner and the dispatcher's inline
//! fallback use, since the determinism story needs exactly one
//! implementation of "run job `i`".  Its records go back over the wire
//! into the campaign's ledger on the dispatcher.  The robustness
//! machinery wraps around it:
//!
//! * **Capped exponential backoff** on connect/reconnect (reset after
//!   every successful session), so a dispatcher restart is survived
//!   without a thundering herd.
//! * **Heartbeats** per lease on a dedicated thread sharing the
//!   line-atomic writer, so a long solve does not look like a dead
//!   worker.  The `dispatch.worker.stall` failpoint suppresses beats —
//!   the deterministic test for the expiry/re-dispatch path.
//! * **No result cache.**  Across reconnects the worker keeps only its
//!   [`WorkspacePool`].  A record the dispatcher never acknowledged
//!   (dropped connection, torn line, expired lease) is recomputed if its
//!   job is leased again: a record is a pure function of (spec, job), so
//!   the recomputed bytes are the same, and if someone else committed
//!   the job first the dispatcher discards the duplicate.  Every result
//!   carries its spec's fingerprint, which the dispatcher checks.
//! * **Read/write timeouts** on the dispatcher socket, renewed from
//!   each lease's deadline: a stalled-but-alive dispatcher (or a
//!   half-open connection) surfaces as a lost connection and the
//!   reconnect path takes over, instead of wedging the worker forever.
//! * **`worker.result.torn`** tears the result line mid-write and drops
//!   the connection, exercising the dispatcher's framing rejection.
//!
//! # Submitter
//!
//! [`submit_campaign`] sends a spec, relays progress lines and maps the
//! dispatcher's terminal `error` message back onto the same
//! [`FleetError`] class (and exit code) a local `psbi-fleet run` would
//! have produced.

use crate::error::FleetError;
use crate::journal::JobRecord;
use crate::proto::{read_msg, send, write_msg, Msg};
use crate::runner::execute_batch;
use crate::spec::{CampaignSpec, JobSpec};
use psbi_core::flow::WorkspacePool;
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Knobs for one `psbi-fleet worker` process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Dispatcher address (`PSBI_DISPATCH_ADDR` is the CLI default).
    pub addr: String,
    /// Display name sent in `hello` (diagnostics only).
    pub name: String,
    /// First reconnect delay.
    pub backoff_min_ms: u64,
    /// Backoff cap (doubles per failed attempt up to this).
    pub backoff_max_ms: u64,
    /// Exit cleanly after this long without reaching a dispatcher
    /// (`None` = retry forever; the dispatcher's `shutdown` message is
    /// the orderly exit path).
    pub max_idle_ms: Option<u64>,
    /// Echo per-lease activity to stderr.
    pub progress: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            addr: std::env::var("PSBI_DISPATCH_ADDR")
                .unwrap_or_else(|_| crate::dispatch::DEFAULT_ADDR.into()),
            name: format!("worker-{}", std::process::id()),
            backoff_min_ms: 100,
            backoff_max_ms: 5_000,
            max_idle_ms: None,
            progress: false,
        }
    }
}

/// How one connected session ended.
enum SessionEnd {
    /// Dispatcher said `shutdown`: exit the worker.
    Shutdown,
    /// Connection lost (EOF, IO error, protocol violation, injected
    /// tear): reconnect with backoff.
    ConnLost,
}

/// How one lease ended, from the session loop's point of view.
enum LeaseEnd {
    /// Lease fully delivered or expired under us: request more work on
    /// the same connection.
    Continue,
    /// Dispatcher said `shutdown`.
    Shutdown,
    /// Connection lost mid-lease.
    ConnLost,
}

/// Runs a worker until the dispatcher says `shutdown` (or `max_idle_ms`
/// passes without any dispatcher) — the `psbi-fleet worker` entry point.
///
/// # Errors
///
/// Only setup-class failures; connection loss and dispatcher restarts
/// are retried, not returned.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), FleetError> {
    // The one thing that outlives a session: solver workspaces.
    let pool = Arc::new(WorkspacePool::new());
    let _flush_obs = psbi_obs::FlushOnDrop;
    let mut backoff = Duration::from_millis(opts.backoff_min_ms.max(1));
    let mut last_contact = Instant::now();
    loop {
        if let Ok(stream) = TcpStream::connect(&opts.addr) {
            backoff = Duration::from_millis(opts.backoff_min_ms.max(1));
            match session(opts, stream, &pool) {
                Ok(SessionEnd::Shutdown) => {
                    if opts.progress {
                        eprintln!("psbi-fleet: worker `{}`: dispatcher shut down", opts.name);
                    }
                    return Ok(());
                }
                Ok(SessionEnd::ConnLost) => {}
                Err(e) => {
                    if opts.progress {
                        eprintln!("psbi-fleet: worker `{}`: session error: {e}", opts.name);
                    }
                }
            }
            last_contact = Instant::now();
        }
        if let Some(max) = opts.max_idle_ms {
            if last_contact.elapsed() >= Duration::from_millis(max) {
                if opts.progress {
                    eprintln!(
                        "psbi-fleet: worker `{}`: no dispatcher for {max} ms, exiting",
                        opts.name
                    );
                }
                return Ok(());
            }
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(opts.backoff_max_ms.max(1)));
    }
}

/// Applies the session IO timeouts — `lease_ms.max(500) * 4`, mirroring
/// the dispatcher's own worker-read timeout.  A timed-out read or write
/// surfaces as an IO error, which every caller already treats as a lost
/// connection, so a stalled (not dead) dispatcher hands control to the
/// reconnect/backoff path instead of wedging the worker forever.
fn set_io_timeouts(stream: &TcpStream, lease_ms: u64) {
    let timeout = Duration::from_millis(lease_ms.max(500).saturating_mul(4));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
}

/// One connected session: hello, then request/execute leases until the
/// connection ends.
fn session(
    opts: &WorkerOptions,
    stream: TcpStream,
    pool: &Arc<WorkspacePool>,
) -> Result<SessionEnd, FleetError> {
    // Until a lease names its actual deadline, time IO out against the
    // configured (or default) lease window.
    set_io_timeouts(
        &stream,
        crate::proto::env_u64("PSBI_DISPATCH_LEASE_MS", 10_000),
    );
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    send(
        &writer,
        &Msg::Hello {
            worker: opts.name.clone(),
        },
    )?;
    loop {
        send(&writer, &Msg::Request)?;
        let msg = match read_msg(&mut reader) {
            Ok(Some(msg)) => msg,
            Ok(None) | Err(_) => return Ok(SessionEnd::ConnLost),
        };
        match msg {
            Msg::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.min(2_000))),
            Msg::Shutdown => return Ok(SessionEnd::Shutdown),
            Msg::Lease {
                lease,
                campaign,
                spec,
                jobs,
                deadline_ms,
                heartbeat_ms,
                retries,
                verify,
            } => {
                if opts.progress {
                    eprintln!(
                        "psbi-fleet: worker `{}`: lease {lease} (campaign {campaign}, {} job(s))",
                        opts.name,
                        jobs.len()
                    );
                }
                set_io_timeouts(reader.get_ref(), deadline_ms);
                let ctx = LeaseCtx {
                    lease,
                    campaign,
                    spec_text: spec,
                    jobs,
                    heartbeat_ms,
                    retries,
                    verify,
                };
                match run_lease(&mut reader, &writer, pool, ctx)? {
                    LeaseEnd::Continue => {}
                    LeaseEnd::Shutdown => return Ok(SessionEnd::Shutdown),
                    LeaseEnd::ConnLost => return Ok(SessionEnd::ConnLost),
                }
            }
            // Stale replies for an earlier (abandoned) lease.
            Msg::Ack { .. } | Msg::Expired { .. } => {}
            other => {
                return Err(FleetError::Dispatch(format!(
                    "unexpected dispatcher message {}",
                    other.to_line()
                )))
            }
        }
    }
}

struct LeaseCtx {
    lease: u64,
    campaign: u64,
    spec_text: String,
    jobs: Vec<usize>,
    heartbeat_ms: u64,
    retries: usize,
    verify: bool,
}

/// What the ack-wait loop decided for one delivered result.
enum AckWait {
    /// Record acknowledged; keep going.
    Acked,
    /// This lease expired under us; abandon its remaining jobs (a
    /// re-lease recomputes them).
    Abandon,
    /// Dispatcher is going away.
    Shutdown,
    /// Connection lost.
    ConnLost,
}

/// Executes one lease — computes its jobs in order, delivering each
/// record as it finishes — heartbeating throughout.
fn run_lease(
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    pool: &Arc<WorkspacePool>,
    ctx: LeaseCtx,
) -> Result<LeaseEnd, FleetError> {
    let spec = CampaignSpec::from_json(&ctx.spec_text)?;
    let grid = spec.jobs();
    let jobs = ctx
        .jobs
        .iter()
        .map(|&j| {
            grid.get(j).cloned().ok_or_else(|| {
                FleetError::Dispatch(format!(
                    "lease names job {j} outside the {}-job grid",
                    grid.len()
                ))
            })
        })
        .collect::<Result<Vec<JobSpec>, FleetError>>()?;
    let fingerprint = spec.fingerprint();

    // Heartbeat thread: renews the lease while jobs compute.  The
    // `dispatch.worker.stall` failpoint suppresses beats so the
    // dispatcher-side expiry path can be tested deterministically.
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let stop = Arc::clone(&stop);
        let writer = Arc::clone(writer);
        let lease = ctx.lease;
        let interval = Duration::from_millis(ctx.heartbeat_ms.clamp(10, 60_000));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if psbi_fault::failpoint!("dispatch.worker.stall", "lease" = lease) {
                    continue; // the worker "stalls": lease goes unrenewed
                }
                if send(&writer, &Msg::Heartbeat { lease }).is_err() {
                    break;
                }
            }
        })
    };
    let end = run_lease_inner(reader, writer, pool, &ctx, &fingerprint, &spec, &jobs);
    stop.store(true, Ordering::Relaxed);
    beat.join().ok();
    end
}

/// The lease body, split out so the heartbeat thread is always stopped
/// and joined by the caller regardless of how delivery ends.
fn run_lease_inner(
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    pool: &Arc<WorkspacePool>,
    ctx: &LeaseCtx,
    fingerprint: &str,
    spec: &CampaignSpec,
    jobs: &[JobSpec],
) -> Result<LeaseEnd, FleetError> {
    // Deliver each record as it finishes; `execute_batch` stops early
    // when `emit` returns false.
    let mut end = LeaseEnd::Continue;
    let mut delivery: Result<(), FleetError> = Ok(());
    let mut emit = |record: JobRecord, verify_failed: Option<String>| -> Result<bool, FleetError> {
        let msg = Msg::Result {
            lease: ctx.lease,
            campaign: ctx.campaign,
            fingerprint: fingerprint.to_string(),
            record: record.to_json_line(),
            verify_failed: verify_failed.unwrap_or_default(),
        };
        match send_and_await(reader, writer, ctx, record.job, &msg) {
            Ok(AckWait::Acked) => Ok(true),
            Ok(AckWait::Abandon) => Ok(false),
            Ok(AckWait::Shutdown) => {
                end = LeaseEnd::Shutdown;
                Ok(false)
            }
            Ok(AckWait::ConnLost) => {
                end = LeaseEnd::ConnLost;
                Ok(false)
            }
            Err(e) => {
                delivery = Err(e);
                Ok(false)
            }
        }
    };
    execute_batch(spec, jobs, pool, ctx.retries, ctx.verify, &mut emit)?;
    delivery?;
    Ok(end)
}

/// Sends job `job`'s result message and blocks until the dispatcher's
/// verdict.  Under `worker.result.torn`, half the line is written and the
/// connection killed instead.
fn send_and_await(
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    ctx: &LeaseCtx,
    job: usize,
    msg: &Msg,
) -> Result<AckWait, FleetError> {
    if psbi_fault::failpoint!("worker.result.torn", "job" = job) {
        // Tear the message mid-line and die: the dispatcher must reject
        // the fragment and re-dispatch; the job is recomputed when it is
        // leased again.
        let wire = format!("{}\n", msg.to_line());
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(&wire.as_bytes()[..wire.len() / 2]);
        let _ = w.flush();
        let _ = w.shutdown(Shutdown::Both);
        return Ok(AckWait::ConnLost);
    }
    if send(writer, msg).is_err() {
        return Ok(AckWait::ConnLost);
    }
    loop {
        match read_msg(reader) {
            Ok(Some(Msg::Ack { campaign, job: j })) if campaign == ctx.campaign && j == job => {
                return Ok(AckWait::Acked)
            }
            Ok(Some(Msg::Ack { .. })) => {} // stale ack from an earlier lease
            Ok(Some(Msg::Expired { lease })) if lease == ctx.lease => return Ok(AckWait::Abandon),
            Ok(Some(Msg::Expired { .. })) => {} // stale expiry notice
            Ok(Some(Msg::Shutdown)) => return Ok(AckWait::Shutdown),
            Ok(Some(_)) | Ok(None) | Err(_) => return Ok(AckWait::ConnLost),
        }
    }
}

/// Knobs for one `psbi-fleet submit` invocation.
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Dispatcher address.
    pub addr: String,
    /// Per-job retry budget the dispatcher hands to workers.
    pub retries: usize,
    /// Ask workers to run the independent verifier per job.
    pub verify: bool,
    /// Relay dispatcher progress messages to stderr.
    pub progress: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            addr: std::env::var("PSBI_DISPATCH_ADDR")
                .unwrap_or_else(|_| crate::dispatch::DEFAULT_ADDR.into()),
            retries: 2,
            verify: false,
            progress: false,
        }
    }
}

/// What a completed submission reported.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Dispatcher-assigned campaign id.
    pub campaign: u64,
    /// Grid size.
    pub total: usize,
    /// Records resumed from the journal (not re-executed).
    pub resumed: usize,
    /// Records in the completed journal.
    pub committed: usize,
    /// Quarantined records among them.
    pub quarantined: u64,
}

/// Reconstructs the [`FleetError`] class behind a dispatcher `error`
/// message, so `psbi-fleet submit` exits with the code a local run
/// would have.
fn error_from_code(code: u8, message: String) -> FleetError {
    match code {
        3 => FleetError::Spec(message),
        4 => FleetError::Io(std::io::Error::other(message)),
        5 => FleetError::Journal(message),
        6 => FleetError::Circuit(message),
        7 => FleetError::Corrupt {
            record: 0,
            detail: message,
        },
        8 => FleetError::Worker(message),
        9 => FleetError::Verify(message),
        _ => FleetError::Dispatch(message),
    }
}

/// Submits a campaign and blocks until the dispatcher reports the
/// journal complete — the `psbi-fleet submit` entry point.  `spec_text`
/// is the campaign spec JSON; `journal` is a dispatcher-side path.
///
/// # Errors
///
/// Connection failures ([`FleetError::Dispatch`]) and whatever terminal
/// error the dispatcher reports, mapped back onto its local class.
pub fn submit_campaign(
    spec_text: &str,
    journal: &str,
    opts: &SubmitOptions,
) -> Result<SubmitOutcome, FleetError> {
    // Parse locally first: a malformed spec should fail fast with the
    // usual spec error, not a round trip.
    CampaignSpec::from_json(spec_text)?.validate()?;
    let stream = TcpStream::connect(&opts.addr).map_err(|e| {
        FleetError::Dispatch(format!("cannot reach dispatcher at `{}`: {e}", opts.addr))
    })?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    write_msg(
        &mut writer,
        &Msg::Submit {
            spec: spec_text.to_string(),
            journal: journal.to_string(),
            retries: opts.retries,
            verify: opts.verify,
        },
    )?;
    let (campaign, total, resumed) = match read_msg(&mut reader)? {
        Some(Msg::Accepted {
            campaign,
            total,
            resumed,
        }) => (campaign, total, resumed),
        Some(Msg::Error { code, message }) => return Err(error_from_code(code, message)),
        Some(other) => {
            return Err(FleetError::Dispatch(format!(
                "expected accepted, got {}",
                other.to_line()
            )))
        }
        None => {
            return Err(FleetError::Dispatch(
                "dispatcher closed the connection before accepting".into(),
            ))
        }
    };
    if opts.progress {
        eprintln!("psbi-fleet: submit: campaign {campaign} accepted ({resumed}/{total} resumed)");
    }
    loop {
        match read_msg(&mut reader)? {
            Some(Msg::Progress {
                committed,
                total,
                quarantined,
                workers,
                ..
            }) => {
                if opts.progress {
                    eprintln!(
                        "psbi-fleet: submit: {committed}/{total} committed \
                         ({quarantined} quarantined), {workers} worker(s)"
                    );
                }
            }
            Some(Msg::Done {
                committed,
                quarantined,
                ..
            }) => {
                return Ok(SubmitOutcome {
                    campaign,
                    total,
                    resumed,
                    committed,
                    quarantined,
                })
            }
            Some(Msg::Error { code, message }) => return Err(error_from_code(code, message)),
            Some(other) => {
                return Err(FleetError::Dispatch(format!(
                    "unexpected dispatcher message {}",
                    other.to_line()
                )))
            }
            None => {
                return Err(FleetError::Dispatch(
                    "dispatcher connection lost mid-campaign (the journal keeps \
                     its valid prefix; resubmit to resume)"
                        .into(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip_through_the_wire_mapping() {
        let cases: Vec<FleetError> = vec![
            FleetError::Spec("s".into()),
            FleetError::Io(std::io::Error::other("i")),
            FleetError::Journal("j".into()),
            FleetError::Circuit("c".into()),
            FleetError::Corrupt {
                record: 0,
                detail: "d".into(),
            },
            FleetError::Worker("w".into()),
            FleetError::Verify("v".into()),
            FleetError::Dispatch("n".into()),
        ];
        for e in cases {
            let code = e.code();
            assert_eq!(error_from_code(code, String::new()).code(), code);
        }
    }
}
