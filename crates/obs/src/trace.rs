//! Span-based tracing emitting Chrome trace-event JSON.
//!
//! A **span** is an RAII guard ([`Span`]) bracketing a named region of
//! work.  Each live span pushes a `B` (begin) event onto its thread's
//! buffer when created and the matching `E` (end) event when dropped, so
//! per-thread event streams are properly nested by construction — the
//! thread-local span *stack* is the guard nesting itself.  Timestamps are
//! nanoseconds from a process-wide epoch (one monotonic [`Instant`]).
//!
//! # Arming
//!
//! Tracing is **disarmed** by default and every span site costs a single
//! relaxed atomic load (the same fast-path pattern as `psbi_fault`).  It
//! arms in one of two ways:
//!
//! * `PSBI_TRACE=<path>` in the environment (read once, on the first
//!   span evaluation) — the flush destination is `<path>`;
//! * programmatically via [`arm`] (tests and library callers).
//!
//! Buffered events are written by [`flush`] (usually through
//! [`crate::FlushOnDrop`] or [`crate::flush_all`]) as a Chrome trace-event JSON
//! array — load the file in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.  Flushing **streams**: each call drains the
//! buffers and appends only the new events, rewriting just the closing
//! bracket, so a long-running process (the dispatcher flushes
//! periodically) pays for the events since the last flush — not an
//! ever-growing whole-file rewrite — and the file is a complete, valid
//! JSON array after every flush.
//!
//! # Determinism contract
//!
//! Tracing writes only to its own output file; it never touches journals,
//! reports or results.  Canonical output bytes are identical with tracing
//! armed or disarmed — `tests/obs.rs` pins this.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError};
use std::time::Instant;

/// Fast-path gate: `true` iff tracing is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// One-shot `PSBI_TRACE` environment read.
static ENV_INIT: Once = Once::new();
/// Flush destination (present iff armed, or armed earlier).
static OUT_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Every thread buffer ever registered (kept for the process lifetime so
/// events survive thread exit until the next flush).
static BUFFERS: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());
/// Monotone trace-local thread ids, assigned on first event per thread.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Incremental-flush position: where the JSON array body ends in the
/// armed file (reset by [`arm`]/[`disarm`], so a fresh arming starts a
/// fresh file).
static STREAM: Mutex<Option<StreamState>> = Mutex::new(None);

/// Append cursor for the streamed trace file.
struct StreamState {
    /// The file this cursor is valid for.
    path: PathBuf,
    /// Byte offset just past the last written event (before the
    /// closing `\n]\n`).
    body_len: u64,
    /// Whether at least one event line has been written (controls the
    /// `,\n` separator on the next append).
    written: bool,
}

/// One buffered trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span name (naming scheme: `layer.noun[.verb]`, see README).
    pub name: &'static str,
    /// `b'B'` (begin) or `b'E'` (end).
    pub phase: u8,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Numeric context arguments (begin events only).
    pub args: Vec<(&'static str, u64)>,
}

struct ThreadBuffer {
    tid: u64,
    events: Mutex<Vec<Event>>,
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Buffers and the path are always left consistent between operations,
    // so a poisoned lock (a panicking traced thread) is recoverable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether tracing is armed.  This is the span fast path: one relaxed
/// atomic load once the environment has been read.
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var("PSBI_TRACE") {
            if !path.trim().is_empty() {
                arm(PathBuf::from(path.trim()));
            }
        }
    });
    ARMED.load(Ordering::Relaxed)
}

/// Arms tracing with `path` as the flush destination, clearing any events
/// buffered by a previous arming.
pub fn arm(path: impl Into<PathBuf>) {
    clear_events();
    *lock(&STREAM) = None;
    *lock(&OUT_PATH) = Some(path.into());
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms tracing and drops all buffered events (span sites return to
/// the one-load fast path; live guards stop emitting their end events).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *lock(&OUT_PATH) = None;
    *lock(&STREAM) = None;
    clear_events();
}

fn clear_events() {
    for buf in lock(&BUFFERS).iter() {
        lock(&buf.events).clear();
    }
}

fn push_event(name: &'static str, phase: u8, args: Vec<(&'static str, u64)>) {
    let ts_ns = now_ns();
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuffer {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
            });
            lock(&BUFFERS).push(Arc::clone(&buf));
            buf
        });
        lock(&buf.events).push(Event {
            name,
            phase,
            ts_ns,
            args,
        });
    });
}

/// An RAII span guard: emits the `B` event on creation (when armed) and
/// the matching `E` event on drop.  A guard created while disarmed is a
/// no-op; a guard that emitted its `B` always emits its `E`, keeping the
/// per-thread streams balanced.
#[must_use = "a span measures nothing unless it is held for the region's duration"]
pub struct Span {
    name: &'static str,
    live: bool,
}

impl Span {
    /// Enters a span named `name`.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        Self::enter_with(name, &[])
    }

    /// Enters a span with numeric context arguments (e.g. a job index).
    #[inline]
    pub fn enter_with(name: &'static str, args: &[(&'static str, u64)]) -> Span {
        if !enabled() {
            return Span { name, live: false };
        }
        push_event(name, b'B', args.to_vec());
        Span { name, live: true }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            push_event(self.name, b'E', Vec::new());
        }
    }
}

fn render_event(out: &mut String, ev: &Event, tid: u64, pid: u32) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"psbi\",\"ph\":\"{}\",\"pid\":{pid},\
         \"tid\":{tid},\"ts\":{}.{:03}",
        ev.name,
        ev.phase as char,
        ev.ts_ns / 1_000,
        ev.ts_ns % 1_000,
    );
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\"{k}\":{v}");
        }
        out.push('}');
    }
    out.push('}');
}

/// Streams buffered events to the armed path and returns that path, or
/// `Ok(None)` when tracing was never armed.
///
/// The first flush after arming writes a fresh file; every later flush
/// **drains** the thread buffers and appends only the events gathered
/// since the previous flush, then rewrites the closing `]` — the file is
/// a complete, valid Chrome trace-event JSON array after every call, and
/// flush cost is proportional to new events, not file size.
///
/// # Errors
///
/// Propagates the underlying file write error.  A failed flush loses
/// nothing: the drained events are re-queued (ahead of any pushed since)
/// and the stream cursor stays at the previous valid tail, so the next
/// flush retries them and overwrites any partial append.
pub fn flush() -> std::io::Result<Option<PathBuf>> {
    let Some(path) = lock(&OUT_PATH).clone() else {
        return Ok(None);
    };
    // Drain (not copy) every buffer, in stable tid order, remembering
    // which events came from which buffer: a failed write puts them
    // back, so a transient IO error (full disk) delays events to the
    // next flush instead of silently dropping them.  Events pushed
    // concurrently with the drain are simply picked up next flush.
    let mut buffers = lock(&BUFFERS).clone();
    buffers.sort_by_key(|b| b.tid);
    let pid = std::process::id();
    let mut chunk = String::new();
    let mut drained: Vec<(Arc<ThreadBuffer>, Vec<Event>)> = Vec::new();
    for buf in &buffers {
        let events = std::mem::take(&mut *lock(&buf.events));
        if events.is_empty() {
            continue;
        }
        for ev in &events {
            if !chunk.is_empty() {
                chunk.push_str(",\n");
            }
            render_event(&mut chunk, ev, buf.tid, pid);
        }
        drained.push((Arc::clone(buf), events));
    }
    let mut stream = lock(&STREAM);
    let io = write_chunk(&mut stream, &path, &chunk);
    if io.is_err() {
        // Put the drained events back, ahead of anything pushed since,
        // so the next flush retries them in order.  The stream cursor
        // was not advanced (see write_chunk), so that retry simply
        // overwrites whatever partial tail this attempt left behind.
        for (buf, mut events) in drained {
            let mut slot = lock(&buf.events);
            events.append(&mut slot);
            *slot = events;
        }
    }
    io.map(|()| Some(path))
}

/// Writes one rendered event chunk to the streamed trace file.  The
/// stream cursor (`body_len`/`written`) moves only after every byte is
/// down — a failed or partial append leaves it pointing at the previous
/// valid tail, which the next flush seeks to and overwrites, so the file
/// self-heals instead of accumulating a permanently desynced cursor.
fn write_chunk(stream: &mut Option<StreamState>, path: &Path, chunk: &str) -> std::io::Result<()> {
    match stream.as_mut().filter(|s| s.path == path) {
        None => {
            let mut out = String::from("[\n");
            out.push_str(chunk);
            let body_len = out.len() as u64;
            out.push_str("\n]\n");
            std::fs::write(path, out)?;
            *stream = Some(StreamState {
                path: path.to_path_buf(),
                body_len,
                written: !chunk.is_empty(),
            });
        }
        Some(s) => {
            use std::io::{Seek as _, SeekFrom, Write as _};
            let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.seek(SeekFrom::Start(s.body_len))?;
            let mut tail = String::new();
            if !chunk.is_empty() {
                if s.written {
                    tail.push_str(",\n");
                }
                tail.push_str(chunk);
            }
            let body_grow = tail.len() as u64;
            tail.push_str("\n]\n");
            file.write_all(tail.as_bytes())?;
            // Trim any stale bytes if an external writer grew the file.
            file.set_len(s.body_len + body_grow + 3)?;
            s.body_len += body_grow;
            s.written = s.written || !chunk.is_empty();
        }
    }
    Ok(())
}

/// Runs `f` with tracing armed to `path`, flushing and disarming
/// afterwards (also on panic — the disarm, not the flush), serialised
/// against every other observability test helper through the crate-wide
/// gate.  Test helper, analogous to `psbi_fault::with_spec`.
///
/// # Panics
///
/// Panics if the final flush fails.
pub fn with_trace<R>(path: &Path, f: impl FnOnce() -> R) -> R {
    let _gate = crate::test_gate();
    struct DisarmOnDrop;
    impl Drop for DisarmOnDrop {
        fn drop(&mut self) {
            disarm();
        }
    }
    let _disarm = DisarmOnDrop;
    arm(path);
    let result = f();
    flush().expect("trace flush failed");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psbi_obs_trace_{tag}_{}.json", std::process::id()))
    }

    #[test]
    fn disarmed_spans_are_noops_and_flush_is_none() {
        // Not under the gate: other tests may be armed concurrently, so
        // only check that a disarmed-looking guard round-trips.
        let span = Span {
            name: "x",
            live: false,
        };
        drop(span);
    }

    #[test]
    fn armed_spans_emit_balanced_events_and_valid_json() {
        let path = tmp("balanced");
        with_trace(&path, || {
            let _outer = Span::enter_with("test.outer", &[("k", 7)]);
            {
                let _inner = Span::enter("test.inner");
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"E\"").count(), 2);
        assert!(text.contains("\"name\":\"test.outer\""));
        assert!(text.contains("\"args\":{\"k\":7}"));
        // Inner nests inside outer: B(outer) B(inner) E(inner) E(outer).
        let inner_b = text.find("\"name\":\"test.inner\",\"cat\":\"psbi\",\"ph\":\"B\"");
        let outer_b = text.find("\"name\":\"test.outer\",\"cat\":\"psbi\",\"ph\":\"B\"");
        assert!(outer_b.unwrap() < inner_b.unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rearming_clears_previous_events() {
        let path = tmp("rearm");
        with_trace(&path, || {
            let _s = Span::enter("test.stale");
        });
        with_trace(&path, || {
            let _s = Span::enter("test.fresh");
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("test.stale"));
        assert!(text.contains("test.fresh"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_flush_appends_without_duplicating() {
        let path = tmp("stream");
        with_trace(&path, || {
            {
                let _a = Span::enter("test.first_batch");
            }
            flush().unwrap();
            let mid = std::fs::read_to_string(&path).unwrap();
            // Valid, complete JSON after the intermediate flush.
            assert!(mid.trim_start().starts_with('['));
            assert!(mid.trim_end().ends_with(']'));
            assert_eq!(mid.matches("test.first_batch").count(), 2); // B + E
            {
                let _b = Span::enter("test.second_batch");
            }
            // with_trace's final flush appends the second batch.
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_end().ends_with(']'));
        // Each span exactly once (B + E): the second flush appended the
        // new events instead of rewriting (and duplicating) the old.
        assert_eq!(text.matches("test.first_batch").count(), 2);
        assert_eq!(text.matches("test.second_batch").count(), 2);
        // Still one well-formed array: exactly one opening bracket line.
        assert_eq!(text.matches('[').count(), 1);
        assert_eq!(text.matches(']').count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_flushes_keep_the_file_valid() {
        let path = tmp("empty_stream");
        with_trace(&path, || {
            flush().unwrap();
            flush().unwrap();
            {
                let _s = Span::enter("test.after_empties");
            }
            flush().unwrap();
            flush().unwrap();
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("test.after_empties").count(), 2);
        assert!(!text.contains(",,"), "double separators in {text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_flush_requeues_events_for_the_next_attempt() {
        // Arm at a path whose parent directory does not exist yet: the
        // first flush fails, and must NOT discard the drained events —
        // once the directory appears, the next flush writes them all.
        let dir =
            std::env::temp_dir().join(format!("psbi_obs_trace_requeue_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("trace.json");
        with_trace(&path, || {
            {
                let _s = Span::enter("test.requeued");
            }
            assert!(flush().is_err(), "flush into a missing dir must fail");
            std::fs::create_dir_all(&dir).unwrap();
            // with_trace's final flush retries and must carry the event.
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("test.requeued").count(), 2); // B + E
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let path = tmp("tids");
        with_trace(&path, || {
            let _a = Span::enter("test.main_thread");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _b = Span::enter("test.worker_thread");
                });
            });
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let mut tids = std::collections::BTreeSet::new();
        for part in text.split("\"tid\":").skip(1) {
            let end = part.find(',').unwrap();
            tids.insert(part[..end].parse::<u64>().unwrap());
        }
        assert!(tids.len() >= 2, "expected two thread ids, got {tids:?}");
        let _ = std::fs::remove_file(&path);
    }
}
