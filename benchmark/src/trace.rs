//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around each
//! call into a layer; the program itself is not instrumented.  Each span
//! knows its parent, so a layer's self time is its duration minus the
//! part its children cover — the parent's self time is the unattributed
//! remainder, and the layer numbers add up to the parent's total.  Spans
//! stay in memory and are written once, as a Chrome trace-event file,
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the trace file; per-name totals are always complete.
const KEEP_SPANS: usize = 50_000;

/// Totals of every closed span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus child-covered time, seconds.
    pub self_s: f64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_s: f64,
}

struct Closed {
    name: &'static str,
    request: u64,
    parent: Option<&'static str>,
    start_us: f64,
    dur_us: f64,
}

/// Opaque token returned by [`Tracer::begin`]; must be passed to
/// [`Tracer::end`] in LIFO order.
#[must_use]
pub struct SpanId(usize);

/// Records nested spans on the calling thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u64,
    stack: Vec<Open>,
    spans: Vec<Closed>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// A recorder that only times: [`Tracer::end`] still returns each
    /// span's duration, but nothing is kept — the untraced runs use it,
    /// so both kinds of run time their calls with the same code.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Tags the spans opened from now on with a request id, so the spans
    /// of one job share an identifier in the trace file.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_s: 0.0,
        });
        SpanId(self.stack.len() - 1)
    }

    /// Closes the innermost open span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// When `id` is not the innermost open span — a nesting bug in the
    /// benchmark itself.
    pub fn end(&mut self, id: SpanId) -> f64 {
        assert_eq!(
            id.0 + 1,
            self.stack.len(),
            "spans must close innermost first"
        );
        let open = self.stack.pop().expect("an open span");
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_secs_f64();
        let parent = self.stack.last_mut().map(|p| {
            p.child_s += dur;
            p.name
        });
        if !self.enabled {
            return dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_s += dur;
        t.self_s += dur - open.child_s;
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(Closed {
                name: open.name,
                request: self.request,
                parent,
                start_us: open.start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us: dur * 1e6,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Per-name totals closed since the last call, and resets them — how
    /// callers cut the run into iterations.
    pub fn take_totals(&mut self) -> BTreeMap<&'static str, Totals> {
        std::mem::take(&mut self.totals)
    }

    /// Writes every kept span as a Chrome trace-event JSON array
    /// (loadable in Perfetto or `chrome://tracing`).
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() && self.dropped == 0 {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                r#"{{"name":"{}","ph":"X","pid":1,"tid":1,"ts":{:.3},"dur":{:.3},"args":{{"request":{},"parent":"{}"}}}}{sep}"#,
                s.name,
                s.start_us,
                s.dur_us,
                s.request,
                s.parent.unwrap_or(""),
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                r#"{{"name":"spans_dropped","ph":"i","pid":1,"tid":1,"ts":0,"args":{{"count":{}}}}}"#,
                self.dropped
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_plus_children_is_the_total() {
        let mut t = Tracer::new();
        let ms = |n| std::thread::sleep(std::time::Duration::from_millis(n));
        let outer = t.begin("outer");
        for (name, n) in [("a", 2), ("b", 1)] {
            let s = t.begin(name);
            ms(n);
            t.end(s);
        }
        ms(1);
        let total = t.end(outer);
        let tot = t.take_totals();
        let parts = tot["outer"].self_s + tot["a"].total_s + tot["b"].total_s;
        assert!((parts - total).abs() < 1e-9);
        assert!(tot["outer"].self_s >= 0.001);
        assert_eq!(tot["a"].count, 1);
        assert!(t.take_totals().is_empty());
    }
}
