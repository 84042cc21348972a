//! The workloads and how each is driven, checked and measured.
//!
//! Every workload is a closed loop from one client: the next request is
//! sent only after the previous one returned and was checked.  A request
//! is one cold insertion job on the single-job workloads and one whole
//! campaign on the sweep workload.  All calls go through public entry
//! points and are timed from outside.

use crate::report::{Checks, Metric, Outcome};
use crate::stats;
use crate::trace::{Totals, Tracer};
use psbi_core::flow::{
    BufferInsertionFlow, FlowBuilder, FlowConfig, InsertionResult, SampleRequest, TargetPeriod,
    WorkspacePool,
};
use psbi_core::solve::{BufferSpace, PassDiagnostics, PushObjective, SampleSolver, SolveRequest};
use psbi_fleet::dispatch::{DispatchHandle, Dispatcher, ServeOptions};
use psbi_fleet::runner::{run_campaign, CampaignOutcome, FleetOptions};
use psbi_fleet::spec::CampaignSpec;
use psbi_fleet::worker::{run_worker, submit_campaign, SubmitOptions, WorkerOptions};
use psbi_fleet::JobRecord;
use psbi_netlist::bench_suite::CircuitRef;
use psbi_netlist::Circuit;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed the published figures were taken with.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out while the benchmark was tuned, for confirming claims.
pub const HELD_OUT_SEED: u64 = 977;
/// Set-ups per run at least; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 11;
/// Set-ups repeat until this much time has passed, so that the median
/// rests on many cheap set-ups rather than a few.
const SETUP_MIN_S: f64 = 1.0;
/// Worker threads of the single-job flows and workers of the fleet sweep
/// (the figures in `README.md` were measured on a 2-vCPU host).
const THREADS: usize = 2;
/// Sigma factors of the sweep grid.
const SWEEP_K: [f64; 6] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold insertion jobs on s9234: exact screen and B&B search dominate.
    ExactS9234,
    /// Cold insertion jobs on s38584: the oversized-region fallback
    /// dominates.  Not in `BENCHMARK.json`: its figures spread too far
    /// across seeds (see `README.md`), but it stays runnable by hand.
    FallbackS38584,
    /// `run_campaign` over s13207 and s15850 at six sigma factors.
    SweepFleet,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists all but `fallback_s38584`.
    pub const ALL: [Workload; 3] = [
        Workload::ExactS9234,
        Workload::FallbackS38584,
        Workload::SweepFleet,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactS9234 => "exact_s9234",
            Workload::FallbackS38584 => "fallback_s38584",
            Workload::SweepFleet => "sweep_fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input variants an untraced run cycles through: about as many as
    /// the timed loop reaches at least once, since the more inputs a run
    /// covers, the less its figures move from one seed to the next.  Each variant seed also draws the
    /// circuit's clock skews (a design property), so one input's job time
    /// and Table I figures can differ from another's by half or more.
    fn variants(self) -> usize {
        match self {
            Workload::ExactS9234 => 64,
            Workload::FallbackS38584 => 8,
            Workload::SweepFleet => 10,
        }
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Swap the paper circuits for the 24-FF demo circuit and tiny sample
    /// counts: a smoke run of the same code paths.
    pub tiny: bool,
    /// Directory for journals and the trace file.
    pub work_dir: PathBuf,
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (circuit, flow, dispatcher or work directory) — the
/// run cannot measure anything then.
pub fn run(p: &Params) -> Result<Outcome, String> {
    std::fs::create_dir_all(&p.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let cpu0 = host_cpu();
    let mut out = match p.workload {
        Workload::ExactS9234 | Workload::FallbackS38584 => single::run(p),
        Workload::SweepFleet => sweep::run(p),
    }?;
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !bad.is_empty() {
        out.checks
            .record(1, Err(format!("non-finite metrics: {bad:?}")));
    }
    out.meta.extend([
        ("workload", format!("\"{}\"", p.workload.name())),
        ("seed", p.seed.to_string()),
        ("default_seed", DEFAULT_SEED.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", p.seconds.to_string()),
        ("trace", p.trace.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("commit", format!("\"{}\"", commit())),
        ("host_steal_pct", steal_pct(cpu0, host_cpu()).to_string()),
    ]);
    Ok(out)
}

/// Host CPU time so far as (stolen, total) jiffies, from `/proc/stat`.
fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// readings, in percent: wall times are only comparable between runs
/// with similar steal.
fn steal_pct(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// The checked-out commit, when the benchmark runs inside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Resets this process's peak-RSS mark to its current RSS, so the next
/// [`peak_rss_mb`] covers only what runs in between.  Without the
/// `clear_refs` interface the mark simply keeps the process-wide peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the canonical bytes of a result.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }
}

/// Digest of a job's canonical outputs: Nb, Ab, both yields and the
/// deployment (buffer of every FF and every buffer's window).
fn result_digest(r: &InsertionResult) -> u64 {
    let mut h = Fnv::new()
        .word(r.nb as u64)
        .word(r.ab.to_bits())
        .word(r.yield_baseline.to_bits())
        .word(r.yield_with_buffers.to_bits());
    for &v in &r.deployment.var_of_ff {
        h = h.word(u64::from(v));
    }
    for &(lo, hi) in &r.deployment.bounds {
        h = h.word(lo as u64).word(hi as u64);
    }
    h.0
}

fn materialize(circuit: &str) -> Result<Circuit, String> {
    CircuitRef::parse(circuit)?.materialize()
}

/// A fresh flow with a fresh workspace pool: nothing cached from any
/// earlier job.
fn cold_flow<'a>(c: &'a Circuit, cfg: &FlowConfig) -> Result<BufferInsertionFlow<'a>, String> {
    FlowBuilder::new(c, cfg.clone())
        .pool(Arc::new(WorkspacePool::new()))
        .build()
        .map_err(|e| format!("flow build: {e}"))
}

/// Table I quality of one input: mean Yi, Nb and Ab over its jobs.
#[derive(Debug, Default, Clone, Copy)]
struct Quality {
    yi: f64,
    nb: f64,
    ab: f64,
}

impl Quality {
    /// The means over `(yi, nb, ab)` of each job.
    fn mean(jobs: impl IntoIterator<Item = (f64, usize, f64)>) -> Self {
        let (mut q, mut n) = (Quality::default(), 0.0);
        for (yi, nb, ab) in jobs {
            q.yi += yi;
            q.nb += nb as f64;
            q.ab += ab;
            n += 1.0;
        }
        let n = f64::max(n, 1.0);
        Quality {
            yi: q.yi / n,
            nb: q.nb / n,
            ab: q.ab / n,
        }
    }
}

/// The inputs of one run: variants whose seeds derive from the run's
/// seed.  The timed loop cycles through them, so a run's figures average
/// over several inputs and move less from one seed to the next.  The
/// first result of a variant is its reference: every repeat must
/// reproduce its digest, and the Table I quality counts it once.
struct Variants {
    seed: u64,
    first: Vec<Option<(u64, Quality)>>,
}

impl Variants {
    fn new(seed: u64, n: usize) -> Self {
        assert!((1..=64).contains(&n), "variant seeds are seed * 64 + index");
        Self {
            seed,
            first: vec![None; n],
        }
    }

    fn len(&self) -> usize {
        self.first.len()
    }

    /// Seed of variant `j`; distinct run seeds give disjoint variants.
    fn seed(&self, j: usize) -> u64 {
        self.seed.wrapping_mul(64).wrapping_add(j as u64)
    }

    /// Variants with no result yet.
    fn missing(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.first[j].is_none())
            .collect()
    }

    /// Records a result of variant `j`.
    fn record(&mut self, j: usize, digest: u64, quality: Quality) -> Result<(), String> {
        match self.first[j] {
            None => {
                self.first[j] = Some((digest, quality));
                Ok(())
            }
            Some((d, _)) if d == digest => Ok(()),
            Some(_) => Err(format!(
                "input variant {j}: outputs differ from its first run"
            )),
        }
    }

    /// The Table I metrics: for each, the median over the variants of
    /// their first result.  A median, because a rare input can sit far
    /// off (one s9234 input has a baseline yield of 0 and a gain of 66
    /// points where the others gain 7 to 25).
    fn quality_metrics(&self) -> [Metric; 3] {
        let q: Vec<Quality> = self.first.iter().flatten().map(|(_, q)| *q).collect();
        let median = |f: fn(&Quality) -> f64| stats::median(&q.iter().map(f).collect::<Vec<_>>());
        let note = format!("median over {} inputs", q.len());
        [
            Metric::noted("yield_gain_pct", median(|q| q.yi), "pct", note.clone()),
            Metric::noted("buffers_nb", median(|q| q.nb), "count", note.clone()),
            Metric::noted("buffer_range_ab", median(|q| q.ab), "steps", note),
        ]
    }
}

/// Runs `once` until at least [`SETUP_MIN_REPS`] times and
/// [`SETUP_MIN_S`] seconds, under a `setup` span each time; returns every
/// set-up's duration and the last one's product.
fn set_up<T>(
    tr: &mut Tracer,
    it: &mut Series,
    mut once: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let s = tr.begin("setup");
        let made = once(tr)?;
        times.push(tr.end(s));
        push_totals(it, &tr.take_totals());
        if times.len() >= SETUP_MIN_REPS && t0.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return Ok((times, made));
        }
    }
}

/// What the timed loop of an untraced run measured.
struct Timed {
    setup: Vec<f64>,
    latencies: Vec<f64>,
    rss_mb: f64,
    loop_s: f64,
    jobs_per_request: f64,
}

/// The end-to-end metrics every workload prints.
fn end_to_end(t: &Timed, checks: &Checks, vars: &Variants) -> Vec<Metric> {
    let [q1, _, q3] = stats::quartiles(&t.latencies);
    let tail = stats::tail(&t.latencies);
    let n = t.latencies.len();
    let jobs = n as f64 * t.jobs_per_request;
    let mut m = vec![
        Metric::noted(
            "setup_s",
            stats::median(&t.setup),
            "s",
            format!("median of {} set-ups", t.setup.len()),
        ),
        Metric::noted(
            "job_s_p50",
            stats::median(&t.latencies),
            "s",
            format!("n={n}, q1={q1:.4}, q3={q3:.4}"),
        ),
        Metric::noted(
            "job_s_tail",
            tail.value,
            "s",
            format!(
                "p{:.1} of n={}, {} samples beyond{}",
                tail.percentile,
                tail.n,
                tail.beyond,
                if tail.beyond < stats::TAIL_BEYOND {
                    " (too few samples: median)"
                } else {
                    ""
                }
            ),
        ),
        Metric::noted(
            "jobs_per_s",
            jobs / t.loop_s.max(1e-9),
            "1/s",
            format!("{jobs} jobs in {:.3} s", t.loop_s),
        ),
        Metric::noted(
            "peak_rss_mb",
            t.rss_mb,
            "MiB",
            "peak during the warm-up request".into(),
        ),
        Metric::noted(
            "ok_ratio",
            checks.ok_ratio(),
            "ratio",
            format!(
                "failed_ratio = {} ({} of {})",
                1.0 - checks.ok_ratio(),
                checks.failed,
                checks.attempted
            ),
        ),
    ];
    m.extend(vars.quality_metrics());
    m
}

/// Values per name over the iterations of a traced run.
#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| stats::median(v))
    }

    fn min(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| v.iter().copied().reduce(f64::min))
            .unwrap_or(0.0)
    }

    fn max(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| v.iter().copied().reduce(f64::max))
            .unwrap_or(0.0)
    }
}

/// Writes the traced run's spans next to its journals and says where.
fn write_trace(p: &Params, tr: &Tracer) -> Result<String, String> {
    let path = p
        .work_dir
        .join(format!("trace-{}-{}.json", p.workload.name(), p.seed));
    tr.write(&path).map_err(|e| format!("trace file: {e}"))?;
    Ok(format!("trace written to {}", path.display()))
}

fn self_time(t: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |t| t.self_s)
}

/// Deterministic counts of one outside replay of a job's layers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ReplayCounts {
    insert_chips: u64,
    tasks: u64,
    nodes: u64,
    pruned: u64,
    exact: u64,
    yield_chips: u64,
    passes: u64,
}

impl ReplayCounts {
    fn add(&mut self, o: &ReplayCounts) {
        self.insert_chips += o.insert_chips;
        self.tasks += o.tasks;
        self.nodes += o.nodes;
        self.pruned += o.pruned;
        self.exact += o.exact;
        self.yield_chips += o.yield_chips;
        self.passes += o.passes;
    }
}

/// Replays a finished job's layers from outside, under spans:
/// constraint sampling of every chip, pass A1 on the insertion stream
/// (`begin`, then `plan` / `execute` / `commit` rounds, then `finish`,
/// with no memo, no per-chip state and no pool, so the counts repeat
/// exactly), and the buffered-yield check of every chip of the yield
/// stream.  Returns the counts and the execute time spent on chips whose
/// result is inexact.
fn replay(
    flow: &BufferInsertionFlow<'_>,
    cfg: &FlowConfig,
    r: &InsertionResult,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (ReplayCounts, f64) {
    let mut c = ReplayCounts::default();
    let mut inexact_s = 0.0;
    let sg = flow.sequential_graph();
    let space = BufferSpace::floating(sg.n_ffs, i64::from(cfg.steps));
    let mut solver = SampleSolver::new();
    let outer = tr.begin("replay.insert");
    for i in 0..cfg.samples as u64 {
        let s = tr.begin("timing.sample_insert");
        let ic = flow.chip_constraints(SampleRequest::new("insert", i, r.period, r.step));
        tr.end(s);
        let chip = tr.begin("solve.chip");
        let s = tr.begin("solve.begin");
        let req = SolveRequest::new(sg, ic.as_view(), &space, PushObjective::None, &cfg.solver);
        let mut session = solver.begin(req);
        tr.end(s);
        let mut execute_s = 0.0;
        while !session.is_done() {
            let s = tr.begin("solve.plan");
            let tasks = session.plan(&mut solver);
            tr.end(s);
            c.tasks += tasks.len() as u64;
            let s = tr.begin("solve.execute");
            let outcomes = solver.execute(
                &tasks,
                session.space(),
                session.opts(),
                None,
                session.search_prune(),
            );
            execute_s += tr.end(s);
            let s = tr.begin("solve.commit");
            session.commit(&mut solver, &outcomes);
            tr.end(s);
        }
        let s = tr.begin("solve.finish");
        let out = session.finish();
        tr.end(s);
        tr.end(chip);
        c.insert_chips += 1;
        c.nodes += out.diag.search_nodes;
        c.pruned += out.diag.search_pruned_bound
            + out.diag.search_pruned_dominance
            + out.diag.search_pruned_symmetry;
        if out.result.exact {
            c.exact += 1;
        } else {
            inexact_s += execute_s;
        }
    }
    tr.end(outer);

    let outer = tr.begin("replay.yield");
    let mut diff = psbi_timing::DiffSolver::new();
    let mut arcs = Vec::new();
    for i in 0..cfg.yield_samples as u64 {
        let s = tr.begin("timing.sample_yield");
        let ic = flow.chip_constraints(SampleRequest::new("yield", i, r.period, r.step));
        tr.end(s);
        let s = tr.begin("yield_eval.check");
        let pass = r.deployment.chip_passes(sg, &ic, &mut diff, &mut arcs);
        tr.end(s);
        c.yield_chips += 1;
        c.passes += u64::from(pass);
    }
    tr.end(outer);
    let replayed = 100.0 * c.passes as f64 / c.yield_chips.max(1) as f64;
    checks.record(
        1,
        if (replayed - r.yield_with_buffers).abs() < 1e-9 {
            Ok(())
        } else {
            Err(format!(
                "{} at period {}: replayed buffered yield {replayed} != flow's {}",
                r.circuit, r.period, r.yield_with_buffers
            ))
        },
    );
    (c, inexact_s)
}

/// Per-layer metrics of the replays and the flow-side counters.  `it`
/// holds one value per traced iteration (or one for the whole grid).
fn layer_metrics(it: &Series, c: &ReplayCounts) -> Vec<Metric> {
    let chips = c.insert_chips.max(1) as f64;
    let ychips = c.yield_chips.max(1) as f64;
    let mut m = vec![
        Metric::noted(
            "netlist.generate_s",
            it.median("netlist.generate"),
            "s",
            "median of set-ups".into(),
        ),
        Metric::noted(
            "flow.build_s",
            it.median("flow.build"),
            "s",
            "median of set-ups".into(),
        ),
        Metric::noted(
            "flow.run_s",
            it.median("flow.run"),
            "s",
            "median traced run_target".into(),
        ),
        Metric::noted(
            "trace.overhead_s",
            it.median("job") - it.median("untraced_job"),
            "s",
            "traced job minus untraced job, medians".into(),
        ),
        Metric::new(
            "timing.sample_insert_us",
            1e6 * it.median("timing.sample_insert") / chips,
            "thread-us",
        ),
        Metric::new(
            "timing.sample_yield_us",
            1e6 * it.median("timing.sample_yield") / ychips,
            "thread-us",
        ),
        Metric::new(
            "timing.chips",
            (c.insert_chips + c.yield_chips) as f64,
            "count",
        ),
        Metric::noted(
            "solve.replay_s",
            it.median("solve.chip"),
            "thread-s",
            "A1 replay total".into(),
        ),
    ];
    for (name, span) in [
        ("solve.begin_s", "solve.begin"),
        ("solve.plan_s", "solve.plan"),
        ("solve.execute_s", "solve.execute"),
        ("solve.execute_inexact_s", "solve.execute_inexact"),
        ("solve.commit_s", "solve.commit"),
        ("solve.finish_s", "solve.finish"),
        ("solve.unattributed_s", "solve.chip.self"),
    ] {
        m.push(Metric::new(name, it.median(span), "thread-s"));
    }
    m.extend([
        Metric::new("solve.chips", c.insert_chips as f64, "count"),
        Metric::new("solve.tasks", c.tasks as f64, "count"),
        Metric::new("solve.search_nodes", c.nodes as f64, "count"),
        Metric::new("solve.search_pruned", c.pruned as f64, "count"),
        Metric::noted(
            "solve.exact_ratio",
            c.exact as f64 / chips,
            "ratio",
            format!("{} of {} chips exact", c.exact, c.insert_chips),
        ),
        Metric::new(
            "yield_eval.check_s",
            it.median("yield_eval.check"),
            "thread-s",
        ),
        Metric::new("yield_eval.chips", c.yield_chips as f64, "count"),
        Metric::noted(
            "yield_eval.pass_ratio",
            c.passes as f64 / ychips,
            "ratio",
            format!("{} of {} chips pass", c.passes, c.yield_chips),
        ),
        Metric::noted(
            "replay.unattributed_s",
            it.median("replay.self"),
            "thread-s",
            "replay loop time outside every layer span".into(),
        ),
    ]);
    for (name, key) in [
        ("cache.cross_chip_hits", "cross_chip_hits"),
        ("flow.search_nodes", "search_nodes"),
    ] {
        m.push(Metric::noted(
            name,
            it.median(key),
            "count",
            format!(
                "program-side, varies with thread interleaving: min {} max {}",
                it.min(key),
                it.max(key)
            ),
        ));
    }
    m.extend([
        Metric::new(
            "cache.cross_chip_hits_min",
            it.min("cross_chip_hits"),
            "count",
        ),
        Metric::new(
            "cache.cross_chip_hits_max",
            it.max("cross_chip_hits"),
            "count",
        ),
        Metric::new("flow.search_nodes_min", it.min("search_nodes"), "count"),
        Metric::new("flow.search_nodes_max", it.max("search_nodes"), "count"),
        Metric::new("cache.regions_reused", it.median("regions_reused"), "count"),
        Metric::noted(
            "cache.hit_ratio",
            it.median("hit_ratio"),
            "ratio",
            "(supports replayed + cross-chip hits) / regions_total".into(),
        ),
        Metric::new(
            "cache.peak_resident_states",
            it.max("peak_resident_states"),
            "count",
        ),
        Metric::new("fleet.campaign_s", it.median("fleet.campaign"), "s"),
        Metric::noted(
            "fleet.busy_ratio",
            it.median("busy_ratio"),
            "ratio",
            "sum of job wall / (workers x campaign wall)".into(),
        ),
        Metric::new("fleet.resume_s", it.median("fleet.resume"), "s"),
        Metric::new("fleet.journal_bytes", it.median("journal_bytes"), "bytes"),
        Metric::new("dispatch.submit_s", it.median("dispatch.submit"), "s"),
        Metric::new("dispatch.quarantined", it.max("quarantined"), "count"),
    ]);
    m
}

/// Records one iteration's span totals: total time per name, plus the
/// self time of the parent spans that carry the unattributed rest.
fn push_totals(it: &mut Series, t: &BTreeMap<&'static str, Totals>) {
    for (name, tot) in t {
        it.push(name, tot.total_s);
    }
    if t.contains_key("solve.chip") {
        it.push("solve.chip.self", self_time(t, "solve.chip"));
        it.push(
            "replay.self",
            self_time(t, "replay.insert") + self_time(t, "replay.yield"),
        );
    }
}

/// Records the program-side cache counters of one request (`total`
/// summed over its passes and jobs).
fn push_diag(it: &mut Series, total: &PassDiagnostics, peak_resident_states: u64) {
    it.push("cross_chip_hits", total.cross_chip_hits as f64);
    it.push("search_nodes", total.search_nodes as f64);
    it.push("regions_reused", total.regions_reused as f64);
    it.push(
        "hit_ratio",
        (total.supports_rehit + total.cross_chip_hits) as f64 / total.regions_total.max(1) as f64,
    );
    it.push("peak_resident_states", peak_resident_states as f64);
}

mod single {
    //! `exact_s9234` and `fallback_s38584`: one cold insertion job after
    //! another on one circuit.

    use super::*;

    struct Shape {
        circuit: &'static str,
        samples: usize,
        yield_samples: usize,
        calibration_samples: usize,
    }

    fn shape(p: &Params) -> Shape {
        match (p.workload, p.tiny) {
            (_, true) => Shape {
                circuit: "tiny_demo:1",
                samples: 60,
                yield_samples: 120,
                calibration_samples: 120,
            },
            (Workload::ExactS9234, false) => Shape {
                circuit: "s9234",
                samples: 1_000,
                yield_samples: 4_000,
                calibration_samples: 2_000,
            },
            _ => Shape {
                circuit: "s38584",
                samples: 200,
                yield_samples: 4_000,
                calibration_samples: 2_000,
            },
        }
    }

    /// The job check: buffers never lower the yield, and a repeated
    /// input reproduces its first outputs exactly.
    fn check(vars: &mut Variants, j: usize, r: &InsertionResult) -> Result<(), String> {
        if r.yield_with_buffers < r.yield_baseline {
            return Err(format!(
                "{}: buffered yield {} below baseline {}",
                r.circuit, r.yield_with_buffers, r.yield_baseline
            ));
        }
        vars.record(
            j,
            result_digest(r),
            Quality::mean([(r.improvement, r.nb, r.ab)]),
        )
    }

    pub(super) fn run(p: &Params) -> Result<Outcome, String> {
        let sh = shape(p);
        let base = FlowConfig {
            samples: sh.samples,
            yield_samples: sh.yield_samples,
            calibration_samples: sh.calibration_samples,
            target: TargetPeriod::SigmaFactor(0.0),
            threads: THREADS,
            ..FlowConfig::default()
        };
        let mut vars = Variants::new(p.seed, if p.trace { 1 } else { p.workload.variants() });
        let cfg = |seed: u64| FlowConfig {
            seed,
            ..base.clone()
        };
        let mut tr = if p.trace {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let mut checks = Checks::default();
        let mut it = Series::default();

        // Set-up: netlist generation and flow construction.
        let (setup, (circuit, backend)) = set_up(&mut tr, &mut it, |tr| {
            let g = tr.begin("netlist.generate");
            let c = materialize(sh.circuit)?;
            tr.end(g);
            let b = tr.begin("flow.build");
            let backend = cold_flow(&c, &base)?.sampling_backend();
            tr.end(b);
            Ok((c, backend))
        })?;

        // Warm-up (untimed): the first job of a process pays one-off
        // costs a user's steady state does not.  The traced run verifies
        // it independently as well.
        let warm = FlowConfig {
            verify: p.trace,
            ..cfg(vars.seed(0))
        };
        reset_peak_rss();
        let first = cold_flow(&circuit, &warm)?.run();
        let rss_mb = peak_rss_mb();
        checks.record(1, check(&mut vars, 0, &first));
        if p.trace {
            let verdict = match &first.diagnostics.verify {
                Some(v) if v.passed => Ok(()),
                Some(v) => Err(format!("verifier: {v}")),
                None => Err("verifier did not run".into()),
            };
            checks.record(1, verdict);
        }

        let mut latencies = Vec::new();
        let mut counts: Option<ReplayCounts> = None;
        let deadline = Duration::from_secs_f64(p.seconds);
        let t0 = Instant::now();
        while latencies.is_empty() || t0.elapsed() < deadline {
            let j = latencies.len() % vars.len();
            let t = Instant::now();
            let r = cold_flow(&circuit, &cfg(vars.seed(j)))?.run();
            let dt = t.elapsed().as_secs_f64();
            latencies.push(dt);
            checks.record(1, check(&mut vars, j, &r));
            push_diag(
                &mut it,
                &r.diagnostics.total(),
                r.diagnostics.peak_resident_states,
            );
            if !p.trace {
                continue;
            }
            // Traced: the same job under spans, then the outside replay
            // of its layers, whose counts must repeat exactly.
            it.push("untraced_job", dt);
            tr.set_request(latencies.len() as u64);
            let job = tr.begin("job");
            let b = tr.begin("flow.build");
            let flow = cold_flow(&circuit, &cfg(vars.seed(0)))?;
            tr.end(b);
            let run = tr.begin("flow.run");
            let r = flow.run();
            tr.end(run);
            tr.end(job);
            checks.record(1, check(&mut vars, 0, &r));
            push_diag(
                &mut it,
                &r.diagnostics.total(),
                r.diagnostics.peak_resident_states,
            );
            let (c, inexact_s) = replay(&flow, &cfg(vars.seed(0)), &r, &mut tr, &mut checks);
            it.push("solve.execute_inexact", inexact_s);
            push_totals(&mut it, &tr.take_totals());
            if let Some(prev) = counts {
                checks.record(
                    1,
                    if prev == c {
                        Ok(())
                    } else {
                        Err(format!("replay counts moved: {prev:?} then {c:?}"))
                    },
                );
            }
            counts = Some(c);
        }
        let loop_s = t0.elapsed().as_secs_f64();
        // Variants the loop did not reach still count towards quality.
        for j in vars.missing() {
            let r = cold_flow(&circuit, &cfg(vars.seed(j)))?.run();
            checks.record(1, check(&mut vars, j, &r));
        }

        let mut out = Outcome {
            metrics: Vec::new(),
            checks,
            meta: vec![
                ("threads", THREADS.to_string()),
                ("workers", "1".into()),
                ("variants", vars.len().to_string()),
                ("sampling_backend", format!("\"{backend}\"")),
                ("circuit", format!("\"{}\"", sh.circuit)),
                ("samples", sh.samples.to_string()),
                ("yield_samples", sh.yield_samples.to_string()),
            ],
            notes: Vec::new(),
        };
        if p.trace {
            out.metrics = layer_metrics(&it, &counts.unwrap_or_default());
            out.notes = predictions(p.workload, &out.metrics);
            out.notes.push(write_trace(p, &tr)?);
        } else {
            let timed = Timed {
                setup,
                latencies,
                rss_mb,
                loop_s,
                jobs_per_request: 1.0,
            };
            out.metrics = end_to_end(&timed, &out.checks, &vars);
        }
        Ok(out)
    }
}

/// The per-layer predictions of the benchmark's design, reported as
/// measured (a prediction that fails is a finding, not a failed run).
fn predictions(w: Workload, m: &[Metric]) -> Vec<String> {
    let get = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let verdict = |ok: bool| if ok { "holds" } else { "FAILS" };
    let mut notes = Vec::new();
    match w {
        Workload::ExactS9234 => notes.push(format!(
            "prediction solve.begin_s >= solve.execute_s: {} ({} vs {})",
            verdict(get("solve.begin_s") >= get("solve.execute_s")),
            get("solve.begin_s"),
            get("solve.execute_s")
        )),
        Workload::FallbackS38584 => {
            let attributed = get("solve.replay_s") - get("solve.unattributed_s");
            let share = get("solve.execute_s") / attributed.max(1e-12);
            notes.push(format!(
                "prediction solve.execute_s >= 80% of attributed A1 replay: {} ({:.1}% of {attributed} s)",
                verdict(share >= 0.8),
                100.0 * share
            ));
        }
        _ => {}
    }
    if matches!(w, Workload::ExactS9234 | Workload::FallbackS38584) {
        notes.push(format!(
            "prediction cache.cross_chip_hits == 0: {} (max {})",
            verdict(get("cache.cross_chip_hits_max") == 0.0),
            get("cache.cross_chip_hits_max")
        ));
    }
    notes
}

mod sweep {
    //! `sweep_fleet`: one whole campaign after another through the
    //! runner.  The traced run also sends the campaign once through an
    //! in-process dispatcher, so the lease/TCP path is measured as a
    //! layer and checked against the runner's journal.

    use super::*;

    fn spec(p: &Params, seed: u64) -> CampaignSpec {
        let (circuits, samples, yield_samples, calibration_samples) = if p.tiny {
            (["tiny_demo:1", "tiny_demo:2"], 40, 80, 80)
        } else {
            (["s13207", "s15850"], 400, 4_000, 1_000)
        };
        CampaignSpec {
            name: "benchmark".into(),
            circuits: circuits
                .iter()
                .map(|c| CircuitRef::parse(c).expect("valid circuit ref"))
                .collect(),
            sigma_factors: SWEEP_K.to_vec(),
            samples,
            yield_samples,
            calibration_samples,
            seed,
            threads_per_job: 1,
            ..CampaignSpec::default()
        }
    }

    fn campaign(
        spec: &CampaignSpec,
        journal: &Path,
        verify: bool,
    ) -> Result<CampaignOutcome, String> {
        let opts = FleetOptions {
            workers: THREADS,
            verify,
            ..FleetOptions::default()
        };
        run_campaign(spec, journal, &opts).map_err(|e| format!("campaign: {e}"))
    }

    fn remove_journal(journal: &Path) {
        let _ = std::fs::remove_file(journal);
        let mut leases = journal.as_os_str().to_owned();
        leases.push(".leases");
        let _ = std::fs::remove_file(PathBuf::from(leases));
    }

    /// Digest and size of a journal file.
    fn journal_digest(journal: &Path) -> Result<(u64, u64), String> {
        let bytes = std::fs::read(journal).map_err(|e| format!("journal: {e}"))?;
        Ok((Fnv::new().bytes(&bytes).0, bytes.len() as u64))
    }

    /// The campaign check: every grid job executed and committed, none
    /// quarantined, and a repeated input's journal byte-identical to its
    /// first one.
    fn check(
        vars: &mut Variants,
        j: usize,
        o: &CampaignOutcome,
        journal: &Path,
    ) -> Result<(), String> {
        if !o.complete() || o.resumed_jobs != 0 {
            return Err(format!(
                "campaign incomplete: {} of {} records, {} resumed",
                o.records.len(),
                o.total_jobs,
                o.resumed_jobs
            ));
        }
        let quarantined = o.records.iter().filter(|r| r.quarantined).count();
        if quarantined > 0 {
            return Err(format!("{quarantined} jobs quarantined"));
        }
        let q = Quality::mean(o.records.iter().map(|r| (r.improvement, r.nb, r.ab)));
        vars.record(j, journal_digest(journal)?.0, q)
    }

    /// A second run over a complete journal must execute nothing.
    fn check_resume(o: Result<CampaignOutcome, String>) -> Result<(), String> {
        let o = o?;
        if o.complete() && o.executed_jobs == 0 && o.resumed_jobs == o.total_jobs {
            Ok(())
        } else {
            Err(format!(
                "resume of a complete journal executed {} jobs, resumed {}",
                o.executed_jobs, o.resumed_jobs
            ))
        }
    }

    pub(super) fn run(p: &Params) -> Result<Outcome, String> {
        let mut vars = Variants::new(p.seed, if p.trace { 1 } else { p.workload.variants() });
        let spec0 = spec(p, vars.seed(0));
        let units = spec0.jobs().len() as u64;
        let dir = p.work_dir.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("work dir: {e}"))?;
        let mut tr = if p.trace {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let mut checks = Checks::default();
        let mut it = Series::default();

        // Set-up: generate and build every circuit of the grid.
        let (setup, (circuits, backend)) = set_up(&mut tr, &mut it, |tr| {
            let mut circuits = Vec::new();
            let mut backend = "";
            for c in &spec0.circuits {
                let g = tr.begin("netlist.generate");
                let c = c.materialize()?;
                tr.end(g);
                let b = tr.begin("flow.build");
                backend = cold_flow(&c, &spec0.flow_config())?.sampling_backend();
                tr.end(b);
                circuits.push(c);
            }
            Ok((circuits, backend))
        })?;

        // Warm-up (untimed), verified in the traced run.
        let first = dir.join("first.journal");
        reset_peak_rss();
        let o = campaign(&spec0, &first, p.trace)?;
        let rss_mb = peak_rss_mb();
        checks.record(units, check(&mut vars, 0, &o, &first));
        let records = o.records;

        let mut latencies = Vec::new();
        let deadline = Duration::from_secs_f64(p.seconds);
        let journal = dir.join("timed.journal");
        let t0 = Instant::now();
        while latencies.is_empty() || t0.elapsed() < deadline {
            let j = latencies.len() % vars.len();
            let spec = spec(p, vars.seed(j));
            remove_journal(&journal);
            let t = Instant::now();
            let o = campaign(&spec, &journal, false);
            let dt = t.elapsed().as_secs_f64();
            latencies.push(dt);
            checks.record(units, o.and_then(|o| check(&mut vars, j, &o, &journal)));
            if !p.trace {
                continue;
            }
            // Traced: the same campaign under a span, then a resume of
            // its complete journal.
            it.push("untraced_job", dt);
            remove_journal(&journal);
            let s = tr.begin("fleet.campaign");
            let o = campaign(&spec0, &journal, false);
            it.push("job", tr.end(s));
            let o = match o {
                Ok(o) => o,
                Err(e) => {
                    checks.record(units, Err(e));
                    continue;
                }
            };
            checks.record(units, check(&mut vars, 0, &o, &journal));
            let busy: f64 = o.job_wall_s.iter().flatten().sum();
            it.push("busy_ratio", busy / (THREADS as f64 * o.wall_s));
            it.push("journal_bytes", journal_digest(&journal)?.1 as f64);
            let mut total = PassDiagnostics::default();
            for d in o.job_diagnostics.iter().flatten() {
                total.merge(&d.total());
            }
            push_diag(&mut it, &total, o.peak_resident_states);
            let s = tr.begin("fleet.resume");
            let resumed = campaign(&spec0, &journal, false);
            tr.end(s);
            checks.record(1, check_resume(resumed));
            push_totals(&mut it, &tr.take_totals());
        }
        let loop_s = t0.elapsed().as_secs_f64();
        if !p.trace {
            // The resume path, checked once outside the timing.
            checks.record(
                1,
                check_resume(campaign(
                    &spec(p, vars.seed((latencies.len() - 1) % vars.len())),
                    &journal,
                    false,
                )),
            );
        }
        for j in vars.missing() {
            remove_journal(&journal);
            let o = campaign(&spec(p, vars.seed(j)), &journal, false);
            checks.record(units, o.and_then(|o| check(&mut vars, j, &o, &journal)));
        }
        remove_journal(&journal);

        let mut counts = ReplayCounts::default();
        if p.trace {
            let dispatched = dir.join("dispatched.journal");
            let verdict = dispatch_once(&spec0, &dispatched, &mut tr).and_then(|quarantined| {
                it.push("quarantined", quarantined as f64);
                if journal_digest(&dispatched)?.0 == journal_digest(&first)?.0 {
                    Ok(())
                } else {
                    Err("dispatched journal differs from the runner's".into())
                }
            });
            checks.record(units, verdict);
            counts = replay_grid(&spec0, &circuits, &records, &mut tr, &mut it, &mut checks)?;
        }
        let _ = std::fs::remove_dir_all(&dir);

        let circuit_ids: Vec<String> = spec0.circuits.iter().map(CircuitRef::id).collect();
        let mut out = Outcome {
            metrics: Vec::new(),
            checks,
            meta: vec![
                ("threads", spec0.threads_per_job.to_string()),
                ("workers", THREADS.to_string()),
                ("variants", vars.len().to_string()),
                ("sampling_backend", format!("\"{backend}\"")),
                ("circuits", format!("\"{}\"", circuit_ids.join(","))),
                ("samples", spec0.samples.to_string()),
                ("yield_samples", spec0.yield_samples.to_string()),
            ],
            notes: Vec::new(),
        };
        if p.trace {
            out.metrics = layer_metrics(&it, &counts);
            out.notes.push(write_trace(p, &tr)?);
        } else {
            let timed = Timed {
                setup,
                latencies,
                rss_mb,
                loop_s,
                jobs_per_request: units as f64,
            };
            out.metrics = end_to_end(&timed, &out.checks, &vars);
        }
        Ok(out)
    }

    /// Shuts the dispatcher down when dropped, so its threads end even
    /// when the submitting thread bails out early.
    struct ShutdownOnDrop(DispatchHandle);

    impl Drop for ShutdownOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Sends `spec` once through an in-process dispatcher with one worker
    /// thread, under a `dispatch.submit` span; returns the quarantined
    /// job count after both threads have ended.
    fn dispatch_once(spec: &CampaignSpec, journal: &Path, tr: &mut Tracer) -> Result<u64, String> {
        let d = Dispatcher::bind(ServeOptions {
            addr: "127.0.0.1:0".into(),
            max_campaigns: 1,
            lease_jobs: 0,
            lease_ms: 10_000,
            heartbeat_ms: 2_500,
            // Wait for the worker rather than run inline.
            inline_grace_ms: 60_000,
            once: false,
            progress: false,
            addr_file: None,
        })
        .map_err(|e| format!("dispatcher: {e}"))?;
        let addr = d.local_addr().to_string();
        let journal = journal.to_str().ok_or("journal path is not UTF-8")?;
        let handle = d.handle();
        std::thread::scope(|scope| {
            // Dropped before the scope joins, also on unwinding.
            let stop = ShutdownOnDrop(handle);
            let served = scope.spawn(move || d.run());
            let worker = scope.spawn(|| {
                run_worker(&WorkerOptions {
                    addr: addr.clone(),
                    name: "benchmark-worker".into(),
                    backoff_min_ms: 10,
                    backoff_max_ms: 200,
                    max_idle_ms: Some(10_000),
                    progress: false,
                })
            });
            let opts = SubmitOptions {
                addr: addr.clone(),
                ..SubmitOptions::default()
            };
            let s = tr.begin("dispatch.submit");
            let submitted = submit_campaign(&spec.to_json(), journal, &opts);
            tr.end(s);
            drop(stop);
            let served = served.join();
            let worker = worker.join();
            let o = submitted.map_err(|e| format!("submit: {e}"))?;
            match (served, worker) {
                (Ok(Ok(())), Ok(Ok(()))) if o.committed == o.total => Ok(o.quarantined),
                (s, w) => Err(format!(
                    "dispatch: {} of {} committed, shutdown {s:?} / {w:?}",
                    o.committed, o.total
                )),
            }
        })
    }

    /// Outside replay of every grid job on flows of our own: each job's
    /// canonical record must match the campaign's.  The replay layers
    /// are reported as sums over the grid, `flow.run` as the mean per job.
    fn replay_grid(
        spec: &CampaignSpec,
        circuits: &[Circuit],
        records: &[JobRecord],
        tr: &mut Tracer,
        it: &mut Series,
        checks: &mut Checks,
    ) -> Result<ReplayCounts, String> {
        let cfg = spec.flow_config();
        let mut counts = ReplayCounts::default();
        let mut inexact_s = 0.0;
        let jobs = spec.jobs();
        for (ci, c) in circuits.iter().enumerate() {
            let flow = cold_flow(c, &cfg)?;
            for job in jobs.iter().filter(|j| j.circuit_index == ci) {
                tr.set_request(1_000 + job.index as u64);
                let s = tr.begin("flow.run");
                let r = flow.run_target(TargetPeriod::SigmaFactor(job.sigma_factor));
                tr.end(s);
                let same = records.get(job.index).map(JobRecord::to_json_line)
                    == Some(JobRecord::from_result(job, &r).to_json_line());
                checks.record(
                    1,
                    if same {
                        Ok(())
                    } else {
                        Err(format!(
                            "job {}: flow result differs from the campaign's",
                            job.index
                        ))
                    },
                );
                let (n, s) = replay(&flow, &cfg, &r, tr, checks);
                counts.add(&n);
                inexact_s += s;
            }
        }
        let mut t = tr.take_totals();
        if let Some(run) = t.get_mut("flow.run") {
            run.total_s /= run.count.max(1) as f64;
        }
        it.push("solve.execute_inexact", inexact_s);
        push_totals(it, &t);
        Ok(counts)
    }
}
