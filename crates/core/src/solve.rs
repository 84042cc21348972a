//! The per-sample buffer-minimisation solver.
//!
//! For one Monte-Carlo sample the paper solves two ILPs (eqs. (8)–(13) and
//! (14)–(17)): first minimise the number of adjusted buffers `Σ c_i`, then
//! — with that count as a budget — minimise the total tuning magnitude.
//! This module solves the same problems exactly but exploits their
//! structure:
//!
//! * **Localisation.** Only constraints violated at `x = 0` force tunings.
//!   In any *minimal* solution, every connected component of the tuned set
//!   (in the constraint graph) touches a violated constraint — otherwise
//!   zeroing that component keeps feasibility and is smaller.  A component
//!   of `m` tuned buffers therefore lies within `m` hops of a violated
//!   endpoint, so solving inside a radius-`R` region is globally optimal as
//!   soon as the optimum count is `≤ R`; the region is grown until that
//!   holds (or it saturates its connected component, proving
//!   infeasibility).
//! * **Support-set branch and bound.**  Inside a region the search branches
//!   on "buffer is adjusted / not adjusted" ([`search`] module).
//!   Feasibility of a candidate support is a bounded difference-constraint
//!   system — [`psbi_timing::DiffSolver`] decides it in near-linear time —
//!   and a matching over still-uncovered violated constraints gives a
//!   vertex-cover lower bound.  Tie-breaking in the search is pinned (see
//!   `search`), so the returned support is a pure function of the region
//!   system.
//! * **Value concentration.** With the budget fixed, `min Σ|x_i − a_i|` is
//!   solved as a MILP ([`psbi_milp`]) with indicator constraints — the
//!   exact formulation of the paper's eqs. (14)–(21) — on the small region,
//!   warm-started with the search's known-feasible witness.
//!
//! Every chip is solved on its own, from its own constraint system: no
//! region decomposition, support set or witness is carried from one chip,
//! pass or target to another.
//!
//! # Entry surface: request in, plan/execute underneath
//!
//! Everything above is driven through **one** entry point:
//! [`SampleSolver::solve`] takes a [`SolveRequest`] carrying the
//! constraint view, the buffer space, the push objective and the limits
//! as fields, and runs every region search inline on the calling thread.
//! Parallelism lives one level up: the flow solves independent chips on
//! separate workers.
//!
//! Underneath, a solve is an explicit plan/execute loop:
//! [`SampleSolver::begin`] returns a [`SolveSession`];
//! [`SolveSession::plan`] builds the round's regions and yields them as
//! self-contained [`RegionTask`]s; [`SampleSolver::execute`] searches a
//! batch of tasks and [`SolveSession::commit`] applies the outcomes **in
//! pinned region order**, never completion order.  Region searching is a
//! pure function of each task (warm-state independent, pinned
//! tie-breaking), so how a batch is scheduled changes only the wall
//! clock, never a byte of any result.
//!
//! The generic big-M MILP formulation of the whole problem is also
//! available ([`SampleSolver::solve_reference_milp`]) and is used by tests
//! to cross-validate the specialised path.

use psbi_milp::{Model, Op, Status};
use psbi_timing::feasibility::{Arc as FeasArc, DiffSolver};
use psbi_timing::{
    ConstraintKind, ConstraintsView, IntegerConstraints, SequentialGraph, Violation,
};
use rayon::prelude::*;
use std::sync::Mutex;

mod search;
#[cfg(test)]
mod tests;

use search::{run_support_search, PruneScratch, SearchOutcome, SearchStats, SupportSearch};
use serde::{Deserialize, Serialize};

/// One solver stage's observability guards: a trace span plus a
/// wall-clock histogram timer under the same `solve.stage.*` name.  Both
/// are single-relaxed-load no-ops while disarmed — the solve reads no
/// clock at all unless the obs registry or trace sink is armed.
struct StageObs {
    _span: psbi_obs::Span,
    _timer: psbi_obs::metrics::Timer,
}

#[inline]
fn stage_obs(name: &'static str) -> StageObs {
    StageObs {
        _span: psbi_obs::Span::enter(name),
        _timer: psbi_obs::metrics::timer(name),
    }
}

/// Workload counters of one sampling pass, aggregated over chips.
///
/// Deterministic for a fixed workload and prune mode: every chip is
/// solved cold, so each count is an order-free sum of per-chip events.
/// None of it is part of any canonical output surface — journals and
/// canonical reports never embed them.
///
/// Per-stage wall times live in the `psbi_obs` metrics histograms
/// (`solve.stage.discovery` / `.screen` / `.search` / `.milp`) — recorded
/// only when the registry is armed, so the disarmed solve pays no clock
/// reads at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PassDiagnostics {
    /// Regions processed (counted once per round they participate in).
    pub regions_total: u64,
    /// Regions larger than [`SolverOptions::region_cap`], solved by the
    /// inexact sparsified-witness fallback.
    pub regions_saturated: u64,
    /// Always 0: no region decomposition is carried between solves.
    /// Kept so existing readers of the counter still compile.
    pub regions_reused: u64,
    /// Always 0: no search outcome is carried between solves.  Kept so
    /// existing readers of the counter still compile.
    pub supports_rehit: u64,
    /// Always 0: no search outcome is shared between chips.  Kept so
    /// existing readers of the counter still compile.
    pub cross_chip_hits: u64,
    /// Branch-and-bound nodes visited by the region searches — a
    /// deterministic function of the region systems and the prune mode.
    pub search_nodes: u64,
    /// Subtrees cut by the covering/matching/cascade lower bounds.
    pub search_pruned_bound: u64,
    /// Always 0: the search has no dominance rule.  Kept so existing
    /// readers of the counter still compile.
    pub search_pruned_dominance: u64,
    /// `In` branches skipped by symmetry breaking (lower-slot
    /// interchangeable twin already explored).
    pub search_pruned_symmetry: u64,
}

impl PassDiagnostics {
    /// Accumulates another pass/chunk worth of counters.
    pub fn merge(&mut self, other: &Self) {
        self.regions_total += other.regions_total;
        self.regions_saturated += other.regions_saturated;
        self.regions_reused += other.regions_reused;
        self.supports_rehit += other.supports_rehit;
        self.cross_chip_hits += other.cross_chip_hits;
        self.search_nodes += other.search_nodes;
        self.search_pruned_bound += other.search_pruned_bound;
        self.search_pruned_dominance += other.search_pruned_dominance;
        self.search_pruned_symmetry += other.search_pruned_symmetry;
    }
}

/// Which buffers exist and their tuning windows (in steps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSpace {
    /// Per FF: does it (still) have a tuning buffer?
    pub has_buffer: Vec<bool>,
    /// Per FF: inclusive tuning bounds in steps (only meaningful where
    /// `has_buffer`).  Must contain 0 so that "not adjusted" is feasible.
    pub bounds: Vec<(i64, i64)>,
}

impl BufferSpace {
    /// Every FF gets a buffer with the paper's step-1 floating window: the
    /// window of width `steps` must contain both 0 and the tuning value, so
    /// the value ranges over `[-steps, steps]`.
    pub fn floating(n_ffs: usize, steps: i64) -> Self {
        Self {
            has_buffer: vec![true; n_ffs],
            bounds: vec![(-steps, steps); n_ffs],
        }
    }

    /// Number of FFs with buffers.
    pub fn num_buffers(&self) -> usize {
        self.has_buffer.iter().filter(|b| **b).count()
    }

    /// Validates that all active windows contain zero.
    ///
    /// # Errors
    ///
    /// Returns the index of the first offending FF.
    pub fn validate(&self) -> Result<(), usize> {
        for (i, has) in self.has_buffer.iter().enumerate() {
            if *has {
                let (lo, hi) = self.bounds[i];
                if lo > 0 || hi < 0 {
                    return Err(i);
                }
            }
        }
        Ok(())
    }
}

/// Secondary objective after the buffer count is minimised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PushObjective<'a> {
    /// Stop after minimising the count (paper §III-A1 / §III-B1).
    None,
    /// Minimise `Σ|x_i|` (paper §III-A3).
    ToZero,
    /// Minimise `Σ|x_i − a_i|` with per-FF targets (paper §III-B2).
    ToTargets(&'a [f64]),
}

/// Tunable solver limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Initial region radius (hops around violated constraints).
    pub region_radius: usize,
    /// Hard cap on FFs per region (beyond it results are marked inexact).
    pub region_cap: usize,
    /// Maximum branch-and-bound nodes per region before greedy fallback.
    pub bb_node_cap: usize,
    /// Regions larger than this solve the concentration MILP on the fixed
    /// optimal support instead of branching over supports.
    pub exact_push_cap: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            region_radius: 2,
            region_cap: 48,
            bb_node_cap: 3_000,
            exact_push_cap: 14,
        }
    }
}

/// Solution of one sample.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleResult {
    /// Can this chip be configured at all (with the given buffer space)?
    pub feasible: bool,
    /// Whether the result is proven optimal (greedy fallbacks clear this).
    pub exact: bool,
    /// Nonzero tunings `(ff_index, steps)`.
    pub tunings: Vec<(u32, i64)>,
}

impl SampleResult {
    /// Number of adjusted buffers (the paper's `n_k`).
    pub fn count(&self) -> usize {
        self.tunings.len()
    }
}

/// Normalised constraint `k(a) − k(b) ≤ bound` with FF endpoints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegCons {
    a: u32,
    b: u32,
    bound: i64,
}

/// Reusable per-sample solver (one per worker thread).
///
/// Every workspace the per-chip pipeline needs — the SPFA solver, region
/// scratch, the branch-and-bound's per-node buffers and the saturation
/// screen's arc/bound arrays — lives in this struct and is reused across
/// chips, so a steady-state pass performs no per-chip allocation outside
/// the result vectors themselves.  Workspaces are checked out racily per
/// chunk, so nothing in here may change a chip's result: scratch is
/// overwritten per chip and warm-start witnesses are only ever
/// re-validated, never trusted.
#[derive(Debug, Default)]
pub struct SampleSolver {
    /// The warm-started SPFA solver of the whole-chip saturation screen.
    diff: DiffSolver,
    /// Scratch: per-FF region id (or `NONE`).
    region_of: Vec<u32>,
    /// Scratch: per-FF variable slot within the saturation screen.
    var_of: Vec<u32>,
    /// Scratch: visited stamp for BFS.
    dist: Vec<u32>,
    /// Scratch: violated constraints of the current chip.
    violated: Vec<Violation>,
    /// Scratch: per-edge visit stamp for region-constraint attachment.
    edge_stamp: Vec<u32>,
    /// Current epoch for `edge_stamp`.
    epoch: u32,
    /// Scratch for the whole-chip saturation screen.
    fx_vars: Vec<u32>,
    fx_arcs: Vec<FeasArc>,
    fx_bounds: Vec<(i64, i64)>,
    /// The inline region-search workspace (sequential `execute` path).
    search: SearchScratch,
    /// Extra search workspaces, minted on demand when a task batch fans
    /// out across a thread pool and parked here between batches.
    extra: Mutex<Vec<SearchScratch>>,
}

const NONE: u32 = u32::MAX;

/// Per-round accumulator of the region growth loop.
struct RoundAcc {
    tunings: Vec<(u32, i64)>,
    exact: bool,
    need_radius: usize,
}

/// Reusable workspace of one region search: a difference-constraint
/// solver plus the per-node buffers every feasibility probe shares.  One
/// lives inline in each [`SampleSolver`] (the sequential `execute` path);
/// extras are minted on demand when a task batch fans out across a thread
/// pool, so concurrent searches never share mutable scratch.  Searches
/// are warm-state independent by contract, so which scratch instance a
/// task lands on can never change its outcome.
#[derive(Debug, Default)]
struct SearchScratch {
    diff: DiffSolver,
    /// Per-FF variable slot within a support check.
    var_of: Vec<u32>,
    /// Per-node scratch reused by every support-search probe.
    ss_vars: Vec<u32>,
    ss_slot: Vec<u32>,
    ss_arcs: Vec<FeasArc>,
    ss_bounds: Vec<(i64, i64)>,
    /// Pruning-machinery buffers (coverage bitsets, guard links).
    ss_prune: PruneScratch,
}

impl SearchScratch {
    /// Region-*solving* half: the support branch and bound, as a pure
    /// function of (region FFs, materialised constraints, tuning windows,
    /// limits).  The outcome is warm-state independent, which is what
    /// makes it safe to run on any scratch from any thread.
    fn search_region(
        &mut self,
        ffs: &[u32],
        cons: &[RegCons],
        space: &BufferSpace,
        opts: &SolverOptions,
        prune: bool,
    ) -> (SearchOutcome, SearchStats) {
        let m = ffs.len();
        // Map ff -> local slot.
        self.var_of.clear();
        self.var_of.resize(space.has_buffer.len(), NONE);
        for (slot, &ff) in ffs.iter().enumerate() {
            self.var_of[ff as usize] = slot as u32;
        }
        let violated_local: Vec<usize> = cons
            .iter()
            .enumerate()
            .filter(|(_, c)| c.bound < 0)
            .map(|(i, _)| i)
            .collect();

        // Branch and bound over supports.  The per-node buffers (variable
        // maps, arc and bound arrays) come from this scratch, so
        // thousands of feasibility probes share four allocations.
        let mut search = SupportSearch {
            solver: &mut self.diff,
            var_of: &self.var_of,
            region_ffs: ffs,
            cons,
            violated: &violated_local,
            bounds: &space.bounds,
            best: None,
            node_cap: opts.bb_node_cap,
            exact: true,
            prune,
            stats: SearchStats::default(),
            vars_scratch: std::mem::take(&mut self.ss_vars),
            slot_scratch: std::mem::take(&mut self.ss_slot),
            arcs_scratch: std::mem::take(&mut self.ss_arcs),
            bounds_scratch: std::mem::take(&mut self.ss_bounds),
            ps: std::mem::take(&mut self.ss_prune),
        };
        let outcome = run_support_search(&mut search, m, opts.region_cap);
        let stats = search.stats;
        // Armed-only observability (byte-neutral): node counts are
        // deterministic per region system + prune mode, unlike wall time.
        psbi_obs::metrics::counter_add("solve.search.nodes", stats.nodes);
        psbi_obs::metrics::counter_add("solve.search.pruned.bound", stats.pruned_bound);
        psbi_obs::metrics::counter_add("solve.search.pruned.symmetry", stats.pruned_symmetry);
        // Return the per-node scratch before the next task needs it.
        let (sv, ssl, sa, sb, sp) = search.into_scratch();
        self.ss_vars = sv;
        self.ss_slot = ssl;
        self.ss_arcs = sa;
        self.ss_bounds = sb;
        self.ss_prune = sp;
        (outcome, stats)
    }
}

/// One sample solve, fully described: the chip's constraint system, the
/// buffer space, the push objective and the solver limits.
///
/// Build with [`SolveRequest::new`], then chain
/// [`SolveRequest::search_prune`] as needed; the result is bit-identical
/// either way.
pub struct SolveRequest<'a> {
    sg: &'a SequentialGraph,
    ic: ConstraintsView<'a>,
    space: &'a BufferSpace,
    push: PushObjective<'a>,
    opts: &'a SolverOptions,
    search_prune: bool,
}

impl<'a> SolveRequest<'a> {
    /// A request for one chip against `space`.
    pub fn new(
        sg: &'a SequentialGraph,
        ic: ConstraintsView<'a>,
        space: &'a BufferSpace,
        push: PushObjective<'a>,
        opts: &'a SolverOptions,
    ) -> Self {
        Self {
            sg,
            ic,
            space,
            push,
            opts,
            search_prune: true,
        }
    }

    /// Enables or disables the search's symmetry / bitset / cascade
    /// pruning rules (see [`solve::search`](self) module docs).  On by
    /// default; both modes return bit-identical results — the off mode is
    /// the byte-parity reference the `PSBI_NO_SEARCH_PRUNE=1` flow hatch
    /// maps to.
    #[must_use]
    pub fn search_prune(mut self, on: bool) -> Self {
        self.search_prune = on;
        self
    }
}

/// Result of one [`SampleSolver::solve`]: the sample's solution plus the
/// counters the solve accumulated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolveOutcome {
    /// The sample's solution.
    pub result: SampleResult,
    /// Workload counters of this solve (see [`PassDiagnostics`]).
    pub diag: PassDiagnostics,
}

/// One region search, detached from its session: the region's FFs (pinned
/// BFS order) and its materialised constraint system — the exact inputs
/// of the pure search function.  Tasks own their data so a batch of them
/// can fan out across threads while their sessions stay behind.
#[derive(Debug, Clone)]
pub struct RegionTask {
    ffs: Vec<u32>,
    cons: Vec<RegCons>,
}

/// One executed region search, opaque to callers: produced (in task
/// order) by [`SampleSolver::execute`], consumed by
/// [`SolveSession::commit`].  Carries the search's node/prune counters
/// so `commit` can fold them into [`PassDiagnostics`].
#[derive(Debug, Clone)]
pub struct RegionOutcome {
    out: SearchOutcome,
    stats: SearchStats,
}

/// An in-flight sample solve, split at the region boundary.
///
/// [`SampleSolver::begin`] runs violation discovery and the whole-chip
/// screen and returns a session; then, until [`SolveSession::is_done`],
/// [`SolveSession::plan`] yields the current round's region searches as
/// [`RegionTask`]s, [`SampleSolver::execute`] runs them (inline or on a
/// pool), and [`SolveSession::commit`] applies the outcomes **in pinned
/// region order** — which keeps results bit-identical regardless of the
/// order tasks actually completed in.  [`SolveSession::finish`] yields
/// the [`SolveOutcome`].
///
/// The split exists so a caller can drive the rounds itself (and time
/// or trace each stage); [`SampleSolver::solve`] is the single-chip loop
/// over the same pieces.
pub struct SolveSession<'a> {
    req: SolveRequest<'a>,
    /// Violated constraints of the chip (taken from the solver's scratch
    /// at begin, returned when the session concludes).
    violated: Vec<Violation>,
    diag: PassDiagnostics,
    radius: usize,
    round: usize,
    planned: bool,
    /// Region decomposition of the current round.
    regions: Vec<Region>,
    /// Materialised constraint system per region, in region order.
    cons: Vec<Vec<RegCons>>,
    done: Option<SampleResult>,
}

impl<'a> SolveSession<'a> {
    /// Whether the solve has produced its final result.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }

    /// The buffer space this session solves against.
    pub fn space(&self) -> &'a BufferSpace {
        self.req.space
    }

    /// The solver limits this session runs under.
    pub fn opts(&self) -> &'a SolverOptions {
        self.req.opts
    }

    /// Whether this session's fresh searches run with pruning enabled
    /// (see [`SolveRequest::search_prune`]).
    pub fn search_prune(&self) -> bool {
        self.req.search_prune
    }

    /// Plans the current round: builds the region decomposition and
    /// returns one self-contained [`RegionTask`] per region, in region
    /// order.  Must be followed by exactly one [`SolveSession::commit`]
    /// carrying the executed outcomes.
    pub fn plan(&mut self, solver: &mut SampleSolver) -> Vec<RegionTask> {
        assert!(!self.is_done(), "plan on a finished session");
        debug_assert!(!self.planned, "plan called twice without a commit");
        let _span = psbi_obs::Span::enter("solve.region.plan");
        let space = self.req.space;
        self.regions = {
            let _obs = stage_obs("solve.stage.discovery");
            solver.collect_regions(self.req.sg, space, &self.violated, self.radius)
        };
        self.cons.clear();
        let mut tasks = Vec::with_capacity(self.regions.len());
        for region in &self.regions {
            self.diag.regions_total += 1;
            if region.ffs.len() > self.req.opts.region_cap {
                self.diag.regions_saturated += 1;
            }
            let cons = materialize_cons(region, self.req.ic, space);
            tasks.push(RegionTask {
                ffs: region.ffs.clone(),
                cons: cons.clone(),
            });
            self.cons.push(cons);
        }
        self.planned = true;
        tasks
    }

    /// Commits one executed round: outcomes are applied **in pinned
    /// region order** (never completion order), then the round
    /// accumulator decides growth — the session either concludes or
    /// re-arms for the next round at the grown radius (a region's optimal
    /// count exceeding the radius provably fits within radius = count;
    /// two rounds suffice, a third guards the node-capped inexact case).
    pub fn commit(&mut self, solver: &mut SampleSolver, outcomes: &[RegionOutcome]) {
        assert!(self.planned, "commit without a plan");
        assert_eq!(
            outcomes.len(),
            self.regions.len(),
            "commit needs exactly one outcome per planned task"
        );
        let radius = self.radius;
        let mut acc = RoundAcc {
            tunings: Vec::new(),
            exact: true,
            need_radius: radius,
        };
        // The push objective as the corruption failpoint's `push` argument,
        // so a spec can target one pass class: 0 count-only (A1, B1),
        // 1 push-to-zero (A3), 2 concentrate-to-targets (B2).
        let push = match self.req.push {
            PushObjective::None => 0,
            PushObjective::ToZero => 1,
            PushObjective::ToTargets(_) => 2,
        };
        for ((region, cons), o) in self.regions.iter().zip(&self.cons).zip(outcomes) {
            self.diag.search_nodes += o.stats.nodes;
            self.diag.search_pruned_bound += o.stats.pruned_bound;
            self.diag.search_pruned_symmetry += o.stats.pruned_symmetry;
            let corrupt;
            let outcome = if psbi_fault::failpoint!("solve.outcome.corrupt", "push" = push) {
                // Injected corruption: a region claimed fixed with no
                // tunings — the class of silent wrong answer the
                // independent verifier must flag.
                corrupt = SearchOutcome::Feasible {
                    count: 0,
                    support: Vec::new(),
                    witness: Vec::new(),
                    exact: true,
                };
                &corrupt
            } else {
                &o.out
            };
            solver.apply_outcome(
                region,
                cons,
                outcome,
                self.req.space,
                self.req.push,
                self.req.opts,
                radius,
                &mut acc,
            );
        }
        self.planned = false;
        if acc.need_radius == radius || self.round == 2 {
            let exact = acc.exact && acc.need_radius == radius;
            self.conclude(
                solver,
                SampleResult {
                    feasible: true,
                    exact,
                    tunings: acc.tunings,
                },
            );
        } else {
            self.radius = acc.need_radius;
            self.round += 1;
        }
    }

    /// The final outcome.
    ///
    /// # Panics
    ///
    /// Panics unless [`SolveSession::is_done`].
    pub fn finish(self) -> SolveOutcome {
        SolveOutcome {
            result: self.done.expect("finish on an unfinished session"),
            diag: self.diag,
        }
    }

    /// Concludes the session with `result`, returning the violation
    /// scratch to the solver.
    fn conclude(&mut self, solver: &mut SampleSolver, result: SampleResult) {
        solver.violated = std::mem::take(&mut self.violated);
        self.done = Some(result);
    }
}

impl SampleSolver {
    /// Creates a solver with empty workspaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves one sample end to end: minimum buffer count, then
    /// (optionally) value concentration, with every region search inline
    /// on the calling thread.  This is the solver's single
    /// entry point; [`SampleSolver::begin`] / [`SolveSession::plan`] /
    /// [`SampleSolver::execute`] / [`SolveSession::commit`] are the same
    /// pipeline exposed at the region boundary, for callers interleaving
    /// several chips' searches in one batch.
    pub fn solve(&mut self, req: SolveRequest<'_>) -> SolveOutcome {
        let mut session = self.begin(req);
        while !session.is_done() {
            let tasks = session.plan(self);
            let outcomes = self.execute(
                &tasks,
                session.space(),
                session.opts(),
                None,
                session.search_prune(),
            );
            session.commit(self, &outcomes);
        }
        session.finish()
    }

    /// Starts a sample solve: violation discovery and the whole-chip
    /// saturation screen.  The returned session has either concluded
    /// already (no violations, or provably unfixable) or awaits
    /// plan/execute/commit rounds.
    pub fn begin<'a>(&mut self, req: SolveRequest<'a>) -> SolveSession<'a> {
        let n = req.sg.n_ffs;
        debug_assert_eq!(req.space.has_buffer.len(), n);

        // 1. Violated constraints at x = 0 — the chip's fingerprint
        // (reused scratch, returned when the session concludes).
        let mut violated = std::mem::take(&mut self.violated);
        {
            let _obs = stage_obs("solve.stage.discovery");
            req.ic.collect_violations(req.sg, &mut violated);
        }
        let radius = req.opts.region_radius;
        let mut session = SolveSession {
            req,
            violated,
            diag: PassDiagnostics::default(),
            radius,
            round: 0,
            planned: false,
            regions: Vec::new(),
            cons: Vec::new(),
            done: None,
        };

        if session.violated.is_empty() {
            session.conclude(
                self,
                SampleResult {
                    feasible: true,
                    exact: true,
                    tunings: Vec::new(),
                },
            );
            return session;
        }
        // A violated constraint between two bufferless FFs is unfixable.
        for i in 0..session.violated.len() {
            let v = session.violated[i];
            if !session.req.space.has_buffer[v.a as usize]
                && !session.req.space.has_buffer[v.b as usize]
            {
                session.conclude(
                    self,
                    SampleResult {
                        feasible: false,
                        exact: true,
                        tunings: Vec::new(),
                    },
                );
                return session;
            }
        }

        // 2. Infeasibility screen at full saturation: if the chip cannot be
        // configured even with *every* buffer free, no region growth can
        // help (a negative cycle stays negative), so decide this once with
        // a single SPFA instead of growing regions toward it.
        let fixable = {
            let _obs = stage_obs("solve.stage.screen");
            self.chip_fixable(session.req.sg, session.req.ic, session.req.space)
        };
        if !fixable {
            session.conclude(
                self,
                SampleResult {
                    feasible: false,
                    exact: true,
                    tunings: Vec::new(),
                },
            );
        }
        session
    }

    /// Runs a batch of planned region searches and returns their outcomes
    /// **in task order**.  With a pool attached and at least two tasks the
    /// batch fans out across the pool's workers, each task on its own
    /// [`SearchScratch`] (minted on demand, parked between batches);
    /// otherwise the batch runs inline on the solver's own scratch.
    /// Searches are pure, so the two paths are bit-identical.
    /// [`SampleSolver::solve`] always runs inline (`pool = None`).
    ///
    /// Tasks from several sessions may be aggregated into one call — an
    /// outcome belongs to whichever session planned the task, at the same
    /// index within that session's slice of the batch.
    pub fn execute(
        &mut self,
        tasks: &[RegionTask],
        space: &BufferSpace,
        opts: &SolverOptions,
        pool: Option<&rayon::ThreadPool>,
        prune: bool,
    ) -> Vec<RegionOutcome> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let _obs = stage_obs("solve.stage.search");
        match pool {
            Some(pool) if tasks.len() >= 2 => {
                let extra = &self.extra;
                pool.install(|| {
                    (0..tasks.len())
                        .into_par_iter()
                        .map(|i| {
                            let _span = psbi_obs::Span::enter("solve.region.task");
                            let t = &tasks[i];
                            let mut scratch = extra
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .pop()
                                .unwrap_or_default();
                            let (out, stats) =
                                scratch.search_region(&t.ffs, &t.cons, space, opts, prune);
                            extra
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(scratch);
                            RegionOutcome { out, stats }
                        })
                        .collect()
                })
            }
            _ => tasks
                .iter()
                .map(|t| {
                    let _span = psbi_obs::Span::enter("solve.region.task");
                    let (out, stats) = self
                        .search
                        .search_region(&t.ffs, &t.cons, space, opts, prune);
                    RegionOutcome { out, stats }
                })
                .collect(),
        }
    }

    /// Applies one region's search outcome to the round accumulator:
    /// growth bookkeeping plus the pass's push objective.
    #[allow(clippy::too_many_arguments)]
    fn apply_outcome(
        &mut self,
        region: &Region,
        cons: &[RegCons],
        outcome: &SearchOutcome,
        space: &BufferSpace,
        push: PushObjective<'_>,
        opts: &SolverOptions,
        radius: usize,
        acc: &mut RoundAcc,
    ) {
        match outcome {
            SearchOutcome::Feasible {
                count,
                support,
                witness,
                exact,
            } => {
                if *count > radius && !region.saturated {
                    acc.need_radius = acc.need_radius.max(*count);
                }
                let tunings = {
                    let _obs = stage_obs("solve.stage.milp");
                    self.finish_region(region, cons, space, *count, support, witness, push, opts)
                };
                acc.tunings.extend(tunings);
                acc.exact &= exact;
            }
            SearchOutcome::Infeasible => {
                // The chip as a whole is fixable (screened above); a
                // region-local infeasibility means the region is too
                // small — grow it.
                acc.need_radius = acc.need_radius.max(radius * 2 + 1);
                acc.exact = false;
            }
        }
    }

    /// One SPFA over the whole circuit with every buffer free: can this
    /// chip be configured at all?
    ///
    /// Uses the warm-started solver: the witness left by the previous
    /// chip (workspace reuse) usually still fits, in which case this is a
    /// single `O(edges)` validation sweep with no graph build at all.
    fn chip_fixable(
        &mut self,
        sg: &SequentialGraph,
        ic: ConstraintsView<'_>,
        space: &BufferSpace,
    ) -> bool {
        let n = sg.n_ffs;
        self.var_of.clear();
        self.var_of.resize(n, NONE);
        let mut vars = std::mem::take(&mut self.fx_vars);
        let mut arcs = std::mem::take(&mut self.fx_arcs);
        let mut bounds = std::mem::take(&mut self.fx_bounds);
        vars.clear();
        arcs.clear();
        bounds.clear();
        for ff in 0..n {
            if space.has_buffer[ff] {
                self.var_of[ff] = vars.len() as u32;
                vars.push(ff as u32);
            }
        }
        let root = vars.len() as u32;
        let resolve = |ff: u32, var_of: &[u32]| -> u32 {
            let v = var_of[ff as usize];
            if v == NONE {
                root
            } else {
                v
            }
        };
        // Same saturation normalisation as [`materialize_cons`]: with
        // `k(ff)` confined to its window (0 where bufferless), a bound at
        // or above `hi(from) − lo(to)` can never bind, so the arc is
        // elided — the verdict is unchanged and the SPFA graph shrinks to
        // the near-critical core.  A root–root cap is 0, so an unfixable
        // bufferless pair still trips the `bound < cap` test.
        let win = |ff: u32| -> (i64, i64) {
            if space.has_buffer[ff as usize] {
                space.bounds[ff as usize]
            } else {
                (0, 0)
            }
        };
        let mut fixable = true;
        for (e, edge) in sg.edges.iter().enumerate() {
            let vf = resolve(edge.from, &self.var_of);
            let vt = resolve(edge.to, &self.var_of);
            let (lo_f, hi_f) = win(edge.from);
            let (lo_t, hi_t) = win(edge.to);
            // Setup: k_from − k_to ≤ sb → arc to→from.
            let sb = ic.setup_bound[e];
            if sb < hi_f - lo_t {
                if vf == root && vt == root {
                    fixable = false; // cap is 0, so sb < 0: dead pair
                    break;
                }
                arcs.push(FeasArc::new(vt, vf, sb));
            }
            let hb = ic.hold_bound[e];
            if hb < hi_t - lo_f {
                if vf == root && vt == root {
                    fixable = false;
                    break;
                }
                arcs.push(FeasArc::new(vf, vt, hb));
            }
        }
        if fixable {
            bounds.extend(vars.iter().map(|&ff| space.bounds[ff as usize]));
            fixable = self.diff.feasible_bounded_warm(vars.len(), &arcs, &bounds);
        }
        self.fx_vars = vars;
        self.fx_arcs = arcs;
        self.fx_bounds = bounds;
        fixable
    }

    /// Builds regions: buffered FFs within `radius` hops of a violated
    /// constraint endpoint, split into connected components.
    ///
    /// This is the region-*discovery* half of the solve — a pure function
    /// of (`has_buffer`, ordered violated endpoints, `radius`, graph).
    fn collect_regions(
        &mut self,
        sg: &SequentialGraph,
        space: &BufferSpace,
        violated: &[Violation],
        radius: usize,
    ) -> Vec<Region> {
        let n = sg.n_ffs;
        self.dist.clear();
        self.dist.resize(n, NONE);
        let mut frontier: Vec<u32> = Vec::new();
        for v in violated {
            for ff in [v.a, v.b] {
                if space.has_buffer[ff as usize] && self.dist[ff as usize] == NONE {
                    self.dist[ff as usize] = 0;
                    frontier.push(ff);
                }
            }
        }
        // Multi-source BFS over buffered adjacency.
        let mut collected: Vec<u32> = frontier.clone();
        let mut d = 0usize;
        while d < radius && !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for v in sg.neighbors(u as usize) {
                    if space.has_buffer[v] && self.dist[v] == NONE {
                        self.dist[v] = d as u32;
                        next.push(v as u32);
                        collected.push(v as u32);
                    }
                }
            }
            frontier = next;
        }
        // Saturation: no neighbour of the collected set is buffered and
        // uncollected (the set already fills its connected components).
        // Components of the induced subgraph.
        self.region_of.clear();
        self.region_of.resize(n, NONE);
        let mut regions: Vec<Region> = Vec::new();
        for &start in &collected {
            if self.region_of[start as usize] != NONE {
                continue;
            }
            let rid = regions.len() as u32;
            let mut ffs = vec![start];
            self.region_of[start as usize] = rid;
            let mut stack = vec![start];
            let mut saturated = true;
            while let Some(u) = stack.pop() {
                for v in sg.neighbors(u as usize) {
                    if !space.has_buffer[v] {
                        continue;
                    }
                    if self.dist[v] == NONE {
                        saturated = false; // a buffered FF just outside
                        continue;
                    }
                    if self.region_of[v] == NONE {
                        self.region_of[v] = rid;
                        ffs.push(v as u32);
                        stack.push(v as u32);
                    }
                }
            }
            let mut members = ffs.clone();
            members.sort_unstable();
            regions.push(Region {
                ffs,
                members,
                cons: Vec::new(),
                saturated,
            });
        }
        // Attach constraints: any setup/hold constraint touching a region
        // FF.  An edge never spans two regions (adjacent collected FFs are
        // in the same component), so marking edges globally is safe.  The
        // per-edge marks are a reused stamp array (no per-chip allocation).
        self.epoch = self.epoch.wrapping_add(1);
        if self.edge_stamp.len() < sg.edges.len() || self.epoch == 0 {
            self.epoch = 1;
            self.edge_stamp.clear();
            self.edge_stamp.resize(sg.edges.len(), 0);
        }
        for region in regions.iter_mut() {
            for &ff in &region.ffs {
                for &e in sg
                    .out_edges(ff as usize)
                    .iter()
                    .chain(sg.in_edges(ff as usize))
                {
                    if self.edge_stamp[e as usize] == self.epoch {
                        continue;
                    }
                    self.edge_stamp[e as usize] = self.epoch;
                    let edge = &sg.edges[e as usize];
                    region.cons.push(ConsRef {
                        a: edge.from,
                        b: edge.to,
                        edge: e,
                        kind: ConstraintKind::Setup,
                    });
                    region.cons.push(ConsRef {
                        a: edge.to,
                        b: edge.from,
                        edge: e,
                        kind: ConstraintKind::Hold,
                    });
                }
            }
        }
        regions
    }

    /// Applies the push objective to a solved region.
    #[allow(clippy::too_many_arguments)]
    fn finish_region(
        &mut self,
        region: &Region,
        cons: &[RegCons],
        space: &BufferSpace,
        count: usize,
        support: &[u32],
        witness: &[i64],
        push: PushObjective<'_>,
        opts: &SolverOptions,
    ) -> Vec<(u32, i64)> {
        match push {
            PushObjective::None => support
                .iter()
                .zip(witness)
                .filter(|(_, k)| **k != 0)
                .map(|(ff, k)| (*ff, *k))
                .collect(),
            PushObjective::ToZero => {
                self.concentrate(region, cons, space, count, support, witness, None, opts)
            }
            PushObjective::ToTargets(targets) => self.concentrate(
                region,
                cons,
                space,
                count,
                support,
                witness,
                Some(targets),
                opts,
            ),
        }
    }

    /// Solves `min Σ|k_i − a_i|` subject to the constraints and the buffer
    /// budget, as a MILP over the region (paper eqs. (14)–(21)).
    ///
    /// The MILP is warm-started with the search witness — a verified
    /// feasible point.
    #[allow(clippy::too_many_arguments)]
    fn concentrate(
        &mut self,
        region: &Region,
        cons: &[RegCons],
        space: &BufferSpace,
        budget: usize,
        support: &[u32],
        witness: &[i64],
        targets: Option<&[f64]>,
        opts: &SolverOptions,
    ) -> Vec<(u32, i64)> {
        let m = region.ffs.len();
        let over_supports = m <= opts.exact_push_cap;
        // Very large supports (greedy fallback on oversized regions): skip
        // the MILP and keep the witness values.
        const PUSH_SUPPORT_CAP: usize = 48;
        if !over_supports && support.len() > PUSH_SUPPORT_CAP {
            return support
                .iter()
                .zip(witness)
                .filter(|(_, k)| **k != 0)
                .map(|(ff, k)| (*ff, *k))
                .collect();
        }
        let mut model = Model::new();
        model.node_limit = 30_000;
        // Variables for either the full region (support is chosen by the
        // model) or just the fixed optimal support.
        let active: Vec<u32> = if over_supports {
            region.ffs.clone()
        } else {
            support.to_vec()
        };
        let mut var_slot = vec![NONE; space.has_buffer.len()];
        let mut kvars = Vec::with_capacity(active.len());
        for (s, &ff) in active.iter().enumerate() {
            var_slot[ff as usize] = s as u32;
            let (lo, hi) = space.bounds[ff as usize];
            let k = model.add_var(format!("k{ff}"), lo as f64, hi as f64, 0.0, true);
            kvars.push(k);
        }
        // Witness values per active slot (0 outside the support) and the
        // support membership — the warm-start point.
        let mut kwarm = vec![0.0f64; active.len()];
        let mut in_support = vec![false; active.len()];
        for (i, ff) in support.iter().enumerate() {
            let s = var_slot[*ff as usize];
            if s != NONE {
                kwarm[s as usize] = witness[i] as f64;
                in_support[s as usize] = true;
            }
        }
        let mut warm: Vec<f64> = kwarm.clone();
        if over_supports {
            let mut cterms = Vec::with_capacity(active.len());
            for (s, &ff) in active.iter().enumerate() {
                let c = model.add_binary(format!("c{ff}"), 0.0);
                let (lo, hi) = space.bounds[ff as usize];
                let big_m = (lo.abs().max(hi.abs()) as f64).max(1.0);
                model.add_indicator(kvars[s], c, big_m);
                cterms.push((c, 1.0));
                warm.push(if in_support[s] { 1.0 } else { 0.0 });
            }
            model.add_cons(cterms, Op::Le, budget as f64);
        }
        for c in cons {
            let sa = var_slot[c.a as usize];
            let sb = var_slot[c.b as usize];
            let mut terms = Vec::new();
            if sa != NONE {
                terms.push((kvars[sa as usize], 1.0));
            }
            if sb != NONE {
                terms.push((kvars[sb as usize], -1.0));
            }
            if terms.is_empty() {
                continue; // root-root, checked during feasibility
            }
            model.add_cons(terms, Op::Le, c.bound as f64);
        }
        for (s, &ff) in active.iter().enumerate() {
            let target = targets.map_or(0.0, |t| t[ff as usize]);
            model.add_abs_deviation(kvars[s], target, 1.0);
            warm.push((kwarm[s] - target).abs());
        }
        model.set_warm_start(warm);
        let sol = model.solve();
        if matches!(sol.status, Status::Optimal | Status::Feasible) {
            active
                .iter()
                .enumerate()
                .map(|(s, &ff)| (ff, sol.int_value(kvars[s])))
                .filter(|(_, k)| *k != 0)
                .collect()
        } else {
            // Should not happen (feasibility proven); fall back to witness.
            support
                .iter()
                .zip(witness)
                .filter(|(_, k)| **k != 0)
                .map(|(ff, k)| (*ff, *k))
                .collect()
        }
    }

    /// Solves the paper's full big-M ILP over *all* buffered FFs at once —
    /// exponentially slower but a direct transcription of eqs. (8)–(17);
    /// used by tests as a reference oracle.
    pub fn solve_reference_milp(
        &mut self,
        sg: &SequentialGraph,
        ic: &IntegerConstraints,
        space: &BufferSpace,
        push: PushObjective<'_>,
    ) -> SampleResult {
        let n = sg.n_ffs;
        let mut model = Model::new();
        let mut kvars = vec![None; n];
        let mut cterms = Vec::new();
        let mut cvars = vec![None; n];
        for ff in 0..n {
            if !space.has_buffer[ff] {
                continue;
            }
            let (lo, hi) = space.bounds[ff];
            let k = model.add_var(format!("k{ff}"), lo as f64, hi as f64, 0.0, true);
            let c = model.add_binary(format!("c{ff}"), 1.0);
            let big_m = (lo.abs().max(hi.abs()) as f64).max(1.0);
            model.add_indicator(k, c, big_m);
            kvars[ff] = Some(k);
            cvars[ff] = Some(c);
            cterms.push((c, 1.0));
        }
        let add_cons = |model: &mut Model, a: usize, b: usize, bound: i64| -> bool {
            match (kvars[a], kvars[b]) {
                (None, None) => bound >= 0,
                (ka, kb) => {
                    let mut terms = Vec::new();
                    if let Some(k) = ka {
                        terms.push((k, 1.0));
                    }
                    if let Some(k) = kb {
                        terms.push((k, -1.0));
                    }
                    model.add_cons(terms, Op::Le, bound as f64);
                    true
                }
            }
        };
        for (e, edge) in sg.edges.iter().enumerate() {
            let (i, j) = (edge.from as usize, edge.to as usize);
            if !add_cons(&mut model, i, j, ic.setup_bound[e])
                || !add_cons(&mut model, j, i, ic.hold_bound[e])
            {
                return SampleResult {
                    feasible: false,
                    exact: true,
                    tunings: Vec::new(),
                };
            }
        }
        let first = model.solve();
        if first.status != Status::Optimal {
            return SampleResult {
                feasible: false,
                exact: first.status == Status::Infeasible,
                tunings: Vec::new(),
            };
        }
        let nk = first.objective.round() as usize;
        let result_vals = match push {
            PushObjective::None => first,
            _ => {
                // Second stage: budget + |.| objective.
                let mut m2 = model.clone();
                for c in cvars.iter().flatten() {
                    m2.set_objective(*c, 0.0);
                }
                m2.add_cons(
                    cvars.iter().flatten().map(|c| (*c, 1.0)).collect(),
                    Op::Le,
                    nk as f64,
                );
                for ff in 0..n {
                    if let Some(k) = kvars[ff] {
                        let t = match push {
                            PushObjective::ToTargets(t) => t[ff],
                            _ => 0.0,
                        };
                        m2.add_abs_deviation(k, t, 1.0);
                    }
                }
                let second = m2.solve();
                if matches!(second.status, Status::Optimal | Status::Feasible) {
                    second
                } else {
                    first
                }
            }
        };
        let tunings = (0..n)
            .filter_map(|ff| {
                kvars[ff].and_then(|k| {
                    let v = result_vals.int_value(k);
                    (v != 0).then_some((ff as u32, v))
                })
            })
            .collect();
        SampleResult {
            feasible: true,
            exact: true,
            tunings,
        }
    }
}

/// Materialises a region's constraint system from the current chip in
/// **saturation-normalised form**: every bound is clamped at its exact
/// per-constraint cap, and constraints *at* their cap — which can never
/// bind — are elided entirely.
///
/// With every region variable confined to its window and everything
/// outside the region pinned to 0, the left-hand side of
/// `k(a) − k(b) ≤ bound` can never exceed `cap(a,b) = hi'(a) − lo'(b)`,
/// where `hi'`/`lo'` are the endpoint's window bounds inside the region
/// and 0 outside.  A bound at or above that cap therefore constrains
/// nothing — for the feasibility probes, for the branch-and-bound and
/// for the concentration MILP alike — so dropping it leaves the feasible
/// set of every support bit-for-bit unchanged while shrinking every
/// probe the search runs (regions attach each member FF's full edge
/// neighbourhood, and on paper-scale circuits the overwhelming majority
/// of those bounds are vacuous).  Violated bounds are negative and caps
/// never are, so every violated constraint survives exactly.
fn materialize_cons(region: &Region, ic: ConstraintsView<'_>, space: &BufferSpace) -> Vec<RegCons> {
    // Membership is checked against the region's sorted FF list; regions
    // are small, so a sorted probe beats touching an n-sized scratch.
    let window = |ff: u32| -> Option<(i64, i64)> {
        region
            .members
            .binary_search(&ff)
            .ok()
            .map(|_| space.bounds[ff as usize])
    };
    region
        .cons
        .iter()
        .filter_map(|c| {
            let hi_a = window(c.a).map_or(0, |w| w.1);
            let lo_b = window(c.b).map_or(0, |w| w.0);
            let cap = hi_a - lo_b;
            let bound = c.bound_in(ic);
            (bound < cap).then_some(RegCons {
                a: c.a,
                b: c.b,
                bound,
            })
        })
        .collect()
}

/// Reference to one side of an edge constraint, resolved against a chip's
/// bounds on demand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConsRef {
    a: u32,
    b: u32,
    edge: u32,
    kind: ConstraintKind,
}

impl ConsRef {
    /// The bound this constraint takes in chip `ic`.
    #[inline]
    pub(crate) fn bound_in(&self, ic: ConstraintsView<'_>) -> i64 {
        match self.kind {
            ConstraintKind::Setup => ic.setup_bound[self.edge as usize],
            ConstraintKind::Hold => ic.hold_bound[self.edge as usize],
        }
    }
}

/// One connected solve region: its FFs (pinned BFS order), the attached
/// constraints, and whether it saturated its component.
#[derive(Debug)]
pub(crate) struct Region {
    pub(crate) ffs: Vec<u32>,
    /// `ffs` sorted — the membership probe used by the saturation
    /// normalisation (see [`materialize_cons`]).
    pub(crate) members: Vec<u32>,
    pub(crate) cons: Vec<ConsRef>,
    pub(crate) saturated: bool,
}
