//! P3: the per-sample buffer-minimisation solver — the flow's inner loop.
//! Measures solving one violated Monte-Carlo chip (region extraction,
//! support branch-and-bound, concentration MILP) plus the batched
//! whole-pass pipeline against the scalar per-chip one.

use criterion::{criterion_group, criterion_main, Criterion};
use psbi_core::solve::{BufferSpace, PushObjective, SampleSolver, SolveRequest, SolverOptions};
use psbi_liberty::Library;
use psbi_netlist::bench_suite;
use psbi_timing::graph::TimingGraph;
use psbi_timing::sample::{
    chip_rng, sample_canonical, CanonicalBatchSampler, SampleBatch, SampleTiming,
};
use psbi_timing::seq::SequentialGraph;
use psbi_timing::{constraint, ConstraintBatch, IntegerConstraints};
use psbi_variation::VariationModel;

fn bench_sample_solve(c: &mut Criterion) {
    let circuit = bench_suite::small_demo(2);
    let lib = Library::industry_like();
    let model = VariationModel::paper_defaults();
    let tg = TimingGraph::build(&circuit, &lib, &model).unwrap();
    let sg = SequentialGraph::extract(&tg);
    let skews = vec![0.0; sg.n_ffs];

    // Calibrate a period around the median so roughly half the samples
    // violate (the expensive case).
    let mut periods = Vec::new();
    let mut st = SampleTiming::for_graph(&sg);
    for k in 0..200 {
        let (globals, mut rng) = chip_rng(5, k);
        sample_canonical(&sg, &globals, &mut rng, &mut st);
        periods.push(constraint::min_period(&sg, &st, &skews).period);
    }
    let mu = psbi_variation::mean(&periods);
    let step = mu / 160.0;
    let space = BufferSpace::floating(sg.n_ffs, 20);

    // Pre-draw a violated sample.
    let mut ic = IntegerConstraints::for_graph(&sg);
    let mut violated_idx = 0;
    for k in 0..200 {
        let (globals, mut rng) = chip_rng(5, k);
        sample_canonical(&sg, &globals, &mut rng, &mut st);
        ic.build(&sg, &st, &skews, mu, step);
        if !ic.feasible_at_zero() {
            violated_idx = k;
            break;
        }
    }
    let (globals, mut rng) = chip_rng(5, violated_idx);
    sample_canonical(&sg, &globals, &mut rng, &mut st);
    ic.build(&sg, &st, &skews, mu, step);
    assert!(!ic.feasible_at_zero(), "expected a violated sample");

    let opts = SolverOptions::default();
    c.bench_function("solve_min_count_violated", |b| {
        let mut solver = SampleSolver::new();
        b.iter(|| {
            solver
                .solve(SolveRequest::new(
                    &sg,
                    ic.as_view(),
                    &space,
                    PushObjective::None,
                    &opts,
                ))
                .result
                .count()
        })
    });
    c.bench_function("solve_push_to_zero_violated", |b| {
        let mut solver = SampleSolver::new();
        b.iter(|| {
            solver
                .solve(SolveRequest::new(
                    &sg,
                    ic.as_view(),
                    &space,
                    PushObjective::ToZero,
                    &opts,
                ))
                .result
                .count()
        })
    });

    // The common fast path: a feasible sample (no violations).
    let mut ic_ok = IntegerConstraints::for_graph(&sg);
    ic_ok.build(&sg, &st, &skews, mu * 1.6, step);
    assert!(ic_ok.feasible_at_zero());
    c.bench_function("solve_feasible_sample", |b| {
        let mut solver = SampleSolver::new();
        b.iter(|| {
            solver
                .solve(SolveRequest::new(
                    &sg,
                    ic_ok.as_view(),
                    &space,
                    PushObjective::ToZero,
                    &opts,
                ))
                .result
                .count()
        })
    });
}

/// Batched-vs-scalar comparison over a whole mini-pass: sample, extract
/// constraints and solve 512 chips around the median period (a realistic
/// mix of clean and violated chips).  The batched side reuses one
/// `SampleBatch`/`ConstraintBatch`/`SampleSolver` (with its warm-started
/// `DiffSolver` and branch-and-bound scratch); the scalar side reuses its
/// `SampleTiming`/`IntegerConstraints`/`SampleSolver` across chips as the
/// pre-batch flow's worker loops did, but draws with the polar method and
/// solves without the warm-start/scratch machinery.
fn bench_pass_pipeline(c: &mut Criterion) {
    const SAMPLES: usize = 512;
    const CHUNK: usize = 64;
    let circuit = bench_suite::small_demo(2);
    let lib = Library::industry_like();
    let model = VariationModel::paper_defaults();
    let tg = TimingGraph::build(&circuit, &lib, &model).unwrap();
    let sg = SequentialGraph::extract(&tg);
    let skews = vec![0.0; sg.n_ffs];
    let mut periods = Vec::new();
    let mut st = SampleTiming::for_graph(&sg);
    for k in 0..200 {
        let (globals, mut rng) = chip_rng(5, k);
        sample_canonical(&sg, &globals, &mut rng, &mut st);
        periods.push(constraint::min_period(&sg, &st, &skews).period);
    }
    let period = psbi_variation::mean(&periods);
    let step = period / 160.0;
    let space = BufferSpace::floating(sg.n_ffs, 20);
    let opts = SolverOptions::default();

    let mut group = c.benchmark_group("pass_pipeline_512");
    group.sample_size(10);
    group.bench_function("scalar_reused", |b| {
        let mut st = SampleTiming::for_graph(&sg);
        let mut ic = IntegerConstraints::for_graph(&sg);
        let mut solver = SampleSolver::new();
        b.iter(|| {
            let mut solved = 0usize;
            for k in 0..SAMPLES as u64 {
                let (globals, mut rng) = chip_rng(9, k);
                sample_canonical(&sg, &globals, &mut rng, &mut st);
                ic.build(&sg, &st, &skews, period, step);
                let r = solver
                    .solve(SolveRequest::new(
                        &sg,
                        ic.as_view(),
                        &space,
                        PushObjective::ToZero,
                        &opts,
                    ))
                    .result;
                solved += usize::from(r.feasible);
            }
            solved
        })
    });
    group.bench_function("batched_reused_workspaces", |b| {
        let sampler = CanonicalBatchSampler::new(&sg);
        let mut batch = SampleBatch::new();
        let mut cons = ConstraintBatch::new();
        let mut solver = SampleSolver::new();
        b.iter(|| {
            let mut solved = 0usize;
            let mut lo = 0usize;
            while lo < SAMPLES {
                let len = CHUNK.min(SAMPLES - lo);
                batch.reset(&sg, len);
                sampler.fill(9, lo as u64, &mut batch);
                cons.build_from(&sg, &batch, &skews, period, step);
                for row in 0..len {
                    let r = solver
                        .solve(SolveRequest::new(
                            &sg,
                            cons.view(row),
                            &space,
                            PushObjective::ToZero,
                            &opts,
                        ))
                        .result;
                    solved += usize::from(r.feasible);
                }
                lo += len;
            }
            solved
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sample_solve, bench_pass_pipeline);
criterion_main!(benches);
