use super::*;
use psbi_timing::seq::SeqEdge;
use psbi_variation::CanonicalForm;

/// Builds a sequential graph with the given directed edges (delays are
/// irrelevant here: tests fill `IntegerConstraints` directly).
fn graph(n: usize, edges: &[(u32, u32)]) -> SequentialGraph {
    let seq_edges: Vec<SeqEdge> = edges
        .iter()
        .map(|(a, b)| SeqEdge {
            from: *a,
            to: *b,
            max_delay: CanonicalForm::constant(100.0),
            min_delay: CanonicalForm::constant(50.0),
        })
        .collect();
    SequentialGraph::from_parts(
        n,
        seq_edges,
        vec![CanonicalForm::constant(10.0); n],
        vec![CanonicalForm::constant(5.0); n],
    )
}

fn constraints(setup: &[i64], hold: &[i64]) -> IntegerConstraints {
    IntegerConstraints {
        setup_bound: setup.to_vec(),
        hold_bound: hold.to_vec(),
    }
}

/// Drives the unified entry point for the cold, stateless case the old
/// positional `solve` signature covered.
fn solve_plain(
    s: &mut SampleSolver,
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    space: &BufferSpace,
    push: PushObjective,
    opts: &SolverOptions,
) -> SampleResult {
    s.solve(SolveRequest::new(sg, ic.as_view(), space, push, opts))
        .result
}

fn check_valid(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    space: &BufferSpace,
    r: &SampleResult,
) {
    // Reconstruct the assignment and verify every constraint.
    let mut k = vec![0i64; sg.n_ffs];
    for (ff, v) in &r.tunings {
        assert!(space.has_buffer[*ff as usize], "tuned a bufferless FF");
        let (lo, hi) = space.bounds[*ff as usize];
        assert!(*v >= lo && *v <= hi, "tuning out of window");
        assert_ne!(*v, 0, "zero tunings must not be reported");
        k[*ff as usize] = *v;
    }
    for (e, edge) in sg.edges.iter().enumerate() {
        let (i, j) = (edge.from as usize, edge.to as usize);
        assert!(
            k[i] - k[j] <= ic.setup_bound[e],
            "setup violated on edge {e}: k={k:?}"
        );
        assert!(
            k[j] - k[i] <= ic.hold_bound[e],
            "hold violated on edge {e}: k={k:?}"
        );
    }
}

#[test]
fn no_violation_no_tuning() {
    let sg = graph(3, &[(0, 1), (1, 2)]);
    let ic = constraints(&[5, 3], &[2, 2]);
    let space = BufferSpace::floating(3, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(r.feasible && r.exact);
    assert!(r.tunings.is_empty());
}

#[test]
fn single_violation_needs_one_buffer() {
    let sg = graph(3, &[(0, 1), (1, 2)]);
    // Edge 0: k0 - k1 <= -3 → someone must move.
    let ic = constraints(&[-3, 5], &[5, 5]);
    let space = BufferSpace::floating(3, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(r.feasible && r.exact);
    assert_eq!(r.count(), 1, "tunings: {:?}", r.tunings);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn chained_violation_forces_two_buffers() {
    // 0 → 1 → 2.  Setup on (0,1) needs k1 ≥ k0 + 3.  FF0 has no buffer
    // (k0 = 0) so k1 ≥ 3.  Hold on (1,2): k2 − k1 ≤ 0 would allow k2 = 3…
    // make setup on (1,2) force k2 ≥ k1 too: k1 − k2 ≤ 0; and give FF2 a
    // hold constraint on a self-edge… simpler: require k1 ≥ 3 and
    // k1 − k2 ≤ 0 is satisfied by k2 = 0? No: k1 − k2 = 3 > 0.  So k2 must
    // also rise → two buffers.
    let sg = graph(3, &[(0, 1), (1, 2)]);
    let ic = constraints(&[-3, 0], &[10, 10]);
    let mut space = BufferSpace::floating(3, 20);
    space.has_buffer[0] = false;
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(r.feasible, "should be fixable");
    assert_eq!(r.count(), 2, "tunings: {:?}", r.tunings);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn unfixable_between_bufferless_ffs() {
    let sg = graph(2, &[(0, 1)]);
    let ic = constraints(&[-1], &[5]);
    let mut space = BufferSpace::floating(2, 20);
    space.has_buffer[0] = false;
    space.has_buffer[1] = false;
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible);
}

#[test]
fn window_too_small_is_infeasible() {
    let sg = graph(2, &[(0, 1)]);
    // Needs a relative shift of 30 but windows only allow ±10 each (20 total
    // relative shift < 30).
    let ic = constraints(&[-30], &[100]);
    let space = BufferSpace {
        has_buffer: vec![true; 2],
        bounds: vec![(-10, 10); 2],
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible);
}

#[test]
fn push_to_zero_minimises_magnitude() {
    let sg = graph(2, &[(0, 1)]);
    // k0 - k1 <= -4: solutions include k1 = 4 or k0 = -4 or splits, but
    // count is 1 either way; |k| must then be exactly 4.
    let ic = constraints(&[-4], &[100]);
    let space = BufferSpace::floating(2, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    let total: i64 = r.tunings.iter().map(|(_, k)| k.abs()).sum();
    assert_eq!(total, 4);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn push_to_targets_hits_target_when_free() {
    let sg = graph(2, &[(0, 1)]);
    // Violated: k0 - k1 <= -2. Target says FF1 should sit at 6.
    let ic = constraints(&[-2], &[100]);
    let space = BufferSpace::floating(2, 20);
    let targets = vec![0.0, 6.0];
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToTargets(&targets),
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    // The single-buffer solution closest to the targets: k1 = 6 is
    // feasible (0 - 6 <= -2) and |6-6| = 0 beats k1 = 2 (|2-6| = 4).
    assert_eq!(r.tunings, vec![(1, 6)]);
}

#[test]
fn hold_violation_fixed_with_negative_delay() {
    let sg = graph(2, &[(0, 1)]);
    // Hold violated: k1 - k0 <= -2 → delay the *launching* clock or advance
    // the capturing one; either way one buffer with |k| = 2.
    let ic = constraints(&[100], &[-2]);
    let space = BufferSpace::floating(2, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    let total: i64 = r.tunings.iter().map(|(_, k)| k.abs()).sum();
    assert_eq!(total, 2);
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn asymmetric_windows_respected() {
    let sg = graph(2, &[(0, 1)]);
    let ic = constraints(&[-5], &[100]);
    // FF1 can only go up to +3; FF0 down to -8.  One buffer no longer
    // suffices via FF1 alone (needs +5 > 3), but FF0 at -5 works.
    let space = BufferSpace {
        has_buffer: vec![true; 2],
        bounds: vec![(-8, 2), (-2, 3)],
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible);
    assert_eq!(r.count(), 1);
    check_valid(&sg, &ic, &space, &r);
    assert_eq!(r.tunings[0].0, 0);
}

#[test]
fn self_loop_edges_are_handled() {
    // A FF feeding itself: k0 - k0 = 0 must satisfy both bounds; if the
    // bound is negative the chip is dead no matter what.
    let sg = graph(1, &[(0, 0)]);
    let ic = constraints(&[-1], &[5]);
    let space = BufferSpace::floating(1, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible, "self-loop violation cannot be tuned away");
}

#[test]
fn matches_reference_milp_on_fixed_cases() {
    type Case = (usize, Vec<(u32, u32)>, Vec<i64>, Vec<i64>);
    let cases: Vec<Case> = vec![
        (3, vec![(0, 1), (1, 2)], vec![-3, 5], vec![5, 5]),
        (
            3,
            vec![(0, 1), (1, 2), (0, 2)],
            vec![-2, -2, 4],
            vec![9, 9, 9],
        ),
        (
            4,
            vec![(0, 1), (1, 2), (2, 3)],
            vec![-1, 0, -1],
            vec![4, 4, 4],
        ),
        (2, vec![(0, 1), (1, 0)], vec![-2, 1], vec![6, 6]),
    ];
    for (n, edges, setup, hold) in cases {
        let sg = graph(n, &edges);
        let ic = constraints(&setup, &hold);
        let space = BufferSpace::floating(n, 10);
        let mut s = SampleSolver::new();
        let fast = solve_plain(
            &mut s,
            &sg,
            &ic,
            &space,
            PushObjective::ToZero,
            &SolverOptions::default(),
        );
        let slow = s.solve_reference_milp(&sg, &ic, &space, PushObjective::ToZero);
        assert_eq!(fast.feasible, slow.feasible, "feasibility mismatch");
        if fast.feasible {
            assert_eq!(
                fast.count(),
                slow.count(),
                "count mismatch: fast {:?} slow {:?}",
                fast.tunings,
                slow.tunings
            );
            let fsum: i64 = fast.tunings.iter().map(|(_, k)| k.abs()).sum();
            let ssum: i64 = slow.tunings.iter().map(|(_, k)| k.abs()).sum();
            assert_eq!(fsum, ssum, "magnitude mismatch");
            check_valid(&sg, &ic, &space, &fast);
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The specialised solver and the reference MILP agree on
        /// feasibility, buffer count and total magnitude for random small
        /// instances.
        #[test]
        fn specialised_matches_reference(
            n in 3usize..6,
            raw_edges in proptest::collection::vec((0u32..6, 0u32..6), 1..8),
            raw_setup in proptest::collection::vec(-4i64..6, 8),
            raw_hold in proptest::collection::vec(-2i64..6, 8),
            bufferless in proptest::collection::vec(any::<bool>(), 6),
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let m = edges.len();
            let sg = graph(n, &edges);
            let ic = constraints(&raw_setup[..m], &raw_hold[..m]);
            let mut space = BufferSpace::floating(n, 5);
            for (has, off) in space.has_buffer.iter_mut().zip(&bufferless) {
                if *off {
                    *has = false;
                }
            }
            let mut s = SampleSolver::new();
            let fast = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &SolverOptions::default());
            let slow = s.solve_reference_milp(&sg, &ic, &space, PushObjective::ToZero);
            prop_assert_eq!(fast.feasible, slow.feasible,
                "feasibility: fast {:?} slow {:?}", fast, slow);
            if fast.feasible {
                prop_assert!(fast.exact);
                prop_assert_eq!(fast.count(), slow.count(),
                    "count: fast {:?} slow {:?}", &fast.tunings, &slow.tunings);
                let fsum: i64 = fast.tunings.iter().map(|(_, k)| k.abs()).sum();
                let ssum: i64 = slow.tunings.iter().map(|(_, k)| k.abs()).sum();
                prop_assert_eq!(fsum, ssum,
                    "magnitude: fast {:?} slow {:?}", &fast.tunings, &slow.tunings);
                check_valid(&sg, &ic, &space, &fast);
            }
        }

        /// The pruned search is bit-identical to the reference B&B —
        /// feasibility, support, witness and exactness — on random
        /// instances, while never visiting more nodes.
        #[test]
        fn pruned_search_matches_reference_bit_for_bit(
            n in 3usize..7,
            raw_edges in proptest::collection::vec((0u32..7, 0u32..7), 1..10),
            raw_setup in proptest::collection::vec(-4i64..6, 10),
            raw_hold in proptest::collection::vec(-2i64..6, 10),
            bufferless in proptest::collection::vec(any::<bool>(), 7),
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let m = edges.len();
            let sg = graph(n, &edges);
            let ic = constraints(&raw_setup[..m], &raw_hold[..m]);
            let mut space = BufferSpace::floating(n, 5);
            for (has, off) in space.has_buffer.iter_mut().zip(&bufferless) {
                if *off {
                    *has = false;
                }
            }
            let opts = SolverOptions::default();
            let ((pruned, pd), (reference, rd)) = solve_both_modes(&sg, &ic, &space, &opts);
            prop_assert_eq!(&pruned, &reference,
                "pruned vs reference diverged: {:?} vs {:?}", pd, rd);
            prop_assert!(pd.search_nodes <= rd.search_nodes,
                "pruned search visited {} nodes, reference {}", pd.search_nodes, rd.search_nodes);
            if pruned.feasible {
                check_valid(&sg, &ic, &space, &pruned);
            }
        }

        /// Solutions are always valid assignments within windows.
        #[test]
        fn solutions_always_valid(
            n in 2usize..8,
            raw_edges in proptest::collection::vec((0u32..8, 0u32..8), 1..12),
            raw_setup in proptest::collection::vec(-6i64..8, 12),
            raw_hold in proptest::collection::vec(-3i64..8, 12),
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let m = edges.len();
            let sg = graph(n, &edges);
            let ic = constraints(&raw_setup[..m], &raw_hold[..m]);
            let space = BufferSpace::floating(n, 6);
            let mut s = SampleSolver::new();
            let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &SolverOptions::default());
            if r.feasible {
                check_valid(&sg, &ic, &space, &r);
            }
        }
    }
}

#[test]
fn tie_breaking_is_pinned_and_cache_replay_matches() {
    // k0 − k1 ≤ −4 admits two optimal single-buffer supports ({0} at −4
    // or {1} at +4).  The pinned DFS order (most-covering endpoint, ties
    // to the lowest region slot, In before Out) must return the same one
    // every time — cold, re-solved on the same solver (its warm-start
    // witness cache primed by the first solve), and on a fresh solver.
    let sg = graph(2, &[(0, 1)]);
    let ic = constraints(&[-4], &[100]);
    let space = BufferSpace::floating(2, 20);
    let opts = SolverOptions::default();
    let mut s = SampleSolver::new();
    let cold = solve_plain(&mut s, &sg, &ic, &space, PushObjective::None, &opts);
    assert_eq!(cold.count(), 1);
    // Lowest-slot tie-break: FF0 is branched In first and accepted.
    assert_eq!(cold.tunings[0].0, 0, "tie must break to the lowest slot");
    let warm = solve_plain(&mut s, &sg, &ic, &space, PushObjective::None, &opts);
    let fresh = solve_plain(
        &mut SampleSolver::new(),
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &opts,
    );
    assert_eq!(cold, warm);
    assert_eq!(cold, fresh);
}

#[test]
fn oversized_region_falls_back_to_sparsified_witness() {
    // A long chain with one violation; region_cap 2 forces the greedy
    // fallback, which must still produce a valid (if non-minimal) fix.
    let n = 12;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![6i64; n - 1];
    setup[5] = -3; // violation mid-chain
    let hold = vec![8i64; n - 1];
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions {
        region_cap: 2,
        ..SolverOptions::default()
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &opts);
    assert!(r.feasible);
    assert!(!r.exact, "cap forces the inexact path");
    check_valid(&sg, &ic, &space, &r);
    // Sparsification keeps the fix small even without exact search.
    assert!(r.count() <= 4, "sparsified count {} too large", r.count());
}

#[test]
fn node_cap_fallback_is_still_valid() {
    // Dense mutually-constrained instance with a tiny node budget.
    let n = 8;
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if i != j && (i + j) % 2 == 0 {
                edges.push((i, j));
            }
        }
    }
    let sg = graph(n, &edges);
    let setup: Vec<i64> = (0..edges.len() as i64)
        .map(|e| if e % 5 == 0 { -2 } else { 4 })
        .collect();
    let hold = vec![6i64; edges.len()];
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 12);
    let opts = SolverOptions {
        bb_node_cap: 3,
        ..SolverOptions::default()
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::None, &opts);
    if r.feasible {
        check_valid(&sg, &ic, &space, &r);
    }
}

/// Runs the same cold request under the pruned search and the reference
/// B&B, returning both results with their search diagnostics.
fn solve_both_modes(
    sg: &SequentialGraph,
    ic: &IntegerConstraints,
    space: &BufferSpace,
    opts: &SolverOptions,
) -> (
    (SampleResult, PassDiagnostics),
    (SampleResult, PassDiagnostics),
) {
    let run = |prune: bool| {
        let mut s = SampleSolver::new();
        let out = s.solve(
            SolveRequest::new(sg, ic.as_view(), space, PushObjective::ToZero, opts)
                .search_prune(prune),
        );
        (out.result, out.diag)
    };
    (run(true), run(false))
}

#[test]
fn search_pruning_parity_on_symmetric_hub() {
    // Six interchangeable leaves hang off a hub whose window is pinned
    // to [0, 0], with every hub→leaf edge violated: the unique fix tunes
    // all six leaves to +3 (the pinned hub merges the leaves into one
    // region but cannot absorb anything itself).  Slots 1..6 form one
    // symmetry class; on a region this small the cascade/covering bounds
    // conclude before the symmetry guards get a turn (the guard-link
    // construction itself is pinned white-box in
    // `symmetry_guard_links_pin_the_lowest_slot_representative`), but the
    // pruned search must still return the canonical outcome bit for bit.
    let n = 7;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    let sg = graph(n, &edges);
    let ic = constraints(&vec![-3; n - 1], &vec![100; n - 1]);
    let mut space = BufferSpace::floating(n, 10);
    space.bounds[0] = (0, 0);
    let opts = SolverOptions::default();
    let ((pruned, pd), (reference, rd)) = solve_both_modes(&sg, &ic, &space, &opts);
    assert_eq!(pruned, reference, "pruned search must be bit-identical");
    assert!(pruned.feasible && pruned.exact);
    check_valid(&sg, &ic, &space, &pruned);
    // Golden representative: the canonical support in ascending slot
    // order with the concentrated witness.
    let want: Vec<(u32, i64)> = (1..n as u32).map(|i| (i, 3)).collect();
    assert_eq!(pruned.tunings, want, "class representative drifted");
    assert!(
        pd.search_pruned_bound > 0,
        "the covering/cascade bound must fire: {pd:?}"
    );
    assert_eq!(
        rd.search_pruned_symmetry, 0,
        "the reference B&B runs no structural pruning rules"
    );
    assert!(
        pd.search_nodes <= rd.search_nodes,
        "pruned search visited {} nodes, reference {}",
        pd.search_nodes,
        rd.search_nodes
    );
}

#[test]
fn symmetry_guard_links_pin_the_lowest_slot_representative() {
    // White-box pin of the symmetry-class representative rule: six
    // leaves with identical windows hanging off a window-pinned hub are
    // one interchangeable class, so every leaf's In branch must be
    // guarded by exactly the *lower* leaves — the class's lowest slot is
    // the representative and carries no guard itself.  The hub's window
    // differs and its constraint row is not swap-invariant with any
    // leaf, so it gets no guards and guards nobody.
    let m = 7usize;
    let region_ffs: Vec<u32> = (0..m as u32).collect();
    let var_of: Vec<u32> = (0..m as u32).collect();
    let mut cons = Vec::new();
    for i in 1..m as u32 {
        cons.push(RegCons {
            a: 0,
            b: i,
            bound: -3,
        });
        cons.push(RegCons {
            a: i,
            b: 0,
            bound: 100,
        });
    }
    let violated: Vec<usize> = cons
        .iter()
        .enumerate()
        .filter(|(_, c)| c.bound < 0)
        .map(|(i, _)| i)
        .collect();
    let mut bounds = vec![(-10i64, 10); m];
    bounds[0] = (0, 0);
    let mut solver = DiffSolver::new();
    let mut s = search::SupportSearch {
        solver: &mut solver,
        var_of: &var_of,
        region_ffs: &region_ffs,
        cons: &cons,
        violated: &violated,
        bounds: &bounds,
        best: None,
        node_cap: 1_000,
        exact: true,
        prune: true,
        stats: search::SearchStats::default(),
        vars_scratch: Vec::new(),
        slot_scratch: Vec::new(),
        arcs_scratch: Vec::new(),
        bounds_scratch: Vec::new(),
        ps: Default::default(),
    };
    s.prepare_prune();
    for v in 0..m {
        let lo = s.ps.link_start[v] as usize;
        let hi = s.ps.link_start[v + 1] as usize;
        let links = &s.ps.links[lo..hi];
        if v == 0 {
            assert!(links.is_empty(), "the pinned hub must have no guards");
        } else {
            let want: Vec<u32> = (1..v as u32).collect();
            assert_eq!(
                links,
                &want[..],
                "slot {v}'s In branch must be guarded by every lower class member"
            );
        }
    }
}

#[test]
fn search_pruning_parity_on_cascade_chain() {
    // An equality-tied chain split by one violated edge: every zero-slack
    // edge pins its neighbours together, so fixing the violation drags a
    // whole half-chain along.  The reference B&B proves each too-small
    // subset infeasible one probe at a time; the cascade lower bound
    // (rule 4) prices the drag chain per node and cuts far earlier —
    // with the identical outcome.
    let n = 10;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![0i64; n - 1];
    let mut hold = vec![0i64; n - 1];
    setup[4] = -4;
    hold[4] = 100;
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions::default();
    let ((pruned, pd), (reference, rd)) = solve_both_modes(&sg, &ic, &space, &opts);
    assert_eq!(pruned, reference, "pruned search must be bit-identical");
    assert!(pruned.feasible && pruned.exact);
    check_valid(&sg, &ic, &space, &pruned);
    // Either half-chain shifted by 4 is optimal: five buffers.
    assert_eq!(pruned.count(), 5);
    assert!(
        pd.search_pruned_bound > 0,
        "the cascade/covering bound must fire on the drag chain: {pd:?}"
    );
    assert!(
        pd.search_nodes < rd.search_nodes,
        "pruned search visited {} nodes, reference {}",
        pd.search_nodes,
        rd.search_nodes
    );
}

#[test]
fn search_stats_pruned_total_sums_all_rules() {
    let stats = search::SearchStats {
        nodes: 10,
        pruned_bound: 3,
        pruned_symmetry: 1,
    };
    assert_eq!(stats.pruned_total(), 4);
}

#[test]
fn sparsified_fallback_support_is_pinned() {
    // Same fixture as `oversized_region_falls_back_to_sparsified_witness`
    // but pinning the exact outcome: the batched drop pass in
    // `sparsify_witness` must keep returning byte-identical tunings to
    // the one-at-a-time reference it replaced.
    let n = 12;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![6i64; n - 1];
    setup[5] = -3;
    let hold = vec![8i64; n - 1];
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions {
        region_cap: 2,
        ..SolverOptions::default()
    };
    let mut s = SampleSolver::new();
    let r = solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &opts);
    assert!(r.feasible);
    assert!(!r.exact);
    assert_eq!(r.tunings, vec![(6, 3)], "fallback support drifted");
}

#[test]
fn fallback_is_counted_when_armed_and_leaves_the_result_alone() {
    // The `sparsified_fallback_support_is_pinned` fixture: region_cap 2
    // sends the violated chain region down the sparsify fallback.
    let n = 12;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let sg = graph(n, &edges);
    let mut setup = vec![6i64; n - 1];
    setup[5] = -3;
    let hold = vec![8i64; n - 1];
    let ic = constraints(&setup, &hold);
    let space = BufferSpace::floating(n, 10);
    let opts = SolverOptions {
        region_cap: 2,
        ..SolverOptions::default()
    };
    let solve = || {
        let mut s = SampleSolver::new();
        solve_plain(&mut s, &sg, &ic, &space, PushObjective::ToZero, &opts)
    };
    let _gate = psbi_obs::test_lock();
    psbi_obs::metrics::disarm();
    let disarmed = solve();
    psbi_obs::metrics::arm(None);
    let armed = solve();
    let snap = psbi_obs::metrics::snapshot();
    psbi_obs::metrics::disarm();
    assert_eq!(armed, disarmed, "instrumentation changed the result");
    assert!(!armed.exact, "region_cap 2 must take the fallback");
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(counter("solve.fallback.regions") > 0);
    assert!(counter("solve.fallback.probes") > 0);
    for histogram in ["solve.stage.fallback", "solve.fallback.region_ffs"] {
        assert!(
            snap.histogram(histogram).is_some_and(|h| h.count > 0),
            "{histogram} not recorded"
        );
    }
}

#[test]
fn unfixable_cycle_detected_by_global_screen() {
    // Ring 0→1→2→0 with negative total slack: tuning-invariant, dead chip.
    let sg = graph(3, &[(0, 1), (1, 2), (2, 0)]);
    let ic = constraints(&[-2, 0, 1], &[9, 9, 9]); // sum = -1 < 0
    let space = BufferSpace::floating(3, 20);
    let mut s = SampleSolver::new();
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::None,
        &SolverOptions::default(),
    );
    assert!(!r.feasible, "negative cycle must be unfixable");
    // A ring with non-negative total slack is fixable by rotation.
    let ic = constraints(&[-2, 1, 1], &[9, 9, 9]); // sum = 0
    let r = solve_plain(
        &mut s,
        &sg,
        &ic,
        &space,
        PushObjective::ToZero,
        &SolverOptions::default(),
    );
    assert!(r.feasible, "zero-sum ring is fixable");
    check_valid(&sg, &ic, &space, &r);
}

#[test]
fn reversed_execution_commits_in_pinned_region_order() {
    // Two disconnected violated regions give a multi-task round.  The
    // pinned-order contract: a round's outcomes are indexed by task
    // slot, so executing the tasks in any completion order — here
    // literally one by one, in reverse — and committing the reassembled
    // vector must reproduce the one-shot solve bit for bit.
    let sg = graph(4, &[(0, 1), (2, 3)]);
    let ic = constraints(&[-3, -4], &[9, 9]);
    let space = BufferSpace::floating(4, 20);
    let opts = SolverOptions::default();

    let mut reference = SampleSolver::new();
    let want = reference.solve(SolveRequest::new(
        &sg,
        ic.as_view(),
        &space,
        PushObjective::ToZero,
        &opts,
    ));
    assert!(want.result.feasible);

    let mut s = SampleSolver::new();
    let mut session = s.begin(SolveRequest::new(
        &sg,
        ic.as_view(),
        &space,
        PushObjective::ToZero,
        &opts,
    ));
    let mut first_round_tasks = 0;
    while !session.is_done() {
        let tasks = session.plan(&mut s);
        if first_round_tasks == 0 {
            first_round_tasks = tasks.len();
        }
        let mut outcomes: Vec<Option<RegionOutcome>> = vec![None; tasks.len()];
        for i in (0..tasks.len()).rev() {
            let got = s.execute(std::slice::from_ref(&tasks[i]), &space, &opts, None, true);
            outcomes[i] = got.into_iter().next();
        }
        let outcomes: Vec<RegionOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("one outcome per task"))
            .collect();
        session.commit(&mut s, &outcomes);
    }
    assert!(
        first_round_tasks >= 2,
        "expected a multi-region first round, got {first_round_tasks}"
    );
    assert_eq!(session.finish(), want);
}

/// Drives one solve through `begin` / `plan` / `execute` / `commit` with
/// every round's batch on `pool`; returns the outcome and the largest
/// batch a round handed to `execute`.
fn solve_on_pool(
    s: &mut SampleSolver,
    req: SolveRequest<'_>,
    pool: &rayon::ThreadPool,
) -> (SolveOutcome, usize) {
    let mut session = s.begin(req);
    let mut widest = 0;
    while !session.is_done() {
        let tasks = session.plan(s);
        widest = widest.max(tasks.len());
        let outcomes = s.execute(
            &tasks,
            session.space(),
            session.opts(),
            Some(pool),
            session.search_prune(),
        );
        session.commit(s, &outcomes);
    }
    (session.finish(), widest)
}

#[test]
fn fanned_out_execute_is_bit_identical_to_inline() {
    // The same request solved inline and with every batch fanned out on
    // a wide pool must agree bit for bit — outcome, tunings, and
    // diagnostics.
    let sg = graph(6, &[(0, 1), (2, 3), (4, 5), (1, 2)]);
    let ic = constraints(&[-3, -4, -2, 6], &[9, 9, 9, 9]);
    let space = BufferSpace::floating(6, 20);
    let opts = SolverOptions::default();
    let req = || SolveRequest::new(&sg, ic.as_view(), &space, PushObjective::ToZero, &opts);

    let mut inline = SampleSolver::new();
    let want = inline.solve(req());
    assert!(want.result.feasible);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap();
    let mut par = SampleSolver::new();
    let (got, widest) = solve_on_pool(&mut par, req(), &pool);
    assert!(
        widest >= 2,
        "expected a multi-task round to take the fan-out branch, got {widest}"
    );
    assert_eq!(got, want);
    // A second fanned-out solve on the same (now multi-scratch) solver
    // stays identical — parked scratches never leak warm state — and so
    // does an inline solve on it.
    assert_eq!(solve_on_pool(&mut par, req(), &pool).0, want);
    assert_eq!(par.solve(req()), want);
}
