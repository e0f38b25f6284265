//! Determinism suite for the shared subset arena: the explored arena is a
//! function of the process alone.  Two independent explorations must
//! produce byte-identical arenas: the same start subsets, the same subset ids in the
//! same intern order, the same member sets, enabled lists, acceptance bits,
//! transition table and refusal classes.  Every notion's per-subset output
//! classes are read off those, so identical snapshots mean identical
//! determinized verdicts.  Checked on structured families, the
//! determinization blowup family, the `≈ₖ` ladder, and proptest-drawn random
//! processes.
//!
//! The second half pins the one-arena `≈ₖ` engine to the per-pair
//! synchronized-BFS oracle for k ∈ 0..=4, both through the free functions
//! and through a session sweep.

use ccs_equiv::determinize::{SubsetAutomaton, SubsetId};
use ccs_equiv::{kobs, EquivSession, Equivalence};
use ccs_fsp::saturate::{tau_closure, SaturatedView};
use ccs_fsp::{format, Fsp};
use ccs_partition::Algorithm;
use ccs_workloads::{families, random, RandomConfig};
use proptest::prelude::*;

/// Every observable byte of an explored arena, in id order.
#[derive(Debug, PartialEq, Eq)]
struct ArenaSnapshot {
    starts: Vec<SubsetId>,
    num_subsets: usize,
    steps_computed: usize,
    delta: Vec<u32>,
    members: Vec<Vec<u32>>,
    enabled: Vec<Vec<u32>>,
    accepting: Vec<bool>,
    refusal_classes: Vec<u32>,
}

/// Interns every state's start subset, explores the arena to completion,
/// and snapshots it.
fn explore_snapshot(fsp: &Fsp, view: &SaturatedView) -> ArenaSnapshot {
    let mut auto = SubsetAutomaton::new(fsp);
    let starts = fsp.state_ids().map(|s| auto.start(view, s)).collect();
    auto.explore(view);
    let ids: Vec<SubsetId> = (0..auto.num_subsets())
        .map(|i| u32::try_from(i).unwrap())
        .collect();
    ArenaSnapshot {
        starts,
        num_subsets: auto.num_subsets(),
        steps_computed: auto.steps_computed(),
        delta: auto.transition_table().to_vec(),
        members: ids.iter().map(|&id| auto.subset(id).to_vec()).collect(),
        enabled: ids.iter().map(|&id| auto.enabled(id).to_vec()).collect(),
        accepting: ids.iter().map(|&id| auto.is_accepting(id)).collect(),
        refusal_classes: ids.iter().map(|&id| auto.refusal_class(view, id)).collect(),
    }
}

/// Asserts that a repeated build reproduces the same arena snapshot byte
/// for byte.
fn assert_arena_deterministic(fsp: &Fsp, context: &str) {
    let closure = tau_closure(fsp);
    let view = SaturatedView::build(fsp, &closure);
    assert_eq!(
        explore_snapshot(fsp, &view),
        explore_snapshot(fsp, &view),
        "{context}: a repeated build diverged"
    );
}

#[test]
fn structured_families_build_identical_arenas() {
    for n in [1usize, 3, 17] {
        assert_arena_deterministic(&families::chain(n, "a"), &format!("chain({n})"));
        assert_arena_deterministic(&families::cycle(n, "a"), &format!("cycle({n})"));
        assert_arena_deterministic(&families::tau_chain(n), &format!("tau_chain({n})"));
    }
    assert_arena_deterministic(&families::binary_tree(4), "binary_tree(4)");
    assert_arena_deterministic(&families::vending_machine(true), "vending(internal)");
    assert_arena_deterministic(&families::vending_machine(false), "vending(external)");
}

#[test]
fn blowup_and_ladder_arenas_are_deterministic() {
    // The subset arena here is larger than the process — the interesting
    // case: many interned subsets per original state.
    for (n, w) in [(6usize, 2usize), (12, 3), (16, 6), (24, 4)] {
        assert_arena_deterministic(&families::det_blowup(n, w), &format!("det_blowup({n},{w})"));
    }
    for (n, k) in [(23usize, 3usize), (60, 4)] {
        assert_arena_deterministic(
            &families::kobs_ladder(n, k),
            &format!("kobs_ladder({n},{k})"),
        );
    }
}

#[test]
fn table_ii_processes_build_identical_arenas() {
    // a.(b + c) vs a.b + a.c — the paper's running example, τ-decorated.
    let f = format::parse(
        "trans p a q\ntrans q b r\ntrans q c s\ntrans u a v\ntrans u a w\n\
         trans v b x\ntrans w c y\ntrans p tau u\naccept p q r s u v w x y",
    )
    .unwrap();
    assert_arena_deterministic(&f, "table-ii union");
}

/// The one-arena `≈ₖ` engine agrees with the per-pair synchronized-BFS
/// oracle on every level of a sweep — through the free functions, with
/// both solvers, and through a session that shares one arena across the
/// whole hierarchy.
#[test]
fn kobs_arena_sweep_matches_the_pairwise_oracle() {
    let ladder = families::kobs_ladder(2 * families::kobs_ladder_module_size(3), 3);
    let processes: Vec<(&str, Fsp)> = vec![
        ("kobs_ladder", ladder),
        ("vending", families::vending_machine(true)),
        ("tau_chain", families::tau_chain(4)),
        ("det_blowup", families::det_blowup(12, 3)),
    ];
    for (name, f) in &processes {
        let session = EquivSession::for_process(f);
        for k in 0..=4usize {
            let oracle = kobs::kobs_partition(f, k);
            assert_eq!(
                &kobs::kobs_partition_arena(f, k),
                &oracle,
                "{name}: one-arena sweep diverged at k = {k}"
            );
            assert_eq!(
                &kobs::kobs_partition_arena_with(f, k, Algorithm::PaigeTarjan),
                &oracle,
                "{name}: Paige–Tarjan one-arena sweep diverged at k = {k}"
            );
            assert_eq!(
                session
                    .classify_all(Equivalence::KObservational(k))
                    .as_ref(),
                &oracle,
                "{name}: session sweep diverged at k = {k}"
            );
        }
        // The whole k = 0..=4 session sweep shares one subset arena: the
        // arena is explored at most once, not once per level.
        let arena_size = session.subset_arena_size();
        let _ = session.classify_all(Equivalence::KObservational(4));
        assert_eq!(
            session.subset_arena_size(),
            arena_size,
            "{name}: re-explored"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_processes_build_identical_arenas(
        states in 1usize..24,
        seed in 0u64..1_000,
        tau in 0usize..2,
    ) {
        let config = RandomConfig {
            tau_ratio: 0.3 * tau as f64,
            accept_ratio: 0.6,
            ..RandomConfig::sized(states, seed)
        };
        let f = random::random_fsp(&config);
        let closure = tau_closure(&f);
        let view = SaturatedView::build(&f, &closure);
        prop_assert_eq!(explore_snapshot(&f, &view), explore_snapshot(&f, &view));
    }

    #[test]
    fn random_processes_agree_on_kobs_levels(
        states in 1usize..12,
        seed in 0u64..500,
    ) {
        let config = RandomConfig {
            tau_ratio: 0.25,
            accept_ratio: 0.5,
            ..RandomConfig::sized(states, seed)
        };
        let f = random::random_fsp(&config);
        for k in 0..=3usize {
            prop_assert_eq!(
                &kobs::kobs_partition_arena(&f, k),
                &kobs::kobs_partition(&f, k),
                "k = {}", k
            );
        }
    }
}
