//! Property-based tests for the equivalence checkers: the fixed-point
//! characterisations of Proposition 2.2.1, the implication hierarchy of
//! Proposition 2.2.3, and agreement between independently implemented
//! checkers, on arbitrary small processes.

use ccs_equiv::{failures, kobs, language, limited, relation, strong, traces, weak, EquivSession};
use ccs_fsp::saturate::{tau_closure, tau_closure_matrix, weak_edges, SaturatedView};
use ccs_fsp::{Fsp, Label, StateId};
use ccs_workloads::{random, RandomConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawProcess {
    states: usize,
    edges: Vec<(usize, usize, usize)>, // (from, label, to); label 0 = tau
    accepting: Vec<bool>,
    tau_allowed: bool,
}

fn process_strategy(tau_allowed: bool, all_accepting: bool) -> impl Strategy<Value = RawProcess> {
    (2usize..8).prop_flat_map(move |states| {
        let edges = proptest::collection::vec((0..states, 0usize..3, 0..states), 1..20);
        let accepting = proptest::collection::vec(any::<bool>(), states);
        (Just(states), edges, accepting).prop_map(move |(states, edges, accepting)| RawProcess {
            states,
            edges,
            accepting: if all_accepting {
                vec![true; states]
            } else {
                accepting
            },
            tau_allowed,
        })
    })
}

fn build(raw: &RawProcess) -> Fsp {
    let mut b = Fsp::builder("prop");
    let ids: Vec<StateId> = (0..raw.states).map(|i| b.state(&format!("s{i}"))).collect();
    let a0 = b.action("a");
    let a1 = b.action("b");
    for &(from, label, to) in &raw.edges {
        let l = match label {
            0 if raw.tau_allowed => Label::Tau,
            1 => Label::Act(a0),
            _ => Label::Act(a1),
        };
        b.add_transition(ids[from], l, ids[to]);
    }
    for (i, &acc) in raw.accepting.iter().enumerate() {
        if acc {
            b.mark_accepting(ids[i]);
        }
    }
    b.build().expect("generated process is non-empty")
}

/// The weak relation straight from its definition, `⇒a = ⇒ε ∘ →a ∘ ⇒ε`,
/// over the Floyd–Warshall closure matrix: `rows[p][c]` is the sorted target
/// list of column `c` at `p`, with column `|Σ|` the ε column.
fn weak_by_definition(fsp: &Fsp) -> Vec<Vec<Vec<usize>>> {
    let reach = tau_closure_matrix(fsp);
    let (n, k) = (fsp.num_states(), fsp.num_actions());
    (0..n)
        .map(|p| {
            let mut row = vec![Vec::new(); k + 1];
            row[k] = (0..n).filter(|&q| reach[p][q]).collect();
            for (p1, label, p2) in fsp.all_transitions() {
                if let (Label::Act(a), true) = (label, reach[p][p1.index()]) {
                    row[a.index()].extend((0..n).filter(|&q| reach[p2.index()][q]));
                }
            }
            for column in &mut row {
                column.sort_unstable();
                column.dedup();
            }
            row
        })
        .collect()
}

/// Lays a [`SaturatedView`] out as definition-shaped rows.
fn view_rows(view: &SaturatedView) -> Vec<Vec<Vec<usize>>> {
    let k = view.num_actions();
    (0..view.num_states())
        .map(|p| {
            let p = StateId::from_index(p);
            let mut row: Vec<Vec<usize>> = (0..k)
                .map(|a| {
                    let a = ccs_fsp::ActionId::from_index(a);
                    view.successors(p, a).iter().map(|q| q.index()).collect()
                })
                .collect();
            row.push(
                view.epsilon_successors(p)
                    .iter()
                    .map(|q| q.index())
                    .collect(),
            );
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every producer of the weak relation — the [`weak_edges`] stream, the
    /// [`SaturatedView`] CSR, a view patched after a τ-free edit, and the
    /// session's weak partition instance — equals the definition.  Sizes
    /// reach past 64 states, so rows span several bitset words.
    #[test]
    fn weak_rows_match_the_definition(
        states in 1usize..160,
        seed in 0u64..1_000,
        tau_tenths in 1usize..7,
        edit in (0usize..1_000, 0usize..2, 0usize..1_000, 0usize..1_000),
        dirty_stride in 2usize..9,
    ) {
        let config = RandomConfig {
            tau_ratio: 0.1 * tau_tenths as f64,
            accept_ratio: 0.5,
            ..RandomConfig::sized(states, seed)
        };
        let fsp = random::random_fsp(&config);
        let expected = weak_by_definition(&fsp);
        let (n, k) = (fsp.num_states(), fsp.num_actions());
        let closure = tau_closure(&fsp);

        let mut streamed = vec![vec![Vec::new(); k + 1]; n];
        for e in weak_edges(&fsp, &closure) {
            streamed[e.from.index()][e.action.map_or(k, ccs_fsp::ActionId::index)]
                .push(e.to.index());
        }
        prop_assert_eq!(&streamed, &expected);

        let view = SaturatedView::build(&fsp, &closure);
        prop_assert_eq!(&view_rows(&view), &expected);

        let session = EquivSession::new(fsp.clone());
        let graph = session.weak_instance().graph();
        let from_instance: Vec<Vec<Vec<usize>>> = (0..n)
            .map(|p| {
                (0..=k)
                    .map(|c| graph.successors(c, p).iter().map(|q| q.index()).collect())
                    .collect()
            })
            .collect();
        prop_assert_eq!(&from_instance, &expected);

        // A τ-free edit keeps the closure; the patched view must equal the
        // definition on the edited process when the dirty set covers the
        // backward τ-closure of the edited sources (plus arbitrary extras).
        let (from, action, to, removal) = edit;
        let from = StateId::from_index(from % n);
        let added = (from, Label::Act(ccs_fsp::ActionId::from_index(action % k)), StateId::from_index(to % n));
        let observable: Vec<_> = fsp.all_transitions().filter(|(_, l, _)| !l.is_tau()).collect();
        let removed: Vec<_> = observable
            .get(removal % observable.len().max(1))
            .copied()
            .into_iter()
            .collect();
        let mut edited = fsp.clone();
        edited.apply_edge_delta(&[added], &removed);
        let sources: Vec<StateId> = std::iter::once(from).chain(removed.iter().map(|e| e.0)).collect();
        let dirty: Vec<StateId> = fsp
            .state_ids()
            .filter(|&p| {
                p.index() % dirty_stride == 0 || sources.iter().any(|&s| closure.reaches(p, s))
            })
            .collect();
        let patched = view.patched(&edited, &closure, &dirty);
        prop_assert_eq!(&view_rows(&patched), &weak_by_definition(&edited));
        prop_assert_eq!(&patched, &SaturatedView::build(&edited, &closure));
    }

    /// The computed strong partition is a strong bisimulation (a Σ-fixed-point)
    /// and the weak partition is a Σ∪{ε}-fixed-point (Proposition 2.2.1(a)).
    #[test]
    fn computed_partitions_are_fixed_points(raw in process_strategy(true, false)) {
        let fsp = build(&raw);
        let sp = strong::strong_partition(&fsp);
        prop_assert!(relation::is_strong_bisimulation(
            &fsp,
            &relation::partition_to_pairs(sp.partition())
        ));
        let wp = weak::weak_partition(&fsp);
        prop_assert!(relation::is_weak_bisimulation(
            &fsp,
            &relation::partition_to_pairs(wp.partition())
        ));
    }

    /// Strong equivalence refines observational equivalence, which refines
    /// the ≃ₖ hierarchy at every level.
    #[test]
    fn strong_refines_weak_refines_limited(raw in process_strategy(true, false)) {
        let fsp = build(&raw);
        let sp = strong::strong_partition(&fsp);
        let wp = weak::weak_partition(&fsp);
        prop_assert!(sp.partition().refines(wp.partition()));
        let h = limited::limited_hierarchy(&fsp);
        prop_assert_eq!(h.limit(), wp.partition());
        for level in h.levels() {
            prop_assert!(wp.partition().refines(level));
        }
    }

    /// Proposition 2.2.3(a) on restricted processes: ≈ ⟹ ≡F ⟹ ≈₁, and ≈₁
    /// coincides with trace/language equivalence.
    #[test]
    fn implication_hierarchy_restricted(raw in process_strategy(false, true)) {
        let fsp = build(&raw);
        let wp = weak::weak_partition(&fsp);
        for p in fsp.state_ids() {
            for q in fsp.state_ids() {
                if p >= q {
                    continue;
                }
                let observational = wp.equivalent(p, q);
                let failure = failures::failure_equivalent_states(&fsp, p, q).equivalent;
                let lang = language::language_equivalent_states(&fsp, p, q).holds;
                let trace = traces::trace_equivalent_states(&fsp, p, q).holds;
                let k1 = kobs::kobs_equivalent_states(&fsp, p, q, 1);
                if observational {
                    prop_assert!(failure);
                }
                if failure {
                    prop_assert!(lang);
                }
                prop_assert_eq!(lang, trace);
                prop_assert_eq!(lang, k1);
            }
        }
    }

    /// Language-equivalence witnesses really are distinguishing words, and
    /// acceptance agrees with the bounded enumeration of the language.
    #[test]
    fn language_witnesses_are_sound(raw in process_strategy(true, false)) {
        let fsp = build(&raw);
        let states: Vec<StateId> = fsp.state_ids().collect();
        let p = states[0];
        let q = states[raw.states - 1];
        let result = language::language_equivalent_states(&fsp, p, q);
        if let Some(w) = &result.witness {
            let word: Vec<&str> = w.iter().map(String::as_str).collect();
            prop_assert!(!result.holds);
            prop_assert_ne!(
                language::accepts(&fsp, p, &word),
                language::accepts(&fsp, q, &word)
            );
        }
        // Bounded-language agreement: if the checker says equal, the words of
        // length ≤ 4 agree.
        if result.holds {
            prop_assert_eq!(
                language::language_up_to(&fsp, p, 4),
                language::language_up_to(&fsp, q, 4)
            );
        }
    }

    /// The strong quotient is strongly equivalent to the original and minimal
    /// (quotienting twice changes nothing).
    #[test]
    fn quotient_is_idempotent(raw in process_strategy(true, false)) {
        let fsp = build(&raw);
        let q = strong::quotient(&fsp);
        prop_assert!(strong::strong_equivalent(&fsp, &q));
        prop_assert_eq!(strong::quotient(&q).num_states(), q.num_states());
    }
}
