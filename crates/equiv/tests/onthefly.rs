//! Agreement and witness-replay suite for the on-the-fly engine.
//!
//! Two properties are enforced over structured families, the protocol
//! corpus and proptest-random processes, for every determinizable notion:
//!
//! 1. **Agreement** — `onthefly::compare` returns exactly the verdict of
//!    the materialized checkers (`language` / `traces` / `failures`), which
//!    materialize the full subset space before refining: independent code
//!    paths from the lazy synchronized BFS.
//! 2. **Replay** — every refutation's witness, evaluated through the
//!    *semantics* of each side (acceptance, weak string derivatives, weak
//!    enabledness — none of which the search uses), actually distinguishes
//!    the two processes.

use ccs_equiv::onthefly::OtfWitness;
use ccs_equiv::{failures, language, onthefly, traces, EquivSession, Equivalence};
use ccs_fsp::saturate::{tau_closure, weak_string_derivatives, weakly_enabled_actions, TauClosure};
use ccs_fsp::{ops, ActionId, Fsp, Label, StateId};
use ccs_workloads::{families, protocols, random, RandomConfig};
use proptest::prelude::*;

const NOTIONS: [Equivalence; 3] = [
    Equivalence::Language,
    Equivalence::Trace,
    Equivalence::Failure,
];

fn word_ids(fsp: &Fsp, word: &[String]) -> Vec<ActionId> {
    word.iter()
        .map(|name| {
            fsp.action_id(name)
                .unwrap_or_else(|| panic!("witness action {name:?} unknown to the process"))
        })
        .collect()
}

fn has_trace(fsp: &Fsp, closure: &TauClosure, p: StateId, word: &[String]) -> bool {
    !weak_string_derivatives(fsp, closure, p, &word_ids(fsp, word)).is_empty()
}

fn has_failure(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    trace: &[String],
    refusal: &[String],
) -> bool {
    let refusal_ids = word_ids(fsp, refusal);
    weak_string_derivatives(fsp, closure, p, &word_ids(fsp, trace))
        .into_iter()
        .any(|d| {
            let enabled = weakly_enabled_actions(fsp, closure, d);
            refusal_ids.iter().all(|a| !enabled.contains(a))
        })
}

/// The materialized checker's verdict for `notion` on the two start states
/// of the union — the oracle the on-the-fly engine must agree with.
fn materialized_verdict(fsp: &Fsp, p: StateId, q: StateId, notion: Equivalence) -> bool {
    match notion {
        Equivalence::Language => language::language_equivalent_states(fsp, p, q).holds,
        Equivalence::Trace => traces::trace_equivalent_states(fsp, p, q).holds,
        Equivalence::Failure => failures::failure_equivalent_states(fsp, p, q).equivalent,
        _ => unreachable!("only determinizable notions are exercised here"),
    }
}

/// Asserts agreement with the materialized checkers and, on refutation,
/// replays the witness through the independent semantics.
fn assert_otf_agrees_and_witnesses_replay(left: &Fsp, right: &Fsp) {
    let union = ops::disjoint_union(left, right);
    let (p, q) = ops::union_starts(&union, left, right);
    let fsp = &union.fsp;
    let closure = tau_closure(fsp);
    for notion in NOTIONS {
        let outcome = onthefly::compare(left, right, notion).expect("determinizable notion");
        assert_eq!(
            outcome.equivalent,
            materialized_verdict(fsp, p, q, notion),
            "on-the-fly {notion} disagrees with the materialized checker"
        );
        if outcome.equivalent {
            assert!(
                outcome.witness.is_none(),
                "{notion}: witness on equivalence"
            );
            continue;
        }
        let witness = outcome
            .witness
            .unwrap_or_else(|| panic!("{notion}: refutation without a witness"));
        assert_witness_replays(fsp, &closure, p, q, notion, &witness);
    }
}

/// Replays a refutation's witness through the independent semantics of
/// both sides and asserts that it distinguishes them.
fn assert_witness_replays(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    q: StateId,
    notion: Equivalence,
    witness: &OtfWitness,
) {
    match notion {
        Equivalence::Language => {
            let word: Vec<&str> = witness.trace.iter().map(String::as_str).collect();
            assert_ne!(
                language::accepts(fsp, p, &word),
                language::accepts(fsp, q, &word),
                "language witness {word:?} does not distinguish"
            );
        }
        Equivalence::Trace => {
            assert_ne!(
                has_trace(fsp, closure, p, &witness.trace),
                has_trace(fsp, closure, q, &witness.trace),
                "trace witness {:?} does not distinguish",
                witness.trace
            );
        }
        Equivalence::Failure => {
            let refusal = witness
                .refusal
                .as_ref()
                .expect("failure witnesses carry a refusal set");
            assert_ne!(
                has_failure(fsp, closure, p, &witness.trace, refusal),
                has_failure(fsp, closure, q, &witness.trace, refusal),
                "failure witness ({:?}, {refusal:?}) does not distinguish",
                witness.trace
            );
        }
        _ => unreachable!(),
    }
}

/// Exercises the refutation cache of the session's one pair engine on
/// `left` vs `right`, both prefixed by a fresh action `pre` so that the
/// prefixed starts `r`, `s` form an ancestor pair of the original starts
/// `p`, `q`:
///
/// 1. `equivalent_states(p, q)` first, then `on_the_fly(p, q)`: a refuted
///    pair answers from the cache (`pairs_visited == 0`) with a witness
///    that replays.
/// 2. `on_the_fly(r, s)`: the search pops the cached pair `(p, q)` and
///    stops there, so its witness is the BFS prefix `pre` plus the cached
///    suffix — exactly the witness of step 1 behind `pre` — and replays.
///
/// Returns how many notions refuted the pair.
fn assert_refutation_cache_replays(left: &Fsp, right: &Fsp) -> usize {
    let (left_pre, right_pre) = (ops::prefix("pre", left), ops::prefix("pre", right));
    let union = ops::disjoint_union(&left_pre, &right_pre);
    let fsp = &union.fsp;
    let (r, s) = ops::union_starts(&union, &left_pre, &right_pre);
    let (p, q) = (
        union.left[left.start().index()],
        union.right[right.start().index()],
    );
    let pre = Label::Act(fsp.action_id("pre").unwrap());
    assert!(fsp.has_transition(r, pre, p) && fsp.has_transition(s, pre, q));
    let closure = tau_closure(fsp);
    let mut refuted = 0;
    for notion in NOTIONS {
        let session = EquivSession::for_process(fsp);
        let want = materialized_verdict(fsp, p, q, notion);
        assert_eq!(session.equivalent_states(p, q, notion), want, "{notion}");
        let cached = session.on_the_fly(notion, p, q).unwrap();
        assert_eq!(cached.equivalent, want, "{notion}");
        if want {
            continue;
        }
        refuted += 1;
        assert_eq!(cached.stats.pairs_visited, 0, "{notion}: searched again");
        assert!(cached.stats.cache_hit, "{notion}");
        let suffix = cached.witness.expect("refutation carries a witness");
        assert_witness_replays(fsp, &closure, p, q, notion, &suffix);

        let ancestor = session.on_the_fly(notion, r, s).unwrap();
        assert!(!ancestor.equivalent, "{notion}");
        assert_eq!(
            ancestor.stats.pairs_visited, 2,
            "{notion}: the search must stop at the cached pair"
        );
        let witness = ancestor.witness.expect("refutation carries a witness");
        let mut expected_trace = vec!["pre".to_owned()];
        expected_trace.extend(suffix.trace.iter().cloned());
        assert_eq!(witness.trace, expected_trace, "{notion}");
        assert_eq!(witness.refusal, suffix.refusal, "{notion}");
        assert_witness_replays(fsp, &closure, r, s, notion, &witness);
    }
    refuted
}

fn structured_cases() -> Vec<(Fsp, Fsp)> {
    vec![
        (families::chain(4, "a"), families::chain(6, "a")),
        (families::chain(5, "a"), families::chain(5, "a")),
        (families::counter(2), families::counter(3)),
        (families::counter(4), families::counter(4)),
        (
            families::vending_machine(true),
            families::vending_machine(false),
        ),
        (families::tau_chain(5), families::tau_chain(1)),
        (families::binary_tree(2), families::chain(3, "l")),
        (families::det_blowup(12, 3), families::det_blowup(14, 3)),
        (families::det_blowup(8, 3), families::chain(8, "a")),
    ]
}

#[test]
fn otf_agrees_on_structured_families() {
    for (left, right) in &structured_cases() {
        assert_otf_agrees_and_witnesses_replay(left, right);
        assert_otf_agrees_and_witnesses_replay(right, left);
    }
}

#[test]
fn otf_agrees_on_the_protocol_corpus() {
    for protocol in protocols::corpus() {
        let composed = protocol.composed();
        assert_otf_agrees_and_witnesses_replay(&composed, &protocol.spec);
        // The compositionally minimized system must produce the same
        // verdicts — minimization preserves all the determinizable notions
        // exercised here (they are implied by ≈ on these models).
        let minimized = protocol.composed_minimized();
        for notion in NOTIONS {
            let full = onthefly::compare(&composed, &protocol.spec, notion).unwrap();
            let small = onthefly::compare(&minimized, &protocol.spec, notion).unwrap();
            assert_eq!(
                full.equivalent, small.equivalent,
                "{}/{notion}: minimized composition changed the verdict",
                protocol.name
            );
        }
    }
}

#[test]
fn refutation_cache_replays_on_structured_families() {
    let mut refuted = 0;
    for (left, right) in &structured_cases() {
        refuted += assert_refutation_cache_replays(left, right);
        refuted += assert_refutation_cache_replays(right, left);
    }
    assert!(refuted > 0, "no family pair was refuted");
}

#[test]
fn refutation_cache_replays_on_the_protocol_corpus() {
    let refuted: usize = protocols::corpus()
        .iter()
        .map(|protocol| assert_refutation_cache_replays(&protocol.composed(), &protocol.spec))
        .sum();
    assert!(refuted > 0, "no broken protocol was refuted");
}

#[test]
fn broken_protocol_witnesses_explain_the_defect() {
    // The premature-ack bug lets a second `send` overtake `deliver`; the
    // trace witness against the spec must show it.
    let bug = protocols::alternating_bit_premature_ack(1);
    let outcome = onthefly::compare(&bug.composed(), &bug.spec, Equivalence::Trace).unwrap();
    assert!(!outcome.equivalent);
    let witness = outcome.witness.unwrap();
    assert!(
        witness.trace.iter().filter(|a| *a == "send").count() >= 2,
        "expected a double-send trace, got {:?}",
        witness.trace
    );
}

#[test]
fn session_on_the_fly_agrees_with_batched_queries() {
    // Interleave on-the-fly and cached-partition queries on one session:
    // both answer from (and feed) the same arena and caches.
    let fsp = families::det_blowup(10, 3);
    let session = EquivSession::for_process(&fsp);
    let states: Vec<StateId> = (0..fsp.num_states()).map(StateId::from_index).collect();
    for notion in NOTIONS {
        for &p in &states {
            for &q in &states {
                let otf = session.on_the_fly(notion, p, q).unwrap();
                assert_eq!(
                    otf.equivalent,
                    session.equivalent_states(p, q, notion),
                    "{notion}: session OTF disagrees with equivalent_states for \
                     ({p:?}, {q:?})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Random general processes: agreement + replay for every notion and
    /// both argument orders.
    #[test]
    fn otf_agrees_on_random_processes(
        states in 2usize..9,
        seed in 0u64..400,
        tau in 0usize..2,
    ) {
        let config = RandomConfig {
            tau_ratio: if tau == 1 { 0.3 } else { 0.0 },
            accept_ratio: 0.5,
            ..RandomConfig::sized(states, seed)
        };
        let left = random::random_fsp(&config);
        let right = random::random_fsp(&RandomConfig {
            seed: seed.wrapping_add(1),
            ..config
        });
        assert_otf_agrees_and_witnesses_replay(&left, &right);
        assert_otf_agrees_and_witnesses_replay(&right, &left);
    }
}
