//! Cross-crate property tests for live mutation: random edit streams drive
//! the session-level `apply_delta` path (instances patched in place, cached
//! partitions re-solved), asserting after every step that the maintained
//! session is block-for-block identical to a fresh [`EquivSession`] over the
//! mutated process.

use ccs_equiv::{EquivSession, Equivalence};
use ccs_fsp::{Label, StateId};
use ccs_workloads::{mutating_queries, random, RandomConfig};
use proptest::prelude::*;

/// A deterministic xorshift stream, so a failing case shrinks to a seed.
fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Classifies under a battery of notions on both the mutated session and a
/// fresh one over the same process, asserting block-for-block agreement —
/// identical partitions imply identical pair verdicts for every query.
fn assert_session_matches_fresh(session: &EquivSession) -> Result<(), TestCaseError> {
    let fresh = EquivSession::for_process(session.fsp());
    for notion in [
        Equivalence::Strong,
        Equivalence::Observational,
        Equivalence::Language,
    ] {
        let maintained = session.classify_all(notion);
        let rebuilt = fresh.classify_all(notion);
        prop_assert_eq!(
            maintained.as_ref(),
            rebuilt.as_ref(),
            "{} classification diverged after a delta",
            notion
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The gadget toggle stream (τ-free: the cache-retaining fast paths)
    /// through `EquivSession::apply_delta`, cross-checked per step.
    #[test]
    fn session_deltas_match_fresh_sessions_on_gadget_streams(
        copies in 2usize..8,
        batches in 1usize..5,
        edits in 1usize..3,
        seed in 0u64..1_000,
    ) {
        let wl = mutating_queries::mutating_workload(copies, batches, edits, 4, seed);
        let mut session = EquivSession::for_process(&wl.fsp);
        // Warm the caches so deltas have something to invalidate or retain.
        let _ = session.classify_all(Equivalence::Observational);
        for batch in &wl.batches {
            session.apply_delta(&batch.additions, &batch.removals);
            assert_session_matches_fresh(&session)?;
        }
    }

    /// Random edit streams over random τ-bearing processes: exercises the
    /// τ-touching rebuild path and the strong-only re-solve.
    #[test]
    fn session_deltas_match_fresh_sessions_on_tau_streams(
        states in 2usize..16,
        mut seed in 1u64..1_000_000,
    ) {
        let config = RandomConfig {
            tau_ratio: 0.3,
            accept_ratio: 0.5,
            ..RandomConfig::sized(states, seed)
        };
        let fsp = random::random_fsp(&config);
        let num_actions = fsp.num_actions();
        let mut session = EquivSession::for_process(&fsp);
        let _ = session.classify_all(Equivalence::Strong);
        let _ = session.classify_all(Equivalence::Observational);
        for _ in 0..3 {
            let pick_label = |seed: &mut u64| {
                let draw = (xorshift(seed) % (num_actions as u64 + 1)) as usize;
                fsp.action_ids()
                    .nth(draw)
                    .map_or(Label::Tau, Label::Act)
            };
            let pick_state = |seed: &mut u64| {
                StateId::from_index((xorshift(seed) % states as u64) as usize)
            };
            let edge = (pick_state(&mut seed), pick_label(&mut seed), pick_state(&mut seed));
            if xorshift(&mut seed) % 3 == 0 {
                session.apply_delta(&[], &[edge]);
            } else {
                session.apply_delta(&[edge], &[]);
            }
            assert_session_matches_fresh(&session)?;
        }
    }
}
