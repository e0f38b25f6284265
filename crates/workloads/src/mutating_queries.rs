//! Mutating-query workloads: a base model, a deterministic edit stream, and
//! a query mix — the input shape of the live-mutation path
//! (`EquivSession::with_delta`, which builds a session over the edited
//! process, and the server's `mutate` op).
//!
//! The base model is a union of disjoint copies of one small gadget, which
//! keeps the interesting structure *local*: an edit batch touches a couple
//! of copies and leaves the rest of the model as it was.  The edit stream is a seed-deterministic toggle sequence with two
//! flavours per copy:
//!
//! * a **class-redundant** toggle — an edge into a block the source already
//!   reaches under the same label, so the coarsest partition is unchanged;
//!   and
//! * a **refining** toggle (a back edge that makes one copy distinguishable
//!   from its siblings) — the splits are real, and undoing it coarsens the
//!   partition again.
//!
//! Every generator is pure in its arguments; two calls with the same seed
//! produce identical workloads, batch for batch.

use ccs_fsp::{Fsp, Label, StateId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::queries::state_pairs;

/// States per gadget copy: `h0 -a-> h1 -b-> h2`, plus a spare `h3 -b-> h2`
/// that starts strongly equivalent to `h1`.
pub const GADGET_STATES: usize = 4;

/// One edit batch: additions are applied after removals, exactly as the
/// delta APIs at every layer do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditBatch<E> {
    /// Edges to insert (ignored by the appliers when already present).
    pub additions: Vec<E>,
    /// Edges to delete (ignored by the appliers when already absent).
    pub removals: Vec<E>,
}

impl<E> EditBatch<E> {
    /// Total number of edits named by the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.additions.len() + self.removals.len()
    }

    /// Whether the batch names no edits at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.additions.is_empty() && self.removals.is_empty()
    }
}

/// A process-level mutating workload: the base model, the edit stream, and
/// a pair-query mix to replay between batches.
#[derive(Clone, Debug)]
pub struct MutatingWorkload {
    /// The union-of-gadget-copies base model.
    pub fsp: Fsp,
    /// The seed-deterministic edit stream, in application order.
    pub batches: Vec<EditBatch<(StateId, Label, StateId)>>,
    /// Uniform state pairs to query after every batch.
    pub queries: Vec<(StateId, StateId)>,
}

fn gadget_union(copies: usize) -> Fsp {
    let mut b = Fsp::builder("mutating-gadgets");
    let a = b.action("a");
    let bb = b.action("b");
    let mut first = None;
    for c in 0..copies {
        let h0 = b.state(&format!("g{c}_0"));
        let h1 = b.state(&format!("g{c}_1"));
        let h2 = b.state(&format!("g{c}_2"));
        let h3 = b.state(&format!("g{c}_3"));
        b.add_transition(h0, Label::Act(a), h1);
        b.add_transition(h1, Label::Act(bb), h2);
        b.add_transition(h3, Label::Act(bb), h2);
        b.mark_accepting(h2);
        first.get_or_insert(h0);
    }
    if let Some(start) = first {
        b.set_start(start);
    }
    b.build().expect("gadget union is well-formed")
}

/// The two toggle edges of copy `c`, as `(label, from, to)` index triples:
/// the class-redundant `h0 -a-> h3` and the refining back edge
/// `h2 -a-> h0`.  Label indices are `0 = a`, `1 = b`.
fn toggles(c: usize) -> [(usize, usize, usize); 2] {
    let base = c * GADGET_STATES;
    [(0, base, base + 3), (0, base + 2, base)]
}

/// A process-level mutating workload over `copies` gadget copies
/// (`copies × 4` states), with `batches` edit batches of `edits_per_batch`
/// toggles each and `queries` uniform pair queries.  Roughly one toggle in
/// four is the refining flavour; the rest are class-redundant.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `copies == 0`.
#[must_use]
pub fn mutating_workload(
    copies: usize,
    batches: usize,
    edits_per_batch: usize,
    queries: usize,
    seed: u64,
) -> MutatingWorkload {
    assert!(copies > 0, "need at least one gadget copy");
    let fsp = gadget_union(copies);
    let actions = [
        fsp.action_id("a").expect("gadget alphabet"),
        fsp.action_id("b").expect("gadget alphabet"),
    ];
    let raw = edit_stream(copies, batches, edits_per_batch, seed);
    let lift = |&(l, from, to): &(usize, usize, usize)| {
        (
            StateId::from_index(from),
            Label::Act(actions[l]),
            StateId::from_index(to),
        )
    };
    let batches = raw
        .into_iter()
        .map(|batch| EditBatch {
            additions: batch.additions.iter().map(lift).collect(),
            removals: batch.removals.iter().map(lift).collect(),
        })
        .collect();
    let queries = state_pairs(&fsp, queries, seed.wrapping_add(1));
    MutatingWorkload {
        fsp,
        batches,
        queries,
    }
}

/// The shared toggle stream: per batch, `edits_per_batch` distinct copies
/// are drawn; each contributes its redundant toggle (or, one draw in four,
/// its refining toggle) as an addition if the edge is currently absent and
/// as a removal otherwise.
fn edit_stream(
    copies: usize,
    batches: usize,
    edits_per_batch: usize,
    seed: u64,
) -> Vec<EditBatch<(usize, usize, usize)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Toggle state per (copy, flavour): false = absent.
    let mut present = vec![[false; 2]; copies];
    (0..batches)
        .map(|_| {
            let mut batch = EditBatch::default();
            let mut picked = Vec::with_capacity(edits_per_batch);
            while picked.len() < edits_per_batch.min(copies) {
                let c = rng.gen_range(0..copies);
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            for c in picked {
                let flavour = usize::from(rng.gen_range(0..4u8) == 0);
                let edge = toggles(c)[flavour];
                if present[c][flavour] {
                    batch.removals.push(edge);
                } else {
                    batch.additions.push(edge);
                }
                present[c][flavour] = !present[c][flavour];
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_in_the_seed() {
        let a = mutating_workload(8, 6, 2, 10, 3);
        let b = mutating_workload(8, 6, 2, 10, 3);
        assert_eq!(a.fsp, b.fsp);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.fsp.num_states(), 8 * GADGET_STATES);
        assert_eq!(a.batches.len(), 6);
        let c = mutating_workload(8, 6, 2, 10, 4);
        assert!(c.batches != a.batches || c.queries != a.queries);
    }

    #[test]
    fn redundant_toggles_leave_the_partition_unchanged() {
        let wl = mutating_workload(4, 0, 0, 0, 0);
        let strong = |fsp: &Fsp| {
            ccs_equiv::EquivSession::for_process(fsp).classify_all(ccs_equiv::Equivalence::Strong)
        };
        let before = strong(&wl.fsp);
        let (_, from, to) = toggles(2)[0];
        let a = wl.fsp.action_id("a").expect("gadget alphabet");
        let mut edited = wl.fsp.clone();
        edited.apply_edge_delta(
            &[(
                StateId::from_index(from),
                Label::Act(a),
                StateId::from_index(to),
            )],
            &[],
        );
        assert_eq!(before.num_blocks(), strong(&edited).num_blocks());
    }
}
