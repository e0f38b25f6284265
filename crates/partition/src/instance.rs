use std::sync::OnceLock;

use crate::graph::{GraphBuilder, LabeledGraph};
use crate::ids::{IdOverflow, StateId};

/// An instance of the generalized partitioning problem (Section 3).
///
/// The ground set is `0..num_elements()`; the `k` functions `fₗ : S → 2^S`
/// are given as labelled edge sets (`fₗ(x) = {y | (x, y) ∈ Eₗ}`); the initial
/// partition `π` is a block assignment (all elements default to block `0`).
///
/// Internally the relations live in a flat CSR [`LabeledGraph`]: a *base*
/// layout plus a small list of *pending* edges recorded since the base was
/// built.  A query sees `base ∪ pending` — computed lazily by the sorted
/// merge of [`LabeledGraph::merged_with`] (`O(m + p log p)` for `p` pending
/// edges) and folded back into the base on the next [`Instance::add_edge`],
/// so interleaving additions with solver queries never re-sorts the full
/// edge list.  Edges are never removed: an edited process gets a fresh
/// instance.  Successor and predecessor queries are slice views
/// into contiguous storage, and [`Instance::num_edges`] /
/// [`Instance::max_fanout`] are `O(1)` field reads of layout-computed
/// values.  All per-element arrays are 32-bit ([`StateId`] targets, `u32`
/// offsets and initial-block ids); ground sets beyond the packed id range
/// are rejected by [`Instance::try_new`] with an [`IdOverflow`].
///
/// ```
/// use ccs_partition::{Instance, StateId};
/// let mut inst = Instance::new(3, 2);
/// inst.set_initial_block(2, 1);    // element 2 starts in its own block
/// inst.add_edge(0, 0, 1);          // f₀(0) ∋ 1
/// inst.add_edge(1, 1, 2);          // f₁(1) ∋ 2
/// inst.add_edge(0, 0, 1);          // parallel duplicate: ignored
/// assert_eq!(inst.num_edges(), 2);
/// assert_eq!(inst.successors(0, 0), &[StateId::from_index(1)]);
/// assert_eq!(inst.predecessors(1, 2), &[StateId::from_index(1)]);
/// ```
#[derive(Clone, Debug)]
pub struct Instance {
    initial_block: Vec<u32>,
    /// Edges already laid out as a CSR graph.
    base: LabeledGraph,
    /// Edges recorded since `base` was laid out (duplicates allowed).
    pending: Vec<(usize, usize, usize)>,
    /// Lazily merged `base ∪ pending`; folded into `base` on `add_edge`.
    merged: OnceLock<LabeledGraph>,
}

impl Instance {
    /// Creates an instance over `num_elements` elements and `num_labels`
    /// relations, with every element initially in block `0` and no edges.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the packed 32-bit id range; use
    /// [`Instance::try_new`] at ingestion boundaries that must fail cleanly.
    #[must_use]
    pub fn new(num_elements: usize, num_labels: usize) -> Self {
        Instance::from_graph(LabeledGraph::empty(num_elements, num_labels))
    }

    /// Creates an instance, reporting an [`IdOverflow`] when the ground set
    /// or label alphabet cannot be addressed by packed 32-bit ids — the
    /// checked ingestion entry point mirroring [`GraphBuilder::try_new`].
    pub fn try_new(num_elements: usize, num_labels: usize) -> Result<Self, IdOverflow> {
        GraphBuilder::try_new(num_elements, num_labels).map(|b| Instance::from_graph(b.build()))
    }

    /// Wraps an already-populated [`GraphBuilder`], with every element
    /// initially in block `0`.
    #[must_use]
    pub fn from_builder(builder: GraphBuilder) -> Self {
        Instance::from_graph(builder.build())
    }

    /// Adopts an already-built CSR graph without any edge-list round-trip —
    /// the zero-copy entry point for producers (saturation, workload
    /// generators) that stream their edges straight into a
    /// [`GraphBuilder`] and build once.  Every element starts in block `0`.
    #[must_use]
    pub fn from_graph(graph: LabeledGraph) -> Self {
        Instance {
            initial_block: vec![0; graph.num_elements()],
            base: graph,
            pending: Vec::new(),
            merged: OnceLock::new(),
        }
    }

    /// Number of elements `n = |S|`.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.base.num_elements()
    }

    /// Number of relations (functions) `k`.
    #[must_use]
    pub fn num_labels(&self) -> usize {
        self.base.num_labels()
    }

    /// Number of distinct edges `m = |E|` over all relations.  Parallel
    /// duplicates passed to [`Instance::add_edge`] are removed by the builder
    /// and do not count.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.graph().num_edges()
    }

    /// Places `element` into initial block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range or `block` exceeds `u32::MAX`
    /// (block ids are stored compactly; a ground set that fits 32-bit ids
    /// never needs more blocks than that).
    pub fn set_initial_block(&mut self, element: usize, block: usize) {
        assert!(element < self.num_elements(), "element out of range");
        self.initial_block[element] =
            u32::try_from(block).expect("initial block id exceeds the 32-bit block range");
    }

    /// The initial block assignment, as dense 32-bit block ids.
    #[must_use]
    pub fn initial_blocks(&self) -> &[u32] {
        &self.initial_block
    }

    /// Adds `to` to `f_label(from)`.  The `fₗ` are set-valued, so duplicate
    /// parallel edges are deduplicated by the CSR layout.
    ///
    /// Repeated `add_edge`/solve interleavings stay cheap: if a query has
    /// already merged the pending edges, that merged layout becomes the new
    /// base (an `O(1)` move), so each query pays one counting relayout that
    /// sorts only the slots touched by the edges added since the previous
    /// query — never a full re-sort.
    ///
    /// # Panics
    ///
    /// Panics if `label`, `from` or `to` is out of range.
    pub fn add_edge(&mut self, label: usize, from: usize, to: usize) {
        assert!(label < self.num_labels(), "label out of range");
        assert!(from < self.num_elements(), "source element out of range");
        assert!(to < self.num_elements(), "target element out of range");
        if let Some(merged) = self.merged.take() {
            // A query materialized base ∪ pending; promote it so the
            // already-merged edges are never merged again.
            self.base = merged;
            self.pending.clear();
        }
        self.pending.push((label, from, to));
    }

    /// Reserves room for at least `additional` further edges.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.pending.reserve(additional);
    }

    /// The flat CSR view of the relations: the base layout when nothing is
    /// pending, otherwise the lazily merged `base ∪ pending`.
    #[must_use]
    pub fn graph(&self) -> &LabeledGraph {
        if self.pending.is_empty() {
            &self.base
        } else {
            self.merged
                .get_or_init(|| self.base.merged_with(&self.pending))
        }
    }

    /// The successor list `fₗ(x)`, sorted and duplicate-free — a slice of
    /// packed [`StateId`]s into the flat CSR target array.
    #[must_use]
    pub fn successors(&self, label: usize, element: usize) -> &[StateId] {
        self.graph().successors(label, element)
    }

    /// The predecessor list `{y | x ∈ fₗ(y)}`, sorted and duplicate-free — a
    /// slice of packed [`StateId`]s into the flat CSR source array.
    #[must_use]
    pub fn predecessors(&self, label: usize, element: usize) -> &[StateId] {
        self.graph().predecessors(label, element)
    }

    /// Maximum fan-out `c = max |fₗ(x)|`, the parameter of the
    /// Kanellakis–Smolka `O(c²·n·log n)` bound.  `O(1)`: the value is
    /// computed by the builder, not by a rescan.
    #[must_use]
    pub fn max_fanout(&self) -> usize {
        self.graph().max_fanout()
    }

    /// Heap bytes held by the instance (initial assignment, base CSR,
    /// pending edges, and the lazily merged layout if materialized),
    /// measured from live container capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.initial_block.capacity() * size_of::<u32>()
            + self.base.resident_bytes()
            + self.pending.capacity() * size_of::<(usize, usize, usize)>()
            + self.merged.get().map_or(0, LabeledGraph::resident_bytes)
    }

    /// Verifies that `partition` (given as a block assignment over the same
    /// ground set) satisfies conditions (1) and (2) of the generalized
    /// partitioning problem: it refines the initial partition and is stable
    /// with respect to every one of its own blocks under every relation.
    ///
    /// This is a correctness oracle for the solvers (it does *not* check
    /// coarseness).
    #[must_use]
    pub fn is_consistent_stable(&self, partition: &crate::Partition) -> bool {
        if partition.num_elements() != self.num_elements() {
            return false;
        }
        // (1) consistency with the initial partition.
        let initial = crate::Partition::from_assignment(&self.initial_block);
        if !partition.refines(&initial) {
            return false;
        }
        // (2) stability: within a block, all elements hit the same set of blocks.
        for block in partition.blocks() {
            for label in 0..self.num_labels() {
                let signature = |x: usize| {
                    let mut hit: Vec<usize> = self
                        .successors(label, x)
                        .iter()
                        .map(|&y| partition.block_of(y.index()))
                        .collect();
                    hit.sort_unstable();
                    hit.dedup();
                    hit
                };
                let Some(&first) = block.first() else {
                    continue;
                };
                let expected = signature(first.index());
                if block.iter().any(|&x| signature(x.index()) != expected) {
                    return false;
                }
            }
        }
        true
    }
}

impl PartialEq for Instance {
    /// Two instances are equal iff they have the same ground set, initial
    /// partition, and edge *sets* (duplicates and insertion order are
    /// canonicalized away by the CSR build).
    fn eq(&self, other: &Self) -> bool {
        self.initial_block == other.initial_block && self.graph() == other.graph()
    }
}

impl Eq for Instance {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    fn s(i: usize) -> StateId {
        StateId::from_index(i)
    }

    #[test]
    fn construction_and_queries() {
        let mut inst = Instance::new(4, 2);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(1, 3, 0);
        assert_eq!(inst.num_elements(), 4);
        assert_eq!(inst.num_labels(), 2);
        assert_eq!(inst.num_edges(), 3);
        assert_eq!(inst.successors(0, 0), &[s(1), s(2)]);
        assert_eq!(inst.predecessors(0, 2), &[s(0)]);
        assert_eq!(inst.predecessors(1, 0), &[s(3)]);
        assert_eq!(inst.max_fanout(), 2);
    }

    #[test]
    fn empty_instance_has_zero_fanout() {
        let inst = Instance::new(3, 1);
        assert_eq!(inst.max_fanout(), 0);
        assert_eq!(inst.num_edges(), 0);
    }

    #[test]
    fn oversize_ground_sets_fail_cleanly() {
        let err = Instance::try_new(crate::ids::MAX_ELEMENTS + 1, 1)
            .expect_err("oversize ground set must not build");
        assert_eq!(err.index, crate::ids::MAX_ELEMENTS);
        assert!(Instance::try_new(8, 2).is_ok());
    }

    #[test]
    fn duplicate_parallel_edges_count_once() {
        // Regression test: `num_edges` used to count parallel duplicates
        // toward `m`; with builder-time dedup it reports the true `|E|`.
        let mut inst = Instance::new(3, 2);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(1, 0, 1);
        assert_eq!(inst.num_edges(), 2);
        assert_eq!(inst.successors(0, 0), &[s(1)]);
        assert_eq!(inst.predecessors(0, 1), &[s(0)]);
        assert_eq!(inst.max_fanout(), 1);
    }

    #[test]
    fn mutation_after_query_rebuilds_the_graph() {
        let mut inst = Instance::new(3, 1);
        inst.add_edge(0, 0, 1);
        assert_eq!(inst.num_edges(), 1);
        assert_eq!(inst.max_fanout(), 1);
        inst.add_edge(0, 0, 2);
        assert_eq!(inst.num_edges(), 2);
        assert_eq!(inst.successors(0, 0), &[s(1), s(2)]);
        assert_eq!(inst.max_fanout(), 2);
    }

    /// Regression test for the incremental build path: interleaving
    /// `add_edge` with solver queries must go through the merge (not a full
    /// rebuild) and still agree — on `num_edges` and on the solved partition
    /// — with a fresh instance given all edges up front.
    #[test]
    fn interleaved_add_edge_and_solve_matches_batch_construction() {
        use crate::{solve, Algorithm};
        let n = 12;
        let mut inst = Instance::new(n, 2);
        let mut edges_so_far: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..n - 1 {
            let label = i % 2;
            inst.add_edge(label, i, i + 1);
            inst.add_edge(label, i, i + 1); // parallel duplicate
            inst.add_edge(label, n - 1, i);
            edges_so_far.push((label, i, i + 1));
            edges_so_far.push((label, n - 1, i));

            let mut fresh = Instance::new(n, 2);
            for &(l, f, t) in &edges_so_far {
                fresh.add_edge(l, f, t);
            }
            let merged = solve(&inst, Algorithm::PaigeTarjan);
            assert_eq!(inst.num_edges(), edges_so_far.len(), "round {i}");
            assert_eq!(inst.graph(), fresh.graph(), "round {i}");
            assert_eq!(merged, solve(&fresh, Algorithm::PaigeTarjan), "round {i}");
            assert_eq!(
                merged,
                solve(&inst, Algorithm::KanellakisSmolka),
                "round {i}"
            );
        }
    }

    /// Regression test for repeated add/solve cycles: each query after a
    /// batch of additions must pay exactly one relayout for the edges of
    /// that batch (the previous merged layout is promoted to the base, so
    /// chains of batches never re-merge already-merged edges), and the
    /// result must stay identical to a from-scratch build at every step.
    #[test]
    fn repeated_add_solve_cycles_stay_incremental() {
        use crate::{solve, Algorithm};
        let n = 16;
        let mut inst = Instance::new(n, 2);
        let mut live: Vec<(usize, usize, usize)> = Vec::new();
        for round in 0..10 {
            let adds = [
                (round % 2, round % n, (round + 1) % n),
                ((round + 1) % 2, (round + 3) % n, round % n),
            ];
            for (l, f, t) in adds {
                inst.add_edge(l, f, t);
                if !live.contains(&(l, f, t)) {
                    live.push((l, f, t));
                }
            }
            // The previous round's merge was promoted to the base: only
            // this batch's edges are pending.
            assert!(inst.pending.len() <= adds.len(), "round {round}");
            let mut fresh = Instance::new(n, 2);
            for &(l, f, t) in &live {
                fresh.add_edge(l, f, t);
            }
            let solved = solve(&inst, Algorithm::KanellakisSmolka);
            assert_eq!(inst.graph(), fresh.graph(), "round {round}");
            assert_eq!(
                solved,
                solve(&fresh, Algorithm::PaigeTarjan),
                "round {round}"
            );
        }
    }

    #[test]
    fn from_graph_adopts_a_prebuilt_layout() {
        let mut b = crate::GraphBuilder::new(4, 1);
        b.extend_edges([(0, 0, 1), (0, 1, 2), (0, 2, 3)]);
        let graph = b.build();
        let mut inst = Instance::from_graph(graph.clone());
        assert_eq!(inst.graph(), &graph);
        assert_eq!(inst.num_edges(), 3);
        // Mutation after adoption still works through the merge path.
        inst.add_edge(0, 3, 0);
        assert_eq!(inst.num_edges(), 4);
        assert_eq!(inst.successors(0, 3), &[s(0)]);
    }

    #[test]
    fn equality_ignores_duplicates_and_insertion_order() {
        let mut a = Instance::new(3, 1);
        a.add_edge(0, 0, 2);
        a.add_edge(0, 0, 1);
        let mut b = Instance::new(3, 1);
        b.add_edge(0, 0, 1);
        b.add_edge(0, 0, 2);
        b.add_edge(0, 0, 2);
        assert_eq!(a, b);
        b.add_edge(0, 1, 2);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn add_edge_checks_label() {
        let mut inst = Instance::new(2, 1);
        inst.add_edge(1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "target element out of range")]
    fn add_edge_checks_target() {
        let mut inst = Instance::new(2, 1);
        inst.add_edge(0, 0, 5);
    }

    #[test]
    fn initial_blocks_default_to_zero() {
        let mut inst = Instance::new(3, 1);
        assert_eq!(inst.initial_blocks(), &[0, 0, 0]);
        inst.set_initial_block(1, 4);
        assert_eq!(inst.initial_blocks(), &[0, 4, 0]);
    }

    #[test]
    fn from_builder_round_trip() {
        let mut b = crate::GraphBuilder::new(3, 1);
        b.add_edge(0, 0, 1);
        b.add_edge(0, 1, 2);
        let inst = Instance::from_builder(b);
        assert_eq!(inst.num_elements(), 3);
        assert_eq!(inst.num_edges(), 2);
        assert_eq!(inst.initial_blocks(), &[0, 0, 0]);
        assert_eq!(inst.successors(0, 1), &[s(2)]);
    }

    #[test]
    fn stability_oracle_accepts_stable_partition() {
        // 0 -> 1, 2 -> 3 under one relation; {0,2},{1,3} is stable.
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 2, 3);
        let stable = Partition::from_assignment(&[0, 1, 0, 1]);
        assert!(inst.is_consistent_stable(&stable));
        // The trivial partition is not stable (0 reaches the block, 1 does not).
        let trivial = Partition::trivial(4);
        assert!(!inst.is_consistent_stable(&trivial));
    }

    #[test]
    fn stability_oracle_checks_initial_consistency() {
        let mut inst = Instance::new(2, 1);
        inst.set_initial_block(0, 0);
        inst.set_initial_block(1, 1);
        // A coarser partition than the initial one is inconsistent.
        assert!(!inst.is_consistent_stable(&Partition::trivial(2)));
        assert!(inst.is_consistent_stable(&Partition::discrete(2)));
        // Wrong ground set.
        assert!(!inst.is_consistent_stable(&Partition::discrete(3)));
    }
}
