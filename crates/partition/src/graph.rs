//! The flat compressed-sparse-row transition core shared by every solver.
//!
//! A [`LabeledGraph`] stores the `k` labelled relations of a generalized
//! partitioning instance as four contiguous arrays: `succ_targets` /
//! `pred_targets` hold all edge endpoints back to back, and two offset
//! tables of length `k·n + 1` delimit, for every `(label, element)` slot,
//! the half-open range of that element's successor / predecessor list.
//! Compared with the previous `Vec<Vec<Vec<usize>>>` triple indirection this
//! removes two pointer chases per adjacency query and keeps each list —
//! and consecutive lists of the same label — on the same cache lines, which
//! is where the refinement solvers spend almost all of their time.
//!
//! All four arrays are 32-bit: targets are packed [`StateId`]s and offsets
//! are `u32` positions into the target arrays, which halves the resident
//! bytes of the core on 64-bit targets and doubles how many adjacent list
//! entries fit a cache line.  Builders reject ground sets larger than
//! [`crate::ids::MAX_ELEMENTS`] up front
//! ([`GraphBuilder::try_new`] reports [`IdOverflow`] instead of panicking),
//! so no conversion inside the hot paths can truncate.
//!
//! Graphs are built through a [`GraphBuilder`] that records a flat edge
//! list — one edge at a time with [`GraphBuilder::add_edge`] or in bulk with
//! [`GraphBuilder::extend_edges`] — and, at [`GraphBuilder::build`] time,
//! lays out both CSR directions in linear time by counting, with no
//! comparison sort of the edge list:
//!
//! 1. count the edges of every `(label, from)` slot and prefix-sum the
//!    counts into the successor offsets;
//! 2. place each target straight into its slot of `succ_targets`;
//! 3. sort and deduplicate each slot's slice in place (the `fₗ` are
//!    set-valued, so parallel edges carry no information), compacting the
//!    array.  Producers that emit each slot in order, as the weak-relation
//!    stream does, leave nothing to sort;
//! 4. derive the predecessor CSR from the successor CSR by the same
//!    counting, which leaves every predecessor list sorted by source.
//!
//! That is `O(m + k·n)` plus the per-slot sorts, against the `O(m log m)`
//! sort of the whole triple list it replaces.  The recorded edge buffer is
//! consumed, never copied, and freed before the predecessor arrays are
//! allocated.  Recorded edges are packed `(LabelId, StateId, StateId)`
//! triples (12 bytes instead of 24).  The layout also records the maximum
//! fan-out `c = max |fₗ(x)|` so that [`LabeledGraph::max_fanout`] — the
//! parameter of the Kanellakis–Smolka `O(c²·n·log n)` bound — is an `O(1)`
//! field read instead of a rescan.
//!
//! A built graph is not a dead end: [`LabeledGraph::merged_with`] walks the
//! existing CSR, appends the new edges and runs the same layout, which is what makes incremental
//! [`Instance::add_edge`](crate::Instance::add_edge)/solve interleavings
//! cheap — no comparison sort of the full edge list.

use crate::ids::{self, IdOverflow, LabelId, StateId};

/// A packed `(label, from, to)` edge triple; monotonic id packing makes its
/// derived tuple order identical to the index-triple order.
type Edge = (LabelId, StateId, StateId);

/// An immutable flat CSR representation of `k` labelled relations over the
/// ground set `0..n`.
///
/// Successor and predecessor lists are sorted, duplicate-free, and returned
/// as slices of packed [`StateId`]s into contiguous storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabeledGraph {
    num_elements: usize,
    num_labels: usize,
    /// `succ_offsets[label·n + x] .. succ_offsets[label·n + x + 1]` delimits
    /// `fₗ(x)` inside [`LabeledGraph::succ_targets`].
    succ_offsets: Vec<u32>,
    succ_targets: Vec<StateId>,
    /// Same layout for the inverse relations.
    pred_offsets: Vec<u32>,
    pred_targets: Vec<StateId>,
    /// `|E|` after deduplication, summed over all labels.
    num_edges: usize,
    /// `max |fₗ(x)|`, computed once at build time.
    max_fanout: usize,
}

impl LabeledGraph {
    /// An empty graph over `num_elements` elements and `num_labels` labels.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the packed id range (see
    /// [`GraphBuilder::try_new`] for the fallible form).
    #[must_use]
    pub fn empty(num_elements: usize, num_labels: usize) -> Self {
        GraphBuilder::new(num_elements, num_labels).build()
    }

    /// Number of elements `n`.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of labelled relations `k`.
    #[must_use]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of distinct edges `|E|` over all relations.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Maximum fan-out `c = max |fₗ(x)|`; `O(1)`, maintained by the builder.
    #[must_use]
    pub fn max_fanout(&self) -> usize {
        self.max_fanout
    }

    /// Heap bytes held by the four CSR arrays, measured from live container
    /// capacities (allocator slack excluded) — the honest figure behind the
    /// `mem` report table and the server's session byte budgets.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.succ_offsets.capacity() * size_of::<u32>()
            + self.succ_targets.capacity() * size_of::<StateId>()
            + self.pred_offsets.capacity() * size_of::<u32>()
            + self.pred_targets.capacity() * size_of::<StateId>()
    }

    #[inline]
    fn slot(&self, label: usize, element: usize) -> usize {
        debug_assert!(label < self.num_labels && element < self.num_elements);
        label * self.num_elements + element
    }

    /// The successor list `fₗ(x)`, sorted and duplicate-free, as a slice
    /// into the flat target array.
    ///
    /// # Panics
    ///
    /// Panics if `label` or `element` is out of range.
    #[must_use]
    pub fn successors(&self, label: usize, element: usize) -> &[StateId] {
        assert!(label < self.num_labels, "label out of range");
        assert!(element < self.num_elements, "element out of range");
        let s = self.slot(label, element);
        &self.succ_targets[self.succ_offsets[s] as usize..self.succ_offsets[s + 1] as usize]
    }

    /// The predecessor list `{y | x ∈ fₗ(y)}`, sorted and duplicate-free, as
    /// a slice into the flat source array.
    ///
    /// # Panics
    ///
    /// Panics if `label` or `element` is out of range.
    #[must_use]
    pub fn predecessors(&self, label: usize, element: usize) -> &[StateId] {
        &self.pred_targets[self.predecessor_range(label, element)]
    }

    /// The positions of [`LabeledGraph::predecessors`]`(label, element)`
    /// in the flat predecessor array: every edge has one position in
    /// `0..num_edges()`, so solvers can keep per-edge side tables (such as
    /// Paige–Tarjan's count-cell pointers) indexed by it.
    ///
    /// # Panics
    ///
    /// Panics if `label` or `element` is out of range.
    #[must_use]
    pub fn predecessor_range(&self, label: usize, element: usize) -> std::ops::Range<usize> {
        assert!(label < self.num_labels, "label out of range");
        assert!(element < self.num_elements, "element out of range");
        let s = self.slot(label, element);
        self.pred_offsets[s] as usize..self.pred_offsets[s + 1] as usize
    }

    /// Walks the successor CSR as packed edge triples, in the canonical
    /// sorted `(label, from, to)` order — the stream
    /// [`LabeledGraph::merged_with`] relays out with its extra edges.
    fn packed_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let n = self.num_elements;
        // With n == 0 the range is empty, so the divisions below never run.
        (0..self.num_labels * n).flat_map(move |slot| {
            let label = LabelId::from_index(slot / n);
            let from = StateId::from_index(slot % n);
            self.succ_targets
                [self.succ_offsets[slot] as usize..self.succ_offsets[slot + 1] as usize]
                .iter()
                .map(move |&to| (label, from, to))
        })
    }

    /// Iterates over every edge as `(label, from, to)` indices, in sorted
    /// order.  Allocation-free: this widens the packed CSR walk.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.packed_edges()
            .map(|(l, from, to)| (l.index(), from.index(), to.index()))
    }

    /// Returns a new graph containing this graph's edges plus `extra`,
    /// deduplicated: the CSR walk and `extra` go through the counting layout
    /// of [`GraphBuilder::build`], `O(m + p + k·n)` plus sorting the slots
    /// `extra` lands in.
    ///
    /// # Panics
    ///
    /// Panics if any extra edge mentions an out-of-range label or element.
    #[must_use]
    pub fn merged_with(&self, extra: &[(usize, usize, usize)]) -> LabeledGraph {
        let pack = |&(l, from, to): &(usize, usize, usize)| -> Edge {
            assert!(l < self.num_labels, "label out of range");
            assert!(from < self.num_elements, "source element out of range");
            assert!(to < self.num_elements, "target element out of range");
            (
                LabelId::from_index(l),
                StateId::from_index(from),
                StateId::from_index(to),
            )
        };
        let mut edges = Vec::with_capacity(self.num_edges + extra.len());
        edges.extend(self.packed_edges());
        edges.extend(extra.iter().map(pack));
        layout(self.num_elements, self.num_labels, edges)
    }
}

/// Lays out an edge list in any order, duplicates allowed, as a
/// [`LabeledGraph`] by counting (see the module docs): `O(m + k·n)` plus the
/// per-slot sorts.  The one layout routine behind [`GraphBuilder::build`]
/// and [`LabeledGraph::merged_with`]; it consumes `edges` and frees it before the predecessor arrays exist.
fn layout(n: usize, k: usize, edges: Vec<Edge>) -> LabeledGraph {
    // Offsets are u32 positions into the target arrays; the ground-set check
    // bounds n and k but not m, so the edge count gets its own check here.
    let _ = ids::narrow(edges.len());
    let slots = k * n;

    // Successors: per-slot counts, prefix-summed into slot *ends*; walking
    // the edges backwards and decrementing a slot's end before each
    // placement puts every target in recorded order and leaves each offset
    // at its slot's start.
    let mut succ_offsets = vec![0u32; slots + 1];
    for &(l, from, _) in &edges {
        succ_offsets[l.index() * n + from.index()] += 1;
    }
    let mut end = 0u32;
    for offset in &mut succ_offsets {
        end += *offset;
        *offset = end;
    }
    let mut succ_targets = vec![StateId::from_index(0); edges.len()];
    for &(l, from, to) in edges.iter().rev() {
        let s = l.index() * n + from.index();
        succ_offsets[s] -= 1;
        succ_targets[succ_offsets[s] as usize] = to;
    }
    drop(edges);

    // Sort and deduplicate each slot in place, compacting toward the front:
    // slot `s` is read from its old range before its offset is rewritten,
    // and the write cursor never passes the read cursor.
    let mut write = 0usize;
    let mut max_fanout = 0usize;
    for s in 0..slots {
        let (lo, hi) = (succ_offsets[s] as usize, succ_offsets[s + 1] as usize);
        let row = &mut succ_targets[lo..hi];
        if !row.windows(2).all(|w| w[0] < w[1]) {
            row.sort_unstable();
        }
        let start = write;
        for i in lo..hi {
            let to = succ_targets[i];
            if write == start || succ_targets[write - 1] != to {
                succ_targets[write] = to;
                write += 1;
            }
        }
        succ_offsets[s] = ids::narrow(start);
        max_fanout = max_fanout.max(write - start);
    }
    succ_offsets[slots] = ids::narrow(write);
    succ_targets.truncate(write);
    succ_targets.shrink_to_fit();

    // Predecessors from the successor CSR, by the same counting.  Walking
    // the slots backwards fills each predecessor list from its end with
    // descending sources, so every list comes out sorted.
    let mut pred_offsets = vec![0u32; slots + 1];
    for l in 0..k {
        let label_range = succ_offsets[l * n] as usize..succ_offsets[(l + 1) * n] as usize;
        for &to in &succ_targets[label_range] {
            pred_offsets[l * n + to.index()] += 1;
        }
    }
    let mut end = 0u32;
    for offset in &mut pred_offsets {
        end += *offset;
        *offset = end;
    }
    let mut pred_targets = vec![StateId::from_index(0); write];
    for l in (0..k).rev() {
        for from in (0..n).rev() {
            let s = l * n + from;
            let row = succ_offsets[s] as usize..succ_offsets[s + 1] as usize;
            for &to in succ_targets[row].iter().rev() {
                let p = l * n + to.index();
                pred_offsets[p] -= 1;
                pred_targets[pred_offsets[p] as usize] = StateId::from_index(from);
            }
        }
    }

    LabeledGraph {
        num_elements: n,
        num_labels: k,
        succ_offsets,
        num_edges: write,
        succ_targets,
        pred_offsets,
        pred_targets,
        max_fanout,
    }
}

/// Accumulates a flat edge list and lays it out as a [`LabeledGraph`].
///
/// ```
/// use ccs_partition::{GraphBuilder, StateId};
/// let mut b = GraphBuilder::new(3, 1);
/// b.add_edge(0, 0, 2);
/// b.add_edge(0, 0, 1);
/// b.add_edge(0, 0, 2); // duplicate parallel edge: removed at build time
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.successors(0, 0), &[StateId::from_index(1), StateId::from_index(2)]);
/// assert_eq!(g.predecessors(0, 2), &[StateId::from_index(0)]);
/// assert_eq!(g.max_fanout(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphBuilder {
    num_elements: usize,
    num_labels: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over `num_elements` elements and
    /// `num_labels` relations.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the packed id range; use
    /// [`GraphBuilder::try_new`] at ingestion boundaries that must fail
    /// cleanly instead.
    #[must_use]
    pub fn new(num_elements: usize, num_labels: usize) -> Self {
        match GraphBuilder::try_new(num_elements, num_labels) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a builder, reporting an [`IdOverflow`] when the ground set or
    /// label alphabet cannot be addressed by packed 32-bit ids — the checked
    /// ingestion entry point.  Once construction succeeds, no id conversion
    /// in [`GraphBuilder::add_edge`] or [`GraphBuilder::build`] can fail.
    pub fn try_new(num_elements: usize, num_labels: usize) -> Result<Self, IdOverflow> {
        ids::check_ground_set(num_elements)?;
        ids::check_ground_set(num_labels)?;
        Ok(GraphBuilder {
            num_elements,
            num_labels,
            edges: Vec::new(),
        })
    }

    /// Like [`GraphBuilder::new`], pre-allocating room for `edges` edges.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the packed id range.
    #[must_use]
    pub fn with_edge_capacity(num_elements: usize, num_labels: usize, edges: usize) -> Self {
        let mut b = GraphBuilder::new(num_elements, num_labels);
        b.edges.reserve(edges);
        b
    }

    /// Like [`GraphBuilder::try_new`], pre-allocating room for `edges` edges.
    pub fn try_with_edge_capacity(
        num_elements: usize,
        num_labels: usize,
        edges: usize,
    ) -> Result<Self, IdOverflow> {
        let mut b = GraphBuilder::try_new(num_elements, num_labels)?;
        b.edges.reserve(edges);
        Ok(b)
    }

    /// Number of elements `n`.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of labelled relations `k`.
    #[must_use]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of recorded edges, duplicates included (deduplication happens
    /// at [`GraphBuilder::build`] time).
    #[must_use]
    pub fn num_recorded_edges(&self) -> usize {
        self.edges.len()
    }

    /// Reserves room for at least `additional` further edges.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Records `to ∈ fₗ(from)`.
    ///
    /// # Panics
    ///
    /// Panics if `label`, `from` or `to` is out of range.
    pub fn add_edge(&mut self, label: usize, from: usize, to: usize) {
        assert!(label < self.num_labels, "label out of range");
        assert!(from < self.num_elements, "source element out of range");
        assert!(to < self.num_elements, "target element out of range");
        // The range asserts against the checked ground set make these packs
        // infallible.
        self.edges.push((
            LabelId::from_index(label),
            StateId::from_index(from),
            StateId::from_index(to),
        ));
    }

    /// Records a whole batch of `(label, from, to)` edges — the streaming
    /// entry point used by saturation and the incremental `Instance` path,
    /// so edge producers never materialize an intermediate per-element
    /// adjacency structure.
    ///
    /// # Panics
    ///
    /// Panics if any edge mentions an out-of-range label or element.
    pub fn extend_edges<I>(&mut self, edges: I)
    where
        I: IntoIterator<Item = (usize, usize, usize)>,
    {
        let iter = edges.into_iter();
        self.edges.reserve(iter.size_hint().0);
        for (label, from, to) in iter {
            self.add_edge(label, from, to);
        }
    }

    /// Lays out both CSR directions by counting (see the module docs),
    /// deduplicating parallel edges; the recorded edge buffer is consumed.
    #[must_use]
    pub fn build(self) -> LabeledGraph {
        layout(self.num_elements, self.num_labels, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: usize) -> StateId {
        StateId::from_index(i)
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = LabeledGraph::empty(4, 2);
        assert_eq!(g.num_elements(), 4);
        assert_eq!(g.num_labels(), 2);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_fanout(), 0);
        for l in 0..2 {
            for x in 0..4 {
                assert!(g.successors(l, x).is_empty());
                assert!(g.predecessors(l, x).is_empty());
            }
        }
    }

    #[test]
    fn lists_are_sorted_and_deduped() {
        let mut b = GraphBuilder::new(5, 2);
        b.add_edge(1, 3, 0);
        b.add_edge(0, 0, 4);
        b.add_edge(0, 0, 1);
        b.add_edge(0, 0, 4); // duplicate
        b.add_edge(0, 2, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.successors(0, 0), &[s(1), s(4)]);
        assert_eq!(g.successors(1, 3), &[s(0)]);
        assert_eq!(g.predecessors(0, 4), &[s(0), s(2)]);
        assert_eq!(g.predecessors(1, 0), &[s(3)]);
        assert_eq!(g.max_fanout(), 2);
    }

    #[test]
    fn labels_do_not_bleed_into_each_other() {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 1, 0);
        b.add_edge(2, 1, 1);
        let g = b.build();
        assert_eq!(g.successors(0, 1), &[s(2)]);
        assert_eq!(g.successors(1, 1), &[s(0)]);
        assert_eq!(g.successors(2, 1), &[s(1)]);
        assert!(g.successors(0, 0).is_empty());
        assert_eq!(g.predecessors(2, 1), &[s(1)]);
        assert!(g.predecessors(0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn successors_check_label_range() {
        // The flat slot index of an out-of-range label can still fall inside
        // the offset table, so the explicit assert matters.
        let g = LabeledGraph::empty(4, 2);
        let _ = g.successors(2, 0);
    }

    #[test]
    #[should_panic(expected = "element out of range")]
    fn predecessors_check_element_range() {
        let g = LabeledGraph::empty(4, 2);
        let _ = g.predecessors(1, 4);
    }

    #[test]
    #[should_panic(expected = "source element out of range")]
    fn builder_checks_source() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 2, 0);
    }

    #[test]
    fn oversize_ground_sets_are_rejected_cleanly() {
        let err = GraphBuilder::try_new(crate::ids::MAX_ELEMENTS + 1, 1)
            .expect_err("oversize ground set must not build");
        assert_eq!(err.index, crate::ids::MAX_ELEMENTS);
        assert!(GraphBuilder::try_with_edge_capacity(4, usize::MAX, 0).is_err());
        assert!(GraphBuilder::try_new(16, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "exceeds the packed 32-bit id range")]
    fn oversize_ground_sets_panic_on_the_infallible_path() {
        let _ = GraphBuilder::new(crate::ids::MAX_ELEMENTS + 1, 1);
    }

    #[test]
    fn edges_iterates_in_sorted_order() {
        let mut b = GraphBuilder::new(4, 2);
        b.extend_edges([(1, 3, 0), (0, 0, 2), (0, 0, 1), (0, 0, 2)]);
        let g = b.build();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 0, 1), (0, 0, 2), (1, 3, 0)]);
        assert!(LabeledGraph::empty(0, 3).edges().next().is_none());
    }

    #[test]
    fn merged_with_agrees_with_a_full_rebuild() {
        let mut b = GraphBuilder::new(5, 2);
        b.extend_edges([(0, 0, 1), (0, 2, 3), (1, 4, 0)]);
        let base = b.build();
        let extra = [(0, 0, 1), (0, 0, 4), (1, 1, 1), (0, 0, 4), (0, 2, 2)];
        let merged = base.merged_with(&extra);

        let mut full = GraphBuilder::new(5, 2);
        full.extend_edges(base.edges());
        full.extend_edges(extra);
        assert_eq!(merged, full.build());
        assert_eq!(merged.num_edges(), 6); // duplicates collapse
        assert_eq!(merged.successors(0, 0), &[s(1), s(4)]);
        assert_eq!(merged.predecessors(0, 4), &[s(0)]);
        assert_eq!(merged.max_fanout(), 2);
    }

    #[test]
    fn merged_with_empty_batch_is_identity() {
        let mut b = GraphBuilder::new(3, 1);
        b.add_edge(0, 0, 2);
        let g = b.build();
        assert_eq!(g.merged_with(&[]), g);
    }

    #[test]
    #[should_panic(expected = "target element out of range")]
    fn merged_with_checks_ranges() {
        let g = LabeledGraph::empty(2, 1);
        let _ = g.merged_with(&[(0, 0, 2)]);
    }

    #[test]
    fn max_fanout_tracks_the_densest_slot() {
        let mut b = GraphBuilder::with_edge_capacity(6, 2, 8);
        for to in 1..6 {
            b.add_edge(0, 0, to);
        }
        b.add_edge(1, 2, 3);
        assert_eq!(b.num_recorded_edges(), 6);
        let g = b.build();
        assert_eq!(g.max_fanout(), 5);
    }

    #[test]
    fn resident_bytes_reflect_the_packed_layout() {
        let mut b = GraphBuilder::new(8, 1);
        for i in 0..7 {
            b.add_edge(0, i, i + 1);
        }
        let g = b.build();
        // Two offset tables of 9 u32 entries and two target arrays of 7
        // packed ids: all 32-bit.
        assert_eq!(g.resident_bytes(), (9 + 9 + 7 + 7) * 4);
    }
}
