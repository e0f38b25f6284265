//! The Paige–Tarjan relational coarsest partition algorithm (Theorem 3.1),
//! generalized to labelled relations — the solver every `ccs-equiv` session
//! refines with.
//!
//! The algorithm maintains two partitions: the fine partition `Q` (the
//! answer under construction) and a coarser partition `X` whose blocks are
//! unions of `Q`-blocks, with the invariant that `Q` is *stable* with respect
//! to every `X`-block under every relation.  A compound `X`-block `S`
//! (containing at least two `Q`-blocks) is processed by extracting a
//! `Q`-block `B` of size at most `|S|/2` ("process the smaller half") and
//! performing, per relation, a three-way split of every `Q`-block `D`:
//!
//! 1. elements with successors in `B` only,
//! 2. elements with successors in both `B` and `S \ B`,
//! 3. elements with successors in `S \ B` only (or none).
//!
//! Split 3 is computed *without scanning* `S \ B` by keeping, for every
//! element and relation, the count of its successors inside each `X`-block.
//! Every element is scanned only when the half it belongs to is extracted, so
//! each element is scanned `O(log n)` times and the total running time is
//! `O(m log n + n)` (Paige & Tarjan 1987), which the paper combines with
//! Lemma 3.1 to decide strong equivalence within the same bound.
//!
//! # Flat counters
//!
//! The counts live in the textbook layout, with no hashing anywhere in the
//! loop:
//!
//! * one `u32` count cell per live `(label, x, X-block)` triple, in a flat
//!   `Vec<u32>`; a cell that drops to zero goes on a free list and is reused
//!   before the array grows, so live cells never exceed the edge count;
//! * one `u32` cell index per edge, indexed by the edge's position in the
//!   predecessor CSR ([`LabeledGraph::predecessor_range`]): every edge
//!   `x →ₗ y` points at the cell of `(l, x, X-block of y)`;
//! * epoch-stamped per-element scratch (count into `B`, the `S` cell) in
//!   place of per-round maps.
//!
//! `Q` is a refinable partition: elements stored grouped by block in one
//! array, so a split moves the marked elements to the front of their block's
//! range and relabels only the smaller side.  The three-way split is two
//! marking passes over the predecessors of `B`: first everything in
//! `pre(B)`, then the elements whose count into `S` equals their count into
//! `B`.
//!
//! The smaller-half Kanellakis–Smolka variant ([`kanellakis_smolka::refine`])
//! answers the co-fragment question by scanning each predecessor's
//! successors instead, which costs `O(c²)` per element on the high-fan-out
//! weak instances of Theorem 4.1(a); it stays as the paper's exhibit and as
//! an oracle for this kernel.
//!
//! [`LabeledGraph::predecessor_range`]: crate::LabeledGraph::predecessor_range
//! [`kanellakis_smolka::refine`]: crate::kanellakis_smolka::refine

use crate::ids::{self, StateId};
use crate::kanellakis_smolka::initial_fine_partition;
use crate::{Instance, Partition};

/// Runs the Paige–Tarjan algorithm and returns the coarsest consistent
/// stable partition.
#[must_use]
pub fn refine(instance: &Instance) -> Partition {
    refine_counting_cells(instance).0
}

/// [`refine`], also returning the length of the count-cell array, which is
/// the most cells that were ever live at once (freed cells are reused
/// before the array grows).
fn refine_counting_cells(instance: &Instance) -> (Partition, usize) {
    let n = instance.num_elements();
    if n == 0 {
        return (Partition::from_assignment::<usize>(&[]), 0);
    }
    let num_labels = instance.num_labels();
    // Hoist the CSR view out of the hot loops.
    let graph = instance.graph();
    // The edges into `y` under `label`, as (position in the predecessor
    // CSR, source): the position indexes the per-edge cell table.
    let edges_into = |label: usize, y: usize| {
        graph
            .predecessor_range(label, y)
            .zip(graph.predecessors(label, y).iter().map(|x| x.index()))
    };

    // --- Q: the initial partition refined by the per-label "has a
    // successor" signature, so that Q is stable with respect to the single
    // initial X-block (the whole set).
    let (block_of, blocks) = initial_fine_partition(instance, graph);
    let mut q = Blocks::new(block_of, &blocks);

    // --- X: initially one block containing every Q-block.
    let mut x_of_q: Vec<u32> = vec![0; blocks.len()];
    let mut x_blocks: Vec<Vec<u32>> = vec![(0..ids::narrow(blocks.len())).collect()];
    drop(blocks);
    let mut worklist: Vec<u32> = Vec::new();
    let mut on_worklist: Vec<bool> = vec![false];
    if x_blocks[0].len() >= 2 {
        worklist.push(0);
        on_worklist[0] = true;
    }

    // --- Counters: with X = {U}, the cell of (l, x, U) holds |fₗ(x)|, and
    // every edge x →ₗ y points at it.
    let mut cell_of: Vec<u32> = vec![0; graph.num_edges()];
    let mut counts: Vec<u32> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    {
        let mut cell_of_source = vec![0u32; n];
        for l in 0..num_labels {
            for (x, cell) in cell_of_source.iter_mut().enumerate() {
                let d = graph.successors(l, x).len();
                if d > 0 {
                    *cell = ids::narrow(counts.len());
                    counts.push(ids::narrow(d));
                }
            }
            for y in 0..n {
                for (e, x) in edges_into(l, y) {
                    cell_of[e] = cell_of_source[x];
                }
            }
        }
    }

    // --- Per-round scratch, valid where `stamp[x] == epoch`: the number of
    // x's edges into B, and the cell of (l, x, S) — replaced by the cell of
    // (l, x, B's new X-block) once the counts are moved.
    let mut stamp: Vec<u32> = vec![0; n];
    let mut epoch: u32 = 0;
    let mut into_b: Vec<u32> = vec![0; n];
    let mut cell: Vec<u32> = vec![0; n];
    let mut pre_b: Vec<StateId> = Vec::new();
    let mut splitter: Vec<StateId> = Vec::new();
    let mut splits: Vec<(u32, u32)> = Vec::new();

    while let Some(s) = worklist.pop() {
        on_worklist[s as usize] = false;
        if x_blocks[s as usize].len() < 2 {
            continue;
        }
        // Choose B: the smaller of the first two Q-blocks of S.
        let (pos, b) = {
            let q0 = x_blocks[s as usize][0];
            let q1 = x_blocks[s as usize][1];
            if q.len(q0) <= q.len(q1) {
                (0, q0)
            } else {
                (1, q1)
            }
        };
        // Extract B from S into a fresh X-block.
        x_blocks[s as usize].swap_remove(pos);
        let xb = ids::narrow(x_blocks.len());
        x_blocks.push(vec![b]);
        on_worklist.push(false);
        x_of_q[b as usize] = xb;
        if x_blocks[s as usize].len() >= 2 && !on_worklist[s as usize] {
            on_worklist[s as usize] = true;
            worklist.push(s);
        }

        // Snapshot: the splits below may refine B itself.
        splitter.clear();
        splitter.extend_from_slice(q.elements(b));
        for label in 0..num_labels {
            epoch = epoch.wrapping_add(1);
            if epoch == 0 {
                stamp.fill(0);
                epoch = 1;
            }
            // Count, for every predecessor x of B under `label`, its edges
            // into B, and remember the (label, x, S) cell those edges share.
            pre_b.clear();
            for &y in &splitter {
                for (e, x) in edges_into(label, y.index()) {
                    if stamp[x] != epoch {
                        stamp[x] = epoch;
                        into_b[x] = 0;
                        cell[x] = cell_of[e];
                        pre_b.push(StateId::from_index(x));
                    }
                    into_b[x] += 1;
                }
            }
            if pre_b.is_empty() {
                continue;
            }
            // Three-way split: first by pre(B), then the elements whose
            // every edge into S lands in B.  Elements outside pre(B) are
            // never touched — that is the point of the counters.
            for &x in &pre_b {
                q.mark(x);
            }
            q.split_marked(&mut splits);
            for &x in &pre_b {
                if counts[cell[x.index()] as usize] == into_b[x.index()] {
                    q.mark(x);
                }
            }
            q.split_marked(&mut splits);
            for (old, new) in splits.drain(..) {
                // The new Q-block joins its sibling's X-block, which is
                // now compound.
                let home = x_of_q[old as usize];
                debug_assert_eq!(x_of_q.len(), new as usize, "splits drain in id order");
                x_of_q.push(home);
                x_blocks[home as usize].push(new);
                if !on_worklist[home as usize] {
                    on_worklist[home as usize] = true;
                    worklist.push(home);
                }
            }
            // Move the counts: edges into B now count toward the new
            // X-block, and the counts toward S shrink accordingly.
            for &x in &pre_b {
                let x = x.index();
                let old = cell[x] as usize;
                counts[old] -= into_b[x];
                if counts[old] == 0 {
                    free.push(ids::narrow(old));
                }
                cell[x] = if let Some(c) = free.pop() {
                    counts[c as usize] = into_b[x];
                    c
                } else {
                    counts.push(into_b[x]);
                    ids::narrow(counts.len() - 1)
                };
            }
            for &y in &splitter {
                for (e, x) in edges_into(label, y.index()) {
                    cell_of[e] = cell[x];
                }
            }
        }
    }

    (Partition::from_assignment(&q.block_of), counts.len())
}

/// The refinable fine partition `Q`: elements grouped by block in one array,
/// each block a range `start..end` of it whose prefix `start..marked` holds
/// the elements marked for the next split.
#[derive(Debug)]
struct Blocks {
    elems: Vec<StateId>,
    /// `elems[loc[x]] == x`.
    loc: Vec<u32>,
    block_of: Vec<u32>,
    start: Vec<u32>,
    end: Vec<u32>,
    marked: Vec<u32>,
    /// Blocks with at least one marked element.
    touched: Vec<u32>,
}

impl Blocks {
    fn new(block_of: Vec<u32>, blocks: &[Vec<StateId>]) -> Self {
        let mut elems = Vec::with_capacity(block_of.len());
        let mut loc = vec![0u32; block_of.len()];
        let (mut start, mut end) = (Vec::new(), Vec::new());
        for members in blocks {
            start.push(ids::narrow(elems.len()));
            for &x in members {
                loc[x.index()] = ids::narrow(elems.len());
                elems.push(x);
            }
            end.push(ids::narrow(elems.len()));
        }
        Blocks {
            elems,
            loc,
            block_of,
            marked: start.clone(),
            start,
            end,
            touched: Vec::new(),
        }
    }

    fn len(&self, b: u32) -> u32 {
        self.end[b as usize] - self.start[b as usize]
    }

    fn elements(&self, b: u32) -> &[StateId] {
        &self.elems[self.start[b as usize] as usize..self.end[b as usize] as usize]
    }

    /// Marks `x` (idempotent) by swapping it into its block's marked prefix.
    fn mark(&mut self, x: StateId) {
        let b = self.block_of[x.index()] as usize;
        let pos = self.loc[x.index()];
        let m = self.marked[b];
        if pos < m {
            return;
        }
        if m == self.start[b] {
            self.touched.push(ids::narrow(b));
        }
        let other = self.elems[m as usize];
        self.elems.swap(pos as usize, m as usize);
        self.loc[other.index()] = pos;
        self.loc[x.index()] = m;
        self.marked[b] = m + 1;
    }

    /// Splits every touched block into its marked and unmarked parts,
    /// clearing the marks.  The smaller part becomes the new block, so only
    /// it is relabelled; each `(old, new)` pair is appended to `splits`.
    fn split_marked(&mut self, splits: &mut Vec<(u32, u32)>) {
        for b in std::mem::take(&mut self.touched) {
            let bi = b as usize;
            let (s, m, e) = (self.start[bi], self.marked[bi], self.end[bi]);
            self.marked[bi] = s;
            if m == e {
                continue;
            }
            let new = ids::narrow(self.start.len());
            let (lo, hi) = if m - s <= e - m {
                self.start[bi] = m;
                self.marked[bi] = m;
                (s, m)
            } else {
                self.end[bi] = m;
                (m, e)
            };
            for &x in &self.elems[lo as usize..hi as usize] {
                self.block_of[x.index()] = new;
            }
            self.start.push(lo);
            self.end.push(hi);
            self.marked.push(lo);
            splits.push((b, new));
        }
    }
}

#[cfg(test)]
// Test RNG draws narrow by `as` on purpose; the lint guards library code.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::{kanellakis_smolka, naive};

    fn cross_check(inst: &Instance) -> Partition {
        let (pt, cells) = refine_counting_cells(inst);
        assert!(
            cells <= inst.num_edges() + inst.num_labels() * inst.num_elements(),
            "{cells} count cells outlive the m + k·n bound"
        );
        // Each live cell has at least one edge pointing at it.
        assert!(cells <= inst.num_edges());
        let ks = kanellakis_smolka::refine(inst);
        let nv = naive::refine(inst);
        assert_eq!(pt, ks, "paige-tarjan vs kanellakis-smolka");
        assert_eq!(pt, nv, "paige-tarjan vs naive");
        assert!(inst.is_consistent_stable(&pt));
        pt
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(0, 1);
        assert_eq!(refine(&inst).num_elements(), 0);
    }

    #[test]
    fn singleton_without_edges() {
        let inst = Instance::new(1, 1);
        assert_eq!(refine(&inst).num_blocks(), 1);
    }

    #[test]
    fn chain_is_fully_discriminated() {
        let mut inst = Instance::new(8, 1);
        for i in 0..7 {
            inst.add_edge(0, i, i + 1);
        }
        assert_eq!(cross_check(&inst).num_blocks(), 8);
    }

    #[test]
    fn parallel_cycles_collapse() {
        let mut inst = Instance::new(6, 1);
        for base in [0, 3] {
            inst.add_edge(0, base, base + 1);
            inst.add_edge(0, base + 1, base + 2);
            inst.add_edge(0, base + 2, base);
        }
        assert_eq!(cross_check(&inst).num_blocks(), 1);
    }

    #[test]
    fn initial_partition_is_respected() {
        let mut inst = Instance::new(6, 1);
        for base in [0, 3] {
            inst.add_edge(0, base, base + 1);
            inst.add_edge(0, base + 1, base + 2);
            inst.add_edge(0, base + 2, base);
        }
        inst.set_initial_block(4, 1);
        let p = cross_check(&inst);
        // Breaking the symmetry of one cycle separates everything in it, and
        // the blocks of the two cycles can no longer be merged.
        assert!(p.num_blocks() > 1);
        assert!(!p.same_block(1, 4));
    }

    #[test]
    fn multi_label_and_nondeterminism() {
        let mut inst = Instance::new(7, 2);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(1, 1, 3);
        inst.add_edge(1, 2, 4);
        inst.add_edge(0, 5, 1);
        inst.add_edge(0, 5, 2);
        inst.add_edge(0, 6, 2);
        let p = cross_check(&inst);
        // 1 and 2 are equivalent (both have a single `1`-labelled edge to a
        // dead element), so 0, 5 and 6 all reach the same set of blocks.
        assert!(p.same_block(1, 2));
        assert!(p.same_block(0, 5));
        assert!(p.same_block(0, 6));
    }

    #[test]
    fn counts_matter_for_stability_not_equivalence() {
        // 0 has two edges into the cycle {2,3}, 1 has one: still equivalent,
        // since only non-emptiness of fₗ(a) ∩ E_j matters.
        let mut inst = Instance::new(4, 1);
        inst.add_edge(0, 0, 2);
        inst.add_edge(0, 0, 3);
        inst.add_edge(0, 1, 2);
        inst.add_edge(0, 2, 3);
        inst.add_edge(0, 3, 2);
        let p = cross_check(&inst);
        assert!(p.same_block(0, 1));
    }

    #[test]
    fn live_count_cells_stay_within_m_plus_kn() {
        // High fan-out, as in a saturated weak instance: every element of a
        // layered DAG reaches everything below it, under two labels, so
        // splitters keep carving counts out of shared cells.
        let n = 48;
        let mut inst = Instance::new(n, 2);
        for x in 0..n {
            for y in x + 1..n {
                inst.add_edge(0, x, y);
                if (x + y) % 3 == 0 {
                    inst.add_edge(1, x, y);
                }
            }
        }
        let (p, cells) = refine_counting_cells(&inst);
        assert!(cells > 0);
        assert!(cells <= inst.num_edges() + inst.num_labels() * n);
        assert_eq!(p, cross_check(&inst));
    }

    #[test]
    fn random_instances_agree_with_reference_algorithms() {
        // Deterministic pseudo-random instances (linear congruential) so the
        // test needs no external dependency.
        let mut seed: u64 = 0x2545F491_4F6CDD1D;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..25 {
            let n = 2 + (next() % 14) as usize;
            let labels = 1 + (next() % 3) as usize;
            let edges = (next() % (3 * n as u64)) as usize;
            let mut inst = Instance::new(n, labels);
            for _ in 0..edges {
                let l = (next() % labels as u64) as usize;
                let from = (next() % n as u64) as usize;
                let to = (next() % n as u64) as usize;
                inst.add_edge(l, from, to);
            }
            if case % 3 == 0 {
                // Sometimes impose a non-trivial initial partition.
                for x in 0..n {
                    inst.set_initial_block(x, x % 2);
                }
            }
            cross_check(&inst);
        }
    }
}
