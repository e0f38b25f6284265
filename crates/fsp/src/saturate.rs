//! The weak (double-arrow) transition relation `⇒` and τ-saturation.
//!
//! Observational equivalence is reduced to strong equivalence by *saturating*
//! a process (Theorem 4.1(a)): for a general FSP `P` one computes the
//! observable FSP `P̂` over the alphabet `Σ ∪ {ε}` whose transitions are the
//! weak transitions of `P`:
//!
//! * `p ⇒ε q` iff `q` is reachable from `p` by zero or more τ-moves,
//! * `p ⇒a q` (for `a ∈ Σ`) iff there exist `p′, p″` with
//!   `p ⇒ε p′ →a p″ ⇒ε q`.
//!
//! Then `p ≈ q` in `P` iff `p ~ q` in `P̂` (Proposition 2.2.1(c) plus
//! Lemma 3.1).
//!
//! The closure here is computed by a breadth-first search from every state
//! (`O(n·(n + m))`), which matches the paper's polynomial bound with better
//! constants on sparse graphs than the adjacency-matrix formulation; the
//! matrix variant is provided as [`tau_closure_matrix`] for cross-checking.
//!
//! The weak relation itself is exposed three ways, from cheapest to most
//! convenient: [`weak_edges`] streams it edge by edge (for consumers that
//! lay it out themselves, e.g. a partition-refinement graph builder),
//! [`SaturatedView`] lays it out once as a flat CSR with slice access per
//! `(state, action)` column, and [`saturate`] materializes the classical
//! saturated process `P̂` as a second [`Fsp`] (the compatibility path).

use std::collections::VecDeque;

use crate::label::{ActionId, Label};
use crate::process::{Fsp, StateData, Transition};
use crate::state::StateId;
use crate::EPSILON_ACTION;

/// The reflexive–transitive closure of the τ-transition relation.
///
/// `closure.successors(p)` is the sorted set `{q | p ⇒ε q}`; it always
/// contains `p` itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TauClosure {
    succ: Vec<Vec<StateId>>,
}

impl TauClosure {
    /// The sorted ε-successor set of `state` (always contains `state`).
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to the process the closure was
    /// computed from.
    #[must_use]
    pub fn successors(&self, state: StateId) -> &[StateId] {
        &self.succ[state.index()]
    }

    /// Returns `true` iff `to` is reachable from `from` via τ-moves only.
    #[must_use]
    pub fn reaches(&self, from: StateId, to: StateId) -> bool {
        self.succ[from.index()].binary_search(&to).is_ok()
    }

    /// Number of states the closure was computed over.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.succ.len()
    }

    /// Total number of `(p, q)` pairs with `p ⇒ε q` (including reflexive
    /// pairs).
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Heap bytes held by the closure, measured from live container
    /// capacities (allocator slack and per-allocation headers excluded).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.succ.capacity() * std::mem::size_of::<Vec<StateId>>()
            + self
                .succ
                .iter()
                .map(|row| row.capacity() * std::mem::size_of::<StateId>())
                .sum::<usize>()
    }
}

/// Computes the reflexive–transitive τ-closure by one BFS per state.
#[must_use]
pub fn tau_closure(fsp: &Fsp) -> TauClosure {
    let n = fsp.num_states();
    let mut succ = Vec::with_capacity(n);
    let mut seen = vec![usize::MAX; n];
    for s in 0..n {
        let mut out = Vec::new();
        let mut queue = VecDeque::new();
        seen[s] = s;
        queue.push_back(StateId::from_index(s));
        while let Some(p) = queue.pop_front() {
            out.push(p);
            for t in fsp.transitions(p) {
                if t.label.is_tau() && seen[t.target.index()] != s {
                    seen[t.target.index()] = s;
                    queue.push_back(t.target);
                }
            }
        }
        out.sort_unstable();
        succ.push(out);
    }
    TauClosure { succ }
}

/// Computes the reflexive–transitive τ-closure as a boolean reachability
/// matrix using the Floyd–Warshall scheme, mirroring the paper's
/// matrix-product formulation.  Intended for cross-checking [`tau_closure`];
/// costs `O(n³)` time and `O(n²)` space.
#[must_use]
pub fn tau_closure_matrix(fsp: &Fsp) -> Vec<Vec<bool>> {
    let n = fsp.num_states();
    let mut reach = vec![vec![false; n]; n];
    for (i, row) in reach.iter_mut().enumerate() {
        row[i] = true;
    }
    for (from, label, to) in fsp.all_transitions() {
        if label.is_tau() {
            reach[from.index()][to.index()] = true;
        }
    }
    for k in 0..n {
        let via_k = reach[k].clone();
        for row in &mut reach {
            if row[k] {
                row.iter_mut().zip(&via_k).for_each(|(r, &v)| *r |= v);
            }
        }
    }
    reach
}

/// The weak `a`-successor set `{q | p ⇒a q}` for an observable action `a`.
///
/// Returned sorted and duplicate-free.  A one-column run of [`WeakRows`];
/// callers that need many columns should keep a [`WeakRows`] instead.
#[must_use]
pub fn weak_action_successors(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    action: ActionId,
) -> Vec<StateId> {
    let mut rows = WeakRows::new();
    rows.fill(fsp, closure, p, Some(action));
    std::mem::take(&mut rows.columns[0])
}

/// The one routine every weak row is built by: [`weak_edges`],
/// [`SaturatedView::build`], [`SaturatedView::patched`] and
/// [`weak_action_successors`] all call it.
///
/// The row of `p` is computed in one walk over the observable transitions
/// of `p`'s τ-closure: for every `p′ ∈ ⇒ε(p)` and `p′ →a p″`, the closure of
/// `p″` is added to column `a`.  Each column is a bitset of `n` bits, so
/// duplicates cost nothing, plus the list of its words that went nonzero.
/// Emitting a column sorts only that word list (at most `n/64` entries,
/// usually far fewer than the column's targets) and reads the set bits out
/// in order, clearing them as it goes, so the row's cost is the closure walk
/// plus its output, with no per-target sort and no `O(n)` scan.  A `p″` whose
/// bit is already set in column `a` is skipped whole: it was set while some
/// closure containing it was walked in full, and that closure contains
/// `p″`'s closure too.
///
/// The scratch (bitsets, word lists and column buffers) is reused from row
/// to row; the first row over an `n`-state process pays the one
/// `n·|Σ|`-bit allocation.
#[derive(Debug, Default)]
pub struct WeakRows {
    /// Column `c` occupies words `c·w .. (c+1)·w`, `w = ⌈n/64⌉`.  All zero
    /// between rows.
    bits: Vec<u64>,
    /// Per column, the indices of the words that went nonzero in this row.
    touched: Vec<Vec<u32>>,
    /// Per column, the emitted targets of the last row.
    columns: Vec<Vec<StateId>>,
}

impl WeakRows {
    /// Empty scratch; it sizes itself on the first row.
    #[must_use]
    pub fn new() -> Self {
        WeakRows::default()
    }

    /// The observable weak row of `p`: entry `a` is `{q | p ⇒a q}`, sorted
    /// and duplicate-free, for every action `a` of `fsp` in index order.
    /// The ε column is `closure.successors(p)` and is not repeated here.
    ///
    /// The returned columns live in the scratch and are overwritten by the
    /// next call.
    pub fn row(&mut self, fsp: &Fsp, closure: &TauClosure, p: StateId) -> &[Vec<StateId>] {
        self.fill(fsp, closure, p, None);
        &self.columns
    }

    /// Fills the columns of `p`'s row: all of `Σ`, or the single column of
    /// `only`.
    fn fill(&mut self, fsp: &Fsp, closure: &TauClosure, p: StateId, only: Option<ActionId>) {
        let words = fsp.num_states().div_ceil(64);
        let width = if only.is_some() { 1 } else { fsp.num_actions() };
        self.columns.resize_with(width, Vec::new);
        self.touched.resize_with(width, Vec::new);
        if self.bits.len() < width * words {
            self.bits.resize(width * words, 0);
        }
        let base = only.map_or(0, ActionId::index);
        for &p1 in closure.successors(p) {
            let moves = match only {
                Some(a) => fsp.labelled(p1, Label::Act(a)),
                None => fsp.observable(p1),
            };
            for t in moves {
                let c = t.label.action().map_or(0, ActionId::index) - base;
                let bits = &mut self.bits[c * words..(c + 1) * words];
                let x = t.target.index();
                if bits[x / 64] & (1 << (x % 64)) != 0 {
                    continue;
                }
                let touched = &mut self.touched[c];
                for &q in closure.successors(t.target) {
                    let q = q.index();
                    let word = &mut bits[q / 64];
                    if *word == 0 {
                        touched.push(q as u32 / 64);
                    }
                    *word |= 1 << (q % 64);
                }
            }
        }
        let columns = self.columns.iter_mut().zip(&mut self.touched);
        for (c, (column, touched)) in columns.enumerate() {
            column.clear();
            touched.sort_unstable();
            let bits = &mut self.bits[c * words..(c + 1) * words];
            for &w in touched.iter() {
                let mut word = std::mem::take(&mut bits[w as usize]);
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    column.push(StateId::from_index(w as usize * 64 + bit));
                    word &= word - 1;
                }
            }
            touched.clear();
        }
    }
}

/// The set of observable actions weakly enabled at `p`: actions `a` such that
/// `p ⇒a q` for some `q`.  Used by the failures semantics (Section 5), where
/// `¬(p ⇒a)` contributes `a` to a refusal set.
#[must_use]
pub fn weakly_enabled_actions(fsp: &Fsp, closure: &TauClosure, p: StateId) -> Vec<ActionId> {
    let mut out = Vec::new();
    for a in fsp.action_ids() {
        let enabled = closure
            .successors(p)
            .iter()
            .any(|&p1| fsp.successors(p1, Label::Act(a)).next().is_some());
        if enabled {
            out.push(a);
        }
    }
    out
}

/// One edge of the weak transition relation `⇒` over `Σ ∪ {ε}`.
///
/// Produced by [`weak_edges`]; `action == None` is the ε column
/// (`from ⇒ε to`), `action == Some(a)` the observable column
/// (`from ⇒a to`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeakEdge {
    /// The source state `p`.
    pub from: StateId,
    /// `None` for `⇒ε`, `Some(a)` for `⇒a`.
    pub action: Option<ActionId>,
    /// The target state `q`.
    pub to: StateId,
}

/// Streams the weak transition relation of Theorem 4.1(a) edge by edge,
/// without materializing a saturated process.
///
/// Edges come out grouped by source state (ascending); within one state the
/// observable columns appear in action order followed by the ε column, and
/// each column's targets are sorted and duplicate-free.  Consumers that lay
/// the edges out (a downstream graph builder, or the materialized
/// [`saturate`]) can therefore append in a single pass.  Rows are built one
/// source state at a time by [`WeakRows`].
#[must_use]
pub fn weak_edges<'a>(fsp: &'a Fsp, closure: &'a TauClosure) -> WeakEdges<'a> {
    let mut rows = WeakRows::new();
    if fsp.num_states() > 0 {
        rows.fill(fsp, closure, StateId::from_index(0), None);
    }
    WeakEdges {
        fsp,
        closure,
        rows,
        state: 0,
        column: 0,
        pos: 0,
    }
}

/// Iterator over the weak transition relation; see [`weak_edges`].
#[derive(Debug)]
pub struct WeakEdges<'a> {
    fsp: &'a Fsp,
    closure: &'a TauClosure,
    /// The current source state's row — the only transient storage on this
    /// path.
    rows: WeakRows,
    /// Cursor: source state, column (`|Σ|` is ε) and position in it.
    state: usize,
    column: usize,
    pos: usize,
}

impl Iterator for WeakEdges<'_> {
    type Item = WeakEdge;

    fn next(&mut self) -> Option<WeakEdge> {
        let k = self.fsp.num_actions();
        while self.state < self.fsp.num_states() {
            let from = StateId::from_index(self.state);
            let targets = if self.column < k {
                &self.rows.columns[self.column][..]
            } else {
                self.closure.successors(from)
            };
            if let Some(&to) = targets.get(self.pos) {
                self.pos += 1;
                let action = (self.column < k).then(|| ActionId::from_index(self.column));
                return Some(WeakEdge { from, action, to });
            }
            self.pos = 0;
            self.column += 1;
            if self.column > k {
                self.column = 0;
                self.state += 1;
                if self.state < self.fsp.num_states() {
                    let p = StateId::from_index(self.state);
                    self.rows.fill(self.fsp, self.closure, p, None);
                }
            }
        }
        None
    }
}

/// A CSR-backed read-only view of the saturated (weak) transition relation:
/// the `P̂` of Theorem 4.1(a) laid out as flat slices instead of a second
/// [`Fsp`].
///
/// For every `(state, column)` pair — the columns are the observable actions
/// of the underlying process plus ε — the sorted, duplicate-free weak
/// successor set is a slice into one contiguous target array.  This is what
/// the equivalence checkers iterate when they repeatedly need
/// `{q | p ⇒σ q}`: one `O(1)` slice lookup replaces a closure walk per
/// query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaturatedView {
    num_states: usize,
    num_actions: usize,
    /// `offsets[p·(|Σ|+1) + c] .. offsets[p·(|Σ|+1) + c + 1]` delimits the
    /// targets of column `c` at state `p`; column `|Σ|` is ε.  Stored as
    /// `u32` — the weak relation of any process this crate can hold stays
    /// far below 2³² edges, and the offset table is one of the largest
    /// resident structures of a session.
    offsets: Vec<u32>,
    targets: Vec<StateId>,
}

impl SaturatedView {
    /// Lays out the weak transition relation of `fsp`, one [`WeakRows`]
    /// row per state.
    #[must_use]
    pub fn build(fsp: &Fsp, closure: &TauClosure) -> Self {
        SaturatedView::assemble(fsp, closure, None)
    }

    /// Lays out every row of `fsp` in state order: copied from `old` where
    /// its dirty flag is clear, built by [`WeakRows`] otherwise.
    fn assemble(fsp: &Fsp, closure: &TauClosure, old: Option<(&SaturatedView, &[bool])>) -> Self {
        let n = fsp.num_states();
        let k = fsp.num_actions();
        let narrow = |len: usize| {
            u32::try_from(len).expect("weak edge count exceeds the 32-bit offset range")
        };
        let mut offsets = Vec::with_capacity(n * (k + 1) + 1);
        offsets.push(0u32);
        let mut targets: Vec<StateId> =
            Vec::with_capacity(old.map_or(0, |(view, _)| view.targets.len()));
        let mut rows = WeakRows::new();
        for sid in fsp.state_ids() {
            match old {
                Some((view, dirty)) if !dirty[sid.index()] => {
                    for c in 0..=k {
                        targets.extend_from_slice(view.column(sid, c));
                        offsets.push(narrow(targets.len()));
                    }
                }
                _ => {
                    for column in rows.row(fsp, closure, sid) {
                        targets.extend_from_slice(column);
                        offsets.push(narrow(targets.len()));
                    }
                    targets.extend_from_slice(closure.successors(sid));
                    offsets.push(narrow(targets.len()));
                }
            }
        }
        SaturatedView {
            num_states: n,
            num_actions: k,
            offsets,
            targets,
        }
    }

    /// Number of states (identical to the underlying process).
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of observable actions `|Σ|` (the ε column is extra).
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Total number of weak edges over all columns.
    #[must_use]
    pub fn num_weak_edges(&self) -> usize {
        self.targets.len()
    }

    /// Heap bytes held by the CSR view (offset table plus target array),
    /// measured from live container capacities.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<StateId>()
    }

    #[inline]
    fn column(&self, p: StateId, col: usize) -> &[StateId] {
        let slot = p.index() * (self.num_actions + 1) + col;
        &self.targets[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// The weak successor set `{q | p ⇒a q}`, sorted and duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `action` is out of range.
    #[must_use]
    pub fn successors(&self, p: StateId, action: ActionId) -> &[StateId] {
        assert!(action.index() < self.num_actions, "action out of range");
        assert!(p.index() < self.num_states, "state out of range");
        self.column(p, action.index())
    }

    /// The ε column `{q | p ⇒ε q}` — the τ-closure of `p`, always containing
    /// `p` itself.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn epsilon_successors(&self, p: StateId) -> &[StateId] {
        assert!(p.index() < self.num_states, "state out of range");
        self.column(p, self.num_actions)
    }

    /// The observable actions weakly enabled at `p` (`∃q: p ⇒a q`), in
    /// action order — the refusal-set complement of the failures semantics,
    /// answered by `|Σ|` slice-emptiness checks.
    pub fn weakly_enabled(&self, p: StateId) -> impl Iterator<Item = ActionId> + '_ {
        (0..self.num_actions)
            .filter(move |&c| !self.column(p, c).is_empty())
            .map(ActionId::from_index)
    }

    /// Re-lays the view with the rows of `dirty` states recomputed from the
    /// (already mutated) process and its (still valid) τ-closure, copying
    /// every clean row's slices verbatim — the mutation-path alternative to
    /// a full [`SaturatedView::build`] when an edge batch only perturbed a
    /// few states' weak successor sets.
    ///
    /// The caller owns the soundness obligation: `dirty` must cover every
    /// state whose weak successors could have changed (for a τ-free batch,
    /// the backward τ-closure of the delta sources).  `fsp` and `closure`
    /// must describe the same state and action alphabet the view was built
    /// over.
    ///
    /// # Panics
    ///
    /// Panics if the process shape diverges from the view or a dirty state
    /// is out of range.
    #[must_use]
    pub fn patched(&self, fsp: &Fsp, closure: &TauClosure, dirty: &[StateId]) -> SaturatedView {
        assert_eq!(fsp.num_states(), self.num_states, "state count diverged");
        assert_eq!(fsp.num_actions(), self.num_actions, "action count diverged");
        let mut is_dirty = vec![false; self.num_states];
        for &p in dirty {
            is_dirty[p.index()] = true;
        }
        SaturatedView::assemble(fsp, closure, Some((self, &is_dirty)))
    }
}

/// A τ-saturated process: the observable FSP `P̂` over `Σ ∪ {ε}` of
/// Theorem 4.1(a), plus bookkeeping to identify the ε column.
#[derive(Clone, Debug)]
pub struct Saturated {
    /// The saturated process (observable; one extra action named
    /// [`EPSILON_ACTION`]).
    pub fsp: Fsp,
    /// The action identifier of `ε` inside [`Saturated::fsp`].
    pub epsilon: ActionId,
}

/// Saturates a process: computes `P̂` with transitions `p ⇒σ q` for
/// `σ ∈ Σ ∪ {ε}`.
///
/// State identifiers, names and extension sets are preserved, so a state of
/// the original process denotes the same state in the saturated one.
///
/// The size of the saturated transition relation is `O(n²·|Σ|)` in the worst
/// case (the paper bounds it by `O(n²·m)` using per-symbol matrices).
///
/// This materializes a full second [`Fsp`] and is kept as the compatibility
/// path; consumers that only need slice access to the weak successor sets
/// should prefer [`SaturatedView`], and consumers that stream the relation
/// elsewhere (e.g. into a partition-refinement instance) should consume
/// [`weak_edges`] directly.
#[must_use]
pub fn saturate(fsp: &Fsp) -> Saturated {
    let closure = tau_closure(fsp);
    saturate_with_closure(fsp, &closure)
}

/// Like [`saturate`], reusing an already-computed τ-closure.  A thin wrapper
/// that collects [`weak_edges`] into process form.
#[must_use]
pub fn saturate_with_closure(fsp: &Fsp, closure: &TauClosure) -> Saturated {
    let mut actions = fsp_actions_clone(fsp);
    let eps_raw = actions.intern(EPSILON_ACTION);
    let epsilon = ActionId::from_index(eps_raw as usize);
    let mut states: Vec<StateData> = fsp
        .state_ids()
        .map(|p| StateData {
            name: fsp.state_name(p).map(str::to_owned),
            extensions: fsp.extensions(p).clone(),
            transitions: Vec::new(),
        })
        .collect();
    for edge in weak_edges(fsp, closure) {
        states[edge.from.index()].transitions.push(Transition {
            label: Label::Act(edge.action.unwrap_or(epsilon)),
            target: edge.to,
        });
    }
    let sat = Fsp::from_parts(
        format!("{}^sat", fsp.name()),
        fsp.start(),
        states,
        actions,
        fsp_vars_clone(fsp),
    );
    Saturated { fsp: sat, epsilon }
}

fn fsp_actions_clone(fsp: &Fsp) -> crate::interner::Interner {
    fsp.actions.clone()
}

fn fsp_vars_clone(fsp: &Fsp) -> crate::interner::Interner {
    fsp.vars.clone()
}

/// Computes, for every state, its weak `s`-derivative set for a string `s`
/// of observable actions: `{q | p ⇒s q}` (Definition in Section 2.1).
///
/// The empty string yields the ε-closure of `p`.
#[must_use]
pub fn weak_string_derivatives(
    fsp: &Fsp,
    closure: &TauClosure,
    p: StateId,
    s: &[ActionId],
) -> Vec<StateId> {
    let mut current: Vec<StateId> = closure.successors(p).to_vec();
    for &a in s {
        let mut next = Vec::new();
        for &q in &current {
            // q ⇒ε is already folded into `current`; we need q →a r ⇒ε.
            for r in fsp.successors(q, Label::Act(a)) {
                next.extend_from_slice(closure.successors(r));
            }
        }
        next.sort_unstable();
        next.dedup();
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fsp;

    /// p --tau--> q --a--> r --tau--> s,  p --b--> t
    fn sample() -> Fsp {
        let mut b = Fsp::builder("sat-sample");
        b.transition("p", "tau", "q");
        b.transition("q", "a", "r");
        b.transition("r", "tau", "s");
        b.transition("p", "b", "t");
        b.build().unwrap()
    }

    #[test]
    fn closure_contains_reflexive_pairs() {
        let f = sample();
        let cl = tau_closure(&f);
        for s in f.state_ids() {
            assert!(cl.reaches(s, s));
        }
        assert_eq!(cl.num_states(), f.num_states());
    }

    #[test]
    fn closure_follows_tau_chains() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let q = f.state_by_name("q").unwrap();
        let r = f.state_by_name("r").unwrap();
        assert!(cl.reaches(p, q));
        assert!(!cl.reaches(p, r)); // the a-step is not a τ-step
        assert!(!cl.reaches(q, p)); // τ is not symmetric
        assert_eq!(cl.successors(p).len(), 2);
    }

    #[test]
    fn closure_matches_matrix_formulation() {
        let f = sample();
        let cl = tau_closure(&f);
        let m = tau_closure_matrix(&f);
        for i in f.state_ids() {
            for j in f.state_ids() {
                assert_eq!(cl.reaches(i, j), m[i.index()][j.index()]);
            }
        }
    }

    #[test]
    fn transitive_tau_chain_is_closed() {
        let mut b = Fsp::builder("chain");
        b.transition("a0", "tau", "a1");
        b.transition("a1", "tau", "a2");
        b.transition("a2", "tau", "a3");
        let f = b.build().unwrap();
        let cl = tau_closure(&f);
        let a0 = f.state_by_name("a0").unwrap();
        assert_eq!(cl.successors(a0).len(), 4);
        assert_eq!(cl.num_pairs(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn weak_action_successors_skip_over_tau() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        let s = f.state_by_name("s").unwrap();
        let a = f.action_id("a").unwrap();
        let succs = weak_action_successors(&f, &cl, p, a);
        assert_eq!(succs, vec![r, s]);
    }

    #[test]
    fn weakly_enabled_sees_through_tau() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let enabled = weakly_enabled_actions(&f, &cl, p);
        let names: Vec<&str> = enabled.iter().map(|&a| f.action_name(a)).collect();
        assert_eq!(names, vec!["a", "b"]);
        let s = f.state_by_name("s").unwrap();
        assert!(weakly_enabled_actions(&f, &cl, s).is_empty());
    }

    #[test]
    fn saturation_produces_observable_process() {
        let f = sample();
        let sat = saturate(&f);
        assert!(!sat.fsp.has_tau_transitions());
        assert_eq!(sat.fsp.num_states(), f.num_states());
        assert_eq!(sat.fsp.action_name(sat.epsilon), crate::EPSILON_ACTION);
        // p ⇒a {r, s}; p ⇒ε {p, q}; p ⇒b {t}.
        let p = f.state_by_name("p").unwrap();
        let a = sat.fsp.action_id("a").unwrap();
        let succs: Vec<_> = sat.fsp.successors(p, Label::Act(a)).collect();
        assert_eq!(succs.len(), 2);
        let eps: Vec<_> = sat.fsp.successors(p, Label::Act(sat.epsilon)).collect();
        assert_eq!(eps.len(), 2);
    }

    #[test]
    fn string_derivatives() {
        let f = sample();
        let cl = tau_closure(&f);
        let p = f.state_by_name("p").unwrap();
        let a = f.action_id("a").unwrap();
        let b = f.action_id("b").unwrap();
        assert_eq!(weak_string_derivatives(&f, &cl, p, &[]).len(), 2);
        assert_eq!(weak_string_derivatives(&f, &cl, p, &[a]).len(), 2);
        assert_eq!(weak_string_derivatives(&f, &cl, p, &[b]).len(), 1);
        assert!(weak_string_derivatives(&f, &cl, p, &[a, a]).is_empty());
        assert!(weak_string_derivatives(&f, &cl, p, &[b, a]).is_empty());
    }

    #[test]
    fn weak_edges_match_the_materialized_saturation() {
        let f = sample();
        let cl = tau_closure(&f);
        let sat = saturate_with_closure(&f, &cl);
        let mut streamed = 0usize;
        for e in weak_edges(&f, &cl) {
            let label = Label::Act(e.action.unwrap_or(sat.epsilon));
            assert!(
                sat.fsp.has_transition(e.from, label, e.to),
                "streamed edge missing from saturated process"
            );
            streamed += 1;
        }
        assert_eq!(streamed, sat.fsp.num_transitions());
    }

    #[test]
    fn saturated_view_slices_agree_with_helpers() {
        let f = sample();
        let cl = tau_closure(&f);
        let view = SaturatedView::build(&f, &cl);
        assert_eq!(view.num_states(), f.num_states());
        assert_eq!(view.num_actions(), f.num_actions());
        let mut total = 0usize;
        for p in f.state_ids() {
            assert_eq!(view.epsilon_successors(p), cl.successors(p));
            total += view.epsilon_successors(p).len();
            for a in f.action_ids() {
                let slice = view.successors(p, a);
                assert_eq!(slice, weak_action_successors(&f, &cl, p, a).as_slice());
                total += slice.len();
            }
            let enabled: Vec<ActionId> = view.weakly_enabled(p).collect();
            assert_eq!(enabled, weakly_enabled_actions(&f, &cl, p));
        }
        assert_eq!(view.num_weak_edges(), total);
    }

    #[test]
    fn saturated_view_handles_trailing_empty_slots() {
        // The last state is dead: its slots must still be laid out.
        let mut b = Fsp::builder("tail");
        b.transition("p", "a", "q");
        let f = b.build().unwrap();
        let cl = tau_closure(&f);
        let view = SaturatedView::build(&f, &cl);
        let q = f.state_by_name("q").unwrap();
        let a = f.action_id("a").unwrap();
        assert!(view.successors(q, a).is_empty());
        assert_eq!(view.epsilon_successors(q), &[q]);
        assert!(view.weakly_enabled(q).next().is_none());
    }

    #[test]
    fn patched_view_matches_a_full_rebuild() {
        let mut f = sample();
        let cl = tau_closure(&f);
        let view = SaturatedView::build(&f, &cl);
        // A τ-free edit: s gains an observable edge back to p.  The weak
        // rows of every state that τ-reaches a source (here: r ⇒ε s and s
        // itself... plus p, q which reach nothing new — dirty must cover
        // the backward τ-closure of the source s: {r, s}).
        let s = f.state_by_name("s").unwrap();
        let p = f.state_by_name("p").unwrap();
        let r = f.state_by_name("r").unwrap();
        let b = f.action_id("b").unwrap();
        f.apply_edge_delta(&[(s, Label::Act(b), p)], &[]);
        let patched = view.patched(&f, &cl, &[r, s]);
        assert_eq!(patched, SaturatedView::build(&f, &cl));
    }

    #[test]
    fn patched_view_with_no_dirty_states_is_identical() {
        let f = sample();
        let cl = tau_closure(&f);
        let view = SaturatedView::build(&f, &cl);
        assert_eq!(view.patched(&f, &cl, &[]), view);
    }

    #[test]
    fn saturation_preserves_extensions_and_names() {
        let mut b = Fsp::builder("ext");
        b.transition("p", "tau", "q");
        let q = b.state("q");
        b.mark_accepting(q);
        let f = b.build().unwrap();
        let sat = saturate(&f);
        assert!(sat.fsp.is_accepting(q));
        assert_eq!(sat.fsp.state_name(q), Some("q"));
        assert!(!sat.fsp.is_accepting(f.state_by_name("p").unwrap()));
    }
}
