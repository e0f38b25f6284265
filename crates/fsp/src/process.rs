use std::collections::BTreeSet;
use std::fmt;

use crate::builder::FspBuilder;
use crate::interner::Interner;
use crate::label::{ActionId, Label, VarId};
use crate::model::ModelProfile;
use crate::state::StateId;
use crate::ACCEPT_VAR;

/// A list of transitions as `(from, label, to)` triples — the currency of
/// [`Fsp::apply_edge_delta`] and the session-level mutation path.
pub type EdgeBatch = Vec<(StateId, Label, StateId)>;

/// A single transition `(label, target)` out of some source state.
///
/// The source state is implicit: transitions are stored per state and
/// retrieved with [`Fsp::transitions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Transition {
    /// The action labelling the transition (`τ` or an observable action).
    pub label: Label,
    /// The destination state.
    pub target: StateId,
}

#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) struct StateData {
    pub(crate) name: Option<String>,
    pub(crate) extensions: BTreeSet<VarId>,
    pub(crate) transitions: Vec<Transition>,
}

/// A finite state process `(K, p0, Σ, Δ, V, E)` (Definition 2.1.1).
///
/// Construct processes with [`Fsp::builder`] / [`FspBuilder`], by parsing the
/// [`format`](crate::format) text format, or with the combinators in
/// [`ops`](crate::ops).
///
/// States are dense indices `0..num_states()`; per-state transition lists are
/// kept sorted and duplicate-free, so the process is a faithful representation
/// of the transition *relation* `Δ`.
#[derive(Clone, PartialEq, Eq)]
pub struct Fsp {
    pub(crate) name: String,
    pub(crate) start: StateId,
    pub(crate) states: Vec<StateData>,
    pub(crate) actions: Interner,
    pub(crate) vars: Interner,
    pub(crate) num_transitions: usize,
}

impl Fsp {
    /// Starts building a new process with the given name.
    ///
    /// ```
    /// use ccs_fsp::Fsp;
    /// let mut b = Fsp::builder("example");
    /// let s = b.state("s0");
    /// b.set_start(s);
    /// let fsp = b.build()?;
    /// assert_eq!(fsp.name(), "example");
    /// # Ok::<(), ccs_fsp::FspError>(())
    /// ```
    #[must_use]
    pub fn builder(name: &str) -> FspBuilder {
        FspBuilder::new(name)
    }

    pub(crate) fn from_parts(
        name: String,
        start: StateId,
        mut states: Vec<StateData>,
        actions: Interner,
        vars: Interner,
    ) -> Self {
        let mut num_transitions = 0;
        for st in &mut states {
            st.transitions.sort_unstable();
            st.transitions.dedup();
            num_transitions += st.transitions.len();
        }
        Fsp {
            name,
            start,
            states,
            actions,
            vars,
            num_transitions,
        }
    }

    /// The name given to the process at construction time.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of states `|K|`.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The number of transitions `|Δ|`.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.num_transitions
    }

    /// The number of observable actions `|Σ|` (never counts `τ`).
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// The number of variables `|V|`.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Heap bytes held by the process, measured from live container
    /// capacities: per-state transition lists, names and extension sets,
    /// plus the two interners.  Allocator slack and per-node overheads are
    /// excluded, so this is a measured lower bound, not allocator truth.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let per_state: usize = self
            .states
            .iter()
            .map(|st| {
                st.name.as_ref().map_or(0, String::capacity)
                    + st.extensions.len() * std::mem::size_of::<VarId>()
                    + st.transitions.capacity() * std::mem::size_of::<Transition>()
            })
            .sum();
        self.name.capacity()
            + self.states.capacity() * std::mem::size_of::<StateData>()
            + per_state
            + self.actions.resident_bytes()
            + self.vars.resident_bytes()
    }

    /// The start state `p0`.
    #[must_use]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Iterates over all state identifiers in index order.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len()).map(StateId::from_index)
    }

    /// Iterates over the observable action alphabet in index order.
    pub fn action_ids(&self) -> impl Iterator<Item = ActionId> + '_ {
        (0..self.actions.len()).map(ActionId::from_index)
    }

    /// Iterates over the variable set `V` in index order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId::from_index)
    }

    /// Returns `true` iff `state` is a state of this process.
    #[must_use]
    pub fn contains_state(&self, state: StateId) -> bool {
        state.index() < self.states.len()
    }

    /// The optional human-readable name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this process.
    #[must_use]
    pub fn state_name(&self, state: StateId) -> Option<&str> {
        self.states[state.index()].name.as_deref()
    }

    /// A printable label for a state: its name if it has one, otherwise its
    /// index rendered as `s<i>`.
    #[must_use]
    pub fn state_label(&self, state: StateId) -> String {
        match self.state_name(state) {
            Some(n) => n.to_owned(),
            None => format!("{state}"),
        }
    }

    /// Looks up a state by its human-readable name.
    #[must_use]
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name.as_deref() == Some(name))
            .map(StateId::from_index)
    }

    /// The transitions out of `state`, sorted by `(label, target)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this process.
    #[must_use]
    pub fn transitions(&self, state: StateId) -> &[Transition] {
        &self.states[state.index()].transitions
    }

    /// The out-degree of `state` (number of outgoing transitions).
    #[must_use]
    pub fn out_degree(&self, state: StateId) -> usize {
        self.transitions(state).len()
    }

    /// Iterates over the `Δ(q, a)` successor set: states reachable from
    /// `state` by one transition labelled `label`.  The label's run of the
    /// `(label, target)`-sorted transition list starts where a binary search
    /// puts it.
    pub fn successors(&self, state: StateId, label: Label) -> impl Iterator<Item = StateId> + '_ {
        self.labelled(state, label).iter().map(|t| t.target)
    }

    /// The transitions out of `state` labelled `label`, as a sub-slice of
    /// [`Fsp::transitions`].
    pub(crate) fn labelled(&self, state: StateId, label: Label) -> &[Transition] {
        let ts = self.transitions(state);
        let lo = ts.partition_point(|t| t.label < label);
        // The run itself is walked: on the typical handful of transitions a
        // second binary search costs more than it saves.
        let len = ts[lo..].iter().take_while(|t| t.label == label).count();
        &ts[lo..lo + len]
    }

    /// The observable transitions out of `state`: everything after the
    /// τ-prefix of the sorted transition list (`τ` sorts first).
    pub(crate) fn observable(&self, state: StateId) -> &[Transition] {
        let ts = self.transitions(state);
        &ts[ts.partition_point(|t| t.label.is_tau())..]
    }

    /// Returns `true` iff the transition `(from, label, to)` is in `Δ`.
    #[must_use]
    pub fn has_transition(&self, from: StateId, label: Label, to: StateId) -> bool {
        self.transitions(from)
            .binary_search(&Transition { label, target: to })
            .is_ok()
    }

    /// The set of labels enabled at `state` (labels with at least one
    /// outgoing transition), sorted and duplicate-free.
    #[must_use]
    pub fn enabled_labels(&self, state: StateId) -> Vec<Label> {
        let mut labels: Vec<Label> = self.transitions(state).iter().map(|t| t.label).collect();
        labels.dedup();
        labels
    }

    /// The set of *observable* actions enabled at `state` by a single
    /// transition (not considering τ-moves), sorted and duplicate-free.
    #[must_use]
    pub fn enabled_actions(&self, state: StateId) -> Vec<ActionId> {
        let mut acts: Vec<ActionId> = self
            .transitions(state)
            .iter()
            .filter_map(|t| t.label.action())
            .collect();
        acts.dedup();
        acts
    }

    /// Returns `true` iff `state` has no outgoing transitions (a *dead*
    /// state in the terminology of Theorem 4.1(c)).
    #[must_use]
    pub fn is_dead(&self, state: StateId) -> bool {
        self.transitions(state).is_empty()
    }

    /// The extension set `E(q)` of a state, as a sorted set of variables.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not belong to this process.
    #[must_use]
    pub fn extensions(&self, state: StateId) -> &BTreeSet<VarId> {
        &self.states[state.index()].extensions
    }

    /// Returns `true` iff two states have identical extension sets
    /// (`E(p) = E(q)`), the base case of every equivalence in the paper.
    #[must_use]
    pub fn same_extensions(&self, p: StateId, q: StateId) -> bool {
        self.extensions(p) == self.extensions(q)
    }

    /// Returns `true` iff `state` carries the conventional acceptance
    /// variable [`ACCEPT_VAR`](crate::ACCEPT_VAR) (`x`).
    ///
    /// In the standard model this is exactly "the state is an accept state of
    /// the underlying NFA".
    #[must_use]
    pub fn is_accepting(&self, state: StateId) -> bool {
        match self.vars.get(ACCEPT_VAR) {
            Some(id) => self
                .extensions(state)
                .contains(&VarId::from_index(id as usize)),
            None => false,
        }
    }

    /// All accepting states (states whose extensions contain `x`).
    #[must_use]
    pub fn accepting_states(&self) -> Vec<StateId> {
        self.state_ids().filter(|&s| self.is_accepting(s)).collect()
    }

    /// The name of an observable action.
    ///
    /// # Panics
    ///
    /// Panics if `action` does not belong to this process.
    #[must_use]
    pub fn action_name(&self, action: ActionId) -> &str {
        self.actions.resolve(action.index() as u32)
    }

    /// Looks up an observable action by name.
    #[must_use]
    pub fn action_id(&self, name: &str) -> Option<ActionId> {
        self.actions
            .get(name)
            .map(|id| ActionId::from_index(id as usize))
    }

    /// A printable label name: the action name, or `"tau"` for `τ`.
    #[must_use]
    pub fn label_name(&self, label: Label) -> &str {
        match label {
            Label::Tau => "tau",
            Label::Act(a) => self.action_name(a),
        }
    }

    /// The name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this process.
    #[must_use]
    pub fn var_name(&self, var: VarId) -> &str {
        self.vars.resolve(var.index() as u32)
    }

    /// Looks up a variable by name.
    #[must_use]
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.get(name).map(|id| VarId::from_index(id as usize))
    }

    /// Names of all observable actions, in index order.
    #[must_use]
    pub fn action_names(&self) -> Vec<&str> {
        self.actions.iter().map(|(_, n)| n).collect()
    }

    /// Names of all variables, in index order.
    #[must_use]
    pub fn var_names(&self) -> Vec<&str> {
        self.vars.iter().map(|(_, n)| n).collect()
    }

    /// Returns `true` iff the process has at least one τ-transition.
    #[must_use]
    pub fn has_tau_transitions(&self) -> bool {
        self.states
            .iter()
            .any(|s| s.transitions.iter().any(|t| t.label.is_tau()))
    }

    /// Iterates over every transition of the process as `(source, label,
    /// target)` triples.
    pub fn all_transitions(&self) -> impl Iterator<Item = (StateId, Label, StateId)> + '_ {
        self.state_ids().flat_map(move |s| {
            self.transitions(s)
                .iter()
                .map(move |t| (s, t.label, t.target))
        })
    }

    /// Classifies the process into the FSP hierarchy of Table I / Fig. 1a.
    ///
    /// Convenience wrapper for [`model::profile`](crate::model::profile).
    #[must_use]
    pub fn profile(&self) -> ModelProfile {
        crate::model::profile(self)
    }

    /// Applies an edge batch in place — `removals` first, then `additions`,
    /// so a transition named on both sides ends up present — and returns
    /// the *effective* edits: the transitions genuinely inserted and
    /// genuinely deleted (duplicates, already-present additions and absent
    /// removals are silent no-ops).
    ///
    /// The per-state sorted/duplicate-free invariant and the transition
    /// count are maintained; states, actions and variables are fixed — a
    /// mutation can only rewire `Δ` over the existing alphabet, which is
    /// what lets a τ-free edit keep the τ-closure.
    ///
    /// # Panics
    ///
    /// Panics if any edge names an out-of-range state or action (the
    /// process is untouched in that case).
    pub fn apply_edge_delta(
        &mut self,
        additions: &[(StateId, Label, StateId)],
        removals: &[(StateId, Label, StateId)],
    ) -> (EdgeBatch, EdgeBatch) {
        for &(from, label, to) in additions.iter().chain(removals) {
            assert!(self.contains_state(from), "source state out of range");
            assert!(self.contains_state(to), "target state out of range");
            if let Label::Act(a) = label {
                assert!(a.index() < self.actions.len(), "action out of range");
            }
        }
        let mut removed = Vec::new();
        for &(from, label, to) in removals {
            if additions.contains(&(from, label, to)) {
                // Re-added by the same batch: net no-op under removals-first.
                continue;
            }
            let list = &mut self.states[from.index()].transitions;
            if let Ok(pos) = list.binary_search(&Transition { label, target: to }) {
                list.remove(pos);
                self.num_transitions -= 1;
                removed.push((from, label, to));
            }
        }
        let mut added = Vec::new();
        for &(from, label, to) in additions {
            let list = &mut self.states[from.index()].transitions;
            if let Err(pos) = list.binary_search(&Transition { label, target: to }) {
                list.insert(pos, Transition { label, target: to });
                self.num_transitions += 1;
                added.push((from, label, to));
            }
        }
        (added, removed)
    }
}

impl fmt::Debug for Fsp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fsp")
            .field("name", &self.name)
            .field("states", &self.num_states())
            .field("transitions", &self.num_transitions())
            .field("actions", &self.action_names())
            .field("vars", &self.var_names())
            .field("start", &self.start)
            .finish()
    }
}

impl fmt::Display for Fsp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::format::to_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Label;

    fn sample() -> Fsp {
        let mut b = Fsp::builder("sample");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        let a = b.action("a");
        let c = b.action("b");
        b.set_start(s0);
        b.add_transition(s0, Label::Act(a), s1);
        b.add_transition(s0, Label::Act(a), s2);
        b.add_transition(s1, Label::Tau, s2);
        b.add_transition(s1, Label::Act(c), s1);
        b.mark_accepting(s2);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let f = sample();
        assert_eq!(f.num_states(), 3);
        assert_eq!(f.num_transitions(), 4);
        assert_eq!(f.num_actions(), 2);
        assert_eq!(f.num_vars(), 1);
        assert_eq!(f.name(), "sample");
        assert_eq!(f.state_by_name("s1"), Some(StateId::from_index(1)));
        assert_eq!(f.state_by_name("zzz"), None);
        assert_eq!(f.action_id("a"), Some(ActionId::from_index(0)));
        assert_eq!(f.action_id("zzz"), None);
        assert_eq!(f.action_names(), vec!["a", "b"]);
        assert_eq!(f.var_names(), vec![ACCEPT_VAR]);
    }

    #[test]
    fn transitions_are_sorted_and_deduped() {
        let mut b = Fsp::builder("dup");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let a = b.action("a");
        b.set_start(s0);
        b.add_transition(s0, Label::Act(a), s1);
        b.add_transition(s0, Label::Act(a), s1);
        b.add_transition(s0, Label::Tau, s1);
        let f = b.build().unwrap();
        assert_eq!(f.num_transitions(), 2);
        assert_eq!(f.transitions(s0)[0].label, Label::Tau);
    }

    #[test]
    fn successor_queries() {
        let f = sample();
        let s0 = f.state_by_name("s0").unwrap();
        let s1 = f.state_by_name("s1").unwrap();
        let s2 = f.state_by_name("s2").unwrap();
        let a = f.action_id("a").unwrap();
        let succs: Vec<StateId> = f.successors(s0, Label::Act(a)).collect();
        assert_eq!(succs, vec![s1, s2]);
        assert!(f.has_transition(s1, Label::Tau, s2));
        assert!(!f.has_transition(s2, Label::Tau, s1));
        assert!(f.is_dead(s2));
        assert!(!f.is_dead(s0));
        assert_eq!(f.out_degree(s0), 2);
    }

    #[test]
    fn enabled_sets() {
        let f = sample();
        let s1 = f.state_by_name("s1").unwrap();
        let b = f.action_id("b").unwrap();
        assert_eq!(f.enabled_actions(s1), vec![b]);
        assert_eq!(f.enabled_labels(s1).len(), 2);
        assert!(f.enabled_labels(s1).contains(&Label::Tau));
    }

    #[test]
    fn extensions_and_acceptance() {
        let f = sample();
        let s0 = f.state_by_name("s0").unwrap();
        let s2 = f.state_by_name("s2").unwrap();
        assert!(f.is_accepting(s2));
        assert!(!f.is_accepting(s0));
        assert_eq!(f.accepting_states(), vec![s2]);
        assert!(!f.same_extensions(s0, s2));
        assert!(f.same_extensions(s0, f.state_by_name("s1").unwrap()));
    }

    #[test]
    fn acceptance_without_accept_var_is_false() {
        let mut b = Fsp::builder("no-x");
        let s = b.state("s");
        b.set_start(s);
        let f = b.build().unwrap();
        assert!(!f.is_accepting(s));
        assert!(f.accepting_states().is_empty());
    }

    #[test]
    fn all_transitions_enumerates_every_edge() {
        let f = sample();
        assert_eq!(f.all_transitions().count(), f.num_transitions());
    }

    #[test]
    fn tau_detection() {
        let f = sample();
        assert!(f.has_tau_transitions());
        let mut b = Fsp::builder("obs");
        let s = b.state("s");
        let a = b.action("a");
        b.set_start(s);
        b.add_transition(s, Label::Act(a), s);
        assert!(!b.build().unwrap().has_tau_transitions());
    }

    #[test]
    fn debug_output_is_nonempty() {
        let f = sample();
        let dbg = format!("{f:?}");
        assert!(dbg.contains("sample"));
        assert!(dbg.contains("states"));
    }

    #[test]
    fn apply_edge_delta_reports_effective_edits() {
        let mut f = sample();
        let s0 = f.state_by_name("s0").unwrap();
        let s1 = f.state_by_name("s1").unwrap();
        let s2 = f.state_by_name("s2").unwrap();
        let a = f.action_id("a").unwrap();
        let before = f.num_transitions();
        let (added, removed) = f.apply_edge_delta(
            &[
                (s2, Label::Act(a), s0), // genuinely new
                (s0, Label::Act(a), s1), // already present
            ],
            &[
                (s1, Label::Tau, s2), // genuinely gone
                (s2, Label::Tau, s0), // was never there
            ],
        );
        assert_eq!(added, vec![(s2, Label::Act(a), s0)]);
        assert_eq!(removed, vec![(s1, Label::Tau, s2)]);
        assert_eq!(f.num_transitions(), before);
        assert!(f.has_transition(s2, Label::Act(a), s0));
        assert!(!f.has_transition(s1, Label::Tau, s2));
        // Sorted/dedup invariant survives the in-place splices.
        for s in f.state_ids() {
            let ts = f.transitions(s);
            assert!(ts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn apply_edge_delta_lets_additions_win_over_removals() {
        let mut f = sample();
        let s0 = f.state_by_name("s0").unwrap();
        let s1 = f.state_by_name("s1").unwrap();
        let a = f.action_id("a").unwrap();
        let edge = (s0, Label::Act(a), s1);
        let (added, removed) = f.apply_edge_delta(&[edge], &[edge]);
        assert!(added.is_empty());
        assert!(removed.is_empty());
        assert!(f.has_transition(s0, Label::Act(a), s1));
    }

    #[test]
    #[should_panic(expected = "target state out of range")]
    fn apply_edge_delta_checks_state_ranges() {
        let mut f = sample();
        let s0 = f.state_by_name("s0").unwrap();
        f.apply_edge_delta(&[(s0, Label::Tau, StateId::from_index(99))], &[]);
    }

    #[test]
    fn state_labels() {
        let f = sample();
        assert_eq!(f.state_label(StateId::from_index(0)), "s0");
        let mut b = Fsp::builder("anon");
        let s = b.fresh_state();
        b.set_start(s);
        let f = b.build().unwrap();
        assert_eq!(f.state_label(s), "s0");
        assert_eq!(f.state_name(s), None);
    }
}
