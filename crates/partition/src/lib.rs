//! Generalized partitioning — the *relational coarsest partition* problem of
//! Kanellakis & Smolka (Section 3).
//!
//! **Input:** a set `S`, an initial partition `π = {B₁, …, Bₚ}` of `S`, and
//! `k` functions `fₗ : S → 2^S` (equivalently, `k` binary relations).
//!
//! **Output:** the coarsest partition `π′` consistent with `π` such that for
//! every block `E_j`, every function `fₗ`, and all `a, b` in a common block:
//! `fₗ(a) ∩ E_j ≠ ∅  iff  fₗ(b) ∩ E_j ≠ ∅`.
//!
//! Strong bisimulation equivalence of observable finite state processes
//! reduces to this problem in linear time (Lemma 3.1), which is why this
//! crate sits at the bottom of the `ccs-equiv` stack.
//!
//! # The flat CSR transition core
//!
//! All solvers share one transition representation: the compressed-sparse-row
//! [`LabeledGraph`] (see [`graph`]), which stores every relation's successor
//! and predecessor lists back to back in four contiguous arrays indexed by
//! per-`(label, element)` offset tables.  An [`Instance`] wraps a
//! [`GraphBuilder`] that lays the CSR out once, in linear time by counting,
//! deduplicating parallel edges per slot; `successors`/`predecessors` are slice views into the flat
//! arrays, and `num_edges`/`max_fanout` are `O(1)` builder-computed values.
//! Element, label and block identities are packed 32-bit newtypes (see
//! [`ids`]), which halves the hot working set on 64-bit targets; ground sets
//! beyond the packed range are rejected at construction with an
//! [`IdOverflow`] rather than truncated.  An instance only grows
//! ([`Instance::add_edge`]); an edited process gets a fresh instance, and
//! no solver here repairs an old partition, since an edit can coarsen the
//! solution and refinement only ever splits.
//!
//! Four solvers are provided for the generalized problem:
//!
//! * [`naive`] — the paper's *naive method* (Lemma 3.2): repeatedly split
//!   blocks by successor-block signatures until stable; `O(n·m)`-ish with an
//!   extra logarithmic factor from sorting.
//! * [`kanellakis_smolka::refine_both_halves`] — the splitter-worklist
//!   algorithm of Kanellakis & Smolka (1983) with both halves of every split
//!   re-enqueued: `O(n·m)` worst case.
//! * [`kanellakis_smolka::refine`] — the paper's sharpened smaller-half
//!   variant: only the smaller fragment of a pending splitter group is
//!   extracted and scanned, giving `O(c²·n·log n)` for fan-out bounded by
//!   `c` (the module docs spell out the Section 3 argument).
//! * [`paige_tarjan`] — the Paige–Tarjan (1987) "process the smaller half"
//!   algorithm with compound blocks and edge counts, `O(m log n + n)`
//!   (Theorem 3.1), generalized to labelled relations, with its counters in
//!   flat `u32` cells.  This is the solver every `ccs-equiv` session runs.
//!
//! All of them produce the same (canonical) partition; the first three stay
//! as the paper's exhibits and as oracles for the fourth.  The test-suites,
//! the root property tests, the `report` binary's E7 table and the
//! `partition_refinement`/`partition_core` benches cross-check them against
//! each other.
//!
//! The crate also contains the two classical deterministic-case tools the
//! paper mentions in Section 3: [`hopcroft`] DFA minimization
//! (`O(k·n log n)`) and the [`dfa_equiv`] UNION-FIND equivalence test
//! (`O(k·n·α(n))`), plus the underlying [`UnionFind`] structure.
//!
//! # Example
//!
//! ```
//! use ccs_partition::{Instance, Algorithm, solve};
//!
//! // Two parallel 2-cycles over one relation; all elements start in one block.
//! let mut inst = Instance::new(4, 1);
//! inst.add_edge(0, 0, 1);
//! inst.add_edge(0, 1, 0);
//! inst.add_edge(0, 2, 3);
//! inst.add_edge(0, 3, 2);
//! let p = solve(&inst, Algorithm::PaigeTarjan);
//! // Everything is equivalent: one block.
//! assert_eq!(p.num_blocks(), 1);
//! ```
//!
//! Where this crate sits in the workspace — the crate map, the
//! end-to-end data flow, and the notion-to-procedure table — is laid out
//! in `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The compact-core invariant: ids narrow through the checked helpers only,
// never through a bare `as` cast that could silently truncate.
#![deny(clippy::cast_possible_truncation)]

pub mod dfa;
pub mod dfa_equiv;
pub mod graph;
pub mod hopcroft;
pub mod ids;
mod instance;
pub mod kanellakis_smolka;
pub mod naive;
pub mod paige_tarjan;
mod partition;
mod union_find;

pub use dfa::Dfa;
pub use graph::{GraphBuilder, LabeledGraph};
pub use ids::{BlockId, IdOverflow, LabelId, StateId};
pub use instance::Instance;
pub use partition::Partition;
pub use union_find::UnionFind;

/// Selects one of the generalized-partitioning solvers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// The naive refinement method of Lemma 3.2.
    Naive,
    /// The Kanellakis–Smolka splitter-worklist algorithm with both halves of
    /// every split re-enqueued (`O(n·m)` — the measured baseline).
    KanellakisSmolkaBothHalves,
    /// The Kanellakis–Smolka smaller-half algorithm (`O(c²·n·log n)` for
    /// fan-out bounded by `c`).
    KanellakisSmolka,
    /// The Paige–Tarjan smaller-half algorithm with edge counters
    /// (Theorem 3.1) — the solver every session runs.
    PaigeTarjan,
}

impl Algorithm {
    /// All available algorithms, useful for cross-checking loops.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Naive,
        Algorithm::KanellakisSmolkaBothHalves,
        Algorithm::KanellakisSmolka,
        Algorithm::PaigeTarjan,
    ];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Naive => f.write_str("naive"),
            Algorithm::KanellakisSmolkaBothHalves => f.write_str("ks-both-halves"),
            Algorithm::KanellakisSmolka => f.write_str("kanellakis-smolka"),
            Algorithm::PaigeTarjan => f.write_str("paige-tarjan"),
        }
    }
}

/// Solves a generalized-partitioning instance with the chosen algorithm,
/// returning the coarsest consistent partition in canonical form.
#[must_use]
pub fn solve(instance: &Instance, algorithm: Algorithm) -> Partition {
    match algorithm {
        Algorithm::Naive => naive::refine(instance),
        Algorithm::KanellakisSmolkaBothHalves => kanellakis_smolka::refine_both_halves(instance),
        Algorithm::KanellakisSmolka => kanellakis_smolka::refine(instance),
        Algorithm::PaigeTarjan => paige_tarjan::refine(instance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::Naive.to_string(), "naive");
        assert_eq!(
            Algorithm::KanellakisSmolkaBothHalves.to_string(),
            "ks-both-halves"
        );
        assert_eq!(Algorithm::KanellakisSmolka.to_string(), "kanellakis-smolka");
        assert_eq!(Algorithm::PaigeTarjan.to_string(), "paige-tarjan");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn solve_dispatches_to_all_algorithms() {
        let mut inst = Instance::new(3, 1);
        inst.add_edge(0, 0, 1);
        inst.add_edge(0, 1, 2);
        for alg in Algorithm::ALL {
            let p = solve(&inst, alg);
            assert_eq!(p.num_elements(), 3);
            // 0 -> 1 -> 2 (dead): three different behaviours.
            assert_eq!(p.num_blocks(), 3, "{alg}");
        }
    }
}
