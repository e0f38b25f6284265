//! CCS star expressions (Section 2.3 of Kanellakis & Smolka).
//!
//! Star expressions have the *syntax* of regular expressions (`∅`, actions,
//! union, concatenation, star) but the *semantics* of CCS: a star expression
//! denotes the class of observable, standard finite state processes whose
//! start states are **strongly equivalent** to the start state of its
//! *representative FSP* (Definition 2.3.1).  Because strong equivalence is a
//! branching-time notion, familiar regular-expression identities such as
//! `r·(s ∪ t) = r·s ∪ r·t` and `r·∅ = ∅` fail — which is exactly what makes
//! the CCS equivalence problem different from language equivalence.
//!
//! This crate provides
//!
//! * the expression AST ([`StarExpr`]) with a parser and pretty-printer,
//! * the inductive representative-FSP construction of Definition 2.3.1 /
//!   Fig. 3 ([`construct::representative`]), whose `O(n)` states /
//!   `O(n²)` transitions bounds (Lemma 2.3.1) are verified by tests and the
//!   `ccs_construction` bench,
//! * the CCS equivalence problem ([`ccs_equivalent`]) and, for contrast,
//!   language equivalence of the same expressions read as regular
//!   expressions,
//! * a law checker ([`laws`]) recording which algebraic identities survive
//!   the change of semantics.
//!
//! ```
//! use ccs_expr::{parse, ccs_equivalent, language_equivalent};
//!
//! // Union is commutative in both semantics…
//! assert!(ccs_equivalent(&parse("a.b + c")?, &parse("c + a.b")?));
//! // …but distributivity of `.` over `+` only holds for languages.
//! let distributed = parse("a.b + a.c")?;
//! let factored = parse("a.(b + c)")?;
//! assert!(language_equivalent(&distributed, &factored));
//! assert!(!ccs_equivalent(&distributed, &factored));
//! # Ok::<(), ccs_expr::ExprError>(())
//! ```
//!
//! Where this crate sits in the workspace — the crate map, the
//! end-to-end data flow, and the notion-to-procedure table — is laid out
//! in `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ast;
pub mod compose;
pub mod construct;
pub mod laws;
mod parser;

pub use ast::StarExpr;
pub use parser::{parse, ExprError, MAX_DEPTH};

use ccs_equiv::strong;

/// The CCS equivalence problem: do two star expressions have the same
/// semantics, i.e. are the start states of their representative FSPs
/// strongly equivalent?
#[must_use]
pub fn ccs_equivalent(left: &StarExpr, right: &StarExpr) -> bool {
    strong::strong_equivalent(
        &construct::representative(left),
        &construct::representative(right),
    )
}

/// Language equivalence of the same expressions read as *regular*
/// expressions: do their representative FSPs (viewed as NFAs) accept the same
/// language?
#[must_use]
pub fn language_equivalent(left: &StarExpr, right: &StarExpr) -> bool {
    ccs_equiv::language::language_equivalent(
        &construct::representative(left),
        &construct::representative(right),
    )
    .holds
}

/// Failure equivalence of the representative FSPs after making every state
/// accepting (the restricted view used in Section 5).
#[must_use]
pub fn failure_equivalent(left: &StarExpr, right: &StarExpr) -> bool {
    let l = ccs_fsp::ops::make_restricted(&construct::representative(left));
    let r = ccs_fsp::ops::make_restricted(&construct::representative(right));
    ccs_equiv::failures::failure_equivalent(&l, &r).equivalent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccs_equivalence_is_reflexive_on_a_corpus() {
        for text in [
            "0",
            "a",
            "a.b",
            "a + b",
            "(a.b)*",
            "a.(b + c)*",
            "(a + b).(c + d)",
        ] {
            let e = parse(text).unwrap();
            assert!(ccs_equivalent(&e, &e), "{text}");
            assert!(language_equivalent(&e, &e), "{text}");
            assert!(failure_equivalent(&e, &e), "{text}");
        }
    }

    #[test]
    fn union_laws_hold_in_both_semantics() {
        let ab = parse("a + b").unwrap();
        let ba = parse("b + a").unwrap();
        assert!(ccs_equivalent(&ab, &ba));
        assert!(language_equivalent(&ab, &ba));
        let assoc_l = parse("(a + b) + c").unwrap();
        let assoc_r = parse("a + (b + c)").unwrap();
        assert!(ccs_equivalent(&assoc_l, &assoc_r));
    }

    #[test]
    fn distributivity_separates_the_semantics() {
        let distributed = parse("a.b + a.c").unwrap();
        let factored = parse("a.(b + c)").unwrap();
        assert!(language_equivalent(&distributed, &factored));
        assert!(!ccs_equivalent(&distributed, &factored));
        assert!(!failure_equivalent(&distributed, &factored));
    }

    #[test]
    fn r_dot_empty_is_not_empty_in_ccs() {
        // r·∅ = ∅ holds for languages but fails in CCS: a.∅ can still do `a`.
        let a_empty = parse("a.0").unwrap();
        let empty = parse("0").unwrap();
        assert!(language_equivalent(&a_empty, &empty));
        assert!(!ccs_equivalent(&a_empty, &empty));
    }
}
