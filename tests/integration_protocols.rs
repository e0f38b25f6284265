//! End-to-end protocol verification: the distributed-protocols corpus
//! (`ccs_workloads::protocols`) checked against its specifications through
//! every relevant pipeline — compositional minimization (`ccs_expr::compose`
//! plus `ccs_fsp::ops::quotient`), the observational checker, the
//! on-the-fly engine, and the server wire protocol.

use ccs_equiv::{onthefly, weak, Equivalence};
use ccs_expr::{compose, laws};
use ccs_workloads::protocols;

/// Every corpus entry's composed system matches (or provably mismatches)
/// its spec under observational equivalence, exactly as declared.
#[test]
fn corpus_meets_declared_observational_verdicts() {
    for protocol in protocols::corpus() {
        assert_eq!(
            weak::observationally_equivalent(&protocol.composed(), &protocol.spec),
            protocol.equivalent,
            "{}",
            protocol.name
        );
    }
}

/// The compositional-minimization pipeline: minimized composition agrees
/// with the plain composition on every corpus entry (the `≈`-congruence
/// law for `|`, checked via `laws::parallel_congruence`), and the minimized
/// system still gets the declared verdict against the spec.
#[test]
fn compositional_minimization_preserves_verdicts() {
    for protocol in protocols::corpus() {
        assert!(
            laws::parallel_congruence(&protocol.components),
            "{}: minimize-then-compose diverged from compose-then-check",
            protocol.name
        );
        assert_eq!(
            weak::observationally_equivalent(&protocol.composed_minimized(), &protocol.spec),
            protocol.equivalent,
            "{}: minimized system changed the verdict",
            protocol.name
        );
    }
}

/// Minimization pays: on the parameter-heavy families the intermediate
/// product never needs to exceed quotient size, and the final minimized
/// system collapses to roughly spec size.
#[test]
fn minimization_collapses_the_state_space() {
    for protocol in [
        protocols::alternating_bit(2),
        protocols::ring_election(3),
        protocols::two_phase_commit(2),
    ] {
        let full = protocol.composed();
        let small = protocol.composed_minimized();
        assert!(small.num_states() < full.num_states(), "{}", protocol.name);
        assert!(
            small.num_states() <= protocol.spec.num_states() + 2,
            "{}: minimized to {} states vs spec {}",
            protocol.name,
            small.num_states(),
            protocol.spec.num_states()
        );
    }
}

/// The on-the-fly engine reaches the same verdicts on the corpus for the
/// determinizable notions; correct protocols are equivalent to their spec
/// under every notion implied by `≈` on these (all-accepting) models.
#[test]
fn on_the_fly_verdicts_match_the_corpus_flags() {
    for protocol in protocols::corpus() {
        let composed = protocol.composed();
        for notion in [
            Equivalence::Language,
            Equivalence::Trace,
            Equivalence::Failure,
        ] {
            let outcome = onthefly::compare(&composed, &protocol.spec, notion).unwrap();
            if protocol.equivalent {
                assert!(
                    outcome.equivalent,
                    "{}/{notion}: ≈ implies the determinizable notions here",
                    protocol.name
                );
            }
        }
        if !protocol.equivalent {
            // The broken variants are already trace-distinguishable, so the
            // on-the-fly engine must refute them with a witness.
            let outcome = onthefly::compare(&composed, &protocol.spec, Equivalence::Trace).unwrap();
            assert!(!outcome.equivalent, "{}", protocol.name);
            assert!(outcome.witness.is_some(), "{}", protocol.name);
        }
    }
}

/// A protocol check over the wire: serialize the composed system into the
/// server, and ask for its verdict against the spec on the on-the-fly path.
#[test]
fn protocol_verification_over_the_server() {
    use ccs_server::{json, Service};

    let protocol = protocols::two_phase_commit(2);
    let composed = protocol.composed();
    let union = ccs_fsp::ops::disjoint_union(&composed, &protocol.spec);
    let (p, q) = ccs_fsp::ops::union_starts(&union, &composed, &protocol.spec);
    let text = ccs_fsp::format::to_text(&union.fsp);
    let left = union.fsp.state_name(p).expect("union states are named");
    let right = union.fsp.state_name(q).expect("union states are named");

    // Determinizable pair queries always take the on-the-fly path.
    let service = Service::default();
    let escaped = json::Json::str(text.as_str()).to_string();
    let response = service.handle_line(&format!(r#"{{"op":"open","text":{escaped}}}"#));
    let opened = json::parse(&response).unwrap();
    assert_eq!(
        opened.get("ok"),
        Some(&json::Json::Bool(true)),
        "{response}"
    );
    let id = opened.get("session").unwrap().as_str().unwrap().to_owned();

    let escaped_left = json::Json::str(left).to_string();
    let escaped_right = json::Json::str(right).to_string();
    let response = service.handle_line(&format!(
        r#"{{"op":"pair","session":"{id}","notion":"failure","left":{escaped_left},"right":{escaped_right}}}"#
    ));
    let value = json::parse(&response).unwrap();
    assert_eq!(value.get("ok"), Some(&json::Json::Bool(true)), "{response}");
    assert_eq!(value.get("equivalent"), Some(&json::Json::Bool(true)));
    assert_eq!(
        value.get("engine").and_then(json::Json::as_str),
        Some("on-the-fly")
    );
}

/// The quotient operation itself: `P/≈` is weakly bisimilar to `P` on the
/// composed protocols (the other executable fact `compose::minimized`
/// rests on).
#[test]
fn quotient_is_weakly_bisimilar_on_composed_protocols() {
    for protocol in [
        protocols::alternating_bit(1),
        protocols::two_phase_commit(1),
    ] {
        let composed = protocol.composed();
        let minimized = compose::minimized(&composed);
        assert!(
            weak::observationally_equivalent(&minimized, &composed),
            "{}",
            protocol.name
        );
    }
}
