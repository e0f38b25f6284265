//! The oracle check: right answers pass, a deliberately wrong verdict, a
//! wrong partition or an error response fails.

use std::sync::Arc;

use ccs_equiv::Equivalence;
use ccs_fsp::format;
use ccs_perfbench::minijson;
use ccs_perfbench::oracle::{check, Classes, Expect};
use ccs_server::Service;

const MODEL: &str = "trans s0 tau s1\ntrans s1 a s2\ntrans s3 a s4";

fn open(service: &Service) -> String {
    let line = format!(r#"{{"op":"open","text":{}}}"#, minijson::escape(MODEL));
    let response = service.handle_line(&line);
    check(&Expect::Opened { states: 5 }, &response)
        .unwrap()
        .expect("open returns a handle")
}

#[test]
fn a_wrong_verdict_is_rejected() {
    let service = Service::default();
    let session = open(&service);
    let response = service.handle_line(&format!(
        r#"{{"op":"pair","session":"{session}","notion":"observational","left":"s0","right":"s3"}}"#
    ));
    assert!(check(&Expect::Verdict(true), &response).is_ok());
    let err = check(&Expect::Verdict(false), &response).unwrap_err();
    assert!(err.contains("wrong verdict"), "{err}");
}

#[test]
fn a_wrong_partition_is_rejected() {
    let service = Service::default();
    let session = open(&service);
    let response = service.handle_line(&format!(
        r#"{{"op":"classify","session":"{session}","notion":"strong"}}"#
    ));
    let fsp = format::parse(MODEL).unwrap();
    let right = Classes::of(&fsp, Equivalence::Strong);
    assert!(check(&Expect::Classes(Arc::new(right)), &response).is_ok());
    // Merge s0 with s3, which strong equivalence separates (s0 moves on τ).
    let wrong = Classes::from_labels(&[0, 1, 2, 0, 2]);
    assert!(check(&Expect::Classes(Arc::new(wrong)), &response).is_err());
}

#[test]
fn error_responses_and_broken_lines_fail() {
    let service = Service::default();
    let response = service
        .handle_line(r#"{"op":"pair","session":"s9","notion":"strong","left":"s0","right":"s1"}"#);
    let err = check(&Expect::Verdict(true), &response).unwrap_err();
    assert!(err.contains("unknown-session"), "{err}");
    assert!(check(&Expect::Pong, "{\"ok\":true,\"pong\":tru").is_err());
    assert!(check(&Expect::Closed, r#"{"ok":true,"closed":false}"#).is_err());
    assert!(check(
        &Expect::Mutated {
            added: 1,
            removed: 0,
            tau: false
        },
        r#"{"ok":true,"added":0,"removed":0,"tau_touched":false}"#
    )
    .is_err());
}

#[test]
fn the_oracle_solver_agrees_with_the_server_on_a_corpus_model() {
    let fsp = ccs_perfbench::model::tau_model(1);
    let service = Service::default();
    let line = ccs_perfbench::model::open_line(&fsp, &mut ccs_perfbench::Rng::new(7, &[]));
    let session = check(
        &Expect::Opened { states: 1024 },
        &service.handle_line(&line),
    )
    .unwrap()
    .unwrap();
    for notion in [Equivalence::Strong, Equivalence::Observational] {
        let response = service.handle_line(&format!(
            r#"{{"op":"classify","session":"{session}","notion":"{notion}"}}"#
        ));
        let expected = Arc::new(Classes::of(&fsp, notion));
        assert!(
            check(&Expect::Classes(expected), &response).is_ok(),
            "{notion}"
        );
    }
}
