//! Hostile-input tests over real TCP: a request that used to take the whole
//! server down must come back as an ordinary error response, and the server
//! must keep answering every other client afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ccs_server::json::{self, Json};
use ccs_server::{Client, ClientError, Server, Service};

#[test]
fn deeply_nested_json_is_a_bad_request_not_a_crash() {
    let handle = Server::bind("127.0.0.1:0", Service::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");

    // A session opened before the hostile line, on another connection.
    let mut other = Client::connect(handle.addr()).unwrap();
    let session = other
        .open_fsp("trans p tau q\ntrans q a r\ntrans s a t\naccept r t\n")
        .unwrap()
        .session;

    // 200k unclosed brackets: far past the parser's nesting bound.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut line = "[".repeat(200_000);
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).unwrap();
    let response = json::parse(response.trim_end()).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        response.get("code").and_then(Json::as_str),
        Some("bad-request")
    );
    let message = response.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains(&format!("nesting deeper than {}", json::MAX_DEPTH)),
        "the error names the limit: {message}"
    );

    // The server is still up: a fresh connection pings, and the session
    // opened before the hostile line still answers a pair.
    let mut fresh = Client::connect(handle.addr()).unwrap();
    assert!(fresh.ping().unwrap());
    assert!(fresh.pair(&session, "observational", "p", "s").unwrap());
    assert!(!other.pair(&session, "observational", "p", "r").unwrap());
}

#[test]
fn deeply_nested_ccs_expressions_are_expression_errors_not_a_crash() {
    let handle = Server::bind("127.0.0.1:0", Service::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let mut other = Client::connect(handle.addr()).unwrap();
    let session = other
        .open_fsp("trans p tau q\ntrans q a r\ntrans s a t\naccept r t\n")
        .unwrap()
        .session;

    // 20,000 levels of each shape: a `*` run, a `.` chain, a `+` chain and
    // nested parentheses — far past `ccs_expr::MAX_DEPTH`.
    let depth = 20_000;
    let shapes = [
        format!("a{}", "*".repeat(depth)),
        vec!["a"; depth].join("."),
        vec!["a"; depth].join("+"),
        format!("{}a{}", "(".repeat(depth), ")".repeat(depth)),
    ];
    let mut hostile = Client::connect(handle.addr()).unwrap();
    for text in &shapes {
        match hostile.open_ccs(text) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, "expression", "{message}");
                assert!(
                    message.contains(&format!("deeper than {} levels", ccs_expr::MAX_DEPTH)),
                    "the error names the limit: {message}"
                );
            }
            other => panic!("expected an expression error, got {other:?}"),
        }
    }

    let mut fresh = Client::connect(handle.addr()).unwrap();
    assert!(fresh.ping().unwrap());
    assert!(fresh.pair(&session, "observational", "p", "s").unwrap());
    assert!(!other.pair(&session, "observational", "p", "r").unwrap());
}
