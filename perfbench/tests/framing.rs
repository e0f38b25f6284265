//! The load generator's framing: one request line and its newline leave in
//! a single write, on a `TCP_NODELAY` socket, and the real server answers
//! it.

use std::io::{self, Read, Write};
use std::net::TcpListener;

use ccs_perfbench::minijson;
use ccs_perfbench::wire::{write_line, Conn};
use ccs_server::{Server, Service};

/// A writer that records every `write` call it receives.
#[derive(Default)]
struct Calls(Vec<Vec<u8>>);

impl Write for Calls {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_line_and_its_newline_go_out_in_one_write() {
    let mut calls = Calls::default();
    let mut buf = Vec::new();
    write_line(&mut calls, &mut buf, r#"{"op":"ping"}"#).unwrap();
    write_line(&mut calls, &mut buf, r#"{"op":"stats"}"#).unwrap();
    assert_eq!(
        calls.0,
        vec![
            b"{\"op\":\"ping\"}\n".to_vec(),
            b"{\"op\":\"stats\"}\n".to_vec()
        ]
    );
}

#[test]
fn the_peer_reads_the_whole_line_in_its_first_read() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let line = r#"{"op":"pair","session":"s1","notion":"strong","left":"s0","right":"s1"}"#;
    std::thread::scope(|scope| {
        let peer = scope.spawn(|| {
            let (mut socket, _) = listener.accept().unwrap();
            let mut chunk = [0u8; 4096];
            let n = socket.read(&mut chunk).unwrap();
            socket.write_all(b"{\"ok\":true}\n").unwrap();
            chunk[..n].to_vec()
        });
        let mut conn = Conn::connect(addr).unwrap();
        assert!(conn.nodelay().unwrap(), "TCP_NODELAY must be set");
        assert_eq!(conn.request(line).unwrap(), r#"{"ok":true}"#);
        let first_read = peer.join().unwrap();
        assert_eq!(first_read, format!("{line}\n").into_bytes());
    });
}

#[test]
fn the_in_process_server_answers_framed_requests() {
    let handle = Server::bind("127.0.0.1:0", Service::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut conn = Conn::connect(handle.addr()).unwrap();
    let pong = minijson::parse(conn.request(r#"{"op":"ping"}"#).unwrap()).unwrap();
    assert_eq!(pong.bool_at("pong"), Some(true));
    let text = minijson::escape("trans p tau q\ntrans q a r\ntrans s a t");
    let opened = minijson::parse(
        conn.request(&format!(r#"{{"op":"open","text":{text}}}"#))
            .unwrap(),
    )
    .unwrap();
    let session = opened.str_at("session").unwrap().to_owned();
    let pair = format!(
        r#"{{"op":"pair","session":"{session}","notion":"observational","left":"p","right":"s"}}"#
    );
    let answer = minijson::parse(conn.request(&pair).unwrap()).unwrap();
    assert_eq!(answer.bool_at("equivalent"), Some(true));
}
