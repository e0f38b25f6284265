//! The TCP front end: line-oriented JSON over `std::net`, one thread per
//! connection, all connections sharing one [`Service`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crate::json::Json;
use crate::protocol::Service;

/// The longest request line the server reads, in bytes, newline excluded —
/// far above the largest `open` a client sends in practice, and a bound on
/// what one line can make the server allocate.  A longer line is answered
/// with the `line-too-long` error code and the connection is closed.
const MAX_LINE_BYTES: usize = 8 << 20;

/// A bound (but not yet serving) equivalence server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

/// A server running on a background thread (used by tests and in-process
/// embedding; the accept loop never returns, so the handle is detached on
/// drop).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    _thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (for asserting on stats from outside).
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of
    /// `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, service: Service) -> io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
        })
    }

    /// The bound local address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service.
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serves forever on the calling thread: accepts connections and spawns
    /// one handler thread each.
    ///
    /// # Errors
    ///
    /// Returns the first accept error (transient per-connection I/O errors
    /// are swallowed by the per-connection threads).
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            let service = Arc::clone(&self.service);
            thread::spawn(move || {
                // A torn-down client mid-response is not a server error.
                let _ = serve_connection(&service, stream);
            });
        }
        Ok(())
    }

    /// Moves the accept loop onto a background thread, returning the
    /// resolved address and shared service.
    ///
    /// # Errors
    ///
    /// Propagates the local-address query failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let service = Arc::clone(&self.service);
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            service,
            _thread: thread,
        })
    }
}

fn serve_connection(service: &Service, stream: TcpStream) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_LINE_BYTES {
            let response = Json::obj([
                ("ok", Json::Bool(false)),
                ("code", Json::str("line-too-long")),
                (
                    "message",
                    Json::str(format!(
                        "request line longer than {MAX_LINE_BYTES} bytes; closing the connection"
                    )),
                ),
            ]);
            writer.write_all(response.to_string().as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            return Ok(());
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = service.handle_line(line);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_a_round_trip_over_tcp() {
        let handle = Server::bind("127.0.0.1:0", Service::default())
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        assert!(client.ping().unwrap());
        let opened = client.open_fsp("trans p tau q\ntrans q a r").unwrap();
        assert_eq!(opened.states, 3);
        assert!(client
            .pair(&opened.session, "observational", "p", "q")
            .unwrap());
        assert!(client.close_session(&opened.session).unwrap());
    }

    #[test]
    fn blank_lines_are_ignored_and_connections_are_independent() {
        let handle = Server::bind("127.0.0.1:0", Service::default())
            .unwrap()
            .spawn()
            .unwrap();
        let mut a = crate::client::Client::connect(handle.addr()).unwrap();
        let opened = a.open_fsp("trans p a q").unwrap();
        // A second connection sees the same registry.
        let mut b = crate::client::Client::connect(handle.addr()).unwrap();
        assert!(b.pair(&opened.session, "strong", "p", "p").unwrap());
    }

    /// One line past the bound is answered with `line-too-long` and its
    /// connection closed; the server keeps serving new connections.
    #[test]
    fn an_oversized_line_is_refused_and_the_server_stays_up() {
        let handle = Server::bind("127.0.0.1:0", Service::default())
            .unwrap()
            .spawn()
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        // A line of exactly the bound is read and parsed (and rejected as
        // JSON).
        let mut line = vec![b'x'; MAX_LINE_BYTES];
        line.push(b'\n');
        stream.write_all(&line).unwrap();
        reader.read_line(&mut response).unwrap();
        let value = crate::json::parse(response.trim_end()).unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("bad-request")
        );
        // One byte past the bound, with no newline, so the server has read
        // all of it when it closes.
        line.truncate(MAX_LINE_BYTES);
        line.push(b'x');
        stream.write_all(&line).unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        let value = crate::json::parse(response.trim_end()).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("line-too-long")
        );
        response.clear();
        assert_eq!(reader.read_line(&mut response).unwrap(), 0, "closed");
        let mut fresh = crate::client::Client::connect(handle.addr()).unwrap();
        assert!(fresh.ping().unwrap());
    }
}
