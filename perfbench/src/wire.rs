//! The load generator: the server child process, one connection per
//! thread, and the closed loop.
//!
//! The generator is std-only and does not use `ccs_server::Client`.  Each
//! request line and its `\n` go out in one `write` on a `TCP_NODELAY`
//! socket, so any delayed-ACK stall measured is the server's, not the
//! generator's: `Client` writes the line and the newline separately, which
//! doubles the per-request floor on Linux loopback.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::oracle;
use crate::workload::{merge_sessions, Op, Plan, Request, Step, CONNECTIONS, SLOTS};

/// The `ccs-server` binary `cargo build --release` leaves under
/// `$CARGO_TARGET_DIR` (default `target`).
#[must_use]
pub fn server_binary() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("release").join("ccs-server")
}

/// A running `ccs-server` child; killed and reaped on drop.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `binary` on `127.0.0.1:0` and reads its `listening on` line.
    ///
    /// # Errors
    ///
    /// If the binary cannot start or does not announce an address.
    pub fn spawn(binary: &Path) -> io::Result<Self> {
        let mut child = Command::new(binary)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let announced = BufReader::new(stdout).read_line(&mut line);
        let addr = announced.ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok())
        });
        match addr {
            Some(addr) => Ok(ServerProcess { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not announce an address (got {line:?})"
                )))
            }
        }
    }

    /// The announced address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes `line` and its terminating `\n` with a single `write_all` of one
/// buffer (`buf` is reused scratch).
///
/// # Errors
///
/// Propagates the write error.
pub fn write_line<W: Write>(writer: &mut W, buf: &mut Vec<u8>, line: &str) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(buf)
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    response: String,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// Propagates the connect or socket-option error.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            response: String::new(),
        })
    }

    /// Whether `TCP_NODELAY` is set on the socket.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option error.
    pub fn nodelay(&self) -> io::Result<bool> {
        self.writer.nodelay()
    }

    /// Sends one request line and reads its response line (without the
    /// newline).
    ///
    /// # Errors
    ///
    /// On a transport error or when the server closes the connection.
    pub fn request(&mut self, line: &str) -> io::Result<&str> {
        write_line(&mut self.writer, &mut self.out, line)?;
        delay_acks(&self.writer)?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.response.trim_end_matches(['\n', '\r']))
    }
}

/// Puts the socket back into delayed-ACK mode before a response is read,
/// as the kernel does for an interactive client that answers promptly.
///
/// Linux leaves that mode whenever a delayed ACK times out, so without this
/// whether a response pays the server's Nagle stall (it writes the response
/// and its newline separately) flips between 0 and 40 ms from run to run.
/// With it, every response that the server splits pays the stall, and a
/// response written in one segment pays none: the generator adds no stall
/// of its own.
#[cfg(target_os = "linux")]
fn delay_acks(socket: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;
    let off: c_int = 0;
    // SAFETY: the descriptor is a live TCP socket owned by `socket`, and
    // the value pointer and length describe the local `c_int` above.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            std::ptr::addr_of!(off).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn delay_acks(_socket: &TcpStream) -> io::Result<()> {
    Ok(())
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct Log {
    /// `(op, latency ms)` of every answered request.
    pub requests: Vec<(Op, f64)>,
    /// Duration of every completed job, ms.
    pub jobs: Vec<f64>,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed: error response, transport failure or wrong
    /// answer.
    pub failed: usize,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl Log {
    /// Counts one failed request, keeping the first few reasons.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Log) {
        self.requests.extend(other.requests);
        self.jobs.extend(other.jobs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 5 {
                self.reasons.push(r);
            }
        }
    }
}

/// Runs `steps` in order on `conn`, checking each answer.  Returns `false`
/// if the connection broke (the remaining steps count as failed).
pub fn run_steps(conn: &mut Conn, steps: &[Step], sessions: &mut [String], log: &mut Log) -> bool {
    for (i, step) in steps.iter().enumerate() {
        let line = step.request.render(sessions);
        log.attempted += 1;
        let start = Instant::now();
        let response = match conn.request(&line) {
            Ok(response) => response,
            Err(e) => {
                log.fail(format!("transport: {e}"));
                log.attempted += steps.len() - i - 1;
                log.failed += steps.len() - i - 1;
                return false;
            }
        };
        log.requests
            .push((step.request.op(), start.elapsed().as_secs_f64() * 1e3));
        match oracle::check(&step.expect, response) {
            Ok(Some(handle)) => {
                if let Request::Open { slot, .. } = step.request {
                    sessions[slot] = handle;
                }
            }
            Ok(None) => {}
            Err(reason) => log.fail(format!("{}: {reason}", step.request.op().name())),
        }
    }
    true
}

/// A server with its connections opened and the set-up steps run.
#[derive(Debug)]
pub struct Ready {
    /// The server.
    pub server: ServerProcess,
    /// One connection per load-generator thread.
    pub conns: Vec<Conn>,
    /// Each connection's session handles (shared slots merged).
    pub sessions: Vec<Vec<String>>,
    /// What set-up sent and saw.
    pub log: Log,
    /// Seconds from spawning the server to ready.
    pub seconds: f64,
}

/// Spawns the server, connects [`CONNECTIONS`] connections and runs each
/// connection's set-up steps, one connection after the other: warm-ups
/// that overlapped would make the server's peak memory depend on timing.
///
/// # Errors
///
/// If the server cannot start or a connection cannot open.
pub fn set_up(plan: &Plan, binary: &Path) -> io::Result<Ready> {
    let start = Instant::now();
    let server = ServerProcess::spawn(binary)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    let mut sessions = vec![vec![String::new(); SLOTS]; CONNECTIONS];
    let mut log = Log::default();
    for ((conn, table), steps) in conns.iter_mut().zip(&mut sessions).zip(&plan.setup) {
        run_steps(conn, steps, table, &mut log);
    }
    let merged = merge_sessions(&sessions);
    Ok(Ready {
        seconds: start.elapsed().as_secs_f64(),
        server,
        conns,
        sessions: vec![merged; CONNECTIONS],
        log,
    })
}

/// The timed phase's outcome.
#[derive(Debug)]
pub struct Timed {
    /// Everything the connections saw.
    pub log: Log,
    /// Jobs each connection completed (the replay sends the same ones).
    pub jobs_per_conn: Vec<usize>,
    /// Wall time from the common start to the last answer, seconds.
    pub elapsed: f64,
}

/// The closed loop: every connection runs its next job as soon as the last
/// one is answered, starting jobs until `duration` has passed.
#[must_use]
pub fn closed_loop(plan: &Plan, ready: &mut Ready, duration: Duration) -> Timed {
    let barrier = Barrier::new(CONNECTIONS);
    let start_cell = std::sync::OnceLock::new();
    let results: Vec<(Log, usize, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .conns
            .iter_mut()
            .zip(ready.sessions.iter_mut())
            .enumerate()
            .map(|(c, (conn, table))| {
                let (barrier, start_cell) = (&barrier, &start_cell);
                scope.spawn(move || {
                    let mut log = Log::default();
                    barrier.wait();
                    let start = *start_cell.get_or_init(Instant::now);
                    let mut k = 0;
                    while start.elapsed() < duration {
                        let job = plan.job(c, k);
                        let began = Instant::now();
                        if !run_steps(conn, &job, table, &mut log) {
                            break;
                        }
                        log.jobs.push(began.elapsed().as_secs_f64() * 1e3);
                        k += 1;
                    }
                    (log, k, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let start = *start_cell.get().expect("threads started");
    let end = results.iter().map(|r| r.2).max().expect("connections ran");
    let mut log = Log::default();
    let mut jobs_per_conn = Vec::new();
    for (l, k, _) in results {
        log.absorb(l);
        jobs_per_conn.push(k);
    }
    Timed {
        log,
        jobs_per_conn,
        elapsed: (end - start).as_secs_f64(),
    }
}
