//! End-to-end benchmark of the real `ccs-server` binary.
//!
//! One run starts the server as a child process, drives it from a
//! closed-loop load generator (two connections, one thread each, every
//! request written in a single `write` with `TCP_NODELAY`), checks every
//! verdict against an oracle computed at set-up through another solver, and
//! prints the end-to-end metrics.  With `--trace 1` it then replays the same
//! seeded request lines in-process and times the calls into each layer's
//! public functions (see [`trace`]).
//!
//! * [`workload`] — the four workloads: their set-up and their seeded jobs.
//! * [`model`] — model generation and seeded serialization.
//! * [`oracle`] — expected answers and the response check.
//! * [`wire`] — the server process, the connection, the closed loop.
//! * [`trace`] — the traced in-process replay.
//! * [`stats`] — percentiles and the tail rule.
//! * [`minijson`] — the benchmark's own reader for response lines.

pub mod minijson;
pub mod model;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;

/// The end-to-end metrics every workload reports (the `end_to_end` list of
/// `BENCHMARK.json`).  The rest are printed but not gated: a workload
/// lacks some ops, and on `cold-open` and `det-open` half of every job's
/// requests are fast and half slow, so the median over all requests sits
/// on the gap between the two and jumps from run to run.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "req_per_s",
    "latency_tail_ms",
    "job_p50_ms",
    "job_tail_ms",
    "pair_p50_ms",
    "server_peak_rss_mb",
];

/// SplitMix64: the benchmark's only random source, so inputs are a pure
/// function of the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by the `stream` tags.
    #[must_use]
    pub fn new(seed: u64, stream: &[u64]) -> Self {
        let mut rng = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        for &tag in stream {
            rng.0 ^= tag.wrapping_mul(0xD1B5_4A32_D192_ED03);
            rng.next_u64();
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
