//! The classification layer: every `pair`, `classify` and `partition` query
//! on a refinement-backed notion reads the session's memoized partition.
//!
//! The session engine single-flights its partition memo: racing callers of
//! [`EquivSession::classify_all`] block on one per-notion `OnceLock`, so
//! `m` concurrent queries on one `(session, notion)` cost one refinement,
//! and the registry's `refinements` counter is the evidence.  The memo is
//! keyed by the session object itself, so a `mutate` that swaps a rebuilt
//! session in under the same handle can never hand a later query the old
//! session's partition.  The [`Coalescer`] adds only the served-query
//! counter that the server's `stats` op reports as `pair_queries`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ccs_equiv::{EquivSession, Equivalence};
use ccs_fsp::StateId;
use ccs_partition::Partition;

/// Answers classification demand from the session's single-flight memo and
/// counts the pair queries it served.
#[derive(Debug, Default)]
pub struct Coalescer {
    queries: AtomicUsize,
}

impl Coalescer {
    /// A fresh coalescer with a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// The `notion`-partition of `session`, i.e.
    /// [`EquivSession::classify_all`]: concurrent callers share one
    /// computation through the session's own memo.  `_handle`, the
    /// session's registry handle, is not a cache key.
    pub fn classify(
        &self,
        _handle: &str,
        session: &EquivSession,
        notion: Equivalence,
    ) -> Arc<Partition> {
        session.classify_all(notion)
    }

    /// Answers one pair query from the session's partition.
    pub fn pair(
        &self,
        session: &EquivSession,
        notion: Equivalence,
        p: StateId,
        q: StateId,
    ) -> bool {
        self.queries.fetch_add(1, Ordering::Relaxed);
        session
            .classify_all(notion)
            .same_block(p.index(), q.index())
    }

    /// Pair queries served so far.
    #[must_use]
    pub fn pair_queries(&self) -> usize {
        self.queries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;

    fn session() -> EquivSession {
        EquivSession::new(format::parse("trans p tau q\ntrans q a r\ntrans s a t").unwrap())
    }

    #[test]
    fn concurrent_pairs_coalesce_into_one_refinement() {
        let session = session();
        let coalescer = Coalescer::new();
        let fsp = session.fsp().clone();
        let p = fsp.state_by_name("p").unwrap();
        let s = fsp.state_by_name("s").unwrap();
        let r = fsp.state_by_name("r").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (coalescer, session) = (&coalescer, &session);
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert!(coalescer.pair(session, Equivalence::Observational, p, s));
                        assert!(!coalescer.pair(session, Equivalence::Observational, p, r));
                    }
                });
            }
        });
        assert_eq!(coalescer.pair_queries(), 8 * 100);
        assert_eq!(session.refinements_run(), 1);
    }

    #[test]
    fn distinct_notions_run_distinct_refinements() {
        let session = session();
        let coalescer = Coalescer::new();
        let p = session.fsp().state_by_name("p").unwrap();
        let q = session.fsp().state_by_name("q").unwrap();
        let _ = coalescer.pair(&session, Equivalence::Strong, p, q);
        let _ = coalescer.pair(&session, Equivalence::Observational, p, q);
        assert_eq!(session.refinements_run(), 2);
        assert_eq!(coalescer.pair_queries(), 2);
    }
}
