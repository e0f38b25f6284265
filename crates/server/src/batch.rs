//! The batching layer: concurrent pair queries on the same
//! `(session, notion)` coalesce into **one** `classify_all` refinement.
//!
//! The session engine already single-flights its partition memo (racing
//! callers of [`EquivSession::classify_all`] block on one `OnceLock`), so
//! correctness never depends on this layer.  What the [`Coalescer`] adds is
//! the *service-level* grouping and its observability: every pair query
//! joins a group keyed by `(session handle, notion)`; the first member of a
//! group runs the classification, everyone else shares the resulting
//! partition; and the server's `stats` op reports how many queries were
//! served, how many batches actually computed, and the largest group —
//! evidence that `m` concurrent queries cost one refinement, not `m`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ccs_equiv::{EquivSession, Equivalence};
use ccs_fsp::StateId;
use ccs_partition::Partition;

#[derive(Debug, Default)]
struct Group {
    cell: OnceLock<Arc<Partition>>,
    members: AtomicUsize,
}

/// Coalesces concurrent classification demand per `(session, notion)`.
#[derive(Debug, Default)]
pub struct Coalescer {
    groups: Mutex<HashMap<(String, Equivalence), Arc<Group>>>,
    queries: AtomicUsize,
    batches: AtomicUsize,
    peak_group: AtomicUsize,
}

/// Counters reported by the server's `stats` op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalescerStats {
    /// Pair queries served through the batching layer.
    pub pair_queries: usize,
    /// Classifications that actually executed (group leaders).
    pub batches: usize,
    /// Largest number of queries that shared one group.
    pub peak_group: usize,
}

impl Coalescer {
    /// A fresh coalescer with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// The `notion`-partition of `session`, grouped under the session's
    /// `handle`: concurrent callers with the same key share one
    /// computation.
    pub fn classify(
        &self,
        handle: &str,
        session: &EquivSession,
        notion: Equivalence,
    ) -> Arc<Partition> {
        let key = (handle.to_owned(), notion);
        let group = {
            let mut groups = self.groups.lock().expect("coalescer lock poisoned");
            Arc::clone(groups.entry(key.clone()).or_default())
        };
        let members = group.members.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_group.fetch_max(members, Ordering::SeqCst);
        let partition = Arc::clone(group.cell.get_or_init(|| {
            self.batches.fetch_add(1, Ordering::SeqCst);
            session.classify_all(notion)
        }));
        // Last member out dissolves the group so a later wave starts fresh
        // (its leader then hits the session's partition cache, costing no
        // second refinement).
        if group.members.fetch_sub(1, Ordering::SeqCst) == 1 {
            let mut groups = self.groups.lock().expect("coalescer lock poisoned");
            if let Some(current) = groups.get(&key) {
                if Arc::ptr_eq(current, &group) {
                    groups.remove(&key);
                }
            }
        }
        partition
    }

    /// Answers one pair query from the coalesced partition.
    pub fn pair(
        &self,
        handle: &str,
        session: &EquivSession,
        notion: Equivalence,
        p: StateId,
        q: StateId,
    ) -> bool {
        self.queries.fetch_add(1, Ordering::SeqCst);
        self.classify(handle, session, notion)
            .same_block(p.index(), q.index())
    }

    /// Point-in-time counters.
    #[must_use]
    pub fn stats(&self) -> CoalescerStats {
        CoalescerStats {
            pair_queries: self.queries.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            peak_group: self.peak_group.load(Ordering::SeqCst),
        }
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
                        assert!(coalescer.pair("s1", session, Equivalence::Observational, p, s));
                        assert!(!coalescer.pair("s1", session, Equivalence::Observational, p, r));
                    }
                });
            }
        });
        let stats = coalescer.stats();
        assert_eq!(stats.pair_queries, 8 * 100);
        // The underlying session ran the refinement exactly once; the
        // coalescer may have formed several short-lived groups (each later
        // leader hits the session cache), but never more batches than
        // queries and at least one.
        assert_eq!(session.refinements_run(), 1);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn distinct_notions_form_distinct_batches() {
        let session = session();
        let coalescer = Coalescer::new();
        let p = session.fsp().state_by_name("p").unwrap();
        let q = session.fsp().state_by_name("q").unwrap();
        let _ = coalescer.pair("s1", &session, Equivalence::Strong, p, q);
        let _ = coalescer.pair("s1", &session, Equivalence::Observational, p, q);
        let stats = coalescer.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.pair_queries, 2);
        assert!(stats.peak_group >= 1);
    }
}
