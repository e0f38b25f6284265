//! The session registry: named, shareable [`EquivSession`]s with LRU
//! eviction under a byte budget.
//!
//! Sessions are handed out as `Arc<EquivSession>` — the session engine is
//! `Sync`, so connection threads query a shared session concurrently while
//! the registry lock is held only for the map lookup or swap, never for
//! session work: not for a refinement, and not for the new session a
//! `mutate` builds.  Resident size is tracked with
//! [`EquivSession::approx_resident_bytes`], which grows as a session
//! materializes its caches; the budget is re-checked on every `open`, so a
//! registry full of warm sessions evicts the least-recently-touched ones
//! first.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ccs_equiv::{EquivError, EquivSession, Equivalence, SessionDeltaOutcome};
use ccs_fsp::{Fsp, Label, StateId};

/// Capacity limits for a [`Registry`].
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Maximum number of live sessions; opening one more evicts the LRU.
    pub max_sessions: usize,
    /// Approximate resident-byte budget across all sessions (see
    /// [`EquivSession::approx_resident_bytes`]).
    pub max_bytes: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_sessions: 64,
            max_bytes: 256 << 20,
        }
    }
}

#[derive(Debug)]
struct Entry {
    session: Arc<EquivSession>,
    touched: u64,
}

#[derive(Debug, Default)]
struct Inner {
    sessions: HashMap<String, Entry>,
    clock: u64,
    next_id: u64,
}

/// A registry of open sessions, keyed by server-assigned handles (`"s1"`,
/// `"s2"`, …).
#[derive(Debug)]
pub struct Registry {
    config: RegistryConfig,
    inner: Mutex<Inner>,
    evictions: AtomicUsize,
    /// Test hook: when armed, the next `mutate` parks between building its
    /// new session and swapping it in.
    #[cfg(test)]
    park: Mutex<Option<tests::Park>>,
}

/// A point-in-time summary of the registry, reported by the `stats` op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryStats {
    /// Number of live sessions.
    pub sessions: usize,
    /// Sum of the sessions' approximate resident bytes.
    pub resident_bytes: usize,
    /// Sessions evicted under pressure since the registry was created.
    pub evictions: usize,
    /// Sum of [`EquivSession::refinements_run`] across live sessions — the
    /// coalescing evidence: it counts partition computations that actually
    /// executed, not queries served.
    pub refinements: usize,
}

impl Registry {
    /// An empty registry with the given limits.
    #[must_use]
    pub fn new(config: RegistryConfig) -> Self {
        Registry {
            config,
            inner: Mutex::new(Inner::default()),
            evictions: AtomicUsize::new(0),
            #[cfg(test)]
            park: Mutex::new(None),
        }
    }

    /// An empty registry with [`RegistryConfig::default`] limits.
    #[must_use]
    pub fn with_defaults() -> Self {
        Registry::new(RegistryConfig::default())
    }

    /// Opens a session over `fsp`, returning its handle and the shared
    /// session.  May evict least-recently-used sessions to respect the
    /// configured limits (the new session itself is never evicted).
    pub fn open(&self, fsp: Fsp) -> (String, Arc<EquivSession>) {
        let session = Arc::new(EquivSession::new(fsp));
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.next_id += 1;
        inner.clock += 1;
        let id = format!("s{}", inner.next_id);
        let touched = inner.clock;
        inner.sessions.insert(
            id.clone(),
            Entry {
                session: Arc::clone(&session),
                touched,
            },
        );
        self.evict_to_fit(&mut inner, &id);
        (id, session)
    }

    /// Evicts LRU entries (sparing `keep`) until both limits hold.
    fn evict_to_fit(&self, inner: &mut Inner, keep: &str) {
        loop {
            let over_count = inner.sessions.len() > self.config.max_sessions;
            let over_bytes = inner
                .sessions
                .values()
                .map(|e| e.session.approx_resident_bytes())
                .sum::<usize>()
                > self.config.max_bytes;
            if !(over_count || over_bytes) {
                return;
            }
            let victim = inner
                .sessions
                .iter()
                .filter(|(id, _)| id.as_str() != keep)
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(id, _)| id.clone());
            match victim {
                Some(id) => {
                    inner.sessions.remove(&id);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Only the protected newcomer is left; the budget simply
                // cannot be met for this process — serve it anyway.
                None => return,
            }
        }
    }

    /// Looks up a session and marks it most-recently-used.
    ///
    /// # Errors
    ///
    /// [`EquivError::UnknownSession`] if the handle was never issued, was
    /// closed, or has been evicted.
    pub fn get(&self, id: &str) -> Result<Arc<EquivSession>, EquivError> {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.clock += 1;
        let now = inner.clock;
        match inner.sessions.get_mut(id) {
            Some(entry) => {
                entry.touched = now;
                Ok(Arc::clone(&entry.session))
            }
            None => Err(EquivError::UnknownSession { id: id.to_owned() }),
        }
    }

    /// Applies an edge delta to the named session — the `mutate` op.  The
    /// handle then names a new session over the edited process, built by
    /// [`EquivSession::with_delta`] outside the registry lock; the lock is
    /// taken only to swap it in.  Queries already running on the old
    /// session finish against the pre-edit process, and every lookup after
    /// the swap sees the new one.  After the swap, still outside the lock,
    /// the new session solves the `Strong` and `Observational` partitions
    /// the old one had cached, so the handle stays as warm as it was.  The
    /// registry lets go of the old session first, so unless a query still
    /// holds it, the two are not resident at once.
    ///
    /// The swap happens only if the handle still names the session the
    /// update was built from.  If another `mutate` swapped first, the batch
    /// is applied again to the newer session, so no edit is lost.  A batch
    /// with no effective edit swaps nothing, and the warm session stays.
    ///
    /// # Errors
    ///
    /// [`EquivError::UnknownSession`] if the handle was never issued, was
    /// closed, or has been evicted.
    pub fn mutate(
        &self,
        id: &str,
        additions: &[(StateId, Label, StateId)],
        removals: &[(StateId, Label, StateId)],
    ) -> Result<SessionDeltaOutcome, EquivError> {
        loop {
            let base = self.get(id)?;
            let (next, outcome) = base.with_delta(additions, removals);
            if outcome.effective_additions == 0 && outcome.effective_removals == 0 {
                return Ok(outcome);
            }
            #[cfg(test)]
            self.park_if_armed();
            let mut inner = self.inner.lock().expect("registry lock poisoned");
            inner.clock += 1;
            let now = inner.clock;
            let entry = inner
                .sessions
                .get_mut(id)
                .ok_or_else(|| EquivError::UnknownSession { id: id.to_owned() })?;
            if Arc::ptr_eq(&entry.session, &base) {
                let next = Arc::new(next);
                entry.session = Arc::clone(&next);
                entry.touched = now;
                drop(inner);
                let warm: Vec<Equivalence> = [Equivalence::Strong, Equivalence::Observational]
                    .into_iter()
                    .filter(|&notion| base.cached_partition(notion).is_some())
                    .collect();
                drop(base);
                for notion in warm {
                    next.classify_all(notion);
                }
                return Ok(outcome);
            }
        }
    }

    /// Closes a session; `true` if it existed.
    pub fn close(&self, id: &str) -> bool {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        inner.sessions.remove(id).is_some()
    }

    /// Number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("registry lock poisoned")
            .sessions
            .len()
    }

    /// Whether the registry holds no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time stats over the live sessions.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry lock poisoned");
        let (mut bytes, mut refinements) = (0, 0);
        for entry in inner.sessions.values() {
            bytes += entry.session.approx_resident_bytes();
            refinements += entry.session.refinements_run();
        }
        RegistryStats {
            sessions: inner.sessions.len(),
            resident_bytes: bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            refinements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_fsp::format;
    use std::sync::mpsc;

    fn small_fsp(tag: usize) -> Fsp {
        format::parse(&format!("trans p{tag} a q{tag}\ntrans q{tag} b p{tag}")).unwrap()
    }

    #[test]
    fn handles_are_unique_and_resolvable() {
        let registry = Registry::with_defaults();
        let (a, _) = registry.open(small_fsp(0));
        let (b, _) = registry.open(small_fsp(1));
        assert_ne!(a, b);
        assert!(registry.get(&a).is_ok());
        assert!(registry.get(&b).is_ok());
        assert_eq!(registry.len(), 2);
        assert!(registry.close(&a));
        assert!(!registry.close(&a));
        let err = registry.get(&a).unwrap_err();
        assert_eq!(err.code(), "unknown-session");
    }

    #[test]
    fn session_count_limit_evicts_lru() {
        let registry = Registry::new(RegistryConfig {
            max_sessions: 2,
            max_bytes: usize::MAX,
        });
        let (a, _) = registry.open(small_fsp(0));
        let (b, _) = registry.open(small_fsp(1));
        // Touch `a` so `b` becomes the LRU.
        registry.get(&a).unwrap();
        let (c, _) = registry.open(small_fsp(2));
        assert_eq!(registry.len(), 2);
        assert!(registry.get(&a).is_ok());
        assert!(registry.get(&b).is_err(), "LRU session should be evicted");
        assert!(registry.get(&c).is_ok());
        assert_eq!(registry.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_warm_sessions_but_never_the_newcomer() {
        let registry = Registry::new(RegistryConfig {
            max_sessions: usize::MAX,
            max_bytes: 1, // nothing fits
        });
        let (a, sa) = registry.open(small_fsp(0));
        // Warm `a` so it holds caches (and more resident bytes).
        let _ = sa.classify_all(Equivalence::Observational);
        assert!(
            registry.get(&a).is_ok(),
            "sole session survives over-budget"
        );
        let (b, _) = registry.open(small_fsp(1));
        // Opening `b` must evict `a` (budget broken) but keep `b` itself.
        assert!(registry.get(&a).is_err());
        assert!(registry.get(&b).is_ok());
    }

    #[test]
    fn mutate_swaps_in_a_session_over_the_edited_process() {
        let registry = Registry::with_defaults();
        let (id, session) = registry.open(small_fsp(0));
        let f = session.fsp().clone();
        let (p, q) = (
            f.state_by_name("p0").unwrap(),
            f.state_by_name("q0").unwrap(),
        );
        let a = Label::Act(f.action_id("a").unwrap());
        let b = Label::Act(f.action_id("b").unwrap());
        assert!(!session.equivalent_states(p, q, Equivalence::Strong));
        // Make the two states symmetric: q0 gains a's and loses b's mirror.
        let outcome = registry
            .mutate(&id, &[(q, a, p)], &[(q, b, p)])
            .expect("live session");
        assert_eq!(outcome.effective_additions, 1);
        assert_eq!(outcome.effective_removals, 1);
        let current = registry.get(&id).unwrap();
        assert!(
            current.cached_partition(Equivalence::Strong).is_some(),
            "the partition cached before the edit is solved again"
        );
        assert!(current
            .cached_partition(Equivalence::Observational)
            .is_none());
        assert!(current.equivalent_states(p, q, Equivalence::Strong));
        // The handle still held from before is a snapshot of the old process.
        assert!(!session.equivalent_states(p, q, Equivalence::Strong));
        let outcome = registry.mutate(&id, &[(q, b, p)], &[]).unwrap();
        assert_eq!(outcome.effective_additions, 1);
        assert!(!registry
            .get(&id)
            .unwrap()
            .equivalent_states(p, q, Equivalence::Strong));
        assert!(registry.mutate("nope", &[], &[]).is_err());
    }

    #[test]
    fn noop_mutate_keeps_the_warm_session() {
        let registry = Registry::with_defaults();
        let (id, session) = registry.open(small_fsp(0));
        let strong = session.classify_all(Equivalence::Strong);
        let f = session.fsp();
        let (p, q) = (
            f.state_by_name("p0").unwrap(),
            f.state_by_name("q0").unwrap(),
        );
        let a = Label::Act(f.action_id("a").unwrap());
        // Already present + never present: both edits are ineffective.
        let outcome = registry.mutate(&id, &[(p, a, q)], &[(p, a, p)]).unwrap();
        assert_eq!(outcome, SessionDeltaOutcome::default());
        let current = registry.get(&id).unwrap();
        assert!(Arc::ptr_eq(&session, &current), "no new session swapped in");
        assert!(Arc::ptr_eq(
            &strong,
            &current.classify_all(Equivalence::Strong)
        ));
    }

    /// A mutate parked after building its new session holds no registry
    /// lock: a query on another session and an `open` both complete
    /// meanwhile (with the lock held, they would hang).
    #[test]
    fn a_parked_mutate_blocks_no_other_request() {
        let registry = Registry::with_defaults();
        let (id_a, session_a) = registry.open(small_fsp(0));
        let (id_b, _) = registry.open(small_fsp(1));
        let f = session_a.fsp().clone();
        let (p, q) = (
            f.state_by_name("p0").unwrap(),
            f.state_by_name("q0").unwrap(),
        );
        let a = Label::Act(f.action_id("a").unwrap());
        let (parked, release) = registry.arm_park();
        std::thread::scope(|scope| {
            let mutating = scope.spawn(|| registry.mutate(&id_a, &[(q, a, p)], &[]));
            parked.recv().expect("mutate parks");
            let session_b = registry.get(&id_b).unwrap();
            let g = session_b.fsp();
            let (p1, q1) = (
                g.state_by_name("p1").unwrap(),
                g.state_by_name("q1").unwrap(),
            );
            assert!(!session_b.equivalent_states(p1, q1, Equivalence::Strong));
            let (id_c, _) = registry.open(small_fsp(2));
            assert!(registry.get(&id_c).is_ok());
            release.send(()).unwrap();
            let outcome = mutating.join().unwrap().expect("live session");
            assert_eq!(outcome.effective_additions, 1);
        });
        assert!(registry.get(&id_a).unwrap().fsp().has_transition(q, a, p));
    }

    /// Two mutates of one handle race: the first is parked before its
    /// swap while the second completes.  The first then finds the handle
    /// moved on, re-applies its batch to the newer session, and the final
    /// process carries both edits.
    #[test]
    fn racing_mutates_of_one_handle_keep_both_edits() {
        let registry = Registry::with_defaults();
        let (id, session) = registry.open(small_fsp(0));
        let f = session.fsp().clone();
        let (p, q) = (
            f.state_by_name("p0").unwrap(),
            f.state_by_name("q0").unwrap(),
        );
        let a = Label::Act(f.action_id("a").unwrap());
        let b = Label::Act(f.action_id("b").unwrap());
        let (first, second) = ((q, a, p), (p, b, q));
        let (parked, release) = registry.arm_park();
        std::thread::scope(|scope| {
            let racing = scope.spawn(|| registry.mutate(&id, &[first], &[]));
            parked.recv().expect("first mutate parks");
            let outcome = registry.mutate(&id, &[second], &[]).unwrap();
            assert_eq!(outcome.effective_additions, 1);
            release.send(()).unwrap();
            let outcome = racing.join().unwrap().expect("live session");
            assert_eq!(outcome.effective_additions, 1);
        });
        let current = registry.get(&id).unwrap();
        for (from, label, to) in [first, second] {
            assert!(current.fsp().has_transition(from, label, to));
        }
        assert_eq!(current.fsp().num_transitions(), f.num_transitions() + 2);
    }

    #[test]
    fn stats_aggregate_refinements() {
        let registry = Registry::with_defaults();
        let (_, s1) = registry.open(small_fsp(0));
        let (_, s2) = registry.open(small_fsp(1));
        let _ = s1.classify_all(Equivalence::Strong);
        let _ = s1.classify_all(Equivalence::Strong); // cached, not re-run
        let _ = s2.classify_all(Equivalence::Strong);
        let stats = registry.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.refinements, 2);
        assert!(stats.resident_bytes > 0);
    }

    /// An armed [`Registry::mutate`] hook: the mutate signals `parked` once
    /// its new session is built, then waits for `release` before it takes
    /// the registry lock to swap.
    #[derive(Debug)]
    pub(super) struct Park {
        parked: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl Registry {
        /// Parks the calling mutate if a test armed the hook; only the
        /// first mutate after arming parks.
        pub(super) fn park_if_armed(&self) {
            let armed = self.park.lock().expect("park lock poisoned").take();
            if let Some(park) = armed {
                park.parked.send(()).expect("test waits for the park");
                park.release.recv().expect("test releases the park");
            }
        }

        /// Arms the hook; returns the "parked" receiver and the "release"
        /// sender.
        fn arm_park(&self) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (parked, parked_rx) = mpsc::channel();
            let (release_tx, release) = mpsc::channel();
            *self.park.lock().expect("park lock poisoned") = Some(Park { parked, release });
            (parked_rx, release_tx)
        }
    }
}
