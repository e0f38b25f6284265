//! [`EquivSession`] — a cached, batched equivalence engine over one process.
//!
//! The free functions of this crate are *one-shot*: every call recomputes
//! the τ-closure and the weak transition relation of Theorem 4.1(a) before
//! it reaches the partition-refinement core, so answering `m` pair queries
//! costs `m` full pipelines.  A session owns one [`Fsp`] and computes each
//! derived artifact **once**, lazily, sharing it across every subsequent
//! query:
//!
//! ```text
//!           Fsp
//!            │
//!       TauClosure  ─────────────┐
//!        │       │               │
//!  SaturatedView  weak edges ──► ccs-partition CSR (weak Instance)
//!        │      │                      │
//!        │  SubsetAutomaton     one memoized Partition
//!        │   (memoized subset    per Equivalence, solved
//!        │    arena)             by the session's solver
//!        │      │
//!        │  PairCache::search ──► pair verdicts and on-the-fly
//!        │      │                 witnesses (one engine)
//!        │  product DFA ──► one refinement classifies
//!        │      │           Language/Trace/Failure
//!        │  ≈ₖ signatures ► one refinement per level
//! ```
//!
//! The PSPACE notions (`Language`, `Trace`, `Failure`, `KObservational`)
//! run on the shared [determinization layer](crate::determinize): one
//! memoized, interned subset automaton per session serves whole-space
//! classification (all `n` start subsets determinized into one product DFA,
//! classified by one partition refinement), individual pair queries (one
//! congruence-pruned synchronized search with a persistent per-notion pair
//! cache, behind both [`EquivSession::equivalent_states`] and
//! [`EquivSession::on_the_fly`]), and the `≈ₖ` hierarchy (each level
//! refines the same arena re-seeded with the previous level's class-set
//! signatures — a whole `k = 1..K` sweep explores once).  The
//! pre-determinization paths survive as oracles:
//! [`EquivSession::representative_scan_partition`] for the determinized
//! notions and [`kobs::kobs_partition`] for the levels.
//!
//! The weak transition relation is streamed straight from
//! [`saturate::weak_edges`](ccs_fsp::saturate::weak_edges) into the
//! [`GraphBuilder`] of `ccs-partition` — no intermediate saturated [`Fsp`]
//! (and no per-state transition vectors) is ever materialized on this path;
//! [`Instance::from_graph`] then adopts the built CSR without an edge-list
//! round-trip.
//!
//! # Shared sessions: the `&self` query path
//!
//! Every query method takes `&self`: the lazy caches live behind
//! [`OnceLock`]s (the big immutable artifacts) and [`Mutex`]es (the
//! grow-on-demand ones — the subset arena, the pair caches, the `≃ₖ`
//! hierarchy), so a built session is [`Sync`] and can be shared via
//! [`Arc`] across worker threads.  This is what the `ccs-server` crate
//! serves concurrent clients from: one resident session, many threads.
//!
//! Partition memoization is **single-flight**: each notion owns one inner
//! `OnceLock`, so when `m` threads race to classify the same notion,
//! exactly one runs the refinement and the other `m − 1` block on the lock
//! and reuse its result.  [`EquivSession::refinements_run`]
//! counts the refinements that actually executed — the counter the server's
//! coalescing stats (and the concurrency tests) observe.
//!
//! # One solver per session
//!
//! A session refines with one [`Algorithm`], fixed when it is built:
//! [`EquivSession::new`] uses Paige–Tarjan with flat edge counters
//! ([`Algorithm::PaigeTarjan`], the `O(m log n)` of Theorem 3.1), and
//! [`EquivSession::with_algorithm`] names another one — the reproduction
//! exhibits and the differential oracles (Kanellakis–Smolka smaller-half
//! and both-halves, the naive method) build sessions that way.  Every
//! solver returns the same canonical partition, so the solver is not part
//! of the memo key, and a session built by [`EquivSession::with_delta`]
//! keeps its parent's solver.
//!
//! # Live mutation
//!
//! A session never changes its process.  [`EquivSession::with_delta`] is a
//! functional update: it applies an edge batch to a copy of the process
//! and returns a new session over it, leaving `self` (and every query
//! still running on it) untouched.  The new session starts cold except
//! for the τ-closure, which it shares with its parent when the batch
//! touched no τ-edge, since `⇒ε` depends on τ-edges alone.  Everything
//! else — saturated view, instances, subset arena, partitions — is rebuilt
//! lazily by the first query that needs it.  That is exact by
//! construction, and the pipeline of Theorems 3.1 and 4.1(a) is cheap
//! enough per artifact that repairing old artifacts in place would not pay
//! for its code.
//!
//! # Amortized cost
//!
//! Per Theorem 4.1(a), one observational-equivalence query costs
//! `O(n·(n+m))` for the closure, `O(n²·|Σ|)` saturated edges, and
//! `O(m̂ log n)` for the refinement.  A session pays this once; each further
//! pair query against the same notion is a two-array lookup
//! ([`Partition::same_block`]), so a batch of `m` queries costs
//! `pipeline + O(m)` instead of `m × pipeline` — the
//! `weak_pipeline` bench and report table measure exactly this gap.
//!
//! # When to prefer a session
//!
//! Use the free functions for a single question about a pair of processes.
//! Use a session when several queries target the same state space: batched
//! pair queries ([`EquivSession::equivalent_pairs`]), whole-space
//! classification ([`EquivSession::classify_all`]), or the same process
//! interrogated under several notions (the τ-closure and saturated CSR are
//! shared across notions).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ccs_fsp::saturate::{tau_closure, weak_edges, SaturatedView, TauClosure};
use ccs_fsp::{ActionId, Fsp, Label, StateId};
use ccs_partition::{solve, Algorithm, GraphBuilder, Instance, Partition};

use crate::check::Equivalence;
use crate::determinize::{self, DetNotion, PairCache, SubsetAutomaton};
use crate::limited::{self, LimitedHierarchy};
use crate::EquivError;
use crate::{failures, kobs, language, strong, traces};

/// One single-flight slot of the partition memo: racing queries for the
/// same key block on the shared inner `OnceLock` and split one result.
type PartitionCell = Arc<OnceLock<Arc<Partition>>>;

/// The mutable half of the determinization layer: the lazily grown subset
/// arena plus one pair cache per notion.  Both mutate on (otherwise
/// read-only) queries, so they share one lock.
#[derive(Debug, Default)]
struct DetState {
    automaton: Option<SubsetAutomaton>,
    pair_caches: HashMap<DetNotion, PairCache>,
}

/// What one [`EquivSession::with_delta`] batch did: the effective edits
/// and what the new session could not inherit.  Returned for diagnostics
/// and reported by the server's `mutate` op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionDeltaOutcome {
    /// Edges that were genuinely added (absent before the batch).
    pub effective_additions: usize,
    /// Edges that were genuinely removed (present before the batch).
    pub effective_removals: usize,
    /// The batch touched τ-transitions, so the new session does not share
    /// its parent's τ-closure.
    pub tau_touched: bool,
    /// Always 0: no weak row is diffed any more.  Kept only because the
    /// benchmark's trace replay reads it; it goes together with that
    /// reader.
    pub weak_rows_changed: usize,
    /// The batch changed the process and the parent session had a subset
    /// arena, which the new session does not inherit.
    pub arena_dropped: bool,
    /// Always 0: no partition is re-solved on mutation.  Kept only because
    /// the benchmark's trace replay reads it; it goes together with that
    /// reader.
    pub partitions_delta_refined: usize,
}

/// A reusable equivalence-checking engine over one process.
///
/// All artifacts are computed lazily on first use and cached for the
/// session's lifetime; the process itself is immutable once the session is
/// created (an edit builds a new session, see
/// [`EquivSession::with_delta`]), which is what makes the caching sound.
/// The query path takes `&self` throughout, so a session wrapped in an
/// [`Arc`] serves concurrent threads (see the [module docs](self) for the
/// locking layout).
///
/// ```
/// use ccs_equiv::{EquivSession, Equivalence};
/// use ccs_fsp::format;
///
/// let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t")?;
/// let session = EquivSession::for_process(&f);
/// let p = f.state_by_name("p").unwrap();
/// let s = f.state_by_name("s").unwrap();
/// let r = f.state_by_name("r").unwrap();
/// // One saturation + one refinement answers every pair.
/// let answers = session.equivalent_pairs(Equivalence::Observational, &[(p, s), (p, r)]);
/// assert_eq!(answers, vec![true, false]);
/// # Ok::<(), ccs_fsp::FspError>(())
/// ```
#[derive(Debug)]
pub struct EquivSession {
    fsp: Fsp,
    /// Shared by `Arc` with the sessions [`EquivSession::with_delta`]
    /// derives over τ-free edits.
    closure: OnceLock<Arc<TauClosure>>,
    view: OnceLock<SaturatedView>,
    strong_instance: OnceLock<Instance>,
    weak_instance: OnceLock<Instance>,
    /// `(rounds it was computed with, hierarchy)` — see `ensure_limited`.
    limited: Mutex<Option<(usize, Arc<LimitedHierarchy>)>>,
    /// The shared memoized subset automaton of the determinization layer
    /// plus the per-notion pair caches (built lazily; serves
    /// Language/Trace/Failure classification and pair queries alike).
    det: Mutex<DetState>,
    /// Single-flight memo: one inner `OnceLock` per notion, so concurrent
    /// queries for the same partition run exactly one refinement.
    partitions: Mutex<HashMap<Equivalence, PartitionCell>>,
    /// Number of partition computations that actually executed (cache
    /// misses) — the coalescing evidence read by `refinements_run`.
    refinements: AtomicUsize,
    /// Number of times the τ-closure was computed from scratch, carried
    /// over by [`EquivSession::with_delta`] — the counter the closure-sharing
    /// tests observe.
    closure_builds: AtomicUsize,
    /// The refinement solver every partition of this session is computed
    /// with, fixed at construction.
    algorithm: Algorithm,
}

impl EquivSession {
    /// Creates a session owning `fsp` that refines with Paige–Tarjan
    /// ([`Algorithm::PaigeTarjan`]), flat-counter edition.
    #[must_use]
    pub fn new(fsp: Fsp) -> Self {
        EquivSession::with_algorithm(fsp, Algorithm::PaigeTarjan)
    }

    /// Creates a session owning `fsp` whose every refinement runs with
    /// `algorithm` — the entry point of the reproduction exhibits and the
    /// cross-solver oracles.
    #[must_use]
    pub fn with_algorithm(fsp: Fsp, algorithm: Algorithm) -> Self {
        EquivSession {
            fsp,
            closure: OnceLock::new(),
            view: OnceLock::new(),
            strong_instance: OnceLock::new(),
            weak_instance: OnceLock::new(),
            limited: Mutex::new(None),
            det: Mutex::new(DetState::default()),
            partitions: Mutex::new(HashMap::new()),
            refinements: AtomicUsize::new(0),
            closure_builds: AtomicUsize::new(0),
            algorithm,
        }
    }

    /// Creates a session over a clone of `fsp` — the delegation path of the
    /// one-shot free functions (the clone is `O(n + m)`, negligible next to
    /// any artifact the session builds).
    #[must_use]
    pub fn for_process(fsp: &Fsp) -> Self {
        EquivSession::new(fsp.clone())
    }

    /// The process this session answers queries about.
    #[must_use]
    pub fn fsp(&self) -> &Fsp {
        &self.fsp
    }

    /// The τ-closure `⇒ε` (computed once).
    pub fn tau_closure(&self) -> &TauClosure {
        self.closure.get_or_init(|| {
            self.closure_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(tau_closure(&self.fsp))
        })
    }

    /// Number of from-scratch τ-closure computations this session and the
    /// sessions it was derived from by [`EquivSession::with_delta`] have
    /// run.  A τ-free batch shares the cached closure, so the counter does
    /// not move; after a τ-touching batch the next weak query bumps it.
    #[must_use]
    pub fn closure_builds(&self) -> usize {
        self.closure_builds.load(Ordering::Relaxed)
    }

    /// The CSR-backed weak transition relation (computed once, from the
    /// cached closure).
    pub fn saturated_view(&self) -> &SaturatedView {
        self.view
            .get_or_init(|| SaturatedView::build(&self.fsp, self.tau_closure()))
    }

    /// The Lemma 3.1 strong-equivalence instance (computed once).
    pub fn strong_instance(&self) -> &Instance {
        self.strong_instance
            .get_or_init(|| strong::to_instance(&self.fsp))
    }

    /// The Theorem 4.1(a) instance: the weak transition relation over
    /// `Σ ∪ {ε}` streamed directly into the partition core's CSR builder —
    /// no intermediate saturated process — with the extension-set initial
    /// partition.  Computed once.
    ///
    /// If the [`SaturatedView`] is already cached its columns are copied
    /// into the builder (an `O(m̂)` slice walk); the expensive closure
    /// products of [`weak_edges`] run only when neither artifact exists yet.
    pub fn weak_instance(&self) -> &Instance {
        self.weak_instance.get_or_init(|| {
            let closure = self.tau_closure();
            let fsp = &self.fsp;
            let eps = fsp.num_actions(); // the ε relation gets the last label
            let mut builder = GraphBuilder::with_edge_capacity(
                fsp.num_states(),
                eps + 1,
                fsp.num_states() + fsp.num_transitions(),
            );
            if let Some(view) = self.view.get() {
                for p in fsp.state_ids() {
                    for a in fsp.action_ids() {
                        builder.extend_edges(
                            view.successors(p, a)
                                .iter()
                                .map(|q| (a.index(), p.index(), q.index())),
                        );
                    }
                    builder.extend_edges(
                        view.epsilon_successors(p)
                            .iter()
                            .map(|q| (eps, p.index(), q.index())),
                    );
                }
            } else {
                builder.extend_edges(weak_edges(fsp, closure).map(|e| {
                    (
                        e.action.map_or(eps, ActionId::index),
                        e.from.index(),
                        e.to.index(),
                    )
                }));
            }
            let mut inst = Instance::from_graph(builder.build());
            for (s, block) in strong::extension_assignment(fsp).into_iter().enumerate() {
                inst.set_initial_block(s, block);
            }
            inst
        })
    }

    /// Ensures the cached `≃ₖ` hierarchy is valid for level `rounds` and
    /// returns it: either it already converged, or it was computed with at
    /// least that many refinement rounds.  One-shot `Limited(k)` queries
    /// therefore stop after `k` rounds (matching the free function) instead
    /// of running to convergence.
    fn ensure_limited(&self, rounds: usize) -> Arc<LimitedHierarchy> {
        let mut slot = self.limited.lock().expect("limited lock poisoned");
        if let Some((computed, hierarchy)) = slot.as_ref() {
            let converged = hierarchy.convergence_round() < *computed;
            if converged || *computed >= rounds {
                return Arc::clone(hierarchy);
            }
        }
        let view = self.saturated_view();
        let hierarchy = Arc::new(limited::hierarchy_from_view(&self.fsp, view, rounds));
        *slot = Some((rounds, Arc::clone(&hierarchy)));
        hierarchy
    }

    /// The full `≃ₖ` refinement sequence up to convergence (computed at
    /// most once from the shared saturated view; bounded prefixes built for
    /// `Limited(k)` queries are extended on demand).
    pub fn limited_hierarchy(&self) -> Arc<LimitedHierarchy> {
        self.ensure_limited(usize::MAX)
    }

    /// Size of the session's shared subset arena (0 until some PSPACE query
    /// builds it).  Read-only; exposed for diagnostics — e.g. in the
    /// report's DET table.
    #[must_use]
    pub fn subset_arena_size(&self) -> usize {
        let det = self.det.lock().expect("det lock poisoned");
        det.automaton
            .as_ref()
            .map_or(0, SubsetAutomaton::num_subsets)
    }

    /// Number of lazily computed subset transitions so far (diagnostic
    /// companion of [`EquivSession::subset_arena_size`]).
    #[must_use]
    pub fn subset_steps_computed(&self) -> usize {
        let det = self.det.lock().expect("det lock poisoned");
        det.automaton
            .as_ref()
            .map_or(0, SubsetAutomaton::steps_computed)
    }

    /// Runs `work` on the shared subset arena (built on first use), the
    /// saturated view it explores, and the per-notion pair caches, all under
    /// the determinization lock.
    fn with_det<R>(
        &self,
        work: impl FnOnce(&mut SubsetAutomaton, &SaturatedView, &mut HashMap<DetNotion, PairCache>) -> R,
    ) -> R {
        let view = self.saturated_view();
        let mut state = self.det.lock().expect("det lock poisoned");
        let DetState {
            automaton,
            pair_caches,
        } = &mut *state;
        let auto = automaton.get_or_insert_with(|| SubsetAutomaton::new(&self.fsp));
        work(auto, view, pair_caches)
    }

    /// The partition of *all* states into `notion`-equivalence classes,
    /// computed with the session's solver and memoized per notion.
    ///
    /// Concurrent callers racing on the same notion are **coalesced**: one of
    /// them runs the computation, the rest block and share its result (see
    /// [`EquivSession::refinements_run`]).
    ///
    /// The PSPACE-complete notions `Language`, `Trace` and `Failure` go
    /// through the shared [determinization layer](crate::determinize): all
    /// `n` ε-closure start subsets are determinized into **one** product
    /// DFA over the session's memoized subset arena and classified by **one**
    /// partition refinement — no per-pair subset construction, no
    /// representative scan.  `KObservational` grows level by level on the
    /// *same* arena: level `k+1` refines the subset DFA re-seeded with
    /// level-`k` class-set signatures, so a whole sweep costs one
    /// exploration plus one linear pass and one refinement per level.
    /// Expect exponential worst-case behaviour in the arena size, exactly
    /// as Theorem 4.1(b)/5.1 demand — but paid once per subset, not once
    /// per pair (or per pair per level).
    pub fn classify_all(&self, notion: Equivalence) -> Arc<Partition> {
        let cell = {
            let mut map = self.partitions.lock().expect("partitions lock poisoned");
            Arc::clone(map.entry(notion).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            self.refinements.fetch_add(1, Ordering::Relaxed);
            Arc::new(self.compute_partition(notion))
        }))
    }

    /// The memoized partition for `notion`, if some call already computed
    /// it.  Computes nothing.
    #[must_use]
    pub fn cached_partition(&self, notion: Equivalence) -> Option<Arc<Partition>> {
        let map = self.partitions.lock().expect("partitions lock poisoned");
        map.get(&notion).and_then(|cell| cell.get()).cloned()
    }

    fn compute_partition(&self, notion: Equivalence) -> Partition {
        let algorithm = self.algorithm;
        match notion {
            Equivalence::Strong => solve(self.strong_instance(), algorithm),
            Equivalence::Observational => solve(self.weak_instance(), algorithm),
            Equivalence::Limited(k) => self.ensure_limited(k).level(k).clone(),
            Equivalence::KObservational(k) => {
                if k == 0 {
                    return Partition::from_assignment(&strong::extension_assignment(&self.fsp));
                }
                // Walk the levels bottom-up so every one lands in the cache
                // (and deep levels never recurse more than one step).  Each
                // level rides the session's shared subset arena: the
                // exploration is memoized, so a k = 1..K sweep explores
                // once and every further level is one signature pass plus
                // one refinement of the re-seeded subset DFA.
                let prev = self.classify_all(Equivalence::KObservational(k - 1));
                self.with_det(|auto, view, _| {
                    kobs::arena_level(auto, view, self.fsp.num_states(), &prev, algorithm)
                })
            }
            Equivalence::Language | Equivalence::Trace | Equivalence::Failure => {
                let det = DetNotion::of(notion).expect("matched a determinizable notion");
                self.with_det(|auto, view, _| {
                    determinize::determinized_partition(
                        auto,
                        view,
                        det,
                        self.fsp.num_states(),
                        algorithm,
                    )
                })
            }
        }
    }

    /// The pre-determinization classification of the PSPACE notions, kept as
    /// a cross-check **oracle**: states are grouped by comparing each one
    /// against one representative per known class with the original
    /// per-pair subset-construction checkers
    /// ([`language`], [`traces`], [`failures`]) — one independent on-the-fly
    /// determinization per `(state, representative)` pair.  The determinized
    /// [`EquivSession::classify_all`] must produce exactly this partition;
    /// the root property suite and the report's DET table assert it.
    ///
    /// The result is *not* memoized (this is the slow path by design).
    ///
    /// # Panics
    ///
    /// Panics if `notion` is not one of `Language`, `Trace`, `Failure`.
    pub fn representative_scan_partition(&self, notion: Equivalence) -> Partition {
        assert!(
            DetNotion::of(notion).is_some(),
            "representative scan only covers the pairwise PSPACE notions"
        );
        let n = self.fsp.num_states();
        let mut assignment = vec![usize::MAX; n];
        let mut representatives: Vec<StateId> = Vec::new();
        for s in (0..n).map(StateId::from_index) {
            let mut found = None;
            for (class, &rep) in representatives.iter().enumerate() {
                if self.oracle_pairwise_equivalent(notion, s, rep) {
                    found = Some(class);
                    break;
                }
            }
            let class = match found {
                Some(c) => c,
                None => {
                    representatives.push(s);
                    representatives.len() - 1
                }
            };
            assignment[s.index()] = class;
        }
        Partition::from_assignment(&assignment)
    }

    /// One pair query with the original subset-construction checkers,
    /// against the cached closure/view — the oracle behind
    /// [`EquivSession::representative_scan_partition`].
    fn oracle_pairwise_equivalent(&self, notion: Equivalence, p: StateId, q: StateId) -> bool {
        match notion {
            Equivalence::Language => {
                let closure = self.tau_closure();
                language::language_equivalent_states_with(&self.fsp, closure, p, q).holds
            }
            Equivalence::Trace => {
                let closure = self.tau_closure();
                traces::trace_equivalent_states_with(&self.fsp, closure, p, q).holds
            }
            Equivalence::Failure => {
                let view = self.saturated_view();
                failures::failure_equivalent_states_with(&self.fsp, view, p, q).equivalent
            }
            _ => unreachable!("oracle only covers the pairwise PSPACE notions"),
        }
    }

    /// One pair query through the determinization layer: the two ε-closure
    /// start subsets are looked up in (or added to) the shared arena and the
    /// notion's [`PairCache::search`] runs, reusing every verdict the
    /// session has already established.
    fn det_pair_equivalent(&self, notion: DetNotion, p: StateId, q: StateId) -> bool {
        self.with_det(|auto, view, caches| {
            let (left, right) = (auto.start(view, p), auto.start(view, q));
            let cache = caches.entry(notion).or_default();
            cache
                .search(auto, view, notion, left, right)
                .refutation
                .is_none()
        })
    }

    /// On-the-fly pair check with witness and exploration stats: the
    /// session's one pair engine ([`PairCache::search`]) over the shared
    /// subset arena, stopping at the first distinguishing pair, with the
    /// distinguishing chain turned into a replayable
    /// [`OtfWitness`](crate::onthefly::OtfWitness).
    ///
    /// The verdict always agrees with [`EquivSession::equivalent_states`] —
    /// both run the same search over the same caches; this entry point adds
    /// the witness on refutation and the
    /// [`OtfStats`](crate::onthefly::OtfStats) counters, without forcing the
    /// full determinized partition.  A pair some earlier query already
    /// refuted answers from the refutation cache with a complete witness.
    /// Everything the search learns — arena subsets, lazy transitions,
    /// proven/refuted pairs — lands in the session caches and accelerates
    /// later queries of any kind.
    ///
    /// # Errors
    ///
    /// [`EquivError::ModelMismatch`] if `notion` has no determinizable face
    /// ([`DetNotion::of`]): the engine covers `language`, `trace` and
    /// `failure`; the branching-time notions need the refinement path.
    pub fn on_the_fly(
        &self,
        notion: Equivalence,
        p: StateId,
        q: StateId,
    ) -> Result<crate::onthefly::OtfOutcome, EquivError> {
        let det = DetNotion::of(notion).ok_or_else(|| EquivError::ModelMismatch {
            expected: format!(
                "a determinizable notion (language, trace, failure) for the \
                 on-the-fly engine; {notion} is decided by partition refinement"
            ),
        })?;
        Ok(self.with_det(|auto, view, caches| {
            let steps_before = auto.steps_computed();
            let (left, right) = (auto.start(view, p), auto.start(view, q));
            let cache = caches.entry(det).or_default();
            let search = cache.search(auto, view, det, left, right);
            crate::onthefly::outcome(&self.fsp, auto, view, cache, det, search, steps_before)
        }))
    }

    /// Tests whether two states are related by `notion`.
    ///
    /// Refinement-backed notions answer from the memoized partition; the
    /// PSPACE notions answer from the memoized pair cache over the shared
    /// subset arena (or a two-array lookup once a batch has forced the full
    /// determinized partition).
    pub fn equivalent_states(&self, p: StateId, q: StateId, notion: Equivalence) -> bool {
        match DetNotion::of(notion) {
            Some(det) => {
                if let Some(partition) = self.cached_partition(notion) {
                    return partition.same_block(p.index(), q.index());
                }
                self.det_pair_equivalent(det, p, q)
            }
            None => self.classify_all(notion).same_block(p.index(), q.index()),
        }
    }

    /// Answers a whole batch of pair queries from **one** refinement: the
    /// `notion`-partition is computed (or fetched) once and each pair is a
    /// two-array lookup.
    ///
    /// Exception: for the PSPACE notions (`Language`, `Trace`, `Failure`) a
    /// *small* batch — fewer pairs than states, with no partition cached
    /// yet — is answered pair by pair through the congruence-pruned
    /// [`PairCache::search`], since full classification determinizes from every
    /// state and would dwarf the batch; the per-pair searches still share
    /// the session's one subset arena and memoize their verdicts.
    pub fn equivalent_pairs(&self, notion: Equivalence, pairs: &[(StateId, StateId)]) -> Vec<bool> {
        let cached = self.cached_partition(notion).is_some();
        if let Some(det) = DetNotion::of(notion) {
            if !cached && pairs.len() < self.fsp.num_states() {
                return pairs
                    .iter()
                    .map(|&(p, q)| self.det_pair_equivalent(det, p, q))
                    .collect();
            }
        }
        let partition = self.classify_all(notion);
        pairs
            .iter()
            .map(|&(p, q)| partition.same_block(p.index(), q.index()))
            .collect()
    }

    /// Number of memoized partitions (diagnostic; used by the cache tests).
    #[must_use]
    pub fn cached_partitions(&self) -> usize {
        let map = self.partitions.lock().expect("partitions lock poisoned");
        map.values().filter(|cell| cell.get().is_some()).count()
    }

    /// Number of partition computations that actually executed, across all
    /// notions.  Because memoization is single-flight, `m` concurrent
    /// queries against one notion bump this by exactly one —
    /// the coalescing evidence the `ccs-server` stats (and the concurrent
    /// integration tests) report.
    #[must_use]
    pub fn refinements_run(&self) -> usize {
        self.refinements.load(Ordering::Relaxed)
    }

    /// Returns a new session over this session's process with an edge batch
    /// applied — removals first, then additions, as in
    /// [`Fsp::apply_edge_delta`] — plus the batch's [`SessionDeltaOutcome`].
    ///
    /// `self` is not touched, so queries running on it finish against the
    /// pre-edit process.  The new session uses the same solver and starts
    /// cold, except that a τ-free batch shares the cached τ-closure (and
    /// carries over [`EquivSession::closure_builds`]): `⇒ε` depends on
    /// τ-edges alone.  Every other artifact, partitions included, is
    /// rebuilt lazily by the first query that needs it.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a state or action outside the process —
    /// a mutation rewires `Δ` over the existing state space and alphabet.
    #[must_use]
    pub fn with_delta(
        &self,
        additions: &[(StateId, Label, StateId)],
        removals: &[(StateId, Label, StateId)],
    ) -> (EquivSession, SessionDeltaOutcome) {
        let mut fsp = self.fsp.clone();
        let (added, removed) = fsp.apply_edge_delta(additions, removals);
        let tau_touched = added
            .iter()
            .chain(&removed)
            .any(|&(_, label, _)| label == Label::Tau);
        let next = EquivSession::with_algorithm(fsp, self.algorithm);
        next.closure_builds
            .store(self.closure_builds(), Ordering::Relaxed);
        if let (false, Some(closure)) = (tau_touched, self.closure.get()) {
            let _ = next.closure.set(Arc::clone(closure));
        }
        let changed = !(added.is_empty() && removed.is_empty());
        // A query holding the lock is growing an arena right now; waiting
        // for it would stall the update behind a PSPACE exploration.
        let had_arena = self
            .det
            .try_lock()
            .map_or(true, |det| det.automaton.is_some());
        let outcome = SessionDeltaOutcome {
            effective_additions: added.len(),
            effective_removals: removed.len(),
            tau_touched,
            arena_dropped: changed && had_arena,
            ..SessionDeltaOutcome::default()
        };
        (next, outcome)
    }

    /// Heap bytes held by the session's subset arena (0 until some PSPACE
    /// query builds it) — the determinization share of
    /// [`EquivSession::approx_resident_bytes`], exposed for the `mem`
    /// report table.
    #[must_use]
    pub fn subset_arena_bytes(&self) -> usize {
        let det = self.det.lock().expect("det lock poisoned");
        det.automaton
            .as_ref()
            .map_or(0, SubsetAutomaton::resident_bytes)
    }

    /// Resident size of the session in bytes: the process itself plus every
    /// cache the session has materialized so far, each measured from its
    /// live container capacities (`resident_bytes` on the artifact).  A
    /// τ-closure shared with a derived session counts in full in both.
    /// Used by the
    /// `ccs-server` registry for LRU byte accounting and by the `mem`
    /// report table.  Allocator slack and per-allocation headers are not
    /// counted, so the figure is a measured lower bound on allocator truth —
    /// but an honest count of what the structures hold, not an element-count
    /// guess.
    #[must_use]
    pub fn approx_resident_bytes(&self) -> usize {
        let mut bytes = self.fsp.resident_bytes();
        if let Some(closure) = self.closure.get() {
            bytes += closure.resident_bytes();
        }
        if let Some(view) = self.view.get() {
            bytes += view.resident_bytes();
        }
        for inst in [self.strong_instance.get(), self.weak_instance.get()]
            .into_iter()
            .flatten()
        {
            bytes += inst.resident_bytes();
        }
        if let Some((_, hierarchy)) = self.limited.lock().expect("limited lock poisoned").as_ref() {
            bytes += hierarchy.resident_bytes();
        }
        {
            let det = self.det.lock().expect("det lock poisoned");
            if let Some(auto) = det.automaton.as_ref() {
                bytes += auto.resident_bytes();
            }
            bytes += det
                .pair_caches
                .values()
                .map(PairCache::resident_bytes)
                .sum::<usize>();
        }
        {
            let map = self.partitions.lock().expect("partitions lock poisoned");
            bytes += map
                .values()
                .filter_map(|cell| cell.get())
                .map(|p| p.resident_bytes())
                .sum::<usize>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{weak, Equivalence};
    use ccs_fsp::format;

    fn table_ii_pair() -> (Fsp, Fsp) {
        // a.(b + c) vs a.b + a.c, restricted — the paper's running example.
        let merged =
            format::parse("trans p a q\ntrans q b r\ntrans q c s\naccept p q r s").unwrap();
        let split =
            format::parse("trans u a v\ntrans u a w\ntrans v b x\ntrans w c y\naccept u v w x y")
                .unwrap();
        (merged, split)
    }

    /// The whole point of the interior-mutability refactor: a built session
    /// is `Send + Sync`, so `Arc<EquivSession>` can fan out across worker
    /// threads.
    #[test]
    fn session_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<EquivSession>();
        assert_shareable::<Arc<EquivSession>>();
    }

    /// Eight threads racing on the same notion must get
    /// byte-identical answers from exactly ONE refinement.
    #[test]
    fn concurrent_queries_coalesce_into_one_refinement() {
        let f = format::parse(
            "trans a tau b\ntrans b x c\ntrans c tau a\ntrans d x e\ntrans e tau d\naccept c e",
        )
        .unwrap();
        let session = Arc::new(EquivSession::for_process(&f));
        let oracle = weak::weak_partition(&f);
        let answers: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let session = Arc::clone(&session);
                    scope.spawn(move || {
                        let states: Vec<StateId> = session.fsp().state_ids().collect();
                        let mut got = Vec::new();
                        for &p in &states {
                            for &q in &states {
                                got.push(session.equivalent_states(
                                    p,
                                    q,
                                    Equivalence::Observational,
                                ));
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let states: Vec<StateId> = f.state_ids().collect();
        let oracle = &oracle;
        let expected: Vec<bool> = states
            .iter()
            .flat_map(|&p| states.iter().map(move |&q| oracle.equivalent(p, q)))
            .collect();
        for got in &answers {
            assert_eq!(got, &expected);
        }
        assert_eq!(session.refinements_run(), 1, "queries did not coalesce");
    }

    #[test]
    fn weak_instance_partition_matches_free_function() {
        let f = format::parse(
            "trans a tau b\ntrans b x c\ntrans c tau a\ntrans d x e\ntrans e tau d\naccept c e",
        )
        .unwrap();
        for alg in Algorithm::ALL {
            let from_session = EquivSession::with_algorithm(f.clone(), alg)
                .classify_all(Equivalence::Observational);
            assert_eq!(
                from_session.as_ref(),
                weak::weak_partition_with(&f, alg).partition(),
                "{alg}"
            );
            // Independent oracle: the pre-refactor pipeline — materialize
            // the saturated process, then refine it — must agree with the
            // streamed session instance.
            let legacy =
                crate::strong::strong_partition_with(&ccs_fsp::saturate::saturate(&f).fsp, alg);
            assert_eq!(
                from_session.as_ref(),
                legacy.partition(),
                "legacy oracle, {alg}"
            );
        }
    }

    /// The session must also agree with the legacy pipeline when the view
    /// is built first and the weak instance is derived from its columns.
    #[test]
    fn weak_instance_derived_from_cached_view_matches_legacy() {
        let f = format::parse(
            "trans p tau q\ntrans q a r\ntrans r tau p\ntrans s a t\ntrans s tau s\naccept r t",
        )
        .unwrap();
        let session = EquivSession::for_process(&f);
        session.saturated_view(); // force the view-copy path of weak_instance
        let from_session = session.classify_all(Equivalence::Observational);
        let legacy = crate::strong::strong_partition(&ccs_fsp::saturate::saturate(&f).fsp);
        assert_eq!(from_session.as_ref(), legacy.partition());
    }

    #[test]
    fn session_agrees_with_dispatch_on_table_ii() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let (p, q) = ccs_fsp::ops::union_starts(&union, &merged, &split);
        let session = EquivSession::new(union.fsp.clone());
        for notion in [
            Equivalence::Strong,
            Equivalence::Observational,
            Equivalence::Limited(2),
            Equivalence::KObservational(1),
            Equivalence::KObservational(2),
            Equivalence::Language,
            Equivalence::Trace,
            Equivalence::Failure,
        ] {
            let expected = crate::Query::new(notion).states(&union.fsp, p, q).unwrap();
            assert_eq!(
                session.equivalent_states(p, q, notion),
                expected,
                "{notion}"
            );
        }
    }

    #[test]
    fn batched_queries_answer_from_one_partition() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t").unwrap();
        let states: Vec<StateId> = f.state_ids().collect();
        let mut pairs = Vec::new();
        for &a in &states {
            for &b in &states {
                pairs.push((a, b));
            }
        }
        let session = EquivSession::for_process(&f);
        let answers = session.equivalent_pairs(Equivalence::Observational, &pairs);
        let wp = weak::weak_partition(&f);
        for (&(a, b), &got) in pairs.iter().zip(&answers) {
            assert_eq!(got, wp.equivalent(a, b), "{a} vs {b}");
        }
        // The whole batch plus the repeat is served by one cached partition.
        assert_eq!(session.cached_partitions(), 1);
        assert_eq!(
            session.equivalent_pairs(Equivalence::Observational, &pairs),
            answers
        );
        assert_eq!(session.cached_partitions(), 1);
        assert_eq!(session.refinements_run(), 1);
    }

    /// The memo is keyed by notion alone: a pair query and a whole-space
    /// classification of the same notion share one cached partition and
    /// one refinement, whichever solver the session was built with.
    #[test]
    fn pair_and_classify_of_one_notion_share_one_refinement() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let (p, q) = ccs_fsp::ops::union_starts(&union, &merged, &split);
        for alg in Algorithm::ALL {
            let session = EquivSession::with_algorithm(union.fsp.clone(), alg);
            assert!(!crate::Query::new(Equivalence::Observational)
                .pair(&session, p, q)
                .unwrap());
            let partition = session.classify_all(Equivalence::Observational);
            assert!(!partition.same_block(p.index(), q.index()));
            assert_eq!(session.cached_partitions(), 1, "{alg}");
            assert_eq!(session.refinements_run(), 1, "{alg}");
        }
    }

    #[test]
    fn kobs_levels_fill_the_cache_bottom_up() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let session = EquivSession::new(union.fsp);
        let _ = session.classify_all(Equivalence::KObservational(2));
        // Levels 0, 1 and 2 are all memoized.
        assert_eq!(session.cached_partitions(), 3);
    }

    #[test]
    fn pairwise_notions_classify_consistently() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let fsp = union.fsp.clone();
        let session = EquivSession::new(union.fsp);
        for notion in [
            Equivalence::Failure,
            Equivalence::Trace,
            Equivalence::Language,
        ] {
            let partition = session.classify_all(notion);
            for p in fsp.state_ids() {
                for q in fsp.state_ids() {
                    let expected = crate::Query::new(notion).states(&fsp, p, q).unwrap();
                    assert_eq!(
                        partition.same_block(p.index(), q.index()),
                        expected,
                        "{notion}: {p} vs {q}"
                    );
                }
            }
        }
    }

    /// The determinized `classify_all` must equal the pre-determinization
    /// representative scan on every PSPACE notion — the oracle the DET
    /// report table and the root property suite also assert.
    #[test]
    fn determinized_classification_matches_representative_scan() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let with_tau = format::parse(
            "trans p tau q\ntrans q a r\ntrans r tau p\ntrans s a t\ntrans s tau s\naccept r t",
        )
        .unwrap();
        for fsp in [union.fsp, with_tau] {
            let session = EquivSession::new(fsp);
            for notion in [
                Equivalence::Language,
                Equivalence::Trace,
                Equivalence::Failure,
            ] {
                let oracle = session.representative_scan_partition(notion);
                let det = session.classify_all(notion);
                assert_eq!(det.as_ref(), &oracle, "{notion}");
            }
        }
    }

    /// Pair queries and whole-space classification share one subset arena:
    /// classifying after a pair query must not rebuild anything, and the
    /// pair cache's verdicts must agree with the partition.
    #[test]
    fn pair_cache_and_classification_share_the_arena() {
        let (merged, split) = table_ii_pair();
        let union = ccs_fsp::ops::disjoint_union(&merged, &split);
        let (p, q) = ccs_fsp::ops::union_starts(&union, &merged, &split);
        let session = EquivSession::new(union.fsp.clone());
        // Pair queries first (the lazy path) …
        assert!(session.equivalent_states(p, q, Equivalence::Language));
        assert!(!session.equivalent_states(p, q, Equivalence::Failure));
        let arena_after_pairs = session.subset_arena_size();
        assert!(arena_after_pairs > 1);
        // … then classification reuses (and extends) the same arena.
        let partition = session.classify_all(Equivalence::Language);
        assert!(partition.same_block(p.index(), q.index()));
        assert!(session.subset_arena_size() >= arena_after_pairs);
        // With the partition memoized, pair queries become lookups that
        // still agree with the cache's earlier verdicts.
        assert!(session.equivalent_states(p, q, Equivalence::Language));
    }

    #[test]
    fn limited_levels_match_free_hierarchy() {
        let f = format::parse("trans s0 a s1\ntrans s1 a s2\ntrans s2 a s3\naccept s3").unwrap();
        let session = EquivSession::for_process(&f);
        for k in 0..5 {
            let free = crate::limited::limited_hierarchy_up_to(&f, k);
            assert_eq!(
                session.classify_all(Equivalence::Limited(k)).as_ref(),
                free.level(k),
                "level {k}"
            );
        }
    }

    #[test]
    fn resident_bytes_grow_with_the_caches() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t").unwrap();
        let session = EquivSession::for_process(&f);
        let fresh = session.approx_resident_bytes();
        session.classify_all(Equivalence::Observational);
        session.classify_all(Equivalence::Language);
        assert!(session.approx_resident_bytes() > fresh);
    }

    /// Resolves an edge triple by name; `None` is a τ-label.
    fn edge(f: &Fsp, from: &str, act: Option<&str>, to: &str) -> (StateId, Label, StateId) {
        let label = match act {
            Some(a) => Label::Act(f.action_id(a).expect("known action")),
            None => Label::Tau,
        };
        (
            f.state_by_name(from).expect("known state"),
            label,
            f.state_by_name(to).expect("known state"),
        )
    }

    /// Every notion the session answers after a delta must agree with a
    /// session built fresh over the mutated process.
    fn assert_matches_fresh(session: &EquivSession) {
        let fresh = EquivSession::for_process(session.fsp());
        for notion in [
            Equivalence::Strong,
            Equivalence::Observational,
            Equivalence::KObservational(1),
            Equivalence::Language,
        ] {
            assert_eq!(
                session.classify_all(notion).as_ref(),
                fresh.classify_all(notion).as_ref(),
                "{notion} diverged from a fresh session"
            );
        }
    }

    #[test]
    fn with_delta_matches_fresh_sessions_across_notions() {
        let f = format::parse(
            "trans p tau q\ntrans q a r\ntrans s a t\ntrans u b v\ntrans w b x\naccept r t v x",
        )
        .unwrap();
        let mut session = EquivSession::for_process(&f);
        // Warm every cache family before the first edit.
        session.classify_all(Equivalence::Strong);
        session.classify_all(Equivalence::Observational);
        session.classify_all(Equivalence::Language);
        type EdgeSpec<'a> = Vec<(&'a str, Option<&'a str>, &'a str)>;
        let batches: [(EdgeSpec, EdgeSpec); 4] = [
            (vec![("w", Some("b"), "v")], vec![]),
            (vec![("p", Some("a"), "r")], vec![("u", Some("b"), "v")]),
            (vec![("s", None, "p")], vec![]), // τ-touching batch
            (vec![], vec![("s", None, "p"), ("w", Some("b"), "v")]),
        ];
        for (adds, removes) in batches {
            let resolve = |specs: &[(&str, Option<&str>, &str)]| {
                specs
                    .iter()
                    .map(|&(a, l, b)| edge(session.fsp(), a, l, b))
                    .collect::<Vec<_>>()
            };
            let (adds, removes) = (resolve(&adds), resolve(&removes));
            let before = session.fsp().clone();
            let next = session.with_delta(&adds, &removes).0;
            // The parent is a snapshot: the update leaves it as it was.
            assert_eq!(session.fsp(), &before);
            assert_matches_fresh(&session);
            session = next;
            assert_matches_fresh(&session);
        }
    }

    #[test]
    fn tau_free_delta_shares_the_closure() {
        let f = format::parse(
            "trans a0 tau a1\ntrans a1 x a2\ntrans b0 x b1\n\
             trans u y v\ntrans v y w\naccept a2 b1 w",
        )
        .unwrap();
        let session = EquivSession::for_process(&f);
        let (a0, b0) = (
            f.state_by_name("a0").unwrap(),
            f.state_by_name("b0").unwrap(),
        );
        assert!(session.equivalent_states(a0, b0, Equivalence::Language));
        assert_eq!(session.closure_builds(), 1);

        let (session, outcome) =
            session.with_delta(&[edge(session.fsp(), "v", Some("y"), "u")], &[]);
        assert!(!outcome.tau_touched);
        assert_eq!(outcome.effective_additions, 1);
        assert!(outcome.arena_dropped, "the new session starts without one");

        assert!(session.equivalent_states(a0, b0, Equivalence::Language));
        assert_eq!(session.closure_builds(), 1, "τ-closure survived the delta");
        assert_matches_fresh(&session);
    }

    #[test]
    fn tau_touching_delta_rebuilds_the_closure() {
        let f = format::parse("trans p tau q\ntrans q a r\ntrans s a t\naccept r t").unwrap();
        let session = EquivSession::for_process(&f);
        session.classify_all(Equivalence::Strong);
        session.classify_all(Equivalence::Observational);
        assert_eq!(session.closure_builds(), 1);

        let (session, outcome) = session.with_delta(&[edge(session.fsp(), "s", None, "p")], &[]);
        assert!(outcome.tau_touched);
        assert!(!outcome.arena_dropped, "no arena was ever built");
        assert_matches_fresh(&session);
        assert_eq!(session.closure_builds(), 2, "τ-touching batch rebuilt ⇒ε");
    }

    /// The arena diagnostics are read-only: asking a fresh session for its
    /// arena size builds no arena, view or closure, so a later τ-touching
    /// delta has no arena to report dropped.
    #[test]
    fn arena_diagnostics_build_nothing() {
        let f = format::parse("trans p tau q\ntrans q a r\naccept r").unwrap();
        let session = EquivSession::for_process(&f);
        assert_eq!(session.subset_arena_size(), 0);
        assert_eq!(session.subset_steps_computed(), 0);
        let (next, outcome) = session.with_delta(&[edge(session.fsp(), "r", None, "p")], &[]);
        assert!(outcome.tau_touched);
        assert!(!outcome.arena_dropped);
        assert_eq!(session.closure_builds(), 0);
        assert_eq!(next.closure_builds(), 0);
    }
}
