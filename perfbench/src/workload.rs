//! The four workloads: what set-up opens and warms, and the seeded job
//! each connection runs next.
//!
//! Every workload is a closed loop over [`CONNECTIONS`] connections; a job
//! is a short list of requests, each paired with the answer the oracle
//! expects.  Jobs are a pure function of `(seed, connection, index)`, so
//! the traced replay sends exactly the lines the timed run sent.

use std::borrow::Cow;

use std::fmt;
use std::sync::Arc;

use ccs_equiv::{failures, traces, Equivalence};
use ccs_fsp::{Fsp, StateId};

use crate::model::{self, Edge};
use crate::oracle::{Classes, Expect};
use crate::Rng;

/// Connections (and load-generator threads) per run.
pub const CONNECTIONS: usize = 2;

/// Session slots a connection can address.
pub const SLOTS: usize = 3;

/// Seeded query pairs drawn per determinized notion on `det_blowup`.
const DET_PAIRS: usize = 16;

/// Length of the `mutate-mix` edit cycle.
const EDIT_PERIOD: usize = 8;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cached `pair`/`classify` answers on warmed sessions.
    WarmQuery,
    /// `open` + `pair` observational + `classify` strong + `close` on a
    /// fresh τ-model per job.
    ColdOpen,
    /// `open` + `pair` trace + `classify` failure + `close` on a permuted
    /// `det_blowup` model per job.
    DetOpen,
    /// `mutate` + `pair` observational + `pair` strong on one owned
    /// session per connection.
    MutateMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmQuery,
        Workload::ColdOpen,
        Workload::DetOpen,
        Workload::MutateMix,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmQuery => "warm-query",
            Workload::ColdOpen => "cold-open",
            Workload::DetOpen => "det-open",
            Workload::MutateMix => "mutate-mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed percentiles `latency_tail_ms` and `job_tail_ms` report:
    /// the tail rule (see [`crate::stats::tail_percentile`]) applied to the
    /// request and job counts a 25-second run reaches on a 2-core host
    /// (about 1130/1130, 340/85, 590/147 and 350/117), fixed so that every
    /// run reports the same percentile.
    #[must_use]
    pub fn tail_percentiles(self) -> (f64, f64) {
        match self {
            Workload::WarmQuery => (99.0, 99.0),
            Workload::ColdOpen => (95.0, 75.0),
            Workload::DetOpen => (95.0, 90.0),
            Workload::MutateMix => (95.0, 90.0),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The kind of a request, as the protocol names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// `ping`
    Ping,
    /// `open`
    Open,
    /// `pair`
    Pair,
    /// `classify`
    Classify,
    /// `mutate`
    Mutate,
    /// `close`
    Close,
}

impl Op {
    /// The ops reported per op, in output order.
    pub const REPORTED: [Op; 5] = [Op::Open, Op::Pair, Op::Classify, Op::Mutate, Op::Close];

    /// The protocol's name for the op.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Open => "open",
            Op::Pair => "pair",
            Op::Classify => "classify",
            Op::Mutate => "mutate",
            Op::Close => "close",
        }
    }
}

/// One `[from, label, to]` edge by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedEdge {
    /// Source state index.
    pub from: u32,
    /// Action name, or `tau`.
    pub label: String,
    /// Target state index.
    pub to: u32,
}

/// One request, addressed to a session slot of the sending connection.
#[derive(Clone, Debug)]
pub enum Request {
    /// `ping`
    Ping,
    /// `open`, with its whole line prebuilt; the new handle fills `slot`.
    Open {
        /// Slot the new session fills.
        slot: usize,
        /// The request line.
        line: Arc<String>,
    },
    /// `pair`
    Pair {
        /// Session slot.
        slot: usize,
        /// Notion.
        notion: Equivalence,
        /// Left state index.
        left: u32,
        /// Right state index.
        right: u32,
    },
    /// `classify`
    Classify {
        /// Session slot.
        slot: usize,
        /// Notion.
        notion: Equivalence,
    },
    /// `mutate` with one added or one removed edge.
    Mutate {
        /// Session slot.
        slot: usize,
        /// The edge.
        edge: NamedEdge,
        /// `true` to add, `false` to remove.
        add: bool,
    },
    /// `close`
    Close {
        /// Session slot.
        slot: usize,
    },
}

impl Request {
    /// The request's op.
    #[must_use]
    pub fn op(&self) -> Op {
        match self {
            Request::Ping => Op::Ping,
            Request::Open { .. } => Op::Open,
            Request::Pair { .. } => Op::Pair,
            Request::Classify { .. } => Op::Classify,
            Request::Mutate { .. } => Op::Mutate,
            Request::Close { .. } => Op::Close,
        }
    }

    /// The request line, given the sending connection's session handles.
    #[must_use]
    pub fn render<'a>(&'a self, sessions: &[String]) -> Cow<'a, str> {
        match self {
            Request::Ping => Cow::Borrowed(r#"{"op":"ping"}"#),
            Request::Open { line, .. } => Cow::Borrowed(line.as_str()),
            Request::Pair {
                slot,
                notion,
                left,
                right,
            } => Cow::Owned(format!(
                r#"{{"op":"pair","session":"{}","notion":"{}","left":"s{left}","right":"s{right}"}}"#,
                sessions[*slot], notion
            )),
            Request::Classify { slot, notion } => Cow::Owned(format!(
                r#"{{"op":"classify","session":"{}","notion":"{}"}}"#,
                sessions[*slot], notion
            )),
            Request::Mutate { slot, edge, add } => Cow::Owned(format!(
                r#"{{"op":"mutate","session":"{}","{}":[["s{}","{}","s{}"]]}}"#,
                sessions[*slot],
                if *add { "add" } else { "remove" },
                edge.from,
                edge.label,
                edge.to
            )),
            Request::Close { slot } => Cow::Owned(format!(
                r#"{{"op":"close","session":"{}"}}"#,
                sessions[*slot]
            )),
        }
    }
}

/// The session handles every connection addresses once set-up is done:
/// each slot filled by whichever connection opened it.
#[must_use]
pub fn merge_sessions(tables: &[Vec<String>]) -> Vec<String> {
    (0..SLOTS)
        .map(|s| {
            tables
                .iter()
                .map(|t| t[s].clone())
                .find(|h| !h.is_empty())
                .unwrap_or_default()
        })
        .collect()
}

/// A request and the answer it must get.
#[derive(Clone, Debug)]
pub struct Step {
    /// The request.
    pub request: Request,
    /// The oracle's expectation.
    pub expect: Expect,
}

/// A τ-model with its oracle classes.
#[derive(Debug)]
struct TauModel {
    fsp: Fsp,
    strong: Arc<Classes>,
    observational: Arc<Classes>,
}

impl TauModel {
    fn new(fsp: Fsp) -> Self {
        assert!(
            model::names_are_indices(&fsp),
            "model states are named s<i>"
        );
        TauModel {
            strong: Arc::new(Classes::of(&fsp, Equivalence::Strong)),
            observational: Arc::new(Classes::of(&fsp, Equivalence::Observational)),
            fsp,
        }
    }

    fn classes(&self, notion: Equivalence) -> &Arc<Classes> {
        match notion {
            Equivalence::Strong => &self.strong,
            _ => &self.observational,
        }
    }
}

/// The `det_blowup` model: oracle classes plus seeded pair pools whose
/// verdicts come from the per-pair checkers.
#[derive(Debug)]
struct DetModel {
    fsp: Fsp,
    trace: Arc<Classes>,
    failure: Arc<Classes>,
    trace_pairs: Vec<(u32, u32, bool)>,
    failure_pairs: Vec<(u32, u32, bool)>,
}

impl DetModel {
    fn new(seed: u64) -> Result<Self, String> {
        let fsp = model::det_model();
        assert!(
            model::names_are_indices(&fsp),
            "model states are named s<i>"
        );
        let trace = Arc::new(Classes::of(&fsp, Equivalence::Trace));
        let failure = Arc::new(Classes::of(&fsp, Equivalence::Failure));
        let pool = |classes: &Classes, tag: u64, check: &dyn Fn(StateId, StateId) -> bool| {
            let mut rng = Rng::new(seed, &[0xDE7, tag]);
            (0..DET_PAIRS)
                .map(|_| {
                    let (p, q) = classes.pick_pair(&mut rng);
                    let verdict = check(id(p), id(q));
                    if verdict == classes.same(p, q) {
                        Ok((p, q, verdict))
                    } else {
                        Err(format!("oracle disagreement on (s{p}, s{q})"))
                    }
                })
                .collect::<Result<Vec<_>, String>>()
        };
        let trace_pairs = pool(&trace, 1, &|p, q| {
            traces::trace_equivalent_states(&fsp, p, q).holds
        })?;
        let failure_pairs = pool(&failure, 2, &|p, q| {
            failures::failure_equivalent_states(&fsp, p, q).equivalent
        })?;
        Ok(DetModel {
            fsp,
            trace,
            failure,
            trace_pairs,
            failure_pairs,
        })
    }

    fn pair(&self, notion: Equivalence, rng: &mut Rng, slot: usize) -> Step {
        let pool = match notion {
            Equivalence::Trace => &self.trace_pairs,
            _ => &self.failure_pairs,
        };
        let (left, right, verdict) = pool[rng.below(pool.len())];
        Step {
            request: Request::Pair {
                slot,
                notion,
                left,
                right,
            },
            expect: Expect::Verdict(verdict),
        }
    }

    fn classes(&self, notion: Equivalence) -> &Arc<Classes> {
        match notion {
            Equivalence::Trace => &self.trace,
            _ => &self.failure,
        }
    }
}

/// One edit of a `mutate-mix` cycle.
#[derive(Clone, Debug)]
struct Edit {
    edge: NamedEdge,
    add: bool,
    tau: bool,
}

/// The `mutate-mix` model — corpus τ-model 1 — with its edit cycle and the
/// oracle classes of every model the cycle passes through.  Each connection
/// runs the cycle on its own session of the model: with one model per
/// connection, the two connections' job times differ enough that the job
/// median lands on the gap between them.
#[derive(Debug)]
struct MutModel {
    /// The model before each edit of the cycle.
    models: Vec<Fsp>,
    cycle: Vec<Edit>,
    /// `(strong, observational)` before each edit of the cycle.
    states: Vec<(Arc<Classes>, Arc<Classes>)>,
}

impl MutModel {
    /// Draws four distinct edges — an existing τ-free edge `f1`, a new
    /// τ-free edge `f2`, a τ-free edge `f3` that may exist, and a τ edge `t`
    /// that may exist — and toggles each twice in the order
    /// `f1 f2 f1 t f3 f2 f3 t`: every fourth edit touches τ, additions and
    /// removals interleave, and the model is back at its base after each
    /// cycle.
    ///
    /// Like the model, the cycle is part of the fixed corpus, not drawn
    /// from the run seed: one τ-free edit costs either a few ms or
    /// 170–430 ms in `apply_delta` depending on where it lands, so a cycle
    /// drawn per seed makes the spread across seeds measure which edges
    /// were drawn.  The run seed picks the query pairs and the state order
    /// of each connection's opened text.
    fn new() -> Self {
        let fsp = model::tau_model(1);
        assert!(
            model::names_are_indices(&fsp),
            "model states are named s<i>"
        );
        let mut rng = Rng::new(1, &[0x3D17]);
        let base = model::edges(&fsp);
        let existing: Vec<Edge> = base.iter().copied().collect();
        let n = fsp.num_states();
        let actions = fsp.num_actions();
        let mut chosen: Vec<Edge> = Vec::new();
        let mut draw = |want_tau: bool, want_existing: bool, rng: &mut Rng| loop {
            let edge = if want_existing {
                existing[rng.below(existing.len())]
            } else {
                let label = (!want_tau).then(|| rng.below(actions) as u32);
                (rng.below(n) as u32, label, rng.below(n) as u32)
            };
            if edge.1.is_none() == want_tau
                && base.contains(&edge) == want_existing
                && !chosen.contains(&edge)
            {
                chosen.push(edge);
                return edge;
            }
        };
        let f1 = draw(false, true, &mut rng);
        let f2 = draw(false, false, &mut rng);
        let coin = rng.below(2) == 0;
        let f3 = draw(false, coin, &mut rng);
        let coin = rng.below(2) == 0;
        let t = draw(true, coin, &mut rng);
        let mut current = base.clone();
        let mut models = Vec::with_capacity(EDIT_PERIOD);
        let mut cycle = Vec::with_capacity(EDIT_PERIOD);
        for edge in [f1, f2, f1, t, f3, f2, f3, t] {
            models.push(model::with_edges(&fsp, &current));
            let add = current.insert(edge);
            if !add {
                current.remove(&edge);
            }
            cycle.push(Edit {
                edge: NamedEdge {
                    from: edge.0,
                    label: edge.1.map_or_else(
                        || "tau".to_owned(),
                        |a| fsp.action_name(action(a)).to_owned(),
                    ),
                    to: edge.2,
                },
                add,
                tau: edge.1.is_none(),
            });
        }
        assert_eq!(current, base, "an edit cycle returns to the base model");
        let states = std::thread::scope(|scope| {
            let halves: Vec<_> = models
                .chunks(EDIT_PERIOD / 2)
                .map(|half| {
                    scope.spawn(move || {
                        half.iter()
                            .map(|m| {
                                (
                                    Arc::new(Classes::of(m, Equivalence::Strong)),
                                    Arc::new(Classes::of(m, Equivalence::Observational)),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        MutModel {
            models,
            cycle,
            states,
        }
    }
}

#[derive(Debug)]
enum Data {
    Warm {
        models: Box<[TauModel; 2]>,
        det: Box<DetModel>,
    },
    Cold(Vec<TauModel>),
    Det(Box<DetModel>),
    Mutate(Box<MutModel>),
}

/// A prepared workload: set-up steps per connection and the oracle data
/// the jobs are drawn from.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// Set-up steps, one list per connection.
    pub setup: Vec<Vec<Step>>,
    data: Data,
}

const STRONG: Equivalence = Equivalence::Strong;
const OBSERVATIONAL: Equivalence = Equivalence::Observational;
const TRACE: Equivalence = Equivalence::Trace;
const FAILURE: Equivalence = Equivalence::Failure;

/// τ-models `cold-open` cycles through (each job opens the next one under
/// a fresh seeded state and transition order).  One: with several, the
/// per-model costs differ enough that a median lands on the gap between
/// two models and jumps from run to run.
const COLD_MODELS: usize = 1;

impl Plan {
    /// Generates the workload's models from `seed` and computes every
    /// expected answer.
    ///
    /// # Errors
    ///
    /// If two oracle paths disagree on a verdict.
    pub fn prepare(workload: Workload, seed: u64) -> Result<Plan, String> {
        let tau_models = |count: usize| -> Vec<TauModel> {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..count)
                    .map(|i| scope.spawn(move || TauModel::new(model::tau_model(i as u64 + 1))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle thread"))
                    .collect()
            })
        };
        let ping = || Step {
            request: Request::Ping,
            expect: Expect::Pong,
        };
        let (setup, data) = match workload {
            Workload::WarmQuery => {
                let det = DetModel::new(seed)?;
                let [a, b]: [TauModel; 2] = tau_models(2).try_into().expect("two models requested");
                let open = |fsp: &Fsp, slot: usize, tag: u64| Step {
                    request: Request::Open {
                        slot,
                        line: Arc::new(model::open_line(fsp, &mut Rng::new(seed, &[0x0BE, tag]))),
                    },
                    expect: Expect::Opened {
                        states: fsp.num_states(),
                    },
                };
                let classify = |slot: usize, notion: Equivalence, classes: &Arc<Classes>| Step {
                    request: Request::Classify { slot, notion },
                    expect: Expect::Classes(Arc::clone(classes)),
                };
                let setup = vec![
                    vec![
                        ping(),
                        open(&a.fsp, 0, 0),
                        classify(0, STRONG, &a.strong),
                        classify(0, OBSERVATIONAL, &a.observational),
                        open(&det.fsp, 2, 2),
                        classify(2, TRACE, &det.trace),
                        classify(2, FAILURE, &det.failure),
                    ],
                    vec![
                        ping(),
                        open(&b.fsp, 1, 1),
                        classify(1, STRONG, &b.strong),
                        classify(1, OBSERVATIONAL, &b.observational),
                    ],
                ];
                (
                    setup,
                    Data::Warm {
                        models: Box::new([a, b]),
                        det: Box::new(det),
                    },
                )
            }
            Workload::ColdOpen => (
                vec![vec![ping()]; CONNECTIONS],
                Data::Cold(tau_models(COLD_MODELS)),
            ),
            Workload::DetOpen => (
                vec![vec![ping()]; CONNECTIONS],
                Data::Det(Box::new(DetModel::new(seed)?)),
            ),
            Workload::MutateMix => {
                let m = MutModel::new();
                let setup = (0..CONNECTIONS)
                    .map(|c| {
                        let start = cycle_start(c);
                        let (strong, observational) = &m.states[start];
                        vec![
                            ping(),
                            Step {
                                request: Request::Open {
                                    slot: c,
                                    line: Arc::new(model::open_line(
                                        &m.models[start],
                                        &mut Rng::new(seed, &[0x0BE, c as u64]),
                                    )),
                                },
                                expect: Expect::Opened {
                                    states: model::STATES,
                                },
                            },
                            Step {
                                request: Request::Classify {
                                    slot: c,
                                    notion: OBSERVATIONAL,
                                },
                                expect: Expect::Classes(Arc::clone(observational)),
                            },
                            Step {
                                request: Request::Classify {
                                    slot: c,
                                    notion: STRONG,
                                },
                                expect: Expect::Classes(Arc::clone(strong)),
                            },
                        ]
                    })
                    .collect();
                (setup, Data::Mutate(Box::new(m)))
            }
        };
        Ok(Plan {
            workload,
            seed,
            setup,
            data,
        })
    }

    /// Job `k` of connection `conn`.
    #[must_use]
    pub fn job(&self, conn: usize, k: usize) -> Vec<Step> {
        let mut rng = Rng::new(self.seed, &[0x70B, conn as u64, k as u64]);
        let pair = |slot: usize, notion: Equivalence, classes: &Classes, rng: &mut Rng| {
            let (left, right) = classes.pick_pair(rng);
            Step {
                request: Request::Pair {
                    slot,
                    notion,
                    left,
                    right,
                },
                expect: Expect::Verdict(classes.same(left, right)),
            }
        };
        let classify = |slot: usize, notion: Equivalence, classes: &Arc<Classes>| Step {
            request: Request::Classify { slot, notion },
            expect: Expect::Classes(Arc::clone(classes)),
        };
        match &self.data {
            Data::Warm { models, det } => {
                // One request per job; every eighth is a `classify`.
                if k % 8 == 7 {
                    let pick = rng.below(6);
                    let step = match pick {
                        0..=3 => {
                            let notion = [STRONG, OBSERVATIONAL][pick % 2];
                            classify(pick / 2, notion, models[pick / 2].classes(notion))
                        }
                        _ => {
                            let notion = if pick == 4 { TRACE } else { FAILURE };
                            classify(2, notion, det.classes(notion))
                        }
                    };
                    return vec![step];
                }
                let step = match rng.below(4) {
                    n @ (0 | 1) => {
                        let notion = if n == 0 { STRONG } else { OBSERVATIONAL };
                        let slot = rng.below(2);
                        pair(slot, notion, models[slot].classes(notion), &mut rng)
                    }
                    2 => det.pair(Equivalence::Trace, &mut rng, 2),
                    _ => det.pair(Equivalence::Failure, &mut rng, 2),
                };
                vec![step]
            }
            Data::Cold(models) => {
                let m = &models[(k * CONNECTIONS + conn) % models.len()];
                vec![
                    Step {
                        request: Request::Open {
                            slot: 0,
                            line: Arc::new(model::open_line(&m.fsp, &mut rng)),
                        },
                        expect: Expect::Opened {
                            states: m.fsp.num_states(),
                        },
                    },
                    pair(0, OBSERVATIONAL, &m.observational, &mut rng),
                    classify(0, STRONG, &m.strong),
                    Step {
                        request: Request::Close { slot: 0 },
                        expect: Expect::Closed,
                    },
                ]
            }
            Data::Det(det) => vec![
                Step {
                    request: Request::Open {
                        slot: 0,
                        line: Arc::new(model::open_line(&det.fsp, &mut rng)),
                    },
                    expect: Expect::Opened {
                        states: det.fsp.num_states(),
                    },
                },
                det.pair(Equivalence::Trace, &mut rng, 0),
                classify(0, FAILURE, &det.failure),
                Step {
                    request: Request::Close { slot: 0 },
                    expect: Expect::Closed,
                },
            ],
            Data::Mutate(m) => {
                let at = cycle_start(conn) + k;
                let edit = &m.cycle[at % EDIT_PERIOD];
                let (strong, observational) = &m.states[(at + 1) % EDIT_PERIOD];
                vec![
                    Step {
                        request: Request::Mutate {
                            slot: conn,
                            edge: edit.edge.clone(),
                            add: edit.add,
                        },
                        expect: Expect::Mutated {
                            added: i64::from(edit.add),
                            removed: i64::from(!edit.add),
                            tau: edit.tau,
                        },
                    },
                    pair(conn, OBSERVATIONAL, observational, &mut rng),
                    pair(conn, STRONG, strong, &mut rng),
                ]
            }
        }
    }
}

/// Where connection `conn` enters the `mutate-mix` cycle: two edits apart,
/// so the connections' τ edits (every fourth) alternate rather than
/// coincide.  A connection opens the model as it stands at its entry point.
fn cycle_start(conn: usize) -> usize {
    2 * conn % EDIT_PERIOD
}

fn id(i: u32) -> StateId {
    StateId::from_index(i as usize)
}

fn action(a: u32) -> ccs_fsp::ActionId {
    ccs_fsp::ActionId::from_index(a as usize)
}
