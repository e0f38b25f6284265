//! The traced run: the same seeded request lines, replayed in-process.
//!
//! Each line goes through two in-process [`Service`]s that see the same
//! lines in the same order:
//!
//! * stack **A** answers it with `Service::handle_line` — the
//!   `protocol.handle_line` time of the request;
//! * stack **B** makes the calls the server's own path makes, one public
//!   layer function at a time, each inside a span: `json::parse`,
//!   `format::parse`, `Registry::open`/`get`/`mutate`/`close`, the
//!   session's τ-closure, instances, saturated view and classifications,
//!   `Coalescer::classify`, and the response's serialization.  Calls run in
//!   the server's order, so every lazily built artifact is built by the
//!   same call it would be on the server (the observational `pair` never
//!   builds the saturated view, for instance).
//!
//! Set-up lines are replayed first, to reach the state the timed run began
//! from; their spans are written out but kept out of the metrics.  Spans
//! are flat, so a layer's self time is its span's duration.  Per op,
//! the layer spans must add up to the op's `handle_line` time within
//! [`RECON_REL`] × handle time + [`RECON_ABS_MS`] per request; the
//! difference is reported as `trace.unattributed_ms.<op>`.  Spans stay in
//! memory and are written to [`SPANS_DIR`] when the replay ends.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::time::{Duration, Instant};

use ccs_equiv::Equivalence;
use ccs_fsp::{format, Label, StateId};
use ccs_server::{json, Json, Service};

use crate::minijson::{self, Value};
use crate::oracle::{self, Expect};
use crate::stats::mean;
use crate::wire::{Log, Timed};
use crate::workload::{merge_sessions, Op, Plan, Request, Step, CONNECTIONS, SLOTS};

/// Relative reconciliation tolerance per op.
pub const RECON_REL: f64 = 0.15;
/// Absolute reconciliation tolerance per request, ms.
pub const RECON_ABS_MS: f64 = 0.05;

/// The server's default on-the-fly threshold (`CCS_OTF_THRESHOLD` unset):
/// `pair` on a determinizable notion routes on-the-fly at this many states.
pub const OTF_THRESHOLD: usize = 512;

/// Where span files are written, relative to the working directory.
pub const SPANS_DIR: &str = ".bench_out";

/// Per-layer metrics reported by the traced run, with their units.
/// Metrics without a `<op>` suffix are listed here; the per-op families
/// are added by [`per_layer_metrics`].
const LAYER_METRICS: [(&str, &str); 32] = [
    ("json.parse_ms", "ms"),
    ("json.serialize_ms", "ms"),
    ("json.request_bytes", "bytes"),
    ("json.response_bytes", "bytes"),
    ("fsp.format_parse_ms", "ms"),
    ("registry.open_ms", "ms"),
    ("registry.get_us", "us"),
    ("registry.close_ms", "ms"),
    ("registry.live_sessions", "count"),
    ("batch.classify_hit_us", "us"),
    ("fsp.tau_closure_ms", "ms"),
    ("fsp.closure_pairs", "count"),
    ("equiv.weak_instance_ms", "ms"),
    ("equiv.strong_instance_ms", "ms"),
    ("partition.instance_edges", "count"),
    ("partition.refine_observational_ms", "ms"),
    ("partition.refine_strong_ms", "ms"),
    ("partition.blocks", "count"),
    ("fsp.saturated_view_ms", "ms"),
    ("fsp.weak_edges", "count"),
    ("equiv.arena_classify_ms", "ms"),
    ("equiv.arena_subsets", "count"),
    ("equiv.arena_bytes", "bytes"),
    ("equiv.onthefly_ms", "ms"),
    ("equiv.onthefly_explored", "count"),
    ("equiv.onthefly_explored_share", "ratio"),
    ("equiv.apply_delta_ms.tau_free", "ms"),
    ("equiv.apply_delta_ms.tau_touching", "ms"),
    ("equiv.delta_weak_rows_changed", "count"),
    ("equiv.delta_partitions_refined", "count"),
    ("equiv.delta_arena_dropped_share", "ratio"),
    ("equiv.requery_after_delta_ms", "ms"),
];

/// Every per-layer metric name with its unit, in output order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for family in [
        "wire.overhead_ms",
        "protocol.handle_line_ms",
        "trace.unattributed_ms",
    ] {
        for op in Op::REPORTED {
            out.push((format!("{family}.{}", op.name()), "ms"));
        }
    }
    out.extend(LAYER_METRICS.iter().map(|&(n, u)| (n.to_owned(), u)));
    out.push(("equiv.resident_bytes".to_owned(), "bytes"));
    out
}

/// The span name a layer metric is the mean duration of, and its scale
/// (1 for ms, 1000 for µs).
fn span_of(metric: &str) -> Option<(&'static str, f64)> {
    Some(match metric {
        "json.parse_ms" => ("json.parse", 1.0),
        "json.serialize_ms" => ("json.serialize", 1.0),
        "fsp.format_parse_ms" => ("fsp.format_parse", 1.0),
        "registry.open_ms" => ("registry.open", 1.0),
        "registry.get_us" => ("registry.get", 1e3),
        "registry.close_ms" => ("registry.close", 1.0),
        "batch.classify_hit_us" => ("batch.classify", 1e3),
        "fsp.tau_closure_ms" => ("fsp.tau_closure", 1.0),
        "equiv.weak_instance_ms" => ("equiv.weak_instance", 1.0),
        "equiv.strong_instance_ms" => ("equiv.strong_instance", 1.0),
        "partition.refine_observational_ms" => ("partition.refine_observational", 1.0),
        "partition.refine_strong_ms" => ("partition.refine_strong", 1.0),
        "fsp.saturated_view_ms" => ("fsp.saturated_view", 1.0),
        "equiv.arena_classify_ms" => ("equiv.arena_classify", 1.0),
        "equiv.onthefly_ms" => ("equiv.onthefly", 1.0),
        "equiv.apply_delta_ms.tau_free" => ("equiv.apply_delta.tau_free", 1.0),
        "equiv.apply_delta_ms.tau_touching" => ("equiv.apply_delta.tau_touching", 1.0),
        _ => return None,
    })
}

/// One op's reconciliation.
#[derive(Clone, Debug)]
pub struct Recon {
    /// The op.
    pub op: Op,
    /// Requests of the op replayed.
    pub count: usize,
    /// Sum of `handle_line` times, ms.
    pub handle_ms: f64,
    /// Sum of the layer spans, ms.
    pub layers_ms: f64,
}

impl Recon {
    /// Whether the layer sum is within tolerance of `handle_line`.
    #[must_use]
    pub fn within(&self) -> bool {
        (self.handle_ms - self.layers_ms).abs()
            <= RECON_REL * self.handle_ms + RECON_ABS_MS * self.count as f64
    }
}

/// What the traced run measured.
#[derive(Debug)]
pub struct LayerRun {
    /// Every per-layer metric: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Metrics no replayed request exercised (reported as 0).
    pub not_exercised: Vec<String>,
    /// Per-op reconciliation.
    pub recon: Vec<Recon>,
    /// The layer span with the largest total self time, and that time (ms).
    pub top_layer: (String, f64),
    /// Checks made on the replayed answers.
    pub log: Log,
    /// Jobs replayed (set-up excluded).
    pub jobs: usize,
    /// Where the spans were written, if writing succeeded.
    pub spans_file: Option<String>,
}

#[derive(Debug)]
struct Span {
    req: usize,
    setup: bool,
    stack: char,
    op: Op,
    name: &'static str,
    start: Duration,
    end: Duration,
}

#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    req: usize,
    op: Op,
    /// Set-up requests are replayed to reach the timed run's state, but
    /// their spans and counts stay out of the metrics.
    setup: bool,
}

impl Tracer {
    fn time<T>(&mut self, stack: char, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            req: self.req,
            setup: self.setup,
            stack,
            op: self.op,
            name,
            start,
            end,
        });
        value
    }

    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time('B', name, f)
    }
}

/// Counters and bookkeeping of the B stack.
#[derive(Debug, Default)]
struct Counters {
    /// Whether counts are recorded (off while set-up is replayed).
    recording: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Sessions with a delta since their last observational classify.
    after_delta: HashSet<String>,
    /// Full arena size per session, once a determinized classify ran.
    full_arena: HashMap<String, usize>,
    /// `(session, explored)` of every on-the-fly search.
    explored: Vec<(String, usize)>,
    resident: HashMap<String, usize>,
    resident_peak: usize,
}

impl Counters {
    fn add(&mut self, name: &'static str, value: f64) {
        if self.recording {
            self.samples.entry(name).or_default().push(value);
        }
    }
}

/// Replays set-up and then the timed run's jobs (connections interleaved,
/// job by job) until every timed job is replayed or `budget` has passed.
#[must_use]
pub fn replay(plan: &Plan, timed: &Timed, budget: Duration) -> LayerRun {
    let (a, b) = (Service::default(), Service::default());
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        req: 0,
        op: Op::Ping,
        setup: true,
    };
    let mut counters = Counters::default();
    let mut log = Log::default();
    let mut tables = vec![vec![String::new(); SLOTS]; CONNECTIONS];
    let mut requery = Vec::new();
    let mut run = |step: &Step, table: &mut Vec<String>, tracer: &mut Tracer, log: &mut Log| {
        if step.request.op() == Op::Ping {
            return;
        }
        let line = step.request.render(table).into_owned();
        counters.recording = !tracer.setup;
        tracer.req += 1;
        tracer.op = step.request.op();
        log.attempted += 1;
        // The stacks take turns going first, so neither alone pays for a
        // cold allocator or cache.
        let mut layers = None;
        if tracer.req % 2 == 1 {
            layers = Some(layered(
                &b,
                tracer,
                &mut counters,
                step,
                &line,
                &mut requery,
            ));
        }
        let response = tracer.time('A', "protocol.handle_line", || a.handle_line(&line));
        let layers =
            layers.unwrap_or_else(|| layered(&b, tracer, &mut counters, step, &line, &mut requery));
        counters.add("json.request_bytes", line.len() as f64);
        counters.add("json.response_bytes", response.len() as f64);
        let handle = match oracle::check(&step.expect, &response) {
            Ok(handle) => handle,
            Err(reason) => {
                log.fail(format!("replay {}: {reason}", tracer.op.name()));
                None
            }
        };
        // Stack B's own `classify` answer must match A's byte for byte;
        // other answers are small, and B serializes A's value.
        let layers = layers.and_then(|replayed| match replayed.response {
            Some(built) if built == response => Ok(replayed.created),
            Some(_) => Err("stack B built another response than handle_line".to_owned()),
            None => {
                let value = to_json(&minijson::parse(&response)?);
                tracer.layer("json.serialize", || value.to_string());
                Ok(replayed.created)
            }
        });
        match layers {
            Ok(b_handle) if b_handle == handle => {}
            Ok(_) => {
                log.fail("replay stacks disagree on a handle".to_owned());
            }
            Err(reason) => {
                log.fail(format!("layer replay: {reason}"));
            }
        }
        if let (Some(h), Request::Open { slot, .. }) = (handle, &step.request) {
            table[*slot] = h;
        }
        track_resident(&b, &mut counters, step, table);
    };
    for (c, steps) in plan.setup.iter().enumerate() {
        for step in steps {
            run(step, &mut tables[c], &mut tracer, &mut log);
        }
    }
    let merged = merge_sessions(&tables);
    for t in &mut tables {
        t.clone_from(&merged);
    }
    tracer.setup = false;
    let started = Instant::now();
    let mut jobs = 0;
    for k in 0.. {
        let mut any = false;
        for (c, &done) in timed.jobs_per_conn.iter().enumerate() {
            if k < done {
                any = true;
                for step in plan.job(c, k) {
                    run(&step, &mut tables[c], &mut tracer, &mut log);
                }
                jobs += 1;
            }
        }
        if !any || started.elapsed() > budget {
            break;
        }
    }
    counters
        .samples
        .insert("equiv.requery_after_delta_ms", requery);
    summarize(tracer, counters, log, jobs, timed, plan)
}

/// Stack B: the server's path for `step`, one timed layer call at a time.
fn layered(
    b: &Service,
    t: &mut Tracer,
    counters: &mut Counters,
    step: &Step,
    line: &str,
    requery: &mut Vec<f64>,
) -> Result<Replayed, String> {
    let request = t.layer("json.parse", || json::parse(line))?;
    let field = |key: &str| {
        request
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("request lacks {key:?}"))
    };
    let mut created = None;
    let mut response = None;
    match &step.request {
        Request::Ping => {}
        Request::Open { .. } => {
            let text = field("text")?;
            let fsp = t
                .layer("fsp.format_parse", || format::parse(&text))
                .map_err(|e| e.to_string())?;
            let (id, session) = t.layer("registry.open", || b.registry().open(fsp));
            drop(session);
            created = Some(id);
        }
        Request::Pair { notion, .. } | Request::Classify { notion, .. } => {
            let id = field("session")?;
            let session = t
                .layer("registry.get", || b.registry().get(&id))
                .map_err(|e| e.to_string())?;
            let notion = *notion;
            let pair = match &step.request {
                Request::Pair { .. } => {
                    let fsp = session.fsp();
                    let state = |key: &str| -> Result<StateId, String> {
                        fsp.state_by_name(&field(key)?)
                            .ok_or_else(|| format!("no state {key}"))
                    };
                    Some((state("left")?, state("right")?))
                }
                _ => None,
            };
            let determinized = matches!(
                notion,
                Equivalence::Language | Equivalence::Trace | Equivalence::Failure
            );
            let on_the_fly =
                pair.is_some() && determinized && session.fsp().num_states() >= OTF_THRESHOLD;
            let verdict = match notion {
                Equivalence::Strong | Equivalence::Observational => {
                    let strong = notion == Equivalence::Strong;
                    let refine = if strong {
                        t.layer("equiv.strong_instance", || {
                            session.strong_instance();
                        });
                        "partition.refine_strong"
                    } else {
                        let pairs =
                            t.layer("fsp.tau_closure", || session.tau_closure().num_pairs());
                        counters.add("fsp.closure_pairs", pairs as f64);
                        t.layer("equiv.weak_instance", || {
                            session.weak_instance();
                        });
                        "partition.refine_observational"
                    };
                    let runs = session.refinements_run();
                    let before = t.spans.len();
                    t.layer(refine, || session.classify_all(notion));
                    // Counted only when the refinement ran: reading the
                    // instance's edges can force a CSR merge the server
                    // would not do on a cache hit.
                    if session.refinements_run() > runs {
                        let edges = if strong {
                            session.strong_instance().num_edges()
                        } else {
                            session.weak_instance().num_edges()
                        };
                        counters.add("partition.instance_edges", edges as f64);
                        let blocks = session.classify_all(notion).num_blocks();
                        counters.add("partition.blocks", blocks as f64);
                    }
                    if !strong && counters.after_delta.remove(&id) {
                        let s = &t.spans[before];
                        requery.push((s.end - s.start).as_secs_f64() * 1e3);
                    }
                    None
                }
                _ if determinized => {
                    let pairs = t.layer("fsp.tau_closure", || session.tau_closure().num_pairs());
                    counters.add("fsp.closure_pairs", pairs as f64);
                    let edges = t.layer("fsp.saturated_view", || {
                        session.saturated_view().num_weak_edges()
                    });
                    counters.add("fsp.weak_edges", edges as f64);
                    if let (true, Some((p, q))) = (on_the_fly, pair) {
                        let outcome = t
                            .layer("equiv.onthefly", || session.on_the_fly(notion, p, q))
                            .map_err(|e| e.to_string())?;
                        counters
                            .explored
                            .push((id.clone(), outcome.stats.arena_subsets));
                        counters.add(
                            "equiv.onthefly_explored",
                            outcome.stats.arena_subsets as f64,
                        );
                        Some(outcome.equivalent)
                    } else {
                        t.layer("equiv.arena_classify", || {
                            session.classify_all(notion).num_blocks()
                        });
                        let subsets = session.subset_arena_size();
                        counters.add("equiv.arena_subsets", subsets as f64);
                        counters.add("equiv.arena_bytes", session.subset_arena_bytes() as f64);
                        counters.full_arena.insert(id.clone(), subsets);
                        None
                    }
                }
                other => return Err(format!("the replay does not cover {other}")),
            };
            let verdict = match verdict {
                Some(v) => Some(v),
                None => {
                    let partition = t.layer("batch.classify", || {
                        b.coalescer().classify(&id, &session, notion)
                    });
                    if pair.is_none() {
                        // The server's `classify` answer, built and
                        // serialized as the server does.
                        response = Some(t.layer("json.serialize", || {
                            classify_response(&partition, session.fsp(), notion).to_string()
                        }));
                    }
                    pair.map(|(p, q)| partition.same_block(p.index(), q.index()))
                }
            };
            if let (Some(v), Expect::Verdict(expected)) = (verdict, &step.expect) {
                if v != *expected {
                    return Err(format!("layer path answered {v}, oracle says {expected}"));
                }
            }
        }
        Request::Mutate { edge, add, .. } => {
            let id = field("session")?;
            let session = t
                .layer("registry.get", || b.registry().get(&id))
                .map_err(|e| e.to_string())?;
            let fsp = session.fsp();
            let state = |i: u32| {
                fsp.state_by_name(&format!("s{i}"))
                    .ok_or_else(|| format!("no state s{i}"))
            };
            let label = match edge.label.as_str() {
                "tau" => Label::Tau,
                name => Label::Act(fsp.action_id(name).ok_or("unknown action")?),
            };
            let edges = vec![(state(edge.from)?, label, state(edge.to)?)];
            // Unshare, as the server does, so the delta applies in place.
            drop(session);
            let (adds, removes) = if *add {
                (edges, Vec::new())
            } else {
                (Vec::new(), edges)
            };
            let name = if label == Label::Tau {
                "equiv.apply_delta.tau_touching"
            } else {
                "equiv.apply_delta.tau_free"
            };
            let outcome = t
                .layer(name, || b.registry().mutate(&id, &adds, &removes))
                .map_err(|e| e.to_string())?;
            counters.add(
                "equiv.delta_weak_rows_changed",
                outcome.weak_rows_changed as f64,
            );
            counters.add(
                "equiv.delta_partitions_refined",
                outcome.partitions_delta_refined as f64,
            );
            counters.add(
                "equiv.delta_arena_dropped_share",
                f64::from(u8::from(outcome.arena_dropped)),
            );
            counters.after_delta.insert(id);
        }
        Request::Close { .. } => {
            let id = field("session")?;
            t.layer("registry.close", || b.registry().close(&id));
        }
    }
    Ok(Replayed { created, response })
}

/// What stack B's replay of one request produced.
#[derive(Debug)]
struct Replayed {
    /// The handle an `open` created.
    created: Option<String>,
    /// The response line, when stack B built it itself (`classify`).
    response: Option<String>,
}

/// A `classify` response as `ccs_server::protocol` builds it.
fn classify_response(
    partition: &ccs_partition::Partition,
    fsp: &ccs_fsp::Fsp,
    notion: Equivalence,
) -> Json {
    let label = |i: StateId| {
        fsp.state_name(i)
            .map_or_else(|| fsp.state_label(i), str::to_owned)
    };
    let blocks = partition
        .blocks()
        .iter()
        .map(|block| {
            Json::Arr(
                block
                    .iter()
                    .map(|&i| Json::Str(label(StateId::from_index(i.index()))))
                    .collect(),
            )
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("classes", Json::Num(partition.num_blocks() as i64)),
        ("blocks", Json::Arr(blocks)),
        ("notion", Json::str(notion.to_string())),
    ])
}

/// Samples the live-session count, re-reads the resident bytes of the
/// session `step` touched and keeps the peak over live sessions.
fn track_resident(b: &Service, counters: &mut Counters, step: &Step, table: &[String]) {
    counters.add("registry.live_sessions", b.registry().len() as f64);
    let slot = match &step.request {
        Request::Ping => return,
        Request::Open { slot, .. }
        | Request::Pair { slot, .. }
        | Request::Classify { slot, .. }
        | Request::Mutate { slot, .. }
        | Request::Close { slot } => *slot,
    };
    let id = &table[slot];
    match b.registry().get(id) {
        Ok(session) => {
            counters
                .resident
                .insert(id.clone(), session.approx_resident_bytes());
        }
        Err(_) => {
            counters.resident.remove(id);
        }
    }
    let total = counters.resident.values().sum();
    counters.resident_peak = counters.resident_peak.max(total);
}

fn to_json(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Num(n) => Json::Num(*n as i64),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Arr(items) => Json::Arr(items.iter().map(to_json).collect()),
        Value::Obj(map) => Json::Obj(map.iter().map(|(k, v)| (k.clone(), to_json(v))).collect()),
    }
}

fn summarize(
    tracer: Tracer,
    mut counters: Counters,
    log: Log,
    jobs: usize,
    timed: &Timed,
    plan: &Plan,
) -> LayerRun {
    let ms = |s: &Span| (s.end - s.start).as_secs_f64() * 1e3;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut recon: BTreeMap<Op, Recon> = BTreeMap::new();
    for s in tracer.spans.iter().filter(|s| !s.setup) {
        let r = recon.entry(s.op).or_insert(Recon {
            op: s.op,
            count: 0,
            handle_ms: 0.0,
            layers_ms: 0.0,
        });
        if s.stack == 'A' {
            r.count += 1;
            r.handle_ms += ms(s);
        } else {
            r.layers_ms += ms(s);
            by_name.entry(s.name).or_default().push(ms(s));
        }
    }
    let shares: Vec<f64> = counters
        .explored
        .iter()
        .filter_map(|(id, explored)| {
            let full = *counters.full_arena.get(id)?;
            (full > 0).then(|| *explored as f64 / full as f64)
        })
        .collect();
    counters
        .samples
        .insert("equiv.onthefly_explored_share", shares);
    let mut e2e: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    for &(op, latency) in &timed.log.requests {
        e2e.entry(op).or_default().push(latency);
    }
    let mut metrics = Vec::new();
    let mut not_exercised = Vec::new();
    for (name, unit) in per_layer_metrics() {
        let value = if let Some(rest) = name.strip_prefix("protocol.handle_line_ms.") {
            recon
                .values()
                .find(|r| r.op.name() == rest && r.count > 0)
                .map(|r| r.handle_ms / r.count as f64)
        } else if let Some(rest) = name.strip_prefix("trace.unattributed_ms.") {
            recon
                .values()
                .find(|r| r.op.name() == rest && r.count > 0)
                .map(|r| (r.handle_ms - r.layers_ms) / r.count as f64)
        } else if let Some(rest) = name.strip_prefix("wire.overhead_ms.") {
            let handled = recon
                .values()
                .find(|r| r.op.name() == rest && r.count > 0)
                .map(|r| r.handle_ms / r.count as f64);
            let seen = e2e
                .iter()
                .find(|(op, _)| op.name() == rest)
                .map(|(_, v)| mean(v));
            handled.zip(seen).map(|(h, e)| e - h)
        } else if name == "equiv.resident_bytes" {
            (counters.resident_peak > 0).then_some(counters.resident_peak as f64)
        } else if let Some((span, scale)) = span_of(&name) {
            by_name.get(span).map(|v| mean(v) * scale)
        } else {
            counters
                .samples
                .get(name.as_str())
                .filter(|v| !v.is_empty())
                .map(|v| mean(v))
        };
        if value.is_none() {
            not_exercised.push(name.clone());
        }
        metrics.push((name, value.unwrap_or(0.0), unit));
    }
    let top_layer = by_name
        .iter()
        .map(|(name, v)| ((*name).to_owned(), v.iter().sum::<f64>()))
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .unwrap_or_default();
    let spans_file = write_spans(&tracer, plan).ok();
    LayerRun {
        metrics,
        not_exercised,
        recon: recon.into_values().filter(|r| r.op != Op::Ping).collect(),
        top_layer,
        log,
        jobs,
        spans_file,
    }
}

fn write_spans(tracer: &Tracer, plan: &Plan) -> std::io::Result<String> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = format!(
        "{SPANS_DIR}/spans-{}-seed{}.jsonl",
        plan.workload, plan.seed
    );
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &tracer.spans {
        let parent = if s.stack == 'A' {
            "null".to_owned()
        } else {
            format!("\"req{}\"", s.req)
        };
        writeln!(
            out,
            r#"{{"id":"req{}.{}","req":{},"setup":{},"stack":"{}","op":"{}","name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{}}}"#,
            s.req,
            s.name,
            s.req,
            s.setup,
            s.stack,
            s.op.name(),
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            parent
        )?;
    }
    out.flush()?;
    Ok(path)
}
