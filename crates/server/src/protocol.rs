//! Request dispatch: one JSON object in, one JSON object out.
//!
//! Every request is a single-line JSON object with an `"op"` field; every
//! response is a single-line JSON object with `"ok": true` plus op-specific
//! fields, or `"ok": false` plus the stable error `"code"` (see
//! [`EquivError::code`]) and a human-readable `"message"`.  The full
//! request/response vocabulary is documented in `docs/PROTOCOL.md` at the
//! repository root.
//!
//! `pair` queries on determinizable notions (`language`, `trace`,
//! `failure`) bypass the coalescer and run [`EquivSession::on_the_fly`]:
//! the engine stops at the first distinguishing pair instead of
//! materializing the full determinized partition, and refutations come
//! back with a replayable witness.  The route depends on the notion alone;
//! the response's `"engine"` field says which path answered.

use std::str::FromStr;
use std::sync::Arc;

use ccs_equiv::{EquivError, EquivSession, Equivalence};
use ccs_fsp::{format, Fsp, Label, StateId};

use crate::batch::Coalescer;
use crate::json::{self, Json};
use crate::registry::{Registry, RegistryConfig};

/// The shared, thread-safe request handler: a [`Registry`] of sessions plus
/// the [`Coalescer`] that answers and counts pair queries.  One `Service` serves every connection
/// of a server; it is also usable directly (no socket) for in-process
/// embedding and tests.
#[derive(Debug)]
pub struct Service {
    registry: Registry,
    coalescer: Coalescer,
}

impl Default for Service {
    fn default() -> Self {
        Service::new(RegistryConfig::default())
    }
}

impl Service {
    /// A service with the given registry limits.
    #[must_use]
    pub fn new(config: RegistryConfig) -> Self {
        Service {
            registry: Registry::new(config),
            coalescer: Coalescer::new(),
        }
    }

    /// The session registry (exposed for embedding and tests).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The pair-query layer (exposed for embedding and tests).
    #[must_use]
    pub fn coalescer(&self) -> &Coalescer {
        &self.coalescer
    }

    /// Handles one request line, returning exactly one response line
    /// (without the trailing newline).  Never panics on malformed input —
    /// every failure becomes an `"ok": false` response.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        let response = self
            .parse_request(line)
            .and_then(|request| self.dispatch(&request))
            .unwrap_or_else(|error| {
                Json::obj([
                    ("ok", Json::Bool(false)),
                    ("code", Json::str(error.code())),
                    ("message", Json::str(error.to_string())),
                ])
            });
        response.to_string()
    }

    fn parse_request(&self, line: &str) -> Result<Json, EquivError> {
        let value = json::parse(line).map_err(EquivError::bad_request)?;
        if value.as_obj().is_none() {
            return Err(EquivError::bad_request("request must be a JSON object"));
        }
        Ok(value)
    }

    fn dispatch(&self, request: &Json) -> Result<Json, EquivError> {
        let op = str_field(request, "op")?;
        match op {
            "ping" => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("pong", Json::Bool(true)),
            ])),
            "open" => self.op_open(request),
            "pair" => self.op_pair(request),
            "classify" => self.op_classify(request),
            "partition" => self.op_partition(request),
            "mutate" => self.op_mutate(request),
            "close" => self.op_close(request),
            "stats" => Ok(self.op_stats()),
            other => Err(EquivError::bad_request(format!(
                "unknown op {other:?} (expected one of: ping, open, pair, classify, \
                 partition, mutate, close, stats)"
            ))),
        }
    }

    fn op_open(&self, request: &Json) -> Result<Json, EquivError> {
        let text = str_field(request, "text")?;
        let fsp = match request.get("format").and_then(Json::as_str) {
            None | Some("fsp") => format::parse(text)?,
            Some("ccs") => {
                let expr = ccs_expr::parse(text).map_err(|e| EquivError::Expression {
                    message: e.to_string(),
                })?;
                ccs_expr::construct::representative(&expr)
            }
            Some(other) => {
                return Err(EquivError::bad_request(format!(
                    "unknown format {other:?} (expected \"fsp\" or \"ccs\")"
                )))
            }
        };
        let states = fsp.num_states();
        let transitions = fsp.num_transitions();
        let (id, _) = self.registry.open(fsp);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("session", Json::Str(id)),
            ("states", as_num(states)),
            ("transitions", as_num(transitions)),
        ]))
    }

    fn op_pair(&self, request: &Json) -> Result<Json, EquivError> {
        let session = self.session_of(request)?;
        let notion = notion_field(request)?;
        let p = state_field(&session, request, "left")?;
        let q = state_field(&session, request, "right")?;
        // Determinizable notions skip the coalescer: the on-the-fly engine
        // stops at the first distinguishing pair instead of forcing the
        // whole determinized partition, and everything it learns still
        // lands in the shared session caches.
        let determinizable = matches!(
            notion,
            Equivalence::Language | Equivalence::Trace | Equivalence::Failure
        );
        if determinizable {
            let outcome = session.on_the_fly(notion, p, q)?;
            let mut fields = vec![
                ("ok", Json::Bool(true)),
                ("equivalent", Json::Bool(outcome.equivalent)),
                ("notion", Json::str(notion.to_string())),
                ("engine", Json::str("on-the-fly")),
                ("explored", as_num(outcome.stats.arena_subsets)),
            ];
            if let Some(witness) = outcome.witness {
                let trace = Json::Arr(witness.trace.iter().map(Json::str).collect());
                let refusal = witness.refusal.map_or(Json::Null, |set| {
                    Json::Arr(set.iter().map(Json::str).collect())
                });
                fields.push((
                    "witness",
                    Json::obj([("trace", trace), ("refusal", refusal)]),
                ));
            }
            return Ok(Json::obj(fields));
        }
        let equivalent = self.coalescer.pair(&session, notion, p, q);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("equivalent", Json::Bool(equivalent)),
            ("notion", Json::str(notion.to_string())),
            ("engine", Json::str("coalesced")),
        ]))
    }

    fn op_classify(&self, request: &Json) -> Result<Json, EquivError> {
        let session = self.session_of(request)?;
        let notion = notion_field(request)?;
        let partition = session.classify_all(notion);
        let fsp = session.fsp();
        let blocks: Vec<Json> = partition
            .blocks()
            .iter()
            .map(|block| {
                Json::Arr(
                    block
                        .iter()
                        .map(|&i| Json::str(state_label(fsp, i.index())))
                        .collect(),
                )
            })
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("classes", as_num(partition.num_blocks())),
            ("blocks", Json::Arr(blocks)),
            ("notion", Json::str(notion.to_string())),
        ]))
    }

    fn op_partition(&self, request: &Json) -> Result<Json, EquivError> {
        let session = self.session_of(request)?;
        let notion = notion_field(request)?;
        let partition = session.classify_all(notion);
        let fsp = session.fsp();
        let assignment = partition
            .assignment()
            .enumerate()
            .map(|(i, block)| (state_label(fsp, i), as_num(block)))
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("classes", as_num(partition.num_blocks())),
            ("assignment", Json::Obj(assignment)),
            ("notion", Json::str(notion.to_string())),
        ]))
    }

    fn op_mutate(&self, request: &Json) -> Result<Json, EquivError> {
        let id = str_field(request, "session")?;
        let (additions, removals) = {
            let session = self.registry.get(id)?;
            (
                edge_list(&session, request, "add")?,
                edge_list(&session, request, "remove")?,
            )
        };
        let outcome = self.registry.mutate(id, &additions, &removals)?;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("added", as_num(outcome.effective_additions)),
            ("removed", as_num(outcome.effective_removals)),
            ("tau_touched", Json::Bool(outcome.tau_touched)),
            ("arena_dropped", Json::Bool(outcome.arena_dropped)),
        ]))
    }

    fn op_close(&self, request: &Json) -> Result<Json, EquivError> {
        let id = str_field(request, "session")?;
        let closed = self.registry.close(id);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("closed", Json::Bool(closed)),
        ]))
    }

    fn op_stats(&self) -> Json {
        let registry = self.registry.stats();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("sessions", as_num(registry.sessions)),
            ("resident_bytes", as_num(registry.resident_bytes)),
            ("evictions", as_num(registry.evictions)),
            ("refinements", as_num(registry.refinements)),
            ("pair_queries", as_num(self.coalescer.pair_queries())),
        ])
    }

    fn session_of(&self, request: &Json) -> Result<Arc<EquivSession>, EquivError> {
        self.registry.get(str_field(request, "session")?)
    }
}

fn as_num(n: usize) -> Json {
    Json::Num(i64::try_from(n).unwrap_or(i64::MAX))
}

fn state_label(fsp: &Fsp, index: usize) -> String {
    let id = StateId::from_index(index);
    fsp.state_name(id)
        .map_or_else(|| fsp.state_label(id), str::to_owned)
}

fn str_field<'a>(request: &'a Json, key: &str) -> Result<&'a str, EquivError> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| EquivError::bad_request(format!("missing string field {key:?}")))
}

fn notion_field(request: &Json) -> Result<Equivalence, EquivError> {
    Equivalence::from_str(str_field(request, "notion")?)
}

fn state_field(session: &EquivSession, request: &Json, key: &str) -> Result<StateId, EquivError> {
    resolve_state(session.fsp(), str_field(request, key)?)
}

fn resolve_state(fsp: &Fsp, name: &str) -> Result<StateId, EquivError> {
    if let Some(id) = fsp.state_by_name(name) {
        return Ok(id);
    }
    // Anonymous states (e.g. from the CCS representative construction) are
    // addressed by the same `s<i>` label that `classify` reports for them.
    if let Some(index) = name.strip_prefix('s').and_then(|d| d.parse().ok()) {
        let id = StateId::from_index(index);
        if fsp.contains_state(id) && fsp.state_name(id).is_none() {
            return Ok(id);
        }
    }
    Err(EquivError::bad_request(format!(
        "process has no state named {name:?}"
    )))
}

/// Parses a `mutate` edge list: an array of `[from, label, to]` name
/// triples, where the label is an action name or `"tau"`.  A missing field
/// is an empty list; a mutation rewires the existing state space and
/// alphabet, so unknown names are rejected rather than interned.
fn edge_list(
    session: &EquivSession,
    request: &Json,
    key: &str,
) -> Result<Vec<(StateId, Label, StateId)>, EquivError> {
    let Some(value) = request.get(key) else {
        return Ok(Vec::new());
    };
    let shape = || {
        EquivError::bad_request(format!(
            "field {key:?} must be an array of [from, label, to] name triples"
        ))
    };
    let fsp = session.fsp();
    value
        .as_arr()
        .ok_or_else(shape)?
        .iter()
        .map(|item| {
            let triple = item.as_arr().filter(|t| t.len() == 3).ok_or_else(shape)?;
            let part = |i: usize| triple[i].as_str().ok_or_else(shape);
            let from = resolve_state(fsp, part(0)?)?;
            let to = resolve_state(fsp, part(2)?)?;
            let label = match part(1)? {
                "tau" => Label::Tau,
                name => Label::Act(fsp.action_id(name).ok_or_else(|| {
                    EquivError::bad_request(format!("process has no action named {name:?}"))
                })?),
            };
            Ok((from, label, to))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(service: &Service, text: &str) -> String {
        let escaped = Json::str(text).to_string();
        let response = service.handle_line(&format!(r#"{{"op":"open","text":{escaped}}}"#));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)), "{response}");
        value.get("session").unwrap().as_str().unwrap().to_owned()
    }

    #[test]
    fn open_pair_classify_close_round_trip() {
        let service = Service::default();
        let id = open(&service, "trans p tau q\ntrans q a r\ntrans s a t");

        let response = service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"observational","left":"p","right":"s"}}"#
        ));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("equivalent"), Some(&Json::Bool(true)));

        let response = service.handle_line(&format!(
            r#"{{"op":"classify","session":"{id}","notion":"observational"}}"#
        ));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("classes").and_then(Json::as_i64), Some(2));

        let response = service.handle_line(&format!(
            r#"{{"op":"partition","session":"{id}","notion":"strong"}}"#
        ));
        let value = json::parse(&response).unwrap();
        let assignment = value.get("assignment").unwrap().as_obj().unwrap();
        assert_eq!(assignment.len(), 5);

        let response = service.handle_line(&format!(r#"{{"op":"close","session":"{id}"}}"#));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("closed"), Some(&Json::Bool(true)));

        // The handle is now dead.
        let response = service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"strong","left":"p","right":"q"}}"#
        ));
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-session")
        );
    }

    #[test]
    fn mutate_rewires_a_live_session() {
        let service = Service::default();
        let id = open(
            &service,
            "trans p tau q\ntrans q a r\ntrans s a t\ntrans u a v",
        );
        // Before the edit, s and u are observationally equivalent to p.
        let pair = |left: &str, right: &str| {
            let value = json::parse(&service.handle_line(&format!(
                r#"{{"op":"pair","session":"{id}","notion":"observational","left":"{left}","right":"{right}"}}"#
            )))
            .unwrap();
            value.get("equivalent").and_then(Json::as_bool).unwrap()
        };
        assert!(pair("p", "s"));
        // Rewire: s loses its a-edge to t and instead τ-steps to u.
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"mutate","session":"{id}","add":[["s","tau","u"]],"remove":[["s","a","t"]]}}"#
        )))
        .unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)), "{value:?}");
        assert_eq!(value.get("added").and_then(Json::as_i64), Some(1));
        assert_eq!(value.get("removed").and_then(Json::as_i64), Some(1));
        assert_eq!(value.get("tau_touched"), Some(&Json::Bool(true)));
        // Same handle, new answers: s still weakly does `a`, via u.
        assert!(pair("p", "s"));
        assert!(pair("s", "u"));

        // Unknown names are rejected without touching the session.
        for bad in [
            format!(r#"{{"op":"mutate","session":"{id}","add":[["zz","a","p"]]}}"#),
            format!(r#"{{"op":"mutate","session":"{id}","add":[["p","zap","q"]]}}"#),
            format!(r#"{{"op":"mutate","session":"{id}","add":["p a q"]}}"#),
        ] {
            let value = json::parse(&service.handle_line(&bad)).unwrap();
            assert_eq!(value.get("ok"), Some(&Json::Bool(false)), "{bad}");
            assert_eq!(
                value.get("code").and_then(Json::as_str),
                Some("bad-request"),
                "{bad}"
            );
        }
        let value = json::parse(
            &service.handle_line(r#"{"op":"mutate","session":"s999","add":[["p","a","q"]]}"#),
        )
        .unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-session")
        );
    }

    #[test]
    fn ccs_expressions_open_via_the_representative_construction() {
        let service = Service::default();
        let response = service.handle_line(r#"{"op":"open","format":"ccs","text":"(a+b).c"}"#);
        let value = json::parse(&response).unwrap();
        assert_eq!(value.get("ok"), Some(&Json::Bool(true)), "{response}");
        assert!(value.get("states").and_then(Json::as_i64).unwrap() > 0);
    }

    #[test]
    fn every_failure_mode_has_its_stable_code() {
        let service = Service::default();
        let cases = [
            ("not json at all", "bad-request"),
            (r#"{"op":"warp"}"#, "bad-request"),
            (r#"{"op":"open","text":"trans"}"#, "process"),
            (r#"{"op":"open","format":"ccs","text":"((("}"#, "expression"),
            (
                r#"{"op":"pair","session":"s999","notion":"strong","left":"p","right":"q"}"#,
                "unknown-session",
            ),
        ];
        for (line, code) in cases {
            let value = json::parse(&service.handle_line(line)).unwrap();
            assert_eq!(value.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert_eq!(
                value.get("code").and_then(Json::as_str),
                Some(code),
                "{line}"
            );
        }
        // Unknown notion and unknown state need a live session.
        let id = open(&service, "trans p a q");
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"telepathy","left":"p","right":"q"}}"#
        )))
        .unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("unknown-notion")
        );
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"strong","left":"p","right":"zz"}}"#
        )))
        .unwrap();
        assert_eq!(
            value.get("code").and_then(Json::as_str),
            Some("bad-request")
        );
    }

    #[test]
    fn determinizable_pairs_route_on_the_fly() {
        // The route depends on the notion alone, however small the model.
        let service = Service::default();
        let id = open(
            &service,
            "trans p a q\ntrans p a r\ntrans q b s\ntrans r c s\n\
             trans u a v\ntrans v b w\ntrans v c w\naccept p q r s u v w",
        );
        // a.b + a.c vs a.(b + c): trace-equivalent…
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"trace","left":"p","right":"u"}}"#
        )))
        .unwrap();
        assert_eq!(value.get("equivalent"), Some(&Json::Bool(true)));
        assert_eq!(
            value.get("engine").and_then(Json::as_str),
            Some("on-the-fly")
        );
        assert!(value.get("witness").is_none());
        // …but failure-inequivalent, with a replayable witness in the
        // response: the trace "a" plus a non-empty refusal set.
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"failure","left":"p","right":"u"}}"#
        )))
        .unwrap();
        assert_eq!(value.get("equivalent"), Some(&Json::Bool(false)));
        let witness = value.get("witness").expect("refutation carries a witness");
        let trace = witness.get("trace").unwrap();
        assert_eq!(trace, &Json::Arr(vec![Json::str("a")]));
        assert!(matches!(witness.get("refusal"), Some(Json::Arr(set)) if !set.is_empty()));
        // Branching-time notions use the coalescer.
        let value = json::parse(&service.handle_line(&format!(
            r#"{{"op":"pair","session":"{id}","notion":"observational","left":"p","right":"u"}}"#
        )))
        .unwrap();
        assert_eq!(
            value.get("engine").and_then(Json::as_str),
            Some("coalesced")
        );
    }

    #[test]
    fn stats_report_coalescing_counters() {
        let service = Service::default();
        let id = open(&service, "trans p a q\ntrans r a q");
        for _ in 0..3 {
            let _ = service.handle_line(&format!(
                r#"{{"op":"pair","session":"{id}","notion":"strong","left":"p","right":"r"}}"#
            ));
        }
        let value = json::parse(&service.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(value.get("sessions").and_then(Json::as_i64), Some(1));
        assert_eq!(value.get("pair_queries").and_then(Json::as_i64), Some(3));
        // All three sequential queries hit the session cache after the
        // first: exactly one refinement ever ran.
        assert_eq!(value.get("refinements").and_then(Json::as_i64), Some(1));
        assert!(value.get("resident_bytes").and_then(Json::as_i64).unwrap() > 0);
    }
}
