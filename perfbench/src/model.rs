//! The models the workloads open, and their seeded wire text.
//!
//! Every model names its states `s0 … s{n-1}`, so a state's name carries
//! its index in the generated model.  The wire text lists states and
//! transitions in a seeded order: the server sees a different state
//! numbering per job, while every verdict, stated over names, stays the
//! same.

use std::collections::BTreeSet;

use ccs_fsp::{Fsp, Label};

use crate::minijson::escape;
use crate::Rng;

/// States of every generated model.
pub const STATES: usize = 1024;

/// Window of the `det_blowup` model (subset arena of 7,167 at 1024 states).
pub const DET_WINDOW: usize = 12;

/// Model `i` of the fixed τ-model corpus: a general τ-model of [`STATES`]
/// states from `ccs_workloads::queries::weak_query_batch` (`tau_ratio`
/// 0.3, `accept_ratio` 0.5) with generator seed `i`.
///
/// The corpus does not follow the run seed.  At these parameters the
/// τ-graph sits near its percolation threshold, so the τ-closure of one
/// random model can be several times that of the next: drawing models per
/// seed would make the spread across seeds measure that lottery rather than
/// the server.  The run seed varies everything else — state and transition
/// order on the wire, query pairs, the edit stream.
#[must_use]
pub fn tau_model(i: u64) -> Fsp {
    ccs_workloads::queries::weak_query_batch(STATES, 0, i).fsp
}

/// The `det_blowup(1024, 12)` model.
#[must_use]
pub fn det_model() -> Fsp {
    ccs_workloads::families::det_blowup(STATES, DET_WINDOW)
}

/// One transition by index: `label` is `None` for τ, else the action index.
pub type Edge = (u32, Option<u32>, u32);

/// The edge set of `fsp`.
#[must_use]
pub fn edges(fsp: &Fsp) -> BTreeSet<Edge> {
    fsp.all_transitions()
        .map(|(from, label, to)| (index(from), action_of(label), index(to)))
        .collect()
}

/// Rebuilds a model with `fsp`'s states, alphabet, extensions and start
/// state but the transitions `edges`, through the plain builder — the
/// oracle's own path to a mutated model.
///
/// # Panics
///
/// Panics if an edge names an action `fsp` does not have.
#[must_use]
pub fn with_edges(fsp: &Fsp, edges: &BTreeSet<Edge>) -> Fsp {
    let mut b = Fsp::builder(fsp.name());
    let states: Vec<_> = fsp
        .state_ids()
        .map(|s| b.state(&fsp.state_label(s)))
        .collect();
    let actions: Vec<_> = fsp
        .action_ids()
        .map(|a| b.action(fsp.action_name(a)))
        .collect();
    for s in fsp.state_ids() {
        for &v in fsp.extensions(s) {
            b.add_extension(states[s.index()], fsp.var_name(v));
        }
    }
    for &(from, label, to) in edges {
        let label = label.map_or(Label::Tau, |a| Label::Act(actions[a as usize]));
        b.add_transition(states[from as usize], label, states[to as usize]);
    }
    b.set_start(states[fsp.start().index()]);
    b.build().expect("a rebuilt model keeps its states")
}

/// The `open` request line for `fsp`, with states, extensions and
/// transitions listed in an order drawn from `rng`.
#[must_use]
pub fn open_line(fsp: &Fsp, rng: &mut Rng) -> String {
    let mut order: Vec<_> = fsp.state_ids().collect();
    rng.shuffle(&mut order);
    let mut text = format!("process {}\nstate", fsp.name());
    for &s in &order {
        text.push(' ');
        text.push_str(&fsp.state_label(s));
    }
    text.push_str(&format!("\nstart {}\n", fsp.state_label(fsp.start())));
    for &s in &order {
        let exts = fsp.extensions(s);
        if !exts.is_empty() {
            text.push_str(&format!("ext {}", fsp.state_label(s)));
            for &v in exts {
                text.push(' ');
                text.push_str(fsp.var_name(v));
            }
            text.push('\n');
        }
    }
    let mut trans: Vec<_> = fsp.all_transitions().collect();
    rng.shuffle(&mut trans);
    for (from, label, to) in trans {
        text.push_str(&format!(
            "trans {} {} {}\n",
            fsp.state_label(from),
            fsp.label_name(label),
            fsp.state_label(to)
        ));
    }
    format!(r#"{{"op":"open","format":"fsp","text":{}}}"#, escape(&text))
}

/// The index a state name `s<i>` stands for.
#[must_use]
pub fn state_index(name: &str) -> Option<u32> {
    name.strip_prefix('s')?.parse().ok()
}

/// Checks that `fsp` names state `i` `s<i>` for every `i`, the convention
/// the oracle relies on.
#[must_use]
pub fn names_are_indices(fsp: &Fsp) -> bool {
    fsp.state_ids()
        .all(|s| state_index(&fsp.state_label(s)) == Some(index(s)))
}

fn index(s: ccs_fsp::StateId) -> u32 {
    u32::try_from(s.index()).expect("models stay far below u32::MAX states")
}

fn action_of(label: Label) -> Option<u32> {
    match label {
        Label::Tau => None,
        Label::Act(a) => Some(u32::try_from(a.index()).expect("small alphabet")),
    }
}
