//! Expected answers, computed at set-up through another path than the
//! server's, and the check every response goes through.
//!
//! The server classifies with Paige–Tarjan; the oracle classifies with
//! [`ORACLE_SOLVER`], and on-the-fly `pair` answers are checked against the
//! per-pair subset-construction checkers of `ccs_equiv::traces` and
//! `ccs_equiv::failures`.

use std::sync::Arc;

use ccs_equiv::{EquivSession, Equivalence};
use ccs_fsp::Fsp;
use ccs_partition::{Algorithm, Partition};

use crate::minijson::{self, Value};
use crate::model::state_index;
use crate::Rng;

/// The refinement solver the oracle uses.
pub const ORACLE_SOLVER: Algorithm = Algorithm::Naive;

/// A partition of the states `0..n`, stored as each state's least
/// class-mate (a canonical labelling, so two partitions are equal exactly
/// when their vectors are).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classes {
    least: Vec<u32>,
    groups: Vec<Vec<u32>>,
}

impl Classes {
    /// From each state's class label.
    #[must_use]
    pub fn from_labels(labels: &[usize]) -> Self {
        let mut first = std::collections::HashMap::new();
        let least: Vec<u32> = labels
            .iter()
            .enumerate()
            .map(|(i, &label)| *first.entry(label).or_insert(i as u32))
            .collect();
        let mut members: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        for (i, &l) in least.iter().enumerate() {
            members.entry(l).or_default().push(i as u32);
        }
        let groups = members.into_values().filter(|g| g.len() > 1).collect();
        Classes { least, groups }
    }

    /// From a solver's partition.
    #[must_use]
    pub fn from_partition(partition: &Partition) -> Self {
        Classes::from_labels(&partition.assignment().collect::<Vec<_>>())
    }

    /// `notion`'s classes of `fsp`, computed with [`ORACLE_SOLVER`].
    #[must_use]
    pub fn of(fsp: &Fsp, notion: Equivalence) -> Self {
        let session = EquivSession::with_algorithm(fsp.clone(), ORACLE_SOLVER);
        Classes::from_partition(&session.classify_all(notion))
    }

    /// Whether states `p` and `q` share a class.
    #[must_use]
    pub fn same(&self, p: u32, q: u32) -> bool {
        self.least[p as usize] == self.least[q as usize]
    }

    /// A seeded query pair: half the time two distinct members of one
    /// class (when a class has two), otherwise two uniform states, so the
    /// expected verdicts are not all `false`.
    pub fn pick_pair(&self, rng: &mut Rng) -> (u32, u32) {
        let n = self.least.len();
        if !self.groups.is_empty() && rng.below(2) == 0 {
            let group = &self.groups[rng.below(self.groups.len())];
            let i = rng.below(group.len());
            let j = (i + 1 + rng.below(group.len() - 1)) % group.len();
            (group[i], group[j])
        } else {
            (rng.below(n) as u32, rng.below(n) as u32)
        }
    }

    /// Reads the `"blocks"` of a `classify` response (state names) into
    /// classes over `n` states; `None` unless every state appears exactly
    /// once.
    #[must_use]
    pub fn from_blocks(blocks: &Value, n: usize) -> Option<Self> {
        let Value::Arr(blocks) = blocks else {
            return None;
        };
        let mut labels = vec![usize::MAX; n];
        for (b, block) in blocks.iter().enumerate() {
            let Value::Arr(names) = block else {
                return None;
            };
            for name in names {
                let Value::Str(name) = name else {
                    return None;
                };
                let i = state_index(name).filter(|&i| (i as usize) < n)? as usize;
                if labels[i] != usize::MAX {
                    return None;
                }
                labels[i] = b;
            }
        }
        labels
            .iter()
            .all(|&l| l != usize::MAX)
            .then(|| Classes::from_labels(&labels))
    }
}

/// What a response must say.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `ping` answers `pong`.
    Pong,
    /// `open` answers a session over this many states.
    Opened {
        /// Expected state count.
        states: usize,
    },
    /// `pair` answers this verdict.
    Verdict(bool),
    /// `classify` answers exactly these classes.
    Classes(Arc<Classes>),
    /// `mutate` reports these effective counts and τ flag.
    Mutated {
        /// Edges genuinely added.
        added: i64,
        /// Edges genuinely removed.
        removed: i64,
        /// Whether the edit touched τ.
        tau: bool,
    },
    /// `close` answers `closed: true`.
    Closed,
}

/// Checks one response line against `expect`.  Returns the new session
/// handle for an `open`.
///
/// # Errors
///
/// A one-line reason when the response is an error, malformed, or wrong.
pub fn check(expect: &Expect, response: &str) -> Result<Option<String>, String> {
    let value = minijson::parse(response).map_err(|e| format!("unreadable response: {e}"))?;
    if value.bool_at("ok") != Some(true) {
        return Err(format!(
            "error response: {}",
            value.str_at("code").unwrap_or("no code")
        ));
    }
    let wrong = |what: &str| Err(format!("wrong {what}: {}", truncate(response)));
    match expect {
        Expect::Pong if value.bool_at("pong") == Some(true) => Ok(None),
        Expect::Pong => wrong("ping answer"),
        Expect::Opened { states } => match value.str_at("session") {
            Some(id) if value.num_at("states") == Some(*states as i64) => Ok(Some(id.to_owned())),
            _ => wrong("open answer"),
        },
        Expect::Verdict(v) if value.bool_at("equivalent") == Some(*v) => Ok(None),
        Expect::Verdict(_) => wrong("verdict"),
        Expect::Classes(expected) => {
            let n = expected.least.len();
            match value.get("blocks").and_then(|b| Classes::from_blocks(b, n)) {
                Some(got) if got == **expected => Ok(None),
                _ => wrong("classes"),
            }
        }
        Expect::Mutated {
            added,
            removed,
            tau,
        } if value.num_at("added") == Some(*added)
            && value.num_at("removed") == Some(*removed)
            && value.bool_at("tau_touched") == Some(*tau) =>
        {
            Ok(None)
        }
        Expect::Mutated { .. } => wrong("mutate report"),
        Expect::Closed if value.bool_at("closed") == Some(true) => Ok(None),
        Expect::Closed => wrong("close answer"),
    }
}

fn truncate(s: &str) -> &str {
    match s.char_indices().nth(120) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}
