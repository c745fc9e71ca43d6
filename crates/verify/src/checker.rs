//! Breadth-first exhaustive exploration of the model's state space.
//!
//! Starting from the empty machine, the checker applies every enabled
//! event to every newly discovered state, deduplicating on the exact
//! packed encoding ([`GlobalState::encode`]), and checks every invariant
//! the first time a state is seen. Because invariants are checked
//! *before* a state is expanded, the transition code never runs on a
//! corrupted state (whose RCA bookkeeping asserts could otherwise mask
//! the original violation with a panic).
//!
//! Steps run in place on one working machine per exploration: it is
//! reloaded from the expanded state before each event, and the
//! successor's key is read straight off it. Only a fresh successor is
//! built as a [`GlobalState`] (to check and to queue).
//!
//! On a violation the breadth-first parent links give the events of a
//! shortest path from the initial state; replaying them through
//! [`apply`] rebuilds every intermediate state of the counterexample.

use crate::invariants;
use crate::model::{apply, enabled_events_into, Event, GlobalState, ModelConfig, Working};
use cgct_sim::hash::{StableHashMap, StableHashSet};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// One step of a counterexample trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The event taken.
    pub event: Event,
    /// The state it produced.
    pub state: GlobalState,
}

/// A reachable invariant violation with its shortest event trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant's error message.
    pub message: String,
    /// Events from the initial state to the violating state, in order;
    /// the last step's state is the violating one.
    pub trace: Vec<TraceStep>,
}

impl Violation {
    /// Renders the counterexample as a numbered event/state listing.
    pub fn render(&self, initial: &GlobalState) -> String {
        let mut out = String::new();
        out.push_str(&format!("violation: {}\n", self.message));
        out.push_str(&format!("trace ({} steps):\n", self.trace.len()));
        out.push_str(&format!("    start  {initial}\n"));
        for (i, step) in self.trace.iter().enumerate() {
            out.push_str(&format!(
                "    {:>3}. {:<18} -> {}\n",
                i + 1,
                step.event.to_string(),
                step.state
            ));
        }
        out
    }
}

/// The result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Number of distinct reachable states visited.
    pub states: u64,
    /// Number of transitions taken (events applied to visited states).
    pub transitions: u64,
    /// The packed encodings of every visited state, for membership
    /// queries (e.g. cross-validating a live simulation against the
    /// model's reachable set).
    pub reachable: StableHashSet<u128>,
    /// The first (shortest-trace) violation found, if any.
    pub violation: Option<Violation>,
}

impl ExploreResult {
    /// Whether the exploration completed with every invariant holding.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

/// Explores every reachable state of `cfg`'s machine to a fixpoint.
///
/// Deterministic: the same configuration always yields the same state
/// and transition counts and (under a faulty [`crate::model::Mutation`])
/// the same counterexample.
pub fn explore(cfg: &ModelConfig) -> ExploreResult {
    cfg.validate();
    let initial = GlobalState::initial(cfg);
    let initial_key = initial.encode();

    // key -> how we first reached it (None for the initial state).
    let mut parents: StableHashMap<u128, Option<(u128, Event)>> = StableHashMap::default();
    parents.insert(initial_key, None);
    let mut queue: VecDeque<(u128, GlobalState)> = VecDeque::new();
    let mut states: u64 = 1;
    let mut transitions: u64 = 0;

    let mut violation = invariants::check(&initial)
        .err()
        .map(|message| (initial_key, message));
    if violation.is_none() {
        queue.push_back((initial_key, initial.clone()));
    }

    // `base` holds the state being expanded; `working` is restored from
    // it by copy before every event.
    let mut base = Working::new(cfg);
    let mut working = Working::new(cfg);
    let mut events = Vec::new();
    'bfs: while let Some((key, state)) = queue.pop_front() {
        enabled_events_into(cfg, &state, &mut events);
        base.load(&state);
        for &event in &events {
            transitions += 1;
            working.clone_from(&base);
            working.step(cfg, event);
            let next_key = working.encode();
            let Entry::Vacant(slot) = parents.entry(next_key) else {
                continue;
            };
            slot.insert(Some((key, event)));
            states += 1;
            let next = working.materialize();
            if let Err(message) = invariants::check(&next) {
                violation = Some((next_key, message));
                break 'bfs;
            }
            queue.push_back((next_key, next));
        }
    }

    let violation = violation.map(|(key, message)| Violation {
        message,
        trace: replay(cfg, &initial, &parents, key),
    });

    ExploreResult {
        states,
        transitions,
        reachable: parents.keys().copied().collect(),
        violation,
    }
}

/// Rebuilds the shortest trace to `target`: walks the parent links back
/// to the initial state, then replays their events forward.
fn replay(
    cfg: &ModelConfig,
    initial: &GlobalState,
    parents: &StableHashMap<u128, Option<(u128, Event)>>,
    target: u128,
) -> Vec<TraceStep> {
    let mut events = Vec::new();
    let mut key = target;
    while let Some(&Some((parent, event))) = parents.get(&key) {
        events.push(event);
        key = parent;
    }
    let mut state = initial.clone();
    let trace: Vec<TraceStep> = events
        .into_iter()
        .rev()
        .map(|event| {
            state = apply(cfg, &state, event);
            TraceStep {
                event,
                state: state.clone(),
            }
        })
        .collect();
    debug_assert_eq!(state.encode(), target, "replay reaches the violation");
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mutation;

    #[test]
    fn two_node_one_line_machine_is_clean_and_small() {
        let cfg = ModelConfig {
            nodes: 2,
            lines: 1,
            self_invalidation: true,
            mutation: Mutation::None,
            ..ModelConfig::default_3x2()
        };
        let r = explore(&cfg);
        assert!(r.clean(), "{}", r.violation.unwrap().message);
        assert!(r.states > 10, "explored only {} states", r.states);
        assert!(r.transitions > r.states);
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ModelConfig {
            nodes: 2,
            lines: 1,
            self_invalidation: true,
            mutation: Mutation::None,
            ..ModelConfig::default_3x2()
        };
        let a = explore(&cfg);
        let b = explore(&cfg);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn a_faulty_protocol_yields_a_renderable_trace() {
        let cfg = ModelConfig {
            nodes: 2,
            lines: 1,
            self_invalidation: true,
            mutation: Mutation::KeepStaleSharers,
            ..ModelConfig::default_3x2()
        };
        let r = explore(&cfg);
        let v = r.violation.expect("fault must be caught");
        assert!(!v.trace.is_empty());
        let text = v.render(&GlobalState::initial(&cfg));
        assert!(text.contains("violation:"), "{text}");
        assert!(text.contains("start"), "{text}");
        assert!(text.contains("1."), "{text}");
    }
}
