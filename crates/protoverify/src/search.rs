//! The one explicit-state search both checkers run: breadth-first over a
//! model's successor relation, with parent links so the first violation
//! comes back as a shortest trace from the initial state. What counts as
//! a violation stays with each model, as a per-state and a per-edge hook.

use std::collections::{btree_map::Entry, BTreeMap, VecDeque};

/// A violation a hook reported, with the path that reaches it.
pub(crate) struct Found<S, L, V> {
    /// What the hook reported.
    pub violation: V,
    /// The states along the path, initial state first. It ends at the
    /// offending state; for an edge hook, at the edge's target.
    pub states: Vec<S>,
    /// The labels between them (`labels.len() == states.len() - 1`).
    pub labels: Vec<L>,
}

/// What one search saw.
pub(crate) struct Explored<S, L, V> {
    /// Distinct states reached.
    pub states: usize,
    /// Transitions explored, duplicates into seen states included.
    pub transitions: usize,
    /// The first violation in BFS order, if any.
    pub found: Option<Found<S, L, V>>,
}

/// Explore every state reachable from `init`. `expand` is the per-state
/// hook: it returns the state's labelled successors, or a violation of
/// the state itself. `edge` is the per-edge hook, run on each transition
/// before its target is queued.
pub(crate) fn bfs<S: Ord + Clone, L: Clone, V>(
    init: S,
    mut expand: impl FnMut(&S) -> Result<Vec<(L, S)>, V>,
    mut edge: impl FnMut(&S, &L, &S) -> Option<V>,
) -> Explored<S, L, V> {
    let mut parents: BTreeMap<S, Option<(S, L)>> = BTreeMap::new();
    parents.insert(init.clone(), None);
    let mut queue = VecDeque::from([init]);
    let mut transitions = 0;
    let found = 'search: loop {
        let Some(s) = queue.pop_front() else {
            break None;
        };
        let succ = match expand(&s) {
            Ok(succ) => succ,
            Err(violation) => break Some(path_to(&parents, s, violation)),
        };
        for (label, next) in succ {
            transitions += 1;
            if let Some(violation) = edge(&s, &label, &next) {
                let mut found = path_to(&parents, s, violation);
                found.states.push(next);
                found.labels.push(label);
                break 'search Some(found);
            }
            if let Entry::Vacant(e) = parents.entry(next.clone()) {
                e.insert(Some((s.clone(), label)));
                queue.push_back(next);
            }
        }
    };
    Explored {
        states: parents.len(),
        transitions,
        found,
    }
}

fn path_to<S: Ord + Clone, L: Clone, V>(
    parents: &BTreeMap<S, Option<(S, L)>>,
    end: S,
    violation: V,
) -> Found<S, L, V> {
    let mut states = vec![end];
    let mut labels = Vec::new();
    while let Some(Some((prev, label))) = parents.get(&states[states.len() - 1]) {
        labels.push(label.clone());
        states.push(prev.clone());
    }
    states.reverse();
    labels.reverse();
    Found {
        violation,
        states,
        labels,
    }
}
