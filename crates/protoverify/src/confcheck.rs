//! Trace-refinement checking: replay observed simulator traces through
//! the declarative protocol tables and fail on any event sequence the
//! model cannot derive.
//!
//! PR 3 proved invariants over the *model*; PRs 5–6 grew the *live*
//! protocol (pipelined data path, WAL journal, epoch fencing, standby
//! takeover) far faster than anything checked that the two still agree.
//! This module closes the loop from the dynamic side:
//!
//! - A declarative **event→edge table** ([`EVENT_EDGE_TABLE`]) maps
//!   simkit trace events — `proto/*_transition` instants, `wal/*`
//!   journal markers, `pool/*` data-path markers, `phase` spans — onto
//!   the protoverify machines they refine.
//! - An online [`Observer`] replays a trace through the composed model:
//!   one [`CyclePhase`] machine for the Job Manager, one [`RankLife`]
//!   machine per rank, one [`NlaState`] machine per node, one
//!   [`LinkState`] machine per FTB agent, plus a WAL record-order
//!   automaton encoding the journal contracts (append-before-effect
//!   ordering, commit-point placement, roll-forward-only after a
//!   takeover). Any event not derivable in the model is a
//!   [`Nonconformance`], reported with the **shortest non-conforming
//!   suffix** — the minimal tail of that machine's observed history that
//!   no model state can replay.
//! - A [`Coverage`] tracker records which table rows the suite actually
//!   exercises; never-exercised edges are dead model rows or missing
//!   tests — both findings. [`Coverage::to_json`] renders the
//!   `COVERAGE_proto.json` artifact.
//!
//! Traces round-trip through a self-describing JSON artifact
//! ([`trace_to_json`] / [`parse_trace_json`], hand-rolled: the workspace
//! builds offline with zero registry deps) so the `protoverify` binary
//! can re-check CI artifacts long after the simulation ran.

use crate::spec::{
    next, CycleEvent, CyclePhase, LinkEvent, LinkState, Machine, MigrationSpec, Named, NlaEvent,
    NlaState, RankEvent, RankLife, TraceLabels, CYCLE_LABELS,
};
use simkit::{ArgValue, EventKind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------------
// trace events, decoupled from simkit for offline artifacts
// ---------------------------------------------------------------------------

/// An argument value on a trace event, owned (unlike simkit's borrowed
/// keys) so events survive a round trip through a JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Unsigned integer.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
}

impl ArgVal {
    /// The value as a u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ArgVal::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ArgVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The shape of a trace event (mirrors `simkit::EventKind` minus the
/// counter payload, which rides in `args` after a round trip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawKind {
    /// Span open.
    Begin,
    /// Span close.
    End,
    /// Point event.
    Instant,
    /// Counter sample.
    Counter,
    /// Message event.
    Message,
}

impl RawKind {
    /// One-letter code used in the JSON artifact (chrome-trace style).
    pub fn code(self) -> &'static str {
        match self {
            RawKind::Begin => "B",
            RawKind::End => "E",
            RawKind::Instant => "I",
            RawKind::Counter => "C",
            RawKind::Message => "M",
        }
    }

    fn from_code(s: &str) -> Option<RawKind> {
        Some(match s {
            "B" => RawKind::Begin,
            "E" => RawKind::End,
            "I" => RawKind::Instant,
            "C" => RawKind::Counter,
            "M" => RawKind::Message,
            _ => return None,
        })
    }
}

/// One observed trace event, in the owned form the observer and the JSON
/// artifact share.
#[derive(Debug, Clone)]
pub struct RawEvent {
    /// Virtual time of the event, nanoseconds.
    pub time_ns: u64,
    /// Category (`"proto"`, `"wal"`, `"pool"`, `"phase"`, …).
    pub cat: String,
    /// Event name within the category.
    pub name: String,
    /// Event shape.
    pub kind: RawKind,
    /// Event arguments, in emission order.
    pub args: Vec<(String, ArgVal)>,
}

impl RawEvent {
    /// Convert a live simkit trace event into the owned form.
    pub fn from_trace(ev: &TraceEvent) -> RawEvent {
        let (kind, extra) = match ev.kind {
            EventKind::Begin => (RawKind::Begin, None),
            EventKind::End => (RawKind::End, None),
            EventKind::Instant => (RawKind::Instant, None),
            EventKind::Counter(v) => (
                RawKind::Counter,
                Some(("value".to_string(), ArgVal::F64(v))),
            ),
            EventKind::Message => (RawKind::Message, None),
        };
        let mut args: Vec<(String, ArgVal)> = ev
            .args
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    ArgValue::U64(n) => ArgVal::U64(*n),
                    ArgValue::F64(f) => ArgVal::F64(*f),
                    ArgValue::Str(s) => ArgVal::Str(s.clone()),
                };
                (k.to_string(), v)
            })
            .collect();
        args.extend(extra);
        RawEvent {
            time_ns: ev.time.as_nanos(),
            cat: ev.cat.to_string(),
            name: ev.name.clone(),
            kind,
            args,
        }
    }

    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgVal> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn arg_u64(&self, key: &str) -> Option<u64> {
        self.arg(key).and_then(ArgVal::as_u64)
    }

    fn arg_str(&self, key: &str) -> Option<&str> {
        self.arg(key).and_then(ArgVal::as_str)
    }

    /// Compact one-line rendering used in nonconformance reports.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}ns {}/{} [{}]",
            self.time_ns,
            self.cat,
            self.name,
            self.kind.code()
        );
        for (k, v) in &self.args {
            match v {
                ArgVal::U64(n) => s.push_str(&format!(" {k}={n}")),
                ArgVal::F64(f) => s.push_str(&format!(" {k}={f}")),
                ArgVal::Str(t) => s.push_str(&format!(" {k}={t}")),
            }
        }
        s
    }
}

/// Convert a full simkit trace into the owned form the observer and the
/// JSON artifact consume.
pub fn raw_trace(events: &[TraceEvent]) -> Vec<RawEvent> {
    events.iter().map(RawEvent::from_trace).collect()
}

// ---------------------------------------------------------------------------
// the declarative event→edge table
// ---------------------------------------------------------------------------

/// Which model edge class a trace event refines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `proto/cycle_transition` — one edge of the migration-cycle table.
    Cycle,
    /// `proto/rank_transition` — one edge of the rank lifecycle table.
    Rank,
    /// `proto/nla_transition` — one edge of the NLA table.
    Nla,
    /// `proto/link_transition` — one edge of the FTB uplink table.
    Link,
    /// `wal/wal_append` — one record entering the cycle journal.
    WalAppend,
    /// `wal/wal_replay` — a standby replaying the journal tail.
    WalReplay,
    /// `wal/takeover` — a standby fencing and adopting the cycle.
    Takeover,
    /// `wal/fenced_publish` — a stale-epoch publish dropped by fencing.
    FencedPublish,
    /// `pool/rank_image_ready` — a rank's image fully staged (Phase 2).
    ImageReady,
    /// `pool/restart_begin` — a rank's restart worker starting (Phase 3).
    RestartBegin,
    /// `phase/<precopy|stall|migrate|restart|resume>` span — a live
    /// phase body.
    PhaseSpan,
}

/// One row of the event→edge table: a `(cat, name)` pattern and the edge
/// class it maps to. `name == "*"` matches every name in the category.
#[derive(Debug, Clone, Copy)]
pub struct EventRule {
    /// Trace category to match.
    pub cat: &'static str,
    /// Trace event name to match (`"*"` = any).
    pub name: &'static str,
    /// Model edge class the event refines.
    pub edge: EdgeKind,
}

/// The declarative event→edge table. This is the single place that
/// decides which trace events carry protocol meaning; everything else in
/// the trace (counters, log lines, checkpoint instrumentation) is
/// ignored by the refinement check.
pub const EVENT_EDGE_TABLE: &[EventRule] = &[
    EventRule {
        cat: "proto",
        name: "cycle_transition",
        edge: EdgeKind::Cycle,
    },
    EventRule {
        cat: "proto",
        name: "rank_transition",
        edge: EdgeKind::Rank,
    },
    EventRule {
        cat: "proto",
        name: "nla_transition",
        edge: EdgeKind::Nla,
    },
    EventRule {
        cat: "proto",
        name: "link_transition",
        edge: EdgeKind::Link,
    },
    EventRule {
        cat: "wal",
        name: "wal_append",
        edge: EdgeKind::WalAppend,
    },
    EventRule {
        cat: "wal",
        name: "wal_replay",
        edge: EdgeKind::WalReplay,
    },
    EventRule {
        cat: "wal",
        name: "takeover",
        edge: EdgeKind::Takeover,
    },
    EventRule {
        cat: "wal",
        name: "fenced_publish",
        edge: EdgeKind::FencedPublish,
    },
    EventRule {
        cat: "pool",
        name: "rank_image_ready",
        edge: EdgeKind::ImageReady,
    },
    EventRule {
        cat: "pool",
        name: "restart_begin",
        edge: EdgeKind::RestartBegin,
    },
    EventRule {
        cat: "phase",
        name: "*",
        edge: EdgeKind::PhaseSpan,
    },
];

/// Classify a trace event against [`EVENT_EDGE_TABLE`].
pub fn classify(cat: &str, name: &str) -> Option<EdgeKind> {
    EVENT_EDGE_TABLE
        .iter()
        .find(|r| r.cat == cat && (r.name == "*" || r.name == name))
        .map(|r| r.edge)
}

// ---------------------------------------------------------------------------
// transition coverage
// ---------------------------------------------------------------------------

/// Edge-coverage counters over the four shipped transition tables.
///
/// The universe is exactly the tables' rows — a row the suite never
/// exercises is either dead model code or a missing test, and both are
/// findings the coverage report surfaces by edge name.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    counts: BTreeMap<String, u64>,
}

/// Render one edge key: `"<table>/<from> --<event>--> <to>"`.
fn edge_key(table: &str, from: &str, ev: &str, to: &str) -> String {
    format!("{table}/{from} --{ev}--> {to}")
}

/// The four shipped tables as `(machine, rows)`, each row its
/// `[from, event, to]` names, in `COVERAGE_proto.json` order.
fn tables() -> [(&'static str, Vec<[&'static str; 3]>); 4] {
    fn rows<M: Machine>() -> (&'static str, Vec<[&'static str; 3]>) {
        let rows = M::TABLE.iter();
        let names = rows.map(|t| [t.from.name(), t.on.name(), t.to.name()]);
        (M::LABELS.machine, names.collect())
    }
    let spec = MigrationSpec::shipped();
    let cycle = spec.transitions.iter();
    let cycle = cycle.map(|t| [t.from.name(), t.on.name(), t.to.name()]);
    [
        (CYCLE_LABELS.machine, cycle.collect()),
        rows::<NlaState>(),
        rows::<RankLife>(),
        rows::<LinkState>(),
    ]
}

impl Coverage {
    /// A fresh, empty coverage map.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// The full edge universe, one key per shipped table row.
    pub fn universe() -> Vec<String> {
        let mut keys = Vec::new();
        for (machine, rows) in tables() {
            for [from, on, to] in rows {
                keys.push(edge_key(machine, from, on, to));
            }
        }
        keys.sort();
        keys
    }

    fn mark(&mut self, key: String) {
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Merge another run's coverage into this one.
    pub fn merge(&mut self, other: &Coverage) {
        for (k, v) in &other.counts {
            *self.counts.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Hit count for one edge key (0 if never exercised).
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of universe edges exercised at least once.
    pub fn covered(&self) -> usize {
        Coverage::universe()
            .iter()
            .filter(|k| self.count(k) > 0)
            .count()
    }

    /// Universe edges never exercised, by edge name.
    pub fn missing(&self) -> Vec<String> {
        Coverage::universe()
            .into_iter()
            .filter(|k| self.count(k) == 0)
            .collect()
    }

    /// Covered / universe, in [0, 1].
    pub fn ratio(&self) -> f64 {
        let total = Coverage::universe().len();
        if total == 0 {
            return 1.0;
        }
        self.covered() as f64 / total as f64
    }

    /// Render the `COVERAGE_proto.json` artifact: per-table edge counts,
    /// missing-edge lists, and the overall ratio. Deterministic (sorted
    /// keys), hand-rolled (the workspace builds offline without serde).
    pub fn to_json(&self) -> String {
        let universe = Coverage::universe();
        let tables = tables().map(|(machine, _)| machine);
        let mut out = String::from("{\n  \"schema\": \"coverage_proto/v1\",\n");
        out.push_str(&format!(
            "  \"total\": {{\"covered\": {}, \"universe\": {}, \"ratio\": {:.4}}},\n",
            self.covered(),
            universe.len(),
            self.ratio()
        ));
        out.push_str("  \"tables\": {\n");
        for (i, table) in tables.iter().enumerate() {
            let prefix = format!("{table}/");
            let edges: Vec<&String> = universe.iter().filter(|k| k.starts_with(&prefix)).collect();
            let covered = edges.iter().filter(|k| self.count(k) > 0).count();
            out.push_str(&format!(
                "    \"{table}\": {{\"covered\": {covered}, \"universe\": {},\n      \"edges\": {{\n",
                edges.len()
            ));
            for (j, k) in edges.iter().enumerate() {
                let name = &k[prefix.len()..];
                let comma = if j + 1 == edges.len() { "" } else { "," };
                out.push_str(&format!(
                    "        {}: {}{comma}\n",
                    json_string(name),
                    self.count(k)
                ));
            }
            out.push_str("      },\n      \"missing\": [");
            let missing: Vec<&&String> = edges.iter().filter(|k| self.count(k) == 0).collect();
            for (j, k) in missing.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(&k[prefix.len()..]));
            }
            let comma = if i + 1 == tables.len() { "" } else { "," };
            out.push_str(&format!("]}}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// nonconformance reporting
// ---------------------------------------------------------------------------

/// One trace event the composed model cannot derive.
#[derive(Debug, Clone)]
pub struct Nonconformance {
    /// Index of the offending event in the replayed trace.
    pub index: usize,
    /// Which machine rejected it (`"cycle"`, `"rank"`, `"nla"`,
    /// `"link"`, `"wal"`, `"fence"`, `"pool"`, `"phase"`).
    pub machine: &'static str,
    /// The scope within the machine (e.g. `"rank 3"`, `"cycle 7"`).
    pub scope: String,
    /// Why the event is not derivable.
    pub reason: String,
    /// The shortest non-conforming suffix of that machine's observed
    /// history: the minimal tail no model state can replay. For the
    /// table machines this is computed exactly (existentially over every
    /// start state); for the WAL automaton it is the offending cycle's
    /// record tail.
    pub suffix: Vec<String>,
}

impl fmt::Display for Nonconformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "nonconforming event #{} [{} {}]: {}",
            self.index, self.machine, self.scope, self.reason
        )?;
        writeln!(
            f,
            "shortest non-conforming suffix ({} events):",
            self.suffix.len()
        )?;
        for s in &self.suffix {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// Result of replaying one trace through the composed model.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Total events in the trace.
    pub events: usize,
    /// Events the event→edge table mapped onto a model edge.
    pub mapped: usize,
    /// The first nonconforming event, if any (replay stops there).
    pub violation: Option<Nonconformance>,
    /// Edge coverage accumulated up to the stop point.
    pub coverage: Coverage,
}

impl ConformanceReport {
    /// True when every mapped event was derivable in the model.
    pub fn is_conformant(&self) -> bool {
        self.violation.is_none()
    }
}

/// Existentially check derivability of a history suffix and return the
/// shortest one no start state can replay. `hist` entries are
/// `(from, event, to, rendered)`; the last entry is the offending edge.
fn shortest_suffix<S, E>(
    states: &[S],
    next: impl Fn(S, E) -> Option<S>,
    hist: &[(S, E, S, String)],
) -> Vec<String>
where
    S: Copy + PartialEq,
    E: Copy,
{
    for k in 1..=hist.len() {
        let suf = &hist[hist.len() - k..];
        let derivable = states.iter().any(|&q0| {
            let mut q = q0;
            suf.iter().all(|&(f, e, t, _)| {
                if q != f {
                    return false;
                }
                match next(q, e) {
                    Some(n) if n == t => {
                        q = n;
                        true
                    }
                    _ => false,
                }
            })
        });
        if !derivable {
            return suf.iter().map(|(_, _, _, d)| d.clone()).collect();
        }
    }
    hist.iter().map(|(_, _, _, d)| d.clone()).collect()
}

// ---------------------------------------------------------------------------
// the observer
// ---------------------------------------------------------------------------

/// Replay state of one table machine: each instance's model state and
/// observed history, keyed by rank or node id (the job-wide cycle is the
/// one instance 0).
#[derive(Debug)]
struct Tracker<S, E> {
    labels: TraceLabels,
    cur: BTreeMap<u64, S>,
    hist: BTreeMap<u64, Vec<(S, E, S, String)>>,
}

impl<S, E> Tracker<S, E> {
    fn new(labels: TraceLabels) -> Self {
        Tracker {
            labels,
            cur: BTreeMap::new(),
            hist: BTreeMap::new(),
        }
    }
}

/// A fresh trigger lifecycle: the live runtime builds a new stepper at
/// Idle for every migration request, so an Idle-rooted edge while the
/// model sits in a terminal phase begins a new cycle, not a jump out of
/// the old one.
fn fresh_trigger(cur: CyclePhase, from: CyclePhase) -> CyclePhase {
    if from == CyclePhase::Idle && cur.is_terminal() {
        CyclePhase::Idle
    } else {
        cur
    }
}

/// The table machines' `rebase`: replay from the model state.
fn keep<S>(cur: S, _from: S) -> S {
    cur
}

/// Replay one `proto/*_transition` event through `tracker`'s machine.
/// `next` is the machine's table lookup; `rebase` maps the model state
/// and the observed `from` to the state the model replays from (the
/// cycle's fresh trigger; the identity for the other machines). An
/// instance first seen mid-trace starts in the state it is observed in.
fn on_transition<S: Named, E: Named>(
    tracker: &mut Tracker<S, E>,
    coverage: &mut Coverage,
    ev: &RawEvent,
    next: impl Fn(S, E) -> Option<S>,
    rebase: impl Fn(S, S) -> S,
) -> Result<(), Nonconformance> {
    let labels = tracker.labels;
    let fail = |scope: String, reason: String, suffix: Vec<String>| {
        Err(Nonconformance {
            index: 0,
            machine: labels.machine,
            scope,
            reason,
            suffix,
        })
    };
    let id = labels.scope.map_or(Some(0), |key| ev.arg_u64(key));
    let args = (
        ev.arg_str("from"),
        ev.arg_str(labels.event),
        ev.arg_str("to"),
    );
    let (Some(id), (Some(from), Some(event), Some(to))) = (id, args) else {
        let reason = format!("malformed {}: {}", labels.instant, ev.render());
        return fail(String::new(), reason, vec![ev.render()]);
    };
    let (Some(from), Some(event), Some(to)) =
        (S::from_name(from), E::from_name(event), S::from_name(to))
    else {
        let reason = format!(
            "unknown {} state/event name: {}",
            labels.machine,
            ev.render()
        );
        return fail(String::new(), reason, vec![ev.render()]);
    };
    let (f, e, t) = (from.name(), event.name(), to.name());
    let cur = tracker.cur.entry(id).or_insert(from);
    *cur = rebase(*cur, from);
    let cur = *cur;
    let hist = tracker.hist.entry(id).or_default();
    hist.push((from, event, to, ev.render()));
    if cur != from || next(from, event) != Some(to) {
        let scope = labels
            .scope
            .map_or("job".into(), |key| format!("{key} {id}"));
        let suffix = shortest_suffix(S::ALL, &next, hist);
        let reason = if cur != from {
            format!(
                "observed {f} --{e}--> {t} but the model has {scope} in {}",
                cur.name()
            )
        } else {
            format!("no {}-table row {f} --{e}--> {t}", labels.machine)
        };
        return fail(scope, reason, suffix);
    }
    coverage.mark(edge_key(labels.machine, f, e, t));
    tracker.cur.insert(id, to);
    Ok(())
}

/// Per-cycle WAL bookkeeping for the record-order automaton.
#[derive(Debug, Clone, Default)]
struct CycleLog {
    records: Vec<String>,
    phases: BTreeSet<String>,
    rewired: bool,
    committed: bool,
    lease_acquired: bool,
    lease_committed: bool,
    ended: bool,
    taken_over: bool,
    images: BTreeSet<u64>,
}

/// Online refinement observer: feed it a trace event at a time (or a
/// whole trace via [`Observer::replay`]) and it replays the composed
/// protoverify model alongside, rejecting the first event the model
/// cannot derive.
#[derive(Debug)]
pub struct Observer {
    spec: MigrationSpec,
    cycle: Tracker<CyclePhase, CycleEvent>,
    ranks: Tracker<RankLife, RankEvent>,
    nlas: Tracker<NlaState, NlaEvent>,
    links: Tracker<LinkState, LinkEvent>,
    next_seq: u64,
    wal: BTreeMap<u64, CycleLog>,
    last_epoch: u64,
    events: usize,
    mapped: usize,
    coverage: Coverage,
}

impl Default for Observer {
    fn default() -> Self {
        Observer::new()
    }
}

impl Observer {
    /// A fresh observer, with every machine in its initial state.
    pub fn new() -> Observer {
        let mut cycle = Tracker::new(CYCLE_LABELS);
        cycle.cur.insert(0, CyclePhase::Idle);
        Observer {
            spec: MigrationSpec::shipped(),
            cycle,
            ranks: Tracker::new(RankLife::LABELS),
            nlas: Tracker::new(NlaState::LABELS),
            links: Tracker::new(LinkState::LABELS),
            next_seq: 1,
            wal: BTreeMap::new(),
            last_epoch: 0,
            events: 0,
            mapped: 0,
            coverage: Coverage::new(),
        }
    }

    /// Edge coverage accumulated so far.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Replay a whole trace, stopping at the first nonconformance.
    pub fn replay(events: &[RawEvent]) -> ConformanceReport {
        let mut obs = Observer::new();
        let mut violation = None;
        for (i, ev) in events.iter().enumerate() {
            if let Err(mut v) = obs.observe(ev) {
                v.index = i;
                violation = Some(v);
                break;
            }
        }
        ConformanceReport {
            events: events.len(),
            mapped: obs.mapped,
            violation,
            coverage: obs.coverage,
        }
    }

    /// Observe one event. `Err` carries the nonconformance (with
    /// `index` 0 — [`Observer::replay`] fills in the trace position).
    pub fn observe(&mut self, ev: &RawEvent) -> Result<(), Nonconformance> {
        self.events += 1;
        let Some(edge) = classify(&ev.cat, &ev.name) else {
            return Ok(());
        };
        self.mapped += 1;
        match edge {
            EdgeKind::Cycle => {
                let rows = &self.spec.transitions;
                let next = |q, e| rows.iter().find(|t| t.from == q && t.on == e).map(|t| t.to);
                on_transition(&mut self.cycle, &mut self.coverage, ev, next, fresh_trigger)
            }
            EdgeKind::Rank => on_transition(&mut self.ranks, &mut self.coverage, ev, next, keep),
            EdgeKind::Nla => on_transition(&mut self.nlas, &mut self.coverage, ev, next, keep),
            EdgeKind::Link => on_transition(&mut self.links, &mut self.coverage, ev, next, keep),
            EdgeKind::WalAppend => self.on_wal_append(ev),
            EdgeKind::WalReplay => Ok(()),
            EdgeKind::Takeover => self.on_takeover(ev),
            EdgeKind::FencedPublish => self.on_fenced(ev),
            EdgeKind::ImageReady => self.on_image_ready(ev),
            EdgeKind::RestartBegin => self.on_restart_begin(ev),
            EdgeKind::PhaseSpan => self.on_phase_span(ev),
        }
    }

    fn fail(
        &self,
        machine: &'static str,
        scope: String,
        reason: String,
        suffix: Vec<String>,
    ) -> Result<(), Nonconformance> {
        Err(Nonconformance {
            index: 0,
            machine,
            scope,
            reason,
            suffix,
        })
    }

    /// Render the offending cycle's WAL record tail (suffix for the
    /// record-order automaton — up to the last 8 records plus the new
    /// one).
    fn wal_suffix(log: &CycleLog, new: &str) -> Vec<String> {
        let mut s: Vec<String> = log.records.iter().rev().take(8).rev().cloned().collect();
        s.push(new.to_string());
        s
    }

    fn on_wal_append(&mut self, ev: &RawEvent) -> Result<(), Nonconformance> {
        let (Some(seq), Some(record), Some(cycle)) =
            (ev.arg_u64("seq"), ev.arg_str("record"), ev.arg_u64("cycle"))
        else {
            return self.fail(
                "wal",
                String::new(),
                format!("malformed wal_append: {}", ev.render()),
                vec![ev.render()],
            );
        };
        let record = record.to_string();
        if seq != self.next_seq {
            let exp = self.next_seq;
            return self.fail(
                "wal",
                format!("cycle {cycle}"),
                format!("append seq {seq} out of order (expected {exp})"),
                vec![ev.render()],
            );
        }
        self.next_seq += 1;
        let log = self.wal.entry(cycle).or_default();
        let started = !log.records.is_empty();
        let scope = format!("cycle {cycle}");
        macro_rules! wal_fail {
            ($($msg:tt)*) => {{
                let suffix = Observer::wal_suffix(log, &ev.render());
                let reason = format!($($msg)*);
                return Err(Nonconformance {
                    index: 0,
                    machine: "wal",
                    scope,
                    reason,
                    suffix,
                });
            }};
        }
        if log.ended {
            wal_fail!("record {record} appended after cycle_end");
        }
        match record.as_str() {
            "cycle_start" => {
                if started {
                    wal_fail!("duplicate cycle_start");
                }
            }
            _ if !started => {
                wal_fail!("first record of a cycle must be cycle_start, got {record}");
            }
            "lease_acquire" => {
                if log.lease_acquired {
                    wal_fail!("duplicate lease_acquire");
                }
                log.lease_acquired = true;
            }
            "phase_enter" => {
                let Some(phase) = ev.arg_str("phase") else {
                    wal_fail!("phase_enter without a phase argument");
                };
                let needs = match phase {
                    // A live cycle journals precopy before stall; a
                    // classic cycle opens with stall directly — both
                    // entries are roots of the phase chain.
                    "precopy" => None,
                    "stall" => None,
                    "migrate" => Some("stall"),
                    "restart" => Some("migrate"),
                    "resume" => Some("restart"),
                    other => wal_fail!("phase_enter for unknown phase {other}"),
                };
                if let Some(prev) = needs {
                    if !log.phases.contains(prev) {
                        wal_fail!("phase_enter {phase} before any phase_enter {prev}");
                    }
                }
                log.phases.insert(phase.to_string());
            }
            "rank_image_ready" => {
                if !log.phases.contains("migrate") {
                    wal_fail!("rank_image_ready before phase_enter migrate");
                }
            }
            "precopy_round" => {
                if !log.phases.contains("precopy") {
                    wal_fail!("precopy_round before phase_enter precopy");
                }
            }
            "nla_rewire" => {
                if !log.phases.contains("migrate") {
                    wal_fail!("nla_rewire before phase_enter migrate");
                }
                log.rewired = true;
            }
            "rank_restarted" => {
                if !log.rewired {
                    wal_fail!("rank_restarted before nla_rewire");
                }
            }
            "commit_point" => {
                if !log.rewired {
                    wal_fail!("commit_point before nla_rewire");
                }
                log.committed = true;
            }
            "lease_commit" => {
                if !log.committed {
                    wal_fail!("lease_commit before commit_point");
                }
                log.lease_committed = true;
            }
            "rollback" => {
                if log.taken_over && log.committed {
                    wal_fail!("rollback after commit_point under a takeover (roll-forward only)");
                }
            }
            "cycle_end" => {
                log.ended = true;
            }
            other => {
                wal_fail!("unknown WAL record {other}");
            }
        }
        log.records.push(ev.render());
        Ok(())
    }

    fn on_takeover(&mut self, ev: &RawEvent) -> Result<(), Nonconformance> {
        let (Some(epoch), Some(cycle)) = (ev.arg_u64("epoch"), ev.arg_u64("cycle")) else {
            return self.fail(
                "wal",
                String::new(),
                format!("malformed takeover: {}", ev.render()),
                vec![ev.render()],
            );
        };
        if epoch <= self.last_epoch {
            let last = self.last_epoch;
            return self.fail(
                "wal",
                format!("cycle {cycle}"),
                format!("takeover epoch {epoch} not greater than previous epoch {last}"),
                vec![ev.render()],
            );
        }
        self.last_epoch = epoch;
        if let Some(log) = self.wal.get_mut(&cycle) {
            log.taken_over = true;
        }
        // The live stepper died with the Job Manager; the standby (and a
        // later respawned JM) begins from Idle.
        self.cycle.cur.insert(0, CyclePhase::Idle);
        Ok(())
    }

    fn on_fenced(&mut self, ev: &RawEvent) -> Result<(), Nonconformance> {
        if self.last_epoch == 0 {
            return self.fail(
                "fence",
                "job".to_string(),
                format!("fenced_publish before any takeover: {}", ev.render()),
                vec![ev.render()],
            );
        }
        let epoch = ev.arg_u64("epoch").unwrap_or(u64::MAX);
        if epoch >= self.last_epoch {
            let last = self.last_epoch;
            return self.fail(
                "fence",
                "job".to_string(),
                format!("fenced_publish for epoch {epoch} which is not stale (fence is {last})"),
                vec![ev.render()],
            );
        }
        Ok(())
    }

    fn on_image_ready(&mut self, ev: &RawEvent) -> Result<(), Nonconformance> {
        let (Some(cycle), Some(rank)) = (ev.arg_u64("cycle"), ev.arg_u64("rank")) else {
            return self.fail(
                "pool",
                String::new(),
                format!("malformed rank_image_ready: {}", ev.render()),
                vec![ev.render()],
            );
        };
        let Some(log) = self.wal.get_mut(&cycle) else {
            return self.fail(
                "pool",
                format!("cycle {cycle}"),
                "rank_image_ready for a cycle with no journal records".to_string(),
                vec![ev.render()],
            );
        };
        log.images.insert(rank);
        Ok(())
    }

    fn on_restart_begin(&mut self, ev: &RawEvent) -> Result<(), Nonconformance> {
        let (Some(cycle), Some(rank)) = (ev.arg_u64("cycle"), ev.arg_u64("rank")) else {
            return self.fail(
                "pool",
                String::new(),
                format!("malformed restart_begin: {}", ev.render()),
                vec![ev.render()],
            );
        };
        let staged = self
            .wal
            .get(&cycle)
            .is_some_and(|log| log.images.contains(&rank));
        if !staged {
            return self.fail(
                "pool",
                format!("cycle {cycle}"),
                format!("restart_begin for rank {rank} before its image is staged"),
                vec![ev.render()],
            );
        }
        Ok(())
    }

    fn on_phase_span(&mut self, ev: &RawEvent) -> Result<(), Nonconformance> {
        if ev.kind != RawKind::Begin {
            return Ok(());
        }
        // Only the four migration phases are journaled; other spans in
        // the "phase" category (the `cr_*` checkpoint-baseline phases of
        // the degraded path) run outside the cycle journal.
        if !matches!(
            ev.name.as_str(),
            "precopy" | "stall" | "migrate" | "restart" | "resume"
        ) {
            return Ok(());
        }
        let Some(cycle) = ev.arg_u64("cycle") else {
            return self.fail(
                "phase",
                String::new(),
                format!("phase span without a cycle argument: {}", ev.render()),
                vec![ev.render()],
            );
        };
        // The pipelined data path legitimately opens the restart span
        // mid-Phase-2, immediately after journaling the NLA rewire (the
        // overlap design: FTB_RESTART goes out while chunks still
        // stream). The rewire record is therefore an alternative
        // prerequisite for the restart span.
        let entered = self.wal.get(&cycle).is_some_and(|log| {
            log.phases.contains(ev.name.as_str()) || (ev.name == "restart" && log.rewired)
        });
        if !entered {
            let name = &ev.name;
            return self.fail(
                "phase",
                format!("cycle {cycle}"),
                format!("phase span {name} opened before its WAL phase_enter record"),
                vec![ev.render()],
            );
        }
        Ok(())
    }
}

/// Replay a live simkit trace through the composed model — the
/// convenience entry point test harnesses call after draining the
/// tracer.
pub fn observe_trace(events: &[TraceEvent]) -> ConformanceReport {
    Observer::replay(&raw_trace(events))
}

// ---------------------------------------------------------------------------
// trace artifact: JSON writer (simkit's escaper) + minimal parser
// ---------------------------------------------------------------------------

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    simkit::escape_json(&mut out, s);
    out.push('"');
    out
}

/// Serialize a trace to the `jobmig_trace/v1` JSON artifact consumed by
/// `protoverify --conformance` / `--coverage`.
pub fn trace_to_json(events: &[RawEvent]) -> String {
    let mut out = String::from("{\"schema\": \"jobmig_trace/v1\", \"events\": [\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"t\": {}, \"cat\": {}, \"name\": {}, \"kind\": {}, \"args\": {{",
            ev.time_ns,
            json_string(&ev.cat),
            json_string(&ev.name),
            json_string(ev.kind.code()),
        ));
        for (j, (k, v)) in ev.args.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(k));
            out.push_str(": ");
            match v {
                ArgVal::U64(n) => out.push_str(&n.to_string()),
                ArgVal::F64(f) => out.push_str(&format!("{f:?}")),
                ArgVal::Str(s) => out.push_str(&json_string(s)),
            }
        }
        let comma = if i + 1 == events.len() { "" } else { "," };
        out.push_str(&format!("}}}}{comma}\n"));
    }
    out.push_str("]}\n");
    out
}

/// A malformed trace artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace artifact parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

/// Minimal JSON value for the artifact parser.
enum JVal {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<JVal>),
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    fn get<'a>(&'a self, key: &str) -> Option<&'a JVal> {
        match self {
            JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            JVal::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct JParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JParser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, TraceParseError> {
        Err(TraceParseError {
            at: self.pos,
            message: message.to_string(),
        })
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<JVal, TraceParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JVal::Bool),
            Some(b'f') => self.literal("false", JVal::Bool),
            Some(b'n') => self.literal("null", JVal::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str, val: JVal) -> Result<JVal, TraceParseError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<JVal, TraceParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok();
        match text.and_then(|t| t.parse::<f64>().ok()) {
            Some(n) => Ok(JVal::Num(n)),
            None => self.err("malformed number"),
        }
    }

    fn string(&mut self) -> Result<String, TraceParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            self.pos += 4;
                            match hex.and_then(char::from_u32) {
                                Some(c) => out.push(c),
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // Re-consume the full UTF-8 sequence starting here.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| {
                        TraceParseError {
                            at: self.pos,
                            message: "invalid UTF-8".to_string(),
                        }
                    })?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JVal, TraceParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JVal::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JVal::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<JVal, TraceParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JVal::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JVal::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a `jobmig_trace/v1` JSON artifact back into events.
pub fn parse_trace_json(text: &str) -> Result<Vec<RawEvent>, TraceParseError> {
    let mut p = JParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let root = p.value()?;
    let fail = |at: usize, m: &str| TraceParseError {
        at,
        message: m.to_string(),
    };
    match root.get("schema").and_then(JVal::as_str) {
        Some("jobmig_trace/v1") => {}
        Some(other) => return Err(fail(0, &format!("unsupported schema {other:?}"))),
        None => return Err(fail(0, "missing schema field")),
    }
    let Some(JVal::Arr(items)) = root.get("events") else {
        return Err(fail(0, "missing events array"));
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let bad = |m: &str| fail(0, &format!("event #{i}: {m}"));
        let time_ns = item
            .get("t")
            .and_then(JVal::as_num)
            .ok_or_else(|| bad("missing t"))? as u64;
        let cat = item
            .get("cat")
            .and_then(JVal::as_str)
            .ok_or_else(|| bad("missing cat"))?
            .to_string();
        let name = item
            .get("name")
            .and_then(JVal::as_str)
            .ok_or_else(|| bad("missing name"))?
            .to_string();
        let kind = item
            .get("kind")
            .and_then(JVal::as_str)
            .and_then(RawKind::from_code)
            .ok_or_else(|| bad("missing or unknown kind"))?;
        let mut args = Vec::new();
        if let Some(JVal::Obj(fields)) = item.get("args") {
            for (k, v) in fields {
                let v = match v {
                    JVal::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                        ArgVal::U64(*n as u64)
                    }
                    JVal::Num(n) => ArgVal::F64(*n),
                    JVal::Str(s) => ArgVal::Str(s.clone()),
                    _ => return Err(bad("argument values must be numbers or strings")),
                };
                args.push((k.clone(), v));
            }
        }
        events.push(RawEvent {
            time_ns,
            cat,
            name,
            kind,
            args,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(cat: &str, name: &str, args: Vec<(&str, ArgVal)>) -> RawEvent {
        RawEvent {
            time_ns: 0,
            cat: cat.to_string(),
            name: name.to_string(),
            kind: RawKind::Instant,
            args: args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn cycle_ev(from: &str, event: &str, to: &str) -> RawEvent {
        instant(
            "proto",
            "cycle_transition",
            vec![
                ("from", ArgVal::Str(from.to_string())),
                ("event", ArgVal::Str(event.to_string())),
                ("to", ArgVal::Str(to.to_string())),
            ],
        )
    }

    #[test]
    fn happy_cycle_is_conformant() {
        let trace = vec![
            cycle_ev("idle", "trigger", "stall"),
            cycle_ev("stall", "stall_done", "migrate"),
            cycle_ev("migrate", "migrate_done", "restart"),
            cycle_ev("restart", "restart_done", "resume"),
            cycle_ev("resume", "resume_done", "complete"),
        ];
        let report = Observer::replay(&trace);
        assert!(report.is_conformant(), "{:?}", report.violation);
        assert_eq!(report.mapped, 5);
        assert_eq!(report.coverage.count("cycle/idle --trigger--> stall"), 1);
    }

    #[test]
    fn skipped_phase_is_rejected_with_shortest_suffix() {
        let trace = vec![
            cycle_ev("idle", "trigger", "stall"),
            // Jump straight to restart: not derivable from Stall.
            cycle_ev("stall", "migrate_done", "restart"),
        ];
        let report = Observer::replay(&trace);
        let v = report.violation.expect("must be nonconforming");
        assert_eq!(v.machine, "cycle");
        assert_eq!(v.index, 1);
        // The offending edge alone is already underivable (no table row
        // stall --migrate_done--> restart from ANY state), so the
        // shortest suffix is exactly one event.
        assert_eq!(v.suffix.len(), 1);
    }

    #[test]
    fn context_mismatch_needs_longer_suffix() {
        let trace = vec![
            cycle_ev("idle", "trigger", "stall"),
            // Claimed from-phase migrate: a real table row, but the
            // model is in stall — the suffix must include the prior
            // event to show the contradiction.
            cycle_ev("migrate", "migrate_done", "restart"),
        ];
        let report = Observer::replay(&trace);
        let v = report.violation.expect("must be nonconforming");
        assert_eq!(v.machine, "cycle");
        assert_eq!(v.suffix.len(), 2, "suffix: {:#?}", v.suffix);
    }

    #[test]
    fn live_cycle_is_conformant() {
        let trace = vec![
            cycle_ev("idle", "live_trigger", "precopy"),
            cycle_ev("precopy", "precopy_round", "precopy"),
            cycle_ev("precopy", "precopy_round", "precopy"),
            cycle_ev("precopy", "cutover", "stall"),
            cycle_ev("stall", "stall_done", "migrate"),
            cycle_ev("migrate", "migrate_done", "restart"),
            cycle_ev("restart", "restart_done", "resume"),
            cycle_ev("resume", "resume_done", "complete"),
        ];
        let report = Observer::replay(&trace);
        assert!(report.is_conformant(), "{:?}", report.violation);
        assert_eq!(
            report
                .coverage
                .count("cycle/idle --live_trigger--> precopy"),
            1
        );
        assert_eq!(
            report
                .coverage
                .count("cycle/precopy --precopy_round--> precopy"),
            2
        );
        // Diverging twin: fallback re-enters the same Stall machinery.
        let trace = vec![
            cycle_ev("idle", "live_trigger", "precopy"),
            cycle_ev("precopy", "precopy_round", "precopy"),
            cycle_ev("precopy", "fallback_stopcopy", "stall"),
            cycle_ev("stall", "stall_done", "migrate"),
        ];
        assert!(Observer::replay(&trace).is_conformant());
    }

    #[test]
    fn cutover_without_precopy_is_rejected() {
        let trace = vec![
            cycle_ev("idle", "trigger", "stall"),
            cycle_ev("precopy", "cutover", "stall"),
        ];
        let v = Observer::replay(&trace).violation.expect("nonconforming");
        assert_eq!(v.machine, "cycle");
    }

    #[test]
    fn wal_automaton_rejects_precopy_round_outside_precopy() {
        let wal = |seq: u64, record: &str| {
            instant(
                "wal",
                "wal_append",
                vec![
                    ("seq", ArgVal::U64(seq)),
                    ("record", ArgVal::Str(record.to_string())),
                    ("cycle", ArgVal::U64(1)),
                ],
            )
        };
        let trace = vec![wal(1, "cycle_start"), wal(2, "precopy_round")];
        let v = Observer::replay(&trace).violation.expect("nonconforming");
        assert_eq!(v.machine, "wal");
        assert!(v.reason.contains("precopy_round"), "{}", v.reason);
    }

    #[test]
    fn second_trigger_after_complete_is_a_new_lifecycle() {
        let trace = vec![
            cycle_ev("idle", "trigger", "stall"),
            cycle_ev("stall", "stall_done", "migrate"),
            cycle_ev("migrate", "migrate_done", "restart"),
            cycle_ev("restart", "restart_done", "resume"),
            cycle_ev("resume", "resume_done", "complete"),
            cycle_ev("idle", "trigger", "stall"),
        ];
        assert!(Observer::replay(&trace).is_conformant());
    }

    #[test]
    fn wal_automaton_rejects_commit_before_rewire() {
        let wal = |seq: u64, record: &str| {
            instant(
                "wal",
                "wal_append",
                vec![
                    ("seq", ArgVal::U64(seq)),
                    ("record", ArgVal::Str(record.to_string())),
                    ("cycle", ArgVal::U64(1)),
                ],
            )
        };
        let trace = vec![wal(1, "cycle_start"), wal(2, "commit_point")];
        let report = Observer::replay(&trace);
        let v = report.violation.expect("must be nonconforming");
        assert_eq!(v.machine, "wal");
        assert!(v.reason.contains("commit_point"), "{}", v.reason);
    }

    #[test]
    fn wal_automaton_rejects_seq_gap() {
        let wal = |seq: u64, record: &str| {
            instant(
                "wal",
                "wal_append",
                vec![
                    ("seq", ArgVal::U64(seq)),
                    ("record", ArgVal::Str(record.to_string())),
                    ("cycle", ArgVal::U64(1)),
                ],
            )
        };
        let trace = vec![wal(1, "cycle_start"), wal(3, "lease_acquire")];
        let v = Observer::replay(&trace).violation.expect("nonconforming");
        assert!(v.reason.contains("out of order"), "{}", v.reason);
    }

    #[test]
    fn fenced_publish_requires_a_takeover() {
        let trace = vec![instant(
            "wal",
            "fenced_publish",
            vec![
                ("name", ArgVal::Str("FTB_MIGRATE".to_string())),
                ("cycle", ArgVal::U64(1)),
                ("epoch", ArgVal::U64(0)),
            ],
        )];
        let v = Observer::replay(&trace).violation.expect("nonconforming");
        assert_eq!(v.machine, "fence");
    }

    fn edge_ev(name: &str, scope: (&str, u64), keys: [&str; 3], names: [&str; 3]) -> RawEvent {
        let mut args = vec![(scope.0, ArgVal::U64(scope.1))];
        for (k, v) in keys.into_iter().zip(names) {
            args.push((k, ArgVal::Str(v.to_string())));
        }
        instant("proto", name, args)
    }

    fn rank_ev(rank: u64, from: &str, event: &str, to: &str) -> RawEvent {
        let keys = ["from", "event", "to"];
        edge_ev("rank_transition", ("rank", rank), keys, [from, event, to])
    }

    #[test]
    fn rank_edge_from_the_wrong_state_is_rejected() {
        let trace = vec![
            rank_ev(3, "running", "suspend", "suspended"),
            // A real row, but rank 3 is already suspended in the model.
            rank_ev(3, "running", "suspend", "suspended"),
        ];
        let v = Observer::replay(&trace).violation.expect("nonconforming");
        assert_eq!(
            (v.machine, v.scope.as_str(), v.index),
            ("rank", "rank 3", 1)
        );
        // The edge alone is derivable; only with the prior event is it not.
        assert_eq!(v.suffix.len(), 2, "suffix: {:#?}", v.suffix);
    }

    #[test]
    fn nla_triple_outside_the_table_is_rejected() {
        let keys = ["from", "event", "to"];
        let names = ["MIGRATION_SPARE", "source_drained", "MIGRATION_INACTIVE"];
        let trace = vec![edge_ev("nla_transition", ("node", 5), keys, names)];
        let v = Observer::replay(&trace).violation.expect("nonconforming");
        assert_eq!((v.machine, v.scope.as_str()), ("nla", "node 5"));
        assert_eq!(v.suffix.len(), 1);
    }

    #[test]
    fn uplink_edges_are_checked_under_their_on_key() {
        let keys = ["from", "on", "to"];
        let link = |names| edge_ev("link_transition", ("node", 2), keys, names);
        let ok = vec![link(["Attached", "AckGrandparent", "AttachedWithFallback"])];
        let report = Observer::replay(&ok);
        assert!(report.is_conformant(), "{:?}", report.violation);
        let key = "link/Attached --AckGrandparent--> AttachedWithFallback";
        assert_eq!(report.coverage.count(key), 1);
        // The root reacts to nothing.
        let v = Observer::replay(&[link(["Root", "ParentLost", "Root"])])
            .violation
            .expect("nonconforming");
        assert_eq!((v.machine, v.scope.as_str()), ("link", "node 2"));
    }

    #[test]
    fn unknown_state_name_is_rejected() {
        let v = Observer::replay(&[rank_ev(0, "sleeping", "resume", "running")])
            .violation
            .expect("nonconforming");
        assert_eq!(v.machine, "rank");
        assert!(v.reason.contains("unknown"), "{}", v.reason);
    }

    #[test]
    fn coverage_universe_matches_tables() {
        use crate::spec::{LINK_TABLE, NLA_TABLE, RANK_TABLE};
        let total = MigrationSpec::shipped().transitions.len()
            + NLA_TABLE.len()
            + RANK_TABLE.len()
            + LINK_TABLE.len();
        assert_eq!(Coverage::universe().len(), total);
    }

    #[test]
    fn trace_json_round_trips() {
        let trace = vec![
            cycle_ev("idle", "trigger", "stall"),
            RawEvent {
                time_ns: 42,
                cat: "pool".to_string(),
                name: "free_slots".to_string(),
                kind: RawKind::Counter,
                args: vec![
                    ("value".to_string(), ArgVal::F64(3.5)),
                    (
                        "label".to_string(),
                        ArgVal::Str("a \"quoted\"\nline".to_string()),
                    ),
                    ("n".to_string(), ArgVal::U64(7)),
                ],
            },
        ];
        let json = trace_to_json(&trace);
        let back = parse_trace_json(&json).expect("round trip");
        assert_eq!(back.len(), trace.len());
        assert_eq!(back[0].cat, "proto");
        assert_eq!(back[0].arg_str("event"), Some("trigger"));
        assert_eq!(back[1].kind, RawKind::Counter);
        assert_eq!(back[1].arg_u64("n"), Some(7));
        assert_eq!(back[1].arg_str("label"), Some("a \"quoted\"\nline"));
        assert_eq!(back[1].time_ns, 42);
    }

    #[test]
    fn coverage_json_lists_missing_edges() {
        let mut cov = Coverage::new();
        cov.mark(edge_key("cycle", "idle", "trigger", "stall"));
        let json = cov.to_json();
        assert!(json.contains("\"schema\": \"coverage_proto/v1\""));
        assert!(json.contains("\"idle --trigger--> stall\": 1"));
        // An unexercised edge shows up in the missing list.
        assert!(json.contains("\"resume --phase_timeout--> aborted\""));
    }
}
