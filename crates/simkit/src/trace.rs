//! Structured execution tracing: the workspace-wide telemetry event bus.
//!
//! Every simulation [`Kernel`](crate::Simulation) owns one [`Tracer`].
//! Instrumented code emits [`TraceEvent`]s — spans ([`EventKind::Begin`]/
//! [`EventKind::End`]), point-in-time instants, numeric counter samples,
//! and free-form log messages — stamped with virtual time and the emitting
//! process id. Collection is **off by default**; when disabled, an emit is
//! a single relaxed atomic load and no event payload is constructed
//! (span/instant helpers take `impl Into<String>` and only materialise the
//! name when armed).
//!
//! Downstream, the `telemetry` crate exports the event stream as
//! chrome://tracing JSON, and its `Timeline` rebuilds per-phase stacks
//! (paper Fig. 4) from `cat = "phase"` spans.
//!
//! Because the kernel is deterministic, the event sequence for a given
//! seed is bit-for-bit reproducible — traces are comparable across runs.

use crate::kernel::ProcId;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Start of a span; paired with the next [`EventKind::End`] of the
    /// same `(pid, cat, name)`.
    Begin,
    /// End of a span.
    End,
    /// A point-in-time marker.
    Instant,
    /// A sampled numeric series value (queue depth, bytes in flight, ...).
    Counter(f64),
    /// A free-form log message (the [`Scope::trace`](crate::Scope::trace) path).
    Message,
}

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (ids, byte counts, chunk indexes).
    U64(u64),
    /// Floating point (rates, fractions).
    F64(f64),
    /// Text (names, transport kinds).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Key–value pairs attached to an event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One structured telemetry event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time the event was emitted.
    pub time: SimTime,
    /// Emitting process, if emitted from process context.
    pub pid: Option<ProcId>,
    /// Category: a short static label grouping related events
    /// (`"phase"`, `"rdma"`, `"ckpt"`, `"ftb"`, `"store"`, `"mpi"`, `"log"`).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: String,
    /// What the event marks.
    pub kind: EventKind,
    /// Optional structured arguments.
    pub args: Args,
}

/// Running digest over the full trace-event stream.
///
/// FNV-1a-64 folded over a stable byte encoding of every event (time,
/// pid, category, name, kind, args) in emission order. Because the
/// kernel is deterministic, two runs of the same scenario produce the
/// same digest **iff** their trace streams are byte-identical — this is
/// the oracle the wall-clock optimization work is gated on: an optimized
/// kernel must reproduce the pre-optimization digest bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceDigest {
    /// FNV-1a-64 over the encoded event stream (`0xcbf29ce484222325`
    /// when no event has been folded).
    pub hash: u64,
    /// Number of events folded in.
    pub events: u64,
}

/// FNV-1a-64 offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running FNV-1a-64 hash `h` (start from
/// [`FNV1A_OFFSET`]). The workspace's one FNV-1a: the trace digest, the
/// WAL frame checksum and the fleet soak's render digest all call it.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

impl TraceDigest {
    fn new() -> Self {
        TraceDigest {
            hash: FNV1A_OFFSET,
            events: 0,
        }
    }

    #[inline]
    fn fold_bytes(&mut self, bytes: &[u8]) {
        self.hash = fnv1a(self.hash, bytes);
    }

    fn fold_event(&mut self, ev: &TraceEvent) {
        self.fold_bytes(&ev.time.as_nanos().to_le_bytes());
        match ev.pid {
            Some(p) => {
                self.fold_bytes(&[0x01]);
                self.fold_bytes(&p.0.to_le_bytes());
            }
            None => self.fold_bytes(&[0xFF]),
        }
        self.fold_bytes(ev.cat.as_bytes());
        self.fold_bytes(&[0]);
        self.fold_bytes(ev.name.as_bytes());
        self.fold_bytes(&[0]);
        match &ev.kind {
            EventKind::Begin => self.fold_bytes(&[1]),
            EventKind::End => self.fold_bytes(&[2]),
            EventKind::Instant => self.fold_bytes(&[3]),
            EventKind::Counter(v) => {
                self.fold_bytes(&[4]);
                self.fold_bytes(&v.to_bits().to_le_bytes());
            }
            EventKind::Message => self.fold_bytes(&[5]),
        }
        for (k, v) in &ev.args {
            self.fold_bytes(k.as_bytes());
            self.fold_bytes(&[0]);
            match v {
                ArgValue::U64(u) => {
                    self.fold_bytes(&[1]);
                    self.fold_bytes(&u.to_le_bytes());
                }
                ArgValue::F64(f) => {
                    self.fold_bytes(&[2]);
                    self.fold_bytes(&f.to_bits().to_le_bytes());
                }
                ArgValue::Str(s) => {
                    self.fold_bytes(&[3]);
                    self.fold_bytes(s.as_bytes());
                    self.fold_bytes(&[0]);
                }
            }
        }
        self.events += 1;
    }
}

/// Append `s` to `out` as the body of a JSON string literal, without
/// the surrounding quotes: quotes and backslashes are backslash-escaped,
/// newline, carriage return and tab by name, other control characters as
/// `\u00XX`. The workspace's one JSON string escaper: telemetry's chrome
/// export and `Json` builder and protoverify's coverage report all call
/// it, so a string escapes the same way in every file format.
pub fn escape_json(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Collects [`TraceEvent`]s when enabled, and folds them into a
/// [`TraceDigest`] when digesting.
///
/// Disabled by default; an emit is a single relaxed atomic load when off.
pub struct Tracer {
    enabled: AtomicBool,
    digest_on: AtomicBool,
    digest: Mutex<TraceDigest>,
    events: Mutex<Vec<TraceEvent>>,
    /// Each spawned process's name by pid: the kernel's own `Arc<str>`.
    proc_names: Mutex<Vec<Option<Arc<str>>>>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            digest_on: AtomicBool::new(false),
            digest: Mutex::new(TraceDigest::new()),
            events: Mutex::new(Vec::new()),
            proc_names: Mutex::new(Vec::new()),
        }
    }

    /// Fold every subsequent event into a running [`TraceDigest`] instead
    /// of (or in addition to) collecting it. Digesting arms event
    /// construction like `set_enabled` but stores nothing per event, so
    /// soak-length runs can be digested in O(1) memory.
    pub fn set_digest_enabled(&self, on: bool) {
        self.digest_on.store(on, Ordering::Relaxed);
    }

    /// The running digest over every event folded so far.
    pub fn digest(&self) -> TraceDigest {
        *self.digest.lock()
    }

    /// Turn event collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) || self.digest_on.load(Ordering::Relaxed)
    }

    /// Record a process name so exporters can label its track. Called by
    /// the kernel on every spawn; names survive `drain_events`.
    pub(crate) fn name_proc(&self, pid: ProcId, name: &Arc<str>) {
        let mut names = self.proc_names.lock();
        let i = pid.0 as usize;
        if names.len() <= i {
            names.resize(i + 1, None);
        }
        names[i] = Some(Arc::clone(name));
    }

    /// Known process names, by raw pid.
    pub fn proc_names(&self) -> HashMap<u32, String> {
        let names = self.proc_names.lock();
        (0..)
            .zip(names.iter())
            .filter_map(|(pid, name)| Some((pid, name.as_deref()?.to_string())))
            .collect()
    }

    /// Record one event stamped `time` (no-op unless enabled or
    /// digesting). `name` and `args` are only materialised when armed.
    /// Every span, instant, counter and log message goes through here.
    pub(crate) fn record(
        &self,
        time: SimTime,
        pid: Option<ProcId>,
        cat: &'static str,
        name: impl Into<String>,
        kind: EventKind,
        args: impl FnOnce() -> Args,
    ) {
        if !self.armed() {
            return;
        }
        let ev = TraceEvent {
            time,
            pid,
            cat,
            name: name.into(),
            kind,
            args: args(),
        };
        if self.digest_on.load(Ordering::Relaxed) {
            self.digest.lock().fold_event(&ev);
        }
        if self.enabled.load(Ordering::Relaxed) {
            self.events.lock().push(ev);
        }
    }

    /// Remove and return all collected events.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record(SimTime::ZERO, None, "log", "hello", Message, Vec::new);
        t.record(SimTime::ZERO, None, "rdma", "chunk", Instant, Vec::new);
        assert!(!t.armed());
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn enabled_tracer_collects_and_drains() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(
            SimTime::from_nanos(5),
            Some(ProcId(3)),
            "log",
            "a",
            Message,
            Vec::new,
        );
        t.record(SimTime::from_nanos(9), None, "log", "b", Message, Vec::new);
        assert!(t.armed());
        let evs = t.drain_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[0].kind, EventKind::Message);
        assert_eq!(evs[0].pid, Some(ProcId(3)));
        assert_eq!(evs[1].time.as_nanos(), 9);
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn structured_events_roundtrip() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.record(
            SimTime::from_nanos(1),
            Some(ProcId(1)),
            "phase",
            "migrate",
            Begin,
            || vec![("cycle", 0u64.into())],
        );
        let dirty = Counter(0.5);
        t.record(
            SimTime::from_nanos(2),
            None,
            "store",
            "dirty",
            dirty,
            Vec::new,
        );
        t.record(
            SimTime::from_nanos(3),
            Some(ProcId(1)),
            "phase",
            "migrate",
            End,
            Vec::new,
        );
        let evs = t.drain_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[0].args, vec![("cycle", ArgValue::U64(0))]);
        assert_eq!(evs[1].kind, EventKind::Counter(0.5));
        assert_eq!(evs[2].kind, EventKind::End);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let emit_seq = |names: &[&str]| {
            let t = Tracer::new();
            t.set_digest_enabled(true);
            for (i, n) in names.iter().enumerate() {
                t.record(
                    SimTime::from_nanos(i as u64),
                    Some(ProcId(1)),
                    "pool",
                    *n,
                    Instant,
                    || vec![("k", (i as u64).into())],
                );
            }
            t.digest()
        };
        let a = emit_seq(&["x", "y"]);
        let b = emit_seq(&["x", "y"]);
        let c = emit_seq(&["x", "z"]);
        assert_eq!(a, b, "same stream, same digest");
        assert_ne!(a.hash, c.hash, "different stream, different digest");
        assert_eq!(a.events, 2);
        // digesting alone stores no events
        let t = Tracer::new();
        t.set_digest_enabled(true);
        t.record(SimTime::ZERO, None, "pool", "x", Instant, Vec::new);
        assert!(t.drain_events().is_empty());
        assert_eq!(t.digest().events, 1);
    }

    #[test]
    fn digest_distinguishes_kind_and_args() {
        let one = |kind: EventKind, args: Args| {
            let t = Tracer::new();
            t.set_digest_enabled(true);
            t.record(SimTime::ZERO, None, "c", "n", kind, || args);
            t.digest().hash
        };
        let h1 = one(EventKind::Instant, Vec::new());
        let h2 = one(EventKind::Begin, Vec::new());
        let h3 = one(EventKind::Counter(1.0), Vec::new());
        let h4 = one(EventKind::Instant, vec![("a", 1u64.into())]);
        let h5 = one(EventKind::Instant, vec![("a", "1".into())]);
        assert!(h1 != h2 && h1 != h3 && h1 != h4 && h4 != h5);
    }
}
