//! The layer ledger: charges one traced run's work to the workspace's
//! modules, using only what the program already exposes — trace spans and
//! instants, process names and the kernel's per-process dispatch counts.
//!
//! Events are fed in emission order, in chunks (the collector drains the
//! tracer while the simulation runs, so a fleet-length trace never sits
//! in memory at once). Spans pair by `(pid, cat, name)`, as the tracer
//! defines them.

use simkit::{ArgValue, EventKind, TraceEvent};
use std::collections::{BTreeMap, HashMap};

/// Modules that own spans, in the order a parent precedes its children.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    Core,
    Blcrsim,
    Mpisim,
    Ibfabric,
    Storesim,
}

impl Layer {
    fn of_cat(cat: &str) -> Option<Layer> {
        Some(match cat {
            "phase" => Layer::Core,
            "ckpt" => Layer::Blcrsim,
            "mpi" => Layer::Mpisim,
            "rdma" => Layer::Ibfabric,
            "store" => Layer::Storesim,
            _ => return None,
        })
    }

    /// Layers whose spans run on behalf of this one: their time is not
    /// this layer's self time.
    fn children(self) -> &'static [Layer] {
        match self {
            Layer::Core => &[
                Layer::Blcrsim,
                Layer::Mpisim,
                Layer::Ibfabric,
                Layer::Storesim,
            ],
            Layer::Blcrsim => &[Layer::Ibfabric, Layer::Storesim],
            Layer::Mpisim | Layer::Ibfabric | Layer::Storesim => &[],
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Blcrsim => "blcrsim",
            Layer::Mpisim => "mpisim",
            Layer::Ibfabric => "ibfabric",
            Layer::Storesim => "storesim",
        }
    }

    pub const ALL: [Layer; 5] = [
        Layer::Core,
        Layer::Blcrsim,
        Layer::Mpisim,
        Layer::Ibfabric,
        Layer::Storesim,
    ];
}

/// Virtual-time intervals `[start, end)` in ns.
type Intervals = Vec<(u64, u64)>;

/// Sort and merge into disjoint intervals.
fn merged(mut v: Intervals) -> Intervals {
    v.sort_unstable();
    let mut out: Intervals = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn covered(v: &Intervals) -> u64 {
    merged(v.clone()).iter().map(|(s, e)| e - s).sum()
}

/// Length of `a` not covered by `b` (both disjoint and sorted).
fn uncovered(a: &Intervals, b: &Intervals) -> u64 {
    let mut total = 0;
    let mut j = 0;
    for &(s, e) in a {
        let mut cur = s;
        while j < b.len() && b[j].1 <= cur {
            j += 1;
        }
        let mut k = j;
        while cur < e && k < b.len() && b[k].0 < e {
            if b[k].0 > cur {
                total += b[k].0 - cur;
            }
            cur = cur.max(b[k].1);
            k += 1;
        }
        if cur < e {
            total += e - cur;
        }
    }
    total
}

fn arg_u64(args: &[(&'static str, ArgValue)], key: &str) -> Option<u64> {
    args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

fn arg_str<'a>(args: &'a [(&'static str, ArgValue)], key: &str) -> Option<&'a str> {
    args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

/// The four phases a migration holds the job suspended for, in order.
pub const HELD_PHASES: [&str; 4] = ["stall", "migrate", "restart", "resume"];

struct Open {
    start: u64,
    bytes: Option<u64>,
}

/// What one traced run charged to each layer.
#[derive(Default)]
pub struct Ledger {
    open: HashMap<(u32, &'static str, String), Vec<Open>>,
    /// Closed span intervals per layer.
    spans: BTreeMap<Layer, Intervals>,
    /// Closed span intervals per `cat/name`.
    named: BTreeMap<String, Intervals>,
    /// Span or instant counts per `cat/name`.
    pub counts: BTreeMap<String, u64>,
    /// Byte arguments summed per `cat/name`.
    pub bytes: BTreeMap<String, u64>,
    /// Phase span intervals per emitting coordinator process.
    phases: BTreeMap<(u32, String), Intervals>,
    /// Every event fed.
    pub events: u64,
    /// FTB publishes (control and health events; drops excluded).
    pub ftb_published: u64,
    /// Coordinator publish → first rank reaction, summed (ns).
    pub ftb_deliver_ns: u64,
    ftb_pending: Option<u64>,
    /// Migration triggers accepted by a coordinator (cycle leaves idle).
    pub triggers: u64,
    /// Bytes of each live pre-copy round, in order.
    pub round_bytes: Vec<u64>,
}

impl Ledger {
    pub fn feed(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.events += 1;
            let t = ev.time.as_nanos();
            let key = || format!("{}/{}", ev.cat, ev.name);
            match ev.kind {
                EventKind::Begin => {
                    if ev.cat == "mpi" && ev.name == "suspend_and_drain" {
                        if let Some(p) = self.ftb_pending.take() {
                            self.ftb_deliver_ns += t - p;
                        }
                    }
                    let pid = ev.pid.map_or(u32::MAX, |p| p.0);
                    self.open
                        .entry((pid, ev.cat, ev.name.clone()))
                        .or_default()
                        .push(Open {
                            start: t,
                            bytes: arg_u64(&ev.args, "bytes"),
                        });
                }
                EventKind::End => {
                    let pid = ev.pid.map_or(u32::MAX, |p| p.0);
                    let Some(open) = self
                        .open
                        .get_mut(&(pid, ev.cat, ev.name.clone()))
                        .and_then(Vec::pop)
                    else {
                        continue;
                    };
                    let k = key();
                    *self.counts.entry(k.clone()).or_default() += 1;
                    // A dump reports its stream size when it ends.
                    if let Some(b) = open.bytes.or_else(|| arg_u64(&ev.args, "stream_bytes")) {
                        *self.bytes.entry(k.clone()).or_default() += b;
                    }
                    if ev.cat == "phase" {
                        self.phases
                            .entry((pid, ev.name.clone()))
                            .or_default()
                            .push((open.start, t));
                    }
                    if let Some(layer) = Layer::of_cat(ev.cat) {
                        self.spans.entry(layer).or_default().push((open.start, t));
                    }
                    self.named.entry(k).or_default().push((open.start, t));
                }
                EventKind::Instant => {
                    *self.counts.entry(key()).or_default() += 1;
                    if let Some(b) = arg_u64(&ev.args, "bytes") {
                        *self.bytes.entry(key()).or_default() += b;
                    }
                    match (ev.cat, ev.name.as_str()) {
                        ("ftb", "event_dropped") => {}
                        ("ftb", _) => {
                            self.ftb_published += 1;
                            let client = arg_str(&ev.args, "client").unwrap_or("");
                            if client.ends_with("job-manager") || client.ends_with("standby") {
                                self.ftb_pending = Some(t);
                            }
                        }
                        ("proto", "cycle_transition")
                            if arg_str(&ev.args, "from") == Some("idle") =>
                        {
                            self.triggers += 1;
                        }
                        ("live", "round_verdict") => {
                            if let Some(b) = arg_u64(&ev.args, "bytes") {
                                self.round_bytes.push(b);
                            }
                        }
                        _ => {}
                    }
                }
                EventKind::Counter(_) | EventKind::Message => {}
            }
        }
    }

    /// Virtual ms covered by the union of `cat/name` spans.
    pub fn busy_ms(&self, names: &[&str]) -> f64 {
        let mut all = Intervals::new();
        for n in names {
            if let Some(v) = self.named.get(*n) {
                all.extend_from_slice(v);
            }
        }
        covered(&all) as f64 / 1e6
    }

    /// Virtual ms a layer's spans cover that none of its child layers'
    /// spans cover: the layer's own time on the virtual clock.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        let own = merged(self.spans.get(&layer).cloned().unwrap_or_default());
        let mut kids = Intervals::new();
        for c in layer.children() {
            if let Some(v) = self.spans.get(c) {
                kids.extend_from_slice(v);
            }
        }
        uncovered(&own, &merged(kids)) as f64 / 1e6
    }

    /// Virtual ns of each barrier-held migration phase, in protocol
    /// order, with the part an earlier phase already covers removed: in
    /// pipelined and live cycles restart overlaps migrate, and the
    /// report charges the overlap to migrate. Phases are grouped by the
    /// coordinator process that emits them, so concurrent jobs do not
    /// mask each other.
    pub fn held_phase_ns(&self) -> [u64; 4] {
        let mut out = [0; 4];
        let pids: std::collections::BTreeSet<u32> = self.phases.keys().map(|(p, _)| *p).collect();
        for pid in pids {
            let mut earlier = Intervals::new();
            for (i, phase) in HELD_PHASES.iter().enumerate() {
                let own = merged(
                    self.phases
                        .get(&(pid, phase.to_string()))
                        .cloned()
                        .unwrap_or_default(),
                );
                out[i] += uncovered(&own, &merged(earlier.clone()));
                earlier.extend(own);
            }
        }
        out
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    pub fn bytes_of(&self, key: &str) -> u64 {
        self.bytes.get(key).copied().unwrap_or(0)
    }
}

/// Process-name prefixes → the module whose code the process runs.
/// Fleet jobs prefix their daemons with `j<id>-`; that prefix is
/// stripped first. Anything unmatched is charged to `other`, so a
/// renamed process shows up instead of disappearing.
const PREFIXES: &[(&str, &str)] = &[
    ("ftb-agent@", "ftb"),
    ("ftb-heartbeat@", "ftb"),
    ("app-r", "mpisim"),
    ("healthmon@", "healthmon"),
    ("fleet-", "fleetsched"),
    ("ckpt-cadence-", "fleetsched"),
    ("doom@", "fleetsched"),
    ("job-manager", "core"),
    ("standby", "core"),
    ("nla@", "core"),
    ("health-bridge", "core"),
    ("migration-trigger", "core"),
    ("cr-r", "core"),
    ("cr-restart-r", "core"),
    ("restart-r", "core"),
    ("pool", "core"),
    ("srcpool", "core"),
    ("mig", "core"),
];

pub fn module_of(name: &str) -> &'static str {
    let bare = match name.strip_prefix('j') {
        Some(rest) => match rest.split_once('-') {
            Some((id, tail)) if !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()) => tail,
            _ => name,
        },
        None => name,
    };
    PREFIXES
        .iter()
        .find(|(p, _)| bare.starts_with(p))
        .map_or("other", |(_, m)| m)
}

/// Dispatches per module, plus the process names charged to `other`.
pub fn charge_dispatches(
    per_proc: &[(u32, u64)],
    names: &HashMap<u32, String>,
) -> (BTreeMap<&'static str, u64>, Vec<String>) {
    let mut by_module: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unmatched = Vec::new();
    for (pid, n) in per_proc {
        let name = names.get(pid).map_or("?", String::as_str);
        let m = module_of(name);
        if m == "other" && !unmatched.iter().any(|u| u == name) {
            unmatched.push(name.to_string());
        }
        *by_module.entry(m).or_default() += n;
    }
    (by_module, unmatched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncovered_subtracts_overlaps() {
        let a = merged(vec![(0, 10), (20, 30)]);
        let b = merged(vec![(5, 8), (9, 22), (29, 40)]);
        // [0,5) + [8,9) + [22,29)
        assert_eq!(uncovered(&a, &b), 5 + 1 + 7);
        assert_eq!(uncovered(&a, &Vec::new()), 20);
        assert_eq!(covered(&vec![(0, 10), (5, 15), (20, 21)]), 16);
    }

    #[test]
    fn modules_by_prefix() {
        assert_eq!(module_of("ftb-agent@node0"), "ftb");
        assert_eq!(module_of("j12-nla@node3"), "core");
        assert_eq!(module_of("j3-job-manager"), "core");
        assert_eq!(module_of("app-r17"), "mpisim");
        assert_eq!(module_of("mig1-pre0-pull@node9"), "core");
        assert_eq!(module_of("doom@node4"), "fleetsched");
        assert_eq!(module_of("jitter"), "other");
        assert_eq!(module_of("renamed-proc"), "other");
    }
}
