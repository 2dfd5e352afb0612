//! Kernel self-profiling: where the simulator's *wall-clock* time goes.
//!
//! The simulation is the workspace's own hot path — fleet soaks and
//! live-migration round sweeps push millions of scheduler events through
//! the kernel — so the kernel profiles itself. Two tiers:
//!
//! * **Counters** (events dispatched, timer-heap pushes, stale timers
//!   skipped, process spawns, FlowNet recomputes and retimes — every
//!   [`Link`](crate::Link) is a one-link FlowNet, so its traffic counts
//!   there too) are always maintained: one relaxed atomic increment each,
//!   noise next to the ~µs cost of a baton handoff.
//! * **Wall-clock timing** (ns per kernel category, per-process dispatch
//!   counts) reads the host monotonic clock twice per event and is off
//!   unless the `SIMKIT_PROF=1` environment variable is set when the
//!   [`Simulation`](crate::Simulation) is created (or
//!   [`SimHandle::set_prof`](crate::SimHandle::set_prof) is called).
//!
//! Neither tier affects virtual time or the trace stream: profiling a
//! run and not profiling it produce byte-identical traces.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Live counters owned by the kernel. Interior-mutable so every bump is
/// a relaxed atomic op under no lock.
pub(crate) struct Hot {
    /// Wall-clock timing armed (`SIMKIT_PROF=1` or `set_prof(true)`).
    prof: AtomicBool,
    /// Baton handoffs: timers popped as valid and handed to a process.
    pub(crate) dispatches: AtomicU64,
    /// Heap entries popped and discarded as stale (superseded wakes).
    pub(crate) stale_skips: AtomicU64,
    /// Timer-heap pushes (canonical wake replacements included).
    pub(crate) timer_pushes: AtomicU64,
    /// Peak timer-heap length observed at push time.
    pub(crate) heap_peak: AtomicU64,
    /// Simulated processes spawned.
    pub(crate) spawns: AtomicU64,
    /// FlowNet rate recomputations (flow add/remove/wake).
    pub(crate) flow_recomputes: AtomicU64,
    /// Per-flow completion-wake reschedules issued to the kernel.
    pub(crate) flow_retimes: AtomicU64,
    /// ns the scheduler spent selecting timers (heap pop loop). Prof only.
    sched_ns: AtomicU64,
    /// ns between baton send and process yield (user code + handoff).
    /// Prof only.
    run_ns: AtomicU64,
    /// ns spent in `spawn_inner` (slot setup + thread create/reuse).
    /// Prof only.
    spawn_ns: AtomicU64,
    /// Dispatches per process. Prof only.
    per_proc: Mutex<BTreeMap<u32, u64>>,
}

impl Hot {
    pub(crate) fn new() -> Self {
        let prof = std::env::var("SIMKIT_PROF")
            .map(|v| v == "1")
            .unwrap_or(false);
        Hot {
            prof: AtomicBool::new(prof),
            dispatches: AtomicU64::new(0),
            stale_skips: AtomicU64::new(0),
            timer_pushes: AtomicU64::new(0),
            heap_peak: AtomicU64::new(0),
            spawns: AtomicU64::new(0),
            flow_recomputes: AtomicU64::new(0),
            flow_retimes: AtomicU64::new(0),
            sched_ns: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            spawn_ns: AtomicU64::new(0),
            per_proc: Mutex::new(BTreeMap::new()),
        }
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn raise_peak(&self, len: u64) {
        self.heap_peak.fetch_max(len, Ordering::Relaxed);
    }

    pub(crate) fn set_prof(&self, on: bool) {
        self.prof.store(on, Ordering::Relaxed);
    }

    /// Start a wall-clock measurement, `None` when profiling is off.
    #[inline]
    pub(crate) fn clock(&self) -> Option<Instant> {
        if self.prof.load(Ordering::Relaxed) {
            Some(Instant::now()) // jmlint: allow(wall_clock) — the profiler measures host time by design
        } else {
            None
        }
    }

    /// Close a measurement opened with [`Hot::clock`] into a category.
    #[inline]
    pub(crate) fn lap(&self, t0: Option<Instant>, cat: HotCat) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let counter = match cat {
                HotCat::Sched => &self.sched_ns,
                HotCat::Run => &self.run_ns,
                HotCat::Spawn => &self.spawn_ns,
            };
            counter.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Count one dispatch against `pid` (prof only — map update).
    #[inline]
    pub(crate) fn count_proc(&self, pid: u32) {
        if self.prof.load(Ordering::Relaxed) {
            *self.per_proc.lock().entry(pid).or_insert(0) += 1;
        }
    }

    pub(crate) fn snapshot(&self) -> HotStats {
        let mut per_proc: Vec<(u32, u64)> =
            self.per_proc.lock().iter().map(|(&p, &n)| (p, n)).collect();
        per_proc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        HotStats {
            events_dispatched: self.dispatches.load(Ordering::Relaxed),
            stale_timers_skipped: self.stale_skips.load(Ordering::Relaxed),
            timer_pushes: self.timer_pushes.load(Ordering::Relaxed),
            heap_peak: self.heap_peak.load(Ordering::Relaxed),
            procs_spawned: self.spawns.load(Ordering::Relaxed),
            flow_recomputes: self.flow_recomputes.load(Ordering::Relaxed),
            flow_retimes: self.flow_retimes.load(Ordering::Relaxed),
            sched_ns: self.sched_ns.load(Ordering::Relaxed),
            run_ns: self.run_ns.load(Ordering::Relaxed),
            spawn_ns: self.spawn_ns.load(Ordering::Relaxed),
            per_proc,
        }
    }
}

/// Wall-clock categories closed by [`Hot::lap`].
#[derive(Clone, Copy)]
pub(crate) enum HotCat {
    Sched,
    Run,
    Spawn,
}

/// A point-in-time snapshot of the kernel's self-profile (see
/// [`Simulation::hot_stats`](crate::Simulation::hot_stats)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Baton handoffs: timers popped as valid and handed to a process.
    /// This is the kernel's fundamental unit of work — "events/sec" in
    /// the wall-clock benches is this counter over elapsed host time.
    pub events_dispatched: u64,
    /// Heap entries popped and discarded as stale (superseded wakes).
    pub stale_timers_skipped: u64,
    /// Timer-heap pushes.
    pub timer_pushes: u64,
    /// Peak timer-heap length observed.
    pub heap_peak: u64,
    /// Simulated processes spawned.
    pub procs_spawned: u64,
    /// FlowNet rate recomputations ([`Link`](crate::Link) traffic
    /// included: a `Link` is a one-link FlowNet).
    pub flow_recomputes: u64,
    /// Per-flow completion-wake reschedules issued: one per flow whose
    /// rate changed, plus one when a flow starts.
    pub flow_retimes: u64,
    /// Wall ns the scheduler spent selecting timers (prof only).
    pub sched_ns: u64,
    /// Wall ns between baton send and process yield (prof only).
    pub run_ns: u64,
    /// Wall ns spent spawning processes (prof only).
    pub spawn_ns: u64,
    /// Dispatch counts per process id, busiest first (prof only).
    pub per_proc: Vec<(u32, u64)>,
}

impl HotStats {
    /// Difference against an earlier snapshot (for profiling one phase of
    /// a longer run). `per_proc` is left empty.
    pub fn since(&self, earlier: &HotStats) -> HotStats {
        HotStats {
            events_dispatched: self.events_dispatched - earlier.events_dispatched,
            stale_timers_skipped: self.stale_timers_skipped - earlier.stale_timers_skipped,
            timer_pushes: self.timer_pushes - earlier.timer_pushes,
            heap_peak: self.heap_peak,
            procs_spawned: self.procs_spawned - earlier.procs_spawned,
            flow_recomputes: self.flow_recomputes - earlier.flow_recomputes,
            flow_retimes: self.flow_retimes - earlier.flow_retimes,
            sched_ns: self.sched_ns - earlier.sched_ns,
            run_ns: self.run_ns - earlier.run_ns,
            spawn_ns: self.spawn_ns - earlier.spawn_ns,
            per_proc: Vec::new(),
        }
    }

    /// Human-readable profile. `names` (e.g. from
    /// [`Tracer::proc_names`](crate::Tracer::proc_names)) labels the
    /// busiest processes when per-process counts were collected.
    pub fn report(&self, names: &HashMap<u32, String>) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str(&format!(
            "events dispatched   {:>12}\n\
             timer pushes        {:>12}\n\
             stale timers        {:>12}\n\
             heap peak           {:>12}\n\
             procs spawned       {:>12}\n\
             flow recomputes     {:>12}\n\
             flow retimes        {:>12}\n",
            self.events_dispatched,
            self.timer_pushes,
            self.stale_timers_skipped,
            self.heap_peak,
            self.procs_spawned,
            self.flow_recomputes,
            self.flow_retimes,
        ));
        if self.sched_ns + self.run_ns + self.spawn_ns > 0 {
            out.push_str(&format!(
                "sched wall          {:>12.1} ms\n\
                 run+handoff wall    {:>12.1} ms\n\
                 spawn wall          {:>12.1} ms\n",
                ms(self.sched_ns),
                ms(self.run_ns),
                ms(self.spawn_ns),
            ));
        }
        if !self.per_proc.is_empty() {
            out.push_str("busiest processes:\n");
            for (pid, n) in self.per_proc.iter().take(12) {
                let name = names.get(pid).map(String::as_str).unwrap_or("?");
                out.push_str(&format!("  p{pid:<6} {n:>10}  {name}\n"));
            }
        }
        out
    }
}
