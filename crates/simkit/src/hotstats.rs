//! Kernel self-profiling: where the simulator's *wall-clock* time goes.
//!
//! The simulation is the workspace's own hot path — fleet soaks and
//! live-migration round sweeps push millions of scheduler events through
//! the kernel — so the kernel profiles itself. Two tiers:
//!
//! * **Counters** (events dispatched, in total and per process, wakes
//!   scheduled and re-keyed, the timer heap's peak, process spawns,
//!   FlowNet recomputes and retimes — every [`Link`](crate::Link) is a
//!   one-link FlowNet, so its traffic counts there too) are always
//!   maintained: plain integers in the scheduler state and its process
//!   slots, bumped under the lock the scheduler already holds.
//! * **Wall-clock timing** (ns per kernel category) reads the host
//!   monotonic clock twice per event and is off unless the
//!   `SIMKIT_PROF=1` environment variable is set when the
//!   [`Simulation`](crate::Simulation) is created (or
//!   [`Scope::set_prof`](crate::Scope::set_prof) is called).
//!
//! Neither tier affects virtual time or the trace stream: profiling a
//! run and not profiling it produce byte-identical traces.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The always-on counters, kept in the scheduler state and bumped under
/// its lock.
#[derive(Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Timers popped and their process resumed.
    pub(crate) dispatches: u64,
    /// Wakes scheduled: inserts and re-keys.
    pub(crate) timer_pushes: u64,
    /// Wakes that re-keyed a pending one in place.
    pub(crate) timer_rekeys: u64,
    /// Peak number of pending wakes, grouped ones included.
    pub(crate) heap_peak: u64,
    /// Simulated processes spawned.
    pub(crate) spawns: u64,
    /// FlowNet rate recomputations (flow add/remove/wake).
    pub(crate) flow_recomputes: u64,
    /// Per-flow completion-wake reschedules issued to the kernel.
    pub(crate) flow_retimes: u64,
}

/// The wall-clock tier, interior-mutable so a lap is a relaxed atomic
/// op under no lock.
pub(crate) struct Hot {
    /// Wall-clock timing armed (`SIMKIT_PROF=1` or `set_prof(true)`).
    prof: AtomicBool,
    /// ns the scheduler spent selecting timers (heap pop). Prof only.
    sched_ns: AtomicU64,
    /// ns from resuming a process until it blocks or finishes (user
    /// code + the switch). Prof only.
    run_ns: AtomicU64,
    /// ns spent in `spawn_inner` (slot setup + first wake).
    /// Prof only.
    spawn_ns: AtomicU64,
}

impl Hot {
    pub(crate) fn new() -> Self {
        let prof = std::env::var("SIMKIT_PROF")
            .map(|v| v == "1")
            .unwrap_or(false);
        Hot {
            prof: AtomicBool::new(prof),
            sched_ns: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            spawn_ns: AtomicU64::new(0),
        }
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

    /// The profile from the scheduler's counters and each process's
    /// dispatch count, in pid order.
    pub(crate) fn snapshot(&self, c: &Counters, per_pid: impl Iterator<Item = u64>) -> HotStats {
        let mut per_proc: Vec<(u32, u64)> = (0..).zip(per_pid).filter(|&(_, n)| n > 0).collect();
        per_proc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        HotStats {
            events_dispatched: c.dispatches,
            stale_timers_skipped: 0,
            timer_pushes: c.timer_pushes,
            timer_rekeys: c.timer_rekeys,
            heap_peak: c.heap_peak,
            procs_spawned: c.spawns,
            flow_recomputes: c.flow_recomputes,
            flow_retimes: c.flow_retimes,
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
/// [`Scope::hot_stats`](crate::Scope::hot_stats)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Dispatches: timers popped and their process resumed. This is the
    /// kernel's fundamental unit of work — "events/sec" in the wall-clock
    /// benches is this counter over elapsed host time.
    pub events_dispatched: u64,
    /// Always 0: the timer heap holds one wake per process and re-keys it
    /// in place, so no popped entry is ever stale. Kept because the
    /// `twoclock` benchmark reads it (its `simkit.stale_share`).
    pub stale_timers_skipped: u64,
    /// Wakes scheduled, whether they inserted a timer or re-keyed the
    /// pending one ([`HotStats::timer_rekeys`]).
    pub timer_pushes: u64,
    /// Wakes that re-keyed a process's pending timer in place; the rest
    /// of [`HotStats::timer_pushes`] inserted one.
    pub timer_rekeys: u64,
    /// Peak number of pending wakes. It counts logical wakes, grouped
    /// FlowNet wakes included, not the heap's entries (a timer group
    /// holds many wakes behind one proxy entry), so it reads the same as
    /// a heap with one entry per wake.
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
    /// Wall ns from resuming a process until it blocks or finishes
    /// (prof only).
    pub run_ns: u64,
    /// Wall ns spent spawning processes (prof only).
    pub spawn_ns: u64,
    /// Dispatch counts per process id, busiest first; only processes
    /// dispatched at least once.
    pub per_proc: Vec<(u32, u64)>,
}

impl HotStats {
    /// Human-readable profile. `names` (e.g. from
    /// [`Tracer::proc_names`](crate::Tracer::proc_names)) labels the
    /// busiest processes.
    pub fn report(&self, names: &HashMap<u32, String>) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str(&format!(
            "events dispatched   {:>12}\n\
             timer pushes        {:>12}\n\
             timer re-keys       {:>12}\n\
             heap peak           {:>12}\n\
             procs spawned       {:>12}\n\
             flow recomputes     {:>12}\n\
             flow retimes        {:>12}\n",
            self.events_dispatched,
            self.timer_pushes,
            self.timer_rekeys,
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
