//! The event-heap scheduler and the cooperative-thread machinery.
//!
//! # Scheduling model
//!
//! Every blocked process has at most one *canonical wake*: an entry in the
//! global timer heap identified by a sequence number stored in the process
//! slot (`pending_seq`). Waking, retiming and killing all go through the
//! same mechanism — push a fresh timer and overwrite `pending_seq` — so
//! stale heap entries are recognised and skipped when popped. This gives a
//! single, easily-audited source of truth for "who runs next" and makes the
//! simulation deterministic: ties at equal virtual time are broken by
//! insertion sequence.
//!
//! # Thread handoff
//!
//! Each simulated process is an OS thread parked on a private baton (an
//! unpark token). At most one simulated process executes at any wall-clock
//! instant. By default a yielding process dispatches the next timer
//! **directly** — it pops the heap itself and unparks the next owner, one
//! context switch per event instead of the two a scheduler round trip
//! costs. The scheduler thread is woken only at chain breaks: a process
//! finished (bookkeeping, join wakes, thread reaping), the heap drained,
//! the drive limit was reached, or the `run_until_set` stop flag fired.
//! Dispatch order is identical either way — both paths pop the same
//! shared heap under the same lock — so traces are byte-identical; set
//! `SIMKIT_NO_HANDOFF=1` (or [`SimHandle::set_direct_handoff`]) to force
//! every event through the scheduler thread (the legacy path, kept as
//! the wall-clock benches' "before" mode).

use crate::error::{Killed, SimError};
use crate::hotstats::{Hot, HotCat, HotStats};
use crate::process::{Ctx, ProcHandle, Span};
use crate::time::SimTime;
use crate::trace::{Args, Tracer};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread;

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl std::fmt::Debug for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Timer {
    time: SimTime,
    seq: u64,
    pid: u32,
}

impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How a process finished, reported through the yield channel.
pub(crate) enum Fin {
    Ok,
    Killed,
    Panic(String),
}

pub(crate) struct YieldMsg {
    pub pid: u32,
    pub finished: Option<Fin>,
}

/// Rendezvous cell for one process thread: an unpark token plus the
/// thread handle to poke. A handoff is one `Release` store and one
/// `unpark` — a single futex wake when the target is parked — replacing
/// the heavier per-process rendezvous channel.
pub(crate) struct Baton {
    token: AtomicBool,
    thread: OnceLock<thread::Thread>,
}

impl Baton {
    fn new() -> Baton {
        Baton {
            token: AtomicBool::new(false),
            thread: OnceLock::new(),
        }
    }

    /// Hand the baton over. Safe even if the target has not parked yet:
    /// the token makes the wake stick (its first `take` consumes it).
    pub(crate) fn give(&self) {
        self.token.store(true, Ordering::Release);
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Park until the baton arrives. Spins briefly first: busy processes
    /// are typically re-dispatched within a few µs, and a futex
    /// sleep/wake round trip costs more wall time than the spin. The
    /// spin reads the token (no RMW) so the waiting core does not steal
    /// the cache line from the giver.
    pub(crate) fn take(&self) {
        for _ in 0..spin_budget() {
            if self.token.load(Ordering::Acquire) {
                break;
            }
            std::hint::spin_loop();
        }
        while !self.token.swap(false, Ordering::Acquire) {
            thread::park();
        }
    }
}

/// Iterations of the pre-park spin in [`Baton::take`] (`SIMKIT_SPIN`
/// overrides; `0` disables spinning). Spinning only pays when spare
/// cores exist for the waiter to burn — on small hosts it *steals* CPU
/// from the running process — so the default is 0 below 4 cores.
fn spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        if let Some(v) = std::env::var("SIMKIT_SPIN")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            return v;
        }
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores >= 4 {
            4000
        } else {
            0
        }
    })
}

struct Slot {
    name: Arc<str>,
    baton: Arc<Baton>,
    /// Legacy-mode rendezvous: with direct handoff disabled, dispatch
    /// sends on this channel (and the process waits on the paired
    /// receiver) exactly as the pre-optimization kernel did, so the
    /// wall-clock benches' "before" mode reproduces its real cost.
    resume_tx: SyncSender<()>,
    join: Option<thread::JoinHandle<()>>,
    dead: bool,
    killed: bool,
    daemon: bool,
    /// Sequence number of the canonical pending wake timer, if any.
    pending_seq: Option<u64>,
    /// Virtual instant of the canonical pending wake (meaningful only
    /// while `pending_seq` is `Some`).
    pending_time: SimTime,
    /// Processes blocked in `join()` on this process.
    join_waiters: Vec<u32>,
}

pub(crate) struct KState {
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Reverse<Timer>>,
    // Dense slab indexed by pid (pids are allocated 0,1,2,… and slots are
    // never removed, only marked dead). Index order doubles as pid order,
    // keeping deadlock-report listings deterministic.
    procs: Vec<Slot>,
    /// How many *canonical* pending wakes land on each exact nanosecond.
    /// Ties at equal virtual time are broken by timer insertion sequence,
    /// so an optimization may only keep a stale timer in place (instead
    /// of re-pushing) while its nanosecond is uncontended — FlowNet's
    /// no-op-retime skip consults this to stay byte-identical with the
    /// retime-everything oracle.
    pending_at: HashMap<u64, u32>,
    rng: StdRng,
}

impl KState {
    /// Core of [`Kernel::schedule_wake`], callable with the state lock
    /// already held (the batch-retime path).
    fn schedule_wake_locked(&mut self, hot: &Hot, pid: ProcId, time: SimTime) -> bool {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let Some(slot) = self.procs.get_mut(pid.0 as usize) else {
            return false;
        };
        if slot.dead {
            return false;
        }
        let replaced = slot.pending_seq.replace(seq).map(|_| slot.pending_time);
        slot.pending_time = time;
        if let Some(old) = replaced {
            dec_pending(&mut self.pending_at, old);
        }
        *self.pending_at.entry(time.as_nanos()).or_insert(0) += 1;
        self.heap.push(Reverse(Timer {
            time,
            seq,
            pid: pid.0,
        }));
        Hot::bump(&hot.timer_pushes);
        hot.raise_peak(self.heap.len() as u64);
        true
    }

    /// Pop the next valid timer at or before `limit_ns`, skipping stale
    /// entries, and consume the owner's canonical wake. Advances `now`.
    /// This is the single dispatch-selection point, shared by the
    /// scheduler thread and the direct proc→proc handoff path, so both
    /// produce the identical event order. `legacy` additionally clones
    /// the owner's resume sender (the channel-dispatch path).
    fn pop_next(&mut self, hot: &Hot, limit_ns: u64, legacy: bool) -> Popped {
        loop {
            match self.heap.peek() {
                None => return Popped::Quiescent,
                Some(Reverse(t)) if t.time.as_nanos() > limit_ns => return Popped::Limit,
                Some(_) => {}
            }
            let Reverse(t) = self.heap.pop().unwrap();
            let valid = self
                .procs
                .get(t.pid as usize)
                .map(|s| !s.dead && s.pending_seq == Some(t.seq))
                .unwrap_or(false);
            if valid {
                self.now = t.time;
                let slot = &mut self.procs[t.pid as usize];
                slot.pending_seq = None;
                let baton = Arc::clone(&slot.baton);
                let resume_tx = legacy.then(|| slot.resume_tx.clone());
                dec_pending(&mut self.pending_at, t.time);
                return Popped::Ready {
                    pid: t.pid,
                    baton,
                    resume_tx,
                };
            }
            Hot::bump(&hot.stale_skips);
        }
    }
}

/// Outcome of [`KState::pop_next`].
enum Popped {
    Quiescent,
    Limit,
    Ready {
        pid: u32,
        baton: Arc<Baton>,
        /// `Some` in legacy mode: dispatch by channel send instead of
        /// baton give.
        resume_tx: Option<SyncSender<()>>,
    },
}

/// Wake the popped process through the mode-appropriate rendezvous.
fn dispatch(baton: &Baton, resume_tx: Option<SyncSender<()>>) {
    match resume_tx {
        Some(tx) => tx
            .send(())
            .expect("process thread vanished while scheduled"),
        None => baton.give(),
    }
}

fn dec_pending(pending_at: &mut HashMap<u64, u32>, t: SimTime) {
    if let Some(c) = pending_at.get_mut(&t.as_nanos()) {
        *c -= 1;
        if *c == 0 {
            pending_at.remove(&t.as_nanos());
        }
    }
}

/// Shared kernel: the scheduler state plus the yield channel sender handed
/// to every process thread.
pub(crate) struct Kernel {
    pub(crate) st: Mutex<KState>,
    pub(crate) yield_tx: Sender<YieldMsg>,
    pub(crate) tracer: Tracer,
    pub(crate) hot: Hot,
    /// Direct proc→proc dispatch enabled. Off: every event routes through
    /// the scheduler thread (two context switches per event — the legacy
    /// path, kept for the wall-clock benches' "before" mode).
    direct: AtomicBool,
    /// Virtual-time limit (nanos) of the drive loop currently in
    /// progress; the handoff path must not dispatch past it. `u64::MAX`
    /// outside a drive loop (no process runs then anyway).
    limit_ns: AtomicU64,
    /// Stop flag of an in-progress `run_until_set` (the target event's
    /// set-mirror). The handoff path re-checks it before every dispatch,
    /// exactly as the scheduler loop checks `event.is_set()` between
    /// events, and breaks the chain once it reads true.
    stop: Mutex<Option<Arc<AtomicBool>>>,
    /// Default for [`FlowNet`](crate::FlowNet)s created on this kernel:
    /// retime every flow on every recompute (the pre-incremental oracle).
    pub(crate) full_retime_default: AtomicBool,
}

impl Kernel {
    pub(crate) fn now(&self) -> SimTime {
        self.st.lock().now
    }

    /// Push a fresh canonical wake for `pid` at `time` (replacing any
    /// pending one). No-op on dead processes. Returns whether a wake was
    /// actually scheduled.
    pub(crate) fn schedule_wake(&self, pid: ProcId, time: SimTime) -> bool {
        self.st.lock().schedule_wake_locked(&self.hot, pid, time)
    }

    /// Run `f` against a [`WakeBatch`]: the scheduler lock is taken once
    /// for any number of wake pushes and pending-timer queries. Used by
    /// FlowNet's retime loop instead of per-flow `schedule_wake` calls.
    pub(crate) fn with_wake_batch<R>(&self, f: impl FnOnce(&mut WakeBatch) -> R) -> R {
        let mut st = self.st.lock();
        f(&mut WakeBatch {
            st: &mut st,
            hot: &self.hot,
        })
    }

    /// Wake `pid` at the current instant. Returns false if it is dead.
    pub(crate) fn wake_now(&self, pid: ProcId) -> bool {
        let now = self.now();
        self.schedule_wake(pid, now)
    }

    /// Mark `pid` killed and schedule an immediate wake so it unwinds.
    pub(crate) fn kill(&self, pid: ProcId) {
        {
            let mut st = self.st.lock();
            match st.procs.get_mut(pid.0 as usize) {
                Some(s) if !s.dead => s.killed = true,
                _ => return,
            }
        }
        self.wake_now(pid);
        self.tracer.rec(self.now(), Some(pid), "killed");
    }

    pub(crate) fn is_killed(&self, pid: ProcId) -> bool {
        self.st
            .lock()
            .procs
            .get(pid.0 as usize)
            .map(|s| s.killed)
            .unwrap_or(true)
    }

    pub(crate) fn is_dead(&self, pid: ProcId) -> bool {
        self.st
            .lock()
            .procs
            .get(pid.0 as usize)
            .map(|s| s.dead)
            .unwrap_or(true)
    }

    /// Register `waiter` to be woken when `target` dies. Returns `false`
    /// (and does not register) if the target is already dead.
    pub(crate) fn add_join_waiter(&self, target: ProcId, waiter: ProcId) -> bool {
        let mut st = self.st.lock();
        match st.procs.get_mut(target.0 as usize) {
            Some(s) if !s.dead => {
                s.join_waiters.push(waiter.0);
                true
            }
            _ => false,
        }
    }

    pub(crate) fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        f(&mut self.st.lock().rng)
    }

    /// The process's interned name. Cheap: names are `Arc<str>`, cloned
    /// by reference count (deadlock reports, trace labels, and kernel
    /// diagnostics all share the one allocation made at spawn).
    pub(crate) fn proc_name(&self, pid: ProcId) -> Arc<str> {
        self.st
            .lock()
            .procs
            .get(pid.0 as usize)
            .map(|s| Arc::clone(&s.name))
            .unwrap_or_else(|| Arc::from("<gone>"))
    }

    /// Try to dispatch the next event directly from a yielding process
    /// (one context switch instead of a scheduler round trip). Returns
    /// `false` when the chain must break to the scheduler thread instead:
    /// direct handoff disabled, the stop flag fired, the heap drained, or
    /// the next timer lies past the drive limit.
    pub(crate) fn try_handoff(&self) -> bool {
        if !self.direct.load(Ordering::Relaxed) {
            return false;
        }
        // Same between-events check the scheduler loop performs: once the
        // run_until_set target fires, no further event may be dispatched.
        let stop = self.stop.lock().clone();
        if let Some(flag) = stop {
            if flag.load(Ordering::Acquire) {
                return false;
            }
        }
        let limit_ns = self.limit_ns.load(Ordering::Relaxed);
        let t_sched = self.hot.clock();
        let popped = self.st.lock().pop_next(&self.hot, limit_ns, false);
        match popped {
            Popped::Ready { pid, baton, .. } => {
                self.hot.lap(t_sched, HotCat::Sched);
                Hot::bump(&self.hot.dispatches);
                Hot::bump(&self.hot.direct_handoffs);
                self.hot.count_proc(pid);
                baton.give();
                true
            }
            Popped::Quiescent | Popped::Limit => false,
        }
    }

    /// Whether direct proc→proc dispatch is enabled.
    pub(crate) fn direct_on(&self) -> bool {
        self.direct.load(Ordering::Relaxed)
    }

    /// Install the stop flag consulted by [`Kernel::try_handoff`];
    /// cleared when the returned guard drops.
    fn install_stop(self: &Arc<Self>, flag: Arc<AtomicBool>) -> StopGuard {
        *self.stop.lock() = Some(flag);
        StopGuard(Arc::clone(self))
    }

    /// Spawn a new simulated process; it will first run at the current
    /// virtual instant, after already-scheduled same-time timers.
    pub(crate) fn spawn_inner(
        self: &Arc<Self>,
        name: &str,
        daemon: bool,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ProcHandle {
        let t0 = self.hot.clock();
        let baton = Arc::new(Baton::new());
        let (resume_tx, resume_rx) = sync_channel::<()>(1);
        let interned: Arc<str> = Arc::from(name);
        let pid = {
            let mut st = self.st.lock();
            let pid = st.procs.len() as u32;
            st.procs.push(Slot {
                name: Arc::clone(&interned),
                baton: Arc::clone(&baton),
                resume_tx,
                join: None,
                dead: false,
                killed: false,
                daemon,
                pending_seq: None,
                pending_time: SimTime::ZERO,
                join_waiters: Vec::new(),
            });
            pid
        };
        let pid = ProcId(pid);
        let kernel = Arc::clone(self);
        let yield_tx = self.yield_tx.clone();
        let thread_baton = Arc::clone(&baton);
        let tname = format!("sim:{name}");
        let jh = thread::Builder::new()
            .name(tname)
            .stack_size(512 * 1024)
            .spawn(move || {
                // Wait for the first dispatch (teardown wakes us too; the
                // kill flag then routes straight to unwind).
                if kernel.direct_on() {
                    thread_baton.take();
                } else if resume_rx.recv().is_err() {
                    return; // torn down before we ever ran
                }
                let ctx = Ctx::new(
                    Arc::clone(&kernel),
                    pid,
                    Arc::clone(&thread_baton),
                    resume_rx,
                );
                let fin = if kernel.is_killed(pid) {
                    Fin::Killed
                } else {
                    match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                        Ok(()) => Fin::Ok,
                        Err(p) if p.is::<Killed>() => Fin::Killed,
                        Err(p) => Fin::Panic(panic_message(&*p)),
                    }
                };
                let _ = yield_tx.send(YieldMsg {
                    pid: pid.0,
                    finished: Some(fin),
                });
            })
            .expect("failed to spawn simulation process thread");
        // Register the unpark target before the first wake can possibly
        // be dispatched (the wake is only scheduled below).
        let _ = baton.thread.set(jh.thread().clone());
        Hot::bump(&self.hot.spawns);
        {
            let mut st = self.st.lock();
            st.procs[pid.0 as usize].join = Some(jh);
        }
        self.schedule_wake(pid, self.now());
        self.tracer.name_proc(pid, name);
        if self.tracer.armed() {
            self.tracer
                .rec(self.now(), Some(pid), &format!("spawned '{name}'"));
        }
        self.hot.lap(t0, HotCat::Spawn);
        ProcHandle::new(pid, Arc::clone(self))
    }

    /// Mark a process dead and wake anyone joined on it. Returns its name.
    fn finish_proc(&self, pid: u32) -> (Arc<str>, Vec<u32>) {
        let mut st = self.st.lock();
        let slot = st
            .procs
            .get_mut(pid as usize)
            .expect("finish of unknown proc");
        slot.dead = true;
        let stale = slot.pending_seq.take().map(|_| slot.pending_time);
        let name = Arc::clone(&slot.name);
        let waiters = std::mem::take(&mut slot.join_waiters);
        if let Some(t) = stale {
            dec_pending(&mut st.pending_at, t);
        }
        (name, waiters)
    }
}

/// Clears the kernel stop flag on drop (see [`Kernel::install_stop`]).
struct StopGuard(Arc<Kernel>);

impl Drop for StopGuard {
    fn drop(&mut self) {
        *self.0.stop.lock() = None;
    }
}

/// A single-lock window onto the scheduler, handed out by
/// [`Kernel::with_wake_batch`]. Wake pushes through it are identical —
/// same sequence-number allocation, same heap discipline — to individual
/// [`Kernel::schedule_wake`] calls; only the locking is batched.
pub(crate) struct WakeBatch<'a> {
    st: &'a mut KState,
    hot: &'a Hot,
}

impl WakeBatch<'_> {
    /// See [`Kernel::schedule_wake`].
    pub(crate) fn schedule_wake(&mut self, pid: ProcId, time: SimTime) -> bool {
        self.st.schedule_wake_locked(self.hot, pid, time)
    }

    /// Whether `pid`'s canonical pending wake exists and sits at exactly
    /// `time`.
    pub(crate) fn pending_matches(&self, pid: ProcId, time: SimTime) -> bool {
        self.st
            .procs
            .get(pid.0 as usize)
            .map(|s| s.pending_seq.is_some() && s.pending_time == time)
            .unwrap_or(false)
    }

    /// Number of canonical pending wakes at exactly `time` (any process).
    pub(crate) fn pending_count_at(&self, time: SimTime) -> u32 {
        self.st
            .pending_at
            .get(&time.as_nanos())
            .copied()
            .unwrap_or(0)
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A cloneable handle onto a running (or not-yet-run) simulation.
///
/// `SimHandle` is how code *outside* a process context (test setup, the main
/// thread between [`Simulation::run_until`] calls) and primitives interact
/// with the kernel: reading the clock, spawning processes, killing them,
/// tracing.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) kernel: Arc<Kernel>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Spawn a process that participates in deadlock detection.
    pub fn spawn(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.kernel.spawn_inner(name, false, f)
    }

    /// Spawn a *daemon* process: a service that legitimately blocks forever
    /// (e.g. an FTB agent waiting for events) and is ignored by deadlock
    /// detection and by [`Simulation::run`] completion.
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.kernel.spawn_inner(name, true, f)
    }

    /// Kill a process: it unwinds at its next (or current) blocking call.
    pub fn kill(&self, pid: ProcId) {
        self.kernel.kill(pid)
    }

    /// Whether the process has terminated (finished, killed, or panicked).
    pub fn is_dead(&self, pid: ProcId) -> bool {
        self.kernel.is_dead(pid)
    }

    /// Draw from the simulation-global deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        self.kernel.with_rng(f)
    }

    /// Append a trace record (no-op unless tracing is enabled).
    pub fn trace(&self, msg: &str) {
        self.kernel.tracer.rec(self.now(), None, msg);
    }

    /// Access the tracer (enable, drain records).
    pub fn tracer(&self) -> &Tracer {
        &self.kernel.tracer
    }

    /// Whether telemetry collection is on. Check before building an
    /// expensive event payload (formatted names, argument vectors).
    #[inline]
    pub fn telemetry_on(&self) -> bool {
        self.kernel.tracer.is_enabled()
    }

    /// Open a telemetry span not attributed to any process; it ends when
    /// the returned guard drops (or at an explicit [`Span::end`]).
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> Span {
        self.span_with(cat, name, Vec::new)
    }

    /// Open a telemetry span with arguments attached to its begin event.
    /// `args` is only invoked when telemetry is on.
    pub fn span_with(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        args: impl FnOnce() -> Args,
    ) -> Span {
        Span::open(Arc::clone(&self.kernel), None, cat, name, args)
    }

    /// Emit a point-in-time telemetry event not attributed to any process.
    pub fn instant(&self, cat: &'static str, name: impl Into<String>) {
        self.instant_with(cat, name, Vec::new);
    }

    /// Emit an instant event with arguments; `args` is only invoked when
    /// telemetry is on.
    pub fn instant_with(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        args: impl FnOnce() -> Args,
    ) {
        if self.kernel.tracer.armed() {
            self.kernel
                .tracer
                .instant(self.now(), None, cat, name, args());
        }
    }

    /// Emit a telemetry counter sample not attributed to any process.
    pub fn counter(&self, cat: &'static str, name: impl Into<String>, value: f64) {
        self.kernel
            .tracer
            .counter(self.now(), None, cat, name, value);
    }

    /// Snapshot the kernel self-profile (see [`HotStats`]). Counters are
    /// always live; wall-clock categories need profiling armed.
    pub fn hot_stats(&self) -> HotStats {
        self.kernel.hot.snapshot()
    }

    /// Arm or disarm wall-clock profiling at runtime (equivalent to the
    /// `SIMKIT_PROF=1` environment variable at construction).
    pub fn set_prof(&self, on: bool) {
        self.kernel.hot.set_prof(on)
    }

    /// Enable or disable direct proc→proc event dispatch (default on;
    /// `SIMKIT_NO_HANDOFF=1` starts it off). Off, every event takes a
    /// scheduler-thread round trip — the legacy path the wall-clock
    /// benches use as their "before" mode. Dispatch order, and therefore
    /// the trace stream, is identical either way.
    pub fn set_direct_handoff(&self, on: bool) {
        self.kernel.direct.store(on, Ordering::Relaxed)
    }

    /// Set the default retiming mode for [`FlowNet`](crate::FlowNet)s
    /// created on this kernel from now on: `true` forces the full
    /// retime-everything oracle (equivalent to `SIMKIT_FULL_RETIME=1`).
    pub fn set_full_retime_default(&self, on: bool) {
        self.kernel.full_retime_default.store(on, Ordering::Relaxed)
    }
}

enum StepResult {
    Ran,
    Quiescent,
    LimitReached,
}

/// Outcome of [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The heap drained: nothing left to do before (or after) the limit.
    Quiescent,
    /// The time limit was reached with future work still pending.
    LimitReached,
}

/// A discrete-event simulation: owns the scheduler loop.
///
/// Construct with [`Simulation::new`], spawn processes, then drive with
/// [`Simulation::run`] (to quiescence) or [`Simulation::run_until`].
pub struct Simulation {
    kernel: Arc<Kernel>,
    yield_rx: Receiver<YieldMsg>,
    /// Set once a process panic has aborted the run; further use is a bug.
    poisoned: bool,
}

impl Simulation {
    /// Create a simulation whose RNG is seeded with `seed`. Identical seeds
    /// and identical process logic produce identical event sequences.
    pub fn new(seed: u64) -> Self {
        // Kill-unwinds are routine control flow here; stop the default
        // panic hook from spamming stderr with them (installed once).
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().is::<Killed>() {
                    return;
                }
                prev(info);
            }));
        });
        let (yield_tx, yield_rx) = channel();
        let env_on = |k: &str| std::env::var(k).map(|v| v == "1").unwrap_or(false);
        let kernel = Arc::new(Kernel {
            st: Mutex::new(KState {
                now: SimTime::ZERO,
                next_seq: 0,
                heap: BinaryHeap::new(),
                procs: Vec::new(),
                pending_at: HashMap::new(),
                rng: StdRng::seed_from_u64(seed),
            }),
            yield_tx,
            tracer: Tracer::new(),
            hot: Hot::new(),
            direct: AtomicBool::new(!env_on("SIMKIT_NO_HANDOFF")),
            limit_ns: AtomicU64::new(u64::MAX),
            stop: Mutex::new(None),
            full_retime_default: AtomicBool::new(env_on("SIMKIT_FULL_RETIME")),
        });
        Simulation {
            kernel,
            yield_rx,
            poisoned: false,
        }
    }

    /// A cloneable handle for spawning/killing/tracing.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            kernel: Arc::clone(&self.kernel),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Spawn a process (see [`SimHandle::spawn`]).
    pub fn spawn(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.handle().spawn(name, f)
    }

    /// Spawn a daemon process (see [`SimHandle::spawn_daemon`]).
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.handle().spawn_daemon(name, f)
    }

    /// Snapshot the kernel self-profile (see [`HotStats`]).
    pub fn hot_stats(&self) -> HotStats {
        self.kernel.hot.snapshot()
    }

    /// Run until `event` fires. Use this to drive simulations containing
    /// perpetual daemons (heartbeats, monitors) that would otherwise keep
    /// the heap non-empty forever. Errors if the heap drains or the clock
    /// passes `limit` without the event firing.
    pub fn run_until_set(
        &mut self,
        event: &crate::sync::Event,
        limit: SimTime,
    ) -> Result<(), SimError> {
        // Arm the handoff chain-breaker: a direct dispatch checks this
        // flag exactly where this loop checks `event.is_set()`.
        let _stop = self.kernel.install_stop(event.set_mirror());
        loop {
            if event.is_set() {
                return Ok(());
            }
            match self.step_one(limit)? {
                StepResult::Ran => continue,
                StepResult::Quiescent | StepResult::LimitReached => {
                    if event.is_set() {
                        return Ok(());
                    }
                    let st = self.kernel.st.lock();
                    let blocked: Vec<(ProcId, String)> = st
                        .procs
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| !s.dead && !s.daemon)
                        .map(|(pid, s)| (ProcId(pid as u32), s.name.to_string()))
                        .collect();
                    return Err(SimError::Deadlock {
                        at: st.now,
                        blocked,
                    });
                }
            }
        }
    }

    /// Run until the event heap drains. Returns an error on protocol
    /// deadlock (non-daemon processes blocked forever) or a process panic.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.drive(SimTime::MAX)?;
        // Heap drained: any live, blocked, non-daemon process is deadlocked.
        let st = self.kernel.st.lock();
        let blocked: Vec<(ProcId, String)> = st
            .procs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.dead && !s.daemon)
            .map(|(pid, s)| (ProcId(pid as u32), s.name.to_string()))
            .collect();
        if blocked.is_empty() {
            Ok(())
        } else {
            Err(SimError::Deadlock {
                at: st.now,
                blocked,
            })
        }
    }

    /// Run until virtual time `limit` (inclusive of events at `limit`).
    /// On success the clock reads exactly `limit` unless the heap drained
    /// earlier (then it reads the last event time).
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunOutcome, SimError> {
        let outcome = self.drive(limit)?;
        if outcome == RunOutcome::LimitReached {
            let mut st = self.kernel.st.lock();
            st.now = limit;
        }
        Ok(outcome)
    }

    /// Run for `d` more virtual time from the current instant.
    pub fn run_for(&mut self, d: std::time::Duration) -> Result<RunOutcome, SimError> {
        let limit = self.now() + d;
        self.run_until(limit)
    }

    fn drive(&mut self, limit: SimTime) -> Result<RunOutcome, SimError> {
        loop {
            match self.step_one(limit)? {
                StepResult::Ran => {}
                StepResult::Quiescent => return Ok(RunOutcome::Quiescent),
                StepResult::LimitReached => return Ok(RunOutcome::LimitReached),
            }
        }
    }

    /// Dispatch the next event from the scheduler thread and wait for the
    /// baton to come back. With direct handoff enabled the wait may span
    /// a whole proc→proc chain of events; the yield that wakes us then
    /// comes from whichever process broke the chain, not necessarily the
    /// one dispatched here.
    fn step_one(&mut self, limit: SimTime) -> Result<StepResult, SimError> {
        assert!(!self.poisoned, "simulation used after a process panic");
        // Publish the limit for the handoff path before dispatching.
        self.kernel
            .limit_ns
            .store(limit.as_nanos(), Ordering::Relaxed);
        let legacy = !self.kernel.direct_on();
        let t_sched = self.kernel.hot.clock();
        let popped = self
            .kernel
            .st
            .lock()
            .pop_next(&self.kernel.hot, limit.as_nanos(), legacy);
        let (pid, baton, resume_tx) = match popped {
            Popped::Quiescent => return Ok(StepResult::Quiescent),
            Popped::Limit => return Ok(StepResult::LimitReached),
            Popped::Ready {
                pid,
                baton,
                resume_tx,
            } => (ProcId(pid), baton, resume_tx),
        };
        self.kernel.hot.lap(t_sched, HotCat::Sched);
        Hot::bump(&self.kernel.hot.dispatches);
        self.kernel.hot.count_proc(pid.0);
        // Hand the baton over and wait for some process to yield back.
        let t_run = self.kernel.hot.clock();
        dispatch(&baton, resume_tx);
        let msg = self
            .yield_rx
            .recv()
            .expect("yield channel closed unexpectedly");
        self.kernel.hot.lap(t_run, HotCat::Run);
        if let Some(fin) = msg.finished {
            let fin_pid = ProcId(msg.pid);
            let (name, waiters) = self.kernel.finish_proc(msg.pid);
            for w in waiters {
                self.kernel.wake_now(ProcId(w));
            }
            match fin {
                Fin::Ok => self
                    .kernel
                    .tracer
                    .rec(self.now(), Some(fin_pid), "finished"),
                Fin::Killed => self
                    .kernel
                    .tracer
                    .rec(self.now(), Some(fin_pid), "died (killed)"),
                Fin::Panic(message) => {
                    self.poisoned = true;
                    return Err(SimError::ProcPanic {
                        pid: fin_pid,
                        name: name.to_string(),
                        message,
                    });
                }
            }
            // Reap the thread: it has sent its final yield and is exiting.
            let jh = {
                let mut st = self.kernel.st.lock();
                st.procs
                    .get_mut(msg.pid as usize)
                    .and_then(|s| s.join.take())
            };
            if let Some(jh) = jh {
                let _ = jh.join();
            }
        }
        Ok(StepResult::Ran)
    }
}

/// Both wake mechanisms plus the join handle of one live proc, captured
/// at teardown.
type TeardownVictim = (Arc<Baton>, SyncSender<()>, Option<thread::JoinHandle<()>>);

impl Drop for Simulation {
    fn drop(&mut self) {
        // Kill every live process, release each thread so it unwinds, then
        // join them all. Threads may briefly run concurrently during this
        // teardown; no simulation state advances. Disable direct handoff
        // first so an unwinding process cannot re-dispatch a victim.
        self.kernel.direct.store(false, Ordering::Relaxed);
        let victims: Vec<TeardownVictim> = {
            let mut st = self.kernel.st.lock();
            st.procs
                .iter_mut()
                .filter(|s| !s.dead)
                .map(|s| {
                    s.killed = true;
                    (Arc::clone(&s.baton), s.resume_tx.clone(), s.join.take())
                })
                .collect()
        };
        // Wake both rendezvous mechanisms: each victim waits on whichever
        // matched the dispatch mode at the time it parked.
        for (baton, tx, _) in &victims {
            let _ = tx.try_send(());
            baton.give();
        }
        // Drain final yields so senders don't block, then join.
        for _ in 0..victims.len() {
            let _ = self.yield_rx.recv();
        }
        for (_, _, jh) in victims {
            if let Some(jh) = jh {
                let _ = jh.join();
            }
        }
    }
}
