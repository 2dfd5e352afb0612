//! The event-heap scheduler and the coroutine machinery.
//!
//! # Scheduling model
//!
//! Every blocked process has at most one *canonical wake*: its entry in the
//! timer heap ([`crate::timers`]), which holds one entry per process at
//! most. Waking, retiming and killing all go through the same mechanism —
//! allocate a fresh sequence number and insert the process's entry, or
//! re-key the one it has in place — so the heap never holds a superseded
//! wake and every pop dispatches. This gives a single, easily-audited
//! source of truth for "who runs next" and makes the simulation
//! deterministic: ties at equal virtual time are broken by the sequence
//! number of the latest wake.
//!
//! The virtual clock is one atomic word that only the scheduler stores
//! (at each pop, and when [`Simulation::run_until`] reaches its limit),
//! so reading it takes no lock.
//!
//! # One host thread
//!
//! Each simulated process is a stackful coroutine ([`crate::coro`]) run by
//! the thread that drives the [`Simulation`]. The scheduler loop pops the
//! next timer and resumes its owner; the owner runs until it blocks,
//! which switches straight back to the loop. That loop is the only
//! dispatcher. A process gets its stack at its first dispatch, and the
//! stack returns to a free list when the process finishes. A process
//! killed before its first dispatch never gets one.

use crate::coro::{Coroutine, Stack, Switch};
use crate::error::{Killed, SimError};
use crate::hotstats::{Counters, Hot, HotCat, HotStats};
use crate::process::{Ctx, ProcHandle, Span};
use crate::time::SimTime;
use crate::timers::TimerHeap;
use crate::trace::{Args, Tracer};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl std::fmt::Debug for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// How a process finished.
enum Fin {
    Ok,
    Killed,
    Panic(String),
}

/// A process body not yet dispatched.
type Body = Box<dyn FnOnce(&Ctx) + Send>;

struct Slot {
    name: Arc<str>,
    /// The body until the first dispatch takes it onto a stack.
    body: Option<Body>,
    dead: bool,
    killed: bool,
    daemon: bool,
    /// Processes blocked in `join()` on this process.
    join_waiters: Vec<u32>,
}

pub(crate) struct KState {
    next_seq: u64,
    timers: TimerHeap,
    // Dense slab indexed by pid (pids are allocated 0,1,2,… and slots are
    // never removed, only marked dead). Index order doubles as pid order,
    // keeping deadlock-report listings deterministic.
    procs: Vec<Slot>,
    rng: StdRng,
    counts: Counters,
}

impl KState {
    /// Core of [`Kernel::schedule_wake`], callable with the state lock
    /// already held (the batch-retime path). `now` is the clock.
    fn schedule_wake_locked(&mut self, now: SimTime, pid: ProcId, time: SimTime) -> bool {
        let time = time.max(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.procs.get(pid.0 as usize) {
            Some(slot) if !slot.dead => {}
            _ => return false,
        }
        let c = &mut self.counts;
        c.timer_pushes += 1;
        if self.timers.schedule(pid.0, time, seq) {
            c.timer_rekeys += 1;
        } else {
            c.heap_peak = c.heap_peak.max(self.timers.len() as u64);
        }
        true
    }
}

/// Outcome of [`Kernel::pop_next`].
enum Popped {
    Quiescent,
    Limit,
    /// `body` is the process body on its first dispatch, `None` after.
    Ready {
        pid: u32,
        body: Option<Body>,
    },
}

/// Shared kernel: the scheduler state, the tracer and the switch point
/// every process blocks through.
pub(crate) struct Kernel {
    pub(crate) st: Mutex<KState>,
    /// The virtual clock in ns. Stored only by the scheduler.
    clock: AtomicU64,
    pub(crate) tracer: Tracer,
    pub(crate) hot: Hot,
    pub(crate) switch: Arc<Switch>,
}

impl Kernel {
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.load(Ordering::Relaxed))
    }

    /// Set `pid`'s canonical wake to `time` (replacing any pending one).
    /// No-op on dead processes. Returns whether a wake was actually
    /// scheduled.
    pub(crate) fn schedule_wake(&self, pid: ProcId, time: SimTime) -> bool {
        let now = self.now();
        self.st.lock().schedule_wake_locked(now, pid, time)
    }

    /// Run `f` against a [`WakeBatch`]: the scheduler lock is taken once
    /// for one FlowNet recompute and all the wakes it retimes.
    pub(crate) fn with_wake_batch<R>(&self, f: impl FnOnce(&mut WakeBatch) -> R) -> R {
        let now = self.now();
        let mut st = self.st.lock();
        st.counts.flow_recomputes += 1;
        f(&mut WakeBatch { st: &mut st, now })
    }

    /// Pop the next timer at or before `limit`, advance the clock to it
    /// and hand over its owner (and the owner's body on its first
    /// dispatch).
    fn pop_next(&self, limit: SimTime) -> Popped {
        let mut st = self.st.lock();
        match st.timers.peek_time() {
            None => return Popped::Quiescent,
            Some(t) if t > limit => return Popped::Limit,
            Some(_) => {}
        }
        let (time, pid) = st.timers.pop().expect("peeked timer");
        self.clock.store(time.as_nanos(), Ordering::Relaxed);
        st.counts.dispatches += 1;
        Popped::Ready {
            pid,
            body: st.procs[pid as usize].body.take(),
        }
    }

    pub(crate) fn hot_stats(&self) -> HotStats {
        let counts = self.st.lock().counts;
        self.hot.snapshot(&counts)
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

    /// Spawn a new simulated process; it will first run at the current
    /// virtual instant, after already-scheduled same-time timers.
    pub(crate) fn spawn_inner(
        self: &Arc<Self>,
        name: &str,
        daemon: bool,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ProcHandle {
        let t0 = self.hot.clock();
        let now = self.now();
        let pid = {
            let mut st = self.st.lock();
            let pid = ProcId(st.procs.len() as u32);
            st.procs.push(Slot {
                name: Arc::from(name),
                body: Some(Box::new(f)),
                dead: false,
                killed: false,
                daemon,
                join_waiters: Vec::new(),
            });
            st.timers.add_proc();
            st.counts.spawns += 1;
            st.schedule_wake_locked(now, pid, now);
            pid
        };
        self.tracer.name_proc(pid, name);
        if self.tracer.armed() {
            self.tracer
                .rec(self.now(), Some(pid), &format!("spawned '{name}'"));
        }
        self.hot.lap(t0, HotCat::Spawn);
        ProcHandle::new(pid, Arc::clone(self))
    }

    /// Mark a process dead and drop its pending wake. Returns its name
    /// and the processes joined on it.
    fn finish_proc(&self, pid: u32) -> (Arc<str>, Vec<u32>) {
        let mut st = self.st.lock();
        st.timers.remove(pid);
        let slot = st
            .procs
            .get_mut(pid as usize)
            .expect("finish of unknown proc");
        slot.dead = true;
        (
            Arc::clone(&slot.name),
            std::mem::take(&mut slot.join_waiters),
        )
    }
}

/// A single-lock window onto the scheduler, handed out by
/// [`Kernel::with_wake_batch`]. Wakes scheduled through it are identical —
/// same sequence-number allocation, same heap discipline — to individual
/// [`Kernel::schedule_wake`] calls; only the locking is batched.
pub(crate) struct WakeBatch<'a> {
    st: &'a mut KState,
    now: SimTime,
}

impl WakeBatch<'_> {
    /// Retime a flow owner's completion wake (see
    /// [`Kernel::schedule_wake`]), counted as a FlowNet retime.
    pub(crate) fn retime(&mut self, pid: ProcId, time: SimTime) {
        self.st.counts.flow_retimes += 1;
        self.st.schedule_wake_locked(self.now, pid, time);
    }
}

thread_local! {
    /// The process this thread is running right now, with its name: set
    /// where [`Simulation::resume`] switches in, cleared when it switches
    /// back. The panic hook reads it to say which process panicked.
    static RUNNING: RefCell<Option<(ProcId, Rc<str>)>> = const { RefCell::new(None) };
}

/// "process 'name' (pN)" for the process running on this thread, if any.
fn running_label() -> Option<String> {
    RUNNING
        .try_with(|r| {
            let r = r.try_borrow().ok()?;
            let (pid, name) = r.as_ref()?;
            Some(format!("process '{name}' ({pid:?})"))
        })
        .ok()
        .flatten()
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

    /// Whether telemetry events are built (collected or digested). Check
    /// before building an expensive event payload (formatted names,
    /// argument vectors).
    #[inline]
    pub fn telemetry_on(&self) -> bool {
        self.kernel.tracer.armed()
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
        self.kernel.hot_stats()
    }

    /// Arm or disarm wall-clock profiling at runtime (equivalent to the
    /// `SIMKIT_PROF=1` environment variable at construction).
    pub fn set_prof(&self, on: bool) {
        self.kernel.hot.set_prof(on)
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

/// A discrete-event simulation: owns the scheduler loop and the stacks
/// its processes run on.
///
/// Construct with [`Simulation::new`], spawn processes, then drive with
/// [`Simulation::run`] (to quiescence) or [`Simulation::run_until`]. The
/// processes run on the thread that drives it, so a `Simulation` is not
/// `Send`; [`SimHandle`]s are.
pub struct Simulation {
    kernel: Arc<Kernel>,
    /// Started processes by pid, with their names; `None` before the
    /// first dispatch and after the process finished.
    procs: Vec<Option<(Coroutine, Rc<str>)>>,
    /// Stacks of finished processes, reused by the next first dispatch.
    stacks: Vec<Stack>,
    /// How the process that just returned finished, left by its body.
    fin: Rc<Cell<Option<Fin>>>,
    /// Set once a process panic has aborted the run; further use is a bug.
    poisoned: bool,
}

impl Simulation {
    /// Create a simulation whose RNG is seeded with `seed`. Identical seeds
    /// and identical process logic produce identical event sequences.
    pub fn new(seed: u64) -> Self {
        // Kill-unwinds are routine control flow here; stop the default
        // panic hook from spamming stderr with them (installed once). Every
        // process runs on the driving thread, so the default message names
        // that thread: say first which process panicked.
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().is::<Killed>() {
                    return;
                }
                if let Some(label) = running_label() {
                    eprintln!("{label} panicked:");
                }
                prev(info);
            }));
        });
        let kernel = Arc::new(Kernel {
            st: Mutex::new(KState {
                next_seq: 0,
                timers: TimerHeap::new(),
                procs: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                counts: Counters::default(),
            }),
            clock: AtomicU64::new(0),
            tracer: Tracer::new(),
            hot: Hot::new(),
            switch: Arc::new(Switch::new()),
        });
        Simulation {
            kernel,
            procs: Vec::new(),
            stacks: Vec::new(),
            fin: Rc::new(Cell::new(None)),
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
        self.kernel.hot_stats()
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
                    return Err(self.deadlock());
                }
            }
        }
    }

    /// Run until the event heap drains. Returns an error on protocol
    /// deadlock (non-daemon processes blocked forever) or a process panic.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.drive(SimTime::MAX)?;
        // Heap drained: any live, blocked, non-daemon process is deadlocked.
        match self.deadlock() {
            SimError::Deadlock { blocked, .. } if blocked.is_empty() => Ok(()),
            e => Err(e),
        }
    }

    /// A deadlock report listing every live non-daemon process.
    fn deadlock(&self) -> SimError {
        let st = self.kernel.st.lock();
        let blocked: Vec<(ProcId, String)> = st
            .procs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.dead && !s.daemon)
            .map(|(pid, s)| (ProcId(pid as u32), s.name.to_string()))
            .collect();
        SimError::Deadlock {
            at: self.now(),
            blocked,
        }
    }

    /// Run until virtual time `limit` (inclusive of events at `limit`).
    /// On success the clock reads exactly `limit` unless the heap drained
    /// earlier (then it reads the last event time).
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunOutcome, SimError> {
        let outcome = self.drive(limit)?;
        if outcome == RunOutcome::LimitReached {
            self.kernel.clock.store(limit.as_nanos(), Ordering::Relaxed);
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

    /// Pop the next event and run its process until it blocks or ends.
    fn step_one(&mut self, limit: SimTime) -> Result<StepResult, SimError> {
        assert!(!self.poisoned, "simulation used after a process panic");
        let hot = &self.kernel.hot;
        let t_sched = hot.clock();
        let (pid, body) = match self.kernel.pop_next(limit) {
            Popped::Quiescent => return Ok(StepResult::Quiescent),
            Popped::Limit => return Ok(StepResult::LimitReached),
            Popped::Ready { pid, body } => (pid, body),
        };
        hot.lap(t_sched, HotCat::Sched);
        hot.count_proc(pid);
        let t_run = hot.clock();
        let fin = self.resume(pid, body);
        self.kernel.hot.lap(t_run, HotCat::Run);
        let Some(fin) = fin else {
            return Ok(StepResult::Ran);
        };
        let fin_pid = ProcId(pid);
        let (name, waiters) = self.kernel.finish_proc(pid);
        for w in waiters {
            self.kernel.wake_now(ProcId(w));
        }
        let tracer = &self.kernel.tracer;
        match fin {
            Fin::Ok => tracer.rec(self.now(), Some(fin_pid), "finished"),
            Fin::Killed => tracer.rec(self.now(), Some(fin_pid), "died (killed)"),
            Fin::Panic(message) => {
                self.poisoned = true;
                return Err(SimError::ProcPanic {
                    pid: fin_pid,
                    name: name.to_string(),
                    message,
                });
            }
        }
        Ok(StepResult::Ran)
    }

    /// Run process `pid` until it blocks (`None`) or finishes. `body` is
    /// its body at the first dispatch, which gives it a stack; a process
    /// killed before then finishes without one.
    fn resume(&mut self, pid: u32, body: Option<Body>) -> Option<Fin> {
        let i = pid as usize;
        if let Some(body) = body {
            if self.kernel.is_killed(ProcId(pid)) {
                return Some(Fin::Killed);
            }
            let kernel = Arc::clone(&self.kernel);
            let fin = Rc::clone(&self.fin);
            let entry = Box::new(move || {
                let ctx = Ctx::new(kernel, ProcId(pid));
                fin.set(Some(match catch_unwind(AssertUnwindSafe(|| body(&ctx))) {
                    Ok(()) => Fin::Ok,
                    Err(p) if p.is::<Killed>() => Fin::Killed,
                    Err(p) => Fin::Panic(panic_message(&*p)),
                }));
            });
            let stack = self.stacks.pop().unwrap_or_else(Stack::new);
            if self.procs.len() <= i {
                self.procs.resize_with(i + 1, || None);
            }
            let coro = Coroutine::new(stack, &self.kernel.switch, entry);
            let name = Rc::from(&*self.kernel.proc_name(ProcId(pid)));
            self.procs[i] = Some((coro, name));
        }
        let (coro, name) = self.procs[i]
            .as_mut()
            .expect("dispatched a process with no stack");
        RUNNING.with(|r| *r.borrow_mut() = Some((ProcId(pid), Rc::clone(name))));
        let finished = coro.resume();
        RUNNING.with(|r| r.borrow_mut().take());
        if !finished {
            return None;
        }
        let (coro, _) = self.procs[i].take().expect("finished process vanished");
        self.stacks.push(coro.into_stack());
        Some(self.fin.take().expect("finished process left no outcome"))
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Kill every live process, then resume each started one in pid
        // order so its stack unwinds and its destructors run. A body that
        // never ran is dropped without a stack. Unwinding code may spawn,
        // so repeat until nothing is left.
        loop {
            let mut bodies = Vec::new();
            {
                let mut st = self.kernel.st.lock();
                for s in st.procs.iter_mut().filter(|s| !s.dead) {
                    s.killed = true;
                    bodies.extend(s.body.take());
                }
            }
            let started: Vec<Coroutine> = self.procs.drain(..).flatten().map(|(c, _)| c).collect();
            if bodies.is_empty() && started.is_empty() {
                break;
            }
            drop(bodies);
            for mut coro in started {
                while !coro.resume() {}
                self.fin.take();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_label_names_the_running_process() {
        assert_eq!(running_label(), None);
        RUNNING.with(|r| *r.borrow_mut() = Some((ProcId(7), Rc::from("sim:bad"))));
        assert_eq!(running_label().as_deref(), Some("process 'sim:bad' (p7)"));
        RUNNING.with(|r| r.borrow_mut().take());
        assert_eq!(running_label(), None);
    }
}
