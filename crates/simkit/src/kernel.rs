//! The event-heap scheduler and the coroutine machinery.
//!
//! # Scheduling model
//!
//! Every blocked process has at most one *canonical wake* in the timer
//! heap ([`crate::timers`]). Waking, retiming and killing all go through
//! the same mechanism — allocate a fresh sequence number and insert the
//! process's wake, or re-key the one it has in place — so nothing ever
//! holds a superseded wake and every pop dispatches. This gives a single,
//! easily-audited source of truth for "who runs next" and makes the
//! simulation deterministic: ties at equal virtual time are broken by the
//! sequence number of the latest wake.
//!
//! A FlowNet rate recompute re-times its flows' completion wakes under
//! one scheduler lock ([`WakeSweep::retime`]). Each process's slot keeps
//! the id of the net whose retime set its pending wake
//! ([`Kernel::new_net_id`]), `None` when any other wake (a kill) set it.
//!
//! A FlowNet does not recompute rates when a flow joins or leaves: it
//! marks itself *stale* ([`Kernel::mark_stale`]), and [`Kernel::pop_next`]
//! settles it. Every stale net is settled before a wake later than the
//! current instant pops and before the run stops, so no rate is ever
//! stale across a clock move. A net that had a join is also settled
//! before a wake that net set pops, since a join can make a stored wake
//! early; departures only raise shares, so a departure-only net's due-now
//! wakes pop unsettled. The settle runs with the scheduler lock released,
//! because a net takes its own lock and then the scheduler's.
//!
//! The virtual clock is one atomic word that only the scheduler stores
//! (at each pop, and when [`Simulation::run_until`] reaches its limit),
//! so reading it takes no lock. Each process's killed flag is an atomic
//! its [`Ctx`] shares, so a process checks for its own kill with no lock.
//!
//! # One host thread
//!
//! Each simulated process is a stackful coroutine ([`crate::coro`]) run by
//! the thread that drives the [`Simulation`]. The scheduler loop pops the
//! next timer and resumes its owner; the owner runs until it blocks,
//! which switches straight back to the loop. That loop is the only
//! dispatcher. A process gets its stack at its first dispatch, and the
//! stack returns to the host thread's free list when the process
//! finishes or the `Simulation` is dropped. The list outlives the
//! `Simulation`, so the next one on the same thread reuses its stacks. A
//! process killed before its first dispatch never gets one.

use crate::coro::{Coroutine, Stack, Switch};
use crate::error::{Killed, SimError};
use crate::flownet::NetCell;
use crate::hotstats::{Counters, Hot, HotCat, HotStats};
use crate::process::{Ctx, ProcHandle, Scope};
use crate::time::SimTime;
use crate::timers::TimerHeap;
use crate::trace::{EventKind, Tracer};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// Set by [`Kernel::kill`] and at teardown, never cleared; the
    /// process's [`Ctx`] shares it and reads it without the scheduler
    /// lock.
    killed: Arc<AtomicBool>,
    daemon: bool,
    /// Processes blocked in `join()` on this process.
    join_waiters: Vec<u32>,
    /// Times this process was dispatched.
    dispatches: u64,
    /// The FlowNet whose retime set the pending wake, `None` for any
    /// other wake.
    net: Option<u32>,
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
    /// FlowNets whose rates are stale, in the order they went stale.
    stale: Vec<Arc<NetCell>>,
    /// FlowNet ids handed out.
    nets: u32,
}

impl KState {
    /// Core of [`Kernel::schedule_wake`], callable with the state lock
    /// already held (the sweep paths). `now` is the clock; `net` is the
    /// FlowNet retiming the wake, `None` for any other wake.
    fn schedule_wake_locked(
        &mut self,
        now: SimTime,
        pid: ProcId,
        time: SimTime,
        net: Option<u32>,
    ) -> bool {
        let time = time.max(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.procs.get_mut(pid.0 as usize) {
            Some(slot) if !slot.dead => slot.net = net,
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
    /// `first` is the process body and its killed flag on its first
    /// dispatch, `None` after.
    Ready {
        pid: u32,
        first: Option<(Body, Arc<AtomicBool>)>,
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
        self.st.lock().schedule_wake_locked(now, pid, time, None)
    }

    /// A new id for a FlowNet, the one its retimes leave on the slots.
    pub(crate) fn new_net_id(&self) -> u32 {
        let mut st = self.st.lock();
        st.nets += 1;
        st.nets - 1
    }

    /// Queue the FlowNet `net` to have its rates settled (see the module
    /// docs). A net is queued once per settle.
    pub(crate) fn mark_stale(&self, net: Arc<NetCell>) {
        self.st.lock().stale.push(net);
    }

    /// Pop the next timer at or before `limit`, advance the clock to it
    /// and hand over its owner (and the owner's body on its first
    /// dispatch). Stale FlowNets are settled first where the module docs
    /// say.
    ///
    /// `t_sched` is the open scheduler lap: settle time is split out of
    /// it into [`HotCat::Settle`].
    fn pop_next(&self, limit: SimTime, t_sched: &mut Option<Instant>) -> Popped {
        let mut st = self.st.lock();
        let top = loop {
            let top = st.timers.peek();
            if st.stale.is_empty() {
                break top;
            }
            let now = self.now();
            match top {
                // A wake due now: settle the net that set it if, and
                // only if, a flow joined that net.
                Some((t, pid)) if t <= now && t <= limit => {
                    let joined = st.procs[pid as usize]
                        .net
                        .and_then(|n| st.stale.iter().position(|net| net.id == n && net.joined()));
                    let Some(i) = joined else {
                        break top;
                    };
                    let net = st.stale.remove(i);
                    drop(st);
                    self.hot.split(t_sched, HotCat::Sched);
                    net.settle(self);
                    self.hot.split(t_sched, HotCat::Settle);
                }
                // The clock is about to move or the run to stop: settle
                // every stale net. A settle marks none stale, so the
                // emptied list goes back for its capacity.
                _ => {
                    let mut nets = std::mem::take(&mut st.stale);
                    drop(st);
                    self.hot.split(t_sched, HotCat::Sched);
                    for net in nets.drain(..) {
                        net.settle(self);
                    }
                    self.hot.split(t_sched, HotCat::Settle);
                    st = self.st.lock();
                    debug_assert!(st.stale.is_empty(), "a settle marked a net stale");
                    st.stale = nets;
                    continue;
                }
            }
            st = self.st.lock();
        };
        match top {
            None => return Popped::Quiescent,
            Some((t, _)) if t > limit => return Popped::Limit,
            Some(_) => {}
        }
        let (time, pid) = st.timers.pop().expect("peeked timer");
        self.clock.store(time.as_nanos(), Ordering::Relaxed);
        st.counts.dispatches += 1;
        let slot = &mut st.procs[pid as usize];
        slot.dispatches += 1;
        Popped::Ready {
            pid,
            first: slot.body.take().map(|b| (b, Arc::clone(&slot.killed))),
        }
    }

    pub(crate) fn hot_stats(&self) -> HotStats {
        let st = self.st.lock();
        let per_proc = st.procs.iter().map(|s| s.dispatches);
        self.hot.snapshot(&st.counts, per_proc)
    }

    /// Run `f` against a [`WakeSweep`]: the scheduler lock is taken once
    /// for a primitive's whole pass over its waiter list, or for one
    /// FlowNet recompute and all the wakes it retimes.
    pub(crate) fn sweep<R>(&self, f: impl FnOnce(&mut WakeSweep) -> R) -> R {
        let now = self.now();
        f(&mut WakeSweep {
            st: &mut self.st.lock(),
            now,
        })
    }

    /// Mark `pid` killed and schedule an immediate wake so it unwinds.
    pub(crate) fn kill(&self, pid: ProcId) {
        let now = self.now();
        {
            let mut st = self.st.lock();
            match st.procs.get(pid.0 as usize) {
                Some(s) if !s.dead => s.killed.store(true, Ordering::Relaxed),
                _ => return,
            }
            st.schedule_wake_locked(now, pid, now, None);
        }
        self.log(Some(pid), "killed");
    }

    /// Record a kernel log message about `pid`, stamped now.
    fn log(&self, pid: Option<ProcId>, msg: impl Into<String>) {
        let kind = EventKind::Message;
        self.tracer
            .record(self.now(), pid, "log", msg, kind, Vec::new);
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
        let interned: Arc<str> = Arc::from(name);
        let pid = {
            let mut st = self.st.lock();
            let pid = ProcId(st.procs.len() as u32);
            st.procs.push(Slot {
                name: Arc::clone(&interned),
                body: Some(Box::new(f)),
                dead: false,
                killed: Arc::new(AtomicBool::new(false)),
                daemon,
                join_waiters: Vec::new(),
                dispatches: 0,
                net: None,
            });
            st.timers.add_proc();
            st.counts.spawns += 1;
            st.schedule_wake_locked(now, pid, now, None);
            pid
        };
        self.tracer.name_proc(pid, &interned);
        if self.tracer.armed() {
            self.log(Some(pid), format!("spawned '{name}'"));
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

/// A single-lock window onto the scheduler for one primitive's pass over
/// its waiter list or one FlowNet recompute, handed out by
/// [`Kernel::sweep`]. Its wakes allocate sequence numbers and count
/// exactly as [`Kernel::schedule_wake`] calls would.
pub(crate) struct WakeSweep<'a> {
    st: &'a mut KState,
    now: SimTime,
}

impl WakeSweep<'_> {
    /// Whether `pid` was killed (an unknown pid counts as killed); stays
    /// true after it finished.
    pub(crate) fn killed(&self, pid: u32) -> bool {
        self.st
            .procs
            .get(pid as usize)
            .is_none_or(|s| s.killed.load(Ordering::Relaxed))
    }

    /// Wake `pid` at the current instant unless it was killed. Returns
    /// whether a wake was scheduled (false too for a finished process).
    pub(crate) fn wake(&mut self, pid: u32) -> bool {
        !self.killed(pid)
            && self
                .st
                .schedule_wake_locked(self.now, ProcId(pid), self.now, None)
    }

    /// Count one FlowNet rate recompute.
    pub(crate) fn recompute(&mut self) {
        self.st.counts.flow_recomputes += 1;
    }

    /// Retime a flow owner's completion wake to `time` for the FlowNet
    /// `net`, counted as a FlowNet retime. A killed owner keeps its
    /// immediate wake, so it unwinds and gives up its links at the
    /// instant it was killed.
    pub(crate) fn retime(&mut self, net: u32, pid: ProcId, time: SimTime) {
        if self.killed(pid.0) {
            return;
        }
        self.st.counts.flow_retimes += 1;
        self.st.schedule_wake_locked(self.now, pid, time, Some(net));
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

/// A discrete-event simulation: owns the scheduler loop and the
/// coroutines its processes run on.
///
/// Construct with [`Simulation::new`], spawn processes, then drive with
/// [`Simulation::run`] (to quiescence) or [`Simulation::run_until`]. The
/// processes run on the thread that drives it, so a `Simulation` is not
/// `Send`; [`SimHandle`](crate::SimHandle)s are. Its clock, spawn and
/// telemetry methods are [`Scope`]'s, attributed to no process.
pub struct Simulation {
    scope: Scope,
    /// Started processes by pid, with their names; `None` before the
    /// first dispatch and after the process finished.
    procs: Vec<Option<(Coroutine, Rc<str>)>>,
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
                stale: Vec::new(),
                nets: 0,
            }),
            clock: AtomicU64::new(0),
            tracer: Tracer::new(),
            hot: Hot::new(),
            switch: Arc::new(Switch::new()),
        });
        Simulation {
            scope: Scope::new(kernel, None),
            procs: Vec::new(),
            fin: Rc::new(Cell::new(None)),
            poisoned: false,
        }
    }

    /// Run until `event` fires. Use this to drive simulations containing
    /// perpetual daemons (health monitors, periodic triggers) that would
    /// otherwise keep the heap non-empty forever. Errors if the heap drains or the clock
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
        let st = self.scope.kernel.st.lock();
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
    /// earlier (then it reads the last event time). A `limit` already in
    /// the past runs nothing and leaves the clock where it is.
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunOutcome, SimError> {
        let outcome = self.drive(limit)?;
        if outcome == RunOutcome::LimitReached && limit > self.now() {
            self.scope
                .kernel
                .clock
                .store(limit.as_nanos(), Ordering::Relaxed);
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
        let hot = &self.scope.kernel.hot;
        let mut t_sched = hot.clock();
        let (pid, first) = match self.scope.kernel.pop_next(limit, &mut t_sched) {
            Popped::Quiescent => return Ok(StepResult::Quiescent),
            Popped::Limit => return Ok(StepResult::LimitReached),
            Popped::Ready { pid, first } => (pid, first),
        };
        hot.lap(t_sched, HotCat::Sched);
        let t_run = hot.clock();
        let fin = self.resume(pid, first);
        self.scope.kernel.hot.lap(t_run, HotCat::Run);
        let Some(fin) = fin else {
            return Ok(StepResult::Ran);
        };
        let fin_pid = ProcId(pid);
        let kernel = &self.scope.kernel;
        let (name, waiters) = kernel.finish_proc(pid);
        // Join wakes go to every waiter, killed ones included.
        for w in waiters {
            kernel.schedule_wake(ProcId(w), kernel.now());
        }
        match fin {
            Fin::Ok => kernel.log(Some(fin_pid), "finished"),
            Fin::Killed => kernel.log(Some(fin_pid), "died (killed)"),
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

    /// Run process `pid` until it blocks (`None`) or finishes. `first` is
    /// its body and killed flag at the first dispatch, which gives it a
    /// stack; a process killed before then finishes without one.
    fn resume(&mut self, pid: u32, first: Option<(Body, Arc<AtomicBool>)>) -> Option<Fin> {
        let i = pid as usize;
        if let Some((body, killed)) = first {
            if killed.load(Ordering::Relaxed) {
                return Some(Fin::Killed);
            }
            let kernel = Arc::clone(&self.scope.kernel);
            let fin = Rc::clone(&self.fin);
            let entry = Box::new(move || {
                let ctx = Ctx::new(kernel, ProcId(pid), killed);
                fin.set(Some(match catch_unwind(AssertUnwindSafe(|| body(&ctx))) {
                    Ok(()) => Fin::Ok,
                    Err(p) if p.is::<Killed>() => Fin::Killed,
                    Err(p) => Fin::Panic(panic_message(&*p)),
                }));
            });
            let stack = Stack::take();
            if self.procs.len() <= i {
                self.procs.resize_with(i + 1, || None);
            }
            let coro = Coroutine::new(stack, &self.scope.kernel.switch, entry);
            let name = Rc::from(&*self.scope.kernel.proc_name(ProcId(pid)));
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
        coro.into_stack().recycle();
        Some(self.fin.take().expect("finished process left no outcome"))
    }
}

impl Deref for Simulation {
    type Target = Scope;
    fn deref(&self) -> &Scope {
        &self.scope
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Kill every live process, then resume each started one in pid
        // order so its stack unwinds and its destructors run, and recycle
        // the stack. A body that never ran is dropped without a stack.
        // Unwinding code may spawn, so repeat until nothing is left.
        loop {
            let mut bodies = Vec::new();
            {
                let mut st = self.scope.kernel.st.lock();
                for s in st.procs.iter_mut().filter(|s| !s.dead) {
                    s.killed.store(true, Ordering::Relaxed);
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
                coro.into_stack().recycle();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_simulation_on_the_thread_maps_no_new_stack() {
        fn run(procs: u32) {
            let mut sim = Simulation::new(0);
            let gate = crate::sync::Event::new(&sim.handle(), "gate");
            for i in 0..procs {
                let gate = gate.clone();
                sim.spawn(&format!("p{i}"), move |ctx| {
                    ctx.sleep(std::time::Duration::from_millis(u64::from(i)));
                    if i % 2 == 0 {
                        // Still parked when the simulation is dropped.
                        gate.wait(ctx);
                    }
                });
            }
            sim.run_until(SimTime::from_nanos(10_000_000)).unwrap();
        }
        let mapped = || crate::coro::MAPPED.get();
        crate::coro::clear_free_list();
        run(6);
        let first = mapped();
        run(6);
        run(4);
        assert_eq!(mapped(), first, "a later simulation mapped a stack");
        run(7);
        assert_eq!(mapped(), first + 1, "only the extra process maps one");
    }

    #[test]
    fn panic_label_names_the_running_process() {
        assert_eq!(running_label(), None);
        RUNNING.with(|r| *r.borrow_mut() = Some((ProcId(7), Rc::from("sim:bad"))));
        assert_eq!(running_label().as_deref(), Some("process 'sim:bad' (p7)"));
        RUNNING.with(|r| r.borrow_mut().take());
        assert_eq!(running_label(), None);
    }
}
