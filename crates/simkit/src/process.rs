//! [`Scope`], the one copy of the simulation's methods, and what reaches
//! it: the cloneable [`SimHandle`], each process's [`Ctx`], telemetry
//! [`Span`]s and [`ProcHandle`]s.

use crate::coro;
use crate::error::Killed;
use crate::hotstats::HotStats;
use crate::kernel::{Kernel, ProcId};
use crate::time::SimTime;
use crate::trace::{Args, EventKind, Tracer};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The simulation seen from one place: from inside a process (a [`Ctx`])
/// or from outside any (a [`SimHandle`] or the [`Simulation`](crate::Simulation)).
///
/// It holds the one copy of the clock, spawn, kill, RNG and telemetry
/// methods; `Ctx`, `SimHandle` and `Simulation` all deref to it. Telemetry
/// emitted through a process's scope is attributed to that process, and
/// through any other scope to none.
pub struct Scope {
    pub(crate) kernel: Arc<Kernel>,
    pid: Option<ProcId>,
}

impl Scope {
    pub(crate) fn new(kernel: Arc<Kernel>, pid: Option<ProcId>) -> Self {
        Scope { kernel, pid }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// A cloneable kernel handle with no process attached (for spawning,
    /// killing, constructing primitives).
    pub fn handle(&self) -> SimHandle {
        SimHandle(Scope::new(Arc::clone(&self.kernel), None))
    }

    /// Spawn a process that participates in deadlock detection.
    pub fn spawn(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.kernel.spawn_inner(name, false, f)
    }

    /// Spawn a *daemon* process: a service that legitimately blocks forever
    /// (e.g. an FTB agent waiting for events) and is ignored by deadlock
    /// detection and by [`Simulation::run`](crate::Simulation::run) completion.
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

    /// Record a telemetry event of this scope, stamped now. With
    /// telemetry off this is the armed check alone: the clock is not read.
    #[inline]
    fn record(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        kind: EventKind,
        args: impl FnOnce() -> Args,
    ) {
        if self.telemetry_on() {
            let tracer = &self.kernel.tracer;
            tracer.record(self.now(), self.pid, cat, name, kind, args);
        }
    }

    /// Append a free-form trace message (no-op unless tracing is on).
    pub fn trace(&self, msg: &str) {
        self.record("log", msg, EventKind::Message, Vec::new);
    }

    /// Open a telemetry span; it ends when the returned guard drops (or at
    /// an explicit [`Span::end`]).
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
        if !self.telemetry_on() {
            return Span { armed: None };
        }
        let name = name.into();
        self.record(cat, name.clone(), EventKind::Begin, args);
        Span {
            armed: Some((Scope::new(Arc::clone(&self.kernel), self.pid), cat, name)),
        }
    }

    /// Emit a point-in-time telemetry event.
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
        self.record(cat, name, EventKind::Instant, args);
    }

    /// Emit a telemetry counter sample.
    pub fn counter(&self, cat: &'static str, name: impl Into<String>, value: f64) {
        self.record(cat, name, EventKind::Counter(value), Vec::new);
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

/// A cloneable handle onto a running (or not-yet-run) simulation, with no
/// process attached.
///
/// `SimHandle` is how code *outside* a process context (test setup, the
/// main thread between [`Simulation::run_until`](crate::Simulation::run_until)
/// calls) and primitives interact with the kernel; its methods are
/// [`Scope`]'s.
pub struct SimHandle(Scope);

impl Clone for SimHandle {
    fn clone(&self) -> Self {
        self.handle()
    }
}

impl Deref for SimHandle {
    type Target = Scope;
    fn deref(&self) -> &Scope {
        &self.0
    }
}

/// The execution context handed to every simulated process body.
///
/// A `Ctx` is unique to its process; blocking calls
/// ([`Ctx::sleep`], [`Event::wait`](crate::Event::wait), [`Queue::pop`](crate::Queue::pop),
/// [`Link::transfer`](crate::Link::transfer), ...)
/// may only be made through it. All blocking calls are kill points: if the
/// process has been killed they unwind with a [`Killed`] payload. Its
/// other methods are [`Scope`]'s, attributed to this process.
pub struct Ctx {
    scope: Scope,
    pid: ProcId,
    /// This process's killed flag, shared with its kernel slot.
    killed: Arc<AtomicBool>,
    /// Kill points passed since the process last blocked.
    unblocked: Cell<u32>,
}

/// Kill points a process may pass without blocking once. A process that
/// loops on a primitive that never blocks (an `Event` left set) spins at
/// one virtual instant; past this many it panics, naming itself and the
/// instant, and the run ends in `SimError::ProcPanic` instead of hanging.
const LIVELOCK_KILL_POINTS: u32 = 1 << 22;

impl Deref for Ctx {
    type Target = Scope;
    fn deref(&self) -> &Scope {
        &self.scope
    }
}

impl Ctx {
    pub(crate) fn new(kernel: Arc<Kernel>, pid: ProcId, killed: Arc<AtomicBool>) -> Self {
        Ctx {
            scope: Scope::new(kernel, Some(pid)),
            pid,
            killed,
            unblocked: Cell::new(0),
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// This process's name (interned at spawn; cloning is a refcount).
    pub fn name(&self) -> Arc<str> {
        self.kernel.proc_name(self.pid)
    }

    /// Advance virtual time by `d`. A zero-duration sleep still yields,
    /// letting other processes scheduled at the same instant run first.
    pub fn sleep(&self, d: Duration) {
        self.check_killed();
        let when = self.kernel.now() + d;
        self.kernel.schedule_wake(self.pid, when);
        self.block();
    }

    /// Block until `target` has terminated. Returns immediately if it is
    /// already dead.
    pub fn join(&self, target: &ProcHandle) {
        self.check_killed();
        loop {
            if !self.kernel.add_join_waiter(target.pid(), self.pid) {
                return; // already dead
            }
            self.block();
            if self.kernel.is_dead(target.pid()) {
                return;
            }
        }
    }

    /// Terminate this process immediately (clean voluntary exit via the
    /// kill-unwind path).
    pub fn exit(&self) -> ! {
        std::panic::panic_any(Killed { pid: self.pid });
    }

    /// Unwind with [`Killed`] if this process has been killed. All blocking
    /// primitives call this; long compute-only loops may call it to poll.
    /// It takes no lock. Panics if the process has passed
    /// `LIVELOCK_KILL_POINTS` (2^22) kill points since it last blocked.
    pub fn check_killed(&self) {
        if self.killed.load(Ordering::Relaxed) {
            std::panic::panic_any(Killed { pid: self.pid });
        }
        let n = self.unblocked.get() + 1;
        self.unblocked.set(n);
        if n > LIVELOCK_KILL_POINTS {
            self.livelock();
        }
    }

    #[cold]
    fn livelock(&self) -> ! {
        panic!(
            "livelock: process '{}' passed {LIVELOCK_KILL_POINTS} kill points at t = {} \
             without blocking once",
            self.name(),
            self.kernel.now()
        );
    }

    /// Switch back to the scheduler loop until the canonical wake fires.
    ///
    /// The caller must have *already registered* its wake condition (a
    /// timer via `schedule_wake`, or membership in a primitive's waiter
    /// list). Checks the kill flag on resume.
    pub(crate) fn block(&self) {
        // Panic state is per host thread, shared by every process on it.
        debug_assert!(
            !std::thread::panicking(),
            "a process must not block while it unwinds"
        );
        coro::suspend(&self.kernel.switch);
        self.unblocked.set(0);
        self.check_killed();
    }
}

/// Handle to a spawned process: query liveness, kill it, or `join` it from
/// another process via [`Ctx::join`].
#[derive(Clone)]
pub struct ProcHandle {
    pid: ProcId,
    kernel: Arc<Kernel>,
}

impl ProcHandle {
    pub(crate) fn new(pid: ProcId, kernel: Arc<Kernel>) -> Self {
        ProcHandle { pid, kernel }
    }

    /// The process id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Whether the process has terminated.
    pub fn is_dead(&self) -> bool {
        self.kernel.is_dead(self.pid)
    }

    /// Kill the process (it unwinds at its next blocking call).
    pub fn kill(&self) {
        self.kernel.kill(self.pid)
    }
}

impl std::fmt::Debug for ProcHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProcHandle({:?})", self.pid)
    }
}

/// RAII telemetry span: emits a begin event when opened (via
/// [`Scope::span`]) and the matching end event — stamped with the virtual
/// time at that moment, attributed like the begin — when dropped or
/// explicitly closed with [`Span::end`].
///
/// When the tracer neither collects nor digests at open time the span is
/// disarmed: no event is built and drop is free.
#[must_use = "a span ends when dropped; binding it to _ ends it immediately"]
pub struct Span {
    // None when telemetry was off at open time.
    armed: Option<(Scope, &'static str, String)>,
}

impl Span {
    /// Close the span now, attaching `args` to the end event.
    pub fn end_with(mut self, args: Args) {
        if let Some((scope, cat, name)) = self.armed.take() {
            scope.record(cat, name, EventKind::End, || args);
        }
    }

    /// Close the span now.
    pub fn end(self) {
        self.end_with(Vec::new());
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((scope, cat, name)) = self.armed.take() {
            scope.record(cat, name, EventKind::End, Vec::new);
        }
    }
}
