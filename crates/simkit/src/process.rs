//! Per-process execution context.

use crate::coro;
use crate::error::Killed;
use crate::kernel::{Kernel, ProcId, SimHandle};
use crate::time::SimTime;
use crate::trace::Args;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Duration;

/// The execution context handed to every simulated process body.
///
/// A `Ctx` is unique to its process; blocking calls
/// ([`Ctx::sleep`], [`Event::wait`](crate::Event::wait), [`Queue::pop`](crate::Queue::pop),
/// [`Link::transfer`](crate::Link::transfer), ...)
/// may only be made through it. All blocking calls are kill points: if the
/// process has been killed they unwind with a [`Killed`] payload.
pub struct Ctx {
    kernel: Arc<Kernel>,
    pid: ProcId,
}

impl Ctx {
    pub(crate) fn new(kernel: Arc<Kernel>, pid: ProcId) -> Self {
        Ctx { kernel, pid }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// This process's name (interned at spawn; cloning is a refcount).
    pub fn name(&self) -> Arc<str> {
        self.kernel.proc_name(self.pid)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// A cloneable kernel handle (for spawning, killing, constructing
    /// primitives).
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            kernel: Arc::clone(&self.kernel),
        }
    }

    /// Spawn a child process (not a daemon).
    pub fn spawn(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.handle().spawn(name, f)
    }

    /// Spawn a daemon process (exempt from deadlock detection).
    pub fn spawn_daemon(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) -> ProcHandle {
        self.handle().spawn_daemon(name, f)
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

    /// Draw from the simulation-global deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut StdRng) -> R) -> R {
        self.kernel.with_rng(f)
    }

    /// Append a trace record attributed to this process.
    pub fn trace(&self, msg: &str) {
        self.kernel.tracer.rec(self.now(), Some(self.pid), msg);
    }

    /// Whether telemetry events are built (collected or digested). Check
    /// before building an expensive event payload (formatted names,
    /// argument vectors).
    #[inline]
    pub fn telemetry_on(&self) -> bool {
        self.kernel.tracer.armed()
    }

    /// Open a telemetry span attributed to this process; it ends when the
    /// returned guard drops (or at an explicit [`Span::end`]).
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
        Span::open(Arc::clone(&self.kernel), Some(self.pid), cat, name, args)
    }

    /// Emit a point-in-time telemetry event attributed to this process.
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
                .instant(self.now(), Some(self.pid), cat, name, args());
        }
    }

    /// Emit a telemetry counter sample attributed to this process.
    pub fn counter(&self, cat: &'static str, name: impl Into<String>, value: f64) {
        self.kernel
            .tracer
            .counter(self.now(), Some(self.pid), cat, name, value);
    }

    /// Terminate this process immediately (clean voluntary exit via the
    /// kill-unwind path).
    pub fn exit(&self) -> ! {
        std::panic::panic_any(Killed { pid: self.pid });
    }

    /// Unwind with [`Killed`] if this process has been killed. All blocking
    /// primitives call this; long compute-only loops may call it to poll.
    pub fn check_killed(&self) {
        if self.kernel.is_killed(self.pid) {
            std::panic::panic_any(Killed { pid: self.pid });
        }
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
/// [`Ctx::span`]/[`SimHandle::span`]) and the matching end event — stamped
/// with the virtual time at that moment — when dropped or explicitly
/// closed with [`Span::end`].
///
/// When the tracer neither collects nor digests at open time the span is
/// disarmed: no event is built and drop is free.
#[must_use = "a span ends when dropped; binding it to _ ends it immediately"]
pub struct Span {
    // None when telemetry was off at open time.
    armed: Option<(Arc<Kernel>, Option<ProcId>, &'static str, String)>,
}

impl Span {
    pub(crate) fn open(
        kernel: Arc<Kernel>,
        pid: Option<ProcId>,
        cat: &'static str,
        name: impl Into<String>,
        args: impl FnOnce() -> Args,
    ) -> Self {
        if !kernel.tracer.armed() {
            return Span { armed: None };
        }
        let name = name.into();
        kernel
            .tracer
            .begin(kernel.now(), pid, cat, name.clone(), args());
        Span {
            armed: Some((kernel, pid, cat, name)),
        }
    }

    /// Close the span now, attaching `args` to the end event.
    pub fn end_with(mut self, args: Args) {
        if let Some((kernel, pid, cat, name)) = self.armed.take() {
            kernel.tracer.end(kernel.now(), pid, cat, name, args);
        }
    }

    /// Close the span now.
    pub fn end(self) {
        self.end_with(Vec::new());
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((kernel, pid, cat, name)) = self.armed.take() {
            kernel.tracer.end(kernel.now(), pid, cat, name, Vec::new());
        }
    }
}
