//! Blocking coordination primitives: resettable events, FIFO queues,
//! counting semaphores, and the countdown latch built on an event.
//!
//! All primitives share the kernel's canonical-wake discipline: a waiter
//! registers itself in the primitive's waiter list and parks; a waker
//! schedules its wake at the current instant. Waiter lists may contain
//! processes that have since been killed, so every wake goes through one
//! [`Kernel::sweep`]: a single scheduler lock per pass over a list, under
//! which killed entries are skipped and an item or permit is never handed
//! to a corpse.

use crate::kernel::Kernel;
use crate::process::{Ctx, SimHandle};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A FIFO list of parked pids that holds its first waiter inline, so
/// a wait on a primitive nobody else waits on allocates nothing.
#[derive(Default)]
struct Waiters {
    /// The oldest waiter; `None` only when `rest` is empty too.
    first: Option<u32>,
    rest: VecDeque<u32>,
}

impl Waiters {
    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn push_back(&mut self, pid: u32) {
        match self.first {
            None => self.first = Some(pid),
            Some(_) => self.rest.push_back(pid),
        }
    }

    fn pop_front(&mut self) -> Option<u32> {
        let first = self.first.take();
        self.first = self.rest.pop_front();
        first
    }

    /// Remove `pid` if still registered. Timed waits must call this
    /// after waking: a pid left behind would be woken by a later
    /// `set`/`push` while blocked in an unrelated sleep, corrupting its
    /// timing.
    fn unregister(&mut self, pid: u32) {
        if self.first == Some(pid) {
            self.pop_front();
        } else if let Some(pos) = self.rest.iter().position(|&w| w == pid) {
            self.rest.remove(pos);
        }
    }

    /// Wake the first live waiter, dropping the killed and finished ones
    /// before it.
    fn wake_one_live(&mut self, kernel: &Kernel) {
        if !self.is_empty() {
            kernel.sweep(|s| while self.pop_front().is_some_and(|w| !s.wake(w)) {});
        }
    }

    /// Wake every live waiter, emptying the list.
    fn wake_all_live(&mut self, kernel: &Kernel) {
        if !self.is_empty() {
            kernel.sweep(|s| {
                while let Some(w) = self.pop_front() {
                    s.wake(w);
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

struct EventInner {
    name: &'static str,
    st: Mutex<(bool, Waiters)>,
}

/// A broadcast event: once [`Event::set`], every current and future
/// [`Event::wait`] returns immediately, until [`Event::reset`] clears it
/// again. Used one-shot (a job finished) and as a gate (the MPI library's
/// communication gate, set while traffic may flow). Cloning shares the
/// event.
#[derive(Clone)]
pub struct Event {
    kernel: Arc<Kernel>,
    inner: Arc<EventInner>,
}

impl Event {
    /// Create an unset event.
    pub fn new(handle: &SimHandle, name: &'static str) -> Self {
        Event {
            kernel: Arc::clone(&handle.kernel),
            inner: Arc::new(EventInner {
                name,
                st: Mutex::new((false, Waiters::default())),
            }),
        }
    }

    /// Whether the event has fired.
    pub fn is_set(&self) -> bool {
        self.inner.st.lock().0
    }

    /// Fire the event, waking all waiters. Idempotent.
    pub fn set(&self) {
        let mut st = self.inner.st.lock();
        if st.0 {
            return;
        }
        st.0 = true;
        st.1.wake_all_live(&self.kernel);
    }

    /// Clear the event: later waiters park until the next [`Event::set`].
    pub fn reset(&self) {
        self.inner.st.lock().0 = false;
    }

    /// Block until the event fires (immediately if already set).
    pub fn wait(&self, ctx: &Ctx) {
        ctx.check_killed();
        loop {
            {
                let mut st = self.inner.st.lock();
                if st.0 {
                    return;
                }
                st.1.push_back(ctx.pid().0);
            }
            ctx.block();
        }
    }

    /// Block until the event fires or `d` of virtual time elapses.
    /// Returns `true` if the event fired, `false` on timeout.
    pub fn wait_timeout(&self, ctx: &Ctx, d: Duration) -> bool {
        ctx.check_killed();
        let deadline = ctx.now() + d;
        loop {
            {
                let mut st = self.inner.st.lock();
                if st.0 {
                    return true;
                }
                if ctx.now() >= deadline {
                    return false;
                }
                st.1.push_back(ctx.pid().0);
            }
            self.kernel.schedule_wake(ctx.pid(), deadline);
            ctx.block();
            self.inner.st.lock().1.unregister(ctx.pid().0);
        }
    }

    /// The event's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event({}, set={})", self.inner.name, self.is_set())
    }
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

struct QueueInner<T> {
    st: Mutex<(VecDeque<T>, Waiters)>,
}

/// An unbounded FIFO channel between simulated processes. `push` never
/// blocks; `pop` parks until an item arrives. Cloning shares the queue.
pub struct Queue<T> {
    kernel: Arc<Kernel>,
    inner: Arc<QueueInner<T>>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            kernel: Arc::clone(&self.kernel),
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send> Queue<T> {
    /// Create an empty queue.
    pub fn new(handle: &SimHandle) -> Self {
        Queue {
            kernel: Arc::clone(&handle.kernel),
            inner: Arc::new(QueueInner {
                st: Mutex::new((VecDeque::new(), Waiters::default())),
            }),
        }
    }

    /// Append an item and wake one waiter (if any). Callable from any
    /// context, including outside processes.
    pub fn push(&self, item: T) {
        let mut st = self.inner.st.lock();
        st.0.push_back(item);
        st.1.wake_one_live(&self.kernel);
    }

    /// Take the oldest item, parking until one is available.
    pub fn pop(&self, ctx: &Ctx) -> T {
        ctx.check_killed();
        loop {
            {
                let mut st = self.inner.st.lock();
                if let Some(item) = st.0.pop_front() {
                    // If items remain, keep the wave going for other waiters.
                    if !st.0.is_empty() {
                        st.1.wake_one_live(&self.kernel);
                    }
                    return item;
                }
                st.1.push_back(ctx.pid().0);
            }
            ctx.block();
        }
    }

    /// Take the oldest item, parking at most `d` of virtual time.
    /// Returns `None` on timeout.
    pub fn pop_timeout(&self, ctx: &Ctx, d: Duration) -> Option<T> {
        ctx.check_killed();
        let deadline = ctx.now() + d;
        loop {
            {
                let mut st = self.inner.st.lock();
                if let Some(item) = st.0.pop_front() {
                    if !st.0.is_empty() {
                        st.1.wake_one_live(&self.kernel);
                    }
                    return Some(item);
                }
                if ctx.now() >= deadline {
                    return None;
                }
                st.1.push_back(ctx.pid().0);
            }
            self.kernel.schedule_wake(ctx.pid(), deadline);
            ctx.block();
            self.inner.st.lock().1.unregister(ctx.pid().0);
        }
    }

    /// Take the oldest item if one is present (never blocks).
    pub fn try_pop(&self) -> Option<T> {
        self.inner.st.lock().0.pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.st.lock().0.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a process is registered as parked in a pop: a live one,
    /// or a killed one that no push has dropped yet.
    pub fn has_waiters(&self) -> bool {
        !self.inner.st.lock().1.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Countdown
// ---------------------------------------------------------------------------

/// A one-shot countdown latch: created with a count, each participant
/// [`Countdown::arrive`]s once, and everyone blocked in
/// [`Countdown::wait`] is released when the count reaches zero.
#[derive(Clone)]
pub struct Countdown {
    remaining: Arc<Mutex<u64>>,
    done: Event,
}

impl Countdown {
    /// Create a latch expecting `count` arrivals (0 = already done).
    pub fn new(handle: &SimHandle, name: &'static str, count: u64) -> Self {
        let done = Event::new(handle, name);
        if count == 0 {
            done.set();
        }
        Countdown {
            remaining: Arc::new(Mutex::new(count)),
            done,
        }
    }

    /// Record one arrival (non-blocking). Arrivals after a
    /// [`Countdown::force_complete`] are ignored.
    pub fn arrive(&self) {
        let mut r = self.remaining.lock();
        if *r == 0 && self.done.is_set() {
            return; // forced open; late arrival from an aborted cycle
        }
        assert!(*r > 0, "Countdown over-arrived");
        *r -= 1;
        if *r == 0 {
            drop(r);
            self.done.set();
        }
    }

    /// Record an arrival, then block until everyone has arrived.
    pub fn arrive_and_wait(&self, ctx: &Ctx) {
        self.arrive();
        self.wait(ctx);
    }

    /// Block until the count reaches zero.
    pub fn wait(&self, ctx: &Ctx) {
        self.done.wait(ctx);
    }

    /// Block until the count reaches zero or `d` of virtual time elapses.
    /// Returns `true` if the countdown completed, `false` on timeout.
    pub fn wait_timeout(&self, ctx: &Ctx, d: Duration) -> bool {
        self.done.wait_timeout(ctx, d)
    }

    /// Force the latch open without waiting for outstanding arrivals,
    /// releasing all waiters. Used by abort paths to drain participants of
    /// a cancelled protocol cycle; late arrivals are then ignored.
    pub fn force_complete(&self) {
        let mut r = self.remaining.lock();
        *r = 0;
        drop(r);
        self.done.set();
    }

    /// Whether all arrivals have happened.
    pub fn is_done(&self) -> bool {
        self.done.is_set()
    }

    /// Arrivals still outstanding.
    pub fn remaining(&self) -> u64 {
        *self.remaining.lock()
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemWaiter {
    pid: u32,
    n: u64,
}

struct SemInner {
    st: Mutex<(u64, VecDeque<SemWaiter>)>,
}

/// A FIFO counting semaphore. Acquisition order is strict FIFO: a large
/// request at the head blocks smaller requests behind it (no barging), which
/// is the fairness the buffer-pool manager requires.
#[derive(Clone)]
pub struct Semaphore {
    kernel: Arc<Kernel>,
    inner: Arc<SemInner>,
}

impl Semaphore {
    /// Create a semaphore holding `permits` initial permits.
    pub fn new(handle: &SimHandle, permits: u64) -> Self {
        Semaphore {
            kernel: Arc::clone(&handle.kernel),
            inner: Arc::new(SemInner {
                st: Mutex::new((permits, VecDeque::new())),
            }),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.inner.st.lock().0
    }

    /// Number of parked waiters.
    pub fn waiting(&self) -> usize {
        self.inner.st.lock().1.len()
    }

    /// Acquire `n` permits, parking FIFO until available.
    pub fn acquire(&self, ctx: &Ctx, n: u64) {
        ctx.check_killed();
        let pid = ctx.pid().0;
        let mut queued = false;
        loop {
            {
                let mut st = self.inner.st.lock();
                let (permits, waiters) = &mut *st;
                self.settle(None, waiters);
                let at_front = waiters.front().map(|w| w.pid == pid).unwrap_or(false);
                if *permits >= n && (waiters.is_empty() || at_front) {
                    if at_front {
                        waiters.pop_front();
                    }
                    *permits -= n;
                    self.settle(Some(*permits), waiters);
                    return;
                }
                if !queued {
                    waiters.push_back(SemWaiter { pid, n });
                    queued = true;
                }
            }
            ctx.block();
        }
    }

    /// Acquire `n` permits without blocking; returns whether it succeeded.
    pub fn try_acquire(&self, n: u64) -> bool {
        let mut st = self.inner.st.lock();
        let (permits, waiters) = &mut *st;
        self.settle(None, waiters);
        if waiters.is_empty() && *permits >= n {
            *permits -= n;
            true
        } else {
            false
        }
    }

    /// Return `n` permits, waking the head waiter if now satisfiable.
    pub fn release(&self, n: u64) {
        let mut st = self.inner.st.lock();
        st.0 += n;
        let (permits, waiters) = &mut *st;
        self.settle(Some(*permits), waiters);
    }

    /// Drop killed waiters from the front of the queue; then, given the
    /// `permits` now available, wake the front waiter if its request fits.
    /// One sweep, and no scheduler lock when no one waits.
    fn settle(&self, permits: Option<u64>, waiters: &mut VecDeque<SemWaiter>) {
        if waiters.is_empty() {
            return;
        }
        self.kernel.sweep(|s| {
            while waiters.front().is_some_and(|w| s.killed(w.pid)) {
                waiters.pop_front();
            }
            if let (Some(w), Some(p)) = (waiters.front(), permits) {
                if w.n <= p {
                    s.wake(w.pid);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end from `tests/` integration tests; unit coverage of
    // internal helpers lives here.
    use super::*;
    use crate::Simulation;

    #[test]
    fn semaphore_counts() {
        let sim = Simulation::new(0);
        let s = Semaphore::new(&sim.handle(), 3);
        assert_eq!(s.available(), 3);
        assert!(s.try_acquire(2));
        assert_eq!(s.available(), 1);
        assert!(!s.try_acquire(2));
        s.release(2);
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn queue_try_pop() {
        let sim = Simulation::new(0);
        let q: Queue<u32> = Queue::new(&sim.handle());
        assert!(q.try_pop().is_none());
        q.push(7);
        q.push(8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(7));
        assert_eq!(q.try_pop(), Some(8));
        assert!(q.is_empty());
    }

    #[test]
    fn event_wait_timeout_expires_then_fires() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let e = Event::new(&h, "e");
        let done = Event::new(&h, "done");
        {
            let e = e.clone();
            let done = done.clone();
            h.spawn("waiter", move |ctx| {
                let t0 = ctx.now();
                assert!(!e.wait_timeout(ctx, Duration::from_millis(10)));
                assert_eq!(ctx.now(), t0 + Duration::from_millis(10));
                assert!(e.wait_timeout(ctx, Duration::from_secs(10)));
                done.set();
            });
        }
        {
            let e = e.clone();
            h.spawn("setter", move |ctx| {
                ctx.sleep(Duration::from_millis(50));
                e.set();
            });
        }
        sim.run_until_set(&done, crate::SimTime::MAX).unwrap();
        assert_eq!(sim.now(), crate::SimTime::ZERO + Duration::from_millis(50));
    }

    #[test]
    fn queue_pop_timeout_returns_none_then_item() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let q: Queue<u32> = Queue::new(&h);
        let done = Event::new(&h, "done");
        {
            let q = q.clone();
            let done = done.clone();
            h.spawn("popper", move |ctx| {
                assert_eq!(q.pop_timeout(ctx, Duration::from_millis(5)), None);
                assert_eq!(q.pop_timeout(ctx, Duration::from_secs(1)), Some(9));
                done.set();
            });
        }
        {
            let q = q.clone();
            h.spawn("pusher", move |ctx| {
                ctx.sleep(Duration::from_millis(20));
                q.push(9);
            });
        }
        sim.run_until_set(&done, crate::SimTime::MAX).unwrap();
    }

    #[test]
    fn countdown_force_complete_releases_and_ignores_late_arrivals() {
        let sim = Simulation::new(0);
        let c = Countdown::new(&sim.handle(), "c", 3);
        c.arrive();
        c.force_complete();
        assert!(c.is_done());
        c.arrive(); // late arrival from an aborted cycle: ignored
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn event_set_idempotent() {
        let sim = Simulation::new(0);
        let e = Event::new(&sim.handle(), "e");
        assert!(!e.is_set());
        e.set();
        e.set();
        assert!(e.is_set());
    }
}
