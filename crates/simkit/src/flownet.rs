//! Multi-resource fluid flows: transfers that traverse several bandwidth
//! resources at once (e.g. sender tx port *and* receiver rx port).
//!
//! Each link splits its aggregate capacity equally among the flows crossing
//! it; a flow's instantaneous rate is the **minimum** of its per-link
//! shares. This is the classic conservative approximation of max-min fair
//! sharing (slack from non-bottleneck links is not redistributed), accurate
//! to first order for the traffic patterns simulated here and — importantly
//! — monotone and cheap to recompute.
//!
//! # Exact finish times
//!
//! A flow stores the bytes it had `left` at the instant `since` its `rate`
//! last changed, and the absolute `finish` instant that rate implies. When
//! rates are recomputed, a flow's progress is settled and its owner's
//! completion wake re-pushed only when its rate changes bit-wise. A flow
//! whose rate is unchanged keeps its finish nanosecond and its pending
//! timer, so there is no float drift to correct and no no-op retime to
//! detect. The owner is woken only when the clock reaches `finish`, or to
//! unwind after a kill.
//!
//! # One settle per instant
//!
//! A join or a departure only updates the link counts and the flow map and
//! marks the net *stale* with the kernel, noting whether a flow joined.
//! The kernel settles a stale net — one rate recompute — before the clock
//! moves, and before the net's earliest wake pops if a flow joined: a join
//! lowers shares, so a pending wake may be early. Departures only raise
//! shares (a [`Sharing::Degraded`] factor is never negative), so a flow
//! due now stays due now and its wake pops unsettled. Flows that start or
//! end together at one instant thus cost one recompute, not one each; a
//! rate that would have held for zero virtual time is never set.
//!
//! The owners' completion wakes live in the net's kernel timer group,
//! allocated with its first flow, so a recompute that re-times many flows
//! re-keys the scheduler heap once.
//!
//! [`crate::Link`] is a one-link `FlowNet`: use `Link` for a standalone
//! resource (a disk, a memory bus), `FlowNet` when flows share *paths*.

use crate::kernel::{Kernel, ProcId};
use crate::link::{LinkStats, Sharing};
use crate::process::Ctx;
use crate::process::SimHandle;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a link inside a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(u32);

struct NetLink {
    name: String,
    cap: f64,
    sharing: Sharing,
    active: u32,
    /// Equal-split share of each active flow; refreshed whenever `active`
    /// changes, infinite while idle.
    share: f64,
    /// Start of the current busy period (meaningful while `active > 0`).
    busy_since: SimTime,
    stats: LinkStats,
}

impl NetLink {
    /// Count one flow joining (`+1`) or leaving (`-1`) at `now`.
    fn adjust(&mut self, now: SimTime, delta: i32) {
        if self.active == 0 {
            self.busy_since = now;
        }
        self.active = self
            .active
            .checked_add_signed(delta)
            .expect("link flow count");
        if self.active == 0 {
            self.stats.busy += now - self.busy_since;
            self.share = f64::INFINITY;
        } else {
            let n = self.active as usize;
            self.share = self.sharing.aggregate(self.cap, n) / n as f64;
        }
        self.stats.peak_flows = self.stats.peak_flows.max(self.active as usize);
    }
}

/// A flow's links: up to two (a port pair) inline, more on the heap.
enum FlowLinks {
    Inline(u8, [LinkId; 2]),
    Heap(Vec<LinkId>),
}

impl FlowLinks {
    fn new(links: &[LinkId]) -> FlowLinks {
        match *links {
            [a] => FlowLinks::Inline(1, [a, a]),
            [a, b] => FlowLinks::Inline(2, [a, b]),
            _ => FlowLinks::Heap(links.to_vec()),
        }
    }

    fn as_slice(&self) -> &[LinkId] {
        match self {
            FlowLinks::Inline(n, links) => &links[..usize::from(*n)],
            FlowLinks::Heap(links) => links,
        }
    }
}

struct NetFlow {
    pid: u32,
    links: FlowLinks,
    bytes: u64,
    /// Bytes still to move at `since`.
    left: f64,
    /// Instant `rate` took effect.
    since: SimTime,
    /// Current rate in bytes/s (0 before the first recompute).
    rate: f64,
    /// Instant the flow completes at `rate`; the owner's pending wake.
    finish: SimTime,
}

struct NetInner {
    links: Vec<NetLink>,
    // BTreeMap, not HashMap: recompute_and_retime iterates this map and
    // schedules wakes in iteration order, which must be stable for
    // same-seed runs to replay identically (same-timestamp tie-breaks).
    flows: BTreeMap<u64, NetFlow>,
    next_flow: u64,
    /// Kernel timer group of the owners' completion wakes, allocated with
    /// the first flow.
    group: Option<u32>,
    /// The net is in the kernel's stale list, awaiting a settle.
    stale: bool,
}

impl NetInner {
    /// Recompute every flow's rate from the link shares. A flow whose rate
    /// changed bit-wise has its progress settled at `now`, a new `finish`
    /// and a fresh completion wake; the others keep theirs. A new flow's
    /// rate is 0, so it always gets its first wake here.
    fn recompute_and_retime(&mut self, kernel: &Kernel, now: SimTime) {
        let links = &self.links;
        let group = self.group.expect("a net with flows has a timer group");
        kernel.with_wake_batch(group, |batch| {
            for f in self.flows.values_mut() {
                let rate = f
                    .links
                    .as_slice()
                    .iter()
                    .map(|l| links[l.0 as usize].share)
                    .fold(f64::INFINITY, f64::min);
                debug_assert!(rate.is_finite() && rate > 0.0);
                if rate.to_bits() == f.rate.to_bits() {
                    continue;
                }
                f.left = (f.left - f.rate * (now - f.since).as_secs_f64()).max(0.0);
                f.since = now;
                f.rate = rate;
                let secs = (f.left / rate).min(1e18); // clamp: "effectively never"
                f.finish = now.saturating_add(Duration::from_secs_f64(secs));
                batch.retime(ProcId(f.pid), f.finish);
            }
        });
    }

    /// Remove a flow and release its links; `completed` credits its bytes.
    fn finish_flow(&mut self, flow_id: u64, now: SimTime, completed: bool) {
        if let Some(f) = self.flows.remove(&flow_id) {
            for l in f.links.as_slice() {
                let link = &mut self.links[l.0 as usize];
                link.adjust(now, -1);
                if completed {
                    link.stats.bytes_completed += f.bytes;
                    link.stats.flows_completed += 1;
                }
            }
        }
    }
}

/// A net's state, shared with the kernel while the net is stale.
pub(crate) struct NetCell {
    inner: Mutex<NetInner>,
    /// A flow joined since the last settle. The kernel reads it under its
    /// own lock, where it must not take the net's.
    joined: AtomicBool,
}

impl NetCell {
    pub(crate) fn joined(&self) -> bool {
        self.joined.load(Ordering::Relaxed)
    }

    /// Recompute the rates of a stale net at the current instant; called
    /// by the kernel with its own lock released.
    pub(crate) fn settle(&self, kernel: &Kernel) {
        let mut inner = self.inner.lock();
        inner.stale = false;
        self.joined.store(false, Ordering::Relaxed);
        inner.recompute_and_retime(kernel, kernel.now());
    }
}

/// A set of bandwidth links over which multi-link fluid flows run.
#[derive(Clone)]
pub struct FlowNet {
    kernel: Arc<Kernel>,
    cell: Arc<NetCell>,
}

impl FlowNet {
    /// Create an empty flow network.
    pub fn new(handle: &SimHandle) -> Self {
        FlowNet {
            kernel: Arc::clone(&handle.kernel),
            cell: Arc::new(NetCell {
                inner: Mutex::new(NetInner {
                    links: Vec::new(),
                    flows: BTreeMap::new(),
                    next_flow: 0,
                    group: None,
                    stale: false,
                }),
                joined: AtomicBool::new(false),
            }),
        }
    }

    /// Note a flow joining or leaving at the current instant: the kernel
    /// settles the net's rates before the clock moves. Only the first
    /// change since the last settle takes the scheduler lock, and a
    /// departure that leaves no flow has no rate to settle.
    fn mark_stale(&self, inner: &mut NetInner, joined: bool) {
        if joined {
            self.cell.joined.store(true, Ordering::Relaxed);
        }
        if !inner.stale && (joined || !inner.flows.is_empty()) {
            inner.stale = true;
            let group = inner.group.expect("a net with flows has a timer group");
            self.kernel.mark_stale(group, Arc::clone(&self.cell));
        }
    }

    /// Add a link with `capacity_bps` bytes/second.
    ///
    /// Panics unless the capacity is positive and finite, and a
    /// [`Sharing::Degraded`] factor finite and non-negative: a negative
    /// factor would let a departure lower the other flows' shares.
    pub fn add_link(&self, name: &str, capacity_bps: f64, sharing: Sharing) -> LinkId {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "link capacity must be positive"
        );
        if let Sharing::Degraded { alpha } = sharing {
            assert!(
                alpha.is_finite() && alpha >= 0.0,
                "degradation factor must be finite and non-negative"
            );
        }
        let mut inner = self.cell.inner.lock();
        let id = LinkId(inner.links.len() as u32);
        inner.links.push(NetLink {
            name: name.to_string(),
            cap: capacity_bps,
            sharing,
            active: 0,
            share: f64::INFINITY,
            busy_since: SimTime::ZERO,
            stats: LinkStats::default(),
        });
        id
    }

    /// Move `bytes` across all of `links` simultaneously, blocking for the
    /// fluid-model duration. The flow's rate at any instant is the minimum
    /// of its equal-split shares on each link. Zero-byte transfers return
    /// immediately.
    ///
    /// If the calling process is killed mid-transfer, the flow is removed
    /// and the remaining flows speed up, matching a connection torn down
    /// mid-stream.
    pub fn transfer(&self, ctx: &Ctx, links: &[LinkId], bytes: u64) {
        ctx.check_killed();
        if bytes == 0 || links.is_empty() {
            return;
        }
        let flow_id = {
            let mut inner = self.cell.inner.lock();
            let now = ctx.now();
            if inner.group.is_none() {
                inner.group = Some(self.kernel.new_timer_group());
            }
            let id = inner.next_flow;
            inner.next_flow += 1;
            for l in links {
                inner.links[l.0 as usize].adjust(now, 1);
            }
            inner.flows.insert(
                id,
                NetFlow {
                    pid: ctx.pid().0,
                    links: FlowLinks::new(links),
                    bytes,
                    left: bytes as f64,
                    since: now,
                    rate: 0.0,
                    finish: SimTime::MAX,
                },
            );
            self.mark_stale(&mut inner, true);
            id
        };
        let mut guard = NetFlowGuard {
            net: self,
            flow_id,
            armed: true,
        };
        ctx.block();
        let mut inner = self.cell.inner.lock();
        let now = ctx.now();
        let finish = inner
            .flows
            .get(&flow_id)
            .map(|f| f.finish)
            .expect("flow vanished while owner blocked");
        debug_assert!(now >= finish, "flow owner woken before its finish");
        inner.finish_flow(flow_id, now, true);
        self.mark_stale(&mut inner, false);
        guard.armed = false;
    }

    /// Number of flows currently crossing `link`.
    pub fn active_on(&self, link: LinkId) -> usize {
        self.cell.inner.lock().links[link.0 as usize].active as usize
    }

    /// Total completed bytes carried over `link`.
    pub fn bytes_completed_on(&self, link: LinkId) -> u64 {
        self.cell.inner.lock().links[link.0 as usize]
            .stats
            .bytes_completed
    }

    /// The link's diagnostic name.
    pub fn link_name(&self, link: LinkId) -> String {
        self.cell.inner.lock().links[link.0 as usize].name.clone()
    }

    /// Usage statistics of `link`; `busy` includes a busy period still open.
    pub(crate) fn link_stats(&self, link: LinkId) -> LinkStats {
        let now = self.kernel.now();
        let inner = self.cell.inner.lock();
        let l = &inner.links[link.0 as usize];
        let mut stats = l.stats;
        if l.active > 0 {
            stats.busy += now - l.busy_since;
        }
        stats
    }

    /// Configured capacity of `link` in bytes/second.
    pub(crate) fn link_capacity(&self, link: LinkId) -> f64 {
        self.cell.inner.lock().links[link.0 as usize].cap
    }
}

/// Removes the flow if the owning process unwinds mid-transfer.
struct NetFlowGuard<'a> {
    net: &'a FlowNet,
    flow_id: u64,
    armed: bool,
}

impl Drop for NetFlowGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.net.cell.inner.lock();
        let now = self.net.kernel.now();
        inner.finish_flow(self.flow_id, now, false);
        self.net.mark_stale(&mut inner, false);
    }
}
