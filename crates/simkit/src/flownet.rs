//! Multi-resource fluid flows: transfers that traverse several bandwidth
//! resources at once (e.g. sender tx port *and* receiver rx port).
//!
//! Each link splits its aggregate capacity equally among the flows crossing
//! it; a flow's instantaneous rate is the **minimum** of its per-link
//! shares. This is the classic conservative approximation of max-min fair
//! sharing (slack from non-bottleneck links is not redistributed), accurate
//! to first order for the traffic patterns simulated here and — importantly
//! — monotone and cheap to recompute on every arrival/departure.
//!
//! # Exact finish times
//!
//! A flow stores the bytes it had `left` at the instant `since` its `rate`
//! last changed, and the absolute `finish` instant that rate implies. On
//! every arrival or departure all rates are recomputed, but a flow's
//! progress is settled and its owner's completion wake re-pushed only when
//! its rate changes bit-wise. A flow whose rate is unchanged keeps its
//! finish nanosecond and its pending timer, so there is no float drift to
//! correct and no no-op retime to detect. The owner is done exactly when
//! the clock reaches `finish`.
//!
//! [`crate::Link`] is a one-link `FlowNet`: use `Link` for a standalone
//! resource (a disk, a memory bus), `FlowNet` when flows share *paths*.

use crate::kernel::{Kernel, ProcId, SimHandle};
use crate::link::{LinkStats, Sharing};
use crate::process::Ctx;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
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

struct NetFlow {
    pid: u32,
    links: Vec<LinkId>,
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
}

impl NetInner {
    /// Recompute every flow's rate from the link shares. A flow whose rate
    /// changed bit-wise has its progress settled at `now`, a new `finish`
    /// and a fresh completion wake; the others keep theirs.
    ///
    /// `running` names the caller's own flow, whose wake has just fired
    /// and been consumed: it is always re-pushed, or its owner would block
    /// with no pending timer.
    fn recompute_and_retime(&mut self, kernel: &Kernel, now: SimTime, running: Option<u64>) {
        let links = &self.links;
        kernel.with_wake_batch(|batch| {
            for (&id, f) in self.flows.iter_mut() {
                let rate = f
                    .links
                    .iter()
                    .map(|l| links[l.0 as usize].share)
                    .fold(f64::INFINITY, f64::min);
                debug_assert!(rate.is_finite() && rate > 0.0);
                if rate.to_bits() == f.rate.to_bits() && running != Some(id) {
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
            for l in &f.links {
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

/// A set of bandwidth links over which multi-link fluid flows run.
#[derive(Clone)]
pub struct FlowNet {
    kernel: Arc<Kernel>,
    inner: Arc<Mutex<NetInner>>,
}

impl FlowNet {
    /// Create an empty flow network.
    pub fn new(handle: &SimHandle) -> Self {
        FlowNet {
            kernel: Arc::clone(&handle.kernel),
            inner: Arc::new(Mutex::new(NetInner {
                links: Vec::new(),
                flows: BTreeMap::new(),
                next_flow: 0,
            })),
        }
    }

    /// Add a link with `capacity_bps` bytes/second.
    pub fn add_link(&self, name: &str, capacity_bps: f64, sharing: Sharing) -> LinkId {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "link capacity must be positive"
        );
        let mut inner = self.inner.lock();
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
            let mut inner = self.inner.lock();
            let now = ctx.now();
            let id = inner.next_flow;
            inner.next_flow += 1;
            for l in links {
                inner.links[l.0 as usize].adjust(now, 1);
            }
            inner.flows.insert(
                id,
                NetFlow {
                    pid: ctx.pid().0,
                    links: links.to_vec(),
                    bytes,
                    left: bytes as f64,
                    since: now,
                    rate: 0.0,
                    finish: SimTime::MAX,
                },
            );
            inner.recompute_and_retime(&self.kernel, now, Some(id));
            id
        };
        let mut guard = NetFlowGuard {
            net: self,
            flow_id,
            armed: true,
        };
        loop {
            ctx.block();
            let mut inner = self.inner.lock();
            let now = ctx.now();
            let finish = inner
                .flows
                .get(&flow_id)
                .map(|f| f.finish)
                .expect("flow vanished while owner blocked");
            if now >= finish {
                inner.finish_flow(flow_id, now, true);
                inner.recompute_and_retime(&self.kernel, now, None);
                guard.armed = false;
                return;
            }
            inner.recompute_and_retime(&self.kernel, now, Some(flow_id));
        }
    }

    /// Number of flows currently crossing `link`.
    pub fn active_on(&self, link: LinkId) -> usize {
        self.inner.lock().links[link.0 as usize].active as usize
    }

    /// Total completed bytes carried over `link`.
    pub fn bytes_completed_on(&self, link: LinkId) -> u64 {
        self.inner.lock().links[link.0 as usize]
            .stats
            .bytes_completed
    }

    /// The link's diagnostic name.
    pub fn link_name(&self, link: LinkId) -> String {
        self.inner.lock().links[link.0 as usize].name.clone()
    }

    /// Usage statistics of `link`; `busy` includes a busy period still open.
    pub(crate) fn link_stats(&self, link: LinkId) -> LinkStats {
        let now = self.kernel.now();
        let inner = self.inner.lock();
        let l = &inner.links[link.0 as usize];
        let mut stats = l.stats;
        if l.active > 0 {
            stats.busy += now - l.busy_since;
        }
        stats
    }

    /// Configured capacity of `link` in bytes/second.
    pub(crate) fn link_capacity(&self, link: LinkId) -> f64 {
        self.inner.lock().links[link.0 as usize].cap
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
        let mut inner = self.net.inner.lock();
        let now = self.net.kernel.now();
        inner.finish_flow(self.flow_id, now, false);
        inner.recompute_and_retime(&self.net.kernel, now, None);
    }
}
