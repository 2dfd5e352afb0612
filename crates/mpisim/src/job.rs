//! Job-wide MPI state: the fixed rank table, the global drain
//! counter, traffic statistics and configuration.

use crate::rank::{Arrival, MpiRank, RankCr, RankShared};
use bytes::Bytes;
use ibfabric::{IbFabric, NodeId};
use parking_lot::Mutex;
use simkit::{Ctx, Event, SimHandle};
use std::sync::Arc;
use std::time::Duration;

/// MPI library tunables (MVAPICH2-flavoured).
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Messages up to this size use the eager protocol; larger ones go
    /// through RTS/CTS rendezvous (MVAPICH2 default ~8-12 KB on IB).
    pub eager_threshold: u64,
    /// Registered communication buffer (vbuf pool) per rank; its MR
    /// registration is re-paid when endpoints are rebuilt in Phase 4.
    pub comm_buf_bytes: u64,
    /// Per-peer cost of the pairwise channel-flush exchange during drain.
    pub drain_per_peer: Duration,
    /// Cost of destroying one QP during teardown.
    pub qp_destroy: Duration,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            eager_threshold: 8 << 10,
            comm_buf_bytes: 8 << 20,
            drain_per_peer: Duration::from_micros(4),
            qp_destroy: Duration::from_micros(5),
        }
    }
}

/// Cumulative job-level traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Point-to-point messages completed.
    pub messages: u64,
    /// Payload bytes moved by completed messages.
    pub bytes: u64,
    /// Messages that took the rendezvous path.
    pub rendezvous: u64,
}

/// Tracks in-flight wire operations job-wide; Phase 1's drain waits for it
/// to reach zero. An [`Event`] that is set exactly when the count is zero.
pub(crate) struct DrainCounter {
    count: Mutex<u64>,
    zero: Event,
}

impl DrainCounter {
    fn new(handle: &SimHandle) -> Self {
        let zero = Event::new(handle, "drain-zero");
        zero.set();
        DrainCounter {
            count: Mutex::new(0),
            zero,
        }
    }

    pub(crate) fn inc(&self) {
        let mut c = self.count.lock();
        *c += 1;
        if *c == 1 {
            self.zero.reset();
        }
    }

    pub(crate) fn dec(&self) {
        let mut c = self.count.lock();
        debug_assert!(*c > 0, "drain counter underflow");
        *c -= 1;
        if *c == 0 {
            self.zero.set();
        }
    }

    pub(crate) fn wait_zero(&self, ctx: &Ctx) {
        self.zero.wait(ctx);
    }

    pub(crate) fn current(&self) -> u64 {
        *self.count.lock()
    }
}

pub(crate) struct JobInner {
    pub handle: SimHandle,
    pub fabric: IbFabric,
    pub cfg: MpiConfig,
    pub drain: DrainCounter,
    /// One entry per rank, in rank order, built at launch and never
    /// resized: lookups borrow it without a job lock.
    ranks: Vec<RankShared>,
    stats: Mutex<JobStats>,
}

/// A running MPI job: the shared library state of all ranks.
///
/// Cloning shares the job. Application threads get an [`MpiRank`] handle
/// via [`MpiJob::attach`], and C/R threads a [`RankCr`] via
/// [`MpiJob::cr`].
#[derive(Clone)]
pub struct MpiJob {
    pub(crate) inner: Arc<JobInner>,
}

impl MpiJob {
    /// Create a job over `fabric` with rank `r` on `placement[r]`. Every
    /// rank starts with empty application state and no endpoints; the
    /// launcher builds them (untimed at startup) via
    /// [`RankCr::rebuild_endpoints`].
    pub fn new(handle: &SimHandle, fabric: IbFabric, placement: &[NodeId], cfg: MpiConfig) -> Self {
        let drain = DrainCounter::new(handle);
        let ranks = (0..)
            .zip(placement)
            .map(|(rank, &node)| {
                fabric.attach(node);
                RankShared::new(handle, rank, node, Bytes::new())
            })
            .collect();
        MpiJob {
            inner: Arc::new(JobInner {
                handle: handle.clone(),
                fabric,
                cfg,
                drain,
                ranks,
                stats: Mutex::default(),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.inner.ranks.len() as u32
    }

    /// Library configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.inner.cfg
    }

    /// The fabric the job communicates over.
    pub fn fabric(&self) -> &IbFabric {
        &self.inner.fabric
    }

    /// Application-thread handle for `rank`.
    pub fn attach(&self, rank: u32) -> MpiRank {
        MpiRank::new(self.clone(), self.shared(rank).rank)
    }

    /// C/R-thread handle for `rank`.
    pub fn cr(&self, rank: u32) -> RankCr {
        RankCr::new(self.clone(), self.shared(rank).rank)
    }

    /// The node a rank currently lives on.
    pub fn rank_node(&self, rank: u32) -> NodeId {
        self.shared(rank).node()
    }

    /// Re-home a rank (Phase 3 of a migration).
    pub fn set_rank_node(&self, rank: u32, node: NodeId) {
        self.inner.fabric.attach(node);
        self.shared(rank).set_node(node);
    }

    /// Block until no wire operation is in flight anywhere in the job.
    pub fn drain_wait(&self, ctx: &Ctx) {
        self.inner.drain.wait_zero(ctx);
    }

    /// In-flight wire operations right now (diagnostics).
    pub fn inflight(&self) -> u64 {
        self.inner.drain.current()
    }

    /// Remove unconsumed rendezvous tokens whose sender is `rank`: a
    /// migrated sender re-issues its interrupted send on restart, so the
    /// stale RTS must not be matched (the paper's consistency argument for
    /// releasing connection state before checkpoint, applied to the
    /// matching layer).
    pub fn purge_stale_rts_from(&self, rank: u32) {
        for shared in &self.inner.ranks {
            shared.purge_rts_from(rank);
        }
    }

    /// Rollback every rank's matching layer to the consistent cut taken
    /// at `cut` (coordinated-checkpoint restart): unmatched rendezvous
    /// tokens and post-cut eager deliveries are discarded because both
    /// endpoints re-execute those operations.
    pub fn purge_rollback_all(&self, cut: simkit::SimTime) {
        for shared in &self.inner.ranks {
            shared.purge_rollback(cut);
        }
    }

    /// Snapshot of traffic statistics.
    pub fn stats(&self) -> JobStats {
        *self.inner.stats.lock()
    }

    /// Number of distinct `(src, tag)` pairs with a message unmatched at
    /// `rank` right now: 0 whenever the rank has nothing unmatched.
    pub fn matching_queues(&self, rank: u32) -> usize {
        self.shared(rank).matching_queues()
    }

    pub(crate) fn shared(&self, rank: u32) -> &RankShared {
        self.inner
            .ranks
            .get(rank as usize)
            .unwrap_or_else(|| panic!("rank {rank} out of range"))
    }

    pub(crate) fn record_message(&self, bytes: u64, rendezvous: bool) {
        let s = &mut *self.inner.stats.lock();
        s.messages += 1;
        s.bytes += bytes;
        if rendezvous {
            s.rendezvous += 1;
        }
    }

    /// Deliver an arrival token into `rank`'s matching layer.
    pub(crate) fn deliver(&self, rank: u32, src: u32, tag: u64, arrival: Arrival) {
        self.shared(rank).enqueue(src, tag, arrival);
    }
}
