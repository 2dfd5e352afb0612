//! Job-wide MPI state: rank registry, matching queues, the global drain
//! counter, and configuration.

use crate::rank::{Arrival, MpiRank, RankCr, RankShared};
use bytes::Bytes;
use ibfabric::{IbFabric, NodeId};
use parking_lot::Mutex;
use simkit::{Ctx, Event, SimHandle};
use std::collections::BTreeMap;
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
    pub size: u32,
    pub drain: DrainCounter,
    state: Mutex<JobState>,
}

#[derive(Default)]
struct JobState {
    // BTreeMap: rollback/purge passes iterate all ranks; rank order keeps
    // those passes deterministic.
    ranks: BTreeMap<u32, Arc<RankShared>>,
    stats: JobStats,
}

/// A running MPI job: the shared library state of all ranks.
///
/// Cloning shares the job. Ranks are placed with [`MpiJob::init_rank`];
/// application threads get an [`MpiRank`] handle via [`MpiJob::attach`],
/// and C/R threads a [`RankCr`] via [`MpiJob::cr`].
#[derive(Clone)]
pub struct MpiJob {
    pub(crate) inner: Arc<JobInner>,
}

impl MpiJob {
    /// Create a job of `size` ranks over `fabric`.
    pub fn new(handle: &SimHandle, fabric: IbFabric, size: u32, cfg: MpiConfig) -> Self {
        let drain = DrainCounter::new(handle);
        MpiJob {
            inner: Arc::new(JobInner {
                handle: handle.clone(),
                fabric,
                cfg,
                size,
                drain,
                state: Mutex::default(),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.inner.size
    }

    /// Library configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.inner.cfg
    }

    /// The fabric the job communicates over.
    pub fn fabric(&self) -> &IbFabric {
        &self.inner.fabric
    }

    /// Register rank `rank` on `node` with initial application state.
    /// Endpoints start absent; the launcher builds them (untimed at
    /// startup) via [`RankCr::rebuild_endpoints`].
    pub fn init_rank(&self, rank: u32, node: NodeId, app_state: Bytes) {
        assert!(rank < self.inner.size, "rank {rank} out of range");
        self.inner.fabric.attach(node);
        let shared = Arc::new(RankShared::new(&self.inner.handle, rank, node, app_state));
        let prev = self.inner.state.lock().ranks.insert(rank, shared);
        assert!(prev.is_none(), "rank {rank} initialised twice");
    }

    /// Application-thread handle for `rank`. `skip_ops` is zero on a fresh
    /// launch; on restart it is the completed-op count restored from the
    /// checkpoint image (see crate docs on replay safety).
    pub fn attach(&self, rank: u32) -> MpiRank {
        let shared = self.shared(rank);
        MpiRank::new(self.clone(), shared)
    }

    /// C/R-thread handle for `rank`.
    pub fn cr(&self, rank: u32) -> RankCr {
        RankCr::new(self.clone(), self.shared(rank))
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
        for shared in self.ranks() {
            shared.purge_rts_from(rank);
        }
    }

    /// Rollback every rank's matching layer to the consistent cut taken
    /// at `cut` (coordinated-checkpoint restart): unmatched rendezvous
    /// tokens and post-cut eager deliveries are discarded because both
    /// endpoints re-execute those operations.
    pub fn purge_rollback_all(&self, cut: simkit::SimTime) {
        for shared in self.ranks() {
            shared.purge_rollback(cut);
        }
    }

    /// Snapshot of traffic statistics.
    pub fn stats(&self) -> JobStats {
        self.inner.state.lock().stats
    }

    /// Every rank in rank order, cloned out so no job guard is held
    /// while a rank's own state is locked.
    fn ranks(&self) -> Vec<Arc<RankShared>> {
        self.inner.state.lock().ranks.values().cloned().collect()
    }

    pub(crate) fn shared(&self, rank: u32) -> Arc<RankShared> {
        self.inner
            .state
            .lock()
            .ranks
            .get(&rank)
            .unwrap_or_else(|| panic!("rank {rank} not initialised"))
            .clone()
    }

    pub(crate) fn record_message(&self, bytes: u64, rendezvous: bool) {
        let s = &mut self.inner.state.lock().stats;
        s.messages += 1;
        s.bytes += bytes;
        if rendezvous {
            s.rendezvous += 1;
        }
    }

    /// Deliver an arrival token into `rank`'s matching layer.
    pub(crate) fn deliver(&self, rank: u32, src: u32, tag: u64, arrival: Arrival) {
        self.shared(rank)
            .enqueue(&self.inner.handle, src, tag, arrival);
    }
}
