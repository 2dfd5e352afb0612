//! Per-rank state and operations: point-to-point protocols, the
//! suspend/drain/teardown/rebuild cycle, and checkpoint metadata.

use crate::job::MpiJob;
use blcrsim::Segment;
use bytes::Bytes;
use ibfabric::{DataSrc, Mr, NodeId, Qp, QpAddr};
use livemig::{DirtySnapshot, DirtyTracker};
use parking_lot::Mutex;
use simkit::{Ctx, Event, SimHandle};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// An MPI rank number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankId(pub u32);

const WIRE_HDR: u64 = 64;

/// A message token in a rank's matching layer.
pub(crate) enum Arrival {
    /// Eager-protocol message, fully buffered at the receiver.
    Eager {
        bytes: u64,
        /// Delivery instant — rollback recovery discards tokens delivered
        /// after the checkpoint's consistent cut.
        delivered_at: simkit::SimTime,
    },
    /// Rendezvous request-to-send awaiting a matching receive.
    Rts {
        bytes: u64,
        /// Set by the receiver once its clear-to-send is on the wire.
        cts: Event,
        /// Set by the sender once the bulk transfer has landed.
        bulk_done: Event,
    },
}

pub(crate) struct Endpoints {
    mr: Mr,
    qps: Vec<Qp>,
}

impl Endpoints {
    /// Destroy every QP and deregister the MR, charging no time.
    fn release(&self) -> TeardownReport {
        Qp::destroy_all(&self.qps);
        self.mr.deregister();
        TeardownReport {
            qps_destroyed: self.qps.len(),
            mrs_deregistered: 1,
        }
    }
}

/// Deregisters a freshly registered MR if the rebuild holding it unwinds
/// (its C/R thread was killed) before the endpoints own it.
struct DeregisterOnUnwind<'a>(&'a Mr);

impl Drop for DeregisterOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.deregister();
        }
    }
}

/// Rank state that **survives migration**: the matching layer, logical
/// application state, and replay counters. Endpoint state (QPs, MRs) is
/// per-node-incarnation and lives in `endpoints`.
pub(crate) struct RankShared {
    pub rank: u32,
    /// Set while communication is allowed; reset during a
    /// checkpoint/migration cycle.
    pub gate: Event,
    state: Mutex<RankState>,
}

struct RankState {
    node: NodeId,
    /// Unmatched tokens with their `(src, tag)`, in delivery order: a
    /// receive takes the oldest token of its pair.
    unexpected: VecDeque<(u32, u64, Arrival)>,
    /// The `(src, tag)` the application thread is parked on, if any.
    posted: Option<(u32, u64)>,
    /// Rung for a token matching `posted`; made at the rank's first
    /// blocking receive.
    doorbell: Option<Event>,
    endpoints: Option<Endpoints>,
    /// Ops to skip on replay after a restart.
    skip: u64,
    /// Ops completed since the last `op_boundary`.
    completed_in_iter: u64,
    /// Serialized application state as of the last `op_boundary`.
    app_state: Bytes,
    /// The application's memory footprint (checkpointed bulk data).
    segments: Vec<Segment>,
    /// Dirty-page tracking, armed only while a live pre-copy migration of
    /// this rank is in flight ([`RankCr::arm_dirty`]).
    dirty: Option<DirtyTracker>,
}

impl RankShared {
    pub(crate) fn new(handle: &SimHandle, rank: u32, node: NodeId, app_state: Bytes) -> Self {
        RankShared {
            rank,
            gate: Event::new(handle, "mpi-gate"), // closed until endpoints built
            state: Mutex::new(RankState {
                node,
                unexpected: VecDeque::new(),
                posted: None,
                doorbell: None,
                endpoints: None,
                skip: 0,
                completed_in_iter: 0,
                app_state,
                segments: Vec::new(),
                dirty: None,
            }),
        }
    }

    /// The node the rank currently lives on.
    pub(crate) fn node(&self) -> NodeId {
        self.state.lock().node
    }

    /// Re-home the rank.
    pub(crate) fn set_node(&self, node: NodeId) {
        self.state.lock().node = node;
    }

    /// Add a token to the unexpected queue, and wake the application
    /// thread if it is parked on the token's pair.
    pub(crate) fn enqueue(&self, src: u32, tag: u64, arrival: Arrival) {
        let mut st = self.state.lock();
        st.unexpected.push_back((src, tag, arrival));
        if st.posted == Some((src, tag)) {
            st.posted = None;
            if let Some(bell) = &st.doorbell {
                bell.set();
            }
        }
    }

    /// Take the oldest token from `src` with `tag`, parking until one
    /// arrives.
    pub(crate) fn take(&self, ctx: &Ctx, handle: &SimHandle, src: u32, tag: u64) -> Arrival {
        ctx.check_killed();
        loop {
            let bell = {
                let mut st = self.state.lock();
                let found = st
                    .unexpected
                    .iter()
                    .position(|&(s, t, _)| (s, t) == (src, tag));
                if let Some((_, _, arrival)) = found.and_then(|i| st.unexpected.remove(i)) {
                    st.posted = None;
                    return arrival;
                }
                st.posted = Some((src, tag));
                let bell = st
                    .doorbell
                    .get_or_insert_with(|| Event::new(handle, "mpi-recv"));
                // A bell rung for a receiver since killed must not wake
                // this one.
                bell.reset();
                bell.clone()
            };
            bell.wait(ctx);
        }
    }

    /// Distinct `(src, tag)` pairs with an unmatched token.
    pub(crate) fn matching_queues(&self) -> usize {
        let st = self.state.lock();
        let mut pairs: Vec<(u32, u64)> = st.unexpected.iter().map(|&(s, t, _)| (s, t)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    pub(crate) fn purge_rts_from(&self, sender: u32) {
        self.state
            .lock()
            .unexpected
            .retain(|(src, _, a)| *src != sender || !matches!(a, Arrival::Rts { .. }));
    }

    /// Rollback recovery: drop every unmatched rendezvous token (both
    /// sides re-execute the handshake) and every eager token delivered
    /// after the consistent cut (the sender re-sends it).
    pub(crate) fn purge_rollback(&self, cut: simkit::SimTime) {
        self.state.lock().unexpected.retain(|(_, _, a)| match a {
            Arrival::Rts { .. } => false,
            Arrival::Eager { delivered_at, .. } => *delivered_at <= cut,
        });
    }
}

/// What a teardown released (Phase 1 accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeardownReport {
    /// Queue pairs destroyed.
    pub qps_destroyed: usize,
    /// Memory regions deregistered (rkeys invalidated).
    pub mrs_deregistered: usize,
}

// ---------------------------------------------------------------------------
// Application-thread handle
// ---------------------------------------------------------------------------

/// The handle an application thread uses for MPI operations.
///
/// Operations are *replay-safe*: each carries an intra-iteration sequence
/// number, and after a restart the first `skip` operations of the
/// interrupted iteration are no-ops (their effects are in the restored
/// image). Call [`MpiRank::op_boundary`] at each application safe point.
pub struct MpiRank {
    job: MpiJob,
    rank: u32,
    ops_this_iter: u64,
}

impl MpiRank {
    pub(crate) fn new(job: MpiJob, rank: u32) -> Self {
        MpiRank {
            job,
            rank,
            ops_this_iter: 0,
        }
    }

    fn shared(&self) -> &RankShared {
        self.job.shared(self.rank)
    }

    /// This rank's number.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Job size (number of ranks).
    pub fn size(&self) -> u32 {
        self.job.size()
    }

    /// The node this rank currently runs on.
    pub fn node(&self) -> NodeId {
        self.shared().node()
    }

    /// The job handle.
    pub fn job(&self) -> &MpiJob {
        &self.job
    }

    /// Current serialized application state.
    pub fn app_state(&self) -> Bytes {
        self.shared().state.lock().app_state.clone()
    }

    /// Replace the application's registered memory segments (the bulk
    /// data a checkpoint captures).
    pub fn set_segments(&self, segments: Vec<Segment>) {
        let mut st = self.shared().state.lock();
        st.segments = segments;
        // A wholesale replacement invalidates any armed dirty bitmap.
        st.dirty = None;
    }

    /// Application write interception: reseed whole pages of a paged
    /// segment to `stamp`-derived values, then mark them dirty.
    ///
    /// Content is updated *before* the dirty bits, so a pre-copy capture
    /// racing this call at worst re-sends an already-clean page — it can
    /// never miss a write. The reseed is a pure function of `stamp` and
    /// the page index, so replaying an interrupted iteration after a
    /// restart rewrites identical values.
    pub fn write_pages(&self, seg: usize, pages: &[u64], stamp: u64) {
        let mut st = self.shared().state.lock();
        let (page, len) = {
            let data = &mut st.segments[seg].data;
            let len = data.len;
            let DataSrc::Paged { seeds, page, .. } = &mut data.src else {
                panic!("write_pages on a non-paged segment");
            };
            let page = *page;
            let npages = len.div_ceil(page);
            let seeds = Arc::make_mut(seeds);
            for &p in pages {
                assert!(p < npages, "page {p} out of range 0..{npages}");
                seeds[p as usize] = stamp.wrapping_add(p.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            (page, len)
        };
        if let Some(t) = st.dirty.as_mut() {
            for &p in pages {
                t.mark_range(seg, p * page, page.min(len - p * page));
            }
        }
    }

    /// Returns true when the op with the sequence number being issued must
    /// actually execute (false = already completed before the restart).
    fn begin_op(&mut self) -> bool {
        let seq = self.ops_this_iter;
        self.ops_this_iter += 1;
        seq >= self.shared().state.lock().skip
    }

    fn end_op(&self) {
        self.shared().state.lock().completed_in_iter += 1;
    }

    /// Mark an application safe point: persist `state` as the new logical
    /// application state and reset replay counters.
    pub fn op_boundary(&mut self, state: Bytes) {
        let mut st = self.shared().state.lock();
        st.app_state = state;
        st.skip = 0;
        st.completed_in_iter = 0;
        drop(st);
        self.ops_this_iter = 0;
    }

    /// A compute phase of `d` (interruptible; re-executed if a migration
    /// interrupts it).
    pub fn compute(&mut self, ctx: &Ctx, d: Duration) {
        if !self.begin_op() {
            return;
        }
        ctx.sleep(d);
        self.end_op();
    }

    /// Blocking send of `bytes` to `to` with `tag`. Eager below the
    /// threshold, RTS/CTS rendezvous above it.
    pub fn send(&mut self, ctx: &Ctx, to: u32, tag: u64, bytes: u64) {
        assert_ne!(to, self.rank, "send to self");
        if !self.begin_op() {
            return;
        }
        self.shared().gate.wait(ctx);
        let eager = bytes <= self.job.config().eager_threshold;
        let drain = &self.job.inner.drain;
        if eager {
            drain.inc();
            let from = self.shared().node();
            let to_node = self.job.rank_node(to);
            self.wire(ctx, from, to_node, bytes + WIRE_HDR);
            self.job.deliver(
                to,
                self.rank,
                tag,
                Arrival::Eager {
                    bytes,
                    delivered_at: ctx.now(),
                },
            );
            self.job.record_message(bytes, false);
            self.end_op();
            drain.dec();
        } else {
            let h = &self.job.inner.handle;
            let cts = Event::new(h, "cts");
            let bulk_done = Event::new(h, "bulk");
            // RTS control message (in-flight while on the wire).
            drain.inc();
            let from = self.shared().node();
            let to_node = self.job.rank_node(to);
            self.wire(ctx, from, to_node, WIRE_HDR);
            self.job.deliver(
                to,
                self.rank,
                tag,
                Arrival::Rts {
                    bytes,
                    cts: cts.clone(),
                    bulk_done: bulk_done.clone(),
                },
            );
            drain.dec();
            // Park (not in-flight) until the receiver matches.
            cts.wait(ctx);
            // Bulk RDMA transfer, with node placement looked up afresh —
            // the receiver may have migrated while we were parked.
            drain.inc();
            let from = self.shared().node();
            let to_node = self.job.rank_node(to);
            self.wire(ctx, from, to_node, bytes + WIRE_HDR);
            self.job.record_message(bytes, true);
            self.end_op();
            bulk_done.set();
            drain.dec();
        }
    }

    /// Blocking receive from `from` with `tag`; returns the payload size.
    /// A replay-skipped receive returns 0 (its data is already in the
    /// restored image).
    pub fn recv(&mut self, ctx: &Ctx, from: u32, tag: u64) -> u64 {
        assert_ne!(from, self.rank, "recv from self");
        if !self.begin_op() {
            return 0;
        }
        self.shared().gate.wait(ctx);
        match self.shared().take(ctx, &self.job.inner.handle, from, tag) {
            Arrival::Eager { bytes, .. } => {
                self.end_op();
                bytes
            }
            Arrival::Rts {
                bytes,
                cts,
                bulk_done,
            } => {
                // Matched rendezvous: completes even during a drain — this
                // IS the draining of an in-flight message.
                let drain = &self.job.inner.drain;
                drain.inc();
                let my = self.shared().node();
                let sender_node = self.job.rank_node(from);
                self.wire(ctx, my, sender_node, WIRE_HDR); // CTS
                cts.set();
                bulk_done.wait(ctx);
                self.end_op();
                drain.dec();
                bytes
            }
        }
    }

    /// Deadlock-free paired exchange with `peer`: the lower rank sends
    /// first. Returns the received byte count.
    pub fn exchange(&mut self, ctx: &Ctx, peer: u32, tag: u64, bytes: u64) -> u64 {
        if self.rank < peer {
            self.send(ctx, peer, tag, bytes);
            self.recv(ctx, peer, tag)
        } else {
            let got = self.recv(ctx, peer, tag);
            self.send(ctx, peer, tag, bytes);
            got
        }
    }

    fn wire(&self, ctx: &Ctx, from: NodeId, to: NodeId, bytes: u64) {
        self.job
            .fabric()
            .net()
            .wire_delay(ctx, from, to, bytes)
            .expect("fabric wire failure");
    }
}

// ---------------------------------------------------------------------------
// C/R-thread handle
// ---------------------------------------------------------------------------

/// Checkpoint metadata captured from (or restored into) a rank.
#[derive(Debug, Clone)]
pub struct CrMeta {
    /// Serialized application state at the last safe point.
    pub app_state: Bytes,
    /// Ops completed past that safe point (replay skip count).
    pub completed_ops: u64,
    /// The rank's memory segments.
    pub segments: Vec<Segment>,
}

/// The per-rank handle used by the C/R thread (and the migration
/// framework) — MVAPICH2's checkpoint hooks.
pub struct RankCr {
    job: MpiJob,
    rank: u32,
}

impl RankCr {
    pub(crate) fn new(job: MpiJob, rank: u32) -> Self {
        RankCr { job, rank }
    }

    fn shared(&self) -> &RankShared {
        self.job.shared(self.rank)
    }

    /// The rank number.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Phase-1 per-rank work: close the communication gate, run the
    /// pairwise channel flush, wait for the job-wide drain, then tear down
    /// endpoints (destroying QPs and invalidating rkeys).
    pub fn suspend_and_drain(&self, ctx: &Ctx) -> TeardownReport {
        let span = ctx.span_with("mpi", "suspend_and_drain", || {
            vec![
                ("rank", self.rank.into()),
                ("inflight", self.job.inflight().into()),
            ]
        });
        self.shared().gate.reset();
        // pairwise flush exchange with every peer
        let peers = self.job.size().saturating_sub(1);
        ctx.sleep(self.job.config().drain_per_peer * peers);
        // Job-wide drain with a settle re-check: a matched rendezvous may
        // chain CTS/bulk transfers through a momentary zero.
        loop {
            self.job.drain_wait(ctx);
            ctx.sleep(Duration::from_micros(10));
            if self.job.inflight() == 0 {
                break;
            }
        }
        let report = self.teardown(ctx);
        span.end_with(vec![("qps_destroyed", report.qps_destroyed.into())]);
        report
    }

    /// Destroy this rank's endpoints without draining (used on the
    /// failure path, where the node is simply gone). Every QP and the MR
    /// are released at once, then the destroys are paid in one sleep
    /// (`qp_destroy` per QP), so a C/R thread killed during it leaves
    /// nothing in the HCA.
    pub fn teardown(&self, ctx: &Ctx) -> TeardownReport {
        let eps = self.shared().state.lock().endpoints.take();
        let Some(eps) = eps else {
            return TeardownReport {
                qps_destroyed: 0,
                mrs_deregistered: 0,
            };
        };
        let report = eps.release();
        let n = u32::try_from(report.qps_destroyed).expect("QP count fits u32");
        if n > 0 {
            ctx.sleep(self.job.config().qp_destroy * n);
        }
        report
    }

    /// Phase-4 per-rank work: re-register the communication buffer MR and
    /// re-establish one QP per peer. `timed` charges the real costs
    /// (startup uses `false`, resume uses `true`): the registration, then
    /// one sleep for all the CM handshakes, after which every QP is
    /// created connected. Endpoints a killed C/R thread left behind are
    /// released first, untimed.
    pub fn rebuild_endpoints(&self, ctx: &Ctx, timed: bool) {
        let span = ctx.span_with("mpi", "rebuild_endpoints", || {
            vec![
                ("rank", self.rank.into()),
                ("timed", u64::from(timed).into()),
            ]
        });
        let (node, stale) = {
            let mut st = self.shared().state.lock();
            (st.node, st.endpoints.take())
        };
        if let Some(stale) = stale {
            stale.release();
        }
        let hca = self.job.fabric().attach(node);
        let mr = if timed {
            hca.register_mr(ctx, self.job.config().comm_buf_bytes)
        } else {
            hca.register_mr_instant(self.job.config().comm_buf_bytes)
        };
        // Address info is exchanged out of band by the launcher; the CM
        // handshake cost is what matters here.
        let mut peers = Vec::with_capacity(self.job.size() as usize - 1);
        peers.extend(
            (0..self.job.size())
                .filter(|&peer| peer != self.rank)
                .map(|peer| QpAddr {
                    node: self.job.rank_node(peer),
                    qpn: u32::MAX, // OOB-exchanged peer QPN (opaque here)
                }),
        );
        let qps = if timed {
            let _unclaimed = DeregisterOnUnwind(&mr);
            hca.connect_qps(ctx, &peers)
        } else {
            hca.connect_qps_instant(&peers)
        };
        self.shared().state.lock().endpoints = Some(Endpoints { mr, qps });
        span.end();
    }

    /// Whether endpoints currently exist.
    pub fn has_endpoints(&self) -> bool {
        self.shared().state.lock().endpoints.is_some()
    }

    /// Reopen the communication gate (end of Phase 4).
    pub fn reopen(&self) {
        self.shared().gate.set();
    }

    /// Force the communication gate closed without draining (failure
    /// path: the processes are gone, nothing to drain).
    pub fn close_gate(&self) {
        self.shared().gate.reset();
    }

    /// Whether the gate is open.
    pub fn is_open(&self) -> bool {
        self.shared().gate.is_set()
    }

    /// Arm dirty-page tracking over the rank's current segment layout
    /// (pre-copy round 0 start). Bitmaps start all-clean: round 0 streams
    /// the whole image, so only writes landing *after* this call matter.
    pub fn arm_dirty(&self, page: u64) {
        let mut st = self.shared().state.lock();
        let lens: Vec<u64> = st.segments.iter().map(|s| s.data.len).collect();
        st.dirty = Some(DirtyTracker::new(page, &lens));
    }

    /// Drop dirty tracking (cycle over or abandoned).
    pub fn disarm_dirty(&self) {
        self.shared().state.lock().dirty = None;
    }

    /// Snapshot-and-clear the dirty bitmap — the epoch boundary between
    /// two pre-copy rounds. `None` when tracking is not armed.
    pub fn take_dirty(&self) -> Option<DirtySnapshot> {
        self.shared().state.lock().dirty.as_mut().map(|t| t.take())
    }

    /// Bytes currently dirty (the size of the next round if taken now).
    pub fn dirty_bytes(&self) -> u64 {
        self.shared()
            .state
            .lock()
            .dirty
            .as_ref()
            .map_or(0, |t| t.dirty_bytes())
    }

    /// Capture checkpoint metadata (Phase 2, on the migration source).
    pub fn capture_meta(&self) -> CrMeta {
        let st = self.shared().state.lock();
        CrMeta {
            app_state: st.app_state.clone(),
            completed_ops: st.completed_in_iter,
            segments: st.segments.clone(),
        }
    }

    /// Restore checkpoint metadata into the rank before its new
    /// application thread starts (Phase 3, on the migration target).
    pub fn restore_meta(&self, meta: CrMeta) {
        let mut st = self.shared().state.lock();
        st.app_state = meta.app_state;
        st.skip = meta.completed_ops;
        st.completed_in_iter = meta.completed_ops;
        st.segments = meta.segments;
        st.dirty = None;
    }
}
