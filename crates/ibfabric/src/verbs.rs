//! Simulated InfiniBand verbs: HCAs, memory regions, reliable-connected
//! queue pairs, two-sided send/recv and one-sided RDMA Read/Write.
//!
//! The API is deliberately *blocking*: an operation returns when the
//! corresponding completion would have been polled from a CQ. Overlap is
//! expressed with simulated processes (as MVAPICH2 does with its progress
//! and C/R threads), which keeps protocol code linear while preserving the
//! timing structure.
//!
//! The InfiniBand characteristics the paper's Phase 1 discussion hinges on
//! are modelled faithfully:
//!
//! * **OS-bypass**: nothing here passes through a node "kernel" object; a
//!   connection is only drainable by its owner cooperating.
//! * **Connection context in the adapter**: QP state lives in the [`Hca`];
//!   destroying a QP invalidates the peer's cached address immediately
//!   (sends fail with [`VerbsError::PeerGone`]).
//! * **Remote keys cached remotely**: an [`RemoteMr`] captured before a
//!   deregistration keeps "working" as a value but any RDMA access through
//!   it fails with [`VerbsError::RemoteAccess`] — the staleness hazard that
//!   forces MVAPICH2 to release rkeys before checkpointing. A
//!   deregistered region leaves its HCA's table; rkeys are never reused.
//!
//! Connection setup and teardown come in batches, as an MPI library
//! rebuilds all of a process's per-peer connections at once:
//! [`Hca::connect_qps`] pays `n` CM handshakes in one sleep and then
//! creates the `n` QPs, already connected, under one HCA lock;
//! [`Qp::destroy_all`] destroys a slice under one lock per HCA.
//! [`Hca::create_qp`] and [`Qp::destroy`] are their one-element cases.
//! A QP's receive queue is made only when a message is first sent to or
//! received on it.

use crate::fault::ReadFault;
use crate::net::{Net, NetConfig, NetError};
use crate::payload::DataSlice;
use crate::sparsebuf::SparseBuf;
use crate::NodeId;
use parking_lot::Mutex;
use simkit::{Ctx, Queue, SimHandle};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Wire-header overhead charged per message.
const MSG_HEADER_BYTES: u64 = 64;

/// Pattern seed for corrupted-read poison data; chosen so it can never
/// collide with a legitimate image seed (those are small integers).
const CORRUPT_SEED: u64 = 0xDEAD_BEEF_0BAD_C0DE;

/// Fabric-wide tunables.
#[derive(Debug, Clone)]
pub struct IbConfig {
    /// Transport parameters (latency, port bandwidth).
    pub net: NetConfig,
    /// Cost of establishing one RC connection (address handshake + QP
    /// state transitions through the connection manager).
    pub cm_handshake: Duration,
    /// Fixed cost of registering a memory region.
    pub reg_base: Duration,
    /// Page-pinning throughput for memory registration, bytes/second.
    pub reg_bandwidth: f64,
}

impl Default for IbConfig {
    fn default() -> Self {
        IbConfig {
            net: NetConfig::ib_ddr(),
            cm_handshake: Duration::from_micros(60),
            reg_base: Duration::from_micros(30),
            reg_bandwidth: 1.5e9,
        }
    }
}

/// Errors surfaced by verbs operations.
#[derive(Debug)]
pub enum VerbsError {
    /// Operation on a QP that is not connected.
    NotConnected,
    /// This QP (or its peer) was destroyed.
    Destroyed,
    /// The peer QP no longer exists or is destroyed.
    PeerGone,
    /// RDMA access through an invalid/revoked rkey, or out of MR bounds.
    RemoteAccess {
        /// Node whose HCA rejected the access.
        node: NodeId,
        /// The offending rkey.
        rkey: u32,
    },
    /// The work request completed with an error CQE (injected transport
    /// fault). The operation may be retried on the same QP.
    CqError,
    /// Underlying network failure.
    Net(NetError),
}

impl fmt::Display for VerbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbsError::NotConnected => write!(f, "queue pair not connected"),
            VerbsError::Destroyed => write!(f, "queue pair destroyed"),
            VerbsError::PeerGone => write!(f, "peer queue pair gone"),
            VerbsError::RemoteAccess { node, rkey } => {
                write!(f, "remote access error at {node:?} rkey {rkey}")
            }
            VerbsError::CqError => write!(f, "work request completed in error (CQE)"),
            VerbsError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for VerbsError {}

impl From<NetError> for VerbsError {
    fn from(e: NetError) -> Self {
        VerbsError::Net(e)
    }
}

/// Advertised handle to a registered memory region on some node — what a
/// peer needs to perform RDMA against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMr {
    /// Node owning the memory.
    pub node: NodeId,
    /// Remote key.
    pub rkey: u32,
    /// Region length in bytes.
    pub len: u64,
}

/// Address of a queue pair for connection establishment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpAddr {
    /// Node the QP lives on.
    pub node: NodeId,
    /// QP number, unique per node.
    pub qpn: u32,
}

/// A message as delivered by [`Qp::recv`].
pub struct IbMessage {
    /// Application tag (protocol discriminator).
    pub tag: u64,
    /// Typed body; receivers downcast.
    pub body: Box<dyn Any + Send>,
    /// Payload bytes charged on the wire (excluding header).
    pub wire_bytes: u64,
}

impl fmt::Debug for IbMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IbMessage(tag={}, {} bytes)", self.tag, self.wire_bytes)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QpState {
    Init,
    Connected(QpAddr),
    Destroyed,
}

struct QpShared {
    addr: QpAddr,
    state: Mutex<QpState>,
    /// Made at the QP's first send to it or receive on it: most QPs
    /// (an MPI job's per-peer endpoints) never carry a message.
    recv_q: OnceLock<Queue<Result<IbMessage, VerbsError>>>,
}

impl QpShared {
    fn recv_q(&self, handle: &SimHandle) -> &Queue<Result<IbMessage, VerbsError>> {
        self.recv_q.get_or_init(|| Queue::new(handle))
    }
}

struct HcaShared {
    node: NodeId,
    state: Mutex<HcaState>,
}

struct HcaState {
    /// Registered regions by rkey. Deregistration removes the entry, and
    /// rkeys are never reused, so a stale rkey finds nothing.
    mrs: HashMap<u32, Arc<Mutex<SparseBuf>>>,
    qps: HashMap<u32, Arc<QpShared>>,
    next_rkey: u32,
    next_qpn: u32,
}

struct FabricInner {
    cfg: IbConfig,
    net: Net,
    hcas: Mutex<HashMap<NodeId, Arc<HcaShared>>>,
}

/// The simulated InfiniBand fabric. Cloning shares the fabric.
#[derive(Clone)]
pub struct IbFabric {
    handle: SimHandle,
    inner: Arc<FabricInner>,
}

impl IbFabric {
    /// Create a fabric with the given configuration.
    pub fn new(handle: &SimHandle, cfg: IbConfig) -> Self {
        let net = Net::new(handle, cfg.net.clone());
        IbFabric {
            handle: handle.clone(),
            inner: Arc::new(FabricInner {
                cfg,
                net,
                hcas: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Fabric configuration.
    pub fn config(&self) -> &IbConfig {
        &self.inner.cfg
    }

    /// The underlying transport network (for byte accounting in tests).
    pub fn net(&self) -> &Net {
        &self.inner.net
    }

    /// Attach an HCA to `node` (idempotent: returns the existing HCA).
    pub fn attach(&self, node: NodeId) -> Hca {
        self.inner.net.add_node(node);
        let mut hcas = self.inner.hcas.lock();
        let shared = hcas
            .entry(node)
            .or_insert_with(|| {
                Arc::new(HcaShared {
                    node,
                    state: Mutex::new(HcaState {
                        mrs: HashMap::new(),
                        qps: HashMap::new(),
                        next_rkey: 1,
                        next_qpn: 1,
                    }),
                })
            })
            .clone();
        Hca {
            fabric: self.clone(),
            shared,
        }
    }

    fn hca_shared(&self, node: NodeId) -> Option<Arc<HcaShared>> {
        self.inner.hcas.lock().get(&node).cloned()
    }

    fn lookup_qp(&self, addr: QpAddr) -> Option<Arc<QpShared>> {
        self.hca_shared(addr.node)?
            .state
            .lock()
            .qps
            .get(&addr.qpn)
            .cloned()
    }

    /// Validate rkey and bounds on `node`, returning the backing buffer.
    fn checked_mr(
        &self,
        node: NodeId,
        rkey: u32,
        offset: u64,
        len: u64,
    ) -> Result<Arc<Mutex<SparseBuf>>, VerbsError> {
        let denied = || VerbsError::RemoteAccess { node, rkey };
        let hca = self.hca_shared(node).ok_or_else(denied)?;
        let buf = hca
            .state
            .lock()
            .mrs
            .get(&rkey)
            .cloned()
            .ok_or_else(denied)?;
        let end = offset.checked_add(len);
        if end.is_none() || end.unwrap() > buf.lock().len() {
            return Err(VerbsError::RemoteAccess { node, rkey });
        }
        Ok(buf)
    }
}

/// A node's host channel adapter: creates memory regions and queue pairs.
#[derive(Clone)]
pub struct Hca {
    fabric: IbFabric,
    shared: Arc<HcaShared>,
}

impl Hca {
    /// The node this HCA is attached to.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// Register `len` bytes of memory, paying the pinning cost
    /// (`reg_base + len / reg_bandwidth`).
    pub fn register_mr(&self, ctx: &Ctx, len: u64) -> Mr {
        let cfg = &self.fabric.inner.cfg;
        let cost = cfg.reg_base + Duration::from_secs_f64(len as f64 / cfg.reg_bandwidth);
        let span = ctx.span_with("rdma", "mr_register", || {
            vec![("bytes", len.into()), ("node", self.shared.node.0.into())]
        });
        ctx.sleep(cost);
        span.end();
        self.register_mr_instant(len)
    }

    /// Register memory without charging time (simulation setup).
    pub fn register_mr_instant(&self, len: u64) -> Mr {
        let buf = Arc::new(Mutex::new(SparseBuf::new(len)));
        let rkey = {
            let mut st = self.shared.state.lock();
            let rkey = st.next_rkey;
            st.next_rkey += 1;
            st.mrs.insert(rkey, buf.clone());
            rkey
        };
        Mr {
            hca: self.shared.clone(),
            rkey,
            len,
            buf,
        }
    }

    /// Create a queue pair in the `Init` state.
    pub fn create_qp(&self) -> Qp {
        let mut qp = self.create_qps([QpState::Init]);
        qp.pop().expect("one QP")
    }

    /// Create one queue pair per entry of `peers`, each connected to its
    /// peer, paying one connection-manager handshake per QP
    /// (`cm_handshake × peers.len()`, one sleep). The QPs exist only once
    /// the handshakes are paid, so a caller killed during them leaves
    /// none behind. Records one `rdma/qp_connect` instant for the batch;
    /// an empty batch neither sleeps nor records.
    pub fn connect_qps(&self, ctx: &Ctx, peers: &[QpAddr]) -> Vec<Qp> {
        if peers.is_empty() {
            return Vec::new();
        }
        let n = u32::try_from(peers.len()).expect("QP count fits u32");
        ctx.sleep(self.fabric.inner.cfg.cm_handshake * n);
        let qps = self.connect_qps_instant(peers);
        ctx.instant_with("rdma", "qp_connect", || {
            vec![("node", self.shared.node.0.into()), ("qps", n.into())]
        });
        qps
    }

    /// [`Hca::connect_qps`] without charging time (simulation setup).
    pub fn connect_qps_instant(&self, peers: &[QpAddr]) -> Vec<Qp> {
        self.create_qps(peers.iter().map(|&p| QpState::Connected(p)))
    }

    /// Create one QP per entry of `states` under one HCA lock.
    fn create_qps(&self, states: impl IntoIterator<Item = QpState>) -> Vec<Qp> {
        let states = states.into_iter();
        let mut qps = Vec::with_capacity(states.size_hint().0);
        let mut st = self.shared.state.lock();
        for state in states {
            let qpn = st.next_qpn;
            st.next_qpn += 1;
            let shared = Arc::new(QpShared {
                addr: QpAddr {
                    node: self.shared.node,
                    qpn,
                },
                state: Mutex::new(state),
                recv_q: OnceLock::new(),
            });
            st.qps.insert(qpn, shared.clone());
            qps.push(Qp {
                fabric: self.fabric.clone(),
                shared,
            });
        }
        qps
    }

    /// Queue pairs in this HCA's table (created and not yet destroyed).
    pub fn live_qps(&self) -> usize {
        self.shared.state.lock().qps.len()
    }

    /// Memory regions registered here and not yet deregistered.
    pub fn live_mrs(&self) -> usize {
        self.shared.state.lock().mrs.len()
    }
}

/// A registered memory region (owner handle). Dropping does **not**
/// deregister — call [`Mr::deregister`] explicitly, as MVAPICH2 must before
/// a checkpoint.
pub struct Mr {
    hca: Arc<HcaShared>,
    rkey: u32,
    len: u64,
    buf: Arc<Mutex<SparseBuf>>,
}

impl Mr {
    /// Handle to advertise to peers for RDMA access.
    pub fn remote(&self) -> RemoteMr {
        RemoteMr {
            node: self.hca.node,
            rkey: self.rkey,
            len: self.len,
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Local write (no simulated cost; charge a memory-bus link at the
    /// call site when the copy itself matters).
    pub fn write_local(&self, offset: u64, data: DataSlice) {
        self.buf.lock().write(offset, data);
    }

    /// Local read.
    pub fn read_local(&self, offset: u64, len: u64) -> Vec<DataSlice> {
        self.buf.lock().read(offset, len)
    }

    /// Deregister the region, dropping it from its HCA's table: any
    /// [`RemoteMr`] captured earlier becomes a stale rkey and RDMA
    /// through it fails.
    pub fn deregister(&self) {
        self.hca.state.lock().mrs.remove(&self.rkey);
    }

    /// Whether the region is still registered.
    pub fn is_valid(&self) -> bool {
        self.hca.state.lock().mrs.contains_key(&self.rkey)
    }
}

/// A reliable-connected queue pair.
#[derive(Clone)]
pub struct Qp {
    fabric: IbFabric,
    shared: Arc<QpShared>,
}

impl Qp {
    /// This QP's address (exchange out-of-band, e.g. over the launcher).
    pub fn addr(&self) -> QpAddr {
        self.shared.addr
    }

    /// Transition to `Connected` against `peer`, paying the connection
    /// manager handshake. Each side calls this with the other's address.
    pub fn connect(&self, ctx: &Ctx, peer: QpAddr) -> Result<(), VerbsError> {
        {
            let st = self.shared.state.lock();
            if *st == QpState::Destroyed {
                return Err(VerbsError::Destroyed);
            }
        }
        ctx.sleep(self.fabric.inner.cfg.cm_handshake);
        let mut st = self.shared.state.lock();
        if *st == QpState::Destroyed {
            return Err(VerbsError::Destroyed);
        }
        *st = QpState::Connected(peer);
        drop(st);
        ctx.instant_with("rdma", "qp_connect", || {
            vec![
                ("node", self.shared.addr.node.0.into()),
                ("peer", peer.node.0.into()),
            ]
        });
        Ok(())
    }

    fn connected_peer(&self) -> Result<QpAddr, VerbsError> {
        match *self.shared.state.lock() {
            QpState::Init => Err(VerbsError::NotConnected),
            QpState::Destroyed => Err(VerbsError::Destroyed),
            QpState::Connected(peer) => Ok(peer),
        }
    }

    /// Two-sided send: blocks for the wire time, then lands in the peer's
    /// receive queue.
    pub fn send(
        &self,
        ctx: &Ctx,
        tag: u64,
        body: Box<dyn Any + Send>,
        wire_bytes: u64,
    ) -> Result<(), VerbsError> {
        let peer = self.connected_peer()?;
        let my = self.shared.addr;
        let span = ctx.span_with("rdma", "qp_send", || {
            vec![
                ("tag", tag.into()),
                ("bytes", wire_bytes.into()),
                ("from", my.node.0.into()),
                ("to", peer.node.0.into()),
            ]
        });
        self.fabric
            .inner
            .net
            .wire_delay(ctx, my.node, peer.node, wire_bytes + MSG_HEADER_BYTES)?;
        span.end();
        // A destroyed peer has left its HCA's table.
        let peer_qp = self.fabric.lookup_qp(peer).ok_or(VerbsError::PeerGone)?;
        peer_qp.recv_q(&self.fabric.handle).push(Ok(IbMessage {
            tag,
            body,
            wire_bytes,
        }));
        Ok(())
    }

    /// Receive the next message on this QP (blocking).
    pub fn recv(&self, ctx: &Ctx) -> Result<IbMessage, VerbsError> {
        if *self.shared.state.lock() == QpState::Destroyed {
            return Err(VerbsError::Destroyed);
        }
        self.shared.recv_q(&self.fabric.handle).pop(ctx)
    }

    /// Number of undelivered messages queued on this QP.
    pub fn pending(&self) -> usize {
        self.shared.recv_q.get().map_or(0, Queue::len)
    }

    /// One-sided RDMA Read: pull `[offset, offset+len)` from `remote`.
    /// Validates the rkey both before and after the bulk transfer — a key
    /// revoked mid-transfer poisons the read, modelling the staleness
    /// hazard the paper's Phase 1 eliminates by releasing keys first.
    pub fn rdma_read(
        &self,
        ctx: &Ctx,
        remote: &RemoteMr,
        offset: u64,
        len: u64,
    ) -> Result<Vec<DataSlice>, VerbsError> {
        let _peer = self.connected_peer()?;
        let my_node = self.shared.addr.node;
        let span = ctx.span_with("rdma", "read", || {
            vec![
                ("bytes", len.into()),
                ("offset", offset.into()),
                ("from", remote.node.0.into()),
                ("to", my_node.0.into()),
            ]
        });
        // request packet
        ctx.sleep(self.fabric.inner.cfg.net.latency);
        self.fabric
            .checked_mr(remote.node, remote.rkey, offset, len)?;
        let fault = self
            .fabric
            .inner
            .net
            .fault_hook()
            .and_then(|h| h.on_rdma_read(ctx.now(), remote.node, my_node, len));
        if let Some(ReadFault::CqError) = fault {
            span.end_with(vec![("error", "cqe".into())]);
            return Err(VerbsError::CqError);
        }
        // bulk flows from the remote node to us
        self.fabric
            .inner
            .net
            .wire_delay(ctx, remote.node, my_node, len + MSG_HEADER_BYTES)?;
        let buf = self
            .fabric
            .checked_mr(remote.node, remote.rkey, offset, len)?;
        let slices = buf.lock().read(offset, len);
        if let Some(ReadFault::Corrupt) = fault {
            // The transfer "succeeded" but the payload is garbage: hand back
            // a poison pattern of the right length so only checksum
            // verification can tell.
            span.end_with(vec![("bytes", len.into()), ("error", "corrupt".into())]);
            return Ok(vec![DataSlice::pattern(CORRUPT_SEED, offset, len)]);
        }
        span.end_with(vec![("bytes", len.into())]);
        Ok(slices)
    }

    /// One-sided RDMA Write: push `data` into `[offset, ...)` at `remote`.
    pub fn rdma_write(
        &self,
        ctx: &Ctx,
        remote: &RemoteMr,
        offset: u64,
        data: Vec<DataSlice>,
    ) -> Result<(), VerbsError> {
        let _peer = self.connected_peer()?;
        let my_node = self.shared.addr.node;
        let len = crate::payload::total_len(&data);
        let span = ctx.span_with("rdma", "write", || {
            vec![
                ("bytes", len.into()),
                ("offset", offset.into()),
                ("from", my_node.0.into()),
                ("to", remote.node.0.into()),
            ]
        });
        self.fabric
            .checked_mr(remote.node, remote.rkey, offset, len)?;
        self.fabric
            .inner
            .net
            .wire_delay(ctx, my_node, remote.node, len + MSG_HEADER_BYTES)?;
        span.end();
        let buf = self
            .fabric
            .checked_mr(remote.node, remote.rkey, offset, len)?;
        let mut buf = buf.lock();
        let mut cursor = offset;
        for s in data {
            let l = s.len;
            buf.write(cursor, s);
            cursor += l;
        }
        Ok(())
    }

    /// Destroy the QP and drop it from its HCA's table: peers' sends
    /// fail with [`VerbsError::PeerGone`], local blocked receivers wake
    /// with [`VerbsError::Destroyed`].
    pub fn destroy(&self) {
        Qp::destroy_all(std::slice::from_ref(self));
    }

    /// [`Qp::destroy`] every QP of `batch`, taking each HCA's lock once per
    /// run of consecutive QPs on its node. Charges no time.
    pub fn destroy_all(batch: &[Qp]) {
        let mut rest = batch;
        while let Some(first) = rest.first() {
            let node = first.shared.addr.node;
            let same = rest.iter().take_while(|q| q.shared.addr.node == node);
            let (run, tail) = rest.split_at(same.count());
            rest = tail;
            if let Some(hca) = first.fabric.hca_shared(node) {
                let mut st = hca.state.lock();
                for qp in run {
                    st.qps.remove(&qp.shared.addr.qpn);
                }
            }
        }
        for qp in batch {
            let was = std::mem::replace(&mut *qp.shared.state.lock(), QpState::Destroyed);
            // Wake a receiver parked on the queue. `recv` checks the
            // state first, so no later receive reads the queue.
            match qp.shared.recv_q.get() {
                Some(q) if was != QpState::Destroyed && q.has_waiters() => {
                    q.push(Err(VerbsError::Destroyed));
                }
                _ => {}
            }
        }
    }

    /// Whether the QP has been destroyed.
    pub fn is_destroyed(&self) -> bool {
        *self.shared.state.lock() == QpState::Destroyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Simulation;

    #[test]
    fn a_destroyed_qp_leaves_its_hca_and_queues_nothing() {
        let mut sim = Simulation::new(0);
        let fab = IbFabric::new(&sim.handle(), IbConfig::default());
        let h0 = fab.attach(NodeId(0));
        let h1 = fab.attach(NodeId(1));
        let q0 = h0.create_qp();
        let q1 = h1.create_qp();
        let (a0, a1) = (q0.addr(), q1.addr());
        sim.spawn("pair", move |ctx| {
            q0.connect(ctx, a1).unwrap();
            q1.connect(ctx, a0).unwrap();
            q1.destroy();
            assert_eq!(q1.pending(), 0, "no receiver was parked");
            assert!(matches!(q1.recv(ctx), Err(VerbsError::Destroyed)));
            let t0 = ctx.now();
            let sent = q0.send(ctx, 0, Box::new(()), 100);
            assert!(matches!(sent, Err(VerbsError::PeerGone)), "{sent:?}");
            assert!(ctx.now() > t0, "the send fails after its wire delay");
        });
        sim.run().unwrap();
        assert_eq!((h0.live_qps(), h1.live_qps()), (1, 0));
    }

    #[test]
    fn a_batch_pays_every_handshake_in_one_sleep_and_leaves_in_one_destroy() {
        let mut sim = Simulation::new(0);
        let fab = IbFabric::new(&sim.handle(), IbConfig::default());
        let h0 = fab.attach(NodeId(0));
        let h1 = fab.attach(NodeId(1));
        let back = h1.create_qp();
        let peers = [back.addr(); 3];
        let (a, b) = (h0.clone(), h1.clone());
        sim.spawn("rank", move |ctx| {
            let t0 = ctx.now();
            let batch = a.connect_qps(ctx, &peers);
            assert_eq!(ctx.now() - t0, IbConfig::default().cm_handshake * 3);
            assert_eq!(a.live_qps(), 3);
            assert!(
                back.shared.recv_q.get().is_none(),
                "no queue before a message"
            );
            back.connect(ctx, batch[1].addr()).unwrap();
            batch[1].send(ctx, 7, Box::new(()), 8).unwrap();
            assert_eq!(back.pending(), 1);
            assert_eq!(back.recv(ctx).unwrap().tag, 7);
            assert!(batch.iter().all(|q| q.shared.recv_q.get().is_none()));
            Qp::destroy_all(&batch);
            assert!(batch.iter().all(Qp::is_destroyed));
            assert!(matches!(
                back.send(ctx, 7, Box::new(()), 8),
                Err(VerbsError::PeerGone)
            ));
        });
        sim.run().unwrap();
        assert_eq!((h0.live_qps(), b.live_qps()), (0, 1));
    }

    #[test]
    fn a_deregistered_mr_leaves_its_hca() {
        let sim = Simulation::new(0);
        let fab = IbFabric::new(&sim.handle(), IbConfig::default());
        let h0 = fab.attach(NodeId(0));
        let mr = h0.register_mr_instant(4096);
        let remote = mr.remote();
        assert_eq!(h0.live_mrs(), 1);
        mr.deregister();
        assert!(!mr.is_valid());
        assert_eq!(h0.live_mrs(), 0);
        let stale = fab.checked_mr(remote.node, remote.rkey, 0, 1);
        assert!(matches!(stale, Err(VerbsError::RemoteAccess { .. })));
        // rkeys are never reused.
        assert_ne!(h0.register_mr_instant(4096).remote().rkey, remote.rkey);
    }
}
