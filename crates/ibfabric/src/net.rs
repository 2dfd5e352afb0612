//! Generic datagram network over fluid links.
//!
//! [`Net`] models a switched network (full-bisection switch): every node
//! has a full-duplex port (a tx and an rx fluid link); a message occupies
//! the sender's tx link and the receiver's rx link simultaneously, after a
//! fixed propagation latency. Two instances are used in this workspace —
//! the InfiniBand fabric's transport and the GigE maintenance network the
//! FTB backplane runs over.
//!
//! Intra-node messages skip the links entirely and cost only a small
//! loopback latency, mirroring MVAPICH2's shared-memory channel.

use crate::fault::{FaultHook, SendVerdict};
use crate::NodeId;
use parking_lot::Mutex;
use simkit::{Ctx, FlowNet, LinkId, Queue, Sharing, SimHandle};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Static parameters of a [`Net`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Diagnostic name ("ib", "gige").
    pub name: String,
    /// One-way propagation + protocol latency per message.
    pub latency: Duration,
    /// Loopback latency for intra-node messages.
    pub loopback_latency: Duration,
    /// Port bandwidth, bytes/second (same for tx and rx).
    pub port_bandwidth: f64,
}

impl NetConfig {
    /// InfiniBand DDR 4x-like parameters (~1.4 GB/s effective payload
    /// bandwidth, ~2 µs short-message latency).
    pub fn ib_ddr() -> Self {
        NetConfig {
            name: "ib".into(),
            latency: Duration::from_nanos(2_000),
            loopback_latency: Duration::from_nanos(500),
            port_bandwidth: 1.4e9,
        }
    }

    /// Gigabit Ethernet with a kernel TCP stack (~110 MB/s, ~60 µs).
    pub fn gige() -> Self {
        NetConfig {
            name: "gige".into(),
            latency: Duration::from_micros(60),
            loopback_latency: Duration::from_micros(15),
            port_bandwidth: 110e6,
        }
    }
}

/// A datagram delivered to a bound port.
pub struct Datagram {
    /// Sending node and port.
    pub from: (NodeId, u16),
    /// Typed payload; receivers downcast to the protocol's message type.
    pub payload: Box<dyn Any + Send>,
    /// Bytes the message occupied on the wire (headers + body).
    pub wire_bytes: u64,
}

impl fmt::Debug for Datagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Datagram(from {:?}:{}, {} wire bytes)",
            self.from.0, self.from.1, self.wire_bytes
        )
    }
}

/// Errors from [`Net`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination node has no port on this network.
    NoSuchNode(NodeId),
    /// Destination `(node, port)` is not bound.
    PortClosed(NodeId, u16),
    /// The link to the destination is down (injected fault).
    LinkDown(NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoSuchNode(n) => write!(f, "no such node on network: {n:?}"),
            NetError::PortClosed(n, p) => write!(f, "port closed: {n:?}:{p}"),
            NetError::LinkDown(n) => write!(f, "link down to {n:?}"),
        }
    }
}

impl std::error::Error for NetError {}

struct Port {
    tx: LinkId,
    rx: LinkId,
}

struct NetInner {
    ports: HashMap<NodeId, Port>,
    inboxes: HashMap<(NodeId, u16), Queue<Datagram>>,
    hook: Option<Arc<dyn FaultHook>>,
}

/// A switched datagram network. Cloning shares the network.
#[derive(Clone)]
pub struct Net {
    handle: SimHandle,
    flows: FlowNet,
    cfg: Arc<NetConfig>,
    inner: Arc<Mutex<NetInner>>,
}

impl Net {
    /// Create an empty network.
    pub fn new(handle: &SimHandle, cfg: NetConfig) -> Self {
        Net {
            handle: handle.clone(),
            flows: FlowNet::new(handle),
            cfg: Arc::new(cfg),
            inner: Arc::new(Mutex::new(NetInner {
                ports: HashMap::new(),
                inboxes: HashMap::new(),
                hook: None,
            })),
        }
    }

    /// Install (or replace) the fault hook consulted on every send.
    pub fn set_fault_hook(&self, hook: Arc<dyn FaultHook>) {
        self.inner.lock().hook = Some(hook);
    }

    pub(crate) fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        self.inner.lock().hook.clone()
    }

    /// Network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Attach `node` to the switch (idempotent).
    pub fn add_node(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        if inner.ports.contains_key(&node) {
            return;
        }
        let tx = self.flows.add_link(
            &format!("{}:n{}:tx", self.cfg.name, node.0),
            self.cfg.port_bandwidth,
            Sharing::Fair,
        );
        let rx = self.flows.add_link(
            &format!("{}:n{}:rx", self.cfg.name, node.0),
            self.cfg.port_bandwidth,
            Sharing::Fair,
        );
        inner.ports.insert(node, Port { tx, rx });
    }

    /// Block for the time `wire_bytes` takes from `from` to `to` under
    /// current network load (latency + shared-bandwidth transfer). This is
    /// the timing core used by both the raw datagram API and the verbs
    /// layer.
    pub fn wire_delay(
        &self,
        ctx: &Ctx,
        from: NodeId,
        to: NodeId,
        wire_bytes: u64,
    ) -> Result<(), NetError> {
        if from == to {
            ctx.sleep(self.cfg.loopback_latency);
            return Ok(());
        }
        let (tx, rx) = {
            let inner = self.inner.lock();
            let f = inner.ports.get(&from).ok_or(NetError::NoSuchNode(from))?;
            let t = inner.ports.get(&to).ok_or(NetError::NoSuchNode(to))?;
            (f.tx, t.rx)
        };
        ctx.sleep(self.cfg.latency);
        self.flows.transfer(ctx, &[tx, rx], wire_bytes);
        Ok(())
    }

    /// Bind `(node, port)`, returning the inbox that will receive
    /// datagrams. Re-binding an already-bound port returns the same inbox.
    pub fn bind(&self, node: NodeId, port: u16) -> Queue<Datagram> {
        let mut inner = self.inner.lock();
        inner
            .inboxes
            .entry((node, port))
            .or_insert_with(|| Queue::new(&self.handle))
            .clone()
    }

    /// Close `(node, port)`; subsequent sends get [`NetError::PortClosed`].
    pub fn unbind(&self, node: NodeId, port: u16) {
        self.inner.lock().inboxes.remove(&(node, port));
    }

    /// Send a typed datagram, blocking for the wire time. Delivery is
    /// checked *after* the transfer (a message to a port closed mid-flight
    /// is dropped with an error, like a TCP RST).
    pub fn send_to(
        &self,
        ctx: &Ctx,
        from: (NodeId, u16),
        to: (NodeId, u16),
        payload: Box<dyn Any + Send>,
        wire_bytes: u64,
    ) -> Result<(), NetError> {
        let hook = {
            let inner = self.inner.lock();
            if !inner.ports.contains_key(&to.0) {
                return Err(NetError::NoSuchNode(to.0));
            }
            inner.hook.clone()
        };
        let verdict = match hook {
            Some(h) => h.on_send(ctx.now(), &self.cfg.name, from.0, to.0, to.1, wire_bytes),
            None => SendVerdict::Deliver,
        };
        match verdict {
            SendVerdict::Deliver => {}
            SendVerdict::Error => return Err(NetError::LinkDown(to.0)),
            SendVerdict::Drop => {
                // The bytes occupy the wire, but the message evaporates.
                self.wire_delay(ctx, from.0, to.0, wire_bytes)?;
                return Ok(());
            }
        }
        self.wire_delay(ctx, from.0, to.0, wire_bytes)?;
        let inner = self.inner.lock();
        match inner.inboxes.get(&to) {
            Some(q) => {
                q.push(Datagram {
                    from,
                    payload,
                    wire_bytes,
                });
                Ok(())
            }
            None => Err(NetError::PortClosed(to.0, to.1)),
        }
    }

    /// Bytes delivered into `node` (over its rx link) so far.
    pub fn rx_bytes(&self, node: NodeId) -> u64 {
        let inner = self.inner.lock();
        inner
            .ports
            .get(&node)
            .map(|p| self.flows.bytes_completed_on(p.rx))
            .unwrap_or(0)
    }

    /// Bytes sent from `node` (over its tx link) so far.
    pub fn tx_bytes(&self, node: NodeId) -> u64 {
        let inner = self.inner.lock();
        inner
            .ports
            .get(&node)
            .map(|p| self.flows.bytes_completed_on(p.tx))
            .unwrap_or(0)
    }
}
