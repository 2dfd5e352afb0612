//! Fault-injection hook points for the network and verbs layers.
//!
//! A [`FaultHook`] installed on a [`Net`](crate::Net) (and, through it, on
//! the owning [`IbFabric`](crate::IbFabric)) is consulted on every datagram
//! send and every RDMA Read. The default implementation of every method is
//! a no-op, so a hook only pays for what it overrides. The hook object
//! itself decides *whether* to inject (by schedule or by count) — the
//! transport layers only ask and obey, which keeps them deterministic and
//! policy-free.

use crate::NodeId;
use simkit::SimTime;

/// What the transport should do with a datagram about to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendVerdict {
    /// Deliver normally.
    Deliver,
    /// Pay the wire time but silently discard the message (lossy link).
    /// The sender sees success; receivers see nothing — this is the fault
    /// that exercises receive-side timeouts.
    Drop,
    /// Fail the send immediately with [`NetError::LinkDown`]
    /// (link flap visible to the sender).
    ///
    /// [`NetError::LinkDown`]: crate::NetError::LinkDown
    Error,
}

/// Fault injected into a one-sided RDMA Read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The work request completes with an error CQE
    /// ([`VerbsError::CqError`](crate::VerbsError::CqError)) after the
    /// request packet is on the wire.
    CqError,
    /// The read "completes" but the returned data is corrupted (the caller
    /// only notices if it verifies a checksum).
    Corrupt,
}

/// Observer/injector consulted by [`Net`](crate::Net) and
/// [`Qp::rdma_read`](crate::Qp::rdma_read). All methods default to
/// "no fault".
pub trait FaultHook: Send + Sync {
    /// Consulted once per [`Net::send_to`](crate::Net::send_to), before any
    /// wire time is charged. `net` is the network's diagnostic name
    /// ("ib", "gige").
    fn on_send(
        &self,
        _now: SimTime,
        _net: &str,
        _from: NodeId,
        _to: NodeId,
        _port: u16,
        _wire_bytes: u64,
    ) -> SendVerdict {
        SendVerdict::Deliver
    }

    /// Consulted once per RDMA Read, after the request packet but before
    /// the bulk transfer. `from` is the node being read, `to` the reader.
    fn on_rdma_read(
        &self,
        _now: SimTime,
        _from: NodeId,
        _to: NodeId,
        _len: u64,
    ) -> Option<ReadFault> {
        None
    }
}
