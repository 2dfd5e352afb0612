//! # ibfabric — simulated InfiniBand fabric and generic datagram networks
//!
//! This crate models the communication substrate of the paper's testbed:
//!
//! * [`verbs`-level API][IbFabric]: HCAs, registered memory regions with
//!   revocable rkeys, reliable-connected queue pairs, two-sided send/recv
//!   and one-sided RDMA Read/Write — over a full-bisection switched fabric
//!   with fluid-flow bandwidth sharing.
//! * [`Net`]: the generic switched datagram network underneath, also
//!   instantiated separately as the GigE maintenance network that the FTB
//!   backplane runs over (as in the paper's testbed).
//! * [`DataSlice`] / [`SparseBuf`]: the zero-copy data model that lets
//!   multi-gigabyte checkpoint images move through the simulation with
//!   verifiable content but O(1) memory.
//!
//! See `DESIGN.md` §2 for why a simulated fabric (rather than real
//! hardware) preserves the behaviour the paper evaluates.

#![forbid(unsafe_code)]

mod fault;
mod net;
mod payload;
mod sparsebuf;
mod verbs;

pub use fault::{FaultHook, ReadFault, SendVerdict};
pub use net::{Datagram, Net, NetConfig, NetError};
pub use payload::{pattern_byte, total_len, DataSlice, DataSrc, Rope};
pub use sparsebuf::SparseBuf;
pub use verbs::{Hca, IbConfig, IbFabric, IbMessage, Mr, Qp, QpAddr, RemoteMr, VerbsError};

/// Identifier of a physical node in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}
