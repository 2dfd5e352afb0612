//! # ftb — the CIFTS Fault Tolerance Backplane
//!
//! A reproduction of the FTB as the paper uses it: a tree of per-node
//! agent daemons over the cluster's GigE maintenance network, with a
//! client API for components (Job Manager, Node Launch Agents, the C/R
//! thread inside each MPI process) to publish and subscribe to
//! fault-tolerance events (`FTB_MIGRATE`, `FTB_MIGRATE_PIIC`,
//! `FTB_RESTART`, health reports).
//!
//! Faithful to the paper's description:
//!
//! * **Three layers** — the client layer ([`FtbClient`]), the manager
//!   layer (subscription bookkeeping and event matching inside each
//!   agent), and the network layer (datagrams over [`ibfabric::Net`]).
//! * **Tree topology with self-healing** — an agent that loses its parent
//!   re-attaches to its grandparent, so events keep flowing after a node
//!   death ([`FtbBackplane`] tests exercise this).
//! * Events are **routed by subscription**: an agent always forwards an
//!   event up toward the root, and down into a child (never back the
//!   arrival direction) only when that child's subtree holds a matching
//!   subscription. Delivery is exactly-once per matching subscription in
//!   a stable tree, and a subtree with no match sees no traffic.

#![forbid(unsafe_code)]

mod agent;
mod client;
mod event;

pub use agent::{FtbBackplane, FtbConfig};
pub use client::FtbClient;
pub use event::{EventFilter, FtbEvent, Severity};

/// UDP-style port the FTB agents listen on (one agent per node).
pub const FTB_AGENT_PORT: u16 = 6000;
