//! # mpisim — a mini-MPI runtime over the simulated InfiniBand fabric
//!
//! Models the slice of MVAPICH2 the paper's migration framework lives in:
//!
//! * **Point-to-point** messaging with MVAPICH2's two protocols: *eager*
//!   (small messages buffered at the receiver) and *rendezvous* (RTS/CTS
//!   handshake, then a bulk RDMA transfer) — selected by an eager
//!   threshold.
//! * **Collectives** (barrier, broadcast, allreduce, neighbour exchange)
//!   built over point-to-point with system tags.
//! * The **checkpoint/restart protocol hooks** of MVAPICH2's C/R
//!   framework, which the paper's Phase 1 and Phase 4 execute:
//!   [`RankCr::suspend_and_drain`] closes the communication gate, drains
//!   in-flight wire traffic, and tears down endpoints (destroying QPs and
//!   deregistering MRs so no stale rkey survives);
//!   [`RankCr::rebuild_endpoints`] re-registers memory and reconnects QPs
//!   after the migration barrier.
//!
//! ## Endpoint cycle
//!
//! A rank holds one RC queue pair per peer and one registered buffer.
//! Their per-QP costs (`qp_destroy` per teardown, `cm_handshake` per
//! reconnect) are a sum of constants, so each is paid in one sleep: the
//! teardown releases every QP and the MR at once and then sleeps
//! `qp_destroy × n`; a timed rebuild registers the MR, sleeps
//! `cm_handshake × n` and then creates all n QPs connected in one
//! [`ibfabric::Hca::connect_qps`] call. At 64 ranks a rank's cycle is 3
//! kernel dispatches, not 127, with every virtual instant unchanged. A
//! C/R thread killed inside either sleep leaves no QP and no registered
//! MR of its rank in the HCA, and a rebuild first releases any endpoints
//! a killed C/R thread left behind. MPI messages never travel on these
//! QPs: they cost a `Net::wire_delay` between the ranks' nodes.
//!
//! ## Matching queues
//!
//! As in MPICH2's CH3 device, each rank keeps one unexpected-message
//! queue: unmatched tokens in delivery order, each tagged with its
//! `(source, tag)`. A receive takes the oldest token of its pair, so
//! order holds per pair however pairs interleave. With none there, the
//! application thread posts its pair and parks on the rank's doorbell
//! event, made at its first blocking receive; a delivery rings it only
//! when its token matches the posted pair. Rollback and stale-RTS
//! purges filter the one queue. Tags carry the iteration number, so a
//! job's matching state stays bounded by what is in flight.
//!
//! ## Replay-safe operations
//!
//! A migrated process restarts from its BLCR image, which in this
//! simulation restores *logical* application state (iteration counters
//! etc.) rather than a thread snapshot. To make re-execution of the
//! interrupted iteration exact, every MPI/compute operation carries an
//! intra-iteration sequence number; the count of completed operations is
//! part of the checkpointed state, and a restarted rank *skips* operations
//! it already completed (their effects — delivered messages, computed
//! memory — are in the image). The application marks iteration boundaries
//! with [`MpiRank::op_boundary`]. See `DESIGN.md` §2.

#![forbid(unsafe_code)]

mod collectives;
mod job;
mod rank;

pub use job::{JobStats, MpiConfig, MpiJob};
pub use rank::{CrMeta, MpiRank, RankCr, RankId, TeardownReport};
