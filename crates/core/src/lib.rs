//! # jobmig-core — the RDMA-based job migration framework
//!
//! The paper's contribution, implemented end to end on the simulated
//! cluster substrates of this workspace:
//!
//! * [`cluster`] — the testbed: compute nodes (each with an HCA, a GigE
//!   port, a local ext3 disk, a memory bus for BLCR page walks), hot-spare
//!   nodes, a login node, an optional PVFS deployment, and the FTB agent
//!   tree.
//! * [`bufpool`] — the RDMA-based process migration engine of §III-B:
//!   checkpoint writes from all processes on the source node are
//!   aggregated into a user-level buffer pool (default 10 MB pool / 1 MB
//!   chunks); the target buffer manager pulls filled chunks with RDMA Read
//!   and reassembles per-process checkpoint images.
//! * [`runtime`] — the Job Manager / Node Launch Agent hierarchy and the
//!   four-phase migration protocol of §III-A (Job Stall → Job Migration →
//!   Restart → Resume), driven by `FTB_MIGRATE` / `FTB_MIGRATE_PIIC` /
//!   `FTB_RESTART` events over the FTB backplane.
//! * [`cr_baseline`] — MVAPICH2's coordinated Checkpoint/Restart framework
//!   (checkpoints to local ext3 or PVFS), the comparison baseline of §IV-C.
//! * [`calib`] — every timing constant, with its provenance.
//! * [`report`] — phase-decomposed reports matching the paper's figures.
//!
//! ## Quick start
//!
//! ```
//! use jobmig_core::prelude::*;
//!
//! let mut sim = simkit::Simulation::new(7);
//! let cluster = Cluster::build(&sim.handle(), ClusterSpec::small_test());
//! let wl = npbsim::Workload::new(npbsim::NpbApp::Lu, npbsim::NpbClass::A, 4);
//! let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2 /*ppn*/));
//! rt.control().migrate_after(simkit::dur::secs(2), MigrationRequest::new());
//! // drive until the application completes (the cluster hosts daemons
//! // that never exit — FTB agents, NLAs — so run to an event, not to
//! // quiescence)
//! sim.run_until_set(rt.completion(), simkit::SimTime::MAX).unwrap();
//! let report = rt.migration_reports().pop().expect("one migration");
//! assert!(report.total() < simkit::dur::secs(30));
//! ```

#![forbid(unsafe_code)]

pub mod bufpool;
pub mod calib;
pub mod cluster;
pub mod cr_baseline;
pub mod msgs;
pub mod report;
pub mod runtime;
pub mod spare;
pub mod wal;

/// Common imports for examples and tests.
pub mod prelude {
    pub use crate::bufpool::{PoolConfig, RestartMode, Transport};
    pub use crate::cluster::{Cluster, ClusterSpec};
    pub use crate::report::{
        CrReport, CrStoreKind, MigrationOutcome, MigrationReport, OutcomeCounts,
    };
    pub use crate::runtime::{
        AppBody, CheckpointRequest, Control, JobRuntime, JobSpec, MigrationRequest,
        MigrationTuning, Placement,
    };
    pub use crate::spare::{SparePool, SparePoolStats};
    pub use crate::wal::{CycleJournal, InFlight, WalEntry, WalRecord, WalVerifyError};
    pub use faultplane::{
        FaultPlan, FaultPlane, FaultSpec, MigPhase, NetSel, StoreFault, WalPoint,
    };
}
