//! # rdma-jobmig — facade crate
//!
//! Re-exports the whole workspace: the simulation kernel, the InfiniBand
//! fabric, storage and BLCR models, the FTB backplane, the mini-MPI
//! runtime, NPB workloads, health monitoring, and the job migration
//! framework itself. See `README.md` for the tour and `DESIGN.md` for the
//! architecture.

#![forbid(unsafe_code)]

pub use blcrsim;
pub use faultplane;
pub use fleetsched;
pub use ftb;
pub use healthmon;
pub use ibfabric;
pub use jobmig_core as core;
pub use livemig;
pub use mpisim;
pub use npbsim;
pub use simkit;
pub use storesim;
pub use telemetry;

/// One-line import for examples, tests, and downstream experiments:
/// `use rdma_jobmig::prelude::*;` brings in the cluster builder, the job
/// runtime and its typed control plane, the report types, workload
/// definitions, and the telemetry surface.
pub mod prelude {
    pub use faultplane::{FaultPlan, FaultPlane, FaultSpec, MigPhase, NetSel, StoreFault};
    pub use fleetsched::{FleetConfig, FleetPolicy, PolicyKind, SoakReport};
    pub use jobmig_core::bufpool::{PoolConfig, RestartMode, Transport};
    pub use jobmig_core::cluster::{Cluster, ClusterSpec};
    pub use jobmig_core::report::{
        CrReport, CrStoreKind, MigrationOutcome, MigrationReport, OutcomeCounts,
    };
    pub use jobmig_core::runtime::{
        AppBody, CheckpointRequest, Control, JobRuntime, JobSpec, MigrationRequest, MigrationTuning,
    };
    pub use livemig::{ConvergencePolicy, Decision, LiveConfig, LivePolicyKind};
    pub use npbsim::{NpbApp, NpbClass, Workload};
    pub use simkit::{dur, SimTime, Simulation};
    pub use telemetry::{chrome_trace, write_chrome_trace, Registry, Timeline};
}
