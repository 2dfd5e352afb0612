//! `fleetsched`: multi-job fleet orchestrator with spare-pool management
//! and a migration policy engine.
//!
//! The single-job layers below (`jobmig-core`'s Job Manager, `healthmon`,
//! `ftb`) reproduce the paper's per-job migration protocol; this crate
//! scales that machinery out to a *fleet*: many concurrent MPI jobs on
//! one simulated InfiniBand cluster, sharing one hot-spare pool, with a
//! pluggable policy deciding per health alert whether to migrate,
//! checkpoint, or wait.
//!
//! Three pieces:
//!
//! * [`policy`] — the policy engine: the [`FleetPolicy`] trait and the
//!   four built-ins ([`PeriodicCr`], [`Reactive`], [`Proactive`],
//!   [`Utility`]) spanning the reactive-vs-proactive design space of the
//!   fault-tolerance literature.
//! * [`orchestrator`] — the fleet runtime: slot management, fleet-wide
//!   FTB health subscription, admission control over the shared spare
//!   pool (queued migration orders with deadlines, degrade-to-checkpoint
//!   on exhaustion), scheduled node deaths with checkpoint-restart
//!   recovery, and post-repair reclamation of vacated nodes back into
//!   the pool.
//! * [`soak`] — the seeded long-horizon soak driver comparing every
//!   policy against the *same* failure schedule, rendering the
//!   byte-deterministic `BENCH_fleet.json`.
//!
//! The spare-pool lifecycle the orchestrator drives (lease → consume →
//! vacate → reclaim, never two jobs on one spare) is model-checked
//! exhaustively in `protoverify::fleet`.

#![forbid(unsafe_code)]

pub mod orchestrator;
pub mod policy;
pub mod soak;

pub use faultplane::{DoomPlan, NodeDoom};
pub use orchestrator::{
    run_policy, run_policy_observed, run_policy_with_plan, FleetConfig, PolicyStats,
};
pub use policy::{
    AlertLevel, FleetAlert, FleetPolicy, FleetView, PeriodicCr, PolicyAction, PolicyKind,
    Proactive, Reactive, Utility,
};
pub use soak::{run_soak, SoakReport};
