//! Declarative protocol specification and explicit-state model checking
//! for the RDMA job-migration framework.
//!
//! The paper's four-phase protocol (Job Stall → Migration → Restart →
//! Resume, §III-A), the per-rank lifecycle, the NLA states
//! (`MIGRATION_READY` / `MIGRATION_SPARE` / `MIGRATION_INACTIVE`) and the
//! FTB agent's self-healing uplink are specified here as typed transition
//! tables ([`spec`]). Every state and event enum carries its trace names
//! once ([`Named`]); the rank, NLA and uplink machines share one row type
//! ([`Transition`]), one trait ([`Machine`]) and one lookup ([`next`]).
//! The live runtime drives its transitions through the same tables it
//! checks — `jobmig-core` and `ftb` step them with [`traced_step`], the
//! Job Manager steps the cycle with a [`CycleStepper`] — so the spec
//! cannot drift from the implementation.
//!
//! [`model`] composes the tables with `faultplane`'s fault alphabet, the
//! spare pool, and the retry budget into one product state machine and
//! exhaustively explores it, proving:
//!
//! * **deadlock-freedom** — every non-terminal state has a successor;
//! * **no-lost-rank** — no reachable state loses a rank (neither live
//!   nor recoverable from an image);
//! * **rollback-restores-source** — every abort leaves the job whole on
//!   the source with both NLAs restored;
//! * **complete-or-degrade** — every terminal state is a completed
//!   migration or a checkpoint-to-store degradation;
//! * **phase-consistency** — the phase machine never runs ahead of or
//!   behind the ranks' actual location;
//! * **resume-or-rollback** — a coordinator crash at any WAL append
//!   boundary resolves to exactly a standby takeover that resumes the
//!   in-flight phase or rolls the attempt back (and a committed cycle
//!   only rolls forward);
//! * **single-lease-holder** — the takeover's fencing epoch keeps a
//!   deposed coordinator's stale writes from ever creating a second
//!   lease holder for the job's spare;
//! * **no-lost-dirty-segment** — a live migration never completes while
//!   segments dirtied after the last pre-copy round are missing from the
//!   target's image.
//!
//! Violations come back as a minimal trace that lowers to a concrete
//! [`faultplane::FaultPlan`] for replay in the simulator.
//!
//! The root package's `tests/model_check.rs` runs the checker over the
//! shipped tables (a grid of spare-pool sizes and retry budgets, plus the
//! fleet grid below) as part of `cargo test`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! [`fleet`] lifts the check one level up: many jobs sharing one spare
//! pool. It proves **lease exclusivity** (no spare leased to two jobs at
//! once) and **pool conservation** (every completed or aborted cycle
//! returns exactly one node; a spare death is the sole, accounted
//! zero-return settle).
//!
//! [`confcheck`] closes the loop from the dynamic side: it refines live
//! simulator traces against these same tables (an event→edge table maps
//! trace events onto model transitions; an online observer rejects any
//! sequence the composed model cannot derive) and tracks which table
//! rows the test suite exercises (`COVERAGE_proto.json`).

pub mod confcheck;
pub mod fleet;
pub mod model;
mod search;
pub mod spec;

pub use confcheck::{observe_trace, ConformanceReport, Coverage, Nonconformance};
pub use fleet::{
    check_fleet, FleetConfig, FleetEvent, FleetJob, FleetMutation, FleetNode, FleetReport,
    FleetState, FleetViolation,
};
pub use model::{
    check, CheckConfig, CheckReport, CheckStats, Counterexample, EventLabel, Invariant, ModelState,
    RankSite, TargetNla, PIPELINE_RANKS,
};
pub use spec::{
    emit_transition, fault_edges, next, traced_step, Action, CycleEvent, CyclePhase, CycleStepper,
    CycleTransition, FaultEdge, Guard, GuardCtx, LinkEvent, LinkState, Machine, MigrationSpec,
    Named, NlaEvent, NlaState, RankEvent, RankLife, StepError, TraceLabels, Transition,
    CYCLE_LABELS,
};
