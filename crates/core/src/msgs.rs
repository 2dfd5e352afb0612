//! Protocol vocabulary: FTB event names, payloads, and NLA states —
//! exactly the message set of the paper's Figure 2.

use ibfabric::NodeId;

/// FTB namespace all migration-framework events use.
pub const MPI_SPACE: &str = "FTB.MPI.MVAPICH2";

/// Phase 1 kick-off: carries [`MigrateMsg`]. Received by every NLA and
/// every MPI process (C/R thread).
pub const FTB_MIGRATE: &str = "FTB_MIGRATE";

/// End of Phase 2 ("Process Image In-place Complete"), published by the
/// source NLA once all images have been migrated to the target.
pub const FTB_MIGRATE_PIIC: &str = "FTB_MIGRATE_PIIC";

/// Phase 3 broadcast from the Job Manager: carries [`RestartMsg`].
pub const FTB_RESTART: &str = "FTB_RESTART";

/// Marks the end of Phase 3 (all migrated processes restarted on the
/// target), published by the target NLA.
pub const FTB_RESTART_DONE: &str = "FTB_RESTART_DONE";

/// Per-rank suspension acknowledgement (Phase 1 coordination traffic; the
/// measured Job Stall ends when the Job Manager has seen every rank's).
pub const FTB_SUSPEND_ACK: &str = "FTB_SUSPEND_ACK";

/// Coordinated-checkpoint kick-off for the CR baseline.
pub const FTB_CHECKPOINT: &str = "FTB_CHECKPOINT";

/// Live-migration pre-copy round kick-off: carries [`PrecopyMsg`].
/// Received by the source and target NLAs; the ranks keep running and
/// never see it.
pub const FTB_PRECOPY: &str = "FTB_PRECOPY";

/// End of one pre-copy round, published by the target NLA once every
/// rank's full image (round 0) or dirty-segment delta (rounds 1..N) has
/// been pulled and merged: carries [`PrecopyDoneMsg`].
pub const FTB_PRECOPY_DONE: &str = "FTB_PRECOPY_DONE";

/// Payload of [`FTB_MIGRATE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateMsg {
    /// Health-deteriorating node whose processes move.
    pub source: NodeId,
    /// Hot-spare node receiving them.
    pub target: NodeId,
    /// Migration cycle sequence number (supports repeated migrations).
    pub cycle: u64,
    /// Coordinator fencing epoch the publish was issued under. After a
    /// standby takeover bumps the job's epoch, receivers drop stale
    /// publishes — a deposed ("zombie") coordinator cannot drive the
    /// protocol. `FtbEvent` wire size is payload-independent, so the
    /// extra field cannot perturb virtual-time schedules.
    pub epoch: u64,
}

/// Payload of [`FTB_MIGRATE_PIIC`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiicMsg {
    /// The completed cycle.
    pub cycle: u64,
    /// Ranks whose images now sit on the target.
    pub ranks: Vec<u32>,
    /// Stream bytes moved over RDMA (Table I accounting).
    pub bytes_moved: u64,
}

/// Payload of [`FTB_RESTART`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartMsg {
    /// The cycle being restarted.
    pub cycle: u64,
    /// Target node to restart on.
    pub target: NodeId,
    /// Ranks to restart there.
    pub ranks: Vec<u32>,
    /// Coordinator fencing epoch (see [`MigrateMsg::epoch`]).
    pub epoch: u64,
}

/// Payload of [`FTB_PRECOPY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecopyMsg {
    /// Health-deteriorating node whose processes will eventually move.
    pub source: NodeId,
    /// Hot-spare node pre-populating their images.
    pub target: NodeId,
    /// Migration cycle sequence number.
    pub cycle: u64,
    /// Round index: 0 streams the full image, 1..N stream deltas.
    pub round: u32,
    /// Coordinator fencing epoch (see [`MigrateMsg::epoch`]).
    pub epoch: u64,
}

/// Payload of [`FTB_PRECOPY_DONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecopyDoneMsg {
    /// The cycle the round belongs to.
    pub cycle: u64,
    /// The round that finished.
    pub round: u32,
    /// Whether every rank's image/delta landed and verified. `false`
    /// makes the convergence controller fall back to stop-and-copy.
    pub ok: bool,
    /// Wire bytes this round moved (full image or delta payload).
    pub bytes: u64,
}

/// Payload of [`FTB_CHECKPOINT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMsg {
    /// Checkpoint cycle number.
    pub cycle: u64,
    /// Storage target for the dump.
    pub store: crate::report::CrStoreKind,
}

/// Payload of [`FTB_SUSPEND_ACK`] (per-rank Phase 1 acknowledgement; the
/// Job Stall phase lasts until all of them reach the Job Manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspendAckMsg {
    /// The cycle being acknowledged.
    pub cycle: u64,
    /// Acknowledging rank.
    pub rank: u32,
}

/// Node Launch Agent states, as named in §III-A. The canonical enum now
/// lives in `protoverify` alongside the NLA transition table the runtime
/// drives its state changes through (see `protoverify::spec::NLA_TABLE`);
/// re-exported here so existing `msgs::NlaState` paths keep working.
pub use protoverify::NlaState;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nla_state_names_match_paper() {
        assert_eq!(NlaState::MigrationReady.to_string(), "MIGRATION_READY");
        assert_eq!(NlaState::MigrationSpare.to_string(), "MIGRATION_SPARE");
        assert_eq!(
            NlaState::MigrationInactive.to_string(),
            "MIGRATION_INACTIVE"
        );
    }
}
