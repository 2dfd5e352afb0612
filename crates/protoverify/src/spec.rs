//! The declarative protocol specification: typed states, events, guards
//! and actions for every state machine the migration framework runs.
//!
//! These tables are the *single source of truth* for protocol structure.
//! Each state and event enum is declared once together with its trace
//! names ([`Named`]); parsing a name back is derived from that one list.
//! The rank lifecycle, the NLA and the FTB uplink are [`Machine`]s: one
//! [`Transition`] row type, one const table each and one lookup
//! ([`next`]). The runtime (`jobmig-core`) and the FTB agent (`ftb`) step
//! them through [`traced_step`], which traps a missing row and emits the
//! `proto/*_transition` instant; the migration cycle's guarded rows live
//! in [`MigrationSpec`], and its stepper's transitions go out through the
//! same [`emit_transition`]. The model checker in [`crate::model`]
//! explores the same tables offline, and the conformance observer in
//! [`crate::confcheck`] replays traces through them. A table edit
//! therefore changes the running system, the checked model and the
//! observer together — they cannot drift apart.

use faultplane::{FaultKind, MigPhase};
use simkit::Ctx;
use std::fmt;

// ---------------------------------------------------------------------------
// Names, rows and the traced step shared by every machine
// ---------------------------------------------------------------------------

/// A state or event enum with one stable trace name per variant.
pub trait Named: Copy + Eq + fmt::Debug + 'static {
    /// Every variant, in declaration order.
    const ALL: &'static [Self];

    /// The variant's stable trace name.
    fn name(&self) -> &'static str;

    /// The variant whose [`Named::name`] is `s`.
    fn from_name(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|v| v.name() == s)
    }
}

/// Declare a state or event enum together with its trace names — the one
/// name list behind [`Named`] and `Display`.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident { $($(#[$vmeta:meta])* $v:ident => $name:literal,)+ }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $ty {
            $($(#[$vmeta])* $v,)+
        }

        impl Named for $ty {
            const ALL: &'static [Self] = &[$($ty::$v),+];

            fn name(&self) -> &'static str {
                match self {
                    $($ty::$v => $name,)+
                }
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

/// One row of a machine's transition table.
#[derive(Debug, Clone, Copy)]
pub struct Transition<S, E> {
    /// State the machine is in.
    pub from: S,
    /// Event applied to it.
    pub on: E,
    /// State it moves to.
    pub to: S,
}

const fn row<S, E>(from: S, on: E, to: S) -> Transition<S, E> {
    Transition { from, on, to }
}

/// How a machine's transitions appear in the trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceLabels {
    /// Machine name: the coverage-table prefix and the observer's
    /// nonconformance label (`"rank"`).
    pub machine: &'static str,
    /// Name of the `proto` instant (`"rank_transition"`).
    pub instant: &'static str,
    /// Argument key of the instance id (`"rank"`, `"node"`); `None` for
    /// the job-wide cycle machine.
    pub scope: Option<&'static str>,
    /// Argument key of the event (`"event"`; the uplink's is `"on"`).
    pub event: &'static str,
}

/// A state machine stepped through a const table of [`Transition`] rows.
pub trait Machine: Named {
    /// The events that move it.
    type Event: Named;
    /// Its transition table.
    const TABLE: &'static [Transition<Self, Self::Event>];
    /// How its transitions appear in the trace.
    const LABELS: TraceLabels;
}

/// The state `cur` moves to on `ev`, or `None` if `M`'s table has no such
/// row (a protocol violation at a live call site).
pub fn next<M: Machine>(cur: M, ev: M::Event) -> Option<M> {
    M::TABLE
        .iter()
        .find(|t| t.from == cur && t.on == ev)
        .map(|t| t.to)
}

/// Step `cur` on `ev` through `M`'s table and emit the transition, where
/// `id` is the rank or node the machine belongs to. A missing row means
/// the caller fired an event the spec forbids in this state — a protocol
/// bug, trapped loudly (the model checker proves the shipped tables, so
/// this fires only if a caller drifts from them).
pub fn traced_step<M: Machine>(ctx: &Ctx, id: u64, cur: M, ev: M::Event) -> M {
    let labels = &M::LABELS;
    let Some(to) = next(cur, ev) else {
        panic!(
            "{} protocol violation: {} {id} got {} while {}",
            labels.machine,
            labels.scope.unwrap_or("job"),
            ev.name(),
            cur.name()
        );
    };
    emit_transition(ctx, labels, Some(id), cur, ev, to);
    to
}

/// Emit one `proto/<machine>_transition` instant: the instance id (when
/// the machine has one), then `from`, the event and `to` by name. The
/// arguments are built only when tracing is on.
pub fn emit_transition<S: Named, E: Named>(
    ctx: &Ctx,
    labels: &TraceLabels,
    id: Option<u64>,
    from: S,
    on: E,
    to: S,
) {
    ctx.instant_with("proto", labels.instant, || {
        let scope = labels.scope.zip(id).map(|(key, id)| (key, id.into()));
        let edge = [
            ("from", from.name().into()),
            (labels.event, on.name().into()),
            ("to", to.name().into()),
        ];
        scope.into_iter().chain(edge).collect()
    });
}

// ---------------------------------------------------------------------------
// NLA state machine (paper §III-A)
// ---------------------------------------------------------------------------

named_enum! {
    /// Node Launch Agent states, as named in §III-A.
    pub enum NlaState {
        /// Active compute node participating in the job.
        MigrationReady => "MIGRATION_READY",
        /// Hot spare, standing by to receive processes.
        MigrationSpare => "MIGRATION_SPARE",
        /// Former source node after its processes have left.
        MigrationInactive => "MIGRATION_INACTIVE",
    }
}

named_enum! {
    /// Events that move an NLA between its states.
    pub enum NlaEvent {
        /// Source NLA published PIIC: all local images have left (Phase 2).
        SourceDrained => "source_drained",
        /// Target NLA restarted every migrated process (end of Phase 3).
        RestartComplete => "restart_complete",
        /// Cycle abort: the source goes back to hosting its ranks.
        RollbackSource => "rollback_source",
        /// Cycle abort: a surviving target goes back to being a clean spare.
        RollbackTarget => "rollback_target",
        /// A vacated (inactive) node leased back out of the shared spare
        /// pool re-enters service as a clean spare.
        Reprovision => "reprovision",
    }
}

/// The shipped NLA transition table.
///
/// `RollbackSource` is legal from both `MigrationReady` (abort before the
/// source drained) and `MigrationInactive` (abort after PIIC);
/// `RollbackTarget` from both `MigrationSpare` (abort before Phase 3
/// completed) and `MigrationReady` (abort after the target went ready).
pub const NLA_TABLE: &[Transition<NlaState, NlaEvent>] = {
    use NlaEvent::*;
    use NlaState::*;
    &[
        row(MigrationReady, SourceDrained, MigrationInactive),
        row(MigrationSpare, RestartComplete, MigrationReady),
        row(MigrationInactive, RollbackSource, MigrationReady),
        row(MigrationReady, RollbackSource, MigrationReady),
        row(MigrationReady, RollbackTarget, MigrationSpare),
        row(MigrationSpare, RollbackTarget, MigrationSpare),
        // Fleet reclamation: an inactive node returned to the shared pool
        // and leased back out becomes a clean spare again.
        row(MigrationInactive, Reprovision, MigrationSpare),
    ]
};

impl Machine for NlaState {
    type Event = NlaEvent;
    const TABLE: &'static [Transition<Self, NlaEvent>] = NLA_TABLE;
    const LABELS: TraceLabels = TraceLabels {
        machine: "nla",
        instant: "nla_transition",
        scope: Some("node"),
        event: "event",
    };
}

// ---------------------------------------------------------------------------
// Per-rank lifecycle
// ---------------------------------------------------------------------------

named_enum! {
    /// Lifecycle of one MPI rank through a migration cycle.
    pub enum RankLife {
        /// Application thread running normally.
        Running => "running",
        /// Suspended and drained (entered the cycle, Phase 1 done locally).
        Suspended => "suspended",
        /// Source rank: C/R metadata captured and the app incarnation
        /// killed; the rank exists only as captured state / an in-flight
        /// image.
        Captured => "captured",
        /// Restored from an image (on the target in Phase 3, or back on the
        /// source by an abort's resurrection) but not yet resumed.
        Restarted => "restarted",
    }
}

named_enum! {
    /// Events that move a rank through its lifecycle.
    pub enum RankEvent {
        /// The C/R thread suspended and drained the rank (Phase 1).
        Suspend => "suspend",
        /// Source side: metadata captured, app incarnation killed (Phase 2).
        Capture => "capture",
        /// Restored from its image on the target (Phase 3).
        Restart => "restart",
        /// Abort path: resurrected on the source from the captured metadata.
        Resurrect => "resurrect",
        /// Phase 4: migration barrier passed, endpoints rebuilt, app running.
        Resume => "resume",
    }
}

/// The shipped rank lifecycle table. Non-source ranks travel
/// `Running → Suspended → Running`; source ranks travel
/// `Running → Suspended → Captured → Restarted → Running`, where the
/// `Captured → Restarted` edge is either a Phase 3 restart on the target
/// or an abort's resurrection on the source (`Resurrect`).
pub const RANK_TABLE: &[Transition<RankLife, RankEvent>] = {
    use RankEvent::*;
    use RankLife::*;
    &[
        row(Running, Suspend, Suspended),
        row(Suspended, Capture, Captured),
        row(Captured, Restart, Restarted),
        row(Captured, Resurrect, Restarted),
        row(Restarted, Resume, Running),
        row(Suspended, Resume, Running),
        // An abort may resurrect a rank that Phase 3 had already restarted
        // on the (now abandoned) target: the host moves back to the source
        // but the lifecycle stage is unchanged.
        row(Restarted, Resurrect, Restarted),
        // The Phase 4 barrier is tolerant: a rank that resumed before the
        // cycle aborted re-enters Phase 4 on the retry, so Resume is
        // idempotent on a running rank.
        row(Running, Resume, Running),
    ]
};

impl Machine for RankLife {
    type Event = RankEvent;
    const TABLE: &'static [Transition<Self, RankEvent>] = RANK_TABLE;
    const LABELS: TraceLabels = TraceLabels {
        machine: "rank",
        instant: "rank_transition",
        scope: Some("rank"),
        event: "event",
    };
}

// ---------------------------------------------------------------------------
// FTB agent parent-link machine
// ---------------------------------------------------------------------------

named_enum! {
    /// The state of an FTB agent's uplink into the agent tree.
    pub enum LinkState {
        /// Tree root: no parent, nothing to lose.
        Root => "Root",
        /// Attached to a parent; no fallback ancestor known.
        Attached => "Attached",
        /// Attached, and the grandparent is known as a fallback.
        AttachedWithFallback => "AttachedWithFallback",
    }
}

named_enum! {
    /// Events on the uplink.
    pub enum LinkEvent {
        /// `AttachAck` arrived carrying a grandparent.
        AckGrandparent => "AckGrandparent",
        /// `AttachAck` arrived with no grandparent (parent is the root).
        AckNoGrandparent => "AckNoGrandparent",
        /// A send to the parent failed (dead parent or transient link
        /// error).
        ParentLost => "ParentLost",
    }
}

/// The shipped uplink table. The self-healing rule it encodes: on a
/// failed parent send, adopt the grandparent when one is known (consuming
/// the fallback), otherwise *keep* the current parent — a transient link
/// error must never orphan the subtree permanently. The root has no rows:
/// it reacts to nothing.
pub const LINK_TABLE: &[Transition<LinkState, LinkEvent>] = {
    use LinkEvent::*;
    use LinkState::*;
    &[
        row(Attached, AckGrandparent, AttachedWithFallback),
        row(AttachedWithFallback, AckGrandparent, AttachedWithFallback),
        row(Attached, AckNoGrandparent, Attached),
        row(AttachedWithFallback, AckNoGrandparent, Attached),
        // Fallback known: the grandparent becomes the parent (fallback
        // consumed until the next AttachAck repopulates it).
        row(AttachedWithFallback, ParentLost, Attached),
        // No fallback: keep the parent (flap tolerance).
        row(Attached, ParentLost, Attached),
    ]
};

impl Machine for LinkState {
    type Event = LinkEvent;
    const TABLE: &'static [Transition<Self, LinkEvent>] = LINK_TABLE;
    const LABELS: TraceLabels = TraceLabels {
        machine: "link",
        instant: "link_transition",
        scope: Some("node"),
        event: "on",
    };
}

// ---------------------------------------------------------------------------
// Migration-cycle phase machine (paper §III-A, hardened by recovery)
// ---------------------------------------------------------------------------

named_enum! {
    /// The phase of one migration trigger's lifecycle, from the Job
    /// Manager's point of view. `Stall`..`Resume` are the paper's four
    /// phases; the rest are the recovery superstructure around them.
    pub enum CyclePhase {
        /// Trigger accepted, no attempt started yet.
        Idle => "idle",
        /// Live-migration prelude: iterative pre-copy rounds stream the
        /// image (full, then dirty deltas) to the spare while every rank
        /// keeps running. Ends with a short `Cutover` into `Stall`, or a
        /// `FallbackStopCopy` into the same `Stall` when the dirty rate
        /// never converges.
        Precopy => "precopy",
        /// Phase 1 — Job Stall.
        Stall => "stall",
        /// Phase 2 — Job Migration.
        Migrate => "migrate",
        /// Phase 3 — Restart on the spare.
        Restart => "restart",
        /// Phase 4 — Resume.
        Resume => "resume",
        /// An attempt failed; the job has been rolled back to the source.
        Aborted => "aborted",
        /// Terminal: the migration completed.
        Complete => "complete",
        /// Terminal: degraded to a coordinated checkpoint (CR baseline).
        Degraded => "degraded",
    }
}

impl CyclePhase {
    /// Whether this phase ends the trigger's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(self, CyclePhase::Complete | CyclePhase::Degraded)
    }

    /// The paper phase this corresponds to, when it is one of the four.
    pub fn mig_phase(&self) -> Option<MigPhase> {
        match self {
            CyclePhase::Precopy => Some(MigPhase::Precopy),
            CyclePhase::Stall => Some(MigPhase::Stall),
            CyclePhase::Migrate => Some(MigPhase::Migrate),
            CyclePhase::Restart => Some(MigPhase::Restart),
            CyclePhase::Resume => Some(MigPhase::Resume),
            _ => None,
        }
    }
}

/// How the migration cycle's transitions appear in the trace. The cycle
/// is job-wide, so its instants carry no instance id.
pub const CYCLE_LABELS: TraceLabels = TraceLabels {
    machine: "cycle",
    instant: "cycle_transition",
    scope: None,
    event: "event",
};

named_enum! {
    /// Events that move a trigger between cycle phases.
    pub enum CycleEvent {
        /// First attempt begins (consumes a spare).
        Trigger => "trigger",
        /// First attempt begins in live mode (consumes a spare): the cycle
        /// enters [`CyclePhase::Precopy`] instead of stalling the job.
        LiveTrigger => "live_trigger",
        /// One iterative pre-copy round landed on the target (round 0 is
        /// the full image; later rounds are dirty-segment deltas). The job
        /// keeps running throughout.
        PrecopyRound => "precopy_round",
        /// The convergence controller decided the residual dirty set is
        /// small enough: stop the job and finish with a short stop-and-copy
        /// round.
        Cutover => "cutover",
        /// The convergence controller gave up (dirty rate ≥ lane bandwidth,
        /// round budget exhausted, or a round failed): discard the
        /// pre-copied state and run a classic full stop-and-copy attempt.
        FallbackStopCopy => "fallback_stopcopy",
        /// Phase 1 completed: every rank suspended and drained.
        StallDone => "stall_done",
        /// Phase 2 completed: PIIC published, all images on the target.
        MigrateDone => "migrate_done",
        /// Phase 3 completed: every migrated process restarted.
        RestartDone => "restart_done",
        /// Phase 4 completed: barrier passed, endpoints rebuilt, job running.
        ResumeDone => "resume_done",
        /// A phase deadline expired; the attempt is rolled back.
        PhaseTimeout => "phase_timeout",
        /// The target spare died mid-attempt; the attempt is rolled back.
        SpareCrash => "spare_crash",
        /// A new attempt begins on another spare (consumes it).
        Retry => "retry",
        /// No recovery path left: checkpoint the job to storage instead.
        Degrade => "degrade",
        /// Pipelined refinement: one more rank's image finished assembly on
        /// the target (its `image_ready` event fired). Model-level
        /// micro-event; not a row in the shipped phase table.
        RankStaged => "rank_staged",
        /// Pipelined refinement: one more *staged* rank restarted on the
        /// target, possibly while other ranks are still streaming.
        RankRestarted => "rank_restarted",
        /// The Job Manager process died at a WAL append boundary.
        /// Model-level micro-event (not a row in the shipped phase table):
        /// the cycle freezes until the standby's takeover edge fires.
        CoordCrash => "coord_crash",
        /// Standby takeover, resume-from-point branch: the journal tail
        /// shows the data path can still finish, so the standby re-drives
        /// the in-flight phase under a bumped fencing epoch.
        TakeoverResume => "takeover_resume",
        /// Standby takeover, rollback branch: the journal tail is
        /// pre-commit and cannot (or need not) be finished, so the standby
        /// aborts the attempt and settles the spare lease under the bumped
        /// epoch.
        TakeoverRollback => "takeover_rollback",
        /// The deposed ("zombie") coordinator's last write reaches the
        /// spare pool / FTB after takeover. With fencing it is rejected on
        /// its stale epoch; without fencing it would double-commit a spare.
        ZombieSettle => "zombie_settle",
    }
}

/// A transition guard, evaluated against the live recovery budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// Unconditional.
    Always,
    /// At least one spare is available *and* the attempt budget has room.
    RetryPath,
    /// The negation of [`Guard::RetryPath`]: no way to run an attempt.
    NoRecoveryPath,
}

/// The live values guards are evaluated against.
#[derive(Debug, Clone, Copy)]
pub struct GuardCtx {
    /// Spare nodes currently in the pool.
    pub spares_left: u32,
    /// Attempts remaining in the retry budget.
    pub attempts_left: u32,
}

impl Guard {
    /// Evaluate against `g`.
    pub fn eval(&self, g: &GuardCtx) -> bool {
        let retry_path = g.spares_left > 0 && g.attempts_left > 0;
        match self {
            Guard::Always => true,
            Guard::RetryPath => retry_path,
            Guard::NoRecoveryPath => !retry_path,
        }
    }
}

named_enum! {
    /// Declarative effects of a cycle transition. The model checker
    /// applies them to its abstract state; the runtime performs the
    /// corresponding concrete operations (and the conformance assertions
    /// in `jobmig-core` keep the two aligned).
    pub enum Action {
        /// Take a spare from the pool as the attempt's target.
        ConsumeSpare => "consume_spare",
        /// Return a surviving spare to the pool after an aborted attempt.
        ReturnSpare => "return_spare",
        /// The target spare died; it never returns to the pool.
        SpareLost => "spare_lost",
        /// Every rank suspended and drained on the source.
        SuspendRanks => "suspend_ranks",
        /// Source images streamed to the target; source NLA drained.
        StreamImages => "stream_images",
        /// Ranks restarted from their images on the target; target NLA
        /// ready.
        RestartRanks => "restart_ranks",
        /// Ranks pass the migration barrier and run on their current host.
        ResumeRanks => "resume_ranks",
        /// Roll every rank back to a running state on the source and
        /// restore both NLAs.
        Rollback => "rollback",
        /// Degrade: coordinated checkpoint of the (running) job to storage.
        CheckpointToStore => "checkpoint_to_store",
    }
}

/// One row of the migration-cycle table.
#[derive(Debug, Clone)]
pub struct CycleTransition {
    /// Phase the trigger is in.
    pub from: CyclePhase,
    /// Event applied.
    pub on: CycleEvent,
    /// Guard that must hold.
    pub guard: Guard,
    /// Phase it moves to.
    pub to: CyclePhase,
    /// Declarative effects.
    pub actions: Vec<Action>,
}

/// The migration-cycle specification: an owned transition table, so tests
/// can mutate a copy ([`MigrationSpec::without`] /
/// [`MigrationSpec::with_transition`]) and feed it back to the checker.
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// The transition rows, in priority order (first match wins).
    pub transitions: Vec<CycleTransition>,
}

impl Default for MigrationSpec {
    fn default() -> Self {
        Self::shipped()
    }
}

impl MigrationSpec {
    /// The table the runtime ships with.
    pub fn shipped() -> Self {
        use Action::*;
        use CycleEvent as E;
        use CyclePhase as P;
        let t = |from, on, guard, to, actions: &[Action]| CycleTransition {
            from,
            on,
            guard,
            to,
            actions: actions.to_vec(),
        };
        let mut rows = vec![
            t(
                P::Idle,
                E::Trigger,
                Guard::RetryPath,
                P::Stall,
                &[ConsumeSpare],
            ),
            t(
                P::Idle,
                E::Degrade,
                Guard::NoRecoveryPath,
                P::Degraded,
                &[CheckpointToStore],
            ),
            // Live mode: the first attempt pre-copies while the job runs.
            // Retries after an abort always use the classic Retry → Stall
            // edge — by then the pre-copied state has been discarded.
            t(
                P::Idle,
                E::LiveTrigger,
                Guard::RetryPath,
                P::Precopy,
                &[ConsumeSpare],
            ),
            t(P::Precopy, E::PrecopyRound, Guard::Always, P::Precopy, &[]),
            t(P::Precopy, E::Cutover, Guard::Always, P::Stall, &[]),
            t(
                P::Precopy,
                E::FallbackStopCopy,
                Guard::Always,
                P::Stall,
                &[],
            ),
            t(
                P::Stall,
                E::StallDone,
                Guard::Always,
                P::Migrate,
                &[SuspendRanks],
            ),
            t(
                P::Migrate,
                E::MigrateDone,
                Guard::Always,
                P::Restart,
                &[StreamImages],
            ),
            t(
                P::Restart,
                E::RestartDone,
                Guard::Always,
                P::Resume,
                &[RestartRanks],
            ),
            t(
                P::Resume,
                E::ResumeDone,
                Guard::Always,
                P::Complete,
                &[ResumeRanks],
            ),
            t(
                P::Aborted,
                E::Retry,
                Guard::RetryPath,
                P::Stall,
                &[ConsumeSpare],
            ),
            t(
                P::Aborted,
                E::Degrade,
                Guard::NoRecoveryPath,
                P::Degraded,
                &[CheckpointToStore],
            ),
        ];
        for ph in [P::Stall, P::Migrate, P::Restart, P::Resume] {
            rows.push(t(
                ph,
                E::PhaseTimeout,
                Guard::Always,
                P::Aborted,
                &[Rollback, ReturnSpare],
            ));
            rows.push(t(
                ph,
                E::SpareCrash,
                Guard::Always,
                P::Aborted,
                &[SpareLost, Rollback],
            ));
        }
        // Precopy has no PhaseTimeout row on purpose: data-path faults in
        // a pre-copy round cost nothing but streamed bytes (the job never
        // stopped), so they degrade to `FallbackStopCopy` instead of
        // aborting the attempt. Only the spare dying aborts from here.
        rows.push(t(
            P::Precopy,
            E::SpareCrash,
            Guard::Always,
            P::Aborted,
            &[SpareLost, Rollback],
        ));
        MigrationSpec { transitions: rows }
    }

    /// The transition `(from, on)` resolves to under `g`, if any.
    pub fn next(&self, from: CyclePhase, on: CycleEvent, g: &GuardCtx) -> Option<&CycleTransition> {
        self.transitions
            .iter()
            .find(|t| t.from == from && t.on == on && t.guard.eval(g))
    }

    /// Whether a `(from, on)` row exists at all, guard notwithstanding.
    pub fn has_row(&self, from: CyclePhase, on: CycleEvent) -> bool {
        self.transitions
            .iter()
            .any(|t| t.from == from && t.on == on)
    }

    /// A copy with every `(from, on)` row removed (spec mutation for
    /// negative tests).
    pub fn without(mut self, from: CyclePhase, on: CycleEvent) -> Self {
        self.transitions.retain(|t| !(t.from == from && t.on == on));
        self
    }

    /// A copy with `t` prepended (it takes priority over shipped rows).
    pub fn with_transition(mut self, t: CycleTransition) -> Self {
        self.transitions.insert(0, t);
        self
    }
}

/// Why a [`CycleStepper::step`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// No `(from, on)` row exists: the driver fired an event the spec
    /// does not allow in this phase — a protocol bug.
    NoTransition {
        /// Phase the stepper was in.
        from: CyclePhase,
        /// Event that was fired.
        on: CycleEvent,
    },
    /// Rows exist but every guard rejected: normal control flow (e.g. a
    /// `Retry` with the budget exhausted).
    GuardRejected {
        /// Phase the stepper was in.
        from: CyclePhase,
        /// Event that was fired.
        on: CycleEvent,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::NoTransition { from, on } => {
                write!(f, "no transition from {from} on {on}")
            }
            StepError::GuardRejected { from, on } => {
                write!(f, "guard rejected {on} from {from}")
            }
        }
    }
}

/// Drives one trigger's lifecycle through a [`MigrationSpec`] at
/// execution time. The Job Manager owns one per trigger and steps it at
/// every phase boundary; a [`StepError::NoTransition`] means the runtime
/// and the spec disagree — the caller traps it.
#[derive(Debug)]
pub struct CycleStepper<'a> {
    spec: &'a MigrationSpec,
    phase: CyclePhase,
}

impl<'a> CycleStepper<'a> {
    /// A stepper at [`CyclePhase::Idle`].
    pub fn new(spec: &'a MigrationSpec) -> Self {
        CycleStepper {
            spec,
            phase: CyclePhase::Idle,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> CyclePhase {
        self.phase
    }

    /// Apply `on` under `g`; advances and returns the matched transition.
    pub fn step(&mut self, on: CycleEvent, g: &GuardCtx) -> Result<&'a CycleTransition, StepError> {
        match self.spec.next(self.phase, on, g) {
            Some(t) => {
                self.phase = t.to;
                Ok(t)
            }
            None if self.spec.has_row(self.phase, on) => Err(StepError::GuardRejected {
                from: self.phase,
                on,
            }),
            None => Err(StepError::NoTransition {
                from: self.phase,
                on,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault edges
// ---------------------------------------------------------------------------

/// A fault kind that can strike a protocol phase, and the cycle event it
/// manifests as. This is the bridge between `faultplane`'s fault alphabet
/// and the phase machine: the model checker turns each edge into a
/// labelled transition, and [`crate::model::Counterexample::to_fault_plan`]
/// maps the labels back to concrete [`faultplane::FaultSpec`]s.
#[derive(Debug, Clone, Copy)]
pub struct FaultEdge {
    /// The paper phase the fault strikes.
    pub phase: MigPhase,
    /// The fault kind.
    pub kind: FaultKind,
    /// How the Job Manager observes it: a phase deadline expiring
    /// ([`CycleEvent::PhaseTimeout`]) or the spare dying
    /// ([`CycleEvent::SpareCrash`]).
    pub effect: CycleEvent,
}

/// Every fault kind, at every phase it can reach, with its observable
/// effect. Derived from the injection points the layers expose:
/// GigE faults starve the FTB fan-in of any phase that waits on events;
/// RDMA/BLCR/store faults can only strike Phase 2's image streaming (a
/// chunk that cannot be obtained or staged stalls the pool until the
/// phase deadline); a spare crash is polled at every phase boundary.
pub fn fault_edges() -> Vec<FaultEdge> {
    let mut edges = Vec::new();
    let timeout_kinds: &[(MigPhase, &[FaultKind])] = &[
        (MigPhase::Stall, &[FaultKind::NetDrop, FaultKind::LinkFlap]),
        (
            MigPhase::Migrate,
            &[
                FaultKind::NetDrop,
                FaultKind::LinkFlap,
                FaultKind::RdmaCqError,
                FaultKind::RdmaCorrupt,
                FaultKind::BlcrWriteError,
                FaultKind::StoreWrite,
            ],
        ),
        (
            MigPhase::Restart,
            &[FaultKind::NetDrop, FaultKind::LinkFlap],
        ),
    ];
    for &(phase, kinds) in timeout_kinds {
        for &kind in kinds {
            edges.push(FaultEdge {
                phase,
                kind,
                effect: CycleEvent::PhaseTimeout,
            });
        }
    }
    for phase in MigPhase::ALL {
        edges.push(FaultEdge {
            phase,
            kind: FaultKind::SpareCrash,
            effect: CycleEvent::SpareCrash,
        });
    }
    // Live pre-copy rounds: a data-path fault mid-round loses only
    // streamed bytes (the job never stopped), so the controller falls
    // back to classic stop-and-copy instead of aborting. The spare dying
    // is the one fault that aborts from Precopy.
    for kind in [
        FaultKind::NetDrop,
        FaultKind::LinkFlap,
        FaultKind::RdmaCqError,
        FaultKind::RdmaCorrupt,
        FaultKind::BlcrWriteError,
    ] {
        edges.push(FaultEdge {
            phase: MigPhase::Precopy,
            kind,
            effect: CycleEvent::FallbackStopCopy,
        });
    }
    edges.push(FaultEdge {
        phase: MigPhase::Precopy,
        kind: FaultKind::SpareCrash,
        effect: CycleEvent::SpareCrash,
    });
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nla_names_match_paper() {
        assert_eq!(NlaState::MigrationReady.to_string(), "MIGRATION_READY");
        assert_eq!(NlaState::MigrationSpare.to_string(), "MIGRATION_SPARE");
        assert_eq!(
            NlaState::MigrationInactive.to_string(),
            "MIGRATION_INACTIVE"
        );
    }

    fn names_round_trip<T: Named>() {
        for &v in T::ALL {
            assert_eq!(T::from_name(v.name()), Some(v));
        }
        let names: std::collections::BTreeSet<_> = T::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), T::ALL.len(), "duplicate name in {:?}", T::ALL);
    }

    #[test]
    fn every_name_parses_back_and_is_unique_within_its_enum() {
        names_round_trip::<NlaState>();
        names_round_trip::<NlaEvent>();
        names_round_trip::<RankLife>();
        names_round_trip::<RankEvent>();
        names_round_trip::<LinkState>();
        names_round_trip::<LinkEvent>();
        names_round_trip::<CyclePhase>();
        names_round_trip::<CycleEvent>();
        names_round_trip::<Action>();
        assert_eq!(NlaState::from_name("migration_ready"), None);
        assert_eq!(CyclePhase::from_name(""), None);
    }

    #[test]
    fn nla_table_covers_runtime_call_sites() {
        use NlaEvent::*;
        use NlaState::*;
        assert_eq!(next(MigrationReady, SourceDrained), Some(MigrationInactive));
        assert_eq!(next(MigrationSpare, RestartComplete), Some(MigrationReady));
        assert_eq!(
            next(MigrationInactive, RollbackSource),
            Some(MigrationReady)
        );
        assert_eq!(next(MigrationReady, RollbackSource), Some(MigrationReady));
        assert_eq!(next(MigrationReady, RollbackTarget), Some(MigrationSpare));
        assert_eq!(next(MigrationSpare, RollbackTarget), Some(MigrationSpare));
        // A spare never drains; an inactive node never completes a restart.
        assert_eq!(next(MigrationSpare, SourceDrained), None);
        assert_eq!(next(MigrationInactive, RestartComplete), None);
        // Reprovisioning is only legal from the inactive (vacated) state.
        assert_eq!(next(MigrationInactive, Reprovision), Some(MigrationSpare));
        assert_eq!(next(MigrationReady, Reprovision), None);
        assert_eq!(next(MigrationSpare, Reprovision), None);
    }

    #[test]
    fn rank_paths_close() {
        use RankEvent::*;
        use RankLife::*;
        // Source rank, successful migration.
        let mut s = Running;
        for ev in [Suspend, Capture, Restart, Resume] {
            s = next(s, ev).unwrap();
        }
        assert_eq!(s, Running);
        // Source rank, aborted after capture: resurrection path.
        let mut s = Running;
        for ev in [Suspend, Capture, Resurrect, Resume] {
            s = next(s, ev).unwrap();
        }
        assert_eq!(s, Running);
        // Non-source rank.
        let mut s = Running;
        for ev in [Suspend, Resume] {
            s = next(s, ev).unwrap();
        }
        assert_eq!(s, Running);
        // A running rank cannot be captured or restarted.
        assert_eq!(next(Running, Capture), None);
        assert_eq!(next(Running, Restart), None);
    }

    #[test]
    fn link_machine_prefers_grandparent_and_tolerates_flaps() {
        use LinkEvent::*;
        use LinkState::*;
        assert_eq!(next(Attached, AckGrandparent), Some(AttachedWithFallback));
        // Fallback consumed on parent loss.
        assert_eq!(next(AttachedWithFallback, ParentLost), Some(Attached));
        // No fallback: keep the parent (transient flap must not orphan).
        assert_eq!(next(Attached, ParentLost), Some(Attached));
        // The root reacts to nothing.
        assert_eq!(next(Root, ParentLost), None);
    }

    #[test]
    fn stepper_walks_happy_path() {
        let spec = MigrationSpec::shipped();
        let mut st = CycleStepper::new(&spec);
        let g = GuardCtx {
            spares_left: 1,
            attempts_left: 3,
        };
        use CycleEvent::*;
        for ev in [Trigger, StallDone, MigrateDone, RestartDone, ResumeDone] {
            st.step(ev, &g).unwrap();
        }
        assert_eq!(st.phase(), CyclePhase::Complete);
        assert!(st.phase().is_terminal());
    }

    #[test]
    fn stepper_walks_live_paths() {
        let spec = MigrationSpec::shipped();
        let g = GuardCtx {
            spares_left: 1,
            attempts_left: 3,
        };
        use CycleEvent::*;
        // Converging run: rounds, cutover, then the four classic phases.
        let mut st = CycleStepper::new(&spec);
        for ev in [
            LiveTrigger,
            PrecopyRound,
            PrecopyRound,
            Cutover,
            StallDone,
            MigrateDone,
            RestartDone,
            ResumeDone,
        ] {
            st.step(ev, &g).unwrap();
        }
        assert_eq!(st.phase(), CyclePhase::Complete);
        // Diverging run: the controller gives up and the same Stall..
        // machinery runs a classic full copy.
        let mut st = CycleStepper::new(&spec);
        for ev in [LiveTrigger, PrecopyRound, FallbackStopCopy] {
            st.step(ev, &g).unwrap();
        }
        assert_eq!(st.phase(), CyclePhase::Stall);
        // Pre-copy has no timeout row — data faults degrade to fallback
        // instead of aborting — but the spare dying does abort.
        assert!(!spec.has_row(CyclePhase::Precopy, PhaseTimeout));
        assert!(spec.has_row(CyclePhase::Precopy, SpareCrash));
        // Live entry needs a spare like any other attempt.
        let none = GuardCtx {
            spares_left: 0,
            attempts_left: 3,
        };
        let mut st = CycleStepper::new(&spec);
        assert!(matches!(
            st.step(LiveTrigger, &none),
            Err(StepError::GuardRejected { .. })
        ));
    }

    #[test]
    fn stepper_distinguishes_guard_rejection_from_missing_row() {
        let spec = MigrationSpec::shipped();
        let mut st = CycleStepper::new(&spec);
        let none = GuardCtx {
            spares_left: 0,
            attempts_left: 3,
        };
        // Trigger with no spare: row exists, guard rejects.
        assert!(matches!(
            st.step(CycleEvent::Trigger, &none),
            Err(StepError::GuardRejected { .. })
        ));
        // Degrade from Idle is the legal continuation.
        st.step(CycleEvent::Degrade, &none).unwrap();
        assert_eq!(st.phase(), CyclePhase::Degraded);
        // ResumeDone from Degraded: no such row at all.
        assert!(matches!(
            st.step(CycleEvent::ResumeDone, &none),
            Err(StepError::NoTransition { .. })
        ));
    }
}
