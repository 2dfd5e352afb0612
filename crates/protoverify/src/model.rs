//! Exhaustive explicit-state model checker over the composed protocol.
//!
//! The model is the product of the migration-cycle phase machine, the two
//! NLA state machines (source and target), an abstraction of where the
//! job's ranks live, the spare pool, and the retry budget — with every
//! fault edge from [`crate::spec::fault_edges`] enabled at every state it
//! can strike. A breadth-first search enumerates the whole space, checks
//! each invariant at each state, and on violation reconstructs the
//! *shortest* event trace leading there. The trace can be lowered to a
//! concrete [`faultplane::FaultPlan`] and replayed in the simulator.

use crate::spec::{
    fault_edges, next, Action, CycleEvent, CyclePhase, FaultEdge, GuardCtx, MigrationSpec,
    NlaEvent, NlaState,
};
use faultplane::{FaultKind, FaultPlan, FaultSpec, MigPhase, NetSel, StoreFault, WalPoint};
use std::fmt;
use std::time::Duration;

/// Where the job's migrating ranks live, abstracted to the granularity
/// the invariants need (all ranks move together through each phase; a
/// per-rank product would multiply states without adding reachable
/// violations, because the runtime serialises rank work inside a phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RankSite {
    /// Running on the source node (no cycle, or rolled back).
    RunningOnSource,
    /// Suspended and drained on the source (Phase 1 complete).
    SuspendedOnSource,
    /// Captured; images staged on the target (Phase 2 complete).
    ImagesOnTarget,
    /// Restarted from images on the target (Phase 3 complete).
    RestartedOnTarget,
    /// Running on the target (Phase 4 complete).
    RunningOnTarget,
    /// Nowhere: neither a live incarnation nor a recoverable image. This
    /// is the "lost rank" sink — reaching it is always a violation.
    Lost,
}

impl RankSite {
    /// Stable lower-snake name.
    pub fn name(&self) -> &'static str {
        match self {
            RankSite::RunningOnSource => "running_on_source",
            RankSite::SuspendedOnSource => "suspended_on_source",
            RankSite::ImagesOnTarget => "images_on_target",
            RankSite::RestartedOnTarget => "restarted_on_target",
            RankSite::RunningOnTarget => "running_on_target",
            RankSite::Lost => "lost",
        }
    }
}

/// The target node's condition in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TargetNla {
    /// No attempt in flight (no spare consumed).
    None,
    /// The consumed spare is alive, its NLA in the given state.
    Alive(NlaState),
    /// The consumed spare crashed mid-attempt.
    Dead,
}

impl TargetNla {
    /// Step a live target's NLA on `ev`; a dead or absent target has no
    /// NLA to step.
    fn step(self, ev: NlaEvent) -> TargetNla {
        match self {
            TargetNla::Alive(s) => TargetNla::Alive(nla_step(s, ev)),
            other => other,
        }
    }
}

/// Step an NLA through [`crate::spec::NLA_TABLE`], the table the runtime
/// runs. A missing row leaves the NLA where it is, so a table without an
/// edge the protocol needs shows up as a violated invariant (say, a
/// completed migration whose source never went inactive).
fn nla_step(s: NlaState, ev: NlaEvent) -> NlaState {
    next(s, ev).unwrap_or(s)
}

/// Ranks tracked individually by the pipelined refinement. Two is the
/// smallest count that distinguishes "some ranks restarted while others
/// still stream" from the barrier protocol; more ranks multiply states
/// without enabling new interleavings of the counters.
pub const PIPELINE_RANKS: u8 = 2;

/// Bound on modelled pre-copy rounds per attempt. The runtime's
/// convergence controller always cuts over or falls back within a finite
/// round budget; two modelled rounds already distinguish "round N dirtied
/// pages behind round N-1's snapshot" from a single-shot copy, and more
/// rounds only replicate the same loop.
pub const PRECOPY_ROUND_CAP: u8 = 2;

/// One state of the composed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelState {
    /// Migration-cycle phase.
    pub phase: CyclePhase,
    /// Attempts started so far.
    pub attempt: u32,
    /// Spares remaining in the pool.
    pub spares: u32,
    /// Source node's NLA state.
    pub source: NlaState,
    /// Target node's condition.
    pub target: TargetNla,
    /// Where the ranks live.
    pub ranks: RankSite,
    /// Whether a degrade checkpoint has been written.
    pub checkpointed: bool,
    /// Pipelined refinement: ranks whose images finished assembly on the
    /// target this attempt (0 when the refinement is off).
    pub staged: u8,
    /// Pipelined refinement: ranks restarted on the target this attempt.
    /// Must never exceed `staged` — a restart without a staged image
    /// reads garbage.
    pub restarted: u8,
    /// The Job Manager died at a WAL append boundary and the standby has
    /// not yet taken over. While down, only takeover edges are enabled
    /// (the model collapses the failure-detector window to a point).
    pub coord_down: bool,
    /// Fencing epoch: bumped by each takeover. Bounded to one takeover
    /// per run (the runtime's one-crash-per-cycle model), so 0 or 1.
    pub epoch: u8,
    /// A deposed coordinator still exists whose in-flight write has not
    /// yet reached the spare pool / FTB (the zombie window).
    pub zombie: bool,
    /// The zombie's stale-epoch write *took effect* on the spare pool — a
    /// lease now exists under a deposed epoch. Reachable only with
    /// fencing disabled; always a [`Invariant::SingleLeaseHolder`]
    /// violation.
    pub zombie_lease: bool,
    /// Live refinement: dirty segments exist that the target's staged
    /// image does not yet reflect (the job kept writing behind a pre-copy
    /// snapshot). Set on entering `Precopy`; cleared only by
    /// `StreamImages` (the stop-and-copy round carries every pending
    /// segment) or `Rollback` (the source incarnation, which has every
    /// write, is the one that survives). `Complete` with `dirty` set is a
    /// lost-dirty-segment violation.
    pub dirty: bool,
    /// Live refinement: pre-copy rounds completed this attempt, bounded
    /// by [`PRECOPY_ROUND_CAP`].
    pub precopy_rounds: u8,
}

impl ModelState {
    /// The initial state for a pool of `spares` spare nodes.
    pub fn initial(spares: u32) -> Self {
        ModelState {
            phase: CyclePhase::Idle,
            attempt: 0,
            spares,
            source: NlaState::MigrationReady,
            target: TargetNla::None,
            ranks: RankSite::RunningOnSource,
            checkpointed: false,
            staged: 0,
            restarted: 0,
            coord_down: false,
            epoch: 0,
            zombie: false,
            zombie_lease: false,
            dirty: false,
            precopy_rounds: 0,
        }
    }
}

impl fmt::Display for ModelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let target = match self.target {
            TargetNla::None => "-".to_string(),
            TargetNla::Alive(s) => s.to_string(),
            TargetNla::Dead => "DEAD".to_string(),
        };
        write!(
            f,
            "phase={} attempt={} spares={} source={} target={} ranks={}{}",
            self.phase,
            self.attempt,
            self.spares,
            self.source,
            target,
            self.ranks.name(),
            if self.checkpointed { " ckpt" } else { "" }
        )?;
        if self.staged > 0 || self.restarted > 0 {
            write!(f, " staged={} restarted={}", self.staged, self.restarted)?;
        }
        if self.coord_down {
            write!(f, " COORD-DOWN")?;
        }
        if self.epoch > 0 {
            write!(f, " epoch={}", self.epoch)?;
        }
        if self.zombie {
            write!(f, " zombie")?;
        }
        if self.zombie_lease {
            write!(f, " ZOMBIE-LEASE")?;
        }
        if self.dirty {
            write!(f, " dirty")?;
        }
        if self.precopy_rounds > 0 {
            write!(f, " precopy_rounds={}", self.precopy_rounds)?;
        }
        Ok(())
    }
}

/// The label on one explored edge: the cycle event that fired, and the
/// fault (kind at phase) that caused it, if it was a fault edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLabel {
    /// The cycle event.
    pub event: CycleEvent,
    /// The fault behind it, when the edge came from [`fault_edges`].
    pub fault: Option<(MigPhase, FaultKind)>,
    /// The attempt number (1-based) in flight when the event fired; 0
    /// when no attempt was in flight.
    pub attempt: u32,
}

impl fmt::Display for EventLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fault {
            Some((phase, kind)) => {
                write!(
                    f,
                    "{} [{} at {}, attempt {}]",
                    self.event, kind, phase, self.attempt
                )
            }
            None => write!(f, "{}", self.event),
        }
    }
}

/// The invariants the checker proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every non-terminal state has at least one outgoing transition.
    DeadlockFreedom,
    /// No reachable state has `ranks == Lost`, and terminal states have
    /// all ranks running somewhere.
    NoLostRank,
    /// In `Aborted`, the job is whole again on the source: ranks running
    /// there, source NLA `MIGRATION_READY`, and no half-consumed target
    /// (any surviving target is back to `MIGRATION_SPARE`).
    RollbackRestoresSource,
    /// Every terminal state is `Complete` (ranks running on the target,
    /// target NLA ready, source inactive) or `Degraded` (ranks running on
    /// the source with a checkpoint written).
    CompleteOrDegrade,
    /// The cycle phase and the rank site agree (the phase machine never
    /// runs ahead of or behind the data): e.g. `Resume` is unreachable
    /// while ranks are still suspended.
    PhaseConsistency,
    /// A coordinator crash always resolves to exactly resume-from-point
    /// or rollback: while the coordinator is down the *only* enabled
    /// edges are the standby's takeover edges, each lands the cycle at
    /// the crashed phase (resume) or in `Aborted` (rollback), and a
    /// post-commit crash (`Resume` phase) never offers rollback — a
    /// committed cycle can only roll forward.
    ResumeOrRollback,
    /// Every outstanding spare lease is held under the current fencing
    /// epoch: a deposed coordinator's stale-epoch write can never create
    /// a second lease holder for the job's spare.
    SingleLeaseHolder,
    /// Live migration never completes while dirty segments exist that the
    /// target's image does not reflect: every path from `Precopy` to
    /// `Complete` passes through a stop-and-copy round (`StreamImages`)
    /// that carries the residual delta, and every abort hands the job
    /// back to the source incarnation, which has every write.
    NoLostDirtySegment,
}

impl Invariant {
    /// Stable kebab name, used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::DeadlockFreedom => "deadlock-freedom",
            Invariant::NoLostRank => "no-lost-rank",
            Invariant::RollbackRestoresSource => "rollback-restores-source",
            Invariant::CompleteOrDegrade => "complete-or-degrade",
            Invariant::PhaseConsistency => "phase-consistency",
            Invariant::ResumeOrRollback => "resume-or-rollback",
            Invariant::SingleLeaseHolder => "single-lease-holder",
            Invariant::NoLostDirtySegment => "no-lost-dirty-segment",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A minimal (shortest-path) trace from the initial state to a state
/// violating an invariant.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated invariant.
    pub invariant: Invariant,
    /// Why the final state violates it.
    pub reason: String,
    /// The states along the trace, initial state first.
    pub states: Vec<ModelState>,
    /// The labels between them (`labels.len() == states.len() - 1`).
    pub labels: Vec<EventLabel>,
}

impl Counterexample {
    /// Lower the trace to a concrete [`FaultPlan`]. Spare-crash edges map
    /// exactly (`FaultSpec::SpareCrash` carries phase + attempt); timeout
    /// edges map to the most aggressive fault of their kind so the same
    /// failure manifests in the simulator.
    pub fn to_fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for label in &self.labels {
            let Some((phase, kind)) = label.fault else {
                continue;
            };
            let attempt = label.attempt.max(1);
            let spec = match kind {
                FaultKind::SpareCrash => FaultSpec::SpareCrash { phase, attempt },
                FaultKind::NetDrop => FaultSpec::NetDrop {
                    net: NetSel::Gige,
                    after: Duration::ZERO,
                    count: 10_000,
                },
                FaultKind::LinkFlap => FaultSpec::LinkFlap {
                    net: NetSel::Gige,
                    at: Duration::ZERO,
                    lasts: Duration::from_secs(3600),
                },
                FaultKind::RdmaCqError => FaultSpec::RdmaCqError { nth: 1 },
                FaultKind::RdmaCorrupt => FaultSpec::RdmaCorrupt { nth: 1 },
                FaultKind::BlcrWriteError => FaultSpec::BlcrWriteError { nth: 1 },
                FaultKind::StoreWrite => FaultSpec::StoreWrite {
                    fault: StoreFault::IoError,
                    nth: 1,
                },
                FaultKind::CoordinatorCrash => FaultSpec::CoordinatorCrash {
                    at: WalPoint::Phase(phase),
                },
            };
            plan = plan.with(spec);
        }
        plan
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.invariant)?;
        writeln!(f, "  reason: {}", self.reason)?;
        writeln!(f, "  trace ({} steps):", self.labels.len())?;
        writeln!(f, "    0: {}", self.states[0])?;
        for (i, label) in self.labels.iter().enumerate() {
            writeln!(f, "       --{label}-->")?;
            writeln!(f, "    {}: {}", i + 1, self.states[i + 1])?;
        }
        Ok(())
    }
}

/// Statistics from one exhaustive run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Distinct states reached.
    pub states: usize,
    /// Transitions explored (including duplicates into seen states).
    pub transitions: usize,
    /// Terminal states reached.
    pub terminals: usize,
}

/// Outcome of a model-checking run.
#[derive(Debug)]
pub struct CheckReport {
    /// Exploration statistics.
    pub stats: CheckStats,
    /// The first (shortest-trace) violation, if any.
    pub violation: Option<Counterexample>,
}

impl CheckReport {
    /// Whether every invariant held on every reachable state.
    pub fn holds(&self) -> bool {
        self.violation.is_none()
    }
}

/// The checker's configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Spares in the initial pool.
    pub spares: u32,
    /// Attempt budget (mirrors `calib::RecoveryConfig::max_attempts`).
    pub max_attempts: u32,
    /// Enable the pipelined-data-path refinement: [`PIPELINE_RANKS`]
    /// ranks stage and restart individually, with restarts allowed while
    /// the pull is still in flight (the `overlap` pool mode). Off, the
    /// model is the barrier protocol and `staged`/`restarted` stay 0.
    pub pipelined: bool,
    /// Enable the coordinator-crash edges: the Job Manager can die at a
    /// WAL append boundary in any live phase (once per run), freezing
    /// the cycle until the standby's takeover edge fires.
    pub coordinator_crash: bool,
    /// Whether takeover fences the deposed epoch (the shipped protocol).
    /// `false` models a fencing-free takeover, where the zombie's
    /// stale-epoch write lands — used by the negative test to show the
    /// fence is what [`Invariant::SingleLeaseHolder`] rests on.
    pub fenced: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            spares: 1,
            max_attempts: 3,
            pipelined: false,
            coordinator_crash: true,
            fenced: true,
        }
    }
}

fn guard_ctx(s: &ModelState, cfg: &CheckConfig) -> GuardCtx {
    GuardCtx {
        spares_left: s.spares,
        attempts_left: cfg.max_attempts.saturating_sub(s.attempt),
    }
}

/// Apply a transition's declarative actions to the abstract state.
fn apply(s: &ModelState, to: CyclePhase, actions: &[Action]) -> ModelState {
    let mut n = *s;
    n.phase = to;
    for a in actions {
        match a {
            Action::ConsumeSpare => {
                n.spares = n.spares.saturating_sub(1);
                n.attempt += 1;
                n.target = TargetNla::Alive(NlaState::MigrationSpare);
            }
            Action::ReturnSpare => {
                if matches!(n.target, TargetNla::Alive(_)) {
                    n.spares += 1;
                }
                n.target = TargetNla::None;
            }
            Action::SpareLost => {
                n.target = TargetNla::Dead;
            }
            Action::SuspendRanks => {
                n.ranks = RankSite::SuspendedOnSource;
            }
            Action::StreamImages => {
                n.ranks = RankSite::ImagesOnTarget;
                n.source = nla_step(n.source, NlaEvent::SourceDrained);
                // The stop-and-copy round streams every pending segment —
                // residual dirty delta after a cutover, the full image
                // after a fallback — so nothing dirty is outstanding.
                n.dirty = false;
            }
            Action::RestartRanks => {
                n.ranks = RankSite::RestartedOnTarget;
                n.target = n.target.step(NlaEvent::RestartComplete);
            }
            Action::ResumeRanks => {
                n.ranks = match n.ranks {
                    RankSite::RestartedOnTarget => RankSite::RunningOnTarget,
                    RankSite::SuspendedOnSource => RankSite::RunningOnSource,
                    other => other,
                };
            }
            Action::Rollback => {
                // Resurrect/resume on the source from captured metadata.
                // The surviving incarnation is the source's, which has
                // every write — pre-copied target state is discarded, so
                // no dirty segment can be lost.
                n.ranks = RankSite::RunningOnSource;
                n.source = nla_step(n.source, NlaEvent::RollbackSource);
                n.target = n.target.step(NlaEvent::RollbackTarget);
                n.dirty = false;
            }
            Action::CheckpointToStore => {
                n.checkpointed = true;
            }
        }
    }
    // An aborted attempt's surviving spare returns to the pool unless the
    // transition said otherwise (SpareLost / ReturnSpare already ran).
    if to == CyclePhase::Aborted {
        match n.target {
            TargetNla::Alive(_) => {
                n.spares += 1;
                n.target = TargetNla::None;
            }
            TargetNla::Dead => {
                n.target = TargetNla::None;
            }
            TargetNla::None => {}
        }
        // Rollback wipes the attempt's per-rank pipeline progress: any
        // rank already restarted on the abandoned target is pulled back
        // to the source, staged images are discarded with the target.
        n.staged = 0;
        n.restarted = 0;
    }
    // The round counter only means anything while pre-copying; resetting
    // it on exit keeps downstream phases from splitting by round history.
    if to != CyclePhase::Precopy {
        n.precopy_rounds = 0;
    }
    n
}

/// The cycle events the *protocol itself* (not a fault) fires from a
/// phase — phase completions and the recovery decisions.
fn protocol_events(phase: CyclePhase) -> &'static [CycleEvent] {
    use CycleEvent::*;
    match phase {
        CyclePhase::Idle => &[Trigger, LiveTrigger, Degrade],
        CyclePhase::Precopy => &[PrecopyRound, Cutover, FallbackStopCopy],
        CyclePhase::Stall => &[StallDone],
        CyclePhase::Migrate => &[MigrateDone],
        CyclePhase::Restart => &[RestartDone],
        CyclePhase::Resume => &[ResumeDone],
        CyclePhase::Aborted => &[Retry, Degrade],
        CyclePhase::Complete | CyclePhase::Degraded => &[],
    }
}

fn successors(
    spec: &MigrationSpec,
    edges: &[FaultEdge],
    cfg: &CheckConfig,
    s: &ModelState,
) -> Vec<(EventLabel, ModelState)> {
    let g = guard_ctx(s, cfg);
    let mut out = Vec::new();
    if s.coord_down {
        // The coordinator is dead: nothing drives the phase machine and
        // no further fault manifests until the standby takes over. The
        // takeover decision mirrors the runtime's journal-tail analysis:
        //  * Stall — the FTB_MIGRATE publish provably never went out
        //    (crashes fire only at append boundaries), so rollback is the
        //    only branch;
        //  * Migrate / Restart — the autonomous data path may finish
        //    (resume-from-point) or a fresh deadline may expire
        //    (rollback): both branches are explored;
        //  * Resume — past the commit point every rank restarted on the
        //    target, so the standby can only roll forward.
        let label = |event| EventLabel {
            event,
            fault: None,
            attempt: s.attempt,
        };
        let resume = {
            let mut n = *s;
            n.coord_down = false;
            n.epoch += 1;
            n.zombie = true;
            n
        };
        let rollback = {
            let mut n = apply(
                s,
                CyclePhase::Aborted,
                &[Action::Rollback, Action::ReturnSpare],
            );
            n.coord_down = false;
            n.epoch += 1;
            n.zombie = true;
            n
        };
        match s.phase {
            // A crash mid-pre-copy is recovered by abandoning the rounds:
            // the job never stopped running on the source, so the standby
            // rolls back and loses nothing but streamed bytes.
            CyclePhase::Precopy => out.push((label(CycleEvent::TakeoverRollback), rollback)),
            CyclePhase::Stall => out.push((label(CycleEvent::TakeoverRollback), rollback)),
            CyclePhase::Migrate | CyclePhase::Restart => {
                out.push((label(CycleEvent::TakeoverResume), resume));
                out.push((label(CycleEvent::TakeoverRollback), rollback));
            }
            CyclePhase::Resume => out.push((label(CycleEvent::TakeoverResume), resume)),
            _ => {}
        }
        return out;
    }
    if s.zombie {
        // The deposed coordinator's in-flight write reaches the spare
        // pool. Fenced, its stale epoch is rejected and the zombie is
        // spent; unfenced, it creates a second lease holder.
        let mut n = *s;
        n.zombie = false;
        if !cfg.fenced {
            n.zombie_lease = true;
        }
        out.push((
            EventLabel {
                event: CycleEvent::ZombieSettle,
                fault: None,
                attempt: s.attempt,
            },
            n,
        ));
    }
    if cfg.coordinator_crash && s.epoch == 0 {
        if let Some(mig) = s.phase.mig_phase() {
            let mut n = *s;
            n.coord_down = true;
            out.push((
                EventLabel {
                    event: CycleEvent::CoordCrash,
                    fault: Some((mig, FaultKind::CoordinatorCrash)),
                    attempt: s.attempt,
                },
                n,
            ));
        }
    }
    for &ev in protocol_events(s.phase) {
        if cfg.pipelined {
            // Completion gates of the pipelined refinement: a phase
            // cannot close while per-rank work is outstanding.
            let gated = match (s.phase, ev) {
                (CyclePhase::Migrate, CycleEvent::MigrateDone) => s.staged < PIPELINE_RANKS,
                (CyclePhase::Restart, CycleEvent::RestartDone) => s.restarted < PIPELINE_RANKS,
                _ => false,
            };
            if gated {
                continue;
            }
        }
        // Bound the pre-copy loop: the runtime's convergence controller
        // always decides within a finite round budget.
        if ev == CycleEvent::PrecopyRound && s.precopy_rounds >= PRECOPY_ROUND_CAP {
            continue;
        }
        if let Some(t) = spec.next(s.phase, ev, &g) {
            let mut n = apply(s, t.to, &t.actions);
            if ev == CycleEvent::LiveTrigger {
                // The job keeps writing behind every pre-copy snapshot.
                n.dirty = true;
            }
            if ev == CycleEvent::PrecopyRound {
                n.precopy_rounds += 1;
            }
            out.push((
                EventLabel {
                    event: ev,
                    fault: None,
                    attempt: s.attempt,
                },
                n,
            ));
        }
    }
    if cfg.pipelined {
        // Micro-events of the pipelined data path. A rank's image lands
        // (`RankStaged`) only while the pull is in flight; a *staged*
        // rank may restart (`RankRestarted`) during Migrate — the
        // overlap — or during Restart, never ahead of its image. The
        // coarse `ranks` site keeps tracking the trailing rank.
        if s.phase == CyclePhase::Migrate && s.staged < PIPELINE_RANKS {
            let mut n = *s;
            n.staged += 1;
            out.push((
                EventLabel {
                    event: CycleEvent::RankStaged,
                    fault: None,
                    attempt: s.attempt,
                },
                n,
            ));
        }
        if matches!(s.phase, CyclePhase::Migrate | CyclePhase::Restart) && s.restarted < s.staged {
            let mut n = *s;
            n.restarted += 1;
            out.push((
                EventLabel {
                    event: CycleEvent::RankRestarted,
                    fault: None,
                    attempt: s.attempt,
                },
                n,
            ));
        }
    }
    if let Some(mig) = s.phase.mig_phase() {
        for e in edges.iter().filter(|e| e.phase == mig) {
            if let Some(t) = spec.next(s.phase, e.effect, &g) {
                out.push((
                    EventLabel {
                        event: e.effect,
                        fault: Some((e.phase, e.kind)),
                        attempt: s.attempt,
                    },
                    apply(s, t.to, &t.actions),
                ));
            }
        }
    }
    out
}

/// Check one state against every invariant except deadlock-freedom
/// (which needs the successor set and is handled in [`check`]'s
/// per-state hook).
fn violated(s: &ModelState, cfg: &CheckConfig) -> Option<(Invariant, String)> {
    if s.zombie_lease {
        return Some((
            Invariant::SingleLeaseHolder,
            "a spare lease exists under a deposed coordinator epoch — \
             the pool would commit the same spare twice"
                .into(),
        ));
    }
    if s.coord_down && s.phase.mig_phase().is_none() {
        return Some((
            Invariant::ResumeOrRollback,
            format!(
                "coordinator crash pending in phase {}, which has no \
                 journal tail to resume or roll back",
                s.phase
            ),
        ));
    }
    if s.ranks == RankSite::Lost {
        return Some((
            Invariant::NoLostRank,
            "ranks neither live anywhere nor recoverable from an image".into(),
        ));
    }
    if s.phase == CyclePhase::Complete && s.dirty {
        return Some((
            Invariant::NoLostDirtySegment,
            "migration completed while dirty segments were outstanding — \
             the restarted image is missing writes the job made behind \
             the last pre-copy snapshot"
                .into(),
        ));
    }
    // Pipelined refinement: a restart may never run ahead of its staged
    // image — there is nothing to restart from.
    if s.restarted > s.staged {
        return Some((
            Invariant::NoLostRank,
            format!(
                "{} ranks restarted but only {} images staged",
                s.restarted, s.staged
            ),
        ));
    }
    if cfg.pipelined && s.phase == CyclePhase::Complete && s.restarted != PIPELINE_RANKS {
        return Some((
            Invariant::CompleteOrDegrade,
            format!(
                "complete with only {} of {} ranks restarted",
                s.restarted, PIPELINE_RANKS
            ),
        ));
    }
    if s.phase == CyclePhase::Aborted && (s.staged != 0 || s.restarted != 0) {
        return Some((
            Invariant::RollbackRestoresSource,
            format!(
                "aborted with pipeline progress not rolled back \
                 (staged={} restarted={})",
                s.staged, s.restarted
            ),
        ));
    }
    if s.phase == CyclePhase::Aborted {
        if s.ranks != RankSite::RunningOnSource {
            return Some((
                Invariant::RollbackRestoresSource,
                format!("aborted with ranks {}", s.ranks.name()),
            ));
        }
        if s.source != NlaState::MigrationReady {
            return Some((
                Invariant::RollbackRestoresSource,
                format!("aborted with source NLA {}", s.source),
            ));
        }
        if s.target != TargetNla::None {
            return Some((
                Invariant::RollbackRestoresSource,
                "aborted with the attempt's target still attached".into(),
            ));
        }
    }
    match s.phase {
        CyclePhase::Complete => {
            if s.ranks != RankSite::RunningOnTarget {
                return Some((
                    Invariant::CompleteOrDegrade,
                    format!("complete but ranks {}", s.ranks.name()),
                ));
            }
            if s.target != TargetNla::Alive(NlaState::MigrationReady) {
                return Some((
                    Invariant::CompleteOrDegrade,
                    "complete but the target NLA is not MIGRATION_READY".into(),
                ));
            }
            if s.source != NlaState::MigrationInactive {
                return Some((
                    Invariant::CompleteOrDegrade,
                    format!("complete but the source NLA is {}", s.source),
                ));
            }
        }
        CyclePhase::Degraded => {
            if s.ranks != RankSite::RunningOnSource {
                return Some((
                    Invariant::CompleteOrDegrade,
                    format!("degraded but ranks {}", s.ranks.name()),
                ));
            }
            if !s.checkpointed {
                return Some((
                    Invariant::CompleteOrDegrade,
                    "degraded without a checkpoint written".into(),
                ));
            }
        }
        _ => {}
    }
    let expected = match s.phase {
        // Pre-copy streams while the job runs: ranks never leave the
        // source until the cutover (or fallback) stalls them.
        CyclePhase::Precopy => Some(RankSite::RunningOnSource),
        CyclePhase::Idle | CyclePhase::Stall => Some(RankSite::RunningOnSource),
        CyclePhase::Migrate => Some(RankSite::SuspendedOnSource),
        CyclePhase::Restart => Some(RankSite::ImagesOnTarget),
        CyclePhase::Resume => Some(RankSite::RestartedOnTarget),
        CyclePhase::Aborted | CyclePhase::Degraded => Some(RankSite::RunningOnSource),
        CyclePhase::Complete => Some(RankSite::RunningOnTarget),
    };
    if let Some(want) = expected {
        if s.ranks != want {
            return Some((
                Invariant::PhaseConsistency,
                format!(
                    "phase {} expects ranks {}, found {}",
                    s.phase,
                    want.name(),
                    s.ranks.name()
                ),
            ));
        }
    }
    None
}

/// Exhaustively explore `spec` under `cfg` and prove (or refute) every
/// invariant. BFS guarantees the returned counterexample is minimal in
/// trace length.
pub fn check(spec: &MigrationSpec, cfg: &CheckConfig) -> CheckReport {
    let edges = fault_edges();
    let mut terminals = 0;
    let explored = crate::search::bfs(
        ModelState::initial(cfg.spares),
        |s| {
            if let Some(v) = violated(s, cfg) {
                return Err(v);
            }
            let succ = successors(spec, &edges, cfg, s);
            if s.coord_down {
                // Structural half of resume-or-rollback: the only way out
                // of a coordinator crash is a takeover edge, each lands
                // the cycle at the crashed phase (resume-from-point) or in
                // Aborted (rollback), and a committed cycle never rolls
                // back.
                let bad = succ.is_empty()
                    || succ.iter().any(|(label, next)| {
                        let takeover = matches!(
                            label.event,
                            CycleEvent::TakeoverResume | CycleEvent::TakeoverRollback
                        );
                        let lands_ok = next.phase == s.phase || next.phase == CyclePhase::Aborted;
                        let forward_only = s.phase != CyclePhase::Resume
                            || label.event != CycleEvent::TakeoverRollback;
                        !(takeover && lands_ok && forward_only)
                    });
                if bad {
                    return Err((
                        Invariant::ResumeOrRollback,
                        format!(
                            "coordinator down in phase {} does not resolve to \
                             exactly resume-or-rollback",
                            s.phase
                        ),
                    ));
                }
            }
            if succ.is_empty() {
                if !s.phase.is_terminal() {
                    return Err((
                        Invariant::DeadlockFreedom,
                        format!("non-terminal phase {} has no enabled transition", s.phase),
                    ));
                }
                terminals += 1;
            }
            Ok(succ)
        },
        |_, _, _| None,
    );
    CheckReport {
        stats: CheckStats {
            states: explored.states,
            transitions: explored.transitions,
            terminals,
        },
        violation: explored.found.map(|f| Counterexample {
            invariant: f.violation.0,
            reason: f.violation.1,
            states: f.states,
            labels: f.labels,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CycleTransition, Guard};

    #[test]
    fn shipped_spec_holds_across_pool_sizes() {
        for spares in 0..=3 {
            for max_attempts in 1..=4 {
                for pipelined in [false, true] {
                    let cfg = CheckConfig {
                        spares,
                        max_attempts,
                        pipelined,
                        ..CheckConfig::default()
                    };
                    let report = check(&MigrationSpec::shipped(), &cfg);
                    assert!(
                        report.holds(),
                        "spares={spares} attempts={max_attempts} pipelined={pipelined}: {}",
                        report.violation.unwrap()
                    );
                    assert!(report.stats.terminals > 0);
                }
            }
        }
    }

    #[test]
    fn pipelined_refinement_enlarges_the_state_space() {
        let barrier = check(&MigrationSpec::shipped(), &CheckConfig::default());
        let pipelined = check(
            &MigrationSpec::shipped(),
            &CheckConfig {
                pipelined: true,
                ..CheckConfig::default()
            },
        );
        assert!(barrier.holds() && pipelined.holds());
        // The per-rank counters genuinely refine the model: more states,
        // including interleavings where a rank restarts mid-pull.
        assert!(pipelined.stats.states > barrier.stats.states);
    }

    #[test]
    fn restart_ahead_of_staged_image_is_a_lost_rank() {
        let mut s = ModelState::initial(1);
        s.phase = CyclePhase::Migrate;
        s.ranks = RankSite::SuspendedOnSource;
        s.staged = 1;
        s.restarted = 2;
        let cfg = CheckConfig {
            pipelined: true,
            ..CheckConfig::default()
        };
        let (inv, _) = violated(&s, &cfg).expect("must be flagged");
        assert_eq!(inv, Invariant::NoLostRank);
    }

    #[test]
    fn abort_must_clear_pipeline_progress() {
        let mut s = ModelState::initial(1);
        s.phase = CyclePhase::Aborted;
        s.staged = 2;
        s.restarted = 1;
        let cfg = CheckConfig {
            pipelined: true,
            ..CheckConfig::default()
        };
        let (inv, _) = violated(&s, &cfg).expect("must be flagged");
        assert_eq!(inv, Invariant::RollbackRestoresSource);
    }

    #[test]
    fn coordinator_crash_edges_enlarge_the_space_and_hold() {
        for pipelined in [false, true] {
            let without = check(
                &MigrationSpec::shipped(),
                &CheckConfig {
                    pipelined,
                    coordinator_crash: false,
                    ..CheckConfig::default()
                },
            );
            let with = check(
                &MigrationSpec::shipped(),
                &CheckConfig {
                    pipelined,
                    ..CheckConfig::default()
                },
            );
            assert!(without.holds() && with.holds());
            // The crash edges genuinely reach new states (coord-down,
            // takeover, zombie-settle interleavings) in both modes.
            assert!(
                with.stats.states > without.stats.states,
                "pipelined={pipelined}: {} !> {}",
                with.stats.states,
                without.stats.states
            );
        }
    }

    #[test]
    fn unfenced_takeover_loses_lease_exclusivity() {
        let report = check(
            &MigrationSpec::shipped(),
            &CheckConfig {
                fenced: false,
                ..CheckConfig::default()
            },
        );
        let cx = report.violation.expect("unfenced takeover must violate");
        assert_eq!(cx.invariant, Invariant::SingleLeaseHolder);
        // The minimal trace necessarily goes through a coordinator crash,
        // and it lowers to a concrete replayable fault plan.
        assert!(cx
            .labels
            .iter()
            .any(|l| matches!(l.fault, Some((_, FaultKind::CoordinatorCrash)))));
        let plan = cx.to_fault_plan();
        assert!(format!("{plan:?}").contains("CoordinatorCrash"));
    }

    #[test]
    fn post_commit_crash_rolls_forward_only() {
        // A crash in Resume (past the commit point: every rank restarted
        // on the target) must offer exactly one way out — roll forward.
        let mut s = ModelState::initial(1);
        s.phase = CyclePhase::Resume;
        s.attempt = 1;
        s.spares = 0;
        s.source = NlaState::MigrationInactive;
        s.target = TargetNla::Alive(NlaState::MigrationReady);
        s.ranks = RankSite::RestartedOnTarget;
        s.coord_down = true;
        let cfg = CheckConfig::default();
        let succ = successors(&MigrationSpec::shipped(), &fault_edges(), &cfg, &s);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].0.event, CycleEvent::TakeoverResume);
        assert_eq!(succ[0].1.phase, CyclePhase::Resume);
        assert_eq!(succ[0].1.epoch, 1);
        assert!(succ[0].1.zombie && !succ[0].1.coord_down);
        // Whereas a pre-commit crash (Restart) explores both branches.
        s.phase = CyclePhase::Restart;
        s.ranks = RankSite::ImagesOnTarget;
        let succ = successors(&MigrationSpec::shipped(), &fault_edges(), &cfg, &s);
        let events: Vec<_> = succ.iter().map(|(l, _)| l.event).collect();
        assert!(events.contains(&CycleEvent::TakeoverResume));
        assert!(events.contains(&CycleEvent::TakeoverRollback));
    }

    #[test]
    fn live_edges_enlarge_the_space_and_hold() {
        let classic = check(
            &MigrationSpec::shipped().without(CyclePhase::Idle, CycleEvent::LiveTrigger),
            &CheckConfig::default(),
        );
        let live = check(&MigrationSpec::shipped(), &CheckConfig::default());
        assert!(classic.holds() && live.holds());
        // The pre-copy loop genuinely reaches new states (rounds, dirty
        // flag, cutover/fallback interleavings, crash-in-precopy).
        assert!(
            live.stats.states > classic.stats.states,
            "{} !> {}",
            live.stats.states,
            classic.stats.states
        );
    }

    #[test]
    fn complete_with_outstanding_dirty_segments_is_flagged() {
        // A state that satisfies every Complete obligation except the
        // dirty ledger: writes made behind the last pre-copy snapshot
        // never landed on the target.
        let mut s = ModelState::initial(0);
        s.phase = CyclePhase::Complete;
        s.attempt = 1;
        s.ranks = RankSite::RunningOnTarget;
        s.source = NlaState::MigrationInactive;
        s.target = TargetNla::Alive(NlaState::MigrationReady);
        s.dirty = true;
        let (inv, _) = violated(&s, &CheckConfig::default()).expect("must be flagged");
        assert_eq!(inv, Invariant::NoLostDirtySegment);
    }

    #[test]
    fn cutover_that_skips_stop_and_copy_loses_dirty_segments() {
        // Negative proof that the invariant rests on the cutover passing
        // through a stop-and-copy round: reroute Cutover straight to
        // Complete and the checker finds the lost-segment trace.
        let spec = MigrationSpec::shipped().with_transition(CycleTransition {
            from: CyclePhase::Precopy,
            on: CycleEvent::Cutover,
            guard: Guard::Always,
            to: CyclePhase::Complete,
            actions: vec![Action::RestartRanks, Action::ResumeRanks],
        });
        let cx = check(&spec, &CheckConfig::default())
            .violation
            .expect("skipping stop-and-copy must violate");
        assert_eq!(cx.invariant, Invariant::NoLostDirtySegment);
        assert!(cx.labels.iter().any(|l| l.event == CycleEvent::LiveTrigger));
    }

    #[test]
    fn precopy_crash_resolves_by_rollback_only() {
        // A coordinator crash mid-pre-copy: the job never stopped on the
        // source, so the standby's one branch is to abandon the rounds.
        let mut s = ModelState::initial(0);
        s.phase = CyclePhase::Precopy;
        s.attempt = 1;
        s.target = TargetNla::Alive(NlaState::MigrationSpare);
        s.dirty = true;
        s.precopy_rounds = 1;
        s.coord_down = true;
        let succ = successors(
            &MigrationSpec::shipped(),
            &fault_edges(),
            &CheckConfig::default(),
            &s,
        );
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].0.event, CycleEvent::TakeoverRollback);
        assert_eq!(succ[0].1.phase, CyclePhase::Aborted);
        assert!(!succ[0].1.dirty, "rollback must settle the dirty ledger");
        assert_eq!(succ[0].1.precopy_rounds, 0);
    }

    #[test]
    fn state_space_is_exhausted_not_truncated() {
        let report = check(&MigrationSpec::shipped(), &CheckConfig::default());
        // Every explored state fed the queue; transitions strictly exceed
        // states because fault edges fan out of each live phase.
        assert!(report.stats.transitions > report.stats.states);
    }

    #[test]
    fn removing_rollback_deadlocks() {
        // A spec whose timeout edges vanish has nowhere to go when the
        // spare crashes... still covered; remove the spare-crash rows too
        // and Stall deadlocks only if StallDone also goes away. Simplest
        // deadlock: strip every edge out of Aborted.
        let spec = MigrationSpec::shipped()
            .without(CyclePhase::Aborted, CycleEvent::Retry)
            .without(CyclePhase::Aborted, CycleEvent::Degrade);
        let report = check(&spec, &CheckConfig::default());
        let cx = report.violation.expect("must deadlock");
        assert_eq!(cx.invariant, Invariant::DeadlockFreedom);
        assert_eq!(cx.states.last().unwrap().phase, CyclePhase::Aborted);
    }

    #[test]
    fn counterexample_trace_is_connected() {
        let spec = MigrationSpec::shipped()
            .without(CyclePhase::Aborted, CycleEvent::Retry)
            .without(CyclePhase::Aborted, CycleEvent::Degrade);
        let cx = check(&spec, &CheckConfig::default()).violation.unwrap();
        assert_eq!(cx.labels.len(), cx.states.len() - 1);
        assert_eq!(cx.states[0], ModelState::initial(1));
        // And it renders.
        let text = cx.to_string();
        assert!(text.contains("deadlock-freedom"));
    }
}
