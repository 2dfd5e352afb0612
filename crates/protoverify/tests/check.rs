//! Negative coverage for the model checker: seeded spec mutations must
//! produce counterexamples, and fault-driven counterexamples must lower
//! to concrete `FaultPlan`s. (The end-to-end replay of such a plan in the
//! simulator lives in `crates/core/tests/counterexample_replay.rs`, which
//! can see the runtime.)

use faultplane::{FaultKind, FaultSpec, MigPhase};
use protoverify::spec::{Action, CycleEvent, CyclePhase, CycleTransition, Guard};
use protoverify::{check, CheckConfig, Invariant, MigrationSpec};

/// A broken table that skips Phases 2+3: StallDone jumps straight to
/// Resume while the ranks are still sitting suspended on the source. The
/// checker must refuse it with a phase-consistency counterexample whose
/// final state is the premature Resume.
#[test]
fn resume_reachable_with_ranks_still_stalled_is_caught() {
    let spec = MigrationSpec::shipped().with_transition(CycleTransition {
        from: CyclePhase::Stall,
        on: CycleEvent::StallDone,
        guard: Guard::Always,
        to: CyclePhase::Resume,
        actions: vec![Action::SuspendRanks],
    });
    let report = check(&spec, &CheckConfig::default());
    let cx = report.violation.expect("broken spec must be refused");
    assert_eq!(cx.invariant, Invariant::PhaseConsistency);
    let last = cx.states.last().unwrap();
    assert_eq!(last.phase, CyclePhase::Resume);
    // The trace is minimal: Trigger, then the bad jump.
    assert_eq!(cx.labels.len(), 2);
    let text = cx.to_string();
    assert!(text.contains("phase-consistency"), "got: {text}");
    assert!(text.contains("suspended_on_source"), "got: {text}");
}

/// A mutation that mishandles a spare crash during Resume — declaring the
/// migration complete instead of rolling back — must be caught, and the
/// counterexample must carry the exact fault edge so it lowers to a
/// `FaultPlan` containing `SpareCrash { phase: Resume, attempt: 1 }`.
#[test]
fn mishandled_spare_crash_yields_replayable_plan() {
    let spec = MigrationSpec::shipped().with_transition(CycleTransition {
        from: CyclePhase::Resume,
        on: CycleEvent::SpareCrash,
        guard: Guard::Always,
        to: CyclePhase::Complete,
        actions: vec![Action::SpareLost, Action::ResumeRanks],
    });
    let report = check(&spec, &CheckConfig::default());
    let cx = report.violation.expect("mutation must be refused");
    assert_eq!(cx.invariant, Invariant::CompleteOrDegrade);
    let fault_labels: Vec<_> = cx.labels.iter().filter_map(|l| l.fault).collect();
    assert_eq!(
        fault_labels,
        vec![(MigPhase::Resume, FaultKind::SpareCrash)]
    );
    let plan = cx.to_fault_plan();
    assert!(
        plan.entries.iter().any(|s| matches!(
            s,
            FaultSpec::SpareCrash {
                phase: MigPhase::Resume,
                attempt: 1
            }
        )),
        "plan must pin the crash to Resume of attempt 1: {plan:?}"
    );
}

/// Dropping the retry guard (so Retry fires even with an empty pool)
/// must surface as a lost-rank or consistency violation rather than
/// passing silently: the attempt "consumes" a spare that does not exist.
#[test]
fn unguarded_retry_is_refused() {
    let spec = MigrationSpec::shipped().with_transition(CycleTransition {
        from: CyclePhase::Aborted,
        on: CycleEvent::Degrade,
        guard: Guard::NoRecoveryPath,
        to: CyclePhase::Complete,
        actions: vec![],
    });
    let report = check(&spec, &CheckConfig::default());
    let cx = report
        .violation
        .expect("degrade-to-complete must be refused");
    assert_eq!(cx.invariant, Invariant::CompleteOrDegrade);
}
