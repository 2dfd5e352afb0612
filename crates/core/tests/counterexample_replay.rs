//! Closing the loop between the model checker and the simulator: a
//! counterexample found by `protoverify` against a deliberately broken
//! transition table lowers (via `Counterexample::to_fault_plan`) to a
//! concrete `FaultPlan`, and replaying that plan in the full simulator
//! drives the *shipped* implementation through the exact scenario the
//! checker explored — where the real protocol degrades gracefully
//! instead of exhibiting the mutant's violation.

use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use protoverify::{
    check, Action, CheckConfig, CycleEvent, CyclePhase, CycleTransition, Guard, Invariant,
    MigrationSpec,
};
use simkit::dur::*;
use simkit::{SimTime, Simulation};

#[test]
fn checker_counterexample_replays_in_the_simulator() {
    // The mutation: a spare crash during Resume is "handled" by declaring
    // the cycle complete — the mistake the rollback machinery exists to
    // prevent.
    let broken = MigrationSpec::shipped().with_transition(CycleTransition {
        from: CyclePhase::Resume,
        on: CycleEvent::SpareCrash,
        guard: Guard::Always,
        to: CyclePhase::Complete,
        actions: vec![Action::SpareLost, Action::ResumeRanks],
    });
    let report = check(&broken, &CheckConfig::default());
    let cx = report.violation.expect("the mutant must be caught");
    assert_eq!(cx.invariant, Invariant::CompleteOrDegrade);

    // Lower the abstract trace to a concrete fault plan. The SpareCrash
    // edge maps exactly: same phase, same attempt.
    let plan = cx.to_fault_plan();
    assert!(
        plan.entries.iter().any(|s| matches!(
            s,
            FaultSpec::SpareCrash {
                phase: MigPhase::Resume,
                attempt: 1
            }
        )),
        "plan must carry the counterexample's spare crash: {:?}",
        plan.entries
    );

    // Replay against the shipped implementation: one spare, which the
    // plan kills at the Resume boundary. The real tables roll the ranks
    // back to the source and degrade to the CR baseline — no lost ranks,
    // no phantom completion.
    let mut sim = Simulation::new(0xCE);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let plane = cluster.install_fault_plane(&plan);
    let source = cluster.compute_nodes()[0];
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), deadline)
        .expect("job must not hang replaying the counterexample plan");
    assert!(rt.is_complete());

    assert!(plane.injected() > 0, "the lowered fault plan must fire");
    let outcomes = rt.migration_outcomes();
    assert_eq!(
        outcomes.fell_back_to_cr, 1,
        "shipped tables must degrade, not complete: {outcomes:?}"
    );
    assert_eq!(outcomes.lost, 0, "{outcomes:?}");
    // no-lost-rank / rollback-restores-source, in the flesh: both ranks
    // ended the aborted cycle back on the source node.
    assert_eq!(rt.job().rank_node(0), source);
    assert_eq!(rt.job().rank_node(1), source);
}
