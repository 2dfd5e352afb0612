//! Self-healing migration: spare death mid-cycle, per-chunk RDMA
//! re-issue, retry on a second spare, and graceful degradation to the CR
//! baseline when no spare remains — the ISSUE's acceptance scenarios.

use jobmig_core::msgs::NlaState;
use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::*;
use simkit::{SimTime, Simulation};

fn launch(sim: &Simulation, spares: u32) -> (Cluster, JobRuntime) {
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, spares));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    (cluster, rt)
}

fn trace_string(sim: &Simulation) -> String {
    let handle = sim.handle();
    let events = handle.tracer().drain_events();
    let names = handle.tracer().proc_names();
    telemetry::chrome_trace(&events, &names)
}

#[test]
fn spare_death_during_restart_recovers_on_second_spare() {
    let mut sim = Simulation::new(11);
    sim.handle().tracer().set_enabled(true);
    let (cluster, rt) = launch(&sim, 2);
    let plane = cluster.install_fault_plane(&FaultPlan::new().with(FaultSpec::SpareCrash {
        phase: MigPhase::Restart,
        attempt: 1,
    }));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete(), "job must finish despite the spare death");

    // The first spare died at the Phase 3 boundary; the retry landed the
    // ranks on the second spare.
    let reports = rt.migration_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.outcome, MigrationOutcome::MigratedAfterRetry);
    assert_eq!(r.attempts, 2);
    let dead = cluster.spare_nodes()[0];
    let second = cluster.spare_nodes()[1];
    assert_eq!(r.target, second);
    assert_eq!(rt.job().rank_node(0), second);
    assert_eq!(rt.job().rank_node(1), second);
    // The dead spare's NLA is gone; the survivor hosts the ranks.
    assert_eq!(rt.nla_state(dead), None);
    assert_eq!(rt.nla_state(second), Some(NlaState::MigrationReady));
    assert_eq!(rt.spares_left(), 0);
    assert_eq!(rt.migration_outcomes().migrated_after_retry, 1);
    assert_eq!(plane.injected(), 1);

    // The whole story is visible in the exported trace.
    let trace = trace_string(&sim);
    for needle in [
        "spare_crash",
        "spare_node_dead",
        "cycle_abort",
        "migrated_after_retry",
    ] {
        assert!(trace.contains(needle), "trace missing {needle:?}");
    }
}

#[test]
fn spare_death_with_no_backup_degrades_to_cr() {
    let mut sim = Simulation::new(12);
    sim.handle().tracer().set_enabled(true);
    let (cluster, rt) = launch(&sim, 1);
    cluster.install_fault_plane(&FaultPlan::new().with(FaultSpec::SpareCrash {
        phase: MigPhase::Restart,
        attempt: 1,
    }));
    let source = cluster.compute_nodes()[0];
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());

    // Only spare died mid-cycle: the ranks were rolled back to the source
    // and the trigger degraded to a coordinated checkpoint.
    let reports = rt.migration_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, MigrationOutcome::FellBackToCr);
    // One attempt actually ran (the spare died mid-cycle); the retry was
    // refused by the cycle table's RetryPath guard — the pool was empty —
    // so it does not count as an attempt.
    assert_eq!(reports[0].attempts, 1);
    assert_eq!(rt.job().rank_node(0), source);
    assert_eq!(rt.job().rank_node(1), source);
    assert_eq!(rt.nla_state(source), Some(NlaState::MigrationReady));
    let crs = rt.cr_reports();
    assert_eq!(crs.len(), 1);
    assert_eq!(crs[0].store, CrStoreKind::LocalExt3);
    assert!(crs[0].bytes_written > 0);
    assert_eq!(rt.migration_outcomes().fell_back_to_cr, 1);

    let trace = trace_string(&sim);
    for needle in ["cycle_abort", "migration_fallback_cr", "fell_back_to_cr"] {
        assert!(trace.contains(needle), "trace missing {needle:?}");
    }
}

#[test]
fn rdma_faults_are_reissued_within_the_attempt() {
    let mut sim = Simulation::new(13);
    sim.handle().tracer().set_enabled(true);
    let (cluster, rt) = launch(&sim, 1);
    let plane = cluster.install_fault_plane(
        &FaultPlan::new()
            .with(FaultSpec::RdmaCqError { nth: 2 })
            .with(FaultSpec::RdmaCorrupt { nth: 5 }),
    );
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());

    // Per-chunk re-issue absorbs both faults without burning the attempt.
    let reports = rt.migration_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, MigrationOutcome::Migrated);
    assert_eq!(reports[0].attempts, 1);
    assert_eq!(plane.injected(), 2);
    let trace = trace_string(&sim);
    assert!(trace.contains("chunk_reissue"), "re-issues must be traced");
}
