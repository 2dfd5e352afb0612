//! Iterative pre-copy live migration: downtime shrinks against the
//! pipelined stop-and-copy baseline, the restarted images stay
//! byte-identical, and every fault path degrades to a classic cycle
//! instead of losing dirty segments.

use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::*;
use simkit::{ArgValue, SimTime, Simulation, TraceEvent};
use std::time::Duration;

/// One migration on a sized(2, 1) cluster with the given tuning and an
/// optional fault plan; returns the reports and the drained trace.
fn run_traced(
    seed: u64,
    plan: Option<&FaultPlan>,
    tuning: MigrationTuning,
) -> (OutcomeCounts, Vec<MigrationReport>, Vec<TraceEvent>) {
    let mut sim = Simulation::new(seed);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    if let Some(plan) = plan {
        cluster.install_fault_plane(plan);
    }
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new().tuning(tuning));
    sim.run_until_set(rt.completion(), deadline)
        .expect("job hung past the virtual deadline");
    assert!(rt.is_complete());
    let outcomes = rt.migration_outcomes();
    assert_eq!(outcomes.lost, 0, "no trigger may be lost: {outcomes:?}");
    let events = sim.handle().tracer().drain_events();
    // Live cycles must still refine the protocol model (the new
    // PrecopyRound/Cutover/FallbackStopCopy edges carry the proof).
    let report = protoverify::observe_trace(&events);
    if let Some(v) = &report.violation {
        panic!("[seed {seed}] trace does not refine the protocol model:\n{v}");
    }
    (outcomes, rt.migration_reports(), events)
}

/// Clean live migration: at least one pre-copy round runs while the job
/// computes, the cycle cuts over (no fallback), and the barrier-held
/// downtime lands strictly below the stop-and-copy baseline's.
#[test]
fn live_cuts_over_and_shrinks_downtime() {
    let (o_base, r_base, _) = run_traced(11, None, MigrationTuning::pipelined());
    assert_eq!(o_base.migrated, 1);
    let base = &r_base[0];
    assert_eq!(base.precopy_rounds, 0, "stop-and-copy runs no rounds");

    let (o_live, r_live, events) = run_traced(11, None, MigrationTuning::live());
    assert_eq!(o_live.migrated, 1, "live trigger must still migrate");
    let live = &r_live[0];
    assert!(
        live.precopy_rounds >= 1,
        "live mode must complete at least one pre-copy round, got {}",
        live.precopy_rounds
    );
    assert!(
        live.precopy > Duration::ZERO,
        "pre-copy wall time must be recorded"
    );
    // The controller must have decided CutOver, never Fallback.
    assert!(
        !events.iter().any(|e| e.name == "live_fallback"),
        "clean run must not fall back to stop-and-copy"
    );
    let verdicts: Vec<_> = events
        .iter()
        .filter(|e| e.name == "round_verdict")
        .collect();
    assert_eq!(
        verdicts.len() as u32,
        live.precopy_rounds,
        "one verdict instant per completed round"
    );
    let last_verdict = verdicts.last().and_then(|e| {
        e.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if *k == "verdict" => Some(s.clone()),
            _ => None,
        })
    });
    assert_eq!(
        last_verdict.as_deref(),
        Some("CutOver"),
        "final round verdict must be CutOver"
    );
    // The whole point: barrier-held downtime shrinks. The residual
    // stop-and-copy round moves only the dirtied tail of each image, so
    // migrate+restart collapse while stall/resume stay put.
    assert!(
        live.downtime() < base.downtime(),
        "live downtime {:?} must beat stop-and-copy {:?}",
        live.downtime(),
        base.downtime()
    );
    assert!(
        live.migrate + live.restart < base.migrate + base.restart,
        "residual transfer {:?}+{:?} must undercut the full-image transfer {:?}+{:?}",
        live.migrate,
        live.restart,
        base.migrate,
        base.restart
    );
    // Pre-copy bytes ride in bytes_moved: live moves at least a full
    // image's worth before the residual, so it transfers more in total.
    assert!(
        live.bytes_moved > base.bytes_moved,
        "live wire bytes {} must exceed stop-and-copy {}",
        live.bytes_moved,
        base.bytes_moved
    );
}

/// The restarted ranks resume from byte-identical state: the job runs to
/// completion after a live migration, which the runtime only allows when
/// every merged image's checksum matched the source's final checksum
/// (restart_one_rank re-verifies the accumulator + residual merge).
#[test]
fn live_migrated_job_completes_with_verified_images() {
    let (o, r, events) = run_traced(23, None, MigrationTuning::live());
    assert_eq!(o.migrated, 1);
    assert_eq!(r[0].ranks_moved, 2);
    // Per-rank restart readiness still fires exactly once per moved rank.
    let ready = events
        .iter()
        .filter(|e| e.name == "rank_image_ready")
        .count();
    assert_eq!(ready, 2, "one readiness instant per migrated rank");
    // And no checksum mismatch was ever reported.
    assert!(
        !events.iter().any(|e| e.name == "restart_rank_failed"),
        "no rank may fail checksum verification after the delta merge"
    );
}

/// CQ errors during a pre-copy round must not sink the trigger: single
/// errors are absorbed by the chunk reissue loop exactly as in
/// stop-and-copy, and a *persistent* error burst (every read failing,
/// exhausting `calib::CHUNK_RETRIES`) aborts the round's pull, which the
/// controller answers with a fallback to classic stop-and-copy — the
/// migration still completes.
#[test]
fn cq_error_mid_round_falls_back_to_stop_and_copy() {
    // One transient error: the round's chunk is reissued, live migration
    // proceeds to cutover as if nothing happened.
    let transient = FaultPlan::new().with(FaultSpec::RdmaCqError { nth: 1 });
    let (o, _, events) = run_traced(31, Some(&transient), MigrationTuning::live());
    assert_eq!(o.migrated, 1, "transient CQ error is absorbed: {o:?}");
    assert!(
        events.iter().any(|e| e.name == "chunk_reissue"),
        "the error must have been seen and reissued"
    );
    assert!(
        !events.iter().any(|e| e.name == "live_fallback"),
        "a single reissued chunk must not trigger a fallback"
    );

    // Persistent burst: CHUNK_RETRIES (4) is exhausted on the first
    // chunk of whichever lane the errors land on, aborting round 0's
    // pull. The controller falls back and the cycle completes as
    // stop-and-copy.
    let mut burst = FaultPlan::new();
    for nth in 1..=10 {
        burst = burst.with(FaultSpec::RdmaCqError { nth });
    }
    let (o, r, events) = run_traced(31, Some(&burst), MigrationTuning::live());
    assert_eq!(
        o.migrated + o.migrated_after_retry,
        1,
        "trigger must still complete after the fallback: {o:?}"
    );
    assert!(
        events.iter().any(|e| e.name == "live_fallback"),
        "a failed round must surface as an explicit fallback"
    );
    // The fallback cycle streams full images — a classic stop-and-copy
    // profile even though a round was attempted first.
    assert_eq!(r[0].precopy_rounds, 0, "no round completed before fallback");
    assert!(r[0].bytes_moved > 0);
}

/// Spare death during the pre-copy phase aborts the attempt; the retry
/// runs classic stop-and-copy on the next spare — but sized(2, 1) has
/// only one spare, so the trigger degrades to the CR baseline instead of
/// being lost.
#[test]
fn spare_crash_during_precopy_degrades_cleanly() {
    let plan = FaultPlan::new().with(FaultSpec::SpareCrash {
        phase: MigPhase::Precopy,
        attempt: 1,
    });
    let (o, _, _) = run_traced(41, Some(&plan), MigrationTuning::live());
    assert_eq!(o.lost, 0);
    assert_eq!(
        o.migrated + o.migrated_after_retry + o.fell_back_to_cr,
        1,
        "the trigger must resolve: {o:?}"
    );
}
