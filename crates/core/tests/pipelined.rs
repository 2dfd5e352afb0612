//! The pipelined migration data path: outcome equivalence with barrier
//! mode under the fault matrix, and the per-rank pull/restart overlap.

use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use proptest::prelude::*;
use simkit::dur::*;
use simkit::{SimTime, Simulation};

/// One migration on a sized(2, 1) cluster with the given tuning and an
/// optional fault plan; returns the outcome counters.
fn run_with(seed: u64, plan: Option<&FaultPlan>, tuning: MigrationTuning) -> OutcomeCounts {
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
    // The overlapped data path must still refine the protocol model.
    let report = protoverify::observe_trace(&sim.handle().tracer().drain_events());
    if let Some(v) = &report.violation {
        panic!("[seed {seed}] trace does not refine the protocol model:\n{v}");
    }
    outcomes
}

/// The PR 2 fault matrix, as a strategy over single-fault plans.
fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    prop_oneof![
        (0u64..4).prop_map(|i| FaultSpec::SpareCrash {
            phase: MigPhase::ALL[i as usize],
            attempt: 1,
        }),
        (1u64..4).prop_map(|nth| FaultSpec::RdmaCqError { nth }),
        (2u64..5).prop_map(|nth| FaultSpec::RdmaCorrupt { nth }),
        (1u64..3).prop_map(|nth| FaultSpec::BlcrWriteError { nth }),
        (1u64..4).prop_map(|count| FaultSpec::NetDrop {
            net: NetSel::Gige,
            after: secs(10),
            count: count as u32,
        }),
        (300u64..900).prop_map(|m| FaultSpec::LinkFlap {
            net: NetSel::Gige,
            at: secs(10),
            lasts: ms(m),
        }),
    ]
}

#[test]
fn faultless_modes_agree_and_both_migrate() {
    let barrier = run_with(7, None, MigrationTuning::barrier());
    let pipelined = run_with(7, None, MigrationTuning::pipelined());
    assert_eq!(barrier.migrated, 1);
    assert_eq!(barrier, pipelined);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipelining must change *when* work happens, never *what* the
    /// trigger resolves to: under every fault in the matrix, barrier and
    /// pipelined runs of the same scenario land on identical
    /// [`OutcomeCounts`].
    #[test]
    fn pipelined_and_barrier_agree_under_faults(
        seed in 0u64..1_000,
        fault in fault_strategy(),
    ) {
        let plan = FaultPlan::new().with(fault);
        let barrier = run_with(seed, Some(&plan), MigrationTuning::barrier());
        let pipelined = run_with(seed, Some(&plan), MigrationTuning::pipelined());
        prop_assert_eq!(barrier, pipelined);
    }
}

/// The overlap itself: with the pipelined tuning, the first rank's
/// restart begins while another rank's chunks are still being pulled.
/// The two co-located ranks carry deliberately skewed images (2 MB vs
/// 48 MB) so their EOFs are far apart.
#[test]
fn early_rank_restarts_before_slowest_pull_completes() {
    use bytes::Bytes;
    use mpisim::MpiRank;
    use simkit::Ctx;

    let mut sim = Simulation::new(77);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let app = |ctx: &Ctx, rank: &mut MpiRank| {
        let r = rank.rank();
        let peer = r ^ 1; // pairs (0,1), (2,3)
        if rank.app_state().is_empty() {
            // Rank 0 (and 2): 2 MB; rank 1 (and 3): 48 MB.
            let mb = if r.is_multiple_of(2) { 2u64 } else { 48 };
            rank.set_segments(vec![blcrsim::Segment {
                kind: blcrsim::SegmentKind::Heap,
                data: ibfabric::DataSlice::pattern(r as u64 + 1, 0, mb << 20),
            }]);
        }
        let start = if rank.app_state().len() >= 4 {
            u32::from_le_bytes(rank.app_state()[..4].try_into().unwrap())
        } else {
            0
        };
        for it in start..300 {
            rank.exchange(ctx, peer, it as u64, 64 << 10);
            rank.compute(ctx, ms(40));
            rank.op_boundary(Bytes::copy_from_slice(&(it + 1).to_le_bytes()));
        }
    };
    let rt = JobRuntime::launch(&cluster, JobSpec::custom(4, 2, app));
    rt.control().migrate_after(
        secs(3),
        MigrationRequest::new().tuning(MigrationTuning::pipelined()),
    );
    sim.run_until_set(rt.completion(), SimTime::MAX)
        .expect("completion");
    assert_eq!(rt.migration_outcomes().migrated, 1);

    let events = sim.handle().tracer().drain_events();
    let last_pull = events
        .iter()
        .filter(|e| e.name == "chunk_pull")
        .map(|e| e.time)
        .max()
        .expect("chunk_pull instants");
    let first_restart = events
        .iter()
        .filter(|e| e.name == "restart_begin")
        .map(|e| e.time)
        .min()
        .expect("restart_begin instants");
    assert!(
        first_restart < last_pull,
        "pipelined mode must start an early rank's restart (t={first_restart}) \
         before the slowest rank's pull completes (t={last_pull})"
    );

    // And the per-rank readiness instants actually spread out: every
    // migrated rank got its own image_ready moment.
    let ready: Vec<_> = events
        .iter()
        .filter(|e| e.name == "rank_image_ready")
        .collect();
    assert_eq!(ready.len(), 2, "one readiness instant per migrated rank");
}

/// Peak number of Phase 3 `ckpt/restart` spans open at once on the
/// migration target, over a traced LU.A.16 run at 8 ranks per node, and
/// the number of ranks the migration moved.
fn peak_concurrent_restarts(tuning: MigrationTuning) -> (usize, usize) {
    use simkit::EventKind;

    let mut sim = Simulation::new(23);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let rt = JobRuntime::launch(
        &cluster,
        JobSpec::npb(Workload::new(NpbApp::Lu, NpbClass::A, 16), 8),
    );
    rt.control()
        .migrate_after(secs(5), MigrationRequest::new().tuning(tuning));
    for _ in 0..60 {
        if !rt.migration_reports().is_empty() {
            break;
        }
        sim.run_for(secs(5)).expect("simulation");
    }
    let report = rt.migration_reports()[0].clone();
    let names = sim.handle().tracer().proc_names();
    let (mut open, mut peak) = (0usize, 0usize);
    for ev in sim.handle().tracer().drain_events() {
        let worker = ev.pid.and_then(|p| names.get(&p.0));
        if ev.cat != "ckpt"
            || ev.name != "restart"
            || !worker.is_some_and(|n| n.starts_with("restart-r"))
        {
            continue;
        }
        match ev.kind {
            EventKind::Begin => {
                open += 1;
                peak = peak.max(open);
            }
            EventKind::End => open -= 1,
            _ => {}
        }
    }
    assert_eq!(open, 0, "every restart span closed");
    (peak, report.ranks_moved)
}

/// Restart admission is derived from `overlap`: the pipelined data path
/// restarts at most `calib::RESTART_ADMISSION` ranks at once on the
/// target and reaches that bound, while the barrier restarts every
/// migrated rank at once.
#[test]
fn restart_admission_bounds_concurrent_restarts() {
    let admission = jobmig_core::calib::RESTART_ADMISSION as usize;
    let (peak, moved) = peak_concurrent_restarts(MigrationTuning::pipelined());
    assert!(moved > admission, "{moved} ranks cannot test the bound");
    assert_eq!(peak, admission, "pipelined concurrent restarts");
    let (peak, moved) = peak_concurrent_restarts(MigrationTuning::barrier());
    assert_eq!(peak, moved, "barrier restarts every migrated rank at once");
}
