//! Fault-matrix smoke: every fault kind, across every protocol phase it
//! can reach, must leave the job either migrated or degraded to the CR
//! baseline — never hung, never lost — inside a bounded virtual-time
//! deadline. This is the grid the CI `fault-matrix` job runs.

use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::*;
use simkit::{SimTime, Simulation};

/// Run one scenario: a sized(2, 1) cluster, LU.A.4 at 2 ppn, the given
/// fault plan installed before launch, a migration trigger at t+10 s, and
/// a hard virtual-time deadline. Returns the outcome counters.
fn run_scenario(name: &str, seed: u64, plan: FaultPlan) -> OutcomeCounts {
    let mut sim = Simulation::new(seed);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    cluster.install_fault_plane(&plan);
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    let run = sim.run_until_set(rt.completion(), deadline);
    assert!(
        run.is_ok(),
        "[{name}] job hung past the virtual deadline: {run:?}"
    );
    assert!(rt.is_complete(), "[{name}] job did not complete");
    let outcomes = rt.migration_outcomes();
    assert_eq!(
        outcomes.total(),
        1,
        "[{name}] trigger unaccounted for: {outcomes:?}"
    );
    assert_eq!(outcomes.lost, 0, "[{name}] trigger lost: {outcomes:?}");
    // Refinement check: whatever the fault did, the observed event
    // sequence must still be derivable from the protocol model.
    let report = protoverify::observe_trace(&sim.handle().tracer().drain_events());
    if let Some(v) = &report.violation {
        panic!("[{name}] trace does not refine the protocol model:\n{v}");
    }
    outcomes
}

#[test]
fn spare_crash_at_every_phase_completes_or_degrades() {
    for (i, phase) in MigPhase::ALL.iter().enumerate() {
        let name = format!("spare_crash_{}", phase.name());
        let plan = FaultPlan::new().with(FaultSpec::SpareCrash {
            phase: *phase,
            attempt: 1,
        });
        let outcomes = run_scenario(&name, 40 + i as u64, plan);
        // One spare, and it dies: the only recovery path is the CR
        // baseline.
        assert_eq!(outcomes.fell_back_to_cr, 1, "[{name}] {outcomes:?}");
    }
}

#[test]
fn io_faults_complete_or_degrade() {
    // BLCR dump failure at the source kills that cycle; the retry (the
    // spare survives a timeout abort) succeeds.
    let o = run_scenario(
        "blcr_write_error",
        50,
        FaultPlan::new().with(FaultSpec::BlcrWriteError { nth: 1 }),
    );
    assert_eq!(o.migrated_after_retry, 1, "[blcr_write_error] {o:?}");

    // RDMA faults are absorbed by per-chunk re-issue within the attempt.
    let o = run_scenario(
        "rdma_cq_error",
        51,
        FaultPlan::new().with(FaultSpec::RdmaCqError { nth: 1 }),
    );
    assert_eq!(o.migrated, 1, "[rdma_cq_error] {o:?}");
    let o = run_scenario(
        "rdma_corrupt",
        52,
        FaultPlan::new().with(FaultSpec::RdmaCorrupt { nth: 2 }),
    );
    assert_eq!(o.migrated, 1, "[rdma_corrupt] {o:?}");

    // Store faults only bite once the spare's death has forced the CR
    // fallback: the dump hits the fault and the bounded retry rides it
    // out (one-shot faults don't re-fire).
    for (name, seed, fault, nth) in [
        ("store_disk_full_on_fallback", 53, StoreFault::DiskFull, 1),
        ("store_io_error_on_fallback", 54, StoreFault::IoError, 2),
    ] {
        let plan = FaultPlan::new()
            .with(FaultSpec::SpareCrash {
                phase: MigPhase::Migrate,
                attempt: 1,
            })
            .with(FaultSpec::StoreWrite { fault, nth });
        let o = run_scenario(name, seed, plan);
        assert_eq!(o.fell_back_to_cr, 1, "[{name}] {o:?}");
    }
}

#[test]
fn network_faults_complete_or_degrade() {
    // Silent datagram loss and visible link flaps on either network,
    // opened right as the migration window starts. Phase deadlines
    // guarantee forward progress whichever control message is hit.
    let windows: [(&str, u64, FaultSpec); 4] = [
        (
            "gige_drop_window",
            60,
            FaultSpec::NetDrop {
                net: NetSel::Gige,
                after: secs(10),
                count: 3,
            },
        ),
        (
            "gige_flap_window",
            61,
            FaultSpec::LinkFlap {
                net: NetSel::Gige,
                at: secs(10),
                lasts: ms(800),
            },
        ),
        (
            "ib_drop_window",
            62,
            FaultSpec::NetDrop {
                net: NetSel::Ib,
                after: secs(10),
                count: 3,
            },
        ),
        (
            "ib_flap_window",
            63,
            FaultSpec::LinkFlap {
                net: NetSel::Ib,
                at: secs(10),
                lasts: ms(500),
            },
        ),
    ];
    for (name, seed, spec) in windows {
        let o = run_scenario(name, seed, FaultPlan::new().with(spec));
        // Whatever the loss hits, the trigger must resolve to a success
        // (possibly after a timeout-driven retry) or the CR fallback.
        assert!(
            o.migrated + o.migrated_after_retry + o.fell_back_to_cr == 1,
            "[{name}] {o:?}"
        );
    }
}
