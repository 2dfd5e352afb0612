//! End-to-end migration: a small NPB job survives a mid-run migration
//! with correct results, proper phase ordering and data accounting.

use jobmig_core::msgs::NlaState;
use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::*;
use simkit::{SimTime, Simulation};

fn small_job(sim: &Simulation, np: u32, ppn: u32) -> (Cluster, JobRuntime, Workload) {
    let spec = ClusterSpec::sized(np / ppn, 1);
    let cluster = Cluster::build(&sim.handle(), spec);
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, np);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl.clone(), ppn));
    (cluster, rt, wl)
}

#[test]
fn job_completes_without_migration() {
    let mut sim = Simulation::new(1);
    let (_c, rt, wl) = small_job(&sim, 4, 2);
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    // Base runtime: LU.A.4 → 160 * 64/4 s of modelled compute... scaled by
    // class A data; the runtime model keeps base_runtime regardless of
    // class, so just sanity-check it ran for roughly that long.
    let expect = wl.base_runtime.as_secs_f64();
    let ran = sim.now().as_secs_f64();
    assert!(
        ran > expect && ran < expect * 1.2,
        "ran {ran}s vs base {expect}s"
    );
    assert!(rt.migration_reports().is_empty());
}

#[test]
fn migration_moves_ranks_and_job_still_completes() {
    let mut sim = Simulation::new(2);
    let (cluster, rt, _wl) = small_job(&sim, 4, 2);
    let source = cluster.compute_nodes()[0];
    let spare = cluster.spare_nodes()[0];
    rt.control()
        .migrate_after(secs(30), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete(), "job must finish after migration");

    let reports = rt.migration_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.source, source);
    assert_eq!(r.target, spare);
    assert_eq!(r.ranks_moved, 2);
    // ranks 0 and 1 now live on the spare
    assert_eq!(rt.job().rank_node(0), spare);
    assert_eq!(rt.job().rank_node(1), spare);
    // NLA state machine followed the paper
    assert_eq!(rt.nla_state(source), Some(NlaState::MigrationInactive));
    assert_eq!(rt.nla_state(spare), Some(NlaState::MigrationReady));
    assert_eq!(rt.spares_left(), 0);

    // phase sanity: all positive, restart dominates stall
    assert!(r.stall > std::time::Duration::ZERO);
    assert!(r.migrate > std::time::Duration::ZERO);
    assert!(r.restart > r.stall);
    assert!(r.resume > std::time::Duration::ZERO);
    // data accounting: 2 ranks' images (~2 * image bytes + headers)
    let img = Workload::new(NpbApp::Lu, NpbClass::A, 4).per_proc_image();
    let lo = 2 * img;
    let hi = 2 * img + 4096;
    assert!(
        (lo..hi).contains(&r.bytes_moved),
        "moved {} expected ~{}",
        r.bytes_moved,
        lo
    );
}

#[test]
fn migration_is_deterministic() {
    fn run_once() -> (u64, u128) {
        let mut sim = Simulation::new(7);
        let (_c, rt, _wl) = small_job(&sim, 4, 2);
        rt.control()
            .migrate_after(secs(10), MigrationRequest::new());
        sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
        let r = &rt.migration_reports()[0];
        (r.bytes_moved, r.total().as_nanos())
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn two_sequential_migrations_with_two_spares() {
    let mut sim = Simulation::new(3);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 2));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(20), MigrationRequest::new());
    // second migration moves the other original node
    let rt2 = rt.clone();
    let n2 = cluster.compute_nodes()[1];
    sim.handle().spawn_daemon("second-trigger", move |ctx| {
        ctx.sleep(secs(300));
        rt2.control().migrate(MigrationRequest::new().from_node(n2));
    });
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    let reports = rt.migration_reports();
    assert_eq!(reports.len(), 2);
    assert_eq!(rt.spares_left(), 0);
    // all four ranks now live on the two former spares
    for r in 0..4 {
        let n = rt.job().rank_node(r);
        assert!(cluster.spare_nodes().contains(&n), "rank {r} on {n}");
    }
}

#[test]
fn migration_without_spare_fails_gracefully() {
    let mut sim = Simulation::new(4);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 0));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete(), "job unaffected by failed trigger");
    // With no spare the trigger degrades to a coordinated checkpoint:
    // the report records the fallback, and a CR report carries the dump.
    let reports = rt.migration_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].outcome, MigrationOutcome::FellBackToCr);
    assert_eq!(reports[0].ranks_moved, 0);
    let crs = rt.cr_reports();
    assert_eq!(crs.len(), 1);
    assert_eq!(crs[0].store, CrStoreKind::LocalExt3);
    assert!(crs[0].bytes_written > 0);
    assert_eq!(rt.migration_outcomes().fell_back_to_cr, 1);
}

#[test]
fn migration_overhead_is_small_fraction_of_runtime() {
    // the Fig. 5 property at small scale: one migration costs a few
    // percent of total runtime
    let base = {
        let mut sim = Simulation::new(5);
        let (_c, rt, _w) = small_job(&sim, 4, 2);
        sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
        sim.now().as_secs_f64()
    };
    let with_mig = {
        let mut sim = Simulation::new(5);
        let (_c, rt, _w) = small_job(&sim, 4, 2);
        rt.control()
            .migrate_after(secs(40), MigrationRequest::new());
        sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
        assert_eq!(rt.migration_reports().len(), 1);
        sim.now().as_secs_f64()
    };
    let overhead = (with_mig - base) / base;
    assert!(
        (0.0..0.12).contains(&overhead),
        "overhead {overhead} (base {base}, with {with_mig})"
    );
}

mod determinism {
    //! Property: one seed + one fault plan → one history. Two runs of the
    //! same configuration must produce byte-identical traces and identical
    //! migration reports, whatever faults the plan injects.

    use super::*;
    use proptest::prelude::*;

    fn plan(choice: u8) -> FaultPlan {
        match choice % 4 {
            0 => FaultPlan::new().with(FaultSpec::SpareCrash {
                phase: MigPhase::Restart,
                attempt: 1,
            }),
            1 => FaultPlan::new()
                .with(FaultSpec::RdmaCqError { nth: 1 })
                .with(FaultSpec::RdmaCorrupt { nth: 3 }),
            2 => FaultPlan::new().with(FaultSpec::BlcrWriteError { nth: 1 }),
            _ => FaultPlan::new().with(FaultSpec::LinkFlap {
                net: NetSel::Gige,
                at: secs(10),
                lasts: ms(700),
            }),
        }
    }

    /// One full faulted run → (chrome trace bytes, report debug dump).
    fn faulted_run(seed: u64, choice: u8) -> (String, String) {
        let mut sim = Simulation::new(seed);
        sim.handle().tracer().set_enabled(true);
        let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 2));
        cluster.install_fault_plane(&plan(choice));
        let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
        let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
        rt.control()
            .migrate_after(secs(10), MigrationRequest::new());
        sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
        let h = sim.handle();
        let trace = telemetry::chrome_trace(&h.tracer().drain_events(), &h.tracer().proc_names());
        let reports = format!("{:?} {:?}", rt.migration_reports(), rt.migration_outcomes());
        (trace, reports)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn same_seed_and_fault_plan_replay_byte_identically(
            seed in 1u64..512,
            choice in 0u8..4,
        ) {
            let (trace_a, reports_a) = faulted_run(seed, choice);
            let (trace_b, reports_b) = faulted_run(seed, choice);
            prop_assert!(trace_a == trace_b, "traces diverge for seed {seed}");
            prop_assert_eq!(reports_a, reports_b);
        }
    }
}
