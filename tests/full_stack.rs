//! Workspace-level integration: exercises the public facade (`rdma_jobmig`)
//! across every crate boundary in one scenario each.

use rdma_jobmig::core::prelude::*;
use rdma_jobmig::core::report::CrStoreKind;
use rdma_jobmig::core::runtime::JobSpec;
use rdma_jobmig::npbsim::{NpbApp, NpbClass, Workload};
use rdma_jobmig::simkit::{dur, SimTime, Simulation};

#[test]
fn paper_testbed_migration_shape() {
    // The quickstart scenario, asserted: LU.C.64, one migration, phases
    // in the paper's shape.
    let mut sim = Simulation::new(2010);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::paper_testbed());
    let wl = Workload::new(NpbApp::Lu, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    rt.control()
        .migrate_after(dur::secs(30), MigrationRequest::new());
    // run only as far as the cycle needs (the full app takes ~160 s)
    let rt2 = rt.clone();
    while rt2.migration_reports().is_empty() {
        sim.run_for(dur::secs(10)).unwrap();
        assert!(sim.now() < SimTime::from_secs_f64(200.0), "cycle stuck");
    }
    let r = &rt.migration_reports()[0];
    // Table I: 170.4 MB (within stream-header noise)
    let mb = r.bytes_moved as f64 / 1e6;
    assert!((170.0..171.5).contains(&mb), "moved {mb} MB");
    // Fig. 4 shape
    assert!(r.stall.as_millis() < 100, "stall {:?}", r.stall);
    assert!(
        (0.2..0.9).contains(&r.migrate.as_secs_f64()),
        "phase 2 {:?}",
        r.migrate
    );
    assert!(r.restart > r.migrate, "phase 3 dominates phase 2");
    assert!(
        (0.5..2.0).contains(&r.resume.as_secs_f64()),
        "resume {:?}",
        r.resume
    );
    assert!(
        (4.0..12.0).contains(&r.total().as_secs_f64()),
        "total {:?}",
        r.total()
    );
}

#[test]
fn cr_to_pvfs_suffers_contention_at_scale() {
    // 64 concurrent checkpoint streams over 4 PVFS servers: the paper's
    // I/O-bottleneck story. Checkpoint must be far slower than to the 8
    // local disks, despite PVFS having server-class spindles.
    let ext3 = scale_checkpoint(CrStoreKind::LocalExt3);
    let pvfs = scale_checkpoint(CrStoreKind::Pvfs);
    assert!(
        pvfs.as_secs_f64() > 2.0 * ext3.as_secs_f64(),
        "PVFS {pvfs:?} should be >2x ext3 {ext3:?} at 64 streams"
    );
}

fn scale_checkpoint(store: CrStoreKind) -> std::time::Duration {
    let mut sim = Simulation::new(3);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::paper_testbed());
    let wl = Workload::new(NpbApp::Lu, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    let rt2 = rt.clone();
    sim.handle().spawn_daemon("t", move |ctx| {
        ctx.sleep(dur::secs(20));
        rt2.control().checkpoint(CheckpointRequest::to(store));
    });
    let rt3 = rt.clone();
    while rt3.cr_reports().is_empty() {
        sim.run_for(dur::secs(10)).unwrap();
        assert!(sim.now() < SimTime::from_secs_f64(300.0));
    }
    rt.cr_reports()[0].checkpoint
}

#[test]
fn migrated_job_result_is_bit_identical() {
    // Determinism across the *entire* stack: the virtual completion time
    // and traffic stats of a migrated run are reproducible exactly.
    fn run() -> (u64, u64, u64) {
        let mut sim = Simulation::new(77);
        let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
        let wl = Workload::new(NpbApp::Bt, NpbClass::A, 4);
        let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
        rt.control()
            .migrate_after(dur::secs(50), MigrationRequest::new());
        sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
        let st = rt.job().stats();
        (sim.now().as_nanos(), st.messages, st.bytes)
    }
    assert_eq!(run(), run());
}

#[test]
fn image_integrity_is_checked_end_to_end() {
    // The migration path verifies source-computed image checksums after
    // reassembly + restart; reaching completion implies every image
    // survived chunking, RDMA, file staging, and parsing bit-exact.
    let mut sim = Simulation::new(5);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let wl = Workload::new(NpbApp::Sp, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(dur::secs(30), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    assert_eq!(rt.migration_reports().len(), 1);
}

#[test]
fn restart_from_a_checkpoint_whose_dumps_failed_is_refused() {
    // Every BLCR write fails, so each rank uses up its dump retries. The
    // cycle is then incomplete, and a restart from it must be refused
    // without killing the job — no panic, no hang.
    let mut sim = Simulation::new(12);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    cluster.install_fault_plane(&(1..=50).fold(FaultPlan::new(), |p, nth| {
        p.with(FaultSpec::BlcrWriteError { nth })
    }));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + dur::secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    let ctl = rt.control();
    sim.handle().spawn_daemon("script", move |ctx| {
        ctx.sleep(dur::secs(25));
        ctl.checkpoint(CheckpointRequest::to(CrStoreKind::LocalExt3));
        ctx.sleep(dur::secs(120));
        ctl.restart_from_checkpoint(1);
    });
    sim.run_until_set(rt.completion(), deadline)
        .expect("the job must complete without a panic or a hang");
    assert!(sim.now() > SimTime::ZERO + dur::secs(145), "restart ran");
    let reports = rt.cr_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert!(!r.complete, "no rank's image is durable");
    assert_eq!(r.bytes_written, 0);
    assert!(r.restart.is_none(), "the restart must be refused");
}
