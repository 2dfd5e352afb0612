//! Coordinated Checkpoint/Restart baseline: dump, resume, rollback
//! restart — and the core comparison property of the paper.

use jobmig_core::prelude::*;
use jobmig_core::report::CrStoreKind;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::*;
use simkit::{SimTime, Simulation};

fn job(sim: &Simulation, with_pvfs: bool) -> (Cluster, JobRuntime) {
    let mut spec = ClusterSpec::sized(2, 1);
    spec.with_pvfs = with_pvfs;
    let cluster = Cluster::build(&sim.handle(), spec);
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    (cluster, rt)
}

#[test]
fn checkpoint_to_ext3_and_continue() {
    let mut sim = Simulation::new(10);
    let (_c, rt) = job(&sim, false);
    let rt2 = rt.clone();
    sim.handle().spawn_daemon("ckpt-trigger", move |ctx| {
        ctx.sleep(secs(25));
        rt2.control()
            .checkpoint(CheckpointRequest::to(CrStoreKind::LocalExt3));
    });
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    let reports = rt.cr_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.store, CrStoreKind::LocalExt3);
    assert!(r.restart.is_none());
    // all four images dumped: 4 * per-proc image (plus headers)
    let img = Workload::new(NpbApp::Lu, NpbClass::A, 4).per_proc_image();
    assert!(r.bytes_written >= 4 * img);
    assert!(r.bytes_written < 4 * img + 8192);
    // dump at disk speed dominates the stall
    assert!(r.checkpoint > r.stall);
    assert!(r.resume > std::time::Duration::ZERO);
}

#[test]
fn checkpoint_to_pvfs_works_and_restarts() {
    // At 4 concurrent streams PVFS legitimately beats local ext3 — its
    // penalty only appears under the paper's 64-stream contention (the
    // Fig. 7 bench shows the crossover). Here we verify the PVFS dump and
    // rollback-restart path end to end.
    let mut sim = Simulation::new(11);
    let (_c, rt) = job(&sim, true);
    let rt2 = rt.clone();
    sim.handle().spawn_daemon("t", move |ctx| {
        ctx.sleep(secs(25));
        rt2.control()
            .checkpoint(CheckpointRequest::to(CrStoreKind::Pvfs));
        ctx.sleep(secs(60));
        rt2.control().restart_from_checkpoint(1);
    });
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    let r = &rt.cr_reports()[0];
    assert_eq!(r.store, CrStoreKind::Pvfs);
    let img = Workload::new(NpbApp::Lu, NpbClass::A, 4).per_proc_image();
    assert!(r.bytes_written >= 4 * img);
    assert!(r.restart.is_some(), "restart from PVFS measured");
}

#[test]
fn restart_from_checkpoint_rolls_back_and_completes() {
    let mut sim = Simulation::new(12);
    let (_c, rt) = job(&sim, false);
    let rt2 = rt.clone();
    sim.handle().spawn_daemon("script", move |ctx| {
        ctx.sleep(secs(25));
        rt2.control()
            .checkpoint(CheckpointRequest::to(CrStoreKind::LocalExt3));
        // let the job run on, then "fail" and restart from the checkpoint
        ctx.sleep(secs(120));
        rt2.control().restart_from_checkpoint(1);
    });
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete(), "job completes after rollback restart");
    let r = &rt.cr_reports()[0];
    let restart = r.restart.expect("restart measured");
    assert!(restart > std::time::Duration::from_millis(100));
    assert!(r.total_with_restart().unwrap() > r.checkpoint_cycle());
    // rollback re-executes work: total virtual runtime exceeds base run
    let base = {
        let mut sim2 = Simulation::new(12);
        let (_c2, rt2) = job(&sim2, false);
        sim2.run_until_set(rt2.completion(), SimTime::MAX).unwrap();
        sim2.now().as_secs_f64()
    };
    assert!(sim.now().as_secs_f64() > base + 30.0, "rollback redid work");
}

#[test]
fn migration_beats_full_cr_cycle() {
    // The paper's headline comparison, at test scale: handling a node
    // failure by migration is faster than checkpoint + restart.
    let mig_total = {
        let mut sim = Simulation::new(13);
        let (_c, rt) = job(&sim, false);
        rt.control()
            .migrate_after(secs(25), MigrationRequest::new());
        sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
        rt.migration_reports()[0].total()
    };
    let cr_total = {
        let mut sim = Simulation::new(13);
        let (_c, rt) = job(&sim, false);
        let rt2 = rt.clone();
        sim.handle().spawn_daemon("script", move |ctx| {
            ctx.sleep(secs(25));
            rt2.control()
                .checkpoint(CheckpointRequest::to(CrStoreKind::LocalExt3));
            ctx.sleep(secs(60));
            rt2.control().restart_from_checkpoint(1);
        });
        sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
        rt.cr_reports()[0].total_with_restart().unwrap()
    };
    assert!(
        mig_total < cr_total,
        "migration {mig_total:?} must beat CR cycle {cr_total:?}"
    );
}

#[test]
fn checkpoint_then_migration_compose() {
    let mut sim = Simulation::new(14);
    let (_c, rt) = job(&sim, false);
    let rt2 = rt.clone();
    sim.handle().spawn_daemon("script", move |ctx| {
        ctx.sleep(secs(20));
        rt2.control()
            .checkpoint(CheckpointRequest::to(CrStoreKind::LocalExt3));
        ctx.sleep(secs(60));
        rt2.control().migrate(MigrationRequest::new());
    });
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    assert_eq!(rt.cr_reports().len(), 1);
    assert_eq!(rt.migration_reports().len(), 1);
}

#[test]
fn checkpoint_cycles_leave_the_hca_tables_as_they_found_them() {
    let mut sim = Simulation::new(14);
    let (cluster, rt) = job(&sim, false);
    let rt2 = rt.clone();
    let counts = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let out = counts.clone();
    sim.handle().spawn_daemon("script", move |ctx| {
        let nodes = cluster.compute_nodes().to_vec();
        for cycle in 1..=3 {
            ctx.sleep(secs(20));
            rt2.control()
                .checkpoint(CheckpointRequest::to(CrStoreKind::LocalExt3));
            while rt2.cr_reports().len() < cycle {
                ctx.sleep(ms(100));
            }
            let (qps, mrs) = nodes.iter().fold((0, 0), |(q, m), &n| {
                let hca = cluster.fabric().attach(n);
                (q + hca.live_qps(), m + hca.live_mrs())
            });
            out.lock().push((qps, mrs));
        }
    });
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    let counts = counts.lock();
    assert_eq!(counts.len(), 3, "three checkpoint cycles ran");
    // Four ranks, each with one MR and a QP per peer.
    assert_eq!(counts[0], (4 * 3, 4), "after cycle 1");
    assert_eq!(counts[2], counts[0], "after cycle 3");
}
