//! Extensions beyond the paper's implementation: memory-based restart
//! (the stated future work), the IPoIB staged-copy transport it argues
//! against, buffer-pool sensitivity, and health-triggered migrations.

use ftb::FtbClient;
use healthmon::{MonitorConfig, SensorKind, SensorProfile};
use jobmig_core::bufpool::{RestartMode, Transport};
use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::*;
use simkit::{SimTime, Simulation};
use std::time::Duration;

fn run_with_pool(mut f: impl FnMut(&mut PoolConfig)) -> jobmig_core::report::MigrationReport {
    let mut sim = Simulation::new(21);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let mut pool = PoolConfig::default();
    f(&mut pool);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(30), MigrationRequest::new().tuning(pool));
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    rt.migration_reports()[0].clone()
}

#[test]
fn memory_based_restart_eliminates_phase3_file_io() {
    let file = run_with_pool(|_| {});
    let mem = run_with_pool(|p| p.restart_mode = RestartMode::MemoryBased);
    assert_eq!(file.bytes_moved, mem.bytes_moved, "same data either way");
    assert!(
        mem.restart < file.restart / 2,
        "memory restart {:?} should be far below file restart {:?}",
        mem.restart,
        file.restart
    );
    assert!(mem.total() < file.total());
}

#[test]
fn ipoib_staged_copy_slows_phase2() {
    let rdma = run_with_pool(|_| {});
    let ipoib = run_with_pool(|p| p.transport = Transport::IpoibStaged);
    assert!(
        ipoib.migrate > rdma.migrate,
        "staged copy {:?} must exceed RDMA {:?}",
        ipoib.migrate,
        rdma.migrate
    );
}

#[test]
fn buffer_pool_size_is_not_the_bottleneck() {
    // The paper: "the process-migration overhead does not vary
    // significantly as buffer pool size changes" (Phase 3 dominates).
    let small = run_with_pool(|p| p.pool_bytes = 2 << 20);
    let big = run_with_pool(|p| p.pool_bytes = 40 << 20);
    let ratio = small.total().as_secs_f64() / big.total().as_secs_f64();
    assert!(
        (0.9..1.2).contains(&ratio),
        "pool size should barely matter: small {:?} vs big {:?}",
        small.total(),
        big.total()
    );
}

#[test]
fn tiny_chunks_hurt_phase2() {
    let normal = run_with_pool(|_| {});
    // same pool capacity, 16x smaller chunks → 16x the protocol overhead
    let tiny = run_with_pool(|p| p.chunk_bytes = 64 << 10);
    assert!(
        tiny.migrate >= normal.migrate,
        "64 KiB chunks {:?} should not beat 1 MiB chunks {:?}",
        tiny.migrate,
        normal.migrate
    );
}

#[test]
fn health_predicted_failure_triggers_migration_automatically() {
    let mut sim = Simulation::new(22);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let mut spec = JobSpec::npb(wl, 2);
    spec.auto_migrate_on_health = true;
    let rt = JobRuntime::launch(&cluster, spec);

    // Node 1's CPU begins overheating 20 s in: +0.5 °C/s from 62 °C,
    // predicted to cross the 90 °C critical line long before it does.
    let sick = cluster.compute_nodes()[0];
    let client = FtbClient::connect(cluster.ftb(), sick, "ipmi");
    healthmon::spawn_monitor(
        &sim.handle(),
        sick,
        vec![
            SensorProfile::deteriorating(
                SensorKind::TemperatureC,
                62.0,
                0.4,
                Duration::from_secs(20),
                0.5,
            ),
            SensorProfile::healthy(SensorKind::FanRpm, 8000.0, 150.0),
        ],
        client,
        MonitorConfig::default(),
    );

    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    let reports = rt.migration_reports();
    assert_eq!(reports.len(), 1, "prediction must trigger exactly once");
    assert_eq!(reports[0].source, sick);
    // Proactive: the migration fired well before the critical crossing
    // (62→90 °C at 0.5 °C/s crosses at t ≈ 76 s).
    let done_by = reports[0].total();
    assert!(done_by < Duration::from_secs(40));
}

#[test]
fn healthy_node_never_triggers() {
    let mut sim = Simulation::new(23);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let mut spec = JobSpec::npb(wl, 2);
    spec.auto_migrate_on_health = true;
    let rt = JobRuntime::launch(&cluster, spec);
    for node in cluster.compute_nodes() {
        let client = FtbClient::connect(cluster.ftb(), *node, "ipmi");
        healthmon::spawn_monitor(
            &sim.handle(),
            *node,
            vec![
                SensorProfile::healthy(SensorKind::TemperatureC, 55.0, 2.0),
                SensorProfile::healthy(SensorKind::EccPerWindow, 0.2, 0.4),
            ],
            client,
            MonitorConfig::default(),
        );
    }
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.migration_reports().is_empty(), "no false positives");
    assert_eq!(rt.spares_left(), 1);
}
