//! # jobmig-bench — experiment runners for every figure and table
//!
//! Each function reproduces one measurement from the paper's §IV on the
//! simulated testbed, returning structured results; the `benches/`
//! targets print them as paper-style tables. `EXPERIMENTS.md` records the
//! measured-vs-paper comparison.

#![forbid(unsafe_code)]

pub mod ftpolicy;

use jobmig_core::bufpool::{PoolConfig, RestartMode, Transport};
use jobmig_core::prelude::*;
use jobmig_core::report::CrStoreKind;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::{dur, SimTime, Simulation};
use std::time::Duration;

/// The three applications of the paper's evaluation.
pub const APPS: [NpbApp; 3] = [NpbApp::Lu, NpbApp::Bt, NpbApp::Sp];

/// Deterministic seed used by all experiment runs.
pub const SEED: u64 = 2010;

fn paper_cluster(sim: &Simulation) -> Cluster {
    Cluster::build(&sim.handle(), ClusterSpec::paper_testbed())
}

/// Drive `sim` until `pred` holds, stepping by 5 virtual seconds
/// (bounded; panics if the predicate never holds — a protocol bug).
pub fn run_until_pred(sim: &mut Simulation, mut pred: impl FnMut() -> bool, max_secs: u64) {
    let mut elapsed = 0;
    while !pred() {
        assert!(
            elapsed < max_secs,
            "experiment did not converge in {max_secs}s"
        );
        sim.run_for(dur::secs(5)).expect("simulation");
        elapsed += 5;
    }
}

// ---------------------------------------------------------------------------
// Figure 4 — process migration overhead (phase decomposition)
// ---------------------------------------------------------------------------

/// One Figure 4 bar: run `app`.C.64 on 8 nodes, migrate one node at
/// t = 30 s, return the phase-decomposed report.
pub fn fig4_migration(app: NpbApp) -> jobmig_core::report::MigrationReport {
    fig_migration_with(app, 64, 8, PoolConfig::default())
}

/// Shared runner: a paper-testbed migration with the given geometry and
/// pool configuration (also used by Figure 6 and the ablations).
pub fn fig_migration_with(
    app: NpbApp,
    np: u32,
    ppn: u32,
    pool: PoolConfig,
) -> jobmig_core::report::MigrationReport {
    fig_migration_observed(app, np, ppn, pool, |_| {})
}

/// Like [`fig_migration_with`] but exposing the simulation handle before
/// the run starts, so callers can arm tracing/digesting or stash the
/// handle for post-run inspection (used by the determinism oracle and the
/// wall-clock bench).
pub fn fig_migration_observed(
    app: NpbApp,
    np: u32,
    ppn: u32,
    pool: PoolConfig,
    observe: impl FnOnce(&simkit::SimHandle),
) -> jobmig_core::report::MigrationReport {
    let mut sim = Simulation::new(SEED);
    observe(&sim.handle());
    let cluster = paper_cluster(&sim);
    let wl = Workload::new(app, NpbClass::C, np);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, ppn));
    rt.control()
        .migrate_after(dur::secs(30), MigrationRequest::new().tuning(pool));
    let rt2 = rt.clone();
    run_until_pred(&mut sim, move || !rt2.migration_reports().is_empty(), 600);
    rt.migration_reports()[0].clone()
}

/// The determinism oracle's fault-matrix scenario: a sized(2,1) cluster,
/// LU.A.4 at 2 ppn, seed 51, one RDMA CQ error during the migration
/// window triggered at t = 10 s (the CI fault-matrix grid's
/// `rdma_cq_error` cell). `observe` sees the simulation handle before the
/// cluster is built. Returns whether the job completed.
pub fn fault_matrix_observed(observe: impl FnOnce(&simkit::SimHandle)) -> bool {
    let mut sim = Simulation::new(51);
    observe(&sim.handle());
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    cluster.install_fault_plane(&FaultPlan::new(0xB1).with(FaultSpec::RdmaCqError { nth: 1 }));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + dur::secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(dur::secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), deadline)
        .expect("fault-matrix scenario hung");
    rt.is_complete()
}

/// Tuning-aware runner: like [`fig_migration_with`] but passing a full
/// [`MigrationTuning`] (data-path mode *and* live pre-copy config) and
/// capturing the per-round wire bytes from the `round_verdict` trace
/// instants. Returns the report plus one byte count per completed
/// pre-copy round (empty for stop-and-copy tunings).
pub fn fig_migration_tuned(
    app: NpbApp,
    np: u32,
    ppn: u32,
    tuning: MigrationTuning,
) -> (jobmig_core::report::MigrationReport, Vec<u64>) {
    let mut handle = None;
    let report = fig_migration_observed(app, np, ppn, tuning, |h| {
        h.tracer().set_enabled(true);
        handle = Some(h.clone());
    });
    let round_bytes = handle
        .expect("observed")
        .tracer()
        .drain_events()
        .iter()
        .filter(|e| e.name == "round_verdict")
        .filter_map(|e| {
            e.args.iter().find_map(|(k, v)| match (*k, v) {
                ("bytes", simkit::ArgValue::U64(b)) => Some(*b),
                _ => None,
            })
        })
        .collect();
    (report, round_bytes)
}

// ---------------------------------------------------------------------------
// Figure 5 — application execution time with/without one migration
// ---------------------------------------------------------------------------

/// One Figure 5 pair: total runtime of `app`.C.64 without and with one
/// mid-run migration.
pub struct Fig5Row {
    /// Application name (e.g. "LU.C.64").
    pub name: String,
    /// Migration-free runtime.
    pub base: Duration,
    /// Runtime including one migration at t = 30 s.
    pub with_migration: Duration,
}

impl Fig5Row {
    /// Relative overhead of the migration.
    pub fn overhead(&self) -> f64 {
        (self.with_migration.as_secs_f64() - self.base.as_secs_f64()) / self.base.as_secs_f64()
    }
}

/// Run the Figure 5 measurement for one application.
pub fn fig5_app_overhead(app: NpbApp) -> Fig5Row {
    let name = Workload::new(app, NpbClass::C, 64).name();
    let base = full_run(app, false);
    let with_migration = full_run(app, true);
    Fig5Row {
        name,
        base,
        with_migration,
    }
}

fn full_run(app: NpbApp, migrate: bool) -> Duration {
    let mut sim = Simulation::new(SEED);
    let cluster = paper_cluster(&sim);
    let wl = Workload::new(app, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    if migrate {
        rt.control()
            .migrate_after(dur::secs(30), MigrationRequest::new());
    }
    sim.run_until_set(rt.completion(), SimTime::MAX)
        .expect("simulation");
    if migrate {
        assert_eq!(rt.migration_reports().len(), 1);
    }
    Duration::from_nanos(sim.now().as_nanos())
}

// ---------------------------------------------------------------------------
// Figure 6 — migration scalability vs processes per node (LU.C, 8 nodes)
// ---------------------------------------------------------------------------

/// One Figure 6 point: LU.C with `ppn` processes per node on 8 nodes
/// (np = 8 × ppn), one migration.
pub fn fig6_point(ppn: u32) -> jobmig_core::report::MigrationReport {
    fig_migration_with(NpbApp::Lu, 8 * ppn, ppn, PoolConfig::default())
}

// ---------------------------------------------------------------------------
// Figure 7 — migration vs Checkpoint/Restart (ext3, PVFS)
// ---------------------------------------------------------------------------

/// One Figure 7 panel: the migration cycle and both CR cycles (including
/// measured restart) for one application.
pub struct Fig7Panel {
    /// Application name.
    pub name: String,
    /// The migration report.
    pub migration: jobmig_core::report::MigrationReport,
    /// CR to local ext3 (restart measured).
    pub cr_ext3: jobmig_core::report::CrReport,
    /// CR to PVFS (restart measured).
    pub cr_pvfs: jobmig_core::report::CrReport,
}

/// Run the Figure 7 measurement for one application.
pub fn fig7_panel(app: NpbApp) -> Fig7Panel {
    Fig7Panel {
        name: Workload::new(app, NpbClass::C, 64).name(),
        migration: fig4_migration(app),
        cr_ext3: cr_cycle(app, CrStoreKind::LocalExt3),
        cr_pvfs: cr_cycle(app, CrStoreKind::Pvfs),
    }
}

/// A full CR cycle (checkpoint at t = 30 s, failure + restart once the
/// checkpoint completes) for `app`.C.64.
pub fn cr_cycle(app: NpbApp, store: CrStoreKind) -> jobmig_core::report::CrReport {
    let mut sim = Simulation::new(SEED);
    let cluster = paper_cluster(&sim);
    let wl = Workload::new(app, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    let rt2 = rt.clone();
    sim.handle().spawn_daemon("cr-script", move |ctx| {
        ctx.sleep(dur::secs(30));
        rt2.control().checkpoint(CheckpointRequest::to(store));
        // wait until the checkpoint cycle has been reported, then fail
        loop {
            ctx.sleep(dur::secs(1));
            if !rt2.cr_reports().is_empty() {
                break;
            }
        }
        rt2.control().restart_from_checkpoint(1);
    });
    let rt3 = rt.clone();
    run_until_pred(
        &mut sim,
        move || {
            rt3.cr_reports()
                .first()
                .map(|r| r.restart.is_some())
                .unwrap_or(false)
        },
        600,
    );
    rt.cr_reports()[0].clone()
}

// ---------------------------------------------------------------------------
// Table I — amount of data movement
// ---------------------------------------------------------------------------

/// One Table I row: bytes moved by a migration vs dumped by a CR cycle.
pub struct Table1Row {
    /// Application name.
    pub name: String,
    /// Bytes the migration moved over RDMA.
    pub migration_bytes: u64,
    /// Bytes the coordinated checkpoint dumped.
    pub cr_bytes: u64,
}

/// Run the Table I measurement for one application (CR to local ext3; the
/// volume is storage-independent).
pub fn table1_row(app: NpbApp) -> Table1Row {
    let name = Workload::new(app, NpbClass::C, 64).name();
    let migration_bytes = fig4_migration(app).bytes_moved;
    // checkpoint-only run (no restart needed for byte accounting)
    let mut sim = Simulation::new(SEED);
    let cluster = paper_cluster(&sim);
    let wl = Workload::new(app, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    let rt2 = rt.clone();
    sim.handle().spawn_daemon("t", move |ctx| {
        ctx.sleep(dur::secs(30));
        rt2.control()
            .checkpoint(CheckpointRequest::to(CrStoreKind::LocalExt3));
    });
    let rt3 = rt.clone();
    run_until_pred(&mut sim, move || !rt3.cr_reports().is_empty(), 600);
    Table1Row {
        name,
        migration_bytes,
        cr_bytes: rt.cr_reports()[0].bytes_written,
    }
}

// ---------------------------------------------------------------------------
// Ablations (beyond the paper)
// ---------------------------------------------------------------------------

/// Restart-mode ablation: file-based (the paper) vs memory-based (its
/// stated future work), LU.C.64.
pub fn ablation_restart_mode() -> (
    jobmig_core::report::MigrationReport,
    jobmig_core::report::MigrationReport,
) {
    let file = fig4_migration(NpbApp::Lu);
    let mem = fig_migration_with(
        NpbApp::Lu,
        64,
        8,
        PoolConfig {
            restart_mode: RestartMode::MemoryBased,
            ..PoolConfig::default()
        },
    );
    (file, mem)
}

/// Transport ablation: RDMA Read vs IPoIB staged copy, LU.C.64.
pub fn ablation_transport() -> (
    jobmig_core::report::MigrationReport,
    jobmig_core::report::MigrationReport,
) {
    let rdma = fig4_migration(NpbApp::Lu);
    let ipoib = fig_migration_with(
        NpbApp::Lu,
        64,
        8,
        PoolConfig {
            transport: Transport::IpoibStaged,
            ..PoolConfig::default()
        },
    );
    (rdma, ipoib)
}

/// Buffer-pool size sweep (paper §IV: overhead insensitive to pool size).
pub fn ablation_pool_sweep(pool_mb: &[u64]) -> Vec<(u64, jobmig_core::report::MigrationReport)> {
    pool_mb
        .iter()
        .map(|mb| {
            let r = fig_migration_with(
                NpbApp::Lu,
                64,
                8,
                PoolConfig {
                    pool_bytes: mb << 20,
                    ..PoolConfig::default()
                },
            );
            (*mb, r)
        })
        .collect()
}

/// Format a duration as seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:8.3}", d.as_secs_f64())
}

/// Format bytes as MB with one decimal.
pub fn mb(b: u64) -> String {
    format!("{:8.1}", b as f64 / 1e6)
}

// ---------------------------------------------------------------------------
// Fleet soak — multi-job orchestration under the policy engine
// ---------------------------------------------------------------------------

/// The reference fleet soak (see `fleetsched::FleetConfig::soak`): 8
/// concurrent LU jobs on 64 compute nodes, 4 shared spares, 12 node
/// failures over 2 simulated hours, each built-in policy compared
/// against the same failure schedule.
pub fn fleet_soak() -> fleetsched::SoakReport {
    fleetsched::run_soak(
        &fleetsched::FleetConfig::soak(SEED),
        &fleetsched::PolicyKind::ALL,
    )
}

/// Write `doc` as `BENCH_<name>.json`. Emission is opt-in through the
/// `BENCH_JSON` environment variable unless `always` is set (the fleet
/// soak's report is always written — it is the machine-readable
/// artifact CI archives). `BENCH_JSON_DIR` overrides the target
/// directory (default: current directory). Returns the path written.
pub fn write_bench_json(
    name: &str,
    doc: &telemetry::Json,
    always: bool,
) -> Option<std::path::PathBuf> {
    if !always && std::env::var_os("BENCH_JSON").is_none() {
        return None;
    }
    let dir = std::env::var_os("BENCH_JSON_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.render_pretty()).expect("write bench JSON artifact");
    Some(path)
}

/// A Figure 4/6-style migration report as a JSON object (millisecond
/// durations, byte-stable).
pub fn migration_report_json(r: &jobmig_core::report::MigrationReport) -> telemetry::Json {
    telemetry::Json::obj()
        .set("stall_ms", r.stall.as_millis() as u64)
        .set("migrate_ms", r.migrate.as_millis() as u64)
        .set("restart_ms", r.restart.as_millis() as u64)
        .set("resume_ms", r.resume.as_millis() as u64)
        .set("total_ms", r.total().as_millis() as u64)
        .set("precopy_ms", r.precopy.as_millis() as u64)
        .set("precopy_rounds", u64::from(r.precopy_rounds))
        .set("downtime_ms", r.downtime().as_millis() as u64)
        .set("ranks_moved", r.ranks_moved as u64)
}
