//! Figure 4 — Process Migration Overhead.
//!
//! "Time cost for a complete migration cycle, from the instant when the
//! migration is triggered, till all application processes resume
//! execution", decomposed into the four phases, for LU/BT/SP class C with
//! 64 processes on 8 compute nodes (8 per node) and one spare.
//!
//! Paper reference points: Phase 1 completes in tens of milliseconds;
//! Phase 2 in 0.4–0.8 s depending on image size; Phase 3 dominates
//! (file-based restart); Phase 4 roughly constant (~1 s); totals ≈
//! 6.3 s (LU) to ~11 s (BT).

use jobmig_bench::{
    fig4_migration, fig_migration_with, migration_report_json, secs, write_bench_json, APPS,
};
use jobmig_core::prelude::PoolConfig;
use telemetry::Json;

fn main() {
    println!("Figure 4: Process Migration Overhead (64 ranks, 8 nodes, 1 spare)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "app", "stall(s)", "migr(s)", "restart", "resume", "total(s)"
    );
    let mut rows = Vec::new();
    for app in APPS {
        let r = fig4_migration(app);
        rows.push(migration_report_json(&r).set(
            "app",
            npbsim::Workload::new(app, npbsim::NpbClass::C, 64).name(),
        ));
        println!(
            "{:<10} {} {} {} {} {}",
            npbsim::Workload::new(app, npbsim::NpbClass::C, 64).name(),
            secs(r.stall),
            secs(r.migrate),
            secs(r.restart),
            secs(r.resume),
            secs(r.total()),
        );
        // The shape assertions of the paper:
        assert!(r.stall.as_millis() < 100, "stall is tens of ms");
        assert!(
            (0.2..1.0).contains(&r.migrate.as_secs_f64()),
            "phase 2 in/near the 0.4-0.8 s band"
        );
        assert!(r.restart > r.migrate + r.resume, "phase 3 dominates");
    }
    // Barrier vs pipelined data path on the LU.C.64 reference config:
    // the pipelined preset overlaps the RDMA pull with per-rank restart
    // and staggers the restart disk reads.
    println!("\nPipelined data path (LU.C.64 reference config):");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "mode", "stall(s)", "migr(s)", "restart", "resume", "total(s)"
    );
    let print_row = |mode: &str, r: &jobmig_core::report::MigrationReport| {
        println!(
            "{:<22} {} {} {} {} {}",
            mode,
            secs(r.stall),
            secs(r.migrate),
            secs(r.restart),
            secs(r.resume),
            secs(r.total()),
        );
    };
    let barrier = fig_migration_with(npbsim::NpbApp::Lu, 64, 8, PoolConfig::barrier());
    print_row("barrier", &barrier);
    let piped = fig_migration_with(npbsim::NpbApp::Lu, 64, 8, PoolConfig::pipelined());
    print_row("pipelined", &piped);
    let pipe_rows = vec![
        migration_report_json(&barrier).set("mode", "barrier"),
        migration_report_json(&piped).set("mode", "pipelined"),
    ];
    let pipelined = piped.total();
    let improvement = 100.0 * (1.0 - pipelined.as_secs_f64() / barrier.total().as_secs_f64());
    println!("pipelined vs barrier: {improvement:.1}% faster end to end");
    assert!(
        improvement >= 10.0,
        "pipelined mode must cut migration time by >=10% (got {improvement:.1}%)"
    );
    let doc = Json::obj()
        .set("rows", rows)
        .set("pipeline_rows", pipe_rows)
        .set("barrier_total_ms", barrier.total().as_millis() as u64)
        .set("pipelined_total_ms", pipelined.as_millis() as u64)
        .set("improvement_pct", format!("{improvement:.1}").as_str());
    if let Some(p) = write_bench_json("fig4", &doc, false) {
        println!("wrote {}", p.display());
    }
    println!("\npaper: LU 6.3 s total; stall ~tens of ms; migrate 0.4-0.8 s; restart dominant");
}
