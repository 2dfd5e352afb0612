//! Live migration walkthrough: iterative pre-copy vs stop-and-copy.
//!
//! Run with: `cargo run --release --example live_migration`
//!
//! The demo runs the Figure 4 reference migration (LU.C.64, 8 compute
//! nodes, one spare, trigger at t = 30 s) twice on the same seed:
//!
//! 1. **pipelined stop-and-copy** — the job suspends, then the whole
//!    image streams through the RDMA buffer pool with per-rank restart
//!    overlap;
//! 2. **live pre-copy** — round 0 streams the full image while the ranks
//!    keep computing, later rounds stream only the segments dirtied since
//!    the previous round, and the convergence controller (downtime-budget
//!    policy by default) suspends the job only for the short residual
//!    stop-and-copy round.
//!
//! Both runs are traced, so the comparison is shown twice: from the
//! in-band `MigrationReport` and independently from the trace via
//! `telemetry::Timeline`, whose `downtime()`/`precopy()` split separates
//! barrier-held from overlapped wall time. A convergence log (one
//! `round_verdict` line per pre-copy round) shows the controller's
//! decisions: bytes moved, dirty bytes pending, continue/cut-over.
//!
//! Pass `--rounds N` to cap the pre-copy rounds, `--budget MS` to change
//! the downtime budget the controller aims for.

use rdma_jobmig::prelude::*;
use rdma_jobmig::simkit::{ArgValue, TraceEvent};

fn usage() -> ! {
    eprintln!("usage: live_migration [--rounds N] [--budget MS]");
    std::process::exit(2);
}

/// One traced reference migration; returns the report and the trace.
fn run(tuning: MigrationTuning) -> (MigrationReport, Vec<TraceEvent>) {
    let mut sim = Simulation::new(2010);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::paper_testbed());
    let wl = Workload::new(NpbApp::Lu, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    rt.control().migrate_after(
        dur::secs(30),
        MigrationRequest::new().label("live-demo").tuning(tuning),
    );
    sim.run_until_set(rt.completion(), SimTime::MAX)
        .expect("simulation");
    assert_eq!(rt.migration_outcomes().lost, 0);
    (
        rt.migration_reports()[0].clone(),
        sim.handle().tracer().drain_events(),
    )
}

fn arg_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

fn arg_str<'e>(ev: &'e TraceEvent, key: &str) -> Option<&'e str> {
    ev.args.iter().find_map(|(k, v)| match v {
        ArgValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

fn main() {
    let mut cfg = LiveConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |what: &str| -> u32 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("invalid {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--rounds" => cfg.max_rounds = num("round cap"),
            "--budget" => cfg.downtime_budget_ms = num("budget (ms)"),
            _ => usage(),
        }
    }

    println!("reference migration: LU.C.64, 8 nodes + 1 spare, trigger at t=30s\n");

    let (base, _) = run(MigrationTuning::pipelined());
    println!("pipelined stop-and-copy:\n  {base}");

    let (live, events) = run(MigrationTuning {
        live: Some(cfg),
        ..MigrationTuning::live()
    });
    println!("\nlive pre-copy:\n  {live}");

    println!("\nconvergence log:");
    for ev in events.iter().filter(|e| e.name == "round_verdict") {
        println!(
            "  round {}: {:>6.1} MB moved, {:>6.1} MB still dirty -> {}",
            arg_u64(ev, "round").unwrap_or(0),
            arg_u64(ev, "bytes").unwrap_or(0) as f64 / 1e6,
            arg_u64(ev, "pending").unwrap_or(0) as f64 / 1e6,
            arg_str(ev, "verdict").unwrap_or("?"),
        );
    }

    // The same split, recovered from the trace alone.
    let tl = Timeline::from_events(&events);
    if let Some(stack) = tl.cycles().next().map(|(_, s)| s) {
        println!(
            "\ntrace-derived split: downtime {:.2} s, pre-copy {:.2} s (overlapped), wall {:.2} s",
            stack.downtime().as_secs_f64(),
            stack.precopy().as_secs_f64(),
            stack.wall().as_secs_f64(),
        );
    }

    let speedup = base.total().as_secs_f64() / live.downtime().as_secs_f64();
    println!(
        "\nbarrier-held downtime: {:.2} s -> {:.2} s ({speedup:.2}x lower); \
         wire bytes {:.1} MB -> {:.1} MB",
        base.total().as_secs_f64(),
        live.downtime().as_secs_f64(),
        base.bytes_moved as f64 / 1e6,
        live.bytes_moved as f64 / 1e6,
    );
    println!(
        "the job computes through the {} pre-copy round(s); only the residual \
         dirty segments move with the ranks suspended",
        live.precopy_rounds
    );
}
