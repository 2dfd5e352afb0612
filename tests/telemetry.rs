//! End-to-end telemetry: determinism, Timeline-vs-report consistency,
//! chrome-trace export, and event counts over a real migration.

use rdma_jobmig::prelude::*;
use rdma_jobmig::simkit::{EventKind, TraceEvent};

/// Run one migration of LU.A.4 on a 2+1 cluster with tracing enabled;
/// return the trace and the migration report.
fn traced_run(seed: u64) -> (Vec<TraceEvent>, MigrationReport) {
    let mut sim = Simulation::new(seed);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(dur::secs(3), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    let events = sim.handle().tracer().drain_events();
    let report = rt.migration_reports()[0].clone();
    (events, report)
}

#[test]
fn same_seed_produces_identical_traces() {
    let (a, ra) = traced_run(5);
    let (b, rb) = traced_run(5);
    assert_eq!(ra.total(), rb.total(), "reports must agree");
    assert_eq!(a.len(), b.len(), "trace lengths must agree");
    for (ea, eb) in a.iter().zip(&b) {
        assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
    }
}

#[test]
fn timeline_phase_totals_match_migration_report() {
    let (events, report) = traced_run(6);
    let tl = Timeline::from_events(&events);
    let stack = tl.cycle(report.cycle).expect("cycle traced");
    assert_eq!(stack.phase("stall"), Some(report.stall));
    assert_eq!(stack.phase("migrate"), Some(report.migrate));
    assert_eq!(stack.phase("restart"), Some(report.restart));
    assert_eq!(stack.phase("resume"), Some(report.resume));
    assert_eq!(stack.total(), report.total());
    let rendered = tl.render();
    for phase in ["stall", "migrate", "restart", "resume"] {
        assert!(rendered.contains(phase), "render missing {phase}");
    }
}

#[test]
fn chrome_export_contains_all_phases_and_chunk_events() {
    let (events, _) = traced_run(7);
    let names = std::collections::HashMap::new();
    let json = chrome_trace(&events, &names);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    for phase in ["stall", "migrate", "restart", "resume"] {
        assert!(
            json.contains(&format!("\"name\":\"{phase}\",\"cat\":\"phase\"")),
            "missing phase span {phase}"
        );
    }
    // Per-chunk RDMA Reads on the target pull path and pool lifecycle.
    assert!(json.contains("\"name\":\"read\",\"cat\":\"rdma\""));
    assert!(json.contains("\"name\":\"chunk_submit\",\"cat\":\"pool\""));
    assert!(json.contains("\"name\":\"chunk_pull\",\"cat\":\"pool\""));
}

#[test]
fn trace_counts_chunk_reads_and_one_migrate_event() {
    let (events, report) = traced_run(8);
    let count = |cat: &str, name: &str, kind: EventKind| {
        events
            .iter()
            .filter(|e| e.cat == cat && e.name == name && e.kind == kind)
            .count() as u64
    };
    let reads = count("rdma", "read", EventKind::Begin);
    // One RDMA Read per chunk (1 MB default): bytes_moved / 1 MB, at least.
    assert!(
        reads >= report.bytes_moved / (1 << 20),
        "expected >= {} chunk reads, saw {reads}",
        report.bytes_moved / (1 << 20),
    );
    assert!(count("pool", "chunk_submit", EventKind::Instant) > 0);
    assert_eq!(count("ftb", "FTB_MIGRATE", EventKind::Instant), 1);
}

#[test]
fn telemetry_off_records_nothing_and_run_is_identical() {
    // Control: same scenario without tracing → zero events, same timing.
    let (_, traced) = traced_run(9);
    let mut sim = Simulation::new(9);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(dur::secs(3), MigrationRequest::new());
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(sim.handle().tracer().drain_events().is_empty());
    let untraced = rt.migration_reports()[0].clone();
    assert_eq!(
        traced.total(),
        untraced.total(),
        "tracing must not perturb timing"
    );
}
