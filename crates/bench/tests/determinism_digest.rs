//! The determinism oracle for simulator refactors and optimizations.
//!
//! Each test runs a reference scenario with the tracer in digest mode —
//! every trace event (times, pids, names, args) is folded into a running
//! FNV-1a hash, O(1) memory — and asserts the digest equals a **golden**
//! constant. Any change that shifts a single event time, reorders a
//! same-nanosecond tie-break, or changes an emitted string flips the hash.
//!
//! To re-record after an *intended* behavior change, copy the values
//! printed by the failing assertions and say below why they moved. To see
//! what moved, diff the output of the `digest_dump` example at the parent
//! commit against the change.

use jobmig_core::bufpool::PoolConfig;
use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::secs;
use simkit::{SimHandle, SimTime, Simulation, TraceDigest};

/// Golden digests. Format: (fnv1a64 hash, events folded).
///
/// Re-recorded when FTB moved from flooding to subscription routing: the
/// same events are emitted, but control events reach their subscribers
/// sooner because agents stop serializing sends to uninterested subtrees.
///
/// Re-recorded (fig4 and fleet; the fault matrix held) when FlowNet began
/// storing each flow's exact finish time and `Link` became a one-link
/// FlowNet. The same events are emitted at the same instants (the fleet
/// trace's events are the same multiset), but flows that complete at the
/// same nanosecond now have their wakes pushed in flow-id order, so
/// processes tied at one instant run in a different order.
const GOLDEN_FIG4: (u64, u64) = (4060167762376501576, 4913);
const GOLDEN_FAULT_MATRIX: (u64, u64) = (6725784159525433729, 209);
const GOLDEN_FLEET: (u64, u64) = (9897280989164930510, 115910);

fn assert_golden(name: &str, got: TraceDigest, want: (u64, u64)) {
    assert_eq!(
        (got.hash, got.events),
        want,
        "[{name}] trace digest diverged from the golden \
         (got hash 0x{:016x}, {} events) — the simulator changed \
         observable behavior",
        got.hash,
        got.events,
    );
}

/// Figure 4 scenario: LU.C.64 on the paper testbed, one migration at
/// t = 30 s.
#[test]
fn fig4_trace_is_byte_identical_to_pre_optimization() {
    let mut handle: Option<SimHandle> = None;
    let report =
        jobmig_bench::fig_migration_observed(NpbApp::Lu, 64, 8, PoolConfig::default(), |sh| {
            sh.tracer().set_digest_enabled(true);
            handle = Some(sh.clone());
        });
    assert!(report.total() > std::time::Duration::ZERO);
    let digest = handle.unwrap().tracer().digest();
    assert_golden("fig4", digest, GOLDEN_FIG4);
}

/// Fault-matrix scenario: sized(2,1) cluster, LU.A.4 at 2 ppn, an RDMA
/// CQ error during the migration window (same shape as the CI
/// fault-matrix grid's `rdma_cq_error` cell).
#[test]
fn fault_matrix_trace_is_byte_identical_to_pre_optimization() {
    let mut sim = Simulation::new(51);
    sim.handle().tracer().set_digest_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    cluster.install_fault_plane(&FaultPlan::new(0xB1).with(FaultSpec::RdmaCqError { nth: 1 }));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    sim.run_until_set(rt.completion(), deadline)
        .expect("fault-matrix scenario hung");
    assert!(rt.is_complete());
    assert_golden(
        "fault-matrix",
        sim.handle().tracer().digest(),
        GOLDEN_FAULT_MATRIX,
    );
}

/// Fleet-soak scenario: one policy (Proactive — the one exercising
/// health monitors, predictions, and live migrations) over the reference
/// soak config. Heavier than the other two; the CI determinism job runs
/// it via `--ignored`.
#[test]
#[ignore = "soak-length; run by the CI bench-wallclock/determinism job"]
fn fleet_soak_trace_is_byte_identical_to_pre_optimization() {
    let cfg = fleetsched::FleetConfig::soak(jobmig_bench::SEED);
    let mut handle: Option<SimHandle> = None;
    let stats = fleetsched::run_policy_observed(
        &cfg,
        fleetsched::PolicyKind::Proactive,
        &cfg.doom_plan(),
        |sh| {
            sh.tracer().set_digest_enabled(true);
            handle = Some(sh.clone());
        },
    );
    assert!(stats.jobs_completed > 0);
    assert_golden("fleet", handle.unwrap().tracer().digest(), GOLDEN_FLEET);
}
