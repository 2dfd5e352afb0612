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
//! what moved, diff the output of `jobmig-bench`'s `digest_dump` example
//! (`fig4`, `fault-matrix` or `fleet`; it runs the same scenario functions)
//! at the parent commit against the change.

use jobmig_core::bufpool::PoolConfig;
use npbsim::NpbApp;
use simkit::{SimHandle, TraceDigest};

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
///
/// Re-recorded (fault matrix and fleet; fig4 held) when the striped
/// multi-lane pull engine was deleted. Fault matrix: the same events at
/// the same instants; only the `("lane", 0)` argument of `chunk_reissue`
/// is gone. Fleet: live migrations used to pull on two lanes and now pull
/// on one QP; the trace equals the previous engine's at one lane event
/// for event.
///
/// Re-recorded (all three) when spans and `telemetry_on()`-gated events
/// began to be built in digest-only runs. Before, `Span::open` and
/// `telemetry_on()` tested collection only, so a digest never folded a
/// `phase/*` span or any other span, and a change that moved only a span
/// boundary passed every golden. The simulation is unchanged; each digest
/// now folds the same events a collecting run records (fig4 7,531, fault
/// matrix 783, fleet 296,356).
const GOLDEN_FIG4: (u64, u64) = (3926710353137595242, 7531);
const GOLDEN_FAULT_MATRIX: (u64, u64) = (639705965089129597, 783);
const GOLDEN_FLEET: (u64, u64) = (13640947123385823924, 296356);

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

/// Fault-matrix scenario: [`jobmig_bench::fault_matrix_observed`], an
/// RDMA CQ error during a small cluster's migration window.
#[test]
fn fault_matrix_trace_is_byte_identical_to_pre_optimization() {
    let mut handle: Option<SimHandle> = None;
    let complete = jobmig_bench::fault_matrix_observed(|sh| {
        sh.tracer().set_digest_enabled(true);
        handle = Some(sh.clone());
    });
    assert!(complete);
    let digest = handle.unwrap().tracer().digest();
    assert_golden("fault-matrix", digest, GOLDEN_FAULT_MATRIX);
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
