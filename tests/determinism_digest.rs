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
//! (`fig4`, `fault-matrix`, `fleet` or `fleet-quarter`; it runs the same
//! scenarios) at the parent commit against the change; with
//! `--canonical` it sorts the events within each nanosecond, so a change
//! that only reorders same-instant tie-breaks gives identical canonical
//! dumps, and `--without <cat>/<name>` leaves out one kind of event.

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
///
/// Re-recorded (fig4 only; the fault matrix, fleet and fleet-quarter
/// held) when FlowNet began to settle each net once per virtual instant
/// instead of recomputing rates on every arrival and departure. One
/// `rdma read` Begin moved within its nanosecond (t = 30.044908007 s):
/// `digest_dump fig4 --canonical`, which sorts the events within each
/// nanosecond, prints the same dump before and after the change.
///
/// Re-recorded (all four) when the FTB agents lost their per-node
/// heartbeat processes. No agent's parent dies in these scenarios, so
/// the only events that went are the `log/spawned 'ftb-heartbeat@*'`
/// records, one per node: fig4 7,531 → 7,521, fault matrix 783 → 779,
/// fleet 296,356 → 296,287, fleet-quarter 74,605 → 74,536. Every later
/// process's pid is lower by the number of heartbeat spawns before it,
/// which changes the hash. With the pid column erased, the sorted
/// `digest_dump --canonical` dumps of fig4, the fault matrix and the
/// fleet differ from the previous ones by exactly those spawn records.
///
/// Re-recorded (all four) when a rank's endpoint rebuild began to create
/// and connect its QPs in one batch and record one `rdma/qp_connect`
/// instant for the batch (args `node`, `qps`) instead of one per QP (args
/// `node`, `peer`). Those instants are the only events that moved:
/// `digest_dump <scenario> --canonical --without rdma/qp_connect` prints
/// the same dump before and after the change for all four scenarios.
/// `qp_connect` instants, before → after: fig4 4,034 → 66, fault matrix
/// 14 → 6, fleet-quarter 6,784 → 976, fleet 27,020 → 3,884 (the buffer
/// pool's two per migration stay per QP). Event totals: fig4 7,521 →
/// 3,553, fault matrix 779 → 771, fleet-quarter 74,536 → 68,728, fleet
/// 296,287 → 273,151.
const GOLDEN_FIG4: (u64, u64) = (3976439335827880317, 3553);
const GOLDEN_FAULT_MATRIX: (u64, u64) = (5383965648379013071, 771);
const GOLDEN_FLEET: (u64, u64) = (6465003197422478544, 273151);
/// Recorded when it was added, before FlowNet wakes moved into timer
/// groups, so that change had to hold it exactly; so did the change to
/// one FlowNet settle per instant. Re-recorded with the others when the
/// heartbeat processes went and when the endpoint rebuild began to
/// connect its QPs in one batch (see above).
const GOLDEN_FLEET_QUARTER: (u64, u64) = (10059136229736435406, 68728);

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

/// The fleet soak cut to a quarter, as the `twoclock` fleet workload runs
/// it: a 30-minute horizon with 3 dooms. Cheap enough for every tier-1
/// run, it keeps the GigE FTB storms (dozens of flows re-timed at one
/// instant) under a digest.
#[test]
fn fleet_quarter_trace_is_byte_identical_to_pre_optimization() {
    let mut cfg = fleetsched::FleetConfig::soak(jobmig_bench::SEED);
    cfg.horizon = std::time::Duration::from_secs(1800);
    cfg.doom_count = 3;
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
    assert_golden(
        "fleet-quarter",
        handle.unwrap().tracer().digest(),
        GOLDEN_FLEET_QUARTER,
    );
}
