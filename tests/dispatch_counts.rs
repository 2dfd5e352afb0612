//! Pins the kernel's deterministic work counts for the Figure 4 LU.C.64
//! migration. The counts do not depend on the host, so any change that
//! adds or removes simulator work — FTB events flooded to agents with no
//! matching subscription, or FlowNet wakes re-pushed for flows whose
//! rate did not change — moves them and fails here until the pins are
//! updated on purpose. A timer push either inserts a process's wake or
//! re-keys the one it has; the re-keys are pinned on their own, and no
//! popped timer is ever stale.

use jobmig_core::bufpool::PoolConfig;
use npbsim::NpbApp;
use simkit::SimHandle;

/// Kernel dispatches of the whole run.
const TOTAL_DISPATCHES: u64 = 62_367;
/// Dispatches of the root FTB agent, on the login node.
const ROOT_AGENT_DISPATCHES: u64 = 519;
/// Timer-heap pushes of the whole run.
const TIMER_PUSHES: u64 = 71_172;
/// FlowNet completion wakes pushed (one per flow start or rate change).
const FLOW_RETIMES: u64 = 12_888;
/// Timer pushes that re-keyed a process's pending wake in place.
const TIMER_REKEYS: u64 = 8_731;

#[test]
fn fig4_lu_migration_dispatch_counts_are_pinned() {
    let mut handle: Option<SimHandle> = None;
    let report =
        jobmig_bench::fig_migration_observed(NpbApp::Lu, 64, 8, PoolConfig::default(), |sh| {
            handle = Some(sh.clone());
        });
    assert_eq!(report.ranks_moved, 8);
    let handle = handle.unwrap();
    let hot = handle.hot_stats();
    let names = handle.tracer().proc_names();
    let root_agent: u64 = hot
        .per_proc
        .iter()
        .filter(|(pid, _)| names.get(pid).map(String::as_str) == Some("ftb-agent@node0"))
        .map(|&(_, n)| n)
        .sum();
    assert_eq!(
        (hot.events_dispatched, root_agent),
        (TOTAL_DISPATCHES, ROOT_AGENT_DISPATCHES),
        "(total, ftb-agent@node0) dispatches moved"
    );
    assert_eq!(
        (hot.timer_pushes, hot.flow_retimes),
        (TIMER_PUSHES, FLOW_RETIMES),
        "(timer pushes, flow retimes) moved"
    );
    assert_eq!(hot.timer_rekeys, TIMER_REKEYS, "timer re-keys moved");
    assert_eq!(
        hot.stale_timers_skipped, 0,
        "the timer heap held a stale wake"
    );
}

/// (dispatches, timer pushes, flow retimes) of a tuned LU.C.64 cycle, and
/// its timer re-keys. The run is untraced: tracing records events but
/// schedules no work, so it moves none of these counts.
fn tuned_counts(tuning: jobmig_core::runtime::MigrationTuning) -> ((u64, u64, u64), u64) {
    let mut handle: Option<SimHandle> = None;
    let report = jobmig_bench::fig_migration_observed(NpbApp::Lu, 64, 8, tuning, |sh| {
        handle = Some(sh.clone());
    });
    assert_eq!(report.ranks_moved, 8);
    let hot = handle.unwrap().hot_stats();
    assert_eq!(
        hot.stale_timers_skipped, 0,
        "the timer heap held a stale wake"
    );
    (
        (hot.events_dispatched, hot.timer_pushes, hot.flow_retimes),
        hot.timer_rekeys,
    )
}

/// The overlap data path: per-rank restart, bounded admission.
///
/// Re-recorded when the striped multi-lane pull engine was deleted: the
/// pipelined preset ran two lanes, and now runs the paper's single-QP
/// engine. These are the counts of the previous engine at one lane; the
/// lane workers, stager and 50 µs manager poll no longer dispatch.
#[test]
fn pipelined_lu_migration_dispatch_counts_are_pinned() {
    let (counts, rekeys) = tuned_counts(jobmig_core::runtime::MigrationTuning::pipelined());
    assert_eq!(
        counts,
        (57_516, 65_553, 11_776),
        "(dispatches, timer pushes, flow retimes) moved"
    );
    assert_eq!(rekeys, 7_963, "timer re-keys moved");
}

/// Iterative pre-copy on top of the overlap data path.
///
/// Re-recorded with the pipelined pin above, for the same reason: every
/// pre-copy round and the residual round now pull on one QP. Equal to the
/// previous engine's counts at one lane.
#[test]
fn live_lu_migration_dispatch_counts_are_pinned() {
    let (counts, rekeys) = tuned_counts(jobmig_core::runtime::MigrationTuning::live());
    assert_eq!(
        counts,
        (61_940, 70_229, 12_520),
        "(dispatches, timer pushes, flow retimes) moved"
    );
    assert_eq!(rekeys, 8_215, "timer re-keys moved");
}
