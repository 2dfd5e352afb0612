//! Pins the kernel's deterministic work counts for the Figure 4 LU.C.64
//! migration, its pipelined and live variants, and the quarter-horizon
//! fleet soak. The counts do not depend on the host, so any change that
//! adds or removes simulator work — FTB events flooded to agents with no
//! matching subscription, FlowNet wakes re-pushed for flows whose rate
//! did not change, or FlowNet rates recomputed on every arrival and
//! departure instead of once per net and instant — moves them and fails
//! here until the pins are updated on purpose. A timer push either
//! inserts a process's wake or re-keys the one it has; the re-keys are
//! pinned on their own, and no popped timer is ever stale.
//!
//! All four pins were re-recorded once when FlowNet began to settle
//! each net once per virtual instant. Flows that join or leave together
//! share one recompute, so flow recomputes, flow retimes and the timer
//! pushes they make fall. Dispatches fall too: a flow due at the instant
//! of a departure keeps its wake rather than being re-pushed behind the
//! wakes its departure caused, so the root FTB agent finds a whole
//! heartbeat wave queued and drains it in one dispatch. Every virtual
//! result is unchanged.
//!
//! All four were re-recorded again when the FTB agents lost their
//! per-node heartbeat processes. The pings they sent every period no
//! longer dispatch, cross GigE or wake the root agent, so dispatches,
//! timer pushes and FlowNet work fall. Timer re-keys and every virtual
//! result are unchanged.

use jobmig_core::bufpool::PoolConfig;
use npbsim::NpbApp;
use simkit::{HotStats, SimHandle};

/// Kernel dispatches of the whole run (62,051 with heartbeat processes,
/// 62,367 with per-event recomputes).
const TOTAL_DISPATCHES: u64 = 59_749;
/// Dispatches of the root FTB agent, on the login node (203 while it
/// received pings, 519 before).
const ROOT_AGENT_DISPATCHES: u64 = 124;
/// Timer-heap pushes of the whole run (64,468 with heartbeats, 71,172
/// before).
const TIMER_PUSHES: u64 = 62_156;
/// FlowNet completion wakes pushed (one per flow start or rate change;
/// 6,500 with heartbeats, 12,888 before).
const FLOW_RETIMES: u64 = 5_789;
/// FlowNet rate recomputes: one per stale net and instant (1,922 with
/// heartbeats, 8,468 before).
const FLOW_RECOMPUTES: u64 = 1_764;
/// Timer pushes that re-keyed a process's pending wake in place (8,731
/// before).
const TIMER_REKEYS: u64 = 2_343;

fn assert_no_stale_timer(hot: &HotStats) {
    assert_eq!(
        hot.stale_timers_skipped, 0,
        "the timer heap held a stale wake"
    );
}

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
        (hot.timer_pushes, hot.flow_retimes, hot.flow_recomputes),
        (TIMER_PUSHES, FLOW_RETIMES, FLOW_RECOMPUTES),
        "(timer pushes, flow retimes, flow recomputes) moved"
    );
    assert_eq!(hot.timer_rekeys, TIMER_REKEYS, "timer re-keys moved");
    assert_no_stale_timer(&hot);
}

/// (dispatches, timer pushes, flow retimes, flow recomputes) of a tuned
/// LU.C.64 cycle, and its timer re-keys. The run is untraced: tracing
/// records events but schedules no work, so it moves none of these
/// counts.
fn tuned_counts(tuning: jobmig_core::runtime::MigrationTuning) -> ((u64, u64, u64, u64), u64) {
    let mut handle: Option<SimHandle> = None;
    let report = jobmig_bench::fig_migration_observed(NpbApp::Lu, 64, 8, tuning, |sh| {
        handle = Some(sh.clone());
    });
    assert_eq!(report.ranks_moved, 8);
    let hot = handle.unwrap().hot_stats();
    assert_no_stale_timer(&hot);
    (
        (
            hot.events_dispatched,
            hot.timer_pushes,
            hot.flow_retimes,
            hot.flow_recomputes,
        ),
        hot.timer_rekeys,
    )
}

/// The overlap data path: per-rank restart, bounded admission.
///
/// Re-recorded when the striped multi-lane pull engine was deleted: the
/// pipelined preset ran two lanes, and now runs the paper's single-QP
/// engine. Those were the counts of the previous engine at one lane; the
/// lane workers, stager and 50 µs manager poll no longer dispatch. With
/// per-event recomputes they were (57,516, 65,553, 11,776, 7,780) and
/// 7,963 re-keys; with heartbeat processes (57,244, 59,669, 6,164,
/// 1,842).
#[test]
fn pipelined_lu_migration_dispatch_counts_are_pinned() {
    let (counts, rekeys) = tuned_counts(jobmig_core::runtime::MigrationTuning::pipelined());
    assert_eq!(
        counts,
        (55_233, 57_648, 5_543, 1_704),
        "(dispatches, timer pushes, flow retimes, flow recomputes) moved"
    );
    assert_eq!(rekeys, 2_351, "timer re-keys moved");
}

/// Iterative pre-copy on top of the overlap data path.
///
/// Re-recorded with the pipelined pin above, for the same reason: every
/// pre-copy round and the residual round now pull on one QP. With
/// per-event recomputes the counts were (61,940, 70,229, 12,520, 8,772)
/// and 8,215 re-keys; with heartbeat processes (61,664, 61,963, 4,530,
/// 2,033).
#[test]
fn live_lu_migration_dispatch_counts_are_pinned() {
    let (counts, rekeys) = tuned_counts(jobmig_core::runtime::MigrationTuning::live());
    assert_eq!(
        counts,
        (59_652, 59_941, 3_909, 1_895),
        "(dispatches, timer pushes, flow retimes, flow recomputes) moved"
    );
    assert_eq!(rekeys, 225, "timer re-keys moved");
}

/// The fleet soak cut to a quarter, as `twoclock`'s fleet workload and
/// the `fleet_quarter` golden digest run it: a 30-minute horizon with 3
/// dooms, under the proactive policy. Many of its flows start and end
/// at one shared instant, so per-event recomputes would multiply its
/// retimes: they were 188,401 dispatches, 142,436
/// recomputes and 891,316 retimes. With heartbeat processes they were
/// 182,494, 48,410 and 71,228.
#[test]
fn fleet_quarter_dispatch_counts_are_pinned() {
    let mut cfg = fleetsched::FleetConfig::soak(jobmig_bench::SEED);
    cfg.horizon = std::time::Duration::from_secs(1800);
    cfg.doom_count = 3;
    let mut handle: Option<SimHandle> = None;
    let stats = fleetsched::run_policy_observed(
        &cfg,
        fleetsched::PolicyKind::Proactive,
        &cfg.doom_plan(),
        |sh| handle = Some(sh.clone()),
    );
    assert!(stats.jobs_completed > 0);
    let hot = handle.unwrap().hot_stats();
    assert_no_stale_timer(&hot);
    assert_eq!(
        (hot.events_dispatched, hot.flow_recomputes, hot.flow_retimes),
        (145_550, 48_052, 59_056),
        "(dispatches, flow recomputes, flow retimes) moved"
    );
}
