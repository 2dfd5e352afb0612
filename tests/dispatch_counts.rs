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
//!
//! All four were re-recorded again when a rank's endpoint teardown and
//! rebuild began to pay their per-QP costs in one sleep each (one
//! `qp_destroy` sleep for every QP, one `cm_handshake` sleep for every
//! peer) instead of one sleep per QP. At 64 ranks that is 62 teardown
//! and 62 rebuild wakes fewer per rank and cycle: 7,936 dispatches and
//! timer pushes fewer in the LU.C.64 cycles, 11,616 dispatches in the
//! fleet quarter. FlowNet work, timer re-keys and every virtual result
//! are unchanged.

use jobmig_core::bufpool::PoolConfig;
use npbsim::NpbApp;
use simkit::{HotStats, SimHandle};

/// Kernel dispatches of the whole run (59,749 with one sleep per QP,
/// 62,051 with heartbeat processes, 62,367 with per-event recomputes).
const TOTAL_DISPATCHES: u64 = 51_813;
/// Dispatches of the root FTB agent, on the login node (203 while it
/// received pings, 519 before).
const ROOT_AGENT_DISPATCHES: u64 = 124;
/// Timer-heap pushes of the whole run (62,156 with one sleep per QP,
/// 64,468 with heartbeats, 71,172 before).
const TIMER_PUSHES: u64 = 54_220;
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
/// 1,842); with one sleep per QP (55,233, 57,648, 5,543, 1,704).
#[test]
fn pipelined_lu_migration_dispatch_counts_are_pinned() {
    let (counts, rekeys) = tuned_counts(jobmig_core::runtime::MigrationTuning::pipelined());
    assert_eq!(
        counts,
        (47_297, 49_712, 5_543, 1_704),
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
/// 2,033); with one sleep per QP (59,652, 59,941, 3,909, 1,895).
#[test]
fn live_lu_migration_dispatch_counts_are_pinned() {
    let (counts, rekeys) = tuned_counts(jobmig_core::runtime::MigrationTuning::live());
    assert_eq!(
        counts,
        (51_716, 52_005, 3_909, 1_895),
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
/// 182,494, 48,410 and 71,228; with one sleep per QP, 145,550 dispatches.
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
        (133_934, 48_052, 59_056),
        "(dispatches, flow recomputes, flow retimes) moved"
    );
}

/// One rank's endpoint cycle at 64 ranks (63 QPs) as the C/R thread runs
/// it: the teardown is one dispatch (its `qp_destroy` sleep for all 63
/// QPs) and a timed rebuild two (the MR registration, then every CM
/// handshake). Paid per QP they were 63 and 64.
#[test]
fn a_64_rank_endpoint_cycle_costs_three_dispatches() {
    use ibfabric::{IbConfig, IbFabric, NodeId};
    use mpisim::{MpiConfig, MpiJob};
    use std::sync::{Arc, Mutex};

    let mut sim = simkit::Simulation::new(0);
    let h = sim.handle();
    let fabric = IbFabric::new(&h, IbConfig::default());
    let nodes: Vec<NodeId> = (0..64).map(|r| NodeId(r / 8)).collect();
    let job = MpiJob::new(&h, fabric, &nodes, MpiConfig::default());
    let j = job.clone();
    sim.spawn("launch", move |ctx| {
        for r in 0..64 {
            j.cr(r).rebuild_endpoints(ctx, false);
        }
    });
    sim.run().unwrap();
    let costs = Arc::new(Mutex::new((0, 0)));
    let out = costs.clone();
    let cr = job.cr(5);
    sim.spawn("cr-thread", move |ctx| {
        let dispatched = || ctx.hot_stats().events_dispatched;
        let start = dispatched();
        assert_eq!(cr.teardown(ctx).qps_destroyed, 63);
        let torn_down = dispatched();
        cr.rebuild_endpoints(ctx, true);
        *out.lock().unwrap() = (torn_down - start, dispatched() - torn_down);
    });
    sim.run().unwrap();
    assert_eq!(
        *costs.lock().unwrap(),
        (1, 2),
        "(teardown, timed rebuild) dispatches moved"
    );
}
