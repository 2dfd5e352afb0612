//! Pins the kernel's deterministic dispatch counts for the Figure 4
//! LU.C.64 migration. Dispatch counts do not depend on the host, so any
//! change that adds or removes simulator work — FTB events flooded to
//! agents with no matching subscription, for one — moves them and fails
//! here until the pins are updated on purpose.

use jobmig_core::bufpool::PoolConfig;
use npbsim::NpbApp;
use simkit::SimHandle;

/// Kernel dispatches of the whole run.
const TOTAL_DISPATCHES: u64 = 62_367;
/// Dispatches of the root FTB agent, on the login node.
const ROOT_AGENT_DISPATCHES: u64 = 519;

#[test]
fn fig4_lu_migration_dispatch_counts_are_pinned() {
    let mut handle: Option<SimHandle> = None;
    let report =
        jobmig_bench::fig_migration_observed(NpbApp::Lu, 64, 8, PoolConfig::default(), |sh| {
            sh.set_prof(true);
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
}
