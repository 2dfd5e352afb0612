//! Coordinator-crash recovery: killing the Job Manager at WAL append
//! boundaries must always resolve to a deterministic resume-or-rollback
//! by the standby — never a hang, a lost trigger, a double-counted
//! outcome, or a leaked spare lease.

use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use proptest::prelude::*;
use simkit::dur::*;
use simkit::{SimTime, Simulation};

/// Everything one crash scenario produces that the assertions (and the
/// determinism re-runs) compare.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CrashRun {
    outcomes: OutcomeCounts,
    finished_at: SimTime,
    epoch: u64,
    /// Outstanding pool leases at completion: must always be empty.
    leases: Vec<(ibfabric::NodeId, u64)>,
    /// Record names in journal order.
    journal: Vec<&'static str>,
}

/// One migration on a sized(2, 1) cluster with a standby coordinator,
/// LU.A.4 at 2 ppn, a trigger at t+10 s, and the given fault plan.
fn run_crash(seed: u64, tuning: MigrationTuning, plan: Option<&FaultPlan>) -> CrashRun {
    let mut sim = Simulation::new(seed);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    if let Some(plan) = plan {
        cluster.install_fault_plane(plan);
    }
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let mut spec = JobSpec::npb(wl, 2);
    spec.standby = true;
    let rt = JobRuntime::launch(&cluster, spec);
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new().tuning(tuning));
    sim.run_until_set(rt.completion(), deadline)
        .expect("job hung past the virtual deadline");
    assert!(rt.is_complete());
    rt.journal()
        .verify()
        .expect("journal checksum chain broken");
    // Takeover traces must refine the model too: the WAL automaton, the
    // fencing-epoch rule, and the cycle reset on takeover all replay.
    let report = protoverify::observe_trace(&sim.handle().tracer().drain_events());
    if let Some(v) = &report.violation {
        panic!("[seed {seed}] trace does not refine the protocol model:\n{v}");
    }
    CrashRun {
        outcomes: rt.migration_outcomes(),
        finished_at: sim.now(),
        epoch: rt.fencing_epoch(),
        leases: cluster.spare_pool().leases(),
        journal: rt
            .journal()
            .entries()
            .iter()
            .map(|e| e.record.name())
            .collect(),
    }
}

fn crash_plan(at: WalPoint) -> FaultPlan {
    FaultPlan::new().with(FaultSpec::CoordinatorCrash { at })
}

/// The outcome classes a coordinator crash is allowed to resolve to.
/// `migrated` covers the one boundary (`CycleEnd`) past the outcome
/// accounting, where the crash strikes an already-finished cycle.
fn resolved_once(o: &OutcomeCounts) -> bool {
    o.total() == 1
        && o.lost == 0
        && o.migrated + o.resumed_by_standby + o.rolled_back_by_standby == 1
}

#[test]
fn crash_free_standby_run_is_inert() {
    // The standby daemon and the always-on journal must not perturb the
    // migration: same outcome as the plain run, epoch never bumped, and
    // the journal records exactly one clean committed cycle.
    let run = run_crash(7, MigrationTuning::barrier(), None);
    assert_eq!(run.outcomes.migrated, 1, "{:?}", run.outcomes);
    assert_eq!(run.epoch, 0);
    assert!(run.leases.is_empty());
    assert_eq!(*run.journal.first().unwrap(), "cycle_start");
    assert_eq!(*run.journal.last().unwrap(), "cycle_end");
    assert!(run.journal.contains(&"commit_point"));
    assert!(run.journal.contains(&"lease_commit"));
    assert!(!run.journal.contains(&"rollback"));
}

#[test]
fn phase_boundary_crashes_resolve_deterministically() {
    // Killing the coordinator at the first append of each phase has a
    // *predictable* resolution: at the Stall boundary the FTB_MIGRATE
    // publish provably never went out, so the standby rolls back; from
    // Migrate on, the autonomous data path finishes and the standby
    // resumes from the journal's point; Resume is past the commit point
    // and can only roll forward.
    for (phase, expect_resumed) in [
        (MigPhase::Stall, false),
        (MigPhase::Migrate, true),
        (MigPhase::Restart, true),
        (MigPhase::Resume, true),
    ] {
        let plan = crash_plan(WalPoint::Phase(phase));
        let run = run_crash(11, MigrationTuning::barrier(), Some(&plan));
        assert!(resolved_once(&run.outcomes), "{phase}: {:?}", run.outcomes);
        if expect_resumed {
            assert_eq!(
                run.outcomes.resumed_by_standby, 1,
                "{phase}: {:?}",
                run.outcomes
            );
        } else {
            assert_eq!(
                run.outcomes.rolled_back_by_standby, 1,
                "{phase}: {:?}",
                run.outcomes
            );
        }
        // Takeover fenced exactly one epoch, settled every lease, and
        // closed the journal tail.
        assert_eq!(run.epoch, 1, "{phase}");
        assert!(run.leases.is_empty(), "{phase}: leaked {:?}", run.leases);
        assert_eq!(*run.journal.last().unwrap(), "cycle_end", "{phase}");
    }
}

/// Sweep every record boundary of a crash-free journal: the crash fires
/// immediately after the n-th append, for every n. Each boundary must
/// resolve once, leak nothing, and (spot-checked pairwise) be
/// deterministic under the same seed.
fn sweep_boundaries(tuning: MigrationTuning, seed: u64) {
    let baseline = run_crash(seed, tuning, None);
    let n = baseline.journal.len();
    assert!(
        n >= 10,
        "journal suspiciously short: {:?}",
        baseline.journal
    );
    for boundary in 1..=n as u64 {
        let plan = crash_plan(WalPoint::Seq(boundary));
        let run = run_crash(seed, tuning, Some(&plan));
        let at = baseline.journal[boundary as usize - 1];
        assert!(
            resolved_once(&run.outcomes),
            "boundary {boundary} ({at}): {:?}",
            run.outcomes
        );
        assert!(
            run.leases.is_empty(),
            "boundary {boundary} ({at}): leaked leases {:?}",
            run.leases
        );
        // Boundaries strictly before the commit point may roll back;
        // boundaries at or after it must preserve the migration.
        let commit = baseline
            .journal
            .iter()
            .position(|r| *r == "commit_point")
            .unwrap() as u64
            + 1;
        if boundary >= commit {
            assert_eq!(
                run.outcomes.rolled_back_by_standby, 0,
                "boundary {boundary} ({at}) rolled back a committed cycle: {:?}",
                run.outcomes
            );
        }
    }
}

#[test]
fn every_wal_boundary_crash_resolves_barrier() {
    sweep_boundaries(MigrationTuning::barrier(), 23);
}

#[test]
fn every_wal_boundary_crash_resolves_pipelined() {
    sweep_boundaries(MigrationTuning::pipelined(), 29);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random (seed, boundary, mode, extra fault): the crash must resolve
    /// to exactly one accounted outcome with no leaked lease, and the
    /// whole run must be bit-for-bit repeatable — same seed, same plan,
    /// same virtual finish time.
    #[test]
    fn boundary_crashes_are_deterministic(
        seed in 0u64..500,
        boundary_pick in any::<usize>(),
        pipelined in any::<bool>(),
        spare_crash_too in any::<bool>(),
    ) {
        let tuning = if pipelined {
            MigrationTuning::pipelined()
        } else {
            MigrationTuning::barrier()
        };
        let baseline = run_crash(seed, tuning, None);
        let n = (boundary_pick % baseline.journal.len()) as u64 + 1;
        let mut plan = crash_plan(WalPoint::Seq(n));
        if spare_crash_too {
            // Compose with the fault matrix: the spare dies in Phase 2 of
            // whatever attempt is live once the standby has taken over.
            plan = plan.with(FaultSpec::SpareCrash {
                phase: MigPhase::Migrate,
                attempt: 2,
            });
        }
        let a = run_crash(seed, tuning, Some(&plan));
        let b = run_crash(seed, tuning, Some(&plan));
        prop_assert_eq!(&a, &b, "same scenario diverged");
        prop_assert!(a.outcomes.lost == 0, "{:?}", a.outcomes);
        prop_assert!(a.outcomes.total() >= 1, "{:?}", a.outcomes);
        prop_assert!(a.leases.is_empty(), "leaked leases {:?}", a.leases);
    }
}
