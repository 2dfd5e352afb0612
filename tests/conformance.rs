//! Trace-refinement conformance: every scenario in this grid runs with the
//! simkit tracer on, and its event stream must be derivable from the
//! protoverify transition tables (cycle, rank, NLA, uplink) plus the WAL
//! cycle-journal automaton. The grid doubles as the transition-coverage
//! suite: merged coverage across all scenarios must exercise >= 90% of the
//! model's table rows, and the rows it never exercises must be exactly
//! the documented dead ones ([`UNCOVERED`]).
//!
//! `COVERAGE_JSON=1` writes the merged `COVERAGE_proto.json`
//! (`coverage_proto/v1`) to the workspace root.

use protoverify::{observe_trace, Coverage};
use rdma_jobmig::core::prelude::*;
use rdma_jobmig::core::runtime::JobSpec;
use rdma_jobmig::ftb::{FtbBackplane, FtbClient, FtbConfig, FtbEvent, Severity};
use rdma_jobmig::ibfabric::{self, NetConfig, NodeId};
use rdma_jobmig::npbsim::{NpbApp, NpbClass, Workload};
use rdma_jobmig::simkit::dur::*;
use rdma_jobmig::simkit::{SimTime, Simulation, TraceEvent};
use std::sync::Arc;

/// The table rows no scenario can reach (DESIGN.md §15): no fault kind
/// stalls Phase 4, and the other two need an abort after the ranks
/// resumed, which `abort_cycle` cannot take. Any other never-exercised
/// row is a lost scenario.
const UNCOVERED: [&str; 3] = [
    "cycle/resume --phase_timeout--> aborted",
    "nla/MIGRATION_READY --rollback_target--> MIGRATION_SPARE",
    "rank/running --resume--> running",
];

/// One scenario's captured trace, tagged for error output.
struct Traced {
    name: &'static str,
    events: Vec<TraceEvent>,
}

/// Replay a scenario's trace through the refinement observer; fail the
/// suite (with the shortest non-conforming suffix) on any violation, and
/// fold its edge coverage into `total`.
fn check(traced: &Traced, total: &mut Coverage) {
    let report = observe_trace(&traced.events);
    if let Some(v) = &report.violation {
        panic!(
            "[{}] trace does not refine the model ({} events, {} mapped):\n{v}",
            traced.name, report.events, report.mapped
        );
    }
    total.merge(&report.coverage);
}

/// Run one migration scenario on a `sized(2, spares)` cluster (LU.A.4 at
/// 2 ppn, trigger at t+10 s) with the tracer on, and return the trace.
/// The basic liveness assertions of the fault-matrix grid apply: the job
/// completes inside the virtual deadline and the trigger is accounted for.
fn run_traced(
    name: &'static str,
    seed: u64,
    spares: u32,
    standby: bool,
    tuning: MigrationTuning,
    plan: Option<FaultPlan>,
) -> Traced {
    let mut sim = Simulation::new(seed);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, spares));
    if let Some(plan) = &plan {
        cluster.install_fault_plane(plan);
    }
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let mut spec = JobSpec::npb(wl, 2);
    spec.standby = standby;
    let rt = JobRuntime::launch(&cluster, spec);
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new().tuning(tuning));
    sim.run_until_set(rt.completion(), deadline)
        .unwrap_or_else(|e| panic!("[{name}] job hung past the virtual deadline: {e:?}"));
    assert!(rt.is_complete(), "[{name}] job did not complete");
    let o = rt.migration_outcomes();
    assert_eq!(o.total(), 1, "[{name}] trigger unaccounted for: {o:?}");
    assert_eq!(o.lost, 0, "[{name}] trigger lost: {o:?}");
    Traced {
        name,
        events: sim.handle().tracer().drain_events(),
    }
}

/// Migrate, reclaim the vacated source into the shared spare pool, then
/// migrate again: the second lease adopts a `MIGRATION_INACTIVE` node and
/// must reprovision it into a clean spare (`NlaEvent::Reprovision`).
fn run_reclaim_reprovision() -> Traced {
    let name = "reclaim_reprovision";
    let mut sim = Simulation::new(90);
    sim.handle().tracer().set_enabled(true);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let deadline = SimTime::ZERO + wl.base_runtime + secs(600);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    let before = rt.rank_nodes();
    rt.control()
        .migrate_after(secs(10), MigrationRequest::new());
    while rt.migration_reports().is_empty() {
        sim.run_for(secs(5)).unwrap();
        assert!(
            sim.now() < SimTime::ZERO + secs(120),
            "[{name}] first migration stuck"
        );
    }
    let after = rt.rank_nodes();
    let vacated: Vec<NodeId> = before
        .iter()
        .filter(|n| !after.contains(n))
        .copied()
        .collect();
    assert_eq!(vacated.len(), 1, "[{name}] expected one vacated source");
    cluster.spare_pool().reclaim(vacated[0]);
    rt.control().migrate_after(secs(5), MigrationRequest::new());
    sim.run_until_set(rt.completion(), deadline)
        .unwrap_or_else(|e| panic!("[{name}] job hung: {e:?}"));
    let o = rt.migration_outcomes();
    assert_eq!(o.migrated, 2, "[{name}] both triggers must migrate: {o:?}");
    Traced {
        name,
        events: sim.handle().tracer().drain_events(),
    }
}

/// A send-fault hook that kills forwarded events from one node. Agent
/// control frames (Attach/AttachAck at 96 wire bytes) pass, as does the
/// client's loopback hop to its own agent — so every publish from that
/// node fails on the uplink and walks the reattach path.
struct DropPublishesFrom {
    node: NodeId,
}

impl ibfabric::FaultHook for DropPublishesFrom {
    fn on_send(
        &self,
        _now: SimTime,
        _net: &str,
        from: NodeId,
        to: NodeId,
        _port: u16,
        wire: u64,
    ) -> ibfabric::SendVerdict {
        if from == self.node && to != self.node && wire != 96 {
            ibfabric::SendVerdict::Error
        } else {
            ibfabric::SendVerdict::Deliver
        }
    }
}

/// Drive the FTB uplink machine through its fallback rows on a depth-2
/// chain (0 <- 1 <- 2 <- 3). Publishes from n3 always fail on the uplink,
/// forcing one reattach (and one re-sent `Attach`) per publish; publishes
/// spaced closer than one Attach/Ack round trip (~122 us on the GigE
/// profile) leave several acks in flight, so later acks are applied from
/// `AttachedWithFallback` — the table rows a flat tree never visits.
fn run_link_fallback_rows() -> Traced {
    let name = "link_fallback_rows";
    let mut sim = Simulation::new(91);
    sim.handle().tracer().set_enabled(true);
    let h = sim.handle();
    let net = ibfabric::Net::new(&h, NetConfig::gige());
    let bp = FtbBackplane::new(&h, net, FtbConfig::default());
    bp.add_agent(NodeId(0), None);
    bp.add_agent(NodeId(1), Some(NodeId(0)));
    bp.add_agent(NodeId(2), Some(NodeId(1)));
    bp.add_agent(NodeId(3), Some(NodeId(2)));
    bp.net()
        .set_fault_hook(Arc::new(DropPublishesFrom { node: NodeId(3) }));
    let c = FtbClient::connect(&bp, NodeId(3), "conf-pub");
    sim.spawn("conf-pub-driver", move |ctx| {
        // Let the startup Attach/Ack exchanges settle: n3 acks with a
        // grandparent (n1) and sits in AttachedWithFallback.
        ctx.sleep(secs(1));
        // u1: fallback move to n2's grandparent n1 (ParentLost from
        // AttachedWithFallback); the re-sent Attach's ack (from n1, which
        // has grandparent 0) is now in flight.
        c.publish(
            ctx,
            FtbEvent::simple("conf", "u1", Severity::Info, NodeId(3)),
        );
        // u2, u3: processed before u1's ack — ParentLost from plain
        // Attached, parent kept, so three grandparent-carrying acks from
        // n1 end up queued. The first restores AttachedWithFallback; the
        // second is applied *from* AttachedWithFallback.
        ctx.sleep(us(60));
        c.publish(
            ctx,
            FtbEvent::simple("conf", "u2", Severity::Info, NodeId(3)),
        );
        ctx.sleep(us(20));
        c.publish(
            ctx,
            FtbEvent::simple("conf", "u3", Severity::Info, NodeId(3)),
        );
        // u4: processed between the second and third acks — the reattach
        // consumes the fallback (parent becomes the root), the stale
        // third grandparent ack re-arms it, and the root's
        // no-grandparent ack then lands on AttachedWithFallback.
        ctx.sleep(us(105));
        c.publish(
            ctx,
            FtbEvent::simple("conf", "u4", Severity::Info, NodeId(3)),
        );
    });
    sim.run_for(secs(2)).unwrap();
    Traced {
        name,
        events: sim.handle().tracer().drain_events(),
    }
}

fn spare_crash(phase: MigPhase) -> FaultPlan {
    FaultPlan::new().with(FaultSpec::SpareCrash { phase, attempt: 1 })
}

fn coord_crash(phase: MigPhase) -> FaultPlan {
    FaultPlan::new().with(FaultSpec::CoordinatorCrash {
        at: WalPoint::Phase(phase),
    })
}

/// The whole grid in one test: conformance per scenario, coverage merged
/// across all of them, >= 90% of the model's transition rows exercised.
#[test]
fn suite_refines_model_and_covers_tables() {
    let mut cov = Coverage::new();
    let barrier = MigrationTuning::barrier;
    let grid: Vec<Traced> = vec![
        run_traced("clean_barrier", 70, 1, false, barrier(), None),
        run_traced(
            "clean_pipelined",
            71,
            1,
            false,
            MigrationTuning::pipelined(),
            None,
        ),
        run_traced(
            "spare_crash_stall",
            72,
            1,
            false,
            barrier(),
            Some(spare_crash(MigPhase::Stall)),
        ),
        run_traced(
            "spare_crash_migrate",
            73,
            1,
            false,
            barrier(),
            Some(spare_crash(MigPhase::Migrate)),
        ),
        run_traced(
            "spare_crash_restart",
            74,
            1,
            false,
            barrier(),
            Some(spare_crash(MigPhase::Restart)),
        ),
        run_traced(
            "spare_crash_resume",
            75,
            1,
            false,
            barrier(),
            Some(spare_crash(MigPhase::Resume)),
        ),
        run_traced(
            "spare_crash_retry",
            76,
            2,
            false,
            barrier(),
            Some(spare_crash(MigPhase::Migrate)),
        ),
        run_traced(
            "blcr_write_error",
            77,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::BlcrWriteError { nth: 1 })),
        ),
        run_traced(
            "rdma_cq_error",
            78,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::RdmaCqError { nth: 1 })),
        ),
        run_traced(
            "rdma_corrupt",
            79,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::RdmaCorrupt { nth: 2 })),
        ),
        run_traced(
            "gige_drop_window",
            80,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::NetDrop {
                net: NetSel::Gige,
                after: secs(10),
                count: 12,
            })),
        ),
        run_traced(
            "gige_flap_window",
            81,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::LinkFlap {
                net: NetSel::Gige,
                at: secs(10),
                lasts: ms(800),
            })),
        ),
        run_traced(
            "ib_drop_window",
            82,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::NetDrop {
                net: NetSel::Ib,
                after: secs(10),
                count: 3,
            })),
        ),
        run_traced(
            "ib_flap_window",
            83,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::LinkFlap {
                net: NetSel::Ib,
                at: secs(10),
                lasts: ms(500),
            })),
        ),
        // Swallow the JM's FTB_RESTART publish (a single loopback
        // datagram at 10.1251031 s on this seed): the target never hears
        // about Phase 3, the restart deadline expires, and the retry
        // completes — the only live path to `restart --phase_timeout-->`.
        run_traced(
            "restart_publish_lost",
            89,
            1,
            false,
            barrier(),
            Some(FaultPlan::new().with(FaultSpec::NetDrop {
                net: NetSel::Gige,
                after: us(10_125_100),
                count: 1,
            })),
        ),
        run_traced("no_spare_degrade", 84, 0, false, barrier(), None),
        // The only spare dies in Phase 1, so the trigger degrades to a
        // checkpoint, and the Job Manager's `FTB_CHECKPOINT` is dropped on
        // its hop to the login agent. The stall deadline re-publishes it.
        {
            let t = run_traced(
                "degrade_checkpoint_lost",
                80,
                1,
                false,
                barrier(),
                Some(spare_crash(MigPhase::Stall).with(FaultSpec::NetDrop {
                    net: NetSel::Gige,
                    after: secs(10),
                    count: 1,
                })),
            );
            let republished = t.events.iter().any(|e| e.name == "cr_checkpoint_republish");
            assert!(republished, "[{}] the drop must hit FTB_CHECKPOINT", t.name);
            t
        },
        // Live migration: round(s) stream while the ranks compute, then
        // the controller cuts over to the residual stop-and-copy round —
        // the LiveTrigger → PrecopyRound → Cutover rows.
        run_traced("clean_live", 92, 1, false, MigrationTuning::live(), None),
        // Every RDMA read in the first round errors until CHUNK_RETRIES
        // is exhausted: the round's pull aborts and the cycle walks the
        // FallbackStopCopy row into a classic stop-and-copy that still
        // completes.
        run_traced(
            "live_cq_burst_fallback",
            93,
            1,
            false,
            MigrationTuning::live(),
            Some((1..=10).fold(FaultPlan::new(), |p, nth| {
                p.with(FaultSpec::RdmaCqError { nth })
            })),
        ),
        // Coordinator dies between pre-copy rounds (at the Precopy
        // PhaseEnter journal append): nothing user-visible has happened
        // yet, so the standby rolls the cycle back to the source.
        run_traced(
            "live_coordinator_crash_precopy",
            94,
            1,
            true,
            MigrationTuning::live(),
            Some(coord_crash(MigPhase::Precopy)),
        ),
        // Spare death during pre-copy aborts the attempt before any rank
        // suspends; with no second spare the trigger degrades to CR.
        run_traced(
            "live_spare_crash_precopy",
            95,
            1,
            false,
            MigrationTuning::live(),
            Some(spare_crash(MigPhase::Precopy)),
        ),
        run_traced(
            "coordinator_crash_stall",
            85,
            1,
            true,
            barrier(),
            Some(coord_crash(MigPhase::Stall)),
        ),
        run_traced(
            "coordinator_crash_migrate",
            86,
            1,
            true,
            barrier(),
            Some(coord_crash(MigPhase::Migrate)),
        ),
        run_traced(
            "coordinator_crash_restart",
            87,
            1,
            true,
            barrier(),
            Some(coord_crash(MigPhase::Restart)),
        ),
        run_traced(
            "coordinator_crash_resume",
            88,
            1,
            true,
            barrier(),
            Some(coord_crash(MigPhase::Resume)),
        ),
        run_reclaim_reprovision(),
        run_link_fallback_rows(),
    ];
    for t in &grid {
        check(t, &mut cov);
    }
    let universe = Coverage::universe().len();
    let missing = cov.missing();
    println!(
        "transition coverage: {}/{} ({:.1}%), never exercised: {:?}",
        cov.covered(),
        universe,
        cov.ratio() * 100.0,
        missing
    );
    if std::env::var("COVERAGE_JSON").is_ok() {
        std::fs::write("COVERAGE_proto.json", cov.to_json()).expect("write COVERAGE_proto.json");
    }
    assert!(
        cov.ratio() >= 0.90,
        "suite exercises only {}/{universe} model transitions ({:.1}%); \
         never exercised: {missing:?}",
        cov.covered(),
        cov.ratio() * 100.0
    );
    assert_eq!(missing, UNCOVERED, "never-exercised table rows changed");
}
