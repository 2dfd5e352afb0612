//! A rank's endpoint cycle is kill-safe. `abort_cycle` kills C/R threads
//! wherever they are, so a C/R thread killed inside the teardown's sleep
//! or inside the rebuild's CM handshake must leave none of its rank's
//! queue pairs, old or half-built, in the HCA, and no registered memory
//! region of them. Anything left there would stay for the rest of the
//! run. The migration buffer pool likewise leaves nothing behind, after
//! a finished cycle or an aborted one.

use ibfabric::{Hca, IbConfig, IbFabric, NodeId};
use jobmig_core::prelude::*;
use mpisim::{MpiConfig, MpiJob};
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::dur::{secs, us};
use simkit::{SimTime, Simulation};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Ranks of the job, one per node.
const RANKS: u32 = 4;

/// A launched job (endpoints built, untimed) and rank 0's HCA.
fn launched(sim: &mut Simulation) -> (MpiJob, Hca) {
    let h = sim.handle();
    let fabric = IbFabric::new(&h, IbConfig::default());
    let nodes: Vec<NodeId> = (0..RANKS).map(NodeId).collect();
    let job = MpiJob::new(&h, fabric, &nodes, MpiConfig::default());
    let j = job.clone();
    sim.spawn("launch", move |ctx| {
        for r in 0..RANKS {
            j.cr(r).rebuild_endpoints(ctx, false);
        }
    });
    sim.run().unwrap();
    let hca = job.fabric().attach(NodeId(0));
    assert_eq!((hca.live_qps(), hca.live_mrs()), (RANKS as usize - 1, 1));
    (job, hca)
}

/// Run `work` on rank 0's C/R handle in a process killed `after` its
/// start; asserts the work never returned.
fn kill_during(
    sim: &mut Simulation,
    job: &MpiJob,
    after: Duration,
    work: impl FnOnce(&simkit::Ctx, mpisim::RankCr) + Send + 'static,
) {
    let finished = Arc::new(AtomicBool::new(false));
    let f = finished.clone();
    let cr = job.cr(0);
    let ph = sim.spawn("cr-thread", move |ctx| {
        work(ctx, cr);
        f.store(true, Ordering::Relaxed);
    });
    sim.spawn("abort", move |ctx| {
        ctx.sleep(after);
        ph.kill();
    });
    sim.run().unwrap();
    assert!(
        !finished.load(Ordering::Relaxed),
        "killed before it returned"
    );
}

#[test]
fn a_cr_thread_killed_in_the_teardown_sleep_leaves_nothing_in_the_hca() {
    let mut sim = Simulation::new(0);
    let (job, hca) = launched(&mut sim);
    // The teardown sleeps qp_destroy per QP: 15 µs for 3 QPs.
    kill_during(&mut sim, &job, us(7), |ctx, cr| {
        cr.teardown(ctx);
    });
    assert!(!job.cr(0).has_endpoints());
    assert_eq!((hca.live_qps(), hca.live_mrs()), (0, 0));
}

#[test]
fn a_cr_thread_killed_in_the_rebuild_handshake_leaves_nothing_in_the_hca() {
    let mut sim = Simulation::new(0);
    let (job, hca) = launched(&mut sim);
    let cr = job.cr(0);
    sim.spawn("teardown", move |ctx| {
        cr.teardown(ctx);
    });
    sim.run().unwrap();
    assert_eq!((hca.live_qps(), hca.live_mrs()), (0, 0));
    // The timed rebuild registers the MR, then pays the three 60 µs
    // handshakes: kill it halfway through them.
    let ib = IbConfig::default();
    let bytes = MpiConfig::default().comm_buf_bytes;
    let register = ib.reg_base + Duration::from_secs_f64(bytes as f64 / ib.reg_bandwidth);
    kill_during(&mut sim, &job, register + us(90), |ctx, cr| {
        cr.rebuild_endpoints(ctx, true);
    });
    assert!(!job.cr(0).has_endpoints());
    assert_eq!((hca.live_qps(), hca.live_mrs()), (0, 0));
}

#[test]
fn a_rebuild_releases_endpoints_a_killed_cr_thread_left_behind() {
    let mut sim = Simulation::new(0);
    let (job, hca) = launched(&mut sim);
    // A C/R thread killed before its teardown took the endpoints: the
    // next one rebuilds over them.
    let cr = job.cr(0);
    sim.spawn("rebuild", move |ctx| {
        cr.rebuild_endpoints(ctx, true);
    });
    sim.run().unwrap();
    assert_eq!((hca.live_qps(), hca.live_mrs()), (RANKS as usize - 1, 1));
}

/// Live QPs and MRs summed over the HCAs of every compute and spare node.
fn live_endpoints(cluster: &Cluster) -> (usize, usize) {
    let nodes = cluster.compute_nodes().iter().chain(cluster.spare_nodes());
    nodes.fold((0, 0), |(q, m), &n| {
        let hca = cluster.fabric().attach(n);
        (q + hca.live_qps(), m + hca.live_mrs())
    })
}

/// LU.A.4 (two ranks per node) on two compute nodes and three spares,
/// under `plan`. Samples the live endpoints once the job is up, then
/// migrates `migrations` times, one node after the other, sampling after
/// each report. Every fault of `plan` must be injected.
fn endpoints_across_migrations(plan: &FaultPlan, migrations: usize) -> Vec<(usize, usize)> {
    let mut sim = Simulation::new(21);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 3));
    let plane = cluster.install_fault_plane(plan);
    let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
    let samples = Arc::new(Mutex::new(Vec::new()));
    let (out, rt2, c) = (samples.clone(), rt.clone(), cluster.clone());
    sim.handle().spawn_daemon("script", move |ctx| {
        ctx.sleep(secs(10));
        out.lock().unwrap().push(live_endpoints(&c));
        for (i, &node) in c.compute_nodes().iter().take(migrations).enumerate() {
            rt2.control()
                .migrate(MigrationRequest::new().from_node(node));
            while rt2.migration_reports().len() <= i {
                ctx.sleep(secs(1));
            }
            out.lock().unwrap().push(live_endpoints(&c));
        }
    });
    sim.run_until_set(rt.completion(), SimTime::MAX).unwrap();
    assert!(rt.is_complete());
    assert_eq!(plane.injected(), plan.entries.len() as u64);
    let samples = samples.lock().unwrap().clone();
    assert_eq!(samples.len(), migrations + 1, "every migration reported");
    samples
}

/// Four ranks, each with one MR and a QP per peer.
const JOB_ENDPOINTS: (usize, usize) = (4 * 3, 4);

#[test]
fn migrations_leave_no_buffer_pool_endpoints_behind() {
    let samples = endpoints_across_migrations(&FaultPlan::new(), 2);
    assert_eq!(
        samples,
        vec![JOB_ENDPOINTS; 3],
        "after 0, 1 and 2 migrations"
    );
}

#[test]
fn a_spare_crash_leaves_no_buffer_pool_endpoints_behind() {
    for phase in [MigPhase::Migrate, MigPhase::Restart] {
        let plan = FaultPlan::new().with(FaultSpec::SpareCrash { phase, attempt: 1 });
        let samples = endpoints_across_migrations(&plan, 1);
        assert_eq!(samples, vec![JOB_ENDPOINTS; 2], "spare crash in {phase:?}");
    }
}
