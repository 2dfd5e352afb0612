//! The coordinated Checkpoint/Restart baseline (paper §IV-C).
//!
//! MVAPICH2's classic CR framework: on `FTB_CHECKPOINT` every rank
//! suspends/drains (same Phase 1 machinery as migration), dumps its whole
//! image through BLCR to storage — each node's local ext3 or the shared
//! PVFS deployment — and resumes. Restart (the part migration renders
//! optional) re-loads every image from storage after a simulated failure,
//! rolling the job back to the checkpoint's consistent cut.

use crate::calib;
use crate::msgs::*;
use crate::report::{CrReport, CrStoreKind};
use crate::runtime::{all_suspended, build_image, scan, unwrap_meta, CkptCycle, JobRuntime};
use blcrsim::StoreSource;
use ftb::{FtbClient, FtbEvent, Severity};
use mpisim::RankCr;
use parking_lot::Mutex;
use simkit::{Countdown, Ctx, Queue};
use std::sync::Arc;

/// JM-side orchestration of one coordinated checkpoint.
pub(crate) fn run_checkpoint(
    ctx: &Ctx,
    rt: &JobRuntime,
    ftb: &FtbClient,
    sub: &Queue<FtbEvent>,
    store: CrStoreKind,
) {
    let (inner, rec) = (&rt.inner, calib::recovery());
    if store == CrStoreKind::Pvfs && inner.cluster.pvfs().is_none() {
        // jmlint: allow(hot_unwrap) — caller misconfiguration, not a fault path
        panic!("checkpoint to PVFS requested but the cluster has no PVFS deployment");
    }
    let id = rt.next_cycle_id();
    let handle = inner.cluster.handle();
    let n = inner.spec.nranks as u64;
    let cycle = Arc::new(CkptCycle {
        id,
        store,
        stall_done: Countdown::new(handle, "ckpt-stall", n),
        ckpt_done: Countdown::new(handle, "ckpt-done", n),
        resumed: Countdown::new(handle, "ckpt-resumed", n),
        state: Mutex::default(),
    });
    inner.state.lock().ckpt_cycles.insert(id, cycle.clone());

    let phase_args = move || -> simkit::Args { vec![("cycle", id.into())] };
    let t0 = ctx.now();
    let ph = ctx.span_with("phase", "cr_stall", phase_args);
    // Phase: Job Stall. The acks are awaited with the stall deadline, so
    // a lost `FTB_CHECKPOINT` cannot hang the Job Manager: at the
    // deadline it goes on if every rank stalled (only acks were lost) and
    // re-publishes otherwise. Ranks that entered the cycle ignore the
    // repeat, and every fault plan is finite, so the loop ends.
    let mut stalled = all_suspended(id, inner.spec.nranks);
    loop {
        ftb.publish(
            ctx,
            FtbEvent::with_payload(
                MPI_SPACE,
                FTB_CHECKPOINT,
                Severity::Warning,
                inner.cluster.login(),
                CheckpointMsg { cycle: id, store },
            ),
        );
        let deadline = ctx.now() + rec.stall_timeout;
        if scan(ctx, sub, Some(deadline), &mut stalled).is_some() || cycle.stall_done.is_done() {
            break;
        }
        ctx.instant_with("log", "cr_checkpoint_republish", || {
            vec![("cycle", id.into())]
        });
    }
    cycle.stall_done.wait(ctx);
    ph.end();
    let t1 = ctx.now();
    cycle.state.lock().cut = Some(t1);
    // Phase: Checkpoint.
    let ph = ctx.span_with("phase", "cr_checkpoint", phase_args);
    cycle.ckpt_done.wait(ctx);
    ph.end();
    let t2 = ctx.now();
    // Phase: Resume.
    let ph = ctx.span_with("phase", "cr_resume", phase_args);
    cycle.resumed.wait(ctx);
    ph.end();
    let t3 = ctx.now();

    let bytes_written = cycle.state.lock().bytes;
    let complete = cycle.is_complete(inner.spec.nranks);
    inner.state.lock().cr_reports.push(CrReport {
        cycle: id,
        store,
        stall: t1 - t0,
        checkpoint: t2 - t1,
        resume: t3 - t2,
        restart: None,
        bytes_written,
        complete,
    });
}

/// Rank side of one checkpoint, once the rank has suspended: wait for the
/// consistent cut, dump the image to the cycle's store, then resume with
/// the rest of the job.
pub(crate) fn checkpoint_rank(ctx: &Ctx, rt: &JobRuntime, cr: &RankCr, cycle: &CkptCycle) {
    let (inner, rank) = (&rt.inner, cr.rank());
    cycle.stall_done.arrive_and_wait(ctx);
    let mynode = inner.job.rank_node(rank);
    let store = rt.store_for(cycle.store, mynode);
    let meta = cr.capture_meta();
    let image = build_image(rank, &meta);
    let blcr = &inner.cluster.node(mynode).blcr;
    let rec = calib::recovery();
    let path = format!("ckpt.{}.{}", cycle.id, rank);
    // Bounded-retry dump: a failed write restarts the file from scratch;
    // if the budget runs out the job still resumes, but without a usable
    // checkpoint for this rank, which leaves the cycle incomplete.
    let mut written = 0;
    let mut tries = 0u32;
    loop {
        let mut sink = blcrsim::StoreSink::new(store.clone(), path.clone(), true);
        match blcr.try_checkpoint(ctx, &image, &mut sink) {
            Ok(w) => {
                written = w;
                cycle.state.lock().checksums.insert(rank, image.checksum());
                break;
            }
            Err(e) => {
                tries += 1;
                ctx.instant_with("ckpt", "dump_retry", || {
                    vec![
                        ("rank", rank.into()),
                        ("try", tries.into()),
                        ("error", e.to_string().into()),
                    ]
                });
                if tries >= rec.max_attempts {
                    ctx.instant_with("ckpt", "dump_failed", || vec![("rank", rank.into())]);
                    break;
                }
                ctx.sleep(rec.backoff_delay(tries + 1));
            }
        }
    }
    cycle.state.lock().bytes += written;
    cycle.ckpt_done.arrive_and_wait(ctx);
    rt.resume_rank(ctx, cr, &cycle.resumed);
}

/// JM-side restart from checkpoint `cycle_id`: simulates the failure path
/// (all processes die), then reloads every rank from its checkpoint file
/// and resumes the job from the rolled-back state. Records the measured
/// restart duration into the matching [`CrReport`]. A cycle that is not
/// complete is refused before anything is killed.
pub(crate) fn run_restart(ctx: &Ctx, rt: &JobRuntime, cycle_id: u64) {
    let inner = &rt.inner;
    let Some(cycle) = rt.ckpt_cycle(cycle_id) else {
        ctx.instant_with("log", "cr_restart_unknown_cycle", || {
            vec![("cycle", cycle_id.into())]
        });
        return;
    };
    let Some(cut) = cycle.state.lock().cut else {
        // The checkpoint cycle never reached its consistent cut; there is
        // nothing to roll back to.
        ctx.instant_with("log", "cr_restart_no_cut", || {
            vec![("cycle", cycle_id.into())]
        });
        return;
    };
    let nranks = inner.spec.nranks;
    if !cycle.is_complete(nranks) {
        // Some rank's image never became durable: restarting would lose
        // that rank, so the job keeps running on its current state.
        ctx.instant_with("log", "cr_restart_incomplete", || {
            vec![("cycle", cycle_id.into())]
        });
        return;
    }

    // The failure: every process dies; connection state evaporates.
    for rank in 0..nranks {
        rt.kill_app(rank);
        let cr = inner.job.cr(rank);
        cr.close_gate();
        cr.teardown(ctx);
    }
    // A restarted job starts cold: no page cache survives resubmission.
    inner.cluster.drop_all_caches();
    // Roll the matching layer back to the checkpoint's consistent cut.
    inner.job.purge_rollback_all(cut);

    let t0 = ctx.now();
    let ph = ctx.span_with("phase", "cr_restart", move || {
        vec![("cycle", cycle_id.into())]
    });
    let done = Countdown::new(&ctx.handle(), "cr-restart-workers", nranks as u64);
    for rank in 0..nranks {
        let rt2 = rt.clone();
        let cycle2 = cycle.clone();
        let done2 = done.clone();
        ctx.spawn_daemon(&format!("cr-restart-r{rank}"), move |ctx| {
            if let Err(why) = restart_rank(ctx, &rt2, &cycle2, rank) {
                ctx.instant_with("log", "cr_restart_rank_failed", || {
                    vec![("rank", rank.into()), ("error", why.into())]
                });
            }
            done2.arrive();
        });
    }
    done.wait(ctx);
    ph.end();
    let restart = ctx.now() - t0;

    // Bring communication back (endpoint rebuild is accounted in the
    // checkpoint cycle's Resume phase; avoid double counting here).
    for rank in 0..nranks {
        let cr = inner.job.cr(rank);
        cr.rebuild_endpoints(ctx, false);
        cr.reopen();
    }

    let mut st = inner.state.lock();
    if let Some(rep) = st.cr_reports.iter_mut().find(|r| r.cycle == cycle_id) {
        rep.restart = Some(restart);
    }
}

/// Reload `rank` from its checkpoint in `cycle`, verify the image, and
/// restart the rank's application from it.
fn restart_rank(ctx: &Ctx, rt: &JobRuntime, cycle: &CkptCycle, rank: u32) -> Result<(), String> {
    let inner = &rt.inner;
    let node = inner.job.rank_node(rank);
    let store = rt.store_for(cycle.store, node);
    let mut src = StoreSource::new(store, format!("ckpt.{}.{}", cycle.id, rank));
    let blcr = &inner.cluster.node(node).blcr;
    let image = blcr
        .restart(ctx, &mut src, &calib::restart_costs())
        .map_err(|e| format!("checkpoint image parse: {e}"))?;
    let expected = cycle.state.lock().checksums.get(&rank).copied();
    if expected != Some(image.checksum()) {
        return Err(format!(
            "checkpoint integrity violated: got {:#x}, want {expected:?}",
            image.checksum()
        ));
    }
    let meta = unwrap_meta(&image).map_err(|e| e.to_string())?;
    inner.job.cr(rank).restore_meta(meta);
    rt.spawn_app(rank);
    Ok(())
}
