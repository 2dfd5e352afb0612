//! Phases 1 and 2, Job Stall and Job Migration: the Job Manager's waits,
//! the ranks' suspend and image stream, and the buffer managers on the
//! source and target NLAs.

use super::*;
use simkit::Span;

/// Phase 1, Job Manager side: `FTB_MIGRATE` goes out on entry (see
/// [`Attempt::enter`]); wait until every rank has acknowledged its
/// suspend and the stall countdown completes.
pub(super) fn stall(a: &mut Attempt) -> Result<(), ()> {
    let deadline = a.ctx.now() + calib::recovery().stall_timeout;
    let ph = a.enter(MigPhase::Stall, None)?;
    let acks = all_suspended(a.cycle.id, a.rt.inner.spec.nranks);
    let ok = scan(a.ctx, a.sub, Some(deadline), acks).is_some()
        && wait_countdown_until(a.ctx, &a.cycle.stall_done, deadline);
    a.close(ph, ok, "stall_timeout", CycleEvent::StallDone)
}

/// Phase 2, Job Manager side: wait for the source's PIIC.
///
/// On the pipelined data path Phase 3 is kicked off here, overlapping the
/// pull: the spawn tree is adjusted and `FTB_RESTART` goes out while
/// chunks are still streaming, and the target's restart workers start per
/// rank on their `image_ready` events. The cycle-table event order
/// (MigrateDone before RestartDone) is unchanged: PIIC still closes Phase
/// 2, and Phase 3's *tail* beyond that point is what the report
/// attributes to restart. The overlapping `"phase"` spans are rendered by
/// `telemetry::Timeline` (sum vs wall). Returns the `restart` span the
/// overlap opened.
pub(super) fn pull(a: &mut Attempt) -> Result<Option<Span>, ()> {
    let deadline = a.ctx.now() + calib::recovery().migrate_timeout;
    let ph = a.enter(MigPhase::Migrate, None)?;
    let mut restart_ph = None;
    if a.cycle.pool.overlap {
        let (ctx, rt, ftb, epoch) = (a.ctx, a.rt, a.ftb, a.epoch);
        restart_ph = Some(restart::broadcast(
            ctx,
            rt,
            ftb,
            &a.cycle,
            epoch,
            true,
            || a.span(MigPhase::Restart),
        ));
        a.tree_adjusted = true;
    }
    let id = a.cycle.id;
    let ok = scan(a.ctx, a.sub, Some(deadline), |ev| {
        let m = ev.payload_as::<PiicMsg>();
        m.filter(|m| ev.name == FTB_MIGRATE_PIIC && m.cycle == id)
            .map(drop)
    })
    .is_some()
        && wait_event_until(a.ctx, &a.cycle.piic, deadline);
    a.close(ph, ok, "migrate_timeout", CycleEvent::MigrateDone)?;
    Ok(restart_ph)
}

/// Phase 1, rank side (the checkpoint stall too): suspend and drain
/// communication, then acknowledge to the Job Manager.
pub(super) fn suspend(ctx: &Ctx, rt: &JobRuntime, ftb: &FtbClient, cr: &RankCr, cycle: u64) {
    let rank = cr.rank();
    rt.rank_apply(ctx, rank, RankEvent::Suspend);
    cr.suspend_and_drain(ctx);
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_SUSPEND_ACK,
            Severity::Info,
            rt.inner.job.rank_node(rank),
            SuspendAckMsg { cycle, rank },
        ),
    );
}

/// Phase 2, rank side on the source: wait for the consistent global
/// state, then stream the rank's image through the buffer pool. Returns
/// `false` if the source pool never came up; the C/R thread then stays
/// and the Phase 2 deadline recovers the cycle.
pub(super) fn stream_rank(ctx: &Ctx, rt: &JobRuntime, cr: &RankCr, cycle: &MigCycle) -> bool {
    let (inner, rank) = (&rt.inner, cr.rank());
    cycle.stall_done.wait(ctx);
    let Some(pool) = cycle.wait_source_pool(ctx) else {
        ctx.instant_with("ckpt", "source_pool_missing", || {
            vec![("rank", rank.into()), ("cycle", cycle.id.into())]
        });
        return false;
    };
    let meta = cr.capture_meta();
    // Keep the captured state around: if the cycle aborts after the app
    // is killed, the rank is resurrected from exactly this state.
    cycle.state.lock().captured_meta.insert(rank, meta.clone());
    rt.rank_apply(ctx, rank, RankEvent::Capture);
    let image = build_image(rank, &meta);
    rt.kill_app(rank);
    // Live cutover: the target already holds every pre-copied byte, so
    // stream only the residual dirty segments. The sink still carries the
    // *merged* image's checksum — the end-to-end verification in Phase 3
    // runs against the accumulator + residual merge, proving no dirty
    // segment was lost.
    let checksum = image.checksum();
    let image = match cycle.cut_over() {
        Some(rounds) => match cr.take_dirty() {
            Some(snap) => {
                cr.disarm_dirty();
                delta_image(rank, &meta, &snap, rounds)
            }
            // Unknown dirty state: stream everything.
            None => image,
        },
        None => image,
    };
    let mut sink = pool.sink(ctx, rank, checksum);
    let blcr = &inner.cluster.node(cycle.source).blcr;
    if blcr.try_checkpoint(ctx, &image, &mut sink).is_err() {
        // Incomplete stream: the Phase 2 deadline aborts the cycle and
        // recovers this rank.
        ctx.instant_with("ckpt", "source_dump_failed", || {
            vec![("rank", rank.into()), ("cycle", cycle.id.into())]
        });
    }
    true
}

/// Source NLA: stand up the buffer manager, wait until every local image
/// has been pulled and acknowledged, publish PIIC, go inactive.
pub(super) fn source_side(
    ctx: &Ctx,
    rt: &JobRuntime,
    nla: &Arc<NlaShared>,
    ftb: &FtbClient,
    m: MigrateMsg,
) {
    let inner = &rt.inner;
    let Some(cycle) = rt.mig_cycle(m.cycle) else {
        return;
    };
    let nlocal = nla.state.lock().ranks.len() as u32;
    let hca = inner.cluster.fabric().attach(m.source);
    let (pool, ackloop) = bufpool::source(ctx, &hca, cycle.pool, nlocal, &cycle.rendezvous);
    cycle.track(ackloop);
    cycle.set_source_pool(pool.clone());
    pool.finished().wait(ctx);
    cycle.state.lock().piic_bytes = pool.bytes_streamed();
    nla_apply(ctx, nla, NlaEvent::SourceDrained);
    let moved = std::mem::take(&mut nla.state.lock().ranks);
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_MIGRATE_PIIC,
            Severity::Info,
            m.source,
            PiicMsg {
                cycle: m.cycle,
                ranks: moved,
                bytes_moved: pool.bytes_streamed(),
            },
        ),
    );
    cycle.piic.set();
}

/// Target NLA (receiving side): pull chunks and assemble images into
/// buffered temp files on the local filesystem.
pub(super) fn target_side(ctx: &Ctx, rt: &JobRuntime, m: MigrateMsg) {
    let inner = &rt.inner;
    let Some(cycle) = rt.mig_cycle(m.cycle) else {
        return;
    };
    let hca = inner.cluster.fabric().attach(m.target);
    let store: Arc<dyn storesim::CkptStore> = Arc::new(inner.cluster.node(m.target).fs.clone());
    // As each rank's image finishes assembly the pool hands it over here,
    // and the per-rank `rank_ready` event releases that rank's restart
    // worker — in overlap mode, while other ranks are still streaming.
    let on_rank_ready = |ctx: &Ctx, rank: u32, image: AssembledImage| {
        // NLA-side WAL append: recorded before the image is handed over.
        // Appenders on the data path survive a coordinator crash (the
        // crash hook kills only the Job Manager), so the journal keeps
        // tracking per-rank progress — exactly what lets the standby
        // resume from the last verified point instead of rolling back.
        inner.journal.append(WalRecord::RankImageReady {
            cycle: cycle.id,
            rank,
        });
        cycle.state.lock().images.insert(rank, image);
        if let Some(ev) = cycle.rank_ready.get(&rank) {
            ev.set();
        }
        ctx.instant_with("pool", "rank_image_ready", || {
            vec![("cycle", cycle.id.into()), ("rank", rank.into())]
        });
    };
    match bufpool::target(
        ctx,
        &hca,
        cycle.pool,
        &cycle.rendezvous,
        store,
        &format!("mig.{}", m.cycle),
        Some(&on_rank_ready),
    ) {
        Ok(result) => {
            cycle.state.lock().images = result.images;
            cycle.images_ready.set();
        }
        Err(abort) => {
            // Leave `images_ready` unset: the Job Manager's Phase 2/3
            // deadline aborts the cycle and retries or degrades.
            ctx.instant_with("pool", "pull_aborted", || {
                vec![
                    ("cycle", m.cycle.into()),
                    ("reason", abort.reason.into()),
                    ("rank", abort.rank.map(u64::from).unwrap_or(u64::MAX).into()),
                    ("bytes_pulled", abort.bytes_pulled.into()),
                ]
            });
        }
    }
}
