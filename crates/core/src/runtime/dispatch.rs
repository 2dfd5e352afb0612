//! Event dispatch of the per-node and per-rank daemons: the Node Launch
//! Agent and the C/R thread. The work each event starts lives with its
//! phase.

use super::*;

pub(super) fn nla_proc(ctx: &Ctx, rt: JobRuntime, node: NodeId) {
    let inner = &rt.inner;
    let nla = inner.state.lock().nlas[&node].clone();
    // Startup: launch local MPI processes (fork/exec cost per rank),
    // build endpoints untimed, start app + C/R threads.
    let local_ranks = nla.ranks();
    for rank in &local_ranks {
        ctx.sleep(calib::NLA_SPAWN);
        let cr = inner.job.cr(*rank);
        cr.rebuild_endpoints(ctx, false);
        cr.reopen();
        rt.spawn_app(*rank);
        rt.spawn_cr_thread(*rank, None);
    }

    let ftb = FtbClient::connect(inner.cluster.ftb(), node, &format!("nla@{node}"));
    let sub = ftb.subscribe(
        &ctx.handle(),
        EventFilter::named_any(MPI_SPACE, &[FTB_MIGRATE, FTB_PRECOPY, FTB_RESTART]),
    );
    // Protocol work runs in spawned children registered with the cycle,
    // so an abort can kill them without taking down the NLA itself.
    loop {
        let ev = sub.pop(ctx);
        let name = ev.name.as_str();
        let command = match name {
            FTB_MIGRATE => ev.payload_as::<MigrateMsg>().map(|m| (m.cycle, m.epoch)),
            FTB_PRECOPY => ev.payload_as::<PrecopyMsg>().map(|m| (m.cycle, m.epoch)),
            FTB_RESTART => ev.payload_as::<RestartMsg>().map(|r| (r.cycle, r.epoch)),
            _ => None,
        };
        let Some((id, epoch)) = command else {
            continue;
        };
        if epoch < rt.fencing_epoch() {
            // Fenced: published under a deposed coordinator epoch.
            ctx.instant_with("wal", "fenced_publish", || {
                vec![
                    ("name", name.into()),
                    ("cycle", id.into()),
                    ("epoch", epoch.into()),
                ]
            });
            continue;
        }
        let Some(cycle) = rt.mig_cycle(id) else {
            continue;
        };
        if let Some(&m) = ev.payload_as::<MigrateMsg>() {
            if m.source == node {
                let (nla, ftb) = (nla.clone(), ftb.clone());
                spawn_worker(
                    ctx,
                    &rt,
                    &cycle,
                    format!("mig{id}-src@{node}"),
                    move |ctx, rt| migrate::source_side(ctx, rt, &nla, &ftb, m),
                );
            } else if m.target == node {
                spawn_worker(
                    ctx,
                    &rt,
                    &cycle,
                    format!("mig{id}-pull@{node}"),
                    move |ctx, rt| migrate::target_side(ctx, rt, m),
                );
            }
        } else if let Some(&m) = ev.payload_as::<PrecopyMsg>() {
            let round = m.round;
            if m.source == node {
                let nla = nla.clone();
                let name = format!("mig{id}-pre{round}-src@{node}");
                spawn_worker(ctx, &rt, &cycle, name, move |ctx, rt| {
                    precopy::source_side(ctx, rt, &nla, m)
                });
            } else if m.target == node {
                let ftb = ftb.clone();
                let name = format!("mig{id}-pre{round}-pull@{node}");
                spawn_worker(ctx, &rt, &cycle, name, move |ctx, rt| {
                    precopy::target_side(ctx, rt, &ftb, m)
                });
            }
        } else if let Some(r) = ev.payload_as::<RestartMsg>() {
            // A duplicate broadcast (original + standby re-publish) loses
            // the claim: the first reaction owns Phase 3.
            if r.target == node && cycle.claim_restart() {
                let (r, nla, ftb) = (r.clone(), nla.clone(), ftb.clone());
                let name = format!("mig{id}-restart@{node}");
                spawn_worker(ctx, &rt, &cycle, name, move |ctx, rt| {
                    restart::target_side(ctx, rt, &nla, &ftb, r)
                });
            }
        }
    }
}

/// Spawn `body` as a worker of `cycle`, tracked so that an abort kills
/// it. A worker that starts after its cycle was aborted does nothing.
fn spawn_worker(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &MigCycle,
    name: String,
    body: impl FnOnce(&Ctx, &JobRuntime) + Send + 'static,
) {
    let (rt, id) = (rt.clone(), cycle.id);
    let ph = ctx.spawn_daemon(&name, move |ctx| {
        let Some(cycle) = rt.mig_cycle(id) else {
            return;
        };
        if !cycle.is_aborted() {
            body(ctx, &rt);
        }
    });
    cycle.track(ph);
}

pub(super) fn cr_thread(ctx: &Ctx, rt: JobRuntime, rank: u32, resume: Option<Arc<MigCycle>>) {
    let inner = &rt.inner;
    let cr = inner.job.cr(rank);
    let node = inner.job.rank_node(rank);
    let ftb = FtbClient::connect(inner.cluster.ftb(), node, &format!("cr-r{rank}"));
    let sub = ftb.subscribe(
        &ctx.handle(),
        EventFilter::named_any(MPI_SPACE, &[FTB_MIGRATE, FTB_CHECKPOINT]),
    );
    if let Some(cycle) = resume {
        resume::rank(ctx, &rt, &cr, &cycle);
    }
    loop {
        let ev = sub.pop(ctx);
        match ev.name.as_str() {
            FTB_MIGRATE => {
                let Some(&m) = ev.payload_as::<MigrateMsg>() else {
                    continue;
                };
                if m.epoch < rt.fencing_epoch() {
                    // Fenced: a deposed coordinator cannot suspend ranks.
                    continue;
                }
                let Some(cycle) = rt.mig_cycle(m.cycle) else {
                    continue;
                };
                if !cycle.enter(rank) {
                    // The cycle was aborted before this rank reacted;
                    // nothing was suspended, nothing to recover.
                    continue;
                }
                migrate::suspend(ctx, &rt, &ftb, &cr, m.cycle);
                cycle.stall_done.arrive();
                if inner.job.rank_node(rank) != m.source {
                    cycle.restart_done.wait(ctx);
                    resume::rank(ctx, &rt, &cr, &cycle);
                } else if migrate::stream_rank(ctx, &rt, &cr, &cycle) {
                    // This process incarnation migrates away; its C/R
                    // thread ends with it.
                    return;
                }
            }
            FTB_CHECKPOINT => {
                let Some(&c) = ev.payload_as::<CheckpointMsg>() else {
                    continue;
                };
                let Some(cycle) = rt.ckpt_cycle(c.cycle) else {
                    continue;
                };
                if !cycle.enter(rank) {
                    continue;
                }
                migrate::suspend(ctx, &rt, &ftb, &cr, c.cycle);
                cr_baseline::checkpoint_rank(ctx, &rt, &cr, &cycle);
            }
            _ => {}
        }
    }
}
