//! Aborting an attempt: settle its lease, roll the job back to the
//! source, and resume the ranks that had entered the cycle.

use super::*;

impl Attempt<'_, '_> {
    /// Abort this attempt: `event` is the cycle table's fault effect
    /// ([`CycleEvent::PhaseTimeout`] or [`CycleEvent::SpareCrash`]), and
    /// `spare_alive` decides whether the lease settles as a return to the
    /// pool's front (a retry reuses it) or as a discard (the spare died).
    pub(super) fn fail<T>(
        &mut self,
        event: CycleEvent,
        reason: &str,
        spare_alive: bool,
    ) -> Result<T, ()> {
        let (ctx, rt, id, target) = (self.ctx, self.rt, self.cycle.id, self.cycle.target);
        let inner = &rt.inner;
        inner.journal.append(WalRecord::Rollback { cycle: id });
        ctx.check_killed();
        self.step(event);
        abort_cycle(ctx, rt, &self.cycle, reason, self.tree_adjusted);
        if spare_alive {
            inner
                .pool
                .release_front_at(target, inner.job_id, self.epoch);
        } else {
            inner.pool.discard_at(target, inner.job_id, self.epoch);
        }
        inner.journal.append(WalRecord::CycleEnd { cycle: id });
        ctx.check_killed();
        Err(())
    }
}

/// Simulate the abrupt death of spare node `node`: its NLA process, NLA
/// bookkeeping, and FTB agent all disappear. The caller aborts the cycle
/// afterwards; nothing is ever respawned on the dead node.
pub(super) fn kill_spare(ctx: &Ctx, rt: &JobRuntime, node: NodeId) {
    ctx.instant_with("log", "spare_node_dead", || vec![("node", node.0.into())]);
    let inner = &rt.inner;
    let ph = {
        let mut st = inner.state.lock();
        st.nlas.remove(&node);
        st.nla_procs.remove(&node)
    };
    if let Some(ph) = ph {
        ph.kill();
    }
    inner.cluster.ftb().kill_agent(node);
}

/// Abort a migration cycle mid-flight and roll the job back to a running
/// state on the source node.
///
/// Every rank that *entered* the cycle (suspended) is recovered: its C/R
/// thread is killed and respawned straight into Phase 4 (tolerant
/// barrier, endpoint rebuild, reopen); if its app incarnation died after
/// the Phase 2 metadata capture, the app is resurrected from that
/// captured state — on the source node, even if a Phase 3 restart had
/// already placed it on the target. Ranks that never entered are left
/// untouched (the gate turns them away from the stale events).
pub(super) fn abort_cycle(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    reason: &str,
    tree_adjusted: bool,
) {
    let inner = &rt.inner;
    ctx.instant_with("log", "cycle_abort", || {
        vec![
            ("cycle", cycle.id.into()),
            ("reason", reason.to_string().into()),
        ]
    });
    // Close the entry gate and snapshot who is inside the protocol, and
    // the metadata captured from those whose app already died.
    let (entered, procs, metas) = {
        let mut st = cycle.state.lock();
        st.aborted = true;
        let procs = std::mem::take(&mut st.procs);
        (st.entered.clone(), procs, st.captured_meta.clone())
    };
    // Kill the cycle's worker processes (buffer-pool managers, the ack
    // loop, restart workers).
    for ph in procs {
        ph.kill();
    }
    // A live cycle's dirty trackers are abandoned with the cycle: the
    // ranks roll back to (or never left) the source incarnation, which by
    // definition holds every write — nothing pre-copied is needed again.
    if cycle.live.is_some() {
        for &rank in &cycle.ranks {
            inner.job.cr(rank).disarm_dirty();
        }
    }
    let mut recover: Vec<u32> = Vec::new();
    for &rank in &cycle.ranks {
        if !entered.contains(&rank) {
            continue;
        }
        let ph = inner.state.lock().cr_threads.get(&rank).cloned();
        if let Some(ph) = ph {
            ph.kill();
        }
        if inner.job.rank_node(rank) == cycle.target {
            // A Phase 3 restart already placed this rank on the (now
            // abandoned) target; pull it back.
            rt.kill_app(rank);
            inner.job.set_rank_node(rank, cycle.source);
        }
        recover.push(rank);
    }
    // Release every non-source rank still parked on cycle primitives.
    // The barrier is force-completed because not all ranks necessarily
    // entered; `images_ready` is deliberately left unset (its only
    // consumers were just killed).
    cycle.stall_done.force_complete();
    cycle.barrier.force_complete();
    cycle.restart_done.set();
    // Resurrect the cycle's ranks and rejoin them through Phase 4.
    for rank in recover {
        if let Some(meta) = metas.get(&rank) {
            rt.rank_apply(ctx, rank, RankEvent::Resurrect);
            inner.job.cr(rank).restore_meta(meta.clone());
            inner.job.purge_stale_rts_from(rank);
            rt.spawn_app(rank);
        }
        rt.spawn_cr_thread(rank, Some(cycle.clone()));
    }
    // The source NLA goes back to hosting its ranks; a surviving target
    // NLA goes back to being a clean spare. Both moves go through the
    // declarative NLA table (legal from either side of the PIIC /
    // restart-complete boundaries).
    let (source, target) = {
        let mut st = inner.state.lock();
        if tree_adjusted {
            st.spawn_tree.replace(cycle.target, cycle.source);
        }
        let nla = |n| st.nlas.get(&n).cloned();
        (nla(cycle.source), nla(cycle.target))
    };
    if let Some(nla) = source {
        nla_apply(ctx, &nla, NlaEvent::RollbackSource);
        nla.set_ranks(cycle.ranks.clone());
    }
    if let Some(nla) = target {
        nla_apply(ctx, &nla, NlaEvent::RollbackTarget);
        nla.set_ranks(Vec::new());
    }
}
