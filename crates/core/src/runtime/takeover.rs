//! The standby coordinator: after the Job Manager dies, fence its epoch
//! and recover the in-flight cycle from the WAL journal, rolling it
//! forward past the commit point or back before it.

use super::*;

/// The standby coordinator: waits for the live Job Manager's death
/// signal, fences the deposed epoch, recovers the in-flight cycle from
/// the WAL journal, then respawns a fresh Job Manager generation and
/// goes back to standing by (so chained coordinator crashes in later
/// cycles are survivable too).
pub(super) fn standby_proc(ctx: &Ctx, rt: JobRuntime) {
    let login = rt.inner.cluster.login();
    let ftb = FtbClient::connect(rt.inner.cluster.ftb(), login, "standby");
    loop {
        let dead = rt.inner.coord.dead();
        dead.wait(ctx);
        // Failure-detector confirmation window before acting.
        ctx.sleep(calib::TAKEOVER_DETECT);
        takeover(ctx, &rt, &ftb);
        // Respawn the Job Manager under the new epoch and re-arm the
        // crash signal for the next generation.
        let epoch = rt.fencing_epoch();
        let handle = rt.inner.cluster.handle();
        let rt2 = rt.clone();
        let name = format!("{}-g{epoch}", rt.proc_name("job-manager", ""));
        let jm = handle.spawn_daemon(&name, move |ctx| jm_proc(ctx, rt2));
        rt.inner.coord.arm(jm, Event::new(handle, "coord-dead"));
    }
}

/// One takeover: bump the fencing epoch, fence the spare pool, replay the
/// journal tail, and either finish the in-flight cycle (resume-from-point
/// / roll-forward past the commit point) or roll it back to the source.
fn takeover(ctx: &Ctx, rt: &JobRuntime, ftb: &FtbClient) {
    let inner = &rt.inner;
    let epoch = {
        let mut st = inner.state.lock();
        st.epoch += 1;
        st.epoch
    };
    let adopted = inner.pool.fence(inner.job_id, epoch) as u64;
    let fl = inner.journal.in_flight();
    let in_flight_cycle = fl.as_ref().map(|f| f.cycle).unwrap_or(0);
    ctx.instant_with("wal", "takeover", || {
        vec![
            ("epoch", epoch.into()),
            ("adopted_leases", adopted.into()),
            ("cycle", in_flight_cycle.into()),
        ]
    });
    // Reconcile the pool against the journal: the lease is acquired just
    // before the cycle's first record, so a crash at the `CycleStart`
    // boundary leaves a lease the tail cannot yet see. Any lease of ours
    // the journal does not account for is returned to the pool (the
    // pool, having survived the crash, is the lease's source of truth).
    let accounted = fl.as_ref().and_then(|f| f.lease.map(|(n, _)| n));
    for (node, job) in inner.pool.leases() {
        if job == inner.job_id && Some(node) != accounted {
            inner.pool.release_front_at(node, inner.job_id, epoch);
        }
    }
    let Some(fl) = fl else {
        // Clean journal tail: the coordinator died between cycles.
        return;
    };
    let rec = calib::recovery();
    let Some(cycle) = rt.mig_cycle(fl.cycle) else {
        // The crash landed between the CycleStart/LeaseAcquire records
        // and the cycle's construction: no side effect is visible
        // anywhere. Settle the lease and close the cycle on the record.
        if let Some((node, _)) = fl.lease {
            inner.pool.release_front_at(node, inner.job_id, epoch);
        }
        inner
            .journal
            .append(WalRecord::Rollback { cycle: fl.cycle });
        settle_standby_outcome(
            ctx,
            rt,
            &fl,
            fl.source,
            0,
            0,
            MigrationOutcome::RolledBackByStandby,
        );
        return;
    };
    if fl.rolling_back {
        // The dead coordinator had decided to abort but died before
        // executing it (crashes only fire at append boundaries, and the
        // Rollback record precedes `abort_cycle`). Finish the rollback.
        standby_rollback(ctx, rt, &cycle, &fl, epoch, fl.rewired);
        return;
    }
    if fl.committed {
        roll_forward(ctx, rt, &cycle, &fl, epoch);
        return;
    }
    // Pre-commit. If the cycle never became visible to the job (the
    // deepest record is the Stall phase entry, which precedes the
    // FTB_MIGRATE publish — or any Precopy record, during which the job
    // was still running untouched on the source), nothing suspended:
    // rollback is a cheap settle. A takeover mid-pre-copy deliberately
    // abandons the rounds rather than resuming them: the accumulated
    // target state lived in the dead coordinator's cycle bookkeeping, and
    // the source incarnation still holds every byte. Otherwise the data
    // path is still progressing on its own — resume from the journal's
    // point with fresh deadlines, re-executing only the pending
    // coordinator side effects, and roll back if any fresh deadline
    // passes.
    let visible = fl
        .phase
        .map(|p| !matches!(p, MigPhase::Stall | MigPhase::Precopy))
        .unwrap_or(false);
    if !visible {
        standby_rollback(ctx, rt, &cycle, &fl, epoch, fl.rewired);
        return;
    }
    let mut adjusted = fl.rewired;
    // Phase 2 tail: the source NLA publishes PIIC on its own.
    if !wait_event_until(ctx, &cycle.piic, ctx.now() + rec.migrate_timeout) {
        standby_rollback(ctx, rt, &cycle, &fl, epoch, adjusted);
        return;
    }
    // Phase 3: the WAL cannot prove the restart broadcast went out (a
    // crash at the NlaRewire boundary leaves the record durable but the
    // publish unexecuted), so re-execute idempotently: the spawn-tree
    // replace is a no-op when already done and the cycle's claim guard
    // makes a duplicate FTB_RESTART inert.
    if !cycle.restart_done.is_set() {
        restart::broadcast(ctx, rt, ftb, &cycle, epoch, !fl.rewired, || ());
        adjusted = true;
    }
    if !wait_event_until(ctx, &cycle.restart_done, ctx.now() + rec.restart_timeout) {
        standby_rollback(ctx, rt, &cycle, &fl, epoch, adjusted);
        return;
    }
    inner
        .journal
        .append(WalRecord::CommitPoint { cycle: fl.cycle });
    roll_forward(ctx, rt, &cycle, &fl, epoch);
}

/// Post-commit recovery: every rank restarted on the target, so the only
/// correct direction is forward — wait out Phase 4 (the ranks drive it
/// themselves), settle the lease as consumed, and account the cycle.
fn roll_forward(ctx: &Ctx, rt: &JobRuntime, cycle: &Arc<MigCycle>, fl: &InFlight, epoch: u64) {
    let inner = &rt.inner;
    let deadline = ctx.now() + calib::recovery().resume_timeout;
    if !wait_countdown_until(ctx, &cycle.resumed, deadline) {
        // Defensive: a committed cycle cannot be rolled back and its
        // resume did not land — account the trigger as lost rather than
        // hang the takeover (expected never; Phase 4 needs no
        // coordinator).
        settle_standby_outcome(ctx, rt, fl, cycle.target, 0, 0, MigrationOutcome::Lost);
        return;
    }
    if let Some((node, _)) = fl.lease {
        if !fl.lease_committed {
            inner.journal.append(WalRecord::LeaseCommit {
                cycle: fl.cycle,
                node,
                epoch,
            });
        }
        inner.pool.consume_at(node, inner.job_id, epoch);
    }
    let bytes = cycle.state.lock().piic_bytes;
    settle_standby_outcome(
        ctx,
        rt,
        fl,
        cycle.target,
        cycle.ranks.len(),
        bytes,
        MigrationOutcome::ResumedByStandby,
    );
}

/// Pre-commit recovery: finish (or initiate) the rollback the journal
/// demands — abort the cycle, return the spare to the pool's front under
/// the new epoch, and account the trigger.
fn standby_rollback(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    fl: &InFlight,
    epoch: u64,
    tree_adjusted: bool,
) {
    let inner = &rt.inner;
    if !fl.rolling_back {
        inner
            .journal
            .append(WalRecord::Rollback { cycle: fl.cycle });
    }
    abort_cycle(ctx, rt, cycle, "coordinator_crash", tree_adjusted);
    if let Some((node, _)) = fl.lease {
        inner.pool.release_front_at(node, inner.job_id, epoch);
    }
    settle_standby_outcome(
        ctx,
        rt,
        fl,
        cycle.target,
        0,
        0,
        MigrationOutcome::RolledBackByStandby,
    );
}

/// Common tail of every standby recovery path: outcome counter, report
/// (phase durations are zero — the dead coordinator's phase clocks died
/// with it), pending-source cleanup, and the closing `CycleEnd` record.
fn settle_standby_outcome(
    ctx: &Ctx,
    rt: &JobRuntime,
    fl: &InFlight,
    target: NodeId,
    ranks_moved: usize,
    bytes_moved: u64,
    outcome: MigrationOutcome,
) {
    let inner = &rt.inner;
    record_outcome(ctx, rt, outcome);
    let mut st = inner.state.lock();
    st.mig_reports.push(MigrationReport {
        precopy_rounds: fl.precopy_rounds,
        ranks_moved,
        bytes_moved,
        ..MigrationReport::unmeasured(fl.cycle, fl.source, target, outcome, fl.attempt)
    });
    st.pending_sources.remove(&fl.source);
    drop(st);
    inner
        .journal
        .append(WalRecord::CycleEnd { cycle: fl.cycle });
}
