//! Phase 0, iterative pre-copy (live cycles only): the Job Manager's
//! round loop and convergence decisions, and each round's source capture
//! and target pull + merge on the NLAs.

use super::*;

/// Job Manager side. The ranks keep running throughout: nothing here
/// holds the barrier, so a failed or diverging round costs only the bytes
/// already streamed — the cycle degrades to the classic stop-and-copy
/// phases instead of aborting. Only the spare dying aborts from here
/// (there is nothing to roll back: no rank ever suspended).
pub(super) fn run(a: &mut Attempt, live: &livemig::LiveConfig) -> Result<(), ()> {
    let ph = a.enter(MigPhase::Precopy, None)?;
    let (ctx, rt, c) = (a.ctx, a.rt, a.cycle.clone());
    let (inner, id) = (&rt.inner, c.id);
    let handle = inner.cluster.handle();
    // The controller is instantiated after round 0 completes, so its
    // bandwidth estimate comes from the measured full-image round rather
    // than a static calibration constant.
    let mut controller: Option<livemig::DowntimeBudget> = None;
    let mut round: u32 = 0;
    let mut fell_back = false;
    loop {
        // Each round is one self-contained source/target pool pair; a
        // fresh rendezvous keeps a straggler from a failed round from
        // pairing with the next round's pool.
        c.state.lock().round_rv = Some(PoolRendezvous::new(handle));
        let r0 = ctx.now();
        a.ftb.publish(
            ctx,
            FtbEvent::with_payload(
                MPI_SPACE,
                FTB_PRECOPY,
                Severity::Info,
                inner.cluster.login(),
                PrecopyMsg {
                    source: c.source,
                    target: c.target,
                    cycle: id,
                    round,
                    epoch: a.epoch,
                },
            ),
        );
        let deadline = r0 + calib::recovery().migrate_timeout;
        let done = scan(ctx, a.sub, Some(deadline), |ev| {
            ev.payload_as::<PrecopyDoneMsg>()
                .filter(|m| ev.name == FTB_PRECOPY_DONE && m.cycle == id && m.round == round)
                .copied()
        });
        let Some(done) = done.filter(|d| d.ok) else {
            fell_back = true;
            break;
        };
        let dur = ctx.now() - r0;
        inner.journal.append(WalRecord::PrecopyRound {
            cycle: id,
            round,
            bytes: done.bytes,
        });
        ctx.check_killed();
        a.step(CycleEvent::PrecopyRound);
        {
            let mut st = c.state.lock();
            st.precopied += done.bytes;
            st.rounds += 1;
        }
        // Residual pending right now: the size of the next round (or of
        // the cutover stop-and-copy, if the verdict is to stop).
        let pending: u64 = c.ranks.iter().map(|&r| inner.job.cr(r).dirty_bytes()).sum();
        let budget = controller.get_or_insert_with(|| livemig::DowntimeBudget {
            budget: Duration::from_millis(live.downtime_budget_ms.into()),
            lane_bw: done.bytes as f64 / dur.as_secs_f64().max(1e-9),
            // The fixed floor covers only what the cutover timing can
            // influence (tree adjust + per-process restart base); the
            // constant Phase 4 resume is paid whenever we stop, so it has
            // no place in the convergence decision.
            fixed: calib::SPAWN_TREE_ADJUST + calib::restart_costs().base,
            max_rounds: live.max_rounds,
        });
        let verdict = budget.decide(&livemig::RoundReport {
            round,
            dirty_bytes_pending: pending,
        });
        ctx.instant_with("live", "round_verdict", || {
            vec![
                ("cycle", id.into()),
                ("round", round.into()),
                ("bytes", done.bytes.into()),
                ("pending", pending.into()),
                ("verdict", format!("{verdict:?}").into()),
            ]
        });
        match verdict {
            livemig::Decision::Continue => round += 1,
            livemig::Decision::CutOver => {
                c.state.lock().cutover = true;
                a.step(CycleEvent::Cutover);
                break;
            }
            livemig::Decision::Fallback => {
                fell_back = true;
                break;
            }
        }
    }
    if fell_back {
        // Divergence, a timed-out round, or a failed pull: abandon the
        // pre-copied state and run the classic full stop-and-copy. The
        // dirty trackers are disarmed so source ranks stream complete
        // images.
        a.step(CycleEvent::FallbackStopCopy);
        c.state.lock().accums.clear();
        for &r in &c.ranks {
            inner.job.cr(r).disarm_dirty();
        }
        ctx.instant_with("log", "live_fallback", || {
            vec![("cycle", id.into()), ("rounds", round.into())]
        });
    }
    ph.end();
    Ok(())
}

/// Source NLA, one round: capture each local rank's state while it keeps
/// running and stream it through a fresh per-round buffer pool — the full
/// image at round 0 (arming dirty tracking first, so no write after the
/// capture can be lost), a dirty-segment delta afterwards.
pub(super) fn source_side(ctx: &Ctx, rt: &JobRuntime, nla: &Arc<NlaShared>, m: PrecopyMsg) {
    let inner = &rt.inner;
    let Some(cycle) = rt.mig_cycle(m.cycle) else {
        return;
    };
    let Some(rv) = cycle.round_rendezvous() else {
        return;
    };
    let ranks = nla.ranks();
    let hca = inner.cluster.fabric().attach(m.source);
    let (pool, ackloop) = bufpool::source(ctx, &hca, cycle.pool, ranks.len() as u32, &rv);
    cycle.track(ackloop);
    let blcr = &inner.cluster.node(m.source).blcr;
    for rank in ranks {
        let cr = inner.job.cr(rank);
        let snap = if m.round == 0 {
            // Arm *before* capturing: a write landing during the capture
            // is re-sent in round 1 — duplicated, never lost.
            cr.arm_dirty(livemig::PAGE_BYTES);
            None
        } else {
            cr.take_dirty()
        };
        let meta = cr.capture_meta();
        let image = match snap {
            Some(snap) => delta_image(rank, &meta, &snap, m.round),
            // Round 0, or tracking vanished (rank restored elsewhere?):
            // stream the full image — correct, if not fast.
            None => build_image(rank, &meta),
        };
        let mut sink = pool.sink(ctx, rank, image.checksum());
        if blcr.try_checkpoint(ctx, &image, &mut sink).is_err() {
            // Incomplete stream: the target's pull stalls and the round
            // deadline degrades the cycle to stop-and-copy.
            ctx.instant_with("ckpt", "precopy_dump_failed", || {
                vec![
                    ("rank", rank.into()),
                    ("cycle", m.cycle.into()),
                    ("round", m.round.into()),
                ]
            });
        }
    }
}

/// Target NLA, one round: pull the round's streams, then merge each
/// rank's payload into its [`livemig::ImageAccumulator`] (paying parse +
/// populate cost for exactly the pulled bytes — all overlapped with the
/// running application) and report the round to the Job Manager.
pub(super) fn target_side(ctx: &Ctx, rt: &JobRuntime, ftb: &FtbClient, m: PrecopyMsg) {
    let inner = &rt.inner;
    let Some(cycle) = rt.mig_cycle(m.cycle) else {
        return;
    };
    let Some(rv) = cycle.round_rendezvous() else {
        return;
    };
    let hca = inner.cluster.fabric().attach(m.target);
    let res = inner.cluster.node(m.target);
    let store: Arc<dyn storesim::CkptStore> = Arc::new(res.fs.clone());
    let report = |ok: bool, bytes: u64| {
        ftb.publish(
            ctx,
            FtbEvent::with_payload(
                MPI_SPACE,
                FTB_PRECOPY_DONE,
                Severity::Info,
                m.target,
                PrecopyDoneMsg {
                    cycle: m.cycle,
                    round: m.round,
                    ok,
                    bytes,
                },
            ),
        );
    };
    let result = match bufpool::target(
        ctx,
        &hca,
        cycle.pool,
        &rv,
        store,
        &format!("mig.{}.pre{}", m.cycle, m.round),
        None,
    ) {
        Ok(r) => r,
        Err(abort) => {
            ctx.instant_with("pool", "precopy_pull_aborted", || {
                vec![
                    ("cycle", m.cycle.into()),
                    ("round", m.round.into()),
                    ("reason", abort.reason.into()),
                ]
            });
            report(false, abort.bytes_pulled);
            return;
        }
    };
    // Collect-and-sort: the pull's image map is a HashMap and merge
    // order must not depend on hash order.
    // jmlint: allow(hash_iter)
    let mut staged: Vec<(u32, AssembledImage)> = result.images.into_iter().collect();
    staged.sort_by_key(|(rank, _)| *rank);
    let mut ok = true;
    for (rank, info) in staged {
        let Ok(img) = restart::blcr_restart(ctx, res, info.slices, &info.path) else {
            ok = false;
            continue;
        };
        if img.checksum() != info.expected_checksum {
            // A corrupt round payload never reaches the accumulator; the
            // controller falls back to classic stop-and-copy.
            ok = false;
            continue;
        }
        let accums = &mut cycle.state.lock().accums;
        match livemig::delta::decode(&img) {
            Ok(Some(d)) => {
                if accums.entry(rank).or_default().apply(&d).is_err() {
                    ok = false;
                }
            }
            Ok(None) => accums.entry(rank).or_default().seed_full(img),
            Err(_) => ok = false,
        }
    }
    report(ok, result.bytes_pulled);
}
