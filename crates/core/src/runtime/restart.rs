//! Phase 3, Restart: the Job Manager's restart broadcast and wait, and
//! the target NLA restarting every migrated process from its image.

use super::*;
use crate::cluster::NodeResources;
use simkit::Span;

/// Job Manager side. In overlap mode the broadcast already went out in
/// Phase 2 and the phase runs under the `restart` span opened there.
pub(super) fn run(a: &mut Attempt, overlapped: Option<Span>) -> Result<(), ()> {
    // The deadline runs from Phase 3's protocol start: in overlap mode
    // the work began earlier, so it only bounds the tail that remains
    // once the pull has drained.
    let deadline = a.ctx.now() + calib::recovery().restart_timeout;
    let barrier = overlapped.is_none();
    let ph = a.enter(MigPhase::Restart, overlapped)?;
    if barrier {
        broadcast(a.ctx, a.rt, a.ftb, &a.cycle, a.epoch, true, || ());
        a.tree_adjusted = true;
    }
    let id = a.cycle.id;
    let ok = scan(a.ctx, a.sub, Some(deadline), |ev| {
        let m = ev.payload_as::<RestartMsg>();
        m.filter(|m| ev.name == FTB_RESTART_DONE && m.cycle == id)
            .map(drop)
    })
    .is_some()
        && wait_event_until(a.ctx, &a.cycle.restart_done, deadline);
    a.close(ph, ok, "restart_timeout", CycleEvent::RestartDone)?;
    // The commit point: every rank restarted on the target — from here
    // the target is authoritative and recovery must roll forward.
    a.rt.inner
        .journal
        .append(WalRecord::CommitPoint { cycle: id });
    a.ctx.check_killed();
    Ok(())
}

/// The restart broadcast: journal the rewire (unless `journal` is false
/// because the record is already durable), adjust the spawn tree, and
/// publish `FTB_RESTART` stamped with `epoch`. `adjusted` runs between
/// the tree adjust and the publish; the overlap path opens its `restart`
/// span there.
pub(super) fn broadcast<R>(
    ctx: &Ctx,
    rt: &JobRuntime,
    ftb: &FtbClient,
    cycle: &MigCycle,
    epoch: u64,
    journal: bool,
    adjusted: impl FnOnce() -> R,
) -> R {
    let inner = &rt.inner;
    if journal {
        inner.journal.append(WalRecord::NlaRewire {
            cycle: cycle.id,
            target: cycle.target,
        });
        ctx.check_killed();
    }
    ctx.sleep(calib::SPAWN_TREE_ADJUST);
    inner.spawn_tree.lock().replace(cycle.source, cycle.target);
    let r = adjusted();
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_RESTART,
            Severity::Error,
            inner.cluster.login(),
            RestartMsg {
                cycle: cycle.id,
                target: cycle.target,
                ranks: cycle.ranks.clone(),
                epoch,
            },
        ),
    );
    r
}

/// Target NLA: restart every migrated process from its image.
pub(super) fn target_side(
    ctx: &Ctx,
    rt: &JobRuntime,
    nla: &Arc<NlaShared>,
    ftb: &FtbClient,
    r: RestartMsg,
) {
    let inner = &rt.inner;
    let Some(cycle) = rt.mig_cycle(r.cycle) else {
        return;
    };
    let overlap = cycle.pool.overlap;
    if !overlap {
        // Barrier mode (the paper's protocol): no rank restarts until the
        // whole pull has landed.
        cycle.images_ready.wait(ctx);
    }
    let res = inner.cluster.node(r.target);
    // File-based restarts read their checkpoint/temp files cold: BLCR's
    // `cr_restart` read path does not benefit from the page cache the way
    // a plain sequential read would (the paper attributes Phase 3's
    // dominance to exactly this file I/O).
    let cold = cycle.pool.restart_mode == RestartMode::FileBased;
    if cold && !overlap {
        use storesim::CkptStore;
        res.fs.drop_caches();
    }
    // Restart admission throttles how many ranks hit the local disk at
    // once: with all images behind one degraded-sharing spindle, a full
    // fan-out of cold readers is slower end-to-end than a small window.
    // The barrier restarts every rank at once, as the paper does.
    let admission = if overlap {
        calib::RESTART_ADMISSION
    } else {
        r.ranks.len() as u32
    };
    let gate = Semaphore::new(&ctx.handle(), admission.into());
    let done = Countdown::new(&ctx.handle(), "restart-workers", r.ranks.len() as u64);
    let failures = Arc::new(AtomicU64::new(0));
    for rank in r.ranks.clone() {
        let rt2 = rt.clone();
        let cycle2 = cycle.clone();
        let done2 = done.clone();
        let failures2 = failures.clone();
        let gate2 = gate.clone();
        let fs2 = res.fs.clone();
        let target = r.target;
        let ph = ctx.spawn_daemon(&format!("restart-r{rank}"), move |ctx| {
            if overlap {
                // Start the moment *this* rank's image is assembled,
                // while other ranks are still streaming.
                if let Some(ev) = cycle2.rank_ready.get(&rank) {
                    ev.wait(ctx);
                }
            }
            gate2.acquire(ctx, 1);
            if cold && overlap {
                // Evict only this rank's image right before its read, so
                // every restart read is cold (matching barrier-mode
                // semantics) without flushing files still being staged.
                use storesim::CkptStore;
                let path = cycle2
                    .images
                    .lock()
                    .get(&rank)
                    .and_then(|i| i.slices.is_none().then(|| i.path.clone()));
                if let Some(path) = path {
                    fs2.evict(&path);
                }
            }
            ctx.instant_with("pool", "restart_begin", || {
                vec![("cycle", cycle2.id.into()), ("rank", rank.into())]
            });
            if let Err(e) = restart_one_rank(ctx, &rt2, &cycle2, rank, target) {
                ctx.instant_with("log", "restart_rank_failed", || {
                    vec![
                        ("rank", rank.into()),
                        ("cycle", cycle2.id.into()),
                        ("error", e.to_string().into()),
                    ]
                });
                failures2.fetch_add(1, Ordering::Relaxed);
            }
            gate2.release(1);
            done2.arrive();
        });
        cycle.track(ph);
    }
    done.wait(ctx);
    if failures.load(Ordering::Relaxed) > 0 {
        // Leave `restart_done` unset: the Job Manager's Phase 3 deadline
        // aborts the cycle, rolls the ranks back to the source, and
        // retries or degrades — the failure lands in `MigrationOutcome`
        // instead of tearing down the simulation.
        return;
    }
    *nla.ranks.lock() = r.ranks.clone();
    nla_apply(ctx, nla, NlaEvent::RestartComplete);
    ftb.publish(
        ctx,
        FtbEvent::with_payload(
            MPI_SPACE,
            FTB_RESTART_DONE,
            Severity::Info,
            r.target,
            r.clone(),
        ),
    );
    cycle.restart_done.set();
}

/// Why a single rank's Phase 3 restart failed. Routed (via the Phase 3
/// deadline abort) into [`MigrationOutcome`] accounting rather than
/// panicking the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RestartRankError {
    /// The cycle's image table has no entry for this rank.
    ImageMissing,
    /// BLCR could not parse/restore the image stream.
    ImageParse(String),
    /// The live-migration residual delta could not be applied to the
    /// pre-copied base image (missing or inconsistent accumulator).
    DeltaApply(String),
    /// The restored image's checksum disagrees with the streamed one.
    ChecksumMismatch {
        /// Checksum recomputed from the restored image.
        got: u64,
        /// Checksum recorded when the image was streamed.
        want: u64,
    },
    /// The image metadata framing was truncated or malformed.
    MetaCorrupt(MetaError),
}

impl std::fmt::Display for RestartRankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartRankError::ImageMissing => write!(f, "no assembled image"),
            RestartRankError::ImageParse(e) => write!(f, "image parse: {e}"),
            RestartRankError::DeltaApply(e) => write!(f, "residual delta apply: {e}"),
            RestartRankError::ChecksumMismatch { got, want } => {
                write!(f, "checksum mismatch: got {got:#x}, want {want:#x}")
            }
            RestartRankError::MetaCorrupt(e) => write!(f, "meta corrupt: {e}"),
        }
    }
}

/// BLCR restart of one assembled image on `res`: from the buffer pool's
/// in-memory stream in memory-based mode (only parse + populate costs
/// remain), else from its staged file at `path`.
pub(super) fn blcr_restart(
    ctx: &Ctx,
    res: &NodeResources,
    slices: Option<ibfabric::Rope>,
    path: &str,
) -> Result<ProcessImage, blcrsim::StreamError> {
    let costs = calib::restart_costs();
    match slices {
        Some(slices) => res
            .blcr
            .restart(ctx, &mut blcrsim::MemSource::new(slices), &costs),
        None => {
            let store: Arc<dyn storesim::CkptStore> = Arc::new(res.fs.clone());
            let mut src = StoreSource::new(store, path.to_string());
            res.blcr.restart(ctx, &mut src, &costs)
        }
    }
}

fn restart_one_rank(
    ctx: &Ctx,
    rt: &JobRuntime,
    cycle: &Arc<MigCycle>,
    rank: u32,
    target: NodeId,
) -> Result<(), RestartRankError> {
    let inner = &rt.inner;
    let info = cycle
        .images
        .lock()
        .get(&rank)
        .cloned()
        .ok_or(RestartRankError::ImageMissing)?;
    let res = inner.cluster.node(target);
    let image = blcr_restart(ctx, res, info.slices, &info.path)
        .map_err(|e| RestartRankError::ImageParse(e.to_string()))?;
    // Live cutover: the streamed bytes are the residual delta, and only
    // its (small) population cost was just paid — the pre-copied bulk was
    // populated into the accumulator during the overlapped rounds. Merge
    // and fall through to the same end-to-end checksum verification,
    // which now proves the *merged* image equals the source's final
    // state: the no-lost-dirty-segment invariant, checked per restart.
    let image = match cycle.live.as_ref().filter(|l| l.cut_over()) {
        Some(live) => match livemig::delta::decode(&image) {
            Ok(Some(d)) => {
                let mut acc = live
                    .accums
                    .lock()
                    .remove(&rank)
                    .ok_or_else(|| RestartRankError::DeltaApply("no accumulator".into()))?;
                acc.apply(&d)
                    .map_err(|e| RestartRankError::DeltaApply(e.to_string()))?;
                acc.into_image()
                    .ok_or_else(|| RestartRankError::DeltaApply("no base image".into()))?
            }
            // The source streamed a full image (it had no dirty-tracking
            // state); restart from it directly.
            Ok(None) => image,
            Err(e) => return Err(RestartRankError::DeltaApply(e.to_string())),
        },
        None => image,
    };
    if image.checksum() != info.expected_checksum {
        return Err(RestartRankError::ChecksumMismatch {
            got: image.checksum(),
            want: info.expected_checksum,
        });
    }
    let meta = unwrap_meta(&image).map_err(RestartRankError::MetaCorrupt)?;
    // NLA-side WAL append: the image verified, the rank is about to be
    // placed on the target (see the `RankImageReady` append for why this
    // appender surviving a coordinator crash matters).
    inner.journal.append(WalRecord::RankRestarted {
        cycle: cycle.id,
        rank,
    });
    rt.rank_apply(ctx, rank, RankEvent::Restart);
    inner.job.set_rank_node(rank, target);
    inner.job.cr(rank).restore_meta(meta);
    inner.job.purge_stale_rts_from(rank);
    rt.spawn_app(rank);
    rt.spawn_cr_thread(rank, Some(cycle.clone()));
    Ok(())
}
