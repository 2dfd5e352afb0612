//! The Job Manager: trigger dispatch, the self-healing attempt loop, and
//! one attempt written as the cycle table's sequence of phase calls.

use super::*;
use protoverify::{emit_transition, CYCLE_LABELS};
use simkit::Span;

pub(super) fn jm_proc(ctx: &Ctx, rt: JobRuntime) {
    let login = rt.inner.cluster.login();
    let ftb = FtbClient::connect(rt.inner.cluster.ftb(), login, "job-manager");
    let sub = ftb.subscribe(&ctx.handle(), EventFilter::space(MPI_SPACE));
    loop {
        match rt.inner.triggers.pop(ctx) {
            Trigger::Migrate { req } => run_migration(ctx, &rt, &ftb, &sub, req),
            Trigger::Checkpoint { req } => {
                cr_baseline::run_checkpoint(ctx, &rt, &ftb, &sub, req.store)
            }
            Trigger::RestartFromCkpt { cycle } => cr_baseline::run_restart(ctx, &rt, cycle),
        }
    }
}

pub(super) fn health_bridge(ctx: &Ctx, rt: JobRuntime) {
    let login = rt.inner.cluster.login();
    let client = FtbClient::connect(rt.inner.cluster.ftb(), login, "health-bridge");
    let sub = client.subscribe(
        &ctx.handle(),
        EventFilter {
            space: Some(healthmon::HEALTH_SPACE.to_string()),
            names: None,
            min_severity: Some(Severity::Error),
        },
    );
    loop {
        let ev = sub.pop(ctx);
        let Some(alert) = ev.payload_as::<healthmon::HealthAlert>() else {
            continue;
        };
        let node = alert.node;
        let queue = {
            let mut st = rt.inner.state.lock();
            let hosts_ranks = st.nlas.get(&node).is_some_and(|n| n.hosts_ready_ranks());
            hosts_ranks && st.pending_sources.insert(node)
        };
        if queue {
            rt.inner.triggers.push(Trigger::Migrate {
                req: MigrationRequest::new().from_node(node).label("health-auto"),
            });
        }
    }
}

/// Pop events from `sub` until `accept` takes one, or the virtual-time
/// `deadline` passes (`None`). Events `accept` passes over (acks of older
/// cycles or rounds, other traffic) are dropped. Without a deadline the
/// wait is a plain [`Queue::pop`], which arms no timer.
pub(crate) fn scan<T>(
    ctx: &Ctx,
    sub: &Queue<FtbEvent>,
    deadline: Option<SimTime>,
    mut accept: impl FnMut(&FtbEvent) -> Option<T>,
) -> Option<T> {
    loop {
        let ev = match deadline {
            None => sub.pop(ctx),
            Some(deadline) => {
                let now = ctx.now();
                if now >= deadline {
                    return None;
                }
                sub.pop_timeout(ctx, deadline - now)?
            }
        };
        if let Some(t) = accept(&ev) {
            return Some(t);
        }
    }
}

/// [`scan`] predicate for the stall fan-in the paper's Job Stall time
/// measures: takes the `FTB_SUSPEND_ACK` that completes the set of `n`
/// ranks acknowledging `cycle`.
pub(crate) fn all_suspended(cycle: u64, n: u32) -> impl FnMut(&FtbEvent) -> Option<()> {
    let mut seen = HashSet::new();
    move |ev| {
        let a = ev
            .payload_as::<SuspendAckMsg>()
            .filter(|a| ev.name == FTB_SUSPEND_ACK && a.cycle == cycle)?;
        seen.insert(a.rank);
        (seen.len() >= n as usize).then_some(())
    }
}

/// Wait for `ev` with a virtual-time deadline.
pub(super) fn wait_event_until(ctx: &Ctx, ev: &Event, deadline: SimTime) -> bool {
    if ev.is_set() {
        return true;
    }
    let now = ctx.now();
    if now >= deadline {
        return false;
    }
    ev.wait_timeout(ctx, deadline - now)
}

/// Wait for `cd` with a virtual-time deadline.
pub(super) fn wait_countdown_until(ctx: &Ctx, cd: &Countdown, deadline: SimTime) -> bool {
    let now = ctx.now();
    if now >= deadline {
        return false;
    }
    cd.wait_timeout(ctx, deadline - now)
}

pub(super) fn record_outcome(ctx: &Ctx, rt: &JobRuntime, outcome: MigrationOutcome) {
    rt.inner.state.lock().outcomes.record(outcome);
    ctx.instant_with("log", "migration_outcome", || {
        vec![("outcome", outcome.name().into())]
    });
}

/// Step the migration-cycle phase machine and emit the transition to the
/// trace. [`StepError::NoTransition`] means runtime and spec disagree — a
/// protocol bug trapped loudly; [`StepError::GuardRejected`] is returned
/// to the caller (it is normal control flow, e.g. a retry with the budget
/// exhausted).
fn proto_step(
    ctx: &Ctx,
    stepper: &mut CycleStepper<'_>,
    ev: CycleEvent,
    g: &GuardCtx,
) -> Result<(), StepError> {
    let from = stepper.phase();
    match stepper.step(ev, g) {
        Ok(t) => {
            emit_transition(ctx, &CYCLE_LABELS, None, from, ev, t.to);
            Ok(())
        }
        Err(e @ StepError::GuardRejected { .. }) => Err(e),
        Err(e @ StepError::NoTransition { .. }) => {
            // jmlint: allow(hot_unwrap) — spec invariant trap: the model check proves the table total
            panic!("migration cycle protocol violation: {e}")
        }
    }
}

fn run_migration(
    ctx: &Ctx,
    rt: &JobRuntime,
    ftb: &FtbClient,
    sub: &Queue<FtbEvent>,
    req: MigrationRequest,
) {
    let inner = &rt.inner;
    // Resolve the source node: the requested one, else the first ready
    // node hosting ranks (the registry iterates in node-id order).
    let mut st = inner.state.lock();
    let ready = |n: &&Arc<NlaShared>| n.hosts_ready_ranks();
    let Some(source) = req
        .source
        .or_else(|| st.nlas.values().find(ready).map(|n| n.node))
    else {
        return;
    };
    let ranks = st.nlas.get(&source).filter(ready).map(|n| n.ranks());
    let Some(ranks) = ranks else {
        st.pending_sources.remove(&source);
        return;
    };
    drop(st);

    // Self-healing attempt loop: each attempt leases a spare from the
    // front of the cluster's shared pool; a spare that survives its
    // failed attempt is returned for reuse. When the retry budget or the
    // spare pool is exhausted, degrade to a coordinated checkpoint so the
    // job remains recoverable (§III-A's failure handling, hardened).
    //
    // Control flow is driven through the declarative cycle table: every
    // attempt starts by stepping `Trigger`/`Retry` (whose `RetryPath`
    // guard owns the "spare available AND budget left" decision), and the
    // degrade path below is reached exactly when that guard rejects.
    let rec = calib::recovery();
    let pool = req.tuning.unwrap_or_default();
    let plane = inner.cluster.fault_plane();
    if let Some(p) = &plane {
        // The plane may have been installed after launch; (re)arm the
        // journal so scheduled coordinator crashes fire on appends.
        inner.journal.install_fault_plane(p.clone());
    }
    let spec = MigrationSpec::shipped();
    let mut stepper = CycleStepper::new(&spec);
    let mut attempt = 0u32;
    loop {
        // Live pre-copy applies to the first attempt only: a retry's
        // target died with everything pre-copied onto it, and re-running
        // rounds against the retry budget would stretch an already-failing
        // cycle — retries go straight to the classic stop-and-copy path.
        let begin = match (attempt, pool.live) {
            (0, Some(_)) => CycleEvent::LiveTrigger,
            (0, None) => CycleEvent::Trigger,
            _ => CycleEvent::Retry,
        };
        let epoch = inner.state.lock().epoch;
        // Lease before stepping: with several jobs migrating concurrently
        // the pool may drain between a check and a take, so the guard's
        // "spare available" answer must come from one atomic pool
        // operation. `spares_left` reports the pre-lease count.
        let attempts_left = rec.max_attempts.saturating_sub(attempt);
        let lease = if attempts_left > 0 {
            inner.pool.lease_at(inner.job_id, epoch)
        } else {
            None
        };
        let g = GuardCtx {
            spares_left: match lease {
                Some(_) => inner.pool.available() as u32 + 1,
                None => 0,
            },
            attempts_left,
        };
        if proto_step(ctx, &mut stepper, begin, &g).is_err() {
            // RetryPath rejected: no spare or no budget — degrade below.
            if let Some(n) = lease {
                inner.pool.release_front_at(n, inner.job_id, epoch);
            }
            break;
        }
        let Some(target) = lease else {
            // Unreachable: the guard admits only with a lease in hand.
            break;
        };
        attempt += 1;
        if attempt > 1 {
            ctx.sleep(rec.backoff_delay(attempt));
        }
        if rt.adopt_spare(ctx, target) {
            // Freshly spawned NLA daemon: give it a moment of virtual
            // time to connect and subscribe before FTB_MIGRATE goes out.
            ctx.sleep(Duration::from_millis(1));
        }
        // WAL: the attempt and its lease binding are on record before any
        // protocol side effect. A coordinator crash scheduled at either
        // boundary kills us between the append and the side effect —
        // `check_killed` unwinds this proc on the spot.
        let id = rt.next_cycle_id();
        inner.journal.append(WalRecord::CycleStart {
            cycle: id,
            source,
            attempt,
        });
        ctx.check_killed();
        inner.journal.append(WalRecord::LeaseAcquire {
            cycle: id,
            node: target,
            epoch,
        });
        ctx.check_killed();
        let live = pool.live.filter(|_| attempt == 1);
        let cycle = rt.open_cycle(id, source, target, &ranks, pool, live);
        let mut a = Attempt {
            ctx,
            rt,
            ftb,
            sub,
            cycle,
            epoch,
            attempt,
            plane: plane.as_ref(),
            label: req.label.clone(),
            stepper: &mut stepper,
            tree_adjusted: false,
        };
        let Ok(report) = run_attempt(&mut a) else {
            continue;
        };
        inner.journal.append(WalRecord::LeaseCommit {
            cycle: id,
            node: target,
            epoch,
        });
        ctx.check_killed();
        inner.pool.consume_at(target, inner.job_id, epoch);
        record_outcome(ctx, rt, report.outcome);
        let mut st = inner.state.lock();
        st.mig_reports.push(report);
        st.pending_sources.remove(&source);
        drop(st);
        inner.journal.append(WalRecord::CycleEnd { cycle: id });
        ctx.check_killed();
        return;
    }

    // Degraded path: no spare (or every attempt failed). Checkpoint the
    // whole job to storage so it can be recovered off the ailing node.
    let g = GuardCtx {
        spares_left: inner.pool.available() as u32,
        attempts_left: rec.max_attempts.saturating_sub(attempt),
    };
    proto_step(ctx, &mut stepper, CycleEvent::Degrade, &g) // jmlint: allow(hot_unwrap) — spec invariant trap
        .expect("Degrade must be enabled when the retry guard rejects");
    let store = if inner.cluster.pvfs().is_some() {
        CrStoreKind::Pvfs
    } else {
        CrStoreKind::LocalExt3
    };
    ctx.instant_with("log", "migration_fallback_cr", || {
        vec![
            ("source", source.0.into()),
            ("attempts", attempt.into()),
            ("store", store.to_string().into()),
        ]
    });
    cr_baseline::run_checkpoint(ctx, rt, ftb, sub, store);
    record_outcome(ctx, rt, MigrationOutcome::FellBackToCr);
    let mut st = inner.state.lock();
    let cr_cycle = st.cr_reports.last().map(|r| r.cycle).unwrap_or(0);
    // Nothing moved: the report's target is the source.
    let report = MigrationReport::unmeasured(
        cr_cycle,
        source,
        source,
        MigrationOutcome::FellBackToCr,
        attempt,
    );
    st.mig_reports.push(report);
    st.pending_sources.remove(&source);
}

/// One migration attempt in flight: what its phase bodies share.
pub(super) struct Attempt<'a, 's> {
    pub ctx: &'a Ctx,
    pub rt: &'a JobRuntime,
    pub ftb: &'a FtbClient,
    pub sub: &'a Queue<FtbEvent>,
    pub cycle: Arc<MigCycle>,
    /// Coordinator epoch the attempt's commands are stamped with.
    pub epoch: u64,
    /// 1-based attempt number within the migration.
    pub attempt: u32,
    plane: Option<&'a FaultPlane>,
    /// Diagnostic label of the request, carried on every phase span.
    label: Option<String>,
    stepper: &'a mut CycleStepper<'s>,
    /// Whether the spawn tree already points at the target; an abort
    /// points it back.
    pub tree_adjusted: bool,
}

/// Every in-attempt row of the cycle table (phase completions, fault
/// effects) carries `Guard::Always`, so its guard context is irrelevant.
const ALWAYS: GuardCtx = GuardCtx {
    spares_left: 0,
    attempts_left: 0,
};

impl Attempt<'_, '_> {
    /// Take an in-attempt transition of the cycle table.
    pub(super) fn step(&mut self, ev: CycleEvent) {
        let _ = proto_step(self.ctx, self.stepper, ev, &ALWAYS);
    }

    /// Open `phase`'s `"phase"` span. It carries the cycle id, so the
    /// Figure 4 decomposition can be rebuilt from the trace alone
    /// (`telemetry::Timeline`).
    pub(super) fn span(&self, phase: MigPhase) -> Span {
        let (c, label) = (&self.cycle, self.label.clone());
        let (id, source, target, attempt) = (c.id, c.source, c.target, self.attempt);
        self.ctx.span_with("phase", phase.name(), move || {
            let mut a: simkit::Args = vec![
                ("cycle", id.into()),
                ("source", source.0.into()),
                ("target", target.0.into()),
                ("attempt", attempt.into()),
            ];
            if let Some(l) = &label {
                a.push(("label", l.as_str().into()));
            }
            a
        })
    }

    /// The prelude every phase shares. A spare crash scheduled for
    /// `phase` kills the spare and aborts the attempt. Otherwise the
    /// phase entry is journaled and its span opened, unless the phase
    /// already runs under `open` (the overlapped restart).
    ///
    /// Entering the stall also publishes `FTB_MIGRATE`: the entry record
    /// is that command's write-ahead record, and the standby reads a tail
    /// ending at it as "nothing suspended yet".
    pub(super) fn enter(&mut self, phase: MigPhase, open: Option<Span>) -> Result<Span, ()> {
        let (ctx, rt) = (self.ctx, self.rt);
        if self
            .plane
            .is_some_and(|p| p.take_spare_crash(phase, self.attempt))
        {
            kill_spare(ctx, rt, self.cycle.target);
            return self.fail(CycleEvent::SpareCrash, "spare_crash", false);
        }
        rt.inner.journal.append(WalRecord::PhaseEnter {
            cycle: self.cycle.id,
            phase,
        });
        ctx.check_killed();
        let ph = match open {
            Some(ph) => ph,
            None => self.span(phase),
        };
        if phase == MigPhase::Stall {
            let c = &self.cycle;
            self.ftb.publish(
                ctx,
                FtbEvent::with_payload(
                    MPI_SPACE,
                    FTB_MIGRATE,
                    Severity::Error,
                    rt.inner.cluster.login(),
                    MigrateMsg {
                        source: c.source,
                        target: c.target,
                        cycle: c.id,
                        epoch: self.epoch,
                    },
                ),
            );
        }
        Ok(ph)
    }

    /// Close a phase's wait: end its span, then abort on a missed
    /// deadline (the failure is named `timeout`) or step the table with
    /// `done`.
    pub(super) fn close(
        &mut self,
        ph: Span,
        ok: bool,
        timeout: &str,
        done: CycleEvent,
    ) -> Result<(), ()> {
        ph.end();
        if !ok {
            return self.fail(CycleEvent::PhaseTimeout, timeout, true);
        }
        self.step(done);
        Ok(())
    }
}

/// One migration attempt: the four-phase protocol of §III-A (after the
/// live pre-copy, when the cycle has one) under per-phase virtual-time
/// deadlines, plus scheduled spare-crash checks. On any failure the cycle
/// is aborted (ranks rolled back to the source and resumed) and `Err` is
/// returned; a surviving spare goes back to the front of the pool.
fn run_attempt(a: &mut Attempt) -> Result<MigrationReport, ()> {
    let (ctx, cycle) = (a.ctx, a.cycle.clone());
    let pre0 = ctx.now();
    if let Some(live) = &cycle.live {
        precopy::run(a, live)?;
    }
    let t0 = ctx.now();
    migrate::stall(a)?;
    let t1 = ctx.now();
    let restart_ph = migrate::pull(a)?;
    let t2 = ctx.now();
    restart::run(a, restart_ph)?;
    let t3 = ctx.now();
    resume::run(a)?;
    let outcome = if a.attempt == 1 {
        MigrationOutcome::Migrated
    } else {
        MigrationOutcome::MigratedAfterRetry
    };
    // A stop-and-copy cycle leaves the pre-copy counters at zero.
    let (rounds, bytes_moved) = {
        let st = cycle.state.lock();
        (st.rounds, st.piic_bytes + st.precopied)
    };
    Ok(MigrationReport {
        precopy: t0 - pre0,
        precopy_rounds: rounds,
        stall: t1 - t0,
        migrate: t2 - t1,
        restart: t3 - t2,
        resume: ctx.now() - t3,
        ranks_moved: cycle.ranks.len(),
        bytes_moved,
        ..MigrationReport::unmeasured(cycle.id, cycle.source, cycle.target, outcome, a.attempt)
    })
}
