//! The fleet orchestrator: many concurrent MPI jobs, one shared spare
//! pool, one policy engine.
//!
//! A [`FleetConfig`] carves the cluster's compute nodes into fixed-size
//! *slots*, each running a sequence of NPB jobs (a finished job is torn
//! down and its slot relaunched on the nodes the previous incarnation
//! ended up on, so a migrated slot keeps its adopted spare). Around the
//! slots the orchestrator runs four daemon families:
//!
//! * **fleet manager** — subscribes to `FTB.HEALTH` fleet-wide, maps each
//!   alert to the slot hosting the sick node, and asks the configured
//!   [`FleetPolicy`] what to do. Migrations pass *admission control*: at
//!   most as many in-flight migrations as there are free spares; the rest
//!   queue by deadline and either dispatch when the pool refills or
//!   degrade to an immediate checkpoint when their patience runs out.
//! * **pump** — polls job reports: completes in-flight accounting, feeds
//!   measured migration costs back to the policy engine, relaunches
//!   finished slots, dispatches and expires queued migration orders.
//! * **doom executors** — one per scheduled failure
//!   ([`faultplane::DoomPlan`]): kill the node's job at its death time
//!   (waiting for any in-flight control cycle to finish first, so a crash
//!   never wedges a Job Manager mid-checkpoint), drive the
//!   checkpoint-restart recovery, and *reclaim* the node into the shared
//!   spare pool once repaired — the pool's only refill path, closing the
//!   lease → consume → vacate → reclaim loop `protoverify::fleet` checks.
//! * **checkpoint cadence** — every slot takes periodic coordinated
//!   checkpoints under every policy (the safety net the paper argues
//!   migration lets you stretch).
//!
//! Everything is deterministic: one seed fixes the doom schedule, sensor
//! noise, and every daemon's cadence, so a fleet run replays
//! byte-identically.

use crate::policy::{AlertLevel, FleetAlert, FleetPolicy, FleetView, PolicyAction, PolicyKind};
use faultplane::{DoomPlan, FaultPlan, FaultSpec, NodeDoom};
use ftb::{EventFilter, FtbClient, Severity};
use healthmon::{HealthAlert, MonitorConfig, SensorKind, SensorProfile, HEALTH_SPACE};
use ibfabric::NodeId;
use jobmig_core::prelude::*;
use jobmig_core::report::OutcomeCounts;
use jobmig_core::runtime::{JobSpec, Placement};
use npbsim::{NpbApp, NpbClass, Workload};
use parking_lot::Mutex;
use simkit::{Ctx, SimTime, Simulation};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Fleet orchestration configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulation seed (also seeds the doom schedule).
    pub seed: u64,
    /// Number of job slots (concurrently running jobs).
    pub slots: usize,
    /// Home nodes per slot; `slots × nodes_per_slot` compute nodes total.
    pub nodes_per_slot: u32,
    /// Ranks per node.
    pub ppn: u32,
    /// Shared hot-spare pool size.
    pub spares: u32,
    /// Per-slot workload (its `np` must equal `nodes_per_slot × ppn`).
    pub workload: Workload,
    /// Soak horizon in virtual time.
    pub horizon: Duration,
    /// Periodic coordinated-checkpoint cadence (all policies).
    pub ckpt_period: Duration,
    /// Nodes doomed to fail over the horizon.
    pub doom_count: usize,
    /// Fraction of dooms preceded by a predictable sensor ramp.
    pub predictable_frac: f64,
    /// Temperature ramp rate (°C/s) of predictable dooms.
    pub ramp_rate: f64,
    /// A predictable doom's node dies this long after its onset
    /// (unpredictable dooms die at onset, with no warning).
    pub death_after: Duration,
    /// Resubmission-queue delay paid after a crash.
    pub queue_delay: Duration,
    /// How long a queued migration order waits for a spare before
    /// degrading to an immediate checkpoint.
    pub queue_patience: Duration,
    /// Prior for the measured migration cost before any cycle completes.
    pub cost_prior: Duration,
    /// Health monitor configuration (every doomed-predictable node gets
    /// one monitor).
    pub mon: MonitorConfig,
    /// FTB failure-detection period, copied into `ClusterSpec::ftb`. No
    /// fleet run reads it: only leaves of the flat FTB tree die, so no
    /// agent ever has to detect a dead parent.
    pub ftb_heartbeat: Duration,
    /// Launch every slot with a standby coordinator. Combined with a
    /// `CoordinatorCrash` fault plan this exercises WAL takeover under
    /// fleet contention: each promotion fences its job's leases with a
    /// fresh epoch and resolves the in-flight cycle resume-or-rollback.
    pub takeover: bool,
    /// Coordinator-crash schedule for the takeover soak: each entry kills
    /// the first Job Manager whose cycle journal reaches that WAL point
    /// (entries fire at most once, fleet-wide). Requires `takeover`, or
    /// the killed job simply never finishes its cycle.
    pub coord_crashes: Vec<faultplane::WalPoint>,
}

impl FleetConfig {
    /// The reference fleet soak: 8 concurrent LU.A.8 jobs on 64 compute
    /// nodes with 4 shared spares, 12 node failures (75 % predictable)
    /// over 2 simulated hours.
    pub fn soak(seed: u64) -> FleetConfig {
        let mut workload = Workload::new(NpbApp::Lu, NpbClass::A, 8);
        // Coarser iterations: same modelled runtime, fewer scheduler
        // events — a fleet soak simulates dozens of job incarnations.
        workload.iters = 64;
        FleetConfig {
            seed,
            slots: 8,
            nodes_per_slot: 8,
            ppn: 1,
            spares: 4,
            workload,
            horizon: Duration::from_secs(7200),
            ckpt_period: Duration::from_secs(120),
            doom_count: 12,
            predictable_frac: 0.75,
            ramp_rate: 0.25,
            death_after: Duration::from_secs(150),
            queue_delay: Duration::from_secs(120),
            queue_patience: Duration::from_secs(45),
            // An np=8 whole-cycle migration measures ~6-10 s on this
            // testbed; the prior must sit in that range or the utility
            // policy can never bootstrap (2 × prior must fit inside the
            // ~55 s prediction horizon for the first migration to start
            // producing measured costs).
            cost_prior: Duration::from_secs(10),
            mon: MonitorConfig {
                interval: Duration::from_secs(2),
                ..MonitorConfig::default()
            },
            ftb_heartbeat: Duration::from_secs(10),
            takeover: false,
            coord_crashes: Vec::new(),
        }
    }

    /// The compute nodes this configuration's cluster will have
    /// (`Cluster::build` numbers them 1..=n after the login node).
    pub fn fleet_compute_nodes(&self) -> Vec<NodeId> {
        (1..=self.slots as u32 * self.nodes_per_slot)
            .map(NodeId)
            .collect()
    }

    /// The doom schedule this configuration implies.
    pub fn doom_plan(&self) -> DoomPlan {
        DoomPlan::generate(
            // Decorrelate from the simulation seed without hiding the
            // dependence on it.
            self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xD003),
            &self.fleet_compute_nodes(),
            self.doom_count,
            self.horizon,
            self.predictable_frac,
        )
    }
}

/// Aggregated result of one policy's fleet run.
#[derive(Debug, Clone)]
pub struct PolicyStats {
    /// Policy name.
    pub policy: String,
    /// Jobs run to completion across all slots.
    pub jobs_completed: u64,
    /// Completed jobs per simulated hour.
    pub throughput_per_hour: f64,
    /// Total work lost to crashes (time since the victim's last completed
    /// checkpoint, summed over crashes).
    pub work_lost: Duration,
    /// Node deaths that killed a running job.
    pub crashes: u64,
    /// Checkpoint-restart recoveries completed.
    pub restarts: u64,
    /// Crashes with no checkpoint to restart from (slot relaunched from
    /// scratch).
    pub scratch_restarts: u64,
    /// Fleet-aggregated migration outcomes.
    pub outcomes: OutcomeCounts,
    /// Coordinated checkpoints taken (periodic + policy-issued).
    pub checkpoints: u64,
    /// Immediate checkpoints the policy chose over migrating.
    pub alert_checkpoints: u64,
    /// Migration orders that had to queue for a spare.
    pub queued_orders: u64,
    /// Migrations issued as iterative pre-copy live migrations (the
    /// policy's choice per order; the runtime may still fall back to
    /// stop-and-copy on divergence).
    pub live_migrations: u64,
    /// Queued orders that timed out and degraded to a checkpoint.
    pub degraded_orders: u64,
    /// Health alerts received (predict + critical).
    pub alerts: u64,
    /// Nodes reclaimed into the spare pool after repair.
    pub reclaimed: u64,
    /// Standby-coordinator takeovers (total fencing-epoch bumps across
    /// all job incarnations); always 0 unless [`FleetConfig::takeover`].
    pub takeovers: u64,
    /// Spare pool counters at the end of the run.
    pub pool: SparePoolStats,
}

#[derive(Debug, Default)]
struct RunningStats {
    work_lost: Duration,
    crashes: u64,
    restarts: u64,
    scratch_restarts: u64,
    alert_checkpoints: u64,
    queued_orders: u64,
    live_migrations: u64,
    degraded_orders: u64,
    alerts: u64,
    reclaimed: u64,
}

/// One job slot: the current incarnation plus in-flight accounting.
struct Slot {
    nodes: Vec<NodeId>,
    rt: JobRuntime,
    launched_at: SimTime,
    /// Latest completed coordinated checkpoint: (cycle id, completion
    /// observation time).
    last_ckpt: Option<(u64, SimTime)>,
    seen_cr: usize,
    seen_mig: usize,
    pending_ckpts: u32,
    pending_migs: u32,
    /// An issued migration has been admitted against the pool but its
    /// lease has not been observed yet. While set, the spare the Job
    /// Manager is about to lease does not show in `pool.available()`
    /// accounting — admission control must count it as spoken for.
    /// Cleared by [`FleetShared::reconcile`] the moment the lease (or the
    /// finished cycle) becomes visible.
    reserved_mig: bool,
    /// Nodes an alert has already been acted on for (dedup of the
    /// PREDICT → CRITICAL pair).
    handled: Vec<NodeId>,
    /// Crashed; recovery in progress.
    down: bool,
    /// What the slot's earlier incarnations did.
    past: History,
}

/// What a slot's job incarnations did.
#[derive(Clone, Copy, Default)]
struct History {
    jobs_completed: u64,
    outcomes: OutcomeCounts,
    checkpoints: u64,
    /// Standby takeovers (fencing-epoch bumps).
    takeovers: u64,
}

impl Slot {
    fn busy(&self) -> bool {
        self.pending_ckpts + self.pending_migs > 0
    }

    /// The slot's history with its current incarnation counted in.
    fn history(&self) -> History {
        let mut h = self.past;
        h.jobs_completed += u64::from(self.rt.is_complete());
        accumulate(&mut h.outcomes, &self.rt.migration_outcomes());
        h.checkpoints += self.rt.cr_reports().len() as u64;
        h.takeovers += self.rt.fencing_epoch();
        h
    }
}

/// A queued migration order awaiting a free spare.
#[derive(Debug, Clone, Copy)]
struct Order {
    slot: usize,
    node: NodeId,
    /// Whether the policy asked for live (pre-copy) migration.
    live: bool,
}

struct FleetShared {
    cfg: FleetConfig,
    cluster: Cluster,
    pool: SparePool,
    slots: Vec<Arc<Mutex<Slot>>>,
    state: Mutex<FleetState>,
}

/// Fleet-wide mutable state. Lock order: a slot's lock, then this one;
/// no guard on it is held while a slot is locked.
struct FleetState {
    /// Queued orders keyed by (deadline nanos, slot) — dispatch most
    /// urgent first; the slot index breaks ties deterministically.
    orders: BTreeMap<(u64, usize), Order>,
    /// Whole-cycle durations of completed migrations, fleet-wide — the
    /// measured cost the utility policy weighs.
    mig_costs: Vec<Duration>,
    next_job_id: u64,
    stats: RunningStats,
}

/// Launch one job incarnation on `nodes` as a fresh [`Slot`].
fn launch_slot(
    cfg: &FleetConfig,
    cluster: &Cluster,
    job_id: u64,
    nodes: Vec<NodeId>,
    now: SimTime,
) -> Slot {
    let mut spec = JobSpec::npb(cfg.workload.clone(), cfg.ppn);
    spec.standby = cfg.takeover;
    let rt = JobRuntime::launch_placed(
        cluster,
        spec,
        Placement::job(job_id).on_nodes(nodes.clone()),
    );
    Slot {
        nodes,
        rt,
        launched_at: now,
        last_ckpt: None,
        seen_cr: 0,
        seen_mig: 0,
        pending_ckpts: 0,
        pending_migs: 0,
        reserved_mig: false,
        handled: Vec::new(),
        down: false,
        past: History::default(),
    }
}

impl FleetShared {
    fn launch_into(&self, nodes: Vec<NodeId>, now: SimTime) -> Slot {
        let job_id = {
            let mut st = self.state.lock();
            st.next_job_id += 1;
            st.next_job_id - 1
        };
        launch_slot(&self.cfg, &self.cluster, job_id, nodes, now)
    }

    /// Shut the slot's incarnation down and launch a fresh one on
    /// `nodes`, keeping the slot's history with the old one counted in.
    fn relaunch(&self, s: &mut Slot, nodes: Vec<NodeId>, now: SimTime) {
        let past = s.history();
        s.rt.shutdown();
        *s = self.launch_into(nodes, now);
        s.past = past;
    }

    /// The slot currently hosting ranks on `node`, if any.
    fn slot_hosting(&self, node: NodeId) -> Option<usize> {
        (0..self.slots.len()).find(|&i| {
            let s = self.slots[i].lock();
            !s.rt.is_complete() && s.rt.hosts_ranks_on(node)
        })
    }

    fn est_migration_cost(&self) -> Duration {
        let st = self.state.lock();
        let costs = &st.mig_costs;
        if costs.is_empty() {
            self.cfg.cost_prior
        } else {
            costs.iter().sum::<Duration>() / costs.len() as u32
        }
    }

    /// Clear reservations whose lease is now visible in the pool: once
    /// the Job Manager holds (or has consumed) the spare, the commitment
    /// is reflected in `pool.available()` itself and must not be counted
    /// twice. Must not be called while holding a slot lock.
    fn reconcile(&self) {
        let leases = self.pool.leases();
        for slot in &self.slots {
            let mut s = slot.lock();
            if s.reserved_mig {
                let job = s.rt.job_id();
                if leases.iter().any(|(_, j)| *j == job) {
                    s.reserved_mig = false;
                }
            }
        }
    }

    /// Spares free for a *new* migration right now: the pool's free list
    /// minus admitted migrations whose lease hasn't landed yet. Must not
    /// be called while holding a slot lock.
    fn uncommitted_spares(&self) -> usize {
        self.reconcile();
        let reserved = self
            .slots
            .iter()
            .filter(|slot| slot.lock().reserved_mig)
            .count();
        self.pool.available().saturating_sub(reserved)
    }

    /// Issue a migration for `slot` away from `node`. The caller holds
    /// the slot's lock and has checked admission; at most one fleet
    /// migration is outstanding per slot.
    fn issue_migration(&self, s: &mut Slot, node: NodeId, label: &str, live: bool) {
        debug_assert!(!s.reserved_mig && s.pending_migs == 0);
        s.pending_migs += 1;
        s.reserved_mig = true;
        let mut req = MigrationRequest::new().from_node(node).label(label);
        if live {
            req = req.tuning(MigrationTuning::live());
            self.state.lock().stats.live_migrations += 1;
        }
        s.rt.control().migrate(req);
    }

    /// Issue a coordinated checkpoint for `slot`. The caller holds the
    /// slot's lock.
    fn issue_checkpoint(&self, s: &mut Slot) {
        s.pending_ckpts += 1;
        s.rt.control().checkpoint(CheckpointRequest::local());
    }
}

/// Deadline for a queued order: critical alerts get a third of the
/// configured patience — the node is already at the cliff edge.
fn order_deadline(cfg: &FleetConfig, level: AlertLevel, now: SimTime) -> u64 {
    let patience = match level {
        AlertLevel::Predict { .. } => cfg.queue_patience,
        AlertLevel::Critical => cfg.queue_patience / 3,
    };
    (now + patience).as_nanos()
}

fn fleet_manager(ctx: &Ctx, fleet: Arc<FleetShared>, mut policy: Box<dyn FleetPolicy>) {
    let client = FtbClient::connect(fleet.cluster.ftb(), fleet.cluster.login(), "fleetsched");
    let alerts = client.subscribe(
        fleet.cluster.handle(),
        EventFilter {
            space: Some(HEALTH_SPACE.to_string()),
            names: None,
            min_severity: Some(Severity::Error),
        },
    );
    loop {
        let ev = alerts.pop(ctx);
        let Some(payload) = ev.payload_as::<HealthAlert>() else {
            continue;
        };
        let level = match ev.name.as_str() {
            "HEALTH_PREDICT" => AlertLevel::Predict {
                eta: payload.predicted_in.unwrap_or(Duration::ZERO),
            },
            "HEALTH_CRITICAL" => AlertLevel::Critical,
            _ => continue,
        };
        let node = payload.node;
        fleet.state.lock().stats.alerts += 1;
        ctx.instant_with("fleet", "alert", || {
            vec![
                ("node", u64::from(node.0).into()),
                ("event", ev.name.as_str().into()),
            ]
        });
        let Some(idx) = fleet.slot_hosting(node) else {
            continue; // vacated or idle node — nothing to protect
        };
        let view = FleetView {
            uncommitted_spares: fleet.uncommitted_spares(),
            est_migration_cost: fleet.est_migration_cost(),
        };
        let alert = FleetAlert { node, level };
        let mut s = fleet.slots[idx].lock();
        if s.down || s.handled.contains(&node) {
            continue;
        }
        match policy.on_alert(&alert, &view) {
            PolicyAction::Ignore => {}
            PolicyAction::CheckpointNow => {
                s.handled.push(node);
                fleet.issue_checkpoint(&mut s);
                fleet.state.lock().stats.alert_checkpoints += 1;
            }
            action @ (PolicyAction::Migrate | PolicyAction::MigrateLive) => {
                let live = action == PolicyAction::MigrateLive;
                s.handled.push(node);
                // Admit when a spare is genuinely free and the slot has no
                // migration already in flight (one per slot at a time);
                // otherwise queue under a deadline.
                if view.uncommitted_spares > 0 && s.pending_migs == 0 {
                    fleet.issue_migration(&mut s, node, policy.name(), live);
                } else {
                    drop(s);
                    let key = (order_deadline(&fleet.cfg, level, ctx.now()), idx);
                    let mut st = fleet.state.lock();
                    st.orders.insert(
                        key,
                        Order {
                            slot: idx,
                            node,
                            live,
                        },
                    );
                    st.stats.queued_orders += 1;
                }
            }
        }
    }
}

/// The pump: report draining, slot relaunch, order dispatch and expiry.
fn pump(ctx: &Ctx, fleet: Arc<FleetShared>) {
    loop {
        ctx.sleep(Duration::from_millis(500));
        let now = ctx.now();
        for slot in &fleet.slots {
            let mut s = slot.lock();
            if s.down {
                continue;
            }
            // Drain new migration reports: close in-flight accounting and
            // feed measured costs back to the policy engine.
            let migs = s.rt.migration_reports();
            for r in &migs[s.seen_mig..] {
                if s.pending_migs > 0 {
                    s.pending_migs -= 1;
                }
                s.reserved_mig = false;
                if r.ranks_moved > 0 {
                    fleet.state.lock().mig_costs.push(r.total());
                }
            }
            s.seen_mig = migs.len();
            // Drain new CR reports: every new entry is a finished
            // coordinated checkpoint (restarts update their report in
            // place). A degraded migration also dumps one without a
            // pending checkpoint — it still advances the recovery line.
            // Only a complete checkpoint does: a restart refuses the rest.
            let crs = s.rt.cr_reports();
            for r in &crs[s.seen_cr..] {
                if r.complete {
                    s.last_ckpt = Some((r.cycle, now));
                }
                if s.pending_ckpts > 0 {
                    s.pending_ckpts -= 1;
                }
            }
            s.seen_cr = crs.len();
            // Finished job: tear down and relaunch the slot on the nodes
            // the last incarnation ended on (keeping adopted spares).
            if s.rt.is_complete() && !s.busy() {
                let mut nodes = Vec::new();
                for n in s.rt.rank_nodes() {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
                fleet.relaunch(&mut s, nodes, now);
            }
        }
        // Dispatch queued orders, most urgent first, under admission
        // control: never more in-flight migrations than free spares, at
        // most one per slot. Orders for busy slots stay queued for the
        // next tick; orders for dead or vacated targets are dropped.
        let keys: Vec<(u64, usize)> = fleet.state.lock().orders.keys().copied().collect();
        for key in keys {
            if fleet.uncommitted_spares() == 0 {
                break;
            }
            let Some(order) = fleet.state.lock().orders.get(&key).copied() else {
                continue;
            };
            let mut s = fleet.slots[order.slot].lock();
            if s.down || s.rt.is_complete() || !s.rt.hosts_ranks_on(order.node) {
                drop(s);
                fleet.state.lock().orders.remove(&key);
                continue;
            }
            if s.pending_migs > 0 {
                continue;
            }
            fleet.issue_migration(&mut s, order.node, "queued", order.live);
            drop(s);
            fleet.state.lock().orders.remove(&key);
        }
        // Expire overdue orders: degrade to an immediate checkpoint so
        // the coming crash loses almost nothing (the CR baseline is the
        // recovery path of last resort).
        let overdue: Vec<(u64, usize)> = fleet
            .state
            .lock()
            .orders
            .keys()
            .take_while(|(deadline, _)| *deadline <= now.as_nanos())
            .copied()
            .collect();
        for key in overdue {
            let Some(order) = fleet.state.lock().orders.remove(&key) else {
                continue;
            };
            let mut s = fleet.slots[order.slot].lock();
            if !s.down && !s.rt.is_complete() && s.rt.hosts_ranks_on(order.node) {
                fleet.issue_checkpoint(&mut s);
                fleet.state.lock().stats.degraded_orders += 1;
            }
        }
    }
}

/// Per-slot periodic checkpoint cadence (all policies).
fn ckpt_cadence(ctx: &Ctx, fleet: Arc<FleetShared>, idx: usize) {
    ctx.sleep(Duration::from_secs(5));
    loop {
        {
            let mut s = fleet.slots[idx].lock();
            if !s.down && !s.rt.is_complete() {
                fleet.issue_checkpoint(&mut s);
            }
        }
        ctx.sleep(fleet.cfg.ckpt_period);
    }
}

/// One doom's executor: kill, recover, reclaim.
fn doom_executor(ctx: &Ctx, fleet: Arc<FleetShared>, doom: NodeDoom) {
    let death_at = if doom.predictable {
        doom.onset + fleet.cfg.death_after
    } else {
        doom.onset
    };
    ctx.sleep(death_at);
    ctx.instant_with("fleet", "node_death", || {
        vec![
            ("node", u64::from(doom.node.0).into()),
            ("predictable", u64::from(doom.predictable).into()),
        ]
    });
    // Crash whatever job still occupies the node. Waits for any in-flight
    // control cycle to finish: `cr_baseline::run_checkpoint` bounds its
    // stall with a deadline, but its dump wait (`ckpt_done`) has none, so
    // crashing mid-checkpoint would wedge the Job Manager forever. (Not a
    // `while let`: the busy-retry arm is the only path that loops; every
    // other arm breaks.)
    #[allow(clippy::while_let_loop)]
    loop {
        let Some(idx) = fleet.slot_hosting(doom.node) else {
            break; // vacated in time — the proactive win
        };
        let slot = fleet.slots[idx].clone();
        let mut s = slot.lock();
        if s.down || !s.rt.hosts_ranks_on(doom.node) {
            break; // another doom is already killing this slot
        }
        if s.busy() {
            drop(s);
            ctx.sleep(Duration::from_millis(500));
            continue;
        }
        s.down = true;
        let rt = s.rt.clone();
        let since = s.last_ckpt.map(|(_, at)| at).unwrap_or(s.launched_at);
        let lost = Duration::from_nanos(ctx.now().as_nanos() - since.as_nanos());
        let ckpt = s.last_ckpt;
        drop(s);
        {
            let st = &mut fleet.state.lock().stats;
            st.crashes += 1;
            st.work_lost += lost;
        }
        rt.simulate_failure();
        ctx.sleep(fleet.cfg.queue_delay);
        match ckpt {
            Some((cycle, _)) => {
                rt.control().restart_from_checkpoint(cycle);
                loop {
                    ctx.sleep(Duration::from_secs(1));
                    let recovered = rt
                        .cr_reports()
                        .iter()
                        .find(|r| r.cycle == cycle)
                        .map(|r| r.restart.is_some())
                        .unwrap_or(false);
                    if recovered || rt.is_complete() {
                        break;
                    }
                }
                let mut s = slot.lock();
                s.down = false;
                // The restart observation counts as the new recovery line.
                s.last_ckpt = Some((cycle, ctx.now()));
                fleet.state.lock().stats.restarts += 1;
            }
            None => {
                // Crashed before its first checkpoint: relaunch the slot
                // from scratch on the same nodes.
                let mut s = slot.lock();
                let nodes = s.nodes.clone();
                fleet.relaunch(&mut s, nodes, ctx.now());
                fleet.state.lock().stats.scratch_restarts += 1;
            }
        }
        break;
    }
    // Repair and reclaim: once the node is fixed and nothing lives on it,
    // it re-enters the shared pool — the pool's only refill path.
    let reclaim_at = SimTime::ZERO + death_at + doom.repair_after;
    let now = ctx.now();
    if reclaim_at.as_nanos() > now.as_nanos() {
        ctx.sleep(Duration::from_nanos(reclaim_at.as_nanos() - now.as_nanos()));
    }
    let occupied = fleet.slot_hosting(doom.node).is_some();
    let pooled =
        fleet.pool.free_nodes().contains(&doom.node) || fleet.pool.leased_to(doom.node).is_some();
    if !occupied && !pooled {
        fleet.pool.reclaim(doom.node);
        fleet.state.lock().stats.reclaimed += 1;
        ctx.instant_with("fleet", "reclaim", || {
            vec![("node", u64::from(doom.node.0).into())]
        });
    }
}

fn accumulate(into: &mut OutcomeCounts, from: &OutcomeCounts) {
    into.migrated += from.migrated;
    into.migrated_after_retry += from.migrated_after_retry;
    into.fell_back_to_cr += from.fell_back_to_cr;
    into.lost += from.lost;
    into.resumed_by_standby += from.resumed_by_standby;
    into.rolled_back_by_standby += from.rolled_back_by_standby;
}

/// Run one policy's fleet soak in its own simulation and report the
/// aggregated statistics. Same `cfg` (and seed) ⇒ identical doom
/// schedule, sensors, and daemon cadence — runs differ only by policy.
pub fn run_policy(cfg: &FleetConfig, policy: PolicyKind) -> PolicyStats {
    run_policy_with_plan(cfg, policy, &cfg.doom_plan())
}

/// [`run_policy`] with an explicit doom schedule instead of the seeded
/// one — the hook tests use to stage exact failure scenarios (spare
/// exhaustion storms, staggered deaths).
pub fn run_policy_with_plan(cfg: &FleetConfig, policy: PolicyKind, plan: &DoomPlan) -> PolicyStats {
    run_policy_observed(cfg, policy, plan, |_| {})
}

/// [`run_policy_with_plan`] exposing the simulation handle before the
/// run starts, so callers can arm tracing/digesting or stash the handle
/// for post-run inspection (used by the determinism oracle and the
/// wall-clock bench).
pub fn run_policy_observed(
    cfg: &FleetConfig,
    policy: PolicyKind,
    plan: &DoomPlan,
    observe: impl FnOnce(&simkit::SimHandle),
) -> PolicyStats {
    assert_eq!(
        cfg.workload.np,
        cfg.nodes_per_slot * cfg.ppn,
        "workload np must fill the slot"
    );
    let mut sim = Simulation::new(cfg.seed);
    observe(&sim.handle());
    let mut spec = ClusterSpec::sized(cfg.slots as u32 * cfg.nodes_per_slot, cfg.spares);
    spec.ftb.heartbeat = cfg.ftb_heartbeat;
    let cluster = Cluster::build(&sim.handle(), spec);
    assert_eq!(
        cluster.compute_nodes(),
        &cfg.fleet_compute_nodes()[..],
        "fleet compute-node preview out of sync with Cluster::build"
    );
    if !cfg.coord_crashes.is_empty() {
        let mut fp = FaultPlan::new();
        for at in &cfg.coord_crashes {
            fp = fp.with(FaultSpec::CoordinatorCrash { at: *at });
        }
        cluster.install_fault_plane(&fp);
    }
    let doom = plan.clone();
    for d in &doom.dooms {
        assert!(
            cluster.compute_nodes().contains(&d.node),
            "doom schedule targets {} outside the compute partition",
            d.node
        );
    }

    // Health monitors on every predictable doom: flat at 62 °C, ramping
    // from the doom's onset. Prediction fires once the fitted trend puts
    // the 90 °C critical crossing inside the monitor horizon.
    for d in doom.dooms.iter().filter(|d| d.predictable) {
        let client = FtbClient::connect(cluster.ftb(), d.node, "ipmi");
        healthmon::spawn_monitor(
            &sim.handle(),
            d.node,
            vec![SensorProfile::deteriorating(
                SensorKind::TemperatureC,
                62.0,
                0.3,
                d.onset,
                cfg.ramp_rate,
            )],
            client,
            cfg.mon.clone(),
        );
    }

    let mut slots = Vec::new();
    for i in 0..cfg.slots {
        let lo = i * cfg.nodes_per_slot as usize;
        let nodes = cluster.compute_nodes()[lo..lo + cfg.nodes_per_slot as usize].to_vec();
        slots.push(Arc::new(Mutex::new(launch_slot(
            cfg,
            &cluster,
            1 + i as u64,
            nodes,
            SimTime::ZERO,
        ))));
    }
    let fleet = Arc::new(FleetShared {
        cfg: cfg.clone(),
        cluster: cluster.clone(),
        pool: cluster.spare_pool().clone(),
        slots,
        state: Mutex::new(FleetState {
            orders: BTreeMap::new(),
            mig_costs: Vec::new(),
            next_job_id: 1 + cfg.slots as u64,
            stats: RunningStats::default(),
        }),
    });

    let f = fleet.clone();
    let built = policy.build();
    sim.handle()
        .spawn_daemon("fleet-manager", move |ctx| fleet_manager(ctx, f, built));
    let f = fleet.clone();
    sim.handle()
        .spawn_daemon("fleet-pump", move |ctx| pump(ctx, f));
    for i in 0..cfg.slots {
        let f = fleet.clone();
        sim.handle()
            .spawn_daemon(&format!("ckpt-cadence-{i}"), move |ctx| {
                ckpt_cadence(ctx, f, i)
            });
    }
    for d in &doom.dooms {
        let f = fleet.clone();
        let d = *d;
        sim.handle()
            .spawn_daemon(&format!("doom@{}", d.node), move |ctx| {
                doom_executor(ctx, f, d)
            });
    }

    sim.run_until(SimTime::ZERO + cfg.horizon)
        .expect("fleet soak simulation");

    // Collect.
    let mut jobs_completed = 0u64;
    let mut outcomes = OutcomeCounts::default();
    let mut checkpoints = 0u64;
    let mut takeovers = 0u64;
    for slot in &fleet.slots {
        let h = slot.lock().history();
        jobs_completed += h.jobs_completed;
        accumulate(&mut outcomes, &h.outcomes);
        checkpoints += h.checkpoints;
        takeovers += h.takeovers;
    }
    let st = &fleet.state.lock().stats;
    PolicyStats {
        policy: policy.name().to_string(),
        jobs_completed,
        throughput_per_hour: jobs_completed as f64 / (cfg.horizon.as_secs_f64() / 3600.0),
        work_lost: st.work_lost,
        crashes: st.crashes,
        restarts: st.restarts,
        scratch_restarts: st.scratch_restarts,
        outcomes,
        checkpoints,
        alert_checkpoints: st.alert_checkpoints,
        queued_orders: st.queued_orders,
        live_migrations: st.live_migrations,
        degraded_orders: st.degraded_orders,
        alerts: st.alerts,
        reclaimed: st.reclaimed,
        takeovers,
        pool: fleet.pool.stats(),
    }
}
