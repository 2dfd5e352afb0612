//! The job runtime: Job Manager, Node Launch Agents, per-rank C/R
//! threads, and the four-phase migration protocol of §III-A.
//!
//! Process anatomy of a running job (all simulated processes):
//!
//! * **Job Manager** (login node): launches the NLA tree, owns the trigger
//!   queue, orchestrates migrations and coordinated checkpoints, measures
//!   phase times from protocol messages.
//! * **NLA** (every compute + spare node): spawns/kills local MPI
//!   processes; on `FTB_MIGRATE` runs the source or target buffer manager
//!   side; on `FTB_RESTART` restarts the migrated processes from their
//!   assembled images.
//! * **App thread** (per rank): runs the [`AppBody`]; killed on the source
//!   node during Phase 2 and re-spawned from the image on the target.
//! * **C/R thread** (per rank): MVAPICH2's checkpoint thread — reacts to
//!   `FTB_MIGRATE`/`FTB_CHECKPOINT`, suspends and drains communication,
//!   checkpoints through the buffer pool (source ranks) or to storage
//!   (CR baseline), and executes Phase 4 (migration barrier, endpoint
//!   rebuild, resume).
//!
//! The submodules follow the migration cycle table of `protoverify`.
//! `coordinator` runs an attempt as the table's sequence of phases, and
//! each phase module holds that phase's Job Manager, NLA and rank bodies:
//! `precopy` (Phase 0, live cycles only), `migrate` (Phases 1 and 2),
//! `restart`, `resume`, `abort` and the standby's `takeover`. `dispatch`
//! holds the NLA and C/R thread event loops.

mod abort;
mod coordinator;
mod dispatch;
mod migrate;
mod precopy;
mod restart;
mod resume;
mod takeover;

use crate::bufpool::{self, AssembledImage, PoolConfig, PoolRendezvous, RestartMode, SourcePool};
use crate::calib;
use crate::cluster::Cluster;
use crate::cr_baseline;
use crate::msgs::*;
use crate::report::{CrReport, CrStoreKind, MigrationOutcome, MigrationReport, OutcomeCounts};
use crate::spare::SparePool;
use crate::wal::{CycleJournal, InFlight, WalRecord};
use abort::{abort_cycle, kill_spare};
use blcrsim::{ProcessImage, StoreSource};
use bytes::Bytes;
pub(crate) use coordinator::{all_suspended, scan};
use coordinator::{jm_proc, record_outcome, wait_countdown_until, wait_event_until, Attempt};
use faultplane::{FaultPlane, MigPhase};
use ftb::{EventFilter, FtbClient, FtbEvent, Severity};
use ibfabric::NodeId;
use mpisim::{CrMeta, MpiConfig, MpiJob, MpiRank, RankCr};
use parking_lot::Mutex;
use protoverify::{
    traced_step, CycleEvent, CycleStepper, GuardCtx, MigrationSpec, NlaEvent, RankEvent, RankLife,
    StepError,
};
use simkit::{Countdown, Ctx, Event, ProcHandle, Queue, Semaphore, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The application code a rank runs. Must be written re-entrantly: on a
/// restart it is re-invoked and resumes from the rank's restored
/// application state (see `mpisim`'s replay-safety docs).
pub trait AppBody: Send + Sync + 'static {
    /// Run rank `rank` to completion.
    fn run(&self, ctx: &Ctx, rank: &mut MpiRank);
}

impl<F> AppBody for F
where
    F: Fn(&Ctx, &mut MpiRank) + Send + Sync + 'static,
{
    fn run(&self, ctx: &Ctx, rank: &mut MpiRank) {
        self(ctx, rank)
    }
}

/// Everything needed to launch a job.
#[derive(Clone)]
pub struct JobSpec {
    /// Number of MPI ranks.
    pub nranks: u32,
    /// Processes per node.
    pub ppn: u32,
    /// The application.
    pub app: Arc<dyn AppBody>,
    /// MPI library tunables.
    pub mpi: MpiConfig,
    /// Workload seed (segment contents, determinism).
    pub seed: u64,
    /// Automatically migrate away from nodes that publish
    /// `HEALTH_PREDICT`/`HEALTH_CRITICAL` events.
    pub auto_migrate_on_health: bool,
    /// Run a standby coordinator on the login node: if the Job Manager
    /// dies mid-cycle (the `CoordinatorCrash` fault), the standby fences
    /// the deposed epoch and recovers the in-flight cycle from the WAL
    /// journal (resume-from-point or rollback). Off by default — the
    /// journal itself is always on and free of scheduling effects.
    pub standby: bool,
}

impl JobSpec {
    /// A spec running the given NPB workload.
    pub fn npb(workload: npbsim::Workload, ppn: u32) -> JobSpec {
        let nranks = workload.np;
        let seed = 42;
        let w = workload;
        JobSpec {
            nranks,
            ppn,
            app: Arc::new(move |ctx: &Ctx, rank: &mut MpiRank| {
                npbsim::run_rank(ctx, rank, &w, seed);
            }),
            mpi: MpiConfig::default(),
            seed,
            auto_migrate_on_health: false,
            standby: false,
        }
    }

    /// A spec running arbitrary application code.
    pub fn custom(nranks: u32, ppn: u32, app: impl AppBody) -> JobSpec {
        JobSpec {
            nranks,
            ppn,
            app: Arc::new(app),
            mpi: MpiConfig::default(),
            seed: 42,
            auto_migrate_on_health: false,
            standby: false,
        }
    }
}

/// Every tunable of one migration: the buffer-pool geometry and data-path
/// options. Set per request through [`MigrationRequest::tuning`]; the
/// presets are [`PoolConfig::barrier`], [`PoolConfig::pipelined`] and
/// [`PoolConfig::live`].
///
/// ```ignore
/// rt.control().migrate(
///     MigrationRequest::new().tuning(MigrationTuning::pipelined()),
/// );
/// ```
pub type MigrationTuning = PoolConfig;

/// A typed migration request — the paper's user-level Migration Trigger.
///
/// By default the source is auto-selected (the first migration-ready node
/// hosting ranks) and the cycle runs the paper's barrier engine
/// ([`PoolConfig::default`]).
///
/// ```ignore
/// rt.control().migrate(
///     MigrationRequest::new()
///         .from_node(NodeId(3))
///         .tuning(MigrationTuning::pipelined()),
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct MigrationRequest {
    pub(crate) source: Option<NodeId>,
    pub(crate) label: Option<String>,
    pub(crate) tuning: Option<MigrationTuning>,
}

impl MigrationRequest {
    /// A request with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Migrate the ranks of this specific node (default: first
    /// migration-ready node hosting ranks, in node-id order).
    pub fn from_node(mut self, node: NodeId) -> Self {
        self.source = Some(node);
        self
    }

    /// Run this cycle with `t` instead of the default tuning.
    pub fn tuning(mut self, t: MigrationTuning) -> Self {
        self.tuning = Some(t);
        self
    }

    /// Attach a diagnostic label; it rides the cycle's `"phase"` telemetry
    /// spans as a `label` argument.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// A typed coordinated-checkpoint request.
#[derive(Debug, Clone)]
pub struct CheckpointRequest {
    pub(crate) store: CrStoreKind,
}

impl CheckpointRequest {
    /// Checkpoint to `store`.
    pub fn to(store: CrStoreKind) -> Self {
        CheckpointRequest { store }
    }

    /// Checkpoint to each node's local ext3 filesystem.
    pub fn local() -> Self {
        Self::to(CrStoreKind::LocalExt3)
    }

    /// Checkpoint to the shared PVFS deployment.
    pub fn pvfs() -> Self {
        Self::to(CrStoreKind::Pvfs)
    }
}

/// The typed control plane of a running job: submits migration,
/// checkpoint, and restart requests to the Job Manager's trigger queue.
/// Obtained from [`JobRuntime::control`]; cloning shares the runtime.
#[derive(Clone)]
pub struct Control {
    rt: JobRuntime,
}

impl Control {
    /// Request a migration.
    pub fn migrate(&self, req: MigrationRequest) {
        self.rt.inner.triggers.push(Trigger::Migrate { req });
    }

    /// Fire a migration request after `d` of virtual time.
    pub fn migrate_after(&self, d: Duration, req: MigrationRequest) {
        let ctl = self.clone();
        self.rt
            .inner
            .cluster
            .handle()
            .spawn_daemon("migration-trigger", move |ctx| {
                ctx.sleep(d);
                ctl.migrate(req);
            });
    }

    /// Request a coordinated checkpoint of the whole job.
    pub fn checkpoint(&self, req: CheckpointRequest) {
        self.rt.inner.triggers.push(Trigger::Checkpoint { req });
    }

    /// Request a restart-from-checkpoint of cycle `cycle` (simulates the
    /// failure/recovery path whose cost Figure 7 reports as "Restart").
    pub fn restart_from_checkpoint(&self, cycle: u64) {
        self.rt
            .inner
            .triggers
            .push(Trigger::RestartFromCkpt { cycle });
    }
}

pub(crate) enum Trigger {
    Migrate { req: MigrationRequest },
    Checkpoint { req: CheckpointRequest },
    RestartFromCkpt { cycle: u64 },
}

/// Shared state of one migration cycle.
pub(crate) struct MigCycle {
    pub id: u64,
    pub source: NodeId,
    pub target: NodeId,
    pub ranks: Vec<u32>,
    /// Pool configuration in effect for this cycle (the request's tuning).
    pub pool: PoolConfig,
    /// Live tunables, `Some` when the cycle runs iterative pre-copy —
    /// never for a retry attempt: only the first attempt runs live, since
    /// a retry's pre-copied state died with the abandoned target.
    pub live: Option<livemig::LiveConfig>,
    pub stall_done: Countdown,
    pub rendezvous: PoolRendezvous,
    source_pool_ready: Event,
    pub piic: Event,
    pub images_ready: Event,
    /// Per-rank image readiness, set by the target pull the moment that
    /// rank's stream is fully staged and verified — the pipelined restart
    /// path starts a rank's restart on its own event instead of the
    /// whole-pull `images_ready` barrier. `BTreeMap` keeps any iteration
    /// deterministic.
    pub rank_ready: BTreeMap<u32, Event>,
    pub restart_done: Event,
    pub barrier: Countdown,
    pub resumed: Countdown,
    pub state: Mutex<CycleState>,
}

/// The mutable part of a [`MigCycle`].
#[derive(Default)]
pub(crate) struct CycleState {
    source_pool: Option<Arc<SourcePool>>,
    piic_bytes: u64,
    images: HashMap<u32, AssembledImage>,
    /// Abort gate: once set, late C/R threads are turned away.
    aborted: bool,
    /// Ranks that entered the protocol.
    entered: HashSet<u32>,
    /// Checkpoint metadata captured by source ranks before their app
    /// incarnation was killed. Presence of a rank here means its app is
    /// dead and must be resurrected from this state on abort.
    captured_meta: HashMap<u32, CrMeta>,
    /// Worker processes owned by this cycle (pool managers, ack loop,
    /// restart workers) — killed wholesale on abort.
    procs: Vec<ProcHandle>,
    /// Claim flag for the Phase 3 `FTB_RESTART` reaction: the standby
    /// re-publishes the restart broadcast when the WAL cannot prove the
    /// original went out, so the target NLA must react to exactly one of
    /// the (at most two) publishes.
    restart_claimed: bool,
    // Pre-copy state of a live cycle, bridging the Job Manager (round
    // loop, convergence decisions), the source NLA (capture + stream),
    // the target NLA (pull + merge), and the Phase 3 restart (merge the
    // cutover residual).
    /// Rendezvous of the round currently streaming; replaced by the Job
    /// Manager before each `FTB_PRECOPY` publish (each round is its own
    /// source/target pool pair).
    round_rv: Option<PoolRendezvous>,
    /// Target-side per-rank merge state, carried across rounds and
    /// consumed by the cutover restart.
    accums: HashMap<u32, livemig::ImageAccumulator>,
    /// Set when the controller cuts over: source ranks stream only the
    /// residual delta and the target restarts from accumulator + residual.
    cutover: bool,
    /// Pre-copy wire bytes across all completed rounds.
    precopied: u64,
    /// Completed pre-copy rounds.
    rounds: u32,
}

impl MigCycle {
    fn set_source_pool(&self, p: Arc<SourcePool>) {
        self.state.lock().source_pool = Some(p);
        self.source_pool_ready.set();
    }

    /// Wait for the source pool to be stood up. `None` only if the ready
    /// event fired without a pool in place (a defect in the pool setup) —
    /// callers bail out and let the Phase 2 deadline recover the cycle.
    fn wait_source_pool(&self, ctx: &Ctx) -> Option<Arc<SourcePool>> {
        self.source_pool_ready.wait(ctx);
        self.state.lock().source_pool.clone()
    }

    /// A C/R thread checks in before acting on this cycle's events. Once
    /// the cycle is aborted, late arrivals are turned away (they never
    /// suspended, so they need no recovery).
    fn enter(&self, rank: u32) -> bool {
        let mut st = self.state.lock();
        if st.aborted {
            return false;
        }
        st.entered.insert(rank);
        true
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.state.lock().aborted
    }

    /// Register a cycle-owned worker process; if the cycle is already
    /// aborted the worker is killed on the spot.
    pub(crate) fn track(&self, ph: ProcHandle) {
        let mut st = self.state.lock();
        if st.aborted {
            drop(st);
            ph.kill();
        } else {
            st.procs.push(ph);
        }
    }

    /// First caller wins the right to run the Phase 3 restart reaction;
    /// a duplicate `FTB_RESTART` (original + standby re-publish) is a
    /// no-op for everyone else.
    fn claim_restart(&self) -> bool {
        !std::mem::replace(&mut self.state.lock().restart_claimed, true)
    }

    /// The current pre-copy round's rendezvous (NLA reaction side).
    fn round_rendezvous(&self) -> Option<PoolRendezvous> {
        self.state.lock().round_rv.clone()
    }

    /// The completed pre-copy round count, if the controller has cut over
    /// to the residual round of a live cycle.
    fn cut_over(&self) -> Option<u32> {
        let st = self.state.lock();
        (self.live.is_some() && st.cutover).then_some(st.rounds)
    }
}

/// Shared state of one coordinated-checkpoint cycle.
pub(crate) struct CkptCycle {
    pub id: u64,
    pub store: CrStoreKind,
    pub stall_done: Countdown,
    pub ckpt_done: Countdown,
    pub resumed: Countdown,
    pub state: Mutex<CkptState>,
}

/// The mutable part of a [`CkptCycle`].
#[derive(Default)]
pub(crate) struct CkptState {
    /// The consistent cut: when every rank had stalled.
    pub cut: Option<SimTime>,
    /// Image bytes the ranks wrote.
    pub bytes: u64,
    /// Image checksums of the ranks whose dump succeeded, verified on
    /// restart. The cycle is complete when every rank has one.
    pub checksums: HashMap<u32, u64>,
    /// Ranks whose C/R thread entered the cycle.
    entered: HashSet<u32>,
}

impl CkptCycle {
    /// A C/R thread checks in on `FTB_CHECKPOINT`; a repeat of the
    /// publish (the Job Manager re-publishes after a stall deadline) is
    /// turned away from ranks that already entered.
    pub(crate) fn enter(&self, rank: u32) -> bool {
        self.state.lock().entered.insert(rank)
    }

    /// Every one of the job's `nranks` images is durable.
    pub(crate) fn is_complete(&self, nranks: u32) -> bool {
        self.state.lock().checksums.len() == nranks as usize
    }
}

pub(crate) struct NlaShared {
    pub node: NodeId,
    pub state: Mutex<NlaCell>,
}

/// The mutable part of an [`NlaShared`]: its position in the NLA table
/// and the ranks it hosts.
pub(crate) struct NlaCell {
    state: NlaState,
    ranks: Vec<u32>,
}

impl NlaShared {
    fn new(node: NodeId, state: NlaState) -> Arc<NlaShared> {
        Arc::new(NlaShared {
            node,
            state: Mutex::new(NlaCell {
                state,
                ranks: Vec::new(),
            }),
        })
    }

    /// Whether this node can be a migration source: it is ready and
    /// hosts ranks.
    fn hosts_ready_ranks(&self) -> bool {
        let st = self.state.lock();
        st.state == NlaState::MigrationReady && !st.ranks.is_empty()
    }

    /// The ranks this node hosts.
    fn ranks(&self) -> Vec<u32> {
        self.state.lock().ranks.clone()
    }

    /// Replace the ranks this node hosts.
    fn set_ranks(&self, ranks: Vec<u32>) {
        self.state.lock().ranks = ranks;
    }
}

/// A trivial model of the mpispawn tree the Job Manager adjusts in
/// Phase 3 (login root, one NLA level).
pub(crate) struct SpawnTree {
    pub root: NodeId,
    pub nodes: Vec<NodeId>,
}

impl SpawnTree {
    fn replace(&mut self, old: NodeId, new: NodeId) {
        for n in &mut self.nodes {
            if *n == old {
                *n = new;
            }
        }
    }
}

/// The current coordinator generation: the live Job Manager's process
/// handle plus the event a scheduled [`faultplane::FaultSpec::CoordinatorCrash`]
/// sets when it kills that process. The journal's crash hook fires
/// through here; the standby waits on the generation's `dead` event and
/// installs a fresh generation after every takeover.
pub(crate) struct CoordSignal {
    gen: Mutex<CoordGen>,
}

struct CoordGen {
    proc: Option<ProcHandle>,
    dead: Event,
}

impl CoordSignal {
    fn new(dead: Event) -> CoordSignal {
        CoordSignal {
            gen: Mutex::new(CoordGen { proc: None, dead }),
        }
    }

    /// Install the live coordinator process for the current generation.
    fn arm(&self, proc: ProcHandle, dead: Event) {
        *self.gen.lock() = CoordGen {
            proc: Some(proc),
            dead,
        };
    }

    /// Execute a scheduled coordinator crash: kill the registered
    /// coordinator (if any — a crash landing while the standby itself is
    /// coordinating is a no-op) and signal the standby. Taking the handle
    /// makes a second fire within one generation inert.
    fn fire(&self) {
        let mut g = self.gen.lock();
        if let Some(ph) = g.proc.take() {
            ph.kill();
        }
        g.dead.set();
    }

    /// The current generation's death event (what the standby waits on).
    fn dead(&self) -> Event {
        self.gen.lock().dead.clone()
    }
}

pub(crate) struct RtInner {
    pub cluster: Cluster,
    pub spec: JobSpec,
    pub job: MpiJob,
    /// This job's identity on the cluster. Cycle ids are drawn from the
    /// namespace `job_id << 32`, so cycles of concurrently-running jobs
    /// never collide and foreign FTB events miss every cycle lookup.
    pub job_id: u64,
    /// The cluster's shared spare pool (leases are keyed by `job_id`).
    pub pool: SparePool,
    pub triggers: Queue<Trigger>,
    pub all_done: Event,
    /// The WAL-backed cycle journal (always on; crash injection and the
    /// standby read it).
    pub journal: CycleJournal,
    /// Live-coordinator registration for crash injection / takeover.
    pub(crate) coord: Arc<CoordSignal>,
    pub state: Mutex<RtState>,
}

/// The mutable part of a [`RtInner`].
pub(crate) struct RtState {
    /// NLA registry, keyed by node id. A `BTreeMap` so that any iteration
    /// (source auto-selection, launch order) is in node-id order — the
    /// deterministic-replay guarantee forbids `HashMap` iteration here.
    pub nlas: BTreeMap<NodeId, Arc<NlaShared>>,
    pub pending_sources: HashSet<NodeId>,
    pub next_cycle: u64,
    pub mig_cycles: HashMap<u64, Arc<MigCycle>>,
    pub ckpt_cycles: HashMap<u64, Arc<CkptCycle>>,
    pub mig_reports: Vec<MigrationReport>,
    pub cr_reports: Vec<CrReport>,
    pub app_threads: HashMap<u32, ProcHandle>,
    pub cr_threads: HashMap<u32, ProcHandle>,
    pub nla_procs: HashMap<NodeId, ProcHandle>,
    pub finished: HashSet<u32>,
    pub spawn_tree: SpawnTree,
    pub outcomes: OutcomeCounts,
    /// Per-rank lifecycle position, advanced only through
    /// `protoverify::RANK_TABLE` (see [`JobRuntime::rank_apply`]).
    pub rank_life: BTreeMap<u32, RankLife>,
    /// Coordinator fencing epoch. Starts at 0 (the legacy, never-fenced
    /// epoch); each standby takeover bumps it and fences the spare pool
    /// and FTB publishes of every deposed epoch.
    pub epoch: u64,
}

/// Where a job sits on the cluster: its identity and (optionally) an
/// explicit list of home nodes. Fleet orchestrators launching many jobs
/// side by side give each a distinct `job_id` and a disjoint node block;
/// the default placement reproduces the classic single-job launch.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// Job identity; must be unique among concurrently-running jobs on
    /// one cluster. Cycle ids (migration and checkpoint) are drawn from
    /// the namespace `job_id << 32`, and spare-pool leases are keyed by
    /// it.
    pub job_id: u64,
    /// Home nodes for the ranks, `ppn` per node in order. `None` places
    /// ranks on the cluster's compute nodes from the front.
    pub nodes: Option<Vec<NodeId>>,
}

impl Placement {
    /// Placement for `job_id` on the default (front) compute nodes.
    pub fn job(job_id: u64) -> Placement {
        Placement {
            job_id,
            nodes: None,
        }
    }

    /// Place the ranks on exactly `nodes`.
    pub fn on_nodes(mut self, nodes: Vec<NodeId>) -> Placement {
        self.nodes = Some(nodes);
        self
    }
}

/// A launched job: handles for triggering migrations/checkpoints and
/// reading reports. Cloning shares the runtime.
#[derive(Clone)]
pub struct JobRuntime {
    pub(crate) inner: Arc<RtInner>,
}

impl JobRuntime {
    /// Launch `spec` on `cluster`: places ranks block-wise (`ppn` per
    /// compute node), starts NLAs, app threads, C/R threads and the Job
    /// Manager. Endpoints are built untimed (startup cost is not part of
    /// any measured figure).
    pub fn launch(cluster: &Cluster, spec: JobSpec) -> JobRuntime {
        Self::launch_placed(cluster, spec, Placement::default())
    }

    /// [`JobRuntime::launch`] with an explicit [`Placement`] — the entry
    /// point for fleet orchestrators running several jobs on one cluster.
    pub fn launch_placed(cluster: &Cluster, spec: JobSpec, placement: Placement) -> JobRuntime {
        let handle = cluster.handle().clone();
        let spec_nranks = spec.nranks;
        let job_id = placement.job_id;
        let home: Vec<NodeId> = placement
            .nodes
            .unwrap_or_else(|| cluster.compute_nodes().to_vec());
        let nodes_needed = spec.nranks.div_ceil(spec.ppn);
        assert!(
            nodes_needed as usize <= home.len(),
            "need {nodes_needed} home nodes, have {}",
            home.len()
        );
        let rank_nodes: Vec<NodeId> = (0..spec.nranks)
            .map(|r| home[(r / spec.ppn) as usize])
            .collect();
        let job = MpiJob::new(
            &handle,
            cluster.fabric().clone(),
            &rank_nodes,
            spec.mpi.clone(),
        );
        let mut nlas = BTreeMap::new();
        let mut used_nodes = Vec::new();
        for (r, &node) in (0..).zip(&rank_nodes) {
            let nla = nlas.entry(node).or_insert_with(|| {
                used_nodes.push(node);
                NlaShared::new(node, NlaState::MigrationReady)
            });
            nla.state.lock().ranks.push(r);
        }
        // Spare-state NLAs on every node currently free in the shared
        // pool; nodes leased or reclaimed later are adopted on demand
        // (`adopt_spare`).
        for spare in cluster.spare_pool().free_nodes() {
            nlas.insert(spare, NlaShared::new(spare, NlaState::MigrationSpare));
        }
        let journal = CycleJournal::new(&handle);
        if let Some(plane) = cluster.fault_plane() {
            journal.install_fault_plane(plane);
        }
        let coord = Arc::new(CoordSignal::new(Event::new(&handle, "coord-dead")));
        let rt = JobRuntime {
            inner: Arc::new(RtInner {
                cluster: cluster.clone(),
                spec,
                job,
                job_id,
                pool: cluster.spare_pool().clone(),
                triggers: Queue::new(&handle),
                all_done: Event::new(&handle, "job-complete"),
                journal: journal.clone(),
                coord: coord.clone(),
                state: Mutex::new(RtState {
                    nlas,
                    pending_sources: HashSet::new(),
                    next_cycle: (job_id << 32) + 1,
                    mig_cycles: HashMap::new(),
                    ckpt_cycles: HashMap::new(),
                    mig_reports: Vec::new(),
                    cr_reports: Vec::new(),
                    app_threads: HashMap::new(),
                    cr_threads: HashMap::new(),
                    nla_procs: HashMap::new(),
                    finished: HashSet::new(),
                    spawn_tree: SpawnTree {
                        root: cluster.login(),
                        nodes: used_nodes,
                    },
                    outcomes: OutcomeCounts::default(),
                    rank_life: (0..spec_nranks).map(|r| (r, RankLife::Running)).collect(),
                    epoch: 0,
                }),
            }),
        };
        // A scheduled coordinator crash fires inside `CycleJournal::append`:
        // kill whichever coordinator is registered and wake the standby.
        journal.set_crash_hook(move || coord.fire());

        // NLA daemons on every participating node (compute + spares), in
        // node-id order.
        let all_nla_nodes: Vec<NodeId> = rt.inner.state.lock().nlas.keys().copied().collect();
        for node in all_nla_nodes {
            rt.spawn_nla(node);
        }
        // Job Manager on the login node.
        let rt2 = rt.clone();
        let jm = handle.spawn_daemon(&rt.proc_name("job-manager", ""), move |ctx| {
            jm_proc(ctx, rt2)
        });
        rt.inner.coord.arm(jm, rt.inner.coord.dead());
        // Standby coordinator (same login node in the paper's deployment;
        // here a separate daemon so the Job Manager's death leaves it up).
        if rt.inner.spec.standby {
            let rt2 = rt.clone();
            handle.spawn_daemon(&rt.proc_name("standby", ""), move |ctx| {
                takeover::standby_proc(ctx, rt2)
            });
        }
        // Health-event bridge.
        if rt.inner.spec.auto_migrate_on_health {
            let rt2 = rt.clone();
            handle.spawn_daemon(&rt.proc_name("health-bridge", ""), move |ctx| {
                coordinator::health_bridge(ctx, rt2)
            });
        }
        rt
    }

    /// Daemon names: identical to the historical single-job names for
    /// job 0 (keeping existing traces byte-stable), prefixed with the
    /// job id otherwise.
    fn proc_name(&self, kind: &str, node: &str) -> String {
        let at = if node.is_empty() {
            String::new()
        } else {
            format!("@{node}")
        };
        if self.inner.job_id == 0 {
            format!("{kind}{at}")
        } else {
            format!("j{}-{kind}{at}", self.inner.job_id)
        }
    }

    /// The MPI job.
    pub fn job(&self) -> &MpiJob {
        &self.inner.job
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.inner.cluster
    }

    /// The job spec.
    pub fn spec(&self) -> &JobSpec {
        &self.inner.spec
    }

    /// The typed control plane: migration/checkpoint/restart requests.
    pub fn control(&self) -> Control {
        Control { rt: self.clone() }
    }

    /// Completed migration reports, in order.
    pub fn migration_reports(&self) -> Vec<MigrationReport> {
        self.inner.state.lock().mig_reports.clone()
    }

    /// Completed checkpoint reports, in order.
    pub fn cr_reports(&self) -> Vec<CrReport> {
        self.inner.state.lock().cr_reports.clone()
    }

    /// Whether every rank's application body has finished.
    pub fn is_complete(&self) -> bool {
        self.inner.all_done.is_set()
    }

    /// Event set when the whole application completes.
    pub fn completion(&self) -> &Event {
        &self.inner.all_done
    }

    /// The NLA state of `node`.
    pub fn nla_state(&self, node: NodeId) -> Option<NlaState> {
        let nla = self.inner.state.lock().nlas.get(&node).cloned();
        nla.map(|n| n.state.lock().state)
    }

    /// Spare nodes still available in the cluster's shared pool.
    pub fn spares_left(&self) -> usize {
        self.inner.pool.available()
    }

    /// The job identity this runtime was launched under.
    pub fn job_id(&self) -> u64 {
        self.inner.job_id
    }

    /// Whether `node` currently hosts any of this job's ranks.
    pub fn hosts_ranks_on(&self, node: NodeId) -> bool {
        let nla = self.inner.state.lock().nlas.get(&node).cloned();
        nla.is_some_and(|n| !n.state.lock().ranks.is_empty())
    }

    /// Nodes currently hosting at least one rank, in id order.
    pub fn rank_nodes(&self) -> Vec<NodeId> {
        let nlas: Vec<Arc<NlaShared>> = self.inner.state.lock().nlas.values().cloned().collect();
        nlas.into_iter()
            .filter(|n| !n.state.lock().ranks.is_empty())
            .map(|n| n.node)
            .collect()
    }

    /// Tear down the job's simulated processes (NLA daemons, C/R and app
    /// threads). For fleet orchestrators recycling a completed job's node
    /// block: the stale daemons would otherwise keep waking on every FTB
    /// event forever. Reports and outcome counters stay readable.
    pub fn shutdown(&self) {
        // Collect-and-sort before killing: the registries are HashMaps
        // and kill order must not depend on hash order.
        let mut st = self.inner.state.lock();
        // jmlint: allow(hash_iter)
        let mut nlas: Vec<(NodeId, ProcHandle)> = st.nla_procs.drain().collect();
        // jmlint: allow(hash_iter)
        let crs: Vec<(u32, ProcHandle)> = st.cr_threads.drain().collect();
        // jmlint: allow(hash_iter)
        let apps: Vec<(u32, ProcHandle)> = st.app_threads.drain().collect();
        drop(st);
        nlas.sort_by_key(|(n, _)| *n);
        for (_, ph) in nlas {
            ph.kill();
        }
        for mut procs in [crs, apps] {
            procs.sort_by_key(|(r, _)| *r);
            for (_, ph) in procs {
                ph.kill();
            }
        }
    }

    /// Per-outcome migration counters: first-attempt successes, retried
    /// successes, CR fallbacks, and (defensively) lost triggers.
    pub fn migration_outcomes(&self) -> OutcomeCounts {
        self.inner.state.lock().outcomes
    }

    /// The job's WAL-backed cycle journal (always on).
    pub fn journal(&self) -> &CycleJournal {
        &self.inner.journal
    }

    /// The current coordinator fencing epoch: 0 until the first standby
    /// takeover, bumped once per takeover.
    pub fn fencing_epoch(&self) -> u64 {
        self.inner.state.lock().epoch
    }

    /// The current mpispawn tree: `(root, NLA nodes in launch order)`.
    /// Phase 3 replaces the migration source with the target here.
    pub fn spawn_tree(&self) -> (NodeId, Vec<NodeId>) {
        let tree = &self.inner.state.lock().spawn_tree;
        (tree.root, tree.nodes.clone())
    }

    /// Simulate an abrupt whole-job failure: every application process
    /// dies immediately and communication gates close. The job makes no
    /// further progress until [`Control::restart_from_checkpoint`]
    /// recovers it from a checkpoint.
    pub fn simulate_failure(&self) {
        for rank in 0..self.inner.spec.nranks {
            self.kill_app(rank);
            self.inner.job.cr(rank).close_gate();
        }
    }

    // ------------------------------------------------------------------
    // internal helpers
    // ------------------------------------------------------------------

    /// Look up a migration cycle by id. `None` for an unknown id (e.g. an
    /// FTB event from a cycle this runtime never started) — callers skip
    /// the event instead of panicking.
    pub(crate) fn mig_cycle(&self, id: u64) -> Option<Arc<MigCycle>> {
        self.inner.state.lock().mig_cycles.get(&id).cloned()
    }

    /// Look up a checkpoint cycle by id; `None` for an unknown id.
    pub(crate) fn ckpt_cycle(&self, id: u64) -> Option<Arc<CkptCycle>> {
        self.inner.state.lock().ckpt_cycles.get(&id).cloned()
    }

    pub(crate) fn next_cycle_id(&self) -> u64 {
        let mut st = self.inner.state.lock();
        st.next_cycle += 1;
        st.next_cycle - 1
    }

    /// Open migration cycle `id` moving `ranks` from `source` to `target`
    /// and register it, so FTB events carrying its id find it.
    fn open_cycle(
        &self,
        id: u64,
        source: NodeId,
        target: NodeId,
        ranks: &[u32],
        pool: PoolConfig,
        live: Option<livemig::LiveConfig>,
    ) -> Arc<MigCycle> {
        let handle = self.inner.cluster.handle();
        let n = self.inner.spec.nranks as u64;
        let cycle = Arc::new(MigCycle {
            id,
            source,
            target,
            ranks: ranks.to_vec(),
            pool,
            live,
            stall_done: Countdown::new(handle, "mig-stall", n),
            rendezvous: PoolRendezvous::new(handle),
            source_pool_ready: Event::new(handle, "srcpool"),
            piic: Event::new(handle, "piic"),
            images_ready: Event::new(handle, "images-ready"),
            rank_ready: ranks
                .iter()
                .map(|&r| (r, Event::new(handle, "image-ready")))
                .collect(),
            restart_done: Event::new(handle, "restart-done"),
            barrier: Countdown::new(handle, "mig-barrier", n),
            resumed: Countdown::new(handle, "mig-resumed", n),
            state: Mutex::default(),
        });
        self.inner.state.lock().mig_cycles.insert(id, cycle.clone());
        cycle
    }

    /// Make a freshly leased pool node usable as this job's migration
    /// target. Nodes reclaimed into the shared pool after this job
    /// launched have no NLA here yet — register one in spare state and
    /// start its daemon; a node this job itself vacated earlier re-enters
    /// service by reprovisioning its inactive NLA. Returns `true` when a
    /// new daemon was spawned: the caller must then let a little virtual
    /// time pass so the daemon subscribes to the FTB before the attempt's
    /// `FTB_MIGRATE` is published.
    pub(crate) fn adopt_spare(&self, ctx: &Ctx, node: NodeId) -> bool {
        let known = self.inner.state.lock().nlas.get(&node).cloned();
        if let Some(nla) = known {
            let st = nla.state.lock().state;
            match st {
                NlaState::MigrationSpare => {}
                NlaState::MigrationInactive => nla_apply(ctx, &nla, NlaEvent::Reprovision),
                // jmlint: allow(hot_unwrap) — pool invariant trap: a leased node hosts no ranks
                NlaState::MigrationReady => panic!(
                    "spare pool corrupt: leased {node} still hosts ranks of job {}",
                    self.inner.job_id
                ),
            }
            return false;
        }
        let nla = NlaShared::new(node, NlaState::MigrationSpare);
        self.inner.state.lock().nlas.insert(node, nla);
        self.spawn_nla(node);
        true
    }

    fn spawn_nla(&self, node: NodeId) {
        let rt = self.clone();
        let ph = self
            .inner
            .cluster
            .handle()
            .spawn_daemon(&self.proc_name("nla", &node.to_string()), move |ctx| {
                dispatch::nla_proc(ctx, rt, node)
            });
        self.inner.state.lock().nla_procs.insert(node, ph);
    }

    pub(crate) fn spawn_app(&self, rank: u32) {
        let rt = self.clone();
        let ph = self
            .inner
            .cluster
            .handle()
            .spawn(&format!("app-r{rank}"), move |ctx| {
                let mut r = rt.inner.job.attach(rank);
                rt.inner.spec.app.run(ctx, &mut r);
                rt.rank_finished(rank);
            });
        self.inner.state.lock().app_threads.insert(rank, ph);
    }

    pub(crate) fn kill_app(&self, rank: u32) {
        let ph = self.inner.state.lock().app_threads.get(&rank).cloned();
        if let Some(ph) = ph {
            ph.kill();
        }
    }

    fn rank_finished(&self, rank: u32) {
        let all = {
            let f = &mut self.inner.state.lock().finished;
            f.insert(rank) && f.len() as u32 == self.inner.spec.nranks
        };
        if all {
            self.inner.all_done.set();
        }
    }

    pub(crate) fn spawn_cr_thread(&self, rank: u32, resume: Option<Arc<MigCycle>>) {
        let rt = self.clone();
        let ph = self
            .inner
            .cluster
            .handle()
            .spawn_daemon(&format!("cr-r{rank}"), move |ctx| {
                dispatch::cr_thread(ctx, rt, rank, resume)
            });
        self.inner.state.lock().cr_threads.insert(rank, ph);
    }

    /// The checkpoint store for `kind` as seen from `node`. A PVFS
    /// request on a cluster without a PVFS deployment falls back to the
    /// node-local filesystem (the request-level precondition check in
    /// `cr_baseline::run_checkpoint` rejects user-facing misconfiguration
    /// before any dump starts).
    pub(crate) fn store_for(
        &self,
        kind: CrStoreKind,
        node: NodeId,
    ) -> Arc<dyn storesim::CkptStore> {
        match kind {
            CrStoreKind::LocalExt3 => Arc::new(self.inner.cluster.node(node).fs.clone()),
            CrStoreKind::Pvfs => match self.inner.cluster.pvfs() {
                Some(pvfs) => Arc::new(pvfs.client(node)),
                None => Arc::new(self.inner.cluster.node(node).fs.clone()),
            },
        }
    }

    /// The lifecycle position of `rank` per the `protoverify` rank table.
    pub fn rank_life(&self, rank: u32) -> Option<RankLife> {
        self.inner.state.lock().rank_life.get(&rank).copied()
    }

    /// Advance `rank`'s lifecycle through the declarative rank table
    /// (`protoverify::traced_step` traps a missing row: the runtime fired
    /// an event the spec forbids in the rank's current state).
    pub(crate) fn rank_apply(&self, ctx: &Ctx, rank: u32, ev: RankEvent) {
        let life = &mut self.inner.state.lock().rank_life;
        let cur = life.get(&rank).copied().unwrap_or(RankLife::Running);
        life.insert(rank, traced_step(ctx, rank.into(), cur, ev));
    }
}

/// Advance an NLA through the declarative NLA table (see
/// `protoverify::spec::NLA_TABLE`); like [`JobRuntime::rank_apply`], a
/// missing row is trapped.
pub(crate) fn nla_apply(ctx: &Ctx, nla: &NlaShared, ev: NlaEvent) {
    let mut st = nla.state.lock();
    st.state = traced_step(ctx, nla.node.0.into(), st.state, ev);
}

// ---------------------------------------------------------------------------
// checkpoint image metadata framing
// ---------------------------------------------------------------------------

/// Pack C/R metadata into the image's app-state field:
/// `[completed_ops u64 LE][application state bytes]`.
pub(crate) fn wrap_meta(meta: &CrMeta) -> Bytes {
    let mut v = Vec::with_capacity(8 + meta.app_state.len());
    v.extend_from_slice(&meta.completed_ops.to_le_bytes());
    v.extend_from_slice(&meta.app_state);
    Bytes::from(v)
}

/// The image's metadata framing was malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetaError {
    /// Bytes present in the app-state field (need at least 8).
    pub len: usize,
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "image meta truncated: {} bytes, need >= 8", self.len)
    }
}

/// Reverse of [`wrap_meta`], recombining with the image's segments.
/// Fails (instead of panicking) on a truncated app-state field so that a
/// corrupted image surfaces as a recoverable restart error.
pub(crate) fn unwrap_meta(image: &ProcessImage) -> Result<CrMeta, MetaError> {
    let Some(head) = image.app_state.get(..8) else {
        return Err(MetaError {
            len: image.app_state.len(),
        });
    };
    let mut le = [0u8; 8];
    le.copy_from_slice(head);
    Ok(CrMeta {
        app_state: image.app_state.slice(8..),
        completed_ops: u64::from_le_bytes(le),
        segments: image.segments.clone(),
    })
}

/// Build the BLCR image of `rank` from captured metadata.
pub(crate) fn build_image(rank: u32, meta: &CrMeta) -> ProcessImage {
    let mut img = ProcessImage::new(rank as u64, wrap_meta(meta));
    img.segments = meta.segments.clone();
    img
}

/// The pre-copy delta image of `rank`: the segments `snap` saw dirtied,
/// for `round`.
fn delta_image(
    rank: u32,
    meta: &CrMeta,
    snap: &livemig::DirtySnapshot,
    round: u32,
) -> ProcessImage {
    livemig::delta::encode(rank as u64, &wrap_meta(meta), &meta.segments, snap, round)
}
