//! Two-clock benchmark for the migration framework.
//!
//! One process runs one workload (`migrate`, `cr` or `fleet`; `all` runs
//! each in a child process, one after another) and measures both clocks:
//! host seconds spent by the simulator, and the virtual seconds the
//! simulated cluster spends migrating, checkpointing and losing work.
//!
//! With `--trace 0` it runs the workload's fixed batch repeatedly for
//! `--seconds`, tracing off, and reports host time and set-up time, both
//! in seconds of a reference machine (see [`Probe`]), and peak RSS. With `--trace 1` it runs the batch once untraced and once
//! traced (kernel profiling on), checks the two agree bit for bit on
//! every virtual result, and charges the work to layers.
//!
//! The process pins itself to one CPU before it simulates anything, so
//! host time measures the simulator rather than how fast an idle
//! neighbouring CPU wakes up. The traced pass also runs the batch once
//! unpinned and reports what the cross-CPU baton handoffs cost.
//!
//! Everything is measured from outside the program: the benchmark times
//! its own calls into public functions and reads only `hot_stats()`,
//! tracer spans/instants, process names and the reports the runtime
//! returns. The last stdout line is one JSON object.
//!
//! Usage: `twoclock --workload <migrate|cr|fleet|all> [--seed N]
//! [--seconds S] [--trace 0|1]`.

mod ledger;

use jobmig_core::prelude::*;
use ledger::{charge_dispatches, Ledger};
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::{dur, HotStats, SimHandle, SimTime, Simulation};
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default workload seed (the seed of the paper's experiment runs).
const SEED: u64 = 2010;

/// Paper testbed job geometry: class C, 64 ranks, 8 per node.
const NP: u32 = 64;
const PPN: u32 = 8;

/// Virtual time of the migration / checkpoint trigger.
const TRIGGER: Duration = Duration::from_secs(30);

/// The fleet batch is the reference soak cut to a quarter: a 30-minute
/// horizon with the soak's failure density (12 per 2 h → 3). The full
/// 2-hour soak takes 30–60 host seconds unpinned on 2 cores, longer than
/// a measured run may last.
const FLEET_HORIZON: Duration = Duration::from_secs(1800);
const FLEET_DOOMS: usize = 3;

/// Batches every end-to-end run repeats at least, whatever `--seconds`
/// says: each operation's time is a median, and a median of fewer than
/// three samples is a mean that one burst of host load can move.
const MIN_REPS: u32 = 3;

/// Set-ups timed per run on top of the ones inside the batch; setup_s is
/// their median.
const SETUP_REPS: usize = 15;

/// The reference probe's work: pseudo-random updates of a 4 MiB table,
/// which outgrows the L2 cache.
const PROBE_UPDATES: u32 = 4_000_000;
const PROBE_TABLE: usize = 1 << 19;

/// Host seconds the probe takes on the reference machine, a quiet
/// 2-vCPU VM. Host times are reported in seconds of that machine.
const PROBE_REF_S: f64 = 0.026;

const APPS: [NpbApp; 3] = [NpbApp::Lu, NpbApp::Bt, NpbApp::Sp];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Migrate,
    Cr,
    Fleet,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "migrate" => Some(Kind::Migrate),
            "cr" => Some(Kind::Cr),
            "fleet" => Some(Kind::Fleet),
            _ => None,
        }
    }
}

/// One operation of a workload's fixed batch.
#[derive(Clone, Copy, Debug)]
enum Op {
    Migrate(NpbApp, Tuning),
    Cr(NpbApp, CrStoreKind),
    Fleet,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Tuning {
    Barrier,
    Pipelined,
    Live,
}

impl Tuning {
    const ALL: [Tuning; 3] = [Tuning::Barrier, Tuning::Pipelined, Tuning::Live];

    fn build(self) -> MigrationTuning {
        match self {
            Tuning::Barrier => MigrationTuning::barrier(),
            Tuning::Pipelined => MigrationTuning::pipelined(),
            Tuning::Live => MigrationTuning::live(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Tuning::Barrier => "barrier",
            Tuning::Pipelined => "pipelined",
            Tuning::Live => "live",
        }
    }
}

fn batch(kind: Kind) -> Vec<Op> {
    match kind {
        Kind::Migrate => Tuning::ALL
            .iter()
            .flat_map(|t| APPS.iter().map(move |a| Op::Migrate(*a, *t)))
            .collect(),
        Kind::Cr => [CrStoreKind::LocalExt3, CrStoreKind::Pvfs]
            .iter()
            .flat_map(|s| APPS.iter().map(move |a| Op::Cr(*a, *s)))
            .collect(),
        Kind::Fleet => vec![Op::Fleet],
    }
}

fn fleet_config(seed: u64) -> fleetsched::FleetConfig {
    let mut cfg = fleetsched::FleetConfig::soak(seed);
    cfg.horizon = FLEET_HORIZON;
    cfg.doom_count = FLEET_DOOMS;
    cfg
}

/// The virtual result of one operation.
#[derive(Debug, Clone)]
enum Virt {
    Mig(MigrationReport),
    Cr(CrReport),
    Fleet(fleetsched::PolicyStats),
}

/// One operation's measurements.
struct Run {
    op: Op,
    virt: Virt,
    /// Host seconds from the end of set-up until the simulation is torn
    /// down (the fleet run times its own set-up too: it happens inside
    /// `run_policy_observed`).
    host_s: f64,
    /// Host seconds of set-up, where the benchmark can time it apart.
    setup_s: Option<f64>,
    hot: HotStats,
    /// Process names by pid (traced runs only).
    names: HashMap<u32, String>,
}

/// Drains the tracer on a host thread while the simulation runs, so a
/// traced fleet run never holds its whole trace in memory.
struct Collector {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Ledger>,
}

impl Collector {
    fn start(handle: &SimHandle) -> Collector {
        handle.tracer().set_enabled(true);
        handle.set_prof(true);
        let stop = Arc::new(AtomicBool::new(false));
        let (h, s) = (handle.clone(), stop.clone());
        let thread = std::thread::spawn(move || {
            let mut ledger = Ledger::default();
            loop {
                let done = s.load(Ordering::Acquire);
                ledger.feed(&h.tracer().drain_events());
                if done {
                    return ledger;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        Collector { stop, thread }
    }

    fn finish(self) -> Ledger {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("trace collector")
    }
}

/// Build the paper testbed and launch `app`.C.64 on it.
fn paper_setup(
    seed: u64,
    app: NpbApp,
    traced: bool,
) -> (Simulation, JobRuntime, Option<Collector>) {
    let sim = Simulation::new(seed);
    let collector = traced.then(|| Collector::start(&sim.handle()));
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::paper_testbed());
    let rt = JobRuntime::launch(
        &cluster,
        JobSpec::npb(Workload::new(app, NpbClass::C, NP), PPN),
    );
    (sim, rt, collector)
}

/// The fleet's set-up, timed on its own: the same calls
/// `run_policy_observed` makes before its first event.
fn fleet_setup(seed: u64) -> (Simulation, Vec<JobRuntime>) {
    let cfg = fleet_config(seed);
    let sim = Simulation::new(cfg.seed);
    let mut spec = ClusterSpec::sized(cfg.slots as u32 * cfg.nodes_per_slot, cfg.spares);
    spec.ftb.heartbeat = cfg.ftb_heartbeat;
    let cluster = Cluster::build(&sim.handle(), spec);
    let jobs = (0..cfg.slots)
        .map(|i| {
            let lo = i * cfg.nodes_per_slot as usize;
            let nodes = cluster.compute_nodes()[lo..lo + cfg.nodes_per_slot as usize].to_vec();
            JobRuntime::launch_placed(
                &cluster,
                JobSpec::npb(cfg.workload.clone(), cfg.ppn),
                Placement::job(1 + i as u64).on_nodes(nodes),
            )
        })
        .collect();
    (sim, jobs)
}

/// Time one set-up of the workload (teardown not timed).
fn time_setup(kind: Kind, seed: u64) -> f64 {
    let t0 = Instant::now();
    match kind {
        Kind::Fleet => {
            let built = fleet_setup(seed);
            let s = t0.elapsed().as_secs_f64();
            drop(built);
            s
        }
        Kind::Migrate | Kind::Cr => {
            let built = paper_setup(seed, NpbApp::Lu, false);
            let s = t0.elapsed().as_secs_f64();
            drop(built);
            s
        }
    }
}

/// Step the simulation `step` virtual seconds at a time until `done`
/// holds.
fn run_until(sim: &mut Simulation, step: u64, mut done: impl FnMut() -> bool, what: &str) {
    let limit = SimTime::ZERO + Duration::from_secs(900);
    while !done() {
        assert!(sim.now() < limit, "{what} did not finish by {limit}");
        sim.run_for(dur::secs(step)).expect("simulation");
    }
}

/// A CPU set as `sched_setaffinity(2)` takes it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
fn affinity() -> CpuSet {
    let mut set = [0u64; 16];
    // SAFETY: `set` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    set
}

/// Restrict the calling thread, and every thread it or its threads start
/// from now on, to `set`.
fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// The lowest CPU of `set`, alone.
fn first_cpu(set: &CpuSet) -> CpuSet {
    let mut one = [0u64; 16];
    let word = set
        .iter()
        .position(|w| *w != 0)
        .expect("a non-empty CPU set");
    one[word] = set[word] & set[word].wrapping_neg();
    one
}

/// Fixed reference work that does not run the simulator's code, so a
/// change to the simulator leaves the probe's time alone.
///
/// The host's speed drifts by a third over minutes even on one pinned
/// CPU with no steal, and a run cannot average that away. The
/// end-to-end pass probes the host between operations and reports each
/// operation's time as a multiple of the probe's, in seconds of the
/// reference machine. Scattered memory updates track the simulator's
/// drift best; thread handoffs were tried too and only added noise.
struct Probe {
    table: Vec<u64>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            table: vec![0; PROBE_TABLE],
        }
    }

    /// Host seconds of one round of the reference work.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..PROBE_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize % PROBE_TABLE];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&self.table);
        t0.elapsed().as_secs_f64()
    }
}

/// Run one operation; with `traced`, also return its ledger.
fn run_op(op: Op, seed: u64, traced: bool) -> (Run, Option<Ledger>) {
    match op {
        Op::Migrate(app, tuning) => {
            let t0 = Instant::now();
            let (mut sim, rt, collector) = paper_setup(seed, app, traced);
            let t1 = Instant::now();
            rt.control()
                .migrate_after(TRIGGER, MigrationRequest::new().tuning(tuning.build()));
            run_until(
                &mut sim,
                5,
                || !rt.migration_reports().is_empty(),
                "migration",
            );
            let report = rt.migration_reports()[0].clone();
            let handle = sim.handle();
            drop((sim, rt));
            let host_s = t1.elapsed().as_secs_f64();
            let run = Run {
                op,
                virt: Virt::Mig(report),
                host_s,
                setup_s: Some((t1 - t0).as_secs_f64()),
                hot: handle.hot_stats(),
                names: names_if(traced, &handle),
            };
            (run, collector.map(Collector::finish))
        }
        Op::Cr(app, store) => {
            let t0 = Instant::now();
            let (mut sim, rt, collector) = paper_setup(seed, app, traced);
            let t1 = Instant::now();
            sim.run_for(TRIGGER).expect("simulation");
            rt.control().checkpoint(CheckpointRequest::to(store));
            // Step finely: the restart is issued from outside, at the first
            // step boundary after the checkpoint cycle reports.
            run_until(&mut sim, 1, || !rt.cr_reports().is_empty(), "checkpoint");
            rt.control()
                .restart_from_checkpoint(rt.cr_reports()[0].cycle);
            let restarted = || rt.cr_reports()[0].restart.is_some();
            run_until(&mut sim, 5, restarted, "restart");
            let report = rt.cr_reports()[0].clone();
            let handle = sim.handle();
            drop((sim, rt));
            let host_s = t1.elapsed().as_secs_f64();
            let run = Run {
                op,
                virt: Virt::Cr(report),
                host_s,
                setup_s: Some((t1 - t0).as_secs_f64()),
                hot: handle.hot_stats(),
                names: names_if(traced, &handle),
            };
            (run, collector.map(Collector::finish))
        }
        Op::Fleet => {
            let cfg = fleet_config(seed);
            let plan = cfg.doom_plan();
            let mut handle = None;
            let mut collector = None;
            let t1 = Instant::now();
            let stats = fleetsched::run_policy_observed(
                &cfg,
                fleetsched::PolicyKind::Proactive,
                &plan,
                |h| {
                    if traced {
                        collector = Some(Collector::start(h));
                    }
                    handle = Some(h.clone());
                },
            );
            let host_s = t1.elapsed().as_secs_f64();
            let handle = handle.expect("fleet run exposes its handle");
            let run = Run {
                op,
                virt: Virt::Fleet(stats),
                host_s,
                setup_s: None,
                hot: handle.hot_stats(),
                names: names_if(traced, &handle),
            };
            (run, collector.map(Collector::finish))
        }
    }
}

fn names_if(traced: bool, handle: &SimHandle) -> HashMap<u32, String> {
    if traced {
        handle.tracer().proc_names()
    } else {
        HashMap::new()
    }
}

/// Output checks. Returns (operations attempted, operations failed,
/// problems found).
fn check(run: &Run, ledger: Option<&Ledger>) -> (u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    let (attempted, mut failed) = match &run.virt {
        Virt::Mig(r) => {
            let bad_outcome = matches!(
                r.outcome,
                MigrationOutcome::FellBackToCr
                    | MigrationOutcome::Lost
                    | MigrationOutcome::RolledBackByStandby
            );
            if bad_outcome {
                problems.push(format!("{:?}: outcome {}", run.op, r.outcome));
            }
            if r.ranks_moved != PPN as usize || r.bytes_moved == 0 {
                problems.push(format!(
                    "{:?}: moved {} ranks / {} bytes",
                    run.op, r.ranks_moved, r.bytes_moved
                ));
            }
            if let Some(l) = ledger {
                // The phase spans must account for the report exactly.
                let spans: u64 = l.held_phase_ns().iter().sum();
                let total = r.total().as_nanos() as u64;
                if r.attempts == 1 && spans != total {
                    problems.push(format!(
                        "{:?}: phase spans sum to {spans} ns, report total {total} ns",
                        run.op
                    ));
                }
            }
            (1, u64::from(bad_outcome))
        }
        Virt::Cr(r) => {
            if r.restart.is_none() || r.bytes_written == 0 {
                problems.push(format!(
                    "{:?}: restart {:?}, {} bytes",
                    run.op, r.restart, r.bytes_written
                ));
            }
            (1, u64::from(r.restart.is_none()))
        }
        Virt::Fleet(s) => {
            let o = &s.outcomes;
            let bad = o.fell_back_to_cr + o.lost + o.rolled_back_by_standby;
            if bad > 0 {
                problems.push(format!("fleet: {bad} migration orders failed: {o:?}"));
            }
            let p = &s.pool;
            if p.leases != p.consumed + p.returned + p.discarded {
                problems.push(format!("fleet: spare pool leaked a lease: {p:?}"));
            }
            if s.live_migrations > o.total() {
                problems.push(format!(
                    "fleet: {} live orders but {} outcomes",
                    s.live_migrations,
                    o.total()
                ));
            }
            if let Some(l) = ledger {
                if l.triggers != o.total() {
                    problems.push(format!(
                        "fleet: {} migration orders reached a coordinator, {} outcomes",
                        l.triggers,
                        o.total()
                    ));
                }
            }
            // The soak itself plus each migration order it issued.
            (1 + o.total(), bad)
        }
    };
    if failed == 0 && !problems.is_empty() {
        failed = 1;
    }
    (attempted, failed, problems)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The workload's virtual results, identical on every run of the same
/// code and seed.
fn virtual_metrics(runs: &[Run], m: &mut Metrics) {
    let mut downtime: BTreeMap<Tuning, f64> = Tuning::ALL.iter().map(|t| (*t, 0.0)).collect();
    let (mut ext3, mut pvfs, mut lost, mut jobs) = (0.0, 0.0, 0.0, 0.0);
    for r in runs {
        match (&r.op, &r.virt) {
            (Op::Migrate(_, t), Virt::Mig(rep)) => {
                *downtime.get_mut(t).unwrap() += rep.downtime().as_secs_f64();
            }
            (Op::Cr(_, store), Virt::Cr(rep)) => {
                let s = rep.total_with_restart().unwrap_or_default().as_secs_f64();
                match store {
                    CrStoreKind::LocalExt3 => ext3 += s,
                    CrStoreKind::Pvfs => pvfs += s,
                }
            }
            (Op::Fleet, Virt::Fleet(st)) => {
                lost += st.work_lost.as_secs_f64();
                jobs += st.jobs_completed as f64;
            }
            _ => unreachable!("operation and result kinds match"),
        }
    }
    for (t, s) in downtime {
        m.put(format!("downtime_{}_s", t.name()), s, "sim_s");
    }
    m.put("cr_ext3_s", ext3, "sim_s");
    m.put("cr_pvfs_s", pvfs, "sim_s");
    m.put("work_lost_s", lost, "sim_s");
    m.put("jobs_completed", jobs, "count");
}

struct Opts {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        kind: None,
        seed: SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    match workload.as_deref() {
        Some("all") => {}
        Some(w) => o.kind = Some(Kind::parse(w).ok_or(format!("unknown workload {w}"))?),
        None => return Err("--workload is required".into()),
    }
    Ok(o)
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let rest: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in ["migrate", "cr", "fleet"] {
        let mut args = rest.clone();
        let i = args.iter().position(|a| a == "--workload").unwrap();
        args[i + 1] = w.to_string();
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("twoclock: {e}");
            eprintln!("usage: twoclock --workload <migrate|cr|fleet|all> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = opts.kind else {
        return run_all();
    };
    // Pin before the first simulation: its threads, and simkit's
    // spin-budget choice, follow the affinity they start with.
    let all_cpus = affinity();
    set_affinity(&first_cpu(&all_cpus));
    let (metrics, attempted, failed, problems) = if opts.trace {
        traced(kind, opts.seed, &all_cpus)
    } else {
        untraced(kind, opts.seed, opts.seconds)
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_header(kind: Kind, seed: u64, mode: &str) {
    println!("workload {kind:?} seed {seed} ({mode})");
}

fn print_metrics(m: &Metrics) {
    for (n, v, u) in &m.0 {
        println!("  {n:<34} {v:>16.6} {u}");
    }
}

/// Fingerprint of every virtual result of a batch, compared for
/// bit-identity across repetitions and between traced and untraced runs.
fn fingerprint(runs: &[Run]) -> String {
    runs.iter().map(|r| format!("{:?}\n", r.virt)).collect()
}

/// The end-to-end pass: the batch repeated for `seconds`, tracing off.
fn untraced(kind: Kind, seed: u64, seconds: f64) -> (Metrics, u64, u64, Vec<String>) {
    print_header(kind, seed, "end-to-end, tracing off");
    let ops = batch(kind);
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| time_setup(kind, seed)).collect();
    let mut probe = Probe::new();
    // Host seconds of each operation in run order, with its index in the
    // batch, and of the probe before each one; a last probe closes the run.
    let mut timed: Vec<(usize, f64)> = Vec::new();
    let mut probes: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    let mut first: Option<(String, Vec<Run>)> = None;
    let t0 = Instant::now();
    let mut reps = 0u32;
    loop {
        let runs: Vec<Run> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                probes.push(probe.run());
                let run = run_op(*op, seed, false).0;
                timed.push((i, run.host_s));
                run
            })
            .collect();
        for r in &runs {
            setups.extend(r.setup_s);
            let (a, f, p) = check(r, None);
            attempted += a;
            failed += f;
            problems.extend(p);
        }
        let fp = fingerprint(&runs);
        match &first {
            None => first = Some((fp, runs)),
            Some((f0, _)) if *f0 != fp => {
                problems.push(format!("repetition {reps} changed a virtual result"));
                failed += 1;
            }
            Some(_) => {}
        }
        reps += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if reps >= MIN_REPS && elapsed + elapsed / f64::from(reps) > seconds {
            break;
        }
    }
    let (_, runs) = first.expect("at least one repetition");
    probes.push(probe.run());
    // Each operation's time, as measured and in seconds of the reference
    // machine: over the mean of the probes just before and just after it.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    for (j, &(i, host_s)) in timed.iter().enumerate() {
        let probe_s = (probes[j] + probes[j + 1]) / 2.0;
        times[i].push(host_s);
        scaled[i].push(host_s / probe_s * PROBE_REF_S);
    }
    // The batch's time: each operation's median over the repetitions.
    let batch = |t: &[Vec<f64>]| -> f64 { t.iter().map(|t| median(t)).sum() };
    let probe_s = median(&probes);
    let mut m = Metrics::default();
    m.put("wall_norm_s", batch(&scaled), "s");
    m.put("setup_s", median(&setups) / probe_s * PROBE_REF_S, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    let mut v = Metrics::default();
    virtual_metrics(&runs, &mut v);
    v.put(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    println!("  repetitions {reps}, set-ups timed {}", setups.len());
    println!(
        "  unscaled: batch {:.6} s, set-up {:.6} s, probe {:.6} s",
        batch(&times),
        median(&setups),
        probe_s
    );
    print_metrics(&m);
    print_metrics(&v);
    (m, attempted, failed, problems)
}

/// The per-layer pass: one untraced batch, then the same batch traced
/// with kernel profiling on, both pinned; last, one untraced batch free
/// to run on `all_cpus`.
fn traced(kind: Kind, seed: u64, all_cpus: &CpuSet) -> (Metrics, u64, u64, Vec<String>) {
    print_header(kind, seed, "per-layer, one untraced and one traced batch");
    let ops = batch(kind);
    let plain: Vec<Run> = ops.iter().map(|op| run_op(*op, seed, false).0).collect();
    let (runs, ledgers): (Vec<Run>, Vec<Ledger>) = ops
        .iter()
        .map(|op| {
            let (r, l) = run_op(*op, seed, true);
            (r, l.expect("traced run has a ledger"))
        })
        .unzip();
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    for (r, l) in runs.iter().zip(&ledgers) {
        let (a, f, p) = check(r, Some(l));
        attempted += a;
        failed += f;
        problems.extend(p);
    }
    if fingerprint(&plain) != fingerprint(&runs) {
        problems.push("tracing changed a virtual result".into());
        failed += 1;
    }
    let pinned = affinity();
    set_affinity(all_cpus);
    let unpinned: Vec<Run> = ops.iter().map(|op| run_op(*op, seed, false).0).collect();
    set_affinity(&pinned);
    if fingerprint(&plain) != fingerprint(&unpinned) {
        problems.push("running unpinned changed a virtual result".into());
        failed += 1;
    }
    let wall_plain: f64 = plain.iter().map(|r| r.host_s).sum();
    let wall_traced: f64 = runs.iter().map(|r| r.host_s).sum();
    let wall_unpinned: f64 = unpinned.iter().map(|r| r.host_s).sum();

    let mut m = Metrics::default();
    virtual_metrics(&runs, &mut m);
    m.put(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    layer_metrics(&plain, &runs, &ledgers, (wall_plain, wall_unpinned), &mut m);
    m.put(
        "telemetry.trace_events",
        ledgers.iter().map(|l| l.events).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "telemetry.trace_overhead_pct",
        100.0 * (wall_traced - wall_plain) / wall_plain,
        "%",
    );
    print_metrics(&m);
    (m, attempted, failed, problems)
}

fn layer_metrics(
    plain: &[Run],
    runs: &[Run],
    ledgers: &[Ledger],
    (wall_plain, wall_unpinned): (f64, f64),
    m: &mut Metrics,
) {
    // simkit and flownet: the kernel's always-on counters, untraced pass.
    let sum = |f: fn(&HotStats) -> u64| plain.iter().map(|r| f(&r.hot)).sum::<u64>() as f64;
    let events = sum(|h| h.events_dispatched);
    let pushes = sum(|h| h.timer_pushes);
    let recomputes = sum(|h| h.flow_recomputes);
    let retimes = sum(|h| h.flow_retimes);
    m.put("simkit.events", events, "count");
    m.put("simkit.timer_pushes", pushes, "count");
    m.put(
        "simkit.stale_share",
        sum(|h| h.stale_timers_skipped) / pushes.max(1.0),
        "ratio",
    );
    m.put(
        "simkit.heap_peak",
        plain.iter().map(|r| r.hot.heap_peak).max().unwrap_or(0) as f64,
        "count",
    );
    m.put("simkit.procs_spawned", sum(|h| h.procs_spawned), "count");
    m.put(
        "simkit.ns_per_event",
        wall_plain * 1e9 / events.max(1.0),
        "ns",
    );
    m.put("simkit.unpinned_wall_s", wall_unpinned, "s");
    m.put("simkit.unpinned_ratio", wall_unpinned / wall_plain, "ratio");
    // Wall-clock categories: traced pass, kernel profiling on.
    let prof = |f: fn(&HotStats) -> u64| runs.iter().map(|r| f(&r.hot)).sum::<u64>() as f64 / 1e6;
    m.put("simkit.sched_ms", prof(|h| h.sched_ns), "ms");
    m.put("simkit.run_ms", prof(|h| h.run_ns), "ms");
    m.put("simkit.spawn_ms", prof(|h| h.spawn_ns), "ms");
    m.put("flownet.recomputes", recomputes, "count");
    m.put("flownet.retimes", retimes, "count");
    m.put(
        "flownet.retimes_per_recompute",
        retimes / recomputes.max(1.0),
        "ratio",
    );

    // Dispatches charged to modules by process name.
    let mut by_module: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unmatched: Vec<String> = Vec::new();
    for r in runs {
        let (mods, other) = charge_dispatches(&r.hot.per_proc, &r.names);
        for (k, n) in mods {
            *by_module.entry(k).or_default() += n;
        }
        for o in other {
            if !unmatched.contains(&o) {
                unmatched.push(o);
            }
        }
    }
    let dispatched: u64 = by_module.values().sum();
    let share = |module: &str| {
        by_module.get(module).copied().unwrap_or(0) as f64 / dispatched.max(1) as f64
    };
    if !unmatched.is_empty() {
        println!("  dispatches charged to other: {}", unmatched.join(", "));
    }

    let total = |f: &dyn Fn(&Ledger) -> f64| ledgers.iter().map(f).sum::<f64>();
    let count = |key: &'static str| total(&|l| l.count(key) as f64);
    let bytes = |key: &'static str| total(&|l| l.bytes_of(key) as f64);
    let busy = |names: &'static [&'static str]| total(&|l| l.busy_ms(names));

    m.put("ftb.dispatch_share", share("ftb"), "ratio");
    m.put("ftb.published", total(&|l| l.ftb_published as f64), "count");
    m.put(
        "ftb.deliver_ms",
        total(&|l| l.ftb_deliver_ns as f64 / 1e6),
        "sim_ms",
    );

    m.put("mpisim.dispatch_share", share("mpisim"), "ratio");
    m.put(
        "mpisim.drain_ms",
        busy(&["mpi/suspend_and_drain"]),
        "sim_ms",
    );
    m.put(
        "mpisim.rebuild_ms",
        busy(&["mpi/rebuild_endpoints"]),
        "sim_ms",
    );

    m.put("ibfabric.rdma_reads", count("rdma/read"), "count");
    m.put("ibfabric.read_bytes", bytes("rdma/read"), "B");
    m.put("ibfabric.read_ms", busy(&["rdma/read"]), "sim_ms");
    m.put(
        "ibfabric.mr_register_ms",
        busy(&["rdma/mr_register"]),
        "sim_ms",
    );

    m.put("blcrsim.dump_bytes", bytes("ckpt/dump"), "B");
    m.put("blcrsim.dump_ms", busy(&["ckpt/dump"]), "sim_ms");
    m.put("blcrsim.restart_ms", busy(&["ckpt/restart"]), "sim_ms");

    m.put(
        "storesim.write_bytes",
        bytes("store/write_sync") + bytes("store/pvfs_append"),
        "B",
    );
    m.put(
        "storesim.write_ms",
        busy(&["store/write_sync", "store/pvfs_append"]),
        "sim_ms",
    );
    m.put(
        "storesim.read_bytes",
        bytes("store/read") + bytes("store/pvfs_read"),
        "B",
    );
    m.put("storesim.read_ms", busy(&["store/pvfs_read"]), "sim_ms");

    for layer in ledger::Layer::ALL {
        m.put(
            format!("{}.self_ms", layer.name()),
            total(&|l| l.self_ms(layer)),
            "sim_ms",
        );
    }

    // Migration phases per tuning. Fleet migrations carry no tuning
    // label; a cycle with a pre-copy phase is live, any other barrier.
    let mut phases: BTreeMap<Tuning, [f64; 4]> = BTreeMap::new();
    for (r, l) in runs.iter().zip(ledgers) {
        let tuning = match r.op {
            Op::Migrate(_, t) => t,
            Op::Fleet if l.count("phase/precopy") > 0 => Tuning::Live,
            _ => Tuning::Barrier,
        };
        let sums = phases.entry(tuning).or_default();
        for (sum, ns) in sums.iter_mut().zip(l.held_phase_ns()) {
            *sum += ns as f64 / 1e6;
        }
    }
    for t in Tuning::ALL {
        let sums = phases.get(&t).copied().unwrap_or_default();
        for (p, ms) in ledger::HELD_PHASES.iter().zip(sums) {
            m.put(format!("core.{}.{p}_ms", t.name()), ms, "sim_ms");
        }
    }
    m.put("core.attempts", count("phase/stall"), "count");
    m.put("core.wal_appends", count("wal/wal_append"), "count");
    m.put("core.dispatch_share", share("core"), "ratio");

    let rounds: Vec<&Vec<u64>> = ledgers.iter().map(|l| &l.round_bytes).collect();
    m.put(
        "livemig.rounds",
        rounds.iter().map(|r| r.len()).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "livemig.round0_bytes",
        rounds.iter().filter_map(|r| r.first()).sum::<u64>() as f64,
        "B",
    );
    let residual: u64 = runs
        .iter()
        .zip(ledgers)
        .filter_map(|(r, l)| match &r.virt {
            Virt::Mig(rep) if !l.round_bytes.is_empty() => {
                Some(rep.bytes_moved - l.round_bytes.iter().sum::<u64>())
            }
            _ => None,
        })
        .sum();
    m.put("livemig.residual_bytes", residual as f64, "B");

    let fleet = |f: fn(&fleetsched::PolicyStats) -> u64| {
        runs.iter()
            .map(|r| match &r.virt {
                Virt::Fleet(s) => f(s),
                _ => 0,
            })
            .sum::<u64>() as f64
    };
    m.put(
        "fleetsched.migrations",
        fleet(|s| s.outcomes.total()),
        "count",
    );
    m.put(
        "fleetsched.live_migrations",
        fleet(|s| s.live_migrations),
        "count",
    );
    m.put("fleetsched.checkpoints", fleet(|s| s.checkpoints), "count");
    m.put("fleetsched.crashes", fleet(|s| s.crashes), "count");
    m.put(
        "fleetsched.degraded_orders",
        fleet(|s| s.degraded_orders),
        "count",
    );
    m.put("fleetsched.dispatch_share", share("fleetsched"), "ratio");
    m.put("healthmon.dispatch_share", share("healthmon"), "ratio");
    m.put("other.dispatch_share", share("other"), "ratio");
}
