//! # faultplane — deterministic seeded fault injection
//!
//! The migration framework's whole premise is surviving failure, so failure
//! must be a first-class, *reproducible* input to the simulation. This
//! crate provides that input: a [`FaultPlan`] describes typed faults —
//! scheduled ("drop the next 2 GigE datagrams after t = 30 s", "crash the
//! spare at Phase 3 of attempt 1") or probabilistic (seeded per-operation
//! Bernoulli draws) — and a [`FaultPlane`] executes the plan by hooking the
//! injection points the lower layers expose:
//!
//! * [`ibfabric::FaultHook`] — datagram drop / link flap on the IB fabric
//!   or the GigE maintenance network (which carries the FTB agent tree),
//!   and RDMA Read CQ errors / payload corruption;
//! * [`storesim::StoreFaultHook`] — disk-full / transient I/O errors on
//!   checkpoint stores;
//! * [`blcrsim::BlcrFaultHook`] — BLCR dump write errors;
//! * [`FaultPlane::take_spare_crash`] — polled by the Job Manager at each
//!   migration phase boundary to kill the target spare node at a chosen
//!   point in the protocol.
//!
//! Every injected fault is emitted on the trace bus (category `"fault"`),
//! so an exported trace shows fault and recovery timelines side by side.
//! Same simulation seed + same plan ⇒ byte-identical traces.

#![forbid(unsafe_code)]

pub mod doom;
pub use doom::{DoomPlan, NodeDoom};

use blcrsim::BlcrFaultHook;
use ibfabric::{FaultHook, NodeId, ReadFault, SendVerdict};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkit::{SimHandle, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
pub use storesim::StoreFault;
use storesim::StoreFaultHook;

/// A phase of the four-phase migration protocol (paper §III-A), used to
/// target faults at protocol boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigPhase {
    /// Pre-copy rounds of a live migration (before Phase 1; ranks still
    /// running). Not part of [`MigPhase::ALL`] — the four-phase grid —
    /// but targetable by spare-crash and WAL-point faults.
    Precopy,
    /// Phase 1: stall the job, drain in-flight messages.
    Stall,
    /// Phase 2: stream process images source → target over RDMA.
    Migrate,
    /// Phase 3: restart processes on the target from assembled images.
    Restart,
    /// Phase 4: rebuild endpoints and resume.
    Resume,
}

impl MigPhase {
    /// All phases in protocol order.
    pub const ALL: [MigPhase; 4] = [
        MigPhase::Stall,
        MigPhase::Migrate,
        MigPhase::Restart,
        MigPhase::Resume,
    ];

    /// Lower-case phase name, matching the telemetry span names.
    pub fn name(&self) -> &'static str {
        match self {
            MigPhase::Precopy => "precopy",
            MigPhase::Stall => "stall",
            MigPhase::Migrate => "migrate",
            MigPhase::Restart => "restart",
            MigPhase::Resume => "resume",
        }
    }
}

impl fmt::Display for MigPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A position in the Job Manager's write-ahead cycle journal, used to
/// target a coordinator crash at an exact record boundary.
///
/// The journal appends one record *before* each state-changing step of a
/// migration cycle executes, so "crash at WAL point N" means "the record
/// was durably appended, the side effect has not happened yet" — the
/// hardest window for recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalPoint {
    /// Crash immediately after the `seq`-th journal append of the run
    /// (1-based over the job's whole journal, spanning cycles).
    Seq(u64),
    /// Crash at the first journal append made inside `phase` — the
    /// projection the model checker's counterexamples lower to.
    Phase(MigPhase),
}

impl fmt::Display for WalPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalPoint::Seq(n) => write!(f, "wal record #{n}"),
            WalPoint::Phase(p) => write!(f, "first wal record of {p}"),
        }
    }
}

/// The kind of a [`FaultSpec`], without its parameters — the fault
/// alphabet. Protocol-level analysis (the `protoverify` model checker)
/// enumerates fault edges over these kinds; [`FaultSpec::kind`] projects a
/// concrete spec onto its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Silent datagram loss ([`FaultSpec::NetDrop`]).
    NetDrop,
    /// Visible link error window ([`FaultSpec::LinkFlap`]).
    LinkFlap,
    /// RDMA Read completes with an error CQE ([`FaultSpec::RdmaCqError`]).
    RdmaCqError,
    /// RDMA Read returns corrupted payload ([`FaultSpec::RdmaCorrupt`]).
    RdmaCorrupt,
    /// BLCR dump chunk write fails ([`FaultSpec::BlcrWriteError`]).
    BlcrWriteError,
    /// Checkpoint-store append fails ([`FaultSpec::StoreWrite`]).
    StoreWrite,
    /// The migration-target spare node dies ([`FaultSpec::SpareCrash`]).
    SpareCrash,
    /// The Job Manager itself dies between two WAL records
    /// ([`FaultSpec::CoordinatorCrash`]).
    CoordinatorCrash,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::NetDrop,
        FaultKind::LinkFlap,
        FaultKind::RdmaCqError,
        FaultKind::RdmaCorrupt,
        FaultKind::BlcrWriteError,
        FaultKind::StoreWrite,
        FaultKind::SpareCrash,
        FaultKind::CoordinatorCrash,
    ];

    /// Stable lower-snake name (used in traces and counterexamples).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NetDrop => "net_drop",
            FaultKind::LinkFlap => "link_flap",
            FaultKind::RdmaCqError => "rdma_cq_error",
            FaultKind::RdmaCorrupt => "rdma_corrupt",
            FaultKind::BlcrWriteError => "blcr_write_error",
            FaultKind::StoreWrite => "store_write",
            FaultKind::SpareCrash => "spare_crash",
            FaultKind::CoordinatorCrash => "coordinator_crash",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which network a network fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSel {
    /// The InfiniBand fabric ("ib").
    Ib,
    /// The GigE maintenance network the FTB tree runs over ("gige").
    Gige,
    /// Either network.
    Any,
}

impl NetSel {
    fn matches(&self, name: &str) -> bool {
        match self {
            NetSel::Ib => name == "ib",
            NetSel::Gige => name == "gige",
            NetSel::Any => true,
        }
    }
}

/// One scheduled fault. Counted faults (`nth`) are 1-based over the
/// corresponding operation stream for the whole run.
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// Silently drop the next `count` datagrams on `net` once virtual time
    /// reaches `after`. Senders see success; receivers see nothing.
    NetDrop {
        /// Network selector.
        net: NetSel,
        /// Virtual-time offset at which the loss window opens.
        after: Duration,
        /// Number of datagrams to swallow.
        count: u32,
    },
    /// All sends on `net` fail with a visible link error during
    /// `[at, at + lasts)`.
    LinkFlap {
        /// Network selector.
        net: NetSel,
        /// Window start (virtual-time offset).
        at: Duration,
        /// Window length.
        lasts: Duration,
    },
    /// The `nth` RDMA Read of the run completes with an error CQE.
    RdmaCqError {
        /// 1-based read index.
        nth: u64,
    },
    /// The `nth` RDMA Read returns corrupted payload (caught only by
    /// checksum verification).
    RdmaCorrupt {
        /// 1-based read index.
        nth: u64,
    },
    /// The `nth` BLCR dump chunk write fails.
    BlcrWriteError {
        /// 1-based chunk-write index.
        nth: u64,
    },
    /// The `nth` checkpoint-store append fails with `fault`.
    StoreWrite {
        /// Fault kind (disk-full vs transient I/O error).
        fault: StoreFault,
        /// 1-based append index.
        nth: u64,
    },
    /// Crash the migration-target spare node at the start of `phase` of
    /// migration attempt `attempt` (1-based across the run, counting
    /// retries). Executed by the Job Manager via
    /// [`FaultPlane::take_spare_crash`].
    SpareCrash {
        /// Phase boundary at which the crash fires.
        phase: MigPhase,
        /// 1-based migration attempt index.
        attempt: u32,
    },
    /// Kill the Job Manager immediately after the journal record at `at`
    /// is appended — the side effect that record announces has not
    /// executed yet. Executed by the cycle journal via
    /// [`FaultPlane::take_coordinator_crash`].
    CoordinatorCrash {
        /// The journal position at which the coordinator dies.
        at: WalPoint,
    },
}

impl fmt::Display for NetSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetSel::Ib => "ib",
            NetSel::Gige => "gige",
            NetSel::Any => "any",
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::NetDrop { net, after, count } => {
                write!(f, "drop {count} datagrams on {net} after {after:?}")
            }
            FaultSpec::LinkFlap { net, at, lasts } => {
                write!(f, "{net} link flap at {at:?} for {lasts:?}")
            }
            FaultSpec::RdmaCqError { nth } => write!(f, "CQ error on RDMA read #{nth}"),
            FaultSpec::RdmaCorrupt { nth } => write!(f, "corrupt payload on RDMA read #{nth}"),
            FaultSpec::BlcrWriteError { nth } => write!(f, "BLCR dump write #{nth} fails"),
            FaultSpec::StoreWrite { fault, nth } => write!(f, "store write #{nth} fails: {fault}"),
            FaultSpec::SpareCrash { phase, attempt } => {
                write!(f, "spare crash at {phase} of attempt {attempt}")
            }
            FaultSpec::CoordinatorCrash { at } => {
                write!(f, "coordinator crash at {at}")
            }
        }
    }
}

/// A deterministic fault schedule: a seed, a list of scheduled faults, and
/// optional probabilistic rates (drawn from a seeded RNG, so the same plan
/// on the same simulation replays identically).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the plan's own RNG (independent of the simulation seed).
    pub seed: u64,
    /// Scheduled faults.
    pub entries: Vec<FaultSpec>,
    /// Per-datagram drop probability on the GigE network (0 = off).
    pub gige_drop_prob: f64,
    /// Per-read CQ-error probability on RDMA Reads (0 = off).
    pub rdma_cq_prob: f64,
}

impl FaultSpec {
    /// The kind of this fault, without its parameters.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultSpec::NetDrop { .. } => FaultKind::NetDrop,
            FaultSpec::LinkFlap { .. } => FaultKind::LinkFlap,
            FaultSpec::RdmaCqError { .. } => FaultKind::RdmaCqError,
            FaultSpec::RdmaCorrupt { .. } => FaultKind::RdmaCorrupt,
            FaultSpec::BlcrWriteError { .. } => FaultKind::BlcrWriteError,
            FaultSpec::StoreWrite { .. } => FaultKind::StoreWrite,
            FaultSpec::SpareCrash { .. } => FaultKind::SpareCrash,
            FaultSpec::CoordinatorCrash { .. } => FaultKind::CoordinatorCrash,
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            entries: Vec::new(),
            gige_drop_prob: 0.0,
            rdma_cq_prob: 0.0,
        }
    }

    /// Append a scheduled fault (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.entries.push(spec);
        self
    }

    /// Set the probabilistic GigE datagram drop rate.
    pub fn gige_drop_prob(mut self, p: f64) -> Self {
        self.gige_drop_prob = p;
        self
    }

    /// Set the probabilistic RDMA Read CQ-error rate.
    pub fn rdma_cq_prob(mut self, p: f64) -> Self {
        self.rdma_cq_prob = p;
        self
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}", self.seed)?;
        for e in &self.entries {
            write!(f, "; {e}")?;
        }
        if self.gige_drop_prob > 0.0 {
            write!(f, "; gige drop p={}", self.gige_drop_prob)?;
        }
        if self.rdma_cq_prob > 0.0 {
            write!(f, "; rdma cq-error p={}", self.rdma_cq_prob)?;
        }
        Ok(())
    }
}

struct DropState {
    net: NetSel,
    after: SimTime,
    remaining: u32,
}

struct PlaneInner {
    handle: SimHandle,
    rng: Mutex<StdRng>,
    gige_drop_prob: f64,
    rdma_cq_prob: f64,
    flaps: Vec<(NetSel, SimTime, SimTime)>,
    drops: Mutex<Vec<DropState>>,
    cq_errs: Mutex<Vec<u64>>,
    corrupts: Mutex<Vec<u64>>,
    blcr_errs: Mutex<Vec<u64>>,
    store_errs: Mutex<Vec<(StoreFault, u64)>>,
    spare_crashes: Mutex<Vec<(MigPhase, u32)>>,
    coordinator_crashes: Mutex<Vec<WalPoint>>,
    rdma_reads: AtomicU64,
    blcr_writes: AtomicU64,
    store_writes: AtomicU64,
    injected: AtomicU64,
}

/// The live fault injector: implements every layer's hook trait and
/// executes a [`FaultPlan`] deterministically. Cloning shares the plane.
#[derive(Clone)]
pub struct FaultPlane {
    inner: Arc<PlaneInner>,
}

impl FaultPlane {
    /// Instantiate `plan` against a simulation.
    pub fn new(handle: &SimHandle, plan: &FaultPlan) -> Self {
        let mut flaps = Vec::new();
        let mut drops = Vec::new();
        let mut cq_errs = Vec::new();
        let mut corrupts = Vec::new();
        let mut blcr_errs = Vec::new();
        let mut store_errs = Vec::new();
        let mut spare_crashes = Vec::new();
        let mut coordinator_crashes = Vec::new();
        for spec in &plan.entries {
            match *spec {
                FaultSpec::NetDrop { net, after, count } => drops.push(DropState {
                    net,
                    after: SimTime::ZERO + after,
                    remaining: count,
                }),
                FaultSpec::LinkFlap { net, at, lasts } => {
                    flaps.push((net, SimTime::ZERO + at, SimTime::ZERO + at + lasts))
                }
                FaultSpec::RdmaCqError { nth } => cq_errs.push(nth),
                FaultSpec::RdmaCorrupt { nth } => corrupts.push(nth),
                FaultSpec::BlcrWriteError { nth } => blcr_errs.push(nth),
                FaultSpec::StoreWrite { fault, nth } => store_errs.push((fault, nth)),
                FaultSpec::SpareCrash { phase, attempt } => spare_crashes.push((phase, attempt)),
                FaultSpec::CoordinatorCrash { at } => coordinator_crashes.push(at),
            }
        }
        FaultPlane {
            inner: Arc::new(PlaneInner {
                handle: handle.clone(),
                rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
                gige_drop_prob: plan.gige_drop_prob,
                rdma_cq_prob: plan.rdma_cq_prob,
                flaps,
                drops: Mutex::new(drops),
                cq_errs: Mutex::new(cq_errs),
                corrupts: Mutex::new(corrupts),
                blcr_errs: Mutex::new(blcr_errs),
                store_errs: Mutex::new(store_errs),
                spare_crashes: Mutex::new(spare_crashes),
                coordinator_crashes: Mutex::new(coordinator_crashes),
                rdma_reads: AtomicU64::new(0),
                blcr_writes: AtomicU64::new(0),
                store_writes: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Total faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Consume a scheduled spare-crash entry matching `(phase, attempt)`.
    /// The Job Manager polls this at each phase boundary; `true` means
    /// "kill the target spare now". Each entry fires at most once.
    pub fn take_spare_crash(&self, phase: MigPhase, attempt: u32) -> bool {
        let mut entries = self.inner.spare_crashes.lock();
        if let Some(pos) = entries
            .iter()
            .position(|&(p, a)| p == phase && a == attempt)
        {
            entries.remove(pos);
            drop(entries);
            self.record("spare_crash", || {
                vec![
                    ("phase", phase.name().into()),
                    ("attempt", u64::from(attempt).into()),
                ]
            });
            true
        } else {
            false
        }
    }

    /// Consume a scheduled coordinator-crash entry matching the journal
    /// append that just happened: record `seq` (1-based over the job's
    /// journal) inside `phase`, the first record of that phase iff
    /// `phase_first`. The cycle journal polls this after every append;
    /// `true` means "kill the Job Manager now, before the side effect the
    /// record announces executes". Each entry fires at most once.
    pub fn take_coordinator_crash(&self, seq: u64, phase: MigPhase, phase_first: bool) -> bool {
        let mut entries = self.inner.coordinator_crashes.lock();
        if let Some(pos) = entries.iter().position(|&p| match p {
            WalPoint::Seq(n) => n == seq,
            WalPoint::Phase(ph) => phase_first && ph == phase,
        }) {
            let at = entries.remove(pos);
            drop(entries);
            self.record("coordinator_crash", || {
                vec![
                    ("seq", seq.into()),
                    ("phase", phase.name().into()),
                    ("at", at.to_string().into()),
                ]
            });
            true
        } else {
            false
        }
    }

    fn record(&self, name: &'static str, args: impl FnOnce() -> simkit::Args) {
        self.inner.injected.fetch_add(1, Ordering::Relaxed);
        self.inner.handle.instant_with("fault", name, args);
    }

    fn take_nth(list: &Mutex<Vec<u64>>, n: u64) -> bool {
        let mut list = list.lock();
        if let Some(pos) = list.iter().position(|&m| m == n) {
            list.remove(pos);
            true
        } else {
            false
        }
    }
}

impl FaultHook for FaultPlane {
    fn on_send(
        &self,
        now: SimTime,
        net: &str,
        from: NodeId,
        to: NodeId,
        port: u16,
        wire_bytes: u64,
    ) -> SendVerdict {
        for &(sel, start, end) in &self.inner.flaps {
            if sel.matches(net) && now >= start && now < end {
                self.record("link_flap", || {
                    vec![
                        ("net", net.to_string().into()),
                        ("from", u64::from(from.0).into()),
                        ("to", u64::from(to.0).into()),
                    ]
                });
                return SendVerdict::Error;
            }
        }
        {
            let mut drops = self.inner.drops.lock();
            if let Some(d) = drops
                .iter_mut()
                .find(|d| d.remaining > 0 && d.net.matches(net) && now >= d.after)
            {
                d.remaining -= 1;
                drop(drops);
                self.record("msg_drop", || {
                    vec![
                        ("net", net.to_string().into()),
                        ("from", u64::from(from.0).into()),
                        ("to", u64::from(to.0).into()),
                        ("port", u64::from(port).into()),
                        ("bytes", wire_bytes.into()),
                    ]
                });
                return SendVerdict::Drop;
            }
        }
        if net == "gige" && self.inner.gige_drop_prob > 0.0 {
            let hit = self.inner.rng.lock().gen_bool(self.inner.gige_drop_prob);
            if hit {
                self.record("msg_drop", || {
                    vec![
                        ("net", net.to_string().into()),
                        ("from", u64::from(from.0).into()),
                        ("to", u64::from(to.0).into()),
                        ("random", 1u64.into()),
                    ]
                });
                return SendVerdict::Drop;
            }
        }
        SendVerdict::Deliver
    }

    fn on_rdma_read(&self, _now: SimTime, from: NodeId, to: NodeId, len: u64) -> Option<ReadFault> {
        let n = self.inner.rdma_reads.fetch_add(1, Ordering::Relaxed) + 1;
        if Self::take_nth(&self.inner.cq_errs, n) {
            self.record("rdma_cq_error", || {
                vec![
                    ("read", n.into()),
                    ("from", u64::from(from.0).into()),
                    ("to", u64::from(to.0).into()),
                    ("bytes", len.into()),
                ]
            });
            return Some(ReadFault::CqError);
        }
        if Self::take_nth(&self.inner.corrupts, n) {
            self.record("rdma_corrupt", || {
                vec![
                    ("read", n.into()),
                    ("from", u64::from(from.0).into()),
                    ("to", u64::from(to.0).into()),
                    ("bytes", len.into()),
                ]
            });
            return Some(ReadFault::Corrupt);
        }
        if self.inner.rdma_cq_prob > 0.0 && self.inner.rng.lock().gen_bool(self.inner.rdma_cq_prob)
        {
            self.record("rdma_cq_error", || {
                vec![("read", n.into()), ("random", 1u64.into())]
            });
            return Some(ReadFault::CqError);
        }
        None
    }
}

impl StoreFaultHook for FaultPlane {
    fn on_write(&self, _now: SimTime, store: &str, path: &str, bytes: u64) -> Option<StoreFault> {
        let n = self.inner.store_writes.fetch_add(1, Ordering::Relaxed) + 1;
        let fault = {
            let mut errs = self.inner.store_errs.lock();
            errs.iter()
                .position(|&(_, m)| m == n)
                .map(|pos| errs.remove(pos).0)
        };
        if let Some(f) = fault {
            self.record("store_fault", || {
                vec![
                    ("store", store.to_string().into()),
                    ("path", path.to_string().into()),
                    ("write", n.into()),
                    ("bytes", bytes.into()),
                    (
                        "kind",
                        match f {
                            StoreFault::DiskFull => "disk_full".into(),
                            StoreFault::IoError => "io_error".into(),
                        },
                    ),
                ]
            });
            return Some(f);
        }
        None
    }
}

impl BlcrFaultHook for FaultPlane {
    fn on_write(&self, _now: SimTime, pid: u64, offset: u64) -> bool {
        let n = self.inner.blcr_writes.fetch_add(1, Ordering::Relaxed) + 1;
        if Self::take_nth(&self.inner.blcr_errs, n) {
            self.record("blcr_write_error", || {
                vec![
                    ("pid", pid.into()),
                    ("write", n.into()),
                    ("offset", offset.into()),
                ]
            });
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Simulation;

    #[test]
    fn scheduled_drop_fires_once_per_count() {
        let sim = Simulation::new(1);
        let plan = FaultPlan::new(7).with(FaultSpec::NetDrop {
            net: NetSel::Gige,
            after: Duration::ZERO,
            count: 2,
        });
        let plane = FaultPlane::new(&sim.handle(), &plan);
        let t = SimTime::ZERO;
        let (a, b) = (NodeId(1), NodeId(2));
        assert_eq!(plane.on_send(t, "ib", a, b, 1, 10), SendVerdict::Deliver);
        assert_eq!(plane.on_send(t, "gige", a, b, 1, 10), SendVerdict::Drop);
        assert_eq!(plane.on_send(t, "gige", a, b, 1, 10), SendVerdict::Drop);
        assert_eq!(plane.on_send(t, "gige", a, b, 1, 10), SendVerdict::Deliver);
        assert_eq!(plane.injected(), 2);
    }

    #[test]
    fn link_flap_covers_window_only() {
        let sim = Simulation::new(1);
        let plan = FaultPlan::new(7).with(FaultSpec::LinkFlap {
            net: NetSel::Any,
            at: Duration::from_secs(1),
            lasts: Duration::from_secs(1),
        });
        let plane = FaultPlane::new(&sim.handle(), &plan);
        let (a, b) = (NodeId(1), NodeId(2));
        let before = SimTime::ZERO + Duration::from_millis(900);
        let during = SimTime::ZERO + Duration::from_millis(1500);
        let after = SimTime::ZERO + Duration::from_millis(2100);
        assert_eq!(
            plane.on_send(before, "ib", a, b, 1, 1),
            SendVerdict::Deliver
        );
        assert_eq!(plane.on_send(during, "ib", a, b, 1, 1), SendVerdict::Error);
        assert_eq!(plane.on_send(after, "ib", a, b, 1, 1), SendVerdict::Deliver);
    }

    #[test]
    fn nth_rdma_faults_hit_exact_reads() {
        let sim = Simulation::new(1);
        let plan = FaultPlan::new(7)
            .with(FaultSpec::RdmaCqError { nth: 2 })
            .with(FaultSpec::RdmaCorrupt { nth: 3 });
        let plane = FaultPlane::new(&sim.handle(), &plan);
        let t = SimTime::ZERO;
        let (a, b) = (NodeId(1), NodeId(2));
        assert_eq!(plane.on_rdma_read(t, a, b, 8), None);
        assert_eq!(plane.on_rdma_read(t, a, b, 8), Some(ReadFault::CqError));
        assert_eq!(plane.on_rdma_read(t, a, b, 8), Some(ReadFault::Corrupt));
        assert_eq!(plane.on_rdma_read(t, a, b, 8), None);
    }

    #[test]
    fn spare_crash_consumed_once() {
        let sim = Simulation::new(1);
        let plan = FaultPlan::new(7).with(FaultSpec::SpareCrash {
            phase: MigPhase::Restart,
            attempt: 1,
        });
        let plane = FaultPlane::new(&sim.handle(), &plan);
        assert!(!plane.take_spare_crash(MigPhase::Stall, 1));
        assert!(plane.take_spare_crash(MigPhase::Restart, 1));
        assert!(!plane.take_spare_crash(MigPhase::Restart, 1));
    }

    #[test]
    fn coordinator_crash_matches_seq_or_phase_first() {
        let sim = Simulation::new(1);
        let plan = FaultPlan::new(7)
            .with(FaultSpec::CoordinatorCrash {
                at: WalPoint::Seq(3),
            })
            .with(FaultSpec::CoordinatorCrash {
                at: WalPoint::Phase(MigPhase::Restart),
            });
        let plane = FaultPlane::new(&sim.handle(), &plan);
        assert!(!plane.take_coordinator_crash(1, MigPhase::Stall, true));
        assert!(!plane.take_coordinator_crash(2, MigPhase::Migrate, true));
        assert!(plane.take_coordinator_crash(3, MigPhase::Migrate, false));
        assert!(!plane.take_coordinator_crash(3, MigPhase::Migrate, false));
        // Phase points only match the *first* record of the phase.
        assert!(!plane.take_coordinator_crash(4, MigPhase::Restart, false));
        assert!(plane.take_coordinator_crash(5, MigPhase::Restart, true));
        assert!(!plane.take_coordinator_crash(6, MigPhase::Restart, true));
        assert_eq!(plane.injected(), 2);
    }

    #[test]
    fn probabilistic_drops_are_reproducible() {
        let sim = Simulation::new(1);
        let run = |seed| {
            let plan = FaultPlan::new(seed).gige_drop_prob(0.3);
            let plane = FaultPlane::new(&sim.handle(), &plan);
            (0..64)
                .map(|_| {
                    matches!(
                        plane.on_send(SimTime::ZERO, "gige", NodeId(1), NodeId(2), 1, 1),
                        SendVerdict::Drop
                    )
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        assert!(run(5).iter().any(|&d| d), "0.3 over 64 sends should hit");
    }
}
