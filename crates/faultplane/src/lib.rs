//! # faultplane — deterministic seeded fault injection
//!
//! The migration framework's whole premise is surviving failure, so failure
//! must be a first-class, *reproducible* input to the simulation. This
//! crate provides that input: a [`FaultPlan`] schedules typed faults
//! ("drop the next 2 GigE datagrams after t = 30 s", "crash the spare at
//! Phase 3 of attempt 1") and a [`FaultPlane`] executes the plan by
//! hooking the injection points the lower layers expose:
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
use simkit::{SimHandle, SimTime};
use std::fmt;
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

/// A deterministic fault schedule: a list of scheduled faults, each
/// keyed to virtual time or to an operation count, so the same plan on
/// the same simulation replays identically.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scheduled faults.
    pub entries: Vec<FaultSpec>,
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
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append a scheduled fault (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.entries.push(spec);
        self
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{e}")?;
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
    flaps: Vec<(NetSel, SimTime, SimTime)>,
    state: Mutex<PlaneState>,
}

/// The plan's faults not yet fired, and the operation counters the
/// counted faults are keyed to.
#[derive(Default)]
struct PlaneState {
    drops: Vec<DropState>,
    cq_errs: Vec<u64>,
    corrupts: Vec<u64>,
    blcr_errs: Vec<u64>,
    store_errs: Vec<(StoreFault, u64)>,
    spare_crashes: Vec<(MigPhase, u32)>,
    coordinator_crashes: Vec<WalPoint>,
    rdma_reads: u64,
    blcr_writes: u64,
    store_writes: u64,
    injected: u64,
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
        let mut st = PlaneState::default();
        for spec in &plan.entries {
            match *spec {
                FaultSpec::NetDrop { net, after, count } => st.drops.push(DropState {
                    net,
                    after: SimTime::ZERO + after,
                    remaining: count,
                }),
                FaultSpec::LinkFlap { net, at, lasts } => {
                    flaps.push((net, SimTime::ZERO + at, SimTime::ZERO + at + lasts))
                }
                FaultSpec::RdmaCqError { nth } => st.cq_errs.push(nth),
                FaultSpec::RdmaCorrupt { nth } => st.corrupts.push(nth),
                FaultSpec::BlcrWriteError { nth } => st.blcr_errs.push(nth),
                FaultSpec::StoreWrite { fault, nth } => st.store_errs.push((fault, nth)),
                FaultSpec::SpareCrash { phase, attempt } => st.spare_crashes.push((phase, attempt)),
                FaultSpec::CoordinatorCrash { at } => st.coordinator_crashes.push(at),
            }
        }
        FaultPlane {
            inner: Arc::new(PlaneInner {
                handle: handle.clone(),
                flaps,
                state: Mutex::new(st),
            }),
        }
    }

    /// Total faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.inner.state.lock().injected
    }

    /// Consume a scheduled spare-crash entry matching `(phase, attempt)`.
    /// The Job Manager polls this at each phase boundary; `true` means
    /// "kill the target spare now". Each entry fires at most once.
    pub fn take_spare_crash(&self, phase: MigPhase, attempt: u32) -> bool {
        let mut st = self.inner.state.lock();
        if let Some(pos) = st
            .spare_crashes
            .iter()
            .position(|&(p, a)| p == phase && a == attempt)
        {
            st.spare_crashes.remove(pos);
            drop(st);
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
        let mut st = self.inner.state.lock();
        if let Some(pos) = st.coordinator_crashes.iter().position(|&p| match p {
            WalPoint::Seq(n) => n == seq,
            WalPoint::Phase(ph) => phase_first && ph == phase,
        }) {
            let at = st.coordinator_crashes.remove(pos);
            drop(st);
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

    /// Count an injected fault and emit it on the trace bus. Callers
    /// hold no guard on the plane's state.
    fn record(&self, name: &'static str, args: impl FnOnce() -> simkit::Args) {
        self.inner.state.lock().injected += 1;
        self.inner.handle.instant_with("fault", name, args);
    }
}

/// Remove `n` from `list`; whether it was there.
fn take_nth(list: &mut Vec<u64>, n: u64) -> bool {
    if let Some(pos) = list.iter().position(|&m| m == n) {
        list.remove(pos);
        true
    } else {
        false
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
        let dropped = {
            let mut st = self.inner.state.lock();
            let open = st
                .drops
                .iter_mut()
                .find(|d| d.remaining > 0 && d.net.matches(net) && now >= d.after);
            match open {
                Some(d) => {
                    d.remaining -= 1;
                    true
                }
                None => false,
            }
        };
        if dropped {
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
        SendVerdict::Deliver
    }

    fn on_rdma_read(&self, _now: SimTime, from: NodeId, to: NodeId, len: u64) -> Option<ReadFault> {
        let (n, fault) = {
            let mut st = self.inner.state.lock();
            st.rdma_reads += 1;
            let n = st.rdma_reads;
            let fault = if take_nth(&mut st.cq_errs, n) {
                Some((ReadFault::CqError, "rdma_cq_error"))
            } else if take_nth(&mut st.corrupts, n) {
                Some((ReadFault::Corrupt, "rdma_corrupt"))
            } else {
                None
            };
            (n, fault)
        };
        let (fault, name) = fault?;
        self.record(name, || {
            vec![
                ("read", n.into()),
                ("from", u64::from(from.0).into()),
                ("to", u64::from(to.0).into()),
                ("bytes", len.into()),
            ]
        });
        Some(fault)
    }
}

impl StoreFaultHook for FaultPlane {
    fn on_write(&self, _now: SimTime, store: &str, path: &str, bytes: u64) -> Option<StoreFault> {
        let (n, fault) = {
            let mut st = self.inner.state.lock();
            st.store_writes += 1;
            let n = st.store_writes;
            let pos = st.store_errs.iter().position(|&(_, m)| m == n);
            (n, pos.map(|pos| st.store_errs.remove(pos).0))
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
        let (n, hit) = {
            let mut st = self.inner.state.lock();
            st.blcr_writes += 1;
            let n = st.blcr_writes;
            (n, take_nth(&mut st.blcr_errs, n))
        };
        if hit {
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
        let plan = FaultPlan::new().with(FaultSpec::NetDrop {
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
        let plan = FaultPlan::new().with(FaultSpec::LinkFlap {
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
        let plan = FaultPlan::new()
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
        let plan = FaultPlan::new().with(FaultSpec::SpareCrash {
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
        let plan = FaultPlan::new()
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
}
