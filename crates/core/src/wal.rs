//! The write-ahead cycle journal: crash-recoverable coordination.
//!
//! The Job Manager orchestrates the whole stall → migrate → restart →
//! resume cycle, which makes it the one component whose loss the PR 2
//! fault plane could not model: a coordinator that dies mid-cycle leaves
//! a half-restarted job, a dangling spare lease, and nobody to roll
//! anything back. This module closes that hole with the classic recipe —
//! a **write-ahead log**: every state-changing step of a migration cycle
//! appends a typed, checksummed [`WalRecord`] *before* the side effect it
//! announces executes.
//!
//! The journal is held on the launch node (the paper's Job Manager and
//! our standby both run there), so a coordinator crash never loses it.
//! Three things read it:
//!
//! * [`FaultPlane::take_coordinator_crash`] is polled after **every**
//!   append — the [`faultplane::WalPoint`] fault alphabet can kill the
//!   coordinator between any two records, in the exact window where the
//!   record is durable but its side effect has not happened;
//! * the standby coordinator's takeover path calls [`CycleJournal::in_flight`]
//!   to decide *resume-from-point* (cycle passed its [`WalRecord::CommitPoint`],
//!   or the data path is still progressing) versus *rollback*;
//! * telemetry: every append emits a `wal`-category instant, replay emits
//!   `wal_replay`, so an exported trace shows journal and takeover
//!   activity on the same timeline as the phases.
//!
//! The commit point is the record appended once every rank has restarted
//! on the target (`RestartDone` in protocol terms): before it, the source
//! images are still authoritative and rollback is always safe; after it,
//! the target is authoritative and the only correct recovery is to finish
//! the resume.

use faultplane::{FaultPlane, MigPhase};
use ibfabric::NodeId;
use parking_lot::Mutex;
use simkit::{fnv1a, SimHandle, FNV1A_OFFSET};
use std::fmt;
use std::sync::Arc;

/// One typed journal record: a state-changing step of a migration cycle,
/// written *before* the step executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A migration attempt is starting for `cycle` (`attempt` is 1-based).
    CycleStart {
        /// Cycle sequence number.
        cycle: u64,
        /// Node the ranks are leaving.
        source: NodeId,
        /// 1-based attempt index.
        attempt: u32,
    },
    /// A spare lease is about to be acquired (or was just granted —
    /// the record carries the granted node).
    LeaseAcquire {
        /// Cycle sequence number.
        cycle: u64,
        /// The leased spare.
        node: NodeId,
        /// Fencing epoch the lease was granted under.
        epoch: u64,
    },
    /// The cycle is entering `phase` (the `FTB` publish / barrier wait
    /// the phase opens with has not happened yet).
    PhaseEnter {
        /// Cycle sequence number.
        cycle: u64,
        /// The phase being entered.
        phase: MigPhase,
    },
    /// One live pre-copy round finished: `bytes` of (full or delta) image
    /// data landed on the target while the job kept running. Appended
    /// *after* the round completes — recovery can count finished rounds
    /// but must treat a round with no record as never having happened.
    PrecopyRound {
        /// Cycle sequence number.
        cycle: u64,
        /// Round number (0 = full-image round).
        round: u32,
        /// Stream bytes the round moved.
        bytes: u64,
    },
    /// Rank `rank`'s image finished streaming and verified on the target.
    RankImageReady {
        /// Cycle sequence number.
        cycle: u64,
        /// Global rank id.
        rank: u32,
    },
    /// The spawn tree is about to be rewired source → target and
    /// `FTB_RESTART` published.
    NlaRewire {
        /// Cycle sequence number.
        cycle: u64,
        /// The restart target.
        target: NodeId,
    },
    /// Rank `rank` restarted from its image on the target.
    RankRestarted {
        /// Cycle sequence number.
        cycle: u64,
        /// Global rank id.
        rank: u32,
    },
    /// **The commit point**: every rank has restarted on the target; the
    /// target is now authoritative and recovery must roll *forward*.
    CommitPoint {
        /// Cycle sequence number.
        cycle: u64,
    },
    /// The lease is about to be settled as consumed (successful cycle).
    LeaseCommit {
        /// Cycle sequence number.
        cycle: u64,
        /// The consumed spare.
        node: NodeId,
        /// Fencing epoch presented to the pool.
        epoch: u64,
    },
    /// `abort_cycle` is about to roll the cycle back to the source.
    Rollback {
        /// Cycle sequence number.
        cycle: u64,
    },
    /// The cycle reached a terminal outcome; nothing is in flight.
    CycleEnd {
        /// Cycle sequence number.
        cycle: u64,
    },
}

/// Stable lower-snake phase name matching the cycle table's
/// `CyclePhase::name()` strings — the trace bus and the conformance
/// observer speak these.
fn phase_name(phase: MigPhase) -> &'static str {
    match phase {
        MigPhase::Precopy => "precopy",
        MigPhase::Stall => "stall",
        MigPhase::Migrate => "migrate",
        MigPhase::Restart => "restart",
        MigPhase::Resume => "resume",
    }
}

impl WalRecord {
    /// Stable lower-snake record name (used in traces and tests).
    pub fn name(&self) -> &'static str {
        match self {
            WalRecord::CycleStart { .. } => "cycle_start",
            WalRecord::LeaseAcquire { .. } => "lease_acquire",
            WalRecord::PhaseEnter { .. } => "phase_enter",
            WalRecord::PrecopyRound { .. } => "precopy_round",
            WalRecord::RankImageReady { .. } => "rank_image_ready",
            WalRecord::NlaRewire { .. } => "nla_rewire",
            WalRecord::RankRestarted { .. } => "rank_restarted",
            WalRecord::CommitPoint { .. } => "commit_point",
            WalRecord::LeaseCommit { .. } => "lease_commit",
            WalRecord::Rollback { .. } => "rollback",
            WalRecord::CycleEnd { .. } => "cycle_end",
        }
    }

    /// The cycle this record belongs to.
    pub fn cycle(&self) -> u64 {
        match *self {
            WalRecord::CycleStart { cycle, .. }
            | WalRecord::LeaseAcquire { cycle, .. }
            | WalRecord::PhaseEnter { cycle, .. }
            | WalRecord::PrecopyRound { cycle, .. }
            | WalRecord::RankImageReady { cycle, .. }
            | WalRecord::NlaRewire { cycle, .. }
            | WalRecord::RankRestarted { cycle, .. }
            | WalRecord::CommitPoint { cycle }
            | WalRecord::LeaseCommit { cycle, .. }
            | WalRecord::Rollback { cycle }
            | WalRecord::CycleEnd { cycle } => cycle,
        }
    }

    /// Canonical byte encoding the checksum covers: a tag byte followed
    /// by every field little-endian. Order is part of the format (§14).
    fn encode(&self, buf: &mut Vec<u8>) {
        let put_u64 = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        match *self {
            WalRecord::CycleStart {
                cycle,
                source,
                attempt,
            } => {
                buf.push(1);
                put_u64(buf, cycle);
                put_u64(buf, u64::from(source.0));
                put_u64(buf, u64::from(attempt));
            }
            WalRecord::LeaseAcquire { cycle, node, epoch } => {
                buf.push(2);
                put_u64(buf, cycle);
                put_u64(buf, u64::from(node.0));
                put_u64(buf, epoch);
            }
            WalRecord::PhaseEnter { cycle, phase } => {
                buf.push(3);
                put_u64(buf, cycle);
                buf.push(match phase {
                    MigPhase::Stall => 1,
                    MigPhase::Migrate => 2,
                    MigPhase::Restart => 3,
                    MigPhase::Resume => 4,
                    MigPhase::Precopy => 5,
                });
            }
            WalRecord::PrecopyRound {
                cycle,
                round,
                bytes,
            } => {
                buf.push(11);
                put_u64(buf, cycle);
                put_u64(buf, u64::from(round));
                put_u64(buf, bytes);
            }
            WalRecord::RankImageReady { cycle, rank } => {
                buf.push(4);
                put_u64(buf, cycle);
                put_u64(buf, u64::from(rank));
            }
            WalRecord::NlaRewire { cycle, target } => {
                buf.push(5);
                put_u64(buf, cycle);
                put_u64(buf, u64::from(target.0));
            }
            WalRecord::RankRestarted { cycle, rank } => {
                buf.push(6);
                put_u64(buf, cycle);
                put_u64(buf, u64::from(rank));
            }
            WalRecord::CommitPoint { cycle } => {
                buf.push(7);
                put_u64(buf, cycle);
            }
            WalRecord::LeaseCommit { cycle, node, epoch } => {
                buf.push(8);
                put_u64(buf, cycle);
                put_u64(buf, u64::from(node.0));
                put_u64(buf, epoch);
            }
            WalRecord::Rollback { cycle } => {
                buf.push(9);
                put_u64(buf, cycle);
            }
            WalRecord::CycleEnd { cycle } => {
                buf.push(10);
                put_u64(buf, cycle);
            }
        }
    }
}

impl fmt::Display for WalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (cycle {})", self.name(), self.cycle())
    }
}

/// One framed journal entry: sequence number, record, FNV-1a checksum
/// over `seq ‖ encode(record)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// 1-based append sequence over the job's whole journal.
    pub seq: u64,
    /// The typed record.
    pub record: WalRecord,
    /// FNV-1a 64 over the canonical encoding.
    pub checksum: u64,
}

fn frame(seq: u64, record: &WalRecord) -> WalEntry {
    let mut buf = Vec::with_capacity(32);
    buf.extend_from_slice(&seq.to_le_bytes());
    record.encode(&mut buf);
    WalEntry {
        seq,
        record: record.clone(),
        checksum: fnv1a(FNV1A_OFFSET, &buf),
    }
}

impl WalEntry {
    /// Re-derive the checksum and compare — `false` means the entry was
    /// corrupted after append.
    pub fn verify(&self) -> bool {
        frame(self.seq, &self.record).checksum == self.checksum
    }
}

/// A journal that fails verification. Every way the entry chain can be
/// bad maps to one typed variant — corruption is a *condition* recovery
/// code branches on, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalVerifyError {
    /// An entry's checksum does not match its content.
    Corrupt {
        /// Sequence number of the corrupt entry.
        seq: u64,
    },
    /// An entry's sequence number breaks the dense 1-based chain.
    OutOfOrder {
        /// Sequence number found.
        seq: u64,
        /// Sequence number the chain requires at that position.
        expected: u64,
    },
}

impl fmt::Display for WalVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WalVerifyError::Corrupt { seq } => write!(f, "checksum mismatch at seq {seq}"),
            WalVerifyError::OutOfOrder { seq, expected } => {
                write!(f, "out-of-order seq {seq} (chain requires {expected})")
            }
        }
    }
}

impl std::error::Error for WalVerifyError {}

/// Verify an entry chain: dense 1-based sequence numbers and intact
/// checksums.
fn verify_chain(entries: &[WalEntry]) -> Result<(), WalVerifyError> {
    for (i, e) in entries.iter().enumerate() {
        let expected = i as u64 + 1;
        if e.seq != expected {
            return Err(WalVerifyError::OutOfOrder {
                seq: e.seq,
                expected,
            });
        }
        if !e.verify() {
            return Err(WalVerifyError::Corrupt { seq: e.seq });
        }
    }
    Ok(())
}

/// What the journal tail says about the newest cycle, computed by
/// [`CycleJournal::in_flight`] during takeover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight {
    /// The in-flight cycle id.
    pub cycle: u64,
    /// Attempt index from the `CycleStart` record.
    pub attempt: u32,
    /// Source node from the `CycleStart` record.
    pub source: NodeId,
    /// Outstanding lease (node, epoch). Stays populated across a
    /// `LeaseCommit` record: the record lands *before* the pool settle,
    /// so a crash at that boundary leaves the settle pending and recovery
    /// must re-execute it (`CycleEnd` is what proves the cycle fully
    /// settled).
    pub lease: Option<(NodeId, u64)>,
    /// Whether a `LeaseCommit` record was appended (the settle may or may
    /// not have executed — see [`InFlight::lease`]).
    pub lease_committed: bool,
    /// Restart target from the `NlaRewire` record, if the cycle got
    /// that far.
    pub target: Option<NodeId>,
    /// Deepest phase entered.
    pub phase: Option<MigPhase>,
    /// Whether the spawn tree was already rewired source → target.
    pub rewired: bool,
    /// Whether the cycle passed its commit point (recovery must roll
    /// forward).
    pub committed: bool,
    /// Whether a rollback had already started (recovery finishes it).
    pub rolling_back: bool,
    /// Ranks whose images verified on the target.
    pub images_ready: Vec<u32>,
    /// Ranks already restarted on the target.
    pub restarted: Vec<u32>,
    /// Completed live pre-copy rounds (0 for stop-and-copy cycles). A
    /// crash inside [`MigPhase::Precopy`] is recovered by abandoning the
    /// pre-copy — the job never stopped running on the source, so
    /// rollback costs nothing but the streamed bytes.
    pub precopy_rounds: u32,
}

struct JournalState {
    entries: Vec<WalEntry>,
    /// Phase context for crash targeting: the phase of the last
    /// `PhaseEnter` (records before the first phase count as Stall).
    phase: MigPhase,
    plane: Option<FaultPlane>,
    /// Invoked when a scheduled coordinator crash fires; installed by the
    /// runtime to kill the Job Manager proc and wake the standby. Cloned
    /// out and called with the journal unlocked.
    crash_hook: Option<Arc<dyn Fn() + Send + Sync>>,
}

struct JournalInner {
    handle: SimHandle,
    state: Mutex<JournalState>,
}

/// The shared write-ahead cycle journal of one job. Cloning shares the
/// journal (Job Manager, NLA-side appenders, and the standby all hold
/// the same one).
#[derive(Clone)]
pub struct CycleJournal {
    inner: Arc<JournalInner>,
}

impl CycleJournal {
    /// An empty journal bound to the simulation's trace bus.
    pub fn new(handle: &SimHandle) -> CycleJournal {
        CycleJournal {
            inner: Arc::new(JournalInner {
                handle: handle.clone(),
                state: Mutex::new(JournalState {
                    entries: Vec::new(),
                    phase: MigPhase::Stall,
                    plane: None,
                    crash_hook: None,
                }),
            }),
        }
    }

    /// Arm the journal against a fault plane: every append will poll
    /// [`FaultPlane::take_coordinator_crash`].
    pub fn install_fault_plane(&self, plane: FaultPlane) {
        self.inner.state.lock().plane = Some(plane);
    }

    /// Install the crash hook a scheduled coordinator crash executes
    /// (kill the Job Manager, signal the standby).
    pub fn set_crash_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.inner.state.lock().crash_hook = Some(Arc::new(hook));
    }

    /// Append `record` ahead of its side effect. Returns the assigned
    /// sequence number.
    ///
    /// If the fault plane scheduled a coordinator crash at this boundary,
    /// the crash hook runs *here* — after the record is durable, before
    /// the caller can execute the side effect. A Job Manager calling this
    /// from its own proc must follow the append with `ctx.check_killed()`
    /// so the self-inflicted kill unwinds immediately.
    pub fn append(&self, record: WalRecord) -> u64 {
        let (seq, phase, phase_first, plane) = {
            let mut st = self.inner.state.lock();
            let seq = st.entries.len() as u64 + 1;
            let phase_first = matches!(record, WalRecord::PhaseEnter { .. });
            if let WalRecord::PhaseEnter { phase, .. } = record {
                st.phase = phase;
            }
            let phase = st.phase;
            st.entries.push(frame(seq, &record));
            (seq, phase, phase_first, st.plane.clone())
        };
        self.inner.handle.instant_with("wal", "wal_append", || {
            let mut args = vec![
                ("seq", seq.into()),
                ("record", record.name().into()),
                ("cycle", record.cycle().into()),
            ];
            // The conformance observer's WAL automaton orders the
            // phase_enter records; give it the phase by name.
            if let WalRecord::PhaseEnter { phase, .. } = record {
                args.push(("phase", phase_name(phase).into()));
            }
            args
        });
        let crash = plane.is_some_and(|p| p.take_coordinator_crash(seq, phase, phase_first));
        if crash {
            let hook = self.inner.state.lock().crash_hook.clone();
            if let Some(hook) = hook {
                hook();
            }
        }
        seq
    }

    /// Number of entries appended so far.
    pub fn len(&self) -> usize {
        self.inner.state.lock().entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every entry, in append order.
    pub fn entries(&self) -> Vec<WalEntry> {
        self.inner.state.lock().entries.clone()
    }

    /// Verify the whole entry chain: dense 1-based sequence numbers and
    /// intact checksums. The first defect comes back as a typed
    /// [`WalVerifyError`].
    pub fn verify(&self) -> Result<(), WalVerifyError> {
        verify_chain(&self.inner.state.lock().entries)
    }

    /// Replay the tail since the last `CycleEnd` and report the in-flight
    /// cycle, if any — the standby's first step during takeover. Emits a
    /// `wal_replay` instant covering the records replayed.
    pub fn in_flight(&self) -> Option<InFlight> {
        let st = self.inner.state.lock();
        let tail_start = st
            .entries
            .iter()
            .rposition(|e| matches!(e.record, WalRecord::CycleEnd { .. }))
            .map(|p| p + 1)
            .unwrap_or(0);
        let tail = &st.entries[tail_start..];
        let start = tail.iter().find_map(|e| match e.record {
            WalRecord::CycleStart {
                cycle,
                source,
                attempt,
            } => Some((cycle, source, attempt)),
            _ => None,
        })?;
        let (cycle, source, attempt) = start;
        let mut fl = InFlight {
            cycle,
            attempt,
            source,
            lease: None,
            lease_committed: false,
            target: None,
            phase: None,
            rewired: false,
            committed: false,
            rolling_back: false,
            images_ready: Vec::new(),
            restarted: Vec::new(),
            precopy_rounds: 0,
        };
        let mut replayed = 0u64;
        for e in tail.iter().filter(|e| e.record.cycle() == cycle) {
            replayed += 1;
            match e.record {
                WalRecord::LeaseAcquire { node, epoch, .. } => fl.lease = Some((node, epoch)),
                WalRecord::PhaseEnter { phase, .. } => fl.phase = Some(phase),
                WalRecord::PrecopyRound { round, .. } => fl.precopy_rounds = round + 1,
                WalRecord::RankImageReady { rank, .. } => fl.images_ready.push(rank),
                WalRecord::NlaRewire { target, .. } => {
                    fl.target = Some(target);
                    fl.rewired = true;
                }
                WalRecord::RankRestarted { rank, .. } => fl.restarted.push(rank),
                WalRecord::CommitPoint { .. } => fl.committed = true,
                WalRecord::LeaseCommit { node, epoch, .. } => {
                    fl.lease = Some((node, epoch));
                    fl.lease_committed = true;
                }
                WalRecord::Rollback { .. } => fl.rolling_back = true,
                WalRecord::CycleStart { .. } | WalRecord::CycleEnd { .. } => {}
            }
        }
        self.inner.handle.instant_with("wal", "wal_replay", || {
            vec![("cycle", cycle.into()), ("records", replayed.into())]
        });
        Some(fl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultplane::{FaultPlan, FaultSpec, WalPoint};
    use simkit::Simulation;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn journal() -> CycleJournal {
        let sim = Simulation::new(1);
        CycleJournal::new(&sim.handle())
    }

    #[test]
    fn checksums_verify_and_catch_tampering() {
        let j = journal();
        j.append(WalRecord::CycleStart {
            cycle: 1,
            source: NodeId(3),
            attempt: 1,
        });
        j.append(WalRecord::PhaseEnter {
            cycle: 1,
            phase: MigPhase::Stall,
        });
        assert_eq!(j.verify(), Ok(()));
        let mut entries = j.entries();
        // Same seq + different record must not collide.
        assert_ne!(entries[0].checksum, entries[1].checksum);
        entries[1].record = WalRecord::PhaseEnter {
            cycle: 1,
            phase: MigPhase::Migrate,
        };
        assert!(!entries[1].verify());
    }

    #[test]
    fn tail_analysis_tracks_commit_point_and_lease() {
        let j = journal();
        // A completed earlier cycle is skipped by the tail scan.
        j.append(WalRecord::CycleStart {
            cycle: 1,
            source: NodeId(2),
            attempt: 1,
        });
        j.append(WalRecord::CycleEnd { cycle: 1 });
        assert_eq!(j.in_flight(), None);
        // A fresh cycle: pre-commit, lease outstanding.
        j.append(WalRecord::CycleStart {
            cycle: 2,
            source: NodeId(2),
            attempt: 1,
        });
        j.append(WalRecord::LeaseAcquire {
            cycle: 2,
            node: NodeId(9),
            epoch: 1,
        });
        j.append(WalRecord::PhaseEnter {
            cycle: 2,
            phase: MigPhase::Migrate,
        });
        j.append(WalRecord::RankImageReady { cycle: 2, rank: 0 });
        let fl = j.in_flight().expect("cycle 2 in flight");
        assert_eq!(fl.cycle, 2);
        assert_eq!(fl.lease, Some((NodeId(9), 1)));
        assert!(!fl.committed && !fl.rewired);
        assert_eq!(fl.images_ready, vec![0]);
        // Past the commit point the analysis flips to roll-forward.
        j.append(WalRecord::NlaRewire {
            cycle: 2,
            target: NodeId(9),
        });
        j.append(WalRecord::RankRestarted { cycle: 2, rank: 0 });
        j.append(WalRecord::CommitPoint { cycle: 2 });
        let fl = j.in_flight().expect("still in flight");
        assert!(fl.committed && fl.rewired);
        assert_eq!(fl.target, Some(NodeId(9)));
        assert_eq!(fl.restarted, vec![0]);
        j.append(WalRecord::LeaseCommit {
            cycle: 2,
            node: NodeId(9),
            epoch: 1,
        });
        // A LeaseCommit record alone does not prove the settle executed:
        // the lease stays visible (flagged committed) until CycleEnd.
        let fl = j.in_flight().expect("settle may still be pending");
        assert!(fl.lease_committed);
        assert_eq!(fl.lease, Some((NodeId(9), 1)));
        j.append(WalRecord::CycleEnd { cycle: 2 });
        assert_eq!(j.in_flight(), None);
        assert_eq!(j.verify(), Ok(()));
    }

    #[test]
    fn scheduled_crash_fires_hook_at_exact_boundary() {
        let sim = Simulation::new(1);
        let j = CycleJournal::new(&sim.handle());
        let plan = FaultPlan::new().with(FaultSpec::CoordinatorCrash {
            at: WalPoint::Seq(2),
        });
        j.install_fault_plane(faultplane::FaultPlane::new(&sim.handle(), &plan));
        let fired = Arc::new(AtomicU32::new(0));
        let f = fired.clone();
        j.set_crash_hook(move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        j.append(WalRecord::CycleStart {
            cycle: 1,
            source: NodeId(2),
            attempt: 1,
        });
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        j.append(WalRecord::PhaseEnter {
            cycle: 1,
            phase: MigPhase::Stall,
        });
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        j.append(WalRecord::PhaseEnter {
            cycle: 1,
            phase: MigPhase::Migrate,
        });
        assert_eq!(fired.load(Ordering::Relaxed), 1, "consumed once");
    }

    /// A journal with a few records of every shape, for the
    /// verification edge-case tests.
    fn populated() -> CycleJournal {
        let j = journal();
        j.append(WalRecord::CycleStart {
            cycle: 1,
            source: NodeId(2),
            attempt: 1,
        });
        j.append(WalRecord::LeaseAcquire {
            cycle: 1,
            node: NodeId(9),
            epoch: 0,
        });
        j.append(WalRecord::PhaseEnter {
            cycle: 1,
            phase: MigPhase::Migrate,
        });
        j.append(WalRecord::RankImageReady { cycle: 1, rank: 3 });
        j.append(WalRecord::CycleEnd { cycle: 1 });
        j
    }

    #[test]
    fn flipped_checksum_byte_is_a_typed_error() {
        let j = populated();
        // A flip in a stored checksum is Corrupt for that entry.
        let mut entries = j.entries();
        entries[0].checksum ^= 0x01;
        assert_eq!(
            verify_chain(&entries),
            Err(WalVerifyError::Corrupt { seq: 1 })
        );
        // So is a record changed after append: the checksum covers it.
        let mut entries = j.entries();
        entries[3].record = WalRecord::RankImageReady { cycle: 1, rank: 4 };
        assert_eq!(
            verify_chain(&entries),
            Err(WalVerifyError::Corrupt { seq: 4 })
        );
        assert_eq!(j.verify(), Ok(()));
    }

    #[test]
    fn out_of_order_seq_is_a_typed_error() {
        let j = populated();
        let mut entries = j.entries();
        entries.swap(1, 2);
        assert_eq!(
            verify_chain(&entries),
            Err(WalVerifyError::OutOfOrder {
                seq: 3,
                expected: 2
            })
        );
        assert_eq!(j.verify(), Ok(()));
    }
}
