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
use simkit::SimHandle;
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

    /// Decode one canonical encoding produced by [`WalRecord::encode`].
    /// `None` means the bytes are not a well-formed record (bad tag,
    /// short fields, trailing garbage).
    fn decode(buf: &[u8]) -> Option<WalRecord> {
        fn u64_at(buf: &[u8], at: usize) -> Option<u64> {
            Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
        }
        let tag = *buf.first()?;
        let rec = match tag {
            1 => WalRecord::CycleStart {
                cycle: u64_at(buf, 1)?,
                source: NodeId(u32::try_from(u64_at(buf, 9)?).ok()?),
                attempt: u32::try_from(u64_at(buf, 17)?).ok()?,
            },
            2 => WalRecord::LeaseAcquire {
                cycle: u64_at(buf, 1)?,
                node: NodeId(u32::try_from(u64_at(buf, 9)?).ok()?),
                epoch: u64_at(buf, 17)?,
            },
            3 => WalRecord::PhaseEnter {
                cycle: u64_at(buf, 1)?,
                phase: match buf.get(9)? {
                    1 => MigPhase::Stall,
                    2 => MigPhase::Migrate,
                    3 => MigPhase::Restart,
                    4 => MigPhase::Resume,
                    5 => MigPhase::Precopy,
                    _ => return None,
                },
            },
            4 => WalRecord::RankImageReady {
                cycle: u64_at(buf, 1)?,
                rank: u32::try_from(u64_at(buf, 9)?).ok()?,
            },
            5 => WalRecord::NlaRewire {
                cycle: u64_at(buf, 1)?,
                target: NodeId(u32::try_from(u64_at(buf, 9)?).ok()?),
            },
            6 => WalRecord::RankRestarted {
                cycle: u64_at(buf, 1)?,
                rank: u32::try_from(u64_at(buf, 9)?).ok()?,
            },
            7 => WalRecord::CommitPoint {
                cycle: u64_at(buf, 1)?,
            },
            8 => WalRecord::LeaseCommit {
                cycle: u64_at(buf, 1)?,
                node: NodeId(u32::try_from(u64_at(buf, 9)?).ok()?),
                epoch: u64_at(buf, 17)?,
            },
            9 => WalRecord::Rollback {
                cycle: u64_at(buf, 1)?,
            },
            10 => WalRecord::CycleEnd {
                cycle: u64_at(buf, 1)?,
            },
            11 => WalRecord::PrecopyRound {
                cycle: u64_at(buf, 1)?,
                round: u32::try_from(u64_at(buf, 9)?).ok()?,
                bytes: u64_at(buf, 17)?,
            },
            _ => return None,
        };
        // The encoding is canonical: trailing bytes mean the frame's
        // length field lied, which a checksum over the true payload
        // would not catch.
        let mut canon = Vec::with_capacity(buf.len());
        rec.encode(&mut canon);
        (canon.len() == buf.len()).then_some(rec)
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn frame(seq: u64, record: &WalRecord) -> WalEntry {
    let mut buf = Vec::with_capacity(32);
    buf.extend_from_slice(&seq.to_le_bytes());
    record.encode(&mut buf);
    WalEntry {
        seq,
        record: record.clone(),
        checksum: fnv1a(&buf),
    }
}

impl WalEntry {
    /// Re-derive the checksum and compare — `false` means the entry was
    /// corrupted after append.
    pub fn verify(&self) -> bool {
        frame(self.seq, &self.record).checksum == self.checksum
    }

    /// Serialize the entry to its on-disk frame: `seq` (u64 LE),
    /// `checksum` (u64 LE), payload length (u32 LE), payload (the
    /// record's canonical encoding: a tag byte, then every field LE).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32);
        self.record.encode(&mut payload);
        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// A journal that fails verification. Every way a serialized or
/// in-memory log can be bad maps to one typed variant — corruption is a
/// *condition* recovery code branches on, never a panic.
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
    /// A serialized log ends mid-frame: the final record was cut short
    /// (torn write).
    TruncatedTail {
        /// Byte offset where the truncated frame starts.
        offset: usize,
    },
    /// A frame's payload is not a well-formed record encoding.
    BadRecord {
        /// Sequence number of the malformed entry.
        seq: u64,
    },
}

impl fmt::Display for WalVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WalVerifyError::Corrupt { seq } => write!(f, "checksum mismatch at seq {seq}"),
            WalVerifyError::OutOfOrder { seq, expected } => {
                write!(f, "out-of-order seq {seq} (chain requires {expected})")
            }
            WalVerifyError::TruncatedTail { offset } => {
                write!(f, "truncated tail record at byte offset {offset}")
            }
            WalVerifyError::BadRecord { seq } => write!(f, "malformed record at seq {seq}"),
        }
    }
}

impl std::error::Error for WalVerifyError {}

/// Verify an entry chain: dense 1-based sequence numbers and intact
/// checksums. Shared by [`CycleJournal::verify`] (in-memory) and
/// [`decode_log`] (serialized).
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

/// Serialize a snapshot of journal entries to one contiguous byte log
/// (concatenated [`WalEntry::to_bytes`] frames).
pub fn encode_log(entries: &[WalEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in entries {
        out.extend_from_slice(&e.to_bytes());
    }
    out
}

/// Decode and fully verify a serialized log: frame structure, record
/// encoding, checksum chain, and sequence order. Every failure mode is a
/// typed [`WalVerifyError`]; malformed input never panics.
pub fn decode_log(bytes: &[u8]) -> Result<Vec<WalEntry>, WalVerifyError> {
    let mut entries = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let frame_start = at;
        let truncated = WalVerifyError::TruncatedTail {
            offset: frame_start,
        };
        let header = bytes.get(at..at + 20).ok_or(truncated)?;
        let seq = u64::from_le_bytes(header[0..8].try_into().unwrap());
        let checksum = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
        at += 20;
        let payload = bytes.get(at..at + len).ok_or(truncated)?;
        at += len;
        let record = WalRecord::decode(payload).ok_or(WalVerifyError::BadRecord { seq })?;
        entries.push(WalEntry {
            seq,
            record,
            checksum,
        });
    }
    verify_chain(&entries)?;
    Ok(entries)
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
}

struct JournalInner {
    handle: SimHandle,
    state: Mutex<JournalState>,
    plane: Mutex<Option<FaultPlane>>,
    /// Invoked when a scheduled coordinator crash fires; installed by the
    /// runtime to kill the Job Manager proc and wake the standby.
    crash_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
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
                }),
                plane: Mutex::new(None),
                crash_hook: Mutex::new(None),
            }),
        }
    }

    /// Arm the journal against a fault plane: every append will poll
    /// [`FaultPlane::take_coordinator_crash`].
    pub fn install_fault_plane(&self, plane: FaultPlane) {
        *self.inner.plane.lock() = Some(plane);
    }

    /// Install the crash hook a scheduled coordinator crash executes
    /// (kill the Job Manager, signal the standby).
    pub fn set_crash_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.inner.crash_hook.lock() = Some(Box::new(hook));
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
        let (seq, phase, phase_first) = {
            let mut st = self.inner.state.lock();
            let seq = st.entries.len() as u64 + 1;
            let phase_first = matches!(record, WalRecord::PhaseEnter { .. });
            if let WalRecord::PhaseEnter { phase, .. } = record {
                st.phase = phase;
            }
            let phase = st.phase;
            st.entries.push(frame(seq, &record));
            (seq, phase, phase_first)
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
        let crash = self
            .inner
            .plane
            .lock()
            .as_ref()
            .map(|p| p.take_coordinator_crash(seq, phase, phase_first))
            .unwrap_or(false);
        if crash {
            let hook = self.inner.crash_hook.lock();
            if let Some(hook) = hook.as_ref() {
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

    /// Serialize a snapshot of the journal (see [`encode_log`] /
    /// [`decode_log`] for the byte format and the verifying reader).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_log(&self.inner.state.lock().entries)
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
        let plan = FaultPlan::new(7).with(FaultSpec::CoordinatorCrash {
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
    /// serialization edge-case tests.
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
    fn serialized_log_round_trips() {
        let j = populated();
        let bytes = j.snapshot_bytes();
        let back = decode_log(&bytes).expect("intact log decodes");
        assert_eq!(back, j.entries());
    }

    #[test]
    fn truncated_tail_record_is_a_typed_error() {
        let j = populated();
        let bytes = j.snapshot_bytes();
        // Cut the final frame short at every possible byte boundary:
        // each torn write must decode to TruncatedTail, never panic.
        let tail_start = encode_log(&j.entries()[..j.entries().len() - 1]).len();
        for cut in tail_start + 1..bytes.len() {
            match decode_log(&bytes[..cut]) {
                Err(WalVerifyError::TruncatedTail { offset }) => {
                    assert_eq!(offset, tail_start, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected TruncatedTail, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_checksum_byte_is_a_typed_error() {
        let j = populated();
        let clean = j.snapshot_bytes();
        // Flip one bit in every byte of the log in turn. Whatever the
        // byte encodes — seq, checksum, length, payload — the reader
        // must answer with a typed error or a differing entry, not a
        // panic. Flips confined to an entry's payload or checksum field
        // must surface as Corrupt/BadRecord for that entry.
        let first_len = j.entries()[0].to_bytes().len();
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            let _ = decode_log(&bytes); // must not panic, any result
        }
        // Precisely: a payload flip in entry 1 is caught by its checksum.
        let mut bytes = clean.clone();
        bytes[first_len - 1] ^= 0x01; // last payload byte of entry 1
        match decode_log(&bytes) {
            Err(WalVerifyError::Corrupt { seq: 1 }) | Err(WalVerifyError::BadRecord { seq: 1 }) => {
            }
            other => panic!("expected Corrupt/BadRecord at seq 1, got {other:?}"),
        }
        // And a flip in the stored checksum itself is Corrupt, too.
        let mut bytes = clean;
        bytes[8] ^= 0x01; // checksum field of entry 1
        assert_eq!(decode_log(&bytes), Err(WalVerifyError::Corrupt { seq: 1 }));
    }

    #[test]
    fn out_of_order_seq_is_a_typed_error() {
        let j = populated();
        let mut entries = j.entries();
        entries.swap(1, 2);
        let bytes = encode_log(&entries);
        assert_eq!(
            decode_log(&bytes),
            Err(WalVerifyError::OutOfOrder {
                seq: 3,
                expected: 2
            })
        );
        // The in-memory verifier reports the same defect.
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
