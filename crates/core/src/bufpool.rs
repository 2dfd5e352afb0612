//! The RDMA-based process migration engine (paper §III-B, Figure 3).
//!
//! On the **source** node a user-level buffer manager owns a pool of
//! chunks inside a registered memory region. BLCR checkpoint streams from
//! the co-located MPI processes are aggregated into those chunks (one
//! chunk carries data of exactly one process). Whenever a chunk fills, an
//! *RDMA-read request* — carrying the chunk's rkey/offset/length and the
//! owning rank — is sent to the **target** buffer manager, which pulls the
//! chunk with an RDMA Read, appends it to that rank's checkpoint file
//! (page-cache buffered), and acknowledges so the source can reuse the
//! chunk. Pool exhaustion naturally throttles the checkpoint writers —
//! the paper's flow control.
//!
//! Each end is one function over the same [`PoolConfig`]: [`source`] sets
//! up the aggregation pool and its ack loop, and [`target`] runs the pull
//! engine to completion. One extension over the paper's engine:
//! **per-rank readiness** — [`target`] calls an optional
//! [`RankReadyHook`] the moment one rank's stream is fully staged and
//! verified, so a pipelined restart phase can begin restarting that rank
//! while other ranks are still streaming.

use crate::calib;
use blcrsim::CheckpointSink;
use ibfabric::{DataSlice, Hca, Qp, QpAddr, RemoteMr, Rope};
use parking_lot::Mutex;
use simkit::{Ctx, Event, Semaphore, SimHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use storesim::CkptStore;

/// How chunk data crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The paper's design: the target pulls chunks with zero-copy RDMA
    /// Read.
    RdmaRead,
    /// The Wang et al. style staged-copy path over IPoIB sockets: the
    /// same wire, plus a kernel memory copy on each side — the approach
    /// §III-B argues against.
    IpoibStaged,
}

/// Where restarted processes load their images from (Phase 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartMode {
    /// The paper's implementation: chunks are staged into temporary
    /// checkpoint files on the target and BLCR restarts from them (file
    /// I/O dominates Phase 3).
    FileBased,
    /// The paper's stated future work: restart directly from the buffer
    /// pool in memory, eliminating the file I/O.
    MemoryBased,
}

/// Buffer pool geometry and engine options.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Total pool bytes (paper default 10 MB).
    pub pool_bytes: u64,
    /// Chunk size (paper default 1 MB).
    pub chunk_bytes: u64,
    /// Wire transport for chunk data.
    pub transport: Transport,
    /// Phase 3 restart strategy.
    pub restart_mode: RestartMode,
    /// Overlap Phase 3 with Phase 2: restart each rank as soon as its
    /// image is staged instead of waiting for the whole-pull barrier, at
    /// most [`calib::RESTART_ADMISSION`] at a time. Off, every rank
    /// restarts at once behind the barrier.
    pub overlap: bool,
    /// Iterative pre-copy live migration. `Some` streams the image while
    /// ranks keep running and only holds the barrier for a short residual
    /// round; `None` is classic stop-and-copy.
    pub live: Option<livemig::LiveConfig>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            pool_bytes: calib::BUFFER_POOL_BYTES,
            chunk_bytes: calib::CHUNK_BYTES,
            transport: Transport::RdmaRead,
            restart_mode: RestartMode::FileBased,
            overlap: false,
            live: None,
        }
    }
}

/// Positional sampled checksum over a slice stream, independent of slice
/// boundaries (the target's RDMA Read may return different slicing than
/// the source wrote). Samples up to 64 byte positions, endpoints
/// included, and mixes in the position — so a full-chunk pattern swap, a
/// truncation, or an offset shift all change the value.
pub(crate) fn stream_checksum(slices: &[DataSlice]) -> u64 {
    let total: u64 = slices.iter().map(|s| s.len).sum();
    if total == 0 {
        return 0;
    }
    const SAMPLES: u64 = 64;
    let n = SAMPLES.min(total);
    let mut acc: u64 = 0xfeed_f00d_0bad_cafe;
    // Positions are non-decreasing: walk the stream with one cursor.
    let mut si = 0usize;
    let mut base = 0u64;
    for i in 0..n {
        let pos = if n == 1 { 0 } else { i * (total - 1) / (n - 1) };
        while pos >= base + slices[si].len {
            base += slices[si].len;
            si += 1;
        }
        let b = slices[si].byte_at(pos - base);
        acc = acc.rotate_left(7) ^ (b as u64) ^ pos.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    (acc << 1) ^ total
}

impl PoolConfig {
    /// The paper's engine: whole-pull restart barrier.
    pub fn barrier() -> Self {
        Self::default()
    }

    /// The pipelined data path: per-rank restart overlap, with restart
    /// admission bounded to [`calib::RESTART_ADMISSION`] concurrent cold
    /// reads.
    pub fn pipelined() -> Self {
        PoolConfig {
            overlap: true,
            ..Self::default()
        }
    }

    /// Iterative pre-copy live migration on top of the pipelined data
    /// path: round 0 streams the full image while the ranks keep running,
    /// later rounds stream only dirtied segments, and the downtime-budget
    /// controller decides when to suspend for a short residual
    /// stop-and-copy.
    pub fn live() -> Self {
        PoolConfig {
            live: Some(livemig::LiveConfig::default()),
            ..Self::pipelined()
        }
    }

    /// Number of chunks in the pool.
    pub fn slots(&self) -> u32 {
        (self.pool_bytes / self.chunk_bytes).max(1) as u32
    }
}

// wire tags on the manager QP
const TAG_HELLO: u64 = 0;
const TAG_REQ: u64 = 1;
const TAG_EOF: u64 = 2;
const TAG_DONE: u64 = 3;
const TAG_ACK: u64 = 4;
const TAG_DONE_ACK: u64 = 5;

/// RDMA-read request for one filled chunk.
struct ChunkReq {
    rank: u32,
    slot: u32,
    len: u64,
    src_mr: RemoteMr,
    /// Positional checksum of the chunk content (see [`stream_checksum`]);
    /// the target verifies each pulled chunk against it and re-issues the
    /// RDMA Read on mismatch.
    checksum: u64,
}

/// End-of-stream marker for one process.
struct RankEof {
    rank: u32,
    total_bytes: u64,
    image_checksum: u64,
}

struct AckMsg {
    slot: u32,
}

/// Rendezvous published by the source manager so the target can connect
/// (stands in for the launcher's out-of-band address exchange).
#[derive(Clone)]
pub struct PoolRendezvous {
    addr: Arc<Mutex<Option<QpAddr>>>,
    ready: Event,
}

impl PoolRendezvous {
    /// Create an empty rendezvous.
    pub fn new(handle: &SimHandle) -> Self {
        PoolRendezvous {
            addr: Arc::new(Mutex::new(None)),
            ready: Event::new(handle, "pool-rendezvous"),
        }
    }

    fn publish(&self, addr: QpAddr) {
        *self.addr.lock() = Some(addr);
        self.ready.set();
    }

    fn wait(&self, ctx: &Ctx) -> Option<QpAddr> {
        self.ready.wait(ctx);
        *self.addr.lock()
    }
}

struct SourceState {
    free_slots: Mutex<Vec<u32>>,
    slot_sem: Semaphore,
    /// Requests sent and not yet acked.
    outstanding: Mutex<u64>,
    /// Ranks that have not closed their sink yet.
    ranks_remaining: Mutex<u32>,
    done_sent: Mutex<bool>,
    bytes_streamed: AtomicU64,
    /// All data acked and DONE_ACK received.
    finished: Event,
}

/// The source-side buffer manager.
pub struct SourcePool {
    cfg: PoolConfig,
    qp: Qp,
    mr: ibfabric::Mr,
    /// Target connected and ready to receive requests.
    channel_ready: Event,
    st: Arc<SourceState>,
}

/// Set up the source half on `hca`: registers the pool MR (timed),
/// publishes its QP address on `rendezvous`, and spawns the ack loop
/// (returned so an aborted cycle can kill it). `nranks` is the number of
/// local processes that will stream through the pool.
pub fn source(
    ctx: &Ctx,
    hca: &Hca,
    cfg: PoolConfig,
    nranks: u32,
    rendezvous: &PoolRendezvous,
) -> (Arc<SourcePool>, simkit::ProcHandle) {
    let handle = ctx.handle();
    let mr = hca.register_mr(ctx, cfg.pool_bytes);
    let qp = hca.create_qp();
    rendezvous.publish(qp.addr());
    let slots = cfg.slots();
    let st = Arc::new(SourceState {
        free_slots: Mutex::new((0..slots).collect()),
        slot_sem: Semaphore::new(&handle, slots as u64),
        outstanding: Mutex::new(0),
        ranks_remaining: Mutex::new(nranks),
        done_sent: Mutex::new(false),
        bytes_streamed: AtomicU64::new(0),
        finished: Event::new(&handle, "source-pool-finished"),
    });
    let pool = Arc::new(SourcePool {
        cfg,
        qp: qp.clone(),
        mr,
        channel_ready: Event::new(&handle, "pool-channel-ready"),
        st,
    });
    // Ack loop: receives HELLO (target address), ACKs and DONE_ACK.
    // A daemon: on a healthy cycle it exits at DONE_ACK; on an aborted
    // one the runtime kills it.
    let p = Arc::clone(&pool);
    let ack = ctx.spawn_daemon("srcpool-ackloop", move |ctx| p.ack_loop(ctx));
    (pool, ack)
}

impl SourcePool {
    fn ack_loop(&self, ctx: &Ctx) {
        loop {
            let msg = match self.qp.recv(ctx) {
                Ok(m) => m,
                Err(_) => return,
            };
            match msg.tag {
                TAG_HELLO => {
                    let Ok(addr) = msg.body.downcast::<QpAddr>() else {
                        continue; // foreign traffic: ignore
                    };
                    // A failed connect-back (link fault) leaves the channel
                    // unready: writers stall on it and the phase deadline
                    // aborts/retries the cycle.
                    if let Err(e) = self.qp.connect(ctx, *addr) {
                        ctx.instant_with("pool", "control_connect_failed", || {
                            vec![("error", e.to_string().into())]
                        });
                        return;
                    }
                    self.channel_ready.set();
                }
                TAG_ACK => {
                    let Ok(ack) = msg.body.downcast::<AckMsg>() else {
                        continue; // foreign traffic: ignore
                    };
                    self.st.free_slots.lock().push(ack.slot);
                    self.st.slot_sem.release(1);
                    let outstanding = {
                        let mut o = self.st.outstanding.lock();
                        *o -= 1;
                        *o
                    };
                    if ctx.telemetry_on() {
                        ctx.instant_with("pool", "chunk_ack", || vec![("slot", ack.slot.into())]);
                        ctx.counter("pool", "outstanding", outstanding as f64);
                    }
                }
                TAG_DONE_ACK => {
                    self.st.finished.set();
                    return;
                }
                other => {
                    // A tag we don't speak is a protocol anomaly, not a
                    // reason to take the job down: log and keep serving.
                    ctx.instant_with("pool", "unexpected_tag", || {
                        vec![("side", "source".into()), ("tag", other.into())]
                    });
                }
            }
        }
    }

    /// A checkpoint sink streaming `rank`'s image through the pool.
    /// `image_checksum` rides the EOF marker for end-to-end verification.
    pub fn sink(self: &Arc<Self>, ctx: &Ctx, rank: u32, image_checksum: u64) -> AggregationSink {
        // Writers may not race ahead of the control channel.
        self.channel_ready.wait(ctx);
        AggregationSink {
            pool: Arc::clone(self),
            rank,
            image_checksum,
            slot: None,
            fill: 0,
            total: 0,
            chunk: Rope::new(),
        }
    }

    /// Completion event: all data pulled and acknowledged by the target.
    pub fn finished(&self) -> &Event {
        &self.st.finished
    }

    /// Stream bytes pushed through the pool (Table I accounting).
    pub fn bytes_streamed(&self) -> u64 {
        self.st.bytes_streamed.load(Ordering::Relaxed)
    }

    fn submit_chunk(&self, ctx: &Ctx, rank: u32, slot: u32, len: u64, checksum: u64) {
        ctx.sleep(calib::CHUNK_PROTOCOL_OVERHEAD);
        let outstanding = {
            let mut o = self.st.outstanding.lock();
            *o += 1;
            *o
        };
        if ctx.telemetry_on() {
            ctx.instant_with("pool", "chunk_submit", || {
                vec![
                    ("rank", rank.into()),
                    ("slot", slot.into()),
                    ("bytes", len.into()),
                ]
            });
            ctx.counter("pool", "outstanding", outstanding as f64);
        }
        self.st.bytes_streamed.fetch_add(len, Ordering::Relaxed);
        // A failed control send (link fault) is treated as a lost message:
        // the target never pulls the chunk, the pool stalls, and the Job
        // Manager's phase deadline aborts and retries the cycle.
        if let Err(e) = self.qp.send(
            ctx,
            TAG_REQ,
            Box::new(ChunkReq {
                rank,
                slot,
                len,
                src_mr: self.mr.remote(),
                checksum,
            }),
            96,
        ) {
            ctx.instant_with("pool", "control_send_failed", || {
                vec![("msg", "chunk_req".into()), ("error", e.to_string().into())]
            });
        }
    }

    fn rank_eof(&self, ctx: &Ctx, rank: u32, total: u64, checksum: u64) {
        ctx.instant_with("pool", "rank_eof", || {
            vec![("rank", rank.into()), ("stream_bytes", total.into())]
        });
        if let Err(e) = self.qp.send(
            ctx,
            TAG_EOF,
            Box::new(RankEof {
                rank,
                total_bytes: total,
                image_checksum: checksum,
            }),
            96,
        ) {
            ctx.instant_with("pool", "control_send_failed", || {
                vec![("msg", "eof".into()), ("error", e.to_string().into())]
            });
        }
        let mut remaining = self.st.ranks_remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            let mut sent = self.st.done_sent.lock();
            if !*sent {
                *sent = true;
                if let Err(e) = self.qp.send(ctx, TAG_DONE, Box::new(()), 64) {
                    ctx.instant_with("pool", "control_send_failed", || {
                        vec![("msg", "done".into()), ("error", e.to_string().into())]
                    });
                }
            }
        }
    }
}

/// [`CheckpointSink`] that aggregates one process's checkpoint stream into
/// pool chunks (paper: "each chunk containing data from one process").
pub struct AggregationSink {
    pool: Arc<SourcePool>,
    rank: u32,
    image_checksum: u64,
    slot: Option<u32>,
    fill: u64,
    total: u64,
    /// Shadow of the slices written into the current chunk, for the
    /// per-chunk checksum that rides the RDMA-read request. A rope: the
    /// slice views are shared with the MR write, never copied.
    chunk: Rope,
}

impl AggregationSink {
    fn acquire_slot(&mut self, ctx: &Ctx) -> u32 {
        if let Some(s) = self.slot {
            return s;
        }
        self.pool.st.slot_sem.acquire(ctx, 1);
        let s = self
            .pool
            .st
            .free_slots
            .lock()
            .pop()
            // jmlint: allow(hot_unwrap) — slot_sem counts free_slots exactly
            .expect("semaphore guarantees a free slot");
        self.slot = Some(s);
        self.fill = 0;
        s
    }

    fn flush_chunk(&mut self, ctx: &Ctx) {
        if let Some(slot) = self.slot.take() {
            if self.fill > 0 {
                let sum = stream_checksum(self.chunk.as_slices());
                self.pool.submit_chunk(ctx, self.rank, slot, self.fill, sum);
            } else {
                // nothing written: return the slot silently
                self.pool.st.free_slots.lock().push(slot);
                self.pool.st.slot_sem.release(1);
            }
            self.fill = 0;
            self.chunk.clear();
        }
    }
}

impl CheckpointSink for AggregationSink {
    fn write(&mut self, ctx: &Ctx, data: DataSlice) {
        let chunk = self.pool.cfg.chunk_bytes;
        let mut offset = 0u64;
        while offset < data.len {
            let slot = self.acquire_slot(ctx);
            let room = chunk - self.fill;
            let n = room.min(data.len - offset);
            let base = slot as u64 * chunk;
            let part = data.slice(offset, n);
            self.chunk.push(part.clone());
            self.pool.mr.write_local(base + self.fill, part);
            self.fill += n;
            self.total += n;
            offset += n;
            if self.fill == chunk {
                self.flush_chunk(ctx);
            }
        }
    }

    fn close(&mut self, ctx: &Ctx) {
        self.flush_chunk(ctx);
        self.pool
            .rank_eof(ctx, self.rank, self.total, self.image_checksum);
    }
}

/// What the target manager assembled for one rank.
#[derive(Debug, Clone)]
pub struct AssembledImage {
    /// Checkpoint file path on the target filesystem (file-based mode).
    pub path: String,
    /// Total stream bytes.
    pub bytes: u64,
    /// Source-side image checksum (verify after restart).
    pub expected_checksum: u64,
    /// In-memory stream (memory-based restart mode). A [`Rope`]: cloning
    /// the image — the per-rank readiness hook, the images map — shares
    /// the slice table instead of copying it.
    pub slices: Option<Rope>,
}

/// Result of a completed target-side pull.
pub struct TargetResult {
    /// Per-rank assembled images.
    pub images: HashMap<u32, AssembledImage>,
    /// Total bytes pulled over RDMA.
    pub bytes_pulled: u64,
}

/// Why a target-side pull gave up. The Job Manager's Phase 2 deadline
/// notices (no PIIC arrives) and aborts/retries the cycle.
#[derive(Debug, Clone)]
pub struct PullAbort {
    /// What failed ("chunk", "store", "wire").
    pub reason: &'static str,
    /// The rank whose stream the engine was working on, when known.
    pub rank: Option<u32>,
    /// RDMA bytes pulled before the abort (failed re-issues included).
    pub bytes_pulled: u64,
}

impl PullAbort {
    fn new(reason: &'static str) -> PullAbort {
        PullAbort::at(reason, None)
    }

    fn at(reason: &'static str, rank: Option<u32>) -> PullAbort {
        PullAbort {
            reason,
            rank,
            bytes_pulled: 0,
        }
    }
}

/// Hook that [`target`] calls the moment one rank's stream is fully
/// staged and length-verified (its EOF is satisfied). Runs in the pulling
/// process; the runtime uses it to fire per-rank `image_ready` events for
/// the pipelined restart path.
pub type RankReadyHook<'a> = &'a dyn Fn(&Ctx, u32, AssembledImage);

/// Run the target half to completion: connect back to the source, pull
/// every announced chunk on one QP in announcement order, stage per-rank
/// streams on `store`, and acknowledge each chunk. Blocks until the
/// source signals DONE, or returns `Err` when a chunk cannot be obtained
/// or staged — the caller leaves the cycle to the Job Manager's phase
/// deadline.
pub fn target(
    ctx: &Ctx,
    hca: &Hca,
    cfg: PoolConfig,
    rendezvous: &PoolRendezvous,
    store: Arc<dyn CkptStore>,
    file_prefix: &str,
    on_rank_ready: Option<RankReadyHook>,
) -> Result<TargetResult, PullAbort> {
    let Some(src_addr) = rendezvous.wait(ctx) else {
        // Woken without a published address: the source side died before
        // publishing. Leave the cycle to the phase deadline.
        return Err(PullAbort::new("rendezvous"));
    };
    // Local staging pool mirrors the source pool geometry.
    let _staging = hca.register_mr(ctx, cfg.pool_bytes);
    let qp = hca.create_qp();
    if qp.connect(ctx, src_addr).is_err() {
        return Err(PullAbort::new("wire"));
    }
    if qp.send(ctx, TAG_HELLO, Box::new(qp.addr()), 64).is_err() {
        return Err(PullAbort::new("wire"));
    }
    let mut bytes_pulled = 0u64;
    let staged = serve(
        ctx,
        &qp,
        &cfg,
        &*store,
        file_prefix,
        on_rank_ready,
        &mut bytes_pulled,
    );
    match staged {
        Ok(images) => Ok(TargetResult {
            images,
            bytes_pulled,
        }),
        Err(abort) => Err(PullAbort {
            bytes_pulled,
            ..abort
        }),
    }
}

/// [`target`]'s engine loop: serve the connected control QP until DONE,
/// adding every pull attempt to `bytes_pulled`.
fn serve(
    ctx: &Ctx,
    qp: &Qp,
    cfg: &PoolConfig,
    store: &dyn CkptStore,
    file_prefix: &str,
    on_rank_ready: Option<RankReadyHook>,
    bytes_pulled: &mut u64,
) -> Result<HashMap<u32, AssembledImage>, PullAbort> {
    let mut images: HashMap<u32, AssembledImage> = HashMap::new();
    let mut created: HashMap<u32, String> = HashMap::new();
    let mut memory: HashMap<u32, Rope> = HashMap::new();
    loop {
        let Ok(msg) = qp.recv(ctx) else {
            return Err(PullAbort::new("wire"));
        };
        match msg.tag {
            TAG_REQ => {
                let Ok(req) = msg.body.downcast::<ChunkReq>() else {
                    return Err(PullAbort::new("protocol"));
                };
                let slices = pull_chunk(ctx, qp, cfg, &req, bytes_pulled)?;
                ctx.instant_with("pool", "chunk_pull", || {
                    vec![
                        ("rank", req.rank.into()),
                        ("slot", req.slot.into()),
                        ("bytes", req.len.into()),
                    ]
                });
                match cfg.restart_mode {
                    RestartMode::FileBased => {
                        let path = created.entry(req.rank).or_insert_with(|| {
                            let p = format!("{file_prefix}.{}", req.rank);
                            store.create(ctx, &p);
                            p
                        });
                        for s in slices {
                            if let Err(e) = store.try_append(ctx, path, s, false) {
                                ctx.instant_with("pool", "stage_write_failed", || {
                                    vec![("rank", req.rank.into()), ("error", e.to_string().into())]
                                });
                                return Err(PullAbort::at("store", Some(req.rank)));
                            }
                        }
                    }
                    RestartMode::MemoryBased => {
                        memory.entry(req.rank).or_default().extend(slices);
                    }
                }
                if qp
                    .send(ctx, TAG_ACK, Box::new(AckMsg { slot: req.slot }), 64)
                    .is_err()
                {
                    return Err(PullAbort::at("wire", Some(req.rank)));
                }
            }
            TAG_EOF => {
                let Ok(eof) = msg.body.downcast::<RankEof>() else {
                    return Err(PullAbort::new("protocol"));
                };
                // A staged stream shorter than announced means a chunk
                // request was lost on the wire: give up gracefully and
                // let the Phase 2 deadline abort the cycle.
                let (staged, path, slices) = match cfg.restart_mode {
                    RestartMode::FileBased => {
                        let Some(path) = created.get(&eof.rank).cloned() else {
                            return Err(PullAbort::at("incomplete", Some(eof.rank)));
                        };
                        (store.len(&path), path, None)
                    }
                    RestartMode::MemoryBased => {
                        let slices = memory.remove(&eof.rank).unwrap_or_default();
                        (Some(slices.len()), String::new(), Some(slices))
                    }
                };
                if staged != Some(eof.total_bytes) {
                    ctx.instant_with("pool", "stream_incomplete", || {
                        vec![
                            ("rank", eof.rank.into()),
                            ("expected", eof.total_bytes.into()),
                        ]
                    });
                    return Err(PullAbort::at("incomplete", Some(eof.rank)));
                }
                let image = AssembledImage {
                    path,
                    bytes: eof.total_bytes,
                    expected_checksum: eof.image_checksum,
                    slices,
                };
                if let Some(hook) = on_rank_ready {
                    // jmlint: allow(hot_alloc) — rope-backed image: clone is a refcount bump
                    hook(ctx, eof.rank, image.clone());
                }
                images.insert(eof.rank, image);
            }
            TAG_DONE => {
                if qp.send(ctx, TAG_DONE_ACK, Box::new(()), 64).is_err() {
                    return Err(PullAbort::new("wire"));
                }
                return Ok(images);
            }
            other => {
                ctx.instant_with("pool", "unexpected_tag", || {
                    vec![("side", "target".into()), ("tag", other.into())]
                });
                return Err(PullAbort::new("protocol"));
            }
        }
    }
}

/// Pull one chunk with the per-chunk re-issue budget. Adds every pull
/// attempt (including failed re-issues) to `bytes_pulled`.
fn pull_chunk(
    ctx: &Ctx,
    qp: &Qp,
    cfg: &PoolConfig,
    req: &ChunkReq,
    bytes_pulled: &mut u64,
) -> Result<Vec<DataSlice>, PullAbort> {
    let base = req.slot as u64 * cfg.chunk_bytes;
    let mut tries = 0u32;
    loop {
        let pulled = match cfg.transport {
            Transport::RdmaRead => qp.rdma_read(ctx, &req.src_mr, base, req.len),
            Transport::IpoibStaged => {
                // Same wire, but through the socket stack: an extra kernel
                // copy on each side of the transfer.
                ctx.sleep(Duration::from_secs_f64(
                    req.len as f64 / calib::IPOIB_COPY_BW,
                ));
                let r = qp.rdma_read(ctx, &req.src_mr, base, req.len);
                ctx.sleep(Duration::from_secs_f64(
                    req.len as f64 / calib::IPOIB_COPY_BW,
                ));
                r
            }
        };
        *bytes_pulled += req.len;
        let error: &'static str = match pulled {
            Ok(s) if stream_checksum(&s) == req.checksum => return Ok(s),
            Ok(_) => "checksum_mismatch",
            Err(ibfabric::VerbsError::CqError) => "cq_error",
            Err(_) => return Err(PullAbort::at("wire", Some(req.rank))),
        };
        tries += 1;
        ctx.instant_with("pool", "chunk_reissue", || {
            vec![
                ("rank", req.rank.into()),
                ("slot", req.slot.into()),
                ("try", tries.into()),
                ("error", error.into()),
            ]
        });
        if tries > calib::CHUNK_RETRIES {
            ctx.instant_with("pool", "chunk_failed", || {
                vec![("rank", req.rank.into()), ("slot", req.slot.into())]
            });
            return Err(PullAbort::at("chunk", Some(req.rank)));
        }
    }
}
