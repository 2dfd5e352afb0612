//! Timed checkpoint and restart operations.

use crate::image::ProcessImage;
use crate::stream::{parse_stream, serialize_image, StreamError};
use crate::{CheckpointSink, CheckpointSource};
use ibfabric::{DataSlice, Rope};
use parking_lot::Mutex;
use simkit::{Ctx, Link, SimTime};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use storesim::{CkptStore, StoreFault};

/// A checkpoint dump failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptError {
    /// The BLCR kernel thread failed mid-dump (injected write error).
    WriteError,
    /// The sink's backing store failed.
    Store(StoreFault),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::WriteError => write!(f, "checkpoint write error"),
            CkptError::Store(e) => write!(f, "checkpoint store error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Injector consulted by [`Blcr::try_checkpoint`] on every stream chunk.
/// The default is "no fault".
pub trait BlcrFaultHook: Send + Sync {
    /// Consulted once per pipeline chunk; returning `true` fails the dump
    /// with [`CkptError::WriteError`] after `offset` bytes have streamed.
    fn on_write(&self, _now: SimTime, _pid: u64, _offset: u64) -> bool {
        false
    }
}

/// BLCR engine tunables.
#[derive(Debug, Clone)]
pub struct BlcrConfig {
    /// Pipeline granularity: the memory walk and the sink are interleaved
    /// at this chunk size (1 MB in the paper's buffer-pool setup).
    pub chunk: u64,
    /// Fixed per-checkpoint overhead (quiescing threads, kernel entry).
    pub checkpoint_base: Duration,
}

impl Default for BlcrConfig {
    fn default() -> Self {
        BlcrConfig {
            chunk: 1 << 20,
            checkpoint_base: Duration::from_millis(12),
        }
    }
}

/// Restart-side cost model.
#[derive(Debug, Clone)]
pub struct RestartCosts {
    /// Fixed per-process overhead: fork/exec, VMA reconstruction, fd
    /// table, thread re-creation.
    pub base: Duration,
    /// Rate at which restored pages are populated into the new address
    /// space (bytes/second of memory bandwidth).
    pub populate_bandwidth: f64,
}

impl Default for RestartCosts {
    fn default() -> Self {
        RestartCosts {
            base: Duration::from_millis(110),
            populate_bandwidth: 1.1e9,
        }
    }
}

/// The checkpoint/restart engine. One per node (it shares the node's
/// memory-walk bandwidth across concurrently checkpointing processes, as
/// the kernel threads of co-located BLCR dumps do).
#[derive(Clone)]
pub struct Blcr {
    cfg: BlcrConfig,
    /// Node memory bus used by checkpoint page walks and restart
    /// population; concurrent dumps on one node share it.
    membus: Link,
    hook: Arc<Mutex<Option<Arc<dyn BlcrFaultHook>>>>,
}

impl Blcr {
    /// Create an engine over the node's memory-walk link.
    pub fn new(membus: Link, cfg: BlcrConfig) -> Self {
        Blcr {
            cfg,
            membus,
            hook: Arc::new(Mutex::new(None)),
        }
    }

    /// The memory-walk link (for stats).
    pub fn membus(&self) -> &Link {
        &self.membus
    }

    /// Install (or replace) the fault hook consulted by
    /// [`Blcr::try_checkpoint`].
    pub fn set_fault_hook(&self, hook: Arc<dyn BlcrFaultHook>) {
        *self.hook.lock() = Some(hook);
    }

    /// Dump `image` through `sink`, interleaving memory-walk and sink cost
    /// at chunk granularity. Returns the total stream bytes written.
    ///
    /// Surfaces injected BLCR write errors and sink/store faults instead
    /// of panicking. On error the sink may hold
    /// a partial stream; the caller owns cleanup (delete the file, abort
    /// the migration cycle).
    pub fn try_checkpoint(
        &self,
        ctx: &Ctx,
        image: &ProcessImage,
        sink: &mut dyn CheckpointSink,
    ) -> Result<u64, CkptError> {
        let span = ctx.span_with("ckpt", "dump", || {
            vec![
                ("pid", image.pid.into()),
                ("memory_bytes", image.memory_bytes().into()),
            ]
        });
        ctx.sleep(self.cfg.checkpoint_base);
        let stream = serialize_image(image);
        let mut total = 0u64;
        for slice in stream {
            let mut offset = 0u64;
            while offset < slice.len {
                let n = self.cfg.chunk.min(slice.len - offset);
                let piece = slice.slice(offset, n);
                let injected = {
                    let hook = self.hook.lock().clone();
                    hook.is_some_and(|h| h.on_write(ctx.now(), image.pid, total))
                };
                if injected {
                    span.end_with(vec![
                        ("error", "write".into()),
                        ("stream_bytes", total.into()),
                    ]);
                    return Err(CkptError::WriteError);
                }
                self.membus.transfer(ctx, n);
                if let Err(e) = sink.try_write(ctx, piece) {
                    span.end_with(vec![
                        ("error", "sink".into()),
                        ("stream_bytes", total.into()),
                    ]);
                    return Err(e);
                }
                offset += n;
                total += n;
                ctx.counter("ckpt", "dump_bytes", total as f64);
            }
        }
        sink.close(ctx);
        span.end_with(vec![("stream_bytes", total.into())]);
        Ok(total)
    }

    /// Restore a process from `source`: read the stream (storage cost),
    /// parse it, then populate memory and pay the per-process base cost.
    pub fn restart(
        &self,
        ctx: &Ctx,
        source: &mut dyn CheckpointSource,
        costs: &RestartCosts,
    ) -> Result<ProcessImage, StreamError> {
        let span = ctx.span("ckpt", "restart");
        let image = parse_stream(source.read_all(ctx)?.into_vec())?;
        ctx.sleep(costs.base);
        let bytes = image.memory_bytes();
        ctx.sleep(Duration::from_secs_f64(
            bytes as f64 / costs.populate_bandwidth,
        ));
        span.end_with(vec![
            ("pid", image.pid.into()),
            ("memory_bytes", bytes.into()),
        ]);
        Ok(image)
    }
}

// ---------------------------------------------------------------------------
// Store-backed sink/source (the classic BLCR-to-filesystem path)
// ---------------------------------------------------------------------------

/// Streams a checkpoint into a file on a [`CkptStore`].
pub struct StoreSink {
    store: Arc<dyn CkptStore>,
    path: String,
    sync: bool,
    created: bool,
}

impl StoreSink {
    /// Sink into `path` on `store`; `sync` selects durable writes
    /// (checkpoints) vs buffered (temporary restart files).
    pub fn new(store: Arc<dyn CkptStore>, path: impl Into<String>, sync: bool) -> Self {
        StoreSink {
            store,
            path: path.into(),
            sync,
            created: false,
        }
    }
}

impl CheckpointSink for StoreSink {
    fn write(&mut self, ctx: &Ctx, data: DataSlice) {
        if !self.created {
            self.store.create(ctx, &self.path);
            self.created = true;
        }
        self.store.append(ctx, &self.path, data, self.sync);
    }

    fn try_write(&mut self, ctx: &Ctx, data: DataSlice) -> Result<(), CkptError> {
        if !self.created {
            self.store.create(ctx, &self.path);
            self.created = true;
        }
        self.store
            .try_append(ctx, &self.path, data, self.sync)
            .map_err(CkptError::Store)
    }
}

/// A checkpoint source over an in-memory stream (the memory-based
/// restart path: images restored straight from the buffer pool).
pub struct MemSource(Rope);

impl MemSource {
    /// Wrap an assembled in-memory stream.
    pub fn new(slices: Rope) -> Self {
        MemSource(slices)
    }
}

impl CheckpointSource for MemSource {
    fn read_all(&mut self, _ctx: &Ctx) -> Result<Rope, StreamError> {
        Ok(std::mem::take(&mut self.0))
    }
}

/// Reads a checkpoint stream back from a [`CkptStore`] file.
pub struct StoreSource {
    store: Arc<dyn CkptStore>,
    path: String,
}

impl StoreSource {
    /// Source from `path` on `store`.
    pub fn new(store: Arc<dyn CkptStore>, path: impl Into<String>) -> Self {
        StoreSource {
            store,
            path: path.into(),
        }
    }
}

impl CheckpointSource for StoreSource {
    fn read_all(&mut self, ctx: &Ctx) -> Result<Rope, StreamError> {
        self.store
            .read_all(ctx, &self.path)
            .ok_or(StreamError::Missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SegmentKind;
    use simkit::{Sharing, Simulation};
    use storesim::{Disk, DiskConfig, LocalFs};

    fn test_fs(h: &simkit::SimHandle) -> LocalFs {
        LocalFs::new(Disk::new(
            h,
            "d",
            DiskConfig {
                bandwidth: 50e6,
                alpha: 0.0,
                mem_bandwidth: 2e9,
                dirty_limit: 0,
                flush_bandwidth: 50e6,
                read_factor: 1.0,
            },
        ))
    }

    #[test]
    fn checkpoint_restart_roundtrip_through_filesystem() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let fs: Arc<dyn CkptStore> = Arc::new(test_fs(&h));
        let membus = Link::new(&h, "mem", 500e6, Sharing::Fair);
        let blcr = Blcr::new(membus, BlcrConfig::default());
        sim.spawn("cr", move |ctx| {
            let img = ProcessImage::new(9, &b"it=5"[..])
                .with_segment(SegmentKind::Heap, DataSlice::pattern(11, 0, 20 << 20));
            let mut sink = StoreSink::new(fs.clone(), "ckpt.9", true);
            let written = blcr
                .try_checkpoint(ctx, &img, &mut sink)
                .expect("checkpoint dump");
            assert!(written > 20 << 20);
            let t_ck = ctx.now().as_secs_f64();
            // 20 MiB at min(500 MB/s walk, 50 MB/s disk) → ≈ disk-bound
            assert!((0.40..0.55).contains(&t_ck), "checkpoint took {t_ck}");
            let mut src = StoreSource::new(fs.clone(), "ckpt.9");
            let back = blcr
                .restart(ctx, &mut src, &RestartCosts::default())
                .unwrap();
            assert_eq!(back, img);
        });
        sim.run().unwrap();
    }

    #[test]
    fn restart_from_a_missing_file_is_an_error() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let fs: Arc<dyn CkptStore> = Arc::new(test_fs(&h));
        let blcr = Blcr::new(
            Link::new(&h, "mem", 500e6, Sharing::Fair),
            BlcrConfig::default(),
        );
        sim.spawn("r", move |ctx| {
            let mut src = StoreSource::new(fs, "ckpt.never");
            let r = blcr.restart(ctx, &mut src, &RestartCosts::default());
            assert_eq!(r, Err(StreamError::Missing));
        });
        sim.run().unwrap();
    }

    #[test]
    fn concurrent_checkpoints_share_memory_walk() {
        // Fast sink (free), slow walk: two concurrent dumps take ~2x one.
        struct NullSink;
        impl CheckpointSink for NullSink {
            fn write(&mut self, _ctx: &Ctx, _d: DataSlice) {}
        }
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let membus = Link::new(&h, "mem", 100e6, Sharing::Fair);
        let blcr = Blcr::new(
            membus,
            BlcrConfig {
                chunk: 1 << 20,
                checkpoint_base: Duration::ZERO,
            },
        );
        for i in 0..2u64 {
            let b = blcr.clone();
            sim.spawn(&format!("c{i}"), move |ctx| {
                let img = ProcessImage::new(i, &[][..])
                    .with_segment(SegmentKind::Heap, DataSlice::pattern(i, 0, 50_000_000));
                b.try_checkpoint(ctx, &img, &mut NullSink)
                    .expect("checkpoint dump");
                let t = ctx.now().as_secs_f64();
                assert!((0.99..1.03).contains(&t), "finished at {t}");
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn restart_costs_scale_with_image_size() {
        struct VecSource(Vec<DataSlice>);
        impl CheckpointSource for VecSource {
            fn read_all(&mut self, _ctx: &Ctx) -> Result<Rope, StreamError> {
                Ok(std::mem::take(&mut self.0).into())
            }
        }
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let membus = Link::new(&h, "mem", 1e9, Sharing::Fair);
        let blcr = Blcr::new(membus, BlcrConfig::default());
        sim.spawn("r", move |ctx| {
            let costs = RestartCosts {
                base: Duration::from_millis(100),
                populate_bandwidth: 1e9,
            };
            let small = ProcessImage::new(0, &[][..])
                .with_segment(SegmentKind::Heap, DataSlice::pattern(0, 0, 1 << 20));
            let big = ProcessImage::new(1, &[][..])
                .with_segment(SegmentKind::Heap, DataSlice::pattern(1, 0, 900_000_000));
            let t0 = ctx.now();
            blcr.restart(ctx, &mut VecSource(serialize_image(&small)), &costs)
                .unwrap();
            let t_small = (ctx.now() - t0).as_secs_f64();
            let t1 = ctx.now();
            blcr.restart(ctx, &mut VecSource(serialize_image(&big)), &costs)
                .unwrap();
            let t_big = (ctx.now() - t1).as_secs_f64();
            assert!(t_small < 0.2, "small restart {t_small}");
            assert!((0.9..1.2).contains(&t_big), "big restart {t_big}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn corrupt_stream_surfaces_parse_error() {
        struct JunkSource;
        impl CheckpointSource for JunkSource {
            fn read_all(&mut self, _ctx: &Ctx) -> Result<Rope, StreamError> {
                Ok(vec![DataSlice::bytes(vec![9u8; 128])].into())
            }
        }
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let blcr = Blcr::new(
            Link::new(&h, "mem", 1e9, Sharing::Fair),
            BlcrConfig::default(),
        );
        sim.spawn("r", move |ctx| {
            let r = blcr.restart(ctx, &mut JunkSource, &RestartCosts::default());
            assert!(matches!(r, Err(StreamError::BadMagic(_))));
        });
        sim.run().unwrap();
    }
}
