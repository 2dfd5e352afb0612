//! # blcrsim — a BLCR-like checkpoint/restart library
//!
//! Models Berkeley Lab Checkpoint/Restart as the paper uses it: a process
//! is reduced to a [`ProcessImage`] (application state plus memory
//! segments), serialised into a self-describing *checkpoint stream*, and
//! written through a pluggable [`CheckpointSink`]. Restart parses the
//! stream back and pays the memory-population cost.
//!
//! Two sinks matter for the paper:
//!
//! * [`StoreSink`] — the classic path: stream to a file on a
//!   [`storesim::CkptStore`] (local ext3 or PVFS). Used by the coordinated
//!   Checkpoint/Restart baseline.
//! * the *aggregation sink* in `jobmig-core` — the paper's extension: the
//!   stream is carved into buffer-pool chunks that a remote buffer manager
//!   pulls over RDMA.
//!
//! Checkpoint data is produced in pipeline chunks: each chunk pays the
//! node's memory-walk bandwidth (the BLCR kernel thread copying pages)
//! and then the sink's own cost. With a fast sink (the RDMA buffer pool)
//! the walk dominates; with a disk sink the disk dominates — exactly the
//! asymmetry Figure 7 measures.

#![forbid(unsafe_code)]

mod image;
mod ops;
mod stream;

pub use image::{ProcessImage, Segment, SegmentKind};
pub use ops::{
    Blcr, BlcrConfig, BlcrFaultHook, CkptError, MemSource, RestartCosts, StoreSink, StoreSource,
};
pub use stream::{parse_stream, serialize_image, SliceCursor, StreamError};

use ibfabric::{DataSlice, Rope};
use simkit::Ctx;

/// Receives a checkpoint stream chunk by chunk.
pub trait CheckpointSink {
    /// Write one run of stream bytes (already paid for by the memory
    /// walk); the sink charges its own transport/storage cost.
    fn write(&mut self, ctx: &Ctx, data: DataSlice);

    /// Fallible write for fault-aware sinks (e.g. a store that may return
    /// disk-full). The default delegates to [`CheckpointSink::write`] and
    /// never fails.
    fn try_write(&mut self, ctx: &Ctx, data: DataSlice) -> Result<(), CkptError> {
        self.write(ctx, data);
        Ok(())
    }

    /// Stream complete: flush buffered state. Default: no-op.
    fn close(&mut self, _ctx: &Ctx) {}
}

/// Supplies a checkpoint stream for restart.
pub trait CheckpointSource {
    /// Read the entire stream, paying storage costs. Returns a [`Rope`]
    /// so store-backed sources can hand out a shared slice table, or
    /// [`StreamError::Missing`] when there is no stream to read.
    fn read_all(&mut self, ctx: &Ctx) -> Result<Rope, StreamError>;
}
