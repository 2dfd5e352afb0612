//! # storesim — storage models for checkpoint I/O
//!
//! The paper's Figure 7 story is entirely an I/O-path story: coordinated
//! checkpointing dumps every process image through a filesystem (local ext3
//! or PVFS) while job migration bypasses the storage subsystem with RDMA.
//! This crate provides the two filesystems:
//!
//! * [`LocalFs`] — one node's ext3-like filesystem over a [`Disk`] with a
//!   write-back page cache: buffered writes are absorbed at memory speed up
//!   to a dirty-page budget and throttle to spindle speed beyond it
//!   (Linux `dirty_ratio` behaviour); recently written files read back at
//!   memory speed until [`LocalFs::drop_caches`] (a job restart after a
//!   node failure starts cold).
//! * [`Pvfs`] — a PVFS2-like striped parallel filesystem: files are
//!   striped round-robin over N data servers; every stripe pays the
//!   network hop to its server plus that server's (seek-degraded) disk.
//!   Many concurrent client streams degrade each server's aggregate — the
//!   contention effect the paper measures as PVFS being ~3x slower than
//!   the sum of local disks.
//!
//! Both implement [`CkptStore`], the sink/source interface the BLCR layer
//! streams through.

#![forbid(unsafe_code)]

mod disk;
mod fault;
mod localfs;
mod pvfs;

pub use disk::{Disk, DiskConfig};
pub use fault::{StoreFault, StoreFaultHook};
pub use localfs::LocalFs;
pub use pvfs::{Pvfs, PvfsConfig};

use ibfabric::{DataSlice, Rope};
use simkit::Ctx;

/// A filesystem that checkpoint streams can be written to and read from.
///
/// Paths are flat strings (checkpoint files are named
/// `ckpt.<jobid>.<rank>` in MVAPICH2 style by the callers).
pub trait CkptStore: Send + Sync {
    /// Create (or truncate) a file. Charges metadata latency.
    fn create(&self, ctx: &Ctx, path: &str);

    /// Append `data` to the file. `sync` selects durable (checkpoint) vs
    /// buffered (temporary restart file) semantics.
    fn append(&self, ctx: &Ctx, path: &str, data: DataSlice, sync: bool);

    /// Fallible append for fault-aware writers: implementations that carry
    /// a [`StoreFaultHook`] consult it and surface injected faults here.
    /// The default implementation delegates to [`CkptStore::append`] and
    /// never fails.
    fn try_append(
        &self,
        ctx: &Ctx,
        path: &str,
        data: DataSlice,
        sync: bool,
    ) -> Result<(), StoreFault> {
        self.append(ctx, path, data, sync);
        Ok(())
    }

    /// Read the whole file back, paying disk or cache cost as appropriate.
    /// Returns a [`Rope`]: the store keeps the slice table shared, so the
    /// read hands out views instead of copying descriptors.
    fn read_all(&self, ctx: &Ctx, path: &str) -> Option<Rope>;

    /// File length in bytes, if it exists.
    fn len(&self, path: &str) -> Option<u64>;

    /// Remove a file (no simulated cost).
    fn delete(&self, path: &str);

    /// Drop all clean page-cache state (simulates a node reboot or an
    /// elapsed eviction window before a cold restart).
    fn drop_caches(&self);

    /// Evict one file's page-cache state, leaving every other file's
    /// cache intact (`posix_fadvise(DONTNEED)` semantics). The pipelined
    /// restart path uses this to make each rank's restart read cold
    /// without flushing images still being staged. The default
    /// implementation falls back to [`CkptStore::drop_caches`].
    fn evict(&self, path: &str) {
        let _ = path;
        self.drop_caches();
    }

    /// Total bytes ever written through this store (for Table I style
    /// accounting).
    fn bytes_written(&self) -> u64;

    /// Total bytes ever read through this store.
    fn bytes_read(&self) -> u64;
}
