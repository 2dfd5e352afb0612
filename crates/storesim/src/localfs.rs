//! A node-local ext3-like filesystem over one [`Disk`].

use crate::disk::Disk;
use crate::fault::{StoreFault, StoreFaultHook};
use crate::CkptStore;
use ibfabric::{DataSlice, Rope};
use parking_lot::Mutex;
use simkit::Ctx;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

struct StoredFile {
    slices: Rope,
    len: u64,
    /// Bytes of this file resident in the page cache (written since the
    /// last `drop_caches`). Reads of these bytes run at memory speed.
    cached: u64,
}

#[derive(Default)]
struct Inner {
    // BTreeMap: `paths()` and cache drops iterate the namespace; path
    // order keeps listings deterministic.
    files: BTreeMap<String, StoredFile>,
    written: u64,
    read: u64,
    hook: Option<Arc<dyn StoreFaultHook>>,
}

/// A local filesystem: files live on one disk, metadata ops are cheap,
/// the page cache makes freshly written files fast to read back.
#[derive(Clone)]
pub struct LocalFs {
    disk: Disk,
    inner: Arc<Mutex<Inner>>,
    meta_latency: Duration,
}

impl LocalFs {
    /// Create a filesystem over `disk`.
    pub fn new(disk: Disk) -> Self {
        LocalFs {
            disk,
            inner: Arc::new(Mutex::new(Inner::default())),
            meta_latency: Duration::from_micros(150),
        }
    }

    /// The backing disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Install (or replace) the fault hook consulted by
    /// [`CkptStore::try_append`].
    pub fn set_fault_hook(&self, hook: Arc<dyn StoreFaultHook>) {
        self.inner.lock().hook = Some(hook);
    }

    /// List stored file paths (diagnostics).
    pub fn paths(&self) -> Vec<String> {
        self.inner.lock().files.keys().cloned().collect()
    }
}

impl CkptStore for LocalFs {
    fn create(&self, ctx: &Ctx, path: &str) {
        ctx.sleep(self.meta_latency);
        self.inner.lock().files.insert(
            path.to_string(),
            StoredFile {
                slices: Rope::new(),
                len: 0,
                cached: 0,
            },
        );
    }

    fn append(&self, ctx: &Ctx, path: &str, data: DataSlice, sync: bool) {
        let len = data.len;
        if sync {
            self.disk.write_sync(ctx, len);
        } else {
            self.disk.write_buffered(ctx, len);
        }
        let mut inner = self.inner.lock();
        let f = inner
            .files
            .get_mut(path)
            .unwrap_or_else(|| panic!("append to nonexistent file {path}"));
        f.slices.push(data);
        f.len += len;
        f.cached += len; // written bytes are cache-resident either way
        inner.written += len;
    }

    fn try_append(
        &self,
        ctx: &Ctx,
        path: &str,
        data: DataSlice,
        sync: bool,
    ) -> Result<(), StoreFault> {
        let hook = self.inner.lock().hook.clone();
        let fault = hook.and_then(|h| h.on_write(ctx.now(), "localfs", path, data.len));
        if let Some(f) = fault {
            // A failed write still costs the syscall round trip.
            ctx.sleep(self.meta_latency);
            return Err(f);
        }
        self.append(ctx, path, data, sync);
        Ok(())
    }

    fn read_all(&self, ctx: &Ctx, path: &str) -> Option<Rope> {
        ctx.sleep(self.meta_latency);
        let (slices, len, cached) = {
            let inner = self.inner.lock();
            let f = inner.files.get(path)?;
            // jmlint: allow(hot_alloc) — rope clone: shared table, no copy
            (f.slices.clone(), f.len, f.cached)
        };
        self.disk.read(ctx, len, cached);
        self.inner.lock().read += len;
        Some(slices)
    }

    fn len(&self, path: &str) -> Option<u64> {
        self.inner.lock().files.get(path).map(|f| f.len)
    }

    fn delete(&self, path: &str) {
        self.inner.lock().files.remove(path);
    }

    fn drop_caches(&self) {
        for f in self.inner.lock().files.values_mut() {
            f.cached = 0;
        }
    }

    fn evict(&self, path: &str) {
        if let Some(f) = self.inner.lock().files.get_mut(path) {
            f.cached = 0;
        }
    }

    fn bytes_written(&self) -> u64 {
        self.inner.lock().written
    }

    fn bytes_read(&self) -> u64 {
        self.inner.lock().read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskConfig;
    use simkit::{SimHandle, Simulation};

    fn fs(handle: &SimHandle) -> LocalFs {
        LocalFs::new(Disk::new(
            handle,
            "d",
            DiskConfig {
                bandwidth: 100e6,
                alpha: 0.0,
                mem_bandwidth: 1e9,
                dirty_limit: 1 << 30,
                flush_bandwidth: 50e6,
                read_factor: 1.0,
            },
        ))
    }

    #[test]
    fn write_read_roundtrip_preserves_content() {
        let mut sim = Simulation::new(0);
        let fs = fs(&sim.handle());
        sim.spawn("io", move |ctx| {
            fs.create(ctx, "ckpt.0");
            fs.append(ctx, "ckpt.0", DataSlice::pattern(4, 0, 1000), true);
            fs.append(ctx, "ckpt.0", DataSlice::bytes(&b"tail"[..]), true);
            assert_eq!(fs.len("ckpt.0"), Some(1004));
            let back = fs.read_all(ctx, "ckpt.0").unwrap();
            assert_eq!(back.slice_count(), 2);
            assert!(back.as_slices()[0].content_eq(&DataSlice::pattern(4, 0, 1000)));
            assert_eq!(back.as_slices()[1].to_bytes().as_ref(), b"tail");
            assert_eq!(fs.bytes_written(), 1004);
            assert_eq!(fs.bytes_read(), 1004);
        });
        sim.run().unwrap();
    }

    #[test]
    fn fresh_file_reads_hot_until_caches_dropped() {
        let mut sim = Simulation::new(0);
        let fs = fs(&sim.handle());
        sim.spawn("io", move |ctx| {
            fs.create(ctx, "f");
            fs.append(ctx, "f", DataSlice::pattern(1, 0, 100_000_000), true);
            let t0 = ctx.now();
            fs.read_all(ctx, "f").unwrap();
            let hot = (ctx.now() - t0).as_secs_f64();
            assert!(hot < 0.15, "hot read took {hot}");
            fs.drop_caches();
            let t1 = ctx.now();
            fs.read_all(ctx, "f").unwrap();
            let cold = (ctx.now() - t1).as_secs_f64();
            assert!((cold - 1.0).abs() < 0.01, "cold read took {cold}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn read_missing_file_is_none() {
        let mut sim = Simulation::new(0);
        let fs = fs(&sim.handle());
        sim.spawn("io", move |ctx| {
            assert!(fs.read_all(ctx, "nope").is_none());
            assert_eq!(fs.len("nope"), None);
        });
        sim.run().unwrap();
    }

    #[test]
    fn delete_removes_file() {
        let mut sim = Simulation::new(0);
        let fs = fs(&sim.handle());
        sim.spawn("io", move |ctx| {
            fs.create(ctx, "f");
            fs.append(ctx, "f", DataSlice::zero(10), false);
            fs.delete("f");
            assert!(fs.read_all(ctx, "f").is_none());
        });
        sim.run().unwrap();
    }

    #[test]
    fn create_truncates() {
        let mut sim = Simulation::new(0);
        let fs = fs(&sim.handle());
        sim.spawn("io", move |ctx| {
            fs.create(ctx, "f");
            fs.append(ctx, "f", DataSlice::zero(10), false);
            fs.create(ctx, "f");
            assert_eq!(fs.len("f"), Some(0));
        });
        sim.run().unwrap();
    }
}
