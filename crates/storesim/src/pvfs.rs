//! A PVFS2-like striped parallel filesystem.
//!
//! Files are striped round-robin across N data servers in fixed-size
//! stripes (1 MB in the paper's setup). Every stripe pays the network hop
//! from the client to its server plus the server disk. With 64 concurrent
//! checkpoint streams over 4 servers the per-server seek degradation
//! dominates — the contention the paper blames for PVFS checkpoints
//! being ~3x slower than local ext3.

use crate::disk::{Disk, DiskConfig};
use crate::fault::{StoreFault, StoreFaultHook};
use crate::CkptStore;
use ibfabric::{DataSlice, Net, NodeId, Rope};
use parking_lot::Mutex;
use simkit::{Ctx, SimHandle};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// PVFS deployment parameters.
#[derive(Debug, Clone)]
pub struct PvfsConfig {
    /// Number of data servers (the paper uses 4, doubling as metadata
    /// servers).
    pub servers: usize,
    /// Stripe size in bytes (the paper sets 1 MB).
    pub stripe: u64,
    /// Per-server disk model.
    pub disk: DiskConfig,
    /// Metadata operation latency (create/open).
    pub meta_latency: Duration,
}

struct StoredFile {
    slices: Rope,
    len: u64,
    cached: u64,
    /// First server index for this file's stripe 0 (spreads load).
    start_server: usize,
}

struct Inner {
    // BTreeMap: cache drops iterate the namespace; path order keeps the
    // pass deterministic.
    files: BTreeMap<String, StoredFile>,
    next_start: usize,
    written: u64,
    read: u64,
    /// Stripe operations currently in flight per server (telemetry).
    inflight: Vec<u64>,
    hook: Option<Arc<dyn StoreFaultHook>>,
}

/// The shared PVFS deployment. Obtain per-node handles with
/// [`Pvfs::client`].
#[derive(Clone)]
pub struct Pvfs {
    cfg: Arc<PvfsConfig>,
    server_disks: Arc<Vec<Disk>>,
    /// Transport the stripes cross.
    net: Net,
    /// The node each server lives on.
    server_nodes: Arc<Vec<NodeId>>,
    inner: Arc<Mutex<Inner>>,
}

impl Pvfs {
    /// Create a deployment whose stripes traverse `net` to the given
    /// server nodes (PVFS with InfiniBand transport, as in the paper).
    pub fn with_network(
        handle: &SimHandle,
        cfg: PvfsConfig,
        net: Net,
        server_nodes: Vec<NodeId>,
    ) -> Self {
        assert_eq!(
            server_nodes.len(),
            cfg.servers,
            "need one node per PVFS server"
        );
        for n in &server_nodes {
            net.add_node(*n);
        }
        let disks = (0..cfg.servers)
            .map(|i| Disk::new(handle, &format!("pvfs-srv{i}"), cfg.disk.clone()))
            .collect();
        let inner = Inner {
            files: BTreeMap::new(),
            next_start: 0,
            written: 0,
            read: 0,
            inflight: vec![0; cfg.servers],
            hook: None,
        };
        Pvfs {
            cfg: Arc::new(cfg),
            server_disks: Arc::new(disks),
            net,
            server_nodes: Arc::new(server_nodes),
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Install (or replace) the fault hook consulted by every client's
    /// [`CkptStore::try_append`].
    pub fn set_fault_hook(&self, hook: Arc<dyn StoreFaultHook>) {
        self.inner.lock().hook = Some(hook);
    }

    /// A client handle anchored at `node` (pays network costs from there).
    pub fn client(&self, node: NodeId) -> PvfsClient {
        self.net.add_node(node);
        PvfsClient {
            fs: self.clone(),
            node,
        }
    }

    /// Per-server disks (stats for benches).
    pub fn server_disks(&self) -> &[Disk] {
        &self.server_disks
    }

    fn stripe_io(
        &self,
        ctx: &Ctx,
        client: NodeId,
        server_idx: usize,
        bytes: u64,
        op: StripeOp,
        cached: u64,
    ) {
        let telemetry = ctx.telemetry_on();
        if telemetry {
            let depth = {
                let mut inner = self.inner.lock();
                inner.inflight[server_idx] += 1;
                inner.inflight[server_idx]
            };
            ctx.counter("store", format!("pvfs_queue:srv{server_idx}"), depth as f64);
        }
        let server = self.server_nodes[server_idx];
        // Data flows client→server for writes, server→client for reads.
        match op {
            StripeOp::Write => self.net.wire_delay(ctx, client, server, bytes).unwrap(),
            StripeOp::Read => self.net.wire_delay(ctx, server, client, bytes).unwrap(),
        }
        let disk = &self.server_disks[server_idx];
        match op {
            StripeOp::Write => disk.write_sync(ctx, bytes),
            StripeOp::Read => disk.read(ctx, bytes, cached),
        }
        if telemetry {
            let depth = {
                let mut inner = self.inner.lock();
                inner.inflight[server_idx] -= 1;
                inner.inflight[server_idx]
            };
            ctx.counter("store", format!("pvfs_queue:srv{server_idx}"), depth as f64);
        }
    }
}

#[derive(Clone, Copy)]
enum StripeOp {
    Write,
    Read,
}

/// A per-node client view of a [`Pvfs`] deployment.
#[derive(Clone)]
pub struct PvfsClient {
    fs: Pvfs,
    node: NodeId,
}

impl CkptStore for PvfsClient {
    fn create(&self, ctx: &Ctx, path: &str) {
        ctx.sleep(self.fs.cfg.meta_latency);
        let mut inner = self.fs.inner.lock();
        let start = inner.next_start;
        inner.next_start = (inner.next_start + 1) % self.fs.cfg.servers;
        inner.files.insert(
            path.to_string(),
            StoredFile {
                slices: Rope::new(),
                len: 0,
                cached: 0,
                start_server: start,
            },
        );
    }

    fn append(&self, ctx: &Ctx, path: &str, data: DataSlice, _sync: bool) {
        // PVFS checkpoint streams are always durable on the server side.
        let len = data.len;
        let stripe = self.fs.cfg.stripe;
        let nsrv = self.fs.cfg.servers;
        let (mut offset, start) = {
            let inner = self.fs.inner.lock();
            let f = inner
                .files
                .get(path)
                .unwrap_or_else(|| panic!("append to nonexistent PVFS file {path}"));
            (f.len, f.start_server)
        };
        let span = ctx.span_with("store", "pvfs_append", || {
            vec![("path", path.into()), ("bytes", len.into())]
        });
        let mut remaining = len;
        while remaining > 0 {
            let within = offset % stripe;
            let chunk = (stripe - within).min(remaining);
            let idx = ((offset / stripe) as usize + start) % nsrv;
            self.fs
                .stripe_io(ctx, self.node, idx, chunk, StripeOp::Write, 0);
            offset += chunk;
            remaining -= chunk;
        }
        span.end();
        let mut inner = self.fs.inner.lock();
        let f = inner.files.get_mut(path).expect("file vanished mid-append");
        f.slices.push(data);
        f.len += len;
        f.cached += len;
        inner.written += len;
    }

    fn try_append(
        &self,
        ctx: &Ctx,
        path: &str,
        data: DataSlice,
        sync: bool,
    ) -> Result<(), StoreFault> {
        let hook = self.fs.inner.lock().hook.clone();
        let fault = hook.and_then(|h| h.on_write(ctx.now(), "pvfs", path, data.len));
        if let Some(f) = fault {
            ctx.sleep(self.fs.cfg.meta_latency);
            return Err(f);
        }
        self.append(ctx, path, data, sync);
        Ok(())
    }

    fn read_all(&self, ctx: &Ctx, path: &str) -> Option<Rope> {
        ctx.sleep(self.fs.cfg.meta_latency);
        let (slices, len, cached, start) = {
            let inner = self.fs.inner.lock();
            let f = inner.files.get(path)?;
            // jmlint: allow(hot_alloc) — rope clone: shared table, no copy
            (f.slices.clone(), f.len, f.cached, f.start_server)
        };
        let span = ctx.span_with("store", "pvfs_read", || {
            vec![
                ("path", path.into()),
                ("bytes", len.into()),
                ("cached", cached.into()),
            ]
        });
        let stripe = self.fs.cfg.stripe;
        let nsrv = self.fs.cfg.servers;
        let mut offset = 0u64;
        let mut cached_left = cached;
        while offset < len {
            let chunk = stripe.min(len - offset);
            let idx = ((offset / stripe) as usize + start) % nsrv;
            let chunk_cached = cached_left.min(chunk);
            self.fs
                .stripe_io(ctx, self.node, idx, chunk, StripeOp::Read, chunk_cached);
            cached_left -= chunk_cached;
            offset += chunk;
        }
        span.end();
        self.fs.inner.lock().read += len;
        Some(slices)
    }

    fn len(&self, path: &str) -> Option<u64> {
        self.fs.inner.lock().files.get(path).map(|f| f.len)
    }

    fn delete(&self, path: &str) {
        self.fs.inner.lock().files.remove(path);
    }

    fn drop_caches(&self) {
        for f in self.fs.inner.lock().files.values_mut() {
            f.cached = 0;
        }
    }

    fn bytes_written(&self) -> u64 {
        self.fs.inner.lock().written
    }

    fn bytes_read(&self) -> u64 {
        self.fs.inner.lock().read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Simulation;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> PvfsConfig {
        PvfsConfig {
            servers: 4,
            stripe: 1 << 20,
            disk: DiskConfig {
                bandwidth: 100e6,
                alpha: 0.0,
                mem_bandwidth: 1e9,
                dirty_limit: 0,
                flush_bandwidth: 50e6,
                read_factor: 1.0,
            },
            meta_latency: Duration::from_micros(600),
        }
    }

    /// A deployment on an InfiniBand fabric, servers on nodes 100-103.
    fn deploy(sim: &Simulation, cfg: PvfsConfig) -> Pvfs {
        let h = sim.handle();
        let net = Net::new(&h, ibfabric::NetConfig::ib_ddr());
        let servers = (100..100 + cfg.servers as u32).map(NodeId).collect();
        Pvfs::with_network(&h, cfg, net, servers)
    }

    #[test]
    fn roundtrip_preserves_content() {
        let mut sim = Simulation::new(0);
        let fs = deploy(&sim, cfg());
        let client = fs.client(NodeId(0));
        sim.spawn("io", move |ctx| {
            client.create(ctx, "f");
            client.append(ctx, "f", DataSlice::pattern(2, 0, 5 << 20), true);
            let back = client.read_all(ctx, "f").unwrap();
            assert!(back.as_slices()[0].content_eq(&DataSlice::pattern(2, 0, 5 << 20)));
        });
        sim.run().unwrap();
    }

    #[test]
    fn single_client_write_is_striped_serially() {
        let mut sim = Simulation::new(0);
        let fs = deploy(&sim, cfg());
        let client = fs.client(NodeId(0));
        let fs2 = fs.clone();
        sim.spawn("io", move |ctx| {
            client.create(ctx, "f");
            let t0 = ctx.now();
            client.append(ctx, "f", DataSlice::zero(8 << 20), true);
            let dt = (ctx.now() - t0).as_secs_f64();
            // Stripes issue one at a time from one client: 8 MiB at one
            // server-disk at a time ≈ 8 MiB / 100 MB/s ≈ 84 ms, plus the
            // IB wire at 1.4 GB/s ≈ 6 ms.
            assert!((0.085..0.095).contains(&dt), "took {dt}");
            // spread evenly: 2 MiB per server
            for d in fs2.server_disks() {
                assert_eq!(d.link().stats().bytes_completed, 2 << 20);
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn many_clients_contend_on_servers() {
        let mut sim = Simulation::new(0);
        let mut c = cfg();
        c.disk.alpha = 0.05;
        let fs = deploy(&sim, c);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..16 {
            let client = fs.client(NodeId(i));
            let d = done.clone();
            sim.spawn(&format!("c{i}"), move |ctx| {
                client.create(ctx, &format!("f{i}"));
                client.append(ctx, &format!("f{i}"), DataSlice::zero(8 << 20), true);
                d.store(ctx.now().as_millis(), Ordering::SeqCst);
            });
        }
        sim.run().unwrap();
        // 128 MiB total over 4 servers with ~4 streams each: aggregate
        // noticeably below the 400 MB/s ideal.
        let ms = done.load(Ordering::SeqCst);
        assert!(
            ms > 380,
            "contended write finished suspiciously fast: {ms} ms"
        );
    }

    #[test]
    fn cold_read_after_drop_caches_pays_disk() {
        let mut sim = Simulation::new(0);
        let fs = deploy(&sim, cfg());
        let client = fs.client(NodeId(0));
        sim.spawn("io", move |ctx| {
            client.create(ctx, "f");
            client.append(ctx, "f", DataSlice::zero(4 << 20), true);
            let t0 = ctx.now();
            client.read_all(ctx, "f").unwrap();
            let hot = (ctx.now() - t0).as_secs_f64();
            client.drop_caches();
            let t1 = ctx.now();
            client.read_all(ctx, "f").unwrap();
            let cold = (ctx.now() - t1).as_secs_f64();
            assert!(cold > 5.0 * hot, "hot {hot} vs cold {cold}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn network_transport_adds_wire_cost() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let net = Net::new(&h, ibfabric::NetConfig::gige()); // slow net to make it visible
        let fs = Pvfs::with_network(
            &h,
            cfg(),
            net.clone(),
            vec![NodeId(100), NodeId(101), NodeId(102), NodeId(103)],
        );
        let client = fs.client(NodeId(0));
        sim.spawn("io", move |ctx| {
            client.create(ctx, "f");
            let t0 = ctx.now();
            client.append(ctx, "f", DataSlice::zero(8 << 20), true);
            let dt = (ctx.now() - t0).as_secs_f64();
            // wire (110 MB/s) + disk (100 MB/s) per stripe, serialized:
            // ≈ 8.4 MB * (1/110e6 + 1/100e6) ≈ 0.16 s
            assert!((0.15..0.18).contains(&dt), "took {dt}");
        });
        sim.run().unwrap();
        assert!(net.rx_bytes(NodeId(100)) >= 2 << 20);
    }
}
