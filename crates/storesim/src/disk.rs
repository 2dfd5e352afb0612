//! A single spindle with seek-degraded sharing and a write-back page cache.

use parking_lot::Mutex;
use simkit::{Ctx, Link, Sharing, SimHandle, SimTime};
use std::sync::Arc;
use std::time::Duration;

/// Disk performance parameters.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Peak sequential bandwidth in bytes/second (single stream).
    pub bandwidth: f64,
    /// Seek degradation per extra concurrent stream
    /// (`aggregate(n) = bandwidth / (1 + alpha (n-1))`).
    pub alpha: f64,
    /// Memory-copy bandwidth for page-cache hits (bytes/second).
    pub mem_bandwidth: f64,
    /// Dirty-page budget: buffered writes up to this many outstanding
    /// bytes complete at memory speed; beyond it they throttle to disk
    /// speed (Linux `vm.dirty_ratio` behaviour).
    pub dirty_limit: u64,
    /// Rate at which the background flusher drains dirty pages.
    pub flush_bandwidth: f64,
    /// Read-speed multiplier over `bandwidth` (sequential reads benefit
    /// from readahead; >= 1.0). Reads are charged `bytes / read_factor`
    /// on the spindle link.
    pub read_factor: f64,
}

struct DirtyState {
    level: f64,
    at: SimTime,
}

/// A disk: a seek-degraded fluid link plus dirty-page accounting.
#[derive(Clone)]
pub struct Disk {
    name: Arc<str>,
    cfg: Arc<DiskConfig>,
    link: Link,
    dirty: Arc<Mutex<DirtyState>>,
}

impl Disk {
    /// Create a disk.
    pub fn new(handle: &SimHandle, name: &str, cfg: DiskConfig) -> Self {
        let link = Link::new(
            handle,
            name,
            cfg.bandwidth,
            Sharing::Degraded { alpha: cfg.alpha },
        );
        Disk {
            name: name.into(),
            cfg: Arc::new(cfg),
            link,
            dirty: Arc::new(Mutex::new(DirtyState {
                level: 0.0,
                at: handle.now(),
            })),
        }
    }

    /// The disk's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configuration in effect.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// The spindle link (for stats in tests/benches).
    pub fn link(&self) -> &Link {
        &self.link
    }

    fn decay_dirty(&self, now: SimTime) -> f64 {
        let mut d = self.dirty.lock();
        if now > d.at {
            let dt = (now - d.at).as_secs_f64();
            d.level = (d.level - self.cfg.flush_bandwidth * dt).max(0.0);
            d.at = now;
        }
        d.level
    }

    /// Durable write: goes straight through the spindle (O_SYNC /
    /// fsync-per-chunk, as BLCR checkpoint streams behave).
    pub fn write_sync(&self, ctx: &Ctx, bytes: u64) {
        let span = ctx.span_with("store", "write_sync", || {
            vec![("disk", (&*self.name).into()), ("bytes", bytes.into())]
        });
        self.link.transfer(ctx, bytes);
        span.end();
    }

    /// Buffered write: absorbed at memory speed within the dirty budget,
    /// spindle speed beyond it.
    pub fn write_buffered(&self, ctx: &Ctx, bytes: u64) {
        let now = ctx.now();
        let level = self.decay_dirty(now);
        let room = (self.cfg.dirty_limit as f64 - level).max(0.0);
        let absorbed = (bytes as f64).min(room);
        if absorbed > 0.0 {
            ctx.sleep(Duration::from_secs_f64(absorbed / self.cfg.mem_bandwidth));
            // Credit the dirty pages once the copy has completed.
            self.decay_dirty(ctx.now());
            self.dirty.lock().level += absorbed;
        }
        let spill = bytes as f64 - absorbed;
        if spill > 0.5 {
            self.link.transfer(ctx, spill as u64);
        }
        if ctx.telemetry_on() {
            let level = self.decay_dirty(ctx.now());
            ctx.counter("store", format!("dirty:{}", self.name), level);
        }
    }

    /// Read `bytes`, of which `cached_bytes` hit the page cache.
    pub fn read(&self, ctx: &Ctx, bytes: u64, cached_bytes: u64) {
        let cached = cached_bytes.min(bytes);
        if cached > 0 {
            ctx.sleep(Duration::from_secs_f64(
                cached as f64 / self.cfg.mem_bandwidth,
            ));
        }
        let cold = bytes - cached;
        if cold > 0 {
            let charged = (cold as f64 / self.cfg.read_factor.max(1.0)) as u64;
            self.link.transfer(ctx, charged.max(1));
        }
        ctx.instant_with("store", "read", || {
            vec![
                ("disk", (&*self.name).into()),
                ("bytes", bytes.into()),
                ("cached", cached.into()),
            ]
        });
    }

    /// Current dirty-page level (after decay), for tests.
    pub fn dirty_level(&self, now: SimTime) -> u64 {
        self.decay_dirty(now) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::dur::*;
    use simkit::Simulation;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> DiskConfig {
        DiskConfig {
            bandwidth: 100e6,
            alpha: 0.0,
            mem_bandwidth: 1e9,
            dirty_limit: 50_000_000,
            flush_bandwidth: 50e6,
            read_factor: 1.0,
        }
    }

    #[test]
    fn sync_write_runs_at_disk_speed() {
        let mut sim = Simulation::new(0);
        let disk = Disk::new(&sim.handle(), "d", cfg());
        sim.spawn("w", move |ctx| {
            disk.write_sync(ctx, 100_000_000);
            assert!((ctx.now().as_secs_f64() - 1.0).abs() < 1e-6);
        });
        sim.run().unwrap();
    }

    #[test]
    fn buffered_write_within_budget_is_memory_speed() {
        let mut sim = Simulation::new(0);
        let disk = Disk::new(&sim.handle(), "d", cfg());
        sim.spawn("w", move |ctx| {
            disk.write_buffered(ctx, 40_000_000); // 40 MB < 50 MB budget
                                                  // 40 MB at 1 GB/s = 40 ms, nowhere near 400 ms of disk time
            assert!(
                ctx.now().as_millis() < 60,
                "took {}ms",
                ctx.now().as_millis()
            );
        });
        sim.run().unwrap();
    }

    #[test]
    fn buffered_write_beyond_budget_throttles() {
        let mut sim = Simulation::new(0);
        let disk = Disk::new(&sim.handle(), "d", cfg());
        let t = std::sync::Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        sim.spawn("w", move |ctx| {
            disk.write_buffered(ctx, 150_000_000); // 50 MB absorbed, 100 MB spills
            t2.store(ctx.now().as_millis(), Ordering::SeqCst);
        });
        sim.run().unwrap();
        // 50 MB / 1 GB/s = 50 ms + 100 MB / 100 MB/s = 1000 ms → ~1050 ms
        let ms = t.load(Ordering::SeqCst);
        assert!((1040..1060).contains(&ms), "took {ms} ms");
    }

    #[test]
    fn dirty_budget_decays_over_time() {
        let mut sim = Simulation::new(0);
        let disk = Disk::new(&sim.handle(), "d", cfg());
        let d2 = disk.clone();
        sim.spawn("w", move |ctx| {
            d2.write_buffered(ctx, 50_000_000); // fill budget
            let lvl = d2.dirty_level(ctx.now());
            assert!(lvl > 49_000_000, "level {lvl}");
            ctx.sleep(ms(500)); // flusher drains 25 MB
            let lvl = d2.dirty_level(ctx.now());
            assert!((24_000_000..26_000_000).contains(&lvl), "level {lvl}");
            // budget partially restored → next buffered write part-absorbed
            let t0 = ctx.now();
            d2.write_buffered(ctx, 30_000_000);
            let dt = (ctx.now() - t0).as_secs_f64();
            // ~25 MB absorbed (25 ms) + ~5 MB spill (50 ms) ≈ 75 ms
            assert!((0.06..0.10).contains(&dt), "took {dt}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn cached_read_is_memory_speed_cold_read_is_disk_speed() {
        let mut sim = Simulation::new(0);
        let disk = Disk::new(&sim.handle(), "d", cfg());
        sim.spawn("r", move |ctx| {
            let t0 = ctx.now();
            disk.read(ctx, 100_000_000, 100_000_000);
            let hot = (ctx.now() - t0).as_secs_f64();
            assert!((hot - 0.1).abs() < 1e-6, "hot read took {hot}");
            let t1 = ctx.now();
            disk.read(ctx, 100_000_000, 0);
            let cold = (ctx.now() - t1).as_secs_f64();
            assert!((cold - 1.0).abs() < 1e-6, "cold read took {cold}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn concurrent_sync_writers_degrade_with_alpha() {
        let mut sim = Simulation::new(0);
        let mut c = cfg();
        c.alpha = 0.25;
        let disk = Disk::new(&sim.handle(), "d", c);
        let done = std::sync::Arc::new(AtomicU64::new(0));
        for i in 0..8 {
            let d = disk.clone();
            let f = done.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                d.write_sync(ctx, 10_000_000);
                f.store(ctx.now().as_millis(), Ordering::SeqCst);
            });
        }
        sim.run().unwrap();
        // 80 MB at 100/(1+0.25*7) = 36.36 MB/s → 2.2 s
        let ms = done.load(Ordering::SeqCst);
        assert!((2150..2250).contains(&ms), "took {ms} ms");
    }
}
