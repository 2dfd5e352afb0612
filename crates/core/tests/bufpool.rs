//! The RDMA buffer-pool engine in isolation: chunking, flow control,
//! reassembly, integrity, accounting — Figure 3 without the rest of the
//! framework.

use blcrsim::{Blcr, BlcrConfig, ProcessImage, SegmentKind};
use ibfabric::{DataSlice, IbConfig, IbFabric, NodeId};
use jobmig_core::bufpool::{
    self, AssembledImage, PoolConfig, PoolRendezvous, RestartMode, Transport,
};
use simkit::{Link, Sharing, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storesim::{CkptStore, Disk, DiskConfig, LocalFs};

fn test_fs(h: &simkit::SimHandle) -> LocalFs {
    LocalFs::new(Disk::new(
        h,
        "tgt",
        DiskConfig {
            bandwidth: 100e6,
            alpha: 0.1,
            mem_bandwidth: 2e9,
            dirty_limit: 1 << 30,
            flush_bandwidth: 60e6,
            read_factor: 1.0,
        },
    ))
}

fn image(rank: u64, mb: u64) -> ProcessImage {
    ProcessImage::new(rank, format!("state-{rank}").into_bytes()).with_segment(
        SegmentKind::Heap,
        DataSlice::pattern(rank * 7 + 1, 0, mb << 20),
    )
}

/// Full source→target pull of `n` process streams; returns
/// (bytes_streamed, bytes_pulled, per-rank assembled bytes).
fn pump(n: u32, mb_per_rank: u64, cfg: PoolConfig) -> (u64, u64, Vec<u64>) {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let fab = IbFabric::new(&h, IbConfig::default());
    let src_hca = fab.attach(NodeId(0));
    let tgt_hca = fab.attach(NodeId(1));
    let fs: Arc<dyn CkptStore> = Arc::new(test_fs(&h));
    let rdv = PoolRendezvous::new(&h);
    let membus = Link::new(&h, "walk", 450e6, Sharing::Fair);
    let blcr = Blcr::new(membus, BlcrConfig::default());

    let streamed = Arc::new(AtomicU64::new(0));
    let pulled = Arc::new(AtomicU64::new(0));
    let sizes = Arc::new(parking_lot::Mutex::new(Vec::new()));

    // Source side: a coordinator sets up the pool, then n writers stream.
    let rdv2 = rdv.clone();
    let st2 = streamed.clone();
    sim.spawn("source", move |ctx| {
        let (pool, _ack) = bufpool::source(ctx, &src_hca, cfg, n, &rdv2);
        let done = simkit::Countdown::new(&ctx.handle(), "writers", n as u64);
        for r in 0..n {
            let pool = pool.clone();
            let blcr = blcr.clone();
            let done = done.clone();
            ctx.spawn(&format!("writer{r}"), move |ctx| {
                let img = image(r as u64, mb_per_rank);
                let mut sink = pool.sink(ctx, r, img.checksum());
                blcr.try_checkpoint(ctx, &img, &mut sink)
                    .expect("checkpoint dump");
                done.arrive();
            });
        }
        done.wait(ctx);
        pool.finished().wait(ctx);
        st2.store(pool.bytes_streamed(), Ordering::SeqCst);
    });
    // Target side.
    let p2 = pulled.clone();
    let sz2 = sizes.clone();
    sim.spawn("target", move |ctx| {
        let res = bufpool::target(ctx, &tgt_hca, cfg, &rdv, fs, "mig.t", None).expect("pull");
        p2.store(res.bytes_pulled, Ordering::SeqCst);
        let mut v: Vec<(u32, u64)> = res.images.iter().map(|(r, i)| (*r, i.bytes)).collect();
        v.sort();
        *sz2.lock() = v.into_iter().map(|(_, b)| b).collect();
    });
    sim.run().unwrap();
    let out_sizes = sizes.lock().clone();
    (
        streamed.load(Ordering::SeqCst),
        pulled.load(Ordering::SeqCst),
        out_sizes,
    )
}

#[test]
fn streams_reassemble_exactly() {
    let cfg = PoolConfig::default();
    let (streamed, pulled, sizes) = pump(4, 8, cfg);
    assert_eq!(streamed, pulled, "every streamed byte must be pulled");
    assert_eq!(sizes.len(), 4);
    for (r, b) in sizes.iter().enumerate() {
        let expect = blcrsim::serialize_image(&image(r as u64, 8))
            .iter()
            .map(|s| s.len)
            .sum::<u64>();
        assert_eq!(*b, expect, "rank {r} stream length");
    }
}

#[test]
fn single_chunk_pool_still_completes() {
    // Pool of exactly one chunk: writers fully serialized by flow
    // control, everything still arrives.
    let cfg = PoolConfig {
        pool_bytes: 1 << 20,
        chunk_bytes: 1 << 20,
        ..PoolConfig::default()
    };
    let (streamed, pulled, sizes) = pump(3, 4, cfg);
    assert_eq!(streamed, pulled);
    assert_eq!(sizes.len(), 3);
}

#[test]
fn pool_exhaustion_throttles_but_preserves_data() {
    // tiny pool vs many writers: heavy contention for slots
    let cfg = PoolConfig {
        pool_bytes: 2 << 20,
        chunk_bytes: 1 << 20,
        ..PoolConfig::default()
    };
    let (streamed, pulled, sizes) = pump(8, 2, cfg);
    assert_eq!(streamed, pulled);
    assert_eq!(sizes.len(), 8);
}

#[test]
fn odd_sized_streams_with_partial_final_chunks() {
    // 1 MB chunks, ~3.3 MB images: final chunk of each rank is partial
    let cfg = PoolConfig::default();
    let mut sim = Simulation::new(2);
    let h = sim.handle();
    let fab = IbFabric::new(&h, IbConfig::default());
    let src_hca = fab.attach(NodeId(0));
    let tgt_hca = fab.attach(NodeId(1));
    let fs: Arc<dyn CkptStore> = Arc::new(test_fs(&h));
    let rdv = PoolRendezvous::new(&h);
    let membus = Link::new(&h, "walk", 450e6, Sharing::Fair);
    let blcr = Blcr::new(membus, BlcrConfig::default());
    let rdv2 = rdv.clone();
    sim.spawn("source", move |ctx| {
        let (pool, _ack) = bufpool::source(ctx, &src_hca, cfg, 1, &rdv2);
        let img = ProcessImage::new(0, &b"odd"[..]).with_segment(
            SegmentKind::Heap,
            DataSlice::pattern(3, 0, 3 * (1 << 20) + 12345),
        );
        let mut sink = pool.sink(ctx, 0, img.checksum());
        blcr.try_checkpoint(ctx, &img, &mut sink)
            .expect("checkpoint dump");
        pool.finished().wait(ctx);
    });
    sim.spawn("target", move |ctx| {
        let res =
            bufpool::target(ctx, &tgt_hca, cfg, &rdv, fs.clone(), "mig.odd", None).expect("pull");
        let img_info = &res.images[&0];
        // restore and verify integrity end to end
        let mut src = blcrsim::StoreSource::new(fs.clone(), img_info.path.clone());
        let membus2 = Link::new(&ctx.handle(), "walk2", 450e6, Sharing::Fair);
        let blcr2 = Blcr::new(membus2, BlcrConfig::default());
        let back = blcr2
            .restart(ctx, &mut src, &blcrsim::RestartCosts::default())
            .unwrap();
        assert_eq!(back.checksum(), img_info.expected_checksum);
        assert_eq!(back.memory_bytes(), 3 * (1 << 20) + 12345);
    });
    sim.run().unwrap();
}

#[test]
fn memory_mode_keeps_streams_off_the_filesystem() {
    let cfg = PoolConfig {
        restart_mode: RestartMode::MemoryBased,
        ..PoolConfig::default()
    };
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let fab = IbFabric::new(&h, IbConfig::default());
    let src_hca = fab.attach(NodeId(0));
    let tgt_hca = fab.attach(NodeId(1));
    let fs = test_fs(&h);
    let fs_dyn: Arc<dyn CkptStore> = Arc::new(fs.clone());
    let rdv = PoolRendezvous::new(&h);
    let membus = Link::new(&h, "walk", 450e6, Sharing::Fair);
    let blcr = Blcr::new(membus, BlcrConfig::default());
    let rdv2 = rdv.clone();
    sim.spawn("source", move |ctx| {
        let (pool, _ack) = bufpool::source(ctx, &src_hca, cfg, 1, &rdv2);
        let img = image(0, 4);
        let mut sink = pool.sink(ctx, 0, img.checksum());
        blcr.try_checkpoint(ctx, &img, &mut sink)
            .expect("checkpoint dump");
        pool.finished().wait(ctx);
    });
    sim.spawn("target", move |ctx| {
        let res = bufpool::target(ctx, &tgt_hca, cfg, &rdv, fs_dyn, "mig.mem", None).expect("pull");
        let info = &res.images[&0];
        let slices = info.slices.as_ref().expect("in-memory stream");
        let parsed = blcrsim::parse_stream(slices.to_vec()).unwrap();
        assert_eq!(parsed.checksum(), info.expected_checksum);
    });
    sim.run().unwrap();
    assert_eq!(fs.bytes_written(), 0, "no temp files in memory mode");
}

#[test]
fn ipoib_transport_is_slower_but_correct() {
    let fast = pump(2, 8, PoolConfig::default());
    let mut sim_time_rdma = 0.0;
    let mut sim_time_ipoib = 0.0;
    for (transport, out) in [
        (Transport::RdmaRead, &mut sim_time_rdma),
        (Transport::IpoibStaged, &mut sim_time_ipoib),
    ] {
        let mut sim = Simulation::new(4);
        let h = sim.handle();
        let fab = IbFabric::new(&h, IbConfig::default());
        let src_hca = fab.attach(NodeId(0));
        let tgt_hca = fab.attach(NodeId(1));
        let fs: Arc<dyn CkptStore> = Arc::new(test_fs(&h));
        let rdv = PoolRendezvous::new(&h);
        let cfg = PoolConfig {
            transport,
            ..PoolConfig::default()
        };
        let membus = Link::new(&h, "walk", 450e6, Sharing::Fair);
        let blcr = Blcr::new(membus, BlcrConfig::default());
        let rdv2 = rdv.clone();
        sim.spawn("source", move |ctx| {
            let (pool, _ack) = bufpool::source(ctx, &src_hca, cfg, 2, &rdv2);
            let done = simkit::Countdown::new(&ctx.handle(), "w", 2);
            for r in 0..2 {
                let pool = pool.clone();
                let blcr = blcr.clone();
                let done = done.clone();
                ctx.spawn(&format!("w{r}"), move |ctx| {
                    let img = image(r as u64, 16);
                    let mut sink = pool.sink(ctx, r, img.checksum());
                    blcr.try_checkpoint(ctx, &img, &mut sink)
                        .expect("checkpoint dump");
                    done.arrive();
                });
            }
            done.wait(ctx);
            pool.finished().wait(ctx);
        });
        sim.spawn("target", move |ctx| {
            bufpool::target(ctx, &tgt_hca, cfg, &rdv, fs, "mig.x", None).expect("pull");
        });
        sim.run().unwrap();
        *out = sim.now().as_secs_f64();
    }
    assert!(
        sim_time_ipoib > sim_time_rdma,
        "IPoIB {sim_time_ipoib} must be slower than RDMA {sim_time_rdma}"
    );
    let _ = fast;
}

#[test]
fn table1_accounting_matches_stream_bytes() {
    let (streamed, _, sizes) = pump(8, 21, PoolConfig::default());
    let total: u64 = sizes.iter().sum();
    assert_eq!(streamed, total);
    // ~8 ranks x 21 MiB ≈ 176 MB — the Table I scale
    assert!((170_000_000..180_000_000).contains(&streamed));
}

#[test]
fn rank_ready_hook_fires_once_per_rank_with_the_final_image() {
    // Per-rank readiness: each rank's image is handed to the hook the
    // moment its EOF is satisfied — before DONE — and is the same image
    // the completed pull returns.
    let cfg = PoolConfig {
        restart_mode: RestartMode::MemoryBased,
        ..PoolConfig::default()
    };
    let mut sim = Simulation::new(9);
    let h = sim.handle();
    let fab = IbFabric::new(&h, IbConfig::default());
    let src_hca = fab.attach(NodeId(0));
    let tgt_hca = fab.attach(NodeId(1));
    let fs: Arc<dyn CkptStore> = Arc::new(test_fs(&h));
    let rdv = PoolRendezvous::new(&h);
    let membus = Link::new(&h, "walk", 450e6, Sharing::Fair);
    let blcr = Blcr::new(membus, BlcrConfig::default());
    let rdv2 = rdv.clone();
    sim.spawn("source", move |ctx| {
        let (pool, _ack) = bufpool::source(ctx, &src_hca, cfg, 2, &rdv2);
        let done = simkit::Countdown::new(&ctx.handle(), "w", 2);
        for r in 0..2 {
            let pool = pool.clone();
            let blcr = blcr.clone();
            let done = done.clone();
            ctx.spawn(&format!("w{r}"), move |ctx| {
                let img = image(r as u64, 8);
                let mut sink = pool.sink(ctx, r, img.checksum());
                blcr.try_checkpoint(ctx, &img, &mut sink)
                    .expect("checkpoint dump");
                done.arrive();
            });
        }
        done.wait(ctx);
        pool.finished().wait(ctx);
    });
    sim.spawn("target", move |ctx| {
        let ready = parking_lot::Mutex::new(Vec::new());
        let hook = |_: &simkit::Ctx, rank: u32, img: AssembledImage| {
            ready.lock().push((rank, img.bytes, img.expected_checksum));
        };
        let res =
            bufpool::target(ctx, &tgt_hca, cfg, &rdv, fs, "mig.ready", Some(&hook)).expect("pull");
        let mut ready = ready.into_inner();
        ready.sort();
        assert_eq!(ready.len(), 2, "one readiness call per rank");
        for (rank, bytes, sum) in ready {
            let info = &res.images[&rank];
            assert_eq!((bytes, sum), (info.bytes, info.expected_checksum));
            let slices = info.slices.as_ref().expect("in-memory stream");
            let parsed = blcrsim::parse_stream(slices.to_vec()).unwrap();
            assert_eq!(parsed.checksum(), info.expected_checksum, "rank {rank}");
        }
    });
    sim.run().unwrap();
}

#[test]
fn default_config_session_pumps_single_rank() {
    // The default-config path: one rank, file-backed staging.
    let cfg = PoolConfig::default();
    let mut sim = Simulation::new(5);
    let h = sim.handle();
    let fab = IbFabric::new(&h, IbConfig::default());
    let src_hca = fab.attach(NodeId(0));
    let tgt_hca = fab.attach(NodeId(1));
    let fs: Arc<dyn CkptStore> = Arc::new(test_fs(&h));
    let rdv = PoolRendezvous::new(&h);
    let membus = Link::new(&h, "walk", 450e6, Sharing::Fair);
    let blcr = Blcr::new(membus, BlcrConfig::default());
    let rdv2 = rdv.clone();
    sim.spawn("source", move |ctx| {
        let (pool, _ack) = bufpool::source(ctx, &src_hca, cfg, 1, &rdv2);
        let img = image(0, 2);
        let mut sink = pool.sink(ctx, 0, img.checksum());
        blcr.try_checkpoint(ctx, &img, &mut sink)
            .expect("checkpoint dump");
        pool.finished().wait(ctx);
    });
    sim.spawn("target", move |ctx| {
        let res = bufpool::target(ctx, &tgt_hca, cfg, &rdv, fs, "mig.old", None).expect("pull");
        assert_eq!(res.images.len(), 1);
    });
    sim.run().unwrap();
}
