//! Protocol edge cases: traffic conservation under random workloads,
//! larger collectives, drain during rendezvous storms, repeated
//! suspend/resume cycles.

use bytes::Bytes;
use ibfabric::{IbConfig, IbFabric, NodeId};
use mpisim::{MpiConfig, MpiJob};
use simkit::dur::*;
use simkit::Simulation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn setup(sim: &Simulation, size: u32, ppn: u32) -> MpiJob {
    let h = sim.handle();
    let fabric = IbFabric::new(&h, IbConfig::default());
    let placement: Vec<NodeId> = (0..size).map(|r| NodeId(r / ppn)).collect();
    let job = MpiJob::new(&h, fabric, &placement, MpiConfig::default());
    for r in 0..size {
        let cr = job.cr(r);
        sim.spawn(&format!("launch{r}"), move |ctx| {
            cr.rebuild_endpoints(ctx, false);
            cr.reopen();
        });
    }
    job
}

#[test]
fn random_matched_traffic_conserves_messages() {
    // Every rank sends a random-but-deterministic number of messages to
    // its ring successor, who receives exactly that many. Total message
    // count in stats must match exactly.
    let mut sim = Simulation::new(42);
    let size = 8;
    let job = setup(&sim, size, 2);
    let per_rank = 25u64;
    for r in 0..size {
        let j = job.clone();
        sim.spawn(&format!("r{r}"), move |ctx| {
            let mut rk = j.attach(r);
            let to = (r + 1) % size;
            let from = (r + size - 1) % size;
            for k in 0..per_rank {
                let bytes = ctx.with_rng(|g| rand::Rng::gen_range(g, 1..100_000u64));
                if r.is_multiple_of(2) {
                    rk.send(ctx, to, k, bytes);
                    rk.recv(ctx, from, k);
                } else {
                    rk.recv(ctx, from, k);
                    rk.send(ctx, to, k, bytes);
                }
            }
        });
    }
    sim.run().unwrap();
    assert_eq!(job.stats().messages, size as u64 * per_rank);
    assert_eq!(job.inflight(), 0);
}

#[test]
fn barrier_storm_at_32_ranks() {
    let mut sim = Simulation::new(1);
    let size = 32;
    let job = setup(&sim, size, 8);
    let done = Arc::new(AtomicU64::new(0));
    for r in 0..size {
        let j = job.clone();
        let d = done.clone();
        sim.spawn(&format!("r{r}"), move |ctx| {
            let mut rk = j.attach(r);
            for epoch in 0..20 {
                rk.barrier(ctx, epoch);
            }
            d.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    assert_eq!(done.load(Ordering::SeqCst), size as u64);
}

#[test]
fn allreduce_with_large_payload_uses_rendezvous() {
    let mut sim = Simulation::new(2);
    let size = 8;
    let job = setup(&sim, size, 2);
    for r in 0..size {
        let j = job.clone();
        sim.spawn(&format!("r{r}"), move |ctx| {
            let mut rk = j.attach(r);
            rk.allreduce(ctx, 1, 4 << 20); // 4 MiB contributions
        });
    }
    sim.run().unwrap();
    assert!(job.stats().rendezvous > 0, "large payloads go rendezvous");
}

#[test]
fn drain_settles_through_chained_rendezvous() {
    // Several rendezvous transfers matched at the instant of suspension:
    // the drain's settle-recheck must wait for the full CTS/bulk chains.
    let mut sim = Simulation::new(3);
    let size = 4;
    let job = setup(&sim, size, 1);
    for r in 0..size / 2 {
        let j = job.clone();
        sim.spawn(&format!("tx{r}"), move |ctx| {
            let mut rk = j.attach(r);
            ctx.sleep(ms(1));
            rk.send(ctx, r + 2, 9, 20_000_000); // ~14 ms of wire each
        });
        let j = job.clone();
        sim.spawn(&format!("rx{r}"), move |ctx| {
            let mut rk = j.attach(r + 2);
            ctx.sleep(ms(2));
            rk.recv(ctx, r, 9);
        });
    }
    let j = job.clone();
    sim.spawn("cr-all", move |ctx| {
        ctx.sleep(ms(3)); // mid-handshake
        for r in 0..size {
            let cr = j.cr(r);
            cr.suspend_and_drain(ctx);
        }
        assert_eq!(j.inflight(), 0, "drain must have fully settled");
        for r in 0..size {
            let cr = j.cr(r);
            cr.rebuild_endpoints(ctx, true);
            cr.reopen();
        }
    });
    sim.run().unwrap();
    assert_eq!(job.stats().messages, 2);
}

#[test]
fn repeated_suspend_resume_cycles() {
    let mut sim = Simulation::new(4);
    let size = 4;
    let job = setup(&sim, size, 2);
    let rounds = Arc::new(AtomicU64::new(0));
    for r in 0..size {
        let j = job.clone();
        let rd = rounds.clone();
        sim.spawn(&format!("r{r}"), move |ctx| {
            let mut rk = j.attach(r);
            for it in 0..50 {
                rk.compute(ctx, ms(10));
                rk.barrier(ctx, it);
                rk.op_boundary(Bytes::new());
            }
            rd.fetch_add(1, Ordering::SeqCst);
        });
    }
    let j = job.clone();
    sim.spawn("cr-cycler", move |ctx| {
        for _ in 0..5 {
            ctx.sleep(ms(87));
            for r in 0..size {
                j.cr(r).suspend_and_drain(ctx);
            }
            ctx.sleep(ms(20)); // suspension window
            for r in 0..size {
                let cr = j.cr(r);
                cr.rebuild_endpoints(ctx, true);
                cr.reopen();
            }
        }
    });
    sim.run().unwrap();
    assert_eq!(rounds.load(Ordering::SeqCst), size as u64);
}

#[test]
fn capture_and_restore_meta_roundtrip() {
    let mut sim = Simulation::new(5);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut rk = j.attach(0);
        rk.set_segments(vec![blcrsim::Segment {
            kind: blcrsim::SegmentKind::Heap,
            data: ibfabric::DataSlice::pattern(1, 0, 1000),
        }]);
        rk.op_boundary(Bytes::from_static(b"iter=9"));
        rk.compute(ctx, ms(1));
        rk.compute(ctx, ms(1));
        // capture mid-iteration state
        let cr = j.cr(0);
        let meta = cr.capture_meta();
        assert_eq!(meta.app_state.as_ref(), b"iter=9");
        assert_eq!(meta.completed_ops, 2);
        assert_eq!(meta.segments.len(), 1);
        // restore into the rank (as a restart would)
        cr.restore_meta(meta);
        let mut rk2 = j.attach(0);
        let t0 = ctx.now();
        rk2.compute(ctx, ms(1)); // skipped
        rk2.compute(ctx, ms(1)); // skipped
        assert_eq!(ctx.now(), t0);
        rk2.compute(ctx, ms(1)); // executes
        assert_eq!((ctx.now() - t0).as_millis(), 1);
    });
    sim.run().unwrap();
}

#[test]
fn eager_threshold_boundary() {
    let mut sim = Simulation::new(6);
    let job = setup(&sim, 2, 1);
    let thr = job.config().eager_threshold;
    let j = job.clone();
    sim.spawn("tx", move |ctx| {
        let mut rk = j.attach(0);
        rk.send(ctx, 1, 1, thr); // exactly at threshold: eager
        rk.send(ctx, 1, 2, thr + 1); // one past: rendezvous
    });
    let j = job.clone();
    sim.spawn("rx", move |ctx| {
        let mut rk = j.attach(1);
        assert_eq!(rk.recv(ctx, 0, 1), thr);
        assert_eq!(rk.recv(ctx, 0, 2), thr + 1);
    });
    sim.run().unwrap();
    let st = job.stats();
    assert_eq!(st.messages, 2);
    assert_eq!(st.rendezvous, 1);
}
