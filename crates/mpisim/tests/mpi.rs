//! MPI runtime semantics: protocols, collectives, the suspend/drain cycle
//! and replay safety.

use bytes::Bytes;
use ibfabric::{IbConfig, IbFabric, NodeId};
use mpisim::{MpiConfig, MpiJob};
use simkit::dur::*;
use simkit::{Event, SimTime, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Build a job of `size` ranks, `ppn` per node, endpoints up and gates
/// open (what the launcher does at startup).
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
fn eager_send_recv() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 1, 7, 4096);
    });
    let j = job.clone();
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        let n = r.recv(ctx, 0, 7);
        g.store(n, Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(got.load(Ordering::SeqCst), 4096);
    let st = job.stats();
    assert_eq!(st.messages, 1);
    assert_eq!(st.rendezvous, 0);
}

#[test]
fn large_message_takes_rendezvous_path() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 1, 7, 1 << 20);
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        // Delay posting the receive: the RTS must wait, then match.
        ctx.sleep(ms(5));
        let n = r.recv(ctx, 0, 7);
        assert_eq!(n, 1 << 20);
        // Bulk (1 MiB / 1.4 GB/s ≈ 0.75 ms) lands after the 5 ms post.
        let t = ctx.now().as_micros();
        assert!((5700..6100).contains(&t), "completed at {t} us");
    });
    sim.run().unwrap();
    assert_eq!(job.stats().rendezvous, 1);
}

#[test]
fn messages_with_different_tags_do_not_cross() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 1, 100, 10);
        r.send(ctx, 1, 200, 20);
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        // receive in reverse tag order
        assert_eq!(r.recv(ctx, 0, 200), 20);
        assert_eq!(r.recv(ctx, 0, 100), 10);
    });
    sim.run().unwrap();
}

#[test]
fn exchange_is_deadlock_free_with_rendezvous_sizes() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    for r in 0..2 {
        let j = job.clone();
        sim.spawn(&format!("r{r}"), move |ctx| {
            let mut rk = j.attach(r);
            let peer = 1 - r;
            let got = rk.exchange(ctx, peer, 5, 1 << 20); // > eager threshold
            assert_eq!(got, 1 << 20);
        });
    }
    sim.run().unwrap();
    assert_eq!(job.stats().messages, 2);
}

#[test]
fn barrier_synchronises_all_ranks() {
    let mut sim = Simulation::new(0);
    let size = 16;
    let job = setup(&sim, size, 4);
    let latest_arrival = Arc::new(AtomicU64::new(0));
    let release = Arc::new(AtomicU64::new(0));
    for r in 0..size {
        let j = job.clone();
        let la = latest_arrival.clone();
        let rel = release.clone();
        sim.spawn(&format!("r{r}"), move |ctx| {
            let mut rk = j.attach(r);
            ctx.sleep(ms(r as u64)); // stagger arrivals: slowest at 15 ms
            la.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
            rk.barrier(ctx, 1);
            // nobody may leave before the last arrival
            assert!(ctx.now().as_nanos() >= la.load(Ordering::SeqCst));
            rel.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    assert_eq!(release.load(Ordering::SeqCst), size as u64);
}

#[test]
fn allreduce_and_bcast_complete() {
    let mut sim = Simulation::new(0);
    let size = 8;
    let job = setup(&sim, size, 2);
    let done = Arc::new(AtomicU64::new(0));
    for r in 0..size {
        let j = job.clone();
        let d = done.clone();
        sim.spawn(&format!("r{r}"), move |ctx| {
            let mut rk = j.attach(r);
            rk.allreduce(ctx, 1, 8);
            rk.bcast(ctx, 2, 4096);
            rk.allreduce(ctx, 3, 8); // consecutive epochs must not cross
            d.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    assert_eq!(done.load(Ordering::SeqCst), size as u64);
}

#[test]
fn suspend_drains_inflight_and_invalidates_endpoints() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    sim.spawn("sender", move |ctx| {
        let mut r = j.attach(0);
        ctx.sleep(ms(1));
        // 14 MB eager-threshold-exceeding... use eager-sized via config?
        // Use a rendezvous send matched immediately by the receiver below.
        r.send(ctx, 1, 9, 14_000_000);
    });
    let j = job.clone();
    sim.spawn("receiver", move |ctx| {
        let mut r = j.attach(1);
        let n = r.recv(ctx, 0, 9);
        assert_eq!(n, 14_000_000);
    });
    let j = job.clone();
    sim.spawn("cr0", move |ctx| {
        let cr = j.cr(0);
        ctx.sleep(ms(2)); // mid-bulk (bulk takes ~10 ms)
        let t0 = ctx.now();
        let report = cr.suspend_and_drain(ctx);
        // drain had to wait for the bulk to finish (~10 ms total)
        let waited = (ctx.now() - t0).as_secs_f64();
        assert!(waited > 0.005, "drain returned too early ({waited}s)");
        assert_eq!(report.qps_destroyed, 1);
        assert_eq!(report.mrs_deregistered, 1);
        assert!(!cr.has_endpoints());
        assert_eq!(j.inflight(), 0);
        // Phase 4: rebuild and reopen
        cr.rebuild_endpoints(ctx, true);
        cr.reopen();
        assert!(cr.has_endpoints());
        assert!(cr.is_open());
    });
    sim.run().unwrap();
}

#[test]
fn gate_blocks_new_sends_during_suspension() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let h = sim.handle();
    let resumed = Event::new(&h, "resumed");

    let j = job.clone();
    let res = resumed.clone();
    sim.spawn("cr", move |ctx| {
        ctx.sleep(ms(1));
        let cr0 = j.cr(0);
        let cr1 = j.cr(1);
        cr0.suspend_and_drain(ctx);
        cr1.suspend_and_drain(ctx);
        ctx.sleep(ms(50)); // suspension window
        cr0.rebuild_endpoints(ctx, true);
        cr1.rebuild_endpoints(ctx, true);
        cr0.reopen();
        cr1.reopen();
        res.set();
    });
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        ctx.sleep(ms(2)); // gate now closed
        r.send(ctx, 1, 3, 100); // must park until reopen (t≈51ms+)
        assert!(
            ctx.now().as_millis() >= 51,
            "sent at {}ms",
            ctx.now().as_millis()
        );
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        assert_eq!(r.recv(ctx, 0, 3), 100);
    });
    sim.run().unwrap();
    assert!(resumed.is_set());
}

#[test]
fn replay_skips_completed_ops() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    // Rank 0 "original run": completes 2 ops (compute + send) of a
    // 4-op iteration, then "dies". Rank 1 consumes the send.
    let j = job.clone();
    sim.spawn("r0-original", move |ctx| {
        let mut r = j.attach(0);
        r.compute(ctx, ms(3));
        r.send(ctx, 1, 11, 256);
        // pretend the process dies here, before ops 2 and 3
    });
    let j = job.clone();
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        let a = r.recv(ctx, 0, 11); // from original run
        let b = r.recv(ctx, 0, 12); // only the replayed run sends this
        s2.store(a + b, Ordering::SeqCst);
    });
    let j = job.clone();
    sim.spawn("r0-replay", move |ctx| {
        ctx.sleep(ms(20));
        // capture + restore meta, as the migration framework does
        let cr = j.cr(0);
        let meta = cr.capture_meta();
        assert_eq!(meta.completed_ops, 2);
        cr.restore_meta(meta);
        let mut r = j.attach(0);
        let t0 = ctx.now();
        // replay the same iteration from the top:
        r.compute(ctx, ms(3)); // skipped (no time passes)
        r.send(ctx, 1, 11, 256); // skipped (no duplicate delivery)
        assert_eq!(ctx.now(), t0, "skipped ops must cost nothing");
        r.send(ctx, 1, 12, 512); // executes
        r.op_boundary(Bytes::from_static(b"iter=1"));
    });
    sim.run().unwrap();
    assert_eq!(sum.load(Ordering::SeqCst), 256 + 512, "no dup, no loss");
    assert_eq!(job.stats().messages, 2, "exactly two real sends");
}

#[test]
fn purge_removes_unmatched_rts_only() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 3, 1);
    let j = job.clone();
    sim.spawn("sender", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 2, 5, 100); // eager: must survive purge
                                // rendezvous RTS that will never be matched pre-"migration":
                                // issued from a helper thread to avoid blocking this one.
    });
    let j = job.clone();
    let doomed = sim.spawn("doomed-sender", move |ctx| {
        let mut r = j.attach(1);
        r.send(ctx, 2, 6, 1 << 20); // parks waiting for CTS
        unreachable!("never matched");
    });
    let j = job.clone();
    sim.spawn("driver", move |ctx| {
        ctx.sleep(ms(5));
        doomed.kill(); // the "migration" kills the parked sender
        j.purge_stale_rts_from(1);
        // rank 2 now receives: the eager from 0 is intact...
        let mut r = j.attach(2);
        assert_eq!(r.recv(ctx, 0, 5), 100);
        // ...and the stale RTS from 1 is gone: a fresh (replayed) send
        // from rank 1 matches instead of the corpse's token.
        let j2 = j.clone();
        ctx.spawn("r1-replay", move |ctx| {
            let mut r1 = j2.attach(1);
            r1.send(ctx, 2, 6, 1 << 20);
        });
        assert_eq!(r.recv(ctx, 1, 6), 1 << 20);
    });
    sim.run().unwrap();
}

#[test]
fn drained_matching_queues_are_freed() {
    const SIZE: u32 = 4;
    const ITERS: u64 = 6;
    let mut sim = Simulation::new(0);
    let job = setup(&sim, SIZE, 1);
    for rank in 0..SIZE {
        let j = job.clone();
        sim.spawn(&format!("r{rank}"), move |ctx| {
            let mut r = j.attach(rank);
            let right = (rank + 1) % SIZE;
            let left = (rank + SIZE - 1) % SIZE;
            for it in 0..ITERS {
                // Eager ring: every rank sends before it receives.
                r.send(ctx, right, it, 4096);
                assert_eq!(r.recv(ctx, left, it), 4096);
                // Rendezvous pairs, then a collective on the same epoch.
                r.exchange(ctx, rank ^ 1, 1000 + it, 1 << 20);
                r.allreduce(ctx, it, 64);
            }
        });
    }
    sim.run().unwrap();
    // Per iteration: the ring, the pairs, and a binomial reduce plus
    // broadcast of SIZE - 1 messages each.
    let per_iter = u64::from(SIZE + SIZE + 2 * (SIZE - 1));
    assert_eq!(job.stats().messages, ITERS * per_iter);
    for rank in 0..SIZE {
        assert_eq!(job.matching_queues(rank), 0, "rank {rank} kept queues");
    }
}

#[test]
fn eager_token_delivered_before_its_receive_is_matched() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        j.attach(0).send(ctx, 1, 3, 512);
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        ctx.sleep(ms(5));
        assert_eq!(j.matching_queues(1), 1, "the token waits in its queue");
        assert_eq!(j.attach(1).recv(ctx, 0, 3), 512);
        assert_eq!(j.matching_queues(1), 0);
    });
    sim.run().unwrap();
}

#[test]
fn rollback_purge_after_partial_consumption_drops_only_post_cut_tokens() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 1, 9, 100);
        r.send(ctx, 1, 9, 200);
        ctx.sleep(ms(10));
        r.send(ctx, 1, 9, 300); // after the cut
        r.send(ctx, 1, 4, 400); // after the cut, on a queue of its own
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        ctx.sleep(ms(1));
        assert_eq!(r.recv(ctx, 0, 9), 100); // partial: 200 stays queued
        ctx.sleep(ms(20));
        assert_eq!(j.matching_queues(1), 2);
        j.purge_rollback_all(SimTime::from_nanos(5_000_000));
        assert_eq!(j.matching_queues(1), 1, "tag 4 held only a post-cut token");
        assert_eq!(r.recv(ctx, 0, 9), 200);
        assert_eq!(j.matching_queues(1), 0, "the post-cut 300 was dropped");
    });
    sim.run().unwrap();
}

#[test]
fn rank_rehoming_moves_traffic_to_new_node() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let fabric_net = job.fabric().net().clone();
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 1, 1, 100_000);
        ctx.sleep(ms(10));
        // rank 1 migrates from node 1 to node 9
        j.set_rank_node(1, NodeId(9));
        r.send(ctx, 1, 2, 100_000);
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        r.recv(ctx, 0, 1);
        r.recv(ctx, 0, 2);
    });
    sim.run().unwrap();
    assert!(fabric_net.rx_bytes(NodeId(1)) >= 100_000);
    assert!(fabric_net.rx_bytes(NodeId(9)) >= 100_000);
}

#[test]
fn intra_node_messages_bypass_the_wire() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 2); // both ranks on node 0
    let j = job.clone();
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 1, 1, 1 << 20);
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        r.recv(ctx, 0, 1);
        // loopback: microseconds, not the ~750 µs wire time
        assert!(
            ctx.now().as_micros() < 100,
            "took {}us",
            ctx.now().as_micros()
        );
    });
    sim.run().unwrap();
    assert_eq!(job.fabric().net().tx_bytes(NodeId(0)), 0);
}

/// Dispatches of process `pid` so far.
fn dispatches(sim: &Simulation, pid: simkit::ProcId) -> u64 {
    sim.hot_stats()
        .per_proc
        .iter()
        .find(|&&(p, _)| p == pid.0)
        .map_or(0, |&(_, n)| n)
}

#[test]
fn a_receiver_killed_while_posted_leaves_no_stale_wake() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 2, 1);
    let j = job.clone();
    let doomed = sim.spawn("doomed-recv", move |ctx| {
        j.attach(1).recv(ctx, 0, 5);
        unreachable!("killed while posted on (0, 5)");
    });
    let j = job.clone();
    sim.spawn("sender", move |ctx| {
        let mut r = j.attach(0);
        ctx.sleep(us(1500));
        r.send(ctx, 1, 5, 100); // the corpse's pair, before anyone posts
        ctx.sleep(us(1500));
        r.send(ctx, 1, 5, 101); // the corpse's pair, the new receiver posted
        ctx.sleep(ms(2));
        r.send(ctx, 1, 6, 200);
    });
    let j = job.clone();
    let new_pid = Arc::new(AtomicU64::new(u64::MAX));
    let np = new_pid.clone();
    sim.spawn("driver", move |ctx| {
        ctx.sleep(ms(1));
        doomed.kill();
        ctx.sleep(ms(1));
        let j = j.clone();
        let fresh = ctx.spawn("fresh-recv", move |ctx| {
            let mut r = j.attach(1);
            assert_eq!(r.recv(ctx, 0, 6), 200);
            // Woken by the (0, 6) token, sent at 5 ms.
            let t = ctx.now() - SimTime::ZERO;
            assert!(t > ms(5) && t < ms(5) + us(100), "returned at {t:?}");
            assert_eq!((r.recv(ctx, 0, 5), r.recv(ctx, 0, 5)), (100, 101));
        });
        np.store(u64::from(fresh.pid().0), Ordering::SeqCst);
    });
    sim.run().unwrap();
    let fresh = simkit::ProcId(new_pid.load(Ordering::SeqCst) as u32);
    // Its first run, which parks, and the wake (0, 6) rang.
    assert_eq!(dispatches(&sim, fresh), 2, "a spurious wake");
    assert_eq!(job.matching_queues(1), 0);
}

#[test]
fn order_holds_per_pair_when_pairs_interleave() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 3, 1);
    for (src, sizes) in [(0, [10, 20, 30]), (2, [11, 21, 31])] {
        let j = job.clone();
        sim.spawn(&format!("s{src}"), move |ctx| {
            let mut r = j.attach(src);
            ctx.sleep(us(u64::from(src)));
            // Tags alternate 7, 8, 7 and both sources use both tags.
            for (i, bytes) in sizes.into_iter().enumerate() {
                r.send(ctx, 1, 7 + (i as u64 % 2), bytes);
                ctx.sleep(us(10));
            }
        });
    }
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        ctx.sleep(ms(1));
        assert_eq!(j.matching_queues(1), 4);
        let got: Vec<u64> = [(2, 7), (0, 8), (0, 7), (2, 7), (2, 8), (0, 7)]
            .into_iter()
            .map(|(src, tag)| r.recv(ctx, src, tag))
            .collect();
        assert_eq!(got, [11, 20, 10, 31, 21, 30]);
        assert_eq!(j.matching_queues(1), 0);
    });
    sim.run().unwrap();
}

#[test]
fn purges_filter_the_one_queue() {
    let mut sim = Simulation::new(0);
    let job = setup(&sim, 3, 1);
    let cut = SimTime::ZERO + ms(5);
    // A rendezvous from 2 on (2, 1), then a post-cut eager on the same
    // pair; a pre-cut eager on (0, 1), then a post-cut eager on (0, 2)
    // and a post-cut rendezvous on (0, 3).
    let j = job.clone();
    let rts2 = sim.spawn("rts2", move |ctx| j.attach(2).send(ctx, 1, 1, 1 << 20));
    let j = job.clone();
    sim.spawn("eager2", move |ctx| {
        ctx.sleep(ms(10));
        j.attach(2).send(ctx, 1, 1, 300);
    });
    let j = job.clone();
    sim.spawn("eager0", move |ctx| {
        let mut r = j.attach(0);
        r.send(ctx, 1, 1, 100);
        ctx.sleep(ms(10));
        r.send(ctx, 1, 2, 200);
    });
    let j = job.clone();
    let rts0 = sim.spawn("rts0", move |ctx| {
        ctx.sleep(ms(10));
        j.attach(0).send(ctx, 1, 3, 1 << 20);
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        ctx.sleep(ms(20));
        assert_eq!(j.matching_queues(1), 4);
        rts2.kill();
        j.purge_stale_rts_from(2);
        // Only the RTS from 2 went: its pair's eager is next in line.
        assert_eq!(j.matching_queues(1), 4);
        assert_eq!(r.recv(ctx, 2, 1), 300);
        assert_eq!(j.matching_queues(1), 3, "(0, 1), (0, 2) and (0, 3)");
        rts0.kill();
        j.purge_rollback_all(cut);
        assert_eq!(j.matching_queues(1), 1, "the pre-cut eager survives");
        assert_eq!(r.recv(ctx, 0, 1), 100);
        assert_eq!(j.matching_queues(1), 0);
    });
    sim.run().unwrap();
}
