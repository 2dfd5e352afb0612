//! FlowNet: multi-link fluid flows with min-share rates.

use simkit::dur::*;
use simkit::{FlowNet, Sharing, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn single_link_flow_matches_link_semantics() {
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let l = net.add_link("a", 100e6, Sharing::Fair);
    let n2 = net.clone();
    sim.spawn("tx", move |ctx| {
        n2.transfer(ctx, &[l], 50_000_000);
        assert!((ctx.now().as_secs_f64() - 0.5).abs() < 1e-6);
    });
    sim.run().unwrap();
    assert_eq!(net.bytes_completed_on(l), 50_000_000);
    assert_eq!(net.active_on(l), 0);
}

#[test]
fn rate_is_min_across_links() {
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let fast = net.add_link("fast", 1000e6, Sharing::Fair);
    let slow = net.add_link("slow", 100e6, Sharing::Fair);
    let n2 = net.clone();
    sim.spawn("tx", move |ctx| {
        n2.transfer(ctx, &[fast, slow], 100_000_000);
        // bottlenecked by the 100 MB/s link
        assert!((ctx.now().as_secs_f64() - 1.0).abs() < 1e-6);
    });
    sim.run().unwrap();
}

#[test]
fn many_to_one_contends_at_receiver() {
    // 4 senders, each with a private 1 GB/s tx link, all into one 100 MB/s
    // rx link: each flow gets 25 MB/s.
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let rx = net.add_link("rx", 100e6, Sharing::Fair);
    let finish = Arc::new(AtomicU64::new(0));
    for i in 0..4 {
        let tx = net.add_link(&format!("tx{i}"), 1000e6, Sharing::Fair);
        let n = net.clone();
        let f = finish.clone();
        sim.spawn(&format!("s{i}"), move |ctx| {
            n.transfer(ctx, &[tx, rx], 25_000_000);
            f.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    let t = finish.load(Ordering::SeqCst) as f64 / 1e9;
    assert!((t - 1.0).abs() < 1e-3, "finished at {t}");
}

#[test]
fn disjoint_paths_do_not_interfere() {
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let a = net.add_link("a", 100e6, Sharing::Fair);
    let b = net.add_link("b", 100e6, Sharing::Fair);
    for (i, l) in [a, b].into_iter().enumerate() {
        let n = net.clone();
        sim.spawn(&format!("s{i}"), move |ctx| {
            n.transfer(ctx, &[l], 100_000_000);
            assert!((ctx.now().as_secs_f64() - 1.0).abs() < 1e-6);
        });
    }
    sim.run().unwrap();
}

#[test]
fn departure_releases_capacity_on_shared_link() {
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let shared = net.add_link("shared", 100e6, Sharing::Fair);
    let n1 = net.clone();
    sim.spawn("short", move |ctx| {
        n1.transfer(ctx, &[shared], 25_000_000); // 50 MB/s → 0.5 s
        assert!((ctx.now().as_secs_f64() - 0.5).abs() < 1e-6);
    });
    let n2 = net.clone();
    sim.spawn("long", move |ctx| {
        n2.transfer(ctx, &[shared], 75_000_000);
        // 25 MB in first 0.5 s, then full rate: 0.5 + 0.5 = 1.0 s
        assert!((ctx.now().as_secs_f64() - 1.0).abs() < 1e-6);
    });
    sim.run().unwrap();
}

#[test]
fn killed_flow_releases_all_links() {
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let a = net.add_link("a", 100e6, Sharing::Fair);
    let b = net.add_link("b", 100e6, Sharing::Fair);
    let n1 = net.clone();
    let doomed = sim.spawn("doomed", move |ctx| {
        n1.transfer(ctx, &[a, b], u64::MAX / 4);
        unreachable!();
    });
    let d2 = doomed.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(10));
        d2.kill();
        ctx.sleep(ms(1));
    });
    sim.run().unwrap();
    assert_eq!(net.active_on(a), 0);
    assert_eq!(net.active_on(b), 0);
    assert_eq!(net.bytes_completed_on(a), 0, "aborted flow does not count");
}

#[test]
fn degraded_link_in_path() {
    // A disk-like degraded link shared by two flows that also cross private
    // fast links: aggregate = 100/(1+0.5) ≈ 66.7 MB/s → 33.3 MB/s each.
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let disk = net.add_link("disk", 100e6, Sharing::Degraded { alpha: 0.5 });
    for i in 0..2 {
        let private = net.add_link(&format!("p{i}"), 1000e6, Sharing::Fair);
        let n = net.clone();
        sim.spawn(&format!("s{i}"), move |ctx| {
            n.transfer(ctx, &[private, disk], 33_333_333);
            let t = ctx.now().as_secs_f64();
            assert!((t - 1.0).abs() < 1e-3, "finished at {t}");
        });
    }
    sim.run().unwrap();
}

#[test]
fn unchanged_rate_keeps_exact_finish_and_single_wake() {
    // A flow on link A while a second flow starts and ends on disjoint
    // link B: A's rate never changes, so its finish instant is computed
    // once, at its start, and is met to the nanosecond. Another process
    // sleeps until that same nanosecond; a timer tie must not force A's
    // wake to be pushed again.
    const BYTES: u64 = 10_000_000;
    const CAP: f64 = 7e6;
    let want = secs_f64(BYTES as f64 / CAP).as_nanos() as u64;
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    sim.spawn("tie", move |ctx| ctx.sleep(ns(want)));
    let net = FlowNet::new(&h);
    let a = net.add_link("a", CAP, Sharing::Fair);
    let b = net.add_link("b", 3e6, Sharing::Fair);
    let finish = Arc::new(AtomicU64::new(0));
    let (n1, f1) = (net.clone(), finish.clone());
    sim.spawn("on_a", move |ctx| {
        n1.transfer(ctx, &[a], BYTES);
        f1.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    let side_retimes = Arc::new(AtomicU64::new(0));
    let (n2, s2) = (net.clone(), side_retimes.clone());
    sim.spawn("on_b", move |ctx| {
        ctx.sleep(ns(333_333_337));
        let before = ctx.handle().hot_stats().flow_retimes;
        n2.transfer(ctx, &[b], 1_234_567);
        s2.store(
            ctx.handle().hot_stats().flow_retimes - before,
            Ordering::SeqCst,
        );
    });
    sim.run().unwrap();
    assert_eq!(finish.load(Ordering::SeqCst), want);
    // B's start and end retime only B's own flow; A was scheduled once.
    assert_eq!(side_retimes.load(Ordering::SeqCst), 1);
    assert_eq!(h.hot_stats().flow_retimes, 2);
}

#[test]
fn flow_start_does_not_delay_a_pending_kill() {
    // A kills X mid-transfer at t = 1 s. B, whose wake at that instant
    // was scheduled before X's kill wake, runs first and starts a flow on
    // X's link. The recompute must leave X's kill wake alone: X unwinds
    // at 1 s, and B has the whole link from then on.
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let l = net.add_link("l", 100e6, Sharing::Fair);
    let n1 = net.clone();
    let x = sim.spawn("x", move |ctx| {
        n1.transfer(ctx, &[l], 1_000_000_000);
        unreachable!();
    });
    let x2 = x.clone();
    sim.spawn("a", move |ctx| {
        ctx.sleep(secs(1));
        x2.kill();
    });
    let b_done = Arc::new(AtomicU64::new(0));
    let (n2, done) = (net.clone(), b_done.clone());
    sim.spawn("b", move |ctx| {
        ctx.sleep(secs(1));
        n2.transfer(ctx, &[l], 100_000_000);
        done.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    sim.run_until(simkit::SimTime::from_nanos(1_000_000_000))
        .unwrap();
    assert!(x.is_dead(), "killed owner kept its flow past the kill");
    assert_eq!(net.active_on(l), 1);
    sim.run().unwrap();
    assert_eq!(b_done.load(Ordering::SeqCst), 2_000_000_000);
    assert_eq!(net.bytes_completed_on(l), 100_000_000);
}
