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

/// Finish instants (ns) of flows of `bytes` that all start at t = 0 on one
/// fair link of `cap` bytes/s, computed as a FlowNet that recomputed rates
/// on every arrival and departure would: the same float arithmetic,
/// applied at each distinct finish instant.
fn eager_finishes(cap: f64, bytes: &[u64]) -> Vec<u64> {
    struct F {
        left: f64,
        since: u64,
        rate: f64,
        finish: u64,
    }
    let mut flows: Vec<Option<F>> = bytes
        .iter()
        .map(|&b| {
            Some(F {
                left: b as f64,
                since: 0,
                rate: 0.0,
                finish: u64::MAX,
            })
        })
        .collect();
    let mut done = vec![0; bytes.len()];
    let mut now = 0u64;
    loop {
        let n = flows.iter().flatten().count();
        if n == 0 {
            return done;
        }
        let share = cap / n as f64;
        for f in flows.iter_mut().flatten() {
            if f.rate.to_bits() != share.to_bits() {
                let dt = (now - f.since) as f64 / 1e9;
                f.left = (f.left - f.rate * dt).max(0.0);
                f.since = now;
                f.rate = share;
                f.finish = now + secs_f64(f.left / share).as_nanos() as u64;
            }
        }
        now = flows.iter().flatten().map(|f| f.finish).min().unwrap();
        for (i, slot) in flows.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|f| f.finish == now) {
                *slot = None;
                done[i] = now;
            }
        }
    }
}

#[test]
fn same_instant_joins_cost_one_recompute() {
    // Eight flows of different sizes join one link at t = 0: their rates
    // are recomputed once, before the clock moves, and each flow then
    // finishes at the nanosecond that per-event recomputes give.
    const CAP: f64 = 100e6;
    let bytes: Vec<u64> = (1..=8).map(|i| i * 3_000_001).collect();
    let want = eager_finishes(CAP, &bytes);
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let net = FlowNet::new(&h);
    let l = net.add_link("l", CAP, Sharing::Fair);
    let finish: Arc<Vec<AtomicU64>> = Arc::new(bytes.iter().map(|_| AtomicU64::new(0)).collect());
    for (i, &b) in bytes.iter().enumerate() {
        let (n, f) = (net.clone(), finish.clone());
        sim.spawn(&format!("f{i}"), move |ctx| {
            n.transfer(ctx, &[l], b);
            f[i].store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
    }
    let after_joins = Arc::new(AtomicU64::new(0));
    let seen = after_joins.clone();
    sim.spawn("watch", move |ctx| {
        ctx.sleep(ns(1));
        seen.store(ctx.handle().hot_stats().flow_recomputes, Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(after_joins.load(Ordering::SeqCst), 1);
    let got: Vec<u64> = finish.iter().map(|f| f.load(Ordering::SeqCst)).collect();
    assert_eq!(got, want);
    // One settle for the joins and one after each departure but the last.
    assert_eq!(h.hot_stats().flow_recomputes, 8);
}

#[test]
fn flow_settles_have_their_own_profile_category() {
    // Eight same-instant joins force a settle before the clock moves;
    // armed profiling charges it to `settle_ns`, disarmed to nothing.
    for prof in [true, false] {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        h.set_prof(prof);
        let net = FlowNet::new(&h);
        let l = net.add_link("l", 100e6, Sharing::Fair);
        for i in 0..8u64 {
            let n = net.clone();
            sim.spawn(&format!("f{i}"), move |ctx| {
                n.transfer(ctx, &[l], (i + 1) << 20)
            });
        }
        sim.run().unwrap();
        let settle_ns = h.hot_stats().settle_ns;
        assert_eq!(settle_ns > 0, prof, "prof {prof}: settle_ns {settle_ns}");
    }
}

#[test]
fn same_instant_departures_complete_at_that_instant() {
    // Sixteen equal flows start together and so finish together. Every
    // owner wakes at the shared finish nanosecond, and no recompute runs
    // between their departures: the clock does not move until all of
    // them have left.
    const N: u64 = 16;
    const BYTES: u64 = 1_000_003;
    const CAP: f64 = 125e6;
    let want = secs_f64(BYTES as f64 / (CAP / N as f64)).as_nanos() as u64;
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let net = FlowNet::new(&h);
    let l = net.add_link("l", CAP, Sharing::Fair);
    let seen: Arc<Vec<(AtomicU64, AtomicU64)>> = Arc::new(
        (0..N)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect(),
    );
    for i in 0..N as usize {
        let (n, s) = (net.clone(), seen.clone());
        sim.spawn(&format!("f{i}"), move |ctx| {
            n.transfer(ctx, &[l], BYTES);
            s[i].0.store(ctx.now().as_nanos(), Ordering::SeqCst);
            let recomputes = ctx.handle().hot_stats().flow_recomputes;
            s[i].1.store(recomputes, Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    for (i, (t, recomputes)) in seen.iter().enumerate() {
        assert_eq!(t.load(Ordering::SeqCst), want, "flow {i}");
        assert_eq!(recomputes.load(Ordering::SeqCst), 1, "flow {i}");
    }
    // The joins' settle, then one for the departures, over no flows.
    assert_eq!(h.hot_stats().flow_recomputes, 2);
    assert_eq!(h.hot_stats().flow_retimes, N);
    assert_eq!(net.bytes_completed_on(l), N * BYTES);
}

#[test]
fn joins_then_run_until_settle_at_that_instant() {
    // A flow joins at t = 1 ms with a far-off timer pending. `run_until`
    // stops at a limit with the net stale: it must settle at 1 ms, before
    // it moves the clock to the limit, not when the next run resumes.
    const BYTES: u64 = 40_000_000;
    const CAP: f64 = 100e6;
    let want = 1_000_000 + secs_f64(BYTES as f64 / CAP).as_nanos() as u64;
    for limit in [ms(1), ms(2)] {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let net = FlowNet::new(&h);
        let l = net.add_link("l", CAP, Sharing::Fair);
        sim.spawn_daemon("far", |ctx| ctx.sleep(secs(100)));
        let done = Arc::new(AtomicU64::new(0));
        let (n, d) = (net.clone(), done.clone());
        sim.spawn("tx", move |ctx| {
            ctx.sleep(ms(1));
            n.transfer(ctx, &[l], BYTES);
            d.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        let limit = simkit::SimTime::ZERO + limit;
        sim.run_until(limit).unwrap();
        assert_eq!(sim.now(), limit);
        let hot = h.hot_stats();
        assert_eq!((hot.flow_recomputes, hot.flow_retimes), (1, 1));
        sim.run_until(simkit::SimTime::ZERO + secs(1)).unwrap();
        assert_eq!(done.load(Ordering::SeqCst), want, "limit {limit:?}");
    }
}

#[test]
fn killing_an_owner_of_a_stale_net_frees_its_links_at_the_kill_instant() {
    // At t = 1 s, X joins link l, a killer kills X, and Y joins l, all
    // before the net is settled. X unwinds at 1 s and gives up l there,
    // so Y runs alone from 1 s on.
    const BYTES: u64 = 50_000_000;
    const CAP: f64 = 100e6;
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let l = net.add_link("l", CAP, Sharing::Fair);
    let n1 = net.clone();
    let x = sim.spawn("x", move |ctx| {
        ctx.sleep(secs(1));
        n1.transfer(ctx, &[l], BYTES);
        unreachable!();
    });
    let x2 = x.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(secs(1));
        x2.kill();
    });
    let y_done = Arc::new(AtomicU64::new(0));
    let (n2, done) = (net.clone(), y_done.clone());
    sim.spawn("y", move |ctx| {
        ctx.sleep(secs(1));
        n2.transfer(ctx, &[l], BYTES);
        done.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    sim.run_until(simkit::SimTime::from_nanos(1_000_000_000))
        .unwrap();
    assert!(x.is_dead(), "killed owner kept its flow past the kill");
    assert_eq!(net.active_on(l), 1);
    sim.run().unwrap();
    let want = 1_000_000_000 + secs_f64(BYTES as f64 / CAP).as_nanos() as u64;
    assert_eq!(y_done.load(Ordering::SeqCst), want);
    assert_eq!(net.bytes_completed_on(l), BYTES);
}

#[test]
#[should_panic(expected = "degradation factor must be finite and non-negative")]
fn negative_degradation_factor_is_refused() {
    // A negative factor would let a departure lower the other flows'
    // shares, and a departure-only net's due wakes pop unsettled.
    let sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    net.add_link("disk", 100e6, Sharing::Degraded { alpha: -0.1 });
}

#[test]
fn join_at_a_flows_finish_instant_settles_it_before_its_wake_pops() {
    // A's 1,001 bytes at 2.5 B/ns take 400.4 ns, so its wake is at 400 ns
    // with a byte left. B joins at 400 ns, before A's wake pops, and halves
    // A's rate: A's last byte then takes 0.8 ns, and it finishes at 401 ns,
    // as a recompute on B's arrival gives. A join must settle the net
    // before its due wakes pop.
    const CAP: f64 = 2.5e9;
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let l = net.add_link("l", CAP, Sharing::Fair);
    let a_done = Arc::new(AtomicU64::new(0));
    // B's sleep is scheduled before A's completion wake, so B runs first
    // at 400 ns.
    let n2 = net.clone();
    sim.spawn("b", move |ctx| {
        ctx.sleep(ns(400));
        n2.transfer(ctx, &[l], 1_000);
    });
    let (n1, done) = (net.clone(), a_done.clone());
    sim.spawn("a", move |ctx| {
        n1.transfer(ctx, &[l], 1_001);
        done.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(a_done.load(Ordering::SeqCst), 401);
}
