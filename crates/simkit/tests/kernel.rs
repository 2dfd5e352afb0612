//! Scheduler semantics: ordering, determinism, kill, join, deadlock,
//! bounded runs.

use simkit::dur::*;
use simkit::{Ctx, Event, FlowNet, Queue, Sharing, SimError, SimTime, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn clock_starts_at_zero_and_advances_with_sleep() {
    let mut sim = Simulation::new(0);
    assert_eq!(sim.now(), SimTime::ZERO);
    let log = Arc::new(AtomicU64::new(0));
    let l2 = log.clone();
    sim.spawn("sleeper", move |ctx| {
        ctx.sleep(ms(3));
        l2.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(log.load(Ordering::SeqCst), 3_000_000);
    assert_eq!(sim.now().as_millis(), 3);
}

#[test]
fn same_time_events_run_in_spawn_order() {
    let mut sim = Simulation::new(0);
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..5 {
        let order = order.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.sleep(ms(10)); // all wake at exactly t=10ms
            order.lock().push(i);
        });
    }
    sim.run().unwrap();
    assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn nested_spawn_runs_at_current_instant() {
    let mut sim = Simulation::new(0);
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    sim.spawn("parent", move |ctx| {
        ctx.sleep(ms(5));
        let s3 = s2.clone();
        let child = ctx.spawn("child", move |cctx| {
            s3.store(cctx.now().as_millis(), Ordering::SeqCst);
        });
        ctx.join(&child);
        assert!(child.is_dead());
    });
    sim.run().unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), 5);
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run_once(seed: u64) -> Vec<(u64, u32)> {
        let mut sim = Simulation::new(seed);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..8u32 {
            let log = log.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..5 {
                    let jitter = ctx.with_rng(|r| rand::Rng::gen_range(r, 1..1000u64));
                    ctx.sleep(us(jitter));
                    log.lock().push((ctx.now().as_nanos(), i));
                }
            });
        }
        sim.run().unwrap();
        let v = log.lock().clone();
        v
    }
    let a = run_once(42);
    let b = run_once(42);
    let c = run_once(43);
    assert_eq!(a, b, "same seed must give identical schedules");
    assert_ne!(a, c, "different seed should perturb the schedule");
}

#[test]
fn kill_unwinds_at_next_block_and_join_sees_death() {
    let mut sim = Simulation::new(0);
    let progressed = Arc::new(AtomicU64::new(0));
    let p2 = progressed.clone();
    let victim = sim.spawn("victim", move |ctx| {
        ctx.sleep(ms(1));
        p2.fetch_add(1, Ordering::SeqCst);
        ctx.sleep(secs(100)); // killed during this sleep
        p2.fetch_add(100, Ordering::SeqCst); // never reached
    });
    let v2 = victim.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(2));
        v2.kill();
        ctx.join(&v2);
        assert_eq!(ctx.now().as_millis(), 2, "kill takes effect immediately");
    });
    sim.run().unwrap();
    assert_eq!(progressed.load(Ordering::SeqCst), 1);
    assert!(victim.is_dead());
}

#[test]
fn exit_terminates_cleanly() {
    let mut sim = Simulation::new(0);
    let after = Arc::new(AtomicU64::new(0));
    let a2 = after.clone();
    sim.spawn("quitter", move |ctx| {
        ctx.sleep(ms(1));
        if ctx.now().as_millis() == 1 {
            ctx.exit();
        }
        a2.store(1, Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(after.load(Ordering::SeqCst), 0);
}

#[test]
fn proc_panic_surfaces_as_error() {
    let mut sim = Simulation::new(0);
    sim.spawn("bad", |ctx| {
        ctx.sleep(ms(1));
        panic!("intentional test panic");
    });
    match sim.run() {
        Err(SimError::ProcPanic { name, message, .. }) => {
            assert_eq!(name, "bad");
            assert!(message.contains("intentional test panic"));
        }
        other => panic!("expected ProcPanic, got {other:?}"),
    }
}

#[test]
fn a_process_spinning_on_a_set_event_ends_in_a_livelock_panic() {
    let mut sim = Simulation::new(0);
    let ev = Event::new(&sim.handle(), "stuck");
    ev.set();
    let waits = Arc::new(AtomicU64::new(0));
    let w = waits.clone();
    sim.spawn("spinner", move |ctx| {
        ctx.sleep(ms(2));
        // More kill points than the limit, blocking now and then: no
        // livelock.
        for i in 0..6_000_000u64 {
            ev.wait(ctx);
            if i % 1_000_000 == 0 {
                ctx.sleep(ns(1));
            }
        }
        loop {
            ev.wait(ctx);
            w.fetch_add(1, Ordering::Relaxed);
        }
    });
    match sim.run() {
        Err(SimError::ProcPanic { name, message, .. }) => {
            assert_eq!(name, "spinner");
            assert!(message.contains("livelock"), "{message}");
            assert!(message.contains("'spinner'"), "{message}");
            assert!(message.contains("t = 2.000ms"), "{message}");
        }
        other => panic!("expected ProcPanic, got {other:?}"),
    }
    assert!(waits.load(Ordering::Relaxed) > 1_000_000);
}

#[test]
fn relocking_a_mutex_held_across_a_block_panics_in_the_second_locker() {
    let mut sim = Simulation::new(0);
    let m = Arc::new(parking_lot::Mutex::new(0u64));
    let held = m.clone();
    sim.spawn("holder", move |ctx| {
        let mut g = held.lock();
        ctx.sleep(ms(5));
        *g += 1;
    });
    sim.spawn("locker", move |ctx| {
        ctx.sleep(ms(1));
        *m.lock() += 1;
    });
    match sim.run() {
        Err(SimError::ProcPanic { name, message, .. }) => {
            assert_eq!(name, "locker");
            assert!(message.contains("lock already held by this thread"));
        }
        other => panic!("expected ProcPanic, got {other:?}"),
    }
}

#[test]
fn deadlock_is_detected_and_named() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let never = Event::new(&h, "never");
    let n2 = never.clone();
    sim.spawn("stuck-a", move |ctx| n2.wait(ctx));
    let n3 = never.clone();
    sim.spawn("stuck-b", move |ctx| n3.wait(ctx));
    match sim.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            let names: Vec<_> = blocked.iter().map(|(_, n)| n.as_str()).collect();
            assert_eq!(names, vec!["stuck-a", "stuck-b"]);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn daemons_do_not_count_as_deadlock() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let q: Queue<u32> = Queue::new(&h);
    let q2 = q.clone();
    sim.spawn_daemon("service", move |ctx| loop {
        let _ = q2.pop(ctx);
    });
    sim.spawn("client", move |ctx| {
        ctx.sleep(ms(1));
        q.push(1);
        ctx.sleep(ms(1));
    });
    sim.run().unwrap();
    assert_eq!(sim.now().as_millis(), 2);
}

#[test]
fn run_until_stops_at_limit_and_resumes() {
    let mut sim = Simulation::new(0);
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    sim.spawn("ticker", move |ctx| {
        for _ in 0..10 {
            ctx.sleep(ms(10));
            h2.fetch_add(1, Ordering::SeqCst);
        }
    });
    sim.run_until(SimTime::from_nanos(35_000_000)).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 3);
    assert_eq!(sim.now().as_millis(), 35, "clock parks exactly at limit");
    sim.run().unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 10);
    assert_eq!(sim.now().as_millis(), 100);
}

#[test]
fn run_until_a_past_limit_leaves_the_clock_alone() {
    let mut sim = Simulation::new(0);
    let woke = Arc::new(AtomicU64::new(0));
    let w = woke.clone();
    sim.spawn_daemon("sleeper", move |ctx| {
        ctx.sleep(secs(100));
        w.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    sim.run_until(SimTime::ZERO + secs(5)).unwrap();
    sim.run_until(SimTime::ZERO + secs(1)).unwrap();
    assert_eq!(sim.now(), SimTime::ZERO + secs(5), "clock moved backwards");
    sim.run_until(SimTime::ZERO + secs(200)).unwrap();
    assert_eq!(woke.load(Ordering::SeqCst), secs(100).as_nanos() as u64);
}

#[test]
fn run_for_advances_relative() {
    let mut sim = Simulation::new(0);
    sim.spawn("s", |ctx| ctx.sleep(secs(10)));
    sim.run_for(secs(1)).unwrap();
    assert_eq!(sim.now().as_millis(), 1000);
    sim.run_for(secs(1)).unwrap();
    assert_eq!(sim.now().as_millis(), 2000);
}

#[test]
fn join_on_already_dead_returns_immediately() {
    let mut sim = Simulation::new(0);
    let quick = sim.spawn("quick", |_| {});
    sim.spawn("joiner", move |ctx| {
        ctx.sleep(ms(5));
        ctx.join(&quick);
        assert_eq!(ctx.now().as_millis(), 5);
    });
    sim.run().unwrap();
}

#[test]
fn many_processes_scale() {
    let mut sim = Simulation::new(0);
    let count = Arc::new(AtomicU64::new(0));
    for i in 0..300 {
        let c = count.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.sleep(us(i));
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 300);
}

#[test]
fn kill_before_first_run_never_executes_body() {
    let mut sim = Simulation::new(0);
    let ran = Arc::new(AtomicU64::new(0));
    let r2 = ran.clone();
    let p = sim.spawn("unborn", move |_| {
        r2.store(1, Ordering::SeqCst);
    });
    p.kill();
    sim.run().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    assert!(p.is_dead());
}

#[test]
fn tracer_records_lifecycle() {
    let mut sim = Simulation::new(0);
    sim.handle().tracer().set_enabled(true);
    sim.spawn("a", |ctx| ctx.sleep(ms(1)));
    sim.run().unwrap();
    let msgs: Vec<String> = sim
        .handle()
        .tracer()
        .drain_events()
        .into_iter()
        .filter(|e| e.kind == simkit::EventKind::Message)
        .map(|e| e.name)
        .collect();
    assert!(msgs.iter().any(|m| m.contains("spawned 'a'")));
    assert!(msgs.iter().any(|m| m == "finished"));
}

#[test]
fn every_process_runs_on_the_driving_thread() {
    let mut sim = Simulation::new(0);
    let driver = std::thread::current().id();
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..4 {
        let seen = seen.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            seen.lock().push(std::thread::current().id());
            ctx.sleep(ms(1));
            seen.lock().push(std::thread::current().id());
        });
    }
    sim.run().unwrap();
    let seen = seen.lock();
    assert_eq!(seen.len(), 8);
    assert!(seen.iter().all(|&t| t == driver));
}

#[test]
fn dropping_a_simulation_mid_run_releases_every_capture() {
    let token = Arc::new(());
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let link = net.add_link("wire", 1e6, Sharing::Fair);
    let queue: Queue<u32> = Queue::new(&sim.handle());
    let t = token.clone();
    sim.spawn("sender", move |ctx| {
        let _held = t;
        net.transfer(ctx, &[link], 1 << 40);
    });
    let t = token.clone();
    sim.spawn("reader", move |ctx| {
        let _held = t;
        queue.pop(ctx);
    });
    sim.run_until(SimTime::ZERO + ms(1)).unwrap();
    let t = token.clone();
    sim.spawn("unborn", move |_| drop(t));
    assert_eq!(Arc::strong_count(&token), 4);
    drop(sim);
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn dropping_a_live_simulation_while_unwinding_does_not_abort() {
    let token = Arc::new(());
    let t = token.clone();
    let unwound = std::panic::catch_unwind(move || {
        let mut sim = Simulation::new(0);
        sim.spawn("blocked", move |ctx| {
            let _held = t;
            ctx.sleep(secs(100));
        });
        sim.run_until(SimTime::ZERO + ms(1)).unwrap();
        // Unwind with the simulation (and its blocked process) live.
        std::panic::resume_unwind(Box::new("test body failed"));
    });
    assert!(unwound.is_err());
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn a_deep_panic_is_reported_and_the_simulation_drops_cleanly() {
    fn dig(ctx: &Ctx, depth: u32) -> u32 {
        if depth == 0 {
            ctx.sleep(ms(1));
            panic!("bottom of the dig");
        }
        std::hint::black_box(dig(ctx, depth - 1)) + 1
    }
    let token = Arc::new(());
    let mut sim = Simulation::new(0);
    let t = token.clone();
    sim.spawn("bystander", move |ctx| {
        let _held = t;
        ctx.sleep(secs(100));
    });
    sim.spawn("digger", |ctx| {
        dig(ctx, 8);
    });
    match sim.run() {
        Err(SimError::ProcPanic { name, message, .. }) => {
            assert_eq!(name, "digger");
            assert!(message.contains("bottom of the dig"));
        }
        other => panic!("expected ProcPanic, got {other:?}"),
    }
    drop(sim);
    assert_eq!(Arc::strong_count(&token), 1);
}

#[test]
fn a_process_may_use_200_kib_of_stack() {
    // 25 frames of at least 8 KiB each, live across a block at the bottom.
    fn fill(ctx: &Ctx, depth: usize) -> u64 {
        let mut buf = [0u8; 8192];
        buf[depth] = depth as u8;
        std::hint::black_box(&mut buf);
        if depth == 0 {
            ctx.sleep(ms(1));
            return 0;
        }
        fill(ctx, depth - 1) + u64::from(buf[depth])
    }
    let mut sim = Simulation::new(0);
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    sim.spawn("deep", move |ctx| {
        s2.store(fill(ctx, 25), Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(sum.load(Ordering::SeqCst), (1..=25).sum::<u64>());
}
