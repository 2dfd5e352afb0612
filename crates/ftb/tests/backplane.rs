//! End-to-end FTB behaviour: routed delivery, filtering, payloads,
//! self-healing after agent death.

use ftb::{EventFilter, FtbBackplane, FtbClient, FtbEvent, Severity};
use ibfabric::{Net, NetConfig, NodeId};
use simkit::dur::*;
use simkit::Simulation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// login(0) ── n1, n2 ── n3 (chain under n2) — a small asymmetric tree.
fn deploy(sim: &Simulation) -> FtbBackplane {
    let h = sim.handle();
    let net = Net::new(&h, NetConfig::gige());
    let bp = FtbBackplane::new(&h, net, ftb::FtbConfig::default());
    bp.add_agent(NodeId(0), None);
    bp.add_agent(NodeId(1), Some(NodeId(0)));
    bp.add_agent(NodeId(2), Some(NodeId(0)));
    bp.add_agent(NodeId(3), Some(NodeId(2)));
    bp
}

#[test]
fn publish_reaches_every_subscribed_node_once() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let hits = Arc::new(AtomicU64::new(0));
    for n in [0u32, 2, 3] {
        let c = FtbClient::connect(&bp, NodeId(n), &format!("sub{n}"));
        let q = c.subscribe(&h, EventFilter::space("FTB.TEST"));
        let hits = hits.clone();
        sim.spawn(&format!("listener{n}"), move |ctx| {
            let ev = q.pop(ctx);
            assert_eq!(ev.name, "GO");
            assert_eq!(ev.origin, NodeId(3));
            hits.fetch_add(1, Ordering::SeqCst);
        });
    }
    // n1 subscribes to another space: its subtree wants nothing of this.
    let other = FtbClient::connect(&bp, NodeId(1), "sub1");
    let q_other = other.subscribe(&h, EventFilter::space("FTB.OTHER"));
    let publisher = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("publisher", move |ctx| {
        ctx.sleep(ms(10));
        publisher.publish(
            ctx,
            FtbEvent::simple("FTB.TEST", "GO", Severity::Info, NodeId(3)),
        );
    });
    sim.run_for(ms(5)).unwrap(); // startup Attach/AttachAck settled
    let n1_rx = bp.net().rx_bytes(NodeId(1));
    sim.run_for(secs(1)).unwrap();
    assert_eq!(
        hits.load(Ordering::SeqCst),
        3,
        "event must reach every subscribed node"
    );
    assert!(q_other.is_empty());
    assert_eq!(bp.delivered_on(NodeId(1)), 0);
    assert_eq!(
        bp.net().rx_bytes(NodeId(1)),
        n1_rx,
        "no datagram may enter a subtree without a matching subscription"
    );
}

#[test]
fn delivery_latency_is_milliseconds() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    // deepest path: leaf n3 → n2 → root n0 → n1
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    sim.spawn("listener", move |ctx| {
        let _ = q.pop(ctx);
        g.store(ctx.now().as_micros(), Ordering::SeqCst);
    });
    let p = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(ctx, FtbEvent::simple("S", "N", Severity::Info, NodeId(3)));
    });
    sim.run_for(secs(1)).unwrap();
    let us = got.load(Ordering::SeqCst);
    assert!(us > 0, "delivered");
    assert!(
        us < 5_000,
        "FTB control latency should be sub-5ms, was {us}us"
    );
}

#[test]
fn filters_select_events() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q_mig = c.subscribe(&h, EventFilter::named("FTB.MPI", "FTB_MIGRATE"));
    let q_all = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(0), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::simple("FTB.MPI", "FTB_RESTART", Severity::Info, NodeId(0)),
        );
        p.publish(
            ctx,
            FtbEvent::simple("FTB.MPI", "FTB_MIGRATE", Severity::Error, NodeId(0)),
        );
        p.publish(
            ctx,
            FtbEvent::simple("FTB.HEALTH", "TEMP", Severity::Warning, NodeId(0)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q_mig.len(), 1);
    assert_eq!(q_all.len(), 3);
}

#[test]
fn typed_payload_crosses_the_tree() {
    #[derive(Debug, PartialEq)]
    struct MigratePayload {
        source: NodeId,
        target: NodeId,
    }
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(3), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(0), "jm");
    sim.spawn("jm", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::with_payload(
                "FTB.MPI",
                "FTB_MIGRATE",
                Severity::Error,
                NodeId(0),
                MigratePayload {
                    source: NodeId(1),
                    target: NodeId(2),
                },
            ),
        );
    });
    let checked = Arc::new(AtomicU64::new(0));
    let c2 = checked.clone();
    sim.spawn("sub", move |ctx| {
        let ev = q.pop(ctx);
        let pl = ev.payload_as::<MigratePayload>().expect("payload type");
        assert_eq!(pl.source, NodeId(1));
        assert_eq!(pl.target, NodeId(2));
        c2.store(1, Ordering::SeqCst);
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(checked.load(Ordering::SeqCst), 1);
}

#[test]
fn agent_death_triggers_reattach_to_grandparent() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();

    // n3's parent is n2; kill n2 → n3 should re-attach under root n0.
    let bp2 = bp.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(200)); // let attach/acks settle (n3 detects at its 500 ms tick)
        bp2.kill_agent(NodeId(2));
    });
    sim.run_for(secs(2)).unwrap();
    assert_eq!(bp.parent_of(NodeId(3)), Some(NodeId(0)));

    // and events still flow end-to-end
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::simple("S", "AFTER", Severity::Info, NodeId(3)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 1, "event must route around the dead agent");
}

#[test]
fn publisher_receives_own_event_if_subscribed() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(1), "both");
    let q = c.subscribe(&h, EventFilter::all());
    let c2 = c.clone();
    sim.spawn("pub", move |ctx| {
        c2.publish(
            ctx,
            FtbEvent::simple("S", "SELF", Severity::Info, NodeId(1)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 1);
}

#[test]
fn concurrent_publishers_all_delivered() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(0), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    for n in 1..4u32 {
        let p = FtbClient::connect(&bp, NodeId(n), &format!("pub{n}"));
        sim.spawn(&format!("pub{n}"), move |ctx| {
            for k in 0..5 {
                p.publish(
                    ctx,
                    FtbEvent::simple("S", &format!("E{n}-{k}"), Severity::Info, NodeId(n)),
                );
                ctx.sleep(us(100));
            }
        });
    }
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 15);
}

/// A visible-error window on every link between nodes. All such sends
/// fail while the window is open (a client's loopback hop to its own
/// agent still works); the tree must heal afterwards instead of
/// orphaning agents.
struct FlapWindow {
    from: simkit::SimTime,
    until: simkit::SimTime,
}

impl ibfabric::FaultHook for FlapWindow {
    fn on_send(
        &self,
        now: simkit::SimTime,
        _net: &str,
        from: NodeId,
        to: NodeId,
        _port: u16,
        _wire: u64,
    ) -> ibfabric::SendVerdict {
        if from != to && now >= self.from && now < self.until {
            ibfabric::SendVerdict::Error
        } else {
            ibfabric::SendVerdict::Deliver
        }
    }
}

#[test]
fn transient_link_flap_does_not_orphan_agents() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    // The window covers every agent's first failure-detection tick
    // (500 ms). No agent dies, so no probe is sent, and no agent may
    // lose its parent to the flap.
    bp.net().set_fault_hook(Arc::new(FlapWindow {
        from: simkit::SimTime::ZERO + ms(200),
        until: simkit::SimTime::ZERO + ms(1400),
    }));
    sim.run_for(secs(3)).unwrap();

    // Depth-1 agents have no grandparent to fail over to; a transient
    // error must leave them attached to the root, not orphaned.
    assert_eq!(bp.parent_of(NodeId(1)), Some(NodeId(0)));
    assert_eq!(bp.parent_of(NodeId(2)), Some(NodeId(0)));
    // n3 may have failed over to its grandparent — either parent works,
    // as long as it still has one.
    assert!(bp.parent_of(NodeId(3)).is_some(), "n3 orphaned");

    // And events still traverse the healed tree end-to-end.
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::simple("S", "HEALED", Severity::Info, NodeId(3)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 1, "event must flow after the flap heals");
}

/// Instants of node `node`'s uplink `ParentLost` transitions.
fn parent_lost_at(sim: &Simulation, node: u64) -> Vec<u64> {
    use simkit::ArgValue;
    sim.handle()
        .tracer()
        .drain_events()
        .iter()
        .filter(|e| e.name == "link_transition")
        .filter(|e| {
            e.args
                .iter()
                .any(|(k, v)| *k == "node" && matches!(v, ArgValue::U64(n) if *n == node))
                && e.args
                    .iter()
                    .any(|(k, v)| *k == "on" && matches!(v, ArgValue::Str(s) if s == "ParentLost"))
        })
        .map(|e| e.time.as_nanos())
        .collect()
}

#[test]
fn kill_before_the_first_tick_is_detected_at_that_tick() {
    let mut sim = Simulation::new(0);
    sim.handle().tracer().set_enabled(true);
    let bp = deploy(&sim);
    let bp2 = bp.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(200));
        bp2.kill_agent(NodeId(2));
    });
    sim.run_for(secs(2)).unwrap();
    // n3 was deployed at t = 0 with the default 500 ms period: its first
    // tick probes the dead n2, and the 64-byte send fails one GigE wire
    // delay later — the instant the per-agent heartbeat process of the
    // earlier design re-attached at.
    assert_eq!(parent_lost_at(&sim, 3), [500_060_582]);
    assert_eq!(bp.parent_of(NodeId(3)), Some(NodeId(0)));
}

#[test]
fn forward_down_failed_in_a_flap_keeps_the_child() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    // Every send between nodes fails from 100 ms to 300 ms; the root's
    // forward-down of the first event into n1 falls inside the window.
    bp.net().set_fault_hook(Arc::new(FlapWindow {
        from: simkit::SimTime::ZERO + ms(100),
        until: simkit::SimTime::ZERO + ms(300),
    }));
    let p = FtbClient::connect(&bp, NodeId(0), "pub");
    sim.spawn("pub", move |ctx| {
        ctx.sleep(ms(200));
        p.publish(
            ctx,
            FtbEvent::simple("S", "LOST", Severity::Info, NodeId(0)),
        );
        ctx.sleep(ms(300));
        p.publish(
            ctx,
            FtbEvent::simple("S", "AFTER", Severity::Info, NodeId(0)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(bp.parent_of(NodeId(1)), Some(NodeId(0)));
    let names: Vec<String> = std::iter::from_fn(|| q.try_pop()).map(|e| e.name).collect();
    assert_eq!(names, ["AFTER"], "an event after the flap must reach n1");
}

#[test]
fn an_agent_whose_attach_is_lost_still_gets_events() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(3), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    // n2 dies at 200 ms. At n3's 500 ms tick every send between nodes
    // fails: the probe, and then the `Attach` to its new parent n0.
    bp.net().set_fault_hook(Arc::new(FlapWindow {
        from: simkit::SimTime::ZERO + ms(499),
        until: simkit::SimTime::ZERO + ms(501),
    }));
    let bp2 = bp.clone();
    let p = FtbClient::connect(&bp, NodeId(0), "pub");
    sim.spawn("script", move |ctx| {
        ctx.sleep(ms(200));
        bp2.kill_agent(NodeId(2));
        ctx.sleep(ms(1800));
        p.publish(
            ctx,
            FtbEvent::simple("S", "LATE", Severity::Info, NodeId(0)),
        );
    });
    sim.run_for(secs(3)).unwrap();
    assert_eq!(bp.parent_of(NodeId(3)), Some(NodeId(0)));
    assert_eq!(q.len(), 1, "n0 must route down to its re-attached child");
}
