//! Subscription-routing oracle. On seeded random agent trees with at
//! least three levels below the root, random filters (space, name set,
//! minimum severity) and random publishers, it checks three things:
//!
//! * every event reaches every matching subscription exactly once;
//! * each publisher's events arrive in publish order;
//! * an agent receives a `Publish` datagram for an event only if it is
//!   an ancestor of the publisher (events always travel up to the root)
//!   or its subtree holds a matching subscription.
//!
//! Each tree runs in three shapes: stable, an interior agent killed (its
//! children re-attach to their grandparent), and the all-links flap
//! window of `backplane.rs`. Every case also makes one subscription in
//! the same instant as a remote publish that it must receive.

use ftb::{EventFilter, FtbBackplane, FtbClient, FtbConfig, FtbEvent, Severity, FTB_AGENT_PORT};
use ibfabric::{FaultHook, Net, NetConfig, NodeId, SendVerdict};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkit::dur::*;
use simkit::{Queue, SimTime, Simulation};
use std::sync::Arc;

/// Every space and name has the same length, so every test event has the
/// same wire size, distinct from the 64- and 96-byte control messages.
const SPACES: [&str; 2] = ["FTB.A", "FTB.B"];
const NAMES: [&str; 4] = ["E0", "E1", "E2", "E3"];
const SEVERITIES: [Severity; 4] = [
    Severity::Info,
    Severity::Warning,
    Severity::Error,
    Severity::Fatal,
];
/// The space and name only the same-instant subscription asks for.
const LATE: (&str, &str) = ("FTB.C", "LT");

/// Identity of a published event, carried as its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tag {
    publisher: u32,
    seq: u32,
}

/// Records the receiving node of every agent-to-agent `Publish`
/// datagram, and fails every send inside the optional flap window.
struct Wire {
    publish_wire: u64,
    flap: Option<(SimTime, SimTime)>,
    publishes: Mutex<Vec<NodeId>>,
}

impl FaultHook for Wire {
    fn on_send(
        &self,
        now: SimTime,
        _net: &str,
        from: NodeId,
        to: NodeId,
        port: u16,
        wire: u64,
    ) -> SendVerdict {
        if let Some((open, close)) = self.flap {
            if now >= open && now < close {
                return SendVerdict::Error;
            }
        }
        // from == to is a client's loopback hop to its own agent.
        if port == FTB_AGENT_PORT && from != to && wire == self.publish_wire {
            self.publishes.lock().push(to);
        }
        SendVerdict::Deliver
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Stable,
    Kill,
    Flap,
}

fn random_filter(rng: &mut StdRng) -> EventFilter {
    let space = match rng.gen_range(0..3usize) {
        0 => None,
        i => Some(SPACES[i - 1].to_string()),
    };
    let names = rng.gen_bool(0.6).then(|| {
        NAMES
            .iter()
            .filter(|_| rng.gen_bool(0.4))
            .map(|n| n.to_string())
            .collect()
    });
    let min_severity = rng
        .gen_bool(0.5)
        .then(|| SEVERITIES[rng.gen_range(0..SEVERITIES.len())]);
    EventFilter {
        space,
        names,
        min_severity,
    }
}

fn event(space: &str, name: &str, severity: Severity, origin: NodeId, tag: Tag) -> FtbEvent {
    FtbEvent::with_payload(space, name, severity, origin, tag)
}

/// Parent pointers after healing; `None` for the root and the dead.
type Tree = Vec<Option<u32>>;

fn parents(bp: &FtbBackplane, n: u32) -> Tree {
    (0..n)
        .map(|i| bp.parent_of(NodeId(i)).map(|p| p.0))
        .collect()
}

fn is_strict_ancestor(tree: &Tree, a: u32, mut x: u32) -> bool {
    while let Some(p) = tree[x as usize] {
        if p == a {
            return true;
        }
        x = p;
    }
    false
}

fn run_case(seed: u64, shape: Shape) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = Simulation::new(seed);
    let h = sim.handle();
    let bp = FtbBackplane::new(&h, Net::new(&h, NetConfig::gige()), FtbConfig::default());

    // A chain 0 → 1 → 2 → 3 gives three levels below the root; every
    // other node hangs off a random earlier one.
    let n = rng.gen_range(6..14u32);
    let initial: Tree = (0..n)
        .map(|i| match i {
            0 => None,
            1..=3 => Some(i - 1),
            _ => Some(rng.gen_range(0..i)),
        })
        .collect();
    for i in 0..n {
        bp.add_agent(NodeId(i), initial[i as usize].map(NodeId));
    }
    let wire = Arc::new(Wire {
        publish_wire: FtbEvent::simple(SPACES[0], NAMES[0], Severity::Info, NodeId(0)).wire_bytes(),
        flap: matches!(shape, Shape::Flap)
            .then(|| (SimTime::ZERO + ms(200), SimTime::ZERO + ms(1400))),
        publishes: Mutex::new(Vec::new()),
    });
    bp.net().set_fault_hook(wire.clone());

    let mut subs: Vec<(u32, EventFilter, Queue<FtbEvent>)> = Vec::new();
    for i in 0..n {
        let c = FtbClient::connect(&bp, NodeId(i), &format!("sub{i}"));
        for _ in 0..rng.gen_range(0..3u32) {
            let f = random_filter(&mut rng);
            subs.push((i, f.clone(), c.subscribe(&h, f)));
        }
    }

    // Kill an interior agent (never the root) at 200 ms; its children
    // notice at their next failure-detection tick and fail over to their
    // grandparent.
    let dead = matches!(shape, Shape::Kill).then(|| {
        let interior: Vec<u32> = (1..n).filter(|&k| initial.contains(&Some(k))).collect();
        let k = interior[rng.gen_range(0..interior.len())];
        let bp2 = bp.clone();
        sim.spawn("killer", move |ctx| {
            ctx.sleep(ms(200));
            bp2.kill_agent(NodeId(k));
        });
        k
    });
    sim.run_for(secs(3)).unwrap();

    let tree = parents(&bp, n);
    let live: Vec<u32> = (0..n).filter(|&i| Some(i) != dead).collect();
    for &i in &live[1..] {
        assert!(
            tree[i as usize].is_some(),
            "seed {seed} {shape:?}: node {i} orphaned"
        );
    }
    if let Some(k) = dead {
        for c in (0..n).filter(|&c| initial[c as usize] == Some(k)) {
            assert_eq!(
                tree[c as usize], initial[k as usize],
                "seed {seed}: child {c} of killed {k} must re-attach to its grandparent"
            );
        }
    }
    wire.publishes.lock().clear();

    let mut published: Vec<(Tag, FtbEvent)> = Vec::new();
    let npub = rng.gen_range(2..5u32);
    for p in 0..npub {
        let origin = NodeId(live[rng.gen_range(0..live.len())]);
        let mut plan = Vec::new();
        for seq in 0..rng.gen_range(3..8u32) {
            let tag = Tag { publisher: p, seq };
            let ev = event(
                SPACES[rng.gen_range(0..SPACES.len())],
                NAMES[rng.gen_range(0..NAMES.len())],
                SEVERITIES[rng.gen_range(0..SEVERITIES.len())],
                origin,
                tag,
            );
            published.push((tag, ev.clone()));
            plan.push((us(rng.gen_range(0..300u64)), ev));
        }
        let c = FtbClient::connect(&bp, origin, &format!("pub{p}"));
        sim.spawn(&format!("pub{p}"), move |ctx| {
            for (gap, ev) in plan {
                ctx.sleep(gap);
                c.publish(ctx, ev);
            }
        });
    }

    // Subscribe on the deepest live node and, in the same instant,
    // publish the one event that matches it from another node.
    let depth = |x: u32| (0..n).filter(|&a| is_strict_ancestor(&tree, a, x)).count();
    let sub_node = *live.iter().max_by_key(|&&x| (depth(x), x)).unwrap();
    let pub_node = live[rng.gen_range(0..live.len() - 1)];
    let pub_node = if pub_node == sub_node {
        live[live.len() - 1]
    } else {
        pub_node
    };
    let late_tag = Tag {
        publisher: npub,
        seq: 0,
    };
    let late_ev = event(LATE.0, LATE.1, Severity::Info, NodeId(pub_node), late_tag);
    published.push((late_tag, late_ev.clone()));
    let late_filter = EventFilter::named(LATE.0, LATE.1);
    let late_q: Arc<Mutex<Option<Queue<FtbEvent>>>> = Arc::new(Mutex::new(None));
    {
        let sub_c = FtbClient::connect(&bp, NodeId(sub_node), "late-sub");
        let pub_c = FtbClient::connect(&bp, NodeId(pub_node), "late-pub");
        let (late_q, late_filter) = (late_q.clone(), late_filter.clone());
        sim.spawn("late", move |ctx| {
            ctx.sleep(us(150));
            *late_q.lock() = Some(sub_c.subscribe(&ctx.handle(), late_filter));
            pub_c.publish(ctx, late_ev);
        });
    }
    sim.run_for(secs(1)).unwrap();
    assert_eq!(
        tree,
        parents(&bp, n),
        "seed {seed} {shape:?}: tree moved while publishing"
    );
    let late_q = late_q.lock().take().expect("late subscription made");
    subs.push((sub_node, late_filter, late_q));

    // Exactly once, in publish order, to every matching subscription.
    for (node, filter, q) in &subs {
        let mut got = Vec::new();
        while let Some(ev) = q.try_pop() {
            got.push(*ev.payload_as::<Tag>().expect("tagged event"));
        }
        let want: Vec<Tag> = if Some(*node) == dead {
            Vec::new()
        } else {
            published
                .iter()
                .filter(|(_, ev)| filter.matches(ev))
                .map(|(t, _)| *t)
                .collect()
        };
        for p in 0..=npub {
            let of = |v: &[Tag]| -> Vec<Tag> {
                v.iter().copied().filter(|t| t.publisher == p).collect()
            };
            assert_eq!(
                of(&got),
                of(&want),
                "seed {seed} {shape:?}: subscription {filter:?} on node {node}, publisher {p}"
            );
        }
    }

    // No Publish datagram into a subtree without a matching subscription.
    let subtree_wants = |x: u32, ev: &FtbEvent| {
        subs.iter().any(|(s, f, _)| {
            Some(*s) != dead && (*s == x || is_strict_ancestor(&tree, x, *s)) && f.matches(ev)
        })
    };
    let mut want = vec![0u64; n as usize];
    for (_, ev) in &published {
        let origin = ev.origin.0;
        for &x in &live {
            let up = is_strict_ancestor(&tree, x, origin);
            if up || (x != origin && subtree_wants(x, ev)) {
                want[x as usize] += 1;
            }
        }
    }
    let mut got = vec![0u64; n as usize];
    for to in wire.publishes.lock().iter() {
        got[to.0 as usize] += 1;
    }
    assert_eq!(
        got, want,
        "seed {seed} {shape:?}: Publish datagrams per node (tree {tree:?})"
    );
}

#[test]
fn stable_trees_route_exactly_to_subscribers() {
    for seed in 0..24 {
        run_case(seed, Shape::Stable);
    }
}

#[test]
fn killed_interior_agent_subtree_reattaches_with_its_subscriptions() {
    for seed in 100..124 {
        run_case(seed, Shape::Kill);
    }
}

#[test]
fn link_flap_leaves_no_duplicate_or_stray_route() {
    for seed in 200..224 {
        run_case(seed, Shape::Flap);
    }
}
