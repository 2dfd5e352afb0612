//! FTB agents: one daemon per node, connected in a self-healing tree.

use crate::event::{EventFilter, FtbEvent};
use crate::FTB_AGENT_PORT;
use ibfabric::{Net, NetError, NodeId};
use parking_lot::Mutex;
use protoverify::{traced_step, LinkEvent, LinkState};
use simkit::{Ctx, ProcHandle, Queue, SimHandle, SimTime};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Direction an event arrived from (suppresses echo on forwarding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    LocalClient,
    Parent,
    Child(NodeId),
}

/// Wire messages between agents (and from local clients to their agent).
pub(crate) enum AgentMsg {
    Publish { event: FtbEvent, via: Via },
    Attach { child: NodeId },
    AttachAck { grandparent: Option<NodeId> },
}

pub(crate) struct AgentShared {
    pub node: NodeId,
    /// Deploy time: failure-detection ticks fall at `start + k·period`.
    start: SimTime,
    agents: Weak<Registry>,
    pub state: Mutex<AgentState>,
}

pub(crate) struct AgentState {
    parent: Option<NodeId>,
    grandparent: Option<NodeId>,
    /// Uplink state machine (protoverify's `LINK_TABLE` is the single
    /// source of truth for the self-healing policy).
    link: LinkState,
    /// Sorted: forward-down order is deterministic by construction.
    children: BTreeSet<NodeId>,
    pub subs: Vec<(EventFilter, Queue<FtbEvent>)>,
    /// Events delivered to local subscribers (diagnostics).
    delivered: u64,
}

/// Forward-up retry budget: how many times an agent re-sends an event
/// toward a re-attached parent, with no pause, after the first send
/// fails. When the budget is exhausted the event is dropped and an
/// `ftb/event_dropped` trace instant is emitted.
const FORWARD_RETRIES: u32 = 1;

/// Backplane tunables.
#[derive(Debug, Clone)]
pub struct FtbConfig {
    /// Failure-detection period: an orphaned agent probes its dead parent
    /// at its next tick (deploy time + k·period), re-attaching on failure.
    pub heartbeat: Duration,
}

impl Default for FtbConfig {
    fn default() -> Self {
        FtbConfig {
            heartbeat: Duration::from_millis(500),
        }
    }
}

struct AgentHandles {
    state: Arc<AgentShared>,
    main: ProcHandle,
}

/// Every live agent by node. Killed agents leave it, so their
/// subscriptions stop attracting events. Agents reach it through a
/// `Weak`: the table owns the agents, not the other way round.
type Registry = Mutex<HashMap<NodeId, AgentHandles>>;

/// The deployed backplane: spawns agents and hands out client handles.
#[derive(Clone)]
pub struct FtbBackplane {
    handle: SimHandle,
    net: Net,
    cfg: FtbConfig,
    agents: Arc<Registry>,
}

impl FtbBackplane {
    /// Create a backplane over `net` (normally the GigE maintenance
    /// network).
    pub fn new(handle: &SimHandle, net: Net, cfg: FtbConfig) -> Self {
        FtbBackplane {
            handle: handle.clone(),
            net,
            cfg,
            agents: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The transport network.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Deploy an agent on `node`, attached under `parent` (None = tree
    /// root). Idempotent per node.
    pub fn add_agent(&self, node: NodeId, parent: Option<NodeId>) {
        let mut agents = self.agents.lock();
        if agents.contains_key(&node) {
            return;
        }
        self.net.add_node(node);
        // Static deployment: the parent learns of this child immediately,
        // so events published before the first Attach round-trip are not
        // lost downward. The Attach exchange still runs (and is what
        // re-parenting relies on after failures).
        if let Some(p) = parent {
            if let Some(pa) = agents.get(&p) {
                pa.state.state.lock().children.insert(node);
            }
        }
        let state = Arc::new(AgentShared {
            node,
            start: self.handle.now(),
            agents: Arc::downgrade(&self.agents),
            state: Mutex::new(AgentState {
                parent,
                grandparent: None,
                link: if parent.is_some() {
                    LinkState::Attached
                } else {
                    LinkState::Root
                },
                children: BTreeSet::new(),
                subs: Vec::new(),
                delivered: 0,
            }),
        });
        let inbox = self.net.bind(node, FTB_AGENT_PORT);
        let (st, net) = (state.clone(), self.net.clone());
        let name = format!("ftb-agent@{node}");
        let main = (self.handle).spawn_daemon(&name, move |ctx| agent_main(ctx, st, net, inbox));
        agents.insert(node, AgentHandles { state, main });
    }

    /// Simulate the death of the agent on `node` (node crash): kills its
    /// process and closes its port so peers see connection failures.
    /// Each live child of `node` gets a short-lived detector process.
    pub fn kill_agent(&self, node: NodeId) {
        let mut agents = self.agents.lock();
        let Some(dead) = agents.remove(&node) else {
            return;
        };
        dead.main.kill();
        self.net.unbind(node, FTB_AGENT_PORT);
        // jmlint: allow(hash_iter) — sorted below
        let mut orphans: Vec<_> = agents.values().map(|a| a.state.clone()).collect();
        orphans.retain(|a| a.state.lock().parent == Some(node));
        orphans.sort_by_key(|a| a.node); // deterministic spawn order
        for child in orphans {
            let (net, period) = (self.net.clone(), self.cfg.heartbeat);
            let name = format!("ftb-detect@{}", child.node);
            self.handle
                .spawn_daemon(&name, move |ctx| detect(ctx, child, node, net, period));
        }
    }

    /// The agent's current parent (tests of self-healing).
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        let agents = self.agents.lock();
        agents.get(&node).and_then(|a| a.state.state.lock().parent)
    }

    /// Count of events delivered to local subscribers on `node`.
    pub fn delivered_on(&self, node: NodeId) -> u64 {
        let agents = self.agents.lock();
        agents
            .get(&node)
            .map(|a| a.state.state.lock().delivered)
            .unwrap_or(0)
    }

    pub(crate) fn agent_state(&self, node: NodeId) -> Option<Arc<AgentShared>> {
        self.agents.lock().get(&node).map(|a| a.state.clone())
    }
}

fn send_agent(
    net: &Net,
    ctx: &Ctx,
    from: NodeId,
    to: NodeId,
    msg: AgentMsg,
    wire: u64,
) -> Result<(), NetError> {
    net.send_to(
        ctx,
        (from, FTB_AGENT_PORT),
        (to, FTB_AGENT_PORT),
        Box::new(msg),
        wire,
    )
}

/// Advance the agent's uplink machine. A missing row is a protocol bug
/// (e.g. the root reacting to an `AttachAck` it can never have solicited),
/// not a runtime condition — `traced_step` traps it loudly.
fn link_apply(ctx: &Ctx, node: NodeId, st: &mut AgentState, ev: LinkEvent) {
    st.link = traced_step(ctx, node.0.into(), st.link, ev);
}

/// Re-attach after a send to the parent failed. The uplink table decides
/// the healing move: with a fallback known, the grandparent becomes the
/// parent (fallback consumed until the next `AttachAck`); without one,
/// keep the current parent — a transient link error (flap, dropped
/// window) must not orphan the subtree permanently. A moved agent joins
/// its new parent's children through the agent table, as a deployed one
/// does, so a lost `Attach` cannot cut it off. Returns the new parent.
fn reattach(ctx: &Ctx, state: &Arc<AgentShared>, net: &Net) -> Option<NodeId> {
    let (new_parent, moved) = {
        let mut st = state.state.lock();
        let had_fallback = st.link == LinkState::AttachedWithFallback;
        link_apply(ctx, state.node, &mut st, LinkEvent::ParentLost);
        if had_fallback {
            let gp = st.grandparent.take();
            debug_assert!(
                gp.is_some(),
                "uplink said AttachedWithFallback but no grandparent is recorded"
            );
            st.parent = gp.or(st.parent);
        }
        (st.parent, had_fallback)
    };
    if let (true, Some(p), Some(agents)) = (moved, new_parent, state.agents.upgrade()) {
        if let Some(pa) = agents.lock().get(&p) {
            pa.state.state.lock().children.insert(state.node);
        }
    }
    if let Some(gp) = new_parent {
        let _ = send_agent(
            net,
            ctx,
            state.node,
            gp,
            AgentMsg::Attach { child: state.node },
            96,
        );
    }
    new_parent
}

fn deliver_local(state: &Arc<AgentShared>, event: &FtbEvent) {
    let mut st = state.state.lock();
    let mut n = 0u64;
    for (filter, q) in st.subs.iter() {
        if filter.matches(event) {
            q.push(event.clone());
            n += 1;
        }
    }
    st.delivered += n.min(1); // count events, not fan-out
}

/// Forward an event toward the root, re-attaching and retrying within
/// [`FORWARD_RETRIES`]. When the budget is exhausted (or no ancestor is
/// reachable) the event is dropped with a trace instant — bounded loss,
/// never an unbounded stall of the agent loop.
fn forward_up(ctx: &Ctx, state: &Arc<AgentShared>, net: &Net, event: &FtbEvent) {
    let Some(mut parent) = state.state.lock().parent else {
        return; // we are the root
    };
    let mut attempts = 0u32;
    loop {
        let fwd = AgentMsg::Publish {
            event: event.clone(),
            via: Via::Child(state.node),
        };
        if send_agent(net, ctx, state.node, parent, fwd, event.wire_bytes()).is_ok() {
            return;
        }
        attempts += 1;
        if attempts > FORWARD_RETRIES {
            break;
        }
        match reattach(ctx, state, net) {
            Some(np) => parent = np,
            None => break, // orphaned: no ancestor left to carry the event
        }
    }
    ctx.instant_with("ftb", "event_dropped", || {
        vec![
            ("node", state.node.0.into()),
            ("event", event.name.clone().into()),
            ("attempts", attempts.into()),
        ]
    });
}

/// Whether the subtree under `parent`'s child `child` holds a subscription
/// matching `event`, read from the agents' live manager-layer state. An
/// agent belongs to `parent`'s subtree while it is alive and still names
/// `parent` as its parent, so a re-parented subtree takes its
/// subscriptions with it; below it the walk follows `children` sets by
/// the same rule. A `subscribe` counts from the moment it returns.
fn subtree_wants(parent: &AgentShared, child: NodeId, event: &FtbEvent) -> bool {
    fn wants(
        agents: &HashMap<NodeId, AgentHandles>,
        parent: NodeId,
        node: NodeId,
        event: &FtbEvent,
    ) -> bool {
        let Some(a) = agents.get(&node) else {
            return false; // dead: nothing below it is reachable through it
        };
        // The guard spans the walk below `node`. It never comes back to a
        // node it holds: an agent attaches only to its deployed ancestors,
        // so every `children` edge points down the deployed tree.
        let s = a.state.state.lock();
        s.parent == Some(parent)
            && (s.subs.iter().any(|(f, _)| f.matches(event))
                || s.children.iter().any(|&c| wants(agents, node, c, event)))
    }
    let agents = parent.agents.upgrade();
    agents.is_some_and(|agents| wants(&agents.lock(), parent.node, child, event))
}

fn agent_main(ctx: &Ctx, state: Arc<AgentShared>, net: Net, inbox: Queue<ibfabric::Datagram>) {
    // Announce ourselves to the configured parent.
    let parent0 = state.state.lock().parent;
    if let Some(p) = parent0 {
        let _ = send_agent(
            &net,
            ctx,
            state.node,
            p,
            AgentMsg::Attach { child: state.node },
            96,
        );
    }
    loop {
        let dg = inbox.pop(ctx);
        let Ok(msg) = dg.payload.downcast::<AgentMsg>() else {
            continue; // foreign traffic on our port: ignore
        };
        match *msg {
            AgentMsg::Publish { event, via } => {
                deliver_local(&state, &event);
                // forward up (bounded retry, see `forward_up`)
                if via != Via::Parent {
                    forward_up(ctx, &state, &net, &event);
                }
                // forward down, only into subtrees that subscribe
                // (BTreeSet: deterministic delivery order)
                let children: Vec<NodeId> = state.state.lock().children.iter().copied().collect();
                for c in children {
                    if via == Via::Child(c) || !subtree_wants(&state, c, &event) {
                        continue;
                    }
                    let fwd = AgentMsg::Publish {
                        event: event.clone(),
                        via: Via::Parent,
                    };
                    // A failed send keeps `c`: `subtree_wants` reads the
                    // agent table, which skips dead and moved children.
                    let _ = send_agent(&net, ctx, state.node, c, fwd, event.wire_bytes());
                }
            }
            AgentMsg::Attach { child } => {
                let gp = {
                    let mut st = state.state.lock();
                    st.children.insert(child);
                    st.parent
                };
                let _ = send_agent(
                    &net,
                    ctx,
                    state.node,
                    child,
                    AgentMsg::AttachAck { grandparent: gp },
                    96,
                );
            }
            AgentMsg::AttachAck { grandparent } => {
                let ev = if grandparent.is_some() {
                    LinkEvent::AckGrandparent
                } else {
                    LinkEvent::AckNoGrandparent
                };
                let mut st = state.state.lock();
                link_apply(ctx, state.node, &mut st, ev);
                st.grandparent = grandparent;
            }
        }
    }
}

/// Failure detection for an agent whose parent `dead` was killed: at each
/// of its ticks, while it lives and still names `dead` as its parent,
/// probe `dead` with a 64-byte send. The first failed probe runs
/// [`reattach`]; a probe the network drops is retried at the next tick.
fn detect(ctx: &Ctx, state: Arc<AgentShared>, dead: NodeId, net: Net, period: Duration) {
    loop {
        let p = period.as_nanos().max(1);
        let since = (ctx.now() - state.start).as_nanos();
        ctx.sleep(Duration::from_nanos((p - since % p) as u64)); // to the next tick
        let agents = state.agents.upgrade();
        let alive = |n| agents.as_ref().is_some_and(|a| a.lock().contains_key(&n));
        if !alive(state.node) || alive(dead) || state.state.lock().parent != Some(dead) {
            return;
        }
        // `dead`'s port is closed, so the probe carries no payload.
        let from = (state.node, FTB_AGENT_PORT);
        if net
            .send_to(ctx, from, (dead, FTB_AGENT_PORT), Box::new(()), 64)
            .is_err()
        {
            reattach(ctx, &state, &net);
            return;
        }
    }
}
