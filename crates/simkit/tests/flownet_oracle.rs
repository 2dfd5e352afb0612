//! Property: FlowNet's completion instants match a reference fluid solver.
//!
//! The reference lives only in this test. It steps a random schedule of
//! flows — staggered starts, shared links, mid-flight kills — from event
//! to event in f64 seconds: each link splits its capacity equally among
//! the flows crossing it, and a flow runs at the minimum of its shares.
//! FlowNet must complete the same flows, credit the same bytes to each
//! link, and finish every flow within a microsecond of the reference
//! (the kernel clock is integer nanoseconds).

use parking_lot::Mutex;
use proptest::prelude::*;
use simkit::{FlowNet, Sharing, Simulation};
use std::sync::Arc;
use std::time::Duration;

/// Allowed gap between a simulated and a reference completion, seconds.
const TOL_S: f64 = 1e-6;

#[derive(Debug, Clone)]
struct FlowSpec {
    /// Start delay in nanoseconds.
    start_ns: u64,
    /// Transfer size in bytes.
    bytes: u64,
    /// Bitmask selecting which links the flow crosses (masked to the
    /// link count; an empty selection falls back to link 0).
    link_mask: u32,
    /// Kill the owning process this many ns after its start, if set.
    kill_after_ns: Option<u64>,
}

impl FlowSpec {
    fn path(&self, n_links: usize) -> Vec<usize> {
        let path: Vec<usize> = (0..n_links)
            .filter(|j| self.link_mask & (1 << j) != 0)
            .collect();
        if path.is_empty() {
            vec![0]
        } else {
            path
        }
    }

    fn kill_ns(&self) -> Option<u64> {
        self.kill_after_ns
            .map(|after| self.start_ns.saturating_add(after))
    }
}

/// Completions as (flow index, seconds), sorted by index, and completed
/// bytes per link.
type Outcome = (Vec<(usize, f64)>, Vec<u64>);

fn simulate(caps: &[f64], flows: &[FlowSpec]) -> Outcome {
    let mut sim = Simulation::new(7);
    let net = FlowNet::new(&sim.handle());
    let links: Vec<_> = caps
        .iter()
        .enumerate()
        .map(|(i, c)| net.add_link(&format!("l{i}"), *c, Sharing::Fair))
        .collect();
    let completions: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    for (i, f) in flows.iter().enumerate() {
        let path: Vec<_> = f.path(links.len()).into_iter().map(|j| links[j]).collect();
        let net = net.clone();
        let done = Arc::clone(&completions);
        let start = Duration::from_nanos(f.start_ns);
        let bytes = f.bytes;
        let ph = sim.spawn(&format!("flow{i}"), move |ctx| {
            ctx.sleep(start);
            net.transfer(ctx, &path, bytes);
            done.lock().push((i, ctx.now().as_nanos() as f64 / 1e9));
        });
        if let Some(kill_ns) = f.kill_ns() {
            sim.spawn(&format!("kill{i}"), move |ctx| {
                ctx.sleep(Duration::from_nanos(kill_ns));
                ph.kill();
            });
        }
    }
    sim.run().unwrap();
    let mut completions = Arc::try_unwrap(completions).unwrap().into_inner();
    completions.sort_by_key(|&(i, _)| i);
    let link_bytes = links.iter().map(|l| net.bytes_completed_on(*l)).collect();
    (completions, link_bytes)
}

/// The reference solver. Returns `None` when a kill lands within the
/// tolerance of the victim's completion: which of the two happens first
/// is then decided by nanosecond rounding, not by the model.
fn reference(caps: &[f64], flows: &[FlowSpec]) -> Option<Outcome> {
    let paths: Vec<Vec<usize>> = flows.iter().map(|f| f.path(caps.len())).collect();
    let kills: Vec<Option<f64>> = flows
        .iter()
        .map(|f| f.kill_ns().map(|k| k as f64 / 1e9))
        .collect();
    let starts: Vec<f64> = flows.iter().map(|f| f.start_ns as f64 / 1e9).collect();
    let mut left: Vec<f64> = flows.iter().map(|f| f.bytes as f64).collect();
    // 0 = not started, 1 = active, 2 = gone.
    let mut state = vec![0u8; flows.len()];
    let mut completions = Vec::new();
    let mut link_bytes = vec![0u64; caps.len()];
    let mut now = 0.0f64;
    loop {
        let mut active = vec![0u32; caps.len()];
        for (i, p) in paths.iter().enumerate() {
            if state[i] == 1 {
                for &l in p {
                    active[l] += 1;
                }
            }
        }
        let rate = |i: usize| {
            paths[i]
                .iter()
                .map(|&l| caps[l] / active[l] as f64)
                .fold(f64::INFINITY, f64::min)
        };
        // Next event: a start, a kill, or the earliest finish.
        let mut next = f64::INFINITY;
        for i in 0..flows.len() {
            match state[i] {
                0 => next = next.min(starts[i]),
                1 => {
                    next = next.min(now + left[i] / rate(i));
                    if let Some(k) = kills[i] {
                        next = next.min(k);
                    }
                }
                _ => {}
            }
        }
        if next.is_infinite() {
            break;
        }
        let dt = next - now;
        for i in 0..flows.len() {
            if state[i] == 1 {
                let finish = now + left[i] / rate(i);
                left[i] -= rate(i) * dt;
                if finish <= next {
                    if kills[i].is_some_and(|k| (k - finish).abs() < 2.0 * TOL_S) {
                        return None;
                    }
                    state[i] = 2;
                    completions.push((i, finish));
                    for &l in &paths[i] {
                        link_bytes[l] += flows[i].bytes;
                    }
                }
            }
        }
        now = next;
        for i in 0..flows.len() {
            if state[i] == 0 && starts[i] <= now {
                state[i] = 1;
            }
            if state[i] == 1 && kills[i].is_some_and(|k| k <= now) {
                if left[i] / rate(i) < 2.0 * TOL_S {
                    return None;
                }
                state[i] = 2;
            }
        }
    }
    completions.sort_by_key(|&(i, _)| i);
    Some((completions, link_bytes))
}

fn flow_strategy() -> impl Strategy<Value = FlowSpec> {
    (
        0u64..2_000_000_000,
        1u64..50_000_000,
        any::<u32>(),
        any::<bool>(),
        0u64..1_000_000_000,
    )
        .prop_map(|(start_ns, bytes, link_mask, kill, kill_ns)| FlowSpec {
            start_ns,
            bytes,
            link_mask,
            kill_after_ns: kill.then_some(kill_ns),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flownet_matches_reference_fluid_solver(
        caps_mbps in proptest::collection::vec(1u64..1000, 1..5),
        flows in proptest::collection::vec(flow_strategy(), 1..10),
    ) {
        let caps: Vec<f64> = caps_mbps.iter().map(|m| *m as f64 * 1e6).collect();
        let Some((want, want_bytes)) = reference(&caps, &flows) else {
            return Err(TestCaseError::reject("kill races completion"));
        };
        let (got, got_bytes) = simulate(&caps, &flows);
        prop_assert_eq!(&got_bytes, &want_bytes);
        let got_ids: Vec<usize> = got.iter().map(|c| c.0).collect();
        let want_ids: Vec<usize> = want.iter().map(|c| c.0).collect();
        prop_assert_eq!(got_ids, want_ids);
        for ((i, g), (_, w)) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= TOL_S, "flow {} finished at {} s, reference {} s", i, g, w);
        }
    }
}
