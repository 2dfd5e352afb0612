//! Simulator wall-clock benchmark — how fast the simulator itself runs,
//! not what it simulates.
//!
//! Runs the three reference soaks (Figure 4 migration, live pre-copy,
//! fleet soak under the proactive policy). For each it records wall
//! seconds, dispatched events, timer pushes and events/sec from the
//! kernel self-profile, then writes `BENCH_wallclock.json`.
//!
//! Gates against the committed `wallclock_baseline.json` (refresh it by
//! copying a fresh `BENCH_wallclock.json` over it when an intentional
//! change moves the numbers):
//!
//! 1. **Work** — each scenario's dispatched `events` and `timer_pushes`
//!    must equal the baseline exactly. Both are deterministic for a
//!    seed, so any change that adds or removes simulator work fails
//!    here on every machine until the baseline is re-recorded on purpose.
//! 2. **Absolute speed** (opt-in: `BENCH_WALLCLOCK_ENFORCE_ABS=1`) —
//!    per-scenario events/sec must stay within 10% of the baseline.
//!    Only meaningful when the baseline was recorded on the same class
//!    of machine, so CI leaves it off.
//!
//! The binary also asserts the telemetry zero-cost claim: an
//! `instant_with` call site with tracing disabled (the default) must
//! cost < 1% of a mean event dispatch — the disabled path is one relaxed
//! atomic load and the argument closure is never evaluated.

use fleetsched::{FleetConfig, PolicyKind};
use jobmig_bench::{fig_migration_observed, fig_migration_tuned_observed, write_bench_json, SEED};
use jobmig_core::prelude::{MigrationTuning, PoolConfig};
use npbsim::NpbApp;
use simkit::{SimHandle, Simulation};
use std::time::Instant;
use telemetry::Json;

struct Scenario {
    name: &'static str,
    wall_secs: f64,
    events: u64,
    timer_pushes: u64,
}

impl Scenario {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("wall_secs", self.wall_secs)
            .set("events", self.events)
            .set("events_per_sec", self.events_per_sec())
            .set("timer_pushes", self.timer_pushes)
    }
}

/// Time `run`, which must stash the simulation handle it observes so the
/// kernel self-profile can be read back after the run.
fn measure(name: &'static str, run: impl FnOnce(&mut Option<SimHandle>)) -> Scenario {
    let mut handle = None;
    let t0 = Instant::now();
    run(&mut handle);
    let wall_secs = t0.elapsed().as_secs_f64();
    let stats = handle
        .expect("observe hook must stash the handle")
        .hot_stats();
    let s = Scenario {
        name,
        wall_secs,
        events: stats.events_dispatched,
        timer_pushes: stats.timer_pushes,
    };
    println!(
        "{:<14} {:>8.2}s {:>10} events {:>9.0} ev/s {:>10} timer pushes",
        s.name,
        s.wall_secs,
        s.events,
        s.events_per_sec(),
        s.timer_pushes
    );
    s
}

/// Run a measurement twice and keep the faster sample.
fn min_wall(mut run: impl FnMut() -> Scenario) -> Scenario {
    let a = run();
    let b = run();
    if a.wall_secs <= b.wall_secs {
        a
    } else {
        b
    }
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Pull the number following `"key":` from `doc`, searching from the
/// first occurrence of `anchor`. Enough of a JSON reader for the
/// baseline file we write ourselves.
fn num_after(doc: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = doc.find(anchor)?;
    let tail = &doc[start..];
    let pos = tail.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = tail[pos..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load_baseline() -> Option<String> {
    // cargo bench runs with the package root as cwd; accept the
    // workspace root too for by-hand runs of the binary.
    [
        "wallclock_baseline.json",
        "crates/bench/wallclock_baseline.json",
    ]
    .iter()
    .find_map(|p| std::fs::read_to_string(p).ok())
}

/// Cost of a trace call site when tracing is disabled, in ns/call. The
/// calls run inside a simulation process so the measurement exercises
/// the real `Ctx::instant_with` path, argument closure included.
fn disabled_trace_ns_per_call() -> f64 {
    const CALLS: u64 = 4_000_000;
    let mut sim = Simulation::new(SEED);
    sim.spawn("telemetry", |ctx| {
        for i in 0..CALLS {
            ctx.instant_with("bench", "tick", || vec![("i", i.into())]);
        }
    });
    let t0 = Instant::now();
    sim.run().unwrap();
    t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

fn main() {
    println!("Simulator wall-clock bench (fig4 / livemig / fleet soak)");

    let fig4 = measure("fig4", |stash| {
        fig_migration_observed(NpbApp::Lu, 64, 8, PoolConfig::default(), |h| {
            *stash = Some(h.clone());
        });
    });

    let livemig = measure("livemig", |stash| {
        fig_migration_tuned_observed(NpbApp::Lu, 64, 8, MigrationTuning::live(), |h| {
            *stash = Some(h.clone());
        });
    });

    let cfg = FleetConfig::soak(SEED);
    let plan = cfg.doom_plan();

    // The fleet soak runs twice and keeps the faster wall clock: on a
    // loaded machine noise only ever adds time, so min-of-N is the
    // closest observable to the true cost.
    let fleet = min_wall(|| {
        measure("fleet", |stash| {
            fleetsched::run_policy_observed(&cfg, PolicyKind::Proactive, &plan, |h| {
                *stash = Some(h.clone());
            });
        })
    });

    let per_event_ns = fleet.wall_secs * 1e9 / fleet.events.max(1) as f64;
    let disabled_ns = disabled_trace_ns_per_call();
    let overhead_pct = 100.0 * disabled_ns / per_event_ns;
    println!(
        "disabled trace call: {disabled_ns:.1} ns vs {per_event_ns:.0} ns/event \
         ({overhead_pct:.3}% of an event dispatch)"
    );

    let scenarios = [&fig4, &livemig, &fleet];
    let mut doc = Json::obj();
    for s in scenarios {
        doc = doc.set(s.name, s.to_json());
    }
    let doc = doc
        .set(
            "telemetry",
            Json::obj()
                .set("disabled_ns_per_call", disabled_ns)
                .set("per_event_ns", per_event_ns)
                .set("overhead_pct", overhead_pct),
        )
        .set("peak_rss_kb", peak_rss_kb());
    let path = write_bench_json("wallclock", &doc, true).expect("always written");
    println!("wrote {}", path.display());

    // Telemetry zero-cost gate: a disabled call site is one relaxed
    // atomic load — far under 1% of a mean event dispatch.
    assert!(
        overhead_pct < 1.0,
        "disabled tracing must cost < 1% of an event dispatch, got {overhead_pct:.3}%"
    );

    // Gates 1 and 2: regression against the committed baseline.
    match load_baseline() {
        None => println!("no wallclock_baseline.json committed; skipping regression gates"),
        Some(base) => {
            for s in scenarios {
                let anchor = format!("\"{}\"", s.name);
                for (key, got) in [("events", s.events), ("timer_pushes", s.timer_pushes)] {
                    let want = num_after(&base, &anchor, key)
                        .unwrap_or_else(|| panic!("baseline must record {}.{key}", s.name));
                    assert_eq!(
                        got as f64, want,
                        "{}: {key} moved from the baseline's {want} to {got}",
                        s.name
                    );
                }
            }
            println!("work gate ok: events and timer pushes match the baseline exactly");
            if std::env::var_os("BENCH_WALLCLOCK_ENFORCE_ABS").is_some() {
                for s in scenarios {
                    let b = num_after(&base, &format!("\"{}\"", s.name), "events_per_sec")
                        .expect("baseline must record per-scenario events_per_sec");
                    let got = s.events_per_sec();
                    assert!(
                        got >= b * 0.9,
                        "{}: events/sec regressed > 10%: {got:.0} vs baseline {b:.0}",
                        s.name
                    );
                }
                println!("absolute events/sec gate ok (-10% tolerance)");
            }
        }
    }
    println!("wallclock gates passed");
}
