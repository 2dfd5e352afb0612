//! Dump one determinism-digest scenario's full trace stream, one line per
//! event. Run it at two commits and diff the outputs to find the first
//! event a change moved when a golden digest in `tests/determinism_digest.rs`
//! fails. Debug aid for the determinism oracle; not part of any benchmark.
//!
//! `cargo run --release -p jobmig-bench --example digest_dump -- [fig4|fault-matrix|fleet|fleet-quarter] [--canonical] [--without <cat>/<name>]... > trace.txt`
//!
//! The scenario defaults to `fleet`. Each one is built by the same
//! `jobmig_bench` or `fleetsched` call the digest test runs;
//! `fleet-quarter` is the fleet soak cut to a 30-minute horizon and 3
//! dooms.
//!
//! `--canonical` sorts the events within each nanosecond. Two canonical
//! dumps are identical when a change moved only same-instant tie-breaks:
//! the same events at the same instants, in another order.
//!
//! `--without <cat>/<name>` (repeatable) leaves out every event with that
//! category and name, so a change that only reshapes one kind of event
//! can be shown to leave every other event as it was.

use jobmig_core::bufpool::PoolConfig;
use npbsim::NpbApp;
use simkit::SimHandle;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut canonical = false;
    let mut without: Vec<(String, String)> = Vec::new();
    let mut scenario = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--canonical" => canonical = true,
            "--without" => match args.next().as_deref().and_then(|v| v.split_once('/')) {
                Some((cat, name)) => without.push((cat.into(), name.into())),
                None => {
                    eprintln!("--without takes <cat>/<name>");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}; expected --canonical or --without");
                return ExitCode::from(2);
            }
            _ if scenario.is_none() => scenario = Some(arg),
            _ => {
                eprintln!("unexpected argument {arg:?}");
                return ExitCode::from(2);
            }
        }
    }
    let scenario = scenario.unwrap_or_else(|| "fleet".into());
    let mut handle: Option<SimHandle> = None;
    let observe = |sh: &SimHandle| {
        sh.tracer().set_enabled(true);
        handle = Some(sh.clone());
    };
    match scenario.as_str() {
        "fig4" => {
            jobmig_bench::fig_migration_observed(NpbApp::Lu, 64, 8, PoolConfig::default(), observe);
        }
        "fault-matrix" => {
            jobmig_bench::fault_matrix_observed(observe);
        }
        "fleet" | "fleet-quarter" => {
            let mut cfg = fleetsched::FleetConfig::soak(jobmig_bench::SEED);
            if scenario == "fleet-quarter" {
                cfg.horizon = std::time::Duration::from_secs(1800);
                cfg.doom_count = 3;
            }
            let policy = fleetsched::PolicyKind::Proactive;
            fleetsched::run_policy_observed(&cfg, policy, &cfg.doom_plan(), observe);
        }
        other => {
            eprintln!(
                "unknown scenario {other:?}; expected fig4, fault-matrix, fleet or fleet-quarter"
            );
            return ExitCode::from(2);
        }
    }
    let mut lines: Vec<(u64, String)> = handle
        .unwrap()
        .tracer()
        .drain_events()
        .into_iter()
        .filter(|e| {
            !without
                .iter()
                .any(|(c, n)| e.cat == c.as_str() && e.name == *n)
        })
        .map(|e| {
            let pid = e.pid.map(|p| p.0 as i64).unwrap_or(-1);
            let t = e.time.as_nanos();
            let line = format!("{t} {pid} {} {} {:?} {:?}", e.cat, e.name, e.kind, e.args);
            (t, line)
        })
        .collect();
    if canonical {
        lines.sort();
    }
    let out = std::io::stdout();
    let mut w = std::io::BufWriter::new(out.lock());
    for (_, line) in lines {
        writeln!(w, "{line}").unwrap();
    }
    ExitCode::SUCCESS
}
