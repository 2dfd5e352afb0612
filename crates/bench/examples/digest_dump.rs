//! Dump one determinism-digest scenario's full trace stream, one line per
//! event. Run it at two commits and diff the outputs to find the first
//! event a change moved when a golden digest in `tests/determinism_digest.rs`
//! fails. Debug aid for the determinism oracle; not part of any benchmark.
//!
//! `cargo run --release -p jobmig-bench --example digest_dump -- [fig4|fault-matrix|fleet] [--canonical] > trace.txt`
//!
//! The scenario defaults to `fleet`. Each one is built by the same
//! `jobmig_bench` function the digest test runs.
//!
//! `--canonical` sorts the events within each nanosecond. Two canonical
//! dumps are identical when a change moved only same-instant tie-breaks:
//! the same events at the same instants, in another order.

use jobmig_core::bufpool::PoolConfig;
use npbsim::NpbApp;
use simkit::SimHandle;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (flags, args): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let canonical = match flags.as_slice() {
        [] => false,
        [f] if f == "--canonical" => true,
        _ => {
            eprintln!("unknown flags {flags:?}; expected --canonical");
            return ExitCode::from(2);
        }
    };
    let scenario = args.first().cloned().unwrap_or_else(|| "fleet".into());
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
        "fleet" => {
            let cfg = fleetsched::FleetConfig::soak(jobmig_bench::SEED);
            let policy = fleetsched::PolicyKind::Proactive;
            fleetsched::run_policy_observed(&cfg, policy, &cfg.doom_plan(), observe);
        }
        other => {
            eprintln!("unknown scenario {other:?}; expected fig4, fault-matrix or fleet");
            return ExitCode::from(2);
        }
    }
    let mut lines: Vec<(u64, String)> = handle
        .unwrap()
        .tracer()
        .drain_events()
        .into_iter()
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
