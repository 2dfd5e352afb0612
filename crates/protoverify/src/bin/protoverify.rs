//! CI entry point.
//!
//! With no arguments: exhaustively check the shipped protocol tables
//! across a grid of spare-pool sizes and retry budgets. Exits nonzero
//! (with a minimal counterexample trace on stderr) if any invariant
//! fails.
//!
//! Subcommands close the static/dynamic loop over traces the simulator
//! exported (`TRACE_JSON_DIR=<dir> cargo test --test conformance`):
//!
//! - `--conformance <trace.json>...` — replay each trace through the
//!   composed model's online observer; exits nonzero on the first
//!   non-derivable event (printing the shortest nonconforming suffix).
//! - `--coverage <trace.json>... [-o <file>]` — merge the traces' edge
//!   coverage, print the per-edge table with never-exercised edges
//!   called out, and optionally write the merged `COVERAGE_proto.json`.

#![forbid(unsafe_code)]

use protoverify::{check, check_fleet, CheckConfig, Coverage, FleetConfig, MigrationSpec};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: protoverify\n\
        \x20      protoverify --conformance <trace.json>...\n\
        \x20      protoverify --coverage <trace.json>... [-o <coverage.json>]"
    );
    ExitCode::from(2)
}

/// Parse one exported trace file into raw events.
fn load_trace(path: &str) -> Result<Vec<protoverify::RawEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    protoverify::parse_trace_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// `--conformance`: every trace must refine the model.
fn run_conformance(paths: &[String]) -> ExitCode {
    let mut failed = false;
    for path in paths {
        let events = match load_trace(path) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("protoverify: {e}");
                return ExitCode::from(2);
            }
        };
        let report = protoverify::Observer::replay(&events);
        match &report.violation {
            None => println!(
                "  {path}: conformant — {} events, {} mapped onto model edges, \
                 {}/{} edges exercised",
                report.events,
                report.mapped,
                report.coverage.covered(),
                Coverage::universe().len()
            ),
            Some(v) => {
                failed = true;
                eprintln!("  {path}: NONCONFORMANT");
                eprintln!("{v}");
            }
        }
    }
    if failed {
        eprintln!("protoverify: conformance FAILED");
        ExitCode::FAILURE
    } else {
        println!("protoverify: {} trace(s) refine the model", paths.len());
        ExitCode::SUCCESS
    }
}

/// `--coverage`: merge edge coverage across traces, report the gaps.
fn run_coverage(paths: &[String], out: Option<&str>) -> ExitCode {
    let mut total = Coverage::new();
    for path in paths {
        let events = match load_trace(path) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("protoverify: {e}");
                return ExitCode::from(2);
            }
        };
        let report = protoverify::Observer::replay(&events);
        if let Some(v) = &report.violation {
            eprintln!("  {path}: NONCONFORMANT (coverage not credited)");
            eprintln!("{v}");
            return ExitCode::FAILURE;
        }
        total.merge(&report.coverage);
    }
    let universe = Coverage::universe();
    for edge in &universe {
        let n = total.count(edge);
        if n > 0 {
            println!("  {n:>6}  {edge}");
        }
    }
    let missing = total.missing();
    for edge in &missing {
        println!("   never  {edge}");
    }
    println!(
        "protoverify: {}/{} model edges exercised ({:.1}%) across {} trace(s)",
        total.covered(),
        universe.len(),
        total.ratio() * 100.0,
        paths.len()
    );
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, total.to_json()) {
            eprintln!("protoverify: write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("protoverify: wrote {path}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--conformance") => {
            return if args.len() < 2 {
                usage()
            } else {
                run_conformance(&args[1..])
            };
        }
        Some("--coverage") => {
            let mut paths = Vec::new();
            let mut out = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "-o" {
                    match it.next() {
                        Some(p) => out = Some(p.as_str()),
                        None => return usage(),
                    }
                } else {
                    paths.push(a.clone());
                }
            }
            return if paths.is_empty() {
                usage()
            } else {
                run_coverage(&paths, out)
            };
        }
        Some("--help") | Some("-h") => {
            let _ = usage();
            return ExitCode::SUCCESS;
        }
        Some(_) => return usage(),
        None => {}
    }

    let spec = MigrationSpec::shipped();
    let mut total_states = 0usize;
    let mut total_transitions = 0usize;
    let mut failed = false;

    println!("protoverify: checking shipped migration spec");
    for pipelined in [false, true] {
        let mode = if pipelined { "pipelined" } else { "barrier" };
        for spares in 0..=3u32 {
            for max_attempts in 1..=4u32 {
                let cfg = CheckConfig {
                    spares,
                    max_attempts,
                    pipelined,
                    ..CheckConfig::default()
                };
                let report = check(&spec, &cfg);
                total_states += report.stats.states;
                total_transitions += report.stats.transitions;
                match &report.violation {
                    None => {
                        println!(
                            "  {mode} spares={spares} max_attempts={max_attempts}: \
                             {} states, {} transitions, {} terminals — all invariants hold",
                            report.stats.states, report.stats.transitions, report.stats.terminals
                        );
                    }
                    Some(cx) => {
                        failed = true;
                        eprintln!(
                            "  {mode} spares={spares} max_attempts={max_attempts}: VIOLATION"
                        );
                        eprintln!("{cx}");
                        let plan = cx.to_fault_plan();
                        eprintln!("  replay plan: {plan:?}");
                    }
                }
            }
        }
    }

    println!("protoverify: checking fleet spare-pool accounting");
    for jobs in 1..=3u8 {
        for spares in 1..=3u8 {
            let report = check_fleet(&FleetConfig {
                jobs,
                spares,
                mutation: None,
            });
            total_states += report.states;
            total_transitions += report.transitions;
            match &report.violation {
                None => {
                    println!(
                        "  jobs={jobs} spares={spares}: {} states, {} transitions — \
                         lease exclusivity and pool conservation hold",
                        report.states, report.transitions
                    );
                }
                Some(v) => {
                    failed = true;
                    eprintln!("  jobs={jobs} spares={spares}: VIOLATION");
                    eprintln!("{v}");
                }
            }
        }
    }

    println!("protoverify: explored {total_states} states / {total_transitions} transitions total");
    if failed {
        eprintln!("protoverify: FAILED");
        ExitCode::FAILURE
    } else {
        println!(
            "protoverify: deadlock-freedom, no-lost-rank, rollback-restores-source, \
             complete-or-degrade, phase-consistency, resume-or-rollback, \
             single-lease-holder, lease-exclusivity, pool-conservation all proven"
        );
        ExitCode::SUCCESS
    }
}
