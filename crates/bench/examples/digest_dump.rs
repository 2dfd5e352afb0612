//! Dump the fleet-soak digest scenario's full trace stream, one line per
//! event. Run it at two commits and diff the outputs to find the first
//! event a change moved when a golden digest in `determinism_digest.rs`
//! fails. Debug aid for the determinism oracle; not part of any benchmark.
//!
//! `cargo run --release -p jobmig-bench --example digest_dump > trace.txt`

fn main() {
    let cfg = fleetsched::FleetConfig::soak(jobmig_bench::SEED);
    let mut handle: Option<simkit::SimHandle> = None;
    let _ = fleetsched::run_policy_observed(
        &cfg,
        fleetsched::PolicyKind::Proactive,
        &cfg.doom_plan(),
        |sh| {
            sh.tracer().set_enabled(true);
            handle = Some(sh.clone());
        },
    );
    let handle = handle.unwrap();
    let out = std::io::stdout();
    let mut w = std::io::BufWriter::new(out.lock());
    use std::io::Write;
    for e in handle.tracer().drain_events() {
        let pid = e.pid.map(|p| p.0 as i64).unwrap_or(-1);
        writeln!(
            w,
            "{} {} {} {} {:?} {:?}",
            e.time.as_nanos(),
            pid,
            e.cat,
            e.name,
            e.kind,
            e.args
        )
        .unwrap();
    }
}
