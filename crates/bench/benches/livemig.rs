//! Live migration — barrier-held downtime vs the pipelined stop-and-copy
//! data path, on the Figure 4 reference configuration (LU.C.64, 8 nodes,
//! 8 ranks per node, one spare).
//!
//! Stop-and-copy (even pipelined) holds the job for the whole image
//! transfer plus restart. Iterative pre-copy streams the image — and then
//! dirty-segment deltas — while the ranks keep computing, so the job only
//! stops for the short residual round. The headline claim asserted here:
//! live mode cuts barrier-held downtime by at least 2x against the
//! pipelined baseline (at the cost of moving more total bytes).

use jobmig_bench::{fig_migration_tuned, migration_report_json, secs, write_bench_json};
use jobmig_core::prelude::MigrationTuning;
use npbsim::NpbApp;
use telemetry::Json;

fn main() {
    println!("Live migration vs pipelined stop-and-copy (LU.C.64, 8 nodes, 1 spare)");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>7}",
        "mode", "stall(s)", "migr(s)", "restart", "resume", "downtime", "precopy(s)", "rounds"
    );
    let print_row = |mode: &str, r: &jobmig_core::report::MigrationReport| {
        println!(
            "{:<22} {} {} {} {} {} {} {:>7}",
            mode,
            secs(r.stall),
            secs(r.migrate),
            secs(r.restart),
            secs(r.resume),
            secs(r.downtime()),
            secs(r.precopy),
            r.precopy_rounds,
        );
    };

    let (pipelined, _) = fig_migration_tuned(NpbApp::Lu, 64, 8, MigrationTuning::pipelined());
    print_row("pipelined", &pipelined);
    assert_eq!(pipelined.precopy_rounds, 0);

    let (live, round_bytes) = fig_migration_tuned(NpbApp::Lu, 64, 8, MigrationTuning::live());
    print_row("live pre-copy", &live);

    // The migration must actually have run live: rounds completed, then
    // a cutover (a fallback would show up as zero rounds in the report).
    assert!(
        live.precopy_rounds >= 1,
        "live mode must complete pre-copy rounds, got {}",
        live.precopy_rounds
    );
    assert_eq!(
        round_bytes.len(),
        live.precopy_rounds as usize,
        "one round_verdict per completed round"
    );
    // Round 0 streams the full image; later rounds carry only deltas.
    if round_bytes.len() > 1 {
        assert!(
            round_bytes[1..].iter().all(|&b| b < round_bytes[0]),
            "delta rounds must move less than the full-image round: {round_bytes:?}"
        );
    }

    let speedup = pipelined.total().as_secs_f64() / live.downtime().as_secs_f64();
    println!(
        "\nbarrier-held downtime: pipelined {} s -> live {} s ({speedup:.2}x lower)",
        secs(pipelined.total()).trim(),
        secs(live.downtime()).trim(),
    );
    println!(
        "wire bytes: pipelined {:.1} MB -> live {:.1} MB (rounds: {:?} bytes)",
        pipelined.bytes_moved as f64 / 1e6,
        live.bytes_moved as f64 / 1e6,
        round_bytes,
    );
    assert!(
        speedup >= 2.0,
        "live migration must cut barrier-held downtime by >=2x vs the \
         pipelined data path (got {speedup:.2}x: pipelined {:?}, live {:?})",
        pipelined.total(),
        live.downtime(),
    );

    let rounds: Vec<Json> = round_bytes
        .iter()
        .enumerate()
        .map(|(i, b)| Json::obj().set("round", i as u64).set("bytes", *b))
        .collect();
    let doc = Json::obj()
        .set(
            "pipelined",
            migration_report_json(&pipelined).set("mode", "pipelined"),
        )
        .set("live", migration_report_json(&live).set("mode", "live"))
        .set("rounds", rounds)
        .set("downtime_speedup", format!("{speedup:.2}").as_str());
    if let Some(p) = write_bench_json("livemig", &doc, false) {
        println!("wrote {}", p.display());
    }
}
