//! `jobmig` — command-line driver for the reproduction.
//!
//! ```text
//! jobmig quickstart                 one migration of LU.C.64, phase report
//! jobmig migrate [APP] [NP] [PPN]   custom migration run (LU|BT|SP)
//! jobmig compare [APP]              migration vs CR(ext3) vs CR(PVFS)
//! jobmig fig4|fig5|fig6|fig7|table1 regenerate a paper figure/table
//! jobmig ablations                  restart-mode / transport / pool sweeps
//! jobmig ftpolicy                   checkpoint-interval policy study
//! jobmig fleet                      multi-job fleet soak, policy comparison
//! ```

#![forbid(unsafe_code)]

use jobmig_bench as bench;
use jobmig_core::prelude::*;
use jobmig_core::report::CrStoreKind;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::{dur, SimTime, Simulation};
use std::process::ExitCode;

fn parse_app(s: &str) -> Result<NpbApp, String> {
    match s.to_ascii_uppercase().as_str() {
        "LU" => Ok(NpbApp::Lu),
        "BT" => Ok(NpbApp::Bt),
        "SP" => Ok(NpbApp::Sp),
        other => Err(format!("unknown app '{other}' (expected LU, BT or SP)")),
    }
}

fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("invalid {what}: '{s}'"))
}

fn migrate(app: NpbApp, np: u32, ppn: u32, live: bool) -> Result<(), String> {
    if np == 0 || !np.is_power_of_two() || ppn == 0 || !np.is_multiple_of(ppn) {
        return Err("need power-of-two NP divisible by PPN".into());
    }
    let nodes = np / ppn;
    let mut sim = Simulation::new(bench::SEED);
    let mut cspec = ClusterSpec::paper_testbed();
    cspec.compute_nodes = cspec.compute_nodes.max(nodes);
    let cluster = Cluster::build(&sim.handle(), cspec);
    let wl = Workload::new(app, NpbClass::C, np);
    println!(
        "{} on {nodes} nodes ({ppn} ranks/node), image {:.1} MB/process; migrating at t=30s{}",
        wl.name(),
        wl.per_proc_image() as f64 / 1e6,
        if live { " (live pre-copy)" } else { "" },
    );
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, ppn));
    let tuning = if live {
        MigrationTuning::live()
    } else {
        MigrationTuning::default()
    };
    rt.control()
        .migrate_after(dur::secs(30), MigrationRequest::new().tuning(tuning));
    let rt2 = rt.clone();
    bench::run_until_pred(&mut sim, move || !rt2.migration_reports().is_empty(), 600);
    println!("{}", rt.migration_reports()[0]);
    Ok(())
}

fn compare(app: NpbApp) -> Result<(), String> {
    let p = bench::fig7_panel(app);
    println!("{}: time to handle one node failure", p.name);
    println!("  migration : {:7.2} s", p.migration.total().as_secs_f64());
    for (label, cr) in [("CR (ext3)", &p.cr_ext3), ("CR (PVFS)", &p.cr_pvfs)] {
        let t = cr.total_with_restart().unwrap().as_secs_f64();
        println!(
            "  {label} : {:7.2} s  ({:.2}x slower)",
            t,
            t / p.migration.total().as_secs_f64()
        );
    }
    Ok(())
}

fn full_run_quickstart(live: bool) -> Result<(), String> {
    let mut sim = Simulation::new(bench::SEED);
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::paper_testbed());
    let wl = Workload::new(NpbApp::Lu, NpbClass::C, 64);
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 8));
    let tuning = if live {
        MigrationTuning::live()
    } else {
        MigrationTuning::default()
    };
    rt.control()
        .migrate_after(dur::secs(30), MigrationRequest::new().tuning(tuning));
    sim.run_until_set(rt.completion(), SimTime::MAX)
        .map_err(|e| e.to_string())?;
    println!("completed at t = {}", sim.now());
    for r in rt.migration_reports() {
        println!("{r}");
    }
    Ok(())
}

fn checkpoint_demo(store: CrStoreKind) -> Result<(), String> {
    let r = bench::cr_cycle(NpbApp::Lu, store);
    println!("{r}");
    println!(
        "full failure-handling cycle: {:.2} s",
        r.total_with_restart().unwrap().as_secs_f64()
    );
    Ok(())
}

fn usage() -> String {
    "usage: jobmig <command> [args]\n\
     commands:\n\
     \x20 quickstart [--live]         LU.C.64 with one migration (full run)\n\
     \x20 migrate [APP] [NP] [PPN] [--live]\n\
     \x20                             one migration cycle (default LU 64 8);\n\
     \x20                             --live uses iterative pre-copy\n\
     \x20 livemig                     live vs pipelined downtime comparison\n\
     \x20 compare [APP]               migration vs CR(ext3) vs CR(PVFS)\n\
     \x20 checkpoint [ext3|pvfs]      one coordinated CR cycle with restart\n\
     \x20 fig4 | fig5 | fig6 | fig7 | table1 | ablations | ftpolicy\n\
     \x20                             regenerate evaluation artifacts\n\
     \x20 fleet                       multi-job fleet soak; writes BENCH_fleet.json\n\
     (figures also exist as `cargo bench` targets; see README)"
        .to_string()
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let live = args.iter().any(|a| a == "--live");
    let args: Vec<String> = args.iter().filter(|a| *a != "--live").cloned().collect();
    match args.first().map(String::as_str) {
        Some("quickstart") => full_run_quickstart(live),
        Some("migrate") => {
            let app = parse_app(args.get(1).map(String::as_str).unwrap_or("LU"))?;
            let np = parse_u32(args.get(2).map(String::as_str).unwrap_or("64"), "NP")?;
            let ppn = parse_u32(args.get(3).map(String::as_str).unwrap_or("8"), "PPN")?;
            migrate(app, np, ppn, live)
        }
        Some("livemig") => {
            let (pipelined, _) =
                bench::fig_migration_tuned(NpbApp::Lu, 64, 8, MigrationTuning::pipelined());
            let (live_r, round_bytes) =
                bench::fig_migration_tuned(NpbApp::Lu, 64, 8, MigrationTuning::live());
            println!("pipelined: {pipelined}");
            println!("live     : {live_r}");
            println!(
                "downtime {:.2} s -> {:.2} s ({:.2}x lower); pre-copy rounds moved {:?} bytes",
                pipelined.total().as_secs_f64(),
                live_r.downtime().as_secs_f64(),
                pipelined.total().as_secs_f64() / live_r.downtime().as_secs_f64(),
                round_bytes,
            );
            Ok(())
        }
        Some("compare") => {
            let app = parse_app(args.get(1).map(String::as_str).unwrap_or("LU"))?;
            compare(app)
        }
        Some("checkpoint") => {
            let store = match args.get(1).map(String::as_str).unwrap_or("ext3") {
                "ext3" => CrStoreKind::LocalExt3,
                "pvfs" => CrStoreKind::Pvfs,
                other => return Err(format!("unknown store '{other}'")),
            };
            checkpoint_demo(store)
        }
        Some("fig4") => {
            for app in bench::APPS {
                let r = bench::fig4_migration(app);
                println!("{r}");
            }
            Ok(())
        }
        Some("fig5") => {
            for app in bench::APPS {
                let row = bench::fig5_app_overhead(app);
                println!(
                    "{}: {:.1}s -> {:.1}s  (+{:.1}%)",
                    row.name,
                    row.base.as_secs_f64(),
                    row.with_migration.as_secs_f64(),
                    row.overhead() * 100.0
                );
            }
            Ok(())
        }
        Some("fig6") => {
            for ppn in [1, 2, 4, 8] {
                let r = bench::fig6_point(ppn);
                println!("ppn={ppn}: {r}");
            }
            Ok(())
        }
        Some("fig7") => {
            for app in bench::APPS {
                compare(app)?;
            }
            Ok(())
        }
        Some("table1") => {
            for app in bench::APPS {
                let row = bench::table1_row(app);
                println!(
                    "{}: migration {:.1} MB, CR {:.1} MB",
                    row.name,
                    row.migration_bytes as f64 / 1e6,
                    row.cr_bytes as f64 / 1e6
                );
            }
            Ok(())
        }
        Some("ablations") => {
            let (file, mem) = bench::ablation_restart_mode();
            println!(
                "restart: file {:.2}s vs memory {:.2}s",
                file.total().as_secs_f64(),
                mem.total().as_secs_f64()
            );
            let (rdma, ipoib) = bench::ablation_transport();
            println!(
                "phase 2: RDMA {:.2}s vs IPoIB {:.2}s",
                rdma.migrate.as_secs_f64(),
                ipoib.migrate.as_secs_f64()
            );
            Ok(())
        }
        Some("ftpolicy") => {
            print!("{}", bench::ftpolicy_table(&bench::ftpolicy_study()));
            Ok(())
        }
        Some("fleet") => {
            let report = bench::fleet_soak();
            print!("{}", report.render_table());
            let path = bench::write_bench_json("fleet", &report.to_json(), true)
                .ok_or("failed to write BENCH_fleet.json")?;
            println!("\nwrote {}", path.display());
            Ok(())
        }
        Some("help") | None => Err(usage()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
