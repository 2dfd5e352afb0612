//! Quickstart: launch the paper's testbed, run NPB LU.C with 64 ranks on
//! 8 compute nodes, trigger one migration mid-run, and print the
//! phase-decomposed report (the Figure 4 measurement for one application).
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Pass `--trace out.json` to record the run's structured telemetry and
//! export it as a chrome://tracing JSON file — open it in Perfetto
//! (<https://ui.perfetto.dev>) to see the four migration phases, per-chunk
//! RDMA Reads, and checkpoint stream progress on a zoomable timeline.
//!
//! Pass `--pipelined` to run the migration on the pipelined data path
//! (per-rank restart overlap with bounded restart admission via
//! [`MigrationTuning::pipelined`]) instead of the default barrier mode —
//! compare the phase breakdowns between the two runs.
//!
//! Pass `--live` to run an iterative pre-copy *live* migration
//! ([`MigrationTuning::live`]): the full image — and then dirty-segment
//! deltas — stream while the ranks keep computing, and the job only
//! stops for the short residual round. See `examples/live_migration.rs`
//! for the full walkthrough.
//!
//! Pass `--faults <preset>` to drive the run through a deterministic
//! fault plan and watch the protocol heal itself:
//!   spare-crash  the spare dies at the Phase 3 (Restart) boundary; the
//!                Job Manager aborts the cycle and retries on the next
//!                spare (or degrades to a coordinated checkpoint)
//!   rdma         an RDMA Read completes in error and another returns a
//!                corrupted payload; both chunks are re-issued in place
//!   flaky-net    the GigE control network flaps right as the migration
//!                window opens; phase deadlines drive the retry

use rdma_jobmig::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: quickstart [--trace OUT.json] [--pipelined] [--live] \
         [--faults spare-crash|rdma|flaky-net]"
    );
    std::process::exit(2);
}

fn fault_preset(name: &str) -> FaultPlan {
    match name {
        "spare-crash" => FaultPlan::new(2010).with(FaultSpec::SpareCrash {
            phase: MigPhase::Restart,
            attempt: 1,
        }),
        "rdma" => FaultPlan::new(2010)
            .with(FaultSpec::RdmaCqError { nth: 2 })
            .with(FaultSpec::RdmaCorrupt { nth: 5 }),
        "flaky-net" => FaultPlan::new(2010).with(FaultSpec::LinkFlap {
            net: NetSel::Gige,
            at: dur::secs(30),
            lasts: dur::ms(800),
        }),
        other => {
            eprintln!("unknown fault preset '{other}'");
            usage();
        }
    }
}

fn main() {
    let mut trace_path = None;
    let mut fault_plan = None;
    let mut tuning = MigrationTuning::barrier();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--pipelined" => tuning = MigrationTuning::pipelined(),
            "--live" => tuning = MigrationTuning::live(),
            "--faults" => fault_plan = Some(fault_preset(&args.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }

    let mut sim = Simulation::new(2010);
    if trace_path.is_some() {
        sim.handle().tracer().set_enabled(true);
    }
    let cluster = Cluster::build(&sim.handle(), ClusterSpec::paper_testbed());
    let plane = fault_plan.as_ref().map(|plan| {
        println!("fault plan installed: {plan}");
        cluster.install_fault_plane(plan)
    });
    let workload = Workload::new(NpbApp::Lu, NpbClass::C, 64);
    println!(
        "launching {} on {} compute nodes (+{} spare), image {:.1} MB/process",
        workload.name(),
        cluster.compute_nodes().len(),
        cluster.spare_nodes().len(),
        workload.per_proc_image() as f64 / 1e6
    );
    let rt = JobRuntime::launch(&cluster, JobSpec::npb(workload, 8));

    // A user-initiated migration trigger 30 s into the run, as in §IV
    // ("we simulate the migration trigger by firing a user signal to the
    // Job Manager").
    if tuning.overlap {
        println!(
            "pipelined data path: per-rank restart overlap, restart admission {}",
            rdma_jobmig::core::calib::RESTART_ADMISSION
        );
    }
    if let Some(cfg) = &tuning.live {
        println!(
            "live pre-copy: up to {} rounds, {} KiB pages, {} ms downtime budget",
            cfg.max_rounds,
            rdma_jobmig::livemig::PAGE_BYTES >> 10,
            cfg.downtime_budget_ms,
        );
    }
    rt.control().migrate_after(
        dur::secs(30),
        MigrationRequest::new().label("quickstart").tuning(tuning),
    );

    sim.run_until_set(rt.completion(), SimTime::MAX)
        .expect("simulation");

    println!("application completed at t = {}", sim.now());
    for report in rt.migration_reports() {
        println!("{report}");
        println!(
            "  phase breakdown: stall {:.0} ms | migrate {:.0} ms | restart {:.0} ms | resume {:.0} ms",
            report.stall.as_secs_f64() * 1e3,
            report.migrate.as_secs_f64() * 1e3,
            report.restart.as_secs_f64() * 1e3,
            report.resume.as_secs_f64() * 1e3,
        );
    }
    if let Some(plane) = plane {
        let outcomes = rt.migration_outcomes();
        println!(
            "faults injected: {} | outcomes: {} migrated, {} after retry, {} fell back to CR",
            plane.injected(),
            outcomes.migrated,
            outcomes.migrated_after_retry,
            outcomes.fell_back_to_cr,
        );
        assert_eq!(outcomes.lost, 0, "no trigger may be lost");
    }

    if let Some(path) = trace_path {
        let handle = sim.handle();
        let events = handle.tracer().drain_events();
        let names = handle.tracer().proc_names();
        telemetry::write_chrome_trace(&path, &events, &names).expect("write trace");
        println!(
            "\nwrote {} trace events to {path} (open in https://ui.perfetto.dev)",
            events.len()
        );
        let tl = Timeline::from_events(&events);
        print!("{}", tl.render());
    }
}
