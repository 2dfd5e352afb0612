//! Criterion microbenchmarks of the simulation substrates: how fast the
//! simulator itself executes the hot paths (scheduler handoffs, fluid
//! flows, sparse buffers, checkpoint streams, verbs ops, FTB routing, and
//! a complete small migration cycle).

use criterion::{criterion_group, criterion_main, Criterion};
use ibfabric::{DataSlice, IbConfig, IbFabric, NodeId, SparseBuf};
use jobmig_core::prelude::*;
use jobmig_core::runtime::JobSpec;
use npbsim::{NpbApp, NpbClass, Workload};
use simkit::{dur, SimTime, Simulation};
use std::hint::black_box;

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("simkit/10k_sleep_handoffs", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(0);
            sim.spawn("sleeper", |ctx| {
                for _ in 0..10_000 {
                    ctx.sleep(dur::us(1));
                }
            });
            sim.run().unwrap();
            black_box(sim.now())
        })
    });
}

fn bench_link(c: &mut Criterion) {
    c.bench_function("simkit/fluid_link_1k_transfers_4_flows", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(0);
            let link = simkit::Link::new(&sim.handle(), "l", 1e9, simkit::Sharing::Fair);
            for i in 0..4 {
                let l = link.clone();
                sim.spawn(&format!("tx{i}"), move |ctx| {
                    for _ in 0..250 {
                        l.transfer(ctx, 1 << 20);
                    }
                });
            }
            sim.run().unwrap();
            black_box(link.stats().bytes_completed)
        })
    });
}

fn bench_sparsebuf(c: &mut Criterion) {
    c.bench_function("ibfabric/sparsebuf_1k_interleaved_writes", |b| {
        b.iter(|| {
            let mut buf = SparseBuf::new(1 << 30);
            for i in 0..1000u64 {
                buf.write(
                    (i * 37) % ((1 << 30) - 4096),
                    DataSlice::pattern(i, 0, 4096),
                );
            }
            black_box(buf.extent_count())
        })
    });
}

fn bench_ckpt_stream(c: &mut Criterion) {
    let img = blcrsim::ProcessImage::new(1, &b"state"[..]).with_segment(
        blcrsim::SegmentKind::Heap,
        DataSlice::pattern(7, 0, 1 << 30),
    );
    c.bench_function("blcrsim/serialize_parse_1GB_image", |b| {
        b.iter(|| {
            let stream = blcrsim::serialize_image(&img);
            black_box(blcrsim::parse_stream(stream).unwrap())
        })
    });
}

fn bench_rdma(c: &mut Criterion) {
    c.bench_function("ibfabric/1k_rdma_reads_1MB", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(0);
            let fab = IbFabric::new(&sim.handle(), IbConfig::default());
            let h0 = fab.attach(NodeId(0));
            let h1 = fab.attach(NodeId(1));
            let mr = h0.register_mr_instant(1 << 20);
            mr.write_local(0, DataSlice::pattern(1, 0, 1 << 20));
            let remote = mr.remote();
            let q0 = h0.create_qp();
            let q1 = h1.create_qp();
            let (a0, a1) = (q0.addr(), q1.addr());
            sim.spawn("holder", move |ctx| {
                q0.connect(ctx, a1).unwrap();
                ctx.sleep(dur::secs(10));
            });
            sim.spawn("reader", move |ctx| {
                q1.connect(ctx, a0).unwrap();
                for _ in 0..1000 {
                    black_box(q1.rdma_read(ctx, &remote, 0, 1 << 20).unwrap());
                }
                ctx.exit();
            });
            let _ = sim.run_until(SimTime::from_secs_f64(9.0));
        })
    });
}

fn bench_ftb(c: &mut Criterion) {
    c.bench_function("ftb/publish_100_events_9_node_tree", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(0);
            let h = sim.handle();
            let net = ibfabric::Net::new(&h, ibfabric::NetConfig::gige());
            let bp = ftb::FtbBackplane::new(&h, net, ftb::FtbConfig::default());
            bp.add_agent(NodeId(0), None);
            for n in 1..9 {
                bp.add_agent(NodeId(n), Some(NodeId(0)));
            }
            // A subscriber on every node, so each event fans out to all 9.
            let _subs: Vec<_> = (0..9)
                .map(|n| {
                    ftb::FtbClient::connect(&bp, NodeId(n), "sub")
                        .subscribe(&h, ftb::EventFilter::all())
                })
                .collect();
            let client = ftb::FtbClient::connect(&bp, NodeId(5), "pub");
            sim.spawn("pub", move |ctx| {
                for k in 0..100 {
                    client.publish(
                        ctx,
                        ftb::FtbEvent::simple(
                            "S",
                            &format!("E{k}"),
                            ftb::Severity::Info,
                            NodeId(5),
                        ),
                    );
                }
            });
            let _ = sim.run_until(SimTime::from_secs_f64(2.0));
        })
    });
}

fn bench_migration_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("end-to-end");
    g.sample_size(10);
    g.bench_function("small_migration_cycle_4_ranks", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(0);
            let cluster = Cluster::build(&sim.handle(), ClusterSpec::sized(2, 1));
            let wl = Workload::new(NpbApp::Lu, NpbClass::A, 4);
            let rt = JobRuntime::launch(&cluster, JobSpec::npb(wl, 2));
            rt.control()
                .migrate_after(dur::secs(10), MigrationRequest::new());
            let rt2 = rt.clone();
            while rt2.migration_reports().is_empty() {
                sim.run_for(dur::secs(5)).unwrap();
            }
            black_box(rt.migration_reports().len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_link,
    bench_sparsebuf,
    bench_ckpt_stream,
    bench_rdma,
    bench_ftb,
    bench_migration_cycle
);
criterion_main!(benches);
