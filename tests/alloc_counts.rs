//! Heap allocations per simulated MPI message in the steady state.
//!
//! A counting global allocator tallies the allocations made on each host
//! thread. Every simulated process runs on the thread that drives its
//! `Simulation`, so the tally between two points of one rank's program
//! covers all the work the message cost: both ranks, the scheduler, the
//! FlowNet and the matching layer. After a warm-up has sized the queues,
//! an eager message allocates nothing and a rendezvous message allocates
//! only its two handshake events (clear-to-send and bulk-done). A change
//! that brings back per-message heap work fails here.
//!
//! A rank's timed endpoint rebuild is pinned too: at 64 ranks it makes
//! one allocation per QP (the QP's shared state) and a fixed few besides,
//! with no receive queue until a QP carries a message.

use ibfabric::{IbConfig, IbFabric, NodeId};
use mpisim::RankCr;
use mpisim::{MpiConfig, MpiJob};
use simkit::Simulation;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per host thread.
struct Counting;

fn count() {
    // A thread being torn down has no counter left; nothing measured runs
    // then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Round trips run before counting starts.
const WARMUP: u64 = 4;
/// Round trips counted.
const ROUNDS: u64 = 16;

/// Allocations made by `ROUNDS` ping-pong round trips of `bytes` between
/// two ranks on two nodes, after `WARMUP` uncounted ones. Each round uses
/// a new tag, as an iterative application's messages do.
fn ping_pong_allocs(bytes: u64) -> u64 {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let fabric = IbFabric::new(&h, IbConfig::default());
    let job = MpiJob::new(&h, fabric, &[NodeId(0), NodeId(1)], MpiConfig::default());
    for r in 0..2 {
        let cr = job.cr(r);
        sim.spawn(&format!("launch{r}"), move |ctx| {
            cr.rebuild_endpoints(ctx, false);
            cr.reopen();
        });
    }
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    let j = job.clone();
    let out = Arc::clone(&counted);
    sim.spawn("r0", move |ctx| {
        let mut r = j.attach(0);
        let mut start = 0;
        for tag in 0..WARMUP + ROUNDS {
            if tag == WARMUP {
                start = allocs();
            }
            r.send(ctx, 1, tag, bytes);
            assert_eq!(r.recv(ctx, 1, tag), bytes);
        }
        out.store(allocs() - start, Ordering::Relaxed);
    });
    let j = job.clone();
    sim.spawn("r1", move |ctx| {
        let mut r = j.attach(1);
        for tag in 0..WARMUP + ROUNDS {
            assert_eq!(r.recv(ctx, 0, tag), bytes);
            r.send(ctx, 0, tag, bytes);
        }
    });
    sim.run().unwrap();
    assert_eq!(job.stats().messages, 2 * (WARMUP + ROUNDS));
    counted.load(Ordering::Relaxed)
}

#[test]
fn a_steady_state_eager_message_allocates_nothing() {
    let bytes = 4096;
    assert!(bytes <= MpiConfig::default().eager_threshold);
    assert_eq!(ping_pong_allocs(bytes), 0);
}

#[test]
fn a_steady_state_rendezvous_message_allocates_its_two_events() {
    let bytes = 1 << 20;
    assert!(bytes > MpiConfig::default().eager_threshold);
    let messages = 2 * ROUNDS;
    assert_eq!(ping_pong_allocs(bytes), 2 * messages);
}

/// Allocations of one rank's timed endpoint rebuild in a 64-rank job on
/// 8 nodes, after one uncounted teardown and rebuild have sized the HCA
/// tables and the timer heap.
fn timed_rebuild_allocs() -> u64 {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let fabric = IbFabric::new(&h, IbConfig::default());
    let nodes: Vec<NodeId> = (0..64).map(|r| NodeId(r / 8)).collect();
    let job = MpiJob::new(&h, fabric, &nodes, MpiConfig::default());
    let j = job.clone();
    sim.spawn("launch", move |ctx| {
        for r in 0..64 {
            j.cr(r).rebuild_endpoints(ctx, false);
        }
    });
    sim.run().unwrap();
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    let out = Arc::clone(&counted);
    let cr: RankCr = job.cr(5);
    sim.spawn("cr-thread", move |ctx| {
        cr.teardown(ctx);
        cr.rebuild_endpoints(ctx, true);
        cr.teardown(ctx);
        let start = allocs();
        cr.rebuild_endpoints(ctx, true);
        out.store(allocs() - start, Ordering::Relaxed);
    });
    sim.run().unwrap();
    counted.load(Ordering::Relaxed)
}

/// The 63 QPs' shared states, the MR's buffer, the peer address list and
/// the QP list. Paid per QP, with a receive queue made for each QP, the
/// rebuild made 128.
#[test]
fn a_timed_64_rank_rebuild_allocates_once_per_qp_and_three_times_more() {
    assert_eq!(timed_rebuild_allocs(), 63 + 3);
}
