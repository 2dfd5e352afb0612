//! # npbsim — synthetic NAS Parallel Benchmark workloads
//!
//! Models the three NPB 3.2 applications the paper evaluates (LU, BT, SP,
//! class C) as iterative bulk-synchronous codes over [`mpisim`]: per
//! iteration a compute phase, a red/black-ordered ring neighbour exchange,
//! and a periodic allreduce; per-rank memory footprints are solved from
//! the paper's own Table I (which is internally consistent: the migration
//! column is 8 processes' images, the CR column 64).
//!
//! The *logical* state of a rank is just its iteration counter — which is
//! exactly what survives a BLCR restore in this simulation (plus the
//! pattern-backed heap segments standing in for the solver arrays).
//!
//! Calibration notes (see `jobmig-core::calib` for the cluster side):
//! iteration counts are the NPB defaults (LU 250, BT 200, SP 400); base
//! runtimes are typical for 64 ranks of class C on 2.33 GHz Harpertown
//! Xeons and were chosen so that one migration's overhead lands in the
//! paper's 3.9–6.7 % band when the migration cycle matches Figure 4.

#![forbid(unsafe_code)]

use blcrsim::{Segment, SegmentKind};
use bytes::Bytes;
use ibfabric::DataSlice;
use mpisim::MpiRank;
use simkit::Ctx;
use std::sync::Arc;
use std::time::Duration;

/// Page size of the paged heap segments (also the live-migration
/// dirty-tracking granularity).
pub const PAGE: u64 = 64 << 10;

/// Index of the heap segment in [`Workload::segments`]'s layout.
pub const HEAP_SEG: usize = 1;

/// Which NPB application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbApp {
    /// Lower-Upper Gauss-Seidel solver.
    Lu,
    /// Block Tri-diagonal solver.
    Bt,
    /// Scalar Penta-diagonal solver.
    Sp,
}

impl NpbApp {
    /// Benchmark name as NPB prints it.
    pub fn name(&self) -> &'static str {
        match self {
            NpbApp::Lu => "LU",
            NpbApp::Bt => "BT",
            NpbApp::Sp => "SP",
        }
    }
}

/// NPB problem class (only C is used in the paper; A/B provided for
/// smaller tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbClass {
    /// Small.
    A,
    /// Medium.
    B,
    /// Large (the paper's evaluations).
    C,
}

impl NpbClass {
    /// Suffix as NPB prints it.
    pub fn name(&self) -> &'static str {
        match self {
            NpbClass::A => "A",
            NpbClass::B => "B",
            NpbClass::C => "C",
        }
    }

    /// Data scale factor relative to class C.
    fn scale(&self) -> f64 {
        match self {
            NpbClass::A => 1.0 / 16.0,
            NpbClass::B => 1.0 / 4.0,
            NpbClass::C => 1.0,
        }
    }
}

/// A fully-parameterised workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Application.
    pub app: NpbApp,
    /// Problem class.
    pub class: NpbClass,
    /// Number of MPI ranks.
    pub np: u32,
    /// Iteration (time-step) count.
    pub iters: u32,
    /// Total application-owned data across all ranks, bytes.
    pub aggregate_data: u64,
    /// Fixed per-process overhead (runtime, buffers), bytes.
    pub per_proc_overhead: u64,
    /// Base (migration-free) runtime for this `np`.
    pub base_runtime: Duration,
    /// Neighbour-exchange payload per direction per iteration, bytes.
    pub exchange_bytes: u64,
    /// Allreduce period in iterations (convergence checks).
    pub allreduce_every: u32,
}

impl Workload {
    /// Build the standard model for `app.class.np`.
    pub fn new(app: NpbApp, class: NpbClass, np: u32) -> Self {
        assert!(np >= 2 && np.is_power_of_two(), "NPB wants 2^k ranks >= 2");
        let s = class.scale();
        // Aggregate data solved from the paper's Table I at np=64 with a
        // 10 MB per-process runtime overhead:
        //   LU.C 21.3 MB/proc, BT.C 38.6 MB/proc, SP.C 37.9 MB/proc.
        let (aggregate_c, iters, base64_secs, exch) = match app {
            NpbApp::Lu => (723_000_000u64, 250, 160.0, 40 << 10),
            NpbApp::Bt => (1_830_000_000, 200, 160.0, 160 << 10),
            NpbApp::Sp => (1_785_000_000, 400, 215.0, 120 << 10),
        };
        // Strong scaling from the 64-rank baseline.
        let base = base64_secs * 64.0 / np as f64;
        Workload {
            app,
            class,
            np,
            iters,
            aggregate_data: (aggregate_c as f64 * s) as u64,
            per_proc_overhead: 10_000_000,
            base_runtime: Duration::from_secs_f64(base),
            exchange_bytes: (exch as f64 * s).max(1024.0) as u64,
            allreduce_every: 5,
        }
    }

    /// Canonical benchmark name, e.g. `LU.C.64`.
    pub fn name(&self) -> String {
        format!("{}.{}.{}", self.app.name(), self.class.name(), self.np)
    }

    /// Checkpointable image size of one rank, bytes.
    pub fn per_proc_image(&self) -> u64 {
        self.aggregate_data / self.np as u64 + self.per_proc_overhead
    }

    /// Compute time per iteration.
    pub fn per_iter_compute(&self) -> Duration {
        Duration::from_secs_f64(self.base_runtime.as_secs_f64() / self.iters as f64)
    }

    /// The memory segments a rank of this workload registers (heap solver
    /// arrays + small stack), with content seeded per `(job_seed, rank)`.
    ///
    /// The heap is a [`PAGE`]-grained page grid (initially every page
    /// carries the rank seed, so content matches the old flat pattern);
    /// the solver's per-iteration writes reseed individual pages, which is
    /// what live migration's dirty tracking observes.
    pub fn segments(&self, job_seed: u64, rank: u32) -> Vec<Segment> {
        let seed = job_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(rank as u64);
        const STACK: u64 = 192;
        let heap = self.per_proc_image() - STACK;
        vec![
            Segment {
                kind: SegmentKind::Stack,
                data: DataSlice::pattern(seed ^ 0x5741, 0, STACK),
            },
            Segment {
                kind: SegmentKind::Heap,
                data: DataSlice::paged(
                    Arc::new(vec![seed; heap.div_ceil(PAGE) as usize]),
                    PAGE,
                    heap,
                ),
            },
        ]
    }

    /// Heap pages one iteration's solver sweep rewrites (a small, fixed
    /// working-set fraction — the knob behind pre-copy convergence).
    pub fn dirty_pages_per_iter(&self) -> u64 {
        let npages = (self.per_proc_image() - 192).div_ceil(PAGE);
        (npages / 48).max(1)
    }

    /// The deterministic page set iteration `it` rewrites. A pure function
    /// of the iteration number, so replaying an interrupted iteration
    /// after restart touches identical pages.
    pub fn write_set(&self, it: u32) -> Vec<u64> {
        let npages = (self.per_proc_image() - 192).div_ceil(PAGE);
        let w = self.dirty_pages_per_iter();
        (0..w)
            .map(|k| (it as u64 * w + k * 131).wrapping_mul(0x9E37_79B9) % npages)
            .collect()
    }
}

/// Application state carried across checkpoints: the next iteration to
/// execute, little-endian encoded.
pub fn encode_state(next_iter: u32) -> Bytes {
    Bytes::copy_from_slice(&next_iter.to_le_bytes())
}

/// Decode the iteration counter (0 for a fresh start / empty state).
pub fn decode_state(state: &Bytes) -> u32 {
    if state.len() >= 4 {
        u32::from_le_bytes(state[..4].try_into().unwrap())
    } else {
        0
    }
}

/// Run the workload body on an attached rank handle until completion.
///
/// This function is re-entrant across migrations: it reads the restored
/// iteration counter from the rank's application state, registers its
/// memory segments if absent, and relies on `mpisim`'s replay-safe ops for
/// the interrupted iteration.
pub fn run_rank(ctx: &Ctx, rank: &mut MpiRank, w: &Workload, job_seed: u64) {
    let start_iter = decode_state(&rank.app_state());
    if start_iter == 0 {
        rank.set_segments(w.segments(job_seed, rank.rank()));
    }
    let np = w.np;
    let r = rank.rank();
    let right = (r + 1) % np;
    let left = (r + np - 1) % np;
    let per_iter = w.per_iter_compute();
    for it in start_iter..w.iters {
        rank.compute(ctx, per_iter);
        // The sweep's array updates: reseed this iteration's working-set
        // pages. Deterministic in `it`, so replay after restart is exact.
        let stamp = job_seed
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(((r as u64) << 32) | (it as u64 + 1));
        rank.write_pages(HEAP_SEG, &w.write_set(it), stamp);
        // Red/black-ordered bidirectional ring exchange (deadlock-free
        // with blocking rendezvous sends; np is a power of two ≥ 2).
        let t_right = tag(it, 0);
        let t_left = tag(it, 1);
        if r.is_multiple_of(2) {
            rank.send(ctx, right, t_right, w.exchange_bytes);
            rank.recv(ctx, right, t_left);
            rank.send(ctx, left, t_left, w.exchange_bytes);
            rank.recv(ctx, left, t_right);
        } else {
            rank.recv(ctx, left, t_right);
            rank.send(ctx, left, t_left, w.exchange_bytes);
            rank.recv(ctx, right, t_left);
            rank.send(ctx, right, t_right, w.exchange_bytes);
        }
        if it % w.allreduce_every == 0 {
            rank.allreduce(ctx, it as u64, 16);
        }
        rank.op_boundary(encode_state(it + 1));
    }
    rank.barrier(ctx, w.iters as u64 + 1);
}

fn tag(iter: u32, dir: u64) -> u64 {
    ((iter as u64) << 8) | dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_image_sizes_at_64_ranks() {
        // Paper Table I: migration moves 8 processes' images.
        let lu = Workload::new(NpbApp::Lu, NpbClass::C, 64);
        let bt = Workload::new(NpbApp::Bt, NpbClass::C, 64);
        let sp = Workload::new(NpbApp::Sp, NpbClass::C, 64);
        let mb = |b: u64| b as f64 / 1e6;
        assert!((mb(lu.per_proc_image() * 8) - 170.4).abs() < 2.0);
        assert!((mb(bt.per_proc_image() * 8) - 308.8).abs() < 2.0);
        assert!((mb(sp.per_proc_image() * 8) - 303.2).abs() < 2.0);
        // and the CR column is exactly 8x (64 vs 8 processes)
        assert!((mb(lu.per_proc_image() * 64) - 1363.2).abs() < 16.0);
        assert!((mb(bt.per_proc_image() * 64) - 2470.4).abs() < 16.0);
        assert!((mb(sp.per_proc_image() * 64) - 2425.6).abs() < 16.0);
    }

    #[test]
    fn fewer_ranks_mean_bigger_images() {
        let w8 = Workload::new(NpbApp::Lu, NpbClass::C, 8);
        let w64 = Workload::new(NpbApp::Lu, NpbClass::C, 64);
        assert!(w8.per_proc_image() > 4 * w64.per_proc_image());
    }

    #[test]
    fn state_roundtrip() {
        assert_eq!(decode_state(&encode_state(17)), 17);
        assert_eq!(decode_state(&Bytes::new()), 0);
    }

    #[test]
    fn segments_differ_per_rank_and_total_to_image_size() {
        let w = Workload::new(NpbApp::Bt, NpbClass::C, 64);
        let s0 = w.segments(1, 0);
        let s1 = w.segments(1, 1);
        let total: u64 = s0.iter().map(|s| s.data.len).sum();
        assert_eq!(total, w.per_proc_image());
        assert!(!s0[1].data.content_eq(&s1[1].data));
    }

    #[test]
    fn class_scaling_shrinks_data() {
        let c = Workload::new(NpbApp::Lu, NpbClass::C, 8);
        let a = Workload::new(NpbApp::Lu, NpbClass::A, 8);
        assert!(a.aggregate_data * 8 <= c.aggregate_data);
    }

    #[test]
    fn names_match_npb_convention() {
        assert_eq!(Workload::new(NpbApp::Sp, NpbClass::C, 16).name(), "SP.C.16");
    }
}
