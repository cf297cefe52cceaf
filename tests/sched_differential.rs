//! Differential tests for the timing-pass fast paths (DESIGN.md §11)
//! and the parallel timing pass (DESIGN.md §13): cohort event batching,
//! homogeneous-grid fast-forward and timing-domain parallelism are pure
//! host-side speedups, so every profiler-visible number — and the exported Chrome trace, byte for
//! byte — must be identical with each of them on and off, across every
//! template, the sorts, the apps, multi-stream HyperQ batches, both memo
//! modes, 1/2/8 timing-pass lanes, 1 and 8 host threads, and strict
//! checking. Only [`SimStats`] (wall time, counters) may differ.

use std::sync::Arc;

use npar::apps::{bfs, sort, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{citeseer_like, with_random_weights};
use npar::sim::{CheckLevel, Gpu, LaunchConfig, Report, SimStats, Stream, ThreadCtx, ThreadKernel};
use npar::tree::TreeGen;

/// Run the same workload with the fast paths on and off — profiler
/// attached both times — and require bit-identical reports (modulo the
/// host-side [`SimStats`]) and byte-identical Chrome traces.
fn assert_ff_invariant(label: &str, mk: impl Fn() -> Gpu, run: impl Fn(&mut Gpu) -> Report) {
    let mut on = mk().with_profiler(true);
    let mut off = mk().with_profiler(true).with_fast_forward(false);
    assert!(on.fast_forward_enabled() && !off.fast_forward_enabled());
    let mut r_on = run(&mut on);
    let mut r_off = run(&mut off);
    r_on.sim = SimStats::default();
    r_off.sim = SimStats::default();
    assert_eq!(r_on, r_off, "{label}: report differs between ffwd modes");
    let t_on = on.take_profile().to_chrome_trace();
    let t_off = off.take_profile().to_chrome_trace();
    assert_eq!(
        t_on, t_off,
        "{label}: Chrome trace differs between ffwd modes"
    );
}

fn assert_ff_invariant_default(label: &str, check: CheckLevel, run: impl Fn(&mut Gpu) -> Report) {
    assert_ff_invariant(label, || Gpu::k20().with_check(check), &run);
}

#[test]
fn loop_templates_are_ff_invariant() {
    let g = with_random_weights(&citeseer_like(900, 11), 10, 12);
    for template in LoopTemplate::ALL {
        assert_ff_invariant_default(&format!("sssp/{template}"), CheckLevel::Off, |gpu| {
            sssp::sssp_gpu(gpu, &g, 0, template, &LoopParams::with_lb_thres(32)).report
        });
    }
}

#[test]
fn rec_templates_are_ff_invariant() {
    let tree = TreeGen {
        depth: 5,
        outdegree: 5,
        sparsity: 1,
        seed: 9,
    }
    .generate();
    for template in RecTemplate::ALL {
        assert_ff_invariant_default(&format!("tree/{template}"), CheckLevel::Off, |gpu| {
            tree_apps::tree_gpu(
                gpu,
                &tree,
                tree_apps::TreeMetric::Descendants,
                template,
                &RecParams::default(),
            )
            .report
        });
    }
}

#[test]
fn sorts_are_ff_invariant() {
    let input: Vec<u32> = (0..1500u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 512)
        .collect();
    for algo in [
        sort::SortAlgo::MergeFlat,
        sort::SortAlgo::QuickSimple,
        sort::SortAlgo::QuickAdvanced,
    ] {
        assert_ff_invariant_default(algo.label(), CheckLevel::Off, |gpu| {
            sort::sort_gpu(gpu, &input, algo, &sort::SortParams::default()).report
        });
    }
}

#[test]
fn recursive_bfs_is_ff_invariant_under_warn() {
    let g = citeseer_like(500, 3);
    assert_ff_invariant_default("bfs-recursive", CheckLevel::Warn, |gpu| {
        bfs::bfs_recursive_gpu(gpu, &g, 0, bfs::RecBfsVariant::Hier, 2).report
    });
}

#[test]
fn spmv_is_ff_invariant_under_warn() {
    let g = citeseer_like(700, 5);
    let x = vec![1.0f32; g.num_nodes()];
    for template in [LoopTemplate::ThreadMapped, LoopTemplate::DbufShared] {
        assert_ff_invariant_default(&format!("spmv/{template}"), CheckLevel::Warn, |gpu| {
            spmv::spmv_gpu(gpu, &g, &x, template, &LoopParams::default()).report
        });
    }
}

/// The fast paths must also be invariant with memoization off (replayed
/// blocks are cohort-uniform by construction; traced blocks must be
/// re-proven bitwise) and at any host thread count (the timing pass runs
/// serially after the canonical merge).
#[test]
fn memo_and_thread_variations_are_ff_invariant() {
    let g = with_random_weights(&citeseer_like(600, 7), 10, 12);
    for memo in [true, false] {
        for threads in [1usize, 8] {
            let label = format!("sssp/dpar-opt memo={memo} threads={threads}");
            assert_ff_invariant(
                &label,
                || Gpu::k20().with_memo(memo).with_threads(threads),
                |gpu| {
                    sssp::sssp_gpu(
                        gpu,
                        &g,
                        0,
                        LoopTemplate::DparOpt,
                        &LoopParams::with_lb_thres(32),
                    )
                    .report
                },
            );
        }
    }
}

/// A hazard-free uniform kernel: every block records the same trace, so
/// the fast-forward wheel engages, and strict checking stays quiet.
struct Saxpy {
    n: usize,
    x: npar::sim::GBuf<f32>,
    y: npar::sim::GBuf<f32>,
}

impl ThreadKernel for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        if i < self.n {
            t.ld(&self.x, i);
            t.ld(&self.y, i);
            t.compute(2);
            t.st(&self.y, i);
        }
    }
}

fn launch_saxpy_streams(gpu: &mut Gpu, launches: usize, streams: u32) -> Report {
    let n = 64 * 128;
    let x = gpu.alloc::<f32>(n);
    let y = gpu.alloc::<f32>(n);
    let k = Arc::new(Saxpy { n, x, y });
    for i in 0..launches {
        gpu.launch_in(
            k.clone(),
            LaunchConfig::new(64, 128),
            Stream::Slot(i as u32 % streams),
        )
        .unwrap();
    }
    gpu.synchronize()
}

#[test]
fn strict_checking_is_ff_invariant() {
    assert_ff_invariant_default("saxpy/strict", CheckLevel::Strict, |gpu| {
        launch_saxpy_streams(gpu, 3, 1)
    });
}

/// Multi-stream HyperQ batch: overlapping host streams exercise the inert-
/// release entry condition of the wheel (releases of non-head grids queued
/// while another grid fast-forwards).
#[test]
fn hyperq_streams_are_ff_invariant() {
    assert_ff_invariant_default("saxpy/hyperq", CheckLevel::Off, |gpu| {
        launch_saxpy_streams(gpu, 8, 4)
    });
}

/// Run the same workload with `timing_threads` lanes and with the serial
/// timing pass, and require bit-identical reports (modulo host-side
/// [`SimStats`]) and byte-identical Chrome traces. Returns the parallel
/// run's stats so callers can assert the domain machinery engaged.
fn assert_tt_invariant(
    label: &str,
    mk: impl Fn() -> Gpu,
    run: impl Fn(&mut Gpu) -> Report,
) -> SimStats {
    // Pin the baseline to the serial pass explicitly — CI re-runs this
    // suite under NPAR_TIMING_THREADS=8, which changes the default.
    let mut serial = mk().with_profiler(true).with_timing_threads(1);
    assert_eq!(
        serial.timing_threads(),
        1,
        "{label}: baseline must be serial"
    );
    let mut r_serial = run(&mut serial);
    let t_serial = serial.take_profile().to_chrome_trace();
    r_serial.sim = SimStats::default();
    let mut last = SimStats::default();
    for tt in [2usize, 8] {
        let mut par = mk().with_profiler(true).with_timing_threads(tt);
        assert_eq!(par.timing_threads(), tt);
        let mut r_par = run(&mut par);
        last = r_par.sim;
        r_par.sim = SimStats::default();
        assert_eq!(
            r_par, r_serial,
            "{label}: report differs at timing-threads={tt}"
        );
        let t_par = par.take_profile().to_chrome_trace();
        assert_eq!(
            t_par, t_serial,
            "{label}: Chrome trace differs at timing-threads={tt}"
        );
    }
    last
}

/// The full cross product the determinism contract promises: timing
/// lanes x fast-forward x memo over a multi-stream HyperQ batch whose
/// long kernels overlap in time, so every parallel run partitions into
/// several domains and rolls them back to the serial suffix. The merge
/// must still be bitwise.
#[test]
fn timing_threads_matrix_is_invariant() {
    for memo in [true, false] {
        for ffwd in [true, false] {
            let label = format!("saxpy/hyperq memo={memo} ffwd={ffwd}");
            let stats = assert_tt_invariant(
                &label,
                || Gpu::k20().with_memo(memo).with_fast_forward(ffwd),
                |gpu| launch_saxpy_streams(gpu, 8, 4),
            );
            assert!(
                stats.timing_domains >= 2,
                "{label}: expected multiple timing domains, got {stats:?}"
            );
        }
    }
}

#[test]
fn timing_threads_are_invariant_under_strict_checking() {
    assert_tt_invariant(
        "saxpy/hyperq strict",
        || Gpu::k20().with_check(CheckLevel::Strict),
        |gpu| launch_saxpy_streams(gpu, 8, 4),
    );
}

#[test]
fn timing_threads_are_invariant_on_irregular_apps() {
    let g = with_random_weights(&citeseer_like(600, 7), 10, 12);
    assert_tt_invariant("sssp/dpar-opt", Gpu::k20, |gpu| {
        sssp::sssp_gpu(
            gpu,
            &g,
            0,
            LoopTemplate::DparOpt,
            &LoopParams::with_lb_thres(32),
        )
        .report
    });
}

/// A single-warp compute-only kernel: every warp trace is identical, so
/// span == work bitwise per block, and a full-SM shared-memory
/// reservation pins residency to one block per SM.
struct UniformCompute {
    cycles: u32,
}

impl ThreadKernel for UniformCompute {
    fn name(&self) -> &str {
        "uniform-compute"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.compute(self.cycles);
    }
}

fn launch_uniform(gpu: &mut Gpu, blocks: u32, streams: u32, cycles: u32) -> Report {
    let k = Arc::new(UniformCompute { cycles });
    let smem = gpu.device().shared_mem_per_block;
    for s in 0..streams {
        gpu.launch_in(
            k.clone(),
            LaunchConfig::with_shared(blocks, 32, smem),
            Stream::Slot(s),
        )
        .unwrap();
    }
    gpu.synchronize()
}

/// Short kernels on separate streams finish inside the host launch
/// cadence, so their time windows are disjoint and the optimistic commit
/// keeps every domain — the parallel path, not the rollback fallback.
#[test]
fn disjoint_stream_windows_commit_and_stay_invariant() {
    let stats = assert_tt_invariant("uniform/disjoint", Gpu::tiny, |gpu| {
        launch_uniform(gpu, 2, 4, 8)
    });
    assert!(
        stats.timing_domains >= 2 && stats.timing_domains_committed >= 2,
        "expected committed parallel domains, got {stats:?}"
    );
}

/// Timing domains on four lanes against the serial pass, at both
/// fast-forward settings, on an irregular app with the profiler on: not a
/// single byte of the report or the Chrome trace may move.
#[test]
fn timing_lanes_are_invariant_on_irregular_apps() {
    let input: Vec<u32> = (0..900u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 512)
        .collect();
    for ffwd in [true, false] {
        let label = format!("quick-adv timing lanes ffwd={ffwd}");
        let mk = |lanes: usize| {
            Gpu::k20()
                .with_profiler(true)
                .with_fast_forward(ffwd)
                .with_timing_threads(lanes)
        };
        let run = |gpu: &mut Gpu| {
            sort::sort_gpu(
                gpu,
                &input,
                sort::SortAlgo::QuickAdvanced,
                &sort::SortParams::default(),
            )
            .report
        };
        let mut serial = mk(1);
        let mut lanes = mk(4);
        let mut r_serial = run(&mut serial);
        let mut r_lanes = run(&mut lanes);
        r_serial.sim = SimStats::default();
        r_lanes.sim = SimStats::default();
        assert_eq!(r_serial, r_lanes, "{label}: report differs");
        assert_eq!(
            serial.take_profile().to_chrome_trace(),
            lanes.take_profile().to_chrome_trace(),
            "{label}: Chrome trace differs"
        );
    }
}

#[test]
fn fast_paths_actually_engage_end_to_end() {
    // Guard against the differential tests passing vacuously: a uniform
    // single-stream batch must actually take the fast-forward wheel. The
    // wheel leaves no report-visible trace by design, so probe it the same
    // way a regression would surface: the escape hatch must change nothing
    // while both modes run the full stack (profiler on, memo on).
    let mut gpu = Gpu::k20().with_profiler(true);
    assert!(gpu.fast_forward_enabled(), "fast paths should default on");
    let r = launch_saxpy_streams(&mut gpu, 4, 1);
    assert!(
        r.sim.timing_pass_ns > 0,
        "timing pass not measured: {:?}",
        r.sim
    );
    gpu.set_fast_forward(false);
    assert!(!gpu.fast_forward_enabled());
}
