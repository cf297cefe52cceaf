//! Differential tests for parallel host execution (DESIGN.md §10): thread
//! count is a pure host-side speedup, so every profiler-visible number —
//! cycles, per-kernel metrics, hazard counts, exported Chrome traces — must
//! be *bit-identical* at 1, 2 and 8 worker threads, across the loop and
//! recursive templates, the sort study, the graph apps, with memoization on
//! and off, at every checker level. Only [`SimStats`] (wall time, cache
//! hit/miss counters) may depend on the thread count.

use std::rc::Rc;

use npar::apps::{bfs, sort, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{citeseer_like, with_random_weights};
use npar::sim::{
    BlockCtx, CheckLevel, Gpu, Kernel, KernelRef, LaunchConfig, Report, SimStats, Stream,
    ThreadCtx, ThreadKernel,
};
use npar::tree::TreeGen;

const THREADS: [usize; 2] = [2, 8];

/// Run the same workload serially and at several thread counts and require
/// the reports to match exactly, modulo the host-side [`SimStats`].
fn assert_thread_invariant(
    label: &str,
    check: CheckLevel,
    memo: bool,
    run: impl Fn(&mut Gpu) -> Report,
) {
    let build = |threads: usize| {
        Gpu::k20()
            .with_check(check)
            .with_memo(memo)
            .with_threads(threads)
    };
    let mut serial_gpu = build(1);
    let mut base = run(&mut serial_gpu);
    base.sim = SimStats::default();
    for threads in THREADS {
        let mut gpu = build(threads);
        assert_eq!(gpu.threads(), threads);
        let mut r = run(&mut gpu);
        r.sim = SimStats::default();
        assert_eq!(
            base, r,
            "{label}: report differs at {threads} threads (memo={memo}, {check:?})"
        );
    }
}

#[test]
fn loop_templates_are_thread_invariant() {
    let g = with_random_weights(&citeseer_like(600, 9), 10, 12);
    for template in LoopTemplate::ALL {
        for memo in [true, false] {
            assert_thread_invariant(&format!("sssp/{template}"), CheckLevel::Off, memo, |gpu| {
                sssp::sssp_gpu(gpu, &g, 0, template, &LoopParams::with_lb_thres(32)).report
            });
        }
    }
}

#[test]
fn rec_templates_are_thread_invariant() {
    let tree = TreeGen {
        depth: 5,
        outdegree: 5,
        sparsity: 1,
        seed: 9,
    }
    .generate();
    for template in RecTemplate::ALL {
        for memo in [true, false] {
            assert_thread_invariant(&format!("tree/{template}"), CheckLevel::Off, memo, |gpu| {
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
}

#[test]
fn sorts_are_thread_invariant() {
    // QuickAdvanced is the dynamic-parallelism-heavy one: parents join
    // children mid-block, which forces the chunked executor to flush its
    // deferred blocks before every nested grid.
    let input: Vec<u32> = (0..1200u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 512)
        .collect();
    for algo in [
        sort::SortAlgo::MergeFlat,
        sort::SortAlgo::QuickSimple,
        sort::SortAlgo::QuickAdvanced,
    ] {
        for memo in [true, false] {
            assert_thread_invariant(algo.label(), CheckLevel::Off, memo, |gpu| {
                sort::sort_gpu(gpu, &input, algo, &sort::SortParams::default()).report
            });
        }
    }
}

#[test]
fn spmv_is_thread_invariant_under_warn() {
    // Warn keeps runs alive while recording hazard counts, which are part
    // of the report and so also checked for bit-equality.
    let g = citeseer_like(500, 5);
    let x = vec![1.0f32; g.num_nodes()];
    for template in [LoopTemplate::ThreadMapped, LoopTemplate::DbufShared] {
        assert_thread_invariant(&format!("spmv/{template}"), CheckLevel::Warn, true, |gpu| {
            spmv::spmv_gpu(gpu, &g, &x, template, &LoopParams::default()).report
        });
    }
}

#[test]
fn recursive_bfs_is_thread_invariant_under_warn() {
    let g = citeseer_like(400, 3);
    for memo in [true, false] {
        assert_thread_invariant("bfs-recursive", CheckLevel::Warn, memo, |gpu| {
            bfs::bfs_recursive_gpu(gpu, &g, 0, bfs::RecBfsVariant::Hier, 2).report
        });
    }
}

/// A hazard-free kernel so the strict checker stays quiet while the cache
/// takes real hits.
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

fn launch_saxpy(gpu: &mut Gpu, launches: usize) -> Report {
    let n = 64 * 128;
    let x = gpu.alloc::<f32>(n);
    let y = gpu.alloc::<f32>(n);
    let k = Rc::new(Saxpy { n, x, y });
    for _ in 0..launches {
        gpu.launch(k.clone(), LaunchConfig::new(64, 128)).unwrap();
    }
    gpu.synchronize()
}

#[test]
fn strict_checking_is_thread_invariant() {
    for memo in [true, false] {
        assert_thread_invariant("saxpy/strict", CheckLevel::Strict, memo, |gpu| {
            launch_saxpy(gpu, 3)
        });
    }
}

#[test]
fn profiler_timelines_are_thread_invariant() {
    // The timeline profiler hooks into the (serial) timing pass, but its
    // replayed-block marks and child-grid ids come from the merge — the
    // whole exported Chrome trace must be byte-identical at any thread
    // count.
    let run = |threads: usize| {
        let mut gpu = Gpu::k20().with_threads(threads).with_profiler(true);
        let mut r = launch_saxpy(&mut gpu, 2);
        r.sim = SimStats::default();
        (r, gpu.take_profile().to_chrome_trace())
    };
    let (base_report, base_trace) = run(1);
    for threads in THREADS {
        let (r, trace) = run(threads);
        assert_eq!(base_report, r, "report differs at {threads} threads");
        assert_eq!(
            base_trace, trace,
            "chrome trace differs at {threads} threads"
        );
    }
}

/// A dynamic-parallelism-heavy recursive kernel: every block's leader
/// launches a child grid of the same kernel one level down, fire-and-forget
/// (joined at grid completion, never by `sync_children`). With several
/// blocks per grid the chunked executor defers many launch-bearing blocks
/// per flush, and every grid of the cascade registers its children while
/// earlier blocks of the same grid still wait for alignment.
struct RecSpawn {
    depth: u32,
    data: npar::sim::GBuf<f32>,
}

impl Kernel for RecSpawn {
    fn name(&self) -> &str {
        "rec-spawn"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let depth = self.depth;
        let data = self.data;
        blk.for_each_thread(|t| {
            let i = t.global_id() % 4096;
            t.ld(&data, i);
            t.compute(2 + depth);
            t.st(&data, i);
        });
        blk.sync();
        if depth > 0 {
            let child: KernelRef = Rc::new(RecSpawn {
                depth: depth - 1,
                data: self.data,
            });
            blk.leader(|t| {
                t.compute(4);
                // Alternate device streams like the paper's per-block
                // extra-stream variant.
                t.launch(&child, LaunchConfig::new(4, 64), Stream::Slot(depth % 2));
            });
        }
    }
}

fn launch_rec_spawn(gpu: &mut Gpu) -> Report {
    let data = gpu.alloc::<f32>(4096);
    gpu.launch(
        Rc::new(RecSpawn { depth: 3, data }),
        LaunchConfig::new(16, 64),
    )
    .unwrap();
    gpu.synchronize()
}

#[test]
fn recursive_dp_kernel_is_thread_invariant() {
    for (check, memo) in [
        (CheckLevel::Off, true),
        (CheckLevel::Off, false),
        (CheckLevel::Warn, true),
    ] {
        assert_thread_invariant("rec-spawn", check, memo, launch_rec_spawn);
    }
    // Sanity: the recursion actually fanned out into device launches.
    let mut gpu = Gpu::k20().with_threads(2);
    let r = launch_rec_spawn(&mut gpu);
    assert_eq!(r.host_launches, 1);
    assert!(
        r.device_launches >= 16,
        "expected a device-launch cascade, got {}",
        r.device_launches
    );
}

/// Invalid device launches are recorded mid-trace, while earlier blocks of
/// the grid wait in the chunked executor's deferred list — hazard counts
/// (and under Warn, the execution that continues past them) must not
/// depend on the thread count.
struct BadLauncher;

impl Kernel for BadLauncher {
    fn name(&self) -> &str {
        "bad-launcher"
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        blk.for_each_thread(|t| t.compute(1));
        let child: KernelRef = Rc::new(BadLauncher);
        blk.leader(|t| {
            // block_dim 4096 exceeds every device limit: recorded as an
            // InvalidChildLaunch hazard, the child is dropped.
            t.launch(&child, LaunchConfig::new(1, 4096), Stream::Default);
        });
    }
}

#[test]
fn invalid_child_launch_hazards_are_thread_invariant() {
    assert_thread_invariant("bad-launcher", CheckLevel::Warn, true, |gpu| {
        gpu.launch(Rc::new(BadLauncher), LaunchConfig::new(12, 32))
            .unwrap();
        gpu.synchronize()
    });
    let mut gpu = Gpu::k20().with_check(CheckLevel::Warn).with_threads(8);
    gpu.launch(Rc::new(BadLauncher), LaunchConfig::new(12, 32))
        .unwrap();
    let r = gpu.synchronize();
    assert_eq!(r.hazards, 12, "one invalid-launch hazard per block");
    assert_eq!(r.device_launches, 0);
}
