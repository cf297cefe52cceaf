//! Differential tests for alignment memoization (DESIGN.md §8): the cache
//! is a pure host-side speedup, so every profiler-visible number — cycles,
//! per-kernel metrics, hazard counts — must be *bit-identical* with the
//! cache on and off, across every template, the sort study, and the apps,
//! at every checker level. Only [`SimStats`] (wall time, hit counters) may
//! differ between the two modes.

use std::rc::Rc;

use npar::apps::{bfs, sort, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{citeseer_like, with_random_weights};
use npar::sim::{CheckLevel, Gpu, LaunchConfig, Report, SimStats, ThreadCtx, ThreadKernel};
use npar::tree::TreeGen;

/// Run the same workload on a memoizing and a non-memoizing simulator and
/// require the reports to match exactly, modulo the host-side [`SimStats`].
fn assert_identical(label: &str, check: CheckLevel, run: impl Fn(&mut Gpu) -> Report) {
    let mut on = Gpu::k20().with_check(check);
    let mut off = Gpu::k20().with_check(check).with_memo(false);
    assert!(on.memo_enabled() && !off.memo_enabled());
    let mut r_on = run(&mut on);
    let mut r_off = run(&mut off);
    r_on.sim = SimStats::default();
    r_off.sim = SimStats::default();
    assert_eq!(r_on, r_off, "{label}: report differs between memo modes");
}

#[test]
fn loop_templates_are_memo_invariant() {
    let g = with_random_weights(&citeseer_like(900, 11), 10, 12);
    for template in LoopTemplate::ALL {
        assert_identical(&format!("sssp/{template}"), CheckLevel::Off, |gpu| {
            sssp::sssp_gpu(gpu, &g, 0, template, &LoopParams::with_lb_thres(32)).report
        });
    }
}

#[test]
fn rec_templates_are_memo_invariant() {
    let tree = TreeGen {
        depth: 5,
        outdegree: 5,
        sparsity: 1,
        seed: 9,
    }
    .generate();
    for template in RecTemplate::ALL {
        assert_identical(&format!("tree/{template}"), CheckLevel::Off, |gpu| {
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
fn sorts_are_memo_invariant() {
    let input: Vec<u32> = (0..1500u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 512)
        .collect();
    for algo in [
        sort::SortAlgo::MergeFlat,
        sort::SortAlgo::QuickSimple,
        sort::SortAlgo::QuickAdvanced,
    ] {
        assert_identical(algo.label(), CheckLevel::Off, |gpu| {
            sort::sort_gpu(gpu, &input, algo, &sort::SortParams::default()).report
        });
    }
}

#[test]
fn recursive_bfs_is_memo_invariant_under_warn() {
    let g = citeseer_like(500, 3);
    assert_identical("bfs-recursive", CheckLevel::Warn, |gpu| {
        bfs::bfs_recursive_gpu(gpu, &g, 0, bfs::RecBfsVariant::Hier, 2).report
    });
}

#[test]
fn spmv_is_memo_invariant_under_warn() {
    // Warn keeps the runs alive while recording hazard counts, which are
    // part of the report and so also checked for bit-equality.
    let g = citeseer_like(700, 5);
    let x = vec![1.0f32; g.num_nodes()];
    for template in [LoopTemplate::ThreadMapped, LoopTemplate::DbufShared] {
        assert_identical(&format!("spmv/{template}"), CheckLevel::Warn, |gpu| {
            spmv::spmv_gpu(gpu, &g, &x, template, &LoopParams::default()).report
        });
    }
}

/// A hazard-free kernel that records the same trace in every block, so the
/// strict checker stays quiet and the cache gets real hits.
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
fn strict_checking_is_memo_invariant() {
    assert_identical("saxpy/strict", CheckLevel::Strict, |gpu| {
        launch_saxpy(gpu, 3)
    });
}

#[test]
fn memoization_actually_engages() {
    // Guard against the differential tests passing vacuously: on a regular
    // workload the cache must take real hits and replay most of the trace.
    let mut gpu = Gpu::k20();
    let r = launch_saxpy(&mut gpu, 4);
    assert!(r.sim.block_hits > 0, "no block-cache hits: {:?}", r.sim);
    assert!(r.sim.ops_traced > 0);
    assert!(
        r.sim.ops_replayed * 2 > r.sim.ops_traced,
        "expected most ops replayed on a uniform kernel: {:?}",
        r.sim
    );

    // And with the cache off, the same workload must report zero activity.
    let mut gpu = Gpu::k20().with_memo(false);
    let r = launch_saxpy(&mut gpu, 4);
    assert_eq!(r.sim.block_hits + r.sim.warp_hits + r.sim.ops_replayed, 0);
    assert!(r.sim.ops_traced > 0);
}

#[test]
fn toggling_memo_drops_the_cache() {
    let mut gpu = Gpu::k20();
    let r = launch_saxpy(&mut gpu, 2);
    assert!(r.sim.block_hits > 0);
    gpu.set_memo(false);
    assert!(!gpu.memo_enabled());
    gpu.set_memo(true);
    // The cache restarts cold: the first block of the next run must miss.
    let r = launch_saxpy(&mut gpu, 1);
    assert!(r.sim.block_misses > 0);
}

/// The memo's bypass constants (`memo::EVAL_MIN`, `memo::PROBE_STRIDE`):
/// a class demotes after `EVAL_MIN` cold probes, and a demoted class then
/// opens a probing grid at most once per `PROBE_STRIDE` of its own blocks,
/// counted across grids (further apart while its probes keep missing).
const EVAL_MIN: u64 = 4;
const PROBE_STRIDE: u64 = 16;

/// Every block distinct: thread `i` of launch `salt` computes `salt + i`
/// steps, so no block or warp fingerprint repeats.
struct Unique {
    salt: u32,
}

impl ThreadKernel for Unique {
    fn name(&self) -> &str {
        "unique"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.compute(self.salt + t.global_id() as u32 + 1);
    }
}

#[test]
fn bypassed_class_probes_one_block_per_stride_across_grids() {
    let grids = 256;
    let mut gpu = Gpu::k20();
    for salt in 0..grids {
        let k = Rc::new(Unique { salt: salt * 64 });
        gpu.launch(k, LaunchConfig::new(1, 32)).unwrap();
    }
    let r = gpu.synchronize();
    assert_eq!(r.sim.block_hits, 0, "{:?}", r.sim);
    let probed = r.sim.block_hits + r.sim.block_misses;
    let bound = EVAL_MIN + u64::from(grids).div_ceil(PROBE_STRIDE);
    assert!(
        probed <= bound,
        "{probed} of {grids} one-block grids probed the cache, bound {bound}: {:?}",
        r.sim
    );
}

#[test]
fn nested_same_class_grids_share_one_probe_stride() {
    // rec-naive launches a one-block child grid per internal node, every
    // grid of the same class, joined from inside its parent's block. The
    // leaf-parent grids launch nothing and none of them repeats, so the
    // class demotes and its stride must count blocks across those grids.
    let tree = TreeGen {
        depth: 5,
        outdegree: 6,
        sparsity: 0,
        seed: 5,
    }
    .generate();
    let mut gpu = Gpu::k20();
    let r = tree_apps::tree_gpu(
        &mut gpu,
        &tree,
        tree_apps::TreeMetric::Descendants,
        RecTemplate::RecNaive,
        &RecParams::default(),
    )
    .report;
    assert!(
        r.kernels.values().any(|m| m.grids > 200),
        "the tree must launch many nested grids: {:?}",
        r.kernels
    );
    let probed = r.sim.block_hits + r.sim.block_misses;
    let bound: u64 = r
        .kernels
        .values()
        .map(|m| EVAL_MIN + m.blocks.div_ceil(PROBE_STRIDE))
        .sum();
    assert!(
        probed <= bound,
        "{probed} blocks probed the cache, bound {bound}: {:?}",
        r.sim
    );
}
