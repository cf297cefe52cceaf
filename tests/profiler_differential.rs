//! Differential tests for the npar-prof timeline profiler: profiling is
//! *observational*, so every profiler-visible number in the [`Report`] —
//! cycles, per-kernel metrics, stall buckets, hazard counts — must be
//! bit-identical with the profiler on and off, across every template, the
//! sort study, and the apps, at every checker level and in both memo
//! modes. Only [`SimStats`] (host wall time, cache counters) may differ.
//!
//! The same sweeps also pin the stall-attribution invariant: per kernel,
//! the seven buckets partition the attributed cycles exactly.

use std::rc::Rc;

use npar::apps::{bfs, sort, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{citeseer_like, with_random_weights};
use npar::sim::{CheckLevel, Gpu, LaunchConfig, Report, SimStats, ThreadCtx, ThreadKernel};
use npar::tree::TreeGen;

/// Per kernel, the stall buckets must partition the attributed cycles
/// (compute work plus barrier overhead) to floating-point tolerance.
fn assert_stalls_partition(label: &str, report: &Report) {
    for (name, m) in &report.kernels {
        let total = m.stalls.total();
        let attributed = m.attributed_cycles();
        let tol = 1e-9 * attributed.max(1.0);
        assert!(
            (total - attributed).abs() <= tol,
            "{label}/{name}: stall buckets sum to {total}, attributed cycles {attributed}"
        );
    }
}

/// Run the same workload with the profiler off and on (in both memo modes)
/// and require the reports to match exactly, modulo the host-side
/// [`SimStats`]. The profiled runs must actually record a timeline.
fn assert_identical(label: &str, check: CheckLevel, run: impl Fn(&mut Gpu) -> Report) {
    let mut reports = Vec::new();
    for memo in [true, false] {
        let mut plain = Gpu::k20().with_check(check).with_memo(memo);
        let mut profiled = Gpu::k20()
            .with_check(check)
            .with_memo(memo)
            .with_profiler(true);
        assert!(!plain.profiler_enabled() && profiled.profiler_enabled());

        let mut r_plain = run(&mut plain);
        let mut r_prof = run(&mut profiled);
        let profile = profiled.take_profile();
        assert!(
            !profile.is_empty(),
            "{label} (memo={memo}): profiler on but no timeline recorded"
        );
        assert!(plain.take_profile().is_empty());

        assert_stalls_partition(label, &r_prof);
        r_plain.sim = SimStats::default();
        r_prof.sim = SimStats::default();
        assert_eq!(
            r_plain, r_prof,
            "{label} (memo={memo}): report differs between profiler modes"
        );
        reports.push(r_plain);
    }
    // Transitively, memo modes also agree under the profiler.
    assert_eq!(
        reports[0], reports[1],
        "{label}: report differs across memo"
    );
}

#[test]
fn loop_templates_are_profiler_invariant() {
    let g = with_random_weights(&citeseer_like(900, 11), 10, 12);
    for template in LoopTemplate::ALL {
        assert_identical(&format!("sssp/{template}"), CheckLevel::Off, |gpu| {
            sssp::sssp_gpu(gpu, &g, 0, template, &LoopParams::with_lb_thres(32)).report
        });
    }
}

#[test]
fn rec_templates_are_profiler_invariant() {
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
fn sorts_are_profiler_invariant() {
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
fn recursive_bfs_is_profiler_invariant_under_warn() {
    let g = citeseer_like(500, 3);
    assert_identical("bfs-recursive", CheckLevel::Warn, |gpu| {
        bfs::bfs_recursive_gpu(gpu, &g, 0, bfs::RecBfsVariant::Hier, 2).report
    });
}

#[test]
fn spmv_is_profiler_invariant_under_warn() {
    let g = citeseer_like(700, 5);
    let x = vec![1.0f32; g.num_nodes()];
    for template in [LoopTemplate::ThreadMapped, LoopTemplate::DbufShared] {
        assert_identical(&format!("spmv/{template}"), CheckLevel::Warn, |gpu| {
            spmv::spmv_gpu(gpu, &g, &x, template, &LoopParams::default()).report
        });
    }
}

/// A hazard-free kernel (same trace in every block) so the strict checker
/// stays quiet while the memoized replay path carries profiling events.
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
fn strict_checking_is_profiler_invariant() {
    assert_identical("saxpy/strict", CheckLevel::Strict, |gpu| {
        launch_saxpy(gpu, 3)
    });
}

#[test]
fn memo_replay_is_flagged_but_observational() {
    // With memoization on, repeat launches replay cached block outcomes.
    // The profiler must (a) mark those spans, and (b) not perturb anything.
    let mut gpu = Gpu::k20().with_profiler(true);
    let r = launch_saxpy(&mut gpu, 4);
    assert!(
        r.sim.block_hits > 0,
        "expected block-cache hits: {:?}",
        r.sim
    );
    let profile = gpu.take_profile();
    let memo_spans = profile.blocks.iter().filter(|b| b.memo).count();
    assert!(
        memo_spans > 0,
        "block-cache hits but no memo-flagged spans in the timeline"
    );
    assert!(memo_spans < profile.blocks.len(), "first run cannot replay");
}

#[test]
fn disabling_the_profiler_drops_the_timeline() {
    let mut gpu = Gpu::k20().with_profiler(true);
    launch_saxpy(&mut gpu, 1);
    gpu.set_profiler(false);
    assert!(!gpu.profiler_enabled());
    assert!(gpu.take_profile().is_empty());
}
