//! End-to-end tests for npar-check, the trace-based hazard sanitizer:
//! * seeded-bug kernels — one per diagnostic kind — must be detected with
//!   located diagnostics under `CheckLevel::Strict` (and recorded without
//!   failing under `Warn`);
//! * randomized racy / race-free kernel pairs must be classified exactly;
//! * every loop template, recursive template, sort and graph app the repo
//!   ships must run hazard-clean under `Strict` on its standard datasets.

use std::rc::Rc;

use npar::apps::{bc, bfs, pagerank, sort, spmv, sssp, tree_apps};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{uniform_random, with_random_weights};
use npar::sim::{
    BlockCtx, CheckLevel, CostModel, DeviceConfig, GBuf, Gpu, HazardKind, Kernel, KernelRef,
    LaunchConfig, SimError, Stream, ThreadCtx, ThreadKernel,
};
use npar::tree::TreeGen;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn hazards_of(err: SimError) -> Vec<npar::sim::Hazard> {
    match err {
        SimError::Hazard(report) => report.hazards,
        other => panic!("expected SimError::Hazard, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// Seeded-bug kernels: each plants one specific hazard.
// ---------------------------------------------------------------------------

/// Every thread of the block stores to shared offset 0 in one segment.
struct SharedRaceKernel;
impl Kernel for SharedRaceKernel {
    fn name(&self) -> &str {
        "seeded-shared-race"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        blk.for_each_thread(|t| t.shared_st(0));
    }
}

/// Every thread of every block stores to the same global element.
struct GlobalRaceKernel {
    buf: GBuf<u32>,
}
impl ThreadKernel for GlobalRaceKernel {
    fn name(&self) -> &str {
        "seeded-global-race"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.st(&self.buf, 0);
    }
}

/// Each thread stores to its own global element — the race-free twin.
struct DisjointWriteKernel {
    buf: GBuf<u32>,
}
impl ThreadKernel for DisjointWriteKernel {
    fn name(&self) -> &str {
        "disjoint-writes"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.st(&self.buf, t.global_id());
    }
}

/// The leader touches one shared word past the declared allocation.
struct OobKernel {
    declared: u32,
}
impl Kernel for OobKernel {
    fn name(&self) -> &str {
        "seeded-shared-oob"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let edge = self.declared;
        blk.leader(|t| t.shared_st(edge));
    }
}

/// Child grid that plainly writes the first `n` elements of a buffer.
struct ChildWriter {
    buf: GBuf<u32>,
    n: usize,
}
impl ThreadKernel for ChildWriter {
    fn name(&self) -> &str {
        "child-writer"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        if i < self.n {
            t.st(&self.buf, i);
        }
    }
}

/// Fire-and-forget parent: launches the child, then reads what the child
/// writes with only a plain barrier in between (no `sync_children`), or
/// with a proper join when `join` is set.
struct ForgetfulParent {
    child: KernelRef,
    buf: GBuf<u32>,
    join: bool,
}
impl Kernel for ForgetfulParent {
    fn name(&self) -> &str {
        "seeded-unjoined-read"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let cfg = LaunchConfig::new(1, 32);
        blk.leader(|t| t.launch(&self.child, cfg, Stream::Default));
        if self.join {
            blk.sync_children();
        } else {
            blk.sync();
        }
        blk.for_each_thread(|t| t.ld(&self.buf, 0));
    }
}

/// Launches a child grid whose block size exceeds the device limit.
struct BadLauncher {
    child: KernelRef,
    block_dim: u32,
}
impl Kernel for BadLauncher {
    fn name(&self) -> &str {
        "seeded-bad-launch"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let cfg = LaunchConfig::new(1, self.block_dim);
        blk.leader(|t| t.launch(&self.child, cfg, Stream::Default));
    }
}

#[test]
fn seeded_shared_race_is_detected_and_located() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let err = gpu
        .launch(
            Rc::new(SharedRaceKernel),
            LaunchConfig::with_shared(1, 64, 4),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert!(!hazards.is_empty());
    let h = &hazards[0];
    assert_eq!(h.kind, HazardKind::SharedRace);
    assert_eq!(h.kernel, "seeded-shared-race");
    assert_eq!(h.block, 0);
    assert!(h.details.contains("shared offset 0x0"), "{}", h.details);
}

#[test]
fn seeded_global_race_is_detected_across_blocks() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(64);
    let err = gpu
        .launch(Rc::new(GlobalRaceKernel { buf }), LaunchConfig::new(2, 32))
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::GlobalRace);
    assert!(
        hazards[0].details.contains("blocks 0 and 1"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn disjoint_writes_pass_strict() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(64);
    gpu.launch(
        Rc::new(DisjointWriteKernel { buf }),
        LaunchConfig::new(2, 32),
    )
    .unwrap();
    assert!(gpu.take_check_report().is_empty());
}

#[test]
fn seeded_shared_oob_is_detected() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let err = gpu
        .launch(
            Rc::new(OobKernel { declared: 128 }),
            LaunchConfig::with_shared(1, 32, 128),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::SharedOutOfBounds);
    assert!(
        hazards[0].details.contains("128 byte(s)"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn seeded_unjoined_child_read_is_linted() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    let err = gpu
        .launch(
            Rc::new(ForgetfulParent {
                child,
                buf,
                join: false,
            }),
            LaunchConfig::new(1, 32),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::UnjoinedChildRead);
    assert!(
        hazards[0].details.contains("sync_children"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn joined_child_read_passes_strict() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    gpu.launch(
        Rc::new(ForgetfulParent {
            child,
            buf,
            join: true,
        }),
        LaunchConfig::new(1, 32),
    )
    .unwrap();
    assert!(gpu.take_check_report().is_empty());
}

#[test]
fn seeded_invalid_child_launch_is_fatal_even_with_checks_off() {
    // Structural faults have no "ignore" semantics: Off still reports them.
    let mut gpu = Gpu::k20(); // CheckLevel::Off is the default
    assert_eq!(gpu.check_level(), CheckLevel::Off);
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    let err = gpu
        .launch(
            Rc::new(BadLauncher {
                child,
                block_dim: 4096,
            }),
            LaunchConfig::new(1, 32),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::InvalidChildLaunch);
    assert!(
        hazards[0].details.contains("block_dim 4096"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn unplaceable_child_block_is_an_invalid_child_launch() {
    // Within every per-block limit, but no SM holds 256 threads of 32
    // registers each; the 32-thread parent block fits.
    let device = DeviceConfig {
        registers_per_sm: 4096,
        ..DeviceConfig::kepler_k20()
    };
    let mut gpu = Gpu::new(device, CostModel::default());
    let buf = gpu.alloc::<u32>(32);
    let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
    let err = gpu
        .launch(
            Rc::new(BadLauncher {
                child,
                block_dim: 256,
            }),
            LaunchConfig::new(1, 32),
        )
        .unwrap_err();
    let hazards = hazards_of(err);
    assert_eq!(hazards[0].kind, HazardKind::InvalidChildLaunch);
    assert!(
        hazards[0].details.contains("no SM can hold"),
        "{}",
        hazards[0].details
    );
}

#[test]
fn warn_level_records_and_continues() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Warn);
    gpu.launch(
        Rc::new(SharedRaceKernel),
        LaunchConfig::with_shared(1, 64, 4),
    )
    .expect("Warn must not fail the launch");
    let report = gpu.synchronize();
    assert!(report.hazards > 0, "hazard count missing from the report");
    let check = gpu.take_check_report();
    assert!(check.of_kind(HazardKind::SharedRace).next().is_some());
    assert!(
        gpu.take_check_report().is_empty(),
        "draining must be one-shot"
    );
}

#[test]
fn off_level_ignores_races() {
    let mut gpu = Gpu::k20(); // Off
    gpu.launch(
        Rc::new(SharedRaceKernel),
        LaunchConfig::with_shared(1, 64, 4),
    )
    .unwrap();
    assert_eq!(gpu.synchronize().hazards, 0);
    assert!(gpu.take_check_report().is_empty());
}

// ---------------------------------------------------------------------------
// Randomized classification: generated racy / race-free kernels.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum PlanOp {
    W(u32),
    R(u32),
    A(u32),
}

/// Replays an explicit per-segment, per-lane shared-memory access plan.
struct PlanKernel {
    plan: Vec<Vec<Vec<PlanOp>>>, // [segment][lane][ops]
}
impl Kernel for PlanKernel {
    fn name(&self) -> &str {
        "plan"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        for (s, seg) in self.plan.iter().enumerate() {
            if s > 0 {
                blk.sync();
            }
            blk.for_each_thread(|t| {
                for op in &seg[t.thread_idx() as usize] {
                    match *op {
                        PlanOp::W(a) => t.shared_st(a),
                        PlanOp::R(a) => t.shared_ld(a),
                        PlanOp::A(a) => t.shared_atomic(a),
                    }
                }
            });
        }
    }
}

const LANES: usize = 32;
/// Lane-private slots 0..32, injection offsets 32..40, a read-only word at
/// 41 and a shared atomic counter at 42 — 43 words of shared memory.
const PLAN_SHARED: u32 = 43 * 4;
const RO_WORD: u32 = 41 * 4;
const COUNTER_WORD: u32 = 42 * 4;

/// A plan that is race-free by construction: lanes touch only their own
/// slot, read the read-only word and hit the shared counter atomically.
fn race_free_plan(rng: &mut ChaCha8Rng, nsegs: usize) -> Vec<Vec<Vec<PlanOp>>> {
    (0..nsegs)
        .map(|_| {
            (0..LANES)
                .map(|lane| {
                    let own = lane as u32 * 4;
                    (0..rng.gen_range(0usize..4))
                        .map(|_| match rng.gen_range(0u32..5) {
                            0 => PlanOp::W(own),
                            1 => PlanOp::R(own),
                            2 => PlanOp::A(own),
                            3 => PlanOp::R(RO_WORD),
                            _ => PlanOp::A(COUNTER_WORD),
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Inject one conflicting pair: a plain write by one lane and any access by
/// another lane to the same word within one segment.
fn inject_race(rng: &mut ChaCha8Rng, plan: &mut [Vec<Vec<PlanOp>>]) {
    let seg = rng.gen_range(0..plan.len());
    let l1 = rng.gen_range(0..LANES);
    let l2 = (l1 + 1 + rng.gen_range(0..LANES - 1)) % LANES;
    let addr = (LANES as u32 + rng.gen_range(0u32..8)) * 4;
    plan[seg][l1].push(PlanOp::W(addr));
    plan[seg][l2].push(match rng.gen_range(0u32..3) {
        0 => PlanOp::W(addr),
        1 => PlanOp::R(addr),
        _ => PlanOp::A(addr),
    });
}

#[test]
fn randomized_shared_plans_are_classified_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    for case in 0..30 {
        let nsegs = rng.gen_range(1usize..4);
        let mut plan = race_free_plan(&mut rng, nsegs);
        let racy = case % 2 == 0;
        if racy {
            inject_race(&mut rng, &mut plan);
        }
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let result = gpu.launch(
            Rc::new(PlanKernel { plan }),
            LaunchConfig::with_shared(1, LANES as u32, PLAN_SHARED),
        );
        match (racy, result) {
            (true, Err(err)) => {
                let hazards = hazards_of(err);
                assert!(
                    hazards.iter().all(|h| h.kind == HazardKind::SharedRace),
                    "case {case}: unexpected kinds {hazards:?}"
                );
            }
            (true, Ok(())) => panic!("case {case}: injected race not detected"),
            (false, Err(err)) => panic!("case {case}: false positive: {err}"),
            (false, Ok(())) => assert!(gpu.take_check_report().is_empty()),
        }
    }
}

/// Each thread writes `buf[global_id % modulus]`: race-free when the
/// modulus covers the whole grid, cross-block racy when it wraps.
struct StrideKernel {
    buf: GBuf<u32>,
    modulus: usize,
}
impl ThreadKernel for StrideKernel {
    fn name(&self) -> &str {
        "stride"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id() % self.modulus;
        t.st(&self.buf, i);
    }
}

#[test]
fn randomized_global_strides_are_classified_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x610b41);
    for case in 0..20 {
        let blocks = rng.gen_range(2u32..5);
        let bd = 32u32;
        let total = (blocks * bd) as usize;
        let racy = case % 2 == 1;
        let modulus = if racy { bd as usize } else { total };
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let buf = gpu.alloc::<u32>(total);
        let result = gpu.launch(
            Rc::new(StrideKernel { buf, modulus }),
            LaunchConfig::new(blocks, bd),
        );
        match (racy, result) {
            (true, Err(err)) => {
                assert_eq!(hazards_of(err)[0].kind, HazardKind::GlobalRace);
            }
            (true, Ok(())) => panic!("case {case}: wrap-around race not detected"),
            (false, Err(err)) => panic!("case {case}: false positive: {err}"),
            (false, Ok(())) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The shipped templates and apps must be hazard-clean under Strict.
// ---------------------------------------------------------------------------

#[test]
fn all_loop_templates_are_hazard_clean_under_strict() {
    let g = with_random_weights(&uniform_random(300, 1, 14, 33), 7, 5);
    let x = vec![1.0f32; g.num_nodes()];
    let (y_cpu, _) = spmv::spmv_cpu(&g, &x);
    for template in LoopTemplate::ALL {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        // A Strict hazard fails the internal launches, which the template
        // drivers surface as panics — reaching the assert means clean.
        let r = spmv::spmv_gpu(&mut gpu, &g, &x, template, &LoopParams::default());
        assert!(
            r.y.iter().zip(&y_cpu).all(|(a, b)| (a - b).abs() < 1e-2),
            "{template} result wrong under Strict"
        );
        assert!(
            gpu.take_check_report().is_empty(),
            "{template} left hazards"
        );
    }
}

#[test]
fn all_recursive_templates_are_hazard_clean_under_strict() {
    let tree = TreeGen {
        depth: 6,
        outdegree: 6,
        sparsity: 1,
        seed: 99,
    }
    .generate();
    for metric in [
        tree_apps::TreeMetric::Descendants,
        tree_apps::TreeMetric::Heights,
    ] {
        let (cpu, _) = tree_apps::tree_cpu_recursive(&tree, metric);
        for template in RecTemplate::ALL {
            let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
            let r = tree_apps::tree_gpu(&mut gpu, &tree, metric, template, &RecParams::default());
            assert_eq!(r.values, cpu, "{template} values wrong under Strict");
            assert!(
                gpu.take_check_report().is_empty(),
                "{template} left hazards"
            );
        }
    }
}

#[test]
fn graph_apps_are_hazard_clean_under_strict() {
    let g = with_random_weights(&uniform_random(250, 1, 12, 21), 9, 4);

    let (cpu_dist, _) = sssp::sssp_cpu(&g, 0);
    for template in [
        LoopTemplate::ThreadMapped,
        LoopTemplate::DbufShared,
        LoopTemplate::DparNaive,
    ] {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let r = sssp::sssp_gpu(&mut gpu, &g, 0, template, &LoopParams::default());
        let same = r
            .dist
            .iter()
            .zip(&cpu_dist)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
        assert!(same, "SSSP {template} wrong under Strict");
        assert!(gpu.take_check_report().is_empty());
    }

    let (cpu_lvl, _) = bfs::bfs_cpu_iterative(&g, 0);
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let r = bfs::bfs_flat_gpu(
        &mut gpu,
        &g,
        0,
        LoopTemplate::ThreadMapped,
        &LoopParams::default(),
    );
    assert_eq!(r.level, cpu_lvl, "flat BFS wrong under Strict");
    assert!(gpu.take_check_report().is_empty());
    for variant in [bfs::RecBfsVariant::Naive, bfs::RecBfsVariant::Hier] {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let r = bfs::bfs_recursive_gpu(&mut gpu, &g, 0, variant, 2);
        assert_eq!(
            r.level, cpu_lvl,
            "recursive BFS {variant:?} wrong under Strict"
        );
        assert!(gpu.take_check_report().is_empty());
    }

    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let pr = pagerank::pagerank_gpu(
        &mut gpu,
        &g,
        3,
        LoopTemplate::BlockMapped,
        &LoopParams::default(),
    );
    assert!(pr.ranks.iter().all(|v| v.is_finite()));
    assert!(gpu.take_check_report().is_empty());

    let sources = bc::sample_sources(&g, 2);
    let (cpu_bc, _) = bc::bc_cpu(&g, &sources);
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let r = bc::bc_gpu(
        &mut gpu,
        &g,
        &sources,
        LoopTemplate::DualQueue,
        &LoopParams::default(),
    );
    assert!(r
        .bc
        .iter()
        .zip(&cpu_bc)
        .all(|(a, b)| (a - b).abs() < 1e-6 * (1.0 + b.abs())));
    assert!(gpu.take_check_report().is_empty());
}

#[test]
fn sorts_are_hazard_clean_under_strict() {
    let mut rng = ChaCha8Rng::seed_from_u64(424242);
    let input: Vec<u32> = (0..6_000).map(|_| rng.gen::<u32>()).collect();
    let mut expect = input.clone();
    expect.sort_unstable();
    for algo in [
        sort::SortAlgo::MergeFlat,
        sort::SortAlgo::QuickSimple,
        sort::SortAlgo::QuickAdvanced,
    ] {
        let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
        let r = sort::sort_gpu(&mut gpu, &input, algo, &sort::SortParams::default());
        assert_eq!(r.data, expect, "{} wrong under Strict", algo.label());
        assert!(
            gpu.take_check_report().is_empty(),
            "{} left hazards",
            algo.label()
        );
    }
}
