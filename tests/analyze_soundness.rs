//! Soundness tests for npar-analyze's proof-carrying scan elision
//! (DESIGN.md §12). The contract under test: elision may only ever skip
//! work the dynamic checker would have passed, so
//! * no seeded-bug kernel may ever be statically "proven clean" — its
//!   class must end flagged or unproven, with zero elided blocks;
//! * elided and full runs must produce byte-identical [`Report`]s (and
//!   identical hazard lists) under `CheckLevel::Strict`, including on
//!   randomized kernels and at any host thread count;
//! * on a clean repetitive workload elision must actually engage — the
//!   differential assertions must not pass vacuously.

use std::rc::Rc;

use npar::sim::{
    BlockCtx, CheckLevel, GBuf, Gpu, Kernel, KernelRef, LaunchConfig, Report, SimError, SimStats,
    Stream, ThreadCtx, ThreadKernel,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

// ---------------------------------------------------------------------------
// Seeded-bug kernels (mirrors tests/checker.rs): one per diagnostic kind.
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

/// Every thread of every block stores to the same global element — the
/// per-block scans stay quiet; only the cross-block sweep catches it.
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

/// Each thread stores to its own global element — the race-free twin, the
/// positive control for promotion.
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

/// Launches the child, then reads what the child writes with only a plain
/// barrier in between (no `sync_children`).
struct ForgetfulParent {
    child: KernelRef,
    buf: GBuf<u32>,
}
impl Kernel for ForgetfulParent {
    fn name(&self) -> &str {
        "seeded-unjoined-read"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let cfg = LaunchConfig::new(1, 32);
        blk.leader(|t| t.launch(&self.child, cfg, Stream::Default));
        blk.sync();
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

/// Run `launch` three times under `Warn` (hazards recorded, runs continue,
/// elision active) and return the analysis of the named kernel. Several
/// grids give a wrong promotion every chance to happen.
fn analyze_seeded(
    kernel_name: &str,
    mut launch: impl FnMut(&mut Gpu),
) -> npar::sim::KernelAnalysis {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Warn);
    for _ in 0..3 {
        launch(&mut gpu);
    }
    let r = gpu.synchronize();
    let analysis = gpu.analysis();
    let k = analysis
        .get(kernel_name)
        .unwrap_or_else(|| panic!("kernel {kernel_name} missing from analysis: {analysis}"))
        .clone();
    // A clean helper class (e.g. the child grid) may legitimately elide;
    // the seeded kernel's own class never may.
    let _ = r;
    assert_eq!(
        k.elided_blocks, 0,
        "{kernel_name}: elision engaged on a seeded-bug kernel"
    );
    assert!(
        !k.elision.is_proven(),
        "{kernel_name}: seeded-bug kernel proven clean: {}",
        k.elision
    );
    k
}

#[test]
fn seeded_shared_race_is_never_proven() {
    let k = analyze_seeded("seeded-shared-race", |gpu| {
        gpu.launch(
            Rc::new(SharedRaceKernel),
            LaunchConfig::with_shared(2, 64, 4),
        )
        .unwrap();
    });
    assert!(k.shared_races.is_flagged(), "{}", k.shared_races);
}

#[test]
fn seeded_global_race_is_never_proven() {
    let mut buf = None;
    let k = analyze_seeded("seeded-global-race", |gpu| {
        let buf = *buf.get_or_insert_with(|| gpu.alloc::<u32>(64));
        gpu.launch(Rc::new(GlobalRaceKernel { buf }), LaunchConfig::new(2, 32))
            .unwrap();
    });
    assert!(
        k.global_races.is_flagged(),
        "cross-block race not attributed: {}",
        k.global_races
    );
}

#[test]
fn seeded_shared_oob_is_never_proven() {
    let k = analyze_seeded("seeded-shared-oob", |gpu| {
        gpu.launch(
            Rc::new(OobKernel { declared: 128 }),
            LaunchConfig::with_shared(2, 32, 128),
        )
        .unwrap();
    });
    assert!(k.shared_bounds.is_flagged(), "{}", k.shared_bounds);
}

#[test]
fn seeded_unjoined_child_read_is_never_proven() {
    let mut buf = None;
    analyze_seeded("seeded-unjoined-read", |gpu| {
        let buf = *buf.get_or_insert_with(|| gpu.alloc::<u32>(32));
        let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
        gpu.launch(
            Rc::new(ForgetfulParent { child, buf }),
            LaunchConfig::new(1, 32),
        )
        .unwrap();
    });
}

#[test]
fn seeded_invalid_child_launch_is_never_proven() {
    let mut buf = None;
    analyze_seeded("seeded-bad-launch", |gpu| {
        let buf = *buf.get_or_insert_with(|| gpu.alloc::<u32>(32));
        let child: KernelRef = Rc::new(ChildWriter { buf, n: 32 });
        // Warn records the structural fault and continues.
        let _ = gpu.launch(
            Rc::new(BadLauncher {
                child,
                block_dim: 4096,
            }),
            LaunchConfig::new(1, 32),
        );
    });
}

#[test]
fn clean_twin_is_proven_and_elides() {
    // Positive control: the race-free twin must be promoted after its
    // first clean grid and elide identical blocks from then on.
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let buf = gpu.alloc::<u32>(64);
    let k = Rc::new(DisjointWriteKernel { buf });
    for _ in 0..3 {
        gpu.launch(k.clone(), LaunchConfig::new(2, 32)).unwrap();
    }
    let r = gpu.synchronize();
    assert!(r.sim.elided > 0, "clean kernel never elided: {:?}", r.sim);
    let analysis = gpu.analysis();
    let ka = analysis.get("disjoint-writes").expect("class observed");
    assert!(ka.elision.is_proven(), "{}", ka.elision);
    assert!(ka.barriers.is_proven(), "{}", ka.barriers);
    let check = gpu.take_check_report();
    assert!(check.is_empty());
    assert_eq!(check.scanned + check.elided, 6, "2 blocks x 3 grids");
    assert!(check.elided > 0);
}

// ---------------------------------------------------------------------------
// Randomized elide-on/off differential under Strict.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum PlanOp {
    W(u32),
    R(u32),
    A(u32),
}

/// Replays an explicit per-segment, per-lane shared-memory access plan —
/// identically in every block, so clean plans become elidable.
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
const PLAN_SHARED: u32 = 43 * 4;
const RO_WORD: u32 = 41 * 4;
const COUNTER_WORD: u32 = 42 * 4;

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

/// Launch the plan three times (6 blocks each) and return what a Strict
/// run observes: the synchronize report (or the failing launch's hazard
/// report) plus the drained check report rendered to text.
fn strict_outcome(plan: &[Vec<Vec<PlanOp>>], elide: bool) -> (Result<Report, String>, String, u64) {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict).with_elide(elide);
    let k = Rc::new(PlanKernel {
        plan: plan.to_vec(),
    });
    for _ in 0..3 {
        match gpu.launch(
            k.clone(),
            LaunchConfig::with_shared(6, LANES as u32, PLAN_SHARED),
        ) {
            Ok(()) => {}
            Err(SimError::Hazard(report)) => {
                return (Err(format!("{report}")), String::new(), 0);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let mut r = gpu.synchronize();
    let elided = r.sim.elided;
    r.sim = SimStats::default();
    (Ok(r), format!("{}", gpu.take_check_report()), elided)
}

#[test]
fn randomized_plans_are_elide_invariant_under_strict() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xe11de);
    let mut engaged = 0u64;
    for case in 0..20 {
        let nsegs = rng.gen_range(1usize..4);
        let mut plan = race_free_plan(&mut rng, nsegs);
        if case % 2 == 0 {
            inject_race(&mut rng, &mut plan);
        }
        let (on, on_check, on_elided) = strict_outcome(&plan, true);
        let (off, off_check, off_elided) = strict_outcome(&plan, false);
        assert_eq!(on, off, "case {case}: Strict outcome differs with elision");
        assert_eq!(off_elided, 0, "case {case}: --no-elide run elided blocks");
        engaged += on_elided;
        // The hazard lists themselves must match verbatim, not just counts;
        // only the scanned/elided footer may differ between the modes.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("statically elided"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&on_check),
            strip(&off_check),
            "case {case}: check report differs"
        );
    }
    // Race-free cases repeat an identical clean grid: elision must have
    // engaged somewhere or the equalities above are vacuous.
    assert!(engaged > 0, "elision never engaged across 20 cases");
}

// ---------------------------------------------------------------------------
// Thread-count and report-shape invariants with elision.
// ---------------------------------------------------------------------------

/// A hazard-free kernel recording the same trace in every block.
struct Saxpy {
    n: usize,
    x: GBuf<f32>,
    y: GBuf<f32>,
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

fn saxpy_strict(gpu: &mut Gpu, launches: usize) -> Report {
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
fn elision_is_thread_count_invariant() {
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut gpu = Gpu::k20()
            .with_check(CheckLevel::Strict)
            .with_threads(threads);
        let mut r = saxpy_strict(&mut gpu, 3);
        assert!(r.sim.elided > 0, "threads={threads}: elision never engaged");
        r.sim = SimStats::default();
        reports.push((threads, r));
    }
    let (_, first) = &reports[0];
    for (threads, r) in &reports[1..] {
        assert_eq!(r, first, "threads={threads}: report differs");
    }
}

#[test]
fn analysis_verdicts_match_with_elision_off() {
    // --no-elide must reach identical verdicts for the four analyses (only
    // the elision bookkeeping itself may differ).
    let verdicts = |elide: bool| {
        // --no-elide alone deactivates analysis; request it explicitly on
        // both legs so the comparison is symmetric.
        let mut gpu = Gpu::k20()
            .with_check(CheckLevel::Strict)
            .with_analyze(true)
            .with_elide(elide);
        let r = saxpy_strict(&mut gpu, 3);
        assert_eq!(r.sim.elided > 0, elide);
        let a = gpu.analysis();
        let k = a.get("saxpy").expect("class observed").clone();
        assert!(k.barriers.is_proven());
        (
            k.barriers.tag(),
            k.shared_bounds.tag(),
            k.shared_races.tag(),
            k.global_races.tag(),
            k.bank_conflicts,
            k.launch_shape.spawned_grids,
        )
    };
    assert_eq!(verdicts(true), verdicts(false));
}
