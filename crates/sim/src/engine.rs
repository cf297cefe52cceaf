//! Functional execution engine: runs kernels thread-by-thread (depth-first
//! across dynamic-parallelism launches), recording traces and producing the
//! grid/block timing tasks consumed by the scheduler.
//!
//! The engine hands [`crate::sched::simulate`] an immutable batch of
//! [`GridTask`]s at synchronize time; the scheduler's fast paths
//! (DESIGN.md §11) are contained entirely inside that call, so nothing in
//! functional execution, checking, or memoization observes whether they
//! ran — [`DeviceConfig::fast_forward`] cannot affect anything recorded
//! here.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::block::{finalize_block, BlockOutcome};
use crate::check::{self, CheckState, GridAccess};
use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::ctx::BlockCtx;
use crate::error::SimError;
use crate::kernel::{KernelRef, LaunchConfig};
use crate::memo::{BlockFps, BlockMemo, ClassStats, MemoCache};
use crate::parallel::BlockBufs;
use crate::profiler::{KernelMetrics, SimStats};
use crate::trace::Barriers;
use crate::warp::AlignScratch;

/// Where a grid was launched from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// Host launch number `seq` into host stream `stream`.
    Host { seq: u32, stream: u32 },
    /// Device launch from `parent` grid's block `block` into that block's
    /// stream slot `stream_slot`. `thread` is the launching thread's index
    /// within the block — the consolidation pass groups sibling launches by
    /// warp (`thread / warp_size`); timing itself never reads it.
    Device {
        parent: usize,
        block: u32,
        stream_slot: u32,
        thread: u32,
    },
}

/// A grid registered for execution: the timing data the scheduler reads,
/// shared read-only with the timing pool's lanes. The grid's kernel waits
/// in [`Engine::kernels`] until the grid executes; once it has, `blocks`
/// is populated.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct GridTask {
    /// Kernel name (diagnostics and consolidation key on it), shared with
    /// the grid's [`KernelClass`].
    pub name: Arc<str>,
    /// Index of the grid's kernel class in [`Engine::classes`].
    pub class: u32,
    pub cfg: LaunchConfig,
    pub origin: Origin,
    /// Nesting depth: 0 for host launches, parent's depth + 1 for device
    /// launches (npar-analyze's recursion-depth bound observes this).
    pub depth: u32,
    pub blocks: Vec<BlockOutcome>,
    pub children: Vec<usize>,
}

/// One kernel class: every grid of one kernel name. Interned at the
/// class's first registration, so per-grid bookkeeping updates the class
/// in place through [`GridTask::class`] instead of looking its name up.
pub(crate) struct KernelClass {
    pub name: Arc<str>,
    /// Adaptive memoization policy: the class's rolling block-cache hit
    /// rate decides whether its blocks roll fingerprints (and so probe the
    /// cache). Survives synchronize, like the cache.
    pub memo: ClassStats,
    /// The class's metrics for the current batch; drained into
    /// [`crate::Report::kernels`] at synchronize.
    pub metrics: KernelMetrics,
}

/// Engine state for one batch (between synchronizations).
pub(crate) struct Engine {
    pub device: DeviceConfig,
    pub cost: CostModel,
    pub grids: Vec<GridTask>,
    /// Pending functional work, indexed like `grids`: `None` once the grid
    /// has executed. Device-launched grids are *deferred* until the parent
    /// reaches a `sync_children` barrier or completes (the CUDA ordering —
    /// a child never runs before its launching warp proceeds). Cleared at
    /// synchronize, so no kernel outlives its batch.
    pub kernels: Vec<Option<KernelRef>>,
    /// Interned kernel classes, in order of first registration.
    pub classes: Vec<KernelClass>,
    /// Class index by kernel name.
    pub class_ids: BTreeMap<String, u32>,
    pub host_seq: u32,
    pub scratch: AlignScratch,
    /// Recycled per-thread trace buffers (capacity survives across blocks,
    /// which keeps millions of small blocks allocation-free).
    pub trace_pool: Vec<Vec<crate::trace::Op>>,
    /// Recycled barrier record (same lifecycle as `trace_pool`).
    pub barrier_pool: Barriers,
    /// Recycled per-thread fingerprint state (same lifecycle as
    /// `trace_pool`).
    pub fp_pool: BlockFps,
    /// Alignment memoization cache (see [`crate::memo`]); `None` when
    /// disabled. Survives synchronize — entries are content-keyed and
    /// carry no batch-local state.
    pub memo: Option<MemoCache>,
    /// Host-side statistics for the current batch (wall time, cache
    /// hits/misses); drained into [`crate::profiler::Report::sim`].
    pub stats: SimStats,
    /// Hazard-checker state (see [`crate::check`]).
    pub check: CheckState,
    /// Whether the timeline profiler records events (see [`crate::prof`]).
    pub profiling: bool,
    /// Accumulated timeline across batches; drained by
    /// [`crate::Gpu::take_profile`].
    pub profile: crate::prof::Profile,
    /// Host worker lanes for block-level parallelism (1 = serial path).
    pub threads: usize,
    /// Lazily-built work-stealing pool with `threads` lanes; dropped and
    /// rebuilt when the thread count changes.
    pub pool: Option<npar_par::Pool<AlignScratch>>,
    /// Separate pool for the timing pass (`device.timing_threads` lanes,
    /// no per-lane scratch): timing-domain runs are pure simulation and
    /// their lane count is tuned independently of block execution
    /// (DESIGN.md §13).
    pub timing_pool: Option<npar_par::Pool<()>>,
    /// Recycled block buffers for the chunked executor (its counterpart
    /// of `trace_pool`/`fp_pool`). Only the main thread takes and returns
    /// them.
    pub bufs: Vec<BlockBufs>,
    /// Stack of per-grid chunked-executor states (innermost tracing grid on
    /// top); see [`crate::parallel::flush_chunks`]. Always empty on the
    /// serial path.
    pub chunks: Vec<crate::parallel::ChunkState>,
    /// npar-analyze state: per-kernel-class probe facts, launch shapes and
    /// proof-carrying elision signatures (see [`crate::analyze`]).
    pub analyzer: crate::analyze::Analyzer,
}

impl Engine {
    pub(crate) fn new(device: DeviceConfig, cost: CostModel) -> Self {
        let check = CheckState::new(device.check);
        let memo = device.memo.then(MemoCache::default);
        Engine {
            device,
            cost,
            grids: Vec::new(),
            kernels: Vec::new(),
            classes: Vec::new(),
            class_ids: BTreeMap::new(),
            host_seq: 0,
            scratch: AlignScratch::default(),
            trace_pool: Vec::new(),
            barrier_pool: Barriers::default(),
            fp_pool: BlockFps::default(),
            memo,
            stats: SimStats::default(),
            check,
            profiling: false,
            profile: crate::prof::Profile::default(),
            threads: 1,
            pool: None,
            timing_pool: None,
            bufs: Vec::new(),
            chunks: Vec::new(),
            analyzer: crate::analyze::Analyzer::default(),
        }
    }

    /// Whether proof-carrying scan elision is in force: the device opted
    /// in (the default) and there is a checker whose work could be elided.
    pub(crate) fn elide_active(&self) -> bool {
        self.device.elide && self.check.level != crate::check::CheckLevel::Off
    }

    /// Whether npar-analyze collects class state at all: explicitly
    /// requested, or implied by active elision.
    pub(crate) fn analysis_active(&self) -> bool {
        self.device.analyze || self.elide_active()
    }

    /// Whether blocks probe for elision candidates (requires scans to
    /// exist — i.e. a checker above `Off` — but deliberately not the
    /// `elide` flag itself, so `--no-elide` runs reach identical analysis
    /// verdicts).
    pub(crate) fn probe_active(&self) -> bool {
        self.analysis_active() && self.check.level != crate::check::CheckLevel::Off
    }

    /// The class index of kernel `name`, interning it on first sight.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.class_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.classes.len()).expect("kernel class overflow");
        self.classes.push(KernelClass {
            name: name.into(),
            memo: ClassStats::default(),
            metrics: KernelMetrics::default(),
        });
        self.class_ids.insert(name.to_string(), id);
        id
    }

    /// Drain the batch's per-kernel metrics, keyed by name: every class
    /// with a grid registered since the last drain.
    pub(crate) fn take_metrics(&mut self) -> BTreeMap<String, KernelMetrics> {
        self.classes
            .iter_mut()
            .filter(|c| c.metrics.grids > 0)
            .map(|c| (c.name.to_string(), std::mem::take(&mut c.metrics)))
            .collect()
    }

    /// Validate a launch configuration against the device limits.
    pub(crate) fn validate(&self, cfg: &LaunchConfig) -> Result<(), SimError> {
        self.device.validate_launch(cfg)
    }

    /// Lazily build the work-stealing pool for the current thread count.
    pub(crate) fn ensure_pool(&mut self) -> &npar_par::Pool<AlignScratch> {
        if self.pool.as_ref().is_none_or(|p| p.lanes() != self.threads) {
            self.pool = Some(npar_par::Pool::new(self.threads, |_| {
                AlignScratch::default()
            }));
        }
        self.pool.as_ref().expect("pool just built")
    }

    /// Lazily build the timing-pass pool, or `None` while
    /// `timing_threads <= 1` (the partitioned pass then runs its domains
    /// on the calling thread — same results, no workers).
    pub(crate) fn ensure_timing_pool(&mut self) -> Option<&npar_par::Pool<()>> {
        let lanes = self.device.timing_threads;
        if lanes <= 1 {
            return None;
        }
        if self.timing_pool.as_ref().is_none_or(|p| p.lanes() != lanes) {
            self.timing_pool = Some(npar_par::Pool::new(lanes, |_| ()));
        }
        self.timing_pool.as_ref()
    }
}

/// Register a grid. Host-origin grids execute immediately; device-origin
/// grids are deferred until their parent joins them (or completes).
pub(crate) fn register_grid(
    engine: &mut Engine,
    kernel: &KernelRef,
    cfg: LaunchConfig,
    origin: Origin,
) -> usize {
    let class = engine.intern(kernel.name());
    let id = engine.grids.len();
    let depth = match origin {
        Origin::Host { .. } => 0,
        Origin::Device { parent, .. } => engine.grids[parent].depth + 1,
    };
    let kc = &mut engine.classes[class as usize];
    kc.metrics.grids += 1;
    engine.grids.push(GridTask {
        name: Arc::clone(&kc.name),
        class,
        cfg,
        origin,
        depth,
        blocks: Vec::with_capacity(cfg.grid_dim as usize),
        children: Vec::new(),
    });
    engine.kernels.push(Some(Rc::clone(kernel)));
    if let Origin::Device { parent, .. } = origin {
        engine.grids[parent].children.push(id);
        if engine.analysis_active() {
            // Launch-shape analysis: attribute the child to the parent's
            // class at registration, which both executors reach in the
            // same canonical order.
            let Engine {
                grids, analyzer, ..
            } = engine;
            let p = &grids[parent];
            analyzer.on_launch(&p.name, &p.cfg, &cfg);
        }
    }
    if matches!(origin, Origin::Host { .. }) {
        run_grid(engine, id);
    }
    id
}

/// Execute one registered grid's blocks (no descendant handling). Also the
/// parallel executor's path for single-block grids, where fan-out buys
/// nothing (hence `pub(crate)`).
pub(crate) fn execute_blocks(engine: &mut Engine, id: usize) {
    let Some(kernel) = engine.kernels[id].take() else {
        return; // already executed
    };
    let task = &engine.grids[id];
    let (cfg, class, name) = (task.cfg, task.class as usize, Arc::clone(&task.name));
    // Adaptive memoization: the class's policy is probed in place, in
    // trace order, so a cold class demotes mid-grid and the remaining
    // blocks trace without rolling fingerprints (see `ClassStats::probe`);
    // nested grids of the same class joined mid-grid share the same state.
    let memo_enabled = engine.memo.is_some();
    // npar-analyze per-grid state: probe/candidate collection and the
    // promoted elision signature snapshot (DESIGN.md §12). `probe_on`
    // forces fingerprinting for every block so elision decisions and
    // candidate signatures exist independently of the adaptive memo
    // policy; `elide_on` alone permits actually skipping scans.
    let probe_on = engine.probe_active();
    let elide_on = engine.elide_active();
    let depth = engine.grids[id].depth;
    let mut ga = if engine.analysis_active() {
        Some(
            engine
                .analyzer
                .begin_grid(&name, &cfg, depth, &engine.check),
        )
    } else {
        None
    };
    // Global-access accumulator for the cross-block race sweep. A local:
    // nested grids executed mid-block (a parent joining children) re-enter
    // this function with their own accumulator on the stack.
    let mut gaccess = GridAccess::default();
    // Per-grid metrics accumulator, merged into the per-kernel entry once
    // at the end — no per-block map lookup or name clone. The same
    // delta-then-merge grouping is used with memoization on and off, so
    // the floating-point sums land bit-identically in both modes.
    let mut grid_metrics = KernelMetrics::default();
    for b in 0..cfg.grid_dim {
        let memo_fp = memo_enabled && engine.classes[class].memo.fp_on(b);
        let fp_on = memo_fp || probe_on;
        let traces = std::mem::take(&mut engine.trace_pool);
        let barriers = std::mem::take(&mut engine.barrier_pool);
        let fps = std::mem::take(&mut engine.fp_pool);
        let mut blk = BlockCtx::new(
            engine,
            kernel.as_ref(),
            id,
            b,
            cfg,
            traces,
            barriers,
            fps,
            fp_on,
        );
        kernel.run_block(&mut blk);
        let crate::ctx::BlockParts {
            mut traces,
            mut barriers,
            fps,
            pending,
        } = blk.into_parts();
        // Split-borrow the engine so alignment can stream into the metrics
        // accumulator while reading the device/cost config.
        let Engine {
            device,
            cost,
            scratch,
            grids,
            check,
            memo,
            stats,
            ..
        } = engine;
        // Proof-carrying elision: a launch-free block whose fingerprint
        // signature equals the class's promoted probe skips the per-block
        // scans (the probe already passed them on an identical canonical
        // trace); its global intervals still feed the cross-block sweep.
        let elided = elide_on && ga.as_mut().is_some_and(|g| g.try_elide(&fps));
        let pending0 = check.pending_count();
        // The checker sees the raw traces BEFORE any cache consultation,
        // so Warn/Strict diagnostics are identical with memoization on.
        let sanitized = if elided {
            check::scan_block_elided(check, &traces, b, &mut gaccess);
            stats.elided += 1;
            false
        } else {
            check::scan_block(
                check,
                &mut traces,
                &mut barriers,
                &name,
                id,
                b,
                &cfg,
                &mut gaccess,
            )
        };
        if !elided {
            if let Some(g) = ga.as_mut() {
                let clean = check.pending_count() == pending0;
                g.observe_scanned(
                    &traces,
                    &cfg,
                    device,
                    probe_on.then_some(&fps),
                    sanitized,
                    clean,
                );
            }
        }
        stats.ops_traced += traces.iter().map(|t| t.len() as u64).sum::<u64>();
        let h0 = stats.block_hits;
        // Sanitized (divergent-barrier) blocks bypass the cache: their
        // fingerprints describe the pre-sanitization traces. Blocks whose
        // class has fingerprinting off never recorded one at all.
        let block_memo = if sanitized || !memo_fp {
            None
        } else {
            memo.as_mut().map(|cache| BlockMemo {
                cache,
                fps: &fps,
                cfg: &cfg,
                stats,
            })
        };
        // Launch-bearing blocks are excluded from the block cache, so they
        // carry no signal about whether caching pays off for this class.
        let probed = block_memo.is_some() && !fps.any_launch();
        let outcome = finalize_block(
            &traces,
            &barriers,
            device,
            cost,
            &mut grid_metrics,
            scratch,
            block_memo,
        );
        grids[id].blocks.push(outcome);
        // `children` is sorted by construction (grid ids are assigned in
        // increasing order), so each pending launch checks in O(log n).
        debug_assert!(
            pending
                .iter()
                .all(|c| grids[id].children.binary_search(c).is_ok()),
            "pending launches must be registered children"
        );
        if probed {
            let hit = engine.stats.block_hits > h0;
            engine.classes[class].memo.probe(hit);
        }
        engine.trace_pool = traces;
        engine.barrier_pool = barriers;
        engine.fp_pool = fps;
    }
    check::finish_grid(&mut engine.check, &name, id, gaccess);
    if let Some(g) = ga.take() {
        // Promotion happens after the grid's cross-block sweep, so a
        // global race detected this grid vetoes the candidate.
        engine.analyzer.finish_grid(&name, &cfg, g, &engine.check);
    }
    let kc = &mut engine.classes[class];
    if memo_enabled {
        kc.memo.eval();
    }
    kc.metrics.merge(&grid_metrics);
}

/// Drive a host-launched grid and its whole descendant tree to functional
/// completion. Fire-and-forget children execute breadth-first in launch
/// order (the closest sequential stand-in for concurrent hardware, and
/// what keeps unordered recursive traversals from degenerating into
/// depth-first re-relaxation storms); joined children were already drained
/// depth-first at their `sync_children` barrier.
pub(crate) fn run_grid(engine: &mut Engine, id: usize) {
    if engine.threads > 1 {
        crate::parallel::run_grid_par(engine, id);
        return;
    }
    let mut queue = std::collections::VecDeque::from([id]);
    while let Some(g) = queue.pop_front() {
        execute_blocks(engine, g);
        queue.extend(engine.grids[g].children.iter().copied());
    }
}

/// Fully execute a grid and its descendants depth-first — the functional
/// effect of a parent block joining a child at `sync_children` (the join
/// covers the child's own nested work, as on hardware).
pub(crate) fn run_subtree(engine: &mut Engine, id: usize) {
    if engine.threads > 1 {
        crate::parallel::run_subtree_par(engine, id);
        return;
    }
    execute_blocks(engine, id);
    let mut next = 0;
    while next < engine.grids[id].children.len() {
        let child = engine.grids[id].children[next];
        run_subtree(engine, child);
        next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ThreadCtx;
    use crate::kernel::ThreadKernel;

    struct Noop;
    impl ThreadKernel for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
            t.compute(1);
        }
    }

    #[test]
    fn executes_all_blocks_and_threads() {
        let mut e = Engine::new(DeviceConfig::tiny(), CostModel::default());
        let k: KernelRef = Rc::new(Noop);
        let id = register_grid(
            &mut e,
            &k,
            LaunchConfig::new(3, 64),
            Origin::Host { seq: 0, stream: 0 },
        );
        assert_eq!(id, 0);
        assert_eq!(e.grids[0].blocks.len(), 3);
        assert!(e.kernels[0].is_none(), "host grid runs immediately");
        let m = &e.take_metrics()["noop"];
        assert_eq!(m.grids, 1);
        assert_eq!(m.blocks, 3);
        assert_eq!(m.threads, 192);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let e = Engine::new(DeviceConfig::tiny(), CostModel::default());
        assert!(e.validate(&LaunchConfig::new(0, 32)).is_err());
        assert!(e.validate(&LaunchConfig::new(1, 0)).is_err());
        assert!(e.validate(&LaunchConfig::new(1, 512)).is_err()); // > 256
        assert!(e
            .validate(&LaunchConfig::with_shared(1, 32, 1 << 20))
            .is_err());
        assert!(e.validate(&LaunchConfig::new(4, 128)).is_ok());
    }

    #[test]
    fn validate_rejects_blocks_no_sm_can_hold() {
        let tiny = DeviceConfig::tiny();
        let devices = [
            // Per-block limit above the SM's thread capacity.
            DeviceConfig {
                max_threads_per_block: 512,
                ..tiny.clone()
            },
            // Registers: 256 threads x 32 registers exceed 4096.
            DeviceConfig {
                registers_per_sm: 4096,
                ..tiny.clone()
            },
            // Shared memory: the per-block limit exceeds the SM's.
            DeviceConfig {
                shared_mem_per_sm: 1024,
                ..tiny.clone()
            },
            // Warps: four warps per SM, an eight-warp block.
            DeviceConfig {
                max_warps_per_sm: 4,
                ..tiny.clone()
            },
            DeviceConfig {
                max_blocks_per_sm: 0,
                ..tiny.clone()
            },
        ];
        let big = [
            LaunchConfig::new(1, 512),
            LaunchConfig::new(1, 256),
            LaunchConfig::with_shared(1, 32, 2048),
            LaunchConfig::new(1, 256),
            LaunchConfig::new(1, 32),
        ];
        for (device, cfg) in devices.into_iter().zip(big) {
            let err = device.validate_launch(&cfg).unwrap_err();
            assert!(err.to_string().contains("no SM can hold"), "{err}");
        }
        // Warps the aligner cannot hold: wider than 64 lanes, or not a
        // power of two. A K20 with 128-lane warps would otherwise place a
        // 128-thread block and overrun the aligner's lane buffers.
        for warp_size in [0, 48, 128] {
            let device = DeviceConfig {
                warp_size,
                ..DeviceConfig::kepler_k20()
            };
            let err = Engine::new(device, CostModel::default())
                .validate(&LaunchConfig::new(1, 128))
                .unwrap_err();
            assert!(matches!(err, SimError::InvalidLaunch(_)), "{err}");
            assert!(err.to_string().contains("warp_size"), "{err}");
        }
        // Every launch valid on the presets still is.
        for device in [DeviceConfig::kepler_k20(), DeviceConfig::tiny()] {
            let max = device.max_threads_per_block;
            let smem = device.shared_mem_per_block;
            assert!(device
                .validate_launch(&LaunchConfig::with_shared(1, max, smem))
                .is_ok());
        }
    }
}
