//! Parallel host execution: fan one grid's per-block pipeline (trace, scan,
//! align) out over a work-stealing thread pool, then merge in canonical
//! block order so the resulting [`crate::Report`] is byte-for-byte identical
//! to the serial engine at any thread count.
//!
//! The timing pass itself stays serial (it runs after the merge, at
//! synchronize time) — which is exactly why its fast paths exist
//! (DESIGN.md §11): because the merge is canonical, the [`GridTask`] batch
//! reaching the scheduler is identical at every thread count, so the
//! scheduler's cohort/fast-forward decisions — and their byte-identical
//! outputs — are thread-count-invariant by construction.
//!
//! # Determinism contract
//!
//! Everything observable — metrics (bit-identical `f64` sums), hazard
//! reports, lints, block outcomes, the timeline profiler's replay marks and
//! child-grid ids — is produced by a *merge* step that walks blocks in
//! `(grid, block)` order on the main thread. Workers only ever compute
//! block-local data (traces, per-block hazard state, per-block alignment
//! deltas); nothing global is mutated off the main thread. Two executor
//! shapes share that merge:
//!
//! - **Serially traced kernels** (the default): functional tracing and the
//!   hazard scan stay on the main thread, block by block, preserving the
//!   exact serial order of side effects (child-grid registration, hazard
//!   records, `sync_children` joins). Only the expensive part — warp
//!   alignment — is deferred into chunks of `threads * 8` blocks and fanned
//!   out. Deferred blocks are flushed before any joined child grid executes
//!   (see [`flush_chunks`]), so the memoization cache always holds exactly
//!   the content the serial engine would have at the same point.
//! - **[`crate::Kernel::parallel_trace`] kernels**: whole blocks (tracing
//!   included) run concurrently. Device launches are collected per block and
//!   registered afterwards in block order — the same grid-id sequence the
//!   serial engine assigns — with placeholder ids patched in the traces.
//!   Hazards recorded mid-trace land in per-block [`CheckState`]s that are
//!   absorbed, trace-state first then scan-state, per block in order: the
//!   exact serial interleave.
//!
//! # Memoization under concurrency
//!
//! The block/warp caches are consulted through a *decide* step on the main
//! thread that emulates the serial probe sequence: a per-grid pending-key
//! set stands in for entries that earlier blocks of the same flush window
//! will insert at merge time, including the serial path's cap bookkeeping.
//! Workers see a frozen cache snapshot plus a private overlay
//! ([`WorkerMemo`]); their inserts are published in block order at the
//! merge. Warp replay is bitwise identical to live alignment, so cache
//! *content* differences under cap pressure can only show up in hit/miss
//! statistics ([`crate::profiler::SimStats`]), never in metrics or timing.

use std::collections::VecDeque;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex};

use crate::block::{align_block, BlockOutcome, WarpMemoView};
use crate::check::{self, CheckState, GridAccess};
use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::ctx::{BlockCtx, ParTrace, TraceHost};
use crate::engine::{register_grid, Engine, Origin};
use crate::kernel::{KernelRef, LaunchConfig};
use crate::memo::{
    block_key, BlockEntry, BlockFps, ClassStats, FastMap, IdentityHasher, MemoCache, WarpEntry,
    BLOCK_CAP, WARP_CAP,
};
use crate::profiler::KernelMetrics;
use crate::trace::{Barriers, Op};
use crate::warp::AlignScratch;

#[allow(clippy::disallowed_types)] // fixed hasher: membership-only, never iterated
type FastSet = std::collections::HashSet<u64, BuildHasherDefault<IdentityHasher>>;

/// Deferred blocks per pool lane before a flush (serially traced path). A
/// few blocks of headroom per lane keeps every worker busy without letting
/// the deferred buffers grow past a small multiple of the thread count.
const CHUNK_PER_LANE: usize = 8;

/// Recycled per-block buffers: the parallel counterpart of the engine's
/// single-owner `trace_pool`/`fp_pool`. Sharded per pool lane so workers
/// take and return without contending on one lock; empty shards steal.
#[derive(Default)]
pub(crate) struct BufPool {
    shards: Vec<Mutex<Vec<BlockBufs>>>,
}

/// One block's worth of recycled allocations.
pub(crate) struct BlockBufs {
    pub traces: Vec<Vec<Op>>,
    pub barriers: Barriers,
    pub fps: BlockFps,
}

impl BufPool {
    pub fn ensure_lanes(&mut self, lanes: usize) {
        if self.shards.len() < lanes {
            self.shards.resize_with(lanes, Mutex::default);
        }
    }

    /// Pop a recycled buffer set, preferring `lane`'s own shard; allocate
    /// fresh only when every shard is empty (the steady state allocates
    /// nothing per block).
    pub fn take(&self, lane: usize) -> BlockBufs {
        let n = self.shards.len();
        for i in 0..n {
            let shard = &self.shards[(lane + i) % n];
            let popped = shard.lock().unwrap_or_else(|e| e.into_inner()).pop();
            if let Some(b) = popped {
                return b;
            }
        }
        BlockBufs {
            traces: Vec::new(),
            barriers: Barriers::default(),
            fps: BlockFps::default(),
        }
    }

    pub fn put(&self, lane: usize, bufs: BlockBufs) {
        if self.shards.is_empty() {
            return;
        }
        let shard = &self.shards[lane % self.shards.len()];
        shard.lock().unwrap_or_else(|e| e.into_inner()).push(bufs);
    }
}

/// How the merge step handles one block, fixed by the main-thread decide
/// pass (which emulates the serial cache-probe sequence exactly).
#[derive(Debug, Clone, Copy)]
enum Decision {
    /// Replay the block-cache entry under `key` (already in the cache, or
    /// published by an earlier block of the same flush window by the time
    /// this block merges).
    Replay { key: u64 },
    /// Align live. `bkey` carries the block-cache insert key when the block
    /// is cacheable and the (projected) cache had room; `memo_on` gates the
    /// worker's warp-cache view; `probe_miss` records that the serial path
    /// would have counted a block-cache miss here.
    Align {
        bkey: Option<u64>,
        memo_on: bool,
        probe_miss: bool,
    },
}

/// Warp-entry inserts and statistics a worker produced for one block,
/// published in canonical block order at the merge.
struct WorkerPublish {
    inserts: Vec<(u64, WarpEntry)>,
    warp_hits: u64,
    warp_misses: u64,
    ops_replayed: u64,
}

/// A worker's alignment output for one block.
struct Aligned {
    out: BlockOutcome,
    delta: KernelMetrics,
    publish: Option<WorkerPublish>,
}

/// One block moving through the parallel pipeline. The serially traced
/// path fills only the trace/decision fields; the `parallel_trace` path
/// additionally carries per-block hazard state and pending launches.
pub(crate) struct ParBlock {
    traces: Vec<Vec<Op>>,
    barriers: Barriers,
    fps: BlockFps,
    /// Whether the *memoization policy* wanted fingerprints for this block
    /// (the cache-probe gate fed to [`decide`]). Fingerprints may also be
    /// computed solely for npar-analyze (`probe_active`), in which case
    /// this stays `false` and the cache is never consulted — exactly the
    /// serial engine's split between `memo_fp` and forced fingerprinting.
    fp_on: bool,
    /// Whether npar-analyze elided this block's per-block scans
    /// (par-traced path only; the serially traced path elides inline).
    elided: bool,
    sanitized: bool,
    ops: u64,
    decision: Decision,
    /// Hazards recorded while tracing (invalid child launches) — par-traced
    /// blocks only; the serial trace records directly into the engine.
    trace_check: Option<CheckState>,
    /// Device launches pending canonical registration — par-traced only.
    launches: Vec<crate::ctx::ParLaunch>,
    /// Hazards recorded by the scan pass — par-traced only.
    scan_check: Option<CheckState>,
    /// Global-access intervals from the scan pass — par-traced only.
    gaccess: Option<GridAccess>,
    result: Option<Aligned>,
}

impl ParBlock {
    fn new(traces: Vec<Vec<Op>>, barriers: Barriers, fps: BlockFps, fp_on: bool) -> Self {
        ParBlock {
            traces,
            barriers,
            fps,
            fp_on,
            elided: false,
            sanitized: false,
            ops: 0,
            decision: Decision::Align {
                bkey: None,
                memo_on: false,
                probe_miss: false,
            },
            trace_check: None,
            launches: Vec::new(),
            scan_check: None,
            gaccess: None,
            result: None,
        }
    }
}

/// Per-grid state of the serially traced executor, engine-resident so that
/// [`flush_chunks`] can publish deferred blocks from inside a
/// `sync_children` join. The innermost tracing grid is the top of the
/// stack; every state below it has an empty deferred list (its grid is
/// suspended inside a flush-preceded join), so flushing the top alone
/// restores the full serial cache/metrics chronology.
pub(crate) struct ChunkState {
    grid: usize,
    pending: FastSet,
    deferred: Vec<ParBlock>,
    grid_metrics: KernelMetrics,
    gaccess: GridAccess,
}

/// Frozen-snapshot warp-cache view for one block's alignment on a worker:
/// reads hit the engine cache as of the flush plus this block's own
/// overlay; inserts stay private until the merge publishes them in block
/// order. Replay is bitwise identical to live alignment (see
/// [`WarpMemoView`]), so which view served a hit never shows in metrics.
struct WorkerMemo<'a> {
    frozen: &'a MemoCache,
    fps: &'a BlockFps,
    overlay: FastMap<WarpEntry>,
    inserts: Vec<u64>,
    warp_hits: u64,
    warp_misses: u64,
    ops_replayed: u64,
}

impl WorkerMemo<'_> {
    fn into_publish(mut self) -> WorkerPublish {
        let overlay = &mut self.overlay;
        let inserts = self
            .inserts
            .iter()
            .filter_map(|k| overlay.remove(k).map(|e| (*k, e)))
            .collect();
        WorkerPublish {
            inserts,
            warp_hits: self.warp_hits,
            warp_misses: self.warp_misses,
            ops_replayed: self.ops_replayed,
        }
    }
}

impl WarpMemoView for WorkerMemo<'_> {
    fn fps(&self) -> &BlockFps {
        self.fps
    }

    fn replay(&mut self, key: u64, delta: &mut KernelMetrics) -> Option<f64> {
        let e = match self.frozen.warps.get(&key) {
            Some(e) => e,
            None => self.overlay.get(&key)?,
        };
        let (cycles, ops) = (e.cycles, e.ops);
        delta.merge(&e.metrics);
        self.warp_hits += 1;
        self.ops_replayed += ops;
        Some(cycles)
    }

    fn miss(&mut self) {
        self.warp_misses += 1;
    }

    fn full(&self) -> bool {
        self.frozen.warps.len() + self.overlay.len() >= WARP_CAP
    }

    fn store(&mut self, key: u64, entry: WarpEntry) {
        if self.overlay.insert(key, entry).is_none() {
            self.inserts.push(key);
        }
    }
}

/// Recursively split `items` across the pool: run the left half here, spawn
/// the right half as a stealable task. Workers that pick up a task split
/// again — nested submission from worker lanes — so the fan-out
/// self-balances regardless of which lanes are busy.
pub(crate) fn split_tasks<'env, W, T, F>(
    scope: &npar_par::Scope<'env, W>,
    w: &mut W,
    base: usize,
    items: &'env mut [T],
    f: &'env F,
) where
    T: Send,
    F: Fn(&npar_par::Scope<'env, W>, &mut W, usize, &mut T) + Sync,
{
    let mut items = items;
    loop {
        match items.len() {
            0 => return,
            1 => {
                f(scope, w, base, &mut items[0]);
                return;
            }
            n => {
                let mid = n / 2;
                let (left, right) = items.split_at_mut(mid);
                let rbase = base + mid;
                scope.spawn(move |sc, w2| split_tasks(sc, w2, rbase, right, f));
                items = left;
            }
        }
    }
}

/// Reproduce the serial cache-probe sequence for one block without touching
/// the cache: `pending` stands in for same-window inserts that the merge
/// will publish before this block, and `cache.blocks.len() + pending.len()`
/// is exactly the serial cache size at this block's probe.
fn decide(
    memo: Option<&MemoCache>,
    pending: &mut FastSet,
    fps: &BlockFps,
    cfg: &LaunchConfig,
    fp_on: bool,
    sanitized: bool,
) -> Decision {
    let off = Decision::Align {
        bkey: None,
        memo_on: false,
        probe_miss: false,
    };
    let Some(cache) = memo else { return off };
    if !fp_on || sanitized {
        return off;
    }
    if fps.any_launch() {
        // Excluded from the block cache (run-specific grid ids), but the
        // warp cache still serves the block's launch-free warps.
        return Decision::Align {
            bkey: None,
            memo_on: true,
            probe_miss: false,
        };
    }
    let key = block_key(fps, cfg);
    if cache.blocks.contains_key(&key) || pending.contains(&key) {
        return Decision::Replay { key };
    }
    if cache.blocks.len() + pending.len() < BLOCK_CAP {
        pending.insert(key);
        Decision::Align {
            bkey: Some(key),
            memo_on: true,
            probe_miss: true,
        }
    } else {
        Decision::Align {
            bkey: None,
            memo_on: true,
            probe_miss: true,
        }
    }
}

/// Align one block on whichever thread holds `scratch` (a worker or the
/// scope owner helping). Replay blocks pass through untouched — their
/// outcome is cloned from the cache at merge time.
fn align_one(
    db: &mut ParBlock,
    device: &DeviceConfig,
    cost: &CostModel,
    frozen: Option<&MemoCache>,
    scratch: &mut AlignScratch,
) {
    let Decision::Align { memo_on, .. } = db.decision else {
        return;
    };
    let mut delta = KernelMetrics::default();
    let mut memo = if memo_on {
        frozen.map(|cache| WorkerMemo {
            frozen: cache,
            fps: &db.fps,
            overlay: FastMap::default(),
            inserts: Vec::new(),
            warp_hits: 0,
            warp_misses: 0,
            ops_replayed: 0,
        })
    } else {
        None
    };
    let out = align_block(
        &db.traces,
        &db.barriers,
        device,
        cost,
        scratch,
        &mut memo,
        &mut delta,
    );
    let publish = memo.map(WorkerMemo::into_publish);
    db.result = Some(Aligned {
        out,
        delta,
        publish,
    });
}

/// Publish one block on the main thread, in canonical block order: absorb
/// its hazard states (trace first, then scan — the serial interleave),
/// splice its access intervals, replay or insert cache entries, and merge
/// its metrics delta. This is the only place global state changes.
fn merge_block(
    engine: &mut Engine,
    grid: usize,
    mut db: ParBlock,
    gm: &mut KernelMetrics,
    gaccess: &mut GridAccess,
) {
    if let Some(tc) = db.trace_check.take() {
        engine.check.absorb(tc);
    }
    if let Some(sc) = db.scan_check.take() {
        engine.check.absorb(sc);
    }
    if let Some(ga) = db.gaccess.take() {
        gaccess.absorb(ga);
    }
    engine.stats.ops_traced += db.ops;
    match db.decision {
        Decision::Replay { key } => {
            let cache = engine.memo.as_ref().expect("replay implies memoization");
            let e = cache
                .blocks
                .get(&key)
                .expect("replayed entry published by an earlier block in merge order");
            engine.stats.block_hits += 1;
            engine.stats.ops_replayed += e.ops;
            gm.merge(&e.metrics);
            let mut out = e.outcome.clone();
            out.replayed = true;
            engine.grids[grid].blocks.push(out);
        }
        Decision::Align {
            bkey, probe_miss, ..
        } => {
            if probe_miss {
                engine.stats.block_misses += 1;
            }
            let a = db.result.take().expect("block aligned in the flush scope");
            if let Some(p) = a.publish {
                engine.stats.warp_hits += p.warp_hits;
                engine.stats.warp_misses += p.warp_misses;
                engine.stats.ops_replayed += p.ops_replayed;
                if let Some(cache) = engine.memo.as_mut() {
                    for (k, e) in p.inserts {
                        cache.insert_warp(k, e);
                    }
                }
            }
            if let Some(key) = bkey {
                if let Some(cache) = engine.memo.as_mut() {
                    cache.insert_block(
                        key,
                        BlockEntry {
                            outcome: a.out.clone(),
                            metrics: a.delta.clone(),
                            ops: db.ops,
                        },
                    );
                }
            }
            gm.merge(&a.delta);
            engine.grids[grid].blocks.push(a.out);
        }
    }
    engine.bufs.put(
        0,
        BlockBufs {
            traces: db.traces,
            barriers: db.barriers,
            fps: db.fps,
        },
    );
}

/// Publish the innermost grid's deferred blocks (align in parallel, merge
/// in block order). Called between chunks by the serially traced executor
/// and — crucially — from a `sync_children` join *before* any child grid
/// executes, so nested grids observe exactly the cache, checker and
/// metrics state the serial engine would have at that point.
pub(crate) fn flush_chunks(engine: &mut Engine) {
    if engine.chunks.is_empty() {
        return;
    }
    flush_top(engine);
}

fn flush_top(engine: &mut Engine) {
    let Some(mut cs) = engine.chunks.pop() else {
        return;
    };
    if !cs.deferred.is_empty() {
        let mut blocks = std::mem::take(&mut cs.deferred);
        {
            let Engine {
                pool,
                memo,
                device,
                cost,
                ..
            } = &*engine;
            let pool = pool.as_ref().expect("parallel path without a pool");
            let frozen = memo.as_ref();
            let task =
                move |_s: &npar_par::Scope<'_, AlignScratch>,
                      w: &mut AlignScratch,
                      _i: usize,
                      db: &mut ParBlock| { align_one(db, device, cost, frozen, w) };
            pool.scope(|scope, w| split_tasks(scope, w, 0, &mut blocks, &task));
        }
        let grid = cs.grid;
        for db in blocks {
            merge_block(engine, grid, db, &mut cs.grid_metrics, &mut cs.gaccess);
        }
        cs.pending.clear();
    }
    engine.chunks.push(cs);
}

/// Parallel counterpart of [`crate::engine::run_grid`]: same breadth-first
/// descendant order, per-grid execution fanned out.
pub(crate) fn run_grid_par(engine: &mut Engine, id: usize) {
    prepare(engine);
    let mut queue = VecDeque::from([id]);
    while let Some(g) = queue.pop_front() {
        execute_blocks_par(engine, g);
        queue.extend(engine.grids[g].children.iter().copied());
    }
}

/// Parallel counterpart of [`crate::engine::run_subtree`] (depth-first join
/// of a child grid and its descendants).
pub(crate) fn run_subtree_par(engine: &mut Engine, id: usize) {
    prepare(engine);
    execute_blocks_par(engine, id);
    let mut next = 0;
    while next < engine.grids[id].children.len() {
        let child = engine.grids[id].children[next];
        run_subtree_par(engine, child);
        next += 1;
    }
}

fn prepare(engine: &mut Engine) {
    engine.ensure_pool();
    let lanes = engine.threads;
    engine.bufs.ensure_lanes(lanes);
}

fn execute_blocks_par(engine: &mut Engine, id: usize) {
    if engine.grids[id].kernel.is_none() {
        return; // already executed
    }
    let cfg = engine.grids[id].cfg;
    if cfg.grid_dim == 1 {
        // Nothing to fan out; the serial path is cheaper and the merged
        // result is identical by construction.
        return crate::engine::execute_blocks(engine, id);
    }
    let Some(kernel) = engine.grids[id].kernel.take() else {
        return;
    };
    if kernel.parallel_trace() {
        execute_par_traced(engine, id, kernel, cfg);
    } else {
        execute_serial_traced(engine, id, kernel, cfg);
    }
}

/// Chunked executor for kernels without the `parallel_trace` opt-in: trace,
/// scan and decide serially on the main thread (the exact serial order of
/// every side effect), defer alignment, flush in chunks.
fn execute_serial_traced(engine: &mut Engine, id: usize, kernel: KernelRef, cfg: LaunchConfig) {
    let memo_enabled = engine.memo.is_some();
    // The class policy is probed in place, in trace order, exactly like
    // the serial engine's: a cold class demotes mid-grid, so the chunked
    // path fingerprints the same block set the serial path would.
    let name = Arc::clone(&engine.grids[id].name);
    let class = engine.grids[id].class as usize;
    // npar-analyze per-grid state (DESIGN.md §12). Tracing, elision
    // decisions, scans and probe observation all stay on the main thread
    // in block order here, so the analyzer sees the exact serial call
    // sequence — elision is thread-count-invariant by construction.
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
    engine.chunks.push(ChunkState {
        grid: id,
        pending: FastSet::default(),
        deferred: Vec::new(),
        grid_metrics: KernelMetrics::default(),
        gaccess: GridAccess::default(),
    });
    let chunk_cap = engine.threads * CHUNK_PER_LANE;
    for b in 0..cfg.grid_dim {
        let memo_fp = memo_enabled && engine.classes[class].memo.fp_on(b);
        // Fingerprints are forced whenever npar-analyze probes, even if
        // the memo policy demoted the class — elision signatures must not
        // depend on cache policy (or thread count).
        let fp_on = memo_fp || probe_on;
        let bufs = engine.bufs.take(0);
        let mut blk = BlockCtx::new(
            TraceHost::Serial(engine),
            kernel.as_ref(),
            id,
            b,
            cfg,
            bufs.traces,
            bufs.barriers,
            bufs.fps,
            fp_on,
        );
        kernel.run_block(&mut blk);
        let crate::ctx::BlockParts {
            mut traces,
            mut barriers,
            fps,
            pending: pending_children,
            ..
        } = blk.into_parts();
        debug_assert!(
            pending_children
                .iter()
                .all(|c| engine.grids[id].children.binary_search(c).is_ok()),
            "pending launches must be registered children"
        );
        // Proof-carrying elision: same decision and same skipped work as
        // the serial engine (DESIGN.md §12).
        let elided = elide_on && ga.as_mut().is_some_and(|g| g.try_elide(&fps));
        let pending0 = engine.check.pending_count();
        let cs = engine.chunks.last_mut().expect("chunk state pushed above");
        let sanitized = if elided {
            check::scan_block_elided(&mut engine.check, &traces, b, &mut cs.gaccess);
            engine.stats.elided += 1;
            false
        } else {
            check::scan_block(
                &mut engine.check,
                &mut traces,
                &mut barriers,
                &name,
                id,
                b,
                &cfg,
                &mut cs.gaccess,
            )
        };
        if !elided {
            if let Some(g) = ga.as_mut() {
                let clean = engine.check.pending_count() == pending0;
                g.observe_scanned(
                    &traces,
                    &cfg,
                    &engine.device,
                    probe_on.then_some(&fps),
                    sanitized,
                    clean,
                );
            }
        }
        let ops = traces.iter().map(|t| t.len() as u64).sum();
        let decision = decide(
            engine.memo.as_ref(),
            &mut cs.pending,
            &fps,
            &cfg,
            memo_fp,
            sanitized,
        );
        probe_class(&mut engine.classes[class].memo, decision);
        let mut db = ParBlock::new(traces, barriers, fps, memo_fp);
        db.elided = elided;
        db.sanitized = sanitized;
        db.ops = ops;
        db.decision = decision;
        cs.deferred.push(db);
        if cs.deferred.len() >= chunk_cap {
            flush_top(engine);
        }
    }
    flush_top(engine);
    let cs = engine.chunks.pop().expect("chunk state pushed above");
    check::finish_grid(&mut engine.check, &name, id, cs.gaccess);
    if let Some(g) = ga.take() {
        // Promotion after the cross-block sweep, exactly like the serial
        // engine: a global race this grid vetoes the candidate.
        engine.analyzer.finish_grid(&name, &cfg, g, &engine.check);
    }
    finish_class(engine, class, memo_enabled, &cs.grid_metrics);
}

/// Feed one block's cache-probe decision to its class's policy, in trace
/// order. A replay decision is exactly a serial block-cache hit and a
/// probe miss exactly a serial miss, so the window and any mid-grid
/// demotion match the serial engine's.
fn probe_class(class: &mut ClassStats, decision: Decision) {
    match decision {
        Decision::Replay { .. } => class.probe(true),
        Decision::Align {
            probe_miss: true, ..
        } => class.probe(false),
        Decision::Align { .. } => {}
    }
}

/// Close a grid's class bookkeeping: re-evaluate the memo policy at the
/// grid boundary and merge the grid's metrics.
fn finish_class(
    engine: &mut Engine,
    class: usize,
    memo_enabled: bool,
    grid_metrics: &KernelMetrics,
) {
    let kc = &mut engine.classes[class];
    if memo_enabled {
        kc.memo.eval();
    }
    kc.metrics.merge(grid_metrics);
}

/// Fully concurrent executor for [`crate::Kernel::parallel_trace`] kernels:
/// trace all blocks in one scope, register + patch launches canonically,
/// scan in a second scope, decide serially, align in a third scope, merge.
fn execute_par_traced(engine: &mut Engine, id: usize, kernel: KernelRef, cfg: LaunchConfig) {
    let memo_enabled = engine.memo.is_some();
    let name = Arc::clone(&engine.grids[id].name);
    let class = engine.grids[id].class as usize;
    // Every block's policy decision is taken up front, in block order.
    // Unlike the trace-order executors this path cannot demote mid-grid —
    // every block fingerprints before any probe resolves — but the probes
    // below still demote a cold class for the grids after this one.
    // Policy is report-invariant, so the divergence from the serial
    // sequence is host-side only.
    let memo_fps: Vec<bool> = (0..cfg.grid_dim)
        .map(|b| memo_enabled && engine.classes[class].memo.fp_on(b))
        .collect();
    let level = engine.check.level;
    // npar-analyze per-grid state (DESIGN.md §12). The promoted elision
    // signature is snapshotted here and cannot change mid-grid, so the
    // phase-2.5 decisions below reproduce the serial per-block sequence.
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
    let n = cfg.grid_dim as usize;
    let mut slots: Vec<Option<ParBlock>> = (0..n).map(|_| None).collect();

    // Phase 1: trace every block concurrently against a worker-local host.
    {
        let Engine {
            pool, bufs, device, ..
        } = &*engine;
        let pool = pool.as_ref().expect("pool ensured by run_grid_par");
        let kernel = &kernel;
        let name = &name;
        let memo_fps = &memo_fps;
        let trace_one = move |scope: &npar_par::Scope<'_, AlignScratch>,
                              _w: &mut AlignScratch,
                              i: usize,
                              slot: &mut Option<ParBlock>| {
            let memo_fp = memo_fps[i];
            // Forced whenever npar-analyze probes (see the serial path).
            let fp_on = memo_fp || probe_on;
            let bb = bufs.take(scope.lane());
            let host = TraceHost::Par(ParTrace {
                device,
                grid_name: name,
                grid_id: id,
                check: CheckState::new(level),
                launches: Vec::new(),
            });
            let mut blk = BlockCtx::new(
                host,
                kernel.as_ref(),
                id,
                i as u32,
                cfg,
                bb.traces,
                bb.barriers,
                bb.fps,
                fp_on,
            );
            kernel.run_block(&mut blk);
            let parts = blk.into_parts();
            debug_assert!(parts.pending.is_empty(), "par host defers all registration");
            let TraceHost::Par(pt) = parts.host else {
                unreachable!("par-traced block keeps its par host")
            };
            let mut pb = ParBlock::new(parts.traces, parts.barriers, parts.fps, memo_fp);
            pb.trace_check = Some(pt.check);
            pb.launches = pt.launches;
            *slot = Some(pb);
        };
        pool.scope(|scope, w| split_tasks(scope, w, 0, &mut slots, &trace_one));
    }

    // Phase 2: register child grids in canonical (block, thread, launch)
    // order — the id sequence the serial engine assigns — and patch the
    // placeholder ids in the traces. The fingerprint fold ignores grid
    // ids, so patching never invalidates a rolled fingerprint.
    for (i, slot) in slots.iter_mut().enumerate() {
        let pb = slot.as_mut().expect("trace scope filled every slot");
        if pb.launches.is_empty() {
            continue;
        }
        let map: Vec<u32> = pb
            .launches
            .drain(..)
            .map(|l| {
                let child = register_grid(
                    engine,
                    &l.kernel,
                    l.cfg,
                    Origin::Device {
                        parent: id,
                        block: i as u32,
                        stream_slot: l.stream_slot,
                        thread: l.thread,
                    },
                );
                u32::try_from(child).expect("grid id overflow")
            })
            .collect();
        for t in &mut pb.traces {
            for op in t.iter_mut() {
                if let Op::Launch { grid } = op {
                    *grid = map[*grid as usize];
                }
            }
        }
    }

    // Phase 2.5: proof-carrying elision decisions, serially in block
    // order. The promoted signature was snapshotted at `begin_grid` and
    // promotion only ever happens at grid end, so deciding every block up
    // front is exactly the serial engine's per-block decision sequence.
    if elide_on {
        for slot in slots.iter_mut() {
            let pb = slot.as_mut().expect("traced");
            pb.elided = ga.as_mut().is_some_and(|g| g.try_elide(&pb.fps));
            if pb.elided {
                engine.stats.elided += 1;
            }
        }
    }

    // Phase 3: hazard scan per block, concurrently, into per-block state.
    // Elided blocks skip the scans the promoted probe already passed; only
    // their global intervals — input to the never-elided cross-block sweep
    // — are still collected.
    {
        let Engine { pool, .. } = &*engine;
        let pool = pool.as_ref().expect("pool ensured by run_grid_par");
        let name = &name;
        let cfg_ref = &cfg;
        let scan_one = move |_s: &npar_par::Scope<'_, AlignScratch>,
                             _w: &mut AlignScratch,
                             i: usize,
                             slot: &mut Option<ParBlock>| {
            let pb = slot.as_mut().expect("traced");
            let mut st = CheckState::new(level);
            let mut gacc = GridAccess::default();
            if pb.elided {
                check::scan_block_elided(&mut st, &pb.traces, i as u32, &mut gacc);
            } else {
                pb.sanitized = check::scan_block(
                    &mut st,
                    &mut pb.traces,
                    &mut pb.barriers,
                    name,
                    id,
                    i as u32,
                    cfg_ref,
                    &mut gacc,
                );
            }
            pb.ops = pb.traces.iter().map(|t| t.len() as u64).sum();
            pb.scan_check = Some(st);
            pb.gaccess = Some(gacc);
        };
        pool.scope(|scope, w| split_tasks(scope, w, 0, &mut slots, &scan_one));
    }

    // Phase 4: serial decide in block order (cache-probe emulation), plus
    // npar-analyze probe/candidate observation — here because this is the
    // first serial point where each block's scan outcome is known.
    let mut pending = FastSet::default();
    for slot in slots.iter_mut() {
        let pb = slot.as_mut().expect("traced");
        if !pb.elided {
            if let Some(g) = ga.as_mut() {
                // A fresh per-block state starts empty, so "no pending
                // detections" is exactly the serial path's pending-count
                // delta across its scan.
                let clean = pb
                    .scan_check
                    .as_ref()
                    .is_some_and(|st| st.pending_count() == 0);
                g.observe_scanned(
                    &pb.traces,
                    &cfg,
                    &engine.device,
                    probe_on.then_some(&pb.fps),
                    pb.sanitized,
                    clean,
                );
            }
        }
        pb.decision = decide(
            engine.memo.as_ref(),
            &mut pending,
            &pb.fps,
            &cfg,
            pb.fp_on,
            pb.sanitized,
        );
        probe_class(&mut engine.classes[class].memo, pb.decision);
    }

    // Phase 5: align concurrently against the frozen cache.
    {
        let Engine {
            pool,
            memo,
            device,
            cost,
            ..
        } = &*engine;
        let pool = pool.as_ref().expect("pool ensured by run_grid_par");
        let frozen = memo.as_ref();
        let align_task = move |_s: &npar_par::Scope<'_, AlignScratch>,
                               w: &mut AlignScratch,
                               _i: usize,
                               slot: &mut Option<ParBlock>| {
            align_one(slot.as_mut().expect("traced"), device, cost, frozen, w);
        };
        pool.scope(|scope, w| split_tasks(scope, w, 0, &mut slots, &align_task));
    }

    // Phase 6: canonical merge.
    let mut grid_metrics = KernelMetrics::default();
    let mut gaccess = GridAccess::default();
    for slot in slots.iter_mut() {
        let pb = slot.take().expect("traced");
        merge_block(engine, id, pb, &mut grid_metrics, &mut gaccess);
    }
    check::finish_grid(&mut engine.check, &name, id, gaccess);
    if let Some(g) = ga.take() {
        // All per-block hazard states were absorbed by the merge above, so
        // the grid-wide cleanliness test sees every detection — promotion
        // after the cross-block sweep, exactly like the serial engine.
        engine.analyzer.finish_grid(&name, &cfg, g, &engine.check);
    }
    finish_class(engine, class, memo_enabled, &grid_metrics);
}
