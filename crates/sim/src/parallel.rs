//! Parallel host execution: fan one grid's warp alignment out over a
//! work-stealing thread pool, then merge in canonical block order so the
//! resulting [`crate::Report`] is byte-for-byte identical to the serial
//! engine at any thread count.
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
//! Functional tracing and the hazard scan stay on the main thread, block
//! by block, preserving the exact serial order of every side effect
//! (child-grid registration, hazard records, `sync_children` joins). Only
//! the expensive part — warp alignment — is deferred into chunks of
//! `threads * 8` blocks and fanned out. Workers compute block-local
//! alignment results only; everything observable — metrics (bit-identical
//! `f64` sums), block outcomes, the timeline profiler's replay marks — is
//! produced by a *merge* step that walks blocks in `(grid, block)` order on
//! the main thread. Deferred blocks are flushed before any joined child
//! grid executes (see [`flush_chunks`]), so the memoization cache always
//! holds exactly the content the serial engine would have at the same
//! point.
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
use std::sync::Arc;

use crate::block::{align_block, BlockOutcome, WarpMemoView};
use crate::check::{self, GridAccess};
use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::ctx::BlockCtx;
use crate::engine::Engine;
use crate::kernel::LaunchConfig;
use crate::memo::{
    block_key, BlockEntry, BlockFps, ClassStats, FastMap, IdentityHasher, MemoCache, WarpEntry,
    BLOCK_CAP, WARP_CAP,
};
use crate::profiler::KernelMetrics;
use crate::trace::{Barriers, Op};
use crate::warp::AlignScratch;

#[allow(clippy::disallowed_types)] // fixed hasher: membership-only, never iterated
type FastSet = std::collections::HashSet<u64, BuildHasherDefault<IdentityHasher>>;

/// Deferred blocks per pool lane before a flush. A few blocks of headroom
/// per lane keeps every worker busy without letting the deferred buffers
/// grow past a small multiple of the thread count.
const CHUNK_PER_LANE: usize = 8;

/// One block's worth of recycled allocations: the chunked executor's
/// counterpart of the engine's single-block `trace_pool`/`fp_pool`, pooled
/// in [`Engine::bufs`] because a chunk holds many blocks at once.
#[derive(Default)]
pub(crate) struct BlockBufs {
    pub traces: Vec<Vec<Op>>,
    pub barriers: Barriers,
    pub fps: BlockFps,
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

/// One traced and scanned block deferred for alignment.
pub(crate) struct ParBlock {
    traces: Vec<Vec<Op>>,
    barriers: Barriers,
    fps: BlockFps,
    ops: u64,
    decision: Decision,
    result: Option<Aligned>,
}

/// Per-grid state of the chunked executor, engine-resident so that
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
    items: &'env mut [T],
    f: &'env F,
) where
    T: Send,
    F: Fn(&mut W, &mut T) + Sync,
{
    let mut items = items;
    loop {
        match items.len() {
            0 => return,
            1 => {
                f(w, &mut items[0]);
                return;
            }
            n => {
                let (left, right) = items.split_at_mut(n / 2);
                scope.spawn(move |sc, w2| split_tasks(sc, w2, right, f));
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

/// Publish one block on the main thread, in canonical block order: replay
/// or insert cache entries and merge its metrics delta. This is the only
/// place a worker's results reach global state.
fn merge_block(engine: &mut Engine, grid: usize, mut db: ParBlock, gm: &mut KernelMetrics) {
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
    engine.bufs.push(BlockBufs {
        traces: db.traces,
        barriers: db.barriers,
        fps: db.fps,
    });
}

/// Publish the innermost grid's deferred blocks (align in parallel, merge
/// in block order). Called between chunks by the chunked executor and —
/// crucially — from a `sync_children` join *before* any child grid
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
            let task = move |w: &mut AlignScratch, db: &mut ParBlock| {
                align_one(db, device, cost, frozen, w)
            };
            pool.scope(|scope, w| split_tasks(scope, w, &mut blocks, &task));
        }
        let grid = cs.grid;
        for db in blocks {
            merge_block(engine, grid, db, &mut cs.grid_metrics);
        }
        cs.pending.clear();
    }
    engine.chunks.push(cs);
}

/// Parallel counterpart of [`crate::engine::run_grid`]: same breadth-first
/// descendant order, per-grid execution fanned out.
pub(crate) fn run_grid_par(engine: &mut Engine, id: usize) {
    engine.ensure_pool();
    let mut queue = VecDeque::from([id]);
    while let Some(g) = queue.pop_front() {
        execute_blocks_par(engine, g);
        queue.extend(engine.grids[g].children.iter().copied());
    }
}

/// Parallel counterpart of [`crate::engine::run_subtree`] (depth-first join
/// of a child grid and its descendants).
pub(crate) fn run_subtree_par(engine: &mut Engine, id: usize) {
    engine.ensure_pool();
    execute_blocks_par(engine, id);
    let mut next = 0;
    while next < engine.grids[id].children.len() {
        let child = engine.grids[id].children[next];
        run_subtree_par(engine, child);
        next += 1;
    }
}

/// Chunked executor: trace, scan and decide serially on the main thread
/// (the exact serial order of every side effect), defer alignment, flush
/// in chunks.
fn execute_blocks_par(engine: &mut Engine, id: usize) {
    if engine.kernels[id].is_none() {
        return; // already executed
    }
    let cfg = engine.grids[id].cfg;
    if cfg.grid_dim == 1 {
        // Nothing to fan out; the serial path is cheaper and the merged
        // result is identical by construction.
        return crate::engine::execute_blocks(engine, id);
    }
    let Some(kernel) = engine.kernels[id].take() else {
        return;
    };
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
        let bufs = engine.bufs.pop().unwrap_or_default();
        let mut blk = BlockCtx::new(
            engine,
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
        cs.deferred.push(ParBlock {
            traces,
            barriers,
            fps,
            ops,
            decision,
            result: None,
        });
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
    let kc = &mut engine.classes[class];
    if memo_enabled {
        kc.memo.eval();
    }
    kc.metrics.merge(&cs.grid_metrics);
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
