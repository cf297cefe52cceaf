//! Block finalization: segment the block's thread traces at barriers and
//! derive per-segment timing via warp alignment.

use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::memo::{block_key, hash_ops, warp_key, BlockEntry, BlockFps, BlockMemo, WarpEntry};
use crate::profiler::KernelMetrics;
use crate::trace::{Barriers, Op};
use crate::warp::{align_warp, AlignScratch};

/// Warp-cache access during block alignment. The serial path consults the
/// engine's cache directly ([`BlockMemo`]); the parallel path gives each
/// worker a frozen snapshot plus a private overlay whose inserts are
/// published in canonical block order at the merge
/// ([`crate::parallel::WorkerMemo`]). A warp replay merges the entry's
/// stored delta, which is bitwise identical to a live alignment of the same
/// trace, so *which* view served a hit never shows in the metrics — only in
/// the hit/miss statistics.
pub(crate) trait WarpMemoView {
    /// The block's fingerprints (warp keys + canonical address base).
    fn fps(&self) -> &BlockFps;
    /// Attempt to replay `key`: on a hit, merge the stored per-warp delta
    /// into `delta`, record the hit, and return the warp cycles.
    fn replay(&mut self, key: u64, delta: &mut KernelMetrics) -> Option<f64>;
    /// Record a cacheable miss.
    fn miss(&mut self);
    /// Whether the cache stopped accepting entries (skip the per-warp delta
    /// bookkeeping that only pays off if the entry could be stored).
    fn full(&self) -> bool;
    /// Store a freshly aligned warp.
    fn store(&mut self, key: u64, entry: WarpEntry);
}

impl WarpMemoView for BlockMemo<'_> {
    fn fps(&self) -> &BlockFps {
        self.fps
    }

    fn replay(&mut self, key: u64, delta: &mut KernelMetrics) -> Option<f64> {
        let e = self.cache.warps.get(&key)?;
        self.stats.warp_hits += 1;
        self.stats.ops_replayed += e.ops;
        delta.merge(&e.metrics);
        Some(e.cycles)
    }

    fn miss(&mut self) {
        self.stats.warp_misses += 1;
    }

    fn full(&self) -> bool {
        self.cache.warps_full()
    }

    fn store(&mut self, key: u64, entry: WarpEntry) {
        self.cache.insert_warp(key, entry);
    }
}

/// Timing of one barrier-delimited segment of a block.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentTask {
    /// Critical-path cycles (max over the block's warps).
    pub span: f64,
    /// Total warp cycles (sum over warps) — the issue work the SM must
    /// deliver.
    pub work: f64,
    /// Whether the block must wait for all its previously launched child
    /// grids before this segment starts (`SyncChildren` boundary).
    pub wait_children: bool,
    /// Device launches performed in this segment: (grid id, cycle offset
    /// from segment start).
    pub launches: Vec<(u32, f64)>,
}

/// Timing summary of one executed block.
#[derive(Debug, Clone)]
pub(crate) struct BlockOutcome {
    /// Resident warps the block occupies.
    pub warps: u32,
    /// Barrier segments in execution order (at least one).
    pub segments: Vec<SegmentTask>,
    /// Whether this outcome was replayed from the block-level memo cache
    /// rather than aligned live. Purely observational — the timeline
    /// profiler marks replayed spans distinctly; nothing else reads it.
    pub replayed: bool,
}

impl BlockOutcome {
    /// Total work cycles across segments.
    #[cfg(test)]
    pub(crate) fn work(&self) -> f64 {
        self.segments.iter().map(|s| s.work).sum()
    }

    /// Whether this block is interchangeable with `other` for the timing
    /// pass: same resident-warp footprint and a single, launch-free,
    /// join-free segment with bitwise-identical span/work. Grids whose
    /// blocks are pairwise uniform qualify for the scheduler's
    /// homogeneous-grid fast-forward (DESIGN.md §11). Memo-replayed blocks
    /// of one grid are typically uniform by construction: replays of one
    /// cache entry are clones of the same stored outcome.
    pub(crate) fn timing_uniform_with(&self, other: &BlockOutcome) -> bool {
        fn simple(seg: &SegmentTask) -> bool {
            !seg.wait_children && seg.launches.is_empty()
        }
        self.warps == other.warps
            && self.segments.len() == 1
            && other.segments.len() == 1
            && simple(&self.segments[0])
            && simple(&other.segments[0])
            && self.segments[0].span.to_bits() == other.segments[0].span.to_bits()
            && self.segments[0].work.to_bits() == other.segments[0].work.to_bits()
    }
}

/// Align one warp's slices over one segment, consulting the memo cache.
///
/// `key` is `Some` when the warp is cacheable: memoization is on and no
/// lane of the warp (in this segment) launched a child grid. Launch-bearing
/// warps always align live — their recorded grid ids are run-specific.
/// Results accumulate into `delta` and `seg` exactly as a live alignment
/// would: `align_warp` adds each floating-point counter once at its end,
/// so replaying a stored per-warp delta is bitwise identical.
#[allow(clippy::too_many_arguments)]
fn run_warp<M: WarpMemoView>(
    slices: &[&[Op]],
    key: Option<u64>,
    ops: u64,
    device: &DeviceConfig,
    cost: &CostModel,
    delta: &mut KernelMetrics,
    scratch: &mut AlignScratch,
    memo: &mut Option<M>,
    seg: &mut SegmentTask,
) {
    if let (Some(m), Some(key)) = (memo.as_mut(), key) {
        if let Some(cycles) = m.replay(key, delta) {
            seg.span = seg.span.max(cycles);
            seg.work += cycles;
            return;
        }
        m.miss();
        if m.full() {
            // The entry could not be stored anyway: skip the per-warp delta
            // and align straight into the caller's accumulator. Identical
            // result — align_warp adds each counter exactly once either way.
            let outcome = align_warp(slices, device, cost, delta, scratch);
            debug_assert!(outcome.launches.is_empty(), "cacheable warps never launch");
            seg.span = seg.span.max(outcome.cycles);
            seg.work += outcome.cycles;
            return;
        }
        let mut wdelta = KernelMetrics::default();
        let outcome = align_warp(slices, device, cost, &mut wdelta, scratch);
        debug_assert!(outcome.launches.is_empty(), "cacheable warps never launch");
        delta.merge(&wdelta);
        seg.span = seg.span.max(outcome.cycles);
        seg.work += outcome.cycles;
        m.store(
            key,
            WarpEntry {
                cycles: outcome.cycles,
                metrics: wdelta,
                ops,
            },
        );
        return;
    }
    let outcome = align_warp(slices, device, cost, delta, scratch);
    seg.span = seg.span.max(outcome.cycles);
    seg.work += outcome.cycles;
    seg.launches
        .extend(outcome.launches.iter().map(|lp| (lp.grid, lp.offset)));
}

/// Segment, align and cost one block's traces.
///
/// Caller contract: `barriers` describes `traces` and its lanes agree on
/// their barrier sequence. A recording block agrees by construction; for
/// traces built by hand the engine runs [`crate::check::scan_block`] first,
/// which reports divergent barriers as structured diagnostics and sanitizes
/// the traces (divergent `__syncthreads` is undefined behaviour on real
/// hardware); this function only debug-asserts the invariant.
///
/// `memo` carries the engine's memoization cache plus this block's rolling
/// fingerprints (`None` disables caching — the hazard checker has already
/// run either way). A block-level hit short-circuits everything below;
/// otherwise individual warp segments still hit the warp-level cache.
pub(crate) fn finalize_block(
    traces: &[Vec<Op>],
    barriers: &Barriers,
    device: &DeviceConfig,
    cost: &CostModel,
    metrics: &mut KernelMetrics,
    scratch: &mut AlignScratch,
    mut memo: Option<BlockMemo<'_>>,
) -> BlockOutcome {
    // Block-level cache: when this exact block (by fingerprint + config)
    // was finalized before, replay its stored outcome and counter delta.
    // Blocks that launched children are excluded — their outcomes embed
    // run-specific grid ids.
    let mut bkey = None;
    if let Some(m) = memo.as_mut() {
        debug_assert_eq!(m.fps.lanes.len(), traces.len());
        if !m.fps.any_launch() {
            let key = block_key(m.fps, m.cfg);
            if let Some(e) = m.cache.blocks.get(&key) {
                m.stats.block_hits += 1;
                m.stats.ops_replayed += e.ops;
                metrics.merge(&e.metrics);
                let mut out = e.outcome.clone();
                out.replayed = true;
                return out;
            }
            m.stats.block_misses += 1;
            // A full block cache can't store the entry, so don't make
            // finish_block clone the outcome and delta for nothing.
            if !m.cache.blocks_full() {
                bkey = Some(key);
            }
        }
    }
    let total_ops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    // Everything below accumulates into a block-local delta so a future
    // block-level hit replays the identical contribution.
    let mut delta = KernelMetrics::default();
    let out = align_block(
        traces, barriers, device, cost, scratch, &mut memo, &mut delta,
    );
    finish_block(metrics, delta, memo, bkey, &out, total_ops);
    out
}

/// Segment and align one block's traces into `delta` (no block-level cache
/// consultation — the caller has already decided this block aligns live).
/// Generic over the warp-cache view so the serial path and the parallel
/// workers share the exact same alignment logic.
pub(crate) fn align_block<M: WarpMemoView>(
    traces: &[Vec<Op>],
    barriers: &Barriers,
    device: &DeviceConfig,
    cost: &CostModel,
    scratch: &mut AlignScratch,
    memo: &mut Option<M>,
    delta: &mut KernelMetrics,
) -> BlockOutcome {
    let nthreads = traces.len();
    assert!(nthreads > 0);
    let warp_size = device.warp_size as usize;
    let warps = nthreads.div_ceil(warp_size) as u32;

    debug_assert!(
        barriers.divergence.is_none() && *barriers == Barriers::from_traces(traces),
        "barrier record must describe uniform traces (caller must sanitize via check::scan_block)"
    );
    let delims = &barriers.kinds;
    let nsegs = delims.len() + 1;
    const EMPTY: &[Op] = &[];

    // Fast path for barrier-free blocks (the overwhelmingly common case):
    // a single segment spanning every full trace, no range bookkeeping.
    if delims.is_empty() {
        let mut seg = SegmentTask::default();
        for (w, chunk) in traces.chunks(warp_size).enumerate() {
            // Idle warps (no instructions) cost nothing and are common in
            // wide grids whose blocks exit early.
            if chunk.iter().all(|t| t.is_empty()) {
                continue;
            }
            let mut slices: [&[Op]; 64] = [EMPTY; 64];
            debug_assert!(chunk.len() <= 64);
            for (i, t) in chunk.iter().enumerate() {
                slices[i] = t.as_slice();
            }
            // Warp key straight from the rolling fingerprints — no
            // re-hashing on the barrier-free path.
            let key = memo.as_ref().and_then(|m| {
                let lanes = &m.fps().lanes[w * warp_size..w * warp_size + chunk.len()];
                if lanes.iter().any(|f| f.has_launch) {
                    None
                } else {
                    Some(warp_key(lanes.iter().map(|f| f.value())))
                }
            });
            let ops = chunk.iter().map(|t| t.len() as u64).sum();
            run_warp(
                &slices[..chunk.len()],
                key,
                ops,
                device,
                cost,
                delta,
                scratch,
                memo,
                &mut seg,
            );
        }
        delta.blocks += 1;
        delta.threads += nthreads as u64;
        return BlockOutcome {
            warps,
            segments: vec![seg],
            replayed: false,
        };
    }

    let mut segments = Vec::with_capacity(nsegs);
    for s in 0..nsegs {
        let mut seg = SegmentTask {
            wait_children: s > 0 && delims[s - 1] == Op::SyncChildren,
            ..Default::default()
        };
        for (w, chunk) in traces.chunks(warp_size).enumerate() {
            let mut slices: [&[Op]; 64] = [EMPTY; 64];
            debug_assert!(chunk.len() <= 64);
            let mut ops = 0u64;
            for (i, t) in chunk.iter().enumerate() {
                let (a, b) = barriers.range(w * warp_size + i, s, t.len());
                slices[i] = &t[a..b];
                ops += (b - a) as u64;
            }
            // The rolling fingerprints cover whole traces; segmented
            // warps re-hash their per-segment slices (one cheap pass,
            // still far below alignment cost).
            let key = memo.as_ref().and_then(|m| {
                let base = m.fps().base.unwrap_or(0);
                let mut launch = false;
                let k = warp_key(slices[..chunk.len()].iter().map(|sl| {
                    let (h, l) = hash_ops(sl, base);
                    launch |= l;
                    h
                }));
                if launch {
                    None
                } else {
                    Some(k)
                }
            });
            run_warp(
                &slices[..chunk.len()],
                key,
                ops,
                device,
                cost,
                delta,
                scratch,
                memo,
                &mut seg,
            );
        }
        if s + 1 < nsegs {
            // Barrier cost charged at the end of the segment it closes.
            seg.span += cost.sync_cycles;
            seg.work += cost.sync_cycles * f64::from(warps);
            delta.barriers += 1;
            delta.stalls.barrier += cost.sync_cycles * f64::from(warps);
        }
        segments.push(seg);
    }

    delta.blocks += 1;
    delta.threads += nthreads as u64;
    BlockOutcome {
        warps,
        segments,
        replayed: false,
    }
}

/// Publish a freshly finalized block: insert it into the block-level cache
/// (when cacheable) and merge its counter delta into the caller's
/// accumulator — always via the same single merge, so memoized and live
/// runs sum the floating-point counters in the same order.
fn finish_block(
    metrics: &mut KernelMetrics,
    delta: KernelMetrics,
    mut memo: Option<BlockMemo<'_>>,
    bkey: Option<u64>,
    out: &BlockOutcome,
    total_ops: u64,
) {
    if let (Some(m), Some(key)) = (memo.as_mut(), bkey) {
        m.cache.insert_block(
            key,
            BlockEntry {
                outcome: out.clone(),
                metrics: delta.clone(),
                ops: total_ops,
            },
        );
    }
    metrics.merge(&delta);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finalize(traces: &[Vec<Op>]) -> (BlockOutcome, KernelMetrics) {
        let device = DeviceConfig::kepler_k20();
        let cost = CostModel::default();
        let mut metrics = KernelMetrics::default();
        let mut scratch = AlignScratch::default();
        let barriers = Barriers::from_traces(traces);
        let out = finalize_block(
            traces,
            &barriers,
            &device,
            &cost,
            &mut metrics,
            &mut scratch,
            None,
        );
        (out, metrics)
    }

    #[test]
    fn single_segment_no_barriers() {
        let traces: Vec<Vec<Op>> = (0..64).map(|_| vec![Op::Compute(2)]).collect();
        let (out, m) = finalize(&traces);
        assert_eq!(out.warps, 2);
        assert_eq!(out.segments.len(), 1);
        assert!((out.segments[0].span - 2.0).abs() < 1e-12);
        assert!((out.segments[0].work - 4.0).abs() < 1e-12);
        assert_eq!(m.barriers, 0);
        assert_eq!(m.blocks, 1);
        assert_eq!(m.threads, 64);
    }

    #[test]
    fn barrier_splits_segments() {
        let traces: Vec<Vec<Op>> = (0..32)
            .map(|_| vec![Op::Compute(1), Op::Sync, Op::Compute(3)])
            .collect();
        let (out, m) = finalize(&traces);
        assert_eq!(out.segments.len(), 2);
        assert!(!out.segments[1].wait_children);
        assert_eq!(m.barriers, 1);
        let cost = CostModel::default();
        assert!((out.segments[0].span - (1.0 + cost.sync_cycles)).abs() < 1e-12);
        assert!((out.segments[1].span - 3.0).abs() < 1e-12);
        assert!((out.work() - (1.0 + cost.sync_cycles + 3.0)).abs() < 1e-12);
        // One barrier over one warp: the barrier bucket gets exactly the
        // sync cost, and all buckets together cover work + barrier.
        assert!((m.stalls.barrier - cost.sync_cycles).abs() < 1e-12);
        assert!((m.stalls.total() - m.attributed_cycles()).abs() < 1e-9);
        assert!(!out.replayed);
    }

    #[test]
    fn sync_children_marks_wait() {
        let traces: Vec<Vec<Op>> = (0..32)
            .map(|_| vec![Op::Compute(1), Op::SyncChildren, Op::Compute(1)])
            .collect();
        let (out, _) = finalize(&traces);
        assert_eq!(out.segments.len(), 2);
        assert!(out.segments[1].wait_children);
    }

    #[test]
    fn span_is_max_over_warps() {
        // Warp 0 does 10 compute cycles, warp 1 does 2.
        let mut traces: Vec<Vec<Op>> = Vec::new();
        for _ in 0..32 {
            traces.push(vec![Op::Compute(10)]);
        }
        for _ in 0..32 {
            traces.push(vec![Op::Compute(2)]);
        }
        let (out, _) = finalize(&traces);
        assert!((out.segments[0].span - 10.0).abs() < 1e-12);
        assert!((out.segments[0].work - 12.0).abs() < 1e-12);
    }

    #[test]
    fn launches_carry_segment_offsets() {
        let mut traces: Vec<Vec<Op>> = (0..32).map(|_| vec![Op::Sync]).collect();
        traces[0] = vec![Op::Sync, Op::Launch { grid: 42 }];
        let (out, _) = finalize(&traces);
        assert!(out.segments[0].launches.is_empty());
        assert_eq!(out.segments[1].launches.len(), 1);
        assert_eq!(out.segments[1].launches[0].0, 42);
    }

    #[test]
    fn sanitized_divergent_traces_finalize() {
        // A divergent block is reported and sanitized by check::scan_block
        // before reaching finalize_block; the sanitized form (no
        // delimiters anywhere) must finalize cleanly.
        let mut traces: Vec<Vec<Op>> = (0..32).map(|_| vec![Op::Sync]).collect();
        traces[5] = vec![Op::Compute(1)];
        crate::check::synccheck::sanitize_divergent(&mut traces);
        let (out, _) = finalize(&traces);
        assert_eq!(out.segments.len(), 1);
    }

    #[test]
    fn empty_traces_yield_empty_segment() {
        let traces: Vec<Vec<Op>> = (0..32).map(|_| vec![]).collect();
        let (out, _) = finalize(&traces);
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.segments[0].span, 0.0);
    }
}
