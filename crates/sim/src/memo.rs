//! Trace fingerprinting and the warp/block memoization cache.
//!
//! Every experiment is a sweep: the same kernel re-simulated across block
//! sizes, thresholds and datasets, and inside each run thousands of
//! structurally identical blocks are re-aligned from scratch. This module
//! recognizes that redundancy the same way the compiler-consolidation line
//! of work recognizes redundant nested launches: identical warp traces are
//! aligned once and replayed as cheap additive deltas.
//!
//! **Fingerprints.** Each simulated thread maintains a rolling 64-bit
//! FxHash-style fingerprint, updated as ops are recorded (~one multiply per
//! op) instead of re-hashed in a post-hoc pass. Global addresses are
//! *canonicalized* before hashing: they are taken relative to the block's
//! first global access, rounded down to the memory-transaction line. All of
//! the timing the aligner derives from addresses — coalescing transaction
//! counts, atomic same-address multiplicity, requested bytes — is invariant
//! under a uniform line-aligned shift of a block's whole access set, so two
//! blocks whose accesses differ only by such a shift (block `b` of a
//! thread-mapped kernel vs. block `b+1`) produce the same fingerprint *and*
//! provably the same timing. Shifts that are not line-aligned change the
//! canonical offsets and correctly miss. Shared-memory offsets are already
//! block-local and hash as-is.
//!
//! **Cache keys.** A warp key hashes the warp's lane fingerprints (over the
//! barrier segment being aligned) plus the lane count; a block key hashes
//! every lane fingerprint plus the [`LaunchConfig`]. Keys are 64-bit; a
//! collision would silently replay the wrong timing, which the differential
//! test suite (memo on vs. off, bit-identical reports) guards against.
//!
//! **Exclusions.** Warps containing [`Op::Launch`] are never cached: grid
//! ids are assigned per run, and the launch offsets recorded in
//! [`crate::warp::WarpOutcome`] feed the scheduler, so replaying them from
//! a previous block would wire the wrong child grids. Blocks whose traces
//! were sanitized by the hazard checker (divergent barriers) bypass the
//! cache too — their fingerprints describe the pre-sanitization traces.
//!
//! **Adaptive bypass.** Fingerprinting costs every op of a block, and a
//! kernel whose blocks never repeat pays it for nothing. [`ClassStats`]
//! keeps a block-hit window per kernel class; a cold class is demoted and
//! then fingerprints only the first blocks of a probing grid, opened once
//! per stride of its own blocks counted across grids ([`PROBE_STRIDE`]),
//! so the tiny nested grids of the recursive templates do not each buy a
//! probe. A warm window re-enables the class.
//!
//! **Interaction with the timing-pass fast paths (DESIGN.md §11).** Blocks
//! replayed from one block-cache entry are clones of the same
//! [`BlockOutcome`], so a grid whose blocks all hit the same entry is
//! timing-uniform *by construction* and eligible for the scheduler's
//! cohort batching and fast-forward wheel — the common case after a warm
//! sweep. The scheduler never trusts fingerprints for this, though: grid
//! uniformity is established by direct bitwise comparison of the outcomes
//! ([`BlockOutcome::timing_uniform_with`]), so a fingerprint collision can
//! mis-time but can never desynchronize fast and slow paths.

#[allow(clippy::disallowed_types)] // only used to build the fixed-hasher FastMap below
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::block::BlockOutcome;
use crate::kernel::LaunchConfig;
use crate::profiler::{KernelMetrics, SimStats};
use crate::trace::Op;

/// Fingerprint seed (splitmix64 increment — an arbitrary odd constant).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// FxHash multiplier.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// One FxHash-style mixing step.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(K)
}

// Op tags, folded into the low bits alongside small operands. Distinct per
// op kind so that e.g. a read and a write of the same address differ.
const T_COMPUTE: u64 = 1;
const T_GLOBAL_READ: u64 = 2;
const T_GLOBAL_WRITE: u64 = 3;
const T_SHARED_READ: u64 = 4;
const T_SHARED_WRITE: u64 = 5;
const T_ATOMIC_GLOBAL: u64 = 6;
const T_ATOMIC_SHARED: u64 = 7;
const T_LAUNCH: u64 = 8;
const T_SYNC: u64 = 9;
const T_SYNC_CHILDREN: u64 = 10;

/// Fold one (final, fusion-complete) op into a hash. `base` is the block's
/// canonical global-address base (0 when the block made no global access).
#[inline]
fn fold_op(h: u64, op: Op, base: u64) -> u64 {
    match op {
        Op::Compute(n) => mix(h, T_COMPUTE | (u64::from(n) << 4)),
        Op::GlobalRead { addr, size } => mix(
            mix(h, T_GLOBAL_READ | (u64::from(size) << 4)),
            addr.wrapping_sub(base),
        ),
        Op::GlobalWrite { addr, size } => mix(
            mix(h, T_GLOBAL_WRITE | (u64::from(size) << 4)),
            addr.wrapping_sub(base),
        ),
        Op::SharedRead { addr } => mix(h, T_SHARED_READ | (u64::from(addr) << 4)),
        Op::SharedWrite { addr } => mix(h, T_SHARED_WRITE | (u64::from(addr) << 4)),
        Op::AtomicGlobal { addr } => mix(mix(h, T_ATOMIC_GLOBAL), addr.wrapping_sub(base)),
        Op::AtomicShared { addr } => mix(h, T_ATOMIC_SHARED | (u64::from(addr) << 4)),
        // Grid ids are run-specific; launch-bearing warps are excluded from
        // the cache anyway, so the id must not poison the hash.
        Op::Launch { .. } => mix(h, T_LAUNCH),
        Op::Sync => mix(h, T_SYNC),
        Op::SyncChildren => mix(h, T_SYNC_CHILDREN),
    }
}

/// Rolling per-thread trace fingerprint.
///
/// Mirrors [`hash_ops`] over the *final* trace: consecutive
/// [`crate::ThreadCtx::compute`] calls fuse into one `Op::Compute` run in
/// the trace, so the pending run is folded only when a different op kind
/// (or the end of the trace) closes it.
#[derive(Debug, Clone)]
pub(crate) struct Fingerprint {
    hash: u64,
    /// Open trailing `Compute` run, not yet folded.
    run: u32,
    /// Whether the thread issued a device-side launch (uncacheable).
    pub has_launch: bool,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            hash: SEED,
            run: 0,
            has_launch: false,
        }
    }
}

impl Fingerprint {
    /// Extend the trailing compute run (mirrors trace fusion).
    #[inline]
    pub fn compute(&mut self, n: u32) {
        self.run += n;
    }

    /// Record a non-compute op. `base` as in [`fold_op`].
    #[inline]
    pub fn record(&mut self, op: Op, base: u64) {
        debug_assert!(
            !matches!(op, Op::Compute(_)),
            "compute runs go through Fingerprint::compute"
        );
        if self.run > 0 {
            self.hash = mix(self.hash, T_COMPUTE | (u64::from(self.run) << 4));
            self.run = 0;
        }
        if matches!(op, Op::Launch { .. }) {
            self.has_launch = true;
        }
        self.hash = fold_op(self.hash, op, base);
    }

    /// Current fingerprint value (folds the open compute run, if any,
    /// without closing it).
    #[inline]
    pub fn value(&self) -> u64 {
        if self.run > 0 {
            mix(self.hash, T_COMPUTE | (u64::from(self.run) << 4))
        } else {
            self.hash
        }
    }
}

/// Hash a recorded op slice post-hoc (used for the per-segment lane keys of
/// barrier-separated blocks, where the rolling whole-trace fingerprint does
/// not apply). Returns the hash and whether the slice contains a launch.
/// Consistent with [`Fingerprint`] because recorded traces never contain
/// adjacent `Compute` ops (fusion happens at record time).
pub(crate) fn hash_ops(ops: &[Op], base: u64) -> (u64, bool) {
    let mut h = SEED;
    let mut launch = false;
    for &op in ops {
        launch |= matches!(op, Op::Launch { .. });
        h = fold_op(h, op, base);
    }
    (h, launch)
}

/// Per-block fingerprint state: one rolling fingerprint per thread plus the
/// canonical global-address base shared by the whole block. Pooled on the
/// engine so steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct BlockFps {
    pub lanes: Vec<Fingerprint>,
    /// First global address touched by the block, rounded down to the
    /// memory-transaction line. `None` until a global access happens.
    pub base: Option<u64>,
}

impl BlockFps {
    /// Reset for a block of `n` threads, keeping capacity.
    pub fn reset(&mut self, n: usize) {
        self.base = None;
        self.lanes.clear();
        self.lanes.resize_with(n, Fingerprint::default);
    }

    /// Whether any thread of the block performed a device-side launch.
    pub fn any_launch(&self) -> bool {
        self.lanes.iter().any(|f| f.has_launch)
    }
}

/// Key over one warp's lane fingerprint values (order- and count-sensitive).
pub(crate) fn warp_key(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = mix(SEED, 0xA1);
    let mut n = 0u64;
    for v in values {
        h = mix(h, v);
        n += 1;
    }
    mix(h, n)
}

/// Key over a whole block: every lane fingerprint plus the launch config
/// (block width fixes the warp partition; the rest keeps the key
/// conservative across configs — warp-level entries still hit there).
pub(crate) fn block_key(fps: &BlockFps, cfg: &LaunchConfig) -> u64 {
    let mut h = mix(SEED, 0xB2);
    for f in &fps.lanes {
        h = mix(h, f.value());
    }
    h = mix(h, u64::from(cfg.grid_dim));
    h = mix(h, u64::from(cfg.block_dim));
    mix(h, u64::from(cfg.shared_mem_bytes))
}

/// Cached outcome of aligning one warp over one barrier segment.
#[derive(Debug, Clone)]
pub(crate) struct WarpEntry {
    /// Warp execution cycles ([`crate::warp::WarpOutcome::cycles`]).
    pub cycles: f64,
    /// The warp's additive profiler-counter contribution.
    pub metrics: KernelMetrics,
    /// Ops the original alignment consumed (observability).
    pub ops: u64,
}

/// Cached outcome of finalizing one whole block.
#[derive(Debug, Clone)]
pub(crate) struct BlockEntry {
    pub outcome: BlockOutcome,
    /// The block's additive counter contribution (including `blocks`,
    /// `threads` and `barriers`).
    pub metrics: KernelMetrics,
    pub ops: u64,
}

/// Entry caps: beyond these the cache stops inserting (workloads where
/// every block is unique — fully divergent sweeps — must not grow without
/// bound; existing entries keep hitting). Kept modest on purpose: a warp
/// entry is ~150 bytes, and on an all-miss workload an over-large cache is
/// pure overhead — tens of MB of page faults for entries that never hit.
/// Regular workloads, the cache's target, need few distinct keys. Once a
/// cache is full, misses fall back to the direct alignment path and pay
/// only the key lookup.
pub(crate) const WARP_CAP: usize = 1 << 16;
pub(crate) const BLOCK_CAP: usize = 1 << 14;

/// Keys are already hashes — the maps pass them through unmixed.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are used; fold defensively for any other caller.
        for &b in bytes {
            self.0 = mix(self.0, u64::from(b));
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

#[allow(clippy::disallowed_types)] // fixed hasher: deterministic, u64 keys
pub(crate) type FastMap<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// Minimum probed blocks in the rolling window before the hit rate is
/// (re-)evaluated at a grid boundary.
pub(crate) const EVAL_MIN: u32 = 4;

/// While a kernel class is bypassed, some of its grids still probe: their
/// first [`EVAL_MIN`] blocks, one evaluation window, roll fingerprints and
/// probe the cache, so a class whose blocks become cacheable again can
/// re-enable itself. A grid probes only when at least a stride of the
/// class's blocks, counted across its grids, have run since the last
/// probing grid opened. The stride starts at `PROBE_STRIDE`, doubles with
/// each probing grid up to `PROBE_STRIDE_MAX`, and resets whenever an
/// evaluated window saw a hit: a class that warms up re-enables within a
/// grid or two, while one whose blocks never repeat probes ever more
/// rarely.
pub(crate) const PROBE_STRIDE: u32 = 16;
/// The widest stride between a bypassed class's probing grids.
pub(crate) const PROBE_STRIDE_MAX: u32 = 1024;

/// Rolling memoization hit-rate for one kernel class (one kernel name,
/// interned once per [`crate::Gpu`] in [`crate::engine::KernelClass`]),
/// driving the adaptive memo bypass. Every grid of the class updates this
/// one state in place, nested grids joined mid-grid included.
///
/// Fully divergent workloads pay the fingerprint-rolling cost on every op
/// and never hit (BENCH_sim regression: 0.95x vs memo-off). Each class
/// starts *enabled* — regular workloads hit the block cache from their very
/// first grid (block 0 inserts, the structurally identical blocks after it
/// replay, thanks to canonical addressing), so one grid of window is enough
/// to tell the two apart. A class whose window shows a block hit rate below
/// 50% is demoted to *bypassed*: only the first blocks of its probing
/// grids keep fingerprinting, leaving a path back if the workload turns
/// cacheable. Probing grids are spaced by a stride of the class's own
/// blocks, counted across grids (see [`PROBE_STRIDE`]), because recursive
/// templates launch thousands of grids of one or two blocks: a probe quota
/// per grid fingerprints every one of them. Grids of at least a stride
/// still probe each time while the class's probes keep hitting, which is
/// how a class that is cold within its first grid but repeats across grids
/// (npar-serve's `regular-wave`) re-enables within a grid.
///
/// The window holds the probed blocks: those that rolled fingerprints, were
/// not sanitized by the checker and launched no child (launch-bearing
/// blocks never enter the block cache, so they say nothing about it).
/// Promotion back to enabled happens at grid boundaries only
/// ([`ClassStats::eval`]). Demotion additionally fires mid-grid
/// ([`ClassStats::probe`]) — a hostile first grid stops paying the
/// fingerprint cost after `EVAL_MIN` cold probes instead of fingerprinting
/// every block to its boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassStats {
    /// Whether every block of this class currently rolls fingerprints.
    pub enabled: bool,
    /// Probed blocks in the current window.
    pub window_attempts: u32,
    /// Probed blocks that hit the *block* cache. Warp-level hits are
    /// deliberately ignored: the parallel path's worker-local warp views
    /// count hits differently from the serial cache, and the policy must be
    /// a pure function of state both paths share.
    pub window_hits: u32,
    /// Blocks of this class since its last probing grid opened: the
    /// probe stride's clock.
    since_probe: u32,
    /// Blocks between probing grids while bypassed.
    stride: u32,
    /// Whether the class's current grid is a probing grid.
    probing: bool,
}

impl Default for ClassStats {
    fn default() -> Self {
        ClassStats {
            enabled: true,
            window_attempts: 0,
            window_hits: 0,
            since_probe: 0,
            stride: PROBE_STRIDE,
            probing: false,
        }
    }
}

impl ClassStats {
    /// Whether block `block_idx` of the class's current grid rolls
    /// fingerprints and probes the cache: every block while enabled, and
    /// while bypassed the first [`EVAL_MIN`] blocks of a probing grid.
    /// A grid opens as a probing grid once the class's stride of blocks
    /// has run since the last one (see [`PROBE_STRIDE`]). Called once per
    /// block in block order, so the answer depends only on the class's
    /// history — deterministic at any thread count.
    #[inline]
    pub fn fp_on(&mut self, block_idx: u32) -> bool {
        if block_idx == 0 {
            self.probing = !self.enabled && self.since_probe >= self.stride;
            if self.probing {
                self.since_probe = 0;
                self.stride = (self.stride * 2).min(PROBE_STRIDE_MAX);
            }
        }
        self.since_probe = self.since_probe.saturating_add(1);
        self.enabled || (self.probing && block_idx < EVAL_MIN)
    }

    /// Record one probed block in trace order, demoting as soon as the
    /// window proves cold (< 50% hits over at least [`EVAL_MIN`] probes) so
    /// the blocks after it stop rolling fingerprints. The grid boundary's
    /// [`ClassStats::eval`] reaches the same verdict from the full window.
    #[inline]
    pub fn probe(&mut self, hit: bool) {
        self.window_attempts += 1;
        self.window_hits += u32::from(hit);
        if self.window_attempts >= EVAL_MIN && self.window_hits * 2 < self.window_attempts {
            self.enabled = false;
        }
    }

    /// Re-evaluate at a grid boundary once the window is large enough.
    pub fn eval(&mut self) {
        if self.window_attempts >= EVAL_MIN {
            self.enabled = self.window_hits * 2 >= self.window_attempts;
            if self.window_hits > 0 {
                self.stride = PROBE_STRIDE;
            }
            self.window_attempts = 0;
            self.window_hits = 0;
        }
    }
}

/// The engine's alignment memoization cache. Lives for the lifetime of a
/// [`crate::Gpu`], surviving `synchronize` — entries are content-keyed and
/// carry no batch-local state (launch-bearing warps are excluded).
#[derive(Default)]
pub(crate) struct MemoCache {
    pub warps: FastMap<WarpEntry>,
    pub blocks: FastMap<BlockEntry>,
}

/// Everything block finalization needs to consult the cache: the cache
/// itself, the block's fingerprints, the launch config (block-key
/// ingredient) and the stats to report hits/misses into. `None` when
/// memoization is disabled or the block's traces were sanitized by the
/// hazard checker (stale fingerprints).
pub(crate) struct BlockMemo<'a> {
    pub cache: &'a mut MemoCache,
    pub fps: &'a BlockFps,
    pub cfg: &'a LaunchConfig,
    pub stats: &'a mut SimStats,
}

impl MemoCache {
    pub fn insert_warp(&mut self, key: u64, entry: WarpEntry) {
        if !self.warps_full() {
            self.warps.insert(key, entry);
        }
    }

    pub fn insert_block(&mut self, key: u64, entry: BlockEntry) {
        if !self.blocks_full() {
            self.blocks.insert(key, entry);
        }
    }

    /// Whether the warp cache stopped accepting entries. Callers use this
    /// to skip miss-path bookkeeping (per-warp delta, entry clone) that
    /// only pays off if the entry could be stored.
    pub fn warps_full(&self) -> bool {
        self.warps.len() >= WARP_CAP
    }

    /// Whether the block cache stopped accepting entries.
    pub fn blocks_full(&self) -> bool {
        self.blocks.len() >= BLOCK_CAP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roll(ops: &[Op], base: u64) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for &op in ops {
            match op {
                Op::Compute(n) => fp.compute(n),
                other => fp.record(other, base),
            }
        }
        fp
    }

    #[test]
    fn rolling_matches_posthoc_hash() {
        // The rolling update is fed unfused compute calls; the post-hoc
        // hash sees the fused trace. Both must agree.
        let fused = vec![
            Op::Compute(3),
            Op::GlobalRead { addr: 256, size: 4 },
            Op::Compute(2),
            Op::Sync,
            Op::SharedWrite { addr: 8 },
            Op::Compute(5),
        ];
        let mut fp = Fingerprint::default();
        fp.compute(1);
        fp.compute(2); // fuses into Compute(3)
        fp.record(Op::GlobalRead { addr: 256, size: 4 }, 256);
        fp.compute(2);
        fp.record(Op::Sync, 256);
        fp.record(Op::SharedWrite { addr: 8 }, 256);
        fp.compute(4);
        fp.compute(1); // fuses into Compute(5)
        assert_eq!(fp.value(), hash_ops(&fused, 256).0);
    }

    #[test]
    fn canonicalization_is_shift_invariant_per_line() {
        // Same access pattern shifted by a line multiple: identical hash.
        let a = [
            Op::GlobalRead {
                addr: 0x1000,
                size: 4,
            },
            Op::GlobalWrite {
                addr: 0x1040,
                size: 4,
            },
        ];
        let b = [
            Op::GlobalRead {
                addr: 0x1000 + 384,
                size: 4,
            },
            Op::GlobalWrite {
                addr: 0x1040 + 384,
                size: 4,
            },
        ];
        let base_a = 0x1000;
        let base_b = 0x1000 + 384; // 384 = 3 * 128, line-aligned shift
        assert_eq!(hash_ops(&a, base_a).0, hash_ops(&b, base_b).0);
        // A shift that is NOT line-aligned leaves a different canonical
        // offset from the rounded-down base — it must miss.
        let c = [
            Op::GlobalRead {
                addr: 0x1000 + 64,
                size: 4,
            },
            Op::GlobalWrite {
                addr: 0x1040 + 64,
                size: 4,
            },
        ];
        let base_c = 0x1000; // 0x1040 rounded down to the 128-byte line
        assert_ne!(hash_ops(&a, base_a).0, hash_ops(&c, base_c).0);
    }

    #[test]
    fn coalescing_relevant_fields_do_not_collide() {
        // Same op kinds, different intra-line offsets: the aligner derives
        // different transaction counts from these, so they must not
        // collide on the fingerprint either.
        let strided = [
            Op::GlobalRead { addr: 0, size: 4 },
            Op::GlobalRead { addr: 4, size: 4 },
        ];
        let scattered = [
            Op::GlobalRead { addr: 0, size: 4 },
            Op::GlobalRead {
                addr: 4096,
                size: 4,
            },
        ];
        assert_ne!(hash_ops(&strided, 0).0, hash_ops(&scattered, 0).0);
        // Different access size, same address.
        let wide = [Op::GlobalRead { addr: 0, size: 8 }];
        let narrow = [Op::GlobalRead { addr: 0, size: 4 }];
        assert_ne!(hash_ops(&wide, 0).0, hash_ops(&narrow, 0).0);
        // Reads and writes of the same address are distinct kinds.
        let read = [Op::GlobalRead { addr: 0, size: 4 }];
        let write = [Op::GlobalWrite { addr: 0, size: 4 }];
        assert_ne!(hash_ops(&read, 0).0, hash_ops(&write, 0).0);
        // Shared offsets and bank structure.
        let bank0 = [Op::SharedRead { addr: 0 }];
        let bank1 = [Op::SharedRead { addr: 128 }];
        assert_ne!(hash_ops(&bank0, 0).0, hash_ops(&bank1, 0).0);
    }

    #[test]
    fn compute_runs_hash_by_total_not_call_count() {
        let mut a = Fingerprint::default();
        a.compute(5);
        let mut b = Fingerprint::default();
        for _ in 0..5 {
            b.compute(1);
        }
        assert_eq!(a.value(), b.value());
        let mut c = Fingerprint::default();
        c.compute(4);
        assert_ne!(a.value(), c.value());
    }

    #[test]
    fn launches_set_the_exclusion_flag_and_ignore_grid_ids() {
        let x = roll(&[Op::Launch { grid: 3 }], 0);
        let y = roll(&[Op::Launch { grid: 900 }], 0);
        assert!(x.has_launch && y.has_launch);
        // The id is run-specific and excluded from the hash.
        assert_eq!(x.value(), y.value());
        assert!(hash_ops(&[Op::Launch { grid: 7 }], 0).1);
        assert!(!hash_ops(&[Op::Sync], 0).1);
    }

    #[test]
    fn barrier_kinds_are_distinct() {
        assert_ne!(
            hash_ops(&[Op::Sync], 0).0,
            hash_ops(&[Op::SyncChildren], 0).0
        );
    }

    #[test]
    fn warp_key_is_order_and_count_sensitive() {
        assert_ne!(warp_key([1, 2]), warp_key([2, 1]));
        assert_ne!(warp_key([1, 2]), warp_key([1, 2, SEED]));
        assert_eq!(warp_key([1, 2]), warp_key([1, 2]));
    }

    #[test]
    fn block_key_depends_on_config() {
        let mut fps = BlockFps::default();
        fps.reset(4);
        let a = block_key(&fps, &LaunchConfig::new(2, 4));
        let b = block_key(&fps, &LaunchConfig::new(3, 4));
        let c = block_key(&fps, &LaunchConfig::with_shared(2, 4, 64));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, block_key(&fps, &LaunchConfig::new(2, 4)));
    }

    #[test]
    fn cache_caps_stop_inserting() {
        let mut cache = MemoCache::default();
        let entry = || WarpEntry {
            cycles: 1.0,
            metrics: KernelMetrics::default(),
            ops: 1,
        };
        cache.insert_warp(1, entry());
        cache.insert_warp(2, entry());
        assert_eq!(cache.warps.len(), 2);
        // The cap itself is large; just verify the guard logic compiles and
        // respects an existing entry refresh.
        cache.insert_warp(1, entry());
        assert_eq!(cache.warps.len(), 2);
    }

    #[test]
    fn class_stats_enable_and_demote() {
        let mut c = ClassStats::default();
        // Starts enabled: every block fingerprints, so a regular workload's
        // intra-grid block hits keep it on from the very first grid.
        assert!(c.enabled && (0..1000).all(|b| c.fp_on(b)));
        // A hot window (>= 50% block hits) keeps full fingerprinting on.
        for hit in [false, true, true, true] {
            c.probe(hit);
        }
        assert!(c.enabled);
        c.eval();
        assert!(c.enabled);
        // A cold run demotes *mid-grid*, as soon as the window is large
        // enough — the remaining blocks of a hostile grid trace bare.
        for _ in 0..EVAL_MIN {
            c.probe(false);
        }
        assert!(!c.enabled);
        assert!(!c.fp_on(EVAL_MIN));
        // The boundary eval reaches the same verdict from the full window.
        c.eval();
        assert!(!c.enabled);
        // Bypassed, the next grid probes its first blocks...
        let probes: Vec<bool> = (0..PROBE_STRIDE).map(|b| c.fp_on(b)).collect();
        assert_eq!(probes.iter().filter(|&&p| p).count(), EVAL_MIN as usize);
        assert!(probes[0] && !probes[EVAL_MIN as usize]);
        // ...and while no probe hits, probing grids grow further apart, up
        // to one per PROBE_STRIDE_MAX of the class's blocks.
        let mut gaps = Vec::new();
        let mut last = 0;
        for i in 1..=8 * PROBE_STRIDE_MAX {
            if c.fp_on(0) {
                gaps.push(i - last);
                last = i;
            }
        }
        assert!(gaps
            .windows(2)
            .all(|w| w[0] < w[1] || w[1] == PROBE_STRIDE_MAX));
        assert_eq!(gaps.last(), Some(&PROBE_STRIDE_MAX));
        // A recovered probe window (>= 50%) re-enables it — but only at the
        // grid boundary, since bypassed blocks never fingerprinted — and
        // restarts the stride.
        for hit in [true, true, true, false] {
            c.probe(hit);
        }
        assert!(!c.enabled);
        c.eval();
        assert!(c.enabled && c.stride == PROBE_STRIDE);
        // Tiny windows (below EVAL_MIN) defer the decision.
        let mut d = ClassStats::default();
        for _ in 0..EVAL_MIN - 1 {
            d.probe(false);
        }
        assert!(d.enabled);
        d.eval();
        assert!(d.enabled && d.window_attempts == EVAL_MIN - 1);
    }

    #[test]
    fn block_fps_reset_clears_lanes() {
        let mut fps = BlockFps::default();
        fps.reset(2);
        fps.lanes[0].record(Op::Launch { grid: 1 }, 0);
        fps.base = Some(128);
        assert!(fps.any_launch());
        fps.reset(3);
        assert!(!fps.any_launch());
        assert_eq!(fps.base, None);
        assert_eq!(fps.lanes.len(), 3);
        assert_eq!(fps.lanes[0].value(), Fingerprint::default().value());
    }
}
