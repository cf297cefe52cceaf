//! npar-check — a trace-based race/hazard sanitizer for simulated kernels.
//!
//! The simulator executes kernels functionally (thread by thread, in order)
//! while recording per-thread `Op` traces for timing. That sequential
//! execution order hides exactly the class of bugs that corrupt results on
//! real hardware: data races between concurrent threads, divergent
//! barriers, out-of-bounds shared-memory traffic and misused dynamic
//! parallelism. This module replays the same traces the timing model
//! consumes and reports those hazards as structured diagnostics instead of
//! silent corruption or panics, in the spirit of `cuda-memcheck`'s
//! `racecheck`/`synccheck`/`memcheck` tools:
//!
//! * `racecheck` — shared-memory write/write and read/write conflicts
//!   between threads of a block within one barrier segment, and cross-block
//!   conflicts on overlapping global-memory ranges where at least one
//!   access is a non-atomic write;
//! * `synccheck` — divergent `__syncthreads` (barriers not issued
//!   uniformly by every thread of a block, or mismatched barrier kinds),
//!   plus a lint for fire-and-forget child launches whose results the
//!   parent grid reads without an intervening join;
//! * `memcheck` — shared-memory accesses beyond the block's declared
//!   shared size and invalid device-side launch configurations.
//!
//! The checker's severity is the [`CheckLevel`] on
//! [`crate::config::DeviceConfig`]: `Off` skips everything except
//! structural faults (divergent barriers and invalid device launches, which
//! previously panicked and now surface as [`crate::SimError::Hazard`]);
//! `Warn` records every hazard and keeps going, surfacing counts in
//! [`crate::profiler::Report::hazards`]; `Strict` fails the launch.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::kernel::LaunchConfig;
use crate::trace::{Barriers, Op};

#[cfg(test)]
mod legacy;
pub(crate) mod memcheck;
pub(crate) mod racecheck;
pub(crate) mod synccheck;

/// How aggressively the hazard checker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CheckLevel {
    /// No hazard analysis. Structural faults (divergent barriers, invalid
    /// device-side launches) still surface as errors — they previously
    /// crashed the simulator and have no meaningful "ignore" semantics.
    #[default]
    Off,
    /// Record every hazard and continue; counts appear in
    /// [`crate::profiler::Report::hazards`] and the full report can be
    /// drained with [`crate::Gpu::take_check_report`].
    Warn,
    /// Any hazard fails the launch with [`crate::SimError::Hazard`]. The
    /// kernel's *functional* effects have already been applied by then (the
    /// simulator executes before it analyzes), so state may be mid-update —
    /// like an abort after the corrupting run, not a prevented one.
    Strict,
}

/// The kind of a detected hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// Two threads of one block touched the same shared-memory word within
    /// one barrier segment, at least one non-atomically writing.
    SharedRace,
    /// Two blocks of one grid touched overlapping global-memory ranges, at
    /// least one access a non-atomic write.
    GlobalRace,
    /// Threads of a block disagreed on their barrier sequence.
    DivergentBarrier,
    /// A block read global memory written by a child grid it launched but
    /// never joined.
    UnjoinedChildRead,
    /// A shared-memory access beyond the block's declared shared size.
    SharedOutOfBounds,
    /// A device-side launch configuration the device cannot accept.
    InvalidChildLaunch,
}

impl HazardKind {
    /// Every hazard kind, in a fixed order (used by npar-analyze to
    /// tabulate per-kind counts).
    pub const ALL: [HazardKind; 6] = [
        HazardKind::SharedRace,
        HazardKind::GlobalRace,
        HazardKind::DivergentBarrier,
        HazardKind::UnjoinedChildRead,
        HazardKind::SharedOutOfBounds,
        HazardKind::InvalidChildLaunch,
    ];
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HazardKind::SharedRace => "shared-race",
            HazardKind::GlobalRace => "global-race",
            HazardKind::DivergentBarrier => "divergent-barrier",
            HazardKind::UnjoinedChildRead => "unjoined-child-read",
            HazardKind::SharedOutOfBounds => "shared-out-of-bounds",
            HazardKind::InvalidChildLaunch => "invalid-child-launch",
        })
    }
}

/// One located diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// What went wrong.
    pub kind: HazardKind,
    /// Kernel name the offending block was running.
    pub kernel: String,
    /// Grid id within the batch.
    pub grid: usize,
    /// Block index within the grid.
    pub block: u32,
    /// Human-readable specifics: addresses, lanes, segments.
    pub details: String,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] kernel `{}` grid {} block {}: {}",
            self.kind, self.kernel, self.grid, self.block, self.details
        )
    }
}

/// Everything the checker found in one batch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Recorded diagnostics, in detection order (capped; see `suppressed`).
    pub hazards: Vec<Hazard>,
    /// Hazards beyond the recording cap, counted but not stored.
    pub suppressed: u64,
    /// Blocks the checker fully scanned in this batch — what "clean"
    /// actually covered.
    pub scanned: u64,
    /// Blocks whose per-block scans npar-analyze statically elided (their
    /// global intervals still fed the cross-block sweep; see
    /// [`crate::analyze`]). `scanned + elided` is every block that ran
    /// with checking enabled.
    pub elided: u64,
}

impl CheckReport {
    /// Whether anything was detected.
    pub fn is_empty(&self) -> bool {
        self.hazards.is_empty() && self.suppressed == 0
    }

    /// Total detections including suppressed ones.
    pub fn len(&self) -> u64 {
        self.hazards.len() as u64 + self.suppressed
    }

    /// Hazards of one kind.
    pub fn of_kind(&self, kind: HazardKind) -> impl Iterator<Item = &Hazard> {
        self.hazards.iter().filter(move |h| h.kind == kind)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} hazard(s) detected:", self.len())?;
        for h in &self.hazards {
            writeln!(f, "  {h}")?;
        }
        if self.suppressed > 0 {
            writeln!(f, "  ... and {} more (suppressed)", self.suppressed)?;
        }
        if self.scanned + self.elided > 0 {
            writeln!(
                f,
                "  ({} block(s) scanned, {} statically elided)",
                self.scanned, self.elided
            )?;
        }
        Ok(())
    }
}

/// Recording cap: beyond this many stored hazards per batch the checker
/// only counts (one broken kernel otherwise floods the report).
const MAX_HAZARDS: usize = 64;

/// A fire-and-forget launch lint pending resolution: the block read these
/// global ranges while `children` were launched but not yet joined. The
/// lint fires only if one of those children (or its descendants) actually
/// wrote an overlapping range non-atomically.
#[derive(Debug, PartialEq, Eq)]
struct PendingLint {
    kernel: String,
    grid: usize,
    block: u32,
    /// Merged, sorted read intervals `[start, end)`.
    reads: Vec<(u64, u64)>,
    /// Unjoined child grid ids in scope at the offending reads.
    children: Vec<usize>,
}

/// Checker state carried by the engine across a batch.
#[derive(Default)]
pub(crate) struct CheckState {
    pub level: CheckLevel,
    hazards: Vec<Hazard>,
    suppressed: u64,
    /// A structural fault was recorded (fatal at every level).
    fatal: bool,
    /// Per-grid merged union of non-atomic global write intervals, for
    /// resolving unjoined-child-read lints.
    grid_writes: BTreeMap<usize, Vec<(u64, u64)>>,
    lints: Vec<PendingLint>,
    /// Detections already counted by an earlier synchronize's report (they
    /// stay pending until drained, but must not be counted twice).
    reported: u64,
    /// Blocks fully scanned since the last drain (levels above `Off`).
    scanned_blocks: u64,
    /// Blocks whose scans npar-analyze elided since the last drain.
    elided_blocks: u64,
    /// Tables the scans reuse from block to block; no report reads them.
    scratch: Box<ScanScratch>,
}

/// Reused scan tables (allocation-free steady state): the per-block global
/// footprint and shared-race tables, the walk's pending shared races, and
/// the grid's sorted write list for the sweep gate.
#[derive(Default)]
struct ScanScratch {
    lines: racecheck::LineTable,
    shared: racecheck::SharedTable,
    races: Vec<racecheck::SharedRaceAt>,
    writes: Vec<(u64, u64, u32)>,
    max_end: Vec<u64>,
}

impl CheckState {
    pub(crate) fn new(level: CheckLevel) -> Self {
        CheckState {
            level,
            ..Default::default()
        }
    }

    /// Record a hazard, respecting the storage cap.
    pub(crate) fn record(&mut self, hazard: Hazard) {
        if self.hazards.len() < MAX_HAZARDS {
            self.hazards.push(hazard);
        } else {
            self.suppressed += 1;
        }
    }

    /// Record a structural fault — an error at every check level.
    pub(crate) fn record_fatal(&mut self, hazard: Hazard) {
        self.fatal = true;
        self.record(hazard);
    }

    pub(crate) fn has_hazards(&self) -> bool {
        !self.hazards.is_empty() || self.suppressed > 0
    }

    pub(crate) fn is_fatal(&self) -> bool {
        self.fatal
    }

    /// Total detections currently pending.
    pub(crate) fn pending_count(&self) -> u64 {
        self.hazards.len() as u64 + self.suppressed
    }

    /// Detections not yet counted by a synchronize.
    pub(crate) fn batch_count(&self) -> u64 {
        self.pending_count() - self.reported
    }

    /// Drain the pending diagnostics into a report.
    pub(crate) fn take_report(&mut self) -> CheckReport {
        self.fatal = false;
        self.reported = 0;
        CheckReport {
            hazards: std::mem::take(&mut self.hazards),
            suppressed: std::mem::take(&mut self.suppressed),
            scanned: std::mem::take(&mut self.scanned_blocks),
            elided: std::mem::take(&mut self.elided_blocks),
        }
    }

    /// Watermark into the hazard storage: `(stored, suppressed)`.
    /// npar-analyze snapshots this at grid start to attribute later
    /// detections.
    pub(crate) fn hazard_mark(&self) -> (usize, u64) {
        (self.hazards.len(), self.suppressed)
    }

    /// Hazards stored since a [`Self::hazard_mark`] snapshot.
    pub(crate) fn hazards_since(&self, mark: (usize, u64)) -> &[Hazard] {
        &self.hazards[mark.0.min(self.hazards.len())..]
    }

    /// Suppressed (stored-nowhere) detections since a snapshot — these
    /// cannot be attributed to a kernel, so npar-analyze treats any growth
    /// as disqualifying.
    pub(crate) fn suppressed_since(&self, mark: (usize, u64)) -> u64 {
        self.suppressed.saturating_sub(mark.1)
    }

    /// Forget batch-scoped bookkeeping (grid ids restart at zero after a
    /// synchronize, so stale write maps and lints must not leak across).
    /// Recorded diagnostics stay pending — [`crate::Gpu::take_check_report`]
    /// after a synchronize must still return them — but are marked as
    /// counted so the next report does not count them again.
    pub(crate) fn reset_batch(&mut self) {
        self.fatal = false;
        self.grid_writes.clear();
        self.lints.clear();
        self.reported = self.pending_count();
    }
}

/// Per-grid accumulator of global-memory access intervals, one entry set
/// per block. Lives on the stack of the grid executor: nested grids that
/// execute mid-block (a parent joining children) use their own accumulator.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct GridAccess {
    /// `(start, end, block)` merged read intervals.
    reads: Vec<(u64, u64, u32)>,
    /// `(start, end, block)` merged non-atomic write intervals.
    writes: Vec<(u64, u64, u32)>,
    /// `(start, end, block)` merged atomic intervals.
    atomics: Vec<(u64, u64, u32)>,
}

/// Analyze one block's traces right after functional execution and before
/// timing finalization. Always verifies barrier uniformity (sanitizing the
/// traces on divergence so the timing path never sees mismatched
/// barriers); the race/bounds/lint passes run only when checking is on.
///
/// The barrier check reads the block's barrier record, so `Off` costs no
/// walk over the ops. Above `Off`, one walk over each block's ops feeds
/// the shared-bounds check, the per-segment shared-race table and the
/// global footprint; the unjoined-child-read lint walks again only for a
/// block that launched a child (without a launch it can find nothing).
///
/// Runs strictly before any memoization-cache lookup, so Warn/Strict
/// results are identical with memoization on. Returns `true` when the
/// traces were rewritten by divergent-barrier sanitization — the caller
/// must then skip the cache, whose fingerprints describe the original
/// traces.
#[allow(clippy::too_many_arguments)] // crate-internal; both executors thread the same set
pub(crate) fn scan_block(
    st: &mut CheckState,
    traces: &mut [Vec<Op>],
    barriers: &mut Barriers,
    kernel: &str,
    grid: usize,
    block: u32,
    cfg: &LaunchConfig,
    gaccess: &mut GridAccess,
) -> bool {
    if st.level != CheckLevel::Off {
        st.scanned_blocks += 1;
    }
    if let Some(details) = barriers.divergence.take() {
        st.record_fatal(Hazard {
            kind: HazardKind::DivergentBarrier,
            kernel: kernel.to_string(),
            grid,
            block,
            details,
        });
        synccheck::sanitize_divergent(traces);
        barriers.reset(traces.len());
        return true;
    }
    if st.level == CheckLevel::Off {
        return false;
    }
    if walk_block(st, traces, barriers, kernel, grid, block, cfg, gaccess) {
        synccheck::scan_unjoined_reads(st, traces, barriers, kernel, grid, block);
    }
    false
}

/// The fused per-op pass of [`scan_block`]: one walk over the block's ops,
/// segment by segment and lane by lane within a segment. Hazards are
/// recorded in the order the checker has always produced them — the
/// block's first out-of-bounds shared access in lane order, then each
/// segment's shared races by offset — and the block's merged global
/// footprint goes to `gaccess`. Returns whether any lane launched a child.
#[allow(clippy::too_many_arguments)]
fn walk_block(
    st: &mut CheckState,
    traces: &[Vec<Op>],
    barriers: &Barriers,
    kernel: &str,
    grid: usize,
    block: u32,
    cfg: &LaunchConfig,
    gaccess: &mut GridAccess,
) -> bool {
    use racecheck::{ATOMIC, READ, WRITE};
    let ScanScratch {
        lines,
        shared,
        races,
        ..
    } = &mut *st.scratch;
    let limit = cfg.shared_mem_bytes;
    shared.begin(limit);
    // First out-of-bounds shared access as (lane, offset). Segment-major
    // order meets each lane's accesses in trace order, so keeping the
    // lowest lane reproduces the lane-major first offender.
    let mut oob: Option<(usize, u32)> = None;
    let mut launched = false;
    for seg in 0..barriers.segments() {
        for (lane, t) in traces.iter().enumerate() {
            let (a, b) = barriers.range(lane, seg, t.len());
            for op in &t[a..b] {
                let (addr, kind) = match *op {
                    Op::GlobalRead { addr, size } => {
                        lines.add(addr, u64::from(size), READ);
                        continue;
                    }
                    Op::GlobalWrite { addr, size } => {
                        lines.add(addr, u64::from(size), WRITE);
                        continue;
                    }
                    // Atomics carry no size; the minimum 4-byte word still
                    // overlaps any access to the same element.
                    Op::AtomicGlobal { addr } => {
                        lines.add(addr, 4, ATOMIC);
                        continue;
                    }
                    Op::SharedRead { addr } => (addr, READ),
                    Op::SharedWrite { addr } => (addr, WRITE),
                    Op::AtomicShared { addr } => (addr, ATOMIC),
                    Op::Launch { .. } => {
                        launched = true;
                        continue;
                    }
                    Op::Compute(_) | Op::Sync | Op::SyncChildren => continue,
                };
                // Every shared access models one 4-byte word.
                if u64::from(addr) + 4 > u64::from(limit) && oob.is_none_or(|(l, _)| lane < l) {
                    oob = Some((lane, addr));
                }
                shared.add(addr, lane as u32, kind);
            }
        }
        shared.finish_segment(seg, races);
    }
    if let Some((lane, addr)) = oob {
        st.record(memcheck::shared_out_of_bounds(
            kernel, grid, block, lane, addr, limit,
        ));
    }
    let mut races = std::mem::take(&mut st.scratch.races);
    for r in races.drain(..) {
        st.record(r.hazard(kernel, grid, block));
    }
    st.scratch.races = races;
    st.scratch.lines.emit(block, gaccess);
    launched
}

/// The statically-elided counterpart of [`scan_block`]: npar-analyze has
/// proven (by fingerprint identity with a promoted probe block) that the
/// per-block barrier/bounds/shared-race scans would pass, so only the work
/// feeding *cross-block* analyses remains — collecting the block's global
/// intervals for [`finish_grid`]'s sweep, which is never elided. Launch-
/// bearing blocks never reach this path, so no lint can be missed either.
pub(crate) fn scan_block_elided(
    st: &mut CheckState,
    traces: &[Vec<Op>],
    block: u32,
    gaccess: &mut GridAccess,
) {
    debug_assert!(st.level != CheckLevel::Off);
    st.elided_blocks += 1;
    racecheck::collect_global(&mut st.scratch.lines, traces, block, gaccess);
}

/// Cross-block analysis once every block of a grid has executed: sweep the
/// collected global intervals for conflicts and publish the grid's write
/// union for lint resolution.
///
/// The sweep runs only when it can report something: a grid without a
/// non-atomic write, or whose every write piece only meets its own block's
/// intervals, has no conflicting pair (see [`racecheck::sweep_can_report`]).
/// When it runs, it runs unchanged, so messages, order and caps are those
/// of the full sweep.
pub(crate) fn finish_grid(st: &mut CheckState, kernel: &str, grid: usize, gaccess: GridAccess) {
    if st.level == CheckLevel::Off || gaccess.writes.is_empty() {
        return;
    }
    let ScanScratch {
        writes, max_end, ..
    } = &mut *st.scratch;
    writes.clear();
    writes.extend_from_slice(&gaccess.writes);
    writes.sort_unstable();
    if racecheck::sweep_can_report(writes, max_end, &gaccess) {
        racecheck::sweep_global(st, kernel, grid, &gaccess);
    }
    let mut union: Vec<(u64, u64)> = st.scratch.writes.iter().map(|&(a, b, _)| (a, b)).collect();
    merge_intervals(&mut union);
    st.grid_writes.insert(grid, union);
}

/// Resolve pending unjoined-child-read lints against what the child grids
/// (and their descendants) actually wrote. Called once all functional
/// execution of a host launch has completed.
pub(crate) fn resolve_lints(engine: &mut crate::engine::Engine) {
    let crate::engine::Engine { grids, check, .. } = engine;
    if check.level == CheckLevel::Off {
        return;
    }
    for lint in std::mem::take(&mut check.lints) {
        // The unjoined children's writes include their whole subtrees: a
        // grandchild's store is just as unordered with the parent's read.
        let mut queue: Vec<usize> = lint.children.clone();
        let mut seen = std::collections::BTreeSet::new();
        let mut offending = None;
        while let Some(g) = queue.pop() {
            if !seen.insert(g) {
                continue;
            }
            if let Some(child) = grids.get(g) {
                queue.extend(child.children.iter().copied());
            }
            if let Some(writes) = check.grid_writes.get(&g) {
                if let Some(overlap) = first_overlap(&lint.reads, writes) {
                    offending = Some((g, overlap));
                    break;
                }
            }
        }
        if let Some((g, (a, b))) = offending {
            check.record(Hazard {
                kind: HazardKind::UnjoinedChildRead,
                kernel: lint.kernel,
                grid: lint.grid,
                block: lint.block,
                details: format!(
                    "read of global range [{a:#x}, {b:#x}) races with unjoined \
                     child grid {g}'s writes (no sync_children before the read)"
                ),
            });
        }
    }
}

/// Sort and coalesce a set of `[start, end)` intervals in place.
pub(crate) fn merge_intervals(v: &mut Vec<(u64, u64)>) {
    v.sort_unstable();
    let mut out = 0;
    for i in 0..v.len() {
        if out > 0 && v[i].0 <= v[out - 1].1 {
            v[out - 1].1 = v[out - 1].1.max(v[i].1);
        } else {
            v[out] = v[i];
            out += 1;
        }
    }
    v.truncate(out);
}

/// First overlapping region between two sorted, merged interval lists.
fn first_overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> Option<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            return Some((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_intervals_coalesces() {
        let mut v = vec![(10, 20), (0, 5), (19, 30), (40, 41)];
        merge_intervals(&mut v);
        assert_eq!(v, vec![(0, 5), (10, 30), (40, 41)]);
    }

    #[test]
    fn overlap_detection() {
        assert_eq!(first_overlap(&[(0, 4), (8, 12)], &[(4, 8)]), None);
        assert_eq!(
            first_overlap(&[(0, 4), (8, 12)], &[(10, 11)]),
            Some((10, 11))
        );
        assert_eq!(first_overlap(&[], &[(0, 100)]), None);
    }

    #[test]
    fn report_caps_and_counts() {
        let mut st = CheckState::new(CheckLevel::Warn);
        for i in 0..(MAX_HAZARDS + 3) {
            st.record(Hazard {
                kind: HazardKind::SharedRace,
                kernel: "k".into(),
                grid: 0,
                block: i as u32,
                details: String::new(),
            });
        }
        assert_eq!(st.pending_count(), MAX_HAZARDS as u64 + 3);
        let r = st.take_report();
        assert_eq!(r.hazards.len(), MAX_HAZARDS);
        assert_eq!(r.suppressed, 3);
        assert_eq!(r.len(), MAX_HAZARDS as u64 + 3);
        assert!(!st.has_hazards());
    }

    fn cfg(block: u32, shared: u32) -> LaunchConfig {
        LaunchConfig::with_shared(1, block, shared)
    }

    /// [`scan_block`] over traces built by hand, with the barrier record
    /// derived from them.
    fn scan_hand_built(
        st: &mut CheckState,
        traces: &mut [Vec<Op>],
        block: u32,
        cfg: &LaunchConfig,
        ga: &mut GridAccess,
    ) -> bool {
        let mut barriers = Barriers::from_traces(traces);
        scan_block(st, traces, &mut barriers, "k", 0, block, cfg, ga)
    }

    fn scan(level: CheckLevel, traces: &mut [Vec<Op>], shared: u32) -> (CheckState, GridAccess) {
        let mut st = CheckState::new(level);
        let mut ga = GridAccess::default();
        let c = cfg(traces.len() as u32, shared);
        scan_hand_built(&mut st, traces, 0, &c, &mut ga);
        (st, ga)
    }

    fn kinds(st: &CheckState) -> Vec<HazardKind> {
        st.hazards.iter().map(|h| h.kind).collect()
    }

    #[test]
    fn divergent_barrier_is_fatal_and_sanitizes() {
        // Lane 1 skips the barrier lane 0 issued.
        let mut traces = vec![
            vec![Op::Compute(1), Op::Sync, Op::Compute(1)],
            vec![Op::Compute(1), Op::Compute(1)],
        ];
        let (st, _) = scan(CheckLevel::Off, &mut traces, 0);
        assert!(st.is_fatal());
        assert_eq!(kinds(&st), vec![HazardKind::DivergentBarrier]);
        assert!(st.hazards[0].details.contains("thread 1"));
        // Sanitized: every lane truncated at its first barrier, so the
        // timing path sees a single uniform (barrier-free) segment.
        assert!(traces.iter().all(|t| !t.iter().any(|o| o.is_delimiter())));
    }

    #[test]
    fn mismatched_barrier_kinds_diverge() {
        let mut traces = vec![vec![Op::Sync], vec![Op::SyncChildren]];
        let (st, _) = scan(CheckLevel::Off, &mut traces, 0);
        assert_eq!(kinds(&st), vec![HazardKind::DivergentBarrier]);
    }

    #[test]
    fn shared_write_write_race_detected() {
        let mut traces = vec![
            vec![Op::SharedWrite { addr: 8 }],
            vec![Op::SharedWrite { addr: 8 }],
        ];
        let (st, _) = scan(CheckLevel::Warn, &mut traces, 64);
        assert_eq!(kinds(&st), vec![HazardKind::SharedRace]);
        assert!(!st.is_fatal(), "races are not structural faults");
        assert!(st.hazards[0].details.contains("0x8"));
    }

    #[test]
    fn barrier_separated_shared_accesses_do_not_race() {
        // Same address, but the write and the read sit in different
        // barrier segments: ordered, not a race.
        let mut traces = vec![
            vec![Op::SharedWrite { addr: 0 }, Op::Sync],
            vec![Op::Sync, Op::SharedRead { addr: 0 }],
        ];
        let (st, _) = scan(CheckLevel::Warn, &mut traces, 64);
        assert!(!st.has_hazards());
    }

    #[test]
    fn shared_atomics_and_private_slots_pass() {
        // Lane-private slots plus atomic/atomic contention on a shared
        // counter: both sanctioned.
        let mut traces = vec![
            vec![
                Op::SharedWrite { addr: 0 },
                Op::SharedRead { addr: 0 },
                Op::AtomicShared { addr: 32 },
            ],
            vec![
                Op::SharedWrite { addr: 4 },
                Op::SharedRead { addr: 4 },
                Op::AtomicShared { addr: 32 },
            ],
        ];
        let (st, _) = scan(CheckLevel::Warn, &mut traces, 64);
        assert!(!st.has_hazards());
    }

    #[test]
    fn atomic_against_plain_write_races() {
        let mut traces = vec![
            vec![Op::AtomicShared { addr: 16 }],
            vec![Op::SharedWrite { addr: 16 }],
        ];
        let (st, _) = scan(CheckLevel::Warn, &mut traces, 64);
        assert_eq!(kinds(&st), vec![HazardKind::SharedRace]);
    }

    #[test]
    fn shared_out_of_bounds_detected() {
        // Word at offset 60 fits a 64-byte declaration; offset 64 does not.
        let mut ok = vec![vec![Op::SharedWrite { addr: 60 }]];
        let (st, _) = scan(CheckLevel::Warn, &mut ok, 64);
        assert!(!st.has_hazards());

        let mut bad = vec![vec![Op::SharedRead { addr: 64 }]];
        let (st, _) = scan(CheckLevel::Warn, &mut bad, 64);
        assert_eq!(kinds(&st), vec![HazardKind::SharedOutOfBounds]);
        assert!(st.hazards[0].details.contains("64 byte(s)"));
    }

    #[test]
    fn cross_block_write_conflict_detected() {
        let mut st = CheckState::new(CheckLevel::Warn);
        let mut ga = GridAccess::default();
        let c = cfg(1, 0);
        let mut b0 = vec![vec![Op::GlobalWrite { addr: 0, size: 4 }]];
        let mut b1 = vec![vec![Op::GlobalWrite { addr: 0, size: 4 }]];
        scan_hand_built(&mut st, &mut b0, 0, &c, &mut ga);
        scan_hand_built(&mut st, &mut b1, 1, &c, &mut ga);
        finish_grid(&mut st, "k", 0, ga);
        assert_eq!(kinds(&st), vec![HazardKind::GlobalRace]);
        assert!(st.hazards[0].details.contains("blocks 0 and 1"));
        // The grid's write union is published for lint resolution.
        assert_eq!(st.grid_writes.get(&0), Some(&vec![(0, 4)]));
    }

    #[test]
    fn cross_block_read_atomic_pairs_pass() {
        let mut st = CheckState::new(CheckLevel::Warn);
        let mut ga = GridAccess::default();
        let c = cfg(1, 0);
        let mut b0 = vec![vec![
            Op::GlobalRead { addr: 0, size: 4 },
            Op::AtomicGlobal { addr: 0 },
        ]];
        let mut b1 = vec![vec![
            Op::GlobalRead { addr: 0, size: 4 },
            Op::AtomicGlobal { addr: 0 },
        ]];
        scan_hand_built(&mut st, &mut b0, 0, &c, &mut ga);
        scan_hand_built(&mut st, &mut b1, 1, &c, &mut ga);
        finish_grid(&mut st, "k", 0, ga);
        assert!(!st.has_hazards());
    }

    #[test]
    fn disjoint_cross_block_writes_pass() {
        let mut st = CheckState::new(CheckLevel::Warn);
        let mut ga = GridAccess::default();
        let c = cfg(1, 0);
        let mut b0 = vec![vec![Op::GlobalWrite { addr: 0, size: 4 }]];
        let mut b1 = vec![vec![Op::GlobalWrite { addr: 4, size: 4 }]];
        scan_hand_built(&mut st, &mut b0, 0, &c, &mut ga);
        scan_hand_built(&mut st, &mut b1, 1, &c, &mut ga);
        finish_grid(&mut st, "k", 0, ga);
        assert!(!st.has_hazards());
    }

    #[test]
    fn unjoined_read_lint_recorded_and_cleared_by_join() {
        // Read after a fire-and-forget launch (plain Sync between them
        // does NOT join the child): lint pending against child grid 3.
        let mut fire_and_forget = vec![
            vec![
                Op::Launch { grid: 3 },
                Op::Sync,
                Op::GlobalRead { addr: 8, size: 4 },
            ],
            vec![Op::Sync],
        ];
        let (st, _) = scan(CheckLevel::Warn, &mut fire_and_forget, 0);
        assert_eq!(st.lints.len(), 1);
        assert_eq!(st.lints[0].children, vec![3]);
        assert_eq!(st.lints[0].reads, vec![(8, 12)]);

        // The same shape with SyncChildren joins the child first: clean.
        let mut joined = vec![
            vec![
                Op::Launch { grid: 3 },
                Op::SyncChildren,
                Op::GlobalRead { addr: 8, size: 4 },
            ],
            vec![Op::SyncChildren],
        ];
        let (st, _) = scan(CheckLevel::Warn, &mut joined, 0);
        assert!(st.lints.is_empty());
    }

    #[test]
    fn diagnostics_survive_a_batch_reset_but_count_once() {
        let h = |block| Hazard {
            kind: HazardKind::SharedRace,
            kernel: "k".into(),
            grid: 0,
            block,
            details: String::new(),
        };
        let mut st = CheckState::new(CheckLevel::Warn);
        st.record(h(0));
        assert_eq!(st.batch_count(), 1);
        st.reset_batch();
        // Still drainable, but already counted.
        assert_eq!(st.batch_count(), 0);
        st.record(h(1));
        assert_eq!(st.batch_count(), 1);
        let r = st.take_report();
        assert_eq!(r.len(), 2);
        assert_eq!(st.batch_count(), 0);
    }

    #[test]
    fn off_level_skips_races_but_not_structure() {
        let mut racy = vec![
            vec![Op::SharedWrite { addr: 0 }],
            vec![Op::SharedWrite { addr: 0 }],
        ];
        let (st, _) = scan(CheckLevel::Off, &mut racy, 64);
        assert!(!st.has_hazards(), "Off must not analyze races");
    }

    #[test]
    fn display_formats() {
        let h = Hazard {
            kind: HazardKind::GlobalRace,
            kernel: "spmv".into(),
            grid: 2,
            block: 7,
            details: "blocks 0 and 1 overlap".into(),
        };
        let s = h.to_string();
        assert!(s.contains("global-race") && s.contains("spmv") && s.contains("block 7"));
        let r = CheckReport {
            hazards: vec![h],
            suppressed: 2,
            scanned: 5,
            elided: 7,
        };
        assert!(r.to_string().contains("3 hazard(s)"));
        assert!(r.to_string().contains("suppressed"));
        assert!(r
            .to_string()
            .contains("5 block(s) scanned, 7 statically elided"));
    }

    // -----------------------------------------------------------------
    // Randomized equivalence with the previous scans (`legacy`).
    // -----------------------------------------------------------------

    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A global address: mostly in a few clustered buffers (so accesses
    /// touch, overlap and straddle lines), sometimes at the direct-index
    /// boundary or far beyond it.
    fn global_addr(rng: &mut ChaCha8Rng) -> u64 {
        let direct_end = (1u64 << 20) * 128;
        match rng.gen_range(0u32..20) {
            0 => direct_end - 64 + rng.gen_range(0u64..128),
            1 => (1u64 << 40) + rng.gen_range(0u64..512),
            _ => 128 * rng.gen_range(1u64..4) * 8 + rng.gen_range(0u64..700),
        }
    }

    fn global_size(rng: &mut ChaCha8Rng) -> u8 {
        match rng.gen_range(0u32..12) {
            0 => 0,
            1 => rng.gen_range(1u8..=255),
            2 => 12,
            3 => 200,
            4 => 1,
            5 => 8,
            _ => 4,
        }
    }

    fn random_op(rng: &mut ChaCha8Rng, shared_span: u32) -> Op {
        let shared = |rng: &mut ChaCha8Rng| rng.gen_range(0u32..shared_span) * 4;
        match rng.gen_range(0u32..22) {
            0..=4 => Op::GlobalRead {
                addr: global_addr(rng),
                size: global_size(rng),
            },
            5..=6 => Op::GlobalWrite {
                addr: global_addr(rng),
                size: global_size(rng),
            },
            7..=8 => Op::AtomicGlobal {
                addr: global_addr(rng),
            },
            9..=11 => Op::SharedRead { addr: shared(rng) },
            12..=14 => Op::SharedWrite { addr: shared(rng) },
            15..=16 => Op::AtomicShared { addr: shared(rng) },
            17 => Op::Launch {
                grid: rng.gen_range(1u32..6),
            },
            _ => Op::Compute(rng.gen_range(1u32..4)),
        }
    }

    /// A block's traces: uniform barriers (as a recording block issues
    /// them) with random ops between, sometimes made divergent by hand.
    fn random_block(rng: &mut ChaCha8Rng, lanes: usize, shared_span: u32) -> Vec<Vec<Op>> {
        let barriers: Vec<Op> = (0..rng.gen_range(0usize..4))
            .map(|_| {
                if rng.gen_range(0u32..3) == 0 {
                    Op::SyncChildren
                } else {
                    Op::Sync
                }
            })
            .collect();
        let mut traces: Vec<Vec<Op>> = (0..lanes)
            .map(|_| {
                let mut t = Vec::new();
                for seg in 0..=barriers.len() {
                    for _ in 0..rng.gen_range(0usize..5) {
                        t.push(random_op(rng, shared_span));
                    }
                    if let Some(&b) = barriers.get(seg) {
                        t.push(b);
                    }
                }
                t
            })
            .collect();
        if rng.gen_range(0u32..25) == 0 {
            let lane = rng.gen_range(0..lanes);
            match rng.gen_range(0u32..3) {
                0 => traces[lane].push(Op::Sync),
                1 => {
                    if let Some(p) = traces[lane].iter().position(|o| o.is_delimiter()) {
                        traces[lane].remove(p);
                    }
                }
                _ => {
                    if let Some(o) = traces[lane].iter_mut().find(|o| o.is_delimiter()) {
                        *o = if *o == Op::Sync {
                            Op::SyncChildren
                        } else {
                            Op::Sync
                        };
                    }
                }
            }
        }
        traces
    }

    /// Pre-fill both states with the same filler hazards so some cases
    /// start near (or past) the recording cap.
    fn prefill(st: &mut CheckState, n: usize) {
        for i in 0..n {
            st.record(Hazard {
                kind: HazardKind::SharedRace,
                kernel: "filler".into(),
                grid: 9,
                block: i as u32,
                details: String::new(),
            });
        }
    }

    fn assert_same_state(new: &CheckState, old: &CheckState, case: usize) {
        assert_eq!(new.hazards, old.hazards, "case {case}: hazards");
        assert_eq!(new.suppressed, old.suppressed, "case {case}: suppressed");
        assert_eq!(new.fatal, old.fatal, "case {case}: fatal");
        assert_eq!(new.lints, old.lints, "case {case}: lints");
        assert_eq!(
            new.grid_writes, old.grid_writes,
            "case {case}: write unions"
        );
        assert_eq!(
            new.scanned_blocks, old.scanned_blocks,
            "case {case}: scanned"
        );
    }

    #[test]
    fn scans_match_the_previous_checker() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xc4ec);
        // One state per side for the whole run: the scan tables are reused
        // across blocks and grids exactly as in an engine.
        let mut new = CheckState::new(CheckLevel::Warn);
        let mut old = CheckState::new(CheckLevel::Warn);
        for case in 0..4000 {
            let level = match rng.gen_range(0u32..8) {
                0 => CheckLevel::Off,
                1 => CheckLevel::Strict,
                _ => CheckLevel::Warn,
            };
            let _ = new.take_report();
            let _ = old.take_report();
            new.reset_batch();
            old.reset_batch();
            new.level = level;
            old.level = level;
            let fill = [0, 0, 0, 60, 64, 70][rng.gen_range(0usize..6)];
            prefill(&mut new, fill);
            prefill(&mut old, fill);
            let lanes = rng.gen_range(1usize..40);
            let shared_span = rng.gen_range(1u32..24);
            let c =
                LaunchConfig::with_shared(1, lanes as u32, rng.gen_range(0u32..=shared_span) * 4);
            let (mut ga_new, mut ga_old) = (GridAccess::default(), GridAccess::default());
            for block in 0..rng.gen_range(1u32..5) {
                let traces = random_block(&mut rng, lanes, shared_span);
                let (mut t_new, mut t_old) = (traces.clone(), traces);
                let s_new = scan_hand_built(&mut new, &mut t_new, block, &c, &mut ga_new);
                let s_old =
                    legacy::scan_block(&mut old, &mut t_old, "k", 0, block, &c, &mut ga_old);
                assert_eq!(s_new, s_old, "case {case}: sanitized");
                assert_eq!(t_new, t_old, "case {case}: traces after the scan");
                assert_eq!(ga_new, ga_old, "case {case}: footprints");
                assert_same_state(&new, &old, case);
            }
            finish_grid(&mut new, "k", 0, ga_new);
            legacy::finish_grid(&mut old, "k", 0, ga_old);
            assert_same_state(&new, &old, case);
        }
    }

    #[test]
    fn footprints_match_sort_and_merge() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xf00d);
        let mut lines = racecheck::LineTable::default();
        for case in 0..2000 {
            let lanes = rng.gen_range(1usize..8);
            let traces: Vec<Vec<Op>> = (0..lanes)
                .map(|_| {
                    (0..rng.gen_range(0usize..30))
                        .map(|_| random_op(&mut rng, 4))
                        .collect()
                })
                .collect();
            let (mut got, mut want) = (GridAccess::default(), GridAccess::default());
            racecheck::collect_global(&mut lines, &traces, case, &mut got);
            legacy::collect_global(&traces, case, &mut want);
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn sweep_gate_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x6a7e);
        let mut lines = racecheck::LineTable::default();
        let (mut writes, mut max_end) = (Vec::new(), Vec::new());
        let (mut ran, mut skipped) = (0, 0);
        for case in 0..3000 {
            // Dense accesses over a few lines, so conflicts are common but
            // not universal.
            let mut ga = GridAccess::default();
            for block in 0..rng.gen_range(1u32..6) {
                let traces: Vec<Vec<Op>> = (0..rng.gen_range(1usize..4))
                    .map(|_| {
                        (0..rng.gen_range(0usize..6))
                            .map(|_| {
                                let addr = rng.gen_range(0u64..600);
                                let size = [0u8, 1, 4, 12, 200][rng.gen_range(0usize..5)];
                                match rng.gen_range(0u32..4) {
                                    0 => Op::GlobalWrite { addr, size },
                                    1 => Op::AtomicGlobal { addr },
                                    _ => Op::GlobalRead { addr, size },
                                }
                            })
                            .collect()
                    })
                    .collect();
                racecheck::collect_global(&mut lines, &traces, block, &mut ga);
            }
            writes.clear();
            writes.extend_from_slice(&ga.writes);
            writes.sort_unstable();
            let gate = racecheck::sweep_can_report(&writes, &mut max_end, &ga);
            let mut st = CheckState::new(CheckLevel::Warn);
            racecheck::sweep_global(&mut st, "k", 0, &ga);
            assert_eq!(gate, st.has_hazards(), "case {case}: {ga:?}");
            if gate {
                ran += 1;
            } else {
                skipped += 1;
            }
        }
        assert!(ran > 300 && skipped > 300, "ran {ran}, skipped {skipped}");
    }
}
