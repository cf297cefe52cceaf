//! Event-driven device scheduler.
//!
//! Takes the grid tasks produced by functional execution and plays them
//! against the device model: thread blocks are dispatched to SMs under the
//! occupancy limits, SM issue bandwidth is shared between resident blocks,
//! grids in one stream serialize, child grids become schedulable a launch
//! latency after their launching instruction, and parent blocks that join
//! their children (`SyncChildren`) are swapped out while they wait — the
//! Kepler dynamic-parallelism behaviour whose overhead the paper measures.
//!
//! The timing pass carries three fast paths (DESIGN.md §11), all bound by
//! the determinism contract — reports and profiler timelines are
//! byte-identical with them on or off (`tests/sched_differential.rs`):
//!
//! 1. **Calendar queue** ([`CalendarQueue`]): the event queue is bucketed
//!    by time instead of heap-ordered, with the same `(time, seq)` total
//!    order, so enqueue/dequeue are O(1) amortized under dynamic-parallelism
//!    event storms. Always on — it is a drop-in container.
//! 2. **Cohort batching**: consecutive same-time final-segment completions
//!    of one grid collapse into a single [`Ev::SegDoneN`] event whose
//!    teardown is fanned out arithmetically when no other work is runnable.
//! 3. **Homogeneous-grid fast-forward**: when the only runnable grid's
//!    blocks are pairwise timing-uniform and every queued event belongs to
//!    it (plus provably inert releases), the remaining dispatch rounds are
//!    played out in one tight loop over a sorted wheel, bypassing the
//!    queue; per-block profiler spans are still emitted (PROFILING.md).
//!
//! (2) and (3) are gated by [`DeviceConfig::fast_forward`]
//! (`--fast-forward=off` on the bench binaries). The `try_admit` placement
//! scan additionally memoizes failed launch configurations per scan and
//! skips entirely when nothing changed since the last exhaustive scan
//! (`fit_epoch`), which is exact because placement failures are monotone
//! while SM resources only shrink.

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::engine::{GridTask, Origin};
use crate::prof::Collector;

/// Hardware work-queue window: how many grids the dispatcher considers
/// concurrently when the head grid cannot place a block (HyperQ depth).
const DISPATCH_WINDOW: usize = 32;

/// Fast-forward entry gives up rather than scan more pending release
/// events than this (keeps the entry check O(1)-ish per event).
const MAX_FF_RELEASE_SCAN: usize = 64;

/// Result of timing simulation for one batch of grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimingResult {
    /// Batch makespan in device cycles.
    pub makespan: f64,
    /// Time-averaged resident warps / device warp capacity.
    pub achieved_occupancy: f64,
    /// Device launches serviced in the slow virtualized-pool regime.
    pub overflow_launches: u64,
}

/// Diagnostics of one timing pass, surfaced as
/// [`crate::profiler::SimStats`] counters. Deliberately *not* part of
/// [`TimingResult`]: the differential suites compare results across thread
/// counts and modes, while these counters describe which machinery ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SchedStats {
    /// Timing domains discovered by the partitioner (0 when the pass ran
    /// serially without partitioning).
    pub domains: u64,
    /// Domains whose optimistic parallel runs were committed as-is.
    pub domains_committed: u64,
    /// Domains replayed serially after a time-window conflict.
    pub domains_rolled_back: u64,
}

#[allow(clippy::disallowed_methods)] // derived PartialOrd: integer fields, total order
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Grid became schedulable (launch latency elapsed).
    Release(usize),
    /// Block finished its current segment.
    SegDone(usize, u32),
    /// Cohort: blocks `first..first + n` of the grid all finished their
    /// final segment at this exact time with consecutive sequence numbers
    /// (`seq..seq + n`). Processed as `n` back-to-back teardowns.
    SegDoneN(usize, u32, u32),
}

/// A cohort of final-segment completions being accumulated before it is
/// pushed: grid `g`, blocks `first..first + n`, all ending at bitwise time
/// `t`, holding sequence numbers `seq0..seq0 + n`.
#[derive(Debug, Clone, Copy)]
struct PendingCohort {
    t: f64,
    seq0: u64,
    g: usize,
    first: u32,
    n: u32,
}

/// Event replayed inside the fast-forward wheel.
#[derive(Debug, Clone, Copy)]
enum WheelEv {
    /// Final-segment completion of the fast-forwarded grid's block.
    Seg(u32),
    /// Inert release of another grid (serviced, not a stream head).
    Release(usize),
}

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// A calendar queue (R. Brown, CACM 1988): events are hashed into
/// fixed-width time buckets ("days" on a circular "year" of buckets) and
/// popped by scanning the current day forward. Pop order is exactly the
/// minimum by `(f64::total_cmp, seq)` — identical to the
/// `BinaryHeap<Reverse<(TimeKey, u64, Ev)>>` it replaced; the bucket
/// geometry (width, count) affects only cost, never order, which
/// `calendar_matches_binary_heap_pop_order` pins including seq tie-breaks.
///
/// Each bucket is kept sorted descending by `(t, seq)`, so its tail is the
/// bucket minimum. A bucket holds days congruent to its index mod the year
/// length, and later years strictly dominate earlier ones in time, so the
/// tail belongs to the earliest populated day of the bucket: one tail
/// inspection decides a day probe (O(1)), and pushes pay a binary-search
/// insert into a short bucket. Under the DP-heavy event storms this beats
/// both the unsorted-bucket scan (linear in bucket population per pop) and
/// the global heap (log n with poor locality).
///
/// Invariant: `day <= floor(t / width)` for every queued entry, so the
/// forward scan cannot step past a pending event. Pushes pull `day` back
/// when needed; when a whole year is empty the pop falls back to a global
/// minimum scan over the bucket tails and re-anchors `day` there.
#[derive(Debug)]
struct CalendarQueue {
    buckets: Vec<Vec<(f64, u64, Ev)>>,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: usize,
    width: f64,
    inv_width: f64,
    /// Current scan day (`floor(t / width)` cursor).
    day: u64,
    len: usize,
}

fn lex_lt(t: f64, s: u64, bt: f64, bs: u64) -> bool {
    match t.total_cmp(&bt) {
        Ordering::Less => true,
        Ordering::Equal => s < bs,
        Ordering::Greater => false,
    }
}

impl CalendarQueue {
    fn new() -> Self {
        // Initial width of one host-launch overhead order of magnitude;
        // resizes re-estimate from observed event spacing.
        Self::with_geometry(16, 512.0)
    }

    fn with_geometry(nbuckets: usize, width: f64) -> Self {
        debug_assert!(nbuckets.is_power_of_two() && width > 0.0);
        CalendarQueue {
            buckets: vec![Vec::new(); nbuckets],
            mask: nbuckets - 1,
            width,
            inv_width: 1.0 / width,
            day: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn day_of(&self, t: f64) -> u64 {
        // Saturating cast; event times are finite and non-negative.
        (t * self.inv_width) as u64
    }

    fn push(&mut self, t: f64, seq: u64, ev: Ev) {
        if self.len >= self.buckets.len() * 4 && self.buckets.len() < (1 << 20) {
            self.resize();
        }
        let d = self.day_of(t);
        if d < self.day {
            self.day = d;
        }
        let bucket = &mut self.buckets[(d as usize) & self.mask];
        // Keep the bucket sorted descending by (t, seq): skip the prefix of
        // entries that dominate the new one.
        let pos = bucket.partition_point(|&(bt, bs, _)| !lex_lt(bt, bs, t, seq));
        bucket.insert(pos, (t, seq, ev));
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(f64, u64, Ev)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets.len() > 16 && self.len < self.buckets.len() / 8 {
            // Occupancy collapsed (e.g. after a launch storm drained): give
            // the year back and re-estimate the day width from the
            // survivors, or pops degrade to long empty-day scans. The 8x
            // under-occupancy trigger against the 4x grow trigger leaves
            // hysteresis, so grow/shrink cannot thrash.
            self.rebuild(self.len.max(16).next_power_of_two());
        }
        let years = self.buckets.len() as u64;
        for day in self.day..=self.day + years {
            let b = (day as usize) & self.mask;
            if let Some(&(t, _, _)) = self.buckets[b].last() {
                // The tail is the bucket minimum; its day is the earliest
                // populated day of the bucket (later years strictly
                // dominate in time), so a mismatch means this day is empty.
                if self.day_of(t) == day {
                    self.day = day;
                    self.len -= 1;
                    return self.buckets[b].pop();
                }
            }
        }
        // Sparse year: jump straight to the global minimum over the bucket
        // tails (each tail is its bucket's minimum).
        let mut best: Option<(usize, f64, u64)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            if let Some(&(t, s, _)) = bucket.last() {
                if best.is_none_or(|(_, bt, bs)| lex_lt(t, s, bt, bs)) {
                    best = Some((bi, t, s));
                }
            }
        }
        let (bi, t, _) = best.expect("len > 0 but no entry found");
        self.day = self.day_of(t);
        self.len -= 1;
        self.buckets[bi].pop()
    }

    /// Iterate the queued entries in arbitrary order (fast-forward entry
    /// check only — never used for anything order-sensitive).
    fn entries(&self) -> impl Iterator<Item = &(f64, u64, Ev)> {
        self.buckets.iter().flatten()
    }

    /// Grow the year and re-estimate the day width from the spacing of a
    /// sample of queued events, then redistribute. Order is untouched:
    /// membership of a day is always recomputed from `(t, width)`.
    fn resize(&mut self) {
        self.rebuild(self.len.max(16).next_power_of_two().min(1 << 20));
    }

    /// Rebuild the ring at `nbuckets` days (grow or shrink), re-estimating
    /// the day width from the spacing of a sample of the queued events.
    /// Pure geometry: pop order is unaffected, which
    /// `calendar_pop_order_survives_grow_shrink_cycle` pins.
    fn rebuild(&mut self, nbuckets: usize) {
        let mut sample: Vec<f64> = self.entries().map(|e| e.0).take(64).collect();
        #[allow(clippy::disallowed_methods)] // total_cmp comparator
        sample.sort_unstable_by(f64::total_cmp);
        let spread = match (sample.first(), sample.last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        let width = if spread > 0.0 {
            // Aim for a handful of events per day.
            (spread / sample.len() as f64) * 4.0
        } else {
            self.width
        }
        .max(1e-6);
        let entries: Vec<(f64, u64, Ev)> =
            self.buckets.iter_mut().flat_map(std::mem::take).collect();
        self.buckets = vec![Vec::new(); nbuckets];
        self.mask = nbuckets - 1;
        self.width = width;
        self.inv_width = 1.0 / width;
        self.day = u64::MAX;
        for &(t, s, e) in &entries {
            let d = self.day_of(t);
            if d < self.day {
                self.day = d;
            }
            let b = (d as usize) & self.mask;
            self.buckets[b].push((t, s, e));
        }
        // Restore the descending (t, seq) order within each bucket.
        for bucket in &mut self.buckets {
            #[allow(clippy::disallowed_methods)] // total_cmp comparator
            bucket.sort_unstable_by(|a, b| match b.0.total_cmp(&a.0) {
                Ordering::Equal => b.1.cmp(&a.1),
                o => o,
            });
        }
        if entries.is_empty() {
            self.day = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

#[allow(clippy::disallowed_methods)] // derived PartialOrd: integer fields, total order
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SKey {
    Host(u32),
    Dev {
        parent: usize,
        block: u32,
        slot: u32,
    },
}

/// Per-grid placement footprint, precomputed once at construction so the
/// hot `block_fits`/`occupy`/`vacate` paths never recompute the warp
/// rounding or the register product.
#[derive(Debug, Clone, Copy)]
struct Need {
    threads: u32,
    warps: u32,
    smem: u32,
    regs: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BState {
    NotStarted,
    Running,
    /// Waiting for children, swapped off the SM.
    Swapped,
    Done,
}

#[derive(Debug, Clone)]
struct BlockRt {
    state: BState,
    /// Current (or, when swapped, next) segment index.
    seg: usize,
    sm: usize,
    /// Cycle this residency began (dispatch or swap-restore). The warp
    /// integral accrues per block at vacate — `warps * (now - occupy_t)` —
    /// rather than per event, so each term is independent of interleaved
    /// events and the domain-parallel merge can refold the terms in serial
    /// order (DESIGN.md §13).
    occupy_t: f64,
    unfinished_children: u32,
}

#[derive(Debug)]
struct GridRt {
    released: bool,
    started: bool,
    done: bool,
    /// Device-launched grids pass once through the pending-launch-pool
    /// service queue before release.
    launch_serviced: bool,
    next_block: usize,
    blocks_left: usize,
    children_left: usize,
}

#[derive(Debug, Clone)]
struct Sm {
    free_blocks: u32,
    free_threads: u32,
    free_warps: u32,
    free_smem: u32,
    free_regs: u32,
}

/// Tri-state cache of per-grid timing uniformity (see
/// [`crate::block::BlockOutcome::timing_uniform_with`]).
const UNIFORM_UNKNOWN: u8 = 0;
const UNIFORM_YES: u8 = 1;
const UNIFORM_NO: u8 = 2;

struct Sim<'a> {
    grids: &'a [GridTask],
    device: &'a DeviceConfig,
    cost: &'a CostModel,
    queue: CalendarQueue,
    seq: u64,
    grt: Vec<GridRt>,
    /// Per-block runtime state, flattened across grids (`boff[g] + b`).
    brt: Vec<BlockRt>,
    /// Start offset of grid `g`'s blocks within `brt`.
    boff: Vec<u32>,
    /// Precomputed per-grid placement footprints.
    need: Vec<Need>,
    sms: Vec<Sm>,
    /// Grids with blocks still to dispatch, in activation order.
    admit_queue: Vec<usize>,
    /// Swapped-out blocks whose children completed, awaiting re-admission.
    resume_queue: VecDeque<(usize, u32)>,
    /// Grid ids grouped by stream (launch order within each group);
    /// stream `s` owns `stream_items[stream_start[s]..stream_start[s+1]]`.
    stream_items: Vec<u32>,
    stream_start: Vec<u32>,
    /// Head offset of each stream, relative to its `stream_start`.
    stream_head: Vec<u32>,
    /// Dense stream id per grid (index into `stream_start`/`stream_head`).
    stream_of: Vec<u32>,
    now: f64,
    warp_integral: f64,
    makespan: f64,
    /// Next time the device-side pending-launch pool is free.
    launch_pool_free: f64,
    /// Launches serviced in the overflow (virtualized-pool) regime.
    overflow_launches: u64,
    /// Timeline-profiler event sink (see [`crate::prof`]); `None` keeps
    /// the scheduler on the exact pre-profiler paths.
    prof: Option<&'a mut Collector>,
    /// Whether cohort batching and fast-forward are enabled
    /// ([`DeviceConfig::fast_forward`]). The calendar queue and the
    /// `try_admit` scan memos are exact containers/caches and stay on.
    fast: bool,
    /// Timing-domain membership filter: `(rank, lo, hi)` restricts this
    /// run to grids whose domain rank is in `lo..hi` — only their host
    /// releases are seeded, so execution never leaves the window. `None`
    /// simulates the whole batch.
    filter: Option<(&'a [u32], u32, u32)>,
    /// Per-block warp-integral terms in vacate order, recorded only for
    /// filtered (domain) runs; the merge refolds them across domains in
    /// serial event order so the sum is bit-identical to a serial run.
    integral_terms: Vec<f64>,
    /// Cohort being accumulated; flushed before any other push or pop so
    /// member sequence numbers stay consecutive.
    pending: Option<PendingCohort>,
    /// Queued `Ev::Release` entries.
    release_entries: usize,
    /// Queued `SegDone`/`SegDoneN` entries per grid (a cohort counts once).
    segdone_entries: Vec<u32>,
    /// Per-grid uniformity cache (`UNIFORM_*`).
    uniform: Vec<u8>,
    /// Bumped whenever placement could newly succeed: an SM was vacated, a
    /// candidate joined `admit_queue`/`resume_queue`, or window membership
    /// changed. `occupy` never bumps — shrinking resources cannot turn a
    /// failed placement into a success.
    fit_epoch: u64,
    /// `fit_epoch` value at the end of the last exhaustive `try_admit`
    /// scan; when equal to `fit_epoch` the scan is provably fruitless and
    /// is skipped. `u64::MAX` = dirty.
    scanned_epoch: u64,
    /// Reusable fast-forward wheel buffer.
    wheel: Vec<(f64, u64, WheelEv)>,
    /// Reusable `try_admit` scratch (failed placement signatures).
    scratch_failed: Vec<(u32, u32)>,
    /// Reusable `try_admit` scratch (exhausted window slots).
    scratch_exhausted: Vec<usize>,
    /// Diagnostics (tests assert the fast paths actually engage — the
    /// differential suite would otherwise pass vacuously if an entry
    /// condition quietly never held).
    stat_wheel_runs: u64,
    stat_cohort_fanouts: u64,
}

/// Simulate the timing of a batch of executed grids, optionally recording
/// the timeline into a profiler [`Collector`]. Honors
/// [`DeviceConfig::timing_threads`] by partitioning into timing domains,
/// but runs them on the calling thread; [`simulate_full`] additionally
/// takes the worker pool and returns the pass diagnostics. (Test-only
/// convenience since the engine switched to `simulate_full`.)
#[cfg(test)]
fn simulate(
    grids: &[GridTask],
    device: &DeviceConfig,
    cost: &CostModel,
    prof: Option<&mut Collector>,
) -> TimingResult {
    simulate_full(grids, device, cost, prof, None).0
}

fn to_result(
    makespan: f64,
    warp_integral: f64,
    overflow_launches: u64,
    device: &DeviceConfig,
) -> TimingResult {
    let capacity = f64::from(device.num_sms) * f64::from(device.max_warps_per_sm);
    let occ = if makespan > 0.0 {
        warp_integral / (makespan * capacity)
    } else {
        0.0
    };
    TimingResult {
        makespan,
        achieved_occupancy: occ,
        overflow_launches,
    }
}

/// Everything the deterministic merge needs from one timing-domain run.
struct DomainOut {
    makespan: f64,
    overflow: u64,
    terms: Vec<f64>,
    collector: Option<Collector>,
}

/// Run the grids whose domain rank falls in `lo..hi` as one isolated
/// simulation (own calendar queue, own collector).
fn run_domain(
    grids: &[GridTask],
    device: &DeviceConfig,
    cost: &CostModel,
    want_prof: bool,
    rank: &[u32],
    lo: u32,
    hi: u32,
) -> DomainOut {
    let mut col = want_prof.then(|| Collector::new(grids.len()));
    let mut sim = Sim::new_filtered(grids, device, cost, col.as_mut(), Some((rank, lo, hi)));
    sim.run();
    let makespan = sim.makespan;
    let overflow = sim.overflow_launches;
    let terms = std::mem::take(&mut sim.integral_terms);
    drop(sim);
    DomainOut {
        makespan,
        overflow,
        terms,
        collector: col,
    }
}

/// Partition grids into *timing domains*: connected components of the
/// coupling graph whose edges are same-stream membership and parent→child
/// launches. Grids in different domains share no ordering constraint —
/// only device resources, which the optimistic commit check in
/// [`simulate_full`] covers. Returns each grid's domain rank (domains
/// numbered in ascending order of their earliest host release — host
/// launch seqs are unique, so the order is total), the domain count, and
/// each rank's earliest release time.
fn domain_ranks(grids: &[GridTask], cost: &CostModel) -> (Vec<u32>, usize, Vec<f64>) {
    fn find(uf: &mut [u32], mut x: u32) -> u32 {
        while uf[x as usize] != x {
            uf[x as usize] = uf[uf[x as usize] as usize];
            x = uf[x as usize];
        }
        x
    }
    let n = grids.len();
    let mut uf: Vec<u32> = (0..n as u32).collect();
    let union = |uf: &mut Vec<u32>, a: u32, b: u32| {
        let (ra, rb) = (find(uf, a), find(uf, b));
        if ra != rb {
            uf[ra as usize] = rb;
        }
    };
    // Stream edges: grids in one stream serialize, so they couple.
    let mut keyed: Vec<(SKey, u32)> = Vec::with_capacity(n);
    for (g, task) in grids.iter().enumerate() {
        let key = match task.origin {
            Origin::Host { stream, .. } => SKey::Host(stream),
            Origin::Device {
                parent,
                block,
                stream_slot,
                ..
            } => SKey::Dev {
                parent,
                block,
                slot: stream_slot,
            },
        };
        keyed.push((key, g as u32));
    }
    keyed.sort_unstable();
    for pair in keyed.windows(2) {
        if pair[0].0 == pair[1].0 {
            union(&mut uf, pair[0].1, pair[1].1);
        }
    }
    // Launch-DAG edges: a child grid couples to its launching parent.
    for (g, task) in grids.iter().enumerate() {
        if let Origin::Device { parent, .. } = task.origin {
            union(&mut uf, g as u32, parent as u32);
        }
    }
    let root_of: Vec<u32> = (0..n as u32).map(|g| find(&mut uf, g)).collect();
    // Earliest host launch seq per component. Every component has one:
    // device-launched grids chain up to a host launch through the DAG
    // edges.
    let mut min_seq: Vec<u32> = vec![u32::MAX; n];
    for (g, task) in grids.iter().enumerate() {
        if let Origin::Host { seq, .. } = task.origin {
            let r = root_of[g] as usize;
            min_seq[r] = min_seq[r].min(seq);
        }
    }
    let mut roots: Vec<(u32, u32)> = Vec::new();
    for g in 0..n {
        if root_of[g] as usize == g {
            debug_assert!(
                min_seq[g] != u32::MAX,
                "timing domain without a host launch"
            );
            roots.push((min_seq[g], g as u32));
        }
    }
    roots.sort_unstable();
    let mut rank_of_root: Vec<u32> = vec![0; n];
    let mut first_release: Vec<f64> = Vec::with_capacity(roots.len());
    for (i, &(ms, r)) in roots.iter().enumerate() {
        rank_of_root[r as usize] = i as u32;
        // Same arithmetic as the host-release seeding in `Sim::new`, so
        // this is bitwise the domain's first event time.
        first_release.push(f64::from(ms + 1) * cost.host_launch_cycles);
    }
    let rank: Vec<u32> = root_of.iter().map(|&r| rank_of_root[r as usize]).collect();
    (rank, roots.len(), first_release)
}

/// The full timing pass (DESIGN.md §13): partition the batch into timing
/// domains, simulate each on its own calendar queue (on `pool` when
/// given), and deterministically merge. Commit is *optimistic with a
/// rollback horizon*: domains are considered in first-release order and
/// committed while each one's event window starts strictly after every
/// committed window has ended — strictly, because equal-time events
/// across domains have no defined seq order. The first conflict rolls the
/// entire suffix back into one serial replay from that horizon, which is
/// exact because the suffix's earliest event provably postdates every
/// committed event. The merge replays completions in the exact
/// `(total_cmp, seq)` order the serial queue would have produced, so
/// reports and profiler timelines are byte-identical at any
/// `timing_threads` setting.
pub(crate) fn simulate_full(
    grids: &[GridTask],
    device: &DeviceConfig,
    cost: &CostModel,
    mut prof: Option<&mut Collector>,
    pool: Option<&npar_par::Pool<()>>,
) -> (TimingResult, SchedStats) {
    let mut stats = SchedStats::default();
    if grids.is_empty() {
        return (to_result(0.0, 0.0, 0, device), stats);
    }
    if device.timing_threads <= 1 || grids.len() < 2 {
        let mut sim = Sim::new(grids, device, cost, prof);
        sim.run();
        return (
            to_result(
                sim.makespan,
                sim.warp_integral,
                sim.overflow_launches,
                device,
            ),
            stats,
        );
    }
    let (rank, ndom, first_release) = domain_ranks(grids, cost);
    stats.domains = ndom as u64;
    if ndom <= 1 {
        let mut sim = Sim::new(grids, device, cost, prof);
        sim.run();
        return (
            to_result(
                sim.makespan,
                sim.warp_integral,
                sim.overflow_launches,
                device,
            ),
            stats,
        );
    }
    let want_prof = prof.is_some();
    let mut slots: Vec<(u32, Option<DomainOut>)> = (0..ndom as u32).map(|i| (i, None)).collect();
    let run_one = |_s: &npar_par::Scope<'_, ()>,
                   _w: &mut (),
                   _i: usize,
                   slot: &mut (u32, Option<DomainOut>)| {
        let i = slot.0;
        slot.1 = Some(run_domain(grids, device, cost, want_prof, &rank, i, i + 1));
    };
    match pool {
        Some(p) => {
            p.scope(|scope, w| crate::parallel::split_tasks(scope, w, 0, &mut slots, &run_one));
        }
        None => {
            let scope_less = |slot: &mut (u32, Option<DomainOut>)| {
                let i = slot.0;
                slot.1 = Some(run_domain(grids, device, cost, want_prof, &rank, i, i + 1));
            };
            slots.iter_mut().for_each(scope_less);
        }
    }
    let outs: Vec<DomainOut> = slots
        .into_iter()
        .map(|(_, o)| o.expect("domain run missing"))
        .collect();
    // Optimistic time-window commit (see the doc comment above). A split
    // at `k` is valid iff domain `k`'s first release lands strictly after
    // every committed makespan — the same check that admitted each prefix
    // domain, so the chain both proves the prefix pairwise disjoint and
    // the suffix safely separable. On the first violation the violating
    // domain overlaps the *last committed* window, so that domain rolls
    // back into the suffix too and the split moves one left, where the
    // check is known to hold.
    let mut committed = 0usize;
    let mut end = f64::NEG_INFINITY;
    while committed < ndom {
        if first_release[committed] > end {
            end = end.max(outs[committed].makespan);
            committed += 1;
        } else {
            committed = committed.saturating_sub(1);
            break;
        }
    }
    stats.domains_committed = committed as u64;
    let mut merged: Vec<DomainOut> = outs.into_iter().take(committed).collect();
    if committed < ndom {
        stats.domains_rolled_back = (ndom - committed) as u64;
        merged.push(run_domain(
            grids,
            device,
            cost,
            want_prof,
            &rank,
            committed as u32,
            ndom as u32,
        ));
    }
    // Deterministic merge in domain order: committed windows are pairwise
    // disjoint in simulated time, so concatenation *is* the serial event
    // order. The warp-integral terms refold in that order (bitwise the
    // serial sum), makespan is an order-insensitive max, and the profiler
    // collectors splice span-for-span.
    let mut makespan = 0.0f64;
    let mut warp_integral = 0.0f64;
    let mut overflow = 0u64;
    for out in merged {
        makespan = makespan.max(out.makespan);
        for &term in &out.terms {
            warp_integral += term;
        }
        overflow += out.overflow;
        if let Some(col) = out.collector {
            if let Some(p) = prof.as_deref_mut() {
                p.absorb(col);
            }
        }
    }
    (to_result(makespan, warp_integral, overflow, device), stats)
}

impl<'a> Sim<'a> {
    fn new(
        grids: &'a [GridTask],
        device: &'a DeviceConfig,
        cost: &'a CostModel,
        prof: Option<&'a mut Collector>,
    ) -> Self {
        Self::new_filtered(grids, device, cost, prof, None)
    }

    fn new_filtered(
        grids: &'a [GridTask],
        device: &'a DeviceConfig,
        cost: &'a CostModel,
        prof: Option<&'a mut Collector>,
        filter: Option<(&'a [u32], u32, u32)>,
    ) -> Self {
        // Stream membership, resolved to dense ids up front: grids sorted
        // by (stream key, launch order) group each stream contiguously, so
        // the hot head checks are plain array reads with no hashing.
        let mut keyed: Vec<(SKey, u32)> = Vec::with_capacity(grids.len());
        let mut grt = Vec::with_capacity(grids.len());
        let mut need = Vec::with_capacity(grids.len());
        let mut boff = Vec::with_capacity(grids.len());
        let mut total_blocks: u32 = 0;
        for (g, task) in grids.iter().enumerate() {
            let key = match task.origin {
                Origin::Host { stream, .. } => SKey::Host(stream),
                Origin::Device {
                    parent,
                    block,
                    stream_slot,
                    ..
                } => SKey::Dev {
                    parent,
                    block,
                    slot: stream_slot,
                },
            };
            keyed.push((key, g as u32));
            grt.push(GridRt {
                released: false,
                started: false,
                done: false,
                launch_serviced: matches!(task.origin, Origin::Host { .. }),
                next_block: 0,
                blocks_left: task.blocks.len(),
                children_left: task.children.len(),
            });
            let cfg = &task.cfg;
            need.push(Need {
                threads: cfg.block_dim,
                warps: cfg.block_dim.div_ceil(device.warp_size),
                smem: cfg.shared_mem_bytes,
                regs: cfg.block_dim * device.registers_per_thread,
            });
            boff.push(total_blocks);
            total_blocks += task.blocks.len() as u32;
        }
        let brt = vec![
            BlockRt {
                state: BState::NotStarted,
                seg: 0,
                sm: usize::MAX,
                occupy_t: 0.0,
                unfinished_children: 0,
            };
            total_blocks as usize
        ];
        // Within a stream the launch order is the grid-id order (grids are
        // registered as they launch), so sorting by (key, g) yields each
        // stream's grids contiguously and in order.
        keyed.sort_unstable();
        let mut stream_of = vec![0u32; grids.len()];
        let mut stream_items = Vec::with_capacity(grids.len());
        let mut stream_start: Vec<u32> = vec![0];
        for (i, &(key, g)) in keyed.iter().enumerate() {
            if i > 0 && keyed[i - 1].0 != key {
                stream_start.push(i as u32);
            }
            stream_of[g as usize] = (stream_start.len() - 1) as u32;
            stream_items.push(g);
        }
        stream_start.push(grids.len() as u32);
        let stream_head = vec![0u32; stream_start.len() - 1];
        let sm = Sm {
            free_blocks: device.max_blocks_per_sm,
            free_threads: device.max_threads_per_sm,
            free_warps: device.max_warps_per_sm,
            free_smem: device.shared_mem_per_sm,
            free_regs: device.registers_per_sm,
        };
        let mut sim = Sim {
            grids,
            device,
            cost,
            queue: CalendarQueue::new(),
            seq: 0,
            grt,
            brt,
            boff,
            need,
            sms: vec![sm; device.num_sms as usize],
            admit_queue: Vec::new(),
            resume_queue: VecDeque::new(),
            stream_items,
            stream_start,
            stream_head,
            stream_of,
            now: 0.0,
            warp_integral: 0.0,
            makespan: 0.0,
            launch_pool_free: 0.0,
            overflow_launches: 0,
            prof,
            fast: device.fast_forward,
            filter,
            integral_terms: Vec::new(),
            pending: None,
            release_entries: 0,
            segdone_entries: vec![0; grids.len()],
            uniform: vec![UNIFORM_UNKNOWN; grids.len()],
            fit_epoch: 0,
            scanned_epoch: u64::MAX,
            wheel: Vec::new(),
            scratch_failed: Vec::new(),
            scratch_exhausted: Vec::new(),
            stat_wheel_runs: 0,
            stat_cohort_fanouts: 0,
        };
        // Host launches serialize on the host thread: the i-th host launch
        // becomes schedulable after i+1 launch overheads. A domain filter
        // seeds only member releases — the absolute times are unchanged
        // (the host seq spacing already accounts for the other domains'
        // launches), so a filtered run is the serial run with non-member
        // events deleted, which touches nothing a member observes.
        for (g, task) in grids.iter().enumerate() {
            if !sim.is_member(g) {
                continue;
            }
            if let Origin::Host { seq, .. } = task.origin {
                let t = f64::from(seq + 1) * cost.host_launch_cycles;
                sim.push(t, Ev::Release(g));
            }
        }
        sim
    }

    /// Whether grid `g` belongs to this run's timing-domain window.
    #[inline]
    fn is_member(&self, g: usize) -> bool {
        match self.filter {
            None => true,
            Some((rank, lo, hi)) => (lo..hi).contains(&rank[g]),
        }
    }

    /// Push an event, first flushing any pending cohort so that cohort
    /// member sequence numbers stay consecutive (required for the fan-out
    /// to preserve pop order relative to interleaved events).
    fn push(&mut self, t: f64, ev: Ev) {
        self.flush_cohort();
        self.seq += 1;
        match ev {
            Ev::Release(_) => self.release_entries += 1,
            Ev::SegDone(g, _) => self.segdone_entries[g] += 1,
            Ev::SegDoneN(..) => unreachable!("cohorts are pushed by flush_cohort"),
        }
        self.queue.push(t, self.seq, ev);
    }

    fn flush_cohort(&mut self) {
        if let Some(c) = self.pending.take() {
            self.segdone_entries[c.g] += 1;
            let ev = if c.n == 1 {
                Ev::SegDone(c.g, c.first)
            } else {
                Ev::SegDoneN(c.g, c.first, c.n)
            };
            self.queue.push(c.t, c.seq0, ev);
        }
    }

    /// Push a final-segment completion, batching it into the pending
    /// cohort when it extends the current run of same-grid, same-time,
    /// id-contiguous completions. `cohortable` is false for non-final or
    /// launch-bearing segments (and whenever fast paths are disabled),
    /// which forces the plain per-block event.
    fn push_segdone(&mut self, t: f64, g: usize, b: u32, cohortable: bool) {
        if self.fast && cohortable {
            if let Some(c) = &mut self.pending {
                if c.g == g && c.first + c.n == b && c.t.to_bits() == t.to_bits() {
                    c.n += 1;
                    self.seq += 1;
                    return;
                }
            }
            self.flush_cohort();
            self.seq += 1;
            self.pending = Some(PendingCohort {
                t,
                seq0: self.seq,
                g,
                first: b,
                n: 1,
            });
        } else {
            self.push(t, Ev::SegDone(g, b));
        }
    }

    #[inline]
    fn blk(&self, g: usize, b: u32) -> &BlockRt {
        &self.brt[(self.boff[g] + b) as usize]
    }

    #[inline]
    fn blk_mut(&mut self, g: usize, b: u32) -> &mut BlockRt {
        &mut self.brt[(self.boff[g] + b) as usize]
    }

    fn run(&mut self) {
        loop {
            self.flush_cohort();
            let Some((t, _, ev)) = self.queue.pop() else {
                break;
            };
            debug_assert!(t >= self.now - 1e-9);
            self.now = t;
            self.makespan = self.makespan.max(t);
            let hint = match ev {
                Ev::Release(g) => {
                    self.release_entries -= 1;
                    if self.grt[g].launch_serviced {
                        self.grt[g].released = true;
                        if let Some(p) = self.prof.as_deref_mut() {
                            p.on_release(g, t);
                        }
                        self.maybe_activate(g);
                        self.grt[g].started.then_some(g)
                    } else {
                        // Pending-launch pool: device launches are serviced
                        // one at a time by the runtime. A backlog beyond the
                        // fixed pool spills to the slow virtualized pool.
                        let service = self.cost.device_launch_service_cycles;
                        let backlog = (self.launch_pool_free - t).max(0.0) / service;
                        let cost = if backlog > f64::from(self.device.pending_launch_limit) {
                            self.overflow_launches += 1;
                            service * self.cost.pool_overflow_factor
                        } else {
                            service
                        };
                        let done = self.launch_pool_free.max(t) + cost;
                        self.launch_pool_free = done;
                        self.grt[g].launch_serviced = true;
                        self.push(done, Ev::Release(g));
                        None
                    }
                }
                Ev::SegDone(g, b) => {
                    self.segdone_entries[g] -= 1;
                    self.segment_done(g, b);
                    Some(g)
                }
                Ev::SegDoneN(g, first, n) => {
                    self.segdone_entries[g] -= 1;
                    self.cohort_done(g, first, n);
                    Some(g)
                }
            };
            if self.fast {
                self.maybe_fast_forward(hint);
            }
        }
        debug_assert!(
            (0..self.grt.len()).all(|g| self.grt[g].done || !self.is_member(g)),
            "scheduler finished with unfinished grids (deadlock?)"
        );
    }

    /// Process a cohort of final-segment completions. When nothing else is
    /// runnable (both admission queues empty) the per-member
    /// `check_grid_done`/`try_admit` calls are no-ops for all but the last
    /// member, so the teardowns are fanned out arithmetically; otherwise
    /// fall back to the member-by-member slow path, which is exact by
    /// construction.
    fn cohort_done(&mut self, g: usize, first: u32, n: u32) {
        if self.admit_queue.is_empty() && self.resume_queue.is_empty() {
            self.stat_cohort_fanouts += 1;
            for b in first..first + n {
                if let Some(p) = self.prof.as_deref_mut() {
                    p.on_block_end(g, b, self.now);
                }
                let sm = self.blk(g, b).sm;
                self.vacate(sm, g, b);
                self.blk_mut(g, b).state = BState::Done;
            }
            self.grt[g].blocks_left -= n as usize;
            self.check_grid_done(g);
            self.try_admit();
        } else {
            for b in first..first + n {
                self.segment_done(g, b);
            }
        }
    }

    fn is_stream_head(&self, g: usize) -> bool {
        let s = self.stream_of[g] as usize;
        let h = self.stream_start[s] + self.stream_head[s];
        h < self.stream_start[s + 1] && self.stream_items[h as usize] as usize == g
    }

    fn maybe_activate(&mut self, g: usize) {
        let rt = &self.grt[g];
        if rt.started || !rt.released || !self.is_stream_head(g) {
            return;
        }
        self.grt[g].started = true;
        self.admit_queue.push(g);
        self.fit_epoch += 1;
        self.try_admit();
    }

    fn block_fits(sm: &Sm, need: &Need) -> bool {
        sm.free_blocks >= 1
            && sm.free_threads >= need.threads
            && sm.free_warps >= need.warps
            && sm.free_smem >= need.smem
            && sm.free_regs >= need.regs
    }

    /// Pick the SM with the most free warps that fits a block of grid `g`.
    fn pick_sm(&self, g: usize) -> Option<usize> {
        let need = &self.need[g];
        let mut best: Option<(u32, usize)> = None;
        for (i, sm) in self.sms.iter().enumerate() {
            if Self::block_fits(sm, need) {
                let key = sm.free_warps;
                if best.is_none_or(|(bw, _)| key > bw) {
                    best = Some((key, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    fn occupy(&mut self, sm: usize, g: usize) {
        let need = self.need[g];
        let s = &mut self.sms[sm];
        s.free_blocks -= 1;
        s.free_threads -= need.threads;
        s.free_warps -= need.warps;
        s.free_smem -= need.smem;
        s.free_regs -= need.regs;
    }

    /// Release block `b`'s SM resources and accrue its warp-integral term
    /// `warps * (now - occupy_t)` — the per-block formulation of the
    /// time-averaged occupancy numerator, recorded per residency interval
    /// so the domain-parallel merge can refold the terms in serial event
    /// order (DESIGN.md §13).
    fn vacate(&mut self, sm: usize, g: usize, b: u32) {
        let need = self.need[g];
        let s = &mut self.sms[sm];
        s.free_blocks += 1;
        s.free_threads += need.threads;
        s.free_warps += need.warps;
        s.free_smem += need.smem;
        s.free_regs += need.regs;
        let term = f64::from(need.warps) * (self.now - self.blk(g, b).occupy_t);
        self.warp_integral += term;
        if self.filter.is_some() {
            self.integral_terms.push(term);
        }
        self.fit_epoch += 1;
    }

    /// Placement signature of a grid's launch configuration: `block_fits`
    /// depends only on these two fields (plus device constants), so one
    /// failed placement condemns every same-signature candidate for the
    /// rest of the scan.
    fn cfg_sig(&self, g: usize) -> (u32, u32) {
        let need = &self.need[g];
        (need.threads, need.smem)
    }

    fn try_admit(&mut self) {
        if self.scanned_epoch == self.fit_epoch {
            // Nothing that could enable a placement changed since the last
            // exhaustive scan concluded nothing fits.
            return;
        }
        // Launch-config signatures that failed placement during this call.
        // SM resources only shrink within one call (occupy, never vacate),
        // so failures are monotone and the memo is exact. Buffers are
        // reused across calls to keep the hot scans allocation-free.
        let mut failed = std::mem::take(&mut self.scratch_failed);
        let mut exhausted = std::mem::take(&mut self.scratch_exhausted);
        loop {
            let mut progressed = false;
            // Swapped-out parents whose children finished resume first.
            let mut i = 0;
            while i < self.resume_queue.len() {
                let (g, b) = self.resume_queue[i];
                if failed.contains(&self.cfg_sig(g)) {
                    i += 1;
                    continue;
                }
                if let Some(sm) = self.pick_sm(g) {
                    self.resume_queue.remove(i);
                    self.occupy(sm, g);
                    let now = self.now;
                    {
                        let rt = self.blk_mut(g, b);
                        rt.sm = sm;
                        rt.occupy_t = now;
                    }
                    let seg = self.blk(g, b).seg;
                    if let Some(p) = self.prof.as_deref_mut() {
                        p.on_block_start(g, b, sm, self.now, true);
                    }
                    self.start_segment(g, b, seg, true);
                    progressed = true;
                } else {
                    failed.push(self.cfg_sig(g));
                    i += 1;
                }
            }
            // Fresh blocks from active grids, HyperQ-window deep.
            exhausted.clear();
            for qi in 0..self.admit_queue.len().min(DISPATCH_WINDOW) {
                let g = self.admit_queue[qi];
                loop {
                    if self.grt[g].next_block >= self.grids[g].blocks.len() {
                        exhausted.push(qi);
                        break;
                    }
                    if failed.contains(&self.cfg_sig(g)) {
                        break;
                    }
                    let Some(sm) = self.pick_sm(g) else {
                        failed.push(self.cfg_sig(g));
                        break;
                    };
                    let b = self.grt[g].next_block as u32;
                    self.grt[g].next_block += 1;
                    self.occupy(sm, g);
                    let now = self.now;
                    let rt = self.blk_mut(g, b);
                    rt.state = BState::Running;
                    rt.sm = sm;
                    rt.occupy_t = now;
                    if let Some(p) = self.prof.as_deref_mut() {
                        if b == 0 {
                            p.on_grid_start(g, self.now);
                        }
                        p.on_block_start(g, b, sm, self.now, false);
                    }
                    self.start_segment(g, b, 0, false);
                    progressed = true;
                }
            }
            if !exhausted.is_empty() {
                let prelen = self.admit_queue.len();
                for &qi in exhausted.iter().rev() {
                    self.admit_queue.remove(qi);
                }
                if prelen > DISPATCH_WINDOW {
                    // Removals pulled previously out-of-window grids into
                    // the window: a fresh scan could now place their blocks.
                    self.fit_epoch += 1;
                }
            }
            if !progressed {
                break;
            }
        }
        failed.clear();
        exhausted.clear();
        self.scratch_failed = failed;
        self.scratch_exhausted = exhausted;
        self.scanned_epoch = self.fit_epoch;
    }

    fn start_segment(&mut self, g: usize, b: u32, seg: usize, resumed: bool) {
        let block = &self.grids[g].blocks[b as usize];
        let task = &block.segments[seg];
        let sm_idx = self.blk(g, b).sm;
        let resident: u32 = self.device.max_warps_per_sm - self.sms[sm_idx].free_warps;
        let w = f64::from(block.warps);
        let rate = (self.device.issue_width() * w / f64::from(resident.max(1))).min(w);
        let mut dur = task.span.max(task.work / rate);
        if resumed {
            dur += self.cost.swap_restore_cycles;
        }
        {
            let rt = self.blk_mut(g, b);
            rt.state = BState::Running;
            rt.seg = seg;
        }
        let start = self.now;
        for &(child, offset) in &task.launches {
            self.blk_mut(g, b).unfinished_children += 1;
            if let Some(p) = self.prof.as_deref_mut() {
                p.on_launch(g, b, sm_idx, child as usize, start + offset);
            }
            self.push(
                start + offset + self.cost.device_launch_latency_cycles,
                Ev::Release(child as usize),
            );
        }
        let cohortable = seg + 1 == block.segments.len() && task.launches.is_empty();
        self.push_segdone(start + dur, g, b, cohortable);
    }

    fn segment_done(&mut self, g: usize, b: u32) {
        let nsegs = self.grids[g].blocks[b as usize].segments.len();
        let cur = self.blk(g, b).seg;
        if cur + 1 < nsegs {
            let next = cur + 1;
            let must_wait = self.grids[g].blocks[b as usize].segments[next].wait_children
                && self.blk(g, b).unfinished_children > 0;
            if must_wait {
                // Swap the parent block out while it waits for children.
                let sm = self.blk(g, b).sm;
                if let Some(p) = self.prof.as_deref_mut() {
                    p.on_block_end(g, b, self.now);
                }
                self.vacate(sm, g, b);
                let rt = self.blk_mut(g, b);
                rt.state = BState::Swapped;
                rt.seg = next;
                rt.sm = usize::MAX;
                self.try_admit();
            } else {
                self.start_segment(g, b, next, false);
            }
        } else {
            let sm = self.blk(g, b).sm;
            if let Some(p) = self.prof.as_deref_mut() {
                p.on_block_end(g, b, self.now);
            }
            self.vacate(sm, g, b);
            self.blk_mut(g, b).state = BState::Done;
            self.grt[g].blocks_left -= 1;
            self.check_grid_done(g);
            self.try_admit();
        }
    }

    fn check_grid_done(&mut self, g: usize) {
        let rt = &self.grt[g];
        if rt.done || rt.blocks_left > 0 || rt.children_left > 0 || !rt.started {
            return;
        }
        self.grt[g].done = true;
        if let Some(p) = self.prof.as_deref_mut() {
            p.on_grid_done(g, self.now);
        }
        // Advance this grid's stream.
        let s = self.stream_of[g] as usize;
        let next = {
            let h = self.stream_start[s] + self.stream_head[s];
            debug_assert_eq!(self.stream_items[h as usize] as usize, g);
            self.stream_head[s] += 1;
            if h + 1 < self.stream_start[s + 1] {
                Some(self.stream_items[(h + 1) as usize] as usize)
            } else {
                None
            }
        };
        if let Some(n) = next {
            // Host grids carry their serialized driver release from init;
            // start = max(release, predecessor finish) falls out of the
            // released/stream-head conjunction.
            self.maybe_activate(n);
        }
        // Notify the parent block and grid.
        if let Origin::Device { parent, block, .. } = self.grids[g].origin {
            self.grt[parent].children_left -= 1;
            let prt = self.blk_mut(parent, block);
            prt.unfinished_children -= 1;
            if prt.state == BState::Swapped && prt.unfinished_children == 0 {
                self.resume_queue.push_back((parent, block));
                self.fit_epoch += 1;
                self.try_admit();
            }
            self.check_grid_done(parent);
        }
    }

    // -----------------------------------------------------------------
    // Homogeneous-grid fast-forward
    // -----------------------------------------------------------------

    /// Whether every block of grid `g` is pairwise timing-uniform (single
    /// launch-free segment, bitwise-identical span/work, same warps).
    /// Cached per grid; O(blocks) on first query with early exit.
    fn grid_uniform(&mut self, g: usize) -> bool {
        match self.uniform[g] {
            UNIFORM_YES => true,
            UNIFORM_NO => false,
            _ => {
                let blocks = &self.grids[g].blocks;
                let ok =
                    !blocks.is_empty() && blocks.iter().all(|b| b.timing_uniform_with(&blocks[0]));
                self.uniform[g] = if ok { UNIFORM_YES } else { UNIFORM_NO };
                ok
            }
        }
    }

    /// Fast-forward entry check (DESIGN.md §11). Preconditions, verified
    /// here, under which the wheel replays the slow path exactly:
    ///
    /// - no resumable parents and at most grid `g` awaiting dispatch, so
    ///   `try_admit` degenerates to replacement dispatch of `g`'s blocks;
    /// - every queued event is a `SegDone` of `g` or a *provably inert*
    ///   release (already pool-serviced, not its stream's head — stream
    ///   heads cannot advance while `g` is the only runnable grid, so the
    ///   pop only sets the released flag);
    /// - `g` has no children and is timing-uniform, so replacement
    ///   durations depend only on the target SM's residency at dispatch —
    ///   exactly what the wheel recomputes with the live `pick_sm`.
    fn maybe_fast_forward(&mut self, hint: Option<usize>) {
        if !self.resume_queue.is_empty() {
            return;
        }
        let g = match self.admit_queue.len() {
            0 => match hint {
                Some(g) => g,
                None => return,
            },
            1 => self.admit_queue[0],
            _ => return,
        };
        self.flush_cohort();
        if self.segdone_entries[g] == 0
            || self.grt[g].children_left != 0
            || self.segdone_entries[g] as usize + self.release_entries != self.queue.len()
            || self.release_entries > MAX_FF_RELEASE_SCAN
            || !self.grid_uniform(g)
        {
            return;
        }
        if self.release_entries > 0 {
            for &(_, _, ev) in self.queue.entries() {
                if let Ev::Release(r) = ev {
                    if !self.grt[r].launch_serviced || self.is_stream_head(r) {
                        return;
                    }
                }
            }
        }
        self.fast_forward(g);
    }

    /// Play the remaining events of the only runnable grid `g` on a sorted
    /// wheel: teardown + replacement dispatch per completion, inert
    /// releases in their exact time slots, profiler spans emitted
    /// per-block as usual. The wheel mirrors the slow path operation for
    /// operation (same `pick_sm`, same rate/duration arithmetic, same
    /// call order), it merely bypasses the queue and the admission scans
    /// that are no-ops under the entry preconditions.
    fn fast_forward(&mut self, g: usize) {
        self.stat_wheel_runs += 1;
        let mut wheel = std::mem::take(&mut self.wheel);
        wheel.clear();
        while let Some((t, seq, ev)) = self.queue.pop() {
            match ev {
                Ev::Release(r) => wheel.push((t, seq, WheelEv::Release(r))),
                Ev::SegDone(gg, b) => {
                    debug_assert_eq!(gg, g);
                    wheel.push((t, seq, WheelEv::Seg(b)));
                }
                Ev::SegDoneN(gg, first, n) => {
                    debug_assert_eq!(gg, g);
                    for i in 0..n {
                        wheel.push((t, seq + u64::from(i), WheelEv::Seg(first + i)));
                    }
                }
            }
        }
        self.release_entries = 0;
        self.segdone_entries[g] = 0;
        let total = self.grids[g].blocks.len();
        let b0 = &self.grids[g].blocks[0];
        let (span, work, w) = (
            b0.segments[0].span,
            b0.segments[0].work,
            f64::from(b0.warps),
        );
        let iw = self.device.issue_width();
        let max_warps = self.device.max_warps_per_sm;
        let mut head = 0;
        let mut finished = false;
        while head < wheel.len() {
            let (t, _, ev) = wheel[head];
            head += 1;
            self.now = t;
            self.makespan = self.makespan.max(t);
            match ev {
                WheelEv::Release(r) => {
                    self.grt[r].released = true;
                    if let Some(p) = self.prof.as_deref_mut() {
                        p.on_release(r, t);
                    }
                    // maybe_activate(r) is a no-op by the entry check: r is
                    // not its stream's head and heads are frozen until g
                    // completes.
                }
                WheelEv::Seg(b) => {
                    if let Some(p) = self.prof.as_deref_mut() {
                        p.on_block_end(g, b, t);
                    }
                    let sm = self.blk(g, b).sm;
                    self.vacate(sm, g, b);
                    self.blk_mut(g, b).state = BState::Done;
                    self.grt[g].blocks_left -= 1;
                    // Replacement dispatch — the slow path's try_admit
                    // restricted to window [g] with an empty resume queue.
                    while self.grt[g].next_block < total {
                        let Some(sm2) = self.pick_sm(g) else { break };
                        let nb = self.grt[g].next_block as u32;
                        self.grt[g].next_block += 1;
                        self.occupy(sm2, g);
                        let rt = self.blk_mut(g, nb);
                        rt.state = BState::Running;
                        rt.sm = sm2;
                        rt.occupy_t = t;
                        if let Some(p) = self.prof.as_deref_mut() {
                            p.on_block_start(g, nb, sm2, t, false);
                        }
                        let resident = max_warps - self.sms[sm2].free_warps;
                        let rate = (iw * w / f64::from(resident.max(1))).min(w);
                        let dur = span.max(work / rate);
                        self.seq += 1;
                        let entry = (t + dur, self.seq, WheelEv::Seg(nb));
                        let pos = wheel[head..]
                            .partition_point(|&(et, _, _)| et.total_cmp(&entry.0).is_le());
                        wheel.insert(head + pos, entry);
                    }
                    if self.grt[g].blocks_left == 0 {
                        finished = true;
                        break;
                    }
                }
            }
        }
        debug_assert!(finished || self.grt[g].blocks_left == 0);
        // Re-queue whatever the early exit left (only releases due after
        // the grid's completion); their original seqs keep the order.
        while head < wheel.len() {
            let (t, seq, ev) = wheel[head];
            head += 1;
            match ev {
                WheelEv::Release(r) => {
                    self.release_entries += 1;
                    self.queue.push(t, seq, Ev::Release(r));
                }
                WheelEv::Seg(_) => unreachable!("segdones outliving their grid"),
            }
        }
        self.wheel = wheel;
        // Mirror the slow path's final teardown tail: by now the slow path
        // would have dropped the exhausted grid from the admit queue, then
        // run check_grid_done + try_admit at the completion time.
        self.admit_queue.clear();
        self.scanned_epoch = u64::MAX;
        self.check_grid_done(g);
        self.try_admit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockOutcome, SegmentTask};
    use crate::kernel::LaunchConfig;
    use crate::prof::Profile;

    fn seg(span: f64, work: f64) -> SegmentTask {
        SegmentTask {
            span,
            work,
            wait_children: false,
            launches: vec![],
        }
    }

    fn grid(
        origin: Origin,
        cfg: LaunchConfig,
        blocks: Vec<BlockOutcome>,
        children: Vec<usize>,
    ) -> GridTask {
        GridTask {
            name: "k".into(),
            cfg,
            origin,
            depth: 0,
            blocks,
            children,
            kernel: None,
        }
    }

    fn block(warps: u32, segments: Vec<SegmentTask>) -> BlockOutcome {
        BlockOutcome {
            warps,
            segments,
            replayed: false,
        }
    }

    fn host(seq: u32) -> Origin {
        Origin::Host { seq, stream: 0 }
    }

    /// Run the same batch with fast paths on and off (collector attached)
    /// and require bitwise-identical timing and profiler output.
    fn assert_ff_exact(build: impl Fn() -> Vec<GridTask>) -> TimingResult {
        let run = |ff: bool| {
            let mut d = DeviceConfig::tiny();
            d.fast_forward = ff;
            let c = CostModel::default();
            let grids = build();
            let mut col = Collector::new(grids.len());
            let r = simulate(&grids, &d, &c, Some(&mut col));
            let mut p = Profile::default();
            col.finish(&grids, &d, &mut p);
            (r, p)
        };
        let (r_on, p_on) = run(true);
        let (r_off, p_off) = run(false);
        assert_eq!(r_on, r_off, "timing diverges between fast and slow path");
        assert_eq!(p_on, p_off, "profile diverges between fast and slow path");
        r_on
    }

    #[test]
    fn empty_batch() {
        let r = simulate(&[], &DeviceConfig::tiny(), &CostModel::default(), None);
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn single_block_runs_span() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        let g = grid(
            host(0),
            LaunchConfig::new(1, 32),
            vec![block(1, vec![seg(100.0, 100.0)])],
            vec![],
        );
        let r = simulate(&[g], &d, &c, None);
        assert!((r.makespan - (c.host_launch_cycles + 100.0)).abs() < 1e-6);
        assert!(r.achieved_occupancy > 0.0);
    }

    #[test]
    fn blocks_beyond_capacity_run_in_waves() {
        let d = DeviceConfig::tiny(); // 2 SMs x 4 blocks = 8 resident
        let c = CostModel::default();
        // 16 identical blocks of 100 span / 100 work: two waves. With 4
        // resident single-warp blocks per SM and issue width 2, each block
        // progresses at rate 0.5 -> 200 cycles per wave.
        let blocks: Vec<BlockOutcome> =
            (0..16).map(|_| block(1, vec![seg(100.0, 100.0)])).collect();
        let g = grid(host(0), LaunchConfig::new(16, 32), blocks, vec![]);
        let r = simulate(&[g], &d, &c, None);
        let expect = c.host_launch_cycles + 400.0;
        assert!(
            (r.makespan - expect).abs() < 1e-6,
            "makespan {} != {}",
            r.makespan,
            expect
        );
    }

    #[test]
    fn same_stream_grids_serialize() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        let g0 = grid(
            host(0),
            LaunchConfig::new(1, 32),
            vec![block(1, vec![seg(50.0, 50.0)])],
            vec![],
        );
        let g1 = grid(
            host(1),
            LaunchConfig::new(1, 32),
            vec![block(1, vec![seg(50.0, 50.0)])],
            vec![],
        );
        let r = simulate(&[g0, g1], &d, &c, None);
        // g0 starts after one launch overhead and runs 50 cycles; g1's
        // driver release lands at two launch overheads, after which it runs.
        let expect = 2.0 * c.host_launch_cycles + 50.0;
        assert!(
            (r.makespan - expect).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn different_host_streams_overlap() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        let mk = |seq, stream| {
            grid(
                Origin::Host { seq, stream },
                LaunchConfig::new(1, 32),
                vec![block(1, vec![seg(100_000.0, 100_000.0)])],
                vec![],
            )
        };
        let serial = simulate(&[mk(0, 0), mk(1, 0)], &d, &c, None).makespan;
        let overlap = simulate(&[mk(0, 0), mk(1, 1)], &d, &c, None).makespan;
        assert!(overlap < serial);
    }

    #[test]
    fn child_grid_released_after_parent_launch_point() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        // Parent: one block, launches child at offset 10 in its only segment.
        let parent = grid(
            host(0),
            LaunchConfig::new(1, 32),
            vec![block(
                1,
                vec![SegmentTask {
                    span: 40.0,
                    work: 40.0,
                    wait_children: false,
                    launches: vec![(1, 10.0)],
                }],
            )],
            vec![1],
        );
        let child = grid(
            Origin::Device {
                parent: 0,
                block: 0,
                stream_slot: 0,
                thread: 0,
            },
            LaunchConfig::new(1, 32),
            vec![block(1, vec![seg(500.0, 500.0)])],
            vec![],
        );
        let r = simulate(&[parent, child], &d, &c, None);
        let child_start = c.host_launch_cycles
            + 10.0
            + c.device_launch_latency_cycles
            + c.device_launch_service_cycles;
        assert!(
            (r.makespan - (child_start + 500.0)).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn parent_waits_for_children_with_swap() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        let parent = grid(
            host(0),
            LaunchConfig::new(1, 32),
            vec![BlockOutcome {
                warps: 1,
                segments: vec![
                    SegmentTask {
                        span: 20.0,
                        work: 20.0,
                        wait_children: false,
                        launches: vec![(1, 5.0)],
                    },
                    SegmentTask {
                        span: 30.0,
                        work: 30.0,
                        wait_children: true,
                        launches: vec![],
                    },
                ],
                replayed: false,
            }],
            vec![1],
        );
        let child = grid(
            Origin::Device {
                parent: 0,
                block: 0,
                stream_slot: 0,
                thread: 0,
            },
            LaunchConfig::new(1, 32),
            vec![block(1, vec![seg(1000.0, 1000.0)])],
            vec![],
        );
        let r = simulate(&[parent, child], &d, &c, None);
        let child_done = c.host_launch_cycles
            + 5.0
            + c.device_launch_latency_cycles
            + c.device_launch_service_cycles
            + 1000.0;
        let expect = child_done + c.swap_restore_cycles + 30.0;
        assert!(
            (r.makespan - expect).abs() < 1e-6,
            "makespan {} != {}",
            r.makespan,
            expect
        );
    }

    #[test]
    fn device_stream_serializes_children() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        // Parent launches two children into the same device stream slot.
        let parent = grid(
            host(0),
            LaunchConfig::new(1, 32),
            vec![block(
                1,
                vec![SegmentTask {
                    span: 10.0,
                    work: 10.0,
                    wait_children: false,
                    launches: vec![(1, 1.0), (2, 2.0)],
                }],
            )],
            vec![1, 2],
        );
        // Children must outlast the launch-pool service gap for stream
        // overlap to be observable.
        let mk_child = |slot| {
            grid(
                Origin::Device {
                    parent: 0,
                    block: 0,
                    stream_slot: slot,
                    thread: 0,
                },
                LaunchConfig::new(1, 32),
                vec![block(1, vec![seg(50_000.0, 50_000.0)])],
                vec![],
            )
        };
        let serial = simulate(
            &[parent.clone_for_test(), mk_child(0), mk_child(0)],
            &d,
            &c,
            None,
        );
        let parallel = simulate(&[parent, mk_child(0), mk_child(1)], &d, &c, None);
        assert!(parallel.makespan < serial.makespan);
    }

    impl GridTask {
        fn clone_for_test(&self) -> GridTask {
            GridTask {
                name: self.name.clone(),
                cfg: self.cfg,
                origin: self.origin,
                depth: self.depth,
                blocks: self.blocks.clone(),
                children: self.children.clone(),
                kernel: None,
            }
        }
    }

    #[test]
    fn launch_pool_overflow_kicks_in_beyond_the_limit() {
        let d = DeviceConfig::tiny(); // pending_launch_limit = 64
        let c = CostModel::default();
        // One parent block that fires 200 children at the same instant.
        let n_children = 200u32;
        let launches: Vec<(u32, f64)> = (1..=n_children).map(|i| (i, 1.0)).collect();
        let mut grids = vec![grid(
            host(0),
            LaunchConfig::new(1, 32),
            vec![BlockOutcome {
                warps: 1,
                segments: vec![SegmentTask {
                    span: 10.0,
                    work: 10.0,
                    wait_children: false,
                    launches,
                }],
                replayed: false,
            }],
            (1..=n_children as usize).collect(),
        )];
        for i in 0..n_children {
            grids.push(grid(
                Origin::Device {
                    parent: 0,
                    block: 0,
                    stream_slot: i, // all independent streams
                    thread: 0,
                },
                LaunchConfig::new(1, 32),
                vec![block(1, vec![seg(1.0, 1.0)])],
                vec![],
            ));
        }
        let r = simulate(&grids, &d, &c, None);
        assert!(r.overflow_launches > 0, "backlog beyond 64 must overflow");
        assert!(r.overflow_launches < u64::from(n_children));
        // Makespan is dominated by pool service incl. the overflow tail.
        let fast = 65.0 * c.device_launch_service_cycles;
        assert!(r.makespan > fast, "makespan {} too small", r.makespan);
    }

    #[test]
    fn collector_records_spans_flows_and_swaps() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        // Parent launches a child at offset 5, then joins it: the timeline
        // must show two parent block spans (the second resumed), a child
        // span, and one flow arrow.
        let parent = grid(
            host(0),
            LaunchConfig::new(1, 32),
            vec![BlockOutcome {
                warps: 1,
                segments: vec![
                    SegmentTask {
                        span: 20.0,
                        work: 20.0,
                        wait_children: false,
                        launches: vec![(1, 5.0)],
                    },
                    SegmentTask {
                        span: 30.0,
                        work: 30.0,
                        wait_children: true,
                        launches: vec![],
                    },
                ],
                replayed: false,
            }],
            vec![1],
        );
        let child = grid(
            Origin::Device {
                parent: 0,
                block: 0,
                stream_slot: 0,
                thread: 0,
            },
            LaunchConfig::new(1, 32),
            vec![block(1, vec![seg(1000.0, 1000.0)])],
            vec![],
        );
        let grids = [parent, child];
        let mut col = Collector::new(grids.len());
        let r = simulate(&grids, &d, &c, Some(&mut col));
        let mut profile = crate::prof::Profile::default();
        col.finish(&grids, &d, &mut profile);
        assert_eq!(profile.kernels.len(), 2);
        assert_eq!(profile.kernels[1].parent, Some((0, 0)));
        assert!(profile.kernels[0].release <= profile.kernels[0].start);
        assert!((profile.kernels[0].end - r.makespan).abs() < 1e-9);
        // Parent runs, swaps out, resumes: 3 block spans total.
        assert_eq!(profile.blocks.len(), 3);
        let resumed: Vec<_> = profile.blocks.iter().filter(|b| b.resumed).collect();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].grid, 0);
        assert_eq!(profile.flows.len(), 1);
        let f = &profile.flows[0];
        assert_eq!((f.parent_grid, f.child_grid), (0, 1));
        assert!(f.launch < f.child_start);
        assert!((f.child_start - profile.kernels[1].start).abs() < 1e-12);
        // Every block span nests inside its grid's kernel span.
        for b in &profile.blocks {
            let k = &profile.kernels[b.grid as usize];
            assert!(b.start >= k.start - 1e-9 && b.end <= k.end + 1e-9);
        }
    }

    #[test]
    fn profiling_does_not_change_timing() {
        let d = DeviceConfig::tiny();
        let c = CostModel::default();
        let mk = || {
            let blocks: Vec<BlockOutcome> =
                (0..16).map(|_| block(1, vec![seg(100.0, 100.0)])).collect();
            grid(host(0), LaunchConfig::new(16, 32), blocks, vec![])
        };
        let plain = simulate(&[mk()], &d, &c, None);
        let mut col = Collector::new(1);
        let profiled = simulate(&[mk()], &d, &c, Some(&mut col));
        assert_eq!(plain, profiled);
    }

    #[test]
    fn work_bound_blocks_take_longer_than_span() {
        let d = DeviceConfig::tiny(); // issue width 2
        let c = CostModel::default();
        // 8 warps of 100 cycles each: span 100, work 800. Alone on an SM
        // the block can issue 2 warp-cycles per cycle -> 400 cycles.
        let g = grid(
            host(0),
            LaunchConfig::new(1, 256),
            vec![block(8, vec![seg(100.0, 800.0)])],
            vec![],
        );
        let r = simulate(&[g], &d, &c, None);
        assert!((r.makespan - (c.host_launch_cycles + 400.0)).abs() < 1e-6);
    }

    // -- fast-path equivalence ------------------------------------------

    #[test]
    fn fast_forward_matches_slow_path_on_uniform_waves() {
        // Far more blocks than the device holds: the wheel replays many
        // replacement-dispatch rounds, including the residency ramp where
        // durations differ block to block.
        for blocks in [1usize, 7, 16, 97] {
            let r = assert_ff_exact(|| {
                let bl: Vec<BlockOutcome> = (0..blocks)
                    .map(|_| block(1, vec![seg(100.0, 400.0)]))
                    .collect();
                vec![grid(
                    host(0),
                    LaunchConfig::new(blocks as u32, 32),
                    bl,
                    vec![],
                )]
            });
            assert!(r.makespan > 0.0);
        }
    }

    #[test]
    fn fast_forward_matches_slow_path_with_trailing_releases() {
        // Same-stream successors release while the first grid is being
        // fast-forwarded (and after it finishes): the wheel must process
        // mid-flight releases inertly and re-queue trailing ones.
        assert_ff_exact(|| {
            (0..4u32)
                .map(|i| {
                    let bl: Vec<BlockOutcome> =
                        (0..24).map(|_| block(1, vec![seg(150.0, 600.0)])).collect();
                    grid(host(i), LaunchConfig::new(24, 32), bl, vec![])
                })
                .collect()
        });
    }

    #[test]
    fn fast_forward_respects_second_stream_heads() {
        // A second host stream's head releases mid-run: the wheel must not
        // engage across that activation (or must reproduce it exactly).
        assert_ff_exact(|| {
            let big = |seq, stream| {
                let bl: Vec<BlockOutcome> = (0..32)
                    .map(|_| block(1, vec![seg(500.0, 2000.0)]))
                    .collect();
                grid(
                    Origin::Host { seq, stream },
                    LaunchConfig::new(32, 32),
                    bl,
                    vec![],
                )
            };
            vec![big(0, 0), big(1, 1)]
        });
    }

    #[test]
    fn cohorts_match_slow_path_on_heterogeneous_blocks() {
        // Mixed span/work defeats uniformity (no wheel) but still forms
        // partial cohorts where end times coincide.
        assert_ff_exact(|| {
            let bl: Vec<BlockOutcome> = (0..24)
                .map(|i| block(1, vec![seg(100.0 + (i % 3) as f64 * 50.0, 300.0)]))
                .collect();
            vec![grid(host(0), LaunchConfig::new(24, 32), bl, vec![])]
        });
    }

    #[test]
    fn fast_paths_match_slow_path_on_dp_storm() {
        // Launch storm through the pending-launch pool incl. overflow:
        // exercises unserviced releases, device streams, and child grids
        // that are themselves wheel-eligible.
        assert_ff_exact(|| {
            let n_children = 96u32;
            let launches: Vec<(u32, f64)> = (1..=n_children).map(|i| (i, 1.0)).collect();
            let mut grids = vec![grid(
                host(0),
                LaunchConfig::new(1, 32),
                vec![BlockOutcome {
                    warps: 1,
                    segments: vec![SegmentTask {
                        span: 10.0,
                        work: 10.0,
                        wait_children: false,
                        launches,
                    }],
                    replayed: false,
                }],
                (1..=n_children as usize).collect(),
            )];
            for i in 0..n_children {
                grids.push(grid(
                    Origin::Device {
                        parent: 0,
                        block: 0,
                        stream_slot: i,
                        thread: 0,
                    },
                    LaunchConfig::new(4, 64),
                    (0..4).map(|_| block(2, vec![seg(40.0, 80.0)])).collect(),
                    vec![],
                ));
            }
            grids
        });
    }

    #[test]
    fn fast_paths_match_slow_path_with_swapping_parents() {
        // Parent joins its child (swap + resume) while a sibling uniform
        // grid is wheel-eligible: resume_queue traffic must block the
        // wheel without changing results.
        assert_ff_exact(|| {
            let parent = grid(
                host(0),
                LaunchConfig::new(1, 32),
                vec![BlockOutcome {
                    warps: 1,
                    segments: vec![
                        SegmentTask {
                            span: 20.0,
                            work: 20.0,
                            wait_children: false,
                            launches: vec![(2, 5.0)],
                        },
                        SegmentTask {
                            span: 30.0,
                            work: 30.0,
                            wait_children: true,
                            launches: vec![],
                        },
                    ],
                    replayed: false,
                }],
                vec![2],
            );
            let sibling = {
                let bl: Vec<BlockOutcome> =
                    (0..20).map(|_| block(1, vec![seg(300.0, 900.0)])).collect();
                grid(
                    Origin::Host { seq: 1, stream: 1 },
                    LaunchConfig::new(20, 32),
                    bl,
                    vec![],
                )
            };
            let child = grid(
                Origin::Device {
                    parent: 0,
                    block: 0,
                    stream_slot: 0,
                    thread: 0,
                },
                LaunchConfig::new(8, 32),
                (0..8).map(|_| block(1, vec![seg(700.0, 700.0)])).collect(),
                vec![],
            );
            vec![parent, sibling, child]
        });
    }

    // -- calendar queue -------------------------------------------------

    /// Total order on event times (f64) for the reference heap.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct TimeKey(f64);
    impl Eq for TimeKey {}
    impl PartialOrd for TimeKey {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for TimeKey {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    #[test]
    fn calendar_matches_binary_heap_pop_order() {
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut cal = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(TimeKey, u64, Ev)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            // An event storm with heavy ties (quantized times), bursts,
            // sparse jumps, and interleaved pops — including runs of pops
            // that drain the queue completely.
            for _ in 0..2_000 {
                let burst = rng.gen_range(0usize..8);
                for _ in 0..burst {
                    let dt = match rng.gen_range(0u32..10) {
                        0..=5 => f64::from(rng.gen_range(0u32..40)) * 25.0,
                        6..=8 => f64::from(rng.gen_range(0u32..1_000)),
                        _ => f64::from(rng.gen_range(0u32..100)) * 10_000.0,
                    };
                    let t = now + dt;
                    seq += 1;
                    let ev = if rng.gen_bool(0.3) {
                        Ev::Release(rng.gen_range(0usize..64))
                    } else {
                        Ev::SegDone(rng.gen_range(0usize..64), rng.gen_range(0u32..256))
                    };
                    cal.push(t, seq, ev);
                    heap.push(Reverse((TimeKey(t), seq, ev)));
                }
                let pops = rng.gen_range(0usize..10);
                for _ in 0..pops {
                    let want = heap.pop();
                    let got = cal.pop();
                    match (want, got) {
                        (None, None) => break,
                        (Some(Reverse((TimeKey(t), s, ev))), Some((ct, cs, cev))) => {
                            assert_eq!(t.to_bits(), ct.to_bits(), "time order diverged");
                            assert_eq!(s, cs, "seq tie-break diverged at t={t}");
                            assert_eq!(ev, cev);
                            now = t;
                        }
                        (w, g) => panic!("length diverged: heap={w:?} cal={g:?}"),
                    }
                }
            }
            // Drain both completely.
            while let Some(Reverse((TimeKey(t), s, ev))) = heap.pop() {
                let (ct, cs, cev) = cal.pop().expect("calendar drained early");
                assert_eq!((t.to_bits(), s, ev), (ct.to_bits(), cs, cev));
            }
            assert!(cal.pop().is_none());
            assert_eq!(cal.len(), 0);
        }
    }

    #[test]
    fn fast_paths_actually_engage() {
        // Guard against the equivalence tests passing vacuously because an
        // entry condition quietly never holds.
        let d = DeviceConfig::tiny();
        let c = CostModel::default();

        // A lone uniform grid must hit the wheel.
        let bl: Vec<BlockOutcome> = (0..48).map(|_| block(1, vec![seg(100.0, 400.0)])).collect();
        let grids = vec![grid(host(0), LaunchConfig::new(48, 32), bl, vec![])];
        let mut sim = Sim::new(&grids, &d, &c, None);
        sim.run();
        assert!(sim.stat_wheel_runs > 0, "wheel never engaged");

        // A two-phase grid (not pairwise uniform, so no wheel) whose final
        // wave ends in lockstep must tear down through a cohort fan-out.
        let bl: Vec<BlockOutcome> = (0..16)
            .map(|i| {
                let span = if i < 8 { 100.0 } else { 250.0 };
                block(1, vec![seg(span, span)])
            })
            .collect();
        let grids = vec![grid(host(0), LaunchConfig::new(16, 32), bl, vec![])];
        let mut sim = Sim::new(&grids, &d, &c, None);
        sim.run();
        assert_eq!(sim.stat_wheel_runs, 0, "mixed-span grid must not wheel");
        assert!(sim.stat_cohort_fanouts > 0, "cohort fan-out never engaged");
    }

    /// Manual timing-pass microbenchmark (`cargo test --release -p npar-sim
    /// -- --ignored bench_timing_pass --nocapture`): K20-scale batches
    /// mirroring simbench's regular and dp-heavy mixes, fast paths off vs
    /// on. Not a correctness test — the equivalence suite covers that.
    #[test]
    #[ignore = "manual perf measurement"]
    fn bench_timing_pass() {
        let c = CostModel::default();
        let regular = || {
            let bl: Vec<BlockOutcome> = (0..128)
                .map(|_| block(8, vec![seg(500.0, 4000.0)]))
                .collect();
            (0..6u32)
                .map(|i| grid(host(i), LaunchConfig::new(128, 256), bl.clone(), vec![]))
                .collect::<Vec<_>>()
        };
        let dp_storm = || {
            let mut grids = Vec::new();
            for l in 0..6u32 {
                let parent_id = grids.len();
                let nchildren = 64usize;
                let first_child = parent_id + 1;
                let blocks: Vec<BlockOutcome> = (0..nchildren)
                    .map(|b| {
                        block(
                            2,
                            vec![SegmentTask {
                                span: 50.0,
                                work: 100.0,
                                wait_children: false,
                                launches: vec![((first_child + b) as u32, 10.0)],
                            }],
                        )
                    })
                    .collect();
                grids.push(grid(
                    host(l),
                    LaunchConfig::new(nchildren as u32, 64),
                    blocks,
                    (first_child..first_child + nchildren).collect(),
                ));
                for b in 0..nchildren {
                    grids.push(grid(
                        Origin::Device {
                            parent: parent_id,
                            block: b as u32,
                            stream_slot: 0,
                            thread: 0,
                        },
                        LaunchConfig::new(4, 64),
                        (0..4).map(|_| block(2, vec![seg(40.0, 80.0)])).collect(),
                        vec![],
                    ));
                }
            }
            grids
        };
        for (name, build) in [
            ("regular", regular as fn() -> Vec<GridTask>),
            ("dp-storm", dp_storm as fn() -> Vec<GridTask>),
        ] {
            let grids = build();
            let mut times = [0.0f64; 2];
            for (slot, ff) in [(0usize, false), (1, true)] {
                let mut d = DeviceConfig::kepler_k20();
                d.fast_forward = ff;
                let iters = 200;
                let mut best = f64::INFINITY;
                for _ in 0..5 {
                    let t0 = std::time::Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(simulate(&grids, &d, &c, None));
                    }
                    best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
                }
                times[slot] = best;
            }
            println!(
                "{name:>9}: off {:>8.1}us  on {:>8.1}us  gain {:.2}x",
                times[0] * 1e6,
                times[1] * 1e6,
                times[0] / times[1]
            );
        }
    }

    #[test]
    fn calendar_handles_identical_times_by_seq() {
        let mut cal = CalendarQueue::with_geometry(16, 64.0);
        for s in (1..=100u64).rev() {
            cal.push(1234.5, s, Ev::Release(s as usize));
        }
        for s in 1..=100u64 {
            let (t, cs, _) = cal.pop().unwrap();
            assert_eq!((t, cs), (1234.5, s));
        }
    }

    #[test]
    fn calendar_pop_order_survives_grow_shrink_cycle() {
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(TimeKey, u64, Ev)>> = BinaryHeap::new();
        // Storm: force several 4x-occupancy grows.
        for s in 1..=20_000u64 {
            let t = f64::from(rng.gen_range(0u32..500_000));
            cal.push(t, s, Ev::Release(0));
            heap.push(Reverse((TimeKey(t), s, Ev::Release(0))));
        }
        let grown = cal.buckets.len();
        assert!(grown > 16, "storm never grew the ring");
        // Drain below the 1/8 occupancy floor: the ring must give days
        // back, and pop order must stay the exact (total_cmp, seq) merge
        // throughout the grow→shrink cycle.
        let mut popped = 0usize;
        while let Some(Reverse((TimeKey(t), s, ev))) = heap.pop() {
            let (ct, cs, cev) = cal.pop().expect("calendar drained early");
            assert_eq!((t.to_bits(), s, ev), (ct.to_bits(), cs, cev));
            popped += 1;
            if popped == 19_990 {
                assert!(
                    cal.buckets.len() < grown,
                    "ring still {} buckets with {} events left",
                    cal.buckets.len(),
                    cal.len()
                );
            }
        }
        assert!(cal.pop().is_none());
    }

    // -- timing domains ----------------------------------------------------

    /// Run a batch serially and with domain partitioning (no pool — the
    /// sequential domain path is bitwise the threaded one) and require
    /// identical results and profiles; returns the partitioned pass stats.
    fn assert_domains_exact(threads: usize, build: impl Fn() -> Vec<GridTask>) -> SchedStats {
        let run = |tt: usize| {
            let mut d = DeviceConfig::tiny();
            d.timing_threads = tt;
            let c = CostModel::default();
            let grids = build();
            let mut col = Collector::new(grids.len());
            let (r, s) = simulate_full(&grids, &d, &c, Some(&mut col), None);
            let mut p = Profile::default();
            col.finish(&grids, &d, &mut p);
            (r, s, p)
        };
        let (r1, _, p1) = run(1);
        let (rn, stats, pn) = run(threads);
        assert_eq!(r1, rn, "timing diverges across timing_threads");
        assert_eq!(p1, pn, "profile diverges across timing_threads");
        stats
    }

    #[test]
    fn disjoint_streams_commit_as_parallel_domains() {
        // Four single-block streams with tiny spans: each domain's window
        // ends long before the next host release (3500 cycles apart), so
        // every domain commits optimistically.
        let stats = assert_domains_exact(4, || {
            (0..4u32)
                .map(|i| {
                    grid(
                        Origin::Host { seq: i, stream: i },
                        LaunchConfig::new(1, 32),
                        vec![block(1, vec![seg(100.0, 40.0)])],
                        vec![],
                    )
                })
                .collect()
        });
        assert_eq!(stats.domains, 4);
        assert_eq!(stats.domains_committed, 4);
        assert_eq!(stats.domains_rolled_back, 0);
    }

    #[test]
    fn overlapping_streams_roll_back_to_serial() {
        // Long-running streams whose windows overlap: the optimistic runs
        // cannot commit and the whole batch replays serially — results
        // must still be bitwise those of the serial pass.
        let stats = assert_domains_exact(4, || {
            (0..4u32)
                .map(|i| {
                    grid(
                        Origin::Host { seq: i, stream: i },
                        LaunchConfig::new(1, 32),
                        vec![block(1, vec![seg(100_000.0, 40.0)])],
                        vec![],
                    )
                })
                .collect()
        });
        assert_eq!(stats.domains, 4);
        assert_eq!(stats.domains_committed, 0);
        assert_eq!(stats.domains_rolled_back, 4);
    }

    #[test]
    fn mixed_windows_commit_prefix_and_roll_back_suffix() {
        // Stream 0 is short (commits), streams 1-2 overlap each other.
        // The violating domain must also pull its committed neighbor back
        // into the serial suffix (the split moves one left).
        let stats = assert_domains_exact(4, || {
            let mk = |i: u32, span: f64| {
                grid(
                    Origin::Host { seq: i, stream: i },
                    LaunchConfig::new(1, 32),
                    vec![block(1, vec![seg(span, 40.0)])],
                    vec![],
                )
            };
            vec![mk(0, 100.0), mk(1, 100_000.0), mk(2, 100_000.0)]
        });
        assert_eq!(stats.domains, 3);
        assert_eq!(stats.domains_committed, 1);
        assert_eq!(stats.domains_rolled_back, 2);
    }

    #[test]
    fn device_children_join_their_parent_domain() {
        // A parent with device children in one stream plus an unrelated
        // stream: the launch DAG must glue parent+child into one domain.
        let stats = assert_domains_exact(2, || {
            let parent = grid(
                Origin::Host { seq: 0, stream: 0 },
                LaunchConfig::new(1, 32),
                vec![block(
                    1,
                    vec![
                        SegmentTask {
                            span: 50.0,
                            work: 20.0,
                            wait_children: false,
                            launches: vec![(2, 10.0)],
                        },
                        SegmentTask {
                            span: 30.0,
                            work: 10.0,
                            wait_children: true,
                            launches: vec![],
                        },
                    ],
                )],
                vec![2],
            );
            let other = grid(
                Origin::Host { seq: 1, stream: 9 },
                LaunchConfig::new(1, 32),
                vec![block(1, vec![seg(60.0, 20.0)])],
                vec![],
            );
            let child = grid(
                Origin::Device {
                    parent: 0,
                    block: 0,
                    stream_slot: 0,
                    thread: 0,
                },
                LaunchConfig::new(2, 32),
                (0..2).map(|_| block(1, vec![seg(40.0, 10.0)])).collect(),
                vec![],
            );
            vec![parent, other, child]
        });
        assert_eq!(stats.domains, 2, "parent+child must share a domain");
    }
}
