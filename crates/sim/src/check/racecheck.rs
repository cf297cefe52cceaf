//! Race detection over recorded traces: shared-memory conflicts within a
//! block's barrier segments, and cross-block global-memory conflicts.
//!
//! The functional simulator runs threads sequentially, so a racy kernel
//! still produces one deterministic (usually correct-looking) answer; these
//! passes recover the concurrency the hardware would actually have — any
//! two threads of a block race between barriers, any two blocks of a grid
//! race for the grid's whole duration — and flag the conflicting accesses.

use std::collections::BTreeMap;

use super::{merge_intervals, CheckState, GridAccess, Hazard, HazardKind};
use crate::trace::Op;

/// "No lane" in a [`LanePair`] slot.
const NO_LANE: u32 = u32::MAX;

/// Per-role record of up to two *distinct* lanes that touched an address.
#[derive(Clone, Copy)]
struct LanePair(u32, u32);

impl LanePair {
    const EMPTY: LanePair = LanePair(NO_LANE, NO_LANE);

    #[inline]
    fn add(&mut self, lane: u32) {
        if self.0 == NO_LANE {
            self.0 = lane;
        } else if self.1 == NO_LANE && self.0 != lane {
            self.1 = lane;
        }
    }

    /// A lane in the pair different from `other`, if any.
    fn other_than(self, other: u32) -> Option<u32> {
        [self.0, self.1]
            .into_iter()
            .find(|&l| l != NO_LANE && l != other)
    }
}

/// The lanes that touched one shared word, per access kind ([`READ`],
/// [`WRITE`], [`ATOMIC`]).
#[derive(Clone, Copy)]
struct SharedCell([LanePair; 3]);

impl SharedCell {
    const EMPTY: SharedCell = SharedCell([LanePair::EMPTY; 3]);

    fn is_empty(&self) -> bool {
        self.0.iter().all(|p| p.0 == NO_LANE)
    }

    /// The reported conflict on this word, if any: a first non-atomic
    /// writer against a second writer, else a reader, else an atomic.
    /// Atomic/atomic pairs are ordered by the hardware and never flagged.
    fn conflict(&self) -> Option<(&'static str, u32, u32)> {
        let [readers, writers, atomics] = self.0;
        let w = writers.0;
        if w == NO_LANE {
            return None;
        }
        if let Some(w2) = writers.other_than(w) {
            Some(("write/write", w, w2))
        } else if let Some(r) = readers.other_than(w) {
            Some(("read/write", w, r))
        } else {
            atomics.other_than(w).map(|a| ("atomic/write", w, a))
        }
    }
}

/// Cap of reported shared races per segment — one bad access pattern
/// otherwise reports every address of the block's shared array.
const MAX_SHARED_PER_SEGMENT: usize = 4;

/// A shared race found by the walk, turned into a [`Hazard`] once the
/// block's bounds diagnostic (which precedes it) is recorded.
pub(crate) struct SharedRaceAt {
    seg: usize,
    addr: u32,
    what: &'static str,
    lanes: (u32, u32),
}

impl SharedRaceAt {
    pub(crate) fn hazard(&self, kernel: &str, grid: usize, block: u32) -> Hazard {
        let SharedRaceAt {
            seg,
            addr,
            what,
            lanes: (w, lane2),
        } = *self;
        Hazard {
            kind: HazardKind::SharedRace,
            kernel: kernel.to_string(),
            grid,
            block,
            details: format!(
                "{what} race on shared offset {addr:#x} in barrier segment \
                 {seg}: threads {w} and {lane2}"
            ),
        }
    }
}

/// Within each barrier segment, shared-memory words where two distinct
/// lanes conflict: write/write, or a non-atomic write against any other
/// lane's read or atomic.
///
/// Cells are indexed by byte offset below the declared shared size and
/// reused from segment to segment and block to block; offsets beyond it
/// (already a [`HazardKind::SharedOutOfBounds`]) go to an ordered map. A
/// segment's touched offsets are sorted only when it holds a conflict, so
/// reports come out in offset order, as from one ordered map.
#[derive(Default)]
pub(crate) struct SharedTable {
    cells: Vec<SharedCell>,
    /// Offsets below `bound` live in `cells`, the rest in `far`.
    bound: u32,
    /// Offsets of `cells` touched in the current segment.
    touched: Vec<u32>,
    far: BTreeMap<u32, SharedCell>,
}

impl SharedTable {
    /// Start a block declaring `bound` bytes of shared memory.
    pub(crate) fn begin(&mut self, bound: u32) {
        if self.cells.len() < bound as usize {
            self.cells.resize(bound as usize, SharedCell::EMPTY);
        }
        self.bound = bound;
    }

    /// Record `lane`'s access of `kind` to the word at `addr`.
    #[inline]
    pub(crate) fn add(&mut self, addr: u32, lane: u32, kind: usize) {
        let cell = if addr < self.bound {
            let cell = &mut self.cells[addr as usize];
            if cell.is_empty() {
                self.touched.push(addr);
            }
            cell
        } else {
            self.far.entry(addr).or_insert(SharedCell::EMPTY)
        };
        cell.0[kind].add(lane);
    }

    /// Close segment `seg`: append its first [`MAX_SHARED_PER_SEGMENT`]
    /// conflicts in offset order to `out` and clear the touched cells.
    pub(crate) fn finish_segment(&mut self, seg: usize, out: &mut Vec<SharedRaceAt>) {
        let cells = &self.cells;
        let racy = self
            .touched
            .iter()
            .any(|&a| cells[a as usize].conflict().is_some())
            || self.far.values().any(|c| c.conflict().is_some());
        if racy {
            self.touched.sort_unstable();
            let in_bounds = self.touched.iter().map(|&a| (a, &cells[a as usize]));
            let races = in_bounds
                .chain(self.far.iter().map(|(&a, c)| (a, c)))
                .filter_map(|(addr, c)| {
                    c.conflict().map(|(what, w, lane2)| SharedRaceAt {
                        seg,
                        addr,
                        what,
                        lanes: (w, lane2),
                    })
                })
                .take(MAX_SHARED_PER_SEGMENT);
            out.extend(races);
        }
        for &a in &self.touched {
            self.cells[a as usize] = SharedCell::EMPTY;
        }
        self.touched.clear();
        self.far.clear();
    }
}

/// Access-kind index into a footprint line's masks and a shared cell.
pub(crate) const READ: usize = 0;
pub(crate) const WRITE: usize = 1;
pub(crate) const ATOMIC: usize = 2;

/// Bytes per footprint line, as a shift.
const LINE_SHIFT: u32 = 7;
const LINE_BYTES: u64 = 1 << LINE_SHIFT;
/// Lines below this index are found by direct indexing (128 MiB of
/// address space); higher ones go to an ordered map.
const DIRECT_LINES: usize = 1 << 20;
/// Smallest direct-index size (one summary word).
const MIN_LINES: usize = 64 * 64;

/// The bits `[lo, lo + n)` of a line mask.
#[inline]
fn span(lo: u32, n: u32) -> u128 {
    let ones = if n >= 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    ones << lo
}

/// One block's global-memory footprint, built without sorting: a byte mask
/// per access kind for every 128-byte line the block touched. Emitting the
/// maximal runs of set bytes in line order yields exactly the sorted,
/// coalesced intervals that sorting and merging the raw accesses gives
/// ([`merge_intervals`]): touching intervals coalesce, and a run ends only
/// at an untouched byte.
///
/// Lines below [`DIRECT_LINES`] are found through a direct index and
/// listed in order by a two-level touched bitmap; the table is cleared as
/// it is emitted and reused by the next block. Zero-byte accesses (a
/// buffer of a zero-sized type) mark no byte: they are kept aside and
/// merged as points, which keeps their sort-and-merge semantics.
#[derive(Default)]
pub(crate) struct LineTable {
    /// Per line, 1 + its slot in `slots`; 0 when untouched this block.
    index: Vec<u32>,
    /// One bit per line of `index` touched this block.
    touched: Vec<u64>,
    /// One bit per non-zero word of `touched`.
    summary: Vec<u64>,
    /// Masks of the lines touched this block, in first-touch order.
    slots: Vec<[u128; 3]>,
    /// Lines at or beyond [`DIRECT_LINES`].
    far: BTreeMap<u64, [u128; 3]>,
    /// Zero-byte accesses per kind.
    points: [Vec<u64>; 3],
    /// Emitted intervals per kind (reused).
    out: [Vec<(u64, u64)>; 3],
}

impl LineTable {
    /// Record an access of `size` bytes at `addr` as `kind`.
    #[inline]
    pub(crate) fn add(&mut self, addr: u64, size: u64, kind: usize) {
        if size == 0 {
            self.points[kind].push(addr);
            return;
        }
        // Most accesses fit in one line; the rest straddle into the next.
        let lo = (addr & (LINE_BYTES - 1)) as u32;
        if u64::from(lo) + size <= LINE_BYTES {
            self.masks(addr >> LINE_SHIFT)[kind] |= span(lo, size as u32);
            return;
        }
        let end = addr + size;
        let mut a = addr;
        loop {
            let lo = (a & (LINE_BYTES - 1)) as u32;
            let n = (end - a).min(LINE_BYTES - u64::from(lo)) as u32;
            self.masks(a >> LINE_SHIFT)[kind] |= span(lo, n);
            a += u64::from(n);
            if a >= end {
                return;
            }
        }
    }

    /// The masks of `line`, given a slot on its first touch this block.
    #[inline]
    fn masks(&mut self, line: u64) -> &mut [u128; 3] {
        if line >= DIRECT_LINES as u64 {
            return self.far.entry(line).or_default();
        }
        let l = line as usize;
        if l >= self.index.len() {
            self.grow(l);
        }
        let mut slot = self.index[l];
        if slot == 0 {
            self.slots.push([0; 3]);
            slot = self.slots.len() as u32;
            self.index[l] = slot;
            let word = l / 64;
            self.touched[word] |= 1 << (l % 64);
            self.summary[word / 64] |= 1 << (word % 64);
        }
        &mut self.slots[slot as usize - 1]
    }

    #[cold]
    fn grow(&mut self, line: usize) {
        let lines = (line + 1).next_power_of_two().max(MIN_LINES);
        self.index.resize(lines, 0);
        self.touched.resize(lines / 64, 0);
        self.summary.resize(lines / (64 * 64), 0);
    }

    /// Append the block's merged intervals per kind to `gaccess` and clear
    /// the table for the next block.
    pub(crate) fn emit(&mut self, block: u32, gaccess: &mut GridAccess) {
        let mut open: [Option<(u64, u64)>; 3] = [None; 3];
        if !self.slots.is_empty() {
            for sw in 0..self.summary.len() {
                let mut words = std::mem::take(&mut self.summary[sw]);
                while words != 0 {
                    let word = sw * 64 + words.trailing_zeros() as usize;
                    words &= words - 1;
                    let mut bits = std::mem::take(&mut self.touched[word]);
                    while bits != 0 {
                        let l = word * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let slot = std::mem::take(&mut self.index[l]) as usize - 1;
                        push_line(l as u64, &self.slots[slot], &mut open, &mut self.out);
                    }
                }
            }
            self.slots.clear();
        }
        for (line, masks) in std::mem::take(&mut self.far) {
            push_line(line, &masks, &mut open, &mut self.out);
        }
        let lists = [
            &mut gaccess.reads,
            &mut gaccess.writes,
            &mut gaccess.atomics,
        ];
        for (kind, list) in lists.into_iter().enumerate() {
            let out = &mut self.out[kind];
            out.extend(open[kind]);
            let points = &mut self.points[kind];
            if !points.is_empty() {
                out.extend(points.drain(..).map(|p| (p, p)));
                merge_intervals(out);
            }
            list.extend(out.drain(..).map(|(a, b)| (a, b, block)));
        }
    }
}

/// Extend or close each kind's open run with the set-byte runs of `line`.
#[inline]
fn push_line(
    line: u64,
    masks: &[u128; 3],
    open: &mut [Option<(u64, u64)>; 3],
    out: &mut [Vec<(u64, u64)>; 3],
) {
    let base = line << LINE_SHIFT;
    for kind in 0..3 {
        let mut m = masks[kind];
        while m != 0 {
            let lo = m.trailing_zeros();
            let len = (!(m >> lo)).trailing_zeros();
            let (a, b) = (base + u64::from(lo), base + u64::from(lo + len));
            match &mut open[kind] {
                Some(run) if run.1 == a => run.1 = b,
                run => {
                    if let Some(done) = run.replace((a, b)) {
                        out[kind].push(done);
                    }
                }
            }
            if lo + len >= 128 {
                break;
            }
            m &= u128::MAX << (lo + len);
        }
    }
}

/// Collect a block's global-memory footprint (merged intervals per access
/// kind) into the grid accumulator for the cross-block sweep, without the
/// shared-memory and lint work of a full scan.
pub(crate) fn collect_global(
    lines: &mut LineTable,
    traces: &[Vec<Op>],
    block: u32,
    gaccess: &mut GridAccess,
) {
    for t in traces {
        for op in t {
            match *op {
                Op::GlobalRead { addr, size } => lines.add(addr, u64::from(size), READ),
                Op::GlobalWrite { addr, size } => lines.add(addr, u64::from(size), WRITE),
                Op::AtomicGlobal { addr } => lines.add(addr, 4, ATOMIC),
                _ => {}
            }
        }
    }
    lines.emit(block, gaccess);
}

/// Whether [`sweep_global`] can report anything for this grid: whether
/// some non-atomic write interval of one block and an interval of another
/// block form a pair the sweep flags. Exact, so the sweep is skipped only
/// when it would find nothing.
///
/// The sweep flags intervals `x` before `y` (in `(start, end, block)`
/// order) when `x.start <= y.start < x.end`: half-open overlap for
/// non-empty intervals, and a zero-byte point strictly inside the other
/// interval. For a query `q`, a write `w` can pair only if
/// `w.start < q.end` and `w.end > q.start`, and any such `w` does pair
/// with `q` unless it is `q`'s own block. Scanning the writes with
/// `w.start < q.end` backwards while the prefix maximum of their ends
/// exceeds `q.start` therefore decides `q`. Meeting a write that ends at
/// or before `q.start` on that scan also proves a pair: an earlier write
/// of another block (a block's own merged writes never touch) covers it.
///
/// `writes` is the grid's write list sorted by `(start, end, block)`;
/// `max_end` is scratch.
pub(crate) fn sweep_can_report(
    writes: &[(u64, u64, u32)],
    max_end: &mut Vec<u64>,
    gaccess: &GridAccess,
) -> bool {
    max_end.clear();
    let mut m = 0;
    max_end.extend(writes.iter().map(|w| {
        m = m.max(w.1);
        m
    }));
    let queries = gaccess
        .reads
        .iter()
        .chain(&gaccess.writes)
        .chain(&gaccess.atomics);
    for &(start, end, block) in queries {
        let mut j = writes.partition_point(|w| w.0 < end);
        while j > 0 && max_end[j - 1] > start {
            j -= 1;
            let (_, w_end, w_block) = writes[j];
            if w_end <= start || w_block != block {
                return true;
            }
        }
    }
    false
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Atomic,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Atomic => "atomic",
        }
    }
}

/// Cap of reported cross-block conflicts per grid.
const MAX_GLOBAL_PER_GRID: usize = 8;

/// Sweep the grid's merged intervals for cross-block conflicts: two blocks
/// overlap, at least one side a non-atomic write. Read/atomic and
/// atomic/atomic pairs are the sanctioned communication idioms and pass.
pub(crate) fn sweep_global(st: &mut CheckState, kernel: &str, grid: usize, gaccess: &GridAccess) {
    let mut events: Vec<(u64, u64, u32, Kind)> =
        Vec::with_capacity(gaccess.reads.len() + gaccess.writes.len() + gaccess.atomics.len());
    events.extend(
        gaccess
            .reads
            .iter()
            .map(|&(a, b, blk)| (a, b, blk, Kind::Read)),
    );
    events.extend(
        gaccess
            .writes
            .iter()
            .map(|&(a, b, blk)| (a, b, blk, Kind::Write)),
    );
    events.extend(
        gaccess
            .atomics
            .iter()
            .map(|&(a, b, blk)| (a, b, blk, Kind::Atomic)),
    );
    events.sort_unstable_by_key(|&(a, b, blk, _)| (a, b, blk));

    let mut active: Vec<usize> = Vec::new();
    let mut reported_pairs: std::collections::BTreeSet<(u32, u32)> =
        std::collections::BTreeSet::new();
    for (i, &(start, end, blk, kind)) in events.iter().enumerate() {
        active.retain(|&j| events[j].1 > start);
        for &j in &active {
            let (astart, aend, ablk, akind) = events[j];
            if ablk == blk || (akind != Kind::Write && kind != Kind::Write) {
                continue;
            }
            let pair = (ablk.min(blk), ablk.max(blk));
            if !reported_pairs.insert(pair) {
                continue;
            }
            let lo = start.max(astart);
            let hi = end.min(aend);
            st.record(Hazard {
                kind: HazardKind::GlobalRace,
                kernel: kernel.to_string(),
                grid,
                block: blk,
                details: format!(
                    "{}-{} conflict on global range [{lo:#x}, {hi:#x}) between \
                     blocks {ablk} and {blk}",
                    akind.label(),
                    kind.label()
                ),
            });
            if reported_pairs.len() >= MAX_GLOBAL_PER_GRID {
                return;
            }
        }
        active.push(i);
    }
}
