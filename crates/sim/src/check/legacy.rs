//! The checker's previous per-block and per-grid scans, kept as a test
//! reference: separate walks for barriers, shared bounds, segmentation,
//! shared races (an ordered map per segment), the global footprint (sort
//! and merge of the raw intervals) and the lint, and a cross-block sweep
//! that always runs. The randomized tests in `check::tests` pin the
//! rebuilt scans to these hazard lists, footprints and lints exactly.

use std::collections::BTreeMap;

use super::{
    merge_intervals, racecheck, CheckLevel, CheckState, GridAccess, Hazard, HazardKind, PendingLint,
};
use crate::kernel::LaunchConfig;
use crate::trace::Op;

/// The previous `scan_block`.
pub(super) fn scan_block(
    st: &mut CheckState,
    traces: &mut [Vec<Op>],
    kernel: &str,
    grid: usize,
    block: u32,
    cfg: &LaunchConfig,
    gaccess: &mut GridAccess,
) -> bool {
    if st.level != CheckLevel::Off {
        st.scanned_blocks += 1;
    }
    if let Some(details) = barrier_divergence(traces) {
        st.record_fatal(Hazard {
            kind: HazardKind::DivergentBarrier,
            kernel: kernel.to_string(),
            grid,
            block,
            details,
        });
        super::synccheck::sanitize_divergent(traces);
        return true;
    }
    if st.level == CheckLevel::Off {
        return false;
    }
    scan_shared_bounds(st, traces, kernel, grid, block, cfg);
    let (nsegs, ranges, delims) = segment_ranges(traces);
    scan_shared_races(st, traces, &ranges, nsegs, kernel, grid, block);
    collect_global(traces, block, gaccess);
    scan_unjoined_reads(st, traces, &ranges, &delims, nsegs, kernel, grid, block);
    false
}

/// The previous `finish_grid`: the sweep runs for every grid.
pub(super) fn finish_grid(st: &mut CheckState, kernel: &str, grid: usize, gaccess: GridAccess) {
    if st.level == CheckLevel::Off {
        return;
    }
    racecheck::sweep_global(st, kernel, grid, &gaccess);
    let mut writes: Vec<(u64, u64)> = gaccess.writes.iter().map(|&(a, b, _)| (a, b)).collect();
    merge_intervals(&mut writes);
    if !writes.is_empty() {
        st.grid_writes.insert(grid, writes);
    }
}

fn barrier_divergence(traces: &[Vec<Op>]) -> Option<String> {
    let reference: Vec<Op> = traces[0]
        .iter()
        .copied()
        .filter(|o| o.is_delimiter())
        .collect();
    for (lane, t) in traces.iter().enumerate().skip(1) {
        let mut mine = t.iter().copied().filter(|o| o.is_delimiter());
        for (pos, &want) in reference.iter().enumerate() {
            match mine.next() {
                Some(got) if got == want => {}
                Some(got) => {
                    return Some(format!(
                        "thread {lane} issued {got:?} at barrier #{pos} where \
                         thread 0 issued {want:?}"
                    ));
                }
                None => {
                    return Some(format!(
                        "thread {lane} issued {pos} barrier(s) but thread 0 \
                         issued {}",
                        reference.len()
                    ));
                }
            }
        }
        let extra = mine.count();
        if extra > 0 {
            return Some(format!(
                "thread {lane} issued {} barrier(s) but thread 0 issued {}",
                reference.len() + extra,
                reference.len()
            ));
        }
    }
    None
}

fn segment_ranges(traces: &[Vec<Op>]) -> (usize, Vec<(u32, u32)>, Vec<Op>) {
    let delims: Vec<Op> = traces[0]
        .iter()
        .copied()
        .filter(|o| o.is_delimiter())
        .collect();
    let nsegs = delims.len() + 1;
    let mut ranges = Vec::with_capacity(traces.len() * nsegs);
    for t in traces {
        let mut start = 0u32;
        for (i, op) in t.iter().enumerate() {
            if op.is_delimiter() {
                ranges.push((start, i as u32));
                start = i as u32 + 1;
            }
        }
        ranges.push((start, t.len() as u32));
    }
    (nsegs, ranges, delims)
}

fn scan_shared_bounds(
    st: &mut CheckState,
    traces: &[Vec<Op>],
    kernel: &str,
    grid: usize,
    block: u32,
    cfg: &LaunchConfig,
) {
    let limit = u64::from(cfg.shared_mem_bytes);
    for (lane, t) in traces.iter().enumerate() {
        for op in t {
            let addr = match *op {
                Op::SharedRead { addr } | Op::SharedWrite { addr } | Op::AtomicShared { addr } => {
                    addr
                }
                _ => continue,
            };
            if u64::from(addr) + 4 > limit {
                st.record(Hazard {
                    kind: HazardKind::SharedOutOfBounds,
                    kernel: kernel.to_string(),
                    grid,
                    block,
                    details: format!(
                        "thread {lane} accessed shared offset {addr:#x} (word end \
                         {:#x}) but the launch declared {limit} byte(s) of shared \
                         memory",
                        u64::from(addr) + 4
                    ),
                });
                return;
            }
        }
    }
}

#[derive(Clone, Copy, Default)]
struct LanePair(Option<u32>, Option<u32>);

impl LanePair {
    fn add(&mut self, lane: u32) {
        match (self.0, self.1) {
            (None, _) => self.0 = Some(lane),
            (Some(a), None) if a != lane => self.1 = Some(lane),
            _ => {}
        }
    }

    fn other_than(&self, other: u32) -> Option<u32> {
        [self.0, self.1].into_iter().flatten().find(|&l| l != other)
    }
}

#[derive(Clone, Copy, Default)]
struct SharedCell {
    writers: LanePair,
    readers: LanePair,
    atomics: LanePair,
}

fn scan_shared_races(
    st: &mut CheckState,
    traces: &[Vec<Op>],
    ranges: &[(u32, u32)],
    nsegs: usize,
    kernel: &str,
    grid: usize,
    block: u32,
) {
    let mut cells: BTreeMap<u32, SharedCell> = BTreeMap::new();
    for seg in 0..nsegs {
        cells.clear();
        for (lane, t) in traces.iter().enumerate() {
            let (a, b) = ranges[lane * nsegs + seg];
            for op in &t[a as usize..b as usize] {
                match *op {
                    Op::SharedWrite { addr } => {
                        cells.entry(addr).or_default().writers.add(lane as u32)
                    }
                    Op::SharedRead { addr } => {
                        cells.entry(addr).or_default().readers.add(lane as u32)
                    }
                    Op::AtomicShared { addr } => {
                        cells.entry(addr).or_default().atomics.add(lane as u32)
                    }
                    _ => {}
                }
            }
        }
        let mut reported = 0;
        for (&addr, cell) in &cells {
            if reported >= 4 {
                break;
            }
            let Some(w) = cell.writers.0 else { continue };
            let conflict = if let Some(w2) = cell.writers.other_than(w) {
                Some(("write/write", w2))
            } else if let Some(r) = cell.readers.other_than(w) {
                Some(("read/write", r))
            } else {
                cell.atomics.other_than(w).map(|a| ("atomic/write", a))
            };
            if let Some((what, lane2)) = conflict {
                reported += 1;
                st.record(Hazard {
                    kind: HazardKind::SharedRace,
                    kernel: kernel.to_string(),
                    grid,
                    block,
                    details: format!(
                        "{what} race on shared offset {addr:#x} in barrier segment \
                         {seg}: threads {w} and {lane2}"
                    ),
                });
            }
        }
    }
}

/// The previous footprint: sort and merge the raw intervals per kind.
pub(super) fn collect_global(traces: &[Vec<Op>], block: u32, gaccess: &mut GridAccess) {
    let mut reads: Vec<(u64, u64)> = Vec::new();
    let mut writes: Vec<(u64, u64)> = Vec::new();
    let mut atomics: Vec<(u64, u64)> = Vec::new();
    for t in traces {
        for op in t {
            match *op {
                Op::GlobalRead { addr, size } => reads.push((addr, addr + u64::from(size))),
                Op::GlobalWrite { addr, size } => writes.push((addr, addr + u64::from(size))),
                Op::AtomicGlobal { addr } => atomics.push((addr, addr + 4)),
                _ => {}
            }
        }
    }
    merge_intervals(&mut reads);
    merge_intervals(&mut writes);
    merge_intervals(&mut atomics);
    gaccess
        .reads
        .extend(reads.into_iter().map(|(a, b)| (a, b, block)));
    gaccess
        .writes
        .extend(writes.into_iter().map(|(a, b)| (a, b, block)));
    gaccess
        .atomics
        .extend(atomics.into_iter().map(|(a, b)| (a, b, block)));
}

#[allow(clippy::too_many_arguments)]
fn scan_unjoined_reads(
    st: &mut CheckState,
    traces: &[Vec<Op>],
    ranges: &[(u32, u32)],
    delims: &[Op],
    nsegs: usize,
    kernel: &str,
    grid: usize,
    block: u32,
) {
    let mut block_unjoined: Vec<usize> = Vec::new();
    let mut reads: Vec<(u64, u64)> = Vec::new();
    let mut children: Vec<usize> = Vec::new();
    for seg in 0..nsegs {
        let mut seg_launches: Vec<usize> = Vec::new();
        for (lane, t) in traces.iter().enumerate() {
            let (a, b) = ranges[lane * nsegs + seg];
            let mut own: Vec<usize> = Vec::new();
            for op in &t[a as usize..b as usize] {
                match *op {
                    Op::Launch { grid: child } => own.push(child as usize),
                    Op::GlobalRead { addr, size }
                        if !(block_unjoined.is_empty() && own.is_empty()) =>
                    {
                        reads.push((addr, addr + u64::from(size)));
                        children.extend(block_unjoined.iter().copied());
                        children.extend(own.iter().copied());
                    }
                    _ => {}
                }
            }
            seg_launches.extend(own);
        }
        block_unjoined.extend(seg_launches);
        if delims.get(seg) == Some(&Op::SyncChildren) {
            block_unjoined.clear();
        }
    }
    if !reads.is_empty() {
        merge_intervals(&mut reads);
        children.sort_unstable();
        children.dedup();
        st.lints.push(PendingLint {
            kernel: kernel.to_string(),
            grid,
            block,
            reads,
            children,
        });
    }
}
