//! Per-thread instruction traces.
//!
//! While a kernel executes functionally, every simulated thread records the
//! sequence of instructions it issued as [`Op`]s. Timing never replays the
//! program — it replays these traces: the 32 lanes of a warp are aligned in
//! lockstep (see [`crate::warp`]) to derive divergence, coalescing and
//! serialization behaviour, exactly the quantities `nvprof` reports and the
//! paper analyzes.

/// One instruction issued by one simulated thread.
///
/// `Sync` and `SyncChildren` are *segment delimiters*: they must be issued
/// uniformly by every thread of a block (the CUDA requirement for
/// `__syncthreads`), which the block executor asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `n` back-to-back arithmetic instructions (run-length encoded so that
    /// large arithmetic bodies do not inflate trace memory).
    Compute(u32),
    /// Global-memory load of `size` bytes at `addr`.
    GlobalRead { addr: u64, size: u8 },
    /// Global-memory store of `size` bytes at `addr`.
    GlobalWrite { addr: u64, size: u8 },
    /// Shared-memory load at byte offset `addr` within the block's space.
    SharedRead { addr: u32 },
    /// Shared-memory store at byte offset `addr`.
    SharedWrite { addr: u32 },
    /// Atomic read-modify-write on global memory at `addr`.
    AtomicGlobal { addr: u64 },
    /// Atomic read-modify-write on shared memory at byte offset `addr`.
    AtomicShared { addr: u32 },
    /// Device-side kernel launch of grid `grid` (index into the engine's
    /// grid table). Launches by multiple lanes of one warp serialize.
    Launch { grid: u32 },
    /// Block-wide barrier (`__syncthreads`).
    Sync,
    /// Block-wide barrier that additionally waits for every child grid this
    /// block has launched so far (the template idiom for
    /// `cudaDeviceSynchronize` inside a parent kernel).
    SyncChildren,
}

impl Op {
    /// Whether this op delimits a barrier segment.
    pub(crate) fn is_delimiter(self) -> bool {
        matches!(self, Op::Sync | Op::SyncChildren)
    }

    /// Dispatch group for lockstep alignment: divergent ops of different
    /// kinds at the same trace position serialize into separate issue
    /// groups, which is how SIMT hardware handles intra-warp divergence.
    /// The aligner's gather pass inlines this mapping; the method serves
    /// the reference aligner and the coverage test. Barriers have no group:
    /// they are segment boundaries, stripped before alignment.
    #[cfg(test)]
    pub(crate) fn group(self) -> OpGroup {
        match self {
            Op::Compute(_) => OpGroup::Compute,
            Op::GlobalRead { .. } => OpGroup::GlobalRead,
            Op::GlobalWrite { .. } => OpGroup::GlobalWrite,
            Op::SharedRead { .. } => OpGroup::SharedRead,
            Op::SharedWrite { .. } => OpGroup::SharedWrite,
            Op::AtomicGlobal { .. } => OpGroup::AtomicGlobal,
            Op::AtomicShared { .. } => OpGroup::AtomicShared,
            Op::Launch { .. } => OpGroup::Launch,
            Op::Sync | Op::SyncChildren => unreachable!("barriers are never aligned"),
        }
    }
}

/// Where a block's barriers sit, recorded as the block issues them
/// ([`crate::BlockCtx::sync`] and [`crate::BlockCtx::sync_children`] push
/// one delimiter to every lane at once). The barrier check, the hazard
/// checker's segmentation and block alignment all read this record instead
/// of re-walking the traces for delimiters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Barriers {
    /// Delimiter ops in issue order.
    pub kinds: Vec<Op>,
    /// `pos[k * lanes + l]`: index of barrier `k` in lane `l`'s trace.
    pub pos: Vec<u32>,
    /// Lanes of the block.
    pub lanes: usize,
    /// Why the lanes disagree on their barrier sequence, for traces built
    /// by hand ([`Barriers::from_traces`]); a recording block never
    /// diverges. `kinds` and `pos` are meaningless when set.
    pub divergence: Option<String>,
}

impl Barriers {
    /// Reset for a block of `lanes` threads, keeping capacity.
    pub fn reset(&mut self, lanes: usize) {
        self.kinds.clear();
        self.pos.clear();
        self.lanes = lanes;
        self.divergence = None;
    }

    /// Record barrier `op` at the current end of every lane's trace; the
    /// caller pushes the delimiter right after.
    pub fn record(&mut self, op: Op, traces: &[Vec<Op>]) {
        debug_assert!(op.is_delimiter());
        self.kinds.push(op);
        self.pos.extend(traces.iter().map(|t| t.len() as u32));
    }

    /// Barrier segments (at least one).
    pub fn segments(&self) -> usize {
        self.kinds.len() + 1
    }

    /// Op range `[start, end)` of `lane`'s segment `seg` in a trace of
    /// `len` ops, delimiters excluded.
    #[inline]
    pub fn range(&self, lane: usize, seg: usize, len: usize) -> (usize, usize) {
        let start = if seg == 0 {
            0
        } else {
            self.pos[(seg - 1) * self.lanes + lane] as usize + 1
        };
        let end = if seg == self.kinds.len() {
            len
        } else {
            self.pos[seg * self.lanes + lane] as usize
        };
        (start, end)
    }

    /// Derive the record from traces built by hand, comparing every lane's
    /// delimiter sequence against thread 0's. A disagreement is kept in
    /// `divergence` with a located description of the first one.
    pub fn from_traces(traces: &[Vec<Op>]) -> Barriers {
        let mut b = Barriers {
            lanes: traces.len(),
            ..Default::default()
        };
        let Some(first) = traces.first() else {
            return b;
        };
        b.kinds = first.iter().copied().filter(|o| o.is_delimiter()).collect();
        b.pos = vec![0; b.kinds.len() * traces.len()];
        for (lane, t) in traces.iter().enumerate() {
            let mut mine = t
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_delimiter())
                .map(|(i, &o)| (i, o));
            for (k, &want) in b.kinds.iter().enumerate() {
                match mine.next() {
                    Some((i, got)) if got == want => b.pos[k * traces.len() + lane] = i as u32,
                    Some((_, got)) => {
                        b.divergence = Some(format!(
                            "thread {lane} issued {got:?} at barrier #{k} where \
                             thread 0 issued {want:?}"
                        ));
                        return b;
                    }
                    None => {
                        b.divergence = Some(format!(
                            "thread {lane} issued {k} barrier(s) but thread 0 \
                             issued {}",
                            b.kinds.len()
                        ));
                        return b;
                    }
                }
            }
            let extra = mine.count();
            if extra > 0 {
                b.divergence = Some(format!(
                    "thread {lane} issued {} barrier(s) but thread 0 issued {}",
                    b.kinds.len() + extra,
                    b.kinds.len()
                ));
                return b;
            }
        }
        b
    }
}

/// Alignment groups; the numeric order fixes the deterministic issue order
/// of divergent groups within one lockstep step.
#[allow(clippy::disallowed_methods)] // derived PartialOrd: unit variants, total order
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub(crate) enum OpGroup {
    Compute = 0,
    GlobalRead = 1,
    GlobalWrite = 2,
    SharedRead = 3,
    SharedWrite = 4,
    AtomicGlobal = 5,
    AtomicShared = 6,
    Launch = 7,
}

/// All alignment groups, in issue order.
pub(crate) const ISSUE_GROUPS: [OpGroup; 8] = [
    OpGroup::Compute,
    OpGroup::GlobalRead,
    OpGroup::GlobalWrite,
    OpGroup::SharedRead,
    OpGroup::SharedWrite,
    OpGroup::AtomicGlobal,
    OpGroup::AtomicShared,
    OpGroup::Launch,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delimiters() {
        assert!(Op::Sync.is_delimiter());
        assert!(Op::SyncChildren.is_delimiter());
        assert!(!Op::Compute(3).is_delimiter());
        assert!(!Op::GlobalRead { addr: 0, size: 4 }.is_delimiter());
    }

    #[test]
    fn groups_cover_all_ops() {
        let ops = [
            Op::Compute(1),
            Op::GlobalRead { addr: 0, size: 4 },
            Op::GlobalWrite { addr: 0, size: 4 },
            Op::SharedRead { addr: 0 },
            Op::SharedWrite { addr: 0 },
            Op::AtomicGlobal { addr: 0 },
            Op::AtomicShared { addr: 0 },
            Op::Launch { grid: 0 },
        ];
        let mut groups: Vec<_> = ops.iter().map(|o| o.group()).collect();
        groups.sort();
        groups.dedup();
        assert_eq!(groups.len(), ops.len());
        assert_eq!(groups, ISSUE_GROUPS.to_vec());
    }

    #[test]
    fn op_is_small() {
        // Traces hold tens of millions of these; keep them at 16 bytes.
        assert!(std::mem::size_of::<Op>() <= 16);
    }
}
