//! Barrier and dynamic-parallelism synchronization checks.

use super::{merge_intervals, CheckState, PendingLint};
use crate::trace::{Barriers, Op};

/// Make divergent traces safe for the timing path: truncate every lane at
/// its first barrier, leaving a single barrier-free segment. The block's
/// timing is then a best-effort prefix — acceptable for a block that is
/// already reported as structurally broken.
pub(crate) fn sanitize_divergent(traces: &mut [Vec<Op>]) {
    for t in traces.iter_mut() {
        if let Some(p) = t.iter().position(|o| o.is_delimiter()) {
            t.truncate(p);
        }
    }
}

/// Lint fire-and-forget dynamic parallelism: record the global reads a
/// block performs while it has launched children it never joined. A child
/// grid only runs at the parent's `sync_children` or after the parent grid
/// completes, so such reads can never observe the child's writes in the
/// order the programmer usually expects — if the child writes what the
/// parent read, that is flagged (resolution happens once the children have
/// executed; see [`super::resolve_lints`]).
///
/// Scope of "unjoined" at a given read: children launched by any lane in
/// an earlier barrier segment (a plain `Sync` does not join children —
/// only `SyncChildren` clears them), plus children the *same lane*
/// launched earlier in the current segment.
///
/// Only a block with a launch can produce a lint, so the checker runs this
/// walk for launch-bearing blocks alone.
pub(crate) fn scan_unjoined_reads(
    st: &mut CheckState,
    traces: &[Vec<Op>],
    barriers: &Barriers,
    kernel: &str,
    grid: usize,
    block: u32,
) {
    let mut block_unjoined: Vec<usize> = Vec::new();
    let mut reads: Vec<(u64, u64)> = Vec::new();
    let mut children: Vec<usize> = Vec::new();
    for seg in 0..barriers.segments() {
        let mut seg_launches: Vec<usize> = Vec::new();
        for (lane, t) in traces.iter().enumerate() {
            let (a, b) = barriers.range(lane, seg, t.len());
            let mut own: Vec<usize> = Vec::new();
            for op in &t[a..b] {
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
        // Crossing the segment's closing barrier: SyncChildren joins every
        // child launched so far; a plain Sync leaves them pending.
        block_unjoined.extend(seg_launches);
        if barriers.kinds.get(seg) == Some(&Op::SyncChildren) {
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
