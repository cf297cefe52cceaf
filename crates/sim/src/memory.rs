//! Memory-system models: global-memory coalescing and shared-memory bank
//! conflicts.
//!
//! Coalescing follows the Kepler L1 model the paper profiles against: a warp
//! memory instruction is serviced in units of `mem_transaction_bytes`
//! (128-byte cache lines); the number of *distinct* lines touched by the
//! active lanes is the transaction count. `nvprof`'s `gld_efficiency` /
//! `gst_efficiency` are then requested bytes over transferred bytes —
//! fully-coalesced 4-byte accesses hit 100 %, a fully scattered warp hits
//! 32 lanes × 4 B / 32 lines × 128 B ≈ 3.1 %, which is exactly the range
//! Table I of the paper reports.

/// Result of coalescing analysis for one warp memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Coalesce {
    /// Bytes the lanes actually asked for.
    pub requested_bytes: u64,
    /// Distinct transactions (cache lines) needed to service them.
    pub transactions: u64,
}

/// Analyze one warp-wide global access. `accesses` yields `(addr, size)`
/// for each active lane. Lines are counted as they arrive while they stay
/// non-decreasing (the common case: lanes in order over ascending
/// addresses); the first line below its predecessor falls back to
/// collecting every line into the caller-provided `scratch` and sorting.
pub(crate) fn coalesce<I>(accesses: I, line_bytes: u32, scratch: &mut Vec<u64>) -> Coalesce
where
    I: IntoIterator<Item = (u64, u8)>,
    I::IntoIter: Clone,
{
    debug_assert!(line_bytes.is_power_of_two());
    let shift = line_bytes.trailing_zeros();
    // A single lane access can straddle a line boundary.
    let lines = move |(addr, size): (u64, u8)| {
        (addr >> shift, (addr + u64::from(size).max(1) - 1) >> shift)
    };
    let accesses = accesses.into_iter();
    let mut requested = 0u64;
    let mut transactions = 0u64;
    // The highest line counted so far.
    let mut top: Option<u64> = None;
    for access in accesses.clone() {
        let (first, last) = lines(access);
        match top {
            Some(t) if first < t => return coalesce_sorted(accesses, lines, scratch),
            Some(t) if first == t => transactions += last - first,
            _ => transactions += last - first + 1,
        }
        requested += u64::from(access.1);
        top = Some(last);
    }
    Coalesce {
        requested_bytes: requested,
        transactions,
    }
}

/// [`coalesce`] for accesses whose lines arrive out of order: collect,
/// sort and dedup.
#[cold]
fn coalesce_sorted(
    accesses: impl Iterator<Item = (u64, u8)>,
    lines: impl Fn((u64, u8)) -> (u64, u64),
    scratch: &mut Vec<u64>,
) -> Coalesce {
    scratch.clear();
    let mut requested = 0u64;
    for access in accesses {
        requested += u64::from(access.1);
        let (first, last) = lines(access);
        scratch.extend(first..=last);
    }
    scratch.sort_unstable();
    scratch.dedup();
    Coalesce {
        requested_bytes: requested,
        transactions: scratch.len() as u64,
    }
}

/// Number of shared-memory replays for one warp access: the maximum number
/// of active lanes hitting the same bank (banks are 4-byte interleaved).
/// A conflict-free access replays once.
pub(crate) fn bank_replays(addrs: &[u32], banks: u32, scratch: &mut Vec<u32>) -> u64 {
    if addrs.is_empty() {
        return 0;
    }
    scratch.clear();
    scratch.extend(addrs.iter().map(|a| (a / 4) % banks));
    scratch.sort_unstable();
    let mut max_mult = 1u64;
    let mut run = 1u64;
    for w in scratch.windows(2) {
        if w[0] == w[1] {
            run += 1;
            max_mult = max_mult.max(run);
        } else {
            run = 1;
        }
    }
    max_mult
}

/// Maximum number of entries sharing one value — used for atomic-conflict
/// serialization (lanes atomically updating the same address serialize).
pub(crate) fn max_multiplicity(addrs: &mut [u64]) -> u64 {
    if addrs.is_empty() {
        return 0;
    }
    addrs.sort_unstable();
    let mut max_mult = 1u64;
    let mut run = 1u64;
    for i in 1..addrs.len() {
        if addrs[i] == addrs[i - 1] {
            run += 1;
            max_mult = max_mult.max(run);
        } else {
            run = 1;
        }
    }
    max_mult
}

#[cfg(test)]
mod tests {
    use super::*;

    fn co(accesses: &[(u64, u8)]) -> Coalesce {
        let mut scratch = Vec::new();
        coalesce(accesses.iter().copied(), 128, &mut scratch)
    }

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        let accesses: Vec<(u64, u8)> = (0..32).map(|i| (i * 4, 4)).collect();
        let c = co(&accesses);
        assert_eq!(c.transactions, 1);
        assert_eq!(c.requested_bytes, 128);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_lane() {
        let accesses: Vec<(u64, u8)> = (0..32).map(|i| (i * 4096, 4)).collect();
        let c = co(&accesses);
        assert_eq!(c.transactions, 32);
        assert_eq!(c.requested_bytes, 128);
    }

    #[test]
    fn straddling_access_counts_both_lines() {
        let c = co(&[(126, 4)]);
        assert_eq!(c.transactions, 2);
    }

    #[test]
    fn duplicate_addresses_coalesce() {
        let accesses: Vec<(u64, u8)> = (0..32).map(|_| (256, 4)).collect();
        let c = co(&accesses);
        assert_eq!(c.transactions, 1);
    }

    #[test]
    fn empty_access_list() {
        let c = co(&[]);
        assert_eq!(c.transactions, 0);
        assert_eq!(c.requested_bytes, 0);
    }

    #[test]
    fn bank_conflicts() {
        let mut s = Vec::new();
        // 32 lanes, consecutive words: conflict-free.
        let free: Vec<u32> = (0..32).map(|i| i * 4).collect();
        assert_eq!(bank_replays(&free, 32, &mut s), 1);
        // All lanes to the same bank (stride 32 words): 32-way conflict.
        let bad: Vec<u32> = (0..32).map(|i| i * 32 * 4).collect();
        assert_eq!(bank_replays(&bad, 32, &mut s), 32);
        // Stride-2 words: 2-way conflict.
        let two: Vec<u32> = (0..32).map(|i| i * 8).collect();
        assert_eq!(bank_replays(&two, 32, &mut s), 2);
        assert_eq!(bank_replays(&[], 32, &mut s), 0);
    }

    #[test]
    fn multiplicity() {
        assert_eq!(max_multiplicity(&mut []), 0);
        assert_eq!(max_multiplicity(&mut [1, 2, 3]), 1);
        assert_eq!(max_multiplicity(&mut [5, 5, 5, 2, 2]), 3);
        assert_eq!(max_multiplicity(&mut vec![7; 32]), 32);
    }
}
