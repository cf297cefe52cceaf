//! Memory-bounds checks: shared-memory accesses against the block's
//! declared shared size, and device-side launch configuration validation.

use super::{Hazard, HazardKind};
use crate::kernel::LaunchConfig;

/// Describe shared-memory traffic beyond the launch's declared
/// `shared_mem_bytes`. On hardware this silently corrupts a neighbouring
/// block's shared space (or faults); the simulator's timing model does not
/// care, which is exactly why kernels under-declaring their shared usage
/// also report impossible occupancy. The checker's walk reports one such
/// diagnostic per block — the first offending access in thread order —
/// which keeps a systematically wrong kernel readable.
pub(crate) fn shared_out_of_bounds(
    kernel: &str,
    grid: usize,
    block: u32,
    lane: usize,
    addr: u32,
    limit: u32,
) -> Hazard {
    // Every shared access models one 4-byte word.
    let word_end = u64::from(addr) + 4;
    Hazard {
        kind: HazardKind::SharedOutOfBounds,
        kernel: kernel.to_string(),
        grid,
        block,
        details: format!(
            "thread {lane} accessed shared offset {addr:#x} (word end \
             {word_end:#x}) but the launch declared {limit} byte(s) of shared \
             memory"
        ),
    }
}

/// Describe a rejected device-side launch for the diagnostic record.
pub(crate) fn invalid_child_launch(
    kernel: &str,
    grid: usize,
    block: u32,
    thread: u32,
    cfg: &LaunchConfig,
    err: &crate::error::SimError,
) -> Hazard {
    Hazard {
        kind: HazardKind::InvalidChildLaunch,
        kernel: kernel.to_string(),
        grid,
        block,
        details: format!(
            "thread {thread} launched a child grid with grid_dim {} block_dim {} \
             shared {}: {err}",
            cfg.grid_dim, cfg.block_dim, cfg.shared_mem_bytes
        ),
    }
}
