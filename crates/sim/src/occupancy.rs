//! CUDA-occupancy-calculator equivalent: given a block configuration,
//! compute how many blocks fit on one SM and the resulting theoretical
//! occupancy. The paper uses this to pick its 192-thread blocks for
//! thread-mapped kernels and its small 64-thread blocks for block-mapped
//! phases (Section III.B).

use crate::config::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Which hardware limit caps residency for a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Limiter {
    /// Max resident blocks per SM.
    Blocks,
    /// Max resident threads / warps per SM.
    Threads,
    /// Shared-memory capacity.
    SharedMemory,
    /// Register file capacity.
    Registers,
}

impl std::fmt::Display for Limiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Limiter::Blocks => "blocks",
            Limiter::Threads => "threads",
            Limiter::SharedMemory => "shared-memory",
            Limiter::Registers => "registers",
        })
    }
}

/// Occupancy-calculator output for one block configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// `warps_per_sm / max_warps_per_sm`.
    pub occupancy: f64,
    /// The binding limit.
    pub limiter: Limiter,
}

/// Per-SM block-residency limit for one configuration: the `min` over the
/// four hardware limits, exactly the ceiling the scheduler's placement
/// scan can reach by repeated `block_fits`. Shared by [`occupancy`] and
/// launch validation ([`DeviceConfig::validate_launch`]), which is why it
/// makes no block-size assertion: validation calls it on configurations
/// it has not accepted yet.
pub(crate) fn block_residency_limit(
    device: &DeviceConfig,
    block_dim: u32,
    shared_mem_bytes: u32,
) -> u32 {
    let warps_per_block = block_dim.div_ceil(device.warp_size).max(1);
    let by_blocks = device.max_blocks_per_sm;
    let by_threads = (device.max_threads_per_sm / block_dim.max(1))
        .min(device.max_warps_per_sm / warps_per_block);
    let by_smem = device
        .shared_mem_per_sm
        .checked_div(shared_mem_bytes)
        .unwrap_or(u32::MAX);
    let regs_per_block = block_dim * device.registers_per_thread;
    let by_regs = device
        .registers_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(u32::MAX);
    by_blocks.min(by_threads).min(by_smem).min(by_regs)
}

/// Compute theoretical occupancy for `block_dim`-thread blocks using
/// `shared_mem_bytes` of shared memory per block.
pub fn occupancy(device: &DeviceConfig, block_dim: u32, shared_mem_bytes: u32) -> Occupancy {
    assert!(block_dim >= 1 && block_dim <= device.max_threads_per_block);
    let warps_per_block = block_dim.div_ceil(device.warp_size);
    let by_blocks = device.max_blocks_per_sm;
    let by_threads =
        (device.max_threads_per_sm / block_dim).min(device.max_warps_per_sm / warps_per_block);
    let by_smem = device
        .shared_mem_per_sm
        .checked_div(shared_mem_bytes)
        .unwrap_or(u32::MAX);

    let blocks = block_residency_limit(device, block_dim, shared_mem_bytes);
    let limiter = if blocks == by_blocks {
        Limiter::Blocks
    } else if blocks == by_threads {
        Limiter::Threads
    } else if blocks == by_smem {
        Limiter::SharedMemory
    } else {
        Limiter::Registers
    };
    let warps = blocks * warps_per_block;
    Occupancy {
        blocks_per_sm: blocks,
        warps_per_sm: warps,
        occupancy: f64::from(warps) / f64::from(device.max_warps_per_sm),
        limiter,
    }
}

/// Scan block sizes (multiples of the warp size) and return the smallest
/// one achieving the maximum theoretical occupancy — what a programmer
/// reads off the CUDA occupancy calculator.
pub fn best_block_size(device: &DeviceConfig, shared_mem_bytes: u32) -> u32 {
    let mut best = device.warp_size;
    let mut best_occ = 0.0;
    let mut size = device.warp_size;
    while size <= device.max_threads_per_block {
        let o = occupancy(device, size, shared_mem_bytes);
        if o.occupancy > best_occ + 1e-12 {
            best_occ = o.occupancy;
            best = size;
        }
        size += device.warp_size;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20_192_thread_blocks() {
        // The paper's thread-mapped configuration: 192 threads/block.
        let d = DeviceConfig::kepler_k20();
        let o = occupancy(&d, 192, 0);
        // 2048/192 = 10 blocks, 60 warps of 64 -> 93.75%.
        assert_eq!(o.blocks_per_sm, 10);
        assert_eq!(o.warps_per_sm, 60);
        assert!((o.occupancy - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn k20_small_blocks_are_block_limited() {
        let d = DeviceConfig::kepler_k20();
        let o = occupancy(&d, 32, 0);
        assert_eq!(o.blocks_per_sm, 16);
        assert_eq!(o.limiter, Limiter::Blocks);
        // 16 warps of 64: only 25% occupancy — why the paper rejects
        // 32-thread blocks for the block-mapped phase.
        assert!((o.occupancy - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_limits() {
        let d = DeviceConfig::kepler_k20();
        let o = occupancy(&d, 64, 24 * 1024);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn best_block_size_reaches_full_occupancy_on_k20() {
        let d = DeviceConfig::kepler_k20();
        let b = best_block_size(&d, 0);
        let o = occupancy(&d, b, 0);
        assert!((o.occupancy - 1.0).abs() < 1e-12);
        // 256 is the smallest block achieving 2048 threads in <=16 blocks.
        assert_eq!(b, 128);
    }

    #[test]
    fn occupancy_monotone_in_shared_mem() {
        let d = DeviceConfig::kepler_k20();
        let lo = occupancy(&d, 128, 1024).occupancy;
        let hi = occupancy(&d, 128, 16 * 1024).occupancy;
        assert!(lo >= hi);
    }
}
