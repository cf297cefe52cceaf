//! Device and host configuration.
//!
//! The simulator is parameterized by a [`DeviceConfig`] describing the GPU's
//! hardware hierarchy (streaming multiprocessors, cores, warps, occupancy
//! limits) and a [`CpuConfig`] describing the host CPU used for serial
//! baselines. The defaults model the testbed of the ICPP'15 paper: an Nvidia
//! Tesla K20 (Kepler GK110) and an Intel Xeon E5-2620.

use serde::{Deserialize, Serialize};

use crate::check::CheckLevel;
use crate::consolidate::ConsolidateMode;
use crate::error::SimError;
use crate::kernel::LaunchConfig;

/// Static description of the simulated GPU.
///
/// All limits are per the CUDA programming guide for the modeled compute
/// capability. The device scheduler enforces the per-SM
/// occupancy limits; the [`crate::occupancy`] module mirrors the CUDA
/// occupancy calculator over the same fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Human-readable device name, reported in [`crate::profiler::Report`].
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM. `cores_per_sm / warp_size` is the per-cycle warp
    /// issue width used by the scheduler.
    pub cores_per_sm: u32,
    /// Threads per warp (32 on every CUDA device to date).
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Maximum shared memory per block in bytes.
    pub shared_mem_per_block: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Registers allocated per thread. CUDA kernels declare this at compile
    /// time; the paper's kernels have low register pressure, so the default
    /// is a modest 32.
    pub registers_per_thread: u32,
    /// Maximum number of blocks in the x-dimension of a grid.
    pub max_grid_dim: u32,
    /// Core clock in GHz; converts cycles to seconds.
    pub clock_ghz: f64,
    /// Global-memory transaction size in bytes (L1 cache line on Kepler).
    pub mem_transaction_bytes: u32,
    /// Number of shared-memory banks.
    pub shared_banks: u32,
    /// Size of the device runtime's fixed pending-launch pool. Nested
    /// launches beyond this backlog spill to the virtualized pool and pay
    /// [`crate::cost::CostModel::pool_overflow_factor`]
    /// (`cudaLimitDevRuntimePendingLaunchCount`, default 2048 on Kepler).
    pub pending_launch_limit: u32,
    /// Hazard-checker severity (see [`crate::check`]). `Off` by default —
    /// like running without `cuda-memcheck`.
    pub check: CheckLevel,
    /// Whether the simulator memoizes warp/block alignment by trace
    /// fingerprint (see [`crate::profiler::SimStats`] and DESIGN.md §8).
    /// Purely a host-side speedup: reports are bit-identical either way.
    /// On by default; `--no-memo` / [`crate::Gpu::with_memo`] disable it.
    pub memo: bool,
    /// Whether the timing pass takes the cohort-batching and
    /// homogeneous-grid fast-forward shortcuts (DESIGN.md §11). Like
    /// `memo`, a pure host-side speedup: reports and profiler timelines
    /// are bit-identical either way. On by default; `--fast-forward=off` /
    /// [`crate::Gpu::with_fast_forward`] disable it for ablation and
    /// differential testing.
    pub fast_forward: bool,
    /// Whether npar-check may elide per-block scans for kernels
    /// npar-analyze has statically proven clean (see [`crate::analyze`]
    /// and DESIGN.md §12). Elision only ever skips work the dynamic
    /// checker would have passed, so hazard reports are identical either
    /// way; `--no-elide` / [`crate::Gpu::with_elide`] disable it for
    /// differential testing and auditing. Has no effect while the checker
    /// is [`CheckLevel::Off`].
    pub elide: bool,
    /// Whether npar-analyze collects kernel analyses even when elision is
    /// inactive (e.g. with the checker off). Off by default; `--analyze` /
    /// [`crate::Gpu::with_analyze`] enable it. Elision implies analysis.
    pub analyze: bool,
    /// Worker lanes for the timing pass (DESIGN.md §13). At `1` (the
    /// default) the event loop runs serially; above `1` independent
    /// *timing domains* — connected components of the stream/launch
    /// coupling graph — are simulated on separate calendar queues and
    /// merged back in the exact serial event order, so reports and
    /// profiler timelines are bit-identical at any setting.
    /// `--timing-threads=N` / [`crate::Gpu::with_timing_threads`].
    pub timing_threads: usize,
    /// Workload-consolidation mode for dynamic parallelism (DESIGN.md
    /// §15): how sibling device launches are aggregated into consolidated
    /// grids — and tiny leaves inlined — before the timing pass. Changes
    /// *modeled* time only; kernel memory and hazard reports are identical
    /// at any setting. `Off` by default; `--consolidate` /
    /// [`crate::Gpu::with_consolidation`] select a mode.
    pub consolidate: ConsolidateMode,
    /// Child grids at or below this many total threads are inlined as
    /// serial work in the launching thread instead of launched, when
    /// `consolidate` is not `Off` (the Wu/Li/Becchi threshold transform).
    pub consolidate_inline_threshold: u32,
}

impl DeviceConfig {
    /// Nvidia Tesla K20 (GK110, compute capability 3.5) — the paper's GPU.
    pub fn kepler_k20() -> Self {
        DeviceConfig {
            name: "Tesla K20 (simulated)".to_string(),
            num_sms: 13,
            cores_per_sm: 192,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            shared_mem_per_sm: 48 * 1024,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            registers_per_sm: 65536,
            registers_per_thread: 32,
            max_grid_dim: 2_147_483_647,
            clock_ghz: 0.706,
            mem_transaction_bytes: 128,
            shared_banks: 32,
            pending_launch_limit: 2048,
            check: CheckLevel::Off,
            memo: true,
            fast_forward: true,
            elide: true,
            analyze: false,
            timing_threads: 1,
            consolidate: ConsolidateMode::Off,
            consolidate_inline_threshold: 64,
        }
    }

    /// Nvidia GTX Titan (GK110, 14 SMX at a higher clock) — a second
    /// Kepler part for cross-device checks of the template orderings.
    pub fn gtx_titan() -> Self {
        DeviceConfig {
            name: "GTX Titan (simulated)".to_string(),
            num_sms: 14,
            clock_ghz: 0.837,
            ..Self::kepler_k20()
        }
    }

    /// A deliberately tiny device useful in unit tests: 2 SMs, 64 cores
    /// each, room for 4 blocks / 256 threads per SM.
    pub fn tiny() -> Self {
        DeviceConfig {
            name: "tiny-test-device".to_string(),
            num_sms: 2,
            cores_per_sm: 64,
            warp_size: 32,
            max_threads_per_sm: 256,
            max_blocks_per_sm: 4,
            max_warps_per_sm: 8,
            shared_mem_per_sm: 16 * 1024,
            shared_mem_per_block: 16 * 1024,
            max_threads_per_block: 256,
            registers_per_sm: 32768,
            registers_per_thread: 32,
            max_grid_dim: 65535,
            clock_ghz: 1.0,
            mem_transaction_bytes: 128,
            shared_banks: 32,
            pending_launch_limit: 64,
            check: CheckLevel::Off,
            memo: true,
            fast_forward: true,
            elide: true,
            analyze: false,
            timing_threads: 1,
            consolidate: ConsolidateMode::Off,
            consolidate_inline_threshold: 64,
        }
    }

    /// Check a launch configuration against this device: a warp size the
    /// aligner holds (a power of two up to 64), nonzero grid and block
    /// within the per-launch limits, and a block one SM can hold
    /// (threads, warps, registers and shared memory). [`crate::Gpu::launch`]
    /// refuses any other configuration with
    /// [`crate::SimError::InvalidLaunch`]; a device-side launch records it as
    /// an [`crate::HazardKind::InvalidChildLaunch`] diagnostic.
    pub fn validate_launch(&self, cfg: &LaunchConfig) -> Result<(), SimError> {
        // The aligner tracks a warp's lanes in 64-wide buffers and scales
        // by the reciprocal of the width, exact only for powers of two.
        if !self.warp_size.is_power_of_two() || self.warp_size as usize > crate::warp::MAX_WARP {
            return Err(SimError::InvalidLaunch(format!(
                "warp_size {} is not a power of two in 1..={}",
                self.warp_size,
                crate::warp::MAX_WARP
            )));
        }
        if cfg.grid_dim == 0 || cfg.block_dim == 0 {
            return Err(SimError::InvalidLaunch(
                "grid and block dimensions must be >= 1".into(),
            ));
        }
        if cfg.block_dim > self.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "block_dim {} exceeds device limit {}",
                cfg.block_dim, self.max_threads_per_block
            )));
        }
        if cfg.grid_dim > self.max_grid_dim {
            return Err(SimError::InvalidLaunch(format!(
                "grid_dim {} exceeds device limit {}",
                cfg.grid_dim, self.max_grid_dim
            )));
        }
        if cfg.shared_mem_bytes > self.shared_mem_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "shared memory {} exceeds per-block limit {}",
                cfg.shared_mem_bytes, self.shared_mem_per_block
            )));
        }
        // A block within every per-block limit can still exceed one SM's
        // capacity; the scheduler would then never place it and the report
        // would show launch overhead alone.
        if crate::occupancy::block_residency_limit(self, cfg.block_dim, cfg.shared_mem_bytes) == 0 {
            return Err(SimError::InvalidLaunch(format!(
                "no SM can hold a block of {} thread(s) and {} byte(s) of shared memory \
                 (per SM: {} threads, {} blocks, {} warps of {}, {} registers at {} per \
                 thread, {} bytes of shared memory)",
                cfg.block_dim,
                cfg.shared_mem_bytes,
                self.max_threads_per_sm,
                self.max_blocks_per_sm,
                self.max_warps_per_sm,
                self.warp_size,
                self.registers_per_sm,
                self.registers_per_thread,
                self.shared_mem_per_sm
            )));
        }
        Ok(())
    }

    /// Per-cycle warp issue width of one SM.
    pub fn issue_width(&self) -> f64 {
        f64::from(self.cores_per_sm) / f64::from(self.warp_size)
    }

    /// Convert a cycle count to seconds at the device clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::kepler_k20()
    }
}

/// Static description of the host CPU used for serial baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Human-readable name.
    pub name: String,
    /// Effective clock in GHz (sustained single-core, not boost peak).
    pub clock_ghz: f64,
}

impl CpuConfig {
    /// Intel Xeon E5-2620 (Sandy Bridge EP, 2.0 GHz base) — the paper's CPU.
    pub fn xeon_e5_2620() -> Self {
        CpuConfig {
            name: "Xeon E5-2620 (modeled)".to_string(),
            clock_ghz: 2.0,
        }
    }

    /// Convert a cycle count to seconds at the host clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::xeon_e5_2620()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20_matches_published_specs() {
        let d = DeviceConfig::kepler_k20();
        assert_eq!(d.num_sms, 13);
        assert_eq!(d.cores_per_sm, 192);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.max_warps_per_sm, 64);
        assert_eq!(d.max_threads_per_sm, 2048);
        assert!((d.issue_width() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_conversion_is_linear() {
        let d = DeviceConfig::kepler_k20();
        let one = d.cycles_to_seconds(d.clock_ghz * 1e9);
        assert!((one - 1.0).abs() < 1e-12);
        assert_eq!(d.cycles_to_seconds(0.0), 0.0);
    }

    #[test]
    fn tiny_device_is_consistent() {
        let d = DeviceConfig::tiny();
        assert!(d.max_warps_per_sm * d.warp_size <= d.max_threads_per_sm);
        assert!(d.issue_width() >= 1.0);
    }

    #[test]
    fn cpu_conversion() {
        let c = CpuConfig::xeon_e5_2620();
        assert!((c.cycles_to_seconds(2e9) - 1.0).abs() < 1e-12);
    }
}
