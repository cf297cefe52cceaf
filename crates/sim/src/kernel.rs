//! Kernel abstraction: launch configurations, streams, and the [`Kernel`]
//! trait implemented by every simulated GPU kernel.

use std::any::Any;
use std::rc::Rc;

use crate::ctx::BlockCtx;

/// A kernel launch configuration, the `<<<grid, block, smem, stream>>>` of
/// CUDA. Grids and blocks are one-dimensional: every code in the paper is a
/// 1-D mapping over loop iterations or graph/tree nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid. Must be >= 1.
    pub grid_dim: u32,
    /// Threads per block. Must be >= 1 and within the device limit.
    pub block_dim: u32,
    /// Dynamic shared memory per block, in bytes (in addition to whatever
    /// the cost model charges for accesses, this constrains occupancy).
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    /// A grid of `grid_dim` blocks of `block_dim` threads, no dynamic
    /// shared memory.
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
            shared_mem_bytes: 0,
        }
    }

    /// Like [`LaunchConfig::new`] with a dynamic shared-memory reservation.
    pub fn with_shared(grid_dim: u32, block_dim: u32, shared_mem_bytes: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
            shared_mem_bytes,
        }
    }

    /// The grid size that covers `items` work-items with `block_dim`-thread
    /// blocks, clamped to `max_grid` (the caller then uses a grid-stride
    /// loop, as the paper's thread-mapped kernels do).
    pub fn cover(items: usize, block_dim: u32, max_grid: u32) -> Self {
        let blocks = items.div_ceil(block_dim.max(1) as usize).max(1);
        LaunchConfig::new(blocks.min(max_grid as usize) as u32, block_dim)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.block_dim)
    }
}

/// Stream selector for a kernel launch.
///
/// Host launches go to numbered host streams; launches performed *inside* a
/// kernel (dynamic parallelism) go to per-block device streams. Grids in the
/// same stream execute in launch order; grids in different streams may
/// overlap. This mirrors the CUDA semantics the paper leans on: "concurrent
/// execution requires the use of CUDA streams" and its per-thread-block
/// extra streams in Section III.C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// The default stream of the launching scope. For host launches this is
    /// host stream 0; for device launches it is the launching block's
    /// default stream (device launches from one block serialize).
    Default,
    /// An explicitly numbered stream within the launching scope. On the
    /// host: host stream `n`. On the device: the launching block's `n`-th
    /// extra stream (the paper's "one additional stream per thread-block"
    /// variant launches alternately into slots 0 and 1).
    Slot(u32),
}

/// Type-erased per-block mutable state.
///
/// Kernels that stage data in shared memory (delayed-buffer templates) or
/// otherwise communicate between threads of one block across barriers create
/// their working state here; the simulator instantiates it once per block.
pub struct BlockState(Option<Box<dyn Any>>);

impl BlockState {
    /// No per-block state.
    pub fn none() -> Self {
        BlockState(None)
    }

    /// Wrap a concrete state value.
    pub fn new<T: 'static>(value: T) -> Self {
        BlockState(Some(Box::new(value)))
    }

    pub(crate) fn get_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.0.as_mut().and_then(|b| b.downcast_mut::<T>())
    }
}

/// A simulated GPU kernel.
///
/// `run_block` is invoked once per thread block and drives the block's
/// threads through [`BlockCtx::for_each_thread`]; block-wide barriers are
/// expressed with [`BlockCtx::sync`] *between* thread sweeps, which both
/// preserves the functional semantics of `__syncthreads` (all writes before
/// the barrier are visible after it) and records the barrier for timing.
/// Blocks run one at a time, in block order, on the thread that owns the
/// [`crate::Gpu`], so a block sees the functional writes of every
/// lower-numbered block of its grid. A kernel never leaves that thread
/// (only its recorded traces reach the host worker pool), so it needs no
/// `Send` or `Sync`: mutable application state lives in a `RefCell` or
/// `Cell`, shared with the host program through an `Rc`.
///
/// Kernels that need no barrier typically implement [`ThreadKernel`] instead
/// and get this trait via the blanket impl.
///
/// A two-phase kernel with a block-wide barrier, launched like the
/// quickstart example:
///
/// ```
/// use std::rc::Rc;
/// use npar_sim::{BlockCtx, Gpu, Kernel, LaunchConfig};
///
/// /// Stage values into shared memory, barrier, then read them back.
/// struct StageAndSum;
/// impl Kernel for StageAndSum {
///     fn name(&self) -> &str { "stage-and-sum" }
///     fn run_block(&self, blk: &mut BlockCtx<'_>) {
///         blk.for_each_thread(|t| {
///             t.compute(1);
///             t.shared_st(t.thread_idx() * 4); // stage my slot
///         });
///         blk.sync(); // __syncthreads()
///         blk.for_each_thread(|t| {
///             t.shared_ld(((t.thread_idx() + 1) % t.block_dim()) * 4);
///             t.compute(1);
///         });
///     }
/// }
///
/// let mut gpu = Gpu::k20();
/// gpu.launch(Rc::new(StageAndSum), LaunchConfig::new(8, 64)).unwrap();
/// let report = gpu.synchronize();
/// assert_eq!(report.total().barriers, 8); // one per block
/// ```
pub trait Kernel {
    /// Kernel name, used to key profiler metrics (like `nvprof` does).
    fn name(&self) -> &str;

    /// Create the per-block state for block `block_idx` (default: none).
    fn block_state(&self, _block_idx: u32) -> BlockState {
        BlockState::none()
    }

    /// Execute one thread block.
    fn run_block(&self, blk: &mut BlockCtx<'_>);
}

/// Convenience trait for barrier-free kernels: implement a per-thread body
/// and get a [`Kernel`] via the blanket impl. Like [`Kernel`], it runs on
/// the thread that owns the [`crate::Gpu`] and needs no `Send` or `Sync`.
pub trait ThreadKernel {
    /// Kernel name, used to key profiler metrics.
    fn name(&self) -> &str;

    /// Execute one thread.
    fn run_thread(&self, t: &mut crate::ctx::ThreadCtx<'_, '_>);
}

impl<K: ThreadKernel> Kernel for K {
    fn name(&self) -> &str {
        ThreadKernel::name(self)
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        blk.for_each_thread(|t| self.run_thread(t));
    }
}

/// Shared-ownership handle to a kernel, as required for device-side
/// launches (a child kernel must outlive the launching scope).
pub type KernelRef = Rc<dyn Kernel>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_rounds_up_and_clamps() {
        let c = LaunchConfig::cover(1000, 192, 1 << 20);
        assert_eq!(c.grid_dim, 6);
        assert_eq!(c.block_dim, 192);
        let clamped = LaunchConfig::cover(1 << 20, 32, 64);
        assert_eq!(clamped.grid_dim, 64);
        let tiny = LaunchConfig::cover(0, 128, 64);
        assert_eq!(tiny.grid_dim, 1);
    }

    #[test]
    fn total_threads() {
        assert_eq!(LaunchConfig::new(3, 192).total_threads(), 576);
    }

    #[test]
    fn block_state_downcast() {
        let mut s = BlockState::new(vec![1u32, 2, 3]);
        assert_eq!(s.get_mut::<Vec<u32>>().unwrap().len(), 3);
        assert!(s.get_mut::<u64>().is_none());
        let mut none = BlockState::none();
        assert!(none.get_mut::<u32>().is_none());
    }
}
