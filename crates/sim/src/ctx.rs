//! Execution contexts handed to kernels: [`BlockCtx`] drives one thread
//! block, [`ThreadCtx`] records one thread's instruction stream.
//!
//! Functional semantics: threads of a block run sequentially inside each
//! [`BlockCtx::for_each_thread`] sweep, and barriers are expressed *between*
//! sweeps — so everything written before a [`BlockCtx::sync`] is visible to
//! every thread after it, exactly the guarantee `__syncthreads` gives.
//! Timing semantics come from the recorded traces, not execution order.
//!
//! Every block traces on the thread that owns its [`crate::Gpu`], against
//! the engine itself: device launches register immediately and
//! `sync_children` recurses into child execution.

use crate::check::CheckLevel;
use crate::engine::{register_grid, run_subtree, Engine, Origin};
use crate::handle::GBuf;
use crate::kernel::{BlockState, Kernel, KernelRef, LaunchConfig, Stream};
use crate::memo::{BlockFps, Fingerprint};
use crate::trace::{Barriers, Op};

/// What a finished [`BlockCtx`] hands back to its executor.
pub(crate) struct BlockParts {
    pub traces: Vec<Vec<Op>>,
    pub barriers: Barriers,
    pub fps: BlockFps,
    /// Child grids launched and not yet joined.
    pub pending: Vec<usize>,
}

/// Context for one thread block of a running kernel.
pub struct BlockCtx<'e> {
    engine: &'e mut Engine,
    grid_id: usize,
    block_idx: u32,
    cfg: LaunchConfig,
    traces: Vec<Vec<Op>>,
    /// Where the block's barriers sit in `traces` (see [`Barriers`]).
    barriers: Barriers,
    /// Rolling per-thread trace fingerprints (see [`crate::memo`]),
    /// maintained alongside the traces so memoization keys cost one hash
    /// step per recorded op instead of a post-hoc pass.
    fps: BlockFps,
    /// Whether fingerprints roll at all for this block — off when
    /// memoization is disabled or the kernel's fingerprint class is
    /// adaptively bypassed (see [`crate::memo::ClassStats`]).
    fp_on: bool,
    state: BlockState,
    /// Child grids launched by this block and not yet joined.
    pending: Vec<usize>,
}

impl<'e> BlockCtx<'e> {
    #[allow(clippy::too_many_arguments)] // crate-internal; both executors thread the same set
    pub(crate) fn new(
        engine: &'e mut Engine,
        kernel: &dyn Kernel,
        grid_id: usize,
        block_idx: u32,
        cfg: LaunchConfig,
        mut traces: Vec<Vec<Op>>,
        mut barriers: Barriers,
        mut fps: BlockFps,
        fp_on: bool,
    ) -> Self {
        for t in &mut traces {
            t.clear();
        }
        traces.resize_with(cfg.block_dim as usize, Vec::new);
        traces.truncate(cfg.block_dim as usize);
        barriers.reset(cfg.block_dim as usize);
        fps.reset(cfg.block_dim as usize);
        BlockCtx {
            engine,
            grid_id,
            block_idx,
            cfg,
            traces,
            barriers,
            fps,
            fp_on,
            state: kernel.block_state(block_idx),
            pending: Vec::new(),
        }
    }

    pub(crate) fn into_parts(self) -> BlockParts {
        BlockParts {
            traces: self.traces,
            barriers: self.barriers,
            fps: self.fps,
            pending: self.pending,
        }
    }

    /// Index of this block within its grid.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// Threads per block.
    pub fn block_dim(&self) -> u32 {
        self.cfg.block_dim
    }

    /// Blocks in the grid.
    pub fn grid_dim(&self) -> u32 {
        self.cfg.grid_dim
    }

    /// Run `f` once for every thread of the block, in thread order.
    ///
    /// Call it several times with [`BlockCtx::sync`] in between to express
    /// barrier-separated phases.
    pub fn for_each_thread(&mut self, mut f: impl FnMut(&mut ThreadCtx<'_, '_>)) {
        let BlockFps { lanes, base } = &mut self.fps;
        for t in 0..self.cfg.block_dim {
            let mut ctx = ThreadCtx {
                engine: &mut *self.engine,
                trace: &mut self.traces[t as usize],
                fp: &mut lanes[t as usize],
                canon: &mut *base,
                fp_on: self.fp_on,
                state: &mut self.state,
                pending: &mut self.pending,
                grid_id: self.grid_id,
                block_idx: self.block_idx,
                thread_idx: t,
                block_dim: self.cfg.block_dim,
                grid_dim: self.cfg.grid_dim,
                _lifetime: std::marker::PhantomData,
            };
            f(&mut ctx);
        }
    }

    /// Run `f` for the block leader (thread 0) only. Equivalent to a
    /// `for_each_thread` whose closure is guarded by `is_leader()`, but
    /// without touching the other threads — the fast path for the
    /// leader-launches / leader-combines idioms.
    pub fn leader(&mut self, f: impl FnOnce(&mut ThreadCtx<'_, '_>)) {
        let mut ctx = ThreadCtx {
            engine: &mut *self.engine,
            trace: &mut self.traces[0],
            fp: &mut self.fps.lanes[0],
            canon: &mut self.fps.base,
            fp_on: self.fp_on,
            state: &mut self.state,
            pending: &mut self.pending,
            grid_id: self.grid_id,
            block_idx: self.block_idx,
            thread_idx: 0,
            block_dim: self.cfg.block_dim,
            grid_dim: self.cfg.grid_dim,
            _lifetime: std::marker::PhantomData,
        };
        f(&mut ctx);
    }

    /// Block-wide barrier (`__syncthreads`).
    pub fn sync(&mut self) {
        self.barriers.record(Op::Sync, &self.traces);
        for t in &mut self.traces {
            t.push(Op::Sync);
        }
        if self.fp_on {
            for fp in &mut self.fps.lanes {
                fp.record(Op::Sync, 0);
            }
        }
    }

    /// Block-wide barrier that additionally waits for every child grid this
    /// block launched so far (the parent/child join of CUDA dynamic
    /// parallelism). On the simulated device the waiting block is swapped
    /// out and pays a restore penalty when it resumes — the Kepler
    /// behaviour that makes in-kernel synchronization expensive.
    pub fn sync_children(&mut self) {
        // Functional join: drain the block's launched children (and their
        // descendants) so their results are visible after the barrier.
        let pending = std::mem::take(&mut self.pending);
        if !pending.is_empty() {
            // Publish any alignment work the chunked parallel executor
            // deferred, so the child grids observe exactly the cache/metrics
            // state the serial engine would have at this point (no-op on
            // the serial path).
            crate::parallel::flush_chunks(self.engine);
            for child in pending {
                run_subtree(self.engine, child);
            }
        }
        self.barriers.record(Op::SyncChildren, &self.traces);
        for t in &mut self.traces {
            t.push(Op::SyncChildren);
        }
        if self.fp_on {
            for fp in &mut self.fps.lanes {
                fp.record(Op::SyncChildren, 0);
            }
        }
    }

    /// Access the block state created by [`Kernel::block_state`].
    ///
    /// Panics if the block has no state of type `T`.
    pub fn state<T: 'static>(&mut self) -> &mut T {
        self.state
            .get_mut::<T>()
            .expect("block state missing or of unexpected type")
    }
}

/// Context for one thread: indices plus the instruction-recording API.
pub struct ThreadCtx<'b, 'e> {
    engine: &'b mut Engine,
    trace: &'b mut Vec<Op>,
    fp: &'b mut Fingerprint,
    /// The block's canonical global-address base (shared by all threads;
    /// set by the block's first global access). See [`crate::memo`].
    canon: &'b mut Option<u64>,
    fp_on: bool,
    state: &'b mut BlockState,
    pending: &'b mut Vec<usize>,
    grid_id: usize,
    block_idx: u32,
    thread_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    #[allow(dead_code)]
    _lifetime: std::marker::PhantomData<&'e ()>,
}

impl<'b, 'e> ThreadCtx<'b, 'e> {
    /// `threadIdx.x`.
    pub fn thread_idx(&self) -> u32 {
        self.thread_idx
    }

    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Global linear thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub fn global_id(&self) -> usize {
        self.block_idx as usize * self.block_dim as usize + self.thread_idx as usize
    }

    /// Total threads in the grid (grid-stride loop stride).
    pub fn grid_threads(&self) -> usize {
        self.grid_dim as usize * self.block_dim as usize
    }

    /// Whether this thread is the block leader (thread 0).
    pub fn is_leader(&self) -> bool {
        self.thread_idx == 0
    }

    /// Record `n` arithmetic instructions. Consecutive calls fuse.
    pub fn compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        if self.fp_on {
            self.fp.compute(n);
        }
        if let Some(Op::Compute(last)) = self.trace.last_mut() {
            *last += n;
        } else {
            self.trace.push(Op::Compute(n));
        }
    }

    /// Canonical base for fingerprinting global addresses: the block's
    /// first global access, rounded down to the transaction line. Timing is
    /// invariant under line-aligned shifts of the block's whole access set,
    /// so structurally identical blocks at shifted addresses share keys.
    #[inline]
    fn canon_base(&mut self, addr: u64) -> u64 {
        let line = u64::from(self.engine.device.mem_transaction_bytes);
        *self.canon.get_or_insert(addr & !(line - 1))
    }

    /// Record a global-memory load of element `i` of `buf`.
    pub fn ld<T>(&mut self, buf: &GBuf<T>, i: usize) {
        let op = Op::GlobalRead {
            addr: buf.addr(i),
            size: buf.elem_bytes(),
        };
        if self.fp_on {
            let base = self.canon_base(buf.addr(i));
            self.fp.record(op, base);
        }
        self.trace.push(op);
    }

    /// Record a global-memory store to element `i` of `buf`.
    pub fn st<T>(&mut self, buf: &GBuf<T>, i: usize) {
        let op = Op::GlobalWrite {
            addr: buf.addr(i),
            size: buf.elem_bytes(),
        };
        if self.fp_on {
            let base = self.canon_base(buf.addr(i));
            self.fp.record(op, base);
        }
        self.trace.push(op);
    }

    /// Record a global-memory atomic on element `i` of `buf`.
    pub fn atomic<T>(&mut self, buf: &GBuf<T>, i: usize) {
        let op = Op::AtomicGlobal { addr: buf.addr(i) };
        if self.fp_on {
            let base = self.canon_base(buf.addr(i));
            self.fp.record(op, base);
        }
        self.trace.push(op);
    }

    /// Record a shared-memory load at byte offset `addr`.
    pub fn shared_ld(&mut self, addr: u32) {
        if self.fp_on {
            self.fp.record(Op::SharedRead { addr }, 0);
        }
        self.trace.push(Op::SharedRead { addr });
    }

    /// Record a shared-memory store at byte offset `addr`.
    pub fn shared_st(&mut self, addr: u32) {
        if self.fp_on {
            self.fp.record(Op::SharedWrite { addr }, 0);
        }
        self.trace.push(Op::SharedWrite { addr });
    }

    /// Record a shared-memory atomic at byte offset `addr`.
    pub fn shared_atomic(&mut self, addr: u32) {
        if self.fp_on {
            self.fp.record(Op::AtomicShared { addr }, 0);
        }
        self.trace.push(Op::AtomicShared { addr });
    }

    /// Launch a child grid (CUDA dynamic parallelism) into `stream`.
    ///
    /// Like on hardware, the child does not run at the launch point: its
    /// functional execution is deferred until the launching block joins it
    /// ([`BlockCtx::sync_children`]) or the parent grid completes.
    /// Templates that skip the join get fire-and-forget semantics and must
    /// not read child results before then. The modeled *timing* is
    /// scheduled from the launch point plus the device launch latency and
    /// pending-pool service time.
    ///
    /// A launch configuration the device cannot accept is recorded as an
    /// [`crate::HazardKind::InvalidChildLaunch`] diagnostic and the child
    /// is skipped (the CUDA device runtime likewise drops the grid and
    /// sets an error). Under [`crate::CheckLevel::Warn`] execution
    /// continues; otherwise the hosting [`crate::Gpu::launch`] fails.
    pub fn launch(&mut self, kernel: &KernelRef, cfg: LaunchConfig, stream: Stream) {
        let slot = match stream {
            Stream::Default => 0,
            Stream::Slot(n) => n,
        };
        let engine = &mut *self.engine;
        if let Err(err) = engine.device.validate_launch(&cfg) {
            let hazard = crate::check::memcheck::invalid_child_launch(
                &engine.grids[self.grid_id].name,
                self.grid_id,
                self.block_idx,
                self.thread_idx,
                &cfg,
                &err,
            );
            if engine.check.level == CheckLevel::Warn {
                engine.check.record(hazard);
            } else {
                engine.check.record_fatal(hazard);
            }
            return;
        }
        let child = register_grid(
            engine,
            kernel,
            cfg,
            Origin::Device {
                parent: self.grid_id,
                block: self.block_idx,
                stream_slot: slot,
                thread: self.thread_idx,
            },
        );
        self.pending.push(child);
        let op = Op::Launch {
            grid: u32::try_from(child).expect("grid id overflow"),
        };
        // Recorded only for launches that actually happen: a rejected
        // launch leaves neither a trace op nor a fingerprint mark. The
        // fingerprint fold ignores the grid id, which is run-specific.
        if self.fp_on {
            self.fp.record(op, 0);
        }
        self.trace.push(op);
    }

    /// Access the block state created by [`Kernel::block_state`].
    pub fn state<T: 'static>(&mut self) -> &mut T {
        self.state
            .get_mut::<T>()
            .expect("block state missing or of unexpected type")
    }
}
