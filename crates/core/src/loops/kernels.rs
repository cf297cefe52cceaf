//! Kernel implementations behind the loop templates. Each struct is the
//! code a template-aware compiler would generate from the user's
//! [`IrregularLoop`]; the host-side drivers live in [`super`].

use std::cell::RefCell;
use std::rc::Rc;

use npar_sim::{
    BlockCtx, BlockState, GBuf, Kernel, KernelRef, LaunchConfig, Stream, ThreadCtx, ThreadKernel,
};

use super::spec::IrregularLoop;
use crate::reduce::emit_block_reduce;

/// Shared-memory byte offset where [`DbufSharedKernel`] stages its block
/// reduction: right above the delayed-buffer region.
const REDUCE_BASE: u32 = 4096;

/// Staging slots in the shared-memory delayed buffer: the 4096-byte region
/// holds one tail counter plus 1023 buffered indices.
const DBUF_CAP: usize = (REDUCE_BASE as usize - 4) / 4;

pub(crate) type App = Rc<dyn IrregularLoop>;

fn serial_iteration(app: &App, t: &mut ThreadCtx<'_, '_>, i: usize) {
    app.outer_begin(t, i);
    let f = app.inner_len(i);
    for j in 0..f {
        app.body(t, i, j);
    }
    app.outer_end(t, i);
}

/// Fig 1(a): baseline thread-mapped kernel (grid-stride outer loop, inner
/// loop serialized per thread).
pub(crate) struct ThreadMappedKernel {
    pub name: String,
    pub app: App,
}

impl ThreadKernel for ThreadMappedKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.app.outer_len();
        let stride = t.grid_threads();
        let mut i = t.global_id();
        while i < n {
            serial_iteration(&self.app, t, i);
            i += stride;
        }
    }
}

/// Where a block-mapped kernel takes its outer iterations from.
pub(crate) enum RowSource {
    /// All `n` outer iterations, block-cyclic.
    All(usize),
    /// Indices staged in a device queue (dual-queue / dbuf-global phase 2).
    Queue { items: Rc<Vec<u32>>, buf: GBuf<u32> },
}

impl RowSource {
    fn len(&self) -> usize {
        match self {
            RowSource::All(n) => *n,
            RowSource::Queue { items, .. } => items.len(),
        }
    }
}

/// Block-mapped kernel: one outer iteration per block at a time, inner
/// iterations strided over the block's threads, with a shared-memory
/// reduction when the loop accumulates.
pub(crate) struct BlockMappedKernel {
    pub name: String,
    pub app: App,
    pub source: RowSource,
}

impl BlockMappedKernel {
    /// Process outer iteration `i` with the whole block. `reduce_base` is
    /// the shared-memory byte offset where the reduction (if any) stages
    /// its partials; callers must declare `block_dim * 4` bytes above it.
    pub(crate) fn block_iteration(app: &App, blk: &mut BlockCtx<'_>, i: usize, reduce_base: u32) {
        let bd = blk.block_dim() as usize;
        blk.for_each_thread(|t| {
            app.outer_begin(t, i);
            let f = app.inner_len(i);
            let mut j = t.thread_idx() as usize;
            while j < f {
                app.body(t, i, j);
                j += bd;
            }
        });
        if app.has_reduction() {
            emit_block_reduce(blk, bd as u32, reduce_base);
        }
        blk.for_each_thread(|t| {
            if t.is_leader() {
                app.outer_end(t, i);
            }
        });
    }
}

impl Kernel for BlockMappedKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let count = self.source.len();
        let gd = blk.grid_dim() as usize;
        let mut k = blk.block_idx() as usize;
        let mut first = true;
        while k < count {
            if !first {
                blk.sync();
            }
            first = false;
            let i = match &self.source {
                RowSource::All(_) => k,
                RowSource::Queue { items, buf } => {
                    let buf = *buf;
                    blk.for_each_thread(|t| t.ld(&buf, k));
                    items[k] as usize
                }
            };
            Self::block_iteration(&self.app, blk, i, 0);
            k += gd;
        }
    }
}

/// Dual-queue phase 1: classify every outer iteration into the small or
/// large queue by `lb_thres` (atomic tail bump + element store).
pub(crate) struct QueueBuildKernel {
    pub name: String,
    pub app: App,
    pub lb_thres: usize,
    pub tails: GBuf<u32>,
    pub small_buf: GBuf<u32>,
    pub large_buf: GBuf<u32>,
    pub queues: Rc<RefCell<(Vec<u32>, Vec<u32>)>>,
}

impl ThreadKernel for QueueBuildKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.app.outer_len();
        let stride = t.grid_threads();
        let mut i = t.global_id();
        while i < n {
            self.app.inner_len_cost(t, i);
            let f = self.app.inner_len(i);
            let mut q = self.queues.borrow_mut();
            if f <= self.lb_thres {
                t.atomic(&self.tails, 0);
                t.st(&self.small_buf, q.0.len());
                q.0.push(i as u32);
            } else {
                t.atomic(&self.tails, 1);
                t.st(&self.large_buf, q.1.len());
                q.1.push(i as u32);
            }
            i += stride;
        }
    }
}

/// Dual-queue phase 2a: thread-mapped processing of a staged queue.
pub(crate) struct QueueThreadKernel {
    pub name: String,
    pub app: App,
    pub items: Rc<Vec<u32>>,
    pub buf: GBuf<u32>,
}

impl ThreadKernel for QueueThreadKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.items.len();
        let stride = t.grid_threads();
        let mut k = t.global_id();
        while k < n {
            t.ld(&self.buf, k);
            serial_iteration(&self.app, t, self.items[k] as usize);
            k += stride;
        }
    }
}

/// Delayed-buffer (global) phase 1: process small iterations inline,
/// append large ones to a global buffer.
pub(crate) struct DbufGlobalFilterKernel {
    pub name: String,
    pub app: App,
    pub lb_thres: usize,
    pub tail: GBuf<u32>,
    pub buf: GBuf<u32>,
    pub buffered: Rc<RefCell<Vec<u32>>>,
}

impl ThreadKernel for DbufGlobalFilterKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.app.outer_len();
        let stride = t.grid_threads();
        let mut i = t.global_id();
        while i < n {
            self.app.inner_len_cost(t, i);
            let f = self.app.inner_len(i);
            if f <= self.lb_thres {
                serial_iteration(&self.app, t, i);
            } else {
                let mut b = self.buffered.borrow_mut();
                t.atomic(&self.tail, 0);
                t.st(&self.buf, b.len());
                b.push(i as u32);
            }
            i += stride;
        }
    }
}

/// Delayed-buffer (shared): a single kernel. Phase A thread-maps small
/// iterations and appends large ones to a per-block shared-memory buffer;
/// after a barrier, phase B processes the block's own buffer block-mapped.
/// No cross-block redistribution happens — the work imbalance the paper
/// analyzes for small `lbTHRES` values.
pub(crate) struct DbufSharedKernel {
    pub name: String,
    pub app: App,
    pub lb_thres: usize,
}

impl Kernel for DbufSharedKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn block_state(&self, _b: u32) -> BlockState {
        BlockState::new(Vec::<u32>::new())
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let app = &self.app;
        let n = app.outer_len();
        let lb = self.lb_thres;
        blk.for_each_thread(|t| {
            let stride = t.grid_threads();
            let mut i = t.global_id();
            while i < n {
                app.inner_len_cost(t, i);
                let f = app.inner_len(i);
                let full = t.state::<Vec<u32>>().len() >= DBUF_CAP;
                if f <= lb || full {
                    // Small iteration — or the fixed-size buffer overflowed
                    // (the real template's fallback: process inline rather
                    // than write past the staging region).
                    serial_iteration(app, t, i);
                } else {
                    t.shared_atomic(0);
                    let buf = t.state::<Vec<u32>>();
                    let pos = buf.len() as u32;
                    buf.push(i as u32);
                    t.shared_st(4 + pos * 4);
                }
                i += stride;
            }
        });
        blk.sync();
        let items = blk.state::<Vec<u32>>().clone();
        for (idx, &iu) in items.iter().enumerate() {
            if idx > 0 {
                blk.sync();
            }
            let slot = 4 + idx as u32 * 4;
            blk.for_each_thread(|t| t.shared_ld(slot));
            BlockMappedKernel::block_iteration(app, blk, iu as usize, REDUCE_BASE);
        }
    }
}

/// Naive dynamic parallelism: every thread meeting a large iteration
/// launches a dedicated child grid for it (into the block's default device
/// stream, so launches from one block serialize — the CUDA semantics).
pub(crate) struct DparNaiveKernel {
    pub name: String,
    pub app: App,
    pub lb_thres: usize,
    pub child_block: u32,
    pub max_grid: u32,
    /// Outer iterations handed to child grids, recorded for the host-side
    /// [`OuterEndKernel`] epilogue (the inner-length classification can
    /// change while the grid runs, so the set must be captured here).
    pub launched: Rc<RefCell<Vec<u32>>>,
}

impl ThreadKernel for DparNaiveKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.app.outer_len();
        let stride = t.grid_threads();
        let mut i = t.global_id();
        while i < n {
            self.app.inner_len_cost(t, i);
            let f = self.app.inner_len(i);
            if f <= self.lb_thres {
                serial_iteration(&self.app, t, i);
            } else {
                let child: KernelRef = Rc::new(DparInnerKernel {
                    name: format!("{}-child", self.name),
                    app: Rc::clone(&self.app),
                    i,
                });
                self.launched.borrow_mut().push(i as u32);
                t.launch(
                    &child,
                    LaunchConfig::cover(f, self.child_block, self.max_grid),
                    Stream::Default,
                );
            }
            i += stride;
        }
    }
}

/// Child grid of dpar-naive: thread-maps one outer iteration's inner loop.
pub(crate) struct DparInnerKernel {
    pub name: String,
    pub app: App,
    pub i: usize,
}

impl ThreadKernel for DparInnerKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let f = self.app.inner_len(self.i);
        let stride = t.grid_threads();
        let mut j = t.global_id();
        if j < f {
            self.app.outer_begin(t, self.i);
        }
        let mut any = false;
        while j < f {
            self.app.body(t, self.i, j);
            any = true;
            j += stride;
        }
        if any && self.app.has_reduction() {
            self.app.combine_atomic(t, self.i);
        }
        // `outer_end` runs in the host-side [`OuterEndKernel`] epilogue:
        // no thread of this grid can finalize the iteration without racing
        // against the other blocks' combines.
    }
}

/// Host-launched epilogue of dpar-naive: runs `outer_end` for every outer
/// iteration that was handed to a child grid. The child kernels combine
/// with atomics but no single thread of theirs can know when the whole
/// grid is done; the reference implementations finalize from a follow-up
/// kernel, which also keeps the cross-block hazard rules satisfied.
pub(crate) struct OuterEndKernel {
    pub name: String,
    pub app: App,
    pub items: Rc<Vec<u32>>,
    pub buf: GBuf<u32>,
}

impl ThreadKernel for OuterEndKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.items.len();
        let stride = t.grid_threads();
        let mut k = t.global_id();
        while k < n {
            t.ld(&self.buf, k);
            self.app.outer_end(t, self.items[k] as usize);
            k += stride;
        }
    }
}

/// Optimized dynamic parallelism: phase A buffers large iterations per
/// block (records to a global staging array so the child can read them);
/// after the barrier the block leader launches ONE child grid covering the
/// whole buffer — fewer, larger nested kernels.
pub(crate) struct DparOptKernel {
    pub name: String,
    pub app: App,
    pub lb_thres: usize,
    pub child_block: u32,
    pub stage: GBuf<u32>,
}

impl Kernel for DparOptKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn block_state(&self, _b: u32) -> BlockState {
        BlockState::new(Vec::<u32>::new())
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let app = &self.app;
        let n = app.outer_len();
        let lb = self.lb_thres;
        let stage = self.stage;
        blk.for_each_thread(|t| {
            let stride = t.grid_threads();
            let mut i = t.global_id();
            while i < n {
                app.inner_len_cost(t, i);
                let f = app.inner_len(i);
                if f <= lb {
                    serial_iteration(app, t, i);
                } else {
                    t.shared_atomic(0);
                    t.st(&stage, i);
                    t.state::<Vec<u32>>().push(i as u32);
                }
                i += stride;
            }
        });
        blk.sync();
        let items = Rc::new(blk.state::<Vec<u32>>().clone());
        if items.is_empty() {
            return;
        }
        let child: KernelRef = Rc::new(DparOptChildKernel {
            name: format!("{}-child", self.name),
            app: Rc::clone(app),
            items: Rc::clone(&items),
            stage,
        });
        let mut cfg = LaunchConfig::new(items.len() as u32, self.child_block);
        if app.has_reduction() {
            // The child's block-mapped iterations stage their reduction
            // partials at shared offset 0.
            cfg.shared_mem_bytes = self.child_block * 4;
        }
        blk.for_each_thread(|t| {
            if t.is_leader() {
                t.launch(&child, cfg, Stream::Default);
            }
        });
    }
}

/// Child grid of dpar-opt: one block per buffered iteration, processed
/// block-mapped.
pub(crate) struct DparOptChildKernel {
    pub name: String,
    pub app: App,
    pub items: Rc<Vec<u32>>,
    pub stage: GBuf<u32>,
}

impl Kernel for DparOptChildKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let k = blk.block_idx() as usize;
        let i = self.items[k] as usize;
        let stage = self.stage;
        blk.for_each_thread(|t| t.ld(&stage, i));
        BlockMappedKernel::block_iteration(&self.app, blk, i, 0);
    }
}
