//! Parallelization templates for irregular nested loops (paper §II.B).
//!
//! The user implements [`IrregularLoop`] once (the Figure 1(a) "simple
//! code"); [`run_loop`] generates and executes the requested template on a
//! simulated GPU and returns its profiled [`Report`]. All templates invoke
//! `body(i, j)` exactly once per iteration pair, so application state is
//! identical whichever template ran — the correctness property the test
//! suite pins down.

mod kernels;
mod spec;

use std::cell::RefCell;
use std::rc::Rc;

use npar_sim::{Gpu, LaunchConfig, Report};

pub use spec::{IrregularLoop, LoopParams, LoopTemplate};

use kernels::{
    App, BlockMappedKernel, DbufGlobalFilterKernel, DbufSharedKernel, DparNaiveKernel,
    DparOptKernel, OuterEndKernel, QueueBuildKernel, QueueThreadKernel, RowSource,
    ThreadMappedKernel,
};

/// Shared-memory reservation for kernels that stage a per-block delayed
/// buffer (constrains occupancy like the real templates do).
const DBUF_SHARED_BYTES: u32 = 4096;

/// Shared-memory bytes a block-mapped phase needs for its reduction
/// staging area (`block * 4` partials at the reduce base), zero when the
/// loop has no reduction.
fn reduce_shared(app: &dyn IrregularLoop, block: u32) -> u32 {
    if app.has_reduction() {
        block * 4
    } else {
        0
    }
}

/// Run `app` under `template` and return the batch report.
pub fn run_loop(
    gpu: &mut Gpu,
    app: Rc<dyn IrregularLoop>,
    template: LoopTemplate,
    params: &LoopParams,
) -> Report {
    let n = app.outer_len();
    if n == 0 {
        return gpu.synchronize();
    }
    match template {
        LoopTemplate::ThreadMapped => thread_mapped(gpu, app, params),
        LoopTemplate::BlockMapped => block_mapped(gpu, app, params),
        LoopTemplate::StreamMapped => stream_mapped(gpu, app, params),
        LoopTemplate::DualQueue => dual_queue(gpu, app, params),
        LoopTemplate::DbufShared => dbuf_shared(gpu, app, params),
        LoopTemplate::DbufGlobal => dbuf_global(gpu, app, params),
        LoopTemplate::DparNaive => dpar_naive(gpu, app, params),
        LoopTemplate::DparOpt => dpar_opt(gpu, app, params),
    }
}

fn cover(n: usize, block: u32, params: &LoopParams) -> LaunchConfig {
    LaunchConfig::cover(n, block, params.max_grid)
}

fn thread_mapped(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let name = format!("{}/thread-mapped", app.name());
    let k = Rc::new(ThreadMappedKernel { name, app });
    gpu.launch(k, cover(n, params.thread_block, params))
        .expect("thread-mapped launch");
    gpu.synchronize()
}

fn stream_mapped(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let streams = params.host_streams.max(1) as usize;
    let chunk = n.div_ceil(streams);
    for (s, start) in (0..n).step_by(chunk.max(1)).enumerate() {
        let len = chunk.min(n - start);
        let name = format!("{}/stream-mapped", app.name());
        let k = Rc::new(ThreadMappedKernel {
            name,
            app: Rc::new(RangeView {
                app: Rc::clone(&app),
                start,
                len,
            }),
        });
        gpu.launch_in(
            k,
            cover(len, params.thread_block, params),
            npar_sim::Stream::Slot(s as u32),
        )
        .expect("stream-mapped launch");
    }
    gpu.synchronize()
}

/// A contiguous window onto another loop's outer range (stream-mapped
/// chunks).
struct RangeView {
    app: App,
    start: usize,
    len: usize,
}

impl IrregularLoop for RangeView {
    fn name(&self) -> &str {
        self.app.name()
    }
    fn outer_len(&self) -> usize {
        self.len
    }
    fn inner_len(&self, i: usize) -> usize {
        self.app.inner_len(self.start + i)
    }
    fn inner_len_cost(&self, t: &mut npar_sim::ThreadCtx<'_, '_>, i: usize) {
        self.app.inner_len_cost(t, self.start + i);
    }
    fn outer_begin(&self, t: &mut npar_sim::ThreadCtx<'_, '_>, i: usize) {
        self.app.outer_begin(t, self.start + i);
    }
    fn body(&self, t: &mut npar_sim::ThreadCtx<'_, '_>, i: usize, j: usize) {
        self.app.body(t, self.start + i, j);
    }
    fn outer_end(&self, t: &mut npar_sim::ThreadCtx<'_, '_>, i: usize) {
        self.app.outer_end(t, self.start + i);
    }
    fn has_reduction(&self) -> bool {
        self.app.has_reduction()
    }
    fn combine_atomic(&self, t: &mut npar_sim::ThreadCtx<'_, '_>, i: usize) {
        self.app.combine_atomic(t, self.start + i);
    }
}

fn block_mapped(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let name = format!("{}/block-mapped", app.name());
    let shared = reduce_shared(app.as_ref(), params.block_block);
    let k = Rc::new(BlockMappedKernel {
        name,
        app,
        source: RowSource::All(n),
    });
    let grid = (n as u32).min(params.max_grid).max(1);
    gpu.launch(
        k,
        LaunchConfig::with_shared(grid, params.block_block, shared),
    )
    .expect("block-mapped launch");
    gpu.synchronize()
}

fn dual_queue(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let tails = gpu.alloc::<u32>(2);
    let small_buf = gpu.alloc::<u32>(n);
    let large_buf = gpu.alloc::<u32>(n);
    let queues = Rc::new(RefCell::new((Vec::new(), Vec::new())));
    let build = Rc::new(QueueBuildKernel {
        name: format!("{}/dual-queue/build", app.name()),
        app: Rc::clone(&app),
        lb_thres: params.lb_thres,
        tails,
        small_buf,
        large_buf,
        queues: Rc::clone(&queues),
    });
    gpu.launch(build, cover(n, params.thread_block, params))
        .expect("queue-build launch");

    let (small, large) = std::mem::take(&mut *queues.borrow_mut());
    if !small.is_empty() {
        let cfg = cover(small.len(), params.thread_block, params);
        let k = Rc::new(QueueThreadKernel {
            name: format!("{}/dual-queue/small", app.name()),
            app: Rc::clone(&app),
            items: Rc::new(small),
            buf: small_buf,
        });
        gpu.launch(k, cfg).expect("small-queue launch");
    }
    if !large.is_empty() {
        let grid = (large.len() as u32).min(params.max_grid);
        let shared = reduce_shared(app.as_ref(), params.block_block);
        let k = Rc::new(BlockMappedKernel {
            name: format!("{}/dual-queue/large", app.name()),
            app,
            source: RowSource::Queue {
                items: Rc::new(large),
                buf: large_buf,
            },
        });
        gpu.launch(
            k,
            LaunchConfig::with_shared(grid, params.block_block, shared),
        )
        .expect("large-queue launch");
    }
    gpu.synchronize()
}

fn dbuf_global(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let tail = gpu.alloc::<u32>(1);
    let buf = gpu.alloc::<u32>(n);
    let buffered = Rc::new(RefCell::new(Vec::new()));
    let filter = Rc::new(DbufGlobalFilterKernel {
        name: format!("{}/dbuf-global/filter", app.name()),
        app: Rc::clone(&app),
        lb_thres: params.lb_thres,
        tail,
        buf,
        buffered: Rc::clone(&buffered),
    });
    gpu.launch(filter, cover(n, params.thread_block, params))
        .expect("dbuf-global filter launch");

    let items = std::mem::take(&mut *buffered.borrow_mut());
    if !items.is_empty() {
        let grid = (items.len() as u32).min(params.max_grid);
        let shared = reduce_shared(app.as_ref(), params.block_block);
        let k = Rc::new(BlockMappedKernel {
            name: format!("{}/dbuf-global/buffer", app.name()),
            app,
            source: RowSource::Queue {
                items: Rc::new(items),
                buf,
            },
        });
        gpu.launch(
            k,
            LaunchConfig::with_shared(grid, params.block_block, shared),
        )
        .expect("dbuf-global buffer launch");
    }
    gpu.synchronize()
}

fn dbuf_shared(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let name = format!("{}/dbuf-shared", app.name());
    // The staging region sits below the reduction partials, so the block
    // needs both (the phase-B reduction runs at REDUCE_BASE).
    let shared = DBUF_SHARED_BYTES + reduce_shared(app.as_ref(), params.thread_block);
    let k = Rc::new(DbufSharedKernel {
        name,
        app,
        lb_thres: params.lb_thres,
    });
    let mut cfg = cover(n, params.thread_block, params);
    cfg.shared_mem_bytes = shared;
    gpu.launch(k, cfg).expect("dbuf-shared launch");
    gpu.synchronize()
}

fn dpar_naive(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let name = format!("{}/dpar-naive", app.name());
    let launched = Rc::new(RefCell::new(Vec::new()));
    let k = Rc::new(DparNaiveKernel {
        name,
        app: Rc::clone(&app),
        lb_thres: params.lb_thres,
        child_block: params.block_block,
        max_grid: params.max_grid,
        launched: Rc::clone(&launched),
    });
    gpu.launch(k, cover(n, params.thread_block, params))
        .expect("dpar-naive launch");
    // Epilogue: finalize the iterations the child grids processed (their
    // combines are atomic; no child thread can run `outer_end` without
    // racing the other blocks of its grid).
    let items = std::mem::take(&mut *launched.borrow_mut());
    if !items.is_empty() {
        let buf = gpu.alloc::<u32>(items.len());
        let len = items.len();
        let k = Rc::new(OuterEndKernel {
            name: format!("{}/dpar-naive/outer-end", app.name()),
            app,
            items: Rc::new(items),
            buf,
        });
        gpu.launch(k, cover(len, params.thread_block, params))
            .expect("dpar-naive epilogue launch");
    }
    gpu.synchronize()
}

fn dpar_opt(gpu: &mut Gpu, app: App, params: &LoopParams) -> Report {
    let n = app.outer_len();
    let stage = gpu.alloc::<u32>(n);
    let name = format!("{}/dpar-opt", app.name());
    let k = Rc::new(DparOptKernel {
        name,
        app,
        lb_thres: params.lb_thres,
        child_block: params.block_block,
        stage,
    });
    let mut cfg = cover(n, params.thread_block, params);
    cfg.shared_mem_bytes = DBUF_SHARED_BYTES;
    gpu.launch(k, cfg).expect("dpar-opt launch");
    gpu.synchronize()
}
