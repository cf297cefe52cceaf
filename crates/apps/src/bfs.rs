//! Breadth-First Search: the paper's recursive case study on graphs
//! (Section III.C, Figure 9).
//!
//! Three GPU variants:
//! * **flat** — the Harish & Narayanan level-synchronous traversal, a
//!   thread-mapped irregular loop per level, work-efficient, atomic-free;
//! * **rec-naive** — unordered recursive traversal: visiting a node spawns
//!   a single-block child grid over its neighborhood; a node is re-expanded
//!   whenever its level decreases (not work-efficient, needs atomics);
//! * **rec-hier** — block per neighbor, threads over the two-hop
//!   neighborhood, one nested launch per improved neighbor.
//!
//! Serial CPU references: the classic queue BFS and the recursive
//! depth-first-ordered variant the paper normalizes Figure 9 against.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use npar_core::{run_loop, IrregularLoop, LoopParams, LoopTemplate};
use npar_graph::Csr;
use npar_sim::{
    BlockCtx, CpuCounter, GBuf, Gpu, Kernel, KernelRef, LaunchConfig, Report, Stream, ThreadCtx,
};

use crate::common::{CsrBufs, ReportAcc};

/// Level marker for unreached nodes.
pub const UNREACHED: u32 = u32::MAX;

/// GPU BFS result.
#[derive(Debug)]
pub struct BfsResult {
    /// BFS level per node (`UNREACHED` if not reachable).
    pub level: Vec<u32>,
    /// Profiled execution report.
    pub report: Report,
}

// ---------------------------------------------------------------------------
// Flat (level-synchronous) variant.
// ---------------------------------------------------------------------------

struct FlatBfsState {
    level: RefCell<Vec<u32>>,
    cur: Cell<u32>,
    grew: Cell<bool>,
}

struct FlatBfsLoop {
    g: Csr,
    st: Rc<FlatBfsState>,
    bufs: CsrBufs,
    level_buf: GBuf<u32>,
}

impl IrregularLoop for FlatBfsLoop {
    fn name(&self) -> &str {
        "bfs-flat"
    }
    fn outer_len(&self) -> usize {
        self.g.num_nodes()
    }
    fn inner_len(&self, i: usize) -> usize {
        if self.st.level.borrow()[i] == self.st.cur.get() {
            self.g.degree(i)
        } else {
            0
        }
    }
    fn inner_len_cost(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.level_buf, i);
        if self.st.level.borrow()[i] == self.st.cur.get() {
            t.ld(&self.bufs.row_offsets, i);
            t.ld(&self.bufs.row_offsets, i + 1);
        }
    }
    fn outer_begin(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.level_buf, i);
        if self.st.level.borrow()[i] == self.st.cur.get() {
            t.ld(&self.bufs.row_offsets, i);
            t.ld(&self.bufs.row_offsets, i + 1);
        }
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        let e = self.g.row_start(i) + j;
        let w = self.g.col_indices_raw()[e] as usize;
        t.ld(&self.bufs.col_indices, e);
        t.ld(&self.level_buf, w);
        t.compute(1);
        let mut level = self.st.level.borrow_mut();
        let cur = self.st.cur.get();
        if level[w] == UNREACHED {
            // Discovery is an atomicCAS: every writer stores cur + 1, but
            // concurrent discoveries of `w` from different blocks would be
            // a write/write race as plain stores (npar-check flags them).
            level[w] = cur + 1;
            self.st.grew.set(true);
            t.atomic(&self.level_buf, w);
        }
    }
}

/// Level-synchronous BFS under any loop template (the paper's flat variant
/// uses [`LoopTemplate::ThreadMapped`]).
pub fn bfs_flat_gpu(
    gpu: &mut Gpu,
    g: &Csr,
    src: usize,
    template: LoopTemplate,
    params: &LoopParams,
) -> BfsResult {
    let n = g.num_nodes();
    assert!(src < n);
    let bufs = CsrBufs::alloc(gpu, g);
    let level_buf = gpu.alloc::<u32>(n);
    let st = Rc::new(FlatBfsState {
        level: RefCell::new(vec![UNREACHED; n]),
        cur: Cell::new(0),
        grew: Cell::new(false),
    });
    st.level.borrow_mut()[src] = 0;
    let app = Rc::new(FlatBfsLoop {
        g: g.clone(),
        st: Rc::clone(&st),
        bufs,
        level_buf,
    });
    let mut acc = ReportAcc::default();
    let mut lvl = 0;
    loop {
        st.cur.set(lvl);
        st.grew.set(false);
        acc.push(&run_loop(gpu, app.clone(), template, params));
        if !st.grew.get() {
            break;
        }
        lvl += 1;
    }
    let level = st.level.borrow().clone();
    BfsResult {
        level,
        report: acc.finish(),
    }
}

// ---------------------------------------------------------------------------
// Recursive variants (unordered, Hassaan/Burtscher/Pingali taxonomy).
// ---------------------------------------------------------------------------

struct RecBfsShared {
    g: Csr,
    level: RefCell<Vec<u32>>,
    bufs: CsrBufs,
    level_buf: GBuf<u32>,
    streams: u32,
    max_threads: u32,
}

impl RecBfsShared {
    /// Try to improve `w` to `cand`; true when the level decreased.
    fn relax(&self, w: usize, cand: u32) -> bool {
        let mut level = self.level.borrow_mut();
        if cand < level[w] {
            level[w] = cand;
            true
        } else {
            false
        }
    }
}

/// Naive recursive BFS kernel: one block over `node`'s neighbors; every
/// thread that improves its neighbor launches a child grid for it.
struct RecBfsNaiveKernel {
    sh: Rc<RecBfsShared>,
    node: usize,
    node_level: u32,
}

impl Kernel for RecBfsNaiveKernel {
    fn name(&self) -> &str {
        "bfs-rec-naive"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let sh = &self.sh;
        let nbrs: Vec<u32> = sh.g.neighbors(self.node).to_vec();
        let start = sh.g.row_start(self.node);
        let bd = blk.block_dim() as usize;
        let cand = self.node_level + 1;
        blk.for_each_thread(|t| {
            let mut idx = t.thread_idx() as usize;
            while idx < nbrs.len() {
                let w = nbrs[idx] as usize;
                t.ld(&sh.bufs.col_indices, start + idx);
                t.ld(&sh.level_buf, w);
                t.compute(1);
                if sh.relax(w, cand) {
                    t.atomic(&sh.level_buf, w);
                    if sh.g.degree(w) > 0 {
                        let child: KernelRef = Rc::new(RecBfsNaiveKernel {
                            sh: Rc::clone(sh),
                            node: w,
                            node_level: cand,
                        });
                        let cfg = LaunchConfig::new(1, block_for(sh.g.degree(w), sh.max_threads));
                        t.launch(&child, cfg, Stream::Slot(idx as u32 % sh.streams));
                    }
                }
                idx += bd;
            }
        });
    }
}

/// Hierarchical recursive BFS kernel: one block per neighbor; the block
/// leader relaxes its neighbor while the threads peek at the two-hop
/// neighborhood; improved neighbors are expanded with one nested launch
/// per block.
struct RecBfsHierKernel {
    sh: Rc<RecBfsShared>,
    node: usize,
    node_level: u32,
}

impl RecBfsHierKernel {
    fn config_for(sh: &RecBfsShared, node: usize) -> LaunchConfig {
        let widest =
            sh.g.neighbors(node)
                .iter()
                .map(|&w| sh.g.degree(w as usize))
                .max()
                .unwrap_or(0);
        LaunchConfig::new(
            sh.g.degree(node).max(1) as u32,
            block_for(widest, sh.max_threads.min(256)),
        )
    }
}

impl Kernel for RecBfsHierKernel {
    fn name(&self) -> &str {
        "bfs-rec-hier"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let sh = &self.sh;
        let nbrs = sh.g.neighbors(self.node);
        let k = blk.block_idx() as usize;
        if k >= nbrs.len() {
            return;
        }
        let w = nbrs[k] as usize;
        let start = sh.g.row_start(self.node);
        let cand = self.node_level + 1;
        let improved = sh.relax(w, cand);
        blk.leader(|t| {
            t.ld(&sh.bufs.col_indices, start + k);
            t.ld(&sh.level_buf, w);
            t.compute(1);
            if improved {
                t.atomic(&sh.level_buf, w);
            }
        });
        if !improved {
            return;
        }
        // Thread-level peek over the grandchild frontier.
        let w_start = sh.g.row_start(w);
        let w_deg = sh.g.degree(w);
        let bd = blk.block_dim() as usize;
        blk.for_each_thread(|t| {
            let mut idx = t.thread_idx() as usize;
            while idx < w_deg {
                let gc = sh.g.col_indices_raw()[w_start + idx] as usize;
                t.ld(&sh.bufs.col_indices, w_start + idx);
                t.ld(&sh.level_buf, gc);
                idx += bd;
            }
        });
        if w_deg > 0 {
            let child: KernelRef = Rc::new(RecBfsHierKernel {
                sh: Rc::clone(sh),
                node: w,
                node_level: cand,
            });
            let cfg = Self::config_for(sh, w);
            let slot = k as u32 % sh.streams;
            blk.leader(|t| t.launch(&child, cfg, Stream::Slot(slot)));
        }
    }
}

fn block_for(n: usize, max_threads: u32) -> u32 {
    (n.max(1) as u32)
        .div_ceil(32)
        .saturating_mul(32)
        .clamp(32, max_threads)
}

/// Which recursive GPU variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecBfsVariant {
    /// Thread-level nested launches (Figure 3(d) style).
    Naive,
    /// Block-level nested launches (Figure 3(e) style).
    Hier,
}

/// Unordered recursive BFS on the simulated GPU. `streams` is the number
/// of device streams per block (1 = CUDA default; 2 = the paper's "one
/// additional stream per thread-block").
pub fn bfs_recursive_gpu(
    gpu: &mut Gpu,
    g: &Csr,
    src: usize,
    variant: RecBfsVariant,
    streams: u32,
) -> BfsResult {
    let n = g.num_nodes();
    assert!(src < n);
    let bufs = CsrBufs::alloc(gpu, g);
    let level_buf = gpu.alloc::<u32>(n);
    let sh = Rc::new(RecBfsShared {
        g: g.clone(),
        level: RefCell::new(vec![UNREACHED; n]),
        bufs,
        level_buf,
        streams: streams.max(1),
        max_threads: gpu.device().max_threads_per_block,
    });
    sh.level.borrow_mut()[src] = 0;
    if sh.g.degree(src) > 0 {
        match variant {
            RecBfsVariant::Naive => {
                let k = Rc::new(RecBfsNaiveKernel {
                    sh: Rc::clone(&sh),
                    node: src,
                    node_level: 0,
                });
                let cfg = LaunchConfig::new(1, block_for(g.degree(src), sh.max_threads));
                gpu.launch(k, cfg).expect("rec bfs launch");
            }
            RecBfsVariant::Hier => {
                let cfg = RecBfsHierKernel::config_for(&sh, src);
                let k = Rc::new(RecBfsHierKernel {
                    sh: Rc::clone(&sh),
                    node: src,
                    node_level: 0,
                });
                gpu.launch(k, cfg).expect("rec bfs launch");
            }
        }
    }
    let report = gpu.synchronize();
    let level = sh.level.borrow().clone();
    BfsResult { level, report }
}

// ---------------------------------------------------------------------------
// CPU references.
// ---------------------------------------------------------------------------

/// Serial iterative (queue) BFS with operation counting.
pub fn bfs_cpu_iterative(g: &Csr, src: usize) -> (Vec<u32>, CpuCounter) {
    let n = g.num_nodes();
    let mut counter = CpuCounter::default();
    let mut level = vec![UNREACHED; n];
    level[src] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src as u32);
    counter.store(2);
    while let Some(v) = queue.pop_front() {
        let v = v as usize;
        counter.load(1);
        for &w in g.neighbors(v) {
            let w = w as usize;
            counter.load(2);
            counter.branch(1);
            if level[w] == UNREACHED {
                level[w] = level[v] + 1;
                counter.store(2);
                queue.push_back(w as u32);
            }
        }
    }
    (level, counter)
}

/// Serial recursive BFS with operation counting: the unordered recursive
/// traversal the paper uses as the Figure 9 normalizer. Each call relaxes
/// *all* of the node's improvable neighbors first and then recurses into
/// them (the structure of Figure 3(a) applied to graphs); a node is
/// re-expanded whenever its level has decreased since it was queued, so
/// the traversal is not work-efficient, but the mark-before-recurse order
/// keeps revisits moderate — consistent with the paper's observation that
/// this variant is competitive with the iterative one on the CPU.
pub fn bfs_cpu_recursive(g: &Csr, src: usize) -> (Vec<u32>, CpuCounter) {
    let n = g.num_nodes();
    let mut counter = CpuCounter::default();
    let mut level = vec![UNREACHED; n];
    level[src] = 0;
    counter.store(1);
    // Explicit stack to survive deep recursions; each frame models one
    // recursive call, tagged with the level it was queued at.
    let mut stack = vec![(src as u32, 0u32)];
    while let Some((v, l)) = stack.pop() {
        let v = v as usize;
        counter.call(1);
        counter.load(1);
        counter.branch(1);
        if level[v] < l {
            // The node improved again after this frame was queued; a
            // fresher frame covers it.
            continue;
        }
        let mark = stack.len();
        for &w in g.neighbors(v) {
            let w = w as usize;
            counter.load(2);
            counter.branch(1);
            if l + 1 < level[w] {
                level[w] = l + 1;
                counter.store(1);
                stack.push((w as u32, l + 1));
            }
        }
        // Recursion happens child-by-child in neighbor order; reversing
        // the newly pushed frames makes the explicit stack pop them in the
        // same order the recursive code would descend.
        stack[mark..].reverse();
    }
    (level, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npar_graph::uniform_random;

    #[test]
    fn flat_matches_cpu_for_every_template() {
        let g = uniform_random(200, 1, 10, 23);
        let (cpu, _) = bfs_cpu_iterative(&g, 0);
        for template in LoopTemplate::ALL {
            let mut gpu = Gpu::k20();
            let r = bfs_flat_gpu(&mut gpu, &g, 0, template, &LoopParams::default());
            assert_eq!(r.level, cpu, "{template} BFS levels diverged");
        }
    }

    #[test]
    fn recursive_cpu_matches_iterative_levels() {
        let g = uniform_random(300, 0, 6, 29);
        let (a, _) = bfs_cpu_iterative(&g, 0);
        let (b, rec_counter) = bfs_cpu_recursive(&g, 0);
        assert_eq!(a, b);
        assert!(rec_counter.calls > 0);
    }

    #[test]
    fn recursive_gpu_variants_match_cpu() {
        let g = uniform_random(120, 1, 6, 31);
        let (cpu, _) = bfs_cpu_iterative(&g, 0);
        for variant in [RecBfsVariant::Naive, RecBfsVariant::Hier] {
            for streams in [1, 2] {
                let mut gpu = Gpu::k20();
                let r = bfs_recursive_gpu(&mut gpu, &g, 0, variant, streams);
                assert_eq!(r.level, cpu, "{variant:?}/{streams} levels diverged");
                assert!(r.report.device_launches > 0);
            }
        }
    }

    #[test]
    fn disconnected_nodes_stay_unreached() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2)]);
        let mut gpu = Gpu::k20();
        let r = bfs_flat_gpu(
            &mut gpu,
            &g,
            0,
            LoopTemplate::ThreadMapped,
            &LoopParams::default(),
        );
        assert_eq!(r.level[..3], [0, 1, 2]);
        assert_eq!(r.level[3], UNREACHED);
        assert_eq!(r.level[4], UNREACHED);
    }

    #[test]
    fn flat_is_work_efficient_recursive_is_not() {
        // On a graph with many cross edges the recursive variant revisits.
        let g = uniform_random(400, 4, 12, 37);
        let (_, it) = bfs_cpu_iterative(&g, 0);
        let (_, rec) = bfs_cpu_recursive(&g, 0);
        assert!(rec.loads >= it.loads);
    }
}
