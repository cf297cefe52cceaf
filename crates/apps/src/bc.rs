//! Betweenness Centrality on unweighted graphs, after the GPU formulation
//! of Sarıyüce et al. [GPGPU-6] the paper builds on: per source, a
//! level-synchronous BFS builds the shortest-path DAG (σ counts), then a
//! backward sweep accumulates dependencies. Both phases are irregular
//! nested loops and run under any of the paper's templates.
//!
//! Exact BC iterates all sources; like most GPU evaluations on small-world
//! graphs we default to a deterministic source sample (`sources`) — the
//! template comparison is a ratio and unaffected (DESIGN.md §1).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use npar_core::{run_loop, IrregularLoop, LoopParams, LoopTemplate};
use npar_graph::Csr;
use npar_sim::{CpuCounter, GBuf, Gpu, Report, ThreadCtx};

use crate::common::{CsrBufs, ReportAcc};

/// Unvisited level marker.
const UNSEEN: i32 = -1;

/// GPU BC result.
#[derive(Debug)]
pub struct BcResult {
    /// Centrality scores (summed over the sampled sources).
    pub bc: Vec<f64>,
    /// Profiled execution report across all sources and phases.
    pub report: Report,
}

struct BcState {
    level: RefCell<Vec<i32>>,
    sigma: RefCell<Vec<f64>>,
    delta: RefCell<Vec<f64>>,
    bc: RefCell<Vec<f64>>,
    cur: Cell<i32>,
    frontier_grew: Cell<bool>,
    src: Cell<usize>,
}

struct BcBufs {
    csr: CsrBufs,
    level: GBuf<i32>,
    sigma: GBuf<f32>,
    delta: GBuf<f32>,
    bc: GBuf<f32>,
}

/// Forward phase: nodes on the current level expand their neighbors,
/// discovering the next level and accumulating shortest-path counts.
struct ForwardLoop {
    g: Csr,
    st: Rc<BcState>,
    bufs: Rc<BcBufs>,
}

impl IrregularLoop for ForwardLoop {
    fn name(&self) -> &str {
        "bc-forward"
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
        t.ld(&self.bufs.level, i);
        if self.st.level.borrow()[i] == self.st.cur.get() {
            t.ld(&self.bufs.csr.row_offsets, i);
            t.ld(&self.bufs.csr.row_offsets, i + 1);
        }
    }
    fn outer_begin(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.bufs.level, i);
        if self.st.level.borrow()[i] == self.st.cur.get() {
            t.ld(&self.bufs.sigma, i);
            t.ld(&self.bufs.csr.row_offsets, i);
            t.ld(&self.bufs.csr.row_offsets, i + 1);
        }
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        let e = self.g.row_start(i) + j;
        let w = self.g.col_indices_raw()[e] as usize;
        let cur = self.st.cur.get();
        t.ld(&self.bufs.csr.col_indices, e);
        t.ld(&self.bufs.level, w);
        t.compute(1);
        let mut level = self.st.level.borrow_mut();
        if level[w] == UNSEEN {
            level[w] = cur + 1;
            self.st.frontier_grew.set(true);
            t.atomic(&self.bufs.level, w); // discovery CAS
        }
        if level[w] == cur + 1 {
            let add = self.st.sigma.borrow()[i];
            self.st.sigma.borrow_mut()[w] += add;
            t.atomic(&self.bufs.sigma, w);
        }
    }
}

/// Backward phase: nodes on level `cur` pull dependency from their
/// successors on level `cur + 1` (a per-node reduction).
struct BackwardLoop {
    g: Csr,
    st: Rc<BcState>,
    bufs: Rc<BcBufs>,
}

impl IrregularLoop for BackwardLoop {
    fn name(&self) -> &str {
        "bc-backward"
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
        t.ld(&self.bufs.level, i);
        if self.st.level.borrow()[i] == self.st.cur.get() {
            t.ld(&self.bufs.csr.row_offsets, i);
            t.ld(&self.bufs.csr.row_offsets, i + 1);
        }
    }
    fn outer_begin(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.bufs.level, i);
        if self.st.level.borrow()[i] == self.st.cur.get() {
            t.ld(&self.bufs.sigma, i);
            t.ld(&self.bufs.csr.row_offsets, i);
            t.ld(&self.bufs.csr.row_offsets, i + 1);
        }
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        let e = self.g.row_start(i) + j;
        let w = self.g.col_indices_raw()[e] as usize;
        t.ld(&self.bufs.csr.col_indices, e);
        t.ld(&self.bufs.level, w);
        t.compute(1);
        if self.st.level.borrow()[w] == self.st.cur.get() + 1 {
            t.ld(&self.bufs.sigma, w);
            t.ld(&self.bufs.delta, w);
            t.compute(3);
            let sigma = self.st.sigma.borrow();
            let contrib = sigma[i] / sigma[w] * (1.0 + self.st.delta.borrow()[w]);
            self.st.delta.borrow_mut()[i] += contrib;
        }
    }
    fn outer_end(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        if self.st.level.borrow()[i] == self.st.cur.get() && i != self.st.src.get() {
            t.st(&self.bufs.delta, i);
            t.ld(&self.bufs.bc, i);
            t.compute(1);
            t.st(&self.bufs.bc, i);
            let d = self.st.delta.borrow()[i];
            self.st.bc.borrow_mut()[i] += d;
        }
    }
    fn has_reduction(&self) -> bool {
        true
    }
    fn combine_atomic(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.atomic(&self.bufs.delta, i);
    }
}

/// Run BC from the given `sources` under `template`.
pub fn bc_gpu(
    gpu: &mut Gpu,
    g: &Csr,
    sources: &[usize],
    template: LoopTemplate,
    params: &LoopParams,
) -> BcResult {
    let n = g.num_nodes();
    let bufs = Rc::new(BcBufs {
        csr: CsrBufs::alloc(gpu, g),
        level: gpu.alloc::<i32>(n.max(1)),
        sigma: gpu.alloc::<f32>(n.max(1)),
        delta: gpu.alloc::<f32>(n.max(1)),
        bc: gpu.alloc::<f32>(n.max(1)),
    });
    let st = Rc::new(BcState {
        level: RefCell::new(vec![UNSEEN; n]),
        sigma: RefCell::new(vec![0.0; n]),
        delta: RefCell::new(vec![0.0; n]),
        bc: RefCell::new(vec![0.0; n]),
        cur: Cell::new(0),
        frontier_grew: Cell::new(false),
        src: Cell::new(0),
    });
    let fwd = Rc::new(ForwardLoop {
        g: g.clone(),
        st: Rc::clone(&st),
        bufs: Rc::clone(&bufs),
    });
    let bwd = Rc::new(BackwardLoop {
        g: g.clone(),
        st: Rc::clone(&st),
        bufs: Rc::clone(&bufs),
    });

    let mut acc = ReportAcc::default();
    for &s in sources {
        assert!(s < n, "source {s} out of range");
        st.level.borrow_mut().iter_mut().for_each(|l| *l = UNSEEN);
        st.sigma.borrow_mut().iter_mut().for_each(|x| *x = 0.0);
        st.delta.borrow_mut().iter_mut().for_each(|x| *x = 0.0);
        st.level.borrow_mut()[s] = 0;
        st.sigma.borrow_mut()[s] = 1.0;
        st.src.set(s);

        // Forward BFS, level by level.
        let mut depth = 0i32;
        loop {
            st.cur.set(depth);
            st.frontier_grew.set(false);
            acc.push(&run_loop(gpu, fwd.clone(), template, params));
            if !st.frontier_grew.get() {
                break;
            }
            depth += 1;
        }
        // Backward dependency accumulation from the deepest level.
        for lvl in (0..depth).rev() {
            st.cur.set(lvl);
            acc.push(&run_loop(gpu, bwd.clone(), template, params));
        }
    }
    let bc = st.bc.borrow().clone();
    BcResult {
        bc,
        report: acc.finish(),
    }
}

/// Deterministic source sample: `k` nodes with non-zero out-degree, evenly
/// strided through the id space.
pub fn sample_sources(g: &Csr, k: usize) -> Vec<usize> {
    let n = g.num_nodes();
    let mut sources = Vec::with_capacity(k);
    if n == 0 {
        return sources;
    }
    let mut v = 0usize;
    let stride = (n / k.max(1)).max(1);
    while sources.len() < k && v < n {
        if g.degree(v) > 0 {
            sources.push(v);
        }
        v += stride;
    }
    sources
}

/// Serial CPU Brandes BC (restricted to the same `sources`) with operation
/// counting.
pub fn bc_cpu(g: &Csr, sources: &[usize]) -> (Vec<f64>, CpuCounter) {
    let n = g.num_nodes();
    let mut counter = CpuCounter::default();
    let mut bc = vec![0.0f64; n];
    for &s in sources {
        let mut level = vec![UNSEEN; n];
        let mut sigma = vec![0.0f64; n];
        let mut delta = vec![0.0f64; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        level[s] = 0;
        sigma[s] = 1.0;
        queue.push_back(s as u32);
        counter.store(3);
        while let Some(v) = queue.pop_front() {
            counter.load(1);
            order.push(v);
            let v = v as usize;
            for &w in g.neighbors(v) {
                let w = w as usize;
                counter.load(2);
                counter.branch(2);
                if level[w] == UNSEEN {
                    level[w] = level[v] + 1;
                    counter.store(1);
                    queue.push_back(w as u32);
                }
                if level[w] == level[v] + 1 {
                    sigma[w] += sigma[v];
                    counter.load(1);
                    counter.compute(1);
                    counter.store(1);
                }
            }
        }
        for &v in order.iter().rev() {
            let v = v as usize;
            for &w in g.neighbors(v) {
                let w = w as usize;
                counter.load(2);
                counter.branch(1);
                if level[w] == level[v] + 1 {
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                    counter.load(3);
                    counter.compute(3);
                    counter.store(1);
                }
            }
            if v != s {
                bc[v] += delta[v];
                counter.compute(1);
                counter.store(1);
            }
        }
    }
    (bc, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npar_graph::uniform_random;

    fn agree(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-6)
    }

    #[test]
    fn gpu_matches_cpu_for_every_template() {
        let g = uniform_random(120, 1, 8, 17);
        let sources = sample_sources(&g, 4);
        let (cpu, _) = bc_cpu(&g, &sources);
        for template in LoopTemplate::ALL {
            let mut gpu = Gpu::k20();
            let r = bc_gpu(&mut gpu, &g, &sources, template, &LoopParams::default());
            assert!(agree(&r.bc, &cpu), "{template} BC diverged");
        }
    }

    #[test]
    fn path_graph_bc_is_known() {
        // 0 -> 1 -> 2 -> 3: node 1 lies on paths 0->2, 0->3; node 2 on
        // 0->3, 1->3.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (bc, _) = bc_cpu(&g, &[0, 1, 2, 3]);
        assert_eq!(bc, vec![0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn sample_sources_respects_degree() {
        let g = Csr::from_edges(10, &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]);
        let s = sample_sources(&g, 3);
        assert!(!s.is_empty());
        assert!(s.iter().all(|&v| g.degree(v) > 0));
    }
}
