//! PageRank, after the GPU implementation of Duong et al. the paper
//! references: pull-style iteration — each node gathers the ranks of its
//! in-neighbors (an irregular nested loop over the transpose graph).

use std::cell::RefCell;
use std::rc::Rc;

use npar_core::{run_loop, IrregularLoop, LoopParams, LoopTemplate};
use npar_graph::Csr;
use npar_sim::{CpuCounter, GBuf, Gpu, Report, ThreadCtx};

use crate::common::{CsrBufs, ReportAcc};

/// Damping factor used throughout (the standard 0.85).
pub const DAMPING: f64 = 0.85;

/// GPU PageRank result.
#[derive(Debug)]
pub struct PageRankResult {
    /// Final ranks (sums to ~1).
    pub ranks: Vec<f64>,
    /// Profiled execution report across all iterations.
    pub report: Report,
}

struct PrLoop {
    /// Transpose graph: outer loop over nodes, inner loop over in-edges.
    rev: Csr,
    /// Out-degrees in the original orientation.
    outdeg: Vec<u32>,
    rank: RefCell<Vec<f64>>,
    next: RefCell<Vec<f64>>,
    bufs: CsrBufs,
    rank_buf: GBuf<f32>,
    next_buf: GBuf<f32>,
    outdeg_buf: GBuf<u32>,
}

impl IrregularLoop for PrLoop {
    fn name(&self) -> &str {
        "pagerank"
    }
    fn outer_len(&self) -> usize {
        self.rev.num_nodes()
    }
    fn inner_len(&self, i: usize) -> usize {
        self.rev.degree(i)
    }
    fn inner_len_cost(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.bufs.row_offsets, i);
        t.ld(&self.bufs.row_offsets, i + 1);
    }
    fn outer_begin(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.bufs.row_offsets, i);
        t.ld(&self.bufs.row_offsets, i + 1);
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        let e = self.rev.row_start(i) + j;
        let src = self.rev.col_indices_raw()[e] as usize;
        t.ld(&self.bufs.col_indices, e);
        t.ld(&self.rank_buf, src);
        t.ld(&self.outdeg_buf, src);
        t.compute(2);
        let share = self.rank.borrow()[src] / f64::from(self.outdeg[src].max(1));
        self.next.borrow_mut()[i] += share;
    }
    fn outer_end(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.compute(2);
        t.st(&self.next_buf, i);
        let n = self.rev.num_nodes() as f64;
        let mut next = self.next.borrow_mut();
        next[i] = (1.0 - DAMPING) / n + DAMPING * next[i];
    }
    fn has_reduction(&self) -> bool {
        true
    }
    fn combine_atomic(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.atomic(&self.next_buf, i);
    }
}

/// Run `iterations` of pull PageRank on the simulated GPU under `template`.
pub fn pagerank_gpu(
    gpu: &mut Gpu,
    g: &Csr,
    iterations: u32,
    template: LoopTemplate,
    params: &LoopParams,
) -> PageRankResult {
    let n = g.num_nodes();
    let rev = g.reverse();
    let outdeg: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
    let bufs = CsrBufs::alloc(gpu, &rev);
    let rank_buf = gpu.alloc::<f32>(n.max(1));
    let next_buf = gpu.alloc::<f32>(n.max(1));
    let outdeg_buf = gpu.alloc::<u32>(n.max(1));
    let app = Rc::new(PrLoop {
        rev,
        outdeg,
        rank: RefCell::new(vec![1.0 / n.max(1) as f64; n]),
        next: RefCell::new(vec![0.0; n]),
        bufs,
        rank_buf,
        next_buf,
        outdeg_buf,
    });

    let mut acc = ReportAcc::default();
    for _ in 0..iterations {
        app.next.borrow_mut().iter_mut().for_each(|x| *x = 0.0);
        acc.push(&run_loop(gpu, app.clone(), template, params));
        app.rank.swap(&app.next);
    }
    let ranks = app.rank.borrow().clone();
    PageRankResult {
        ranks,
        report: acc.finish(),
    }
}

/// Serial CPU PageRank with operation counting.
pub fn pagerank_cpu(g: &Csr, iterations: u32) -> (Vec<f64>, CpuCounter) {
    let n = g.num_nodes();
    let rev = g.reverse();
    let outdeg: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
    let mut counter = CpuCounter::default();
    let mut rank = vec![1.0 / n.max(1) as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        for (i, slot) in next.iter_mut().enumerate() {
            counter.load(2);
            let mut acc = 0.0;
            for &src in rev.neighbors(i) {
                let src = src as usize;
                acc += rank[src] / f64::from(outdeg[src].max(1));
                counter.load(3);
                counter.compute(2);
                counter.branch(1);
            }
            *slot = (1.0 - DAMPING) / n as f64 + DAMPING * acc;
            counter.compute(2);
            counter.store(1);
        }
        std::mem::swap(&mut rank, &mut next);
    }
    (rank, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npar_graph::uniform_random;

    fn agree(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn gpu_matches_cpu_for_every_template() {
        let g = uniform_random(200, 1, 20, 31);
        let (cpu, _) = pagerank_cpu(&g, 3);
        for template in LoopTemplate::ALL {
            let mut gpu = Gpu::k20();
            let r = pagerank_gpu(&mut gpu, &g, 3, template, &LoopParams::default());
            assert!(agree(&r.ranks, &cpu), "{template} ranks diverged");
        }
    }

    #[test]
    fn ranks_sum_to_one_without_dangling_nodes() {
        let g = uniform_random(100, 1, 6, 8);
        let (r, _) = pagerank_cpu(&g, 10);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn hub_gets_more_rank() {
        // Everyone points at node 0; node 0 points at node 1.
        let g = Csr::from_edges(4, &[(1, 0), (2, 0), (3, 0), (0, 1)]);
        let (r, _) = pagerank_cpu(&g, 20);
        assert!(r[0] > r[2]);
        assert!(r[1] > r[2]);
    }
}
