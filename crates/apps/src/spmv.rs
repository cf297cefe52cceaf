//! Sparse matrix–vector multiplication (CSR), the paper's SpMV benchmark
//! [Greathouse & Daga, SC'14 baseline]. `y = A·x` where the inner loop over
//! a row's nonzeros is irregular whenever the matrix is.

use std::cell::RefCell;
use std::rc::Rc;

use npar_core::{run_loop, IrregularLoop, LoopParams, LoopTemplate};
use npar_graph::Csr;
use npar_sim::{CpuCounter, GBuf, Gpu, Report, ThreadCtx};

use crate::common::CsrBufs;

/// GPU SpMV result.
#[derive(Debug)]
pub struct SpmvResult {
    /// The product vector.
    pub y: Vec<f32>,
    /// Profiled execution report.
    pub report: Report,
}

struct SpmvLoop {
    a: Csr,
    x: Vec<f32>,
    y: RefCell<Vec<f32>>,
    bufs: CsrBufs,
    x_buf: GBuf<f32>,
    y_buf: GBuf<f32>,
}

impl IrregularLoop for SpmvLoop {
    fn name(&self) -> &str {
        "spmv"
    }
    fn outer_len(&self) -> usize {
        self.a.num_nodes()
    }
    fn inner_len(&self, i: usize) -> usize {
        self.a.degree(i)
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
        let e = self.a.row_start(i) + j;
        let col = self.a.col_indices_raw()[e] as usize;
        let aij = self.a.weights_raw().map_or(1.0, |w| w[e]);
        self.y.borrow_mut()[i] += aij * self.x[col];
        t.ld(&self.bufs.col_indices, e);
        t.ld(&self.bufs.weights, e);
        t.ld(&self.x_buf, col);
        t.compute(2);
    }
    fn outer_end(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.st(&self.y_buf, i);
    }
    fn has_reduction(&self) -> bool {
        true
    }
    fn combine_atomic(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.atomic(&self.y_buf, i);
    }
}

/// Run SpMV on the simulated GPU under `template`.
pub fn spmv_gpu(
    gpu: &mut Gpu,
    a: &Csr,
    x: &[f32],
    template: LoopTemplate,
    params: &LoopParams,
) -> SpmvResult {
    assert_eq!(x.len(), a.num_nodes(), "x must match the matrix dimension");
    let bufs = CsrBufs::alloc(gpu, a);
    let x_buf = gpu.alloc::<f32>(x.len().max(1));
    let y_buf = gpu.alloc::<f32>(a.num_nodes().max(1));
    let app = Rc::new(SpmvLoop {
        a: a.clone(),
        x: x.to_vec(),
        y: RefCell::new(vec![0.0; a.num_nodes()]),
        bufs,
        x_buf,
        y_buf,
    });
    let report = run_loop(gpu, app.clone(), template, params);
    let y = app.y.borrow().clone();
    SpmvResult { y, report }
}

/// Serial CPU SpMV with operation counting.
pub fn spmv_cpu(a: &Csr, x: &[f32]) -> (Vec<f32>, CpuCounter) {
    assert_eq!(x.len(), a.num_nodes());
    let mut counter = CpuCounter::default();
    let mut y = vec![0.0f32; a.num_nodes()];
    for (i, out) in y.iter_mut().enumerate() {
        counter.load(2); // row bounds
        counter.branch(1);
        let mut acc = 0.0f32;
        let start = a.row_start(i);
        for (j, &col) in a.neighbors(i).iter().enumerate() {
            let aij = a.weights_raw().map_or(1.0, |w| w[start + j]);
            acc += aij * x[col as usize];
            counter.load(3); // col, value, x[col]
            counter.compute(2); // mul + add
            counter.branch(1);
        }
        *out = acc;
        counter.store(1);
    }
    (y, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npar_graph::{uniform_random, with_random_weights};

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-3)
    }

    #[test]
    fn gpu_matches_cpu_for_every_template() {
        let g = with_random_weights(&uniform_random(300, 0, 40, 11), 9, 5);
        let x: Vec<f32> = (0..300).map(|i| (i % 7) as f32 * 0.5).collect();
        let (y_cpu, counter) = spmv_cpu(&g, &x);
        assert!(counter.loads > 0);
        for template in LoopTemplate::ALL {
            let mut gpu = Gpu::k20();
            let r = spmv_gpu(&mut gpu, &g, &x, template, &LoopParams::default());
            assert!(close(&r.y, &y_cpu), "{template} diverged from CPU");
        }
    }

    #[test]
    fn unweighted_matrix_uses_unit_values() {
        let g = uniform_random(50, 1, 3, 2);
        let x = vec![1.0f32; 50];
        let (y, _) = spmv_cpu(&g, &x);
        for (i, &yi) in y.iter().enumerate() {
            assert!((yi - g.degree(i) as f32).abs() < 1e-6);
        }
    }

    #[test]
    fn report_carries_profile() {
        let g = uniform_random(200, 0, 64, 3);
        let x = vec![1.0f32; 200];
        let mut gpu = Gpu::k20();
        let r = spmv_gpu(
            &mut gpu,
            &g,
            &x,
            LoopTemplate::ThreadMapped,
            &LoopParams::default(),
        );
        let m = r.report.total();
        assert!(m.gld_transactions > 0);
        assert!(m.gst_transactions > 0);
        // Irregular degrees must show up as divergence.
        assert!(m.warp_execution_efficiency() < 0.95);
    }
}
