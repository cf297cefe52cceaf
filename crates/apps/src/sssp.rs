//! Single-Source Shortest Path, after the thread-mapped implementation of
//! Harish & Narayanan [HiPC'07] the paper uses as its baseline: an
//! iterative relaxation with a frontier mask, a relax kernel (the irregular
//! nested loop) and an update kernel, repeated until no distance improves.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use npar_core::{run_loop, IrregularLoop, LoopParams, LoopTemplate};
use npar_graph::Csr;
use npar_sim::{CpuCounter, GBuf, Gpu, LaunchConfig, Report, ThreadCtx, ThreadKernel};

use crate::common::{CsrBufs, ReportAcc};

/// Distance value representing "unreached".
pub const INF: f32 = f32::INFINITY;

/// GPU SSSP result.
#[derive(Debug)]
pub struct SsspResult {
    /// Final distances from the source.
    pub dist: Vec<f32>,
    /// Relaxation rounds executed.
    pub iterations: u32,
    /// Profiled execution report (all rounds merged).
    pub report: Report,
}

struct SsspState {
    dist: RefCell<Vec<f32>>,
    up: RefCell<Vec<f32>>,
    mask: RefCell<Vec<bool>>,
    changed: Cell<bool>,
}

struct RelaxLoop {
    g: Csr,
    st: Rc<SsspState>,
    bufs: CsrBufs,
    dist_buf: GBuf<f32>,
    up_buf: GBuf<f32>,
    mask_buf: GBuf<u32>,
}

impl IrregularLoop for RelaxLoop {
    fn name(&self) -> &str {
        "sssp-relax"
    }
    fn outer_len(&self) -> usize {
        self.g.num_nodes()
    }
    fn inner_len(&self, i: usize) -> usize {
        if self.st.mask.borrow()[i] {
            self.g.degree(i)
        } else {
            0
        }
    }
    fn inner_len_cost(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.mask_buf, i);
        if self.st.mask.borrow()[i] {
            t.ld(&self.bufs.row_offsets, i);
            t.ld(&self.bufs.row_offsets, i + 1);
        }
    }
    fn outer_begin(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.ld(&self.mask_buf, i);
        if self.st.mask.borrow()[i] {
            t.ld(&self.dist_buf, i);
            t.ld(&self.bufs.row_offsets, i);
            t.ld(&self.bufs.row_offsets, i + 1);
        }
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        let e = self.g.row_start(i) + j;
        let nbr = self.g.col_indices_raw()[e] as usize;
        let w = self.g.weights_raw().map_or(1.0, |ws| ws[e]);
        t.ld(&self.bufs.col_indices, e);
        t.ld(&self.bufs.weights, e);
        t.ld(&self.up_buf, nbr);
        t.compute(2);
        let cand = self.st.dist.borrow()[i] + w;
        let mut up = self.st.up.borrow_mut();
        if cand < up[nbr] {
            up[nbr] = cand;
            // Harish-Narayanan relax the update array with an atomicMin:
            // concurrent relaxations of the same neighbor from different
            // blocks must not lose improvements (a plain store here is the
            // write/write race npar-check flags).
            t.atomic(&self.up_buf, nbr);
        }
    }
}

/// The per-round update kernel: promote improved tentative distances and
/// rebuild the frontier mask (regular, fully coalesced — launched outside
/// the templates like in the reference implementation).
struct UpdateKernel {
    st: Rc<SsspState>,
    n: usize,
    dist_buf: GBuf<f32>,
    up_buf: GBuf<f32>,
    mask_buf: GBuf<u32>,
}

impl ThreadKernel for UpdateKernel {
    fn name(&self) -> &str {
        "sssp-update"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let stride = t.grid_threads();
        let mut i = t.global_id();
        while i < self.n {
            t.ld(&self.dist_buf, i);
            t.ld(&self.up_buf, i);
            t.compute(1);
            let up = self.st.up.borrow()[i];
            let improved = up < self.st.dist.borrow()[i];
            if improved {
                self.st.dist.borrow_mut()[i] = up;
                self.st.changed.set(true);
                t.st(&self.dist_buf, i);
            }
            self.st.mask.borrow_mut()[i] = improved;
            t.st(&self.mask_buf, i);
            i += stride;
        }
    }
}

/// Run SSSP from `src` under `template`. Unweighted graphs use unit edge
/// weights.
pub fn sssp_gpu(
    gpu: &mut Gpu,
    g: &Csr,
    src: usize,
    template: LoopTemplate,
    params: &LoopParams,
) -> SsspResult {
    let n = g.num_nodes();
    assert!(src < n, "source out of range");
    let bufs = CsrBufs::alloc(gpu, g);
    let dist_buf = gpu.alloc::<f32>(n);
    let up_buf = gpu.alloc::<f32>(n);
    let mask_buf = gpu.alloc::<u32>(n);
    let st = Rc::new(SsspState {
        dist: RefCell::new(vec![INF; n]),
        up: RefCell::new(vec![INF; n]),
        mask: RefCell::new(vec![false; n]),
        changed: Cell::new(false),
    });
    st.dist.borrow_mut()[src] = 0.0;
    st.up.borrow_mut()[src] = 0.0;
    st.mask.borrow_mut()[src] = true;

    let relax = Rc::new(RelaxLoop {
        g: g.clone(),
        st: Rc::clone(&st),
        bufs,
        dist_buf,
        up_buf,
        mask_buf,
    });
    let update = Rc::new(UpdateKernel {
        st: Rc::clone(&st),
        n,
        dist_buf,
        up_buf,
        mask_buf,
    });

    let mut acc = ReportAcc::default();
    let mut iterations = 0u32;
    // Each round relaxes the frontier then rebuilds it; the frontier mask
    // can only stay non-empty while distances keep improving, and each
    // improvement lowers a distance along a simple path, so n rounds bound
    // termination.
    for _ in 0..n.max(1) {
        iterations += 1;
        acc.push(&run_loop(gpu, relax.clone(), template, params));
        st.changed.set(false);
        gpu.launch(
            update.clone(),
            LaunchConfig::cover(n, params.thread_block, params.max_grid),
        )
        .expect("sssp update launch");
        acc.push(&gpu.synchronize());
        if !st.changed.get() {
            break;
        }
    }
    let dist = st.dist.borrow().clone();
    SsspResult {
        dist,
        iterations,
        report: acc.finish(),
    }
}

/// Serial CPU SSSP (Dijkstra with a binary heap) with operation counting.
pub fn sssp_cpu(g: &Csr, src: usize) -> (Vec<f32>, CpuCounter) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = g.num_nodes();
    let mut counter = CpuCounter::default();
    let mut dist = vec![INF; n];
    dist[src] = 0.0;
    let mut heap: BinaryHeap<Reverse<(ordered::F32, u32)>> = BinaryHeap::new();
    heap.push(Reverse((ordered::F32(0.0), src as u32)));
    counter.store(1);
    while let Some(Reverse((ordered::F32(d), v))) = heap.pop() {
        counter.load(2);
        counter.branch(1);
        counter.compute((n as f64).log2().max(1.0) as u64); // heap sift
        let v = v as usize;
        if d > dist[v] {
            continue;
        }
        let start = g.row_start(v);
        counter.load(2);
        for (j, &w) in g.neighbors(v).iter().enumerate() {
            let wt = g.weights_raw().map_or(1.0, |ws| ws[start + j]);
            counter.load(3);
            counter.compute(1);
            counter.branch(1);
            let cand = d + wt;
            let w = w as usize;
            if cand < dist[w] {
                dist[w] = cand;
                counter.store(1);
                counter.compute((n as f64).log2().max(1.0) as u64);
                heap.push(Reverse((ordered::F32(cand), w as u32)));
            }
        }
    }
    (dist, counter)
}

/// Minimal total-ordered f32 wrapper for the Dijkstra heap (distances are
/// never NaN).
mod ordered {
    #[derive(Clone, Copy, PartialEq)]
    pub struct F32(pub f32);
    impl Eq for F32 {}
    impl PartialOrd for F32 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for F32 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npar_graph::{uniform_random, with_random_weights};

    fn agree(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-3)
    }

    #[test]
    fn gpu_matches_dijkstra_for_every_template() {
        let g = with_random_weights(&uniform_random(250, 1, 12, 21), 9, 4);
        let (cpu, _) = sssp_cpu(&g, 0);
        for template in LoopTemplate::ALL {
            let mut gpu = Gpu::k20();
            let r = sssp_gpu(&mut gpu, &g, 0, template, &LoopParams::default());
            assert!(agree(&r.dist, &cpu), "{template} distances diverged");
            assert!(r.iterations >= 2);
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        // Node 2 has no in-edges.
        let g = Csr::from_weighted_edges(3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let mut gpu = Gpu::k20();
        let r = sssp_gpu(
            &mut gpu,
            &g,
            0,
            LoopTemplate::ThreadMapped,
            &LoopParams::default(),
        );
        assert_eq!(r.dist[0], 0.0);
        assert_eq!(r.dist[1], 1.0);
        assert!(r.dist[2].is_infinite());
    }

    #[test]
    fn unweighted_graph_gives_hop_counts() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (d, _) = sssp_cpu(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
        let mut gpu = Gpu::k20();
        let r = sssp_gpu(
            &mut gpu,
            &g,
            0,
            LoopTemplate::DbufShared,
            &LoopParams::default(),
        );
        assert!(agree(&r.dist, &d));
    }
}
