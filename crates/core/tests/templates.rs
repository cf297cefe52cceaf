//! Cross-template correctness: every loop template must compute the same
//! result as a serial run of the user's "simple code", and every recursive
//! template must match the serial recursion — the invariant that makes the
//! paper's performance comparisons meaningful.

use std::cell::RefCell;
use std::rc::Rc;

use npar_core::{
    run_loop, run_recursive, IrregularLoop, LoopParams, LoopTemplate, RecParams, RecTemplate,
    TreeReduce,
};
use npar_sim::{GBuf, Gpu, ThreadCtx};
use npar_tree::{Tree, TreeGen};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A synthetic irregular loop: out[i] = sum of (i * 1000 + j) over
/// j < sizes[i]. Exercises the reduction path.
struct SumLoop {
    sizes: Vec<usize>,
    out: RefCell<Vec<u64>>,
    a: GBuf<u32>,
    y: GBuf<u64>,
}

impl SumLoop {
    fn new(gpu: &mut Gpu, sizes: Vec<usize>) -> Rc<Self> {
        let n = sizes.len();
        let total: usize = sizes.iter().sum();
        let a = gpu.alloc::<u32>(total.max(1));
        let y = gpu.alloc::<u64>(n.max(1));
        Rc::new(SumLoop {
            out: RefCell::new(vec![0; n]),
            sizes,
            a,
            y,
        })
    }

    fn expected(&self) -> Vec<u64> {
        self.sizes
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let s: u64 = (0..f).map(|j| (i * 1000 + j) as u64).sum();
                // outer_end applies a non-commutative finalization, pinning
                // down that templates run it once, after every body call.
                s * 2 + 1
            })
            .collect()
    }
}

impl IrregularLoop for SumLoop {
    fn name(&self) -> &str {
        "sum-loop"
    }
    fn outer_len(&self) -> usize {
        self.sizes.len()
    }
    fn inner_len(&self, i: usize) -> usize {
        self.sizes[i]
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        self.out.borrow_mut()[i] += (i * 1000 + j) as u64;
        t.ld(&self.a, j.min(self.a.len() - 1));
        t.compute(1);
    }
    fn outer_end(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        let mut out = self.out.borrow_mut();
        out[i] = out[i] * 2 + 1;
        t.st(&self.y, i);
    }
    fn has_reduction(&self) -> bool {
        true
    }
    fn combine_atomic(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.atomic(&self.y, i);
    }
}

fn random_sizes(n: usize, max: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                rng.gen_range(0..=max)
            } else {
                rng.gen_range(0..=8)
            }
        })
        .collect()
}

#[test]
fn all_loop_templates_agree_with_serial() {
    let sizes = random_sizes(400, 300, 42);
    for template in LoopTemplate::ALL {
        let mut gpu = Gpu::k20();
        let app = SumLoop::new(&mut gpu, sizes.clone());
        let expected = app.expected();
        let report = run_loop(&mut gpu, app.clone(), template, &LoopParams::default());
        assert_eq!(
            *app.out.borrow(),
            expected,
            "template {template} produced wrong results"
        );
        assert!(report.cycles > 0.0, "template {template} reported no time");
    }
}

#[test]
fn loop_templates_cover_every_lb_thres() {
    let sizes = random_sizes(200, 150, 7);
    for lb in [0, 1, 16, 64, 1024] {
        for template in [
            LoopTemplate::DualQueue,
            LoopTemplate::DbufShared,
            LoopTemplate::DbufGlobal,
            LoopTemplate::DparNaive,
            LoopTemplate::DparOpt,
        ] {
            let mut gpu = Gpu::k20();
            let app = SumLoop::new(&mut gpu, sizes.clone());
            let expected = app.expected();
            run_loop(
                &mut gpu,
                app.clone(),
                template,
                &LoopParams::with_lb_thres(lb),
            );
            assert_eq!(
                *app.out.borrow(),
                expected,
                "template {template} at lbTHRES={lb} wrong"
            );
        }
    }
}

#[test]
fn empty_and_singleton_loops() {
    for template in LoopTemplate::ALL {
        let mut gpu = Gpu::k20();
        let app = SumLoop::new(&mut gpu, vec![]);
        run_loop(&mut gpu, app.clone(), template, &LoopParams::default());
        assert!(app.out.borrow().is_empty());

        let mut gpu = Gpu::k20();
        let app = SumLoop::new(&mut gpu, vec![5]);
        let expected = app.expected();
        run_loop(&mut gpu, app.clone(), template, &LoopParams::default());
        assert_eq!(*app.out.borrow(), expected, "{template} singleton");
    }
}

#[test]
fn dpar_naive_launches_one_child_per_large_iteration() {
    let sizes = vec![100, 2, 100, 3, 100, 4];
    let mut gpu = Gpu::k20();
    let app = SumLoop::new(&mut gpu, sizes);
    let report = run_loop(
        &mut gpu,
        app,
        LoopTemplate::DparNaive,
        &LoopParams::with_lb_thres(32),
    );
    assert_eq!(report.device_launches, 3);
}

#[test]
fn dpar_opt_launches_at_most_one_child_per_block() {
    let sizes = random_sizes(2000, 200, 3);
    let large = sizes.iter().filter(|&&f| f > 32).count() as u64;
    let mut gpu = Gpu::k20();
    let app = SumLoop::new(&mut gpu, sizes.clone());
    let report = run_loop(
        &mut gpu,
        app,
        LoopTemplate::DparOpt,
        &LoopParams::with_lb_thres(32),
    );
    let blocks = 2000u64.div_ceil(192);
    assert!(report.device_launches <= blocks);
    assert!(report.device_launches > 0);
    // And strictly fewer launches than dpar-naive would make.
    assert!(report.device_launches < large);
}

/// Tree-descendants as a TreeReduce for template testing.
struct Desc {
    tree: Tree,
    vals: RefCell<Vec<u64>>,
    values: GBuf<u64>,
    parents: GBuf<u32>,
    offsets: GBuf<u32>,
    children: GBuf<u32>,
}

impl Desc {
    fn new(gpu: &mut Gpu, tree: Tree) -> Rc<Self> {
        let n = tree.num_nodes();
        Rc::new(Desc {
            vals: RefCell::new(vec![1; n]),
            values: gpu.alloc::<u64>(n),
            parents: gpu.alloc::<u32>(n),
            offsets: gpu.alloc::<u32>(n + 1),
            children: gpu.alloc::<u32>(n.saturating_sub(1).max(1)),
            tree,
        })
    }

    fn serial(&self) -> Vec<u64> {
        let n = self.tree.num_nodes();
        let mut v = vec![1u64; n];
        // Level order reversed = children before parents.
        for node in (1..n).rev() {
            let p = self.tree.parent(node) as usize;
            v[p] += v[node];
        }
        v
    }
}

impl TreeReduce for Desc {
    fn name(&self) -> &str {
        "desc"
    }
    fn tree(&self) -> &Tree {
        &self.tree
    }
    fn values_buf(&self) -> GBuf<u64> {
        self.values
    }
    fn parent_buf(&self) -> GBuf<u32> {
        self.parents
    }
    fn child_offsets_buf(&self) -> GBuf<u32> {
        self.offsets
    }
    fn children_buf(&self) -> GBuf<u32> {
        self.children
    }
    fn combine(&self, parent: usize, child: usize) {
        let add = self.vals.borrow()[child];
        self.vals.borrow_mut()[parent] += add;
    }
    fn flat_update(&self, _node: usize, ancestor: usize) {
        self.vals.borrow_mut()[ancestor] += 1;
    }
}

#[test]
fn recursive_templates_agree_with_serial() {
    for (depth, outdeg, sparsity) in [(4, 4, 0), (4, 8, 1), (5, 3, 2), (3, 32, 0), (2, 7, 0)] {
        let tree = TreeGen {
            depth,
            outdegree: outdeg,
            sparsity,
            seed: 99,
        }
        .generate();
        for template in RecTemplate::ALL {
            let mut gpu = Gpu::k20();
            let app = Desc::new(&mut gpu, tree.clone());
            let expected = app.serial();
            run_recursive(&mut gpu, app.clone(), template, &RecParams::default());
            assert_eq!(
                *app.vals.borrow(),
                expected,
                "{template} on depth={depth} outdeg={outdeg} sparsity={sparsity}"
            );
        }
    }
}

#[test]
fn rec_naive_launch_count_is_internal_nodes() {
    let tree = TreeGen {
        depth: 4,
        outdegree: 4,
        sparsity: 0,
        seed: 1,
    }
    .generate();
    let internal = (0..tree.num_nodes())
        .filter(|&v| tree.num_children(v) > 0)
        .count() as u64;
    let mut gpu = Gpu::k20();
    let app = Desc::new(&mut gpu, tree);
    let report = run_recursive(&mut gpu, app, RecTemplate::RecNaive, &RecParams::default());
    // Root kernel comes from the host; every other internal node is a
    // nested launch.
    assert_eq!(report.device_launches + report.host_launches, internal);
}

#[test]
fn rec_hier_launches_fewer_kernels_than_naive() {
    let tree = TreeGen {
        depth: 4,
        outdegree: 8,
        sparsity: 0,
        seed: 1,
    }
    .generate();
    let mut gpu = Gpu::k20();
    let app = Desc::new(&mut gpu, tree.clone());
    let naive = run_recursive(&mut gpu, app, RecTemplate::RecNaive, &RecParams::default());
    let mut gpu = Gpu::k20();
    let app = Desc::new(&mut gpu, tree);
    let hier = run_recursive(&mut gpu, app, RecTemplate::RecHier, &RecParams::default());
    assert!(hier.device_launches < naive.device_launches);
    // Hierarchical: one nested launch per level-1 child (depth-4 tree).
    assert_eq!(hier.device_launches, 8);
    assert_eq!(naive.device_launches, 8 + 64);
}

#[test]
fn rec_hier_uses_fewer_atomics_than_flat() {
    let tree = TreeGen {
        depth: 4,
        outdegree: 16,
        sparsity: 0,
        seed: 5,
    }
    .generate();
    let mut gpu = Gpu::k20();
    let app = Desc::new(&mut gpu, tree.clone());
    let flat = run_recursive(&mut gpu, app, RecTemplate::Flat, &RecParams::default());
    let mut gpu = Gpu::k20();
    let app = Desc::new(&mut gpu, tree.clone());
    let hier = run_recursive(&mut gpu, app, RecTemplate::RecHier, &RecParams::default());
    let flat_atomics = flat.total().atomics();
    let hier_atomics = hier.total().atomics();
    // Flat: one atomic per (node, ancestor) pair; hier: one per block.
    let expected_flat: u64 = (0..tree.num_nodes()).map(|v| tree.level(v) as u64).sum();
    assert_eq!(flat_atomics, expected_flat);
    assert!(hier_atomics < flat_atomics / 4);
}

#[test]
fn streams_change_timing_not_results() {
    let tree = TreeGen {
        depth: 4,
        outdegree: 6,
        sparsity: 0,
        seed: 3,
    }
    .generate();
    let mut gpu = Gpu::k20();
    let app = Desc::new(&mut gpu, tree.clone());
    let expected = app.serial();
    let one = run_recursive(
        &mut gpu,
        app.clone(),
        RecTemplate::RecNaive,
        &RecParams::with_streams(1),
    );
    assert_eq!(*app.vals.borrow(), expected);

    let mut gpu = Gpu::k20();
    let app = Desc::new(&mut gpu, tree);
    let two = run_recursive(
        &mut gpu,
        app.clone(),
        RecTemplate::RecNaive,
        &RecParams::with_streams(2),
    );
    assert_eq!(*app.vals.borrow(), expected);
    // Two streams let same-block launches overlap: never slower.
    assert!(two.cycles <= one.cycles * 1.001);
}
