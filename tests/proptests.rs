//! Randomized property tests over the core invariants (hand-rolled
//! case generation on the deterministic in-tree RNG — the offline build
//! environment has no proptest):
//! * every loop template computes the serial result, for arbitrary
//!   irregular shapes and thresholds;
//! * every recursive template matches the serial tree reduction on
//!   arbitrary tree shapes;
//! * CSR construction and reversal are structure-preserving;
//! * sorts sort, whatever the input;
//! * profiler metrics stay within their physical bounds.

use std::cell::RefCell;
use std::rc::Rc;

use npar::core::{
    run_loop, run_recursive, IrregularLoop, LoopParams, LoopTemplate, RecParams, RecTemplate,
};
use npar::graph::Csr;
use npar::sim::{GBuf, Gpu, ThreadCtx};
use npar::tree::TreeGen;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An arbitrary irregular loop whose body XOR-mixes (i, j) into out[i] —
/// order-independent, so any correct template reproduces it exactly; the
/// outer_end transform is non-commutative to catch once-and-after-bodies
/// violations.
struct MixLoop {
    sizes: Vec<usize>,
    out: RefCell<Vec<u64>>,
    buf: GBuf<u64>,
}

impl IrregularLoop for MixLoop {
    fn name(&self) -> &str {
        "prop-mix"
    }
    fn outer_len(&self) -> usize {
        self.sizes.len()
    }
    fn inner_len(&self, i: usize) -> usize {
        self.sizes[i]
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        self.out.borrow_mut()[i] ^= 0x9e37_79b9_7f4a_7c15u64
            .wrapping_mul(i as u64 + 1)
            .wrapping_add(j as u64);
        t.ld(&self.buf, i.min(self.buf.len() - 1));
        t.compute(1);
    }
    fn outer_end(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        let mut o = self.out.borrow_mut();
        o[i] = o[i].rotate_left(7) ^ 0xabcd;
        t.st(&self.buf, i.min(self.buf.len() - 1));
    }
    fn has_reduction(&self) -> bool {
        true
    }
    fn combine_atomic(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.atomic(&self.buf, i.min(self.buf.len() - 1));
    }
}

fn serial_mix(sizes: &[usize]) -> Vec<u64> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let mut v = 0u64;
            for j in 0..f {
                v ^= 0x9e37_79b9_7f4a_7c15u64
                    .wrapping_mul(i as u64 + 1)
                    .wrapping_add(j as u64);
            }
            v.rotate_left(7) ^ 0xabcd
        })
        .collect()
}

#[test]
fn any_loop_template_matches_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5e5);
    for case in 0..48 {
        let outer = rng.gen_range(1usize..80);
        let sizes: Vec<usize> = (0..outer).map(|_| rng.gen_range(0usize..120)).collect();
        let template = LoopTemplate::ALL[case % LoopTemplate::ALL.len()];
        let lb = rng.gen_range(0usize..200);

        let mut gpu = Gpu::k20();
        let app = Rc::new(MixLoop {
            out: RefCell::new(vec![0; sizes.len()]),
            buf: gpu.alloc::<u64>(sizes.len().max(1)),
            sizes: sizes.clone(),
        });
        let report = run_loop(
            &mut gpu,
            app.clone(),
            template,
            &LoopParams::with_lb_thres(lb),
        );
        assert_eq!(
            &*app.out.borrow(),
            &serial_mix(&sizes),
            "case {case}: {template:?} lb={lb} sizes={sizes:?}"
        );
        let m = report.total();
        assert!(m.warp_execution_efficiency() <= 1.0 + 1e-9);
        // Broadcast reads can push gld efficiency above 100% (one
        // transaction serves every lane), like nvprof's metric; the warp
        // width bounds it.
        assert!(m.gld_efficiency() <= 32.0 + 1e-9);
        assert!(m.gld_efficiency() > 0.0);
        assert!(report.achieved_occupancy <= 1.0 + 1e-9);
    }
}

#[test]
fn any_tree_template_matches_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7ee);
    for case in 0..36 {
        let depth = rng.gen_range(1u32..6);
        let outdegree = rng.gen_range(1u32..12);
        let sparsity = rng.gen_range(0u32..4);
        let seed = rng.gen_range(0u64..1000);
        let template = RecTemplate::ALL[case % RecTemplate::ALL.len()];

        let tree = TreeGen {
            depth,
            outdegree,
            sparsity,
            seed,
        }
        .generate();
        let n = tree.num_nodes();
        // Serial descendants.
        let mut expect = vec![1u64; n];
        for v in (1..n).rev() {
            let p = tree.parent(v) as usize;
            expect[p] += expect[v];
        }
        let mut gpu = Gpu::k20();
        let app = Rc::new(PropDesc {
            vals: RefCell::new(vec![1; n]),
            values: gpu.alloc::<u64>(n),
            parents: gpu.alloc::<u32>(n),
            offsets: gpu.alloc::<u32>(n + 1),
            children: gpu.alloc::<u32>(n.saturating_sub(1).max(1)),
            tree,
        });
        run_recursive(&mut gpu, app.clone(), template, &RecParams::default());
        assert_eq!(
            &*app.vals.borrow(),
            &expect,
            "case {case}: {template:?} depth={depth} outdegree={outdegree} \
             sparsity={sparsity} seed={seed}"
        );
    }
}

#[test]
fn csr_roundtrip_preserves_edges() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc52);
    for case in 0..48 {
        let m = rng.gen_range(0usize..400);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0u32..50), rng.gen_range(0u32..50)))
            .collect();

        let g = Csr::from_edges(50, &edges);
        assert!(g.validate().is_ok(), "case {case}");
        assert_eq!(g.num_edges(), edges.len());
        // Degree sums match.
        let total: usize = (0..50).map(|v| g.degree(v)).sum();
        assert_eq!(total, edges.len());
        // Reversal preserves the edge multiset.
        let r = g.reverse();
        assert_eq!(r.num_edges(), edges.len());
        let mut fwd: Vec<(u32, u32)> = edges.clone();
        let mut back: Vec<(u32, u32)> = (0..50)
            .flat_map(|v| r.neighbors(v).iter().map(move |&u| (u, v as u32)))
            .collect();
        fwd.sort_unstable();
        back.sort_unstable();
        assert_eq!(fwd, back, "case {case}");
    }
}

#[test]
fn gpu_sorts_sort() {
    const ALGOS: [npar::apps::sort::SortAlgo; 3] = [
        npar::apps::sort::SortAlgo::MergeFlat,
        npar::apps::sort::SortAlgo::QuickSimple,
        npar::apps::sort::SortAlgo::QuickAdvanced,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x5047);
    for case in 0..24 {
        let n = rng.gen_range(0usize..600);
        let mut data: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let algo = ALGOS[case % ALGOS.len()];

        let mut gpu = Gpu::k20();
        let r = npar::apps::sort::sort_gpu(
            &mut gpu,
            &data,
            algo,
            &npar::apps::sort::SortParams::default(),
        );
        data.sort_unstable();
        assert_eq!(r.data, data, "case {case}: {algo:?} n={n}");
    }
}

#[test]
fn tree_generation_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x18ee);
    for case in 0..60 {
        let depth = rng.gen_range(1u32..7);
        let outdegree = rng.gen_range(0u32..10);
        let sparsity = rng.gen_range(0u32..5);
        let seed = rng.gen_range(0u64..500);

        let tree = TreeGen {
            depth,
            outdegree,
            sparsity,
            seed,
        }
        .generate();
        assert!(tree.validate().is_ok(), "case {case}");
        assert!(tree.num_levels() as u32 <= depth.max(1));
        // Level-order ids: every child id greater than its parent.
        for v in 1..tree.num_nodes() {
            assert!((tree.parent(v) as usize) < v, "case {case}");
        }
    }
}

struct PropDesc {
    tree: npar::tree::Tree,
    vals: RefCell<Vec<u64>>,
    values: GBuf<u64>,
    parents: GBuf<u32>,
    offsets: GBuf<u32>,
    children: GBuf<u32>,
}

impl npar::core::TreeReduce for PropDesc {
    fn name(&self) -> &str {
        "prop-desc"
    }
    fn tree(&self) -> &npar::tree::Tree {
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
        let c = self.vals.borrow()[child];
        self.vals.borrow_mut()[parent] += c;
    }
    fn flat_update(&self, _node: usize, ancestor: usize) {
        self.vals.borrow_mut()[ancestor] += 1;
    }
}

struct OneCompute;

impl npar::sim::ThreadKernel for OneCompute {
    fn name(&self) -> &str {
        "prop-place"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        t.compute(1);
    }
}

/// Every launch a device accepts places every block on an SM exactly once:
/// a block no SM can hold (threads, warps, blocks, registers or shared
/// memory) is refused at launch instead of silently never running.
#[test]
fn accepted_launches_place_every_block() {
    use npar::sim::{CostModel, DeviceConfig, LaunchConfig, SimError};
    let mut rng = ChaCha8Rng::seed_from_u64(0x91ace);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..300 {
        let device = DeviceConfig {
            num_sms: rng.gen_range(1u32..4),
            warp_size: [16u32, 32][rng.gen_range(0usize..2)],
            max_threads_per_sm: rng.gen_range(32u32..=1024),
            max_blocks_per_sm: rng.gen_range(0u32..=8),
            max_warps_per_sm: rng.gen_range(0u32..=40),
            shared_mem_per_sm: rng.gen_range(0u32..=32 * 1024),
            shared_mem_per_block: rng.gen_range(0u32..=32 * 1024),
            max_threads_per_block: rng.gen_range(1u32..=1024),
            registers_per_sm: rng.gen_range(0u32..=65536),
            registers_per_thread: rng.gen_range(1u32..=64),
            ..DeviceConfig::tiny()
        };
        let shared = if rng.gen_range(0u32..2) == 0 {
            0
        } else {
            rng.gen_range(0u32..=16 * 1024)
        };
        let cfg =
            LaunchConfig::with_shared(rng.gen_range(1u32..=6), rng.gen_range(1u32..=1024), shared);
        let mut gpu = Gpu::new(device.clone(), CostModel::default()).with_profiler(true);
        match gpu.launch(Rc::new(OneCompute), cfg) {
            Err(SimError::InvalidLaunch(_)) => {
                refused += 1;
                assert!(
                    device.validate_launch(&cfg).is_err(),
                    "case {case}: the public check agrees"
                );
                continue;
            }
            Err(e) => panic!("case {case}: unexpected error {e}"),
            Ok(()) => accepted += 1,
        }
        gpu.synchronize();
        let profile = gpu.take_profile();
        let mut placed: Vec<u32> = profile
            .blocks
            .iter()
            .filter(|b| b.grid == 0 && !b.resumed)
            .map(|b| b.block)
            .collect();
        placed.sort_unstable();
        let want: Vec<u32> = (0..cfg.grid_dim).collect();
        assert_eq!(placed, want, "case {case}: {cfg:?} on {device:?}");
    }
    assert!(
        accepted > 30 && refused > 30,
        "accepted {accepted}, refused {refused}"
    );
}
