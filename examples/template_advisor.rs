//! The compiler-integration angle: measure a loop's shape, let the advisor
//! pick a template, and validate the pick against a full sweep.
//!
//! ```sh
//! cargo run --release --example template_advisor
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use npar::core::{advise_loop, advise_tree, run_loop, IrregularLoop, LoopShape, LoopTemplate};
use npar::sim::{GBuf, Gpu, ThreadCtx};
use npar::tree::TreeGen;

struct Rows {
    sizes: Vec<usize>,
    out: RefCell<Vec<u64>>,
    buf: GBuf<u64>,
}

impl IrregularLoop for Rows {
    fn name(&self) -> &str {
        "advisor-demo"
    }
    fn outer_len(&self) -> usize {
        self.sizes.len()
    }
    fn inner_len(&self, i: usize) -> usize {
        self.sizes[i]
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        self.out.borrow_mut()[i] += j as u64;
        t.ld(&self.buf, i);
        t.compute(1);
    }
    fn has_reduction(&self) -> bool {
        true
    }
    fn combine_atomic(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.atomic(&self.buf, i);
    }
}

fn demo_loop(label: &str, sizes: Vec<usize>) {
    let n = sizes.len();
    let mut gpu = Gpu::k20();
    let probe = Rows {
        sizes: sizes.clone(),
        out: RefCell::new(vec![0; n]),
        buf: gpu.alloc(n),
    };
    let shape = LoopShape::measure(&probe);
    let advice = advise_loop(&shape);
    println!("\n=== {label} ===");
    println!(
        "shape: outer {} | mean {:.1} | max {} | imbalance {:.1} | heavy {:.1}%",
        shape.outer,
        shape.mean,
        shape.max,
        shape.imbalance(),
        shape.heavy_fraction * 100.0
    );
    println!("advice: {} — {}", advice.template, advice.rationale);

    // Validate: sweep every template and rank the advisor's pick.
    let mut times: Vec<(LoopTemplate, f64)> = LoopTemplate::ALL
        .iter()
        .map(|&template| {
            let mut gpu = Gpu::k20();
            let app = Rc::new(Rows {
                sizes: sizes.clone(),
                out: RefCell::new(vec![0; n]),
                buf: gpu.alloc(n),
            });
            let r = run_loop(&mut gpu, app, template, &advice.params);
            (template, r.seconds)
        })
        .collect();
    #[allow(clippy::disallowed_methods)] // total_cmp comparator
    times.sort_by(|a, b| a.1.total_cmp(&b.1));
    let rank = times
        .iter()
        .position(|(t, _)| *t == advice.template)
        .unwrap()
        + 1;
    println!(
        "sweep: best = {} ({:.3} ms); advisor's pick ranks #{rank} of {}",
        times[0].0,
        times[0].1 * 1e3,
        times.len()
    );
}

fn main() {
    demo_loop("regular rows", vec![24; 30_000]);
    demo_loop(
        "skewed rows (power tail)",
        (0..30_000)
            .map(|i| if i % 97 == 0 { 600 + (i % 500) } else { i % 6 })
            .collect(),
    );
    demo_loop(
        "rare heavy tail",
        (0..30_000)
            .map(|i| if i % 2500 == 0 { 4_000 } else { 2 })
            .collect(),
    );

    println!("\n=== trees ===");
    for (outdeg, sparsity) in [(128u32, 0u32), (128, 4), (3, 0)] {
        let tree = TreeGen {
            depth: 4,
            outdegree: outdeg,
            sparsity,
            seed: 11,
        }
        .generate();
        let (template, why) = advise_tree(&tree);
        println!(
            "outdegree {outdeg}, sparsity {sparsity} ({} nodes): {template} — {why}",
            tree.num_nodes()
        );
    }
}
