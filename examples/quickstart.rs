//! Quickstart: write the "simple code" of an irregular nested loop once,
//! run it under every parallelization template, and read the profile.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use npar::core::{run_loop, IrregularLoop, LoopParams, LoopTemplate};
use npar::sim::{GBuf, Gpu, ThreadCtx};

/// A toy irregular workload: row i sums `i % 97 + 1` values.
struct Rows {
    sizes: Vec<usize>,
    data: GBuf<f32>,
    out: GBuf<f32>,
    sums: RefCell<Vec<f32>>,
}

impl IrregularLoop for Rows {
    fn name(&self) -> &str {
        "quickstart"
    }
    fn outer_len(&self) -> usize {
        self.sizes.len()
    }
    fn inner_len(&self, i: usize) -> usize {
        self.sizes[i]
    }
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize) {
        self.sums.borrow_mut()[i] += (i + j) as f32;
        t.ld(&self.data, (i + j) % self.data.len());
        t.compute(1);
    }
    fn outer_end(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.st(&self.out, i);
    }
    fn has_reduction(&self) -> bool {
        true
    }
    fn combine_atomic(&self, t: &mut ThreadCtx<'_, '_>, i: usize) {
        t.atomic(&self.out, i);
    }
}

fn main() {
    let n = 20_000;
    // Irregular sizes: mostly tiny rows with a heavy tail.
    let sizes: Vec<usize> = (0..n)
        .map(|i| if i % 61 == 0 { 400 + i % 800 } else { i % 9 })
        .collect();

    println!(
        "{:<16} {:>12} {:>10} {:>9} {:>13}",
        "template", "time", "speedup", "warp_eff", "nested calls"
    );
    let mut baseline = None;
    for template in LoopTemplate::ALL {
        let mut gpu = Gpu::k20();
        let app = Rc::new(Rows {
            sizes: sizes.clone(),
            data: gpu.alloc::<f32>(4096),
            out: gpu.alloc::<f32>(n),
            sums: RefCell::new(vec![0.0; n]),
        });
        let report = run_loop(&mut gpu, app, template, &LoopParams::default());
        let base = *baseline.get_or_insert(report.seconds);
        println!(
            "{:<16} {:>9.3} ms {:>9.2}x {:>8.1}% {:>13}",
            template.to_string(),
            report.seconds * 1e3,
            base / report.seconds,
            report.warp_execution_efficiency() * 100.0,
            report.device_launches,
        );
    }
}
