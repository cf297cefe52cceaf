//! npar-analyze walkthrough: static kernel analysis, proof-carrying scan
//! elision, and the trace-based template advisor.
//!
//! ```sh
//! cargo run --release --example advisor
//! ```
//!
//! Two kernels run under `CheckLevel::Strict`:
//!
//! * a **regular** grid-stride saxpy — every block records the same
//!   canonical trace, so after one checked-clean probe block the analyzer
//!   promotes the class and the checker *elides* the per-block scans of
//!   every later fingerprint-identical block;
//! * an **irregular** thread-mapped loop with power-law trip counts — no
//!   two blocks of one grid fingerprint alike, so the dynamic checker
//!   keeps scanning nearly every block; only the probe's identical twin
//!   in later identical grids ever elides (elision may only ever skip
//!   work the checker would have passed).
//!
//! The analysis report carries four verdicts per kernel class (barrier
//! structure, shared out-of-bounds, shared races, global races) plus
//! launch-shape and occupancy facts; `KernelAnalysis::advise()` turns
//! those facts into a template + consolidation recommendation, the
//! trace-level counterpart of `npar_core::advise_loop` (which works from
//! host-side loop shape instead).

use std::rc::Rc;

use npar::sim::{CheckLevel, GBuf, Gpu, LaunchConfig, ThreadCtx, ThreadKernel};

/// Regular: coalesced saxpy, identical trace in every block.
struct Saxpy {
    n: usize,
    x: GBuf<f32>,
    y: GBuf<f32>,
}

impl ThreadKernel for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        if i < self.n {
            t.ld(&self.x, i);
            t.ld(&self.y, i);
            t.compute(2);
            t.st(&self.y, i);
        }
    }
}

/// Irregular: power-law per-lane trip counts, like a high-variance degree
/// distribution under plain thread mapping.
struct Skewed {
    n: usize,
    data: GBuf<f32>,
}

impl ThreadKernel for Skewed {
    fn name(&self) -> &str {
        "skewed-loop"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        // A few threads do hundreds of trips; most do one.
        let trips = if i.is_multiple_of(97) { 400 } else { 1 + i % 3 };
        for j in 0..trips {
            t.ld(&self.data, (i * 31 + j * 17) % self.n);
            t.compute(1);
        }
    }
}

fn main() {
    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);

    // --- regular kernel: launch the same grid a few times -------------
    let n = 64 * 128;
    let x = gpu.alloc::<f32>(n);
    let y = gpu.alloc::<f32>(n);
    let saxpy = Rc::new(Saxpy { n, x, y });
    for _ in 0..4 {
        gpu.launch(saxpy.clone(), LaunchConfig::new(64, 128))
            .expect("saxpy is hazard-free");
    }

    // --- irregular kernel ---------------------------------------------
    let data = gpu.alloc::<f32>(n);
    let skewed = Rc::new(Skewed { n, data });
    for _ in 0..4 {
        gpu.launch(skewed.clone(), LaunchConfig::new(64, 128))
            .expect("skewed loop is hazard-free");
    }

    let report = gpu.synchronize();

    // Elision is visible in the run stats and the checker report: the
    // saxpy blocks after the first grid's probe were never scanned.
    println!(
        "blocks elided this run: {} (of {} total)",
        report.sim.elided,
        report.total().blocks
    );
    println!("checker: {}", gpu.take_check_report());

    // The per-class analysis: verdicts, structural facts, and advice.
    let analysis = gpu.analysis();
    println!("\n{analysis}");
    for k in &analysis.kernels {
        println!("advice for `{}`:\n  {}\n", k.kernel, k.advise());
    }
}
