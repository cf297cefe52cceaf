//! Writing a kernel directly against the simulator API: a histogram with
//! global atomics, in a coalesced and an uncoalesced variant, showing how
//! the profiler exposes memory behaviour and atomic contention — and how to
//! set the host worker-thread count, which never changes the report
//! (DESIGN.md §10).
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use npar::sim::{GBuf, Gpu, LaunchConfig, ThreadCtx, ThreadKernel};

struct Histogram {
    /// Input values.
    data: Vec<u32>,
    /// Bin counts (functional result).
    bins: RefCell<Vec<u32>>,
    data_buf: GBuf<u32>,
    bins_buf: GBuf<u32>,
    /// Strided (uncoalesced) or linear (coalesced) input access.
    strided: bool,
}

impl ThreadKernel for Histogram {
    fn name(&self) -> &str {
        if self.strided {
            "histogram-strided"
        } else {
            "histogram-linear"
        }
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.data.len();
        let total = t.grid_threads();
        let per_thread = n.div_ceil(total);
        for k in 0..per_thread {
            // Linear: consecutive threads read consecutive elements.
            // Strided: each thread reads a private contiguous chunk, so a
            // warp's 32 lanes touch 32 different cache lines.
            let idx = if self.strided {
                t.global_id() * per_thread + k
            } else {
                k * total + t.global_id()
            };
            if idx >= n {
                break;
            }
            let bin = (self.data[idx] % 64) as usize;
            self.bins.borrow_mut()[bin] += 1;
            t.ld(&self.data_buf, idx);
            t.compute(2);
            t.atomic(&self.bins_buf, bin);
        }
    }
}

fn main() {
    let n = 1 << 20;
    let data: Vec<u32> = (0..n as u32).map(|x| x.wrapping_mul(2654435761)).collect();

    for strided in [false, true] {
        // Host-side parallelism: blocks are traced on this thread in block
        // order (the kernel and its `bins` never leave it, hence `Rc` and
        // `RefCell`), and only their warp alignment fans out over up to 4
        // worker threads. Purely a wall-clock knob — the report below is
        // byte-identical at any thread count (or with no call at all,
        // which defaults to NPAR_THREADS / the machine's core count).
        let mut gpu = Gpu::k20().with_threads(4);
        let k = Rc::new(Histogram {
            data: data.clone(),
            bins: RefCell::new(vec![0; 64]),
            data_buf: gpu.alloc::<u32>(n),
            bins_buf: gpu.alloc::<u32>(64),
            strided,
        });
        // A fixed-size grid so each thread owns a multi-element range (the
        // access-pattern contrast needs per-thread chunks).
        gpu.launch(k.clone(), LaunchConfig::new(130, 192))
            .expect("launch");
        let report = gpu.synchronize();
        let total: u32 = k.bins.borrow().iter().sum();
        assert_eq!(total as usize, n);
        let m = report.total();
        println!(
            "{:<20} {:>9.3} ms  gld_eff {:>6.1}%  atomics {:>8}  occupancy {:>5.1}%",
            if strided {
                "strided (bad)"
            } else {
                "linear (coalesced)"
            },
            report.seconds * 1e3,
            m.gld_efficiency() * 100.0,
            m.atomics(),
            report.achieved_occupancy * 100.0,
        );
    }
    println!("\nSame arithmetic, same atomics — only the addresses differ.");
}
