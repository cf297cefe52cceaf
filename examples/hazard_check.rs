//! npar-check in action: a broken variant of the shared delayed-buffer
//! template, caught by the hazard sanitizer.
//!
//! The real `DbufShared` template reserves a slot in the block's shared
//! staging buffer with a shared-memory *atomic* on the counter word. This
//! variant "saves" the atomic and bumps the counter with a plain
//! read-modify-write — on the sequential simulator the functional answer
//! still comes out right, but on hardware two warps bump the counter
//! concurrently, lose reservations and overwrite each other's buffered
//! iterations. `CheckLevel::Strict` turns that silent corruption into a
//! located diagnostic; the fixed kernel runs clean.
//!
//! ```sh
//! cargo run --release --example hazard_check
//! ```

use std::rc::Rc;

use npar::sim::{BlockCtx, CheckLevel, Gpu, Kernel, LaunchConfig};

/// Phase A of a delayed-buffer kernel: every thread reserves a slot in the
/// shared staging buffer and stashes its deferred iteration there.
struct DelayedBuffer {
    /// Reserve the slot atomically (correct) or with a plain
    /// read-modify-write on the counter word (the bug).
    atomic_counter: bool,
}

impl Kernel for DelayedBuffer {
    fn name(&self) -> &str {
        if self.atomic_counter {
            "dbuf-shared-fixed"
        } else {
            "dbuf-shared-broken"
        }
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        blk.for_each_thread(|t| {
            if self.atomic_counter {
                // next = atomicAdd(&counter, 1)
                t.shared_atomic(0);
            } else {
                // next = counter++  — a write/write race between lanes
                t.shared_ld(0);
                t.shared_st(0);
            }
            // buffer[next] = iteration
            t.shared_st(4 + t.thread_idx() * 4);
        });
        blk.sync();
        // ... phase B would replay the buffered iterations block-wide ...
    }
}

fn main() {
    let cfg = LaunchConfig::with_shared(1, 256, 4 + 256 * 4);

    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    let err = gpu
        .launch(
            Rc::new(DelayedBuffer {
                atomic_counter: false,
            }),
            cfg,
        )
        .expect_err("the broken variant must fail under Strict");
    println!("broken variant, CheckLevel::Strict:\n{err}");

    let mut gpu = Gpu::k20().with_check(CheckLevel::Strict);
    gpu.launch(
        Rc::new(DelayedBuffer {
            atomic_counter: true,
        }),
        cfg,
    )
    .expect("the atomic-counter variant is hazard-free");
    println!(
        "fixed variant, CheckLevel::Strict: clean ({} hazards)",
        gpu.synchronize().hazards
    );
}
