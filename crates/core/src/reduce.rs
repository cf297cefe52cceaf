//! Shared-memory block reduction emission.
//!
//! Several templates combine per-thread partial results with the classic
//! shared-memory tree reduction (store partials, then log₂(width) halving
//! rounds separated by barriers). The combination itself already happened
//! functionally inside the loop body; this helper emits the corresponding
//! *timing* instructions.

use npar_sim::BlockCtx;

/// Emit a block-wide tree reduction over `width` 4-byte partials staged at
/// shared-memory offset `base`. Leaves the result in slot 0.
pub fn emit_block_reduce(blk: &mut BlockCtx<'_>, width: u32, base: u32) {
    if width <= 1 {
        return;
    }
    // Every thread publishes its partial.
    blk.for_each_thread(|t| {
        if t.thread_idx() < width {
            t.shared_st(base + t.thread_idx() * 4);
        }
    });
    blk.sync();
    let mut stride = width.next_power_of_two() / 2;
    while stride > 0 {
        blk.for_each_thread(|t| {
            let tid = t.thread_idx();
            if tid < stride && tid + stride < width {
                t.shared_ld(base + (tid + stride) * 4);
                t.shared_ld(base + tid * 4);
                t.compute(1);
                t.shared_st(base + tid * 4);
            }
        });
        blk.sync();
        stride /= 2;
    }
}

#[cfg(test)]
mod tests {
    use npar_sim::{Gpu, Kernel, LaunchConfig};
    use std::rc::Rc;

    struct ReduceKernel {
        width: u32,
    }
    impl Kernel for ReduceKernel {
        fn name(&self) -> &str {
            "reduce"
        }
        fn run_block(&self, blk: &mut npar_sim::BlockCtx<'_>) {
            super::emit_block_reduce(blk, self.width, 0);
        }
    }

    #[test]
    fn reduction_emits_log_rounds_of_barriers() {
        let mut gpu = Gpu::k20();
        gpu.launch(
            Rc::new(ReduceKernel { width: 64 }),
            LaunchConfig::with_shared(1, 64, 256),
        )
        .unwrap();
        let r = gpu.synchronize();
        let m = &r.kernels["reduce"];
        // 1 publish barrier + 6 halving rounds (64 -> 1).
        assert_eq!(m.barriers, 7);
        assert!(m.shared_accesses > 0);
    }

    #[test]
    fn width_one_is_free() {
        let mut gpu = Gpu::k20();
        gpu.launch(
            Rc::new(ReduceKernel { width: 1 }),
            LaunchConfig::with_shared(1, 32, 128),
        )
        .unwrap();
        let r = gpu.synchronize();
        assert_eq!(r.kernels["reduce"].barriers, 0);
    }

    #[test]
    fn non_power_of_two_width() {
        let mut gpu = Gpu::k20();
        gpu.launch(
            Rc::new(ReduceKernel { width: 48 }),
            LaunchConfig::with_shared(1, 64, 256),
        )
        .unwrap();
        let r = gpu.synchronize();
        // 48 -> strides 32,16,8,4,2,1 -> 6 rounds + publish.
        assert_eq!(r.kernels["reduce"].barriers, 7);
    }
}
