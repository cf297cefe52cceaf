//! The irregular-nested-loop abstraction — the "simple code" of the paper's
//! Figure 1(a) that a programmer writes once; the templates in this module's
//! siblings generate every parallelization variant from it.

use npar_sim::ThreadCtx;

/// An irregular nested loop:
///
/// ```text
/// for i in 0..outer_len() {          // parallelizable
///     outer_begin(i);
///     for j in 0..inner_len(i) {     // parallelizable, trip count varies!
///         body(i, j);
///     }
///     outer_end(i);
/// }
/// ```
///
/// Implementations do two things in each hook: perform the *functional* work
/// on their own state (so results are identical under every template) and
/// record the corresponding *timing* instructions on the [`ThreadCtx`].
/// A hook must record the same instruction pattern no matter which template
/// invokes it; the templates differ only in how iterations map to threads,
/// blocks, buffers and nested grids.
///
/// Hooks run on the thread that owns the [`npar_sim::Gpu`], like the
/// kernels that call them, so mutable functional state belongs in a plain
/// `RefCell` or `Cell`.
pub trait IrregularLoop {
    /// Name used to key profiler metrics.
    fn name(&self) -> &str;

    /// Outer trip count.
    fn outer_len(&self) -> usize;

    /// Inner trip count `f(i)` — the irregularity.
    fn inner_len(&self, i: usize) -> usize;

    /// Record the cost of *discovering* `f(i)` (e.g. two `row_offsets`
    /// loads for CSR). Called by templates that inspect sizes to classify
    /// iterations (dual-queue, delayed-buffer, dynamic parallelism).
    fn inner_len_cost(&self, t: &mut ThreadCtx<'_, '_>, _i: usize) {
        t.compute(1);
    }

    /// Prologue run by every thread participating in outer iteration `i`.
    fn outer_begin(&self, _t: &mut ThreadCtx<'_, '_>, _i: usize) {}

    /// Inner body for `(i, j)`. Must be called exactly once per pair by any
    /// correct template; the order is unspecified.
    fn body(&self, t: &mut ThreadCtx<'_, '_>, i: usize, j: usize);

    /// Epilogue run by the thread (or block leader) that owns iteration
    /// `i`'s result — typically the result store.
    fn outer_end(&self, _t: &mut ThreadCtx<'_, '_>, _i: usize) {}

    /// Whether inner iterations accumulate into a per-`i` value that a
    /// parallel split of the inner loop must combine (SpMV's dot product,
    /// PageRank's rank sum). When true, block-mapped variants emit a
    /// shared-memory reduction and thread-level nested variants emit
    /// [`IrregularLoop::combine_atomic`].
    fn has_reduction(&self) -> bool {
        false
    }

    /// Record one thread's atomic combination of its partial result into
    /// iteration `i`'s output (timing only — the functional accumulation
    /// already happened in [`IrregularLoop::body`]).
    fn combine_atomic(&self, _t: &mut ThreadCtx<'_, '_>, _i: usize) {}
}

/// Tunables shared by all loop templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopParams {
    /// Threads per block for thread-mapped kernels. The paper uses 192
    /// (one thread per K20 core per SM), picked with the occupancy
    /// calculator.
    pub thread_block: u32,
    /// Threads per block for block-mapped phases. The paper settles on
    /// small 64-thread blocks (Figure 4's conclusion).
    pub block_block: u32,
    /// Load-balancing threshold `lbTHRES`: outer iterations with
    /// `inner_len(i) > lb_thres` go to the block-mapped / nested phase.
    pub lb_thres: usize,
    /// Grid-size clamp for covering kernels (grid-stride beyond it).
    pub max_grid: u32,
    /// Host streams used by [`LoopTemplate::StreamMapped`] (the paper's
    /// third mapping dimension: different outer-iteration ranges to
    /// different CUDA streams).
    pub host_streams: u32,
}

impl Default for LoopParams {
    fn default() -> Self {
        LoopParams {
            thread_block: 192,
            block_block: 64,
            lb_thres: 32,
            max_grid: 65_535,
            host_streams: 4,
        }
    }
}

impl LoopParams {
    /// Params with a given threshold and paper-default block sizes.
    pub fn with_lb_thres(lb_thres: usize) -> Self {
        LoopParams {
            lb_thres,
            ..Default::default()
        }
    }
}

/// The parallelization templates of Figure 1, plus the plain block- and
/// stream-based mappings Section II.B folds into its discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopTemplate {
    /// Fig 1(a) baseline: outer loop over threads, inner loop serialized.
    ThreadMapped,
    /// Outer loop over blocks, inner loop over threads.
    BlockMapped,
    /// §II.B's third mapping dimension: the outer range is chunked across
    /// several host streams, each chunk a thread-mapped kernel — the grids
    /// overlap on the device.
    StreamMapped,
    /// Fig 1(b): split iterations into a small and a large queue, process
    /// thread-mapped / block-mapped respectively.
    DualQueue,
    /// Fig 1(c), shared-memory buffer: one kernel, per-block delayed buffer.
    DbufShared,
    /// Fig 1(c), global-memory buffer: two kernels, buffer redistributed
    /// over blocks.
    DbufGlobal,
    /// Fig 1(d): each thread launches a nested grid for each large
    /// iteration it meets.
    DparNaive,
    /// Fig 1(e): buffer large iterations per block, launch one nested grid
    /// per block in a second phase.
    DparOpt,
}

impl LoopTemplate {
    /// All templates, in the paper's presentation order.
    pub const ALL: [LoopTemplate; 8] = [
        LoopTemplate::ThreadMapped,
        LoopTemplate::BlockMapped,
        LoopTemplate::StreamMapped,
        LoopTemplate::DualQueue,
        LoopTemplate::DbufShared,
        LoopTemplate::DbufGlobal,
        LoopTemplate::DparNaive,
        LoopTemplate::DparOpt,
    ];

    /// The five load-balancing variants the evaluation charts compare
    /// against the thread-mapped baseline.
    pub const LOAD_BALANCED: [LoopTemplate; 5] = [
        LoopTemplate::DualQueue,
        LoopTemplate::DbufShared,
        LoopTemplate::DbufGlobal,
        LoopTemplate::DparNaive,
        LoopTemplate::DparOpt,
    ];

    /// The paper's name for the template.
    pub fn label(&self) -> &'static str {
        match self {
            LoopTemplate::ThreadMapped => "thread-mapped",
            LoopTemplate::BlockMapped => "block-mapped",
            LoopTemplate::StreamMapped => "stream-mapped",
            LoopTemplate::DualQueue => "dual-queue",
            LoopTemplate::DbufShared => "dbuf-shared",
            LoopTemplate::DbufGlobal => "dbuf-global",
            LoopTemplate::DparNaive => "dpar-naive",
            LoopTemplate::DparOpt => "dpar-opt",
        }
    }
}

impl std::fmt::Display for LoopTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = LoopParams::default();
        assert_eq!(p.thread_block, 192);
        assert_eq!(p.block_block, 64);
        assert_eq!(p.lb_thres, 32);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = LoopTemplate::ALL.iter().map(|t| t.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
        assert_eq!(LoopTemplate::DbufShared.to_string(), "dbuf-shared");
    }
}
