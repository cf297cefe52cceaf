//! The recursive tree-reduction abstraction — the Figure 3(a) "simple code"
//! a programmer writes; the sibling modules generate the flat, naive and
//! hierarchical GPU variants from it.

use npar_sim::GBuf;
use npar_tree::Tree;

/// A bottom-up tree reduction such as Tree Descendants (sum) or Tree
/// Heights (max + 1): every node's value starts at an identity set by the
/// application, and a parent's final value combines its children's final
/// values.
///
/// Like [`crate::loops::IrregularLoop`], hooks do the *functional* update on
/// application state and record *timing* on the [`npar_sim::ThreadCtx`]; the
/// templates only decide the mapping and ordering, and mutable functional
/// state belongs in a plain `RefCell` or `Cell`.
pub trait TreeReduce {
    /// Name used to key profiler metrics.
    fn name(&self) -> &str;

    /// The tree being reduced.
    fn tree(&self) -> &Tree;

    /// Simulated address range of the per-node value array.
    fn values_buf(&self) -> GBuf<u64>;

    /// Simulated address range of the parent array (flat template).
    fn parent_buf(&self) -> GBuf<u32>;

    /// Simulated address range of the children-CSR offsets array.
    fn child_offsets_buf(&self) -> GBuf<u32>;

    /// Simulated address range of the children array.
    fn children_buf(&self) -> GBuf<u32>;

    /// Functionally fold `child`'s **final** value into `parent`'s slot
    /// (sum for descendants, `max(v, child + 1)` for heights).
    fn combine(&self, parent: usize, child: usize);

    /// Functionally apply `node`'s contribution directly to a proper
    /// `ancestor` — the flat (recursion-eliminated) formulation in which
    /// every node walks its ancestor chain. Must be algebraically
    /// equivalent to folding along the tree.
    fn flat_update(&self, node: usize, ancestor: usize);
}

/// Tunables for the recursive templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecParams {
    /// Threads per block for the flat (thread-mapped) kernel.
    pub thread_block: u32,
    /// Device streams per thread block for nested launches: 1 = the CUDA
    /// default (launches from one block serialize), 2 = the paper's "one
    /// additional stream per thread-block" variant.
    pub streams: u32,
    /// Grid clamp for covering kernels.
    pub max_grid: u32,
}

impl Default for RecParams {
    fn default() -> Self {
        RecParams {
            thread_block: 192,
            streams: 1,
            max_grid: 65_535,
        }
    }
}

impl RecParams {
    /// Default parameters with `streams` device streams per block.
    pub fn with_streams(streams: u32) -> Self {
        RecParams {
            streams: streams.max(1),
            ..Default::default()
        }
    }
}

/// The three parallelization templates of Figure 3(c–e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecTemplate {
    /// Fig 3(c): recursion eliminated, thread-mapped iterative kernel
    /// (ancestor-walk with atomics).
    Flat,
    /// Fig 3(d): thread per child; each thread spawns a single-block child
    /// grid for its subtree.
    RecNaive,
    /// Fig 3(e): block per child, threads over grandchildren; one nested
    /// launch per block.
    RecHier,
}

impl RecTemplate {
    /// All templates in presentation order.
    pub const ALL: [RecTemplate; 3] = [
        RecTemplate::Flat,
        RecTemplate::RecNaive,
        RecTemplate::RecHier,
    ];

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            RecTemplate::Flat => "flat",
            RecTemplate::RecNaive => "rec-naive",
            RecTemplate::RecHier => "rec-hier",
        }
    }
}

impl std::fmt::Display for RecTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Round a thread count up to a full warp, clamped to the device maximum.
pub(crate) fn block_for(children: usize, max_threads: u32) -> u32 {
    let want = children.max(1) as u32;
    want.div_ceil(32).saturating_mul(32).clamp(32, max_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rounding() {
        assert_eq!(block_for(1, 1024), 32);
        assert_eq!(block_for(32, 1024), 32);
        assert_eq!(block_for(33, 1024), 64);
        assert_eq!(block_for(512, 1024), 512);
        assert_eq!(block_for(5000, 1024), 1024);
        assert_eq!(block_for(0, 1024), 32);
    }

    #[test]
    fn labels() {
        assert_eq!(RecTemplate::RecHier.to_string(), "rec-hier");
        assert_eq!(RecParams::with_streams(0).streams, 1);
    }
}
