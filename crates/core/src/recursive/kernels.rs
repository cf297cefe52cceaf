//! Kernels behind the recursive templates (paper Figure 3(c–e)).

use std::rc::Rc;

use npar_sim::{BlockCtx, Kernel, KernelRef, LaunchConfig, Stream, ThreadCtx, ThreadKernel};
use npar_tree::NO_PARENT;

use super::spec::{block_for, TreeReduce};
use crate::reduce::emit_block_reduce;

pub(crate) type RecApp = Rc<dyn TreeReduce>;

/// Fig 3(c): flat thread-mapped kernel. Each thread owns one node and walks
/// its ancestor chain, atomically folding the node's contribution into every
/// ancestor — no barriers, no recursion, but one global atomic per
/// (node, ancestor) pair, heavily conflicting inside warps because sibling
/// threads hit the same parent.
pub(crate) struct FlatTreeKernel {
    pub name: String,
    pub app: RecApp,
}

impl ThreadKernel for FlatTreeKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let tree = self.app.tree();
        let n = tree.num_nodes();
        let values = self.app.values_buf();
        let parents = self.app.parent_buf();
        let stride = t.grid_threads();
        let mut v = t.global_id();
        while v < n {
            t.ld(&parents, v);
            let mut p = tree.parent(v);
            while p != NO_PARENT {
                self.app.flat_update(v, p as usize);
                t.atomic(&values, p as usize);
                t.ld(&parents, p as usize);
                p = tree.parent(p as usize);
            }
            v += stride;
        }
    }
}

/// Fig 3(d): naive recursive kernel for one node — a single block whose
/// threads each own one child; a thread whose child has children launches a
/// single-block grid for it, the block joins all children, and every thread
/// atomically folds its (now final) child value into the node — all threads
/// contending on the same address.
pub(crate) struct RecNaiveKernel {
    pub name: Rc<str>,
    pub app: RecApp,
    pub node: usize,
    pub streams: u32,
    pub max_threads: u32,
}

impl Kernel for RecNaiveKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let app = &self.app;
        let tree = app.tree();
        let kids: Vec<u32> = tree.children(self.node).to_vec();
        let offsets = app.child_offsets_buf();
        let children_buf = app.children_buf();
        let values = app.values_buf();
        let bd = blk.block_dim() as usize;
        let base = tree.num_children(self.node).min(kids.len());
        debug_assert_eq!(base, kids.len());

        // Phase A: discover each child's own child count; launch recursion
        // for internal children.
        let streams = self.streams;
        blk.for_each_thread(|t| {
            let mut idx = t.thread_idx() as usize;
            while idx < kids.len() {
                let c = kids[idx] as usize;
                t.ld(
                    &children_buf,
                    tree.child_offsets_raw()[self.node] as usize + idx,
                );
                t.ld(&offsets, c);
                t.ld(&offsets, c + 1);
                if tree.num_children(c) > 0 {
                    let child: KernelRef = Rc::new(RecNaiveKernel {
                        name: Rc::clone(&self.name),
                        app: Rc::clone(app),
                        node: c,
                        streams,
                        max_threads: self.max_threads,
                    });
                    let cfg =
                        LaunchConfig::new(1, block_for(tree.num_children(c), self.max_threads));
                    t.launch(&child, cfg, Stream::Slot(idx as u32 % streams));
                }
                idx += bd;
            }
        });
        // Join all children of this block, then fold child values into the
        // node (atomics on one address: heavy intra-warp serialization).
        blk.sync_children();
        blk.for_each_thread(|t| {
            let mut idx = t.thread_idx() as usize;
            while idx < kids.len() {
                let c = kids[idx] as usize;
                t.ld(&values, c);
                app.combine(self.node, c);
                t.atomic(&values, self.node);
                idx += bd;
            }
        });
    }
}

/// Fig 3(e): hierarchical recursive kernel for one node — a grid with one
/// block per child `c`, threads over `c`'s children (the node's
/// grandchildren). A block whose child has grandchildren recurses with a
/// single nested launch; a block whose child's children are all leaves
/// folds them with a shared-memory reduction. Either way the block leader
/// performs ONE global atomic folding the finalized child into the node.
pub(crate) struct RecHierKernel {
    pub name: Rc<str>,
    pub app: RecApp,
    pub node: usize,
    pub streams: u32,
    pub max_threads: u32,
}

impl RecHierKernel {
    /// Grid: one block per child; block size covers the widest
    /// grandchild set (rounded to warps). Declares the shared memory the
    /// leaf-folding reduction stages its per-thread partials in.
    pub(crate) fn config_for(app: &RecApp, node: usize, max_threads: u32) -> LaunchConfig {
        let tree = app.tree();
        let widest = tree
            .children(node)
            .iter()
            .map(|&c| tree.num_children(c as usize))
            .max()
            .unwrap_or(0);
        let block = block_for(widest, max_threads);
        LaunchConfig::with_shared(tree.num_children(node).max(1) as u32, block, block * 4)
    }
}

impl Kernel for RecHierKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let app = &self.app;
        let tree = app.tree();
        let kids = tree.children(self.node);
        let k = blk.block_idx() as usize;
        if k >= kids.len() {
            return;
        }
        let c = kids[k] as usize;
        let offsets = app.child_offsets_buf();
        let children_buf = app.children_buf();
        let values = app.values_buf();
        let bd = blk.block_dim() as usize;

        // Every thread reads the block's child id and scans the
        // grandchild counts (strided).
        let grandkids: Vec<u32> = tree.children(c).to_vec();
        let mut has_grandgrand = false;
        blk.for_each_thread(|t| {
            t.ld(
                &children_buf,
                tree.child_offsets_raw()[self.node] as usize + k,
            );
            t.ld(&offsets, c);
            t.ld(&offsets, c + 1);
            let mut idx = t.thread_idx() as usize;
            while idx < grandkids.len() {
                let gc = grandkids[idx] as usize;
                t.ld(&offsets, gc);
                t.ld(&offsets, gc + 1);
                if tree.num_children(gc) > 0 {
                    has_grandgrand = true;
                }
                idx += bd;
            }
        });

        if has_grandgrand {
            // Recurse on the child: the nested grid finalizes val[c].
            let child: KernelRef = Rc::new(RecHierKernel {
                name: Rc::clone(&self.name),
                app: Rc::clone(app),
                node: c,
                streams: self.streams,
                max_threads: self.max_threads,
            });
            let cfg = RecHierKernel::config_for(app, c, self.max_threads);
            let slot = k as u32 % self.streams;
            blk.for_each_thread(|t| {
                if t.is_leader() {
                    t.launch(&child, cfg, Stream::Slot(slot));
                }
            });
            blk.sync_children();
        } else if !grandkids.is_empty() {
            // All grandchildren are leaves: fold them into the child with a
            // block-local shared-memory reduction (one pass, no atomics).
            blk.for_each_thread(|t| {
                let mut idx = t.thread_idx() as usize;
                while idx < grandkids.len() {
                    let gc = grandkids[idx] as usize;
                    t.ld(&values, gc);
                    app.combine(c, gc);
                    idx += bd;
                }
            });
            emit_block_reduce(blk, bd as u32, 0);
            blk.for_each_thread(|t| {
                if t.is_leader() {
                    t.ld(&values, c);
                    t.compute(1);
                    t.st(&values, c);
                }
            });
        }
        // val[c] is final either way: one atomic folds it into the node.
        blk.for_each_thread(|t| {
            if t.is_leader() {
                t.ld(&values, c);
                app.combine(self.node, c);
                t.atomic(&values, self.node);
            }
        });
    }
}
