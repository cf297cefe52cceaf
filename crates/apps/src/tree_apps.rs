//! Tree Descendants and Tree Heights — the paper's recursive tree-traversal
//! benchmarks (Figures 7 and 8), expressed as [`TreeReduce`] problems and
//! run through the flat / rec-naive / rec-hier templates, plus the serial
//! CPU references (recursive and iterative) the speedups normalize against.

use std::cell::RefCell;
use std::rc::Rc;

use npar_core::{run_recursive, RecParams, RecTemplate, TreeReduce};
use npar_sim::{CpuCounter, GBuf, Gpu, Report};
use npar_tree::{Tree, NO_PARENT};

/// Which tree metric to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMetric {
    /// Number of descendants of every node (a node is its own descendant).
    Descendants,
    /// Height of every node (leaves have height 1).
    Heights,
}

impl TreeMetric {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TreeMetric::Descendants => "tree-descendants",
            TreeMetric::Heights => "tree-heights",
        }
    }
}

/// GPU tree-reduction result.
#[derive(Debug)]
pub struct TreeResult {
    /// Per-node values.
    pub values: Vec<u64>,
    /// Profiled execution report.
    pub report: Report,
}

struct TreeApp {
    metric: TreeMetric,
    tree: Tree,
    vals: RefCell<Vec<u64>>,
    values: GBuf<u64>,
    parents: GBuf<u32>,
    offsets: GBuf<u32>,
    children: GBuf<u32>,
}

impl TreeReduce for TreeApp {
    fn name(&self) -> &str {
        self.metric.label()
    }
    fn tree(&self) -> &Tree {
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
        let mut v = self.vals.borrow_mut();
        match self.metric {
            TreeMetric::Descendants => v[parent] += c,
            TreeMetric::Heights => v[parent] = v[parent].max(c + 1),
        }
    }
    fn flat_update(&self, node: usize, ancestor: usize) {
        let mut v = self.vals.borrow_mut();
        match self.metric {
            TreeMetric::Descendants => v[ancestor] += 1,
            TreeMetric::Heights => {
                let h = u64::from(self.tree.level(node) - self.tree.level(ancestor)) + 1;
                v[ancestor] = v[ancestor].max(h);
            }
        }
    }
}

/// Run a tree metric on the simulated GPU under `template`.
pub fn tree_gpu(
    gpu: &mut Gpu,
    tree: &Tree,
    metric: TreeMetric,
    template: RecTemplate,
    params: &RecParams,
) -> TreeResult {
    let n = tree.num_nodes();
    let app = Rc::new(TreeApp {
        metric,
        vals: RefCell::new(vec![1; n]),
        values: gpu.alloc::<u64>(n),
        parents: gpu.alloc::<u32>(n),
        offsets: gpu.alloc::<u32>(n + 1),
        children: gpu.alloc::<u32>(n.saturating_sub(1).max(1)),
        tree: tree.clone(),
    });
    let report = run_recursive(gpu, app.clone(), template, params);
    let values = app.vals.borrow().clone();
    TreeResult { values, report }
}

/// Serial recursive CPU reference (the paper's Figure 3(a)) with operation
/// counting. Uses an explicit frame stack so deep trees cannot overflow the
/// native stack; each frame push models one recursive call.
pub fn tree_cpu_recursive(tree: &Tree, metric: TreeMetric) -> (Vec<u64>, CpuCounter) {
    let n = tree.num_nodes();
    let mut counter = CpuCounter::default();
    let mut vals = vec![1u64; n];
    // Post-order: (node, child cursor).
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    counter.call(1);
    while let Some((v, cursor)) = stack.pop() {
        let kids = tree.children(v as usize);
        if cursor < kids.len() {
            stack.push((v, cursor + 1));
            stack.push((kids[cursor], 0));
            counter.call(1);
            counter.load(1);
            counter.branch(1);
        } else {
            // All children done: fold them.
            for &c in kids {
                counter.load(2);
                counter.compute(1);
                counter.store(1);
                match metric {
                    TreeMetric::Descendants => vals[v as usize] += vals[c as usize],
                    TreeMetric::Heights => {
                        vals[v as usize] = vals[v as usize].max(vals[c as usize] + 1)
                    }
                }
            }
            counter.branch(1);
        }
    }
    (vals, counter)
}

/// Serial iterative CPU reference (recursion eliminated: reverse level
/// order) with operation counting — the paper's Figure 3(b).
pub fn tree_cpu_iterative(tree: &Tree, metric: TreeMetric) -> (Vec<u64>, CpuCounter) {
    let n = tree.num_nodes();
    let mut counter = CpuCounter::default();
    let mut vals = vec![1u64; n];
    counter.store(n as u64);
    // Level-order ids: children always have larger ids than parents.
    for v in (1..n).rev() {
        let p = tree.parent(v);
        debug_assert_ne!(p, NO_PARENT);
        counter.load(3);
        counter.compute(1);
        counter.store(1);
        counter.branch(1);
        match metric {
            TreeMetric::Descendants => vals[p as usize] += vals[v],
            TreeMetric::Heights => vals[p as usize] = vals[p as usize].max(vals[v] + 1),
        }
    }
    (vals, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use npar_tree::TreeGen;

    fn tree(depth: u32, outdegree: u32, sparsity: u32) -> Tree {
        TreeGen {
            depth,
            outdegree,
            sparsity,
            seed: 13,
        }
        .generate()
    }

    #[test]
    fn cpu_variants_agree() {
        for metric in [TreeMetric::Descendants, TreeMetric::Heights] {
            for t in [tree(4, 5, 0), tree(5, 3, 1), tree(3, 9, 2), tree(1, 4, 0)] {
                let (a, _) = tree_cpu_recursive(&t, metric);
                let (b, _) = tree_cpu_iterative(&t, metric);
                assert_eq!(a, b, "{metric:?}");
            }
        }
    }

    #[test]
    fn descendants_of_regular_tree_are_closed_form() {
        let t = tree(4, 3, 0);
        let (v, _) = tree_cpu_recursive(&t, TreeMetric::Descendants);
        // Root counts every node.
        assert_eq!(v[0], t.num_nodes() as u64);
        // Leaves count themselves.
        let (a, b) = t.level_range(3);
        for leaf in a..b {
            assert_eq!(v[leaf as usize], 1);
        }
    }

    #[test]
    fn heights_of_regular_tree() {
        let t = tree(4, 3, 0);
        let (v, _) = tree_cpu_recursive(&t, TreeMetric::Heights);
        assert_eq!(v[0], 4);
        let (a, _) = t.level_range(1);
        assert_eq!(v[a as usize], 3);
    }

    #[test]
    fn gpu_templates_match_cpu() {
        for metric in [TreeMetric::Descendants, TreeMetric::Heights] {
            for t in [tree(4, 6, 0), tree(4, 8, 1), tree(2, 12, 0)] {
                let (cpu, _) = tree_cpu_recursive(&t, metric);
                for template in RecTemplate::ALL {
                    let mut gpu = Gpu::k20();
                    let r = tree_gpu(&mut gpu, &t, metric, template, &RecParams::default());
                    assert_eq!(r.values, cpu, "{metric:?} {template}");
                }
            }
        }
    }

    #[test]
    fn single_node_tree() {
        let t = tree(1, 4, 0);
        for metric in [TreeMetric::Descendants, TreeMetric::Heights] {
            for template in RecTemplate::ALL {
                let mut gpu = Gpu::k20();
                let r = tree_gpu(&mut gpu, &t, metric, template, &RecParams::default());
                assert_eq!(r.values, vec![1]);
            }
        }
    }
}
