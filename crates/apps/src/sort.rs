//! The sorting case study of the paper's Figure 2: the CUDA SDK's two
//! dynamic-parallelism QuickSorts against a flat (non-recursive) MergeSort.
//!
//! * **Simple QuickSort** — each segment is a `<<<1,1>>>` kernel: a single
//!   thread partitions serially, launches two children into separate
//!   streams, and falls back to selection sort at the depth/size limit.
//! * **Advanced QuickSort** — a 128-thread block partitions each segment in
//!   parallel; the fallback is a block-wide bitonic sort.
//! * **MergeSort (flat)** — log₂ n host-launched passes; each pass merges
//!   run pairs with one thread per element (binary-search rank).

use std::cell::RefCell;
use std::rc::Rc;

use npar_sim::{
    BlockCtx, GBuf, Gpu, Kernel, KernelRef, LaunchConfig, Report, Stream, ThreadCtx, ThreadKernel,
};

/// Which sort implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortAlgo {
    /// CUDA-SDK-style simple quicksort (dynamic parallelism, serial
    /// partition, selection-sort fallback).
    QuickSimple,
    /// CUDA-SDK-style advanced quicksort (dynamic parallelism, parallel
    /// partition, bitonic fallback).
    QuickAdvanced,
    /// Flat multi-pass mergesort (no dynamic parallelism).
    MergeFlat,
}

impl SortAlgo {
    /// Display label matching the paper's Figure 2 legend.
    pub fn label(&self) -> &'static str {
        match self {
            SortAlgo::QuickSimple => "simple-quicksort",
            SortAlgo::QuickAdvanced => "advanced-quicksort",
            SortAlgo::MergeFlat => "mergesort",
        }
    }
}

/// Tunables for the recursive sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortParams {
    /// Maximum dynamic-parallelism depth before falling back to the flat
    /// sort (the knob the paper discusses trading launch overhead against
    /// load balancing).
    pub max_depth: u32,
    /// Segment size below which simple quicksort selection-sorts.
    pub simple_threshold: usize,
    /// Segment size below which advanced quicksort bitonic-sorts.
    pub advanced_threshold: usize,
}

impl Default for SortParams {
    fn default() -> Self {
        SortParams {
            max_depth: 16,
            simple_threshold: 32,
            advanced_threshold: 1024,
        }
    }
}

/// GPU sort result.
#[derive(Debug)]
pub struct SortResult {
    /// The sorted data.
    pub data: Vec<u32>,
    /// Profiled execution report.
    pub report: Report,
}

struct SortState {
    data: RefCell<Vec<u32>>,
    buf: GBuf<u32>,
    scratch: GBuf<u32>,
}

/// Sort `input` on the simulated GPU with `algo`.
pub fn sort_gpu(gpu: &mut Gpu, input: &[u32], algo: SortAlgo, params: &SortParams) -> SortResult {
    let n = input.len();
    let st = Rc::new(SortState {
        data: RefCell::new(input.to_vec()),
        buf: gpu.alloc::<u32>(n.max(1)),
        scratch: gpu.alloc::<u32>(n.max(1)),
    });
    match algo {
        SortAlgo::MergeFlat => merge_flat(gpu, &st),
        SortAlgo::QuickSimple => {
            if n > 1 {
                let k = Rc::new(SimpleQsortKernel {
                    st: Rc::clone(&st),
                    lo: 0,
                    hi: n,
                    depth: 0,
                    params: *params,
                });
                gpu.launch(k, LaunchConfig::new(1, 1))
                    .expect("qsort launch");
            }
        }
        SortAlgo::QuickAdvanced => {
            if n > 1 {
                let k = Rc::new(AdvancedQsortKernel {
                    st: Rc::clone(&st),
                    lo: 0,
                    hi: n,
                    depth: 0,
                    params: *params,
                });
                let shared = advanced_shared(n, 0, params);
                gpu.launch(k, LaunchConfig::with_shared(1, 128, shared))
                    .expect("qsort launch");
            }
        }
    }
    let report = gpu.synchronize();
    let data = st.data.borrow().clone();
    SortResult { data, report }
}

// ---------------------------------------------------------------------------
// Flat mergesort.
// ---------------------------------------------------------------------------

struct MergePassKernel {
    st: Rc<SortState>,
    /// Snapshot of the pass input (so every thread ranks against the same
    /// data while the output vector is rebuilt).
    src: Vec<u32>,
    width: usize,
}

impl ThreadKernel for MergePassKernel {
    fn name(&self) -> &str {
        "mergesort-pass"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let n = self.src.len();
        let stride = t.grid_threads();
        let mut k = t.global_id();
        while k < n {
            let width = self.width;
            let pair_base = k / (2 * width) * (2 * width);
            let in_first = k < pair_base + width;
            let (sib_lo, sib_hi) = if in_first {
                ((pair_base + width).min(n), (pair_base + 2 * width).min(n))
            } else {
                (pair_base, pair_base + width)
            };
            let x = self.src[k];
            t.ld(&self.st.buf, k);
            // Binary-search rank in the sibling run (stable merge).
            let sib = &self.src[sib_lo..sib_hi];
            let rank = if in_first {
                sib.partition_point(|&y| y < x)
            } else {
                sib.partition_point(|&y| y <= x)
            };
            let steps = (sib.len().max(1) as f64).log2().ceil() as u32 + 1;
            for probe in 0..steps {
                let mid =
                    sib_lo + (sib.len() >> 1).min(sib.len().saturating_sub(1)) + probe as usize % 2;
                t.ld(&self.st.buf, mid.min(n - 1));
            }
            t.compute(steps);
            let offset_in_run = if in_first {
                k - pair_base
            } else {
                k - (pair_base + width)
            };
            let dst = pair_base + offset_in_run + rank;
            self.st.data.borrow_mut()[dst] = x;
            t.st(&self.st.scratch, dst);
            k += stride;
        }
    }
}

fn merge_flat(gpu: &mut Gpu, st: &Rc<SortState>) {
    let n = st.data.borrow().len();
    if n <= 1 {
        return;
    }
    let mut width = 1usize;
    while width < n {
        let src = st.data.borrow().clone();
        let k = Rc::new(MergePassKernel {
            st: Rc::clone(st),
            src,
            width,
        });
        gpu.launch(k, LaunchConfig::cover(n, 256, 1 << 20))
            .expect("merge pass launch");
        width *= 2;
    }
}

// ---------------------------------------------------------------------------
// Simple quicksort (dynamic parallelism, <<<1,1>>> kernels).
// ---------------------------------------------------------------------------

struct SimpleQsortKernel {
    st: Rc<SortState>,
    lo: usize,
    hi: usize,
    depth: u32,
    params: SortParams,
}

impl ThreadKernel for SimpleQsortKernel {
    fn name(&self) -> &str {
        "simple-quicksort"
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let (lo, hi) = (self.lo, self.hi);
        let len = hi - lo;
        if len <= 1 {
            return;
        }
        if len <= self.params.simple_threshold || self.depth >= self.params.max_depth {
            emit_selection_sort(t, &self.st, lo, len);
            self.st.data.borrow_mut()[lo..hi].sort_unstable();
            return;
        }
        // Serial Lomuto partition around the last element.
        let mid = {
            let mut data = self.st.data.borrow_mut();
            let pivot = data[hi - 1];
            t.ld(&self.st.buf, hi - 1);
            let mut store = lo;
            for k in lo..hi - 1 {
                t.ld(&self.st.buf, k);
                t.compute(1);
                if data[k] < pivot {
                    data.swap(k, store);
                    t.st(&self.st.buf, k);
                    t.st(&self.st.buf, store);
                    store += 1;
                }
            }
            data.swap(store, hi - 1);
            t.st(&self.st.buf, store);
            t.st(&self.st.buf, hi - 1);
            store
        };
        // Recurse on both halves in separate streams (as the SDK sample
        // does, so siblings can run concurrently).
        if mid > lo + 1 {
            let left: KernelRef = Rc::new(SimpleQsortKernel {
                st: Rc::clone(&self.st),
                lo,
                hi: mid,
                depth: self.depth + 1,
                params: self.params,
            });
            t.launch(&left, LaunchConfig::new(1, 1), Stream::Slot(0));
        }
        if hi > mid + 2 {
            let right: KernelRef = Rc::new(SimpleQsortKernel {
                st: Rc::clone(&self.st),
                lo: mid + 1,
                hi,
                depth: self.depth + 1,
                params: self.params,
            });
            t.launch(&right, LaunchConfig::new(1, 1), Stream::Slot(1));
        }
    }
}

/// Emit the instruction pattern of a serial selection sort over
/// `[lo, lo + len)` (the functional sort happens separately).
fn emit_selection_sort(t: &mut ThreadCtx<'_, '_>, st: &SortState, lo: usize, len: usize) {
    for i in 0..len {
        for k in i..len {
            t.ld(&st.buf, lo + k);
        }
        t.compute(len as u32 - i as u32);
        t.st(&st.buf, lo + i);
    }
}

// ---------------------------------------------------------------------------
// Advanced quicksort (dynamic parallelism, block-parallel partition).
// ---------------------------------------------------------------------------

/// Largest segment the bitonic fallback stages in shared memory at once:
/// 48 KB of `u32` keys. Longer segments (possible when the depth limit cuts
/// recursion short) are sorted tile by tile.
const BITONIC_TILE: usize = 12 * 1024;

/// Dynamic shared memory an advanced-quicksort launch over `len` elements
/// at `depth` needs: the staging area of the bitonic fallback when the
/// segment will bitonic-sort, otherwise the two partition counters.
fn advanced_shared(len: usize, depth: u32, params: &SortParams) -> u32 {
    if len <= params.advanced_threshold || depth >= params.max_depth {
        (len.min(BITONIC_TILE) * 4).max(8) as u32
    } else {
        8
    }
}

struct AdvancedQsortKernel {
    st: Rc<SortState>,
    lo: usize,
    hi: usize,
    depth: u32,
    params: SortParams,
}

impl Kernel for AdvancedQsortKernel {
    fn name(&self) -> &str {
        "advanced-quicksort"
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let (lo, hi) = (self.lo, self.hi);
        let len = hi - lo;
        if len <= 1 {
            return;
        }
        if len <= self.params.advanced_threshold || self.depth >= self.params.max_depth {
            emit_bitonic_sort(blk, &self.st, lo, len);
            self.st.data.borrow_mut()[lo..hi].sort_unstable();
            return;
        }
        let bd = blk.block_dim() as usize;
        let pivot = {
            let data = self.st.data.borrow();
            // Median of three.
            let (a, b, c) = (data[lo], data[lo + len / 2], data[hi - 1]);
            a.max(b).min(a.min(b).max(c))
        };
        // Pass 1: count elements below the pivot (shared-memory counter).
        blk.for_each_thread(|t| {
            if t.is_leader() {
                t.ld(&self.st.buf, lo);
                t.ld(&self.st.buf, lo + len / 2);
                t.ld(&self.st.buf, hi - 1);
                t.compute(3);
            }
            let mut k = lo + t.thread_idx() as usize;
            while k < hi {
                t.ld(&self.st.buf, k);
                t.compute(1);
                t.shared_atomic(0);
                k += bd;
            }
        });
        blk.sync();
        // Pass 2: scatter into the scratch array, then copy back.
        blk.for_each_thread(|t| {
            let mut k = lo + t.thread_idx() as usize;
            while k < hi {
                t.ld(&self.st.buf, k);
                t.shared_atomic(if self.st.data.borrow()[k] < pivot {
                    0
                } else {
                    4
                });
                t.st(&self.st.scratch, k);
                k += bd;
            }
        });
        blk.sync();
        blk.for_each_thread(|t| {
            let mut k = lo + t.thread_idx() as usize;
            while k < hi {
                t.ld(&self.st.scratch, k);
                t.st(&self.st.buf, k);
                k += bd;
            }
        });
        // Functional three-way partition (pivot duplicates stay in the
        // middle so recursion always shrinks).
        let (mid_lo, mid_hi) = {
            let mut data = self.st.data.borrow_mut();
            let seg = &mut data[lo..hi];
            let mut below: Vec<u32> = Vec::with_capacity(seg.len());
            let mut equal: Vec<u32> = Vec::new();
            let mut above: Vec<u32> = Vec::with_capacity(seg.len());
            for &x in seg.iter() {
                if x < pivot {
                    below.push(x);
                } else if x == pivot {
                    equal.push(x);
                } else {
                    above.push(x);
                }
            }
            let mid_lo = lo + below.len();
            let mid_hi = mid_lo + equal.len();
            seg[..below.len()].copy_from_slice(&below);
            seg[below.len()..below.len() + equal.len()].copy_from_slice(&equal);
            seg[below.len() + equal.len()..].copy_from_slice(&above);
            (mid_lo, mid_hi)
        };
        // Leader launches both halves into separate streams, each with the
        // shared-memory declaration its segment length calls for.
        let mut children: Vec<(KernelRef, LaunchConfig, Stream)> = Vec::new();
        if mid_lo > lo + 1 {
            let shared = advanced_shared(mid_lo - lo, self.depth + 1, &self.params);
            children.push((
                Rc::new(AdvancedQsortKernel {
                    st: Rc::clone(&self.st),
                    lo,
                    hi: mid_lo,
                    depth: self.depth + 1,
                    params: self.params,
                }) as KernelRef,
                LaunchConfig::with_shared(1, 128, shared),
                Stream::Slot(0),
            ));
        }
        if hi > mid_hi + 1 {
            let shared = advanced_shared(hi - mid_hi, self.depth + 1, &self.params);
            children.push((
                Rc::new(AdvancedQsortKernel {
                    st: Rc::clone(&self.st),
                    lo: mid_hi,
                    hi,
                    depth: self.depth + 1,
                    params: self.params,
                }) as KernelRef,
                LaunchConfig::with_shared(1, 128, shared),
                Stream::Slot(1),
            ));
        }
        blk.for_each_thread(|t| {
            if t.is_leader() {
                for (k, cfg, s) in &children {
                    t.launch(k, *cfg, *s);
                }
            }
        });
    }
}

/// Emit the instruction pattern of a block-wide bitonic sort over
/// `[lo, lo + len)` staged in shared memory. Segments longer than
/// [`BITONIC_TILE`] (possible when the depth limit cuts recursion short)
/// are processed tile by tile so the staging never outgrows the block's
/// shared-memory declaration.
fn emit_bitonic_sort(blk: &mut BlockCtx<'_>, st: &SortState, lo: usize, len: usize) {
    let bd = blk.block_dim() as usize;
    let mut tile_lo = 0usize;
    while tile_lo < len {
        let tl = (len - tile_lo).min(BITONIC_TILE);
        let base = lo + tile_lo;
        if tile_lo > 0 {
            // The previous tile's write-back read the staging area this
            // tile is about to overwrite.
            blk.sync();
        }
        // Stage into shared memory.
        blk.for_each_thread(|t| {
            let mut k = t.thread_idx() as usize;
            while k < tl {
                t.ld(&st.buf, base + k);
                t.shared_st((k * 4) as u32);
                k += bd;
            }
        });
        blk.sync();
        let np2 = tl.next_power_of_two();
        let mut size = 2usize;
        while size <= np2 {
            let mut stride = size / 2;
            while stride > 0 {
                blk.for_each_thread(|t| {
                    let mut pair = t.thread_idx() as usize;
                    while pair < np2 / 2 {
                        let a = 2 * pair - (pair & (stride - 1));
                        let b = a + stride;
                        if b < tl {
                            t.shared_ld((a * 4) as u32);
                            t.shared_ld((b * 4) as u32);
                            t.compute(1);
                            t.shared_st((a * 4) as u32);
                            t.shared_st((b * 4) as u32);
                        }
                        pair += bd;
                    }
                });
                blk.sync();
                stride /= 2;
            }
            size *= 2;
        }
        // Write back.
        blk.for_each_thread(|t| {
            let mut k = t.thread_idx() as usize;
            while k < tl {
                t.shared_ld((k * 4) as u32);
                t.st(&st.buf, base + k);
                k += bd;
            }
        });
        tile_lo += tl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_data(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
    }

    #[test]
    fn all_algorithms_sort_correctly() {
        for n in [0usize, 1, 2, 63, 500, 3000] {
            let data = random_data(n, n as u64 + 1);
            let mut expect = data.clone();
            expect.sort_unstable();
            for algo in [
                SortAlgo::MergeFlat,
                SortAlgo::QuickSimple,
                SortAlgo::QuickAdvanced,
            ] {
                let mut gpu = Gpu::k20();
                let r = sort_gpu(&mut gpu, &data, algo, &SortParams::default());
                assert_eq!(r.data, expect, "{} failed on n={n}", algo.label());
            }
        }
    }

    #[test]
    fn already_sorted_and_reverse_inputs() {
        let sorted: Vec<u32> = (0..800).collect();
        let reversed: Vec<u32> = (0..800).rev().collect();
        for input in [sorted.clone(), reversed] {
            for algo in [SortAlgo::MergeFlat, SortAlgo::QuickAdvanced] {
                let mut gpu = Gpu::k20();
                let r = sort_gpu(&mut gpu, &input, algo, &SortParams::default());
                assert_eq!(r.data, sorted, "{}", algo.label());
            }
        }
    }

    #[test]
    fn duplicates_are_handled() {
        let data = vec![5u32; 300];
        for algo in [
            SortAlgo::MergeFlat,
            SortAlgo::QuickSimple,
            SortAlgo::QuickAdvanced,
        ] {
            let mut gpu = Gpu::k20();
            let r = sort_gpu(&mut gpu, &data, algo, &SortParams::default());
            assert_eq!(r.data, data, "{}", algo.label());
        }
    }

    #[test]
    fn quicksorts_use_dynamic_parallelism_mergesort_does_not() {
        let data = random_data(5000, 9);
        let mut gpu = Gpu::k20();
        let merge = sort_gpu(&mut gpu, &data, SortAlgo::MergeFlat, &SortParams::default());
        assert_eq!(merge.report.device_launches, 0);
        assert!(merge.report.host_launches >= 12); // log2(5000) ~ 13 passes

        let mut gpu = Gpu::k20();
        let simple = sort_gpu(
            &mut gpu,
            &data,
            SortAlgo::QuickSimple,
            &SortParams::default(),
        );
        assert!(simple.report.device_launches > 100);
    }

    #[test]
    fn depth_limit_caps_recursion() {
        let data = random_data(4000, 3);
        let mut gpu = Gpu::k20();
        let shallow = sort_gpu(
            &mut gpu,
            &data,
            SortAlgo::QuickSimple,
            &SortParams {
                max_depth: 2,
                ..Default::default()
            },
        );
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(shallow.data, expect);
        // Depth 2 allows at most 1 + 2 + 4 = 7 kernels.
        assert!(shallow.report.device_launches <= 6);
    }
}
