//! The top-level [`Gpu`] handle: allocate address space, launch kernels,
//! synchronize, and collect reports.

use crate::check::{self, CheckLevel, CheckReport};
use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::engine::{register_grid, Engine, Origin};
use crate::error::SimError;
use crate::handle::{GBuf, GlobalAllocator};
use crate::kernel::{KernelRef, LaunchConfig, Stream};
use crate::prof::{Collector, Profile};
use crate::profiler::Report;
use crate::sched::simulate_full;

/// A simulated GPU.
///
/// A `Gpu` stays on the thread that creates it (it is not `Send`): its
/// kernels are [`crate::KernelRef`]s and run there. Simulate in parallel
/// by giving each thread its own `Gpu`.
///
/// Usage mirrors a CUDA host program:
///
/// ```
/// use std::rc::Rc;
/// use npar_sim::{Gpu, LaunchConfig, ThreadKernel, ThreadCtx};
///
/// struct Saxpy { n: usize, x: npar_sim::GBuf<f32>, y: npar_sim::GBuf<f32> }
/// impl ThreadKernel for Saxpy {
///     fn name(&self) -> &str { "saxpy" }
///     fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
///         let i = t.global_id();
///         if i < self.n {
///             t.ld(&self.x, i);
///             t.ld(&self.y, i);
///             t.compute(2);
///             t.st(&self.y, i);
///         }
///     }
/// }
///
/// let mut gpu = Gpu::k20();
/// let x = gpu.alloc::<f32>(1024);
/// let y = gpu.alloc::<f32>(1024);
/// gpu.launch(Rc::new(Saxpy { n: 1024, x, y }), LaunchConfig::cover(1024, 192, 1 << 20)).unwrap();
/// let report = gpu.synchronize();
/// assert!(report.cycles > 0.0);
/// assert!((report.total().warp_execution_efficiency() - 1.0).abs() < 1e-9);
/// ```
pub struct Gpu {
    engine: Engine,
    alloc: GlobalAllocator,
}

impl Gpu {
    /// New simulated GPU with the given device and cost models. Host
    /// execution defaults to one worker lane per available core (override
    /// with [`Gpu::set_threads`] or the `NPAR_THREADS` environment
    /// variable).
    pub fn new(device: DeviceConfig, cost: CostModel) -> Self {
        let mut engine = Engine::new(device, cost);
        engine.threads = default_threads();
        engine.device.timing_threads = default_timing_threads(engine.device.timing_threads);
        Gpu {
            engine,
            alloc: GlobalAllocator::new(),
        }
    }

    /// A Tesla K20 with default costs — the paper's testbed.
    pub fn k20() -> Self {
        Gpu::new(DeviceConfig::kepler_k20(), CostModel::default())
    }

    /// The tiny test device.
    pub fn tiny() -> Self {
        Gpu::new(DeviceConfig::tiny(), CostModel::default())
    }

    /// The device description.
    pub fn device(&self) -> &DeviceConfig {
        &self.engine.device
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.engine.cost
    }

    /// Set the hazard-checker severity (see [`crate::check`]).
    pub fn set_check(&mut self, level: CheckLevel) {
        self.engine.device.check = level;
        self.engine.check.level = level;
    }

    /// Builder-style [`Gpu::set_check`].
    #[must_use]
    pub fn with_check(mut self, level: CheckLevel) -> Self {
        self.set_check(level);
        self
    }

    /// Set the number of host worker lanes used to simulate each grid's
    /// blocks (see DESIGN.md §10). `1` selects the serial executor; any
    /// higher count keeps tracing on the calling thread and fans warp
    /// alignment out over a work-stealing pool. Reports are byte-for-byte
    /// identical at every thread count — the setting only changes host
    /// wall time. Values are clamped to at least 1; the pool is rebuilt
    /// lazily on the next launch.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.engine.threads {
            self.engine.threads = threads;
            self.engine.pool = None;
        }
    }

    /// Builder-style [`Gpu::set_threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Current host worker-lane count.
    pub fn threads(&self) -> usize {
        self.engine.threads
    }

    /// Current hazard-checker severity.
    pub fn check_level(&self) -> CheckLevel {
        self.engine.check.level
    }

    /// Enable or disable alignment memoization (see DESIGN.md §8). On by
    /// default; the cache is a pure host-side speedup — reports are
    /// bit-identical with it on or off — so disabling it is only useful
    /// for differential testing and benchmarking. Disabling drops any
    /// accumulated cache entries.
    pub fn set_memo(&mut self, enabled: bool) {
        self.engine.device.memo = enabled;
        if enabled {
            if self.engine.memo.is_none() {
                self.engine.memo = Some(Default::default());
            }
        } else {
            self.engine.memo = None;
            // Adaptive per-kernel policy is meaningless without a cache and
            // must not leak stale decisions into a later re-enable.
            for class in &mut self.engine.classes {
                class.memo = Default::default();
            }
        }
    }

    /// Builder-style [`Gpu::set_memo`].
    #[must_use]
    pub fn with_memo(mut self, enabled: bool) -> Self {
        self.set_memo(enabled);
        self
    }

    /// Whether alignment memoization is currently enabled.
    pub fn memo_enabled(&self) -> bool {
        self.engine.memo.is_some()
    }

    /// Enable or disable the timing-pass fast paths — cohort event
    /// batching and homogeneous-grid fast-forward (see DESIGN.md §11). On
    /// by default; like memoization this is a pure host-side speedup —
    /// reports and profiler timelines are bit-identical either way — so
    /// disabling it is only useful for differential testing and ablation
    /// (`--fast-forward=off` on the bench binaries).
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.engine.device.fast_forward = enabled;
    }

    /// Builder-style [`Gpu::set_fast_forward`].
    #[must_use]
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.set_fast_forward(enabled);
        self
    }

    /// Whether the timing-pass fast paths are currently enabled.
    pub fn fast_forward_enabled(&self) -> bool {
        self.engine.device.fast_forward
    }

    /// Set the timing-pass worker-lane count (see DESIGN.md §13). `1`
    /// (the default) runs the event loop serially; any higher count
    /// partitions each batch into independent timing domains simulated on
    /// separate calendar queues and merged back in exact serial event
    /// order — reports and profiler timelines are bit-identical at every
    /// setting (`--timing-threads=N` on the bench binaries). Values are
    /// clamped to at least 1; the pool is rebuilt lazily.
    pub fn set_timing_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.engine.device.timing_threads {
            self.engine.device.timing_threads = threads;
            self.engine.timing_pool = None;
        }
    }

    /// Builder-style [`Gpu::set_timing_threads`].
    #[must_use]
    pub fn with_timing_threads(mut self, threads: usize) -> Self {
        self.set_timing_threads(threads);
        self
    }

    /// Current timing-pass worker-lane count.
    pub fn timing_threads(&self) -> usize {
        self.engine.device.timing_threads
    }

    /// Select the workload-consolidation mode for dynamic parallelism
    /// (see [`crate::ConsolidateMode`] and DESIGN.md §15). Off by
    /// default. In any other mode, sibling device launches are aggregated
    /// into consolidated grids — and tiny leaves inlined — before the
    /// timing pass, modeling the Wu/Li/Becchi compiler transforms.
    /// Kernel memory and hazard reports are unchanged at any setting;
    /// only modeled time and launch counts move (`--consolidate` on the
    /// bench binaries).
    pub fn set_consolidation(&mut self, mode: crate::ConsolidateMode) {
        self.engine.device.consolidate = mode;
    }

    /// Builder-style [`Gpu::set_consolidation`].
    #[must_use]
    pub fn with_consolidation(mut self, mode: crate::ConsolidateMode) -> Self {
        self.set_consolidation(mode);
        self
    }

    /// The active workload-consolidation mode.
    pub fn consolidation(&self) -> crate::ConsolidateMode {
        self.engine.device.consolidate
    }

    /// Enable or disable proof-carrying scan elision (see
    /// [`crate::analyze`] and DESIGN.md §12). On by default; while the
    /// checker runs above [`CheckLevel::Off`], kernels npar-analyze has
    /// proven clean skip their per-block hazard scans. Elision only ever
    /// skips work the dynamic checker would have passed, so hazard counts
    /// and reports are identical either way — disabling it (`--no-elide`)
    /// is only useful for differential testing and timing audits.
    pub fn set_elide(&mut self, enabled: bool) {
        self.engine.device.elide = enabled;
    }

    /// Builder-style [`Gpu::set_elide`].
    #[must_use]
    pub fn with_elide(mut self, enabled: bool) -> Self {
        self.set_elide(enabled);
        self
    }

    /// Whether proof-carrying scan elision is enabled (it has effect only
    /// while the checker runs above [`CheckLevel::Off`]).
    pub fn elide_enabled(&self) -> bool {
        self.engine.device.elide
    }

    /// Enable or disable npar-analyze collection independently of elision
    /// (`--analyze`). Off by default — but an active eliding checker
    /// implies collection, so this flag only matters for reading
    /// [`Gpu::analysis`] with elision disabled or the checker off.
    pub fn set_analyze(&mut self, enabled: bool) {
        self.engine.device.analyze = enabled;
    }

    /// Builder-style [`Gpu::set_analyze`].
    #[must_use]
    pub fn with_analyze(mut self, enabled: bool) -> Self {
        self.set_analyze(enabled);
        self
    }

    /// Whether npar-analyze collection was explicitly requested.
    pub fn analyze_enabled(&self) -> bool {
        self.engine.device.analyze
    }

    /// The current npar-analyze report: one [`crate::analyze::KernelAnalysis`]
    /// per kernel class observed so far (empty unless analysis is active —
    /// i.e. [`Gpu::set_analyze`], or elision with the checker on).
    /// Analysis state accumulates across synchronizes, like the memo cache.
    pub fn analysis(&self) -> crate::analyze::AnalysisReport {
        self.engine.analyzer.report(&self.engine.device)
    }

    /// Enable or disable the timeline profiler (see [`crate::prof`]). Off
    /// by default. While enabled, every [`Gpu::synchronize`] appends the
    /// batch's timeline — kernel spans, per-SM block residency,
    /// parent→child launch flows — to an accumulating [`Profile`].
    /// Profiling is observational: [`Report`]s are bit-identical with it
    /// on or off. Disabling drops any accumulated profile.
    pub fn set_profiler(&mut self, enabled: bool) {
        self.engine.profiling = enabled;
        if !enabled {
            self.engine.profile = Profile::default();
        }
    }

    /// Builder-style [`Gpu::set_profiler`].
    ///
    /// ```
    /// use std::rc::Rc;
    /// use npar_sim::{Gpu, LaunchConfig, ThreadKernel, ThreadCtx};
    ///
    /// struct Ping;
    /// impl ThreadKernel for Ping {
    ///     fn name(&self) -> &str { "ping" }
    ///     fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) { t.compute(8); }
    /// }
    ///
    /// let mut gpu = Gpu::k20().with_profiler(true);
    /// gpu.launch(Rc::new(Ping), LaunchConfig::new(4, 64)).unwrap();
    /// let report = gpu.synchronize();
    /// let profile = gpu.take_profile();
    /// assert_eq!(profile.kernels.len(), 1);
    /// assert!(!profile.blocks.is_empty());
    /// assert!(profile.to_chrome_trace().contains("traceEvents"));
    /// println!("{}", report.stall_table());
    /// ```
    #[must_use]
    pub fn with_profiler(mut self, enabled: bool) -> Self {
        self.set_profiler(enabled);
        self
    }

    /// Whether the timeline profiler is currently enabled.
    pub fn profiler_enabled(&self) -> bool {
        self.engine.profiling
    }

    /// Drain the accumulated timeline [`Profile`]. The profile restarts
    /// empty (timeline cycle 0) afterwards. Returns an empty profile when
    /// the profiler is disabled or nothing has been synchronized.
    pub fn take_profile(&mut self) -> Profile {
        let mut p = std::mem::take(&mut self.engine.profile);
        if p.device.is_empty() {
            p.device.clone_from(&self.engine.device.name);
            p.clock_ghz = self.engine.device.clock_ghz;
        }
        p
    }

    /// Drain the hazards recorded since the last drain (or synchronize).
    /// Useful under [`CheckLevel::Warn`], where launches keep succeeding.
    pub fn take_check_report(&mut self) -> CheckReport {
        self.engine.analyzer.note_drained();
        self.engine.check.take_report()
    }

    /// Allocate simulated global memory for `len` elements of `T`.
    pub fn alloc<T>(&mut self, len: usize) -> GBuf<T> {
        self.alloc.alloc::<T>(len)
    }

    /// Launch a kernel into host stream 0.
    ///
    /// The kernel executes functionally before this returns (its effects on
    /// application state are visible immediately); its modeled *timing*
    /// accrues to the next [`Gpu::synchronize`].
    pub fn launch(&mut self, kernel: KernelRef, cfg: LaunchConfig) -> Result<(), SimError> {
        self.launch_in(kernel, cfg, Stream::Default)
    }

    /// Launch a kernel into a chosen host stream.
    ///
    /// The kernel (and any child grids it spawns) executes functionally
    /// before this returns, so the hazard checker has seen every trace:
    /// structural faults (divergent barriers, invalid device-side
    /// launches) fail the launch at any [`CheckLevel`], and under
    /// [`CheckLevel::Strict`] every recorded hazard does. The functional
    /// effects on application state have been applied either way.
    pub fn launch_in(
        &mut self,
        kernel: KernelRef,
        cfg: LaunchConfig,
        stream: Stream,
    ) -> Result<(), SimError> {
        self.engine.validate(&cfg)?;
        let stream = match stream {
            Stream::Default => 0,
            Stream::Slot(n) => n,
        };
        let seq = self.engine.host_seq;
        self.engine.host_seq += 1;
        let t0 = std::time::Instant::now();
        register_grid(&mut self.engine, &kernel, cfg, Origin::Host { seq, stream });
        check::resolve_lints(&mut self.engine);
        // Defense in depth for elision: attribute every hazard recorded
        // during this launch (including late-resolved lints) to its
        // kernel's analysis classes, permanently flagging them so no
        // future grid of a hazardous kernel elides a scan.
        self.engine.analyzer.sweep_hazards(&self.engine.check);
        self.engine.stats.wall_seconds += t0.elapsed().as_secs_f64();
        let st = &mut self.engine.check;
        if st.is_fatal() || (st.level == CheckLevel::Strict && st.has_hazards()) {
            self.engine.analyzer.note_drained();
            let st = &mut self.engine.check;
            return Err(SimError::Hazard(st.take_report()));
        }
        Ok(())
    }

    /// Finish the pending batch: run the timing simulation over everything
    /// launched since the previous synchronize and return its [`Report`].
    pub fn synchronize(&mut self) -> Report {
        let t0 = std::time::Instant::now();
        let kernels = self.engine.take_metrics();
        // Workload consolidation (DESIGN.md §15): rewrite the recorded
        // launch stream before timing. Functional execution, hazard
        // checks, and per-kernel metrics are already final, so this only
        // moves modeled time and the batch launch counts.
        if self.engine.device.consolidate != crate::ConsolidateMode::Off {
            let cs = crate::consolidate::consolidate(
                &mut self.engine.grids,
                &self.engine.device,
                &kernels,
            );
            self.engine.stats.consolidated_groups += cs.groups;
            self.engine.stats.consolidated_grids += cs.merged;
            self.engine.stats.inlined_grids += cs.inlined;
        }
        let mut prof = self
            .engine
            .profiling
            .then(|| Collector::new(self.engine.grids.len()));
        let t_sched = std::time::Instant::now();
        self.engine.ensure_timing_pool();
        let (timing, sched_stats) = simulate_full(
            &self.engine.grids,
            &self.engine.device,
            &self.engine.cost,
            prof.as_mut(),
            self.engine.timing_pool.as_ref(),
        );
        self.engine.stats.timing_pass_ns += t_sched.elapsed().as_nanos() as u64;
        self.engine.stats.timing_domains += sched_stats.domains;
        self.engine.stats.timing_domains_committed += sched_stats.domains_committed;
        self.engine.stats.timing_rollbacks += sched_stats.domains_rolled_back;
        if let Some(col) = prof {
            col.finish(
                &self.engine.grids,
                &self.engine.device,
                &mut self.engine.profile,
            );
        }
        self.engine.stats.wall_seconds += t0.elapsed().as_secs_f64();
        let host_launches = self
            .engine
            .grids
            .iter()
            .filter(|g| matches!(g.origin, Origin::Host { .. }))
            .count() as u64;
        let device_launches = self.engine.grids.len() as u64 - host_launches;
        self.engine.grids.clear();
        self.engine.kernels.clear();
        self.engine.host_seq = 0;
        let hazards = self.engine.check.batch_count();
        self.engine.check.reset_batch();
        Report {
            device: self.engine.device.name.clone(),
            cycles: timing.makespan,
            seconds: self.engine.device.cycles_to_seconds(timing.makespan),
            achieved_occupancy: timing.achieved_occupancy,
            host_launches,
            device_launches,
            overflow_launches: timing.overflow_launches,
            hazards,
            sim: std::mem::take(&mut self.engine.stats),
            kernels,
        }
    }
}

/// Default host worker-lane count: `NPAR_THREADS` when set to a positive
/// integer, otherwise the number of available cores, otherwise 1.
fn default_threads() -> usize {
    if let Ok(v) = std::env::var("NPAR_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Default timing-pass lane count: `NPAR_TIMING_THREADS` when set to a
/// positive integer, otherwise the [`DeviceConfig`] value (1 = the serial
/// event loop). Unlike host tracing threads, the timing pass does not
/// default to the core count — domain parallelism only pays off on
/// multi-stream batches, so it is opt-in (DESIGN.md §13).
fn default_timing_threads(fallback: usize) -> usize {
    if let Ok(v) = std::env::var("NPAR_TIMING_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ThreadCtx;
    use crate::kernel::ThreadKernel;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct CountKernel {
        n: usize,
        hits: Rc<RefCell<Vec<u32>>>,
    }
    impl ThreadKernel for CountKernel {
        fn name(&self) -> &str {
            "count"
        }
        fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
            let stride = t.grid_threads();
            let mut i = t.global_id();
            while i < self.n {
                self.hits.borrow_mut()[i] += 1;
                t.compute(1);
                i += stride;
            }
        }
    }

    /// A parent whose first `launches` threads each fire one `child` grid
    /// and never join it.
    struct Spawner {
        child: KernelRef,
        launches: u32,
    }
    impl ThreadKernel for Spawner {
        fn name(&self) -> &str {
            "spawner"
        }
        fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
            t.compute(1);
            if t.thread_idx() < self.launches {
                t.launch(&self.child, LaunchConfig::new(2, 64), Stream::Default);
            }
        }
    }

    #[test]
    fn synchronize_releases_kernels() {
        // Grid consolidation merges the four sibling children into one.
        for (mode, device_launches) in [
            (crate::ConsolidateMode::Off, 4),
            (crate::ConsolidateMode::Grid, 1),
        ] {
            let mut gpu = Gpu::tiny().with_consolidation(mode);
            let hits = Rc::new(RefCell::new(vec![0u32; 64]));
            let host = Rc::new(CountKernel {
                n: 64,
                hits: Rc::clone(&hits),
            });
            let child: KernelRef = Rc::new(CountKernel { n: 64, hits });
            let parent = Rc::new(Spawner {
                child: Rc::clone(&child),
                launches: 4,
            });
            gpu.launch(host.clone(), LaunchConfig::new(1, 64)).unwrap();
            gpu.launch(parent.clone(), LaunchConfig::new(1, 32))
                .unwrap();
            let report = gpu.synchronize();
            assert_eq!(report.device_launches, device_launches, "{mode}");
            assert_eq!(Rc::strong_count(&host), 1, "{mode}");
            assert_eq!(Rc::strong_count(&parent), 1, "{mode}");
            drop(parent);
            assert_eq!(Rc::strong_count(&child), 1, "{mode}");
        }
    }

    #[test]
    fn grid_stride_covers_every_item_once() {
        let mut gpu = Gpu::tiny();
        let n = 1000;
        let hits = Rc::new(RefCell::new(vec![0u32; n]));
        let k = Rc::new(CountKernel {
            n,
            hits: hits.clone(),
        });
        gpu.launch(k, LaunchConfig::new(4, 64)).unwrap();
        let report = gpu.synchronize();
        assert!(hits.borrow().iter().all(|&h| h == 1));
        assert_eq!(report.host_launches, 1);
        assert_eq!(report.device_launches, 0);
        assert!(report.cycles > 0.0);
    }

    #[test]
    fn synchronize_resets_batch() {
        let mut gpu = Gpu::tiny();
        let hits = Rc::new(RefCell::new(vec![0u32; 10]));
        let k = Rc::new(CountKernel {
            n: 10,
            hits: hits.clone(),
        });
        gpu.launch(k.clone(), LaunchConfig::new(1, 32)).unwrap();
        let r1 = gpu.synchronize();
        let r2 = gpu.synchronize();
        assert!(r1.cycles > 0.0);
        assert_eq!(r2.cycles, 0.0);
        assert_eq!(r2.host_launches, 0);
    }

    #[test]
    fn launch_rejects_oversized_block() {
        let mut gpu = Gpu::tiny();
        let hits = Rc::new(RefCell::new(vec![0u32; 1]));
        let k = Rc::new(CountKernel { n: 1, hits });
        assert!(gpu.launch(k, LaunchConfig::new(1, 4096)).is_err());
    }

    #[test]
    fn reports_merge_across_batches() {
        let mut gpu = Gpu::tiny();
        let hits = Rc::new(RefCell::new(vec![0u32; 64]));
        let k = Rc::new(CountKernel {
            n: 64,
            hits: hits.clone(),
        });
        gpu.launch(k.clone(), LaunchConfig::new(1, 64)).unwrap();
        let mut total = gpu.synchronize();
        gpu.launch(k, LaunchConfig::new(1, 64)).unwrap();
        let r2 = gpu.synchronize();
        let c1 = total.cycles;
        total.merge(&r2);
        assert!((total.cycles - (c1 + r2.cycles)).abs() < 1e-9);
        assert_eq!(total.host_launches, 2);
        assert_eq!(hits.borrow()[0], 2);
    }
}
