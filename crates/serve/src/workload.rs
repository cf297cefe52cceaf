//! The serving request model and the kernel catalog behind it.
//!
//! A [`Request`] is fully declarative — a catalog kernel id, a complete
//! [`DeviceConfig`], and a [`Dataset`] descriptor — so two requests with the
//! same content are the same simulation. [`request_key`] exploits that: the
//! canonical JSON rendering of the request is hashed into a 64-bit
//! content-addressed key, which is the unit of in-flight dedupe and of the
//! persistent result cache (SERVING.md).
//!
//! The catalog covers the traffic mix ROADMAP item 4 asks the service to be
//! honest about: a cache-friendly regular wave, a fully divergent sweep, a
//! dynamic-parallelism storm, a per-thread launch storm shaped for the
//! workload-consolidation pass (enable it via the request's
//! `DeviceConfig::consolidate`), a HyperQ-style multi-stream storm, and a
//! Monte-Carlo-style batch of many small independent replications (the
//! "multiple replications in parallel" profile from PAPERS.md). Every
//! kernel's control flow is a pure function of thread ids and the dataset
//! `salt` — never of global-memory *values* — so a request's `Report` is
//! independent of whatever previously ran on the worker's `Gpu`.

use std::sync::Arc;
use std::time::Instant;

use npar_sim::{
    DeviceConfig, GBuf, Gpu, KernelRef, LaunchConfig, SimError, Stream, ThreadCtx, ThreadKernel,
};
use serde::{Deserialize, Serialize};

/// Catalog kernel ids, in the order SERVING.md documents them.
pub const KERNELS: [&str; 6] = [
    "regular-wave",
    "divergent",
    "dp-storm",
    "dp-consolidated",
    "stream-storm",
    "monte-carlo",
];

/// Per-shard queue and validation cap on `grid × block` threads per launch.
const MAX_THREADS_PER_LAUNCH: u64 = 1 << 22;
/// Validation cap on `dataset.n`: `divergent` allocates `n` f32s, and the
/// allocator's byte count must not overflow (the catalog defaults use
/// `2^14`).
const MAX_N: u64 = 1 << 30;
/// Validation cap on launches per request.
const MAX_LAUNCHES: u32 = 256;
/// Validation cap on host streams per request.
const MAX_STREAMS: u32 = 32;
/// Tighter thread cap for `dp-consolidated`: every parent thread launches a
/// child grid with a private 128-element scratch slice, so the parent shape
/// bounds both the device-launch stream and the allocation.
const MAX_CONS_PARENT_THREADS: u64 = 1 << 12;

/// Dataset descriptor: the shape of the work a request asks for. All fields
/// participate in the content key, so e.g. two Monte-Carlo batches that
/// differ only in `salt` are distinct requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    /// Problem size (elements); kernels index scratch buffers modulo this.
    pub n: u64,
    /// Blocks per launch.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Kernel launches the request batches before one synchronize.
    pub launches: u32,
    /// Host streams the launches round-robin across (`stream-storm`; the
    /// other kernels launch into the default stream and ignore this).
    pub streams: u32,
    /// Divergence / replication seed. Folded into per-thread trip counts,
    /// so distinct salts produce structurally distinct traces.
    pub salt: u64,
}

impl Default for Dataset {
    fn default() -> Self {
        Dataset {
            n: 1 << 14,
            grid: 16,
            block: 128,
            launches: 2,
            streams: 1,
            salt: 0,
        }
    }
}

/// One simulation request: everything needed to reproduce the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Catalog kernel id (one of [`KERNELS`]).
    pub kernel: String,
    /// Full device configuration the simulation runs under.
    pub device: DeviceConfig,
    /// Work-shape descriptor.
    pub dataset: Dataset,
}

impl Request {
    /// A request for catalog kernel `kernel` on the paper's K20 with the
    /// default dataset shape.
    pub fn new(kernel: &str) -> Self {
        Request {
            kernel: kernel.to_string(),
            device: DeviceConfig::kepler_k20(),
            dataset: Dataset::default(),
        }
    }
}

// FxHash-style string hashing (same constants as the memo fingerprints):
// deterministic across processes, unlike `DefaultHasher`, which the
// persistent cache requires — spilled keys must mean the same thing to the
// process that restores them.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const K: u64 = 0x517c_c1b7_2722_0a95;

fn fx(bytes: &[u8]) -> u64 {
    let mut h = SEED;
    for &b in bytes {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    }
    h
}

/// The 64-bit content-addressed key of a request: a hash of its canonical
/// JSON rendering (field order is declaration order, so the rendering — and
/// the key — is canonical). Identical requests collide by construction;
/// a hash collision between *different* requests would serve the wrong
/// cached report, the same (accepted, differential-tested) risk posture as
/// the DESIGN.md §8 fingerprint keys.
pub fn request_key(req: &Request) -> u64 {
    let text = serde_json::to_string(req).expect("request JSON is infallible");
    fx(text.as_bytes())
}

/// The device signature that keys each shard's pool of worker `Gpu`s: a
/// hash of the canonical `DeviceConfig` JSON, rendered as fixed-width hex.
/// A worker `Gpu` keeps its memo cache across jobs, and memo entries replay
/// saved timing verbatim, so requests with different configurations never
/// share one.
pub fn device_sig(device: &DeviceConfig) -> String {
    let text = serde_json::to_string(device).expect("device JSON is infallible");
    format!("{:016x}", fx(text.as_bytes()))
}

/// Validate a request before admission: unknown kernel ids, device configs
/// the simulator cannot run and absurd shapes are rejected at submit time
/// (`SubmitError::Invalid`) instead of occupying a worker.
pub fn validate(req: &Request) -> Result<(), String> {
    if !KERNELS.contains(&req.kernel.as_str()) {
        return Err(format!(
            "unknown kernel {:?} (catalog: {})",
            req.kernel,
            KERNELS.join(", ")
        ));
    }
    validate_device(&req.device)?;
    let d = &req.dataset;
    if d.grid == 0 || d.block == 0 || d.launches == 0 || d.n == 0 {
        return Err("dataset dims must be nonzero".into());
    }
    if d.n > MAX_N {
        return Err(format!("n {} > {MAX_N}", d.n));
    }
    if u64::from(d.grid) * u64::from(d.block) > MAX_THREADS_PER_LAUNCH {
        return Err(format!(
            "grid {} x block {} exceeds {MAX_THREADS_PER_LAUNCH} threads per launch",
            d.grid, d.block
        ));
    }
    if d.launches > MAX_LAUNCHES {
        return Err(format!("launches {} > {MAX_LAUNCHES}", d.launches));
    }
    if d.streams == 0 || d.streams > MAX_STREAMS {
        return Err(format!("streams {} outside 1..={MAX_STREAMS}", d.streams));
    }
    if req.kernel == "dp-consolidated"
        && u64::from(d.grid) * u64::from(d.block) > MAX_CONS_PARENT_THREADS
    {
        return Err(format!(
            "grid {} x block {} exceeds {MAX_CONS_PARENT_THREADS} parent threads for \
             dp-consolidated",
            d.grid, d.block
        ));
    }
    // Every launch the request makes, host and device side, must fit the
    // device: a block no SM can hold would never be placed.
    let children: &[LaunchConfig] = match req.kernel.as_str() {
        "dp-storm" => &[STORM_CHILD],
        "dp-consolidated" => &CONS_CHILDREN,
        _ => &[],
    };
    for cfg in std::iter::once(LaunchConfig::new(d.grid, d.block)).chain(children.iter().copied()) {
        req.device
            .validate_launch(&cfg)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Reject a device the simulator cannot run. It divides by the warp size,
/// the bank count, the per-SM issue width (`cores_per_sm`), the device's
/// warp capacity and the clock, and masks addresses by the transaction
/// size, which must be a power of two. A zero in any other SM capacity
/// leaves no block resident, so the run would report launch overhead
/// alone.
fn validate_device(d: &DeviceConfig) -> Result<(), String> {
    let nonzero = [
        ("num_sms", d.num_sms),
        ("cores_per_sm", d.cores_per_sm),
        ("warp_size", d.warp_size),
        ("max_threads_per_sm", d.max_threads_per_sm),
        ("max_blocks_per_sm", d.max_blocks_per_sm),
        ("max_warps_per_sm", d.max_warps_per_sm),
        ("registers_per_sm", d.registers_per_sm),
        ("shared_banks", d.shared_banks),
    ];
    if let Some((name, _)) = nonzero.iter().find(|&&(_, v)| v == 0) {
        return Err(format!("device.{name} must be nonzero"));
    }
    if !d.mem_transaction_bytes.is_power_of_two() {
        return Err(format!(
            "device.mem_transaction_bytes {} is not a power of two",
            d.mem_transaction_bytes
        ));
    }
    if !(d.clock_ghz.is_finite() && d.clock_ghz > 0.0) {
        return Err(format!(
            "device.clock_ghz {} is not a positive number",
            d.clock_ghz
        ));
    }
    Ok(())
}

// --- catalog kernels -----------------------------------------------------

/// Regular wave: identical heavy-tailed trip ramp in every block (the
/// thread-mapped loop template on a regular input). All blocks after the
/// first replay from the memo cache.
struct RegularWave {
    x: GBuf<f32>,
    y: GBuf<f32>,
}

impl ThreadKernel for RegularWave {
    fn name(&self) -> &str {
        "serve-regular-wave"
    }
    fn parallel_trace(&self) -> bool {
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        let lane = t.thread_idx() as usize % 32;
        let trips = if lane >= 28 { 8 + (lane - 28) * 16 } else { 3 };
        for j in 0..trips {
            t.ld(&self.x, i * 2 + lane * 499 + j);
            t.compute(1);
        }
        t.st(&self.y, i);
    }
}

/// Fully divergent sweep: per-thread trip counts and scattered reads keyed
/// by the dataset salt, so neither the memo cache nor a repeat launch hits.
struct DivergentSweep {
    n: usize,
    salt: u64,
    data: GBuf<f32>,
}

impl ThreadKernel for DivergentSweep {
    fn name(&self) -> &str {
        "serve-divergent"
    }
    fn parallel_trace(&self) -> bool {
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id() as u64 + self.salt;
        let trips = i.wrapping_mul(2_654_435_761) % 23;
        for j in 0..trips {
            let at = i.wrapping_mul(7_919).wrapping_add(j.wrapping_mul(104_729));
            t.ld(&self.data, (at % self.n as u64) as usize);
            t.compute(1);
        }
    }
}

/// Child grid of the DP storm: a short regular sweep.
struct StormChild {
    data: GBuf<f32>,
}

impl ThreadKernel for StormChild {
    fn name(&self) -> &str {
        "serve-dp-child"
    }
    fn parallel_trace(&self) -> bool {
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        for j in 0..3 {
            t.ld(&self.data, i + j * t.grid_threads());
            t.compute(1);
        }
        t.st(&self.data, i);
    }
}

/// Child grids of the DP storm.
const STORM_CHILD: LaunchConfig = LaunchConfig {
    grid_dim: 4,
    block_dim: 64,
    shared_mem_bytes: 0,
};

/// Child grids of the consolidated storm: even parent threads launch the
/// first (a mergeable block-sized grid), odd ones the second.
const CONS_CHILDREN: [LaunchConfig; 2] = [
    LaunchConfig {
        grid_dim: 1,
        block_dim: 128,
        shared_mem_bytes: 0,
    },
    LaunchConfig {
        grid_dim: 1,
        block_dim: 32,
        shared_mem_bytes: 0,
    },
];

/// DP storm parent: block leaders fire-and-forget child grids, with a
/// salt-dependent divergence tail so distinct salts stay distinct work.
struct StormParent {
    child: KernelRef,
    salt: u64,
}

impl ThreadKernel for StormParent {
    fn name(&self) -> &str {
        "serve-dp-storm"
    }
    fn parallel_trace(&self) -> bool {
        // Fire-and-forget launches joined at grid completion only.
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        if t.is_leader() {
            t.launch(&self.child, STORM_CHILD, Stream::Default);
        }
        let spin = (t.global_id() as u64 + self.salt) % 5;
        t.compute(1 + spin as u32);
    }
}

/// Child grid of the consolidated storm: a short sweep over a private
/// per-parent-thread slice, so sibling children never alias and the
/// consolidation pass (DESIGN.md §15) can aggregate them freely.
struct ConsChild {
    data: GBuf<f32>,
    base: usize,
}

impl ThreadKernel for ConsChild {
    fn name(&self) -> &str {
        "serve-dp-cons-child"
    }
    fn parallel_trace(&self) -> bool {
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = self.base + t.global_id();
        t.ld(&self.data, i);
        t.compute(1);
        t.st(&self.data, i);
    }
}

/// Consolidated-storm parent: *every* thread fires a child — even lanes a
/// mergeable block-sized grid, odd lanes a sub-threshold one the pass
/// inlines — so a request whose [`DeviceConfig`] enables consolidation (the
/// shape this catalog entry exists for) exercises both rewrites end to end.
/// With consolidation off in the device config it is simply the nastiest
/// launch storm in the catalog.
struct ConsStormParent {
    data: GBuf<f32>,
    salt: u64,
}

impl ThreadKernel for ConsStormParent {
    fn name(&self) -> &str {
        "serve-dp-cons"
    }
    fn parallel_trace(&self) -> bool {
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let id = t.global_id();
        let child: KernelRef = Arc::new(ConsChild {
            data: self.data,
            base: id * 128,
        });
        let cfg = CONS_CHILDREN[id % 2];
        t.launch(&child, cfg, Stream::Default);
        let spin = (id as u64 + self.salt) % 5;
        t.compute(1 + spin as u32);
    }
}

/// Uniform short kernel for the multi-stream storm: tiny identical traces
/// whose grids overlap across host streams (HyperQ profile; the partitioned
/// timing pass commits one domain per stream).
struct StreamBurst {
    data: GBuf<f32>,
}

impl ThreadKernel for StreamBurst {
    fn name(&self) -> &str {
        "serve-stream-storm"
    }
    fn parallel_trace(&self) -> bool {
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let i = t.global_id();
        t.ld(&self.data, i);
        t.compute(2);
        t.st(&self.data, i);
    }
}

/// One Monte-Carlo replication batch: each warp walks an independent
/// replication whose path length comes from an LCG over (salt, warp id) —
/// many small independent sims, mildly divergent across warps, uniform
/// within one (the PAPERS.md warp-per-replication packing).
struct MonteCarlo {
    out: GBuf<f32>,
    salt: u64,
}

impl ThreadKernel for MonteCarlo {
    fn name(&self) -> &str {
        "serve-monte-carlo"
    }
    fn parallel_trace(&self) -> bool {
        true
    }
    fn run_thread(&self, t: &mut ThreadCtx<'_, '_>) {
        let warp = t.global_id() / 32;
        let steps = self
            .salt
            .wrapping_add(warp as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
            >> 58; // top 6 bits: 0..=63 steps
        for s in 0..steps {
            t.compute(2);
            if s % 4 == 0 {
                t.ld(&self.out, warp);
            }
        }
        if t.thread_idx() % 32 == 0 {
            t.st(&self.out, warp);
        }
    }
}

/// Outcome of driving one request's launch batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Every launch was queued; the caller synchronizes and keeps the
    /// report.
    Completed,
    /// The cooperative deadline passed between launches; the caller
    /// synchronizes to flush the partial batch and discards it.
    DeadlineHit,
}

/// Queue `req`'s launch batch on `gpu`, checking the cooperative `deadline`
/// between launches (a launch in progress is never interrupted — see
/// SERVING.md on timeout semantics). Does **not** synchronize; the caller
/// owns the report or the discard.
pub fn drive(gpu: &mut Gpu, req: &Request, deadline: Option<Instant>) -> Result<Drive, SimError> {
    let d = &req.dataset;
    let cfg = LaunchConfig::new(d.grid, d.block);
    let threads = cfg.total_threads() as usize;
    let over = |deadline: Option<Instant>| deadline.is_some_and(|dl| Instant::now() > dl);
    match req.kernel.as_str() {
        "regular-wave" => {
            let x = gpu.alloc::<f32>(threads * 2 + 31 * 499 + 200);
            let y = gpu.alloc::<f32>(threads);
            let k = Arc::new(RegularWave { x, y });
            for _ in 0..d.launches {
                if over(deadline) {
                    return Ok(Drive::DeadlineHit);
                }
                gpu.launch(k.clone(), cfg)?;
            }
        }
        "divergent" => {
            let n = d.n as usize;
            let data = gpu.alloc::<f32>(n);
            for l in 0..d.launches {
                if over(deadline) {
                    return Ok(Drive::DeadlineHit);
                }
                let k = Arc::new(DivergentSweep {
                    n,
                    salt: d.salt.wrapping_add(u64::from(l)),
                    data,
                });
                gpu.launch(k, cfg)?;
            }
        }
        "dp-storm" => {
            let data = gpu.alloc::<f32>(4 * 64 * 3 + 4 * 64);
            let child: KernelRef = Arc::new(StormChild { data });
            let k = Arc::new(StormParent {
                child,
                salt: d.salt,
            });
            for _ in 0..d.launches {
                if over(deadline) {
                    return Ok(Drive::DeadlineHit);
                }
                gpu.launch(k.clone(), cfg)?;
            }
        }
        "dp-consolidated" => {
            // One private 128-element slice per parent thread (see
            // MAX_CONS_PARENT_THREADS for the shape bound this implies).
            let data = gpu.alloc::<f32>(threads * 128 + 128);
            let k = Arc::new(ConsStormParent { data, salt: d.salt });
            for _ in 0..d.launches {
                if over(deadline) {
                    return Ok(Drive::DeadlineHit);
                }
                gpu.launch(k.clone(), cfg)?;
            }
        }
        "stream-storm" => {
            let data = gpu.alloc::<f32>(threads);
            let k = Arc::new(StreamBurst { data });
            for s in 0..d.streams {
                for _ in 0..d.launches {
                    if over(deadline) {
                        return Ok(Drive::DeadlineHit);
                    }
                    gpu.launch_in(k.clone(), cfg, Stream::Slot(s))?;
                }
            }
        }
        "monte-carlo" => {
            let warps = threads.div_ceil(32);
            let out = gpu.alloc::<f32>(warps.max(1));
            for l in 0..d.launches {
                if over(deadline) {
                    return Ok(Drive::DeadlineHit);
                }
                let k = Arc::new(MonteCarlo {
                    out,
                    salt: d.salt.wrapping_add(u64::from(l) << 32),
                });
                gpu.launch(k, cfg)?;
            }
        }
        other => unreachable!("validate() admits only catalog kernels, got {other:?}"),
    }
    Ok(Drive::Completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_content_addressed() {
        let a = Request::new("regular-wave");
        let mut b = Request::new("regular-wave");
        assert_eq!(request_key(&a), request_key(&b));
        b.dataset.salt = 1;
        assert_ne!(request_key(&a), request_key(&b));
        let c = Request::new("divergent");
        assert_ne!(request_key(&a), request_key(&c));
    }

    #[test]
    fn device_sig_distinguishes_configs() {
        assert_eq!(
            device_sig(&DeviceConfig::kepler_k20()),
            device_sig(&DeviceConfig::kepler_k20())
        );
        assert_ne!(
            device_sig(&DeviceConfig::kepler_k20()),
            device_sig(&DeviceConfig::tiny())
        );
    }

    #[test]
    fn validate_rejects_bad_requests() {
        assert!(validate(&Request::new("regular-wave")).is_ok());
        assert!(validate(&Request::new("nope")).is_err());
        let mut r = Request::new("divergent");
        r.dataset.grid = 0;
        assert!(validate(&r).is_err());
        // An `n` whose f32 byte count overflows the allocator, and the
        // first value past the cap.
        let mut r = Request::new("divergent");
        r.dataset.n = 1 << 62;
        assert!(validate(&r).unwrap_err().contains("n 4611686018427387904"));
        r.dataset.n = MAX_N + 1;
        assert!(validate(&r).is_err());
        r.dataset.n = MAX_N;
        assert!(validate(&r).is_ok());
        let mut r = Request::new("divergent");
        r.dataset.launches = MAX_LAUNCHES + 1;
        assert!(validate(&r).is_err());
        let mut r = Request::new("stream-storm");
        r.dataset.streams = 0;
        assert!(validate(&r).is_err());
        let mut r = Request::new("monte-carlo");
        r.dataset.grid = 1 << 16;
        r.dataset.block = 1 << 10;
        assert!(validate(&r).is_err());
        // Within the generic thread cap but over the per-thread-launch one.
        let mut r = Request::new("dp-consolidated");
        r.dataset.grid = 64;
        r.dataset.block = 128;
        assert!(validate(&r).is_err());
        r.dataset.grid = 32;
        assert!(validate(&r).is_ok());
        type Set = fn(&mut DeviceConfig);
        let unrunnable: [Set; 5] = [
            |d| d.warp_size = 0,
            |d| d.shared_banks = 0,
            |d| d.num_sms = 0,
            |d| d.mem_transaction_bytes = 96,
            |d| d.clock_ghz = f64::NAN,
        ];
        for set in unrunnable {
            let mut r = Request::new("dp-storm");
            set(&mut r.device);
            assert!(validate(&r).is_err(), "{:?}", r.device);
        }
        // Blocks no SM of the device can hold: the host block (registers),
        // or a device-side child block (warps) of a launch-storm kernel.
        let mut r = Request::new("divergent");
        r.device.registers_per_sm = r.device.registers_per_thread * (r.dataset.block - 1);
        let err = validate(&r).unwrap_err();
        assert!(err.contains("no SM can hold"), "{err}");
        let mut r = Request::new("dp-consolidated");
        r.dataset.block = 32;
        r.device.max_warps_per_sm = 2;
        assert!(validate(&r).unwrap_err().contains("no SM can hold"));
        r.kernel = "monte-carlo".into();
        assert!(validate(&r).is_ok(), "no 128-thread child to place");
        for device in [
            DeviceConfig::kepler_k20(),
            DeviceConfig::gtx_titan(),
            DeviceConfig::tiny(),
        ] {
            let mut r = Request::new("dp-storm");
            r.device = device;
            assert!(validate(&r).is_ok());
        }
    }

    #[test]
    fn request_json_roundtrip() {
        let mut r = Request::new("monte-carlo");
        r.dataset.salt = 0xdead_beef;
        r.device = DeviceConfig::tiny();
        let text = serde_json::to_string(&r).unwrap();
        let back: Request = serde_json::from_str(&text).unwrap();
        assert_eq!(r, back);
        assert_eq!(request_key(&r), request_key(&back));
    }

    #[test]
    fn every_catalog_kernel_drives_and_reports() {
        for kernel in KERNELS {
            let mut req = Request::new(kernel);
            req.device = DeviceConfig::tiny();
            req.dataset = Dataset {
                n: 256,
                grid: 2,
                block: 64,
                launches: 1,
                streams: 2,
                salt: 7,
            };
            let mut gpu = Gpu::new(req.device.clone(), Default::default());
            assert_eq!(
                drive(&mut gpu, &req, None).unwrap(),
                Drive::Completed,
                "{kernel}"
            );
            let report = gpu.synchronize();
            assert!(report.cycles > 0.0, "{kernel} produced no work");
        }
    }

    /// The consolidated storm's whole point: the same request shape with
    /// consolidation enabled in the device config is a *different* request
    /// (distinct device sig and content key, so its own worker `Gpu` and
    /// cache entry) whose modeled timeline and device-launch total shrink,
    /// while with it off the entry degrades to a plain launch storm.
    #[test]
    fn consolidated_storm_honours_the_device_config() {
        use npar_sim::ConsolidateMode;
        let mk = |mode| {
            let mut req = Request::new("dp-consolidated");
            req.device = DeviceConfig::tiny();
            req.device.consolidate = mode;
            req.dataset = Dataset {
                n: 256,
                grid: 2,
                block: 64,
                launches: 2,
                streams: 1,
                salt: 3,
            };
            req
        };
        let off = mk(ConsolidateMode::Off);
        let auto = mk(ConsolidateMode::Auto);
        assert_ne!(device_sig(&off.device), device_sig(&auto.device));
        assert_ne!(request_key(&off), request_key(&auto));
        let run = |req: &Request| {
            let mut gpu = Gpu::new(req.device.clone(), Default::default());
            assert_eq!(drive(&mut gpu, req, None).unwrap(), Drive::Completed);
            gpu.synchronize()
        };
        let r_off = run(&off);
        let r_auto = run(&auto);
        assert_eq!(
            r_off.sim.consolidated_grids + r_off.sim.inlined_grids,
            0,
            "pass ran with consolidation off"
        );
        assert!(
            r_auto.sim.consolidated_grids > 0 && r_auto.sim.inlined_grids > 0,
            "storm must feed both rewrites (merged {}, inlined {})",
            r_auto.sim.consolidated_grids,
            r_auto.sim.inlined_grids
        );
        assert!(
            r_auto.device_launches < r_off.device_launches,
            "consolidation did not shrink the launch total \
             ({} -> {})",
            r_off.device_launches,
            r_auto.device_launches
        );
        assert!(
            r_auto.cycles < r_off.cycles,
            "consolidation did not shorten the timeline ({} -> {})",
            r_off.cycles,
            r_auto.cycles
        );
    }

    #[test]
    fn deadline_in_the_past_stops_between_launches() {
        let mut req = Request::new("regular-wave");
        req.device = DeviceConfig::tiny();
        req.dataset.grid = 2;
        req.dataset.block = 64;
        let mut gpu = Gpu::new(req.device.clone(), Default::default());
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            drive(&mut gpu, &req, Some(past)).unwrap(),
            Drive::DeadlineHit
        );
        // The partial batch flushes cleanly.
        let _ = gpu.synchronize();
    }
}
