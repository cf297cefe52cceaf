//! # npar-sim — a discrete-event SIMT GPU simulator
//!
//! The execution substrate for the npar reproduction of *"Nested Parallelism
//! on GPU: Exploring Parallelization Templates for Irregular Loops and
//! Recursive Computations"* (Li, Wu, Becchi — ICPP 2015). The paper's
//! evaluation requires an Nvidia K20 with CUDA dynamic parallelism and
//! `nvprof`; this crate provides a software equivalent with the mechanisms
//! the paper measures as first-class citizens:
//!
//! * **SIMT execution** — kernels run thread-by-thread functionally while
//!   recording instruction traces; warps replay the traces in lockstep, so
//!   irregular inner loops produce exactly the divergence (warp execution
//!   efficiency) the paper profiles.
//! * **Memory system** — 128-byte-transaction coalescing (gld/gst
//!   efficiency), shared memory with bank conflicts, and atomics with
//!   intra-warp same-address serialization.
//! * **Device scheduler** — blocks dispatch to SMs under the occupancy
//!   limits, SM issue bandwidth is shared, streams serialize, and child
//!   grids (dynamic parallelism) release after a launch latency; parents
//!   that join their children swap out and pay a restore penalty.
//! * **Profiling** — `nvprof`-style metrics per kernel name, with stall
//!   attribution (where every cycle went: compute, divergence, memory,
//!   atomics, launch overhead, barriers) and an opt-in timeline profiler,
//!   **npar-prof** (see [`prof`]), that records kernel spans, per-SM block
//!   residency and parent→child launch flows, exporting Chrome-trace JSON
//!   for Perfetto.
//! * **Hazard checking** — a `cuda-memcheck`-style sanitizer (see
//!   [`check`]) replays the recorded traces for shared/global data races,
//!   divergent barriers, out-of-bounds shared accesses and misused dynamic
//!   parallelism, gated by [`CheckLevel`] on the device config.
//! * **Static analysis** — **npar-analyze** (see [`analyze`]) distills a
//!   probe block per kernel class into a structural IR, proves barrier/
//!   bounds/race cleanliness where it can (letting the checker elide those
//!   scans, proof-carried), bounds dynamic-parallelism launch shapes, lints
//!   occupancy, and recommends a parallelization template via
//!   [`analyze::KernelAnalysis::advise`].
//!
//! See `DESIGN.md` at the workspace root for the full substitution argument
//! and the cost-model calibration policy.

#![warn(missing_docs)]

pub mod analyze;
mod block;
pub mod check;
pub mod config;
pub mod consolidate;
pub mod cost;
pub mod cpu;
mod ctx;
mod device;
mod engine;
mod error;
mod handle;
mod kernel;
mod memo;
mod memory;
pub mod occupancy;
mod parallel;
pub mod prof;
pub mod profiler;
mod sched;
mod sync;
mod trace;
mod warp;

pub use analyze::{Advice, AnalysisReport, Consolidation, KernelAnalysis, Verdict};
pub use check::{CheckLevel, CheckReport, Hazard, HazardKind};
pub use config::{CpuConfig, DeviceConfig};
pub use consolidate::ConsolidateMode;
pub use cost::{CostModel, CpuCostModel, DivergenceModel};
pub use cpu::CpuCounter;
pub use ctx::{BlockCtx, ThreadCtx};
pub use device::Gpu;
pub use error::SimError;
pub use handle::{GBuf, GlobalAllocator};
pub use kernel::{BlockState, Kernel, KernelRef, LaunchConfig, Stream, ThreadKernel};
pub use prof::{BlockSpan, KernelSpan, LaunchFlow, Profile};
pub use profiler::{KernelMetrics, Report, SimStats, StallCycles};
pub use sync::SyncCell;
