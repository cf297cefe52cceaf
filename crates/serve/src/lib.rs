//! npar-serve: a sharded simulation service over the npar-sim engine.
//!
//! The ROADMAP item-1 refactor: instead of one batch binary, a long-running
//! [`Service`] accepts thousands of concurrent simulation requests (catalog
//! kernel id + full `DeviceConfig` + dataset descriptor — see
//! [`workload::Request`]), shards them across a pool of worker threads each
//! owning its own `Gpu` instances, and serves repeats without simulating:
//!
//! * **In-flight dedupe** — requests are content-addressed
//!   ([`workload::request_key`]); a request identical to one already queued
//!   or running just registers as a waiter and receives the same report.
//! * **Result cache** — completed reports are kept by key and spilled to
//!   disk on shutdown ([`cache`]); a repeat request, before or after a
//!   restart, is answered immediately.
//! * **Warm workers** — each shard keeps one `Gpu` per device signature
//!   ([`workload::device_sig`]) across jobs, so its alignment memo cache
//!   (DESIGN.md §8) warms up in-process.
//!
//! Admission control is a bounded per-shard queue: a full queue sheds the
//! request at submit time ([`SubmitError::Shed`]) instead of letting the
//! backlog grow without bound. Per-job timeouts are cooperative: a job past
//! its deadline when dequeued — or between the launches of its batch — is
//! answered [`Response::TimedOut`] and its partial work discarded.
//!
//! Everything is std-only (threads + `Mutex`/`Condvar` + channels, in the
//! style of `crates/par`); see SERVING.md for the operator view and
//! DESIGN.md §14 for the determinism argument.
//!
//! ```
//! use npar_serve::{Response, ServeConfig, Service, Source, workload::Request};
//!
//! let service = Service::start(ServeConfig {
//!     shards: 1,
//!     ..ServeConfig::default()
//! });
//! let mut req = Request::new("regular-wave");
//! req.device = npar_sim::DeviceConfig::tiny();
//! req.dataset.grid = 2;
//! req.dataset.block = 64;
//! let first = service.submit(&req).unwrap().wait();
//! let second = service.submit(&req).unwrap().wait();
//! let (Response::Done { report: a, .. }, Response::Done { source, report: b }) =
//!     (first, second)
//! else {
//!     panic!("both requests complete");
//! };
//! assert_eq!(source, Source::Cache); // repeat answered from cache
//! assert_eq!(a, b); // …with the identical report
//! service.join();
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use npar_sim::{CostModel, Gpu, Report, SimStats};
use serde::{Deserialize, Serialize};

pub mod cache;
pub mod workload;

pub use workload::{device_sig, request_key, Request};

/// Service configuration. `Default` reads the `NPAR_SHARDS` and
/// `NPAR_SERVE_CACHE` environment variables (see SERVING.md).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (threads), each owning its own `Gpu` instances.
    /// Requests route to shard `key % shards`.
    pub shards: usize,
    /// Bounded queue capacity per shard; a submit to a full queue sheds.
    pub queue_cap: usize,
    /// Cooperative per-job timeout, measured from submission. `None`
    /// disables timeouts.
    pub timeout: Option<Duration>,
    /// Directory for the persistent spill ([`cache`]); `None` disables
    /// persistence.
    pub cache_dir: Option<PathBuf>,
    /// Ignore an existing spill at boot (still spills on `join`).
    pub cold: bool,
    /// Host threads per worker `Gpu` (`Gpu::with_threads`). Kept at 1 by
    /// default: the shards themselves are the parallelism.
    pub gpu_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let shards = std::env::var("NPAR_SHARDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        ServeConfig {
            shards,
            queue_cap: 256,
            timeout: Some(Duration::from_secs(2)),
            cache_dir: std::env::var("NPAR_SERVE_CACHE").ok().map(PathBuf::from),
            cold: false,
            gpu_threads: 1,
        }
    }
}

/// Where a completed response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Source {
    /// Simulated by a worker for this request.
    Fresh,
    /// Answered from the result cache (in-memory or restored from spill).
    Cache,
    /// Coalesced onto an identical in-flight request.
    Dedup,
}

/// Terminal outcome of one submitted request.
#[derive(Debug, Clone)]
pub enum Response {
    /// The simulation's report. Host-observational `Report::sim` stats are
    /// zeroed so the bytes are a pure function of the request — a cache hit
    /// is byte-identical to a cold run (DESIGN.md §14).
    Done {
        /// How the response was produced.
        source: Source,
        /// The (shared) report.
        report: Arc<Report>,
    },
    /// The job passed its deadline before or between launches.
    TimedOut,
    /// The simulation failed (e.g. a Strict hazard or an invalid launch).
    Failed(String),
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard's queue is full (admission control).
    Shed,
    /// The request failed validation ([`workload::validate`]).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Shed => write!(f, "queue full, request shed"),
            SubmitError::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A pending response: hold it and [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    /// The request's content-addressed key.
    pub key: u64,
    rx: Receiver<Response>,
}

impl Ticket {
    /// Block until the response arrives. Every admitted request gets
    /// exactly one response unless its shard's worker panics: worker
    /// panics are not contained, the request then stays registered as in
    /// flight, and this wait never returns. A dropped sender, which no
    /// current path produces, answers [`Response::Failed`].
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .unwrap_or_else(|_| Response::Failed("service worker disconnected".into()))
    }
}

/// Per-shard service counters, surfaced like [`SimStats`]: observational,
/// monotone, and cheap enough to keep always-on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Jobs simulated to completion on this shard.
    pub served: u64,
    /// Requests coalesced onto an identical in-flight job.
    pub deduped: u64,
    /// Requests answered from the result cache.
    pub cache_hit: u64,
    /// Requests refused because the shard queue was full.
    pub shed: u64,
    /// Jobs that passed their deadline and were discarded.
    pub timeout: u64,
    /// Jobs whose simulation returned an error.
    pub failed: u64,
}

impl ServeStats {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &ServeStats) {
        self.served += other.served;
        self.deduped += other.deduped;
        self.cache_hit += other.cache_hit;
        self.shed += other.shed;
        self.timeout += other.timeout;
        self.failed += other.failed;
    }

    /// Requests that received a `Done` response.
    pub fn answered(&self) -> u64 {
        self.served + self.deduped + self.cache_hit
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} | deduped {} | cache_hit {} | shed {} | timeout {} | failed {}",
            self.served, self.deduped, self.cache_hit, self.shed, self.timeout, self.failed
        )
    }
}

/// Lock-free per-shard counters (the submit path must not contend on a
/// stats lock).
#[derive(Default)]
struct ShardCounters {
    served: AtomicU64,
    deduped: AtomicU64,
    cache_hit: AtomicU64,
    shed: AtomicU64,
    timeout: AtomicU64,
    failed: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            cache_hit: self.cache_hit.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeout: self.timeout.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

struct Job {
    key: u64,
    req: Request,
    enqueued: Instant,
}

struct Shard {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

/// The dedupe + result-cache state, under ONE lock so the
/// check-cache/check-inflight/enqueue sequence is atomic: a key is always
/// in exactly one of {results, inflight, absent}. Lock order: `state`
/// before a shard queue; no path takes them in the other order.
struct CacheState {
    results: BTreeMap<u64, Arc<Report>>,
    /// Waiters per in-flight key; the first is the submitter that enqueued
    /// the job (`Source::Fresh`), the rest are deduped followers.
    inflight: BTreeMap<u64, Vec<(Sender<Response>, Source)>>,
}

struct Inner {
    cfg: ServeConfig,
    shards: Vec<Shard>,
    state: Mutex<CacheState>,
    counters: Vec<ShardCounters>,
    stop: AtomicBool,
}

/// The running service: worker threads plus the shared state. See the
/// crate-level docs for the architecture and SERVING.md for operations.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Service {
    /// Boot the service: load the spill (unless `cold` or no `cache_dir`),
    /// then start one worker thread per shard.
    pub fn start(cfg: ServeConfig) -> Service {
        let shards = cfg.shards.max(1);
        let mut results = BTreeMap::new();
        if let (Some(dir), false) = (&cfg.cache_dir, cfg.cold) {
            if let Some(spill) = cache::load(dir) {
                for (key, report) in spill.results {
                    results.insert(key, Arc::new(report));
                }
            }
        }
        let inner = Arc::new(Inner {
            shards: (0..shards)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            state: Mutex::new(CacheState {
                results,
                inflight: BTreeMap::new(),
            }),
            counters: (0..shards).map(|_| ShardCounters::default()).collect(),
            stop: AtomicBool::new(false),
            cfg,
        });
        let workers = (0..shards)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("npar-serve-{idx}"))
                    .spawn(move || worker(&inner, idx))
                    .expect("spawn shard worker")
            })
            .collect();
        Service { inner, workers }
    }

    /// Submit a request. Returns a [`Ticket`] to wait on, or an error if
    /// the request is invalid or the target shard's queue is full.
    pub fn submit(&self, req: &Request) -> Result<Ticket, SubmitError> {
        workload::validate(req).map_err(SubmitError::Invalid)?;
        let key = request_key(req);
        let shard_idx = (key % self.inner.shards.len() as u64) as usize;
        let counters = &self.inner.counters[shard_idx];
        let (tx, rx) = mpsc::channel();

        let mut state = self.inner.state.lock().expect("serve state");
        if let Some(report) = state.results.get(&key) {
            counters.cache_hit.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Response::Done {
                source: Source::Cache,
                report: Arc::clone(report),
            });
            return Ok(Ticket { key, rx });
        }
        if let Some(waiters) = state.inflight.get_mut(&key) {
            counters.deduped.fetch_add(1, Ordering::Relaxed);
            waiters.push((tx, Source::Dedup));
            return Ok(Ticket { key, rx });
        }
        // New key: admit or shed. The shard queue nests under the state
        // lock (documented order), keeping insert-inflight + enqueue atomic.
        let shard = &self.inner.shards[shard_idx];
        let mut queue = shard.queue.lock().expect("shard queue");
        if queue.len() >= self.inner.cfg.queue_cap.max(1) {
            counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Shed);
        }
        state.inflight.insert(key, vec![(tx, Source::Fresh)]);
        queue.push_back(Job {
            key,
            req: req.clone(),
            enqueued: Instant::now(),
        });
        drop(queue);
        shard.cv.notify_one();
        Ok(Ticket { key, rx })
    }

    /// Per-shard counter snapshots, index-aligned with the shards.
    pub fn stats(&self) -> Vec<ServeStats> {
        self.inner
            .counters
            .iter()
            .map(ShardCounters::snapshot)
            .collect()
    }

    /// All shards' counters folded together.
    pub fn total_stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for s in self.stats() {
            total.merge(&s);
        }
        total
    }

    /// Number of results currently in the (in-memory) result cache.
    pub fn cached_results(&self) -> usize {
        self.inner.state.lock().expect("serve state").results.len()
    }

    /// Drain every queued and in-flight job, stop the workers, spill the
    /// result cache (when configured), and return the folded stats.
    pub fn join(mut self) -> ServeStats {
        // Drain: a key leaves `inflight` only when its response is sent.
        loop {
            let idle = {
                let state = self.inner.state.lock().expect("serve state");
                state.inflight.is_empty()
            } && self
                .inner
                .shards
                .iter()
                .all(|s| s.queue.lock().expect("shard queue").is_empty());
            if idle {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        for shard in &self.inner.shards {
            shard.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(dir) = &self.inner.cfg.cache_dir {
            let spill = self.build_spill();
            if let Err(e) = cache::save(dir, &spill) {
                eprintln!(
                    "npar-serve: failed to spill cache to {}: {e}",
                    dir.display()
                );
            }
        }
        self.inner
            .counters
            .iter()
            .fold(ServeStats::default(), |mut total, c| {
                total.merge(&c.snapshot());
                total
            })
    }

    /// Assemble the spill: the whole result cache.
    fn build_spill(&self) -> cache::Spill {
        let state = self.inner.state.lock().expect("serve state");
        cache::Spill {
            results: state
                .results
                .iter()
                .map(|(&key, report)| (key, (**report).clone()))
                .collect(),
        }
    }
}

/// One shard's worker loop: pop jobs, simulate on a per-device-signature
/// `Gpu`, publish results, answer waiters.
fn worker(inner: &Inner, shard_idx: usize) {
    let shard = &inner.shards[shard_idx];
    let counters = &inner.counters[shard_idx];
    let mut gpus: BTreeMap<String, Gpu> = BTreeMap::new();

    loop {
        let job = {
            let mut queue = shard.queue.lock().expect("shard queue");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if inner.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shard.cv.wait(queue).expect("shard queue");
            }
        };
        let Some(job) = job else { break };

        let deadline = inner.cfg.timeout.map(|t| job.enqueued + t);
        if deadline.is_some_and(|dl| Instant::now() > dl) {
            counters.timeout.fetch_add(1, Ordering::Relaxed);
            finish(inner, job.key, &Response::TimedOut, None);
            continue;
        }

        let gpu = gpus.entry(device_sig(&job.req.device)).or_insert_with(|| {
            Gpu::new(job.req.device.clone(), CostModel::default())
                .with_threads(inner.cfg.gpu_threads.max(1))
        });

        match workload::drive(gpu, &job.req, deadline) {
            Ok(workload::Drive::Completed) => {
                let mut report = gpu.synchronize();
                // Host-observational stats are per-process, not per-request
                // content; zero them so responses are a pure function of
                // the request (shard counters carry the service-side view).
                report.sim = SimStats::default();
                counters.served.fetch_add(1, Ordering::Relaxed);
                let report = Arc::new(report);
                finish(
                    inner,
                    job.key,
                    &Response::Done {
                        source: Source::Fresh,
                        report: Arc::clone(&report),
                    },
                    Some(report),
                );
            }
            Ok(workload::Drive::DeadlineHit) => {
                // Flush the partial batch; its report is discarded.
                let _ = gpu.synchronize();
                counters.timeout.fetch_add(1, Ordering::Relaxed);
                finish(inner, job.key, &Response::TimedOut, None);
            }
            Err(e) => {
                let _ = gpu.synchronize();
                counters.failed.fetch_add(1, Ordering::Relaxed);
                finish(inner, job.key, &Response::Failed(e.to_string()), None);
            }
        }
    }
}

/// Publish a job's terminal response: cache it (if `Done`), retire the
/// in-flight entry, and answer every waiter — followers with their own
/// `Dedup` source.
fn finish(inner: &Inner, key: u64, response: &Response, cache_as: Option<Arc<Report>>) {
    let waiters = {
        let mut state = inner.state.lock().expect("serve state");
        if let Some(report) = cache_as {
            state.results.insert(key, report);
        }
        state.inflight.remove(&key).unwrap_or_default()
    };
    for (tx, source) in waiters {
        let resp = match (response, source) {
            (Response::Done { report, .. }, source) => Response::Done {
                source,
                report: Arc::clone(report),
            },
            (other, _) => other.clone(),
        };
        // A dropped ticket is fine; the caller stopped caring.
        let _ = tx.send(resp);
    }
}
