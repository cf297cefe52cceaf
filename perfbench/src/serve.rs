//! `serve-open`: npar-serve in the same process, driven open loop.
//!
//! Set-up: a cold service serves every key the measured phase will repeat
//! (the prefill), `join` spills the cache to disk, and `setup_s` is the
//! median of warm `Service::start`s from that spill. The measured phase is
//! eight rounds; in each, one generator thread sends requests at the fixed
//! `low` and then `high` rate, timing each from its due time to its
//! response, then keeps the shard queues non-empty for a while to measure
//! `max_rps`. Before each round and after the last, while the service is
//! idle, a catalog round times direct simulations of every catalog kernel
//! (`sweep_s`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use npar_serve::workload::{self, Request, KERNELS};
use npar_serve::{Response, ServeConfig, ServeStats, Service, Source, SubmitError, Ticket};
use npar_sim::{ConsolidateMode, CostModel, Gpu, Report, SimStats};

use crate::report::{set_sim_layers, Outcome};
use crate::rng::Rng;
use crate::stats::{
    beyond, calibrate_ms, host_line, median, nproc, peak_rss_mb, percentile, process_cpu_s,
};
use crate::trace::{self, Span};

/// Warm boots per run; `setup_s` is their median.
const BOOTS: usize = 3;
/// Novel requests per kernel in one deck of the mix. With the shapes of
/// [`request`], `dp-consolidated` costs 8-10 ms of simulation and the
/// others 0.25-3 ms: it takes about a third of the fresh service time, and
/// at 1 in 25 requests it is where p99 falls, inside one class of requests
/// rather than in rare queueing coincidences.
const DECK: [(&str, usize); 6] = [
    ("regular-wave", 4),
    ("divergent", 4),
    ("dp-storm", 4),
    ("dp-consolidated", 1),
    ("stream-storm", 4),
    ("monte-carlo", 4),
];
/// Per deck: repeats of prefilled keys (answered from the result cache).
const REPEATS: usize = 2;
/// Per deck: copies of a just-sent request, sent right after it (deduped
/// onto the in-flight job).
const TWINS: usize = 2;
/// How many times the measured phase asks for each prefilled key, on
/// average: the prefill pool is sized from the repeat traffic by this.
const ASKS_PER_KEY: usize = 3;
/// Requests kept outstanding in the saturation phase.
const WINDOW: usize = 16;
/// Rounds the measured phase is split into. `max_rps` is the best round's
/// saturation slice: within one run slices read up to 30% apart, so the best
/// of more, shorter slices varies less from run to run than the best of few.
const ROUNDS: usize = 8;
/// Direct simulations per catalog kernel in one catalog round.
const CATALOG_SAMPLES: usize = 15;
/// Catalog rounds: one before each measured round and one after the last,
/// so they sample the host over the whole run.
const CATALOG_ROUNDS: usize = ROUNDS + 1;
/// How long a phase waits for stragglers after its last request is due.
const DRAIN: Duration = Duration::from_secs(5);

/// The fixed rates and latency limit, given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Requests per second of the low-rate phase.
    pub low_rps: f64,
    /// Requests per second of the high-rate phase.
    pub high_rps: f64,
    /// The p99 latency limit, ms.
    pub limit_ms: f64,
}

/// A catalog request with its shape for this benchmark. Kernels keep the
/// catalog's default dataset except two: `stream-storm` widens to 4 streams
/// x 4 launches, so it costs about as much as the other light kernels, and
/// `dp-consolidated` (consolidation `auto`) narrows to 8 blocks, 2048 device
/// launches per request. At its default 16 blocks its queueing would set
/// even the median latency.
fn request(kernel: &str, salt: u64) -> Request {
    let mut req = Request::new(kernel);
    match kernel {
        "dp-consolidated" => {
            req.device.consolidate = ConsolidateMode::Auto;
            req.dataset.grid = 8;
        }
        "stream-storm" => {
            req.dataset.streams = 4;
            req.dataset.launches = 4;
        }
        _ => {}
    }
    req.dataset.salt = salt;
    req
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Novel,
    Repeat,
    Twin,
}

#[derive(Debug, Clone)]
struct Item {
    req: Request,
    key: u64,
    /// Seconds after the phase start the request is due.
    due_s: f64,
    kind: Kind,
}

/// One round of the measured phase: a slice of each rate phase and of the
/// saturation phase. Rounds interleave the phases over the whole run, so a
/// slow spell of the host touches every metric a little rather than one
/// metric a lot.
#[derive(Debug, Clone)]
struct Round {
    low: Vec<Item>,
    high: Vec<Item>,
    saturate: Vec<Item>,
}

/// The generated traffic of one run.
#[derive(Debug, Clone)]
pub struct Traffic {
    rounds: Vec<Round>,
    /// Every key the measured phase repeats, in first-use order.
    prefill: Vec<Request>,
    /// Length of one round's saturation slice, seconds.
    saturate_s: f64,
}

impl Traffic {
    /// Generate the traffic of a run of `seconds` from `seed`. The low-rate,
    /// high-rate and saturation phases take 45%, 30% and 15% of the time.
    pub fn new(seed: u64, seconds: f64, rates: Rates) -> Traffic {
        let mut salts = Rng::stream(seed, "serve-salts");
        let mut rng = Rng::stream(seed, "serve-mix");
        let per_round = seconds / ROUNDS as f64;
        let count = |rate: f64, s: f64| (rate * s).ceil().max(1.0) as usize;
        let saturate_s = per_round * 0.15;
        // The saturation slice sends as fast as it is answered; its list is
        // sized for a service three times faster than the high rate.
        let sat_rps = rates.high_rps * 3.0;
        let counts = [
            (count(rates.low_rps, per_round * 0.45), rates.low_rps),
            (count(rates.high_rps, per_round * 0.30), rates.high_rps),
            (count(sat_rps, saturate_s), sat_rps),
        ];
        // The saturation slices repeat only keys the rate phases repeat, so
        // the prefill is sized by traffic that is certainly sent.
        let repeats: usize = ROUNDS
            * counts[..2]
                .iter()
                .map(|&(n, _)| n.div_ceil(deck_len()) * REPEATS)
                .sum::<usize>();
        let pool: Vec<Request> = (0..(repeats / ASKS_PER_KEY).max(1))
            .map(|i| request(DECK[i % DECK.len()].0, salts.next_u64()))
            .collect();
        let mut used = vec![false; pool.len()];
        let mut prefill: Vec<Request> = Vec::new();
        let mut phase = |(n, rate): (usize, f64), reuse: bool| {
            let mut items = Vec::with_capacity(n);
            while items.len() < n {
                let mut deck: Vec<Item> = Vec::new();
                for (kernel, k) in DECK {
                    for _ in 0..k {
                        deck.push(item(request(kernel, salts.next_u64()), Kind::Novel));
                    }
                }
                for _ in 0..REPEATS {
                    let req = if reuse {
                        prefill[rng.below(prefill.len() as u64) as usize].clone()
                    } else {
                        let p = rng.below(pool.len() as u64) as usize;
                        if !used[p] {
                            used[p] = true;
                            prefill.push(pool[p].clone());
                        }
                        pool[p].clone()
                    };
                    deck.push(item(req, Kind::Repeat));
                }
                rng.shuffle(&mut deck);
                for _ in 0..TWINS {
                    let at = loop {
                        let at = rng.below(deck.len() as u64) as usize;
                        if deck[at].kind == Kind::Novel {
                            break at;
                        }
                    };
                    let twin = Item {
                        kind: Kind::Twin,
                        ..deck[at].clone()
                    };
                    deck.insert(at + 1, twin);
                }
                items.extend(deck);
            }
            items.truncate(n);
            // Slot i is due at i / rate; a twin shares its original's slot.
            for i in 0..items.len() {
                items[i].due_s = if items[i].kind == Kind::Twin && i > 0 {
                    items[i - 1].due_s
                } else {
                    i as f64 / rate
                };
            }
            items
        };
        let rated: Vec<(Vec<Item>, Vec<Item>)> = (0..ROUNDS)
            .map(|_| (phase(counts[0], false), phase(counts[1], false)))
            .collect();
        let rounds = rated
            .into_iter()
            .map(|(low, high)| Round {
                low,
                high,
                saturate: phase(counts[2], true),
            })
            .collect();
        Traffic {
            rounds,
            prefill,
            saturate_s,
        }
    }

    /// Keys of every request, prefill first, then round by round.
    pub fn keys(&self) -> Vec<u64> {
        self.prefill
            .iter()
            .map(workload::request_key)
            .chain(self.rounds.iter().flat_map(|r| {
                [&r.low, &r.high, &r.saturate]
                    .into_iter()
                    .flat_map(|p| p.iter().map(|i| i.key))
            }))
            .collect()
    }
}

fn deck_len() -> usize {
    DECK.iter().map(|d| d.1).sum::<usize>() + REPEATS + TWINS
}

fn item(req: Request, kind: Kind) -> Item {
    Item {
        key: workload::request_key(&req),
        req,
        due_s: 0.0,
        kind,
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
struct Answer {
    /// Seconds from due (or submit, in the closed loop) to response; `None`
    /// for a refusal, timeout, failure or no answer.
    latency_s: Option<f64>,
    report: Option<Arc<Report>>,
    key: u64,
    error: Option<String>,
}

struct Waited {
    idx: usize,
    response: Response,
    at: Instant,
}

/// One waiter thread per shard answers tickets in submission order: a
/// shard's queue is FIFO, so a ticket is never waited on behind one that is
/// answered later. Cache hits are answered inside `submit`, so their
/// response time is the end of the submit call.
struct Waiters {
    queues: Vec<Sender<Pending>>,
    done: Receiver<Waited>,
}

/// A submitted request handed to its shard's waiter thread.
struct Pending {
    idx: usize,
    ticket: Ticket,
    submitted: Instant,
    /// Span id of the phase, and the request id, for the wait span.
    parent: u64,
    req: u64,
}

impl Waiters {
    fn start(shards: usize) -> Waiters {
        let (done_tx, done) = mpsc::channel::<Waited>();
        let queues = (0..shards)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Pending>();
                let done_tx = done_tx.clone();
                // Detached on purpose: a ticket stranded by a worker panic
                // would block its waiter forever, and the run must still end.
                thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn(move || {
                        for p in rx {
                            let Pending {
                                idx,
                                ticket,
                                submitted,
                                parent,
                                req,
                            } = p;
                            let response = ticket.wait();
                            let at = match &response {
                                Response::Done {
                                    source: Source::Cache,
                                    ..
                                } => submitted,
                                _ => Instant::now(),
                            };
                            trace::record(
                                "npar_serve::Ticket::wait",
                                "",
                                parent,
                                req,
                                submitted,
                                at,
                            );
                            if done_tx.send(Waited { idx, response, at }).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn waiter thread");
                tx
            })
            .collect();
        Waiters { queues, done }
    }
}

/// Measurements of one phase.
#[derive(Debug, Default)]
struct Phase {
    answers: Vec<Answer>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    /// Closed-loop phase: requests answered within its time, per second.
    rps: f64,
}

impl Phase {
    /// Move `other`'s samples into this phase.
    fn absorb(&mut self, other: &mut Phase) {
        self.answers.append(&mut other.answers);
        self.submit_us.append(&mut other.submit_us);
        self.late_ms.append(&mut other.late_ms);
    }
}

fn submit(
    svc: &Service,
    waiters: &Waiters,
    shards: usize,
    idx: usize,
    it: &Item,
    parent: u64,
    req_id: u64,
) -> (Option<String>, f64) {
    let t = Instant::now();
    let result = {
        let _s = trace::span(
            "npar_serve::Service::submit",
            it.req.kernel.as_str(),
            req_id,
        );
        svc.submit(&it.req)
    };
    let submitted = Instant::now();
    let us = (submitted - t).as_secs_f64() * 1e6;
    match result {
        Ok(ticket) => {
            let shard = (ticket.key % shards as u64) as usize;
            let sent = waiters.queues[shard].send(Pending {
                idx,
                ticket,
                submitted,
                parent,
                req: req_id,
            });
            (sent.err().map(|_| "waiter thread gone".to_string()), us)
        }
        Err(SubmitError::Shed) => (Some("shed".into()), us),
        Err(e) => (Some(e.to_string()), us),
    }
}

fn answer(it: &Item, response: Response, latency_s: f64) -> Answer {
    match response {
        Response::Done { report, .. } => Answer {
            latency_s: Some(latency_s),
            report: Some(report),
            key: it.key,
            error: None,
        },
        Response::TimedOut => refused(it, "timed out"),
        Response::Failed(e) => refused(it, &format!("failed: {e}")),
    }
}

fn refused(it: &Item, why: &str) -> Answer {
    Answer {
        latency_s: None,
        report: None,
        key: it.key,
        error: Some(format!("{} request {:016x}: {why}", it.req.kernel, it.key)),
    }
}

/// Send `items` open loop at their due times and collect every answer.
fn open_phase(
    svc: &Service,
    shards: usize,
    items: &[Item],
    name: &'static str,
    req_base: u64,
) -> Phase {
    let waiters = Waiters::start(shards);
    let span = trace::span(name, "", 0);
    let parent = span.id();
    let mut ph = Phase::default();
    let mut errors: BTreeMap<usize, String> = BTreeMap::new();
    let start = Instant::now();
    for (idx, it) in items.iter().enumerate() {
        let due = start + Duration::from_secs_f64(it.due_s);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        ph.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let (err, us) = submit(
            svc,
            &waiters,
            shards,
            idx,
            it,
            parent,
            req_base + idx as u64,
        );
        ph.submit_us.push(us);
        if let Some(e) = err {
            errors.insert(idx, e);
        }
    }
    let deadline = Instant::now() + DRAIN;
    let mut got: BTreeMap<usize, Waited> = BTreeMap::new();
    while got.len() + errors.len() < items.len() {
        match waiters
            .done
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(w) => {
                got.insert(w.idx, w);
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
        }
    }
    drop(span);
    for (idx, it) in items.iter().enumerate() {
        let due = start + Duration::from_secs_f64(it.due_s);
        ph.answers.push(match (got.remove(&idx), errors.get(&idx)) {
            (Some(w), _) => answer(
                it,
                w.response,
                w.at.saturating_duration_since(due).as_secs_f64(),
            ),
            (None, Some(e)) => refused(it, e),
            (None, None) => refused(it, "unanswered when its phase ended"),
        });
    }
    ph
}

/// Keep `WINDOW` requests outstanding for `seconds`, then drain.
fn closed_phase(
    svc: &Service,
    shards: usize,
    items: &[Item],
    seconds: f64,
    name: &'static str,
    req_base: u64,
) -> Phase {
    let waiters = Waiters::start(shards);
    let span = trace::span(name, "", 0);
    let parent = span.id();
    let mut ph = Phase::default();
    let mut errors: BTreeMap<usize, String> = BTreeMap::new();
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut got: BTreeMap<usize, Waited> = BTreeMap::new();
    let start = Instant::now();
    // An unbounded phase (the prefill) sends its whole list.
    let end = (seconds.is_finite()).then(|| start + Duration::from_secs_f64(seconds));
    let open = |now: Instant| end.is_none_or(|e| now < e);
    let mut next = 0;
    let mut outstanding = 0;
    let mut answered_in_time = 0usize;
    loop {
        while outstanding < WINDOW && next < items.len() && open(Instant::now()) {
            sent_at.push(Instant::now());
            let (err, _) = submit(
                svc,
                &waiters,
                shards,
                next,
                &items[next],
                parent,
                req_base + next as u64,
            );
            match err {
                Some(e) => {
                    errors.insert(next, e);
                }
                None => outstanding += 1,
            }
            next += 1;
        }
        if outstanding == 0 {
            break;
        }
        let wait = end.map_or(DRAIN, |e| {
            e.saturating_duration_since(Instant::now()) + DRAIN
        });
        match waiters.done.recv_timeout(wait) {
            Ok(w) => {
                outstanding -= 1;
                if end.is_none_or(|e| w.at <= e) {
                    answered_in_time += 1;
                }
                got.insert(w.idx, w);
            }
            Err(_) => break,
        }
    }
    let now = Instant::now();
    let elapsed = (end.map_or(now, |e| e.min(now)) - start).as_secs_f64();
    ph.rps = answered_in_time as f64 / elapsed;
    drop(span);
    for (idx, it) in items[..next].iter().enumerate() {
        ph.answers.push(match (got.remove(&idx), errors.get(&idx)) {
            (Some(w), _) => answer(
                it,
                w.response,
                w.at.saturating_duration_since(sent_at[idx]).as_secs_f64(),
            ),
            (None, Some(e)) => refused(it, e),
            (None, None) => refused(it, "unanswered when its phase ended"),
        });
    }
    ph
}

/// Direct simulations of every catalog kernel, as a shard runs them: one
/// `Gpu` per device configuration, reused across requests. Every round
/// repeats the same requests on fresh `Gpu`s, so rounds do identical work
/// and the fastest round is the steadiest estimate of its cost.
struct Catalog {
    /// Salts of the requests per kernel, the same every round.
    salts: Vec<Vec<u64>>,
    rounds: Vec<CatalogRound>,
}

/// One catalog round.
struct CatalogRound {
    /// Median `drive` + `synchronize` time per kernel, ms.
    simulate_ms: Vec<f64>,
    stats: SimStats,
    cycles: f64,
    device_launches: u64,
    host_launches: u64,
}

impl Catalog {
    fn new(seed: u64) -> Catalog {
        let mut rng = Rng::stream(seed, "serve-catalog");
        Catalog {
            salts: KERNELS
                .iter()
                .map(|_| (0..CATALOG_SAMPLES).map(|_| rng.next_u64()).collect())
                .collect(),
            rounds: Vec::new(),
        }
    }

    /// One more round of every kernel's requests.
    fn round(&mut self) {
        let _span = trace::span("catalog", "", 0);
        let mut gpus: BTreeMap<String, Gpu> = BTreeMap::new();
        let mut r = CatalogRound {
            simulate_ms: Vec::with_capacity(KERNELS.len()),
            stats: SimStats::default(),
            cycles: 0.0,
            device_launches: 0,
            host_launches: 0,
        };
        for (kernel, salts) in KERNELS.iter().zip(&self.salts) {
            let mut times = Vec::with_capacity(salts.len());
            for &salt in salts {
                let req = request(kernel, salt);
                let gpu = gpus
                    .entry(workload::device_sig(&req.device))
                    .or_insert_with(|| {
                        Gpu::new(req.device.clone(), CostModel::default()).with_threads(1)
                    });
                let t = Instant::now();
                {
                    let _s = trace::span("npar_serve::workload::drive", kernel, 0);
                    workload::drive(gpu, &req, None).expect("catalog request drives");
                }
                let report = {
                    let _s = trace::span("npar_sim::Gpu::synchronize", kernel, 0);
                    gpu.synchronize()
                };
                times.push(t.elapsed().as_secs_f64() * 1e3);
                r.stats.merge(&report.sim);
                r.cycles += report.cycles;
                r.device_launches += report.device_launches;
                r.host_launches += report.host_launches;
            }
            r.simulate_ms.push(median(&times));
        }
        self.rounds.push(r);
    }

    /// Per kernel, its median time in the round where that was lowest, ms.
    fn simulate_ms(&self) -> Vec<f64> {
        (0..KERNELS.len())
            .map(|k| {
                self.rounds
                    .iter()
                    .map(|r| r.simulate_ms[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Sum over kernels of [`Catalog::simulate_ms`], ms.
    fn sweep_ms(&self) -> f64 {
        self.simulate_ms().iter().sum()
    }

    /// Whether every round modeled the same cycles and launches.
    fn model_repeats(&self) -> bool {
        self.rounds
            .windows(2)
            .all(|w| (w[0].cycles, w[0].device_launches) == (w[1].cycles, w[1].device_launches))
    }
}

/// The report a request gets from a direct simulation on a fresh `Gpu`,
/// with the host statistics zeroed as the service zeroes them.
fn direct(req: &Request) -> Result<String, String> {
    let mut gpu = Gpu::new(req.device.clone(), CostModel::default()).with_threads(1);
    workload::drive(&mut gpu, req, None).map_err(|e| e.to_string())?;
    let mut report = gpu.synchronize();
    report.sim = SimStats::default();
    Ok(bytes(&report))
}

fn bytes(report: &Report) -> String {
    serde_json::to_string(report).expect("a report always serializes")
}

/// Where the run keeps its spill: next to the benchmark's own executable,
/// inside the build directory.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let dir = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    dir.join("perfbench-scratch")
        .join(format!("serve-{}-{run}", std::process::id()))
}

/// The `serve-open` workload.
pub struct ServeOpen {
    seed: u64,
    rates: Rates,
    shards: usize,
    traffic: Traffic,
}

/// The service configuration every boot uses.
fn config(shards: usize, dir: &Path, cold: bool) -> ServeConfig {
    ServeConfig {
        shards,
        cache_dir: Some(dir.to_path_buf()),
        cold,
        gpu_threads: 1,
        ..ServeConfig::default()
    }
}

impl ServeOpen {
    /// Generate the run's traffic from `seed`.
    pub fn new(seed: u64, seconds: f64, rates: Rates) -> ServeOpen {
        ServeOpen {
            seed,
            rates,
            shards: nproc().saturating_sub(1).max(1),
            traffic: Traffic::new(seed, seconds, rates),
        }
    }

    /// Run the workload; `traced` also returns the spans and per-layer
    /// metrics.
    pub fn run(&self, traced: bool) -> (Outcome, Vec<Span>) {
        let dir = scratch_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let out = self.run_in(&dir, traced);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn run_in(&self, dir: &Path, traced: bool) -> (Outcome, Vec<Span>) {
        let mut o = Outcome::default();
        let shards = self.shards;
        trace::set_enabled(traced);
        let mut req_id = 0u64;

        // Catalog rounds run while the service is idle, so they time the
        // simulations alone. Traced runs also repeat every round traced,
        // alternating which copy goes first, for the tracing overhead.
        let mut cat = Catalog::new(self.seed);
        let mut cat_traced = Catalog::new(self.seed);
        let mut catalog_round = |r: usize| {
            if traced {
                let first = r.is_multiple_of(2);
                for on in [first, !first] {
                    trace::set_enabled(on);
                    if on {
                        cat_traced.round();
                    } else {
                        cat.round();
                    }
                }
                trace::set_enabled(true);
            } else {
                cat.round();
            }
        };

        // Set-up: cold prefill, spill, then warm boots.
        let svc = {
            let _s = trace::span("npar_serve::Service::start", "cold", 0);
            Service::start(config(shards, dir, true))
        };
        let prefill: Vec<Item> = self
            .traffic
            .prefill
            .iter()
            .map(|r| item(r.clone(), Kind::Novel))
            .collect();
        let pre = closed_phase(&svc, shards, &prefill, f64::INFINITY, "prefill", req_id);
        req_id += prefill.len() as u64;
        {
            let _s = trace::span("npar_serve::Service::join", "cold", 0);
            svc.join();
        }
        let spill_mb = std::fs::metadata(npar_serve::cache::spill_path(dir))
            .map_or(0.0, |m| m.len() as f64 / 1e6);
        let mut boots = Vec::with_capacity(BOOTS);
        let mut svc = None;
        for b in 0..BOOTS {
            let t = Instant::now();
            let s = {
                let _s = trace::span("npar_serve::Service::start", "warm", 0);
                Service::start(config(shards, dir, false))
            };
            boots.push(t.elapsed().as_secs_f64());
            if s.cached_results() != prefill.len() {
                o.fail(format!(
                    "warm boot {b} restored {} of {} results",
                    s.cached_results(),
                    prefill.len()
                ));
            }
            if b + 1 < BOOTS {
                let _s = trace::span("npar_serve::Service::join", "warm", 0);
                s.join();
            } else {
                svc = Some(s);
            }
        }
        let svc = svc.expect("at least one boot");

        // Measured rounds.
        let before = svc.total_stats();
        let (mut low, mut high, mut sat) = (Phase::default(), Phase::default(), Phase::default());
        let mut sat_rps = Vec::with_capacity(ROUNDS);
        let mut calib = Vec::with_capacity(ROUNDS);
        let (mut cpu_s, mut wall_s) = (0.0, 0.0);
        for (r, round) in self.traffic.rounds.iter().enumerate() {
            catalog_round(r);
            calib.push(calibrate_ms());
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            let mut phase = open_phase(&svc, shards, &round.low, "phase.low", req_id);
            req_id += round.low.len() as u64;
            low.absorb(&mut phase);
            let mut phase = open_phase(&svc, shards, &round.high, "phase.high", req_id);
            req_id += round.high.len() as u64;
            high.absorb(&mut phase);
            let mut phase = closed_phase(
                &svc,
                shards,
                &round.saturate,
                self.traffic.saturate_s,
                "phase.saturate",
                req_id,
            );
            req_id += round.saturate.len() as u64;
            sat_rps.push(phase.rps);
            sat.absorb(&mut phase);
            cpu_s += process_cpu_s() - cpu0;
            wall_s += t0.elapsed().as_secs_f64();
        }
        catalog_round(ROUNDS);
        let stats = delta(&svc.total_stats(), &before);
        let unanswered = [&low, &high, &sat]
            .iter()
            .flat_map(|p| &p.answers)
            .any(|a| {
                a.error
                    .as_deref()
                    .is_some_and(|e| e.ends_with("phase ended"))
            });
        if unanswered {
            // A stranded ticket keeps its job in flight, and `join` waits for
            // in-flight jobs: leave the service to process exit.
            std::mem::forget(svc);
        } else {
            let _s = trace::span("npar_serve::Service::join", "measured", 0);
            svc.join();
        }
        trace::set_enabled(false);
        let spans = trace::take();

        // Checks.
        let mut first: BTreeMap<u64, Arc<Report>> = BTreeMap::new();
        let mut first_bytes: BTreeMap<u64, String> = BTreeMap::new();
        for (phase, answers) in [
            ("prefill", &pre),
            ("low", &low),
            ("high", &high),
            ("saturate", &sat),
        ]
        .map(|(n, p)| (n, &p.answers))
        {
            for a in answers {
                o.attempted += 1;
                if let Some(e) = &a.error {
                    o.fail(format!("{phase}: {e}"));
                    continue;
                }
                let report = a.report.as_ref().expect("answered");
                match first.get(&a.key) {
                    None => {
                        first.insert(a.key, Arc::clone(report));
                    }
                    Some(f) if Arc::ptr_eq(f, report) => {}
                    Some(f) => {
                        let want = first_bytes.entry(a.key).or_insert_with(|| bytes(f));
                        if bytes(report) != *want {
                            o.fail(format!(
                                "{phase}: response for key {:016x} differs from its first",
                                a.key
                            ));
                        }
                    }
                }
            }
        }
        let novel = self.traffic.rounds.iter().flat_map(|r| &r.low);
        for kernel in KERNELS {
            let Some(it) = novel
                .clone()
                .find(|i| i.kind == Kind::Novel && i.req.kernel == kernel)
            else {
                continue;
            };
            o.attempted += 1;
            match (direct(&it.req), first.get(&it.key)) {
                (Ok(want), Some(got)) if bytes(got) == want => {}
                (Ok(_), Some(_)) => o.fail(format!(
                    "{kernel}: served report differs from a direct simulation"
                )),
                (Err(e), _) => o.fail(format!("{kernel}: direct simulation failed: {e}")),
                (_, None) => o.fail(format!("{kernel}: no served response to compare")),
            }
        }
        for (c, name) in [(&cat, "untraced"), (&cat_traced, "traced")] {
            o.attempted += c.rounds.len() as u64;
            if !c.model_repeats() {
                o.fail(format!(
                    "{name} catalog pass: modeled statistics differ between rounds"
                ));
            }
        }
        if traced {
            let (a, b) = (&cat.rounds[0], &cat_traced.rounds[0]);
            if (a.cycles, a.device_launches) != (b.cycles, b.device_launches) {
                o.fail("catalog pass: modeled statistics differ traced and untraced");
            }
        }

        // End-to-end metrics.
        let simulate_ms = cat.simulate_ms();
        o.set(
            "setup_s",
            median(&boots),
            format!("median of {BOOTS} warm Service::start from a {spill_mb:.3} MB spill"),
        );
        o.set(
            "sweep_s",
            cat.sweep_ms() / 1e3,
            format!(
                "sum over {} kernels of the median of {CATALOG_SAMPLES} direct simulations, fastest of {CATALOG_ROUNDS} catalog rounds",
                KERNELS.len(),
            ),
        );
        for (rate, ph, rps) in [
            ("low", &low, self.rates.low_rps),
            ("high", &high, self.rates.high_rps),
        ] {
            let ms: Vec<f64> = ph
                .answers
                .iter()
                .map(|a| a.latency_s.map_or(f64::INFINITY, |s| s * 1e3))
                .collect();
            let note = format!(
                "{} requests at {rps} req/s over {ROUNDS} rounds, from due time",
                ms.len()
            );
            o.set(format!("p50_ms_{rate}"), percentile(&ms, 0.5), note.clone());
            o.set(
                format!("p99_ms_{rate}"),
                percentile(&ms, 0.99),
                format!("{note}; {} beyond p99", beyond(&ms, 0.99)),
            );
        }
        // Like the catalog's fastest round: other tenants only take
        // capacity away, so the best round is the steadiest estimate.
        o.set(
            "max_rps",
            sat_rps.iter().copied().fold(0.0, f64::max),
            format!(
                "best of {ROUNDS} rounds of {:.2} s, {WINDOW} outstanding, {} requests",
                self.traffic.saturate_s,
                sat.answers.len()
            ),
        );
        o.set("peak_rss_mb", peak_rss_mb(), "VmHWM at exit");
        let listed = |xs: &mut dyn Iterator<Item = f64>| {
            xs.map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(" ")
        };
        o.lines.push(format!(
            "saturation rounds (req/s): {}",
            listed(&mut sat_rps.iter().copied())
        ));
        o.lines.push(format!(
            "catalog rounds (ms, summed kernel medians): {}",
            listed(&mut cat.rounds.iter().map(|r| r.simulate_ms.iter().sum()))
        ));
        o.lines.push(host_line(&calib));

        // Per-layer metrics.
        let rated: Vec<&Answer> = low.answers.iter().chain(&high.answers).collect();
        let measured = (low.answers.len() + high.answers.len() + sat.answers.len()) as f64;
        let submit_us: Vec<f64> = low
            .submit_us
            .iter()
            .chain(&high.submit_us)
            .copied()
            .collect();
        o.set(
            "serve.submit_us_p50",
            median(&submit_us),
            format!("{} submits", submit_us.len()),
        );
        o.set(
            "serve.cache_hit_frac",
            stats.cache_hit as f64 / measured,
            format!("{} of {measured} requests", stats.cache_hit),
        );
        o.set(
            "serve.dedup_frac",
            stats.deduped as f64 / measured,
            format!("{} of {measured} requests", stats.deduped),
        );
        o.set("serve.shed", stats.shed as f64, "measured phases");
        o.set("serve.timeout", stats.timeout as f64, "measured phases");
        o.set("serve.failed", stats.failed as f64, "measured phases");
        let over = rated
            .iter()
            .filter(|a| a.latency_s.is_none_or(|s| s * 1e3 > self.rates.limit_ms))
            .count();
        o.set(
            "serve.over_limit_frac",
            over as f64 / rated.len().max(1) as f64,
            format!(
                "{over} of {} rated requests over {} ms",
                rated.len(),
                self.rates.limit_ms
            ),
        );
        let late: Vec<f64> = low.late_ms.iter().chain(&high.late_ms).copied().collect();
        o.set(
            "serve.gen_late_ms_max",
            late.iter().copied().fold(0.0, f64::max),
            format!("{} sends", late.len()),
        );
        o.set(
            "serve.boot_s",
            median(&boots),
            format!("median of {BOOTS} warm boots"),
        );
        o.set(
            "serve.spill_mb",
            spill_mb,
            format!("{} prefilled results", prefill.len()),
        );
        for (k, ms) in KERNELS.iter().zip(&simulate_ms) {
            o.set(
                format!("serve.simulate_ms.{k}"),
                *ms,
                format!("median of {CATALOG_SAMPLES} on a reused Gpu, fastest of {CATALOG_ROUNDS} rounds"),
            );
        }
        let first = &cat.rounds[0];
        let s = &first.stats;
        o.set(
            "serve.memo_replay_frac",
            if s.ops_traced == 0 {
                0.0
            } else {
                s.ops_replayed as f64 / s.ops_traced as f64
            },
            format!(
                "{} of {} ops, one catalog round",
                s.ops_replayed, s.ops_traced
            ),
        );
        let timing_s = s.timing_pass_ns as f64 * 1e-9;
        set_sim_layers(
            &mut o,
            s,
            first.host_launches + first.device_launches,
            s.wall_seconds - timing_s,
            timing_s,
            &format!(
                "one catalog round of {} simulations",
                CATALOG_SAMPLES * KERNELS.len()
            ),
        );
        o.set(
            "model.cycles",
            first.cycles,
            "modeled cycles, one catalog round",
        );
        o.set(
            "model.device_launches",
            first.device_launches as f64,
            "one catalog round",
        );
        o.set(
            "par.busy_cores",
            cpu_s / wall_s,
            format!("{cpu_s:.2} CPU s / {wall_s:.2} wall s, measured phases"),
        );
        o.set(
            "host.calib_ms",
            median(&calib),
            format!("median of {} rounds", calib.len()),
        );
        if traced {
            let (a, b) = (cat_traced.sweep_ms(), cat.sweep_ms());
            o.set(
                "trace.overhead_frac",
                a / b - 1.0,
                format!("catalog sweep traced {a:.3} ms vs untraced {b:.3} ms, fastest of {CATALOG_ROUNDS} rounds each"),
            );
        }
        (o, spans)
    }
}

fn delta(now: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        served: now.served - before.served,
        deduped: now.deduped - before.deduped,
        cache_hit: now.cache_hit - before.cache_hit,
        shed: now.shed - before.shed,
        timeout: now.timeout - before.timeout,
        failed: now.failed - before.failed,
    }
}
