//! The three closed-loop batch workloads: `loops-powerlaw`,
//! `recursion-dp` and `strict-check`. One job runs at a time, each on a
//! fresh `Gpu` (cold memo), as the experiment binaries run them.
//!
//! A run is a number of passes over a fixed job list. A job's host time is
//! its fastest pass (see [`Bench::fastest`]), so neither a slow sample nor a
//! slow spell of the host moves the result.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use npar_apps::bfs::{self, RecBfsVariant};
use npar_apps::spmv;
use npar_apps::sssp;
use npar_apps::tree_apps::{self, TreeMetric};
use npar_core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar_graph::{citeseer_like, uniform_random, with_random_weights, Csr};
use npar_sim::{CheckLevel, ConsolidateMode, Gpu, Report, SimStats};
use npar_tree::{Tree, TreeGen};

use crate::report::{set_sim_layers, Outcome, REC_GROUPS};
use crate::rng::Rng;
use crate::stats::{
    beyond, calibrate_ms, host_line, median, nproc, peak_rss_mb, percentile, process_cpu_s,
};
use crate::trace::{self, Span};

/// Fewest passes a run makes, however short its time budget.
const MIN_PASSES: usize = 3;

/// A batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// SSSP and SpMV under all eight loop templates on a power-law graph,
    /// at `nproc` host threads.
    LoopsPowerlaw,
    /// Tree descendants/heights and recursive BFS under the recursive
    /// templates, with and without consolidation, at one host thread.
    RecursionDp,
    /// The `loops-powerlaw` job list under the Strict hazard checker with
    /// scan elision, at one host thread.
    StrictCheck,
}

/// How every `Gpu` of a pass is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PassConfig {
    /// Host worker lanes (`Gpu::with_threads`).
    threads: usize,
    /// Hazard-checker level.
    check: CheckLevel,
    /// Proof-carrying scan elision.
    elide: bool,
    /// Timing-pass lanes (`Gpu::with_timing_threads`).
    timing_threads: usize,
}

impl Batch {
    /// The configuration the workload is measured at.
    fn base(self) -> PassConfig {
        let threads = match self {
            Batch::LoopsPowerlaw => nproc(),
            Batch::RecursionDp | Batch::StrictCheck => 1,
        };
        let check = match self {
            Batch::StrictCheck => CheckLevel::Strict,
            _ => CheckLevel::Off,
        };
        PassConfig {
            threads,
            check,
            elide: true,
            timing_threads: 1,
        }
    }

    fn on_graph(self) -> bool {
        self != Batch::RecursionDp
    }
}

/// Dataset sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Nodes of the CiteSeer-like graph (mean outdegree ~74).
    pub graph_nodes: usize,
    /// Levels of the synthetic tree.
    pub tree_depth: u32,
    /// Children per internal tree node.
    pub tree_outdegree: u32,
    /// Tree irregularity: a node has children with probability 2^-sparsity.
    pub tree_sparsity: u32,
    /// Nodes of the recursive-BFS random graph.
    pub bfs_nodes: usize,
    /// Largest outdegree of the recursive-BFS graph (smallest is 1).
    pub bfs_max_degree: u32,
}

impl Scale {
    /// What the benchmark runs. One pass takes about 0.35 s
    /// (`loops-powerlaw`, 2 cores), 0.3 s (`recursion-dp`) and 0.7 s
    /// (`strict-check`). The sizes are small enough that a memory-bound
    /// neighbour barely moves the jobs: with a 2000-node graph, a 113k-node
    /// tree and a 3000-node BFS graph, a 128 MB random-access loop on the
    /// other core slowed the largest `recursion-dp` and `strict-check` jobs
    /// by 9-40%; at these sizes it moved no sweep by more than 10%.
    pub const FULL: Scale = Scale {
        graph_nodes: 600,
        tree_depth: 4,
        tree_outdegree: 40,
        tree_sparsity: 0,
        bfs_nodes: 2000,
        bfs_max_degree: 64,
    };

    /// A quick size for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        graph_nodes: 200,
        tree_depth: 3,
        tree_outdegree: 8,
        tree_sparsity: 1,
        bfs_nodes: 150,
        bfs_max_degree: 12,
    };
}

/// The generated inputs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Weighted CiteSeer-like graph (loop workloads).
    pub graph: Option<Csr>,
    /// SpMV input vector: small integers, so every summation order gives
    /// the exact same f32 result.
    pub x: Vec<f32>,
    /// SSSP source.
    pub src: usize,
    /// Synthetic tree (`recursion-dp`).
    pub tree: Option<Tree>,
    /// Random graph for recursive BFS (`recursion-dp`).
    pub bfs_graph: Option<Csr>,
    /// BFS source.
    pub bfs_src: usize,
}

/// Host time of one set-up.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    total_s: f64,
    graph_s: f64,
    tree_s: f64,
}

/// Generate the workload's datasets from `seed` and build a `Gpu`.
fn setup(batch: Batch, seed: u64, scale: Scale) -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let _span = trace::span("setup", "", 0);
    let mut times = SetupTimes::default();
    let mut inputs = Inputs {
        graph: None,
        x: Vec::new(),
        src: 0,
        tree: None,
        bfs_graph: None,
        bfs_src: 0,
    };
    if batch.on_graph() {
        let mut rng = Rng::stream(seed, "graph");
        let (shape_seed, weight_seed) = (rng.next_u64(), rng.next_u64());
        let n = scale.graph_nodes;
        let t = Instant::now();
        let g = {
            let _s = trace::span("npar_graph::citeseer_like", "", 0);
            citeseer_like(n, shape_seed)
        };
        let g = {
            let _s = trace::span("npar_graph::with_random_weights", "", 0);
            with_random_weights(&g, 10, weight_seed)
        };
        times.graph_s = t.elapsed().as_secs_f64();
        let mut rng = Rng::stream(seed, "spmv-x");
        inputs.x = (0..n).map(|_| rng.below(8) as f32).collect();
        inputs.src = hub(&g);
        inputs.graph = Some(g);
    } else {
        let t = Instant::now();
        let tree = {
            let _s = trace::span("npar_tree::TreeGen::generate", "", 0);
            TreeGen {
                depth: scale.tree_depth,
                outdegree: scale.tree_outdegree,
                sparsity: scale.tree_sparsity,
                seed: Rng::stream(seed, "tree").next_u64(),
            }
            .generate()
        };
        times.tree_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let g = {
            let _s = trace::span("npar_graph::uniform_random", "", 0);
            uniform_random(
                scale.bfs_nodes,
                1,
                scale.bfs_max_degree,
                Rng::stream(seed, "bfs-graph").next_u64(),
            )
        };
        times.graph_s = t.elapsed().as_secs_f64();
        inputs.bfs_src = hub(&g);
        inputs.tree = Some(tree);
        inputs.bfs_graph = Some(g);
    }
    let gpu = {
        let _s = trace::span("npar_sim::Gpu::new", "", 0);
        make_gpu(batch.base(), ConsolidateMode::Off)
    };
    drop(std::hint::black_box(gpu));
    times.total_s = t0.elapsed().as_secs_f64();
    (inputs, times)
}

/// The traversal source: the node of highest outdegree (lowest id among
/// ties). A random source would make the work of SSSP and BFS, and so every
/// time, depend on which node the seed picked.
fn hub(g: &Csr) -> usize {
    (0..g.num_nodes())
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0)
}

fn make_gpu(cfg: PassConfig, consolidate: ConsolidateMode) -> Gpu {
    Gpu::k20()
        .with_threads(cfg.threads)
        .with_timing_threads(cfg.timing_threads)
        .with_check(cfg.check)
        .with_elide(cfg.elide)
        .with_consolidation(consolidate)
}

/// CPU reference results the GPU outputs are checked against.
#[derive(Debug, Default)]
struct References {
    sssp: Vec<f32>,
    spmv: Vec<f32>,
    descendants: Vec<u64>,
    heights: Vec<u64>,
    bfs: Vec<u32>,
}

fn references(inputs: &Inputs) -> References {
    let mut r = References::default();
    if let Some(g) = &inputs.graph {
        r.sssp = sssp::sssp_cpu(g, inputs.src).0;
        r.spmv = spmv::spmv_cpu(g, &inputs.x).0;
    }
    if let Some(tree) = &inputs.tree {
        r.descendants = tree_apps::tree_cpu_iterative(tree, TreeMetric::Descendants).0;
        r.heights = tree_apps::tree_cpu_iterative(tree, TreeMetric::Heights).0;
    }
    if let Some(g) = &inputs.bfs_graph {
        r.bfs = bfs::bfs_cpu_iterative(g, inputs.bfs_src).0;
    }
    r
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Sssp(LoopTemplate),
    Spmv(LoopTemplate),
    Tree(TreeMetric, RecTemplate),
    Bfs(RecBfsVariant),
}

/// One entry of a workload's job list.
#[derive(Debug, Clone)]
struct Job {
    /// Unique label, e.g. `sssp/dpar-naive.auto`.
    label: String,
    /// The per-layer group it sums into: a loop-template label or one of
    /// [`REC_GROUPS`].
    group: String,
    kind: Kind,
    consolidate: ConsolidateMode,
}

impl Job {
    fn new(label: String, group: String, kind: Kind, auto: bool) -> Job {
        let (label, group, consolidate) = if auto {
            (
                format!("{label}.auto"),
                format!("{group}.auto"),
                ConsolidateMode::Auto,
            )
        } else {
            (label, group, ConsolidateMode::Off)
        };
        Job {
            label,
            group,
            kind,
            consolidate,
        }
    }

    /// The label of the same job with consolidation off.
    fn off_twin(&self) -> Option<&str> {
        self.label.strip_suffix(".auto")
    }
}

/// The fixed job list of `batch`.
fn jobs(batch: Batch) -> Vec<Job> {
    let mut jobs = Vec::new();
    if batch.on_graph() {
        for t in LoopTemplate::ALL {
            let g = t.label().to_string();
            jobs.push(Job::new(
                format!("sssp/{t}"),
                g.clone(),
                Kind::Sssp(t),
                false,
            ));
            jobs.push(Job::new(format!("spmv/{t}"), g, Kind::Spmv(t), false));
        }
        let t = LoopTemplate::DparNaive;
        for kind in [Kind::Sssp(t), Kind::Spmv(t)] {
            let app = if matches!(kind, Kind::Sssp(_)) {
                "sssp"
            } else {
                "spmv"
            };
            jobs.push(Job::new(format!("{app}/{t}"), t.label().into(), kind, true));
        }
    } else {
        for metric in [TreeMetric::Descendants, TreeMetric::Heights] {
            for (t, group) in RecTemplate::ALL.into_iter().zip(&REC_GROUPS[..3]) {
                let label = format!("{}/{t}", metric.label());
                let kind = Kind::Tree(metric, t);
                jobs.push(Job::new(label.clone(), (*group).into(), kind, false));
                if t != RecTemplate::Flat {
                    jobs.push(Job::new(label, (*group).into(), kind, true));
                }
            }
        }
        for (v, group) in [RecBfsVariant::Naive, RecBfsVariant::Hier]
            .into_iter()
            .zip(&REC_GROUPS[3..5])
        {
            for auto in [false, true] {
                let label = format!("bfs/{}", &group[4..]);
                jobs.push(Job::new(label, (*group).into(), Kind::Bfs(v), auto));
            }
        }
    }
    jobs
}

/// One execution of one job.
#[derive(Debug, Clone)]
struct Sample {
    /// Host wall time of `Gpu::new` plus the app call, seconds.
    wall_s: f64,
    /// Simulator statistics of the run (zero when it failed).
    sim: SimStats,
    /// The report's modeled part, serialized with `sim` zeroed.
    model: String,
    /// Modeled cycles, device launches and hazards.
    cycles: f64,
    /// Device-side launches (after consolidation).
    device_launches: u64,
    /// Host-side launches.
    host_launches: u64,
    /// Hazards the checker reported.
    hazards: u64,
    /// Why the job failed, if it did.
    error: Option<String>,
}

enum Output {
    Dist(Vec<f32>),
    Y(Vec<f32>),
    Values(TreeMetric, Vec<u64>),
    Levels(Vec<u32>),
}

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.is_infinite() && y.is_infinite()) || (x - y).abs() <= tol)
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// A workload with its inputs generated and its references computed.
pub struct Bench {
    batch: Batch,
    seed: u64,
    scale: Scale,
    inputs: Inputs,
    refs: References,
    jobs: Vec<Job>,
    /// Every timed set-up of the run: one before the first pass and one
    /// before each pass, so set-up samples spread over the whole run.
    setups: RefCell<Vec<SetupTimes>>,
}

impl Bench {
    /// Set up once (`traced` records the spans) and compute the CPU
    /// references, which stay outside every timed set-up.
    pub fn new(batch: Batch, seed: u64, scale: Scale, traced: bool) -> Bench {
        trace::set_enabled(traced);
        let (inputs, times) = setup(batch, seed, scale);
        trace::set_enabled(false);
        let refs = references(&inputs);
        Bench {
            batch,
            seed,
            scale,
            inputs,
            refs,
            jobs: jobs(batch),
            setups: RefCell::new(vec![times]),
        }
    }

    /// The generated inputs.
    pub fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn run_job(&self, job: &Job, cfg: PassConfig) -> Sample {
        let inputs = &self.inputs;
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let _job = trace::span("job", &job.label, 0);
            let mut gpu = {
                let _s = trace::span("npar_sim::Gpu::new", &job.label, 0);
                make_gpu(cfg, job.consolidate)
            };
            let graph = || inputs.graph.as_ref().expect("loop workloads have a graph");
            match job.kind {
                Kind::Sssp(t) => {
                    let _s = trace::span("npar_apps::sssp_gpu", &job.label, 0);
                    let r =
                        sssp::sssp_gpu(&mut gpu, graph(), inputs.src, t, &LoopParams::default());
                    (Output::Dist(r.dist), r.report)
                }
                Kind::Spmv(t) => {
                    let _s = trace::span("npar_apps::spmv_gpu", &job.label, 0);
                    let r = spmv::spmv_gpu(&mut gpu, graph(), &inputs.x, t, &LoopParams::default());
                    (Output::Y(r.y), r.report)
                }
                Kind::Tree(metric, t) => {
                    let _s = trace::span("npar_apps::tree_gpu", &job.label, 0);
                    let tree = inputs.tree.as_ref().expect("recursion workload has a tree");
                    let r = tree_apps::tree_gpu(&mut gpu, tree, metric, t, &RecParams::default());
                    (Output::Values(metric, r.values), r.report)
                }
                Kind::Bfs(v) => {
                    let _s = trace::span("npar_apps::bfs_recursive_gpu", &job.label, 0);
                    let g = inputs
                        .bfs_graph
                        .as_ref()
                        .expect("recursion workload has a BFS graph");
                    let r = bfs::bfs_recursive_gpu(&mut gpu, g, inputs.bfs_src, v, 1);
                    (Output::Levels(r.level), r.report)
                }
            }
        }));
        let wall_s = t.elapsed().as_secs_f64();
        let (output, report) = match run {
            Ok(done) => done,
            Err(p) => {
                return Sample {
                    wall_s,
                    sim: SimStats::default(),
                    model: String::new(),
                    cycles: 0.0,
                    device_launches: 0,
                    host_launches: 0,
                    hazards: 0,
                    error: Some(format!("{} panicked: {}", job.label, panic_text(&*p))),
                }
            }
        };
        let r = &self.refs;
        let output_ok = match &output {
            Output::Dist(d) => close(d, &r.sssp, 1e-3),
            Output::Y(y) => close(y, &r.spmv, 1e-3),
            Output::Values(TreeMetric::Descendants, v) => *v == r.descendants,
            Output::Values(TreeMetric::Heights, v) => *v == r.heights,
            Output::Levels(l) => *l == r.bfs,
        };
        let error = if !output_ok {
            Some(format!(
                "{}: output differs from the CPU reference",
                job.label
            ))
        } else if report.hazards > 0 {
            Some(format!("{}: {} hazards", job.label, report.hazards))
        } else {
            None
        };
        let sim = report.sim.clone();
        let model = Report {
            sim: SimStats::default(),
            ..report.clone()
        };
        Sample {
            wall_s,
            sim,
            model: serde_json::to_string(&model).expect("a report always serializes"),
            cycles: report.cycles,
            device_launches: report.device_launches,
            host_launches: report.host_launches,
            hazards: report.hazards,
            error,
        }
    }

    /// One pass over the job list under `cfg`, after a timed set-up whose
    /// datasets are discarded (they equal the kept ones).
    fn pass(&self, cfg: PassConfig, traced: bool) -> Pass {
        let calib_ms = calibrate_ms();
        trace::set_enabled(traced);
        let (_, times) = setup(self.batch, self.seed, self.scale);
        self.setups.borrow_mut().push(times);
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let samples = {
            let _p = trace::span("pass", &format!("{cfg:?}"), 0);
            self.jobs.iter().map(|j| self.run_job(j, cfg)).collect()
        };
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        trace::set_enabled(false);
        Pass {
            samples,
            calib_ms,
            wall_s,
            cpu_s,
        }
    }

    /// Passes under the base configuration until `seconds` are used (at
    /// least `MIN_PASSES`), alternating traced and untraced passes when
    /// `alternate_trace` is set.
    fn passes(&self, seconds: f64, alternate_trace: bool) -> Vec<(bool, Pass)> {
        let cfg = self.batch.base();
        let t = Instant::now();
        let mut out: Vec<(bool, Pass)> = Vec::new();
        loop {
            let used = t.elapsed().as_secs_f64();
            let n = out.len();
            if n >= MIN_PASSES && used + used / n as f64 > seconds {
                break;
            }
            let traced = alternate_trace && n % 2 == 1;
            out.push((traced, self.pass(cfg, traced)));
        }
        out
    }

    /// Count every failed sample, and every sample whose modeled report
    /// differs from the first pass's, into `o`.
    fn check(&self, passes: &[&Pass], o: &mut Outcome) {
        let first = passes[0];
        for p in passes {
            for (j, s) in p.samples.iter().enumerate() {
                o.attempted += 1;
                if let Some(e) = &s.error {
                    o.fail(e);
                } else if s.model != first.samples[j].model {
                    o.fail(format!(
                        "{}: modeled statistics differ between passes",
                        self.jobs[j].label
                    ));
                }
            }
        }
    }

    /// Per-job minimum of `f` over `passes`: the job's fastest pass. The
    /// work of a job is the same in every pass, and contention from other
    /// tenants of the host only adds time, so the fastest pass is the
    /// steadiest estimate of its cost. On the 2-core host this was written
    /// on, six runs of one input gave sweeps of 0.67-0.72 s from fastest
    /// passes and 0.77-1.17 s from median passes.
    fn fastest(&self, passes: &[&Pass], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        (0..self.jobs.len())
            .map(|j| {
                passes
                    .iter()
                    .map(|p| f(&p.samples[j]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// The untraced run: every end-to-end metric.
    pub fn measure(&self, seconds: f64) -> Outcome {
        let runs = self.passes(seconds, false);
        let passes: Vec<&Pass> = runs.iter().map(|(_, p)| p).collect();
        let mut o = Outcome::default();
        self.check(&passes, &mut o);
        let totals: Vec<f64> = self.setups.borrow().iter().map(|s| s.total_s).collect();
        o.set(
            "setup_s",
            median(&totals),
            format!("median of {} set-ups (datasets + Gpu::new)", totals.len()),
        );
        let best = self.fastest(&passes, |s| s.wall_s);
        for (job, t) in self.jobs.iter().zip(&best) {
            o.lines.push(format!(
                "job {:<32} fastest {:>10.3} ms",
                job.label,
                t * 1e3
            ));
        }
        let sweep: f64 = best.iter().sum();
        let n = format!(
            "{} jobs, fastest of {} passes each",
            self.jobs.len(),
            passes.len()
        );
        o.set("sweep_s", sweep, format!("sum over {n}"));
        let ms: Vec<f64> = best.iter().map(|t| t * 1e3).collect();
        let note = format!("over {n}; closed loop, no queue: low = high");
        let (p50, p99) = (percentile(&ms, 0.5), percentile(&ms, 0.99));
        for rate in ["low", "high"] {
            o.set(format!("p50_ms_{rate}"), p50, note.clone());
            o.set(
                format!("p99_ms_{rate}"),
                p99,
                format!("{note}; {} beyond p99", beyond(&ms, 0.99)),
            );
        }
        o.set(
            "max_rps",
            best.len() as f64 / sweep,
            "jobs per second of sweep_s",
        );
        o.set("peak_rss_mb", peak_rss_mb(), "VmHWM at exit");
        let calib: Vec<f64> = passes.iter().map(|p| p.calib_ms).collect();
        o.lines.push(host_line(&calib));
        o
    }

    /// The traced run: every per-layer metric, the ablations, and the spans.
    pub fn measure_layers(&self, seconds: f64) -> (Outcome, Vec<Span>) {
        let base_cfg = self.batch.base();
        let runs = self.passes(seconds / 2.0, true);
        let base: Vec<&Pass> = runs.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
        let traced: Vec<&Pass> = runs.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
        let mut o = Outcome::default();
        let all: Vec<&Pass> = runs.iter().map(|(_, p)| p).collect();
        let spans = trace::take();

        let best = self.fastest(&base, |s| s.wall_s);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let sum_where = |pred: &dyn Fn(&Job) -> bool| -> f64 {
            self.jobs
                .iter()
                .zip(&best)
                .filter(|(j, _)| pred(j))
                .map(|(_, m)| m)
                .sum()
        };
        let n_base = format!("{} untraced passes", base.len());

        let graph: Vec<f64> = self.setups.borrow().iter().map(|s| s.graph_s).collect();
        let tree: Vec<f64> = self.setups.borrow().iter().map(|s| s.tree_s).collect();
        o.set(
            "graph.generate_s",
            median(&graph),
            format!("median of {} set-ups", graph.len()),
        );
        if self.inputs.tree.is_some() {
            o.set(
                "tree.generate_s",
                median(&tree),
                format!("median of {} set-ups", tree.len()),
            );
        }
        if self.batch.on_graph() {
            for t in LoopTemplate::ALL {
                let v = sum_where(&|j| j.group == t.label());
                o.set(
                    format!("loops.{}_s", t.label()),
                    v,
                    format!("SSSP + SpMV fastest job times, {n_base}"),
                );
            }
        } else {
            for g in REC_GROUPS {
                let v = sum_where(&|j| j.group == g);
                o.set(
                    format!("rec.{g}_s"),
                    v,
                    format!("fastest job times, {n_base}"),
                );
            }
        }

        let first = &base[0].samples;
        let total = |f: &dyn Fn(&Sample) -> u64| first.iter().map(f).sum::<u64>();
        let mut stats = SimStats::default();
        for sample in first {
            stats.merge(&sample.sim);
        }
        set_sim_layers(
            &mut o,
            &stats,
            total(&|s| s.host_launches + s.device_launches),
            sum(&self.fastest(&base, |s| {
                s.sim.wall_seconds - s.sim.timing_pass_ns as f64 * 1e-9
            })),
            sum(&self.fastest(&base, |s| s.sim.timing_pass_ns as f64 * 1e-9)),
            &format!("sum of per-job fastest, {n_base}"),
        );
        let (mut off, mut auto) = (0.0, 0.0);
        for (j, job) in self.jobs.iter().enumerate() {
            if let Some(twin) = job.off_twin() {
                let t = self
                    .jobs
                    .iter()
                    .position(|k| k.label == twin)
                    .expect("off twin");
                off += best[t];
                auto += best[j];
            }
        }
        o.set(
            "consolidate.auto_gain",
            off / auto,
            format!("DP jobs off {off:.4} s / auto {auto:.4} s"),
        );
        o.set(
            "check.elided_blocks",
            total(&|s| s.sim.elided) as f64,
            "one pass",
        );
        o.set("check.hazards", total(&|s| s.hazards) as f64, "one pass");
        let cpu: f64 = base.iter().map(|p| p.cpu_s).sum();
        let wall: f64 = base.iter().map(|p| p.wall_s).sum();
        o.set(
            "par.busy_cores",
            cpu / wall,
            format!("{cpu:.2} CPU s / {wall:.2} wall s"),
        );
        o.set(
            "model.cycles",
            first.iter().map(|s| s.cycles).sum(),
            "modeled cycles, one pass",
        );
        o.set(
            "model.device_launches",
            total(&|s| s.device_launches) as f64,
            "one pass",
        );
        let calib: Vec<f64> = all.iter().map(|p| p.calib_ms).collect();
        o.set(
            "host.calib_ms",
            median(&calib),
            format!("median of {} passes", calib.len()),
        );
        let traced_sum = sum(&self.fastest(&traced, |s| s.wall_s));
        o.set(
            "trace.overhead_frac",
            traced_sum / sum(&best) - 1.0,
            format!(
                "fastest job times traced {traced_sum:.4} s ({} passes) vs untraced {:.4} s ({})",
                traced.len(),
                sum(&best),
                base.len()
            ),
        );

        // Ablations: each variant pass runs right after a base pass, and the
        // two passes' job times compare directly.
        let mut ablations: Vec<Pass> = Vec::new();
        let ablate = |cfg: PassConfig| -> (Pass, Pass) {
            (self.pass(base_cfg, false), self.pass(cfg, false))
        };
        let cores = nproc();
        if cores > 1 {
            let (b, p) = ablate(PassConfig {
                threads: if base_cfg.threads == 1 { cores } else { 1 },
                ..base_cfg
            });
            let (one, many) = if base_cfg.threads == 1 {
                (b.wall_s_jobs(), p.wall_s_jobs())
            } else {
                (p.wall_s_jobs(), b.wall_s_jobs())
            };
            o.set(
                "par.gain",
                one / many,
                format!("1 host thread {one:.4} s / {cores} threads {many:.4} s, one pass each"),
            );
            ablations.extend([b, p]);
            let (b, p) = ablate(PassConfig {
                timing_threads: cores,
                ..base_cfg
            });
            let (one, many) = (b.timing_s(), p.timing_s());
            o.set(
                "sched.tpar_gain",
                one / many,
                format!("timing pass 1 lane {one:.4} s / {cores} lanes {many:.4} s, one pass each"),
            );
            ablations.extend([b, p]);
        } else {
            o.set("par.gain", 1.0, "single core: no ablation");
            o.set("sched.tpar_gain", 1.0, "single core: no ablation");
        }
        if base_cfg.check == CheckLevel::Strict {
            let (b, p) = ablate(PassConfig {
                check: CheckLevel::Off,
                ..base_cfg
            });
            let (strict, unchecked) = (b.wall_s_jobs(), p.wall_s_jobs());
            o.set(
                "check.scan_s",
                strict - unchecked,
                format!("Strict {strict:.4} s - Off {unchecked:.4} s, one pass each"),
            );
            ablations.extend([b, p]);
            let (b, p) = ablate(PassConfig {
                elide: false,
                ..base_cfg
            });
            let (on, off) = (b.wall_s_jobs(), p.wall_s_jobs());
            o.set(
                "check.elide_gain",
                off / on,
                format!("elision off {off:.4} s / on {on:.4} s, one pass each"),
            );
            ablations.extend([b, p]);
        }
        let checked: Vec<&Pass> = all.iter().copied().chain(ablations.iter()).collect();
        self.check(&checked, &mut o);
        (o, spans)
    }
}

/// One pass over a job list.
#[derive(Debug)]
struct Pass {
    /// One sample per job, index-aligned with the job list.
    samples: Vec<Sample>,
    /// The host calibration timed before the pass, ms.
    calib_ms: f64,
    /// Wall time of the pass, seconds.
    wall_s: f64,
    /// Process CPU time during the pass, seconds.
    cpu_s: f64,
}

impl Pass {
    /// Sum of the jobs' host times.
    fn wall_s_jobs(&self) -> f64 {
        self.samples.iter().map(|s| s.wall_s).sum()
    }

    /// Sum of the jobs' timing-pass times.
    fn timing_s(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.sim.timing_pass_ns as f64 * 1e-9)
            .sum()
    }
}
