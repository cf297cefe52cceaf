//! Golden Reports of the batch job lists: the modeled output of every job
//! perfbench's `loops-powerlaw`, `strict-check` and `recursion-dp`
//! workloads run, at a small scale, pinned against
//! `tests/golden/launch_reports.txt`.
//!
//! The memo, parallel, profiler and scheduler differentials compare two
//! runs of one build, so a change that moves both sides of a comparison
//! passes them. This corpus compares against bytes written by an earlier
//! build: any change to the launch path's cost model, alignment,
//! consolidation or timing that reaches a Report fails here with the first
//! differing line.
//!
//! Each Report is rendered as pretty JSON without its `sim` field (host
//! wall time and cache counters, which are not model output). The jobs:
//!
//! - the eight loop templates for SSSP and SpMV, plus dpar-naive under
//!   `consolidate: auto`, each under the `Off` and `Strict` checker;
//! - tree descendants and heights under flat, rec-naive and rec-hier, the
//!   recursive ones with consolidation off and `auto`;
//! - recursive BFS naive and hier, with consolidation off and `auto`.

use npar::apps::bfs::{self, RecBfsVariant};
use npar::apps::tree_apps::{self, TreeMetric};
use npar::apps::{spmv, sssp};
use npar::core::{LoopParams, LoopTemplate, RecParams, RecTemplate};
use npar::graph::{citeseer_like, uniform_random, with_random_weights, Csr};
use npar::sim::{CheckLevel, ConsolidateMode, Gpu, Report};
use npar::tree::{Tree, TreeGen};
use serde::{Serialize, Value};

const GOLDEN: &str = include_str!("golden/launch_reports.txt");

/// The node of highest outdegree (lowest id among ties), as perfbench
/// picks its traversal sources.
fn hub(g: &Csr) -> usize {
    (0..g.num_nodes())
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0)
}

fn render(title: &str, report: &Report) -> String {
    assert_eq!(report.hazards, 0, "{title}: the job list is hazard-free");
    let Value::Object(fields) = report.to_value() else {
        panic!("{title}: a report renders as an object");
    };
    let model = Value::Object(fields.into_iter().filter(|(k, _)| k != "sim").collect());
    format!(
        "== {title}\n{}\n",
        serde_json::to_string_pretty(&model).expect("report JSON is infallible")
    )
}

fn gpu(check: CheckLevel, consolidate: ConsolidateMode) -> Gpu {
    Gpu::k20().with_check(check).with_consolidation(consolidate)
}

fn mode_label(consolidate: ConsolidateMode) -> &'static str {
    match consolidate {
        ConsolidateMode::Off => "",
        _ => ".auto",
    }
}

/// The loop job list (`loops-powerlaw`, and `strict-check` under Strict).
fn loop_jobs(out: &mut String, g: &Csr, x: &[f32], check: CheckLevel) {
    let src = hub(g);
    let mut jobs: Vec<(LoopTemplate, ConsolidateMode)> = LoopTemplate::ALL
        .into_iter()
        .map(|t| (t, ConsolidateMode::Off))
        .collect();
    jobs.push((LoopTemplate::DparNaive, ConsolidateMode::Auto));
    for (t, mode) in jobs {
        let suffix = mode_label(mode);
        let r = sssp::sssp_gpu(&mut gpu(check, mode), g, src, t, &LoopParams::default());
        *out += &render(&format!("sssp/{t}{suffix} {check:?}"), &r.report);
        let r = spmv::spmv_gpu(&mut gpu(check, mode), g, x, t, &LoopParams::default());
        *out += &render(&format!("spmv/{t}{suffix} {check:?}"), &r.report);
    }
}

/// The recursive job list (`recursion-dp`).
fn rec_jobs(out: &mut String, tree: &Tree, bfs_graph: &Csr) {
    for metric in [TreeMetric::Descendants, TreeMetric::Heights] {
        for t in RecTemplate::ALL {
            let modes: &[ConsolidateMode] = if t == RecTemplate::Flat {
                &[ConsolidateMode::Off]
            } else {
                &[ConsolidateMode::Off, ConsolidateMode::Auto]
            };
            for &mode in modes {
                let mut g = gpu(CheckLevel::Off, mode);
                let r = tree_apps::tree_gpu(&mut g, tree, metric, t, &RecParams::default());
                let title = format!("{metric:?}/{t}{}", mode_label(mode));
                *out += &render(&title, &r.report);
            }
        }
    }
    let src = hub(bfs_graph);
    for v in [RecBfsVariant::Naive, RecBfsVariant::Hier] {
        for mode in [ConsolidateMode::Off, ConsolidateMode::Auto] {
            let r = bfs::bfs_recursive_gpu(&mut gpu(CheckLevel::Off, mode), bfs_graph, src, v, 1);
            *out += &render(&format!("bfs/{v:?}{}", mode_label(mode)), &r.report);
        }
    }
}

fn render_all() -> String {
    let g = with_random_weights(&citeseer_like(200, 41), 10, 42);
    let x: Vec<f32> = (0..g.num_nodes()).map(|i| (i % 8) as f32).collect();
    let tree = TreeGen {
        depth: 3,
        outdegree: 8,
        sparsity: 1,
        seed: 43,
    }
    .generate();
    let bfs_graph = uniform_random(150, 1, 12, 44);
    let mut out = String::new();
    for check in [CheckLevel::Off, CheckLevel::Strict] {
        loop_jobs(&mut out, &g, &x, check);
    }
    rec_jobs(&mut out, &tree, &bfs_graph);
    out
}

#[test]
fn launch_reports_match_the_golden_corpus() {
    let got = render_all();
    if got != GOLDEN {
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "launch reports differ from tests/golden/launch_reports.txt at line {}:\n  \
             got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
