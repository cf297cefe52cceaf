//! A seeded end-to-end and per-layer host-cost benchmark for the npar
//! reproduction: experiment sweeps over the paper's loop and recursive
//! templates, and npar-serve under open-loop traffic. See `README.md`.

pub mod batch;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use batch::{Batch, Bench, Scale};
use report::Outcome;
use serve::{Rates, ServeOpen};
use trace::Span;

/// Workload names, in the order `README.md` documents them.
pub const WORKLOADS: [&str; 4] = [
    "loops-powerlaw",
    "recursion-dp",
    "strict-check",
    "serve-open",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A closed-loop batch workload.
    Batch(Batch),
    /// npar-serve under open-loop traffic.
    ServeOpen,
}

impl Workload {
    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "loops-powerlaw" => Workload::Batch(Batch::LoopsPowerlaw),
            "recursion-dp" => Workload::Batch(Batch::RecursionDp),
            "strict-check" => Workload::Batch(Batch::StrictCheck),
            "serve-open" => Workload::ServeOpen,
            _ => return None,
        })
    }
}

/// Run `workload` from `seed` for about `seconds`. Untraced runs measure
/// the end-to-end metrics; traced runs the per-layer metrics, and return
/// the spans they recorded.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    rates: Rates,
    scale: Scale,
) -> (Outcome, Vec<Span>) {
    match workload {
        Workload::Batch(b) => {
            let bench = Bench::new(b, seed, scale, traced);
            if traced {
                bench.measure_layers(seconds)
            } else {
                (bench.measure(seconds), Vec::new())
            }
        }
        Workload::ServeOpen => ServeOpen::new(seed, seconds, rates).run(traced),
    }
}
