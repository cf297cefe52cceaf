//! Parallelization templates for recursive tree computations (paper §II.C).
//!
//! The user implements [`TreeReduce`] once (the Figure 3(a) serial
//! recursion); [`run_recursive`] executes the requested GPU variant —
//! [`RecTemplate::Flat`] (recursion eliminated), [`RecTemplate::RecNaive`]
//! or [`RecTemplate::RecHier`] — and returns the profiled report. Every
//! template leaves identical values in the application state.

mod kernels;
mod spec;

use std::rc::Rc;

use npar_sim::{Gpu, LaunchConfig, Report};

pub use spec::{RecParams, RecTemplate, TreeReduce};

use kernels::{FlatTreeKernel, RecHierKernel, RecNaiveKernel};
use spec::block_for;

/// Run `app` under `template` and return the batch report.
pub fn run_recursive(
    gpu: &mut Gpu,
    app: Rc<dyn TreeReduce>,
    template: RecTemplate,
    params: &RecParams,
) -> Report {
    let root_children = app.tree().num_children(0);
    let max_threads = gpu.device().max_threads_per_block;
    match template {
        RecTemplate::Flat => {
            let n = app.tree().num_nodes();
            let k = Rc::new(FlatTreeKernel {
                name: format!("{}/flat", app.name()),
                app,
            });
            gpu.launch(
                k,
                LaunchConfig::cover(n, params.thread_block, params.max_grid),
            )
            .expect("flat launch");
        }
        RecTemplate::RecNaive => {
            if root_children > 0 {
                let k = Rc::new(RecNaiveKernel {
                    name: format!("{}/rec-naive", app.name()).into(),
                    app,
                    node: 0,
                    streams: params.streams.max(1),
                    max_threads,
                });
                let cfg = LaunchConfig::new(1, block_for(root_children, max_threads));
                gpu.launch(k, cfg).expect("rec-naive launch");
            }
        }
        RecTemplate::RecHier => {
            if root_children > 0 {
                let cfg = RecHierKernel::config_for(&app, 0, max_threads);
                let k = Rc::new(RecHierKernel {
                    name: format!("{}/rec-hier", app.name()).into(),
                    app,
                    node: 0,
                    streams: params.streams.max(1),
                    max_threads,
                });
                gpu.launch(k, cfg).expect("rec-hier launch");
            }
        }
    }
    gpu.synchronize()
}
