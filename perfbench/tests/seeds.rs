//! The seed contract: one seed gives identical inputs and identical modeled
//! counts, and a second seed runs clean. Runs at the tiny scale.

use std::sync::Mutex;

use npar_perfbench::batch::{Batch, Bench, Scale};
use npar_perfbench::report::Outcome;
use npar_perfbench::serve::{Rates, Traffic};
use npar_perfbench::{run, Workload, WORKLOADS};

/// Tracing is process-wide, so runs in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const RATES: Rates = Rates {
    low_rps: 40.0,
    high_rps: 80.0,
    limit_ms: 1000.0,
};

fn traced(workload: Workload, seed: u64) -> Outcome {
    run(workload, seed, 0.5, true, RATES, Scale::TINY).0
}

const PINNED: [&str; 3] = ["model.cycles", "model.device_launches", "sim.ops_traced"];

#[test]
fn one_seed_gives_identical_inputs_and_modeled_counts() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for batch in [Batch::LoopsPowerlaw, Batch::RecursionDp, Batch::StrictCheck] {
        let a = Bench::new(batch, 7, Scale::TINY, false);
        let b = Bench::new(batch, 7, Scale::TINY, false);
        assert_eq!(a.inputs(), b.inputs(), "{batch:?} inputs");
        let c = Bench::new(batch, 8, Scale::TINY, false);
        assert_ne!(a.inputs(), c.inputs(), "{batch:?} ignores its seed");
    }
    assert_eq!(
        Traffic::new(7, 1.0, RATES).keys(),
        Traffic::new(7, 1.0, RATES).keys()
    );
    assert_ne!(
        Traffic::new(7, 1.0, RATES).keys(),
        Traffic::new(8, 1.0, RATES).keys()
    );
    for name in WORKLOADS {
        let w = Workload::parse(name).expect("known workload");
        let (a, b) = (traced(w, 7), traced(w, 7));
        for m in PINNED {
            let (x, y) = (a.get(m), b.get(m));
            assert!(x.is_some_and(|v| v > 0.0), "{name}: {m} = {x:?}");
            assert_eq!(x, y, "{name}: {m} differs between runs of one seed");
        }
    }
}

#[test]
fn a_second_seed_runs_clean() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for name in WORKLOADS {
        let w = Workload::parse(name).expect("known workload");
        let (o, _) = run(w, 1234, 0.5, false, RATES, Scale::TINY);
        assert!(o.attempted > 0, "{name} attempted nothing");
        assert_eq!(
            o.failed, 0,
            "{name}: {} of {} failed",
            o.failed, o.attempted
        );
    }
}
