//! Golden output of npar-serve: the report of one cold response for every
//! catalog kernel, plus `dp-consolidated` under `consolidate: auto`, pinned
//! against `tests/golden/serve_reports.txt`.
//!
//! The on/off differentials and loadtest compare responses within one
//! build, so a change that moves both sides of a comparison passes them.
//! This corpus compares against bytes written by an earlier build, so any
//! change to what the service answers fails here with the first differing
//! line.
//!
//! Each report is rendered as pretty JSON without its `sim` field. A
//! response zeroes `sim` (asserted below), and its field set is host-side
//! bookkeeping rather than model output; everything else, the modeled
//! timeline and every per-kernel metric, is pinned byte for byte.

use npar_serve::{workload::Dataset, Request, Response, ServeConfig, Service, Source};
use npar_sim::{ConsolidateMode, DeviceConfig, SimStats};
use serde::{Serialize, Value};

const GOLDEN: &str = include_str!("golden/serve_reports.txt");

/// The shapes of `tiny_request` in `tests/serve.rs`.
fn tiny_request(kernel: &str) -> Request {
    Request {
        kernel: kernel.into(),
        device: DeviceConfig::tiny(),
        dataset: Dataset {
            n: 512,
            grid: 2,
            block: 64,
            launches: 2,
            streams: 2,
            salt: 0,
        },
    }
}

fn cases() -> Vec<(String, Request)> {
    let mut cases: Vec<(String, Request)> = npar_serve::workload::KERNELS
        .iter()
        .map(|&k| (k.to_string(), tiny_request(k)))
        .collect();
    let mut auto = tiny_request("dp-consolidated");
    auto.device.consolidate = ConsolidateMode::Auto;
    cases.push(("dp-consolidated, consolidate auto".into(), auto));
    cases
}

fn render_all() -> String {
    let service = Service::start(ServeConfig {
        shards: 1,
        queue_cap: 64,
        timeout: None,
        cache_dir: None,
        cold: false,
        gpu_threads: 1,
    });
    let mut out = String::new();
    for (title, req) in cases() {
        let Response::Done { source, report } = service.submit(&req).unwrap().wait() else {
            panic!("{title}: expected Done");
        };
        assert_eq!(source, Source::Fresh, "{title}");
        assert_eq!(report.sim, SimStats::default(), "{title}: sim is zeroed");
        let Value::Object(fields) = report.to_value() else {
            panic!("{title}: a report renders as an object");
        };
        let model = Value::Object(fields.into_iter().filter(|(k, _)| k != "sim").collect());
        out += &format!(
            "== {title}\n{}\n",
            serde_json::to_string_pretty(&model).expect("report JSON is infallible")
        );
    }
    service.join();
    out
}

#[test]
fn serve_reports_match_the_golden_corpus() {
    let got = render_all();
    if got != GOLDEN {
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "serve output differs from tests/golden/serve_reports.txt at line {}:\n  \
             got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
