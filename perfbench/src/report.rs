//! Metric names and units, and the result the benchmark prints: a table for
//! people, then one JSON line as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use npar_core::LoopTemplate;
use npar_serve::workload::KERNELS;
use npar_sim::SimStats;

use crate::trace::json_str;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms_low", "ms"),
    ("p99_ms_low", "ms"),
    ("p50_ms_high", "ms"),
    ("p99_ms_high", "ms"),
    ("max_rps", "req/s"),
];

/// The recursive-template job groups the `rec.*` metrics sum over.
pub const REC_GROUPS: [&str; 9] = [
    "tree-flat",
    "tree-naive",
    "tree-hier",
    "bfs-naive",
    "bfs-hier",
    "tree-naive.auto",
    "tree-hier.auto",
    "bfs-naive.auto",
    "bfs-hier.auto",
];

/// Per-layer metrics, printed by every traced run, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("graph.generate_s".into(), "s"),
        ("tree.generate_s".into(), "s"),
    ];
    for t in LoopTemplate::ALL {
        m.push((format!("loops.{}_s", t.label()), "s"));
    }
    for g in REC_GROUPS {
        m.push((format!("rec.{g}_s"), "s"));
    }
    let fixed: [(&str, &'static str); 34] = [
        ("sim.launch_s", "s"),
        ("sim.ops_traced", "count"),
        ("sim.ns_per_op", "ns/op"),
        ("sim.grids", "count"),
        ("memo.replay_frac", "fraction"),
        ("memo.warp_hit_frac", "fraction"),
        ("memo.block_hit_frac", "fraction"),
        ("sched.timing_s", "s"),
        ("sched.share", "fraction"),
        ("sched.tpar_gain", "ratio"),
        ("consolidate.merged_grids", "count"),
        ("consolidate.inlined_grids", "count"),
        ("consolidate.auto_gain", "ratio"),
        ("check.scan_s", "s"),
        ("check.elided_blocks", "count"),
        ("check.elide_gain", "ratio"),
        ("check.hazards", "count"),
        ("par.busy_cores", "cores"),
        ("par.gain", "ratio"),
        ("serve.submit_us_p50", "us"),
        ("serve.cache_hit_frac", "fraction"),
        ("serve.dedup_frac", "fraction"),
        ("serve.shed", "count"),
        ("serve.timeout", "count"),
        ("serve.failed", "count"),
        ("serve.over_limit_frac", "fraction"),
        ("serve.gen_late_ms_max", "ms"),
        ("serve.boot_s", "s"),
        ("serve.spill_mb", "MB"),
        ("serve.memo_replay_frac", "fraction"),
        ("model.cycles", "cycles"),
        ("model.device_launches", "count"),
        ("host.calib_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
    ];
    m.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for k in KERNELS {
        m.push((format!("serve.simulate_ms.{k}"), "ms"));
    }
    m
}

/// Set the launch-path, memo, timing-pass and consolidation metrics from
/// `s`, the merged simulator statistics of one pass, plus that pass's
/// `launches` (host and device grids, after consolidation) and its host
/// seconds outside (`launch_s`) and inside (`timing_s`) the timing pass;
/// `basis` says what the seconds were measured over.
pub fn set_sim_layers(
    o: &mut Outcome,
    s: &SimStats,
    launches: u64,
    launch_s: f64,
    timing_s: f64,
    basis: &str,
) {
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ops = s.ops_traced;
    let (warps, blocks) = (s.warp_hits + s.warp_misses, s.block_hits + s.block_misses);
    o.set(
        "sim.launch_s",
        launch_s,
        format!("wall_seconds - timing_pass_ns, {basis}"),
    );
    o.set("sim.ops_traced", ops as f64, "one pass");
    o.set(
        "sim.ns_per_op",
        launch_s * 1e9 / ops.max(1) as f64,
        format!("sim.launch_s / {ops} ops"),
    );
    o.set(
        "sim.grids",
        (launches + s.consolidated_grids + s.inlined_grids) as f64,
        "grids launched before consolidation, one pass",
    );
    o.set(
        "memo.replay_frac",
        frac(s.ops_replayed, ops),
        format!("{} of {ops} ops replayed", s.ops_replayed),
    );
    o.set(
        "memo.warp_hit_frac",
        frac(s.warp_hits, warps),
        format!("{} of {warps} warp alignments", s.warp_hits),
    );
    o.set(
        "memo.block_hit_frac",
        frac(s.block_hits, blocks),
        format!("{} of {blocks} blocks", s.block_hits),
    );
    o.set(
        "sched.timing_s",
        timing_s,
        format!("timing_pass_ns, {basis}"),
    );
    o.set(
        "sched.share",
        timing_s / (launch_s + timing_s),
        format!("of {:.4} s simulator wall time", launch_s + timing_s),
    );
    o.set(
        "consolidate.merged_grids",
        s.consolidated_grids as f64,
        "one pass",
    );
    o.set(
        "consolidate.inlined_grids",
        s.inlined_grids as f64,
        "one pass",
    );
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs or requests attempted.
    pub attempted: u64,
    /// Attempts that failed a check, errored, panicked or went unanswered.
    pub failed: u64,
    /// Metric values with a note on their samples or base.
    pub values: BTreeMap<String, (f64, String)>,
    /// Human-readable lines printed above the metric table.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Set metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, note: impl Into<String>) {
        self.values.insert(name.into(), (value, note.into()));
    }

    /// Value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Count one failed attempt and say why on standard error.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {}", why.as_ref());
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The table plus the final JSON line for the metrics in `names`;
    /// metrics this workload does not exercise read 0.
    pub fn render(&self, names: &[(String, &'static str)]) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "{:<32} {:>16.6} {:<9} {} failed of {} attempted",
            "error_rate",
            self.error_rate(),
            "fraction",
            self.failed,
            self.attempted
        );
        let mut json = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let (value, note) = self
                .values
                .get(name)
                .cloned()
                .unwrap_or((0.0, "not exercised by this workload".into()));
            let _ = writeln!(out, "{name:<32} {:>16} {unit:<9} {note}", fmt_value(value));
            // JSON has no infinity; a value that is not finite (a latency
            // percentile over failed requests) prints as the largest double.
            let value = if value.is_finite() { value } else { f64::MAX };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            );
        }
        json.push_str("}}");
        let _ = writeln!(out, "{json}");
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}
