//! npar-prof: the timeline profiler.
//!
//! When enabled via [`crate::Gpu::with_profiler`], the event-driven
//! scheduler records the timeline it already computes — kernel
//! release/start/completion, per-SM block residency spans (with
//! memo-replayed blocks marked distinctly), and device-side child launches
//! linked to their parent block — into a [`Profile`]. The profile is
//! exported as Chrome-trace/Perfetto JSON ([`Profile::to_chrome_trace`],
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>) or a
//! plain-text summary ([`Profile::summary`]).
//!
//! Profiling is observational: it never feeds back into timing, and with it
//! disabled the simulator takes no profiling branches at all, so every
//! [`crate::Report`] is bit-identical with the profiler on or off
//! (`tests/profiler_differential.rs` pins this). All recorded times are
//! modeled device cycles, continuous across [`crate::Gpu::synchronize`]
//! batches until the profile is drained with [`crate::Gpu::take_profile`].
//!
//! The scheduler's fast paths (DESIGN.md §11) splice per-block spans into
//! intervals they fast-forward through: the wheel invokes the exact same
//! collector hooks, in the same order, at the same modeled times as the
//! event-by-event path, so exported Chrome traces are byte-identical with
//! fast paths on or off (`tests/sched_differential.rs` pins this too).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::config::DeviceConfig;
use crate::engine::{GridTask, Origin};

/// Lifetime of one grid on the modeled timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSpan {
    /// Kernel name.
    pub name: String,
    /// Grid id, unique within the profile (monotonic across batches).
    pub grid: u32,
    /// For device-launched grids, the launching `(grid, block)`.
    pub parent: Option<(u32, u32)>,
    /// Cycle the grid became schedulable (host launch overhead or
    /// pending-launch-pool service completed).
    pub release: f64,
    /// Cycle the grid's first block was dispatched to an SM.
    pub start: f64,
    /// Cycle the grid (and all its joined children) completed.
    pub end: f64,
}

/// One contiguous residency of a block on an SM. A block that joins child
/// grids is swapped out while it waits, so it can contribute several spans
/// (the later ones flagged `resumed`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockSpan {
    /// Grid id (indexes the profile's kernel spans).
    pub grid: u32,
    /// Block index within the grid.
    pub block: u32,
    /// SM the block was resident on.
    pub sm: u32,
    /// Dispatch cycle.
    pub start: f64,
    /// Vacate cycle (segment work done, or swapped out to wait for
    /// children).
    pub end: f64,
    /// Whether this span is a swap-restore of a parent block that was
    /// waiting on children.
    pub resumed: bool,
    /// Whether the block's timing was replayed from the alignment memo
    /// cache rather than aligned live (see DESIGN.md §8).
    pub memo: bool,
}

/// A device-side (dynamic-parallelism) launch edge: parent block → child
/// grid. Rendered as a flow arrow in the Chrome-trace export.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchFlow {
    /// Launching grid.
    pub parent_grid: u32,
    /// Launching block within that grid.
    pub parent_block: u32,
    /// SM the launching block was resident on at the launch instruction.
    pub sm: u32,
    /// Launched grid.
    pub child_grid: u32,
    /// Cycle the launch instruction completed in the parent.
    pub launch: f64,
    /// Cycle the child's first block was dispatched.
    pub child_start: f64,
}

/// The recorded timeline of every batch since the profiler was enabled (or
/// last drained). Produced by [`crate::Gpu::take_profile`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Device name the timeline was recorded on.
    pub device: String,
    /// Device core clock in GHz (converts cycles to trace microseconds).
    pub clock_ghz: f64,
    /// One span per grid, in launch-registration order; `kernels[g].grid
    /// == g` by construction.
    pub kernels: Vec<KernelSpan>,
    /// Per-SM block residency spans, in completion order.
    pub blocks: Vec<BlockSpan>,
    /// Parent→child dynamic-parallelism launch edges.
    pub flows: Vec<LaunchFlow>,
}

impl Profile {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Last recorded cycle across all spans.
    pub fn makespan_cycles(&self) -> f64 {
        self.kernels.iter().map(|k| k.end).fold(0.0, f64::max)
    }

    /// Kernel name of a grid id (empty string if unknown).
    pub fn kernel_name(&self, grid: u32) -> &str {
        self.kernels
            .get(grid as usize)
            .filter(|k| k.grid == grid)
            .map_or("", |k| k.name.as_str())
    }

    fn us(&self, cycles: f64) -> f64 {
        // cycles / (GHz * 1e9) seconds = cycles / (GHz * 1e3) microseconds.
        let ghz = if self.clock_ghz > 0.0 {
            self.clock_ghz
        } else {
            1.0
        };
        cycles / (ghz * 1e3)
    }

    /// Export the timeline in the Chrome trace-event JSON format, loadable
    /// in `chrome://tracing` or Perfetto. Process 0 holds one track per SM
    /// with the block residency spans (memo-replayed spans carry the
    /// `block,memo` category); process 1 holds one track per grid with the
    /// kernel spans; device-side launches are drawn as flow arrows from
    /// the launching block's track to the child grid's span. Timestamps
    /// are modeled microseconds at the device clock.
    pub fn to_chrome_trace(&self) -> String {
        let mut ev: Vec<String> =
            Vec::with_capacity(self.kernels.len() + self.blocks.len() + 2 * self.flows.len() + 16);
        ev.push(format!(
            r#"{{"ph":"M","name":"process_name","pid":0,"args":{{"name":"SMs ({})"}}}}"#,
            escape(&self.device)
        ));
        ev.push(r#"{"ph":"M","name":"process_name","pid":1,"args":{"name":"grids"}}"#.to_string());
        let max_sm = self.blocks.iter().map(|b| b.sm).max();
        if let Some(max_sm) = max_sm {
            for sm in 0..=max_sm {
                ev.push(format!(
                    r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{sm},"args":{{"name":"SM {sm}"}}}}"#
                ));
            }
        }
        for k in &self.kernels {
            let origin = match k.parent {
                Some((g, b)) => format!(r#""device","parent_grid":{g},"parent_block":{b}"#),
                None => r#""host""#.to_string(),
            };
            ev.push(format!(
                r#"{{"name":"{}","cat":"grid","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{"grid":{},"release_us":{},"origin":{origin}}}}}"#,
                escape(&k.name),
                self.us(k.start),
                self.us(k.end - k.start),
                k.grid,
                k.grid,
                self.us(k.release),
            ));
        }
        for b in &self.blocks {
            let cat = if b.memo { "block,memo" } else { "block" };
            ev.push(format!(
                r#"{{"name":"{}","cat":"{cat}","ph":"X","ts":{},"dur":{},"pid":0,"tid":{},"args":{{"grid":{},"block":{},"resumed":{},"memo":{}}}}}"#,
                escape(self.kernel_name(b.grid)),
                self.us(b.start),
                self.us(b.end - b.start),
                b.sm,
                b.grid,
                b.block,
                b.resumed,
                b.memo,
            ));
        }
        for (i, f) in self.flows.iter().enumerate() {
            ev.push(format!(
                r#"{{"name":"launch","cat":"dp","ph":"s","id":{i},"pid":0,"tid":{},"ts":{}}}"#,
                f.sm,
                self.us(f.launch),
            ));
            ev.push(format!(
                r#"{{"name":"launch","cat":"dp","ph":"f","bp":"e","id":{i},"pid":1,"tid":{},"ts":{}}}"#,
                f.child_grid,
                self.us(f.child_start),
            ));
        }
        let mut out = String::with_capacity(ev.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
        out.push_str("{\"traceEvents\":[\n");
        for (i, e) in ev.iter().enumerate() {
            out.push_str(e);
            if i + 1 < ev.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Plain-text per-kernel summary of the timeline: grid/span counts and
    /// SM-resident time per kernel name.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "npar-prof: {} @ {:.3} GHz",
            if self.device.is_empty() {
                "(no device)"
            } else {
                &self.device
            },
            self.clock_ghz
        );
        let host = self.kernels.iter().filter(|k| k.parent.is_none()).count();
        let resumed = self.blocks.iter().filter(|b| b.resumed).count();
        let memo = self.blocks.iter().filter(|b| b.memo).count();
        let _ = writeln!(
            s,
            "  grids {} ({} host, {} device) | block spans {} ({} resumed, {} memo-replayed) \
             | flow arrows {} | makespan {:.0} cycles ({:.1} us)",
            self.kernels.len(),
            host,
            self.kernels.len() - host,
            self.blocks.len(),
            resumed,
            memo,
            self.flows.len(),
            self.makespan_cycles(),
            self.us(self.makespan_cycles()),
        );
        // Per-kernel aggregates.
        #[derive(Default)]
        struct Agg {
            grids: u64,
            spans: u64,
            resident: f64,
        }
        let mut per: BTreeMap<&str, Agg> = BTreeMap::new();
        for k in &self.kernels {
            per.entry(&k.name).or_default().grids += 1;
        }
        for b in &self.blocks {
            let a = per.entry(self.kernel_name(b.grid)).or_default();
            a.spans += 1;
            a.resident += b.end - b.start;
        }
        let _ = writeln!(
            s,
            "  {:<28} {:>6} {:>7} {:>12}",
            "kernel", "grids", "spans", "resident_us"
        );
        for (name, a) in &per {
            let _ = writeln!(
                s,
                "  {:<28} {:>6} {:>7} {:>12.1}",
                name,
                a.grids,
                a.spans,
                self.us(a.resident)
            );
        }
        s
    }
}

/// Minimal JSON string escaping for kernel/device names.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Batch-local event collector the scheduler feeds. Times are
/// batch-relative; [`Collector::finish`] rebases them onto the profile's
/// continuous clock and resolves grid ids to profile-global ids.
#[derive(Debug)]
pub(crate) struct Collector {
    release: Vec<f64>,
    start: Vec<f64>,
    end: Vec<f64>,
    open: BTreeMap<(usize, u32), (u32, f64, bool)>,
    spans: Vec<BlockSpan>,
    flows: Vec<LaunchFlow>,
}

impl Collector {
    pub(crate) fn new(num_grids: usize) -> Self {
        Collector {
            release: vec![f64::NAN; num_grids],
            start: vec![f64::NAN; num_grids],
            end: vec![f64::NAN; num_grids],
            open: BTreeMap::new(),
            spans: Vec::new(),
            flows: Vec::new(),
        }
    }

    pub(crate) fn on_release(&mut self, g: usize, t: f64) {
        self.release[g] = t;
    }

    pub(crate) fn on_grid_start(&mut self, g: usize, t: f64) {
        if self.start[g].is_nan() {
            self.start[g] = t;
        }
    }

    pub(crate) fn on_grid_done(&mut self, g: usize, t: f64) {
        self.end[g] = t;
    }

    pub(crate) fn on_block_start(&mut self, g: usize, b: u32, sm: usize, t: f64, resumed: bool) {
        self.open.insert((g, b), (sm as u32, t, resumed));
    }

    pub(crate) fn on_block_end(&mut self, g: usize, b: u32, t: f64) {
        if let Some((sm, start, resumed)) = self.open.remove(&(g, b)) {
            self.spans.push(BlockSpan {
                grid: g as u32,
                block: b,
                sm,
                start,
                end: t,
                resumed,
                memo: false, // filled in finish() from the block outcome
            });
        }
    }

    pub(crate) fn on_launch(&mut self, g: usize, b: u32, sm: usize, child: usize, t: f64) {
        self.flows.push(LaunchFlow {
            parent_grid: g as u32,
            parent_block: b,
            sm: sm as u32,
            child_grid: child as u32,
            launch: t,
            child_start: f64::NAN, // resolved in finish()
        });
    }

    /// Splice another collector's recordings into this one. Used by the
    /// domain-parallel timing pass (DESIGN.md §13), which records one
    /// collector per timing domain and concatenates them in domain commit
    /// order: per-grid release/start/end merge by presence (each grid
    /// belongs to exactly one domain), spans and flows append in call
    /// order. With domains strictly disjoint in simulated time the
    /// concatenation is exactly the serial collector's call order, so the
    /// merged profile is byte-identical to a single-threaded run.
    pub(crate) fn absorb(&mut self, other: Collector) {
        debug_assert!(
            other.open.is_empty(),
            "absorbing a collector with open block spans"
        );
        for (dst, src) in self.release.iter_mut().zip(&other.release) {
            if !src.is_nan() {
                *dst = *src;
            }
        }
        for (dst, src) in self.start.iter_mut().zip(&other.start) {
            if !src.is_nan() {
                *dst = *src;
            }
        }
        for (dst, src) in self.end.iter_mut().zip(&other.end) {
            if !src.is_nan() {
                *dst = *src;
            }
        }
        self.spans.extend(other.spans);
        self.flows.extend(other.flows);
    }

    /// Fold this batch into `out`: rebase times by `offset` cycles, shift
    /// grid ids past the profile's existing grids, resolve child start
    /// times and memo flags.
    pub(crate) fn finish(mut self, grids: &[GridTask], device: &DeviceConfig, out: &mut Profile) {
        debug_assert!(self.open.is_empty(), "blocks left open at batch end");
        if out.device.is_empty() {
            out.device.clone_from(&device.name);
            out.clock_ghz = device.clock_ghz;
        }
        let offset = out.makespan_cycles();
        let base = out.kernels.len() as u32;
        for (g, task) in grids.iter().enumerate() {
            let parent = match task.origin {
                Origin::Host { .. } => None,
                Origin::Device { parent, block, .. } => Some((base + parent as u32, block)),
            };
            out.kernels.push(KernelSpan {
                name: task.name.to_string(),
                grid: base + g as u32,
                parent,
                release: self.release[g] + offset,
                start: self.start[g] + offset,
                end: self.end[g] + offset,
            });
        }
        for mut s in self.spans.drain(..) {
            s.memo = grids[s.grid as usize].blocks[s.block as usize].replayed;
            s.grid += base;
            s.start += offset;
            s.end += offset;
            out.blocks.push(s);
        }
        for mut f in self.flows.drain(..) {
            f.child_start = self.start[f.child_grid as usize] + offset;
            f.parent_grid += base;
            f.child_grid += base;
            f.launch += offset;
            out.flows.push(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            device: "test-dev".into(),
            clock_ghz: 1.0,
            kernels: vec![
                KernelSpan {
                    name: "parent".into(),
                    grid: 0,
                    parent: None,
                    release: 10.0,
                    start: 12.0,
                    end: 100.0,
                },
                KernelSpan {
                    name: "child".into(),
                    grid: 1,
                    parent: Some((0, 0)),
                    release: 40.0,
                    start: 45.0,
                    end: 90.0,
                },
            ],
            blocks: vec![
                BlockSpan {
                    grid: 0,
                    block: 0,
                    sm: 0,
                    start: 12.0,
                    end: 40.0,
                    resumed: false,
                    memo: false,
                },
                BlockSpan {
                    grid: 1,
                    block: 0,
                    sm: 1,
                    start: 45.0,
                    end: 90.0,
                    resumed: false,
                    memo: true,
                },
                BlockSpan {
                    grid: 0,
                    block: 0,
                    sm: 0,
                    start: 92.0,
                    end: 100.0,
                    resumed: true,
                    memo: false,
                },
            ],
            flows: vec![LaunchFlow {
                parent_grid: 0,
                parent_block: 0,
                sm: 0,
                child_grid: 1,
                launch: 30.0,
                child_start: 45.0,
            }],
        }
    }

    #[test]
    fn chrome_trace_contains_spans_flows_and_metadata() {
        let p = sample();
        let t = p.to_chrome_trace();
        assert!(t.contains(r#""traceEvents""#));
        assert!(t.contains(r#""name":"SM 1""#));
        assert!(t.contains(r#""name":"parent","cat":"grid""#));
        assert!(t.contains(r#""cat":"block,memo""#));
        assert!(t.contains(r#""ph":"s""#));
        assert!(t.contains(r#""ph":"f","bp":"e""#));
        assert!(t.contains(r#""origin":"device","parent_grid":0"#));
    }

    #[test]
    fn summary_counts_spans() {
        let p = sample();
        let s = p.summary();
        assert!(s.contains("grids 2 (1 host, 1 device)"), "{s}");
        assert!(s.contains("block spans 3 (1 resumed, 1 memo-replayed)"));
        assert!(s.contains("flow arrows 1"));
        assert!(s.contains("parent"));
        assert!((p.makespan_cycles() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile() {
        let p = Profile::default();
        assert!(p.is_empty());
        assert_eq!(p.makespan_cycles(), 0.0);
        assert!(p.to_chrome_trace().contains("traceEvents"));
        assert!(p.summary().contains("grids 0"));
        assert_eq!(p.kernel_name(5), "");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
