//! Host spans recorded from the benchmark's own code, around each call it
//! makes into a layer of the program. Spans stay in memory while tracing is
//! on and are written at the end as Chrome-trace JSON (the format npar-prof
//! exports, so both open side by side in Perfetto). Nothing is recorded
//! while tracing is off, which is how every end-to-end run measures.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call (or benchmark phase) the span covers.
    pub name: Cow<'static, str>,
    /// What the call worked on (a job label, a kernel id, …).
    pub detail: String,
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 at the top level.
    pub parent: u64,
    /// Request id shared by every span of one request, 0 outside requests.
    pub req: u64,
    /// Small per-thread index.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

/// Turn recording on or off (off by default).
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<Span>);

impl Guard {
    /// This span's id, usable as an explicit parent on another thread (0
    /// while tracing is off).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.id)
    }
}

/// Open a span under the innermost open span of this thread.
pub fn span(name: impl Into<Cow<'static, str>>, detail: &str, req: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open(name.into(), detail, parent, req)
}

fn open(name: Cow<'static, str>, detail: &str, parent: u64, req: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard(Some(Span {
        name,
        detail: detail.to_string(),
        id,
        parent,
        req,
        tid: TID.with(|t| *t),
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.0.take() {
            span.end_ns = now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(at) = s.iter().rposition(|&id| id == span.id) {
                    s.remove(at);
                }
            });
            if let Ok(mut all) = SPANS.lock() {
                all.push(span);
            }
        }
    }
}

/// Record a span whose interval was measured elsewhere (e.g. a response
/// received on a waiter thread).
pub fn record(
    name: &'static str,
    detail: &str,
    parent: u64,
    req: u64,
    start: Instant,
    end: Instant,
) {
    if !enabled() {
        return;
    }
    let base = epoch();
    let ns = |t: Instant| t.saturating_duration_since(base).as_nanos() as u64;
    let span = Span {
        name: Cow::Borrowed(name),
        detail: detail.to_string(),
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        req,
        tid: TID.with(|t| *t),
        start_ns: ns(start),
        end_ns: ns(end),
    };
    if let Ok(mut all) = SPANS.lock() {
        all.push(span);
    }
}

/// Every span finished so far, removing them from the recorder.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder"))
}

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: String,
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Aggregate spans into one [`LayerRow`] per name, sorted by self time.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&str, LayerRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let row = rows.entry(&s.name).or_insert_with(|| LayerRow {
            name: s.name.to_string(),
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.count += 1;
        row.total_s += dur as f64 * 1e-9;
        row.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    let mut out: Vec<LayerRow> = rows.into_values().collect();
    out.sort_unstable_by_key(|r| std::cmp::Reverse(crate::stats::total_key(r.self_s)));
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Chrome-trace JSON for `spans`, on its own process id so it can be loaded
/// next to an npar-prof trace (which uses pids 0 and 1).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from(
        "{\"traceEvents\":[\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"args\":{\"name\":\"perfbench host\"}}",
    );
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"name\":{},\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":2,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"detail\":{}}}}}",
            json_str(&s.name),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req,
            json_str(&s.detail)
        );
    }
    out.push_str("\n]}\n");
    out
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: u64, start_ns: u64, end_ns: u64, name: &'static str) -> Span {
        Span {
            name: Cow::Borrowed(name),
            detail: String::new(),
            id,
            parent,
            req: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            at(1, 0, 0, 100, "parent"),
            at(2, 1, 10, 40, "child"),
            at(3, 1, 30, 60, "child"),
            at(4, 1, 90, 150, "child"),
        ];
        let rows = layer_table(&spans);
        let parent = rows.iter().find(|r| r.name == "parent").unwrap();
        // Children cover [10, 60) and [90, 100) inside the parent.
        assert!((parent.self_s - 40e-9).abs() < 1e-15);
        let child = rows.iter().find(|r| r.name == "child").unwrap();
        assert_eq!(child.count, 3);
        assert!((child.total_s - 120e-9).abs() < 1e-15);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
