//! Order statistics and process counters the metrics are built from.

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q` quantile of `xs` (`0 <= q <= 1`) by linear interpolation
/// between closest ranks; NaN when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by_key(|&x| total_key(x));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// An integer key ordering floats as `f64::total_cmp` does.
pub fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Samples strictly above the `q` quantile: the support of that quantile.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let p = percentile(xs, q);
    xs.iter().filter(|&&x| x > p).count()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads
/// together, from `/proc/self/stat` (Linux clock ticks are 1/100 s).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A fixed computation in the benchmark's own code: its time tracks the
/// host's speed, independent of the program under test.
pub fn calibrate_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..4_000_000u64 {
        h = (h ^ i).wrapping_mul(0x100_0000_01b3).rotate_left(17);
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

/// The host-speed line printed by every run: the calibration's spread
/// shows whether the host ran at one speed throughout.
pub fn host_line(calib_ms: &[f64]) -> String {
    let lo = calib_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = calib_ms.iter().copied().fold(0.0, f64::max);
    format!(
        "host calibration {:.3} ms median, {lo:.3}..{hi:.3} over {} samples; {} cores",
        median(calib_ms),
        calib_ms.len(),
        nproc()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(&many, 0.99), 10);
        let mut keys = [2.5, -1.0, f64::INFINITY, 0.0, -0.0, -3.5];
        keys.sort_unstable_by_key(|&x| total_key(x));
        assert_eq!(keys, [-3.5, -1.0, -0.0, 0.0, 2.5, f64::INFINITY]);
    }
}
