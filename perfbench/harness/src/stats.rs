//! Sample summaries and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile)`. Below 21 samples no percentile at or above
/// the median has ten beyond it, so it is the upper median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let idx = n.saturating_sub(11).max(n / 2);
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of a process, MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Ordered `(name, value, unit)` metric rows.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Prints the human-readable table, then the one-line JSON result the
/// benchmark runner reads (always the last line of stdout).
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
}
