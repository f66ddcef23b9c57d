//! Measurement helpers: percentiles, process CPU and peak RSS, and the
//! JSON the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Whether `n` samples leave at least ten beyond the 99th percentile,
/// the least a printed p99 needs.
pub fn p99_allowed(n: usize) -> bool {
    n >= 1000
}

/// The smallest count `k` that a Poisson variable of mean `mean` reaches
/// (`X >= k`) with probability under `alpha`: observing `k` or more events
/// when `mean` were predicted rejects the prediction at level `alpha`.
pub fn poisson_limit(mean: f64, alpha: f64) -> u64 {
    let mut term = (-mean).exp();
    let mut at_least = 1.0;
    let mut k = 0;
    while at_least >= alpha {
        at_least -= term;
        k += 1;
        term *= mean / k as f64;
    }
    k
}

/// Process-wide resource usage (all threads).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// High-water resident set size, bytes.
    pub max_rss_bytes: u64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Current process resource usage.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (the only target this benchmark builds for), and
    // RUSAGE_SELF is a valid `who`; getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        // Linux reports ru_maxrss in KiB.
        max_rss_bytes: ru.ru_maxrss.max(0) as u64 * 1024,
    }
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A JSON number: finite values print with all their digits.
pub fn num(value: f64) -> String {
    assert!(value.is_finite(), "non-finite metric value {value}");
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// A JSON string literal (the benchmark only emits ASCII names).
pub fn string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A flat JSON object from already-encoded values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn poisson_limits() {
        // Under 0.01 predicted, one miss already rejects the prediction.
        assert_eq!(poisson_limit(0.0012, 0.01), 1);
        assert_eq!(poisson_limit(0.0, 0.01), 1);
        // P(X >= 1) = 0.0198 at mean 0.02, P(X >= 2) = 0.0002.
        assert_eq!(poisson_limit(0.02, 0.01), 2);
        // Mean 1: P(X >= 4) = 0.019, P(X >= 5) = 0.0037.
        assert_eq!(poisson_limit(1.0, 0.01), 5);
    }

    #[test]
    fn usage_reads_this_process() {
        let u = usage();
        assert!(u.max_rss_bytes > 0);
        assert!(u.cpu_s >= 0.0);
    }

    #[test]
    fn json_numbers_and_strings() {
        assert_eq!(num(2.0), "2.0");
        assert_eq!(num(1.25), "1.25");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }
}
