//! Verdict checks, metric collection, the host fingerprint and the
//! result line.

use std::fmt::Debug;
use std::time::Instant;

/// Pinned and cross-checked answers: how many were compared and how
/// many differed. `wrong_verdict_share` is `failed / attempted`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Answers compared.
    pub attempted: u64,
    /// Answers that differed from their reference.
    pub failed: u64,
    /// One line per difference, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Compares one answer with its reference.
    pub fn expect<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            self.notes
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    /// Pinned answers that differ, divided by answers checked.
    #[must_use]
    pub fn wrong_verdict_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// The median of `values` (the mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `f` once, then again while one more run of average length
/// still fits in `budget_s` seconds; returns every result.
pub fn repeat<T>(budget_s: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = vec![f()];
    while t0.elapsed().as_secs_f64() * (out.len() + 1) as f64 / out.len() as f64 <= budget_s {
        out.push(f());
    }
    out
}

/// Seconds taken by `f`, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let kib: f64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0);
    kib / 1024.0
}

/// CPU seconds the whole process (every thread, live or exited) has
/// used, from `/proc/self/stat` (`utime + stime`, in 1/100 s ticks).
#[must_use]
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// `nproc`, CPU model, kernel, the compiler that built this binary and
/// the workload's instance sizes, as one line.
#[must_use]
pub fn host_fingerprint(instance: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{}\" instance={instance}",
        env!("PERFBENCH_RUSTC")
    )
}

/// Formats a finite number for JSON (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn checks_count_differences() {
        let mut c = Checks::default();
        c.expect("a", 1, 1);
        c.expect("b", 2, 3);
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.wrong_verdict_share(), 0.5);
        assert_eq!(c.notes.len(), 1);
    }
}
