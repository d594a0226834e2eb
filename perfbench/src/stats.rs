//! The arithmetic the benchmark reports with: order statistics, the
//! log-log scaling fit, open-loop latency accounting, failure counting,
//! span self time and `/proc/self/status` parsing. Pure functions,
//! unit-tested in `tests/stats.rs`.

/// Percentiles the benchmark may report, lowest first.
const PERCENTILE_LADDER: &[f64] = &[50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Sorts a copy of `xs` (NaN-safe total order; `+inf` sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample with
/// at least `p`% of all samples at or below it. `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    Some(v[nearest_rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The highest percentile of 50, 75, 90, 95, 99, 99.9, 99.99 that has at
/// least `min_beyond` of `n` samples beyond it, or `None` when even the
/// median has fewer.
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

/// Least-squares slope of `ln y` over `ln x`: the scaling exponent of a
/// cost `y` in a size `x`. `None` with fewer than two distinct sizes or
/// a non-positive value.
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    if points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return None;
    }
    let k = points.len() as f64;
    let lx: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ly: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let mx = lx.iter().sum::<f64>() / k;
    let my = ly.iter().sum::<f64>() / k;
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// One open-loop operation, on the benchmark's monotonic nanosecond
/// clock: when it was due, when the generator actually sent it, when
/// its reply completed, and whether it succeeded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Scheduled send time.
    pub due_ns: u64,
    /// Actual send time.
    pub sent_ns: u64,
    /// Reply complete (or failure observed).
    pub done_ns: u64,
    /// Status as expected and every output check passed.
    pub ok: bool,
}

impl Outcome {
    /// Latency in milliseconds timed from the due time, so a stall also
    /// charges the requests it delayed. A failed operation misses every
    /// latency limit: `+inf`.
    pub fn latency_ms(&self) -> f64 {
        if !self.ok {
            return f64::INFINITY;
        }
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed (bad status or a failed check).
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts every outcome of an open-loop run.
    pub fn record_all(&mut self, outcomes: &[Outcome]) {
        for o in outcomes {
            self.record(o.ok);
        }
    }
}

/// Self time of a span `[start, start + dur)`: its duration minus the
/// part of that interval covered by any of its children's intervals
/// (overlapping children are counted once).
pub fn self_time_ns(start: u64, dur: u64, children: &[(u64, u64)]) -> u64 {
    let end = start.saturating_add(dur);
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, d)| (s.max(start), s.saturating_add(d).min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    dur.saturating_sub(covered)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// This process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Total and stolen jiffies from the aggregate `cpu` line of a
/// `/proc/stat` text: `(total, steal)`.
pub fn parse_proc_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// The machine's CPU counters now, from `/proc/stat`.
pub fn cpu_counters() -> Option<(u64, u64)> {
    parse_proc_stat_cpu(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Percent of all CPU time the hypervisor withheld (stole) between two
/// [`cpu_counters`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    let steal = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * steal as f64 / total as f64
    }
}
