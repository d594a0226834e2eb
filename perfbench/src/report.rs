//! The run result: named metrics with units, the operation tally, and
//! the one-line JSON object the benchmark prints last.

use std::collections::BTreeMap;

use crate::stats::{highest_supported_percentile, percentile, Tally};

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Printed in place of a non-finite value (JSON has no infinity); such
/// a run is also marked incorrect.
const NON_FINITE_STANDIN: f64 = 1e12;

/// Metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Failed checks, in the order they were found.
    pub errors: Vec<String>,
}

impl Report {
    /// Records metric `name` in `unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Nearest-rank percentile `p` of `xs`, failing the run when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it (then `+inf`).
    pub fn tail(&mut self, xs: &[f64], p: f64) -> f64 {
        match highest_supported_percentile(xs.len(), MIN_BEYOND) {
            Some(top) if top >= p => percentile(xs, p).unwrap_or(f64::INFINITY),
            _ => {
                self.fail(format!(
                    "{} samples leave fewer than {MIN_BEYOND} beyond p{p}",
                    xs.len()
                ));
                f64::INFINITY
            }
        }
    }

    /// Counts one checked operation; a failure's message is kept.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.tally.record(result.is_ok());
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Records a failed check that is not an operation of its own.
    pub fn fail(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.errors.push(msg);
    }

    /// Whether every operation and check passed and every value is
    /// finite.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.tally.failed == 0
            && self.metrics.values().all(|m| m.0.is_finite())
    }

    /// A human-readable table of every metric.
    pub fn table(&self) -> String {
        let mut out = String::from("| metric | value | unit |\n|---|---:|---|\n");
        for (name, (v, unit)) in &self.metrics {
            out.push_str(&format!("| {name} | {v:.6} | {unit} |\n"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (v, unit))| {
                let v = if v.is_finite() {
                    *v
                } else {
                    NON_FINITE_STANDIN
                };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
