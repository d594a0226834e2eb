//! Experiment harness for the paper's evaluation section.
//!
//! Every table and figure in §7 maps to a binary in `src/bin/`
//! (full output, paper-style rows); `benches/micro_substrates` times the
//! hot kernels against their reference twins. Shared machinery lives
//! here:
//!
//! * [`Method`] — a uniform handle over Kamino (with all its ablation /
//!   sampling variants) and the four baselines;
//! * [`config`] — harness sizing. Defaults run every experiment on a
//!   laptop in minutes; set `KAMINO_BENCH_N=<rows>` to change the dataset
//!   size or `KAMINO_BENCH_FULL=1` for paper-scale row counts (hours);
//! * [`report`] — mean±std aggregation and table printing, mirrored to
//!   `target/experiments/<name>.txt`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use kamino_baselines::{DpVae, NistPgm, PateGan, PrivBayes, Synthesizer};
use kamino_core::{run_kamino, KaminoConfig, KaminoReport};
use kamino_data::Instance;
use kamino_datasets::Dataset;
use kamino_dp::Budget;

pub mod chaos;
pub mod repro;

/// Harness sizing knobs (environment-driven).
pub mod config {
    use kamino_datasets::Corpus;

    /// Row count for a corpus: `KAMINO_BENCH_FULL=1` → Table 1 sizes;
    /// `KAMINO_BENCH_N=<n>` → n; default 800.
    pub fn rows_for(corpus: Corpus) -> usize {
        if std::env::var("KAMINO_BENCH_FULL").is_ok_and(|v| v == "1") {
            return corpus.paper_n();
        }
        std::env::var("KAMINO_BENCH_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(800)
    }

    /// Training-scale knob for Kamino (fraction of the paper's T range).
    pub fn train_scale() -> f64 {
        std::env::var("KAMINO_TRAIN_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.4)
    }

    /// The paper reports mean±std of 3 runs.
    pub fn seeds() -> [u64; 3] {
        [11, 23, 47]
    }

    /// The paper's default budget: (ε = 1, δ = 1e-6).
    pub fn default_budget() -> kamino_dp::Budget {
        kamino_dp::Budget::new(1.0, 1e-6)
    }
}

/// Ablation arms of Experiment 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Full Kamino.
    None,
    /// Random attribute sequence ("RandSequence").
    RandSequence,
    /// i.i.d. sampling from the model ("RandSampling").
    RandSampling,
    /// Both ("RandBoth").
    RandBoth,
}

/// Kamino variant knobs used across experiments.
#[derive(Debug, Clone, Copy)]
pub struct KaminoVariant {
    /// Ablation arm (Exp. 5).
    pub ablation: Ablation,
    /// MCMC re-sampling ratio `m/n` (Exp. 9).
    pub mcmc_ratio: f64,
    /// Accept–reject sampling (Exp. 6).
    pub ar_sampling: bool,
    /// Hard-FD lookup fast path (Exp. 10).
    pub hard_fd_lookup: bool,
    /// Parallel sub-model training (Exp. 10).
    pub parallel: bool,
}

impl Default for KaminoVariant {
    fn default() -> Self {
        KaminoVariant {
            ablation: Ablation::None,
            mcmc_ratio: 0.0,
            ar_sampling: false,
            hard_fd_lookup: false,
            parallel: false,
        }
    }
}

/// A method under evaluation: Kamino (any variant) or a baseline.
pub enum Method {
    /// Kamino with the given variant knobs.
    Kamino(KaminoVariant),
    /// One of the baseline synthesizers.
    Baseline(Box<dyn Synthesizer>),
}

impl Method {
    /// Full Kamino with defaults.
    pub fn kamino() -> Method {
        Method::Kamino(KaminoVariant::default())
    }

    /// The paper's method roster for the end-to-end tables: the four
    /// baselines followed by Kamino.
    pub fn paper_roster() -> Vec<Method> {
        vec![
            Method::Baseline(Box::new(DpVae {
                steps: 200,
                ..DpVae::default()
            })),
            Method::Baseline(Box::new(NistPgm::default())),
            Method::Baseline(Box::new(PrivBayes::default())),
            Method::Baseline(Box::new(PateGan {
                steps: 120,
                ..PateGan::default()
            })),
            Method::kamino(),
        ]
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Method::Kamino(v) => match v.ablation {
                Ablation::None if v.ar_sampling => "Kamino-AR".to_string(),
                Ablation::None => "Kamino".to_string(),
                Ablation::RandSequence => "RandSequence".to_string(),
                Ablation::RandSampling => "RandSampling".to_string(),
                Ablation::RandBoth => "RandBoth".to_string(),
            },
            Method::Baseline(b) => b.name().to_string(),
        }
    }

    /// Builds the Kamino config this harness uses (shared by every
    /// experiment so methods are compared under identical settings).
    pub fn kamino_config(budget: Budget, seed: u64, v: &KaminoVariant) -> KaminoConfig {
        let mut cfg = KaminoConfig::new(budget);
        cfg.seed = seed;
        cfg.train_scale = config::train_scale();
        cfg.embed_dim = 12;
        cfg.lr = 0.25;
        cfg.mcmc_ratio = v.mcmc_ratio;
        cfg.ar_sampling = v.ar_sampling;
        cfg.hard_fd_lookup = v.hard_fd_lookup;
        cfg.parallel_training = v.parallel;
        cfg.constraint_aware_sampling =
            !matches!(v.ablation, Ablation::RandSampling | Ablation::RandBoth);
        cfg.constraint_aware_sequencing =
            !matches!(v.ablation, Ablation::RandSequence | Ablation::RandBoth);
        cfg
    }

    /// Runs the method, returning the synthetic instance (and the full
    /// Kamino report when applicable).
    pub fn run(&self, d: &Dataset, budget: Budget, seed: u64) -> (Instance, Option<KaminoReport>) {
        match self {
            Method::Kamino(v) => {
                let cfg = Self::kamino_config(budget, seed, v);
                let report = run_kamino(&d.schema, &d.instance, &d.dcs, &cfg);
                let inst = report.instance.clone();
                (inst, Some(report))
            }
            Method::Baseline(b) => (
                b.synthesize(&d.schema, &d.instance, budget, d.instance.n_rows(), seed),
                None,
            ),
        }
    }
}

/// A baseline-only roster handle (used by Figure 1).
pub fn figure1_roster() -> Vec<Box<dyn Synthesizer>> {
    vec![
        Box::new(PrivBayes::default()),
        Box::new(PateGan {
            steps: 120,
            ..PateGan::default()
        }),
        Box::new(DpVae {
            steps: 200,
            ..DpVae::default()
        }),
    ]
}

/// Reduced classifier roster for time-budgeted experiment binaries
/// (`KAMINO_BENCH_FULL=1` switches to the full nine).
pub fn classifier_roster() -> Vec<Box<dyn kamino_eval::classifiers::Classifier>> {
    if std::env::var("KAMINO_BENCH_FULL").is_ok_and(|v| v == "1") {
        kamino_eval::classifiers::standard_nine()
    } else {
        let mut forest = kamino_eval::classifiers::RandomForest::default();
        forest.n_trees = 8;
        let mut xgb = kamino_eval::classifiers::XgbLite::default();
        xgb.rounds = 15;
        vec![
            Box::new(kamino_eval::classifiers::LogisticRegression::default()),
            Box::new(kamino_eval::classifiers::DecisionTree::default()),
            Box::new(forest),
            Box::new(xgb),
            Box::new(kamino_eval::classifiers::BernoulliNb::default()),
        ]
    }
}

/// Result aggregation + table printing.
pub mod report {
    use std::fmt::Write as _;
    use std::io::Write as _;

    /// Mean and (population) standard deviation.
    pub fn mean_std(xs: &[f64]) -> (f64, f64) {
        assert!(!xs.is_empty());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// Simple aligned table with a title; rendered to stdout and appended
    /// to `target/experiments/<file>.txt`.
    pub struct Table {
        title: String,
        header: Vec<String>,
        rows: Vec<Vec<String>>,
    }

    impl Table {
        /// New table with column headers.
        pub fn new(title: &str, header: &[&str]) -> Table {
            Table {
                title: title.to_string(),
                header: header.iter().map(|s| s.to_string()).collect(),
                rows: Vec::new(),
            }
        }

        /// Appends one row.
        pub fn row(&mut self, cells: Vec<String>) {
            assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
            self.rows.push(cells);
        }

        /// Renders the table.
        pub fn render(&self) -> String {
            let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
            for row in &self.rows {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let mut out = String::new();
            let _ = writeln!(out, "== {} ==", self.title);
            let line = |cells: &[String], widths: &[usize]| -> String {
                cells
                    .iter()
                    .zip(widths)
                    .map(|(c, w)| format!("{c:<w$}"))
                    .collect::<Vec<_>>()
                    .join("  ")
            };
            let _ = writeln!(out, "{}", line(&self.header, &widths));
            let _ = writeln!(
                out,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
            );
            for row in &self.rows {
                let _ = writeln!(out, "{}", line(row, &widths));
            }
            out
        }

        /// Prints to stdout and appends to the experiment output file.
        pub fn emit(&self, file: &str) {
            let text = self.render();
            println!("{text}");
            let dir = std::path::Path::new("target/experiments");
            let _ = std::fs::create_dir_all(dir);
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(format!("{file}.txt")))
            {
                let _ = writeln!(f, "{text}");
            }
        }
    }

    /// `12.3±0.4` formatting.
    pub fn pm(mean: f64, std: f64) -> String {
        format!("{mean:.2}±{std:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names() {
        assert_eq!(Method::kamino().name(), "Kamino");
        let names: Vec<String> = Method::paper_roster().iter().map(Method::name).collect();
        assert_eq!(
            names,
            vec!["DP-VAE", "NIST", "PrivBayes", "PATE-GAN", "Kamino"]
        );
        let v = KaminoVariant {
            ablation: Ablation::RandBoth,
            ..Default::default()
        };
        assert_eq!(Method::Kamino(v).name(), "RandBoth");
    }

    #[test]
    fn ablation_switch_wiring() {
        let budget = Budget::new(1.0, 1e-6);
        let mut v = KaminoVariant {
            ablation: Ablation::RandSampling,
            ..Default::default()
        };
        let cfg = Method::kamino_config(budget, 0, &v);
        assert!(!cfg.constraint_aware_sampling);
        assert!(cfg.constraint_aware_sequencing);
        v.ablation = Ablation::RandBoth;
        let cfg = Method::kamino_config(budget, 0, &v);
        assert!(!cfg.constraint_aware_sampling);
        assert!(!cfg.constraint_aware_sequencing);
    }

    #[test]
    fn mean_std_math() {
        let (m, s) = report::mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = report::Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["x".into(), "y".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("a  bbbb"), "got:\n{text}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = report::Table::new("demo", &["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }
}
