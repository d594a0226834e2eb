//! The workloads, `adult-draw` and `tpch-fit`: fit a corpus, then draw
//! whole instances from one snapshot at a ladder of sizes; the 4000-row
//! draw plus its NDJSON encoding is the bulk request. Closed loop: each
//! operation starts when the last ends.

use std::hint::black_box;

use kamino_core::{fit_kamino, KaminoConfig};
use kamino_data::Instance;
use kamino_datasets::{Corpus, Dataset};
use kamino_dp::Budget;
use kamino_obs::clock::{now_nanos, secs_since};
use kamino_serve::pool::ndjson_rows;
use kamino_serve::{decode_fitted, encode_fitted};

use crate::checks::{check_hard_dcs, check_instance, digest, hard_dc_rates, max_rate};
use crate::cpu::{cpu_secs_since, process_cpu_ns};
use crate::layers::{self, ALL_RUNGS};
use crate::report::Report;
use crate::stats::{loglog_slope, median, peak_rss_mb};

/// The privacy budget every fit spends.
pub const EPSILON: f64 = 1.0;
/// δ of every fit.
pub const DELTA: f64 = 1e-6;

/// Rows of a small request (served path).
pub const SMALL_ROWS: usize = 100;
/// Rows of a bulk request (also the instance the hard-DC rate and the
/// replay are measured on).
pub const BULK_ROWS: usize = 4000;
/// Ladder passes at least made per run.
const MIN_PASSES: usize = 3;
/// Fit-phase repeats in the traced run.
const TRACED_FIT_REPEATS: usize = 2;
/// Interleaved untraced/traced repeats for `obs.trace_overhead_pct`.
const OVERHEAD_REPEATS: usize = 3;

/// One in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Corpus fitted.
    pub corpus: Corpus,
    /// Corpus rows.
    pub rows: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Whole-instance draw sizes, ascending; must include [`BULK_ROWS`].
    pub ladder: [usize; 4],
    /// Whether the traced run also measures the serving layers.
    pub serves: bool,
    /// Whether every hard DC must read exactly 0.0% (else within the
    /// documented FD-cycle tolerance).
    pub exact_hard_dcs: bool,
    /// Draw size timed untraced against traced for the trace overhead.
    pub overhead_rows: usize,
}

/// Adult: an order DC scored by prefix scan, so draws are quadratic.
const ADULT_DRAW: Spec = Spec {
    name: "adult-draw",
    corpus: Corpus::Adult,
    rows: 2000,
    setup_repeats: 5,
    ladder: [500, 1000, 2000, 4000],
    serves: false,
    exact_hard_dcs: true,
    overhead_rows: 2000,
};

/// TPC-H: FD-shaped DCs only, so draws are linear and the fit dominates.
const TPCH_FIT: Spec = Spec {
    name: "tpch-fit",
    corpus: Corpus::TpcH,
    rows: 4000,
    setup_repeats: 5,
    ladder: [2000, 4000, 8000, 16000],
    serves: true,
    exact_hard_dcs: false,
    overhead_rows: 16000,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 2] = [ADULT_DRAW, TPCH_FIT];

/// The pipeline configuration every fit uses: defaults plus the seed.
pub fn config(seed: u64) -> KaminoConfig {
    let mut cfg = KaminoConfig::new(Budget::new(EPSILON, DELTA));
    cfg.seed = seed;
    cfg
}

/// A fitted corpus and its snapshot.
struct Fitted {
    data: Dataset,
    bytes: Vec<u8>,
}

/// Generate → fit → snapshot, timed as a whole and for the fit alone.
fn set_up(spec: &Spec, seed: u64, report: &mut Report) -> (Fitted, f64, f64) {
    let t0 = process_cpu_ns();
    let data = spec.corpus.generate(spec.rows, seed);
    let t1 = process_cpu_ns();
    let fitted = fit_kamino(&data.schema, &data.instance, &data.dcs, &config(seed));
    let fit_s = cpu_secs_since(t1);
    let bytes = encode_fitted(&fitted);
    let restored = decode_fitted(&bytes).map(|_| ()).map_err(|e| e.to_string());
    let setup_s = cpu_secs_since(t0);
    report.check("set-up snapshot round trip", restored);
    report.check(
        "set-up ε within budget",
        within_budget(fitted.achieved_epsilon()),
    );
    (Fitted { data, bytes }, setup_s, fit_s)
}

fn within_budget(eps: f64) -> Result<(), String> {
    if eps <= EPSILON + 1e-9 {
        Ok(())
    } else {
        Err(format!("achieved ε {eps} exceeds the budget {EPSILON}"))
    }
}

/// A whole-instance draw of `n` rows from a fresh restore of `bytes`.
fn draw(bytes: &[u8], n: usize) -> Result<Instance, String> {
    let mut session = decode_fitted(bytes).map_err(|e| e.to_string())?;
    Ok(session.sample(n))
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &Spec, seed: u64, seconds: u64, report: &mut Report) {
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut fitted = None;
    for _ in 0..spec.setup_repeats {
        let (f, s, fs) = set_up(spec, seed, report);
        setup_s.push(s);
        fit_s.push(fs);
        fitted = Some(f);
    }
    let Fitted { data, bytes } = fitted.expect("at least one set-up");
    let schema = &data.schema;
    let t_start = now_nanos();

    // whole-instance draws at every ladder size, each restored from the
    // same snapshot bytes so the work repeats bit for bit
    let mut draw_s: Vec<Vec<f64>> = vec![Vec::new(); spec.ladder.len()];
    let mut digests: Vec<Option<u64>> = vec![None; spec.ladder.len()];
    let mut bulk_ms = Vec::new();
    // the slope of each pass whose draws all succeeded: the draws of one
    // pass run seconds apart, so the host's speed, which switches by up
    // to 2x in streaks of seconds, is mostly the same for all of them
    let mut pass_slopes = Vec::new();
    let mut passes = 0;
    let mut hard_rates = None;
    loop {
        let mut pass = Vec::with_capacity(spec.ladder.len());
        for (k, &n) in spec.ladder.iter().enumerate() {
            let t0 = process_cpu_ns();
            let inst = match draw(&bytes, n) {
                Ok(inst) => inst,
                Err(e) => {
                    report.check("draw", Err(e));
                    continue;
                }
            };
            let secs = cpu_secs_since(t0);
            draw_s[k].push(secs);
            pass.push((n as f64, secs));
            if n == BULK_ROWS {
                let t1 = process_cpu_ns();
                let text = ndjson_rows(schema, &inst);
                bulk_ms.push((secs + cpu_secs_since(t1)) * 1e3);
                let lines = text.lines().count();
                report.check(
                    "bulk NDJSON rows",
                    (lines == n).then_some(()).ok_or(format!("{lines} lines")),
                );
                if hard_rates.is_none() {
                    let rates = hard_dc_rates(&data.dcs, &inst);
                    report.check("hard DCs", check_hard_dcs(&rates, spec.exact_hard_dcs));
                    hard_rates = Some(rates);
                }
            }
            let d = digest(&inst);
            let same = match digests[k] {
                None => {
                    digests[k] = Some(d);
                    Ok(())
                }
                Some(first) if first == d => Ok(()),
                Some(first) => Err(format!("n={n}: digest {d:016x} != first {first:016x}")),
            };
            report.check("draw", check_instance(schema, &inst, n).and(same));
        }
        if let Some(slope) = loglog_slope(&pass).filter(|_| pass.len() == spec.ladder.len()) {
            pass_slopes.push(slope);
        }
        passes += 1;
        if passes >= MIN_PASSES && secs_since(t_start) >= seconds as f64 {
            break;
        }
    }

    let med = |xs: &[f64]| median(xs).unwrap_or(f64::INFINITY);
    let top = spec.ladder.len() - 1;
    let rates = hard_rates.unwrap_or_default();
    for (name, pct) in &rates {
        eprintln!("hard DC {name}: {pct:.4}% of tuple pairs violate");
    }
    // fit and draw costs follow the host's speed, which moves them by up
    // to 2x between runs minutes apart, so they are printed, not reported
    eprintln!(
        "fit_s: {:.4}; draw_rows_per_s (n={}): {:.1}; bulk_p50_ms: {:.1}",
        med(&fit_s),
        spec.ladder[top],
        spec.ladder[top] as f64 / med(&draw_s[top]),
        med(&bulk_ms)
    );
    report.set("setup_s", med(&setup_s), "s");
    report.set(
        "draw_scaling_exp",
        median(&pass_slopes).unwrap_or(f64::NAN),
        "1",
    );
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    report.set("hard_dc_clean_pct", 100.0 - max_rate(&rates), "%");
    eprintln!(
        "{}: {passes} ladder passes, {} fits",
        spec.name,
        fit_s.len()
    );
}

/// The traced run: every per-layer metric, a chrome trace and a table.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64, report: &mut Report) {
    let (Fitted { data, bytes }, _, _) = set_up(spec, seed, report);
    let cfg = config(seed);

    report.set(
        "datasets.generate_s",
        layers::generate_s(spec.corpus, spec.rows, seed),
        "s",
    );
    let (seq_s, train_s) = layers::fit_phases(&data, &cfg, TRACED_FIT_REPEATS);
    report.set("core.fit.sequencing_s", seq_s, "s");
    report.set("core.fit.train_s", train_s, "s");

    // one traced fit and one traced ladder pass share the exported trace
    let obs = layers::trace_handle();
    let mut traced_cfg = cfg.clone();
    traced_cfg.obs = obs.clone();
    black_box(fit_kamino(
        &data.schema,
        &data.instance,
        &data.dcs,
        &traced_cfg,
    ));
    let mut outputs = Vec::new();
    for n in ALL_RUNGS {
        let mut secs = 0.0;
        if spec.ladder.contains(&n) {
            match layers::traced_session(&bytes, &obs) {
                Ok(mut session) => {
                    let t0 = process_cpu_ns();
                    let inst = session.sample(n);
                    secs = cpu_secs_since(t0);
                    report.check("traced draw", check_instance(&data.schema, &inst, n));
                    outputs.push((n, inst));
                }
                Err(e) => report.check("traced session", Err(e)),
            }
        }
        report.set(format!("core.sampler.draw_s.n{n}"), secs, "s");
    }
    layers::record_spans(report, &obs.spans());

    let output = |n: usize| {
        outputs
            .iter()
            .find(|o| o.0 == n)
            .map(|o| Ok(o.1.clone()))
            .unwrap_or_else(|| draw(&bytes, n))
    };
    match (decode_fitted(&bytes), output(1000), output(BULK_ROWS)) {
        (Ok(fitted), Ok(out_1000), Ok(out_4000)) => {
            layers::record_replay(report, &fitted, &out_1000, &out_4000, seed);
            layers::record_codecs(report, &fitted, &out_4000);
            let rates = hard_dc_rates(&data.dcs, &out_4000);
            report.set("constraints.hard_dc_viol_pct", max_rate(&rates), "%");
        }
        _ => report.check("replay inputs", Err("could not restore or draw".into())),
    }

    // tracing cost on the same draw, untraced and traced interleaved
    let quiet = kamino_obs::ObsHandle::disabled();
    let side = layers::trace_handle();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..OVERHEAD_REPEATS {
        for (handle, out) in [(&quiet, &mut untraced), (&side, &mut traced)] {
            if let Ok(mut session) = layers::traced_session(&bytes, handle) {
                let t0 = process_cpu_ns();
                black_box(session.sample(spec.overhead_rows));
                out.push(cpu_secs_since(t0));
            }
        }
    }
    report.set(
        "obs.trace_overhead_pct",
        layers::overhead_pct(&untraced, &traced),
        "%",
    );
    if spec.serves {
        crate::serve::record_layers(seed, seconds, report);
    } else {
        for (name, unit) in SERVE_LAYERS {
            report.set(name, 0.0, unit);
        }
    }
    layers::write_artifacts(spec.name, seed, &obs, report);
}

/// The serving-only per-layer metrics, reported as 0 by a workload that
/// does not serve.
const SERVE_LAYERS: [(&str, &str); 10] = [
    ("serve.server_p50_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.pool.hit_ratio", "ratio"),
    ("serve.ledger.intents", "count"),
    ("serve.client.small_p50_ms", "ms"),
    ("serve.client.small_p99_ms", "ms"),
    ("serve.client.bulk_p50_ms", "ms"),
    ("serve.client.fit_s", "s"),
    ("serve.bulk_hard_dc_viol_pct", "%"),
    ("gen.lateness_p99_ms", "ms"),
];
