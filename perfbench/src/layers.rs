//! Per-layer measurements for the traced run (`--trace 1`): timings of
//! the public calls each layer exposes, taken from the benchmark side,
//! next to the self time of the spans the program already records.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;

use kamino_constraints::{CandidateRow, CellContext, DenialConstraint, Hardness, ScoreSet};
use kamino_core::params::SearchShape;
use kamino_core::snapshot::{decode_model, encode_model};
use kamino_core::train::{count_marginal_releases, count_sgd_models};
use kamino_core::{
    active_dcs_by_position, search_params, sequence_attrs, train_model, FittedKamino, KaminoConfig,
    TrainConfig,
};
use kamino_data::{AttrKind, ByteReader, ByteWriter, Instance, Schema, Value};
use kamino_datasets::{Corpus, Dataset};
use kamino_obs::{ObsHandle, SpanRecord};
use kamino_serve::pool::ndjson_rows;
use kamino_serve::{decode_fitted, encode_fitted};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cpu::{cpu_secs_since, process_cpu_ns};
use crate::report::Report;
use crate::stats::{median, self_time_ns};

/// Every ladder size any workload draws; `core.sampler.draw_s.n<N>` is
/// reported for each, 0 where `N` is not on the workload's ladder.
pub const ALL_RUNGS: [usize; 6] = [500, 1000, 2000, 4000, 8000, 16000];

/// Spans whose total self time the traced run reports as `span.<name>_s`
/// (`sample.fill` is reported as `core.sampler.fill_s`).
pub const SPANS: [&str; 8] = [
    "fit",
    "fit.sequencing",
    "fit.training",
    "fit.dc_weights",
    "sample",
    "sample.repair",
    "sample.mcmc",
    "serve.request",
];

/// Extra replay candidates per cell, beside the committed value: the
/// sampler's default candidate-set size is 10.
const REPLAY_EXTRA_CANDIDATES: usize = 9;

/// Repeats of the cheap codec and encoding timings.
const CODEC_REPEATS: usize = 20;

/// Span ring capacity for traced runs (the default drops spans).
const TRACE_SPAN_CAP: usize = 1 << 17;

/// An enabled obs handle large enough to keep every span of a run.
pub fn trace_handle() -> ObsHandle {
    ObsHandle::with_caps(TRACE_SPAN_CAP, 4096)
}

/// Median seconds of `reps` runs of `f`.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = process_cpu_ns();
            f();
            cpu_secs_since(t0)
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// A session restored from `bytes` that records into `obs`. Snapshots
/// never persist an obs handle, so the model is cloned through its own
/// public codec and the session reassembled around the handle.
pub fn traced_session(bytes: &[u8], obs: &ObsHandle) -> Result<FittedKamino, String> {
    let f = decode_fitted(bytes).map_err(|e| e.to_string())?;
    let mut w = ByteWriter::new();
    encode_model(f.model(), &mut w);
    let model_bytes = w.into_bytes();
    let model = decode_model(&mut ByteReader::new(&model_bytes)).map_err(|e| e.to_string())?;
    let mut cfg = f.config().clone();
    cfg.obs = obs.clone();
    Ok(FittedKamino::from_parts(
        f.sequence.clone(),
        f.weights.clone(),
        f.params.clone(),
        f.timings,
        f.schema().clone(),
        f.dcs().to_vec(),
        model,
        cfg,
        f.n_input(),
        f.rng_state(),
    ))
}

/// `datasets.generate_s`: median time of `Corpus::generate`.
pub fn generate_s(corpus: Corpus, rows: usize, seed: u64) -> f64 {
    time_median(CODEC_REPEATS, || {
        black_box(corpus.generate(rows, seed));
    })
}

/// `core.fit.sequencing_s` and `core.fit.train_s`: Algorithm 1's
/// lines 2–4 through the public calls `fit_kamino` is made of, median
/// of `reps` runs each.
pub fn fit_phases(data: &Dataset, cfg: &KaminoConfig, reps: usize) -> (f64, f64) {
    let (schema, dcs) = (&data.schema, &data.dcs);
    let mut seq_s = Vec::new();
    let mut train_s = Vec::new();
    for _ in 0..reps {
        let t0 = process_cpu_ns();
        let sequence = sequence_attrs(schema, dcs);
        let shape = SearchShape {
            n: data.instance.n_rows(),
            n_sgd_models: count_sgd_models(schema, &sequence, cfg.large_domain_threshold),
            n_marginal_releases: count_marginal_releases(
                schema,
                &sequence,
                cfg.large_domain_threshold,
            ),
            first_attr_domain: schema.attr(sequence[0]).domain_size(),
            weights_unknown: dcs.iter().any(|dc| dc.hardness == Hardness::Soft),
            train_scale: cfg.train_scale,
        };
        let params = search_params(cfg.budget, shape);
        seq_s.push(cpu_secs_since(t0));
        let t1 = process_cpu_ns();
        let tc = TrainConfig {
            embed_dim: cfg.embed_dim,
            lr: cfg.lr,
            batch: params.b,
            iters: params.t,
            clip: params.clip,
            sigma_g: params.sigma_g,
            sigma_d: params.sigma_d,
            parallel: cfg.parallel_training,
            microbatch_parallel: cfg.parallel_substrate,
            large_domain_threshold: cfg.large_domain_threshold,
            seed: cfg.seed,
        };
        black_box(train_model(schema, &data.instance, &sequence, &tc));
        train_s.push(cpu_secs_since(t1));
    }
    (
        median(&seq_s).unwrap_or(0.0),
        median(&train_s).unwrap_or(0.0),
    )
}

/// Total self time, in seconds, of the spans of each name.
pub fn span_self_totals(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.dur_ns));
        }
    }
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let own = self_time_ns(s.start_ns, s.dur_ns, kids) as f64 / 1e9;
        *totals.entry(s.name.to_string()).or_default() += own;
    }
    totals
}

/// Records `span.<name>_s` for [`SPANS`] and `core.sampler.fill_s`.
pub fn record_spans(report: &mut Report, spans: &[SpanRecord]) {
    let totals = span_self_totals(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    for name in SPANS {
        report.set(format!("span.{name}_s"), get(name), "s");
    }
    report.set("core.sampler.fill_s", get("sample.fill"), "s");
}

/// What one replay of constraint scoring did.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Wall time of the replay.
    pub secs: f64,
    /// Candidates scored.
    pub candidates: u64,
    /// Prefix rows the scorers visited (Σ `DcScorer::scan_cost` per
    /// candidate).
    pub prefix_rows: u64,
}

/// Replays Algorithm 3's constraint scoring over a finished output:
/// per sequence position, `ScoreSet::build`, then for each row score the
/// committed value plus a fixed seeded candidate set, then `insert` the
/// committed row. The counts repeat exactly for a given output.
pub fn replay_scoring(
    schema: &Schema,
    sequence: &[usize],
    dcs: &[DenialConstraint],
    weights: &[f64],
    inst: &Instance,
    seed: u64,
) -> Replay {
    let active = active_dcs_by_position(sequence, dcs);
    // kamino-lint: allow(raw_rng) -- benchmark-side replay candidates: post-processing of a finished output, no DP mechanism
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1_AB1E);
    let extra: Vec<Vec<Value>> = sequence
        .iter()
        .map(|&a| {
            (0..REPLAY_EXTRA_CANDIDATES)
                .map(|_| random_value(&schema.attr(a).kind, &mut rng))
                .collect()
        })
        .collect();
    let mut candidates = 0u64;
    let mut prefix_rows = 0u64;
    let mut values = Vec::with_capacity(REPLAY_EXTRA_CANDIDATES + 1);
    let mut out = Vec::new();
    let t0 = process_cpu_ns();
    for (pos, &attr) in sequence.iter().enumerate() {
        let mut set = ScoreSet::build(&active[pos], dcs);
        if set.is_empty() {
            continue;
        }
        for i in 0..inst.n_rows() {
            values.clear();
            values.push(inst.value(i, attr));
            values.extend_from_slice(&extra[pos]);
            let per_candidate: usize = set.iter().map(|(_, c)| c.scorer().scan_cost()).sum();
            set.score_candidates_into(
                CellContext::new(inst, i, attr),
                &values,
                weights,
                true,
                &mut out,
            );
            black_box(&out);
            candidates += values.len() as u64;
            prefix_rows += (values.len() * per_candidate) as u64;
            set.insert(&CandidateRow::committed(inst, i, attr));
        }
    }
    Replay {
        secs: cpu_secs_since(t0),
        candidates,
        prefix_rows,
    }
}

fn random_value(kind: &AttrKind, rng: &mut StdRng) -> Value {
    match kind {
        AttrKind::Categorical { labels } => Value::Cat(rng.gen_range(0..labels.len() as u32)),
        AttrKind::Numeric {
            min, max, integer, ..
        } => {
            let x = min + (max - min) * rng.gen::<f64>();
            Value::Num(if *integer {
                x.round().clamp(*min, *max)
            } else {
                x
            })
        }
    }
}

/// Records the `constraints.*` replay metrics for the n=4000 output and
/// the per-candidate prefix visits at n=1000 and n=4000.
pub fn record_replay(
    report: &mut Report,
    fitted: &FittedKamino,
    out_1000: &Instance,
    out_4000: &Instance,
    seed: u64,
) {
    let replay = |inst: &Instance| {
        replay_scoring(
            fitted.schema(),
            &fitted.sequence,
            fitted.dcs(),
            &fitted.weights,
            inst,
            seed,
        )
    };
    let small = replay(out_1000);
    let big = replay(out_4000);
    let per = |r: &Replay| r.prefix_rows as f64 / r.candidates.max(1) as f64;
    report.set("constraints.score_replay_s", big.secs, "s");
    report.set(
        "constraints.candidates_scored",
        big.candidates as f64,
        "count",
    );
    report.set(
        "constraints.prefix_rows_visited",
        big.prefix_rows as f64,
        "count",
    );
    report.set(
        "constraints.prefix_rows_per_candidate.n1000",
        per(&small),
        "rows",
    );
    report.set(
        "constraints.prefix_rows_per_candidate.n4000",
        per(&big),
        "rows",
    );
}

/// Records `serve.snapshot.*` and the per-1000-row encoding costs.
pub fn record_codecs(report: &mut Report, fitted: &FittedKamino, out_4000: &Instance) {
    let bytes = encode_fitted(fitted);
    let enc = time_median(CODEC_REPEATS, || {
        black_box(encode_fitted(fitted));
    });
    let dec = time_median(CODEC_REPEATS, || {
        black_box(decode_fitted(&bytes).is_ok());
    });
    report.set("serve.snapshot.encode_s", enc, "s");
    report.set("serve.snapshot.decode_s", dec, "s");
    report.set("serve.snapshot.bytes", bytes.len() as f64, "bytes");
    let krows = out_4000.n_rows() as f64 / 1000.0;
    let schema = fitted.schema();
    let csv = time_median(CODEC_REPEATS, || {
        black_box(kamino_data::csv::rows_text(schema, out_4000).is_ok());
    });
    let ndjson = time_median(CODEC_REPEATS, || {
        black_box(ndjson_rows(schema, out_4000));
    });
    report.set("data.csv_encode_s_per_krow", csv / krows, "s");
    report.set("serve.ndjson_encode_s_per_krow", ndjson / krows, "s");
}

/// `100 × (traced − untraced) / untraced` over medians.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    match (median(untraced), median(traced)) {
        (Some(u), Some(t)) if u > 0.0 => 100.0 * (t - u) / u,
        _ => 0.0,
    }
}

/// Where the traced run writes its chrome trace and per-layer table.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `<workload>-seed<seed>.trace.json` (chrome://tracing) and
/// `<workload>-seed<seed>.layers.md` under [`out_dir`].
pub fn write_artifacts(workload: &str, seed: u64, obs: &ObsHandle, report: &Report) {
    let dir = out_dir();
    let stem = format!("{workload}-seed{seed}");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                obs.chrome_trace_json(),
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.md")), report.table()));
    match written {
        Ok(()) => eprintln!("wrote {}/{stem}.{{trace.json,layers.md}}", dir.display()),
        Err(e) => eprintln!("could not write trace artifacts: {e}"),
    }
}
