//! The serving phase of the `tpch-fit` traced run: an in-process
//! `Server` with a model directory, default pools and one worker per
//! core, driven by an open loop from this process over at most `nproc`
//! connections.
//!
//! * Small reads: `/synthesize?n=100` CSV on TPC-H model A (not
//!   pool-aligned, so drawn directly) at `SMALL_RATE_HZ`.
//! * Bulk reads: `/synthesize?n=4000&format=json` at the default batch
//!   of 1000 rows (pool-aligned) on TPC-H model B at `BULK_RATE_HZ`.
//! * Writes: a `POST /fit` of a small TPC-H model every
//!   `FIT_PERIOD_S`, polled until ready.
//!
//! Every latency is timed from the request's due time, on the wall
//! clock. On a shared virtual machine these latencies move with the
//! hypervisor's steal by more than any bound would allow, so they are
//! per-layer figures, not end-to-end metrics with a bound.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use kamino_core::fit_kamino;
use kamino_data::Schema;
use kamino_datasets::{Corpus, Dataset};
use kamino_obs::clock::now_nanos;
use kamino_obs::ObsHandle;
use kamino_serve::durable::{Ledger, LedgerRecord};
use kamino_serve::pool::ndjson_rows;
use kamino_serve::{Json, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::{
    check_hard_dcs, check_instance, hard_dc_rates, max_rate, parse_csv, parse_ndjson,
};
use crate::http::{Conn, Response};
use crate::inproc::{config, BULK_ROWS, DELTA, EPSILON, SMALL_ROWS};
use crate::layers;
use crate::report::Report;
use crate::stats::{median, Outcome};

/// Small reads per second.
const SMALL_RATE_HZ: f64 = 70.0;
/// Bulk reads per second.
const BULK_RATE_HZ: f64 = 2.0;
/// Seconds between writes (`POST /fit`).
const FIT_PERIOD_S: f64 = 2.0;
/// Corpus rows of the read models A and B.
const MODEL_ROWS: usize = 1000;
/// Corpus rows of each written model.
const WRITE_ROWS: usize = 400;
/// Rows per batch of a bulk stream: the server's default pool batch.
const BULK_BATCH: usize = 1000;
/// Poll interval while a fit is pending.
const POLL_NS: u64 = 5_000_000;
/// `/metrics` scrape interval in the traced run (queue-depth samples).
const SCRAPE_NS: u64 = 250_000_000;
/// Lead time before the first due request.
const LEAD_NS: u64 = 50_000_000;

/// The inputs of one fitted model: corpus rows, fit seed, data seed.
#[derive(Debug, Clone, Copy)]
struct ModelSpec {
    rows: usize,
    seed: u64,
    data_seed: u64,
}

impl ModelSpec {
    fn body(&self) -> String {
        format!(
            "{{\"corpus\":\"tpch\",\"rows\":{},\"seed\":{},\"data_seed\":{},\"epsilon\":{EPSILON},\"delta\":{DELTA}}}",
            self.rows, self.seed, self.data_seed
        )
    }

    fn dataset(&self) -> Dataset {
        Corpus::TpcH.generate(self.rows, self.data_seed)
    }
}

fn model_a(seed: u64) -> ModelSpec {
    ModelSpec {
        rows: MODEL_ROWS,
        seed: seed * 16 + 1,
        data_seed: seed * 16 + 1,
    }
}

fn model_b(seed: u64) -> ModelSpec {
    ModelSpec {
        rows: MODEL_ROWS,
        seed: seed * 16 + 2,
        data_seed: seed * 16 + 2,
    }
}

fn write_model(seed: u64) -> ModelSpec {
    ModelSpec {
        rows: WRITE_ROWS,
        seed: seed * 16 + 3,
        data_seed: seed * 16 + 3,
    }
}

fn small_path(id: u64) -> String {
    format!("/models/{id}/synthesize?n={SMALL_ROWS}")
}

fn bulk_path(id: u64) -> String {
    format!("/models/{id}/synthesize?n={BULK_ROWS}&batch={BULK_BATCH}&format=json")
}

/// A running server and what the set-up learned.
struct Live {
    addr: SocketAddr,
    handle: thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
    model_a: u64,
    model_b: u64,
    fits_posted: usize,
    warm_bulk: String,
}

fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_is(r: &std::io::Result<Response>, code: u16) -> Result<&Response, String> {
    match r {
        Ok(resp) if resp.status == code => Ok(resp),
        Ok(resp) => Err(format!("status {} ({})", resp.status, resp.text().trim())),
        Err(e) => Err(e.to_string()),
    }
}

/// `POST /fit`: the new model's id.
fn post_fit(conn: &mut Conn, spec: &ModelSpec) -> Result<u64, String> {
    let r = conn.request("POST", "/fit", spec.body().as_bytes());
    let resp = status_is(&r, 202)?;
    Json::parse(&resp.text())
        .ok()
        .and_then(|j| j.get("model_id").and_then(Json::as_u64))
        .ok_or_else(|| "no model_id in the reply".to_string())
}

/// `GET /models/{id}`: `Some(true)` once ready, `Some(false)` while
/// fitting, `Err` on failure.
fn poll_fit(conn: &mut Conn, id: u64) -> Result<bool, String> {
    let r = conn.request("GET", &format!("/models/{id}"), b"");
    let resp = status_is(&r, 200)?;
    let status = Json::parse(&resp.text())
        .ok()
        .and_then(|j| j.get("status").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default();
    match status.as_str() {
        "ready" | "unloaded" => Ok(true),
        "fitting" => Ok(false),
        other => Err(format!("model {id} is `{other}`")),
    }
}

fn wait_ready(conn: &mut Conn, id: u64) -> Result<(), String> {
    while !poll_fit(conn, id)? {
        thread::sleep(Duration::from_nanos(POLL_NS));
    }
    Ok(())
}

/// Boots a server on `dir`, fits models A and B concurrently, and makes
/// one small and one bulk request (pool warm-up).
fn set_up(seed: u64, dir: &Path, obs: ObsHandle) -> Result<Live, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        model_dir: Some(dir.to_path_buf()),
        threads: nproc(),
        obs,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    let mut live = Live {
        addr,
        handle,
        dir: dir.to_path_buf(),
        model_a: 0,
        model_b: 0,
        fits_posted: 0,
        warm_bulk: String::new(),
    };
    let mut conn = Conn::new(addr);
    let warmed = (|| {
        live.model_a = post_fit(&mut conn, &model_a(seed))?;
        live.fits_posted += 1;
        live.model_b = post_fit(&mut conn, &model_b(seed))?;
        live.fits_posted += 1;
        wait_ready(&mut conn, live.model_a)?;
        wait_ready(&mut conn, live.model_b)?;
        let r = conn.request("POST", &small_path(live.model_a), b"");
        status_is(&r, 200)?;
        let r = conn.request("POST", &bulk_path(live.model_b), b"");
        live.warm_bulk = status_is(&r, 200)?.text();
        Ok::<(), String>(())
    })();
    match warmed {
        Ok(()) => Ok(live),
        Err(e) => {
            let _ = shut_down(live);
            Err(e)
        }
    }
}

/// `POST /shutdown`, joins the server and returns the ledger's records.
fn shut_down(live: Live) -> Result<Vec<LedgerRecord>, String> {
    let mut conn = Conn::new(live.addr);
    let sent = conn.request("POST", "/shutdown", b"");
    let joined = match live.handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server exited with {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    };
    let ledger = Ledger::open(&live.dir)
        .map(|(_, replay)| replay.records)
        .map_err(|e| format!("ledger: {e}"));
    let _ = std::fs::remove_dir_all(&live.dir);
    status_is(&sent, 200)?;
    joined?;
    ledger
}

/// What a scheduled operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Small,
    Bulk,
    Fit(usize),
    Scrape,
}

/// One lane: the operations one connection sends, in due order.
type Lane = Vec<(u64, Op)>;

/// Results of one lane.
#[derive(Default)]
struct LaneOut {
    outcomes: Vec<(Op, Outcome)>,
    bodies: Vec<(Op, usize, String)>,
    queue_depth_max: f64,
    fits_posted: usize,
}

fn run_lane(addr: SocketAddr, lane: Lane, a: u64, b: u64, seed: u64) -> LaneOut {
    let mut conn = Conn::new(addr);
    let mut out = LaneOut::default();
    let mut pending: Option<(usize, u64, u64, u64)> = None; // (fit, id, due, sent)
    let mut next_poll = 0u64;
    let mut queue = lane.into_iter().peekable();
    loop {
        let next_due = queue.peek().map(|e| e.0);
        let poll_due = pending.map(|_| next_poll);
        let (due, is_poll) = match (next_due, poll_due) {
            (None, None) => break,
            (Some(d), Some(p)) if p < d => (p, true),
            (Some(d), _) => (d, false),
            (None, Some(p)) => (p, true),
        };
        let now = now_nanos();
        if due > now {
            thread::sleep(Duration::from_nanos(due - now));
        }
        if is_poll {
            let (fit, id, fit_due, sent) = pending.expect("poll implies a pending fit");
            match poll_fit(&mut conn, id) {
                Ok(false) => next_poll = now_nanos() + POLL_NS,
                done => {
                    let ok = done.is_ok();
                    if let Err(e) = done {
                        eprintln!("fit {fit} failed: {e}");
                    }
                    let o = Outcome {
                        due_ns: fit_due,
                        sent_ns: sent,
                        done_ns: now_nanos(),
                        ok,
                    };
                    out.outcomes.push((Op::Fit(fit), o));
                    pending = None;
                }
            }
            continue;
        }
        let (due, op) = queue.next().expect("peeked above");
        let sent = now_nanos();
        match op {
            Op::Small | Op::Bulk => {
                let path = if op == Op::Small {
                    small_path(a)
                } else {
                    bulk_path(b)
                };
                let r = conn.request("POST", &path, b"");
                let done = now_nanos();
                let ok = match status_is(&r, 200) {
                    Ok(resp) => {
                        out.bodies.push((op, out.outcomes.len(), resp.text()));
                        true
                    }
                    Err(e) => {
                        eprintln!("{op:?} request failed: {e}");
                        false
                    }
                };
                out.outcomes.push((
                    op,
                    Outcome {
                        due_ns: due,
                        sent_ns: sent,
                        done_ns: done,
                        ok,
                    },
                ));
            }
            Op::Fit(i) => {
                out.fits_posted += 1;
                match post_fit(&mut conn, &write_model(seed)) {
                    Ok(id) => {
                        pending = Some((i, id, due, sent));
                        next_poll = now_nanos() + POLL_NS;
                    }
                    Err(e) => {
                        eprintln!("fit {i} refused: {e}");
                        let o = Outcome {
                            due_ns: due,
                            sent_ns: sent,
                            done_ns: now_nanos(),
                            ok: false,
                        };
                        out.outcomes.push((op, o));
                    }
                }
            }
            Op::Scrape => {
                if let Ok(resp) = conn.request("GET", "/metrics", b"") {
                    let m = parse_metrics(&resp.text());
                    let depth = m.get("kamino_queue_depth").copied().unwrap_or(0.0);
                    out.queue_depth_max = out.queue_depth_max.max(depth);
                }
            }
        }
    }
    out
}

/// The open-loop schedule: small reads and writes on lane 0, bulk reads
/// and `/metrics` scrapes on the last lane.
fn schedule(seed: u64, seconds: u64, lanes: usize) -> Vec<Lane> {
    // kamino-lint: allow(raw_rng) -- seeded jitter of the benchmark's request schedule, not a DP mechanism
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE2_10AD);
    let base = now_nanos() + LEAD_NS;
    let span_ns = seconds * 1_000_000_000;
    let mut small = Vec::new();
    let gap = 1e9 / SMALL_RATE_HZ;
    let n_small = (SMALL_RATE_HZ * seconds as f64).round() as usize;
    for k in 0..n_small {
        let jitter = rng.gen::<f64>() * gap * 0.5;
        small.push((base + (k as f64 * gap + jitter) as u64, Op::Small));
    }
    let mut rest = Vec::new();
    let bulk_gap = (1e9 / BULK_RATE_HZ) as u64;
    let mut t = bulk_gap / 2;
    while t < span_ns {
        rest.push((base + t, Op::Bulk));
        t += bulk_gap;
    }
    let fit_gap = (FIT_PERIOD_S * 1e9) as u64;
    let (mut t, mut i) = (fit_gap / 2 + bulk_gap / 4, 0);
    while t < span_ns {
        rest.push((base + t, Op::Fit(i)));
        t += fit_gap;
        i += 1;
    }
    let mut t = SCRAPE_NS / 3;
    while t < span_ns {
        rest.push((base + t, Op::Scrape));
        t += SCRAPE_NS;
    }
    // writes and their polls ride with the short small reads, so a bulk
    // stream never delays noticing that a fit is ready
    let (fits, bulk): (Vec<_>, Vec<_>) = rest.into_iter().partition(|e| matches!(e.1, Op::Fit(_)));
    small.extend(fits);
    let mut out = if lanes >= 2 {
        vec![small, bulk]
    } else {
        small.extend(bulk);
        vec![small]
    };
    for lane in &mut out {
        lane.sort_by_key(|e| e.0);
    }
    out
}

/// `name value` lines of a Prometheus text body (labels kept in the key).
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            let v = if v == "+Inf" {
                f64::INFINITY
            } else {
                v.parse().ok()?
            };
            Some((k.to_string(), v))
        })
        .collect()
}

/// Median of the server's `/synthesize` request-duration histogram, in
/// ms, interpolated linearly within the bucket that holds it.
fn histogram_p50_ms(metrics: &BTreeMap<String, f64>) -> f64 {
    let mut buckets: BTreeMap<u64, f64> = BTreeMap::new();
    for (k, v) in metrics {
        if !(k.starts_with("kamino_http_request_duration_seconds_bucket")
            && k.contains("synthesize"))
        {
            continue;
        }
        let le = k
            .split("le=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .map(|s| {
                if s == "+Inf" {
                    f64::INFINITY
                } else {
                    s.parse().unwrap_or(f64::NAN)
                }
            });
        if let Some(le) = le.filter(|x| !x.is_nan()) {
            *buckets.entry(le.to_bits()).or_default() += v;
        }
    }
    let mut cum: Vec<(f64, f64)> = buckets
        .into_iter()
        .map(|(b, c)| (f64::from_bits(b), c))
        .collect();
    cum.sort_by(|x, y| x.0.total_cmp(&y.0));
    let Some(total) = cum.last().map(|c| c.1).filter(|&t| t > 0.0) else {
        return 0.0;
    };
    let half = total / 2.0;
    let mut prev = (0.0, 0.0);
    for &(le, c) in &cum {
        if c >= half {
            if !le.is_finite() {
                return prev.0 * 1e3;
            }
            let frac = if c > prev.1 {
                (half - prev.1) / (c - prev.1)
            } else {
                1.0
            };
            return (prev.0 + frac * (le - prev.0)) * 1e3;
        }
        prev = (le, c);
    }
    0.0
}

/// Everything one measured phase produced.
struct Phase {
    outcomes: Vec<(Op, Outcome)>,
    queue_depth_max: f64,
    metrics: BTreeMap<String, f64>,
    ledger: Vec<LedgerRecord>,
    fits_total: usize,
}

/// Runs the open loop against `live`, checks every reply, scrapes
/// `/metrics` and shuts the server down.
fn measure(live: Live, seed: u64, seconds: u64, report: &mut Report) -> Phase {
    let schema_a = model_a(seed).dataset().schema;
    let schema_b = model_b(seed).dataset().schema;
    let lanes = schedule(seed, seconds, nproc().min(2));
    let (a, b, addr) = (live.model_a, live.model_b, live.addr);
    let outs: Vec<LaneOut> = thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| s.spawn(move || run_lane(addr, lane, a, b, seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::new();
    let mut queue_depth_max: f64 = 0.0;
    let mut fits_total = live.fits_posted;
    for mut lane in outs {
        for (op, idx, body) in &lane.bodies {
            let checked = check_body(*op, body, &schema_a, &schema_b);
            if let Err(e) = checked {
                report.fail(format!("{op:?} reply: {e}"));
                lane.outcomes[*idx].1.ok = false;
            }
        }
        outcomes.extend(lane.outcomes);
        queue_depth_max = queue_depth_max.max(lane.queue_depth_max);
        fits_total += lane.fits_posted;
    }
    let mut conn = Conn::new(addr);
    let metrics = conn
        .request("GET", "/metrics", b"")
        .map(|r| parse_metrics(&r.text()))
        .unwrap_or_default();
    let ledger = match shut_down(live) {
        Ok(records) => records,
        Err(e) => {
            report.fail(format!("shutdown: {e}"));
            Vec::new()
        }
    };
    Phase {
        outcomes,
        queue_depth_max,
        metrics,
        ledger,
        fits_total,
    }
}

fn check_body(op: Op, body: &str, schema_a: &Schema, schema_b: &Schema) -> Result<(), String> {
    match op {
        Op::Small => check_instance(schema_a, &parse_csv(schema_a, body)?, SMALL_ROWS),
        Op::Bulk => check_instance(schema_b, &parse_ndjson(schema_b, body)?, BULK_ROWS),
        _ => Ok(()),
    }
}

/// Checks the set-up's warm-up bulk reply: byte-identical to the same
/// fit drawn in process in pool-sized batches, each batch within the
/// hard-DC tolerance. Returns the whole reply's hard-DC rates, which
/// count cross-batch pairs.
fn check_warm_up(seed: u64, bulk: &str, report: &mut Report) -> Vec<(String, f64)> {
    let spec = model_b(seed);
    let data = spec.dataset();
    let mut twin = fit_kamino(&data.schema, &data.instance, &data.dcs, &config(spec.seed));
    let mut expected = String::new();
    let mut batch_rates = Vec::new();
    for _ in 0..BULK_ROWS / BULK_BATCH {
        let inst = twin.sample(BULK_BATCH);
        batch_rates.push(hard_dc_rates(&data.dcs, &inst));
        expected.push_str(&ndjson_rows(&data.schema, &inst));
    }
    report.check(
        "bulk reply equals the in-process draw",
        (expected == bulk)
            .then_some(())
            .ok_or("served bulk bytes differ from the library's".to_string()),
    );
    for rates in &batch_rates {
        report.check("hard DCs within each batch", check_hard_dcs(rates, false));
    }
    match parse_ndjson(&data.schema, bulk) {
        Ok(inst) => hard_dc_rates(&data.dcs, &inst),
        Err(e) => {
            report.fail(format!("warm-up bulk reply: {e}"));
            Vec::new()
        }
    }
}

/// Checks the durable ledger against the fits posted: one intent per
/// fit, and `kamino_ledger_epsilon_total` = fits × ε.
fn check_ledger(phase: &Phase, report: &mut Report) -> usize {
    let intents = phase
        .ledger
        .iter()
        .filter(|r| matches!(r, LedgerRecord::FitIntent { .. }))
        .count();
    report.check(
        "ledger intents",
        (intents == phase.fits_total)
            .then_some(())
            .ok_or(format!("{intents} intents for {} fits", phase.fits_total)),
    );
    let eps = phase.metrics.get("kamino_ledger_epsilon_total").copied();
    let want = phase.fits_total as f64 * EPSILON;
    report.check(
        "kamino_ledger_epsilon_total",
        match eps {
            Some(e) if (e - want).abs() < 1e-9 => Ok(()),
            other => Err(format!("{other:?}, expected {want}")),
        },
    );
    intents
}

/// The serving layers: sets up a traced server, runs the open loop for
/// `seconds`, checks every reply, the ledger and the warm-up bulk reply,
/// and records the `serve.*` and `gen.*` per-layer metrics.
pub fn record_layers(seed: u64, seconds: u64, report: &mut Report) {
    let obs = layers::trace_handle();
    let dir = layers::out_dir().join(format!("serve-{}", std::process::id()));
    let live = set_up(seed, &dir, obs.clone());
    report.check(
        "serve set-up",
        live.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let Ok(live) = live else { return };
    let bulk_rates = check_warm_up(seed, &live.warm_bulk, report);
    let phase = measure(live, seed, seconds, report);
    let intents = check_ledger(&phase, report);
    report
        .tally
        .record_all(&phase.outcomes.iter().map(|p| p.1).collect::<Vec<_>>());

    let lat = |want: fn(&Op) -> bool| -> Vec<f64> {
        phase
            .outcomes
            .iter()
            .filter(|(op, _)| want(op))
            .map(|(_, o)| o.latency_ms())
            .collect()
    };
    let small = lat(|op| *op == Op::Small);
    let bulk = lat(|op| *op == Op::Bulk);
    let fits = lat(|op| matches!(op, Op::Fit(_)));
    let med = |xs: &[f64]| median(xs).unwrap_or(f64::INFINITY);
    report.set("serve.client.small_p50_ms", med(&small), "ms");
    let small_p99 = report.tail(&small, 99.0);
    report.set("serve.client.small_p99_ms", small_p99, "ms");
    report.set("serve.client.bulk_p50_ms", med(&bulk), "ms");
    report.set("serve.client.fit_s", med(&fits) / 1e3, "s");
    report.set("serve.bulk_hard_dc_viol_pct", max_rate(&bulk_rates), "%");
    eprintln!(
        "serving: {} small, {} bulk, {} fits",
        small.len(),
        bulk.len(),
        fits.len()
    );

    // only bulk batches are pool-aligned (small requests always miss):
    // the warm-up reply plus every bulk reply of the measured phase
    let hits = phase
        .metrics
        .get("kamino_pool_hits_total")
        .copied()
        .unwrap_or(0.0);
    let bulk_replies = 1 + phase
        .outcomes
        .iter()
        .filter(|(op, o)| *op == Op::Bulk && o.ok)
        .count();
    let bulk_batches = (bulk_replies * (BULK_ROWS / BULK_BATCH)) as f64;
    let lateness: Vec<f64> = phase
        .outcomes
        .iter()
        .map(|(_, o)| o.lateness_ms())
        .collect();
    report.set(
        "serve.server_p50_ms",
        histogram_p50_ms(&phase.metrics),
        "ms",
    );
    report.set("serve.queue_depth_max", phase.queue_depth_max, "count");
    report.set("serve.pool.hit_ratio", hits / bulk_batches, "ratio");
    report.set("serve.ledger.intents", intents as f64, "count");
    let lateness_p99 = report.tail(&lateness, 99.0);
    report.set("gen.lateness_p99_ms", lateness_p99, "ms");
    let server_spans = layers::span_self_totals(&obs.spans());
    report.set(
        "span.serve.request_s",
        server_spans.get("serve.request").copied().unwrap_or(0.0),
        "s",
    );
}
