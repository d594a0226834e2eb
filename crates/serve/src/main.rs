//! The `kamino-serve` binary: fit Kamino models over HTTP and stream
//! synthetic rows from them.
//!
//! ```text
//! kamino-serve [--listen ADDR] [--model-dir DIR] [--threads N]
//!              [--max-models N] [--pool-batches N] [--pool-rows N]
//!              [--request-timeout SECS] [--max-queue N]
//!              [--trace-out FILE]
//! ```
//!
//! * `--listen` — bind address (default `127.0.0.1:7878`; port `0` picks
//!   an ephemeral port, printed on boot).
//! * `--model-dir` — directory of `.kamino` snapshots: existing ones are
//!   registered (lazily, without decoding) at boot; fit jobs,
//!   `POST /models/{id}/snapshot` and LRU eviction write new ones.
//! * `--threads` — worker threads for CPU-bound jobs: fits, snapshot
//!   loads, sample batches, pool refills (default 4).
//! * `--max-models` — most models resident in memory at once; the
//!   least-recently-used unpinned model is evicted to its snapshot
//!   (default 0 = unbounded; requires `--model-dir` to be useful).
//! * `--pool-batches` — pre-sampled batches kept per model (default 4;
//!   0 disables pooling).
//! * `--pool-rows` — rows per pooled batch (default 1000); `/synthesize`
//!   requests streaming in chunks of exactly this size are served from
//!   the pool.
//! * `--request-timeout` — per-request deadline in (possibly fractional)
//!   seconds. A request that cannot complete in time gets `503` +
//!   `Retry-After`; a stream already under way is terminated with a
//!   `kamino-trailer: deadline-expired` trailer (default 0 = off).
//! * `--max-queue` — bound on queued worker jobs; beyond it new
//!   `/synthesize` and snapshot work is shed with `429` + `Retry-After`,
//!   and pool speculation pauses at half the bound (default 0 = off).
//! * `--trace-out` — on shutdown, write everything the server recorded
//!   (request spans, fit phases, the budget-event stream) as a
//!   chrome://tracing JSON file. The same document is available live via
//!   `POST /debug/trace`.
//!
//! The process exits 0 after a graceful `POST /shutdown`.

use std::path::PathBuf;
use std::process::ExitCode;

use kamino_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: kamino-serve [--listen ADDR] [--model-dir DIR] [--threads N] \
         [--max-models N] [--pool-batches N] [--pool-rows N] \
         [--request-timeout SECS] [--max-queue N] [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn parse_count(name: &str, value: String) -> usize {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{name} takes a non-negative integer");
        usage()
    })
}

fn parse_args() -> (ServeConfig, Option<PathBuf>) {
    let mut cfg = ServeConfig::default();
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => cfg.listen = value("--listen"),
            "--model-dir" => cfg.model_dir = Some(PathBuf::from(value("--model-dir"))),
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--threads" => {
                cfg.threads = value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads takes a positive integer");
                    usage()
                });
                if cfg.threads == 0 {
                    eprintln!("--threads takes a positive integer");
                    usage();
                }
            }
            "--max-models" => cfg.max_models = parse_count("--max-models", value("--max-models")),
            "--pool-batches" => {
                cfg.pool_batches = parse_count("--pool-batches", value("--pool-batches"))
            }
            "--pool-rows" => cfg.pool_rows = parse_count("--pool-rows", value("--pool-rows")),
            "--request-timeout" => {
                let secs: f64 = value("--request-timeout").parse().unwrap_or(-1.0);
                if !(secs >= 0.0 && secs.is_finite()) {
                    eprintln!("--request-timeout takes a non-negative number of seconds");
                    usage();
                }
                cfg.request_timeout = std::time::Duration::from_secs_f64(secs);
            }
            "--max-queue" => cfg.max_queue = parse_count("--max-queue", value("--max-queue")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    (cfg, trace_out)
}

fn main() -> ExitCode {
    let (cfg, trace_out) = parse_args();
    // the handle is clone-cheap and shares the server's sinks, so the
    // trace written at exit contains everything the server recorded
    let obs = cfg.obs.clone();
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kamino-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("kamino-serve listening on http://{}", server.local_addr());
    let outcome = server.run();
    if let Some(path) = &trace_out {
        // kamino-lint: allow(unflushed_write) -- best-effort debug trace written at exit, not a durability surface
        match std::fs::write(path, obs.chrome_trace_json()) {
            Ok(()) => println!("kamino-serve: trace written to {}", path.display()),
            Err(e) => eprintln!(
                "kamino-serve: writing trace to {} failed: {e}",
                path.display()
            ),
        }
    }
    match outcome {
        Ok(()) => {
            println!("kamino-serve: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kamino-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
