//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use kamino_perfbench::inproc::{self, Spec, WORKLOADS};
use kamino_perfbench::report::Report;
use kamino_perfbench::stats::{cpu_counters, steal_pct};

/// Settings that would make the run measure something other than the
/// default configuration.
const REFUSED_ENV: [&str; 2] = ["KAMINO_SHARDS", "RAYON_NUM_THREADS"];

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {names:?})")
    })?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; unset it so the default configuration is measured");
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let before = cpu_counters();
    if args.trace {
        inproc::run_traced(args.workload, args.seed, args.seconds, &mut report);
    } else {
        inproc::run(args.workload, args.seed, args.seconds, &mut report);
    }
    // hypervisor steal stretches wall time; it is reported so that
    // wall-clock figures can be read against it
    let steal = match (before, cpu_counters()) {
        (Some(a), Some(b)) => steal_pct(a, b),
        _ => 0.0,
    };
    eprintln!("machine CPU time stolen by the hypervisor during the run: {steal:.2}%");
    if args.trace {
        report.set("env.steal_pct", steal, "%");
    }
    print!("{}", report.table());
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
