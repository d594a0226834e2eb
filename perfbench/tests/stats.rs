//! The benchmark's own arithmetic.

use kamino_perfbench::report::Report;
use kamino_perfbench::stats::{
    highest_supported_percentile, loglog_slope, median, parse_proc_stat_cpu, parse_vm_hwm_kb,
    percentile, samples_beyond, self_time_ns, steal_pct, Outcome, Tally,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn nearest_rank_percentiles() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Some(500.0));
    assert_eq!(percentile(&xs, 99.0), Some(990.0));
    assert_eq!(percentile(&xs, 100.0), Some(1000.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(1000, 99.9), 1);
    assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
    assert_eq!(highest_supported_percentile(999, 10), Some(95.0));
    assert_eq!(highest_supported_percentile(10_000, 10), Some(99.9));
    assert_eq!(highest_supported_percentile(200, 10), Some(95.0));
    assert_eq!(highest_supported_percentile(100, 10), Some(90.0));
    assert_eq!(highest_supported_percentile(19, 10), None);
    assert_eq!(highest_supported_percentile(20, 10), Some(50.0));
}

#[test]
fn loglog_slope_recovers_power_laws() {
    let quad: Vec<(f64, f64)> = [500.0, 1000.0, 2000.0, 4000.0]
        .iter()
        .map(|&n: &f64| (n, 3e-7 * n * n))
        .collect();
    assert!((loglog_slope(&quad).unwrap() - 2.0).abs() < 1e-12);
    let lin: Vec<(f64, f64)> = [2.0, 4.0, 8.0].iter().map(|&n| (n, 5.0 * n)).collect();
    assert!((loglog_slope(&lin).unwrap() - 1.0).abs() < 1e-12);
    // noisy points: the least-squares fit, not the end-to-end ratio
    let pts = [(1.0, 1.0), (2.0, 2.2), (4.0, 3.9)];
    let s = loglog_slope(&pts).unwrap();
    assert!(s > 0.9 && s < 1.0, "{s}");
    assert_eq!(loglog_slope(&[(3.0, 1.0), (3.0, 2.0)]), None);
    assert_eq!(loglog_slope(&[(1.0, 0.0), (2.0, 1.0)]), None);
}

#[test]
fn open_loop_latency_is_timed_from_the_due_time() {
    let on_time = Outcome {
        due_ns: 1_000_000,
        sent_ns: 1_000_000,
        done_ns: 4_000_000,
        ok: true,
    };
    assert_eq!(on_time.latency_ms(), 3.0);
    assert_eq!(on_time.lateness_ms(), 0.0);
    // sent 5 ms late behind a stall: the wait counts toward latency
    let late = Outcome {
        due_ns: 10_000_000,
        sent_ns: 15_000_000,
        done_ns: 17_000_000,
        ok: true,
    };
    assert_eq!(late.latency_ms(), 7.0);
    assert_eq!(late.lateness_ms(), 5.0);
}

#[test]
fn failures_count_and_miss_every_latency_limit() {
    let failed = Outcome {
        due_ns: 0,
        sent_ns: 0,
        done_ns: 1,
        ok: false,
    };
    assert_eq!(failed.latency_ms(), f64::INFINITY);
    let ok = Outcome { ok: true, ..failed };
    let mut t = Tally::default();
    t.record_all(&[ok, failed, ok]);
    t.record(false);
    assert_eq!(
        t,
        Tally {
            attempted: 4,
            failed: 2
        }
    );
    // a failed request sorts above every finite latency
    let lat: Vec<f64> = [ok, ok, failed].iter().map(|o| o.latency_ms()).collect();
    assert_eq!(percentile(&lat, 99.0), Some(f64::INFINITY));
    assert_eq!(median(&lat), Some(1e-6));
}

#[test]
fn failed_checks_make_the_run_incorrect() {
    let mut r = Report::default();
    r.check("fine", Ok(()));
    r.set("x_ms", 1.5, "ms");
    assert!(r.correct());
    assert!(r
        .json_line()
        .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    r.check("broken", Err("bad".into()));
    assert!(!r.correct());
    assert_eq!(
        r.tally,
        Tally {
            attempted: 2,
            failed: 1
        }
    );
    let mut inf = Report::default();
    inf.set("p99_ms", f64::INFINITY, "ms");
    assert!(!inf.correct());
    assert!(inf.json_line().contains("\"value\": 1000000000000.0"));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    assert_eq!(self_time_ns(0, 100, &[]), 100);
    assert_eq!(self_time_ns(0, 100, &[(10, 20), (50, 10)]), 70);
    // overlapping children are counted once
    assert_eq!(self_time_ns(0, 100, &[(10, 30), (20, 30)]), 60);
    // children are clipped to the parent's interval
    assert_eq!(self_time_ns(100, 100, &[(50, 100), (190, 50)]), 40);
    assert_eq!(self_time_ns(0, 10, &[(0, 50)]), 0);
}

#[test]
fn vm_hwm_is_parsed_from_proc_status() {
    let status =
        "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   41216 kB\nVmRSS:\t   40000 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(41216));
    assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
}

#[test]
fn steal_share_is_parsed_from_proc_stat() {
    let a = "cpu  100 0 20 300 1 0 2 10 0 0\ncpu0 50 0 10 150 0 0 1 5 0 0\n";
    let b = "cpu  160 0 30 330 1 0 2 40 5 0\ncpu0 80 0 15 165 0 0 1 20 0 0\n";
    let (ta, sa) = parse_proc_stat_cpu(a).unwrap();
    assert_eq!((ta, sa), (433, 10));
    let after = parse_proc_stat_cpu(b).unwrap();
    assert_eq!(after, (563, 40));
    assert!((steal_pct((ta, sa), after) - 100.0 * 30.0 / 130.0).abs() < 1e-12);
    assert_eq!(steal_pct(after, after), 0.0);
    assert_eq!(parse_proc_stat_cpu("intr 1 2 3\n"), None);
}
