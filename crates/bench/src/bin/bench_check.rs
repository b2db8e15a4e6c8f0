//! CI gate: checks fresh benchmark output against committed baselines and
//! floors, and exits with status 1 when any check fails.
//!
//! With `--fresh RUN --baseline BASE` the gate compares the standard
//! output of a fresh traced perfbench run (`--trace 1`) with a committed
//! one of the same seed and cycle count, workload by workload: every
//! `count`-unit per-layer metric (span counts, index seeks and bypasses,
//! cache hits, ...) must stay within [`COUNT_TOLERANCE`] of its baseline,
//! and each failing line names `<workload>/<metric>`, so a layer that does
//! more (or less) work than it did when the baseline was committed fails
//! on any machine. `exec.workers` and `exec.pooled_sweeps` follow the
//! core count and are not compared. Wall time is not gated here.
//!
//! With `--online FILE` the gate additionally checks a fresh
//! `online_throughput` result: sustained admitted-jobs/sec must be
//! nonzero, the trace-invariant oracle must report zero violations, the
//! QoS counters must reconcile, and every arrival must be accounted for
//! (`jobs_arrived == jobs_admitted + jobs_rejected + jobs_deferred`).
//!
//! With `--probe-index FILE` the gate checks a fresh `probe_scaling`
//! result: the gap-indexed cold probe must beat the linear jump-walk by
//! `--min-probe-speedup` (default 1.0; the reference box clears 5×, and
//! CI ratchets the floor to 5.0 — the index answers in O(log R) against
//! the walk's O(R), so at 100k+ reservations even a noisy shared runner
//! clears it with a wide margin, see `BENCH_probe_scaling.json`) at a
//! pool of ≥ 100k reservations.
//!
//! With `--index-cache FILE` the gate checks the same file's
//! warm-capture keys: a warm snapshot capture of an unchanged ≥ 100k
//! window pool must be at least `--min-cache-speedup` (default 10.0)
//! faster than the cache-disabled capture, with **zero** index rebuilds
//! and at least one recorded cache hit.
//!
//! `--fresh` and `--baseline` are required; the other checks are opt-in.
//! Run with:
//! `cargo run --release -p gridsched-bench --bin bench_check -- \
//!    --fresh perfbench_2009.txt --baseline BENCH_perfbench_2009.txt`

use gridsched_bench::{
    count_gate, index_cache_gate, json_number, keys, probe_gate, Args, COUNT_TOLERANCE,
};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Sanity floor for a fresh `BENCH_online_throughput.json`; returns
/// whether it passes, printing one line per check.
fn online_gate(json: &str) -> bool {
    let num = |key: &str| json_number(json, key);
    let checks: [(&str, bool); 4] = [
        (
            "sustained_jobs_per_sec > 0",
            num("sustained_jobs_per_sec").is_some_and(|v| v > 0.0),
        ),
        (
            "oracle_violations == 0",
            num("oracle_violations") == Some(0.0),
        ),
        (
            "arrivals all accounted for",
            match (
                num("jobs_arrived"),
                num("jobs_admitted"),
                num("jobs_rejected"),
                num("jobs_deferred"),
            ) {
                (Some(a), Some(ad), Some(r), Some(d)) => a == ad + r + d,
                _ => false,
            },
        ),
        (
            "plan_p99_ns >= plan_p50_ns > 0",
            match (num("plan_p50_ns"), num("plan_p99_ns")) {
                (Some(p50), Some(p99)) => p50 > 0.0 && p99 >= p50,
                _ => false,
            },
        ),
    ];
    let mut pass = true;
    for (label, ok) in checks {
        println!("  [{}] online: {label}", if ok { "OK  " } else { "FAIL" });
        pass &= ok;
    }
    pass
}

fn main() {
    let args = Args::capture_validated(keys::BENCH_CHECK);
    let required = |key: &str| -> String {
        if !args.has(key) {
            eprintln!("error: --{key} FILE is required");
            std::process::exit(2);
        }
        args.get(key, String::new())
    };
    let fresh_path = required("fresh");
    let baseline_path = required("baseline");
    let online_path: Option<String> = args
        .has("online")
        .then(|| args.get("online", "BENCH_online_throughput.json".to_owned()));
    let probe_path: Option<String> = args
        .has("probe-index")
        .then(|| args.get("probe-index", "BENCH_probe_scaling.json".to_owned()));
    let min_probe_speedup: f64 = args.get("min-probe-speedup", 1.0);
    let cache_path: Option<String> = args
        .has("index-cache")
        .then(|| args.get("index-cache", "BENCH_probe_scaling.json".to_owned()));
    let min_cache_speedup: f64 = args.get("min-cache-speedup", 10.0);
    println!(
        "bench_check: perfbench work counts, {fresh_path} vs {baseline_path} (tolerance {:.0}%)",
        COUNT_TOLERANCE * 100.0
    );
    let (lines, mut pass) = count_gate(&read(&fresh_path), &read(&baseline_path));
    for line in &lines {
        let fmt = |v: Option<f64>| v.map_or("missing".to_owned(), |v| v.to_string());
        let moved = match (line.fresh, line.baseline) {
            (Some(f), Some(b)) if b != 0.0 => format!("{:+.2}%", (f / b - 1.0) * 100.0),
            _ => String::new(),
        };
        println!(
            "  [{}] {:<52} fresh {:>12}   baseline {:>12} {moved}",
            if line.pass { "OK  " } else { "FAIL" },
            line.key,
            fmt(line.fresh),
            fmt(line.baseline),
        );
    }
    if let Some(online_path) = online_path {
        println!("bench_check: online serving floor ({online_path})");
        pass &= online_gate(&read(&online_path));
    }
    if let Some(probe_path) = probe_path {
        println!(
            "bench_check: gap-index probe scaling ({probe_path}, floor {min_probe_speedup:.2}x)"
        );
        let (lines, ok) = probe_gate(&read(&probe_path), min_probe_speedup);
        for line in &lines {
            let fmt = |v: Option<f64>| v.map_or("missing".to_owned(), |v| format!("{v:.2}"));
            println!(
                "  [{}] {:<28} fresh {:>9}   required {:>9}",
                if line.pass { "OK  " } else { "FAIL" },
                line.key,
                fmt(line.fresh),
                fmt(line.baseline),
            );
        }
        pass &= ok;
    }
    if let Some(cache_path) = cache_path {
        println!(
            "bench_check: warm snapshot capture ({cache_path}, floor {min_cache_speedup:.2}x)"
        );
        let (lines, ok) = index_cache_gate(&read(&cache_path), min_cache_speedup);
        for line in &lines {
            let fmt = |v: Option<f64>| v.map_or("missing".to_owned(), |v| format!("{v:.2}"));
            println!(
                "  [{}] {:<28} fresh {:>9}   required {:>9}",
                if line.pass { "OK  " } else { "FAIL" },
                line.key,
                fmt(line.fresh),
                fmt(line.baseline),
            );
        }
        pass &= ok;
    }
    if pass {
        println!("bench_check: PASS");
    } else {
        println!("bench_check: FAIL — a gated metric left its committed baseline or floor");
        std::process::exit(1);
    }
}
