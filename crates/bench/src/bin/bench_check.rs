//! CI gate for the `strategy_sweep` benchmark.
//!
//! Reads a freshly produced sweep result plus the committed baseline and
//! fails (exit code 1) when the measured mean speedup of planning-session
//! sweeps over the clone-per-scenario baseline drops below the committed
//! threshold. This is the regression tripwire behind the repo's headline
//! performance claim (planning sessions ≥ 2× faster, see ROADMAP.md and
//! `BENCH_strategy_sweep.json`).
//!
//! On machines with ≥ 2 cores (or when `--require-pooled true` is forced)
//! an extra line gates the persistent-pool sweep against the sequential
//! sweep: `overall_speedup_pooled` must be at least
//! `overall_speedup_sequential`, the tripwire for pool hand-off overhead.
//! On single-core runners the pooled sweep falls back to the sequential
//! one, so the comparison is skipped unless forced.
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
//! Run with:
//! `cargo run --release -p gridsched-bench --bin bench_check -- \
//!    --fresh BENCH_fresh.json --baseline BENCH_strategy_sweep.json --min-speedup 2.0`

use gridsched_bench::{bench_gate, index_cache_gate, json_number, keys, probe_gate, Args};

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
    let fresh_path: String = args.get("fresh", "BENCH_fresh.json".to_owned());
    let baseline_path: String = args.get("baseline", "BENCH_strategy_sweep.json".to_owned());
    let min_speedup: f64 = args.get("min-speedup", 2.0);
    let multi_core = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    let require_pooled: bool = args.get("require-pooled", multi_core);

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

    let fresh = read(&fresh_path);
    let baseline = read(&baseline_path);
    let (lines, mut pass) = bench_gate(&fresh, &baseline, min_speedup, require_pooled);

    println!(
        "bench_check: {fresh_path} vs {baseline_path} (floor {min_speedup:.2}x, pooled gate {})",
        if require_pooled { "on" } else { "off" }
    );
    for line in &lines {
        let fmt = |v: Option<f64>| v.map_or("missing".to_owned(), |v| format!("{v:.2}x"));
        println!(
            "  [{}] {:<28} fresh {:>9}   committed baseline {:>9}",
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
        println!("bench_check: FAIL — a gated metric fell below its committed floor");
        std::process::exit(1);
    }
}
