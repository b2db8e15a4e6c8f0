//! CI gate: checks the per-layer work counts of a fresh perfbench run
//! against a committed baseline, and exits with status 1 when any check
//! fails.
//!
//! `--fresh RUN --baseline BASE` (both required, and the only options)
//! compare the standard output of a fresh traced perfbench run
//! (`--trace 1`) with a committed one of the same seed and cycle count,
//! workload by workload: every `count`-unit per-layer metric (span
//! counts, index seeks, cache hits, ...) must stay within
//! [`COUNT_TOLERANCE`] of its baseline, and each failing line names
//! `<workload>/<metric>`, so a layer that does more (or less) work than
//! it did when the baseline was committed fails on any machine.
//! `exec.workers` and `exec.pooled_sweeps` follow the core count and are
//! not compared. Wall time is not gated here.
//!
//! Run with:
//! `cargo run --release -p gridsched-bench --bin bench_check -- \
//!    --fresh perfbench_2009.txt --baseline BENCH_perfbench_2009.txt`

use gridsched_bench::{count_gate, keys, Args, COUNT_TOLERANCE};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
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
    println!(
        "bench_check: perfbench work counts, {fresh_path} vs {baseline_path} (tolerance {:.0}%)",
        COUNT_TOLERANCE * 100.0
    );
    let (lines, pass) = count_gate(&read(&fresh_path), &read(&baseline_path));
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
    if pass {
        println!("bench_check: PASS");
    } else {
        println!("bench_check: FAIL — a work count left its committed baseline");
        std::process::exit(1);
    }
}
