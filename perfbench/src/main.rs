//! End-to-end and per-layer benchmark for gridsched.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <online_admission|batch_campaign|dense_calendar|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics on untraced
//! runs. `--trace 1` interleaves untraced and traced runs of the same
//! instances and prints the per-layer ledger from the traced ones. Each
//! run first sets the workload up several times (reporting the median),
//! then cycles over the workload's instances for `--seconds`, checking
//! every run's outputs after its clock stops. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. A failed output check exits with status 1.
//!
//! The workloads run one after another in this one process; the only
//! extra threads are the persistent sweep workers of
//! `exec::WorkerPool::global()`. See `README.md` beside this crate for why
//! each workload exists and which layers it loads.

mod campaigns;
mod dense;
mod ledger;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gridsched::metrics::telemetry::Telemetry;

use crate::ledger::{per_layer, Extras, Ledger};
use crate::stats::{median, percentile, ratio, tail_percentile};
use crate::workload::{Run, Workload};

/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["online_admission", "batch_campaign", "dense_calendar"];
/// The default workload seed.
const DEFAULT_SEED: u64 = 2009;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

impl Metric {
    /// A metric with its unit and the direction that counts as better.
    pub fn new(name: String, value: f64, unit: &'static str, better: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            better,
        }
    }
}

/// Checked command-line arguments.
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                args.workloads = if value == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                };
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Everything measured for one workload: run bookkeeping plus the
/// metrics to print.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// Per-instance bookkeeping across the runs of one invocation.
struct Book {
    /// First fingerprint seen per instance; every later run must match.
    reference: Vec<Option<u64>>,
    /// The first run of each instance: its decisions and QoS figures.
    first: Vec<Option<Run>>,
    untraced: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
    decisions_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Book {
    fn new(instances: usize) -> Self {
        Book {
            reference: vec![None; instances],
            first: (0..instances).map(|_| None).collect(),
            untraced: vec![Vec::new(); instances],
            traced: vec![Vec::new(); instances],
            decisions_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Checks one finished run and files its wall clock.
    fn record(&mut self, i: usize, mut run: Run, traced: Option<bool>) {
        self.attempted += 1;
        match self.reference[i] {
            None => self.reference[i] = Some(run.fingerprint),
            Some(fp) if fp != run.fingerprint => run.problems.push(format!(
                "instance {i}: fingerprint {:016x} differs from {fp:016x}",
                run.fingerprint
            )),
            Some(_) => {}
        }
        if !run.problems.is_empty() {
            self.failed += 1;
            self.notes.extend(run.problems.iter().take(3).cloned());
        }
        match traced {
            Some(false) => {
                self.untraced[i].push(run.wall.as_secs_f64());
                self.decisions_ms.extend_from_slice(&run.decisions_ms);
            }
            Some(true) => self.traced[i].push(run.wall.as_secs_f64()),
            None => {}
        }
        if self.first[i].is_none() {
            run.decisions_ms = Vec::new();
            self.first[i] = Some(run);
        }
    }

    /// Sum over instances of the median wall of their runs, in seconds.
    fn median_wall_sum(walls: &[Vec<f64>]) -> f64 {
        walls.iter().map(|w| median(w)).sum()
    }

    fn firsts(&self) -> impl Iterator<Item = &Run> {
        self.first.iter().flatten()
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets the workload up [`SETUP_REPEATS`] times and returns the last
/// state with the set-up walls.
fn set_up<W: Workload>(setup: &dyn Fn(u64) -> W, seed: u64) -> (W, Vec<f64>, Extras) {
    let mut walls = Vec::with_capacity(SETUP_REPEATS);
    let mut extras = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous state first so two never coexist in memory.
        drop(state.take());
        let t = Instant::now();
        let w = setup(seed);
        walls.push(t.elapsed().as_secs_f64());
        extras.push(w.extras());
        state = Some(w);
    }
    let med = |f: fn(&Extras) -> f64| median(&extras.iter().map(f).collect::<Vec<_>>());
    let extras = Extras {
        pool_ms: med(|e| e.pool_ms),
        background_ms: med(|e| e.background_ms),
        arrivals_ms: med(|e| e.arrivals_ms),
        ..extras[0]
    };
    (state.expect("at least one set-up"), walls, extras)
}

/// Runs one workload for `seconds` and gathers its metrics.
fn measure<W: Workload>(setup: &dyn Fn(u64) -> W, args: &Args) -> Outcome {
    let (mut w, setup_walls, extras) = set_up(setup, args.seed);
    let n = w.instances();
    let mut book = Book::new(n);
    if let Some(run) = w.verify() {
        book.record(0, run, None);
    }

    let mut ledger = Ledger::default();
    // Cycle over the instances until time is up; the first cycle always
    // completes, so every instance has at least one sample.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for (cycle, i) in (0..).flat_map(|c| (0..n).map(move |i| (c, i))) {
        if cycle > 0 && Instant::now() >= deadline {
            break;
        }
        book.record(i, w.run(i, None), Some(false));
        if args.trace {
            let telemetry = Telemetry::new();
            let run = w.run(i, Some(&telemetry));
            ledger.absorb(&telemetry.snapshot());
            book.record(i, run, Some(true));
        }
    }

    let untraced_s = Book::median_wall_sum(&book.untraced);
    let admitted: usize = book.firsts().map(|r| r.admitted).sum();
    let jobs: usize = book.firsts().map(|r| r.jobs).sum();
    let cost_sum: f64 = book.firsts().map(|r| r.cost_sum).sum();
    let costs: usize = book.firsts().map(|r| r.costs).sum();
    let mut decisions = std::mem::take(&mut book.decisions_ms);
    decisions.sort_by(f64::total_cmp);
    let mut notes = std::mem::take(&mut book.notes);
    notes.push(format!(
        "{} instance(s), {} untraced run(s), {} decision sample(s)",
        n,
        book.untraced.iter().map(Vec::len).sum::<usize>(),
        decisions.len()
    ));

    let metrics = if args.trace {
        let traced_s = Book::median_wall_sum(&book.traced);
        for (name, samples) in ledger.withheld_tails() {
            notes.push(format!("{name}: p99 withheld, {samples} sample(s) < 1000"));
        }
        per_layer(
            &ledger,
            &Extras {
                tracing_overhead_pct: (ratio(traced_s, untraced_s) - 1.0) * 100.0,
                decision_p50_ms: percentile(&decisions, 50).unwrap_or(0.0),
                decision_p99_ms: tail_percentile(&decisions, 99).unwrap_or(0.0),
                ..extras
            },
        )
    } else {
        vec![
            Metric::new("setup_s".into(), median(&setup_walls), "s", "lower"),
            Metric::new("peak_rss_mb".into(), peak_rss_mb(), "MB", "lower"),
            Metric::new(
                "campaign_wall_s".into(),
                untraced_s / n as f64,
                "s",
                "lower",
            ),
            Metric::new(
                "admitted_jobs_per_s".into(),
                ratio(admitted as f64, untraced_s),
                "1/s",
                "higher",
            ),
            Metric::new(
                "admitted_share".into(),
                ratio(admitted as f64, jobs as f64),
                "share",
                "higher",
            ),
            Metric::new(
                "mean_cost".into(),
                ratio(cost_sum, costs as f64),
                "CF",
                "lower",
            ),
        ]
    };
    Outcome {
        attempted: book.attempted,
        failed: book.failed,
        metrics,
        notes,
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn report(workload: &str, args: &Args, outcome: &Outcome) {
    println!(
        "{workload}: seed {}, {} s, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for m in &outcome.metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} ({} is better)",
            m.name, m.value, m.unit, m.better
        );
    }
    println!(
        "  error_share {} ({} failed of {} run(s))",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench [--workload {}|all] [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for &workload in &args.workloads {
        let outcome = match workload {
            "online_admission" => measure(&campaigns::Online::setup, &args),
            "batch_campaign" => measure(&campaigns::Batch::setup, &args),
            _ => measure(&dense::Dense::setup, &args),
        };
        report(workload, &args, &outcome);
        correct &= outcome.failed == 0;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
