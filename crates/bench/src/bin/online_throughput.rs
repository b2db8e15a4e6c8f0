//! Online serving throughput: streamed arrivals through the bounded
//! admission queue, end to end.
//!
//! Runs one instrumented [`run_online_instrumented`] campaign — Poisson
//! arrivals, deadline/budget admission probes, incremental replanning,
//! the persistent sweep worker pool — and reports:
//!
//! * **sustained jobs/sec** — admitted jobs divided by the wall-clock time
//!   of the whole serving loop (the rate the metascheduler actually kept
//!   up with, not the offered rate);
//! * **time-to-plan p50/p99** — wall-clock duration of the `admit` spans,
//!   i.e. full strategy-sweep generation plus activation per admitted job;
//! * **probe p50/p99** — wall-clock duration of the `admission_probe`
//!   spans, one per deadline/budget admission test (re-probes of deferred
//!   jobs included) — most of the serving loop's wall time;
//! * **queue-wait p50/p99** — sim-time ticks between arrival and
//!   admission (from the report's queue-wait histogram, so these two
//!   quantiles are deterministic per seed);
//! * the six online QoS counters, reconciled against the admission
//!   summary, and the trace-invariant oracle verdict.
//!
//! Results land in `BENCH_online_throughput.json` (override with
//! `--out`). CI runs a reduced version of this benchmark and gates it via
//! `bench_check -- --online ...`: sustained throughput must be nonzero
//! and the oracle must report zero violations.
//!
//! `--domains N` shards the pool into `N` node domains. The JSON carries
//! `domains` (the pool's domain count) plus per-domain
//! activation/break/migration counts, attributed to each job's home
//! domain.
//!
//! `--repeat N` reruns the serving loop N times and takes the fastest
//! wall clock (best-of-N, the usual de-noising for sub-100ms runs);
//! every repeat is the same deterministic campaign.
//!
//! Run with: `cargo run --release -p gridsched-bench --bin online_throughput`
//! Knobs: `--jobs N --seed N --rate F --queue N --perturbations N --domains N
//! --repeat N --out PATH`

use std::time::{Duration, Instant};

use gridsched::flow::faults::FaultConfig;
use gridsched::flow::online::{run_online_instrumented, OnlineConfig, OnlineReport};
use gridsched::flow::oracle::audit;
use gridsched::flow::simulation::CampaignConfig;
use gridsched::metrics::telemetry::Telemetry;
use gridsched::workload::arrivals::ArrivalProcess;
use gridsched::workload::pool::PoolConfig;
use gridsched_bench::{keys, Args};

/// Quantile over a sorted slice (nearest-rank); 0 when empty.
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One timed serving loop plus everything it produced.
struct Measured {
    telemetry: Telemetry,
    wall: Duration,
    report: OnlineReport,
}

fn run_once(cfg: &OnlineConfig) -> Measured {
    let telemetry = Telemetry::new();
    let start = Instant::now();
    let report = run_online_instrumented(cfg, &telemetry);
    Measured {
        wall: start.elapsed(),
        telemetry,
        report,
    }
}

/// The knobs of one invocation.
struct Workload {
    seed: u64,
    rate: f64,
    queue: usize,
    jobs: usize,
    repeat: usize,
}

/// Prints the human-readable block and writes the JSON for the measured
/// run; returns whether it is healthy (counters reconcile, oracle clean).
fn emit(m: &Measured, w: &Workload, domains: u32, out: &str) -> bool {
    let s = m.report.summary;
    let wall_secs = m.wall.as_secs_f64().max(1e-9);
    let sustained = s.admitted as f64 / wall_secs;
    // Work-normalized serving rate: admission probes per wall-second.
    // Comparable across domain layouts, where admitted counts are not.
    let probe_throughput = s.probes as f64 / wall_secs;

    // Time-to-plan: every `admit` span is one full sweep + activation.
    // Every `admission_probe` span is one probe run: a consumed admission
    // test or one an admission round ran ahead and discarded.
    let snapshot = m.telemetry.snapshot();
    let discarded = snapshot.counter("admission_probes_discarded");
    let span_ns = |name: &str| {
        let mut ns: Vec<u64> = snapshot
            .spans()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end_ns.saturating_sub(span.start_ns))
            .collect();
        ns.sort_unstable();
        ns
    };
    let plan_ns = span_ns("admit");
    let plan_p50 = quantile_ns(&plan_ns, 0.50);
    let plan_p99 = quantile_ns(&plan_ns, 0.99);
    let probe_ns = span_ns("admission_probe");
    let probe_p50 = quantile_ns(&probe_ns, 0.50);
    let probe_p99 = quantile_ns(&probe_ns, 0.99);

    let wait_p50 = m.report.queue_wait.quantile(0.50).unwrap_or(0.0);
    let wait_p99 = m.report.queue_wait.quantile(0.99).unwrap_or(0.0);

    // Per-domain activity from the labeled telemetry series: one row per
    // domain that homed at least one job.
    let per_domain: Vec<(u64, u64, u64, u64)> = snapshot
        .domains()
        .keys()
        .map(|&d| {
            (
                d,
                snapshot.domain_counter(d, "jobs_activated"),
                snapshot.domain_counter(d, "schedule_breaks"),
                snapshot.domain_counter(d, "migrations"),
            )
        })
        .collect();

    let oracle_violations = match audit(&m.report.report) {
        Ok(()) => 0,
        Err(v) => {
            eprintln!("oracle violation: {v}");
            1
        }
    };
    let reconciled = m.report.counters_reconcile();

    println!(
        "online_throughput: seed {}, rate {}, queue {}, {domains} domain(s), {} offered jobs",
        w.seed, w.rate, w.queue, w.jobs
    );
    println!(
        "  arrived {}  admitted {}  rejected {} (queue-full {}, unmeetable {})  deferred {}",
        s.arrived, s.admitted, s.rejected, s.rejected_queue_full, s.rejected_unmeetable, s.deferred
    );
    println!(
        "  probes {} (+{discarded} discarded)  incremental replans {}  queue peak {}",
        s.probes, s.incremental_replans, s.queue_peak
    );
    println!(
        "  wall {:.1} ms (best of {})  sustained {:.1} admitted jobs/sec  {:.1} probes/sec",
        m.wall.as_secs_f64() * 1e3,
        w.repeat,
        sustained,
        probe_throughput
    );
    println!(
        "  time-to-plan p50 {:.2} ms  p99 {:.2} ms  ({} admissions timed)",
        plan_p50 as f64 / 1e6,
        plan_p99 as f64 / 1e6,
        plan_ns.len()
    );
    println!(
        "  probe p50 {:.3} ms  p99 {:.3} ms  ({} probes timed)",
        probe_p50 as f64 / 1e6,
        probe_p99 as f64 / 1e6,
        probe_ns.len()
    );
    println!("  queue wait p50 {wait_p50:.0} ticks  p99 {wait_p99:.0} ticks (sim time)");
    for (d, activated, breaks, migrations) in &per_domain {
        println!("  domain {d}: activated {activated}  breaks {breaks}  migrations {migrations}");
    }
    println!("  counters reconcile: {reconciled}  oracle violations: {oracle_violations}");

    let mut per_domain_json = String::new();
    for (i, (d, activated, breaks, migrations)) in per_domain.iter().enumerate() {
        if i > 0 {
            per_domain_json.push_str(", ");
        }
        per_domain_json.push_str(&format!(
            "\"{d}\": {{\"activated\": {activated}, \"breaks\": {breaks}, \"migrations\": {migrations}}}"
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"online_throughput\",\n",
            "  \"seed\": {seed},\n",
            "  \"rate\": {rate},\n",
            "  \"domains\": {domains},\n",
            "  \"per_domain\": {{{per_domain}}},\n",
            "  \"queue_capacity\": {queue},\n",
            "  \"jobs_offered\": {jobs},\n",
            "  \"jobs_arrived\": {arrived},\n",
            "  \"jobs_admitted\": {admitted},\n",
            "  \"jobs_rejected\": {rejected},\n",
            "  \"jobs_deferred\": {deferred},\n",
            "  \"admission_probes\": {probes},\n",
            "  \"admission_probes_discarded\": {discarded},\n",
            "  \"incremental_replans\": {replans},\n",
            "  \"queue_peak_depth\": {peak},\n",
            "  \"wall_ms\": {wall_ms:.3},\n",
            "  \"sustained_jobs_per_sec\": {sustained:.3},\n",
            "  \"probe_throughput_per_sec\": {probe_throughput:.3},\n",
            "  \"plan_p50_ns\": {p50},\n",
            "  \"plan_p99_ns\": {p99},\n",
            "  \"probe_p50_ns\": {probe_p50},\n",
            "  \"probe_p99_ns\": {probe_p99},\n",
            "  \"queue_wait_p50_ticks\": {wait50:.1},\n",
            "  \"queue_wait_p99_ticks\": {wait99:.1},\n",
            "  \"counters_reconcile\": {reconciled},\n",
            "  \"oracle_violations\": {violations}\n",
            "}}\n"
        ),
        seed = w.seed,
        rate = w.rate,
        domains = domains,
        per_domain = per_domain_json,
        queue = w.queue,
        jobs = w.jobs,
        arrived = s.arrived,
        admitted = s.admitted,
        rejected = s.rejected,
        deferred = s.deferred,
        probes = s.probes,
        discarded = discarded,
        replans = s.incremental_replans,
        peak = s.queue_peak,
        wall_ms = m.wall.as_secs_f64() * 1e3,
        sustained = sustained,
        probe_throughput = probe_throughput,
        p50 = plan_p50,
        p99 = plan_p99,
        probe_p50 = probe_p50,
        probe_p99 = probe_p99,
        wait50 = wait_p50,
        wait99 = wait_p99,
        reconciled = reconciled,
        violations = oracle_violations,
    );
    std::fs::write(out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("  wrote {out}");

    reconciled && oracle_violations == 0
}

fn main() {
    let args = Args::capture_validated(keys::ONLINE_THROUGHPUT);
    let jobs: usize = args.get("jobs", 60);
    let seed: u64 = args.get("seed", 2009);
    let rate: f64 = args.get("rate", 0.15);
    let queue: usize = args.get("queue", 16);
    let perturbations: usize = args.get("perturbations", 40);
    let domains: u32 = args.get("domains", PoolConfig::default().domains);
    let out: String = args.get("out", "BENCH_online_throughput.json".to_owned());

    let cfg = OnlineConfig {
        base: CampaignConfig {
            jobs,
            perturbations,
            pool_config: PoolConfig {
                domains,
                ..PoolConfig::default()
            },
            faults: FaultConfig {
                outages: 3,
                degradations: 2,
                transfer_faults: 3,
                ..FaultConfig::none()
            },
            collect_trace: true,
            seed,
            ..CampaignConfig::default()
        },
        arrivals: ArrivalProcess::Poisson { rate },
        queue_capacity: queue,
        ..OnlineConfig::default()
    };

    let repeat: usize = args.get("repeat", 1).max(1);
    let workload = Workload {
        seed,
        rate,
        queue,
        jobs,
        repeat,
    };

    // Best-of-N wall clock; every repeat runs the same deterministic
    // campaign, so keeping the fastest run's report and telemetry loses
    // nothing.
    let mut best = run_once(&cfg);
    for _ in 1..repeat {
        let run = run_once(&cfg);
        if run.wall < best.wall {
            best = run;
        }
    }

    if !emit(&best, &workload, domains, &out) {
        std::process::exit(1);
    }
}
