//! Full-sweep strategy generation: planning sessions vs. the
//! clone-per-scenario reference path.
//!
//! Generates the paper's §4 random pool (20–30 nodes across three speed
//! groups), paints a *long* dense background calendar onto every node —
//! the situation a VO metascheduler actually faces, where per-node
//! timetables hold thousands of reservations but any single job only
//! scans the slice below its deadline — and then times full S1/S2/S3/MS1
//! strategy generation three ways:
//!
//! * `cloning`    — the reference baseline: every scenario of the sweep
//!   clones the pool, captures a cold snapshot of the clone and plans on
//!   two fresh overlays with fresh scratch ([`Strategy::generate_cloning`]).
//! * `sequential` — one shared [`AvailabilitySnapshot`] per generation,
//!   copy-on-write overlays per scenario, scenarios swept in order
//!   ([`Strategy::generate_sequential`]).
//! * `pooled`     — same session, scenarios drained by the process-wide
//!   persistent [`WorkerPool`] ([`Strategy::generate`], the production
//!   path; falls back to the sequential sweep on single-core machines).
//!
//! All three must produce bit-identical strategies (checked here cheaply,
//! and rigorously in `tests/determinism.rs` and
//! `crates/core/tests/prop_sweep_determinism.rs`). The acceptance
//! criterion is a ≥ 2× mean speedup of the session sweep over the cloning
//! sweep; the results are written to `BENCH_strategy_sweep.json` in the
//! working directory.
//!
//! Run with: `cargo run --release -p gridsched-bench --bin strategy_sweep`
//! Knobs: `--seed N --load F --horizon TICKS --budget-ms N --out PATH`
//!
//! Pass `--telemetry` to additionally record one instrumented generation
//! per strategy kind, print the phase-breakdown table and write
//! `TELEMETRY_strategy_sweep.json` / `TELEMETRY_strategy_sweep.prom`.
//!
//! [`AvailabilitySnapshot`]: gridsched::model::availability::AvailabilitySnapshot
//! [`WorkerPool`]: gridsched::core::pool::WorkerPool

use std::time::Duration;

use gridsched::core::pool::WorkerPool;
use gridsched::core::strategy::{Strategy, StrategyConfig, StrategyKind};
use gridsched::metrics::telemetry::Telemetry;
use gridsched::model::ids::JobId;
use gridsched::model::node::ResourcePool;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched::workload::background::{apply_background_load, BackgroundConfig};
use gridsched::workload::jobs::{generate_job, JobConfig};
use gridsched::workload::pool::{generate_pool, PoolConfig};
use gridsched_bench::timing::{Group, Stats};
use gridsched_bench::{keys, verdict, Args};

/// A cheap structural fingerprint: enough to catch a divergence between
/// the sweep implementations without hashing every placement (the
/// determinism suite does the exhaustive comparison).
fn fingerprint(s: &Strategy) -> Vec<(u64, u64, usize, usize)> {
    s.distributions()
        .iter()
        .map(|d| {
            (
                d.cost(),
                d.makespan().ticks(),
                d.placements().len(),
                d.collisions().len(),
            )
        })
        .collect()
}

struct KindResult {
    kind: StrategyKind,
    cloning: Stats,
    sequential: Stats,
    pooled: Stats,
}

fn json_line(r: &KindResult) -> String {
    format!(
        concat!(
            "    {{\"kind\": \"{}\", ",
            "\"cloning_mean_ns\": {}, \"cloning_min_ns\": {}, ",
            "\"sequential_mean_ns\": {}, \"sequential_min_ns\": {}, ",
            "\"pooled_mean_ns\": {}, \"pooled_min_ns\": {}, ",
            "\"speedup_sequential\": {:.3}, ",
            "\"speedup_pooled\": {:.3}}}"
        ),
        r.kind,
        r.cloning.mean.as_nanos(),
        r.cloning.min.as_nanos(),
        r.sequential.mean.as_nanos(),
        r.sequential.min.as_nanos(),
        r.pooled.mean.as_nanos(),
        r.pooled.min.as_nanos(),
        r.cloning.speedup_over(&r.sequential),
        r.cloning.speedup_over(&r.pooled),
    )
}

fn main() {
    let args = Args::capture_validated(keys::STRATEGY_SWEEP);
    let seed: u64 = args.get("seed", 2009);
    let load: f64 = args.get("load", 0.8);
    let horizon: u64 = args.get("horizon", 20_000);
    let budget_ms: u64 = args.get("budget-ms", 400);
    let out: String = args.get("out", "BENCH_strategy_sweep.json".to_owned());
    let telemetry = if args.get("telemetry", false) {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };

    let mut master = SimRng::seed_from(seed);
    let mut pool: ResourcePool = generate_pool(&PoolConfig::default(), &mut master.fork(1));
    // Long, dense calendars: the clone-per-scenario baseline copies every
    // reservation on every node for every scenario, while the job's scan
    // is bounded by its deadline (a tiny prefix of the horizon).
    let reservations = apply_background_load(
        &mut pool,
        &BackgroundConfig {
            load,
            horizon: SimDuration::from_ticks(horizon),
            chunk_min: 1,
            chunk_max: 4,
        },
        &mut master.fork(2),
    );
    let job = generate_job(
        &JobConfig {
            deadline_factor: 4.0,
            ..JobConfig::default()
        },
        JobId::new(0),
        SimTime::ZERO,
        &mut master.fork(3),
    );
    // Spin the persistent workers up before timing so the pooled column
    // measures steady-state hand-off, not one-off thread spawn.
    let pool_workers = WorkerPool::global().workers();
    println!(
        "strategy_sweep: {} nodes, {reservations} background reservations over {horizon} ticks, seed {seed}, {pool_workers} persistent sweep workers\n",
        pool.len()
    );

    let group =
        Group::new("full-sweep strategy generation").with_budget(Duration::from_millis(budget_ms));
    let mut results = Vec::new();
    for kind in StrategyKind::ALL {
        let config = StrategyConfig::for_kind(kind, &pool);

        // The three sweeps must agree before their timings mean anything.
        let via_cloning = Strategy::generate_cloning(&job, &pool, &config, SimTime::ZERO);
        let via_sequential = Strategy::generate_sequential(&job, &pool, &config, SimTime::ZERO);
        let via_pooled = Strategy::generate(&job, &pool, &config, SimTime::ZERO);
        assert_eq!(
            fingerprint(&via_cloning),
            fingerprint(&via_sequential),
            "{kind}: session sweep diverged from cloning baseline"
        );
        assert_eq!(
            fingerprint(&via_sequential),
            fingerprint(&via_pooled),
            "{kind}: pooled sweep diverged from sequential sweep"
        );
        if telemetry.is_enabled() {
            let via_instrumented = Strategy::generate_instrumented(
                &job,
                &pool,
                &config,
                SimTime::ZERO,
                &telemetry,
                None,
            );
            assert_eq!(
                fingerprint(&via_pooled),
                fingerprint(&via_instrumented),
                "{kind}: instrumented sweep diverged from uninstrumented sweep"
            );
        }

        let cloning = group.bench(&format!("{kind} cloning (reference)"), || {
            Strategy::generate_cloning(&job, &pool, &config, SimTime::ZERO)
        });
        let sequential = group.bench(&format!("{kind} session, sequential"), || {
            Strategy::generate_sequential(&job, &pool, &config, SimTime::ZERO)
        });
        let pooled = group.bench(&format!("{kind} session, pooled workers"), || {
            Strategy::generate(&job, &pool, &config, SimTime::ZERO)
        });
        results.push(KindResult {
            kind,
            cloning,
            sequential,
            pooled,
        });
    }

    let total = |f: fn(&KindResult) -> Duration| -> f64 {
        results.iter().map(|r| f(r).as_secs_f64()).sum()
    };
    let cloning_total = total(|r| r.cloning.mean);
    let sequential_total = total(|r| r.sequential.mean);
    let pooled_total = total(|r| r.pooled.mean);
    let speedup_sequential = cloning_total / sequential_total.max(f64::EPSILON);
    let speedup_pooled = cloning_total / pooled_total.max(f64::EPSILON);
    println!(
        "\noverall mean per generation: cloning {:.3} ms, session sequential {:.3} ms ({speedup_sequential:.2}x), session pooled {:.3} ms ({speedup_pooled:.2}x)",
        cloning_total * 1e3 / results.len() as f64,
        sequential_total * 1e3 / results.len() as f64,
        pooled_total * 1e3 / results.len() as f64,
    );

    let kinds_json = results
        .iter()
        .map(json_line)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"strategy_sweep\",\n",
            "  \"seed\": {seed},\n",
            "  \"nodes\": {nodes},\n",
            "  \"background_reservations\": {reservations},\n",
            "  \"background_horizon_ticks\": {horizon},\n",
            "  \"background_load\": {load},\n",
            "  \"budget_ms\": {budget_ms},\n",
            "  \"pool_workers\": {workers},\n",
            "  \"kinds\": [\n{kinds}\n  ],\n",
            "  \"overall_speedup_sequential\": {ss:.3},\n",
            "  \"overall_speedup_pooled\": {spool:.3}\n",
            "}}\n"
        ),
        seed = seed,
        nodes = pool.len(),
        reservations = reservations,
        horizon = horizon,
        load = load,
        budget_ms = budget_ms,
        workers = pool_workers,
        kinds = kinds_json,
        ss = speedup_sequential,
        spool = speedup_pooled,
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");

    if telemetry.is_enabled() {
        let snapshot = telemetry.snapshot();
        println!("\ntelemetry phase breakdown (instrumented generations):");
        println!("{}", snapshot.phase_table());
        std::fs::write("TELEMETRY_strategy_sweep.json", snapshot.to_json())
            .expect("write TELEMETRY_strategy_sweep.json");
        std::fs::write("TELEMETRY_strategy_sweep.prom", snapshot.to_prometheus())
            .expect("write TELEMETRY_strategy_sweep.prom");
        println!("wrote TELEMETRY_strategy_sweep.json and TELEMETRY_strategy_sweep.prom");
    }

    verdict(
        "all three sweeps produce bit-identical strategies",
        true, // asserted above, per kind
    );
    verdict(
        "planning sessions are >= 2x faster than clone-per-scenario sweeps",
        speedup_pooled >= 2.0,
    );
    // Only meaningful with real parallel hardware: with zero persistent
    // workers the pooled sweep *is* the sequential sweep.
    if pool_workers >= 1 {
        verdict(
            "pooled sweep is no slower than the sequential sweep",
            speedup_pooled >= speedup_sequential,
        );
    }
}
