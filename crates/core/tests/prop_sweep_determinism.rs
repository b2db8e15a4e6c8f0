//! Differential determinism suite for the sweep executors.
//!
//! The persistent-pool sweep (`SweepExecutor::Pooled`) and the sequential
//! baseline must produce **bit-identical** strategies for arbitrary
//! generated workloads — the worker-pool determinism contract: results are
//! collected in sweep order regardless of completion order, and every
//! scenario plans against the same immutable snapshot. Handing the job
//! over by value (`Cow::Owned`, the job-flow layer's path) must not change
//! the strategy either, S3's coarsening included.
//!
//! The contract also covers instrumentation: running the same sweep under
//! `--telemetry` must not change the schedules, and the QoS counters must
//! reconcile exactly across executors (only `pooled_sweeps` may differ —
//! it records which executor actually ran).

use std::borrow::Cow;

use gridsched_core::pool::WorkerPool;
use gridsched_core::strategy::{
    GenerateOptions, Strategy, StrategyConfig, StrategyKind, SweepExecutor,
};
use gridsched_metrics::telemetry::Telemetry;
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::rng::SimRng;
use gridsched_sim::time::SimTime;
use gridsched_workload::jobs::{generate_job, JobConfig};
use gridsched_workload::pool::{generate_pool, PoolConfig};

/// Everything observable about a strategy, for bit-exact comparisons.
fn fingerprint(s: &Strategy) -> impl PartialEq + std::fmt::Debug {
    (
        s.kind(),
        s.job().task_count(),
        s.distributions()
            .iter()
            .map(|d| {
                (
                    d.scenario(),
                    d.cost(),
                    d.makespan(),
                    d.placements().to_vec(),
                    d.collisions().to_vec(),
                )
            })
            .collect::<Vec<_>>(),
        s.failures().to_vec(),
    )
}

fn random_workload(g: &mut Gen) -> (Job, ResourcePool) {
    let pool_seed = g.u64_in(0, u64::MAX / 2);
    let job_seed = g.u64_in(0, u64::MAX / 2);
    let pool = generate_pool(&PoolConfig::default(), &mut SimRng::seed_from(pool_seed));
    let job = generate_job(
        &JobConfig {
            deadline_factor: 8.0,
            ..JobConfig::default()
        },
        gridsched_model::ids::JobId::new(job_seed),
        SimTime::ZERO,
        &mut SimRng::seed_from(job_seed),
    );
    (job, pool)
}

#[test]
fn pooled_owned_and_sequential_sweeps_are_bit_identical_across_seeds() {
    // A multi-worker pool even on single-core machines, so the pooled path
    // is genuinely exercised (no fallback) and shared across cases — the
    // reuse the campaign relies on.
    let worker_pool = WorkerPool::new(2);
    check(24, |g: &mut Gen| {
        let (job, pool) = random_workload(g);
        let kind = *g.pick(&StrategyKind::ALL);
        let cfg = StrategyConfig::for_kind(kind, &pool);
        let release = SimTime::from_ticks(g.u64_in(0, 50));
        let pooled_opts = GenerateOptions {
            executor: SweepExecutor::Pooled(&worker_pool),
            ..GenerateOptions::default()
        };
        let pooled =
            Strategy::generate_with(Cow::Borrowed(&job), &pool, &cfg, release, pooled_opts);
        let owned =
            Strategy::generate_with(Cow::Owned(job.clone()), &pool, &cfg, release, pooled_opts);
        let sequential = Strategy::generate_sequential(&job, &pool, &cfg, release);
        assert_eq!(
            fingerprint(&pooled),
            fingerprint(&sequential),
            "pooled vs sequential diverged (case {}, kind {kind})",
            g.case()
        );
        assert_eq!(
            fingerprint(&owned),
            fingerprint(&sequential),
            "owned-job vs sequential diverged (case {}, kind {kind})",
            g.case()
        );
    });
}

#[test]
fn instrumented_sweeps_are_bit_identical_and_counters_reconcile_exactly() {
    let worker_pool = WorkerPool::new(2);
    check(12, |g: &mut Gen| {
        let (job, pool) = random_workload(g);
        let kind = *g.pick(&StrategyKind::ALL);
        let cfg = StrategyConfig::for_kind(kind, &pool);
        let release = SimTime::from_ticks(g.u64_in(0, 50));

        let executors: [(&str, SweepExecutor<'_>); 2] = [
            ("pooled", SweepExecutor::Pooled(&worker_pool)),
            ("sequential", SweepExecutor::Sequential),
        ];
        let mut fingerprints = Vec::new();
        let mut counter_sets = Vec::new();
        let mut pooled_sweeps = Vec::new();
        for (name, executor) in executors {
            let telemetry = Telemetry::new();
            let uninstrumented = Strategy::generate_with(
                Cow::Borrowed(&job),
                &pool,
                &cfg,
                release,
                GenerateOptions {
                    executor,
                    ..GenerateOptions::default()
                },
            );
            let opts = GenerateOptions {
                executor,
                telemetry: &telemetry,
                parent: None,
            };
            let strategy = Strategy::generate_with(Cow::Borrowed(&job), &pool, &cfg, release, opts);
            assert_eq!(
                fingerprint(&strategy),
                fingerprint(&uninstrumented),
                "telemetry changed the {name} sweep's schedules (case {})",
                g.case()
            );
            let snap = telemetry.snapshot();
            // The sweep-shape counters must reconcile exactly across
            // executors; `pooled_sweeps` is excluded because it records
            // which executor ran.
            let counters: Vec<(&str, u64)> = [
                "sessions_opened",
                "overlays_created",
                "critical_works_passes",
                "scenarios_planned",
                "scenarios_failed",
                "plan_conflicts",
                "objective_fallbacks",
            ]
            .into_iter()
            .map(|name| (name, snap.counter(name)))
            .collect();
            fingerprints.push(fingerprint(&strategy));
            counter_sets.push((name, counters));
            pooled_sweeps.push((name, snap.counter("pooled_sweeps")));
        }
        assert_eq!(fingerprints[0], fingerprints[1], "case {}", g.case());
        assert_eq!(
            counter_sets[0].1,
            counter_sets[1].1,
            "pooled vs sequential counters (case {})",
            g.case()
        );
        // The pooled executor records exactly one pooled sweep — unless
        // the sweep is small enough to fall back (MS1 plans 2 scenarios).
        let expect_pooled = u64::from(cfg.sweep().scenarios().len() > 2);
        assert_eq!(pooled_sweeps[0], ("pooled", expect_pooled));
        assert_eq!(pooled_sweeps[1], ("sequential", 0));
    });
}
