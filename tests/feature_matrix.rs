//! Integration test: the scheduling variants compose — objectives ×
//! domains × strategies on shared workloads.

use std::collections::HashMap;

use gridsched::core::method::ScheduleRequest;
use gridsched::core::objective::Objective;
use gridsched::core::session::PlanningSession;
use gridsched::core::strategy::{Strategy, StrategyConfig, StrategyKind};
use gridsched::data::policy::DataPolicy;
use gridsched::model::estimate::EstimateScenario;
use gridsched::model::ids::JobId;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::SimTime;
use gridsched::workload::jobs::{generate_job, JobConfig};
use gridsched::workload::pool::{generate_pool, PoolConfig};

fn request<'a>(
    job: &'a gridsched::model::job::Job,
    pool: &'a gridsched::model::node::ResourcePool,
    policy: &'a DataPolicy,
) -> ScheduleRequest<'a> {
    ScheduleRequest {
        job,
        pool,
        policy,
        scenario: EstimateScenario::BEST,
        release: SimTime::ZERO,
    }
}

#[test]
fn every_scheduling_variant_yields_valid_schedules() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(seed);
        let pool = generate_pool(&PoolConfig::default(), &mut rng);
        let job = generate_job(
            &JobConfig {
                deadline_factor: 6.0,
                ..JobConfig::default()
            },
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let policy = DataPolicy::remote_access();
        let req = request(&job, &pool, &policy);
        let session = PlanningSession::open(&pool);
        let (no_fixed, deadline) = (HashMap::new(), job.absolute_deadline());

        let variants: Vec<(&str, Result<_, _>)> = vec![
            ("default", session.build_distribution(&req)),
            ("direct", session.build_distribution_direct(&req)),
            (
                "min-time",
                session.reschedule_with_objective(&req, &no_fixed, deadline, Objective::FASTEST),
            ),
            (
                "budgeted",
                session.reschedule_with_objective(
                    &req,
                    &no_fixed,
                    deadline,
                    Objective::MinTime { budget: Some(50) },
                ),
            ),
        ];
        for (name, result) in variants {
            if let Ok(d) = result {
                assert_eq!(d.validate(&job, &pool), Ok(()), "seed {seed}, {name}");
                assert!(
                    d.meets_deadline(job.absolute_deadline()),
                    "seed {seed}, {name}"
                );
            }
        }
        // Domain-restricted variants per existing domain.
        for domain in pool.domains() {
            if let Ok(d) = session.build_distribution_in_domain(&req, domain) {
                assert_eq!(d.validate(&job, &pool), Ok(()), "seed {seed}, {domain}");
                for p in d.placements() {
                    assert_eq!(pool.node(p.node).domain(), domain);
                }
            }
        }
    }
}

#[test]
fn strategies_and_objectives_do_not_interfere() {
    // Generating a strategy must leave the pool untouched, so mixing
    // strategy generation with ad-hoc objective scheduling is safe.
    let mut rng = SimRng::seed_from(7);
    let pool = generate_pool(&PoolConfig::default(), &mut rng);
    let job = generate_job(
        &JobConfig {
            deadline_factor: 5.0,
            ..JobConfig::default()
        },
        JobId::new(0),
        SimTime::ZERO,
        &mut rng,
    );
    let policy = DataPolicy::remote_access();
    let before = PlanningSession::open(&pool)
        .build_distribution(&request(&job, &pool, &policy))
        .map(|d| d.cost());
    for kind in StrategyKind::ALL {
        let config = StrategyConfig::for_kind(kind, &pool);
        let _ = Strategy::generate(&job, &pool, &config, SimTime::ZERO);
    }
    let _ = PlanningSession::open(&pool).reschedule_with_objective(
        &request(&job, &pool, &policy),
        &HashMap::new(),
        job.absolute_deadline(),
        Objective::FASTEST,
    );
    let after = PlanningSession::open(&pool)
        .build_distribution(&request(&job, &pool, &policy))
        .map(|d| d.cost());
    assert_eq!(before.ok(), after.ok(), "pool state leaked between calls");
}
