//! Integration test: the paper's Fig. 2 worked example, end to end.

use gridsched::core::chains::{chain_decomposition, ranked_maximal_paths};
use gridsched::core::method::ScheduleRequest;
use gridsched::core::session::PlanningSession;
use gridsched::core::strategy::{Strategy, StrategyConfig, StrategyKind};
use gridsched::data::policy::DataPolicy;
use gridsched::model::estimate::EstimateScenario;
use gridsched::model::fixtures::{fig2_job, fig2_job_with_deadline};
use gridsched::model::ids::{DomainId, TaskId};
use gridsched::model::node::ResourcePool;
use gridsched::model::perf::Perf;
use gridsched::sim::time::{SimDuration, SimTime};

/// The paper's four node types: relative performances 1, 1/2, 1/3, 1/4.
fn fig2_pool() -> ResourcePool {
    let mut pool = ResourcePool::new();
    for j in 1..=4u32 {
        pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j)).unwrap());
    }
    pool
}

#[test]
fn task_estimate_table_matches_paper() {
    // Fig. 2's table: T_ij for i = P1..P6 and node types j = 1..4.
    let expected: [[u64; 4]; 6] = [
        [2, 4, 6, 8],
        [3, 6, 9, 12],
        [1, 2, 3, 4],
        [2, 4, 6, 8],
        [1, 2, 3, 4],
        [2, 4, 6, 8],
    ];
    let job = fig2_job();
    for (i, row) in expected.iter().enumerate() {
        for (j, &ticks) in row.iter().enumerate() {
            let perf = Perf::new(1.0 / (j as f64 + 1.0)).unwrap();
            assert_eq!(
                job.task(TaskId::new(i as u32)).duration_on(perf).ticks(),
                ticks,
                "T for task {i} on type {}",
                j + 1
            );
        }
    }
}

#[test]
fn critical_works_are_12_11_10_9() {
    let job = fig2_job();
    let paths = ranked_maximal_paths(
        &job,
        |t| job.task(t).duration_on(Perf::FULL),
        |e| SimDuration::from_ticks((e.volume().units() / 5.0).ceil() as u64),
        16,
    );
    let lengths: Vec<u64> = paths.iter().map(|p| p.length.ticks()).collect();
    assert_eq!(lengths, vec![12, 11, 10, 9]);
}

#[test]
fn decomposition_assigns_every_task_once() {
    let job = fig2_job();
    let works = chain_decomposition(
        &job,
        |t| job.task(t).duration_on(Perf::FULL),
        |e| SimDuration::from_ticks((e.volume().units() / 5.0).ceil() as u64),
    );
    let mut seen = std::collections::HashSet::new();
    for w in &works {
        for t in &w.tasks {
            assert!(seen.insert(*t));
        }
    }
    assert_eq!(seen.len(), 6);
}

#[test]
fn schedules_fit_the_papers_time_axis() {
    // Fig. 2b draws all three distributions on a 0..20 axis.
    let job = fig2_job();
    let pool = fig2_pool();
    let policy = DataPolicy::remote_access();
    let dist = PlanningSession::open(&pool)
        .build_distribution(&ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        })
        .unwrap();
    assert!(dist.makespan() <= SimTime::from_ticks(20));
    assert_eq!(dist.validate(&job, &pool), Ok(()));
}

#[test]
fn cheaper_schedules_use_slower_nodes() {
    // The paper's CF ordering: the cheapest distribution moves work off
    // the fastest nodes (Distribution 2 costs 37 vs 41). We assert the
    // structural property: relaxing the deadline never increases cost,
    // because slower (cheaper) allocations become available.
    let pool = fig2_pool();
    let policy = DataPolicy::remote_access();
    let mut costs = Vec::new();
    for deadline in [14u64, 16, 24, 48] {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(deadline));
        let dist = PlanningSession::open(&pool)
            .build_distribution(&ScheduleRequest {
                job: &job,
                pool: &pool,
                policy: &policy,
                scenario: EstimateScenario::BEST,
                release: SimTime::ZERO,
            })
            .unwrap();
        costs.push(dist.cost());
    }
    for pair in costs.windows(2) {
        assert!(pair[0] >= pair[1], "costs must not increase: {costs:?}");
    }
    assert!(costs[0] > costs[3], "deadline 14 must cost more than 48");
}

#[test]
fn collision_is_detected_and_resolved_on_scarce_nodes() {
    // With only two identical nodes the two critical works of the Fig. 2
    // job contend, like P4/P5 on node 3 in the paper.
    let mut pool = ResourcePool::new();
    pool.add_node(DomainId::new(0), Perf::FULL);
    pool.add_node(DomainId::new(0), Perf::FULL);
    let job = fig2_job_with_deadline(SimDuration::from_ticks(40));
    let policy = DataPolicy::remote_access();
    let dist = PlanningSession::open(&pool)
        .build_distribution(&ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        })
        .unwrap();
    assert!(!dist.collisions().is_empty());
    // Resolution kept the schedule valid (no self-overlaps).
    assert_eq!(dist.validate(&job, &pool), Ok(()));
}

#[test]
fn all_four_strategies_admit_the_fig2_job() {
    let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
    let pool = fig2_pool();
    for kind in StrategyKind::ALL {
        let config = StrategyConfig::for_kind(kind, &pool);
        let strategy = Strategy::generate(&job, &pool, &config, SimTime::ZERO);
        assert!(strategy.is_admissible(), "{kind} inadmissible");
        for d in strategy.distributions() {
            assert_eq!(d.validate(strategy.job(), &pool), Ok(()), "{kind}");
        }
    }
}
