//! Fig. 2 — the paper's worked example as a checked experiment.
//!
//! Regenerates, from the exact task table of Fig. 2a:
//! - the ranked critical works (12, 11, 10, 9 time units);
//! - a strategy fragment of supporting schedules on the four node types;
//! - the cost-function ordering (cheaper schedules shift work off the
//!   fastest nodes, like the paper's `CF2 = 37 < CF1 = CF3 = 41`);
//! - a collision between critical works and its resolution.
//!
//! Run with: `cargo run --release -p gridsched-bench --bin fig2_example`

use gridsched::core::chains::ranked_maximal_paths;
use gridsched::core::method::ScheduleRequest;
use gridsched::core::session::PlanningSession;
use gridsched::core::strategy::{Strategy, StrategyConfig, StrategyKind};
use gridsched::data::policy::DataPolicy;
use gridsched::metrics::table::Table;
use gridsched::model::estimate::EstimateScenario;
use gridsched::model::fixtures::{fig2_job, fig2_job_with_deadline};
use gridsched::model::ids::DomainId;
use gridsched::model::node::ResourcePool;
use gridsched::model::perf::Perf;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched_bench::verdict;

fn fig2_pool() -> ResourcePool {
    let mut pool = ResourcePool::new();
    for j in 1..=4u32 {
        pool.add_node(
            DomainId::new(0),
            Perf::new(1.0 / f64::from(j)).expect("valid perf"),
        );
    }
    pool
}

fn main() {
    let job = fig2_job();
    let pool = fig2_pool();

    // Task table.
    let mut task_table = Table::new(vec!["task", "V", "T1", "T2", "T3", "T4"]);
    for task in job.tasks() {
        let mut row = vec![task.id().to_string(), format!("{}", task.volume())];
        for j in 1..=4u32 {
            let perf = Perf::new(1.0 / f64::from(j)).expect("valid perf");
            row.push(task.duration_on(perf).ticks().to_string());
        }
        task_table.row(row);
    }
    println!("Fig. 2a task estimations:\n{task_table}");

    // Critical works.
    let paths = ranked_maximal_paths(
        &job,
        |t| job.task(t).duration_on(Perf::FULL),
        |e| SimDuration::from_ticks((e.volume().units() / 5.0).ceil() as u64),
        16,
    );
    let mut works_table = Table::new(vec!["critical work", "length"]);
    for p in &paths {
        let names: Vec<String> = p.tasks.iter().map(|t| t.to_string()).collect();
        works_table.row(vec![names.join("-"), p.length.ticks().to_string()]);
    }
    println!("critical works:\n{works_table}");
    let lengths: Vec<u64> = paths.iter().map(|p| p.length.ticks()).collect();
    verdict(
        "fig2: critical works are 12, 11, 10, 9 time units",
        lengths == [12, 11, 10, 9],
    );

    // Strategy fragment on the 0..20 axis.
    let config = StrategyConfig::for_kind(StrategyKind::S2, &pool);
    let strategy = Strategy::generate(&job, &pool, &config, SimTime::ZERO);
    let mut dist_table = Table::new(vec!["distribution", "CF", "makespan", "collisions"]);
    for (i, d) in strategy.distributions().iter().enumerate() {
        dist_table.row(vec![
            format!("Distribution {}", i + 1),
            d.cost().to_string(),
            d.makespan().to_string(),
            d.collisions().len().to_string(),
        ]);
    }
    println!("strategy fragment (deadline 20):\n{dist_table}");
    verdict(
        "fig2: every supporting schedule fits the paper's 0..20 time axis",
        strategy
            .distributions()
            .iter()
            .all(|d| d.makespan() <= SimTime::from_ticks(20)),
    );

    // Cost ordering under deadline pressure.
    let policy = DataPolicy::remote_access();
    let session = PlanningSession::open(&pool);
    let cost_at = |deadline: u64| {
        session
            .build_distribution(&ScheduleRequest {
                job: &fig2_job_with_deadline(SimDuration::from_ticks(deadline)),
                pool: &pool,
                policy: &policy,
                scenario: EstimateScenario::BEST,
                release: SimTime::ZERO,
            })
            .map(|d| d.cost())
    };
    let tight = cost_at(14).expect("deadline 14 feasible");
    let loose = cost_at(40).expect("deadline 40 feasible");
    println!("cost under deadline 14: {tight}; under deadline 40: {loose}");
    verdict(
        "fig2: faster completion costs more quota (CF ordering of Fig. 2b)",
        tight > loose,
    );

    // Collision on a scarce pool.
    let mut scarce = ResourcePool::new();
    scarce.add_node(DomainId::new(0), Perf::FULL);
    scarce.add_node(DomainId::new(0), Perf::FULL);
    let dist = PlanningSession::open(&scarce)
        .build_distribution(&ScheduleRequest {
            job: &fig2_job_with_deadline(SimDuration::from_ticks(40)),
            pool: &scarce,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        })
        .expect("feasible on two nodes");
    for c in dist.collisions() {
        println!("collision: {c}");
    }
    verdict(
        "fig2: critical works collide on scarce resources and are reallocated",
        !dist.collisions().is_empty()
            && dist
                .validate(
                    &fig2_job_with_deadline(SimDuration::from_ticks(40)),
                    &scarce,
                )
                .is_ok(),
    );
}
