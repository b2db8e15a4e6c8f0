//! Bench: the critical works method itself.
//!
//! Measures a one-off planning session (open, then one
//! `build_distribution`) on the paper's Fig. 2 job and on random jobs of
//! growing size, on a 25-node pool.

use gridsched::core::method::ScheduleRequest;
use gridsched::core::session::PlanningSession;
use gridsched::data::policy::DataPolicy;
use gridsched::model::estimate::EstimateScenario;
use gridsched::model::fixtures::fig2_job;
use gridsched::model::ids::{DomainId, JobId};
use gridsched::model::job::Job;
use gridsched::model::node::ResourcePool;
use gridsched::model::perf::Perf;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::SimTime;
use gridsched::workload::jobs::{generate_job, JobConfig};
use gridsched::workload::pool::{generate_pool, PoolConfig};
use gridsched_bench::timing::Group;

fn fig2_pool() -> ResourcePool {
    let mut pool = ResourcePool::new();
    for j in 1..=4u32 {
        pool.add_node(
            DomainId::new(0),
            Perf::new(1.0 / f64::from(j)).expect("valid"),
        );
    }
    pool
}

fn sized_job(layers: usize, seed: u64) -> Job {
    let cfg = JobConfig {
        layers_min: layers,
        layers_max: layers,
        width_max: 3,
        // Generous: the bench measures scheduling speed, not deadline
        // pressure, and deep jobs need room on a random pool.
        deadline_factor: 20.0,
        ..JobConfig::default()
    };
    generate_job(
        &cfg,
        JobId::new(seed),
        SimTime::ZERO,
        &mut SimRng::seed_from(seed),
    )
}

fn main() {
    let group = Group::new("critical_works");
    let policy = DataPolicy::remote_access();

    let fig2 = fig2_job();
    let pool4 = fig2_pool();
    group.bench("fig2_job_4_nodes", || {
        PlanningSession::open(&pool4)
            .build_distribution(&ScheduleRequest {
                job: &fig2,
                pool: &pool4,
                policy: &policy,
                scenario: EstimateScenario::BEST,
                release: SimTime::ZERO,
            })
            .expect("feasible")
    });

    let pool = generate_pool(&PoolConfig::default(), &mut SimRng::seed_from(1));
    for layers in [3usize, 6, 10] {
        let job = sized_job(layers, layers as u64);
        let label = format!("random_job_tasks/{}", job.task_count());
        group.bench(&label, || {
            // A stranded pass is timed too: the bench measures the pass,
            // not whether its deadline holds.
            PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
                job: &job,
                pool: &pool,
                policy: &policy,
                scenario: EstimateScenario::BEST,
                release: SimTime::ZERO,
            })
        });
    }
}
