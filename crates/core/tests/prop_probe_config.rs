//! Probe configuration travels by value.
//!
//! A [`ProbeConfig`] lives on its [`ResourcePool`] and is fixed into every
//! snapshot the pool captures, so pools with different configurations can
//! plan side by side without sharing mutable state. This suite plans the
//! same job stream on two pools that differ only in their config — one
//! engaging the gap index on every calendar, one never engaging it —
//! once alone and once on two
//! threads at the same time. Each thread must get exactly what it gets
//! alone: the same placements, and the same probe telemetry.

use std::cell::Cell;
use std::sync::Barrier;

use gridsched_core::distribution::Placement;
use gridsched_core::method::ScheduleRequest;
use gridsched_core::session::PlanningSession;
use gridsched_data::policy::DataPolicy;
use gridsched_metrics::telemetry::{Counter, Telemetry};
use gridsched_model::availability::ProbeConfig;
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{GlobalTaskId, JobId};
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;
use gridsched_model::timetable::ReservationOwner;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::rng::SimRng;
use gridsched_sim::time::SimTime;
use gridsched_workload::background::{apply_background_load, BackgroundConfig};
use gridsched_workload::jobs::{generate_job, JobConfig};
use gridsched_workload::pool::{generate_pool, PoolConfig};

const INDEXED: ProbeConfig = ProbeConfig { index_floor: 0 };

const LINEAR: ProbeConfig = ProbeConfig {
    index_floor: usize::MAX,
};

/// What one planning run observes: each job's placements (`None` when
/// the job could not be scheduled) and the probe counters
/// `(IndexSeeks, IndexBypasses, IndexCacheHits)` of its own telemetry.
type Run = (Vec<Option<Vec<Placement>>>, (u64, u64, u64));

/// A loaded pool under `INDEXED` and a short job stream.
fn workload(g: &mut Gen) -> (ResourcePool, Vec<Job>) {
    let mut rng = SimRng::seed_from(g.u64_in(0, u64::MAX / 2));
    let mut pool = generate_pool(
        &PoolConfig {
            nodes_min: 6,
            nodes_max: 12,
            probe: INDEXED,
            ..PoolConfig::default()
        },
        &mut rng.fork(1),
    );
    apply_background_load(
        &mut pool,
        &BackgroundConfig {
            load: g.f64_in(0.3, 0.7),
            ..BackgroundConfig::default()
        },
        &mut rng.fork(2),
    );
    let job_config = JobConfig {
        deadline_factor: 6.0,
        ..JobConfig::default()
    };
    let jobs = (0..g.u64_in(2, 6))
        .map(|i| {
            let release = SimTime::from_ticks(10 * i);
            generate_job(&job_config, JobId::new(i), release, &mut rng.fork(10 + i))
        })
        .collect();
    (pool, jobs)
}

/// Plans `jobs` in order on `pool`, one instrumented session per job,
/// reserving every schedule found before the next job plans.
fn plan_all(mut pool: ResourcePool, jobs: &[Job]) -> Run {
    let telemetry = Telemetry::new();
    let policy = DataPolicy::remote_access();
    let mut placements = Vec::with_capacity(jobs.len());
    for job in jobs {
        let planned = PlanningSession::open_instrumented(&pool, &telemetry, None)
            .build_distribution(&ScheduleRequest {
                job,
                pool: &pool,
                policy: &policy,
                scenario: EstimateScenario::BEST,
                release: job.release(),
            })
            .ok()
            .map(|d| d.placements().to_vec());
        for p in planned.iter().flatten() {
            let owner = ReservationOwner::Task(GlobalTaskId {
                job: job.id(),
                task: p.task,
            });
            pool.timetable_mut(p.node)
                .reserve(p.window, owner)
                .expect("a planned window is free");
        }
        placements.push(planned);
    }
    let counters = (
        telemetry.counter(Counter::IndexSeeks),
        telemetry.counter(Counter::IndexBypasses),
        telemetry.counter(Counter::IndexCacheHits),
    );
    (placements, counters)
}

#[test]
fn concurrent_pools_with_different_probe_configs_plan_as_they_do_alone() {
    let scheduled = Cell::new(0usize);
    check(24, |g| {
        let (indexed, jobs) = workload(g);
        let mut linear = indexed.clone();
        linear.set_probe_config(LINEAR);

        let solo_indexed = plan_all(indexed.clone(), &jobs);
        let solo_linear = plan_all(linear.clone(), &jobs);

        let barrier = Barrier::new(2);
        let (side_indexed, side_linear) = std::thread::scope(|s| {
            let run = |pool: ResourcePool| {
                let (barrier, jobs) = (&barrier, &jobs);
                s.spawn(move || {
                    barrier.wait();
                    plan_all(pool, jobs)
                })
            };
            let a = run(indexed.clone());
            let b = run(linear.clone());
            (a.join().unwrap(), b.join().unwrap())
        });

        assert_eq!(side_indexed, solo_indexed, "indexed pool, side by side");
        assert_eq!(side_linear, solo_linear, "linear pool, side by side");
        assert_eq!(
            solo_indexed.0, solo_linear.0,
            "the probe path never changes a decision"
        );
        let (seeks, bypasses, indexed_hits) = solo_indexed.1;
        assert!(seeks > 0, "floor 0 sends cold probes through the index");
        assert_eq!(bypasses, 0, "floor 0 never walks linearly");
        assert!(indexed_hits > 0, "later captures reuse unchanged calendars");
        let (seeks, bypasses, hits) = solo_linear.1;
        assert_eq!(seeks, 0, "floor MAX never seeks");
        assert!(bypasses > 0, "floor MAX walks every cold probe");
        assert_eq!(
            hits, indexed_hits,
            "captures reuse calendars on either path"
        );
        scheduled.set(scheduled.get() + solo_indexed.0.iter().flatten().count());
    });
    assert!(scheduled.get() > 0, "no generated job was schedulable");
}
