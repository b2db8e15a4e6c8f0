//! Property tests: coarsening and Gantt rendering on random jobs.

use gridsched_core::gantt::render_gantt;
use gridsched_core::granularity::coarsen;
use gridsched_core::method::ScheduleRequest;
use gridsched_core::session::PlanningSession;
use gridsched_data::policy::DataPolicy;
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::JobId;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::rng::SimRng;
use gridsched_sim::time::SimTime;
use gridsched_workload::jobs::{generate_job, JobConfig};
use gridsched_workload::pool::{generate_pool, PoolConfig};

/// Coarsening preserves total volume, never adds tasks or edges, keeps
/// the deadline, and is idempotent.
#[test]
fn coarsening_invariants() {
    check(64, |g: &mut Gen| {
        let seed = g.u64_in(0, 9_999);
        let mut rng = SimRng::seed_from(seed);
        let job = generate_job(
            &JobConfig::default(),
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let once = coarsen(&job);
        assert_eq!(once.job.total_volume(), job.total_volume());
        assert!(once.job.task_count() <= job.task_count());
        assert!(once.job.edges().len() <= job.edges().len());
        assert_eq!(once.job.deadline(), job.deadline());
        assert_eq!(once.job.id(), job.id());
        // The mapping covers every original task with a valid target.
        assert_eq!(once.mapping.len(), job.task_count());
        for t in &once.mapping {
            assert!(t.index() < once.job.task_count());
        }
        // Idempotence: a coarsened job has no mergeable runs left.
        let twice = coarsen(&once.job);
        assert_eq!(twice.job.task_count(), once.job.task_count());
        assert_eq!(twice.job.edges().len(), once.job.edges().len());
    });
}

/// Coarsening preserves the precedence structure: if original task `a`
/// precedes `b` (directly) and they land in different groups, the
/// groups are connected in the coarse DAG.
#[test]
fn coarsening_preserves_cross_group_edges() {
    check(64, |g: &mut Gen| {
        let seed = g.u64_in(0, 4_999);
        let mut rng = SimRng::seed_from(seed);
        let job = generate_job(
            &JobConfig::default(),
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let coarse = coarsen(&job);
        for e in job.edges() {
            let gf = coarse.mapping[e.from().index()];
            let gt = coarse.mapping[e.to().index()];
            if gf != gt {
                assert!(
                    coarse.job.successors(gf).any(|s| s == gt),
                    "edge {}->{} lost: groups {} and {} unconnected",
                    e.from(),
                    e.to(),
                    gf,
                    gt
                );
            }
        }
    });
}

/// Gantt rendering never panics on a valid schedule and paints exactly
/// the reserved wall time.
#[test]
fn gantt_paints_exactly_the_wall_time() {
    check(64, |g: &mut Gen| {
        let seed = g.u64_in(0, 4_999);
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
        let Ok(dist) = PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        }) else {
            return;
        };
        let chart = render_gantt(&dist, &pool);
        let busy: usize = chart
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| {
                // Strip the "  N12 |" label prefix before counting cells.
                let bar = l.find('|').expect("row has bars");
                l[bar + 1..l.len() - 1]
                    .chars()
                    .filter(|c| *c != ' ')
                    .count()
            })
            .sum();
        let expected: u64 = dist
            .placements()
            .iter()
            .map(|p| p.window.duration().ticks())
            .sum();
        assert_eq!(busy as u64, expected);
    });
}
