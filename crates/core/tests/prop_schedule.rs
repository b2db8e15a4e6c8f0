//! Property tests: every schedule the critical works method emits is
//! feasible — precedence-correct, non-overlapping, deadline-respecting and
//! consistent with pre-existing background reservations.

use std::collections::HashMap;

use gridsched_core::distribution::Placement;
use gridsched_core::method::ScheduleRequest;
use gridsched_core::objective::Objective;
use gridsched_core::session::PlanningSession;
use gridsched_core::strategy::{Strategy as SchedulingStrategy, StrategyConfig, StrategyKind};
use gridsched_data::policy::DataPolicy;
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{GlobalTaskId, JobId, TaskId};
use gridsched_model::timetable::ReservationOwner;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::rng::SimRng;
use gridsched_sim::time::{SimDuration, SimTime};
use gridsched_workload::background::{apply_background_load, BackgroundConfig};
use gridsched_workload::jobs::{generate_job, JobConfig};
use gridsched_workload::pool::{generate_pool, PoolConfig};

/// (seed, deadline factor, background load)
fn gen_inputs(g: &mut Gen) -> (u64, f64, f64) {
    (g.u64_in(0, 9_999), g.f64_in(1.5, 8.0), g.f64_in(0.0, 0.7))
}

/// Any schedule built on a randomly loaded pool validates, meets the
/// deadline, and never overlaps background reservations.
#[test]
fn schedules_are_feasible() {
    check(64, |g| {
        let (seed, df, load) = gen_inputs(g);
        let mut rng = SimRng::seed_from(seed);
        let mut pool = generate_pool(&PoolConfig::default(), &mut rng);
        if load > 0.01 {
            apply_background_load(
                &mut pool,
                &BackgroundConfig {
                    load,
                    ..BackgroundConfig::default()
                },
                &mut rng,
            );
        }
        let job = generate_job(
            &JobConfig {
                deadline_factor: df,
                ..JobConfig::default()
            },
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let policy = DataPolicy::remote_access();
        let result = PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        });
        if let Ok(dist) = result {
            assert_eq!(dist.validate(&job, &pool), Ok(()));
            assert!(dist.meets_deadline(job.absolute_deadline()));
            for p in dist.placements() {
                assert!(
                    pool.timetable(p.node).is_free(p.window),
                    "placement {p} overlaps background load"
                );
            }
        }
    });
}

/// Cost monotonicity: a longer deadline never makes the cheapest
/// schedule more expensive (the paper's pay-for-speed economics).
/// Restricted to single-chain (pipeline) jobs, where the Pareto DP is
/// exact; on fork-joins the multiphase heuristic is only approximately
/// monotone.
#[test]
fn cost_is_monotone_in_deadline() {
    check(64, |g| {
        let seed = g.u64_in(0, 1_999);
        let mut rng = SimRng::seed_from(seed);
        let pool = generate_pool(&PoolConfig::default(), &mut rng);
        let policy = DataPolicy::remote_access();
        let mut previous: Option<u64> = None;
        for df in [1.5f64, 2.5, 4.0, 8.0] {
            let mut jrng = SimRng::seed_from(seed + 1);
            let job = generate_job(
                &JobConfig {
                    deadline_factor: df,
                    width_max: 1, // pipeline: a single critical work
                    ..JobConfig::default()
                },
                JobId::new(seed),
                SimTime::ZERO,
                &mut jrng,
            );
            let result = PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
                job: &job,
                pool: &pool,
                policy: &policy,
                scenario: EstimateScenario::BEST,
                release: SimTime::ZERO,
            });
            if let Ok(dist) = result {
                if let Some(prev) = previous {
                    assert!(
                        dist.cost() <= prev,
                        "cost rose from {prev} to {} when deadline loosened to {df}",
                        dist.cost()
                    );
                }
                previous = Some(dist.cost());
            }
        }
    });
}

/// Every strategy kind produces only valid, deadline-meeting schedules
/// on random inputs; MS1 never has more schedules than S1.
#[test]
fn strategies_produce_valid_schedules() {
    check(48, |g| {
        let seed = g.u64_in(0, 1_999);
        let mut rng = SimRng::seed_from(seed);
        let pool = generate_pool(&PoolConfig::default(), &mut rng);
        let job = generate_job(
            &JobConfig {
                deadline_factor: 5.0,
                ..JobConfig::default()
            },
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let mut s1_count = None;
        for kind in StrategyKind::ALL {
            let config = StrategyConfig::for_kind(kind, &pool);
            let strategy = SchedulingStrategy::generate(&job, &pool, &config, SimTime::ZERO);
            for d in strategy.distributions() {
                assert_eq!(d.validate(strategy.job(), &pool), Ok(()), "{kind}");
                assert!(d.meets_deadline(strategy.job().absolute_deadline()));
            }
            match kind {
                StrategyKind::S1 => s1_count = Some(strategy.distributions().len()),
                StrategyKind::Ms1 => {
                    if let Some(s1) = s1_count {
                        assert!(strategy.distributions().len() <= s1.max(2));
                    }
                }
                _ => {}
            }
        }
    });
}

/// Scheduling is a pure function of its inputs: the pool's timetables
/// are never mutated.
#[test]
fn scheduling_never_mutates_the_pool() {
    check(64, |g| {
        let (seed, df, load) = gen_inputs(g);
        let mut rng = SimRng::seed_from(seed);
        let mut pool = generate_pool(&PoolConfig::default(), &mut rng);
        if load > 0.01 {
            apply_background_load(
                &mut pool,
                &BackgroundConfig {
                    load,
                    ..BackgroundConfig::default()
                },
                &mut rng,
            );
        }
        let before: Vec<usize> = pool.nodes().map(|n| pool.timetable(n.id()).len()).collect();
        let job = generate_job(
            &JobConfig {
                deadline_factor: df,
                ..JobConfig::default()
            },
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let policy = DataPolicy::active_replication();
        let _ = PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::WORST,
            release: SimTime::ZERO,
        });
        let after: Vec<usize> = pool.nodes().map(|n| pool.timetable(n.id()).len()).collect();
        assert_eq!(before, after);
    });
}

/// FNV-1a 64-bit over a stream of little-endian words: tiny, stable
/// across platforms, and sensitive to every field fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn placements(&mut self, ps: &[Placement]) {
        self.word(ps.len() as u64);
        for p in ps {
            self.word(p.task.index() as u64);
            self.word(p.node.index() as u64);
            self.word(p.window.start().ticks());
            self.word(p.window.end().ticks());
            self.word(p.stall.ticks());
            self.word(p.cost);
        }
    }
}

/// The co-allocation DP's exact output — which Pareto state wins each
/// tie, and so every placement's node, window, stall and cost — is frozen
/// here, independently of the campaign-level fingerprints. Covers all
/// four strategy kinds (so all three data policies and the S3
/// coarsening) on loaded 3-domain pools, plus `MinTime` admission probes
/// at several release instants. A change that keeps decisions the same
/// leaves both hashes untouched.
#[test]
fn dp_decisions_match_frozen_fingerprints() {
    let mut generated = Fnv::new();
    let mut probed = Fnv::new();
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(7_000 + seed);
        let mut pool = generate_pool(&PoolConfig::default(), &mut rng);
        apply_background_load(
            &mut pool,
            &BackgroundConfig {
                load: 0.1 + 0.05 * (seed % 8) as f64,
                ..BackgroundConfig::default()
            },
            &mut rng,
        );
        let job = generate_job(
            &JobConfig {
                deadline_factor: 2.0 + (seed % 4) as f64,
                // Every other job a pipeline: a `MinTime` probe of a
                // fork-join rarely succeeds, a chain's usually does.
                width_max: if seed % 2 == 0 { 1 } else { 3 },
                ..JobConfig::default()
            },
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        for kind in StrategyKind::ALL {
            let config = StrategyConfig::for_kind(kind, &pool);
            let strategy = SchedulingStrategy::generate(&job, &pool, &config, SimTime::ZERO);
            generated.word(strategy.distributions().len() as u64);
            for d in strategy.distributions() {
                generated.placements(d.placements());
                generated.word(d.collisions().len() as u64);
                for c in d.collisions() {
                    generated.word(c.task.index() as u64);
                    generated.word(c.node.index() as u64);
                    generated.word(c.group as u64);
                }
            }
            generated.word(strategy.failures().len() as u64);
            for f in strategy.failures() {
                generated.word(f.task.index() as u64);
            }
        }
        let kind = StrategyKind::ALL[(seed % 4) as usize];
        let config = StrategyConfig::for_kind(kind, &pool);
        let session = PlanningSession::open(&pool);
        for release in [0u64, 7, 25, 60] {
            let release = SimTime::from_ticks(release);
            let req = ScheduleRequest {
                job: &job,
                pool: &pool,
                policy: config.policy(),
                scenario: EstimateScenario::BEST,
                release,
            };
            let deadline = release.saturating_add(job.deadline());
            match session.probe(&req, deadline, Objective::MinTime { budget: None }) {
                Ok(d) => {
                    probed.word(1);
                    probed.placements(d.placements());
                }
                Err(e) => {
                    probed.word(0);
                    probed.word(e.task.index() as u64);
                }
            }
        }
    }
    assert_eq!(
        (generated.0, probed.0),
        (0xc747_6552_84f0_76c8, 0xf727_7236_3cfd_d520),
        "DP output moved: generate {:#018x}, probe {:#018x}",
        generated.0,
        probed.0
    );
}

/// The two other paths that plan under `MinTime`, frozen like
/// [`dp_decisions_match_frozen_fingerprints`]:
///
/// - the urgent replan of the job-flow simulation,
///   `reschedule_with_objective(.., FASTEST)`, with every other task in
///   topological order already fixed (and reserved), so the replanned
///   chains meet placed producers and placed consumers;
/// - admission probes under `MinTime { budget: Some(b) }` for budgets
///   from "nothing fits" (the cheapest-state fallback) to "everything
///   fits".
///
/// Both scenarios, all four strategy kinds' data policies, pipelines and
/// fork-joins on loaded 3-domain pools.
#[test]
fn min_time_replans_and_budget_probes_match_frozen_fingerprints() {
    let mut replanned = Fnv::new();
    let mut budgeted = Fnv::new();
    let hash_result = |h: &mut Fnv, result: Result<&[Placement], TaskId>| match result {
        Ok(ps) => {
            h.word(1);
            h.placements(ps);
        }
        Err(task) => {
            h.word(0);
            h.word(task.index() as u64);
        }
    };
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(9_000 + seed);
        let mut pool = generate_pool(&PoolConfig::default(), &mut rng);
        apply_background_load(
            &mut pool,
            &BackgroundConfig {
                load: 0.1 + 0.05 * (seed % 8) as f64,
                ..BackgroundConfig::default()
            },
            &mut rng,
        );
        let job = generate_job(
            &JobConfig {
                deadline_factor: 2.0 + (seed % 4) as f64,
                width_max: if seed % 2 == 0 { 1 } else { 3 },
                ..JobConfig::default()
            },
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let config = StrategyConfig::for_kind(StrategyKind::ALL[(seed % 4) as usize], &pool);
        let scenario = if seed % 3 == 0 {
            EstimateScenario::WORST
        } else {
            EstimateScenario::BEST
        };
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: config.policy(),
            scenario,
            release: SimTime::ZERO,
        };
        let deadline = job.absolute_deadline();

        // The original plan is a best-case one; the replan runs under the
        // seed's scenario.
        let planned = PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
            scenario: EstimateScenario::BEST,
            ..req
        });
        match planned {
            Ok(plan) => {
                let mut fixed = HashMap::new();
                let mut replan_pool = pool.clone();
                for &t in job.topo_order().iter().step_by(2) {
                    let p = *plan.placement(t);
                    replan_pool
                        .timetable_mut(p.node)
                        .reserve(
                            p.window,
                            ReservationOwner::Task(GlobalTaskId {
                                job: job.id(),
                                task: t,
                            }),
                        )
                        .expect("a plan's windows are free");
                    fixed.insert(t, p);
                }
                for release in [0u64, 4] {
                    let req = ScheduleRequest {
                        pool: &replan_pool,
                        release: SimTime::from_ticks(release),
                        ..req
                    };
                    let result = PlanningSession::open(&replan_pool).reschedule_with_objective(
                        &req,
                        &fixed,
                        deadline,
                        Objective::FASTEST,
                    );
                    hash_result(
                        &mut replanned,
                        result.as_ref().map(|d| d.placements()).map_err(|e| e.task),
                    );
                }
            }
            Err(e) => {
                replanned.word(2);
                replanned.word(e.task.index() as u64);
            }
        }

        let session = PlanningSession::open(&pool);
        for budget in [0, 6, 12, 20, 35, 1_000] {
            let result = session.probe(
                &req,
                deadline,
                Objective::MinTime {
                    budget: Some(budget),
                },
            );
            hash_result(
                &mut budgeted,
                result.as_ref().map(|d| d.placements()).map_err(|e| e.task),
            );
        }
    }
    assert_eq!(
        (replanned.0, budgeted.0),
        (0xf7c2_ff5c_fc1d_be65, 0x5d55_7dcc_a4a4_9faf),
        "MinTime output moved: replan {:#018x}, budget probe {:#018x}",
        replanned.0,
        budgeted.0
    );
}

/// The job-flow layer's default replan, frozen like
/// [`dp_decisions_match_frozen_fingerprints`]:
/// `reschedule_with_objective(.., MinCost)` with a topological prefix of
/// the tasks already fixed (started, and reserved), replanning the rest
/// from the last fixed start onwards. The replanned chains meet placed
/// producers. Two prefix lengths and two release instants per job, both
/// scenarios, all four strategy kinds' data policies, pipelines and
/// fork-joins on loaded 3-domain pools.
#[test]
fn min_cost_replans_match_frozen_fingerprints() {
    let mut replanned = Fnv::new();
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(11_000 + seed);
        let mut pool = generate_pool(&PoolConfig::default(), &mut rng);
        apply_background_load(
            &mut pool,
            &BackgroundConfig {
                load: 0.1 + 0.05 * (seed % 8) as f64,
                ..BackgroundConfig::default()
            },
            &mut rng,
        );
        let job = generate_job(
            &JobConfig {
                deadline_factor: 2.0 + (seed % 4) as f64,
                width_max: if seed % 2 == 0 { 1 } else { 3 },
                ..JobConfig::default()
            },
            JobId::new(seed),
            SimTime::ZERO,
            &mut rng,
        );
        let config = StrategyConfig::for_kind(StrategyKind::ALL[(seed % 4) as usize], &pool);
        let scenario = if seed % 3 == 0 {
            EstimateScenario::WORST
        } else {
            EstimateScenario::BEST
        };
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: config.policy(),
            scenario,
            release: SimTime::ZERO,
        };
        let deadline = job.absolute_deadline();
        let planned = PlanningSession::open(&pool).build_distribution(&ScheduleRequest {
            scenario: EstimateScenario::BEST,
            ..req
        });
        let plan = match planned {
            Ok(plan) => plan,
            Err(e) => {
                replanned.word(2);
                replanned.word(e.task.index() as u64);
                continue;
            }
        };
        let topo = job.topo_order();
        for prefix in [topo.len() / 3, topo.len() / 2] {
            let mut fixed = HashMap::new();
            let mut replan_pool = pool.clone();
            for &t in &topo[..prefix] {
                let p = *plan.placement(t);
                replan_pool
                    .timetable_mut(p.node)
                    .reserve(
                        p.window,
                        ReservationOwner::Task(GlobalTaskId {
                            job: job.id(),
                            task: t,
                        }),
                    )
                    .expect("a plan's windows are free");
                fixed.insert(t, p);
            }
            let last_start = fixed
                .values()
                .map(|p| p.window.start())
                .max()
                .unwrap_or(SimTime::ZERO);
            for delay in [0u64, 5] {
                let req = ScheduleRequest {
                    pool: &replan_pool,
                    release: last_start.saturating_add(SimDuration::from_ticks(delay)),
                    ..req
                };
                match PlanningSession::open(&replan_pool).reschedule_with_objective(
                    &req,
                    &fixed,
                    deadline,
                    Objective::MinCost,
                ) {
                    Ok(d) => {
                        replanned.word(1);
                        replanned.placements(d.placements());
                    }
                    Err(e) => {
                        replanned.word(0);
                        replanned.word(e.task.index() as u64);
                    }
                }
            }
        }
    }
    assert_eq!(
        replanned.0, 0x9efc_9d36_3628_e0a6,
        "MinCost replan output moved: {:#018x}",
        replanned.0
    );
}
