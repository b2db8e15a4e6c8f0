//! The critical works method (§3).
//!
//! A "multiphase procedure, which is searching for a next critical work —
//! the longest … chain of unassigned tasks along with the best combination
//! of available resources, and resolving collisions caused by conflicts
//! between tasks of different critical works competing for the same
//! resource."
//!
//! Phases, per estimation scenario:
//!
//! 1. decompose the job into vertex-disjoint critical works, longest first
//!    ([`crate::chains`]);
//! 2. allocate each work by dynamic programming against the *background*
//!    availability — deliberately ignoring the sibling works' reservations
//!    ([`crate::allocate`]);
//! 3. if the resulting placements collide with a sibling work's
//!    reservation, record the collision (node and performance group — the
//!    Fig. 3b statistic) and re-allocate the work against the true
//!    availability;
//! 4. commit the work's reservations and continue.
//!
//! This module holds the engine proper ([`ScheduleRequest`] in,
//! [`Distribution`] out). Callers reach it through a [`PlanningSession`],
//! which captures one availability snapshot and runs the method against
//! copy-on-write overlay views of it. The one other way in is
//! [`build_distribution_cloning`], the clone-per-scenario reference kept
//! as the oracle of the differential tests.
//!
//! [`PlanningSession`]: crate::session::PlanningSession

use std::collections::HashMap;
use std::fmt;

use gridsched_sim::time::SimTime;

use gridsched_data::policy::DataPolicy;
use gridsched_model::availability::TimetableOverlay;
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::TaskId;
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;

use crate::allocate::{allocate_prepared, AllocationContext};
use crate::chains::{next_critical_work_into, CriticalWork};
use crate::distribution::{CollisionRecord, Distribution, Placement};
use crate::scratch::EngineScratch;

/// Vertex-disjoint critical works over the not-yet-placed tasks only,
/// written into `scratch.works` (task vectors recycled from
/// `scratch.spare_tasks`).
fn decompose_remaining(
    req: &ScheduleRequest<'_>,
    fastest: gridsched_model::perf::Perf,
    scratch: &mut EngineScratch,
) {
    scratch.remaining.clone_from(&scratch.unassigned);
    loop {
        let mut tasks = scratch.spare_tasks.pop().unwrap_or_default();
        let length = next_critical_work_into(
            req.job,
            &scratch.remaining,
            |t| req.scenario.duration(req.job.task(t), fastest),
            |e| req.policy.transfer_model().intra_domain_time(e.volume()),
            &mut scratch.chain,
            &mut tasks,
        );
        match length {
            Some(length) => {
                for t in &tasks {
                    scratch.remaining[t.index()] = false;
                }
                scratch.works.push(CriticalWork { tasks, length });
            }
            None => {
                scratch.spare_tasks.push(tasks);
                break;
            }
        }
    }
}

/// Inputs of one critical-works scheduling run.
///
/// The allocator optimizes [`crate::objective::Objective::MinCost`] —
/// the paper's default criterion. Use
/// [`PlanningSession::build_distribution_with_objective`] for the
/// multicriteria variants.
///
/// [`PlanningSession::build_distribution_with_objective`]:
///     crate::session::PlanningSession::build_distribution_with_objective
#[derive(Debug)]
pub struct ScheduleRequest<'a> {
    /// The compound job.
    pub job: &'a Job,
    /// The resource pool whose timetables describe current availability.
    pub pool: &'a ResourcePool,
    /// Data-access policy.
    pub policy: &'a DataPolicy,
    /// Estimation scenario to plan under.
    pub scenario: EstimateScenario,
    /// Earliest start instant (usually the job's arrival at the
    /// metascheduler).
    pub release: SimTime,
}

/// Failure to construct a supporting schedule for one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// The first task with no feasible placement.
    pub task: TaskId,
    /// The scenario that failed.
    pub scenario: EstimateScenario,
    /// Collisions recorded before the failure (they still count towards
    /// the Fig. 3b statistics).
    pub collisions: Vec<CollisionRecord>,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no admissible schedule under scenario {}: task {} unplaceable",
            self.scenario, self.task
        )
    }
}

impl std::error::Error for ScheduleError {}

/// The clone-per-scenario reference for
/// [`PlanningSession::build_distribution`]: deep-clones the pool, captures
/// a cold snapshot of the clone and plans on two fresh overlays with a
/// fresh [`EngineScratch`], so every call pays a full calendar copy and
/// shares nothing with earlier runs.
///
/// Kept as the oracle of the differential/determinism suites, to pin that
/// the session's shared snapshot, calendar cache and recycled scratch
/// leave the output bit-identical.
///
/// # Errors
///
/// Returns [`ScheduleError`] exactly when
/// [`PlanningSession::build_distribution`] does.
///
/// [`PlanningSession::build_distribution`]:
///     crate::session::PlanningSession::build_distribution
pub fn build_distribution_cloning(
    req: &ScheduleRequest<'_>,
) -> Result<Distribution, ScheduleError> {
    let deadline = req.release.saturating_add(req.job.deadline());
    // A cloned pool starts with an empty calendar cache, so this capture
    // freezes every node afresh.
    let snapshot = req.pool.clone().snapshot();
    let background = TimetableOverlay::new(snapshot.clone());
    let mut with_job = TimetableOverlay::new(snapshot);
    run_method_chains(
        req,
        &Pass::new(&HashMap::new(), deadline),
        &background,
        &mut with_job,
        &mut EngineScratch::default(),
    )
}

/// What one critical-works pass plans beyond its [`ScheduleRequest`]: the
/// settings the session entry points vary. [`Pass::new`] is the paper's
/// method; entry points override fields with struct-update syntax.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pass<'a> {
    /// Placements kept as they are (tasks that already started); only
    /// the other tasks are planned.
    pub(crate) fixed: &'a HashMap<TaskId, Placement>,
    /// Absolute deadline every placement must meet.
    pub(crate) deadline: SimTime,
    /// Ideal allocation against the background, then collision
    /// resolution (the paper's method). `false` is the single-phase
    /// ablation: every chain allocates against the true availability.
    pub(crate) two_phase: bool,
    /// Restricts placement to one domain's nodes.
    pub(crate) domain: Option<gridsched_model::ids::DomainId>,
    /// The criterion each chain's schedule is picked under.
    pub(crate) objective: crate::objective::Objective,
}

impl<'a> Pass<'a> {
    /// The paper's method: two phases over the whole pool, `MinCost`,
    /// critical works.
    pub(crate) fn new(fixed: &'a HashMap<TaskId, Placement>, deadline: SimTime) -> Self {
        Pass {
            fixed,
            deadline,
            two_phase: true,
            domain: None,
            objective: crate::objective::Objective::MinCost,
        }
    }
}

/// The critical-works engine proper.
///
/// `background` and `with_job` must start as equal views of the pool's
/// current availability: phase 1 allocates against `background` only,
/// phase 2 and the commits run against `with_job`. The planning session
/// passes two overlays over its shared snapshot;
/// [`build_distribution_cloning`] passes two over a cold snapshot of a
/// cloned pool.
///
/// All working buffers live in `scratch` and are reused across passes
/// (cleared before use, so a fresh [`EngineScratch`] behaves identically
/// to a recycled one); only the returned [`Distribution`] is allocated.
pub(crate) fn run_method_chains(
    req: &ScheduleRequest<'_>,
    pass: &Pass<'_>,
    background: &TimetableOverlay,
    with_job: &mut TimetableOverlay,
    scratch: &mut EngineScratch,
) -> Result<Distribution, ScheduleError> {
    let ctx = AllocationContext {
        job: req.job,
        pool: req.pool,
        policy: req.policy,
        scenario: req.scenario,
        release: req.release,
        deadline: pass.deadline,
        domain: pass.domain,
        objective: pass.objective,
    };
    // Chain ranking weights: scenario-scaled durations on the fastest node
    // class; transfers at the cheapest (intra-domain) price.
    let fastest = req.pool.fastest_perf();
    scratch.unassigned.clear();
    scratch.unassigned.extend(
        req.job
            .tasks()
            .iter()
            .map(|t| !pass.fixed.contains_key(&t.id())),
    );
    // Retire the previous pass's critical works, keeping their task
    // vectors' capacity for this pass.
    for work in scratch.works.drain(..) {
        let mut tasks = work.tasks;
        tasks.clear();
        scratch.spare_tasks.push(tasks);
    }
    decompose_remaining(req, fastest, scratch);

    scratch.placed.clear();
    scratch
        .placed
        .extend(pass.fixed.iter().map(|(&t, &p)| (t, p)));
    scratch.alloc.begin_pass(&ctx);
    let mut collisions: Vec<CollisionRecord> = Vec::new();

    for work in &scratch.works {
        // Both phases allocate the same chain under the same placements,
        // so they share its availability-free tables.
        scratch
            .alloc
            .prepare_chain(&ctx, &work.tasks, &scratch.placed);
        // Phase 1: ideal allocation against the background only (the
        // single-phase ablation skips straight to the true availability).
        let view = if pass.two_phase {
            background
        } else {
            &*with_job
        };
        let ideal = allocate_prepared(
            &ctx,
            &work.tasks,
            view,
            &mut scratch.alloc,
            &mut scratch.ideal,
        );
        let chosen: Result<&[Placement], crate::allocate::AllocateError> = match ideal {
            Ok(()) => {
                let mut any_conflict = false;
                for p in &scratch.ideal {
                    if !with_job.is_free(p.node, p.window) {
                        // Phase 2: collision with a sibling critical work.
                        any_conflict = true;
                        collisions.push(CollisionRecord {
                            task: p.task,
                            node: p.node,
                            group: req.pool.node(p.node).group(),
                        });
                    }
                }
                if !any_conflict {
                    Ok(&scratch.ideal)
                } else {
                    allocate_prepared(
                        &ctx,
                        &work.tasks,
                        &*with_job,
                        &mut scratch.alloc,
                        &mut scratch.resolved,
                    )
                    .map(|()| scratch.resolved.as_slice())
                }
            }
            Err(e) => Err(e),
        };
        let placements = chosen.map_err(|e| ScheduleError {
            task: e.task,
            scenario: req.scenario,
            collisions: collisions.clone(),
        })?;
        for &p in placements {
            with_job
                .reserve_window(p.node, p.window)
                .expect("allocation chose a free window");
            scratch.placed.insert(p.task, p);
        }
    }

    let mut placements: Vec<Placement> = scratch.placed.drain().map(|(_, p)| p).collect();
    placements.sort_by_key(|p| p.task);
    Ok(Distribution::new(req.scenario, placements, collisions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::PlanningSession;
    use gridsched_model::fixtures::{fig2_job, fig2_job_with_deadline};
    use gridsched_model::ids::{DomainId, NodeId};
    use gridsched_model::perf::Perf;
    use gridsched_model::timetable::ReservationOwner;
    use gridsched_model::window::TimeWindow;
    use gridsched_sim::time::SimDuration;

    /// The paper's four node types: performances 1, 1/2, 1/3, 1/4.
    fn fig2_pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        for j in 1..=4u32 {
            pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j)).unwrap());
        }
        pool
    }

    fn request<'a>(
        job: &'a Job,
        pool: &'a ResourcePool,
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
    fn fig2_schedule_is_valid_and_meets_deadline() {
        let job = fig2_job();
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let dist = session
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap();
        assert_eq!(dist.validate(&job, &pool), Ok(()));
        assert!(dist.meets_deadline(SimTime::from_ticks(20)), "{dist}");
        assert!(dist.cost() > 0);
    }

    #[test]
    fn tighter_deadline_costs_more() {
        // The paper's economics: "user should pay additional cost in order
        // to … start the task faster."
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let relaxed_job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let tight_job = fig2_job_with_deadline(SimDuration::from_ticks(14));
        let relaxed = session
            .build_distribution(&request(&relaxed_job, &pool, &policy))
            .unwrap();
        let tight = session
            .build_distribution(&request(&tight_job, &pool, &policy))
            .unwrap();
        assert!(
            tight.cost() > relaxed.cost(),
            "tight {} vs relaxed {}",
            tight.cost(),
            relaxed.cost()
        );
        assert!(tight.makespan() <= SimTime::from_ticks(14));
    }

    #[test]
    fn impossible_deadline_is_reported() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(5));
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let err = session
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap_err();
        assert_eq!(err.scenario, EstimateScenario::BEST);
    }

    #[test]
    fn collisions_recorded_when_chains_contend() {
        // A two-node pool forces the two critical works of the Fig. 2 job
        // to fight over the same nodes.
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(0), Perf::FULL);
        let job = fig2_job_with_deadline(SimDuration::from_ticks(40));
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let dist = session
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap();
        assert!(
            !dist.collisions().is_empty(),
            "sibling chains on two identical nodes must collide"
        );
        assert_eq!(dist.validate(&job, &pool), Ok(()));
    }

    #[test]
    fn background_load_shifts_schedule() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let mut pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let free = PlanningSession::open(&pool)
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap();
        // Occupy every node until t10.
        for i in 0..pool.len() {
            let id = NodeId::new(i as u32);
            pool.timetable_mut(id)
                .reserve(
                    TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(10)).unwrap(),
                    ReservationOwner::Background(0),
                )
                .unwrap();
        }
        let loaded = PlanningSession::open(&pool)
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap();
        assert!(loaded.makespan() > free.makespan());
        for p in loaded.placements() {
            assert!(p.window.start() >= SimTime::from_ticks(10));
        }
    }

    #[test]
    fn worst_case_scenario_takes_longer() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(100));
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let mut req = request(&job, &pool, &policy);
        let best = session.build_distribution(&req).unwrap();
        req.scenario = EstimateScenario::WORST;
        let worst = session.build_distribution(&req).unwrap();
        assert!(worst.makespan() > best.makespan());
    }

    #[test]
    fn release_time_offsets_schedule() {
        let job = fig2_job();
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let mut req = request(&job, &pool, &policy);
        req.release = SimTime::from_ticks(100);
        let dist = session.build_distribution(&req).unwrap();
        for p in dist.placements() {
            assert!(p.window.start() >= SimTime::from_ticks(100));
        }
        assert!(dist.meets_deadline(SimTime::from_ticks(120)));
    }

    #[test]
    fn reschedule_keeps_fixed_tasks_and_replans_the_rest() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let original = session
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap();

        // Pretend P1 already started exactly as planned; replan the rest
        // from t3 with the original absolute deadline.
        let fixed: HashMap<TaskId, crate::distribution::Placement> = [TaskId::new(0)]
            .into_iter()
            .map(|t| (t, *original.placement(t)))
            .collect();
        let mut req = request(&job, &pool, &policy);
        req.release = SimTime::from_ticks(3);
        let replanned = session
            .reschedule_with_objective(
                &req,
                &fixed,
                SimTime::from_ticks(60),
                crate::objective::Objective::MinCost,
            )
            .unwrap();
        assert_eq!(
            replanned.placement(TaskId::new(0)),
            original.placement(TaskId::new(0))
        );
        assert_eq!(replanned.validate(&job, &pool), Ok(()));
        for p in replanned.placements() {
            if p.task != TaskId::new(0) {
                assert!(p.window.start() >= SimTime::from_ticks(3));
            }
        }
    }

    #[test]
    fn direct_variant_is_collision_free_and_valid() {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(0), Perf::FULL);
        let job = fig2_job_with_deadline(SimDuration::from_ticks(40));
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let req = request(&job, &pool, &policy);
        let direct = session.build_distribution_direct(&req).unwrap();
        assert!(
            direct.collisions().is_empty(),
            "single-phase never collides"
        );
        assert_eq!(direct.validate(&job, &pool), Ok(()));
        // The two-phase variant on the same input does record collisions.
        let two_phase = session.build_distribution(&req).unwrap();
        assert!(!two_phase.collisions().is_empty());
    }

    #[test]
    fn domain_restriction_keeps_placements_inside_the_domain() {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(0), Perf::new(0.5).unwrap());
        pool.add_node(DomainId::new(1), Perf::new(0.33).unwrap());
        pool.add_node(DomainId::new(1), Perf::new(0.33).unwrap());
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let req = request(&job, &pool, &policy);
        let slow_domain = DomainId::new(1);
        let dist = session
            .build_distribution_in_domain(&req, slow_domain)
            .unwrap();
        for p in dist.placements() {
            assert_eq!(pool.node(p.node).domain(), slow_domain, "{p}");
        }
        assert_eq!(dist.validate(&job, &pool), Ok(()));
        // At a deadline only fast nodes can meet, the slow domain fails
        // while the VO-wide schedule succeeds — the case where Fig. 1's
        // metascheduler reallocates the job to another domain.
        let tight = fig2_job_with_deadline(SimDuration::from_ticks(20));
        let tight_req = request(&tight, &pool, &policy);
        assert!(session.build_distribution(&tight_req).is_ok());
        assert!(session
            .build_distribution_in_domain(&tight_req, slow_domain)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "has no nodes")]
    fn empty_domain_is_rejected() {
        let pool = fig2_pool();
        let job = fig2_job();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let req = request(&job, &pool, &policy);
        let _ = session.build_distribution_in_domain(&req, DomainId::new(9));
    }

    #[test]
    fn min_time_objective_is_faster_and_pricier() {
        use crate::objective::Objective;
        use gridsched_model::fixtures::pipeline_job;
        // A single-chain job has no cross-edge constraints, so the pure
        // MinTime criterion is always feasible when MinCost is.
        let job = pipeline_job(
            gridsched_model::ids::JobId::new(1),
            &[20.0, 30.0, 20.0, 10.0],
            SimDuration::from_ticks(100),
        );
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let req = request(&job, &pool, &policy);
        let cheap = session.build_distribution(&req).unwrap();
        let fast = session
            .build_distribution_with_objective(&req, Objective::FASTEST)
            .unwrap();
        assert!(
            fast.makespan() < cheap.makespan(),
            "fast {fast} vs cheap {cheap}"
        );
        assert!(fast.cost() > cheap.cost());
        assert_eq!(fast.validate(&job, &pool), Ok(()));
    }

    #[test]
    fn min_time_budget_caps_spending() {
        use crate::objective::Objective;
        use gridsched_model::fixtures::pipeline_job;
        let job = pipeline_job(
            gridsched_model::ids::JobId::new(1),
            &[20.0, 30.0, 20.0, 10.0],
            SimDuration::from_ticks(100),
        );
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let req = request(&job, &pool, &policy);
        let cheap = session.build_distribution(&req).unwrap();
        let unlimited = session
            .build_distribution_with_objective(&req, Objective::FASTEST)
            .unwrap();
        let capped = session
            .build_distribution_with_objective(
                &req,
                Objective::MinTime {
                    budget: Some((cheap.cost() + unlimited.cost()) / 2),
                },
            )
            .unwrap();
        // A mid budget lands between the two extremes.
        assert!(capped.cost() <= (cheap.cost() + unlimited.cost()) / 2);
        assert!(capped.makespan() >= unlimited.makespan());
        assert!(capped.makespan() <= cheap.makespan());
        assert_eq!(capped.validate(&job, &pool), Ok(()));
    }

    #[test]
    fn min_time_falls_back_gracefully_on_fork_joins() {
        use crate::objective::Objective;
        // On the Fig. 2 fork-join, zero-slack MinTime chains strand the
        // second critical work; the scheduler degrades to MinCost instead
        // of failing the scenario.
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let req = request(&job, &pool, &policy);
        let cheap = session.build_distribution(&req).unwrap();
        let fast = session
            .build_distribution_with_objective(&req, Objective::FASTEST)
            .unwrap();
        assert_eq!(
            fast.cost(),
            cheap.cost(),
            "fallback produced the MinCost schedule"
        );
        assert_eq!(fast.validate(&job, &pool), Ok(()));
    }

    #[test]
    fn urgent_reschedule_is_no_slower_than_cheap_reschedule() {
        use crate::objective::Objective;
        let job = fig2_job_with_deadline(SimDuration::from_ticks(80));
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let original = session
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap();
        let fixed: HashMap<TaskId, crate::distribution::Placement> = [TaskId::new(0)]
            .into_iter()
            .map(|t| (t, *original.placement(t)))
            .collect();
        let mut req = request(&job, &pool, &policy);
        req.release = SimTime::from_ticks(3);
        let deadline = SimTime::from_ticks(80);
        let cheap = session
            .reschedule_with_objective(&req, &fixed, deadline, Objective::MinCost)
            .unwrap();
        let req2 = {
            let mut r = request(&job, &pool, &policy);
            r.release = SimTime::from_ticks(3);
            r
        };
        let urgent = session
            .reschedule_with_objective(&req2, &fixed, deadline, Objective::FASTEST)
            .unwrap();
        assert!(urgent.makespan() <= cheap.makespan());
        assert!(urgent.cost() >= cheap.cost());
        assert_eq!(urgent.validate(&job, &pool), Ok(()));
    }

    #[test]
    fn pool_timetables_are_not_mutated() {
        let job = fig2_job();
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let _ = session
            .build_distribution(&request(&job, &pool, &policy))
            .unwrap();
        for node in pool.nodes() {
            assert!(pool.timetable(node.id()).is_empty());
        }
    }
}
