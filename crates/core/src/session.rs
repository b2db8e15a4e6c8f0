//! The planning-session layer: one availability snapshot, many cheap
//! what-if views.
//!
//! Every schedule construction — a single supporting schedule, a full
//! strategy sweep, a mid-flight replan — is a *planning session* against
//! the pool's availability at one instant. A [`PlanningSession`] captures
//! that availability **once** as an immutable, `Arc`-backed
//! [`AvailabilitySnapshot`] and hands out copy-on-write
//! [`TimetableOverlay`] views: each scenario of a strategy sweep plans on
//! its own overlay (recording only its tentative reservations) while the
//! base windows are shared by reference. Because the snapshot is immutable
//! and `Sync`, scenario sweeps can run concurrently over one session —
//! the share-don't-copy primitive that hierarchical bulk schedulers treat
//! as the core of scalable what-if planning.
//!
//! A session is the one way into the critical-works engine
//! ([`crate::method`]): a one-off schedule opens a session and calls one
//! entry point; callers that plan repeatedly against the same pool state
//! — [`crate::strategy::Strategy`] sweeps, the job-flow layer's
//! fault-driven replans — open one session and reuse it.

use std::collections::HashMap;

use gridsched_sim::time::SimTime;

use gridsched_metrics::telemetry::{Counter, SpanId, Telemetry};
use gridsched_model::availability::{AvailabilitySnapshot, TimetableOverlay};
use gridsched_model::ids::TaskId;
use gridsched_model::node::ResourcePool;

use crate::distribution::{Distribution, Placement};
use crate::method::{run_method_chains, Pass, ScheduleError, ScheduleRequest};
use crate::objective::Objective;
use crate::scratch::Scratch;

/// A planning session: a pool reference plus one shared availability
/// snapshot that every what-if view of the session reads through.
///
/// # Examples
///
/// ```
/// use gridsched_core::method::ScheduleRequest;
/// use gridsched_core::session::PlanningSession;
/// use gridsched_data::policy::DataPolicy;
/// use gridsched_model::estimate::EstimateScenario;
/// use gridsched_model::fixtures::fig2_job_with_deadline;
/// use gridsched_model::ids::DomainId;
/// use gridsched_model::node::ResourcePool;
/// use gridsched_model::perf::Perf;
/// use gridsched_sim::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
/// let mut pool = ResourcePool::new();
/// for j in 1..=4u32 {
///     pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j))?);
/// }
/// let policy = DataPolicy::remote_access();
/// let session = PlanningSession::open(&pool);
/// // Several scenarios plan against the same snapshot without recloning.
/// for scenario in [EstimateScenario::BEST, EstimateScenario::WORST] {
///     let dist = session.build_distribution(&ScheduleRequest {
///         job: &job,
///         pool: &pool,
///         policy: &policy,
///         scenario,
///         release: SimTime::ZERO,
///     })?;
///     assert!(dist.meets_deadline(SimTime::from_ticks(60)));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PlanningSession<'p> {
    pool: &'p ResourcePool,
    snapshot: AvailabilitySnapshot,
    telemetry: Telemetry,
    span_parent: Option<SpanId>,
}

impl<'p> PlanningSession<'p> {
    /// Opens a session against the pool's current availability.
    ///
    /// This is the only point that reads the pool's timetables; every view
    /// created afterwards shares the captured windows by reference and
    /// stays consistent even if the live pool moves on.
    #[must_use]
    pub fn open(pool: &'p ResourcePool) -> Self {
        PlanningSession::open_instrumented(pool, &Telemetry::disabled(), None)
    }

    /// [`PlanningSession::open`] with a telemetry recorder attached.
    ///
    /// The session counts the snapshot capture
    /// ([`Counter::SessionsOpened`]), the nodes it found already frozen
    /// ([`Counter::IndexCacheHits`]) and the ones it froze, each with a new
    /// gap index ([`Counter::IndexRebuilds`]), every overlay it hands out
    /// ([`Counter::OverlaysCreated`]) and every engine pass it runs
    /// ([`Counter::CriticalWorksPasses`], with `critical_works_pass` timing
    /// spans parented under `parent`). Instrumentation is strictly
    /// observational: the schedules built are bit-identical to an
    /// uninstrumented session's.
    #[must_use]
    pub fn open_instrumented(
        pool: &'p ResourcePool,
        telemetry: &Telemetry,
        parent: Option<SpanId>,
    ) -> Self {
        telemetry.incr(Counter::SessionsOpened);
        let span = telemetry.span_under("session_open", parent);
        let snapshot = pool.snapshot();
        drop(span);
        let warm = snapshot.warm_nodes();
        telemetry.add(Counter::IndexCacheHits, warm as u64);
        telemetry.add(
            Counter::IndexRebuilds,
            (snapshot.node_count() - warm) as u64,
        );
        PlanningSession {
            pool,
            snapshot,
            telemetry: telemetry.clone(),
            span_parent: parent,
        }
    }

    /// A view of this session whose engine-pass spans are parented under
    /// `parent` instead — same pool, same shared snapshot (the
    /// `Arc`-backed windows are shared, not recopied), same recorder.
    ///
    /// This is how a scenario sweep nests each scenario's
    /// `critical_works_pass` spans under that scenario's own span while
    /// all scenarios keep planning against one snapshot.
    #[must_use]
    pub fn scoped_under(&self, parent: Option<SpanId>) -> PlanningSession<'p> {
        PlanningSession {
            pool: self.pool,
            snapshot: self.snapshot.clone(),
            telemetry: self.telemetry.clone(),
            span_parent: parent,
        }
    }

    /// The pool this session plans against.
    #[must_use]
    pub fn pool(&self) -> &'p ResourcePool {
        self.pool
    }

    /// The shared availability snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &AvailabilitySnapshot {
        &self.snapshot
    }

    /// A fresh copy-on-write view over the session's snapshot.
    #[must_use]
    pub fn overlay(&self) -> TimetableOverlay {
        self.telemetry.incr(Counter::OverlaysCreated);
        TimetableOverlay::new(self.snapshot.clone())
    }

    /// Runs one engine pass on two overlays from the thread's arena.
    fn run(
        &self,
        req: &ScheduleRequest<'_>,
        pass: &Pass<'_>,
    ) -> Result<Distribution, ScheduleError> {
        debug_assert!(
            std::ptr::eq(self.pool, req.pool),
            "request pool must be the session's pool"
        );
        let _pass = self
            .telemetry
            .span_under("critical_works_pass", self.span_parent);
        self.telemetry.incr(Counter::CriticalWorksPasses);
        let (result, probe_stats, alloc_stats) = Scratch::with(|scratch| {
            // Overlays come from the thread's arena (rebased on this
            // session's snapshot); the counter keeps its pre-arena meaning
            // of "overlay views handed out".
            self.telemetry.incr(Counter::OverlaysCreated);
            self.telemetry.incr(Counter::OverlaysCreated);
            let background = scratch.take_overlay(&self.snapshot);
            let mut with_job = scratch.take_overlay(&self.snapshot);
            let result =
                run_method_chains(req, pass, &background, &mut with_job, &mut scratch.engine);
            // Drain before recycling: `reset_to` zeroes undrained stats.
            let probe_stats = background
                .take_index_stats()
                .merged(with_job.take_index_stats());
            scratch.recycle_overlay(background);
            scratch.recycle_overlay(with_job);
            let alloc_stats = scratch.engine.alloc.take_stats();
            (result, probe_stats, alloc_stats)
        });
        self.telemetry.add(Counter::IndexSeeks, probe_stats.seeks);
        for (counter, value) in [
            (Counter::CostBoundHeld, alloc_stats.cost_bound_held),
            (
                Counter::CostBoundFallbacks,
                alloc_stats.cost_bound_fallbacks,
            ),
            (Counter::FastestCapped, alloc_stats.fastest_capped),
            (Counter::FastestUncapped, alloc_stats.fastest_uncapped),
            (Counter::FirstPassFits, alloc_stats.first_pass_fits),
        ] {
            self.telemetry.add(counter, value);
        }
        // Plan conflicts are observed either way: a successful pass records
        // the collisions it routed around, a failed pass the ones that
        // stranded it.
        let conflicts = match &result {
            Ok(d) => d.collisions().len(),
            Err(e) => e.collisions.len(),
        };
        self.telemetry.add(Counter::PlanConflicts, conflicts as u64);
        result
    }

    /// Builds one supporting schedule ([`Distribution`]) with the critical
    /// works method, under the paper's default `MinCost` criterion.
    ///
    /// The pool's timetables are *read* as the background availability; no
    /// reservation is committed to them — the job-flow layer decides
    /// whether to activate the schedule (and then reserves).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some task cannot be placed within the
    /// job's deadline.
    pub fn build_distribution(
        &self,
        req: &ScheduleRequest<'_>,
    ) -> Result<Distribution, ScheduleError> {
        let deadline = req.release.saturating_add(req.job.deadline());
        self.run(req, &Pass::new(&HashMap::new(), deadline))
    }

    /// Rebuilds the schedule for the tasks *not* in `fixed`, keeping the
    /// fixed placements (typically tasks that already started) untouched —
    /// the dynamic reallocation mechanism of §2, replanning the remaining
    /// tasks from `req.release` against the absolute `deadline` fixed at
    /// the original release.
    ///
    /// `objective` is the §5 "dynamic priority change": a job manager
    /// replanning a job whose deadline is endangered can pay more quota
    /// for speed. If the aggressive criterion strands a critical work
    /// (the sequential chain heuristic can, when earlier works are packed
    /// with zero slack), the pass degrades to `MinCost` rather than fail
    /// ([`Counter::ObjectiveFallbacks`]). Under `MinCost` it is one pass.
    /// With `fixed` empty it plans the whole job under `objective`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some remaining task cannot be placed
    /// even under `MinCost`.
    pub fn reschedule_with_objective(
        &self,
        req: &ScheduleRequest<'_>,
        fixed: &HashMap<TaskId, Placement>,
        deadline: SimTime,
        objective: Objective,
    ) -> Result<Distribution, ScheduleError> {
        let paper = Pass::new(fixed, deadline);
        match self.run(req, &Pass { objective, ..paper }) {
            Ok(d) => Ok(d),
            Err(e) if objective == Objective::MinCost => Err(e),
            Err(_) => {
                self.telemetry.incr(Counter::ObjectiveFallbacks);
                self.run(req, &paper)
            }
        }
    }

    /// A single-pass feasibility probe for online admission control: can
    /// the critical works method meet `deadline` when it picks each chain's
    /// schedule under `objective`?
    ///
    /// Unlike [`PlanningSession::reschedule_with_objective`] this never
    /// falls back to a `MinCost` pass when the `objective` pass
    /// strands a critical work: the answer is the requested criterion's.
    /// The deadline is strict; a `MinTime { budget }` is not. It ranks the
    /// states of each critical work, and when no final state fits the
    /// budget the chain takes its cheapest state instead, so a job whose
    /// every schedule is over budget still probes `Ok` (with that
    /// over-budget schedule). One critical-works pass, no overlays
    /// retained; the session snapshot is untouched, so probes are free to
    /// fail.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the pass finds no placement within the
    /// deadline for some task.
    pub fn probe(
        &self,
        req: &ScheduleRequest<'_>,
        deadline: SimTime,
        objective: Objective,
    ) -> Result<Distribution, ScheduleError> {
        self.run(
            req,
            &Pass {
                objective,
                ..Pass::new(&HashMap::new(), deadline)
            },
        )
    }

    /// Single-phase ablation of the critical works method: every chain is
    /// allocated directly against the availability *including*
    /// sibling-chain reservations, so collisions never occur (and are never
    /// recorded).
    ///
    /// Used by the ablation bench to quantify what the paper's two-phase
    /// "ideal allocation, then collision resolution" buys; not part of the
    /// paper's method itself.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some task cannot be placed within the
    /// job's deadline.
    pub fn build_distribution_direct(
        &self,
        req: &ScheduleRequest<'_>,
    ) -> Result<Distribution, ScheduleError> {
        let deadline = req.release.saturating_add(req.job.deadline());
        self.run(
            req,
            &Pass {
                two_phase: false,
                ..Pass::new(&HashMap::new(), deadline)
            },
        )
    }

    /// [`PlanningSession::build_distribution`], but restricted to the
    /// nodes of one domain — the view of a single job manager in the Fig. 1
    /// hierarchy. The metascheduler can retry another domain on failure
    /// (inter-domain job reallocation).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some task cannot be placed inside the
    /// domain within the job's deadline.
    ///
    /// # Panics
    ///
    /// Panics if `domain` has no nodes in the pool.
    pub fn build_distribution_in_domain(
        &self,
        req: &ScheduleRequest<'_>,
        domain: gridsched_model::ids::DomainId,
    ) -> Result<Distribution, ScheduleError> {
        assert!(
            req.pool.in_domain(domain).next().is_some(),
            "domain {domain} has no nodes"
        );
        let deadline = req.release.saturating_add(req.job.deadline());
        self.run(
            req,
            &Pass {
                domain: Some(domain),
                ..Pass::new(&HashMap::new(), deadline)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_data::policy::DataPolicy;
    use gridsched_model::estimate::EstimateScenario;
    use gridsched_model::fixtures::{fig2_job_with_deadline, pipeline_job};
    use gridsched_model::ids::{DomainId, JobId, NodeId};
    use gridsched_model::perf::Perf;
    use gridsched_model::timetable::ReservationOwner;
    use gridsched_model::window::TimeWindow;
    use gridsched_sim::time::SimDuration;

    fn fig2_pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        for j in 1..=4u32 {
            pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j)).unwrap());
        }
        pool
    }

    /// The session entry points the arena test runs, by name.
    const ENTRY_POINTS: [&str; 6] = [
        "build_distribution",
        "with_objective FASTEST",
        "with_objective budget",
        "in_domain",
        "direct",
        "reschedule_with_objective",
    ];

    /// Runs the entry point `name` on `session`; the reschedule keeps
    /// `fixed` and replans the rest from t3.
    fn run_entry_point(
        name: &str,
        session: &PlanningSession<'_>,
        req: &ScheduleRequest<'_>,
        fixed: &HashMap<TaskId, Placement>,
    ) -> Result<Distribution, ScheduleError> {
        let deadline = req.release.saturating_add(req.job.deadline());
        match name {
            "build_distribution" => session.build_distribution(req),
            "with_objective FASTEST" => session.reschedule_with_objective(
                req,
                &HashMap::new(),
                deadline,
                Objective::FASTEST,
            ),
            "with_objective budget" => session.reschedule_with_objective(
                req,
                &HashMap::new(),
                deadline,
                Objective::MinTime { budget: Some(60) },
            ),
            "in_domain" => session.build_distribution_in_domain(req, DomainId::new(1)),
            "direct" => session.build_distribution_direct(req),
            "reschedule_with_objective" => {
                let replan = ScheduleRequest {
                    release: SimTime::from_ticks(3),
                    ..*req
                };
                session.reschedule_with_objective(&replan, fixed, deadline, Objective::FASTEST)
            }
            _ => unreachable!("unknown entry point {name}"),
        }
    }

    /// Every session entry point, run back to back on one thread whose
    /// scratch arena each pass recycles, gives exactly what the same call
    /// gives on a freshly spawned thread, whose arena is fresh; the
    /// `MinCost` fallbacks they record agree too. The plain pass also
    /// matches the clone-per-scenario reference.
    #[test]
    fn recycled_arena_matches_a_fresh_thread_on_every_entry_point() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let mut pool = fig2_pool();
        pool.add_node(DomainId::new(1), Perf::FULL);
        pool.add_node(DomainId::new(1), Perf::new(0.5).unwrap());
        // Non-trivial background load so overlay merging actually runs.
        for i in 0..pool.len() {
            pool.timetable_mut(NodeId::new(i as u32))
                .reserve(
                    TimeWindow::new(
                        SimTime::from_ticks(2 * i as u64),
                        SimTime::from_ticks(2 * i as u64 + 5),
                    )
                    .unwrap(),
                    ReservationOwner::Background(i as u64),
                )
                .unwrap();
        }
        let policy = DataPolicy::remote_access();
        let request = |scenario| ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario,
            release: SimTime::ZERO,
        };
        let plan = PlanningSession::open(&pool)
            .build_distribution(&request(EstimateScenario::BEST))
            .unwrap();
        let fixed: HashMap<TaskId, Placement> =
            [(TaskId::new(0), *plan.placement(TaskId::new(0)))].into();

        let telemetry = Telemetry::new();
        let session = PlanningSession::open_instrumented(&pool, &telemetry, None);
        let mut fallbacks_by_name: HashMap<&str, u64> = HashMap::new();
        for scenario in [EstimateScenario::BEST, EstimateScenario::WORST] {
            let req = request(scenario);
            for name in ENTRY_POINTS {
                let before = telemetry.counter(Counter::ObjectiveFallbacks);
                let recycled = run_entry_point(name, &session, &req, &fixed);
                let fallbacks = telemetry.counter(Counter::ObjectiveFallbacks) - before;
                *fallbacks_by_name.entry(name).or_default() += fallbacks;
                let (fresh, fresh_fallbacks) = std::thread::scope(|s| {
                    s.spawn(|| {
                        let telemetry = Telemetry::new();
                        let session = PlanningSession::open_instrumented(&pool, &telemetry, None);
                        let result = run_entry_point(name, &session, &req, &fixed);
                        (result, telemetry.counter(Counter::ObjectiveFallbacks))
                    })
                    .join()
                    .unwrap()
                });
                assert_eq!(recycled, fresh, "{name} under {scenario}");
                assert_eq!(fallbacks, fresh_fallbacks, "{name} under {scenario}");
            }
            assert_eq!(
                session.build_distribution(&req),
                crate::method::build_distribution_cloning(&req),
                "cloning reference under {scenario}"
            );
        }
        // The zero-slack FASTEST chains strand the Fig. 2 fork-join, so
        // that case exercises the fallback; the others never take it.
        assert!(fallbacks_by_name["with_objective FASTEST"] > 0);
        for name in ["build_distribution", "in_domain", "direct"] {
            assert_eq!(fallbacks_by_name[name], 0, "{name}");
        }
    }

    #[test]
    fn snapshot_outlives_pool_changes_and_fresh_sessions_see_them() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let mut pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        // A session borrows the pool, so the type system already forbids
        // mutating the pool under a live session; what *can* outlive pool
        // changes is the captured snapshot.
        let old_snapshot = PlanningSession::open(&pool).snapshot().clone();
        for i in 0..pool.len() {
            pool.timetable_mut(NodeId::new(i as u32))
                .reserve(
                    TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(10)).unwrap(),
                    ReservationOwner::Background(0),
                )
                .unwrap();
        }
        for i in 0..pool.len() {
            let id = NodeId::new(i as u32);
            assert!(old_snapshot.windows(id).is_empty(), "snapshot is pinned");
        }
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        };
        // A fresh session sees the new load.
        let fresh = PlanningSession::open(&pool)
            .build_distribution(&req)
            .unwrap();
        assert!(fresh.placements()[0].window.start() >= SimTime::from_ticks(10));
    }

    #[test]
    fn index_counters_flow_through_session_runs() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let mut pool = fig2_pool();
        for i in 0..pool.len() {
            pool.timetable_mut(NodeId::new(i as u32))
                .reserve(
                    TimeWindow::new(SimTime::from_ticks(3), SimTime::from_ticks(8)).unwrap(),
                    ReservationOwner::Background(i as u64),
                )
                .unwrap();
        }
        let policy = DataPolicy::remote_access();
        let telemetry = Telemetry::new();
        let session = PlanningSession::open_instrumented(&pool, &telemetry, None);
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        };
        session.build_distribution(&req).unwrap();
        assert!(
            telemetry.counter(Counter::IndexSeeks) > 0,
            "every probe counts as a seek"
        );
        assert_eq!(
            telemetry.counter(Counter::IndexRebuilds),
            pool.len() as u64,
            "the capture froze every changed node, one index each"
        );
    }

    /// A session counts the warm nodes of its own capture only: bare
    /// captures taken before it are credited to no one.
    #[test]
    fn bare_captures_are_not_credited_to_a_later_session() {
        let pool = fig2_pool();
        let _ = pool.snapshot();
        let _ = pool.snapshot();
        let telemetry = Telemetry::new();
        let _session = PlanningSession::open_instrumented(&pool, &telemetry, None);
        assert_eq!(
            telemetry.counter(Counter::IndexCacheHits),
            pool.len() as u64,
            "one hit per node the session's capture found frozen"
        );
        assert_eq!(
            telemetry.counter(Counter::IndexRebuilds),
            0,
            "nothing refrozen"
        );
    }

    /// Every `MinCost` chain allocation of a session run is tallied once,
    /// as held or as a fallback of the cost-to-go bound; `MinTime` runs
    /// tally nothing, and instrumented runs stay bit-identical to plain
    /// ones. A pipeline is one critical work, so one chain allocation per
    /// pass.
    #[test]
    fn cost_bound_counters_flow_through_session_runs() {
        let job = pipeline_job(
            JobId::new(0),
            &[20.0, 30.0, 20.0],
            SimDuration::from_ticks(60),
        );
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let telemetry = Telemetry::new();
        let instrumented = PlanningSession::open_instrumented(&pool, &telemetry, None);
        let plain = PlanningSession::open(&pool);
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        };
        let deadline = job.absolute_deadline();
        let tallies = || {
            (
                telemetry.counter(Counter::CostBoundHeld),
                telemetry.counter(Counter::CostBoundFallbacks),
            )
        };
        assert_eq!(
            instrumented.build_distribution(&req),
            plain.build_distribution(&req)
        );
        // An idle pool: the availability-free cheapest schedule is
        // feasible, so the bound decides the chain on its own.
        assert_eq!(tallies(), (1, 0));
        for objective in [Objective::FASTEST, Objective::MinTime { budget: Some(5) }] {
            assert_eq!(
                instrumented.probe(&req, deadline, objective),
                plain.probe(&req, deadline, objective)
            );
        }
        assert_eq!(tallies(), (1, 0));
        // A deadline the chain cannot meet: the bounded pass keeps nothing
        // and the unbounded one reports the failure.
        let tight = SimTime::from_ticks(3);
        assert_eq!(
            instrumented.probe(&req, tight, Objective::MinCost),
            plain.probe(&req, tight, Objective::MinCost)
        );
        assert_eq!(tallies(), (1, 1));
    }

    /// Every `FASTEST` chain allocation of a session run is tallied once,
    /// as capped (its incumbent dive completed) or uncapped, and adds its
    /// earliest-finish fits; `MinCost` runs tally none of these, and
    /// instrumented runs stay bit-identical to plain ones. A pipeline is
    /// one critical work, so one chain allocation per pass.
    #[test]
    fn fastest_cap_counters_flow_through_session_runs() {
        let job = pipeline_job(
            JobId::new(0),
            &[20.0, 30.0, 20.0],
            SimDuration::from_ticks(60),
        );
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let telemetry = Telemetry::new();
        let instrumented = PlanningSession::open_instrumented(&pool, &telemetry, None);
        let plain = PlanningSession::open(&pool);
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        };
        let tallies = || {
            (
                telemetry.counter(Counter::FastestCapped),
                telemetry.counter(Counter::FastestUncapped),
                telemetry.counter(Counter::FirstPassFits),
            )
        };
        let deadline = job.absolute_deadline();
        assert_eq!(
            instrumented.probe(&req, deadline, Objective::MinCost),
            plain.probe(&req, deadline, Objective::MinCost)
        );
        assert_eq!(tallies(), (0, 0, 0));
        // An idle pool: the dive completes.
        assert_eq!(
            instrumented.probe(&req, deadline, Objective::FASTEST),
            plain.probe(&req, deadline, Objective::FASTEST)
        );
        let (capped, uncapped, fits) = tallies();
        assert_eq!((capped, uncapped), (1, 0));
        assert!(fits > 0);
        // A deadline the chain cannot meet: the dive fails, and so does
        // the uncapped pass.
        let tight = SimTime::from_ticks(3);
        assert!(plain.probe(&req, tight, Objective::FASTEST).is_err());
        assert_eq!(
            instrumented.probe(&req, tight, Objective::FASTEST),
            plain.probe(&req, tight, Objective::FASTEST)
        );
        let (capped, uncapped, _) = tallies();
        assert_eq!((capped, uncapped), (1, 1));
    }

    #[test]
    fn overlays_are_independent_views() {
        let pool = fig2_pool();
        let session = PlanningSession::open(&pool);
        let node = NodeId::new(0);
        let w = TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(5)).unwrap();
        let mut a = session.overlay();
        let b = session.overlay();
        a.reserve_window(node, w).unwrap();
        assert!(!a.is_free(node, w));
        assert!(b.is_free(node, w), "sibling overlays never see each other");
        assert!(session.overlay().is_free(node, w));
    }

    /// Pins the documented budget behaviour of `probe`: when no schedule
    /// of a critical work fits a `MinTime` budget, the probe does not
    /// fail, it falls back to the cheapest state, which is what `MinCost`
    /// picks.
    #[test]
    fn probe_over_budget_falls_back_to_the_cheapest_schedule() {
        // A pipeline: one critical work, so `FASTEST` cannot strand a
        // sibling chain.
        let job = pipeline_job(
            JobId::new(0),
            &[20.0, 30.0, 20.0],
            SimDuration::from_ticks(60),
        );
        let pool = fig2_pool();
        let policy = DataPolicy::remote_access();
        let session = PlanningSession::open(&pool);
        let req = ScheduleRequest {
            job: &job,
            pool: &pool,
            policy: &policy,
            scenario: EstimateScenario::BEST,
            release: SimTime::ZERO,
        };
        let deadline = job.absolute_deadline();
        let over_budget = session
            .probe(&req, deadline, Objective::MinTime { budget: Some(0) })
            .expect("an unmeetable budget does not fail the probe");
        assert!(over_budget.cost() > 0, "the schedule exceeds the budget");
        let cheapest = session.probe(&req, deadline, Objective::MinCost).unwrap();
        assert_eq!(over_budget.placements(), cheapest.placements());
        let fastest = session.probe(&req, deadline, Objective::FASTEST).unwrap();
        assert!(
            fastest.makespan() < over_budget.makespan(),
            "the budget ranked states"
        );
    }
}
