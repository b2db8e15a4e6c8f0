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
//! The session's entry points mirror the free functions of
//! [`crate::method`] one-for-one (those free functions now simply open a
//! throwaway session). Callers that plan repeatedly against the same pool
//! state — [`crate::strategy::Strategy`] sweeps, the job-flow layer's
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
    /// ([`Counter::SessionsOpened`]), every overlay it hands out
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
        // The capture consulted the pool's calendar cache; drain its stats
        // here (they are deltas since the previous drain).
        let cache_stats = pool.index_cache().take_stats();
        telemetry.add(Counter::IndexCacheHits, cache_stats.hits);
        telemetry.add(Counter::IndexCacheEvictions, cache_stats.evictions);
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
        let (result, probe_stats) = Scratch::with(|scratch| {
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
            (result, probe_stats)
        });
        self.telemetry.add(Counter::IndexSeeks, probe_stats.seeks);
        self.telemetry
            .add(Counter::IndexRebuilds, probe_stats.builds);
        self.telemetry
            .add(Counter::IndexBypasses, probe_stats.bypasses);
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

    /// Session form of [`crate::method::build_distribution`].
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some task cannot be placed within the
    /// job's deadline.
    pub fn build_distribution(
        &self,
        req: &ScheduleRequest<'_>,
    ) -> Result<Distribution, ScheduleError> {
        self.reschedule(req, &HashMap::new())
    }

    /// Session form of [`crate::method::reschedule`].
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some remaining task cannot be placed.
    pub fn reschedule(
        &self,
        req: &ScheduleRequest<'_>,
        fixed: &HashMap<TaskId, Placement>,
    ) -> Result<Distribution, ScheduleError> {
        let deadline = req.release.saturating_add(req.job.deadline());
        self.reschedule_with_deadline(req, fixed, deadline)
    }

    /// Session form of [`crate::method::reschedule_with_deadline`].
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some remaining task cannot be placed.
    pub fn reschedule_with_deadline(
        &self,
        req: &ScheduleRequest<'_>,
        fixed: &HashMap<TaskId, Placement>,
        deadline: SimTime,
    ) -> Result<Distribution, ScheduleError> {
        self.run(req, &Pass::new(fixed, deadline))
    }

    /// Session form of [`crate::method::reschedule_with_objective`]:
    /// replans under an aggressive criterion, degrading to `MinCost` if
    /// the aggressive pass strands a critical work.
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
    /// Unlike [`PlanningSession::build_distribution_with_objective`] this
    /// never falls back to a `MinCost` pass when the `objective` pass
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

    /// Session form of [`crate::method::build_distribution_direct`] (the
    /// single-phase ablation).
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

    /// Session form of [`crate::method::build_distribution_in_domain`].
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

    /// Session form of [`crate::method::build_distribution_with_objective`]:
    /// falls back to `MinCost` when the aggressive criterion strands a
    /// critical work.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if some task cannot be placed within the
    /// job's deadline even under `MinCost`.
    pub fn build_distribution_with_objective(
        &self,
        req: &ScheduleRequest<'_>,
        objective: Objective,
    ) -> Result<Distribution, ScheduleError> {
        let deadline = req.release.saturating_add(req.job.deadline());
        let no_fixed = HashMap::new();
        let paper = Pass::new(&no_fixed, deadline);
        let aggressive = self.run(req, &Pass { objective, ..paper });
        match (aggressive, objective) {
            (Ok(d), _) => Ok(d),
            (Err(e), Objective::MinCost) => Err(e),
            // The sequential chain heuristic can strand later critical
            // works when earlier ones are packed with zero slack; degrade
            // gracefully to the conservative criterion rather than fail
            // the scenario.
            (Err(_), _) => {
                self.telemetry.incr(Counter::ObjectiveFallbacks);
                self.run(req, &paper)
            }
        }
    }

    /// Session form of [`crate::method::build_distribution_recovering`]:
    /// retries with singleton chains when the critical-works pass strands
    /// a later chain.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if even the recovery pass cannot place
    /// some task within the deadline.
    pub fn build_distribution_recovering(
        &self,
        req: &ScheduleRequest<'_>,
    ) -> Result<Distribution, ScheduleError> {
        let deadline = req.release.saturating_add(req.job.deadline());
        let no_fixed = HashMap::new();
        let paper = Pass::new(&no_fixed, deadline);
        match self.run(req, &paper) {
            Ok(d) => Ok(d),
            Err(_) => self.run(
                req,
                &Pass {
                    singleton_chains: true,
                    ..paper
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_data::policy::DataPolicy;
    use gridsched_model::availability::ProbeConfig;
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

    #[test]
    fn session_matches_free_function_and_cloning_baseline() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(60));
        let mut pool = fig2_pool();
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
        let session = PlanningSession::open(&pool);
        for scenario in [EstimateScenario::BEST, EstimateScenario::WORST] {
            let req = ScheduleRequest {
                job: &job,
                pool: &pool,
                policy: &policy,
                scenario,
                release: SimTime::ZERO,
            };
            let via_session = session.build_distribution(&req).unwrap();
            let via_free = crate::method::build_distribution(&req).unwrap();
            let via_cloning = crate::method::build_distribution_cloning(&req).unwrap();
            assert_eq!(via_session.placements(), via_free.placements());
            assert_eq!(via_session.placements(), via_cloning.placements());
            assert_eq!(via_session.collisions(), via_cloning.collisions());
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
        // Fixture calendars are tiny; drop this pool's engagement floor so
        // the indexed path (and its counters) actually runs.
        pool.set_probe_config(ProbeConfig {
            index_floor: 0,
            ..ProbeConfig::default()
        });
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
            "cold probes route through the gap index"
        );
        let rebuilds = telemetry.counter(Counter::IndexRebuilds);
        assert!(
            rebuilds >= 1 && rebuilds <= pool.len() as u64,
            "at most one build per (snapshot, node), got {rebuilds}"
        );
        assert_eq!(telemetry.counter(Counter::IndexBypasses), 0);
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
