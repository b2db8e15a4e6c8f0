//! Per-domain job managers: the middle tier of the paper's hierarchy.
//!
//! §2, Fig. 1 places a *job manager* over each processor-node domain: the
//! metascheduler distributes job-flows between domains, and each domain's
//! manager owns the supporting schedules executing there — its admission
//! queue (online serving), its active jobs, and the hand-off bookkeeping
//! when a reallocation moves a job's schedule into another domain
//! (migration, see [`crate::metascheduler::Metascheduler`]).
//!
//! # Determinism
//!
//! Sharding live jobs across managers must not change any campaign
//! decision, so every cross-manager scan orders jobs by their global
//! activation sequence number [`ActiveJob::seq`] — exactly the order the
//! pre-hierarchy flat job vector produced. The tie-break contract is
//! documented on `DESIGN.md`'s hierarchy section and pinned bit-for-bit by
//! `tests/hierarchy.rs` against recorded monolithic traces.

use std::collections::{HashMap, VecDeque};

use gridsched_core::distribution::{Distribution, Placement};
use gridsched_core::strategy::StrategyKind;
use gridsched_data::policy::{DataPolicy, DataPolicyKind};
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{DomainId, NodeId, TaskId};
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;
use gridsched_model::timetable::ReservationId;
use gridsched_sim::time::{SimDuration, SimTime};

/// One job's live state inside a domain's job manager.
///
/// `pub(crate)` (with its fields) so the [`crate::simulation`] dynamics
/// engine and the [`crate::online`] serving loop drive the same state.
#[derive(Debug, Clone)]
pub(crate) struct ActiveJob {
    /// Global activation sequence number, assigned by the metascheduler:
    /// the total order every cross-domain scan ties on.
    pub(crate) seq: u64,
    pub(crate) record: usize,
    pub(crate) job: Job,
    pub(crate) policy: DataPolicy,
    pub(crate) scenario: EstimateScenario,
    pub(crate) activation: SimTime,
    pub(crate) deadline_abs: SimTime,
    pub(crate) current: HashMap<TaskId, Placement>,
    pub(crate) reservations: HashMap<TaskId, ReservationId>,
    pub(crate) task_factors: Vec<f64>,
    /// The strategy's other supporting schedules, available for switching
    /// while no task has started yet.
    pub(crate) alternatives: Vec<Distribution>,
    /// Start times of the user's optimistic forecast (the best-case
    /// supporting schedule), per task.
    pub(crate) reference_starts: Vec<SimTime>,
    /// Planned runtime of that forecast, in ticks.
    pub(crate) reference_runtime: f64,
    /// `(break time, overrunning task)` of the earliest pending overrun.
    pub(crate) pending_overrun: Option<(SimTime, TaskId)>,
    pub(crate) first_break: Option<SimTime>,
    pub(crate) dropped: bool,
    /// Realized completion instant, once the online loop observes every
    /// window closed. Batch campaigns never set it: completion facts are
    /// only known at the horizon there, and the campaign finalizer stamps
    /// them for every surviving job whose completion was not yet recorded.
    pub(crate) completed: Option<SimTime>,
}

/// One queued arrival awaiting admission in a domain's manager.
#[derive(Debug, Clone)]
pub(crate) struct Queued {
    /// Global arrival sequence number: the admission pass processes all
    /// domains' queues merged in this order (the pre-hierarchy single
    /// queue's FIFO order).
    pub(crate) arrival_seq: u64,
    pub(crate) job: Job,
    /// The job the admission probe plans: the coarsened job when the
    /// strategy coarsens (S3), `None` to plan `job` itself. Built once on
    /// arrival; every re-probe reuses it.
    pub(crate) planning: Option<Job>,
    /// `job.critical_path(Perf::FULL)`: the lower bound a failed probe's
    /// reject test compares against the deadline.
    pub(crate) critical_path: SimDuration,
    pub(crate) kind: StrategyKind,
    pub(crate) record: usize,
    pub(crate) arrival: SimTime,
    pub(crate) deadline_abs: SimTime,
    pub(crate) probes: usize,
}

/// Addresses one live job: which manager holds it and at which slot.
///
/// Handles are invalidated by [`crate::metascheduler::Metascheduler::rehome`]
/// (migration swaps slots) — re-resolve by job id afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobHandle {
    pub(crate) manager: usize,
    pub(crate) slot: usize,
}

/// The job manager of one processor-node domain.
#[derive(Debug, Clone)]
pub(crate) struct JobManager {
    domain: DomainId,
    /// Jobs homed here (majority of reserved ticks in this domain).
    /// Dropped jobs stay in place — their records still finalize.
    pub(crate) active: Vec<ActiveJob>,
    /// This domain's admission queue (online serving only; batch
    /// campaigns admit at release and never queue).
    pub(crate) queue: VecDeque<Queued>,
}

impl JobManager {
    pub(crate) fn new(domain: DomainId) -> Self {
        JobManager {
            domain,
            active: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// The domain this manager schedules.
    pub(crate) fn domain(&self) -> DomainId {
        self.domain
    }

    /// Load metric the metascheduler balances arrivals on: live (not yet
    /// dropped) jobs plus queued arrivals.
    pub(crate) fn load(&self) -> usize {
        self.active.iter().filter(|a| !a.dropped).count() + self.queue.len()
    }
}

/// Whether `a` has a pending inter-node data transfer exposed to an
/// incident at `node` at time `at` — the shared transfer-fault test of
/// both flow drivers.
///
/// A transfer is in flight while its consumer has not started; same-node
/// exchanges never touch the network. Static storage stages every
/// cross-node exchange through the storage node, so it is exposed to
/// incidents there as well as at either endpoint; every other policy
/// moves data directly and only inter-domain transfers traverse the
/// faulted backbone link.
pub(crate) fn transfer_exposed(
    a: &ActiveJob,
    node: NodeId,
    at: SimTime,
    pool: &ResourcePool,
) -> bool {
    a.job.edges().iter().any(|e| {
        let from = &a.current[&e.from()];
        let to = &a.current[&e.to()];
        if to.window.start() <= at || from.node == to.node {
            return false;
        }
        let touches = from.node == node || to.node == node;
        match a.policy.kind() {
            DataPolicyKind::StaticStorage => touches || a.policy.storage_node() == Some(node),
            _ => touches && pool.node(from.node).domain() != pool.node(to.node).domain(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_manager_is_idle() {
        let m = JobManager::new(DomainId::new(3));
        assert_eq!(m.domain(), DomainId::new(3));
        assert_eq!(m.load(), 0);
        assert!(m.active.is_empty());
        assert!(m.queue.is_empty());
    }
}
