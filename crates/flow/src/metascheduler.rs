//! The metascheduler: the top tier of the paper's hierarchy.
//!
//! §2, Fig. 1: "Users submit jobs to the metascheduler which distributes
//! job-flows between processor node domains according to the selected
//! scheduling and resource co-allocation strategy Si, Sj or Sk."
//!
//! The metascheduler performs two dispatch duties:
//!
//! 1. **Flow assignment** ([`Metascheduler::assign`]): which strategy
//!    flow a submitted job joins;
//! 2. **Domain selection** (`select_domain`, crate-private): which
//!    domain homes an activated supporting schedule — the domain holding
//!    the majority of its reserved ticks. When a reallocation re-places a
//!    job's schedule so its tick majority moves, the campaign re-selects
//!    the home and traces the inter-domain migration.

use gridsched_core::distribution::Placement;
use gridsched_core::strategy::StrategyKind;
use gridsched_metrics::telemetry::{Counter, Telemetry};
use gridsched_model::ids::DomainId;
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;

/// How the metascheduler assigns incoming jobs to strategy flows.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowAssignment {
    /// Every job joins the same flow (single-strategy experiments).
    Single(StrategyKind),
    /// Jobs are dealt round-robin over the listed flows.
    RoundRobin(Vec<StrategyKind>),
    /// Jobs whose task count is at or above the threshold go to the first
    /// kind (typically a coarse/cheap strategy), the rest to the second.
    BySize {
        /// Task-count threshold.
        threshold: usize,
        /// Flow for jobs with `task_count >= threshold`.
        large: StrategyKind,
        /// Flow for smaller jobs.
        small: StrategyKind,
    },
}

/// Assigns jobs to flows and keeps per-flow counters.
///
/// # Examples
///
/// ```
/// use gridsched_core::strategy::StrategyKind;
/// use gridsched_flow::metascheduler::{FlowAssignment, Metascheduler};
/// use gridsched_model::fixtures::fig2_job;
///
/// let mut meta = Metascheduler::new(FlowAssignment::RoundRobin(vec![
///     StrategyKind::S1,
///     StrategyKind::S2,
/// ]));
/// let job = fig2_job();
/// assert_eq!(meta.assign(&job), StrategyKind::S1);
/// assert_eq!(meta.assign(&job), StrategyKind::S2);
/// assert_eq!(meta.assign(&job), StrategyKind::S1);
/// ```
#[derive(Debug, Clone)]
pub struct Metascheduler {
    assignment: FlowAssignment,
    next_flow: usize,
    telemetry: Telemetry,
}

impl Metascheduler {
    /// Creates a metascheduler with the given assignment rule.
    ///
    /// # Panics
    ///
    /// Panics if a round-robin assignment lists no flows.
    #[must_use]
    pub fn new(assignment: FlowAssignment) -> Self {
        Metascheduler::with_telemetry(assignment, &Telemetry::disabled())
    }

    /// [`Metascheduler::new`] with a telemetry recorder attached: every
    /// [`Metascheduler::assign`] call bumps [`Counter::FlowAssignments`].
    ///
    /// # Panics
    ///
    /// Panics if a round-robin assignment lists no flows.
    #[must_use]
    pub fn with_telemetry(assignment: FlowAssignment, telemetry: &Telemetry) -> Self {
        if let FlowAssignment::RoundRobin(kinds) = &assignment {
            assert!(!kinds.is_empty(), "round-robin needs at least one flow");
        }
        Metascheduler {
            assignment,
            next_flow: 0,
            telemetry: telemetry.clone(),
        }
    }

    /// Assigns `job` to a flow and returns the flow's strategy kind.
    pub fn assign(&mut self, job: &Job) -> StrategyKind {
        self.telemetry.incr(Counter::FlowAssignments);
        match &self.assignment {
            FlowAssignment::Single(kind) => *kind,
            FlowAssignment::RoundRobin(kinds) => {
                let kind = kinds[self.next_flow % kinds.len()];
                self.next_flow += 1;
                kind
            }
            FlowAssignment::BySize {
                threshold,
                large,
                small,
            } => {
                if job.task_count() >= *threshold {
                    *large
                } else {
                    *small
                }
            }
        }
    }
}

/// The metascheduler's domain-selection rule: the home domain of a set of
/// placements is the domain holding the most reserved ticks, ties
/// resolved to the lowest domain id.
pub(crate) fn select_domain<'p>(
    placements: impl Iterator<Item = &'p Placement>,
    pool: &ResourcePool,
) -> DomainId {
    let mut ticks: std::collections::BTreeMap<DomainId, u64> = std::collections::BTreeMap::new();
    for p in placements {
        *ticks.entry(pool.node(p.node).domain()).or_insert(0) += p.window.duration().ticks();
    }
    let mut best: Option<(DomainId, u64)> = None;
    for (d, t) in ticks {
        // Strictly-greater keeps the lowest domain id on ties (the map
        // iterates ascending).
        if best.is_none_or(|(_, bt)| t > bt) {
            best = Some((d, t));
        }
    }
    best.map_or(DomainId::new(0), |(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::fixtures::{fig2_job, pipeline_job};
    use gridsched_model::ids::JobId;
    use gridsched_sim::time::SimDuration;

    #[test]
    fn single_assignment_is_constant() {
        let mut meta = Metascheduler::new(FlowAssignment::Single(StrategyKind::S3));
        let job = fig2_job();
        for _ in 0..5 {
            assert_eq!(meta.assign(&job), StrategyKind::S3);
        }
    }

    #[test]
    fn by_size_splits_on_threshold() {
        let mut meta = Metascheduler::new(FlowAssignment::BySize {
            threshold: 4,
            large: StrategyKind::S3,
            small: StrategyKind::S2,
        });
        let big = fig2_job(); // 6 tasks
        let small = pipeline_job(JobId::new(1), &[10.0, 10.0], SimDuration::from_ticks(50));
        assert_eq!(meta.assign(&big), StrategyKind::S3);
        assert_eq!(meta.assign(&small), StrategyKind::S2);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_round_robin_rejected() {
        let _ = Metascheduler::new(FlowAssignment::RoundRobin(Vec::new()));
    }
}
