//! Distributions: single supporting schedules.
//!
//! §3: `Distribution := <<Task 1/Allocation i, [Start 1, End 1]>, …,
//! <Task N/Allocation j, [Start N, End N]>>` — every task of the job mapped
//! to a node and a reserved wall-time window.

use std::fmt;

use gridsched_sim::time::{SimDuration, SimTime};

use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{NodeId, TaskId};
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::PerfGroup;
use gridsched_model::window::TimeWindow;

use crate::cost::Cost;

/// One task's allocation inside a [`Distribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The task.
    pub task: TaskId,
    /// The node it is co-allocated to.
    pub node: NodeId,
    /// Reserved wall-time window (input staging + execution).
    pub window: TimeWindow,
    /// The leading part of the window spent staging input data.
    pub stall: SimDuration,
    /// This placement's contribution to the job's cost function.
    pub cost: Cost,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} {} (stall {}, cost {})",
            self.task, self.node, self.window, self.stall, self.cost
        )
    }
}

/// A collision between critical works (§3): a task of a later critical work
/// wanted a slot already reserved by an earlier one on the same node, and
/// had to be reallocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollisionRecord {
    /// The task that had to move.
    pub task: TaskId,
    /// The contested node.
    pub node: NodeId,
    /// The contested node's performance group (Fig. 3b statistics).
    pub group: PerfGroup,
}

impl fmt::Display for CollisionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "collision: {} on {} ({})",
            self.task, self.node, self.group
        )
    }
}

/// One supporting schedule of a strategy: a complete task→node/window
/// mapping for a given estimation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    scenario: EstimateScenario,
    /// Indexed by `TaskId::index()`.
    placements: Vec<Placement>,
    collisions: Vec<CollisionRecord>,
    cf: Cost,
    makespan: SimTime,
}

impl Distribution {
    /// Assembles a distribution from per-task placements.
    ///
    /// # Panics
    ///
    /// Panics if `placements` is empty or not sorted by task id covering
    /// `0..n` densely — the scheduler must place every task exactly once.
    #[must_use]
    pub fn new(
        scenario: EstimateScenario,
        placements: Vec<Placement>,
        collisions: Vec<CollisionRecord>,
    ) -> Self {
        assert!(
            !placements.is_empty(),
            "a distribution places at least one task"
        );
        for (i, p) in placements.iter().enumerate() {
            assert_eq!(
                p.task.index(),
                i,
                "placements must be dense and ordered by task id"
            );
        }
        let cf = placements.iter().map(|p| p.cost).sum();
        let makespan = placements
            .iter()
            .map(|p| p.window.end())
            .max()
            .expect("non-empty placements");
        Distribution {
            scenario,
            placements,
            collisions,
            cf,
            makespan,
        }
    }

    /// The estimation scenario this schedule was built for.
    #[must_use]
    pub fn scenario(&self) -> EstimateScenario {
        self.scenario
    }

    /// All placements, in task-id order.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The placement of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn placement(&self, task: TaskId) -> &Placement {
        &self.placements[task.index()]
    }

    /// Collisions resolved while building this schedule.
    #[must_use]
    pub fn collisions(&self) -> &[CollisionRecord] {
        &self.collisions
    }

    /// The job's cost function value `CF = Σ ceil(V_i / T_i)` (§3).
    #[must_use]
    pub fn cost(&self) -> Cost {
        self.cf
    }

    /// When the last task's window ends.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Whether the schedule completes by `deadline`.
    #[must_use]
    pub fn meets_deadline(&self, deadline: SimTime) -> bool {
        self.makespan <= deadline
    }

    /// Validates the schedule against its job and a resource pool:
    /// every task placed on an existing node it can run on, precedence
    /// respected (a consumer's window starts no earlier than each
    /// producer's window end), and no two placements of this job overlap on
    /// the same node.
    ///
    /// Returns the first violation found, or `Ok(())`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] describing the violation.
    pub fn validate(&self, job: &Job, pool: &ResourcePool) -> Result<(), DistributionError> {
        if self.placements.len() != job.task_count() {
            return Err(DistributionError::WrongTaskCount {
                expected: job.task_count(),
                actual: self.placements.len(),
            });
        }
        for p in &self.placements {
            if p.node.index() >= pool.len() {
                return Err(DistributionError::UnknownNode(p.node));
            }
            let perf = pool.node(p.node).perf();
            if !job.task(p.task).runs_on(perf) {
                return Err(DistributionError::NodeTooSlow {
                    task: p.task,
                    node: p.node,
                });
            }
        }
        for e in job.edges() {
            let from = self.placement(e.from());
            let to = self.placement(e.to());
            if to.window.start() < from.window.end() {
                return Err(DistributionError::PrecedenceViolated {
                    from: e.from(),
                    to: e.to(),
                });
            }
        }
        for (i, a) in self.placements.iter().enumerate() {
            for b in &self.placements[i + 1..] {
                if a.node == b.node && a.window.overlaps(b.window) {
                    return Err(DistributionError::SelfOverlap {
                        first: a.task,
                        second: b.task,
                        node: a.node,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Distribution[{} tasks, CF={}, makespan {}, scenario {}]",
            self.placements.len(),
            self.cf,
            self.makespan,
            self.scenario
        )
    }
}

/// Violations detected by [`Distribution::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionError {
    /// Placement count differs from the job's task count.
    WrongTaskCount {
        /// Tasks in the job.
        expected: usize,
        /// Placements in the distribution.
        actual: usize,
    },
    /// A placement references a node outside the pool.
    UnknownNode(NodeId),
    /// A task was placed on a node below its minimum performance.
    NodeTooSlow {
        /// The task.
        task: TaskId,
        /// The too-slow node.
        node: NodeId,
    },
    /// A consumer starts before its producer ends.
    PrecedenceViolated {
        /// Producer task.
        from: TaskId,
        /// Consumer task.
        to: TaskId,
    },
    /// Two placements of the same job overlap on one node.
    SelfOverlap {
        /// Earlier task id.
        first: TaskId,
        /// Later task id.
        second: TaskId,
        /// The shared node.
        node: NodeId,
    },
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributionError::WrongTaskCount { expected, actual } => {
                write!(f, "distribution places {actual} tasks, job has {expected}")
            }
            DistributionError::UnknownNode(n) => write!(f, "placement on unknown node {n}"),
            DistributionError::NodeTooSlow { task, node } => {
                write!(f, "task {task} placed on too-slow node {node}")
            }
            DistributionError::PrecedenceViolated { from, to } => {
                write!(f, "task {to} starts before its producer {from} ends")
            }
            DistributionError::SelfOverlap {
                first,
                second,
                node,
            } => write!(f, "tasks {first} and {second} overlap on node {node}"),
        }
    }
}

impl std::error::Error for DistributionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_model::fixtures::pipeline_job;
    use gridsched_model::ids::{DomainId, JobId};
    use gridsched_model::perf::Perf;

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
    }

    fn placement(task: u32, node: u32, a: u64, b: u64, cost: Cost) -> Placement {
        Placement {
            task: TaskId::new(task),
            node: NodeId::new(node),
            window: w(a, b),
            stall: SimDuration::ZERO,
            cost,
        }
    }

    fn pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        pool.add_node(DomainId::new(0), Perf::FULL);
        pool.add_node(DomainId::new(0), Perf::new(0.5).unwrap());
        pool
    }

    #[test]
    fn aggregates_cost_and_makespan() {
        let d = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(0, 0, 0, 2, 10), placement(1, 1, 3, 9, 4)],
            Vec::new(),
        );
        assert_eq!(d.cost(), 14);
        assert_eq!(d.makespan(), SimTime::from_ticks(9));
        assert!(d.meets_deadline(SimTime::from_ticks(9)));
        assert!(!d.meets_deadline(SimTime::from_ticks(8)));
    }

    #[test]
    fn validate_accepts_good_schedule() {
        let job = pipeline_job(JobId::new(0), &[20.0, 10.0], SimDuration::from_ticks(50));
        let d = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(0, 0, 0, 2, 10), placement(1, 1, 3, 6, 4)],
            Vec::new(),
        );
        assert_eq!(d.validate(&job, &pool()), Ok(()));
    }

    #[test]
    fn validate_catches_precedence_violation() {
        let job = pipeline_job(JobId::new(0), &[20.0, 10.0], SimDuration::from_ticks(50));
        let d = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(0, 0, 2, 5, 10), placement(1, 1, 1, 4, 4)],
            Vec::new(),
        );
        assert_eq!(
            d.validate(&job, &pool()),
            Err(DistributionError::PrecedenceViolated {
                from: TaskId::new(0),
                to: TaskId::new(1)
            })
        );
    }

    #[test]
    fn validate_catches_self_overlap() {
        // Two independent tasks on the same node at the same time.
        let mut b = gridsched_model::job::JobBuilder::new();
        b.add_task(gridsched_model::volume::Volume::new(10.0));
        b.add_task(gridsched_model::volume::Volume::new(10.0));
        let job = b.build(JobId::new(0)).unwrap();
        let d = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(0, 0, 0, 3, 4), placement(1, 0, 2, 5, 4)],
            Vec::new(),
        );
        assert_eq!(
            d.validate(&job, &pool()),
            Err(DistributionError::SelfOverlap {
                first: TaskId::new(0),
                second: TaskId::new(1),
                node: NodeId::new(0)
            })
        );
    }

    #[test]
    fn validate_catches_unknown_node_and_count() {
        let job = pipeline_job(JobId::new(0), &[20.0, 10.0], SimDuration::from_ticks(50));
        let d = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(0, 7, 0, 2, 10), placement(1, 0, 3, 6, 4)],
            Vec::new(),
        );
        assert_eq!(
            d.validate(&job, &pool()),
            Err(DistributionError::UnknownNode(NodeId::new(7)))
        );
        let short = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(0, 0, 0, 2, 10)],
            Vec::new(),
        );
        assert!(matches!(
            short.validate(&job, &pool()),
            Err(DistributionError::WrongTaskCount { .. })
        ));
    }

    #[test]
    fn validate_catches_too_slow_node() {
        let mut b = gridsched_model::job::JobBuilder::new();
        b.add_task_with(
            gridsched_model::volume::Volume::new(10.0),
            Some(Perf::new(0.9).unwrap()),
        );
        let job = b.build(JobId::new(0)).unwrap();
        let d = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(0, 1, 0, 2, 5)],
            Vec::new(),
        );
        assert_eq!(
            d.validate(&job, &pool()),
            Err(DistributionError::NodeTooSlow {
                task: TaskId::new(0),
                node: NodeId::new(1)
            })
        );
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_placements_rejected() {
        let _ = Distribution::new(
            EstimateScenario::BEST,
            vec![placement(1, 0, 0, 2, 10)],
            Vec::new(),
        );
    }
}
