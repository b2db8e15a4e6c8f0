//! Compound jobs: DAGs of tasks linked by data transfers.
//!
//! This is the paper's *information graph* (Fig. 2a): computation vertices
//! `P1..Pn` connected by data-transfer arcs `D1..Dm`. A job carries a fixed
//! completion deadline — the QoS target the strategies must meet.

use std::fmt;

use gridsched_sim::time::{SimDuration, SimTime};

use crate::ids::{JobId, TaskId};
use crate::perf::Perf;
use crate::task::Task;
use crate::volume::Volume;

/// A data-transfer arc between two tasks (`D1..D8` in Fig. 2a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataEdge {
    from: TaskId,
    to: TaskId,
    volume: Volume,
}

impl DataEdge {
    /// Producer task.
    #[must_use]
    pub fn from(&self) -> TaskId {
        self.from
    }

    /// Consumer task.
    #[must_use]
    pub fn to(&self) -> TaskId {
        self.to
    }

    /// Volume of data moved along the arc.
    #[must_use]
    pub fn volume(&self) -> Volume {
        self.volume
    }
}

impl fmt::Display for DataEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}:{}", self.from, self.to, self.volume)
    }
}

/// Errors detected while building a [`Job`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildJobError {
    /// The job has no tasks.
    Empty,
    /// An edge references a task id that was never added.
    UnknownTask(TaskId),
    /// An edge connects a task to itself.
    SelfLoop(TaskId),
    /// The same `(from, to)` pair was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The edges form a cycle, so no schedule exists.
    Cycle,
    /// The deadline is zero.
    ZeroDeadline,
}

impl fmt::Display for BuildJobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildJobError::Empty => write!(f, "job has no tasks"),
            BuildJobError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            BuildJobError::SelfLoop(t) => write!(f, "task {t} has a self-loop"),
            BuildJobError::DuplicateEdge(a, b) => {
                write!(f, "duplicate edge {a}->{b}")
            }
            BuildJobError::Cycle => write!(f, "task graph contains a cycle"),
            BuildJobError::ZeroDeadline => write!(f, "job deadline must be positive"),
        }
    }
}

impl std::error::Error for BuildJobError {}

/// Incrementally builds a [`Job`], validating the DAG on
/// [`JobBuilder::build`].
///
/// # Examples
///
/// ```
/// use gridsched_model::ids::JobId;
/// use gridsched_model::job::JobBuilder;
/// use gridsched_model::volume::Volume;
/// use gridsched_sim::time::SimDuration;
///
/// let mut b = JobBuilder::new();
/// let a = b.add_task(Volume::new(20.0));
/// let c = b.add_task(Volume::new(10.0));
/// b.add_edge(a, c, Volume::new(5.0));
/// b.deadline(SimDuration::from_ticks(20));
/// let job = b.build(JobId::new(0))?;
/// assert_eq!(job.task_count(), 2);
/// # Ok::<(), gridsched_model::job::BuildJobError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct JobBuilder {
    tasks: Vec<Task>,
    edges: Vec<DataEdge>,
    deadline: Option<SimDuration>,
    release: SimTime,
}

impl JobBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        JobBuilder::default()
    }

    /// Adds a task with the given computation volume; returns its id.
    pub fn add_task(&mut self, volume: Volume) -> TaskId {
        self.add_task_with(volume, None)
    }

    /// Adds a task with a minimum-performance requirement.
    pub fn add_task_with(&mut self, volume: Volume, min_perf: Option<Perf>) -> TaskId {
        let id = TaskId::new(u32::try_from(self.tasks.len()).expect("too many tasks"));
        self.tasks.push(Task::new(id, volume, min_perf));
        id
    }

    /// Adds a data-transfer arc.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, volume: Volume) -> &mut Self {
        self.edges.push(DataEdge { from, to, volume });
        self
    }

    /// Sets the job's completion deadline, relative to its release time.
    pub fn deadline(&mut self, deadline: SimDuration) -> &mut Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the job's release (submission) time. Defaults to `t0`.
    pub fn release_at(&mut self, release: SimTime) -> &mut Self {
        self.release = release;
        self
    }

    /// Validates the graph and produces the immutable [`Job`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildJobError`] if the graph is empty, references unknown
    /// tasks, contains self-loops, duplicate arcs or cycles, or if the
    /// deadline is zero.
    pub fn build(self, id: JobId) -> Result<Job, BuildJobError> {
        if self.tasks.is_empty() {
            return Err(BuildJobError::Empty);
        }
        let deadline = self.deadline.unwrap_or(SimDuration::MAX);
        if deadline.is_zero() {
            return Err(BuildJobError::ZeroDeadline);
        }
        let n = self.tasks.len();
        let mut seen = std::collections::HashSet::new();
        for e in &self.edges {
            if e.from.index() >= n {
                return Err(BuildJobError::UnknownTask(e.from));
            }
            if e.to.index() >= n {
                return Err(BuildJobError::UnknownTask(e.to));
            }
            if e.from == e.to {
                return Err(BuildJobError::SelfLoop(e.from));
            }
            if !seen.insert((e.from, e.to)) {
                return Err(BuildJobError::DuplicateEdge(e.from, e.to));
            }
        }
        // Adjacency: edge indices per task.
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            out_edges[e.from.index()].push(i);
            in_edges[e.to.index()].push(i);
        }
        // Kahn's algorithm for a deterministic topological order (smallest
        // ready task id first).
        let mut indeg: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(i))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            topo.push(TaskId::new(i as u32));
            for &ei in &out_edges[i] {
                let j = self.edges[ei].to.index();
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(std::cmp::Reverse(j));
                }
            }
        }
        if topo.len() != n {
            return Err(BuildJobError::Cycle);
        }
        Ok(Job {
            id,
            tasks: self.tasks,
            edges: self.edges,
            out_edges,
            in_edges,
            topo,
            deadline,
            release: self.release,
        })
    }
}

/// An immutable, validated compound job.
///
/// Equality is structural over everything the builder validated (id,
/// tasks, edges, timing) — two jobs compare equal exactly when they are
/// interchangeable inputs to planning. The chaos harness leans on this to
/// assert that batch and online workload generation produce the same
/// stream under degenerate zero-gap arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    id: JobId,
    tasks: Vec<Task>,
    edges: Vec<DataEdge>,
    out_edges: Vec<Vec<usize>>,
    in_edges: Vec<Vec<usize>>,
    topo: Vec<TaskId>,
    deadline: SimDuration,
    release: SimTime,
}

impl Job {
    /// The job's id.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Number of tasks.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// All tasks, in id order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks up a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this job.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// All data-transfer arcs.
    #[must_use]
    pub fn edges(&self) -> &[DataEdge] {
        &self.edges
    }

    /// Arcs entering `task` (its data dependencies).
    pub fn incoming(&self, task: TaskId) -> impl Iterator<Item = &DataEdge> {
        self.in_edges[task.index()].iter().map(|&i| &self.edges[i])
    }

    /// Arcs leaving `task`.
    pub fn outgoing(&self, task: TaskId) -> impl Iterator<Item = &DataEdge> {
        self.out_edges[task.index()].iter().map(|&i| &self.edges[i])
    }

    /// Positions in [`Self::edges`] of the arcs entering `task`, in
    /// [`Self::incoming`] order: a key for per-arc tables.
    #[must_use]
    pub fn incoming_indices(&self, task: TaskId) -> &[usize] {
        &self.in_edges[task.index()]
    }

    /// Positions in [`Self::edges`] of the arcs leaving `task`, in
    /// [`Self::outgoing`] order.
    #[must_use]
    pub fn outgoing_indices(&self, task: TaskId) -> &[usize] {
        &self.out_edges[task.index()]
    }

    /// Direct predecessors of `task`.
    pub fn predecessors(&self, task: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.incoming(task).map(DataEdge::from)
    }

    /// Direct successors of `task`.
    pub fn successors(&self, task: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.outgoing(task).map(DataEdge::to)
    }

    /// A deterministic topological order of the tasks.
    #[must_use]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks with no predecessors.
    pub fn entry_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks
            .iter()
            .map(Task::id)
            .filter(|&t| self.in_edges[t.index()].is_empty())
    }

    /// The job's completion deadline, relative to its release time.
    #[must_use]
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// The job's release (submission) time.
    #[must_use]
    pub fn release(&self) -> SimTime {
        self.release
    }

    /// Absolute deadline instant.
    #[must_use]
    pub fn absolute_deadline(&self) -> SimTime {
        self.release.saturating_add(self.deadline)
    }

    /// The same job with a different release instant and relative
    /// deadline. Online admission uses this to re-anchor a deferred job at
    /// its actual admission time while keeping its *absolute* deadline:
    /// the DAG, volumes and transfer arcs are untouched.
    #[must_use]
    pub fn with_timing(&self, release: SimTime, deadline: SimDuration) -> Job {
        Job {
            release,
            deadline,
            ..self.clone()
        }
    }

    /// Total computation volume of all tasks.
    #[must_use]
    pub fn total_volume(&self) -> Volume {
        self.tasks.iter().map(Task::volume).sum()
    }

    /// Longest path through the DAG under caller-supplied weights, returning
    /// per-task earliest finish offsets and the overall length.
    ///
    /// `task_weight` gives each task's duration; `edge_weight` gives each
    /// arc's transfer time. This is the generic engine behind both the
    /// critical-path lower bound and the critical-works chain search.
    pub fn longest_path(
        &self,
        mut task_weight: impl FnMut(TaskId) -> SimDuration,
        mut edge_weight: impl FnMut(&DataEdge) -> SimDuration,
    ) -> LongestPath {
        let n = self.tasks.len();
        let mut finish = vec![SimDuration::ZERO; n];
        for &t in &self.topo {
            let start = self
                .incoming(t)
                .map(|e| finish[e.from().index()] + edge_weight(e))
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish[t.index()] = start + task_weight(t);
        }
        let total = finish.iter().copied().max().unwrap_or(SimDuration::ZERO);
        LongestPath { finish, total }
    }

    /// Critical-path length when every task runs on a node of performance
    /// `perf` and transfers are instantaneous — a lower bound on makespan.
    #[must_use]
    pub fn critical_path(&self, perf: Perf) -> SimDuration {
        self.longest_path(|t| self.task(t).duration_on(perf), |_| SimDuration::ZERO)
            .total
    }

    /// The maximum number of tasks that can run concurrently if each starts
    /// as early as possible — the "task parallelism degree" that sizes the
    /// node pool in the paper's workload (§4).
    #[must_use]
    pub fn parallelism_degree(&self) -> usize {
        // Levels by longest edge-count distance from an entry.
        let mut level = vec![0usize; self.tasks.len()];
        for &t in &self.topo {
            for p in self.predecessors(t) {
                level[t.index()] = level[t.index()].max(level[p.index()] + 1);
            }
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut counts = vec![0usize; max_level + 1];
        for &l in &level {
            counts[l] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} tasks, {} edges, deadline {}]",
            self.id,
            self.tasks.len(),
            self.edges.len(),
            self.deadline
        )
    }
}

/// Result of [`Job::longest_path`].
#[derive(Debug, Clone)]
pub struct LongestPath {
    /// Earliest finish offset per task (indexed by `TaskId::index`).
    pub finish: Vec<SimDuration>,
    /// Length of the longest path overall.
    pub total: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fixtures::fig2_job;

    fn v(units: f64) -> Volume {
        Volume::new(units)
    }

    #[test]
    fn fig2_structure() {
        let job = fig2_job();
        assert_eq!(job.task_count(), 6);
        assert_eq!(job.edges().len(), 8);
        assert_eq!(job.entry_tasks().collect::<Vec<_>>(), vec![TaskId::new(0)]);
        assert_eq!(job.successors(TaskId::new(5)).count(), 0, "P6 is the exit");
        assert_eq!(
            job.predecessors(TaskId::new(5)).collect::<Vec<_>>(),
            vec![TaskId::new(3), TaskId::new(4)]
        );
    }

    #[test]
    fn topo_order_respects_edges() {
        let job = fig2_job();
        let pos: Vec<usize> = {
            let mut pos = vec![0; job.task_count()];
            for (i, &t) in job.topo_order().iter().enumerate() {
                pos[t.index()] = i;
            }
            pos
        };
        for e in job.edges() {
            assert!(pos[e.from().index()] < pos[e.to().index()], "{e}");
        }
    }

    #[test]
    fn fig2_critical_path_on_fast_node() {
        let job = fig2_job();
        // Longest chain P1-P2-P4-P6 on type-1 nodes: 2+3+2+2 = 9 ticks
        // (paper: "four critical works 12, 11, 10, and 9 time units long
        // (including data transfer time)"; without transfers the longest is 9).
        assert_eq!(job.critical_path(Perf::FULL).ticks(), 9);
    }

    #[test]
    fn fig2_critical_path_with_transfers_matches_paper() {
        let job = fig2_job();
        // Each arc carries volume 5; at transfer speed 5 units/tick an arc
        // costs 1 tick, so P1-P2-P4-P6 = 9 + 3 transfers = 12, exactly the
        // paper's longest critical work.
        let lp = job.longest_path(
            |t| job.task(t).duration_on(Perf::FULL),
            |e| SimDuration::from_ticks((e.volume().units() / 5.0).ceil() as u64),
        );
        assert_eq!(lp.total.ticks(), 12);
        // P1, P2, P4, P6 finish at 2, 2 + 1 + 3, 6 + 1 + 2, 9 + 1 + 2.
        let finish = [0, 1, 3, 5].map(|i| lp.finish[i].ticks());
        assert_eq!(finish, [2, 6, 9, 12]);
    }

    #[test]
    fn fig2_parallelism_degree() {
        let job = fig2_job();
        // Levels: {P1}, {P2,P3}, {P4,P5}, {P6} -> degree 2.
        assert_eq!(job.parallelism_degree(), 2);
    }

    #[test]
    fn build_rejects_cycles() {
        let mut b = JobBuilder::new();
        let a = b.add_task(v(1.0));
        let c = b.add_task(v(1.0));
        b.add_edge(a, c, Volume::ZERO);
        b.add_edge(c, a, Volume::ZERO);
        assert_eq!(b.build(JobId::new(0)).unwrap_err(), BuildJobError::Cycle);
    }

    #[test]
    fn build_rejects_self_loop_and_duplicates() {
        let mut b = JobBuilder::new();
        let a = b.add_task(v(1.0));
        b.add_edge(a, a, Volume::ZERO);
        assert_eq!(
            b.build(JobId::new(0)).unwrap_err(),
            BuildJobError::SelfLoop(TaskId::new(0))
        );

        let mut b = JobBuilder::new();
        let a = b.add_task(v(1.0));
        let c = b.add_task(v(1.0));
        b.add_edge(a, c, Volume::ZERO);
        b.add_edge(a, c, Volume::ZERO);
        assert_eq!(
            b.build(JobId::new(0)).unwrap_err(),
            BuildJobError::DuplicateEdge(TaskId::new(0), TaskId::new(1))
        );
    }

    #[test]
    fn build_rejects_unknown_and_empty() {
        let b = JobBuilder::new();
        assert_eq!(b.build(JobId::new(0)).unwrap_err(), BuildJobError::Empty);

        let mut b = JobBuilder::new();
        let a = b.add_task(v(1.0));
        b.add_edge(a, TaskId::new(9), Volume::ZERO);
        assert_eq!(
            b.build(JobId::new(0)).unwrap_err(),
            BuildJobError::UnknownTask(TaskId::new(9))
        );
    }

    #[test]
    fn build_rejects_zero_deadline() {
        let mut b = JobBuilder::new();
        b.add_task(v(1.0));
        b.deadline(SimDuration::ZERO);
        assert_eq!(
            b.build(JobId::new(0)).unwrap_err(),
            BuildJobError::ZeroDeadline
        );
    }

    #[test]
    fn deadline_and_release_default() {
        let mut b = JobBuilder::new();
        b.add_task(v(1.0));
        let job = b.build(JobId::new(3)).unwrap();
        assert_eq!(job.deadline(), SimDuration::MAX);
        assert_eq!(job.release(), SimTime::ZERO);
        assert_eq!(job.absolute_deadline(), SimTime::MAX);
    }

    #[test]
    fn total_volume_sums_tasks() {
        let job = fig2_job();
        assert_eq!(job.total_volume(), Volume::new(110.0));
    }

    #[test]
    fn independent_tasks_have_full_parallelism() {
        let mut b = JobBuilder::new();
        for _ in 0..5 {
            b.add_task(v(1.0));
        }
        let job = b.build(JobId::new(1)).unwrap();
        assert_eq!(job.parallelism_degree(), 5);
        assert_eq!(job.critical_path(Perf::FULL).ticks(), 1);
    }
}
