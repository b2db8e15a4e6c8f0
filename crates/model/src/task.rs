//! Tasks: the atomic units of a compound job.

use std::fmt;

use gridsched_sim::time::SimDuration;

use crate::ids::TaskId;
use crate::perf::Perf;
use crate::volume::Volume;

/// One task of a compound job (`P1`, …, `P6` in the paper's Fig. 2).
///
/// Tasks are "heterogeneous in terms of computation volume and resource
/// need" (§1): each carries its own volume and, optionally, a minimum node
/// performance it can run on.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    id: TaskId,
    volume: Volume,
    min_perf: Option<Perf>,
}

impl Task {
    pub(crate) fn new(id: TaskId, volume: Volume, min_perf: Option<Perf>) -> Self {
        Task {
            id,
            volume,
            min_perf,
        }
    }

    /// The task's id within its job.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's relative computation volume (`V_ij` in §3).
    #[must_use]
    pub fn volume(&self) -> Volume {
        self.volume
    }

    /// Minimum node performance this task requires, if constrained.
    #[must_use]
    pub fn min_perf(&self) -> Option<Perf> {
        self.min_perf
    }

    /// Whether a node of performance `perf` satisfies the task's resource
    /// requirement.
    #[must_use]
    #[inline]
    pub fn runs_on(&self, perf: Perf) -> bool {
        self.min_perf.is_none_or(|min| perf >= min)
    }

    /// Execution time on a node of performance `perf` (the user estimation
    /// `T_ij` of §3 for the base scenario).
    #[must_use]
    #[inline]
    pub fn duration_on(&self, perf: Perf) -> SimDuration {
        perf.exec_duration(self.volume)
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<{}>", self.id, self.volume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_scales_with_perf() {
        let t = Task::new(TaskId::new(0), Volume::new(30.0), None);
        assert_eq!(t.duration_on(Perf::FULL).ticks(), 3);
        assert_eq!(t.duration_on(Perf::new(0.5).unwrap()).ticks(), 6);
    }

    #[test]
    fn min_perf_gates_placement() {
        let t = Task::new(
            TaskId::new(1),
            Volume::new(10.0),
            Some(Perf::new(0.5).unwrap()),
        );
        assert!(t.runs_on(Perf::new(0.5).unwrap()));
        assert!(t.runs_on(Perf::FULL));
        assert!(!t.runs_on(Perf::new(0.33).unwrap()));
        let unconstrained = Task::new(TaskId::new(2), Volume::new(10.0), None);
        assert!(unconstrained.runs_on(Perf::new(0.33).unwrap()));
    }

    #[test]
    fn display_shows_volume() {
        let t = Task::new(TaskId::new(3), Volume::new(20.0), None);
        assert_eq!(t.to_string(), "P3<20u>");
    }
}
