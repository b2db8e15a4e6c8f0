//! Execution-time estimation scenarios.
//!
//! Users submit *estimations* of task completion time; actual times differ
//! ("actual solving time `T_i` for a task can be different from user
//! estimation `T_ij`", §3). A strategy therefore contains supporting
//! schedules for several estimation *scenarios*. The full strategies
//! (S1/S2/S3) sweep a range of scenarios; the economized `MS1` keeps only
//! the best- and worst-case estimations (§4).

use gridsched_sim::time::SimDuration;

use crate::perf::Perf;
use crate::task::Task;

/// One execution-time scenario: a multiplier applied to the nominal
/// (volume/performance) duration.
///
/// Multiplier 1.0 is the user's optimistic estimate; the paper's workload
/// spreads real durations by a factor of 2–3, so worst-case scenarios use
/// multipliers up to [`EstimateScenario::WORST_FACTOR`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateScenario {
    multiplier: f64,
}

impl EstimateScenario {
    /// The optimistic (best-case) scenario.
    pub const BEST: EstimateScenario = EstimateScenario { multiplier: 1.0 };

    /// Upper bound of the paper's estimate spread ("difference … equal to
    /// 2...3", §4); we take the midpoint 2.5 as the worst-case multiplier.
    pub const WORST_FACTOR: f64 = 2.5;

    /// The pessimistic (worst-case) scenario.
    pub const WORST: EstimateScenario = EstimateScenario {
        multiplier: Self::WORST_FACTOR,
    };

    /// Creates a scenario with the given duration multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier < 1.0` or is not finite: an estimate can never
    /// be shorter than the nominal volume/performance time.
    #[must_use]
    pub fn new(multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier >= 1.0,
            "estimate multiplier must be >= 1.0, got {multiplier}"
        );
        EstimateScenario { multiplier }
    }

    /// The duration multiplier.
    #[must_use]
    pub fn multiplier(self) -> f64 {
        self.multiplier
    }

    /// Estimated duration of `task` on a node of performance `perf` under
    /// this scenario.
    #[must_use]
    #[inline]
    pub fn duration(self, task: &Task, perf: Perf) -> SimDuration {
        task.duration_on(perf).scale_ceil(self.multiplier)
    }
}

impl Eq for EstimateScenario {}

impl PartialOrd for EstimateScenario {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EstimateScenario {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.multiplier
            .partial_cmp(&other.multiplier)
            .expect("scenario multipliers are finite by construction")
    }
}

impl std::fmt::Display for EstimateScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{:.2}", self.multiplier)
    }
}

/// The set of scenarios a strategy covers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweep {
    scenarios: Vec<EstimateScenario>,
}

impl ScenarioSweep {
    /// A full sweep: `n` scenarios evenly spaced from best to worst case.
    /// This is what the complete strategies S1/S2/S3 use.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n >= 2, "a full sweep needs at least 2 scenarios, got {n}");
        let lo = 1.0;
        let hi = EstimateScenario::WORST_FACTOR;
        let scenarios = (0..n)
            .map(|i| {
                let f = lo + (hi - lo) * (i as f64) / ((n - 1) as f64);
                EstimateScenario::new(f)
            })
            .collect();
        ScenarioSweep { scenarios }
    }

    /// Only the best- and worst-case estimations — the economized `MS1`
    /// modification (§4).
    #[must_use]
    pub fn best_worst() -> Self {
        ScenarioSweep {
            scenarios: vec![EstimateScenario::BEST, EstimateScenario::WORST],
        }
    }

    /// A single-scenario sweep (useful in unit tests).
    #[must_use]
    pub fn single(scenario: EstimateScenario) -> Self {
        ScenarioSweep {
            scenarios: vec![scenario],
        }
    }

    /// The scenarios, best case first.
    #[must_use]
    pub fn scenarios(&self) -> &[EstimateScenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the sweep is empty (never true for the provided
    /// constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;
    use crate::volume::Volume;

    fn task(volume: f64) -> Task {
        Task::new(TaskId::new(0), Volume::new(volume), None)
    }

    #[test]
    fn best_scenario_is_nominal() {
        let t = task(20.0);
        assert_eq!(EstimateScenario::BEST.duration(&t, Perf::FULL).ticks(), 2);
    }

    #[test]
    fn worst_scenario_scales_up_with_ceil() {
        let t = task(20.0);
        // 2 * 2.5 = 5
        assert_eq!(EstimateScenario::WORST.duration(&t, Perf::FULL).ticks(), 5);
        // 3 * 1.5 = 4.5 -> 5
        assert_eq!(
            EstimateScenario::new(1.5)
                .duration(&task(30.0), Perf::FULL)
                .ticks(),
            5
        );
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn sub_nominal_multiplier_rejected() {
        let _ = EstimateScenario::new(0.9);
    }

    #[test]
    fn full_sweep_spans_best_to_worst() {
        let sweep = ScenarioSweep::full(4);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep.scenarios()[0], EstimateScenario::BEST);
        assert_eq!(sweep.scenarios()[3], EstimateScenario::WORST);
        // Monotone increasing.
        for pair in sweep.scenarios().windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn best_worst_is_two_extremes() {
        let sweep = ScenarioSweep::best_worst();
        assert_eq!(
            sweep.scenarios(),
            &[EstimateScenario::BEST, EstimateScenario::WORST]
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn full_sweep_needs_two() {
        let _ = ScenarioSweep::full(1);
    }
}
