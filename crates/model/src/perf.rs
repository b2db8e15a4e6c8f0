//! Node performance model.
//!
//! The paper (§4) divides processor nodes into three groups by *relative
//! performance*: "fast" nodes at 0.66…1.0, a middle group at 0.33…0.66 and
//! "slow" nodes at exactly 0.33, so that fast nodes are 2–3× faster than
//! slow ones. Execution time of a task scales inversely with performance
//! and is rounded up to a whole tick ("nearest not-smaller integer", §3).

use std::fmt;

use gridsched_sim::time::{ceil_u64, SimDuration};

use crate::volume::Volume;

/// Volume units a performance-1.0 node processes per tick.
///
/// Chosen so the paper's Fig. 2 table falls out exactly: a task of volume 20
/// takes 2 ticks on a performance-1.0 ("type 1") node.
pub const BASE_SPEED: f64 = 10.0;

/// Relative performance of a processor node, in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perf(f64);

impl Perf {
    /// The reference performance of the fastest node class.
    pub const FULL: Perf = Perf(1.0);

    /// Creates a performance value.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError`] if `value` is not in `(0, 1]` or not finite.
    pub fn new(value: f64) -> Result<Self, PerfError> {
        if !value.is_finite() || value <= 0.0 || value > 1.0 {
            return Err(PerfError { value });
        }
        Ok(Perf(value))
    }

    /// Returns the raw relative-performance value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Classifies this performance into the paper's three groups.
    #[must_use]
    pub fn group(self) -> PerfGroup {
        PerfGroup::classify(self)
    }

    /// Time to execute `volume` units of computation on a node of this
    /// performance, rounded up to a whole tick.
    ///
    /// A zero-volume task still takes one tick: the model has no
    /// instantaneous computations, which keeps schedules well-ordered.
    #[must_use]
    #[inline]
    pub fn exec_duration(self, volume: Volume) -> SimDuration {
        let raw = volume.units() / (self.0 * BASE_SPEED);
        // Guard against floating-point dust (e.g. 20 / ((1/3)·10) evaluating
        // to 6.000000000000001) pushing an exact quotient up a whole tick.
        SimDuration::from_ticks(ceil_u64(raw - 1e-9).max(1))
    }
}

impl Eq for Perf {}

impl PartialOrd for Perf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Perf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Perf::new guarantees the value is finite, so total order exists.
        self.0
            .partial_cmp(&other.0)
            .expect("Perf values are finite by construction")
    }
}

impl fmt::Display for Perf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

/// Error returned when constructing an out-of-range [`Perf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfError {
    value: f64,
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "relative performance must be in (0, 1], got {}",
            self.value
        )
    }
}

impl std::error::Error for PerfError {}

/// The paper's three performance groups (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PerfGroup {
    /// Relative performance 0.66…1.0.
    Fast,
    /// Relative performance 0.33…0.66.
    Medium,
    /// Relative performance ≤ 0.33 ("slow" nodes).
    Slow,
}

impl PerfGroup {
    /// All groups, fastest first.
    pub const ALL: [PerfGroup; 3] = [PerfGroup::Fast, PerfGroup::Medium, PerfGroup::Slow];

    /// Classifies a performance value: `Fast` at or above 0.66, `Slow` at or
    /// below 0.33, `Medium` in between.
    #[must_use]
    pub fn classify(perf: Perf) -> PerfGroup {
        let v = perf.value();
        if v >= 0.66 {
            PerfGroup::Fast
        } else if v <= 0.33 {
            PerfGroup::Slow
        } else {
            PerfGroup::Medium
        }
    }

    /// The paper's two-way split used in Fig. 3 (b): fast vs everything
    /// slower ("'fast' are 2-3 times faster than 'slow' ones").
    #[must_use]
    pub fn is_fast(self) -> bool {
        self == PerfGroup::Fast
    }

    /// Lower (inclusive) and upper (inclusive) performance bounds for
    /// sampling nodes of this group, per §4.
    #[must_use]
    pub fn perf_range(self) -> (f64, f64) {
        match self {
            PerfGroup::Fast => (0.66, 1.0),
            PerfGroup::Medium => (0.34, 0.65),
            PerfGroup::Slow => (0.33, 0.33),
        }
    }
}

impl fmt::Display for PerfGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PerfGroup::Fast => "fast",
            PerfGroup::Medium => "medium",
            PerfGroup::Slow => "slow",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_validation() {
        assert!(Perf::new(0.5).is_ok());
        assert!(Perf::new(1.0).is_ok());
        assert!(Perf::new(0.0).is_err());
        assert!(Perf::new(-0.1).is_err());
        assert!(Perf::new(1.01).is_err());
        assert!(Perf::new(f64::NAN).is_err());
        let err = Perf::new(2.0).unwrap_err();
        assert!(err.to_string().contains("(0, 1]"));
    }

    #[test]
    fn fig2_type1_node_durations() {
        // Fig. 2 table: volumes 20,30,10 take 2,3,1 ticks on a type-1 node.
        let p = Perf::FULL;
        assert_eq!(p.exec_duration(Volume::new(20.0)).ticks(), 2);
        assert_eq!(p.exec_duration(Volume::new(30.0)).ticks(), 3);
        assert_eq!(p.exec_duration(Volume::new(10.0)).ticks(), 1);
    }

    #[test]
    fn fig2_slower_node_types_scale_linearly() {
        // "Type j" nodes in Fig. 2 have T_ij = j * T_i1, i.e. perf 1/j.
        let volume = Volume::new(20.0);
        for j in 1..=4u64 {
            let p = Perf::new(1.0 / j as f64).unwrap();
            assert_eq!(p.exec_duration(volume).ticks(), 2 * j);
        }
    }

    #[test]
    fn exec_duration_rounds_up_and_is_positive() {
        let p = Perf::new(0.33).unwrap();
        // 10 / 3.3 = 3.03 -> 4
        assert_eq!(p.exec_duration(Volume::new(10.0)).ticks(), 4);
        assert_eq!(p.exec_duration(Volume::ZERO).ticks(), 1);
    }

    #[test]
    fn group_classification_matches_paper_bands() {
        assert_eq!(Perf::new(1.0).unwrap().group(), PerfGroup::Fast);
        assert_eq!(Perf::new(0.66).unwrap().group(), PerfGroup::Fast);
        assert_eq!(Perf::new(0.5).unwrap().group(), PerfGroup::Medium);
        assert_eq!(Perf::new(0.34).unwrap().group(), PerfGroup::Medium);
        assert_eq!(Perf::new(0.33).unwrap().group(), PerfGroup::Slow);
        assert_eq!(Perf::new(0.1).unwrap().group(), PerfGroup::Slow);
    }

    #[test]
    fn group_ranges_classify_to_themselves() {
        for group in PerfGroup::ALL {
            let (lo, hi) = group.perf_range();
            assert_eq!(Perf::new(lo).unwrap().group(), group);
            assert_eq!(Perf::new(hi).unwrap().group(), group);
        }
    }

    #[test]
    fn perf_is_totally_ordered() {
        let mut perfs = [
            Perf::new(0.5).unwrap(),
            Perf::new(1.0).unwrap(),
            Perf::new(0.33).unwrap(),
        ];
        perfs.sort();
        assert_eq!(perfs[0].value(), 0.33);
        assert_eq!(perfs[2].value(), 1.0);
    }
}
