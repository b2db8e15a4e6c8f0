//! Half-open time windows.

use std::fmt;

use gridsched_sim::time::{SimDuration, SimTime};

/// A half-open interval of simulated time `[start, end)`.
///
/// The paper calls this the *wall time* of a task, "defined at the resource
/// reservation time in the local batch-job management system" (§3).
///
/// # Examples
///
/// ```
/// use gridsched_model::window::TimeWindow;
/// use gridsched_sim::time::SimTime;
///
/// let w = TimeWindow::new(SimTime::from_ticks(5), SimTime::from_ticks(10)).unwrap();
/// assert_eq!(w.duration().ticks(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeWindow {
    start: SimTime,
    end: SimTime,
}

impl TimeWindow {
    /// Creates a window from its bounds.
    ///
    /// # Errors
    ///
    /// Returns [`WindowError`] if `end <= start` (windows are non-empty).
    pub fn new(start: SimTime, end: SimTime) -> Result<Self, WindowError> {
        if end <= start {
            return Err(WindowError { start, end });
        }
        Ok(TimeWindow { start, end })
    }

    /// Creates the window `[start, start + duration)`.
    ///
    /// # Errors
    ///
    /// Returns [`WindowError`] if `duration` is zero.
    pub fn starting_at(start: SimTime, duration: SimDuration) -> Result<Self, WindowError> {
        TimeWindow::new(start, start + duration)
    }

    /// Start of the window (inclusive).
    #[must_use]
    pub fn start(self) -> SimTime {
        self.start
    }

    /// End of the window (exclusive).
    #[must_use]
    pub fn end(self) -> SimTime {
        self.end
    }

    /// Length of the window.
    #[must_use]
    pub fn duration(self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Whether `t` lies inside the window.
    #[must_use]
    pub fn contains(self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether two windows share any instant.
    #[must_use]
    pub fn overlaps(self, other: TimeWindow) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The overlap of two windows, if non-empty.
    #[must_use]
    pub fn intersect(self, other: TimeWindow) -> Option<TimeWindow> {
        let start = self.start.max_of(other.start);
        let end = if self.end <= other.end {
            self.end
        } else {
            other.end
        };
        TimeWindow::new(start, end).ok()
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Error constructing an empty or inverted [`TimeWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowError {
    start: SimTime,
    end: SimTime,
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "time window must satisfy start < end, got [{}, {})",
            self.start, self.end
        )
    }
}

impl std::error::Error for WindowError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
    }

    #[test]
    fn empty_windows_are_rejected() {
        assert!(TimeWindow::new(SimTime::from_ticks(5), SimTime::from_ticks(5)).is_err());
        assert!(TimeWindow::new(SimTime::from_ticks(6), SimTime::from_ticks(5)).is_err());
        let err = TimeWindow::new(SimTime::from_ticks(6), SimTime::from_ticks(5)).unwrap_err();
        assert!(err.to_string().contains("start < end"));
    }

    #[test]
    fn containment_is_half_open() {
        let win = w(5, 10);
        assert!(win.contains(SimTime::from_ticks(5)));
        assert!(win.contains(SimTime::from_ticks(9)));
        assert!(!win.contains(SimTime::from_ticks(10)));
        assert!(!win.contains(SimTime::from_ticks(4)));
    }

    #[test]
    fn overlap_cases() {
        assert!(w(0, 10).overlaps(w(5, 15)));
        assert!(w(5, 15).overlaps(w(0, 10)));
        assert!(w(0, 10).overlaps(w(2, 3)));
        assert!(
            !w(0, 10).overlaps(w(10, 20)),
            "touching windows do not overlap"
        );
        assert!(!w(0, 10).overlaps(w(11, 20)));
    }

    #[test]
    fn intersection() {
        assert_eq!(w(0, 10).intersect(w(5, 15)), Some(w(5, 10)));
        assert_eq!(w(0, 10).intersect(w(10, 20)), None);
        assert_eq!(w(2, 4).intersect(w(0, 10)), Some(w(2, 4)));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(w(1, 2).to_string(), "[t1, t2)");
    }
}
