//! The benchmark's own statistics: nearest-rank quantiles, safe ratios
//! and span self time.

/// At least this many samples must lie beyond a tail quantile before it
/// is reported; below that it is noise from a handful of samples.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples:
/// `ceil(pct / 100 * n)`, clamped to `1..=n`. Integer arithmetic, so
/// `p99` of 1000 samples is exactly rank 990.
fn nearest_rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), pct) - 1])
}

/// Nearest-rank percentile of an ascending slice, reported only when at
/// least [`MIN_SAMPLES_BEYOND`] samples lie beyond it (so `p99` needs
/// 1000 samples, `p90` needs 100).
#[must_use]
pub fn tail_percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || n - nearest_rank(n, pct) < MIN_SAMPLES_BEYOND {
        return None;
    }
    percentile(sorted, pct)
}

/// Median of unsorted samples (nearest rank); 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50).unwrap_or(0.0)
}

/// `num / den`, or 0 when the denominator is 0 (a ratio of work that
/// never happened, such as re-probes per probe on a run without probes).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One span of a recorded tree, indexed by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanNode {
    /// Index of the parent span in the same slice, if recorded.
    pub parent: Option<usize>,
    /// Start offset, in nanoseconds.
    pub start_ns: u64,
    /// End offset, in nanoseconds.
    pub end_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children that ran in parallel (the
/// pooled scenario sweep) overlap each other, so coverage is the union of
/// their intervals, clipped to the parent, never their plain sum.
#[must_use]
pub fn self_times(spans: &[SpanNode]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        assert_eq!(percentile(&samples(10), 50), Some(5.0));
        assert_eq!(percentile(&samples(11), 50), Some(6.0));
        assert_eq!(percentile(&samples(1000), 99), Some(990.0));
        assert_eq!(percentile(&samples(1), 99), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        // Percentile 0 clamps to the smallest sample.
        assert_eq!(percentile(&samples(4), 0), Some(1.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000: rank 990, exactly ten beyond.
        assert_eq!(tail_percentile(&samples(1000), 99), Some(990.0));
        // p99 of 999: rank 990, only nine beyond.
        assert_eq!(tail_percentile(&samples(999), 99), None);
        assert_eq!(tail_percentile(&samples(100), 90), Some(90.0));
        assert_eq!(tail_percentile(&samples(99), 90), None);
        assert_eq!(tail_percentile(&samples(20), 50), Some(10.0));
        assert_eq!(tail_percentile(&[], 50), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_with_zero_denominators_are_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn self_time_subtracts_the_children_cover() {
        // root [0, 100) with children a [10, 30) and b [50, 60); a has a
        // grandchild [12, 20) that counts against a, not against root.
        let spans = [
            SpanNode {
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            SpanNode {
                parent: Some(0),
                start_ns: 10,
                end_ns: 30,
            },
            SpanNode {
                parent: Some(1),
                start_ns: 12,
                end_ns: 20,
            },
            SpanNode {
                parent: Some(0),
                start_ns: 50,
                end_ns: 60,
            },
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn parallel_children_are_covered_once() {
        // Two scenario spans on two threads overlap inside their sweep:
        // [10, 40) and [20, 50) cover 40 ns of the parent, not 60.
        let spans = [
            SpanNode {
                parent: None,
                start_ns: 0,
                end_ns: 60,
            },
            SpanNode {
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            SpanNode {
                parent: Some(0),
                start_ns: 20,
                end_ns: 50,
            },
            // A nested child inside the first, and one spilling past the
            // parent's end, which is clipped.
            SpanNode {
                parent: Some(0),
                start_ns: 15,
                end_ns: 25,
            },
            SpanNode {
                parent: Some(0),
                start_ns: 55,
                end_ns: 70,
            },
        ];
        assert_eq!(self_times(&spans)[0], 15);
    }
}
