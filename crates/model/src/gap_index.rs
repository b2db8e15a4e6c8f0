//! Max-free-gap segment tree over an immutable list of gaps.
//!
//! `Timetable::earliest_fit` walks reservations one by one: from the first
//! window ending after `not_before` it hops reservation-by-reservation
//! until a gap wide enough for `duration` appears. Against the §4
//! background workloads that walk crosses up to ~143k reservations per
//! cold probe. A [`GapIndex`] precomputes a complete binary max-tree over
//! a list of gap capacities, so "first gap at or after position `i` with
//! capacity ≥ `duration`" resolves by descending the tree in O(log R).
//!
//! Two layouts use it. A frozen
//! [`NodeCalendar`](crate::timetable::NodeCalendar) builds one at freeze
//! over **one leaf per chunk** (the widest gap after any window of that
//! chunk), so an overlay probe's walk crosses every chunk too packed for
//! it in one search.
//! [`GapIndex::build`] puts **one leaf per gap between consecutive
//! windows** of a flat sorted list; [`GapIndex::earliest_fit`] over that
//! layout is the cold reference the differential suites compare
//! against. An index is never mutated: a calendar that changes is frozen
//! again, with a new index. Answers are **bit-identical** to the linear
//! walk; the proof sketch lives with [`GapIndex::earliest_fit`] and
//! DESIGN.md §9, and the differential property suites in
//! `crates/model/tests/prop_gap_index.rs` and
//! `crates/model/tests/prop_chunked_timetable.rs` pin it on random
//! inputs.

use gridsched_sim::time::{SimDuration, SimTime};

use crate::window::TimeWindow;

/// A static "first wide-enough gap" index over a list of gap capacities.
///
/// Leaf `k` of the tree holds the capacity (in ticks) of gap `k`;
/// internal nodes hold the max of their children. Built by
/// [`GapIndex::build`] over a window list, gap `k` lies between
/// `windows[k]` and `windows[k + 1]`: the trailing gap after the last
/// window is unbounded and needs no leaf, and the leading gap before the
/// first window is handled directly from `windows[0]` by the query.
#[derive(Debug, Clone)]
pub struct GapIndex {
    /// Number of gaps indexed.
    gaps: usize,
    /// Leaf capacity of the tree: `gaps` rounded up to a power of two
    /// (zero when there are no gaps).
    leaves: usize,
    /// 1-indexed implicit max-tree (`tree[1]` is the root, children of
    /// `n` are `2n` / `2n + 1`); padding leaves hold capacity 0. Empty
    /// when there are no gaps.
    tree: Box<[u64]>,
}

impl GapIndex {
    /// Builds the index for the interior gaps of `windows` (sorted by
    /// start, pairwise non-overlapping — the invariant every `Timetable`
    /// maintains).
    #[must_use]
    pub fn build(windows: &[TimeWindow]) -> Self {
        // Sorted + non-overlapping: end(k) <= start(k+1), never wraps.
        GapIndex::from_gaps(
            windows
                .windows(2)
                .map(|pair| pair[1].start().ticks() - pair[0].end().ticks()),
        )
    }

    /// Builds the index over `gaps`, leaf `k` holding `gaps[k]`.
    pub(crate) fn from_gaps(gaps: impl ExactSizeIterator<Item = u64>) -> Self {
        let count = gaps.len();
        if count == 0 {
            return GapIndex {
                gaps: 0,
                leaves: 0,
                tree: Box::new([]),
            };
        }
        let leaves = count.next_power_of_two();
        let mut tree = vec![0u64; 2 * leaves];
        for (leaf, gap) in tree[leaves..].iter_mut().zip(gaps) {
            *leaf = gap;
        }
        for n in (1..leaves).rev() {
            tree[n] = tree[2 * n].max(tree[2 * n + 1]);
        }
        GapIndex {
            gaps: count,
            leaves,
            tree: tree.into_boxed_slice(),
        }
    }

    /// Number of gaps the index covers.
    #[must_use]
    pub fn gap_count(&self) -> usize {
        self.gaps
    }

    /// The capacity of gap `k`.
    pub(crate) fn gap(&self, k: usize) -> u64 {
        self.tree[self.leaves + k]
    }

    /// Heap bytes of the tree.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.tree)
    }

    /// Smallest gap position `k >= lo` whose capacity is at least `need`
    /// ticks, or `None` if no interior gap qualifies or the search reached
    /// positions `k` whose `past(k)` holds.
    ///
    /// `past` must be monotone in `k` (false, then true): the climb stops
    /// at the first subtree whose leftmost position is past, so a probe
    /// whose deadline falls a few windows on costs a few steps instead of
    /// a climb to the first wide gap, however far that is.
    ///
    /// One O(log R) climb to the first subtree right of `lo` whose max
    /// reaches `need`, then one O(log R) descent to its leftmost
    /// qualifying leaf.
    pub(crate) fn first_gap_at_least(
        &self,
        lo: usize,
        need: u64,
        past: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let gaps = self.gap_count();
        if lo >= gaps || need == 0 {
            // need == 0 never reaches here from `earliest_fit` (zero
            // durations short-circuit), but padding leaves hold 0, so
            // refuse rather than report a phantom gap.
            return (need == 0 && lo < gaps).then_some(lo);
        }
        if past(lo) {
            return None;
        }
        let mut n = self.leaves + lo;
        // The height of `n` above the leaves.
        let mut height = 0;
        loop {
            if self.tree[n] >= need {
                // Descend to the leftmost qualifying leaf of this subtree.
                while n < self.leaves {
                    n *= 2;
                    if self.tree[n] < need {
                        n += 1;
                    }
                }
                let k = n - self.leaves;
                return (k < gaps).then_some(k);
            }
            // Advance to the subtree covering the next positions to the
            // right: climb while we are a right child, then step to the
            // sibling. Reaching the root means nothing right qualifies.
            loop {
                if n <= 1 {
                    return None;
                }
                if n.is_multiple_of(2) {
                    n += 1;
                    break;
                }
                n /= 2;
                height += 1;
            }
            let first = (n << height) - self.leaves;
            if first >= gaps || past(first) {
                return None;
            }
        }
    }

    /// Indexed twin of [`Timetable::earliest_fit`]: the earliest start
    /// `s >= not_before` such that `[s, s + duration)` avoids every
    /// window and ends no later than `deadline`. `windows` must be the
    /// exact slice the index was built over.
    ///
    /// Bit-identical to the linear jump-walk by construction: the walk's
    /// answer is always either `not_before` itself (when the first window
    /// ending after it starts late enough), or the end of the first
    /// window pair at or after that position whose interior gap holds
    /// `duration`, or the end of the last window. The walk's per-step
    /// deadline early-exit is equivalent to one final check because
    /// candidates only move forward: if any intermediate candidate
    /// overshoots `deadline`, the final one does too. For the same reason
    /// the tree search stops as soon as every position left ends too late
    /// for the deadline: the final check would refuse whatever it found.
    ///
    /// [`Timetable::earliest_fit`]: crate::timetable::Timetable::earliest_fit
    #[must_use]
    pub fn earliest_fit(
        &self,
        windows: &[TimeWindow],
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        self.earliest_fit_at(
            windows,
            self.first_ending_after(windows, not_before),
            not_before,
            duration,
            deadline,
        )
    }

    /// [`GapIndex::earliest_fit`] with the seek already done: `i` must be
    /// the index of the first window ending after `not_before`, what
    /// [`GapIndex::first_ending_after`] returns. A caller that keeps a
    /// cursor into `windows` across probes finds it by galloping from
    /// where its last probe stood instead of bisecting every window.
    #[must_use]
    pub fn earliest_fit_at(
        &self,
        windows: &[TimeWindow],
        i: usize,
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        debug_assert_eq!(
            windows.len().saturating_sub(1),
            self.gaps,
            "index used with a different window set than it was built over"
        );
        // Ends strictly increase, so checking both neighbours pins `i`.
        debug_assert!(
            (i == 0 || windows[i - 1].end() <= not_before)
                && windows.get(i).is_none_or(|w| w.end() > not_before),
            "`i` is not the first window ending after `not_before`"
        );
        if duration.is_zero() {
            return Some(not_before);
        }
        let candidate = if i == windows.len() {
            // Past every reservation: the trailing gap is unbounded.
            not_before
        } else if windows[i].start() >= not_before.saturating_add(duration) {
            // The (possibly truncated) gap before window `i` already fits.
            not_before
        } else {
            // A start from window `k` on that ends past the deadline
            // fails, and so does every later one: window ends increase.
            let past = |k: usize| windows[k].end().saturating_add(duration) > deadline;
            match self.first_gap_at_least(i, duration.ticks(), past) {
                Some(k) => windows[k].end(),
                // No interior gap fits before the deadline: the answer is
                // the trailing gap, or past the deadline.
                None => windows[windows.len() - 1].end(),
            }
        };
        let end = candidate.saturating_add(duration);
        (end <= deadline).then_some(candidate)
    }

    /// Indexed twin of the seek in [`Timetable::free_windows_into`]: the
    /// index of the first window ending after `t` (`windows.len()` when
    /// every window ends at or before `t`).
    ///
    /// The linear variant already bisects, so this is parity rather than
    /// speedup; it exists so indexed callers never touch the timetable.
    ///
    /// [`Timetable::free_windows_into`]: crate::timetable::Timetable::free_windows_into
    #[must_use]
    pub fn first_ending_after(&self, windows: &[TimeWindow], t: SimTime) -> usize {
        debug_assert_eq!(windows.len().saturating_sub(1), self.gaps);
        windows.partition_point(|w| w.end() <= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn d(x: u64) -> SimDuration {
        SimDuration::from_ticks(x)
    }

    #[test]
    fn empty_and_singleton_windows() {
        let empty = GapIndex::build(&[]);
        assert_eq!(empty.gap_count(), 0);
        assert_eq!(
            empty.earliest_fit(&[], t(7), d(3), SimTime::MAX),
            Some(t(7))
        );
        assert_eq!(empty.earliest_fit(&[], t(7), d(3), t(8)), None);

        let one = [w(5, 9)];
        let idx = GapIndex::build(&one);
        assert_eq!(idx.gap_count(), 0);
        // A 5-tick slot fits exactly in the leading gap [0, 5).
        assert_eq!(idx.earliest_fit(&one, t(0), d(5), SimTime::MAX), Some(t(0)));
        // A 6-tick slot must wait for the trailing gap.
        assert_eq!(idx.earliest_fit(&one, t(0), d(6), SimTime::MAX), Some(t(9)));
        assert_eq!(idx.earliest_fit(&one, t(0), d(6), t(13)), None);
    }

    #[test]
    fn finds_first_wide_enough_gap() {
        // Gaps: [4,5)=1, [7,10)=3, [12,12)=0, [15,20)=5.
        let ws = [w(0, 4), w(5, 7), w(10, 12), w(12, 15), w(20, 22)];
        let idx = GapIndex::build(&ws);
        assert_eq!(idx.gap_count(), 4);
        assert_eq!(idx.earliest_fit(&ws, t(0), d(1), SimTime::MAX), Some(t(4)));
        assert_eq!(idx.earliest_fit(&ws, t(0), d(2), SimTime::MAX), Some(t(7)));
        assert_eq!(idx.earliest_fit(&ws, t(0), d(4), SimTime::MAX), Some(t(15)));
        assert_eq!(idx.earliest_fit(&ws, t(0), d(6), SimTime::MAX), Some(t(22)));
        // Lower bound past the wide gap: only the trailing gap remains.
        assert_eq!(
            idx.earliest_fit(&ws, t(16), d(5), SimTime::MAX),
            Some(t(22))
        );
        // Truncated first gap: from t6 the [7,10) gap is the first fit.
        assert_eq!(idx.earliest_fit(&ws, t(6), d(2), SimTime::MAX), Some(t(7)));
    }

    #[test]
    fn deadline_clips_exactly_like_the_walk() {
        let ws = [w(0, 4), w(5, 7)];
        let idx = GapIndex::build(&ws);
        assert_eq!(idx.earliest_fit(&ws, t(0), d(2), t(9)), Some(t(7)));
        assert_eq!(idx.earliest_fit(&ws, t(0), d(2), t(8)), None);
        // Zero duration ignores the deadline, as the walk does.
        assert_eq!(
            idx.earliest_fit(&ws, t(3), SimDuration::ZERO, t(0)),
            Some(t(3))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "first window ending after")]
    fn earliest_fit_at_rejects_a_wrong_seek() {
        let ws = [w(0, 4), w(5, 7)];
        let idx = GapIndex::build(&ws);
        // The first window ending after t6 is `ws[1]`, not `ws[0]`.
        let _ = idx.earliest_fit_at(&ws, 0, t(6), d(1), SimTime::MAX);
    }

    /// The search calls `past` once for `lo` and once per subtree it steps
    /// right to, and those subtrees grow strictly in height, so a search
    /// makes at most ⌈log2 R⌉ + 1 calls however far the first wide-enough
    /// gap lies: O(log R), never a walk over the gaps in between.
    #[test]
    fn search_steps_are_logarithmic_in_the_window_count() {
        let mut rng = gridsched_sim::rng::SimRng::seed_from(2009);
        for r in [2usize, 3, 5, 17, 64, 1_000, 4_097, 100_001, 131_073] {
            for wide_share in [0.0, 0.001, 0.1] {
                // Mostly narrow gaps with a few wide ones, so the first
                // gap that fits a wide probe usually lies far from `lo`.
                let mut windows = Vec::with_capacity(r);
                let mut end = 0;
                for _ in 0..r {
                    let start = end
                        + if rng.chance(wide_share) {
                            rng.uniform_u64(10, 100)
                        } else {
                            rng.uniform_u64(0, 3)
                        };
                    end = start + rng.uniform_u64(1, 5);
                    windows.push(w(start, end));
                }
                let gaps: Vec<u64> = windows
                    .windows(2)
                    .map(|p| p[1].start().ticks() - p[0].end().ticks())
                    .collect();
                let idx = GapIndex::build(&windows);
                let bound = r.next_power_of_two().trailing_zeros() as usize + 1;
                for _ in 0..32 {
                    let lo = rng.index(gaps.len());
                    let need = [1, 3, 10, 60, 101][rng.index(5)];
                    let calls = std::cell::Cell::new(0);
                    let found = idx.first_gap_at_least(lo, need, |_| {
                        calls.set(calls.get() + 1);
                        false
                    });
                    assert_eq!(found, (lo..gaps.len()).find(|&k| gaps[k] >= need));
                    assert!(
                        calls.get() <= bound,
                        "{} steps > {bound} at R = {r}, lo = {lo}, need = {need}",
                        calls.get()
                    );
                }
            }
        }
    }

    #[test]
    fn fully_packed_prefix_skips_to_the_tail() {
        // Touching windows: every interior gap is zero.
        let ws: Vec<TimeWindow> = (0..64).map(|k| w(k * 3, k * 3 + 3)).collect();
        let idx = GapIndex::build(&ws);
        assert_eq!(
            idx.earliest_fit(&ws, t(0), d(1), SimTime::MAX),
            Some(t(64 * 3))
        );
    }
}
