//! Per-node reservation calendars.
//!
//! Each processor node keeps a **timetable**: a set of non-overlapping
//! reserved wall-time windows. Application-level schedules are expressed as
//! advance reservations against these timetables (§3: the `[Start, End]`
//! interval "is treated as so called wall time, defined at the resource
//! reservation time in the local batch-job management system").

use std::fmt;
use std::sync::{Arc, OnceLock};

use gridsched_sim::time::{SimDuration, SimTime};

use crate::gap_index::GapIndex;
use crate::ids::GlobalTaskId;
use crate::window::TimeWindow;

/// One node's frozen calendar: a [`Timetable`]'s reserved windows at one
/// instant, plus the lazily built gap index over them.
///
/// The timetable keeps the calendar it last froze until its windows
/// change, so every snapshot capture of an unchanged node shares the
/// same window slice and the same at-most-once index build
/// ([`Timetable::calendar_tracked`]).
#[derive(Debug)]
pub struct NodeCalendar {
    windows: Box<[TimeWindow]>,
    index: OnceLock<GapIndex>,
}

impl NodeCalendar {
    /// Freezes a window slice (sorted by start, pairwise non-overlapping
    /// — the invariant every `Timetable` maintains).
    fn new(windows: Box<[TimeWindow]>) -> Self {
        NodeCalendar {
            windows,
            index: OnceLock::new(),
        }
    }

    /// The frozen windows, in start order.
    #[must_use]
    pub fn windows(&self) -> &[TimeWindow] {
        &self.windows
    }

    /// The gap index over the frozen windows, building it on first use;
    /// `built` records whether *this call* performed the build (across
    /// all holders at most one call ever observes `true`).
    #[must_use]
    pub fn gap_index_tracked(&self, built: &mut bool) -> &GapIndex {
        self.index.get_or_init(|| {
            *built = true;
            GapIndex::build(&self.windows)
        })
    }

    /// Approximate heap footprint: the window slice plus the gap-index
    /// tree (its eventual size if not yet built — the tree's shape is a
    /// pure function of the window count, so the estimate is exact once
    /// built).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let windows = self.windows.len() * std::mem::size_of::<TimeWindow>();
        let gaps = self.windows.len().saturating_sub(1);
        let tree = if gaps == 0 {
            0
        } else {
            2 * gaps.next_power_of_two() * std::mem::size_of::<u64>()
        };
        windows + tree
    }
}

/// Identifier of one reservation inside one [`Timetable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationId(u64);

impl fmt::Display for ReservationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Who holds a reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReservationOwner {
    /// A task of a compound job scheduled at the application level.
    Task(GlobalTaskId),
    /// Load from an independent job flow (the "background" the paper's
    /// admissibility experiment runs against).
    Background(u64),
    /// A data transfer occupying the node's I/O window.
    Transfer(u64),
}

impl fmt::Display for ReservationOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReservationOwner::Task(t) => write!(f, "task {t}"),
            ReservationOwner::Background(i) => write!(f, "background #{i}"),
            ReservationOwner::Transfer(i) => write!(f, "transfer #{i}"),
        }
    }
}

/// One reserved window in a timetable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    id: ReservationId,
    window: TimeWindow,
    owner: ReservationOwner,
}

impl Reservation {
    /// The reservation's id.
    #[must_use]
    pub fn id(&self) -> ReservationId {
        self.id
    }

    /// The reserved window.
    #[must_use]
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The reservation's owner.
    #[must_use]
    pub fn owner(&self) -> ReservationOwner {
        self.owner
    }
}

/// Error returned when a requested window collides with an existing
/// reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReserveConflict {
    requested: TimeWindow,
    existing: TimeWindow,
    holder: ReservationOwner,
}

impl ReserveConflict {
    /// The window that could not be granted.
    #[must_use]
    pub fn requested(&self) -> TimeWindow {
        self.requested
    }

    /// The existing window it collides with.
    #[must_use]
    pub fn existing(&self) -> TimeWindow {
        self.existing
    }

    /// Who holds the colliding reservation.
    #[must_use]
    pub fn holder(&self) -> ReservationOwner {
        self.holder
    }
}

impl fmt::Display for ReserveConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window {} conflicts with {} held by {}",
            self.requested, self.existing, self.holder
        )
    }
}

impl std::error::Error for ReserveConflict {}

/// A non-overlapping set of reservations on one node, ordered by start time.
///
/// # Examples
///
/// ```
/// use gridsched_model::timetable::{ReservationOwner, Timetable};
/// use gridsched_model::window::TimeWindow;
/// use gridsched_sim::time::{SimDuration, SimTime};
///
/// let mut tt = Timetable::new();
/// let w = TimeWindow::new(SimTime::from_ticks(0), SimTime::from_ticks(5)).unwrap();
/// tt.reserve(w, ReservationOwner::Background(0))?;
/// // The earliest 3-tick slot after t0 now starts at t5.
/// let start = tt.earliest_fit(SimTime::ZERO, SimDuration::from_ticks(3), SimTime::MAX);
/// assert_eq!(start, Some(SimTime::from_ticks(5)));
/// # Ok::<(), gridsched_model::timetable::ReserveConflict>(())
/// ```
#[derive(Debug, Default)]
pub struct Timetable {
    /// Sorted by window start; pairwise non-overlapping.
    reservations: Vec<Reservation>,
    next_id: u64,
    /// The calendar the last capture froze, if the windows have not
    /// changed since: filled by [`Timetable::calendar_tracked`], emptied
    /// by every window-changing mutation, empty in a clone.
    frozen: OnceLock<Arc<NodeCalendar>>,
}

impl Clone for Timetable {
    /// Copies the reservations; the copy starts with no frozen calendar,
    /// so its first capture freezes its own.
    fn clone(&self) -> Self {
        Timetable {
            reservations: self.reservations.clone(),
            next_id: self.next_id,
            frozen: OnceLock::new(),
        }
    }
}

impl Timetable {
    /// Creates an empty timetable.
    #[must_use]
    pub fn new() -> Self {
        Timetable::default()
    }

    /// The frozen calendar of the current windows, freezing it if no
    /// capture has since the last window-changing mutation; `froze`
    /// records whether *this call* froze it.
    #[must_use]
    pub fn calendar_tracked(&self, froze: &mut bool) -> &Arc<NodeCalendar> {
        self.frozen.get_or_init(|| {
            *froze = true;
            Arc::new(NodeCalendar::new(
                self.reservations.iter().map(|r| r.window).collect(),
            ))
        })
    }

    /// The frozen calendar, if a capture has frozen one since the last
    /// window-changing mutation.
    #[must_use]
    pub fn frozen(&self) -> Option<&Arc<NodeCalendar>> {
        self.frozen.get()
    }

    /// Drops the frozen calendar after a window-changing mutation.
    /// Snapshots that share it keep it alive until they die.
    fn thaw(&mut self) {
        self.frozen.take();
    }

    /// Number of active reservations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Whether there are no reservations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Iterates over reservations in start-time order.
    pub fn iter(&self) -> impl Iterator<Item = &Reservation> {
        self.reservations.iter()
    }

    /// Index of the first reservation whose window ends after `t`.
    fn first_ending_after(&self, t: SimTime) -> usize {
        self.reservations.partition_point(|r| r.window.end() <= t)
    }

    /// Whether `window` is completely free.
    #[must_use]
    pub fn is_free(&self, window: TimeWindow) -> bool {
        self.first_conflict(window).is_none()
    }

    /// The first reservation overlapping `window`, if any.
    #[must_use]
    pub fn first_conflict(&self, window: TimeWindow) -> Option<&Reservation> {
        let i = self.first_ending_after(window.start());
        self.reservations
            .get(i)
            .filter(|r| r.window.overlaps(window))
    }

    /// All reservations overlapping `window`, in start order.
    pub fn conflicts_with(&self, window: TimeWindow) -> impl Iterator<Item = &Reservation> {
        let i = self.first_ending_after(window.start());
        self.reservations[i..]
            .iter()
            .take_while(move |r| r.window.start() < window.end())
            .filter(move |r| r.window.overlaps(window))
    }

    /// Reserves `window` for `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`ReserveConflict`] describing the earliest colliding
    /// reservation if the window is not free.
    pub fn reserve(
        &mut self,
        window: TimeWindow,
        owner: ReservationOwner,
    ) -> Result<ReservationId, ReserveConflict> {
        if let Some(existing) = self.first_conflict(window) {
            return Err(ReserveConflict {
                requested: window,
                existing: existing.window,
                holder: existing.owner,
            });
        }
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        let idx = self
            .reservations
            .partition_point(|r| r.window.start() < window.start());
        self.reservations
            .insert(idx, Reservation { id, window, owner });
        self.thaw();
        debug_assert!(self.invariants_hold());
        Ok(id)
    }

    /// Builds a timetable from a batch of windows already sorted by start
    /// and pairwise non-overlapping, assigning ids in batch order — the
    /// bulk twin of repeated [`Timetable::reserve`] calls.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the batch violates sortedness or
    /// overlaps (checked once at the end); release builds trust the
    /// caller.
    #[must_use]
    pub fn from_sorted<I>(batch: I) -> Self
    where
        I: IntoIterator<Item = (TimeWindow, ReservationOwner)>,
    {
        let mut tt = Timetable::new();
        tt.extend_sorted(batch);
        tt
    }

    /// Bulk-merges a batch of windows, already sorted by start and known
    /// to be non-overlapping — pairwise *and* against the existing
    /// reservations. One O(existing + batch) merge instead of one O(n)
    /// `Vec::insert` per window: laying down the §4 background load
    /// (~143k reservations per node at the reference scale) this turns an
    /// O(n²) build into a linear one. Ids are assigned in batch order,
    /// exactly as sequential [`Timetable::reserve`] calls would.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the merged calendar violates sortedness
    /// or overlaps (checked once at the end); release builds trust the
    /// caller.
    pub fn extend_sorted<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (TimeWindow, ReservationOwner)>,
    {
        let batch = batch.into_iter();
        let before = self.reservations.len();
        if self.reservations.is_empty() {
            self.reservations.reserve(batch.size_hint().0);
            for (window, owner) in batch {
                let id = ReservationId(self.next_id);
                self.next_id += 1;
                self.reservations.push(Reservation { id, window, owner });
            }
        } else {
            let old = std::mem::take(&mut self.reservations);
            let mut merged = Vec::with_capacity(old.len() + batch.size_hint().0);
            let mut old_iter = old.into_iter().peekable();
            for (window, owner) in batch {
                while old_iter
                    .peek()
                    .is_some_and(|r| r.window.start() <= window.start())
                {
                    merged.push(old_iter.next().expect("peeked"));
                }
                let id = ReservationId(self.next_id);
                self.next_id += 1;
                merged.push(Reservation { id, window, owner });
            }
            merged.extend(old_iter);
            self.reservations = merged;
        }
        if self.reservations.len() != before {
            self.thaw();
        }
        debug_assert!(
            self.invariants_hold(),
            "extend_sorted batch must be sorted and non-overlapping"
        );
    }

    /// Releases a reservation, returning it if it existed.
    pub fn release(&mut self, id: ReservationId) -> Option<Reservation> {
        let idx = self.reservations.iter().position(|r| r.id == id)?;
        let released = self.reservations.remove(idx);
        self.thaw();
        Some(released)
    }

    /// Releases every reservation held by `owner`; returns how many were
    /// removed.
    pub fn release_owned_by(&mut self, owner: ReservationOwner) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.owner != owner);
        let removed = before - self.reservations.len();
        if removed > 0 {
            self.thaw();
        }
        removed
    }

    /// Voids every **task-owned** reservation overlapping `window`,
    /// returning the removed reservations in start order.
    ///
    /// This is the node-outage primitive of the fault-injection subsystem:
    /// when a node goes dark for a window, every application-level
    /// reservation touching that window is seized, while background and
    /// transfer reservations (owned by independent flows) stay in place to
    /// keep the timetable's view of external load intact.
    pub fn void_tasks_within(&mut self, window: TimeWindow) -> Vec<Reservation> {
        let mut voided = Vec::new();
        self.reservations.retain(|r| {
            let hit = matches!(r.owner, ReservationOwner::Task(_)) && r.window.overlaps(window);
            if hit {
                voided.push(*r);
            }
            !hit
        });
        if !voided.is_empty() {
            self.thaw();
        }
        debug_assert!(self.invariants_hold());
        voided
    }

    /// Releases every reservation held by any task of `job`; returns the
    /// removed reservations in start order. Used when a job is dropped so
    /// its entire footprint is guaranteed to leave the calendar.
    pub fn release_job(&mut self, job: crate::ids::JobId) -> Vec<Reservation> {
        let mut removed = Vec::new();
        self.reservations.retain(|r| {
            let hit = matches!(r.owner, ReservationOwner::Task(gid) if gid.job == job);
            if hit {
                removed.push(*r);
            }
            !hit
        });
        if !removed.is_empty() {
            self.thaw();
        }
        removed
    }

    /// Finds the earliest start `s >= not_before` such that
    /// `[s, s + duration)` is free and ends no later than `deadline`.
    #[must_use]
    pub fn earliest_fit(
        &self,
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        if duration.is_zero() {
            return Some(not_before);
        }
        let mut candidate = not_before;
        let mut i = self.first_ending_after(not_before);
        loop {
            let end = candidate.saturating_add(duration);
            if end > deadline {
                return None;
            }
            match self.reservations.get(i) {
                Some(r) if r.window.start() < end => {
                    // Gap too small; jump past this reservation.
                    candidate = candidate.max_of(r.window.end());
                    i += 1;
                }
                _ => return Some(candidate),
            }
        }
    }

    /// Writes the free windows inside `range`, in time order, into `out`
    /// (clearing it first). Steady-state callers reuse one buffer across
    /// calls.
    pub fn free_windows_into(&self, range: TimeWindow, out: &mut Vec<TimeWindow>) {
        out.clear();
        let mut cursor = range.start();
        let i = self.first_ending_after(range.start());
        for r in &self.reservations[i..] {
            if r.window.start() >= range.end() {
                break;
            }
            if r.window.start() > cursor {
                if let Ok(w) = TimeWindow::new(cursor, r.window.start()) {
                    out.push(w);
                }
            }
            cursor = cursor.max_of(r.window.end());
        }
        if cursor < range.end() {
            if let Ok(w) = TimeWindow::new(cursor, range.end()) {
                out.push(w);
            }
        }
    }

    /// Total reserved time inside `range`.
    #[must_use]
    pub fn busy_within(&self, range: TimeWindow) -> SimDuration {
        self.conflicts_with(range)
            .filter_map(|r| r.window.intersect(range))
            .map(TimeWindow::duration)
            .sum()
    }

    /// Fraction of `range` that is reserved, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, range: TimeWindow) -> f64 {
        self.busy_within(range).ratio(range.duration())
    }

    fn invariants_hold(&self) -> bool {
        self.reservations
            .windows(2)
            .all(|pair| pair[0].window.end() <= pair[1].window.start())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, TaskId};

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
    }

    fn bg(i: u64) -> ReservationOwner {
        ReservationOwner::Background(i)
    }

    #[test]
    fn reserve_and_conflict() {
        let mut tt = Timetable::new();
        tt.reserve(w(5, 10), bg(0)).unwrap();
        let err = tt.reserve(w(8, 12), bg(1)).unwrap_err();
        assert_eq!(err.existing(), w(5, 10));
        assert_eq!(err.requested(), w(8, 12));
        assert!(err.to_string().contains("conflicts"));
        // Touching windows are fine.
        tt.reserve(w(10, 12), bg(2)).unwrap();
        tt.reserve(w(0, 5), bg(3)).unwrap();
        assert_eq!(tt.len(), 3);
    }

    #[test]
    fn extend_sorted_matches_sequential_reserves() {
        let batch = [w(3, 5), w(8, 10), w(12, 13)];
        let mut bulk = Timetable::new();
        bulk.reserve(w(0, 2), bg(0)).unwrap();
        bulk.reserve(w(6, 7), bg(1)).unwrap();
        let mut seq = bulk.clone();
        bulk.extend_sorted(batch.iter().map(|&win| (win, bg(9))));
        for &win in &batch {
            seq.reserve(win, bg(9)).unwrap();
        }
        let a: Vec<_> = bulk
            .iter()
            .map(|r| (r.id(), r.window(), r.owner()))
            .collect();
        let b: Vec<_> = seq
            .iter()
            .map(|r| (r.id(), r.window(), r.owner()))
            .collect();
        assert_eq!(a, b, "bulk merge == one reserve per window");
        // The id sequence continues identically after the bulk merge.
        assert_eq!(
            bulk.reserve(w(20, 21), bg(5)).unwrap(),
            seq.reserve(w(20, 21), bg(5)).unwrap()
        );
    }

    #[test]
    fn from_sorted_fast_path_appends() {
        let tt = Timetable::from_sorted([(w(0, 2), bg(0)), (w(2, 4), bg(1)), (w(9, 11), bg(2))]);
        assert_eq!(tt.len(), 3);
        let windows: Vec<_> = tt.iter().map(|r| r.window()).collect();
        assert_eq!(windows, vec![w(0, 2), w(2, 4), w(9, 11)]);
        assert!(!tt.is_free(w(0, 1)));
        assert!(tt.is_free(w(4, 9)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "extend_sorted")]
    fn extend_sorted_rejects_unsorted_batches_in_debug() {
        let mut tt = Timetable::new();
        tt.extend_sorted([(w(5, 6), bg(0)), (w(0, 1), bg(1))]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "extend_sorted")]
    fn extend_sorted_rejects_overlap_with_existing_in_debug() {
        let mut tt = Timetable::new();
        tt.reserve(w(3, 7), bg(0)).unwrap();
        tt.extend_sorted([(w(5, 6), bg(1))]);
    }

    #[test]
    fn release_frees_window() {
        let mut tt = Timetable::new();
        let id = tt.reserve(w(0, 10), bg(0)).unwrap();
        assert!(!tt.is_free(w(2, 3)));
        let released = tt.release(id).unwrap();
        assert_eq!(released.window(), w(0, 10));
        assert!(tt.is_free(w(2, 3)));
        assert!(tt.release(id).is_none(), "double release returns None");
    }

    #[test]
    fn release_owned_by_task() {
        let mut tt = Timetable::new();
        let owner = ReservationOwner::Task(GlobalTaskId {
            job: JobId::new(1),
            task: TaskId::new(0),
        });
        tt.reserve(w(0, 2), owner).unwrap();
        tt.reserve(w(4, 6), owner).unwrap();
        tt.reserve(w(8, 9), bg(0)).unwrap();
        assert_eq!(tt.release_owned_by(owner), 2);
        assert_eq!(tt.len(), 1);
    }

    #[test]
    fn void_tasks_within_spares_background() {
        let mut tt = Timetable::new();
        let owner = |j: u64| {
            ReservationOwner::Task(GlobalTaskId {
                job: JobId::new(j),
                task: TaskId::new(0),
            })
        };
        tt.reserve(w(0, 4), owner(1)).unwrap();
        tt.reserve(w(5, 8), bg(0)).unwrap();
        tt.reserve(w(9, 12), owner(2)).unwrap();
        tt.reserve(w(14, 16), owner(3)).unwrap();
        let voided = tt.void_tasks_within(w(3, 10));
        let windows: Vec<TimeWindow> = voided.iter().map(Reservation::window).collect();
        assert_eq!(windows, vec![w(0, 4), w(9, 12)]);
        assert_eq!(tt.len(), 2, "background + untouched task remain");
        assert!(tt.is_free(w(0, 4)));
        assert!(!tt.is_free(w(5, 8)), "background survives the void");
    }

    #[test]
    fn release_job_clears_every_task_of_that_job() {
        let mut tt = Timetable::new();
        let gid = |j: u64, t: u32| {
            ReservationOwner::Task(GlobalTaskId {
                job: JobId::new(j),
                task: TaskId::new(t),
            })
        };
        tt.reserve(w(0, 2), gid(7, 0)).unwrap();
        tt.reserve(w(3, 5), gid(7, 1)).unwrap();
        tt.reserve(w(6, 8), gid(8, 0)).unwrap();
        tt.reserve(w(9, 10), bg(0)).unwrap();
        let removed = tt.release_job(JobId::new(7));
        assert_eq!(removed.len(), 2);
        assert_eq!(tt.len(), 2);
        assert!(tt.release_job(JobId::new(7)).is_empty(), "idempotent");
    }

    #[test]
    fn earliest_fit_in_gaps() {
        let mut tt = Timetable::new();
        tt.reserve(w(5, 10), bg(0)).unwrap();
        tt.reserve(w(12, 20), bg(1)).unwrap();
        let d = SimDuration::from_ticks(3);
        // Fits before the first reservation.
        assert_eq!(
            tt.earliest_fit(SimTime::ZERO, d, SimTime::MAX),
            Some(SimTime::from_ticks(0))
        );
        // From t4: gap [4,5) too small, gap [10,12) too small, so t20.
        assert_eq!(
            tt.earliest_fit(SimTime::from_ticks(4), d, SimTime::MAX),
            Some(SimTime::from_ticks(20))
        );
        // Two-tick job fits in [10, 12).
        assert_eq!(
            tt.earliest_fit(
                SimTime::from_ticks(4),
                SimDuration::from_ticks(2),
                SimTime::MAX
            ),
            Some(SimTime::from_ticks(10))
        );
        // Deadline rules out the post-reservation start.
        assert_eq!(
            tt.earliest_fit(SimTime::from_ticks(4), d, SimTime::from_ticks(21)),
            None
        );
    }

    #[test]
    fn earliest_fit_respects_exact_deadline() {
        let mut tt = Timetable::new();
        tt.reserve(w(0, 4), bg(0)).unwrap();
        assert_eq!(
            tt.earliest_fit(
                SimTime::ZERO,
                SimDuration::from_ticks(6),
                SimTime::from_ticks(10)
            ),
            Some(SimTime::from_ticks(4))
        );
        assert_eq!(
            tt.earliest_fit(
                SimTime::ZERO,
                SimDuration::from_ticks(7),
                SimTime::from_ticks(10)
            ),
            None
        );
    }

    #[test]
    fn free_windows_partition_the_range() {
        let mut tt = Timetable::new();
        tt.reserve(w(5, 10), bg(0)).unwrap();
        tt.reserve(w(15, 18), bg(1)).unwrap();
        let mut free = Vec::new();
        tt.free_windows_into(w(0, 20), &mut free);
        assert_eq!(free, vec![w(0, 5), w(10, 15), w(18, 20)]);
        // Busy + free covers the whole range.
        let busy = tt.busy_within(w(0, 20));
        let free_total: SimDuration = free.iter().map(|f| f.duration()).sum();
        assert_eq!(busy + free_total, SimDuration::from_ticks(20));
    }

    #[test]
    fn free_windows_with_leading_reservation() {
        let mut tt = Timetable::new();
        tt.reserve(w(0, 7), bg(0)).unwrap();
        let mut free = Vec::new();
        tt.free_windows_into(w(0, 10), &mut free);
        assert_eq!(free, vec![w(7, 10)]);
        tt.free_windows_into(w(1, 6), &mut free);
        assert_eq!(
            free,
            Vec::<TimeWindow>::new(),
            "the buffer is cleared first"
        );
    }

    #[test]
    fn calendar_builds_its_index_once() {
        let cal = NodeCalendar::new(vec![w(0, 2), w(5, 7), w(9, 12)].into_boxed_slice());
        let mut built = false;
        let idx = cal.gap_index_tracked(&mut built);
        assert!(built);
        assert_eq!(idx.gap_count(), 2);
        let mut again = false;
        let _ = cal.gap_index_tracked(&mut again);
        assert!(!again, "second call reuses the build");
    }

    #[test]
    fn utilization_and_horizon() {
        let mut tt = Timetable::new();
        tt.reserve(w(0, 5), bg(0)).unwrap();
        tt.reserve(w(10, 15), bg(1)).unwrap();
        assert!((tt.utilization(w(0, 20)) - 0.5).abs() < 1e-12);
        // Partial overlap accounting.
        assert_eq!(tt.busy_within(w(3, 12)).ticks(), 2 + 2);
    }

    #[test]
    fn conflicts_with_lists_all_overlaps() {
        let mut tt = Timetable::new();
        tt.reserve(w(0, 3), bg(0)).unwrap();
        tt.reserve(w(4, 6), bg(1)).unwrap();
        tt.reserve(w(9, 12), bg(2)).unwrap();
        let hits: Vec<TimeWindow> = tt.conflicts_with(w(2, 10)).map(|r| r.window()).collect();
        assert_eq!(hits, vec![w(0, 3), w(4, 6), w(9, 12)]);
    }

    #[test]
    fn zero_duration_fit_is_immediate() {
        let tt = Timetable::new();
        assert_eq!(
            tt.earliest_fit(SimTime::from_ticks(3), SimDuration::ZERO, SimTime::MAX),
            Some(SimTime::from_ticks(3))
        );
    }
}
