//! Planning-session availability: immutable shared snapshots of the pool's
//! timetables and copy-on-write overlay views.
//!
//! Schedule construction is a *what-if* exercise: every estimation scenario
//! of a strategy sweep asks "where would this job's tasks fit on the
//! current calendars?" without committing anything. Before this layer each
//! scenario answered that question by cloning every [`Timetable`] in the
//! pool (twice — once for the background view, once for the view including
//! the job's own tentative reservations). An [`AvailabilitySnapshot`] is
//! taken **once** per planning session instead and shared by reference
//! ([`std::sync::Arc`]-backed, so sharing across scenario threads is a
//! pointer copy), while each scenario records its tentative reservations in
//! a private [`TimetableOverlay`] on top of the shared snapshot.
//! The overlay is the one availability view the critical-works engine
//! plans against; even the clone-per-scenario reference baseline builds
//! overlays, over a cold snapshot of a cloned pool.
//!
//! Overlay queries answer exactly as a materialized [`Timetable`] holding
//! the union of base and tentative reservations would — the differential
//! property suite (`crates/model/tests/prop_overlay.rs`) pins this
//! equivalence on random reservation sets.
//!
//! [`Timetable`]: crate::timetable::Timetable
//!
//! # Query cursor
//!
//! `earliest_fit` dominates the planning hot path: the co-allocation DP
//! asks it once per (task position, node, predecessor class), and the
//! probes on one node mostly step a little forward, or a little back when
//! the DP turns to its next predecessor. The overlay therefore keeps one
//! **cursor** per node (interior-mutable, so reads stay `&self`): the
//! base and tentative indices where the last query stood, from which the
//! next query gallops instead of bisecting both lists. A base index is a
//! (chunk, offset) position in the frozen calendar. `reserve_window`
//! keeps the node's cursor: it is only a search hint, and the gallop
//! lands on the right index from any start in the list, even one the
//! insert shifted. A differential property test pins that warm answers
//! equal a cold recompute after arbitrary reserve/query interleavings.
//! Reusing
//! whole `earliest_fit` answers is the DP's job (`ClassStep` in
//! `gridsched-core`'s `allocate.rs`), not the overlay's: every call here
//! is one probe.
//!
//! The cursor makes [`TimetableOverlay`] deliberately **not `Sync`**:
//! overlays are per-scenario scratch, owned and queried by a single
//! planning thread, while the shared state ([`AvailabilitySnapshot`])
//! stays immutable and freely shareable.
//!
//! # One probe walk, with a chunk skip
//!
//! `earliest_fit` walks the merged base + tentative sequence from the
//! node's cursor, as [`Timetable::earliest_fit`] walks one list. Against
//! the §4 background loads a window-by-window walk is O(R), so each
//! frozen [`NodeCalendar`] carries a [`GapIndex`] with one leaf per
//! chunk (the widest gap after any window of that chunk), built when the
//! calendar is frozen and never invalidated because frozen calendars are
//! immutable. When a base window blocks the probe and its chunk's leaf is
//! narrower than the duration, no start before that chunk's end can fit,
//! so the walk crosses every chunk as packed in one index search, clipped
//! by the deadline, and gallops the tentative index after it. Calendars
//! of one chunk mostly take the plain walk; dense ones take the skip.
//! Answers equal the materialized walk: see DESIGN.md §9 and
//! `crates/model/tests/prop_gap_index.rs`.
//!
//! [`Timetable::earliest_fit`]: crate::timetable::Timetable::earliest_fit
//!
//! # Cross-snapshot calendar sharing
//!
//! `capture` copies no window: each [`Timetable`] holds the
//! [`NodeCalendar`] its last capture froze, and every window-changing
//! mutation drops it. A capture of an *unchanged* node is one `Arc` bump
//! reusing the calendar and its index. A capture of a changed node
//! freezes a new calendar by cloning the timetable's chunk list, one
//! pointer bump per chunk, and builds its index over one leaf per chunk,
//! so it shares every chunk the mutation left alone with the calendars
//! frozen before it. A cloned timetable shares its chunks but starts
//! with no frozen calendar, so a capture of a cloned pool is cold.
//!
//! [`GapIndex`]: crate::gap_index::GapIndex
//! [`NodeCalendar`]: crate::timetable::NodeCalendar

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use gridsched_sim::time::{SimDuration, SimTime};

use crate::ids::NodeId;
use crate::node::ResourcePool;
use crate::timetable::{NodeCalendar, Pos};
use crate::window::TimeWindow;

/// Probe activity of one [`TimetableOverlay`], drained by the planning
/// session into the workspace telemetry counter `index_seeks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// `earliest_fit` probes with a positive duration.
    pub seeks: u64,
}

impl IndexStats {
    /// Component-wise sum of two stat sets.
    #[must_use]
    pub fn merged(self, other: IndexStats) -> IndexStats {
        IndexStats {
            seeks: self.seeks + other.seeks,
        }
    }
}

/// A requested window collided with an existing (base or tentative)
/// reservation of a planning view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConflict {
    /// The window that could not be granted.
    pub requested: TimeWindow,
    /// The earliest window it collides with.
    pub existing: TimeWindow,
}

impl fmt::Display for PlanConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "planned window {} conflicts with {}",
            self.requested, self.existing
        )
    }
}

impl std::error::Error for PlanConflict {}

/// An immutable, cheaply shareable capture of every node's reserved
/// windows at one instant.
///
/// Cloning a snapshot is an [`Arc`] bump: sharing it across the scenario
/// threads of a strategy sweep costs nothing. Windows are stored exactly
/// as the timetables held them (same order, adjacent windows *not*
/// merged), so overlay queries reproduce
/// [`Timetable`](crate::timetable::Timetable) answers bit for bit.
///
/// # Examples
///
/// ```
/// use gridsched_model::availability::TimetableOverlay;
/// use gridsched_model::ids::{DomainId, NodeId};
/// use gridsched_model::node::ResourcePool;
/// use gridsched_model::perf::Perf;
/// use gridsched_model::timetable::ReservationOwner;
/// use gridsched_model::window::TimeWindow;
/// use gridsched_sim::time::{SimDuration, SimTime};
///
/// let mut pool = ResourcePool::new();
/// let n = pool.add_node(DomainId::new(0), Perf::FULL);
/// let w = TimeWindow::new(SimTime::ZERO, SimTime::from_ticks(5)).unwrap();
/// pool.timetable_mut(n).reserve(w, ReservationOwner::Background(0))?;
///
/// let snapshot = pool.snapshot();
/// let mut overlay = TimetableOverlay::new(snapshot);
/// // Base reservations are visible…
/// assert!(!overlay.is_free(n, w));
/// // …and tentative ones stack on top without touching the pool.
/// let t = TimeWindow::new(SimTime::from_ticks(5), SimTime::from_ticks(8)).unwrap();
/// overlay.reserve_window(n, t).unwrap();
/// assert_eq!(
///     overlay.earliest_fit(n, SimTime::ZERO, SimDuration::from_ticks(2), SimTime::MAX),
///     Some(SimTime::from_ticks(8))
/// );
/// assert!(pool.timetable(n).is_free(t), "the pool never sees tentative windows");
/// # Ok::<(), gridsched_model::timetable::ReserveConflict>(())
/// ```
#[derive(Debug, Clone)]
pub struct AvailabilitySnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
struct SnapshotInner {
    /// `nodes[NodeId::index]` = that node's frozen calendar: reserved
    /// windows (sorted by start, pairwise non-overlapping) in shared
    /// chunks plus the gap index over them, shared with the timetable
    /// that froze it, so an unchanged node's calendar survives across
    /// captures. Snapshots stay immutable either way — a pool mutation
    /// copies the chunk it changes if a calendar still shares it, drops
    /// the timetable's frozen calendar, and only becomes visible through
    /// a new capture freezing a new one.
    nodes: Box<[Arc<NodeCalendar>]>,
    /// How many of `nodes` the capture found already frozen.
    warm_nodes: usize,
}

impl AvailabilitySnapshot {
    /// Captures the current reservations of every node in `pool`.
    ///
    /// A node whose timetable still holds the calendar an earlier capture
    /// froze is reused by `Arc` bump, and only nodes changed since freeze
    /// fresh calendars (one pointer bump per chunk plus an index over one
    /// leaf per chunk), which their timetables keep for the next capture.
    #[must_use]
    pub fn capture(pool: &ResourcePool) -> Self {
        let mut warm_nodes = 0;
        let nodes: Box<[Arc<NodeCalendar>]> = pool
            .nodes()
            .map(|n| {
                let mut froze = false;
                let calendar = Arc::clone(pool.timetable(n.id()).calendar_tracked(&mut froze));
                warm_nodes += usize::from(!froze);
                calendar
            })
            .collect();
        AvailabilitySnapshot {
            inner: Arc::new(SnapshotInner { nodes, warm_nodes }),
        }
    }

    /// How many nodes this capture reused a calendar an earlier capture
    /// had frozen for (the `index_cache_hits` of the capture).
    #[must_use]
    pub fn warm_nodes(&self) -> usize {
        self.inner.warm_nodes
    }

    /// Number of nodes captured.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// The frozen calendar of `node` (shared with its timetable and any
    /// other capture of the same windows).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the captured pool.
    #[must_use]
    pub fn calendar(&self, node: NodeId) -> &Arc<NodeCalendar> {
        &self.inner.nodes[node.index()]
    }

    /// A copy of the captured reserved windows of `node`, in start order
    /// (probes read the frozen chunks in place and never call this).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the captured pool.
    #[must_use]
    pub fn windows(&self, node: NodeId) -> Vec<TimeWindow> {
        self.inner.nodes[node.index()].windows().collect()
    }
}

/// A copy-on-write view over an [`AvailabilitySnapshot`]: the shared base
/// windows plus this scenario's private tentative reservations.
///
/// Creating an overlay never copies base windows; tentative reservations
/// are the only per-scenario allocation (one short sorted `Vec` per node,
/// populated lazily). All queries answer over the *union* of base and
/// tentative windows with the exact algorithms of
/// [`Timetable`](crate::timetable::Timetable).
#[derive(Debug, Clone)]
pub struct TimetableOverlay {
    base: AvailabilitySnapshot,
    /// `tentative[NodeId::index]` = this view's own reservations, sorted
    /// by start, non-overlapping with each other and with the base. Kept
    /// sorted **incrementally** on insert (binary-searched position), so
    /// queries never re-sort or re-merge.
    tentative: Vec<Vec<TimeWindow>>,
    /// `cursor[NodeId::index]` = where the last query on that node stood:
    /// the first base position and tentative index whose windows end
    /// after its time, `None` until the node's first query after
    /// [`TimetableOverlay::reset_to`]. `Cell` keeps queries `&self`; see
    /// the module docs for the `!Sync` trade.
    cursor: Vec<Cell<Option<(Pos, usize)>>>,
    /// Gap-index activity accumulated by this overlay's probes, drained
    /// with [`TimetableOverlay::take_index_stats`].
    index_stats: Cell<IndexStats>,
}

/// First index at or after `from` whose item ends after `t`, given that
/// every item before `from` ends at or before `t`. `end` reads an item's
/// end; ends must strictly increase, as window ends do in a sorted
/// non-overlapping list (and chunk ends in a chunked one).
///
/// Gallops from `from` before bisecting: within one planning pass the
/// probes advance nearly monotonically, so the answer is usually within a
/// step or two of the previous cursor and the whole-list
/// `partition_point` is wasted work.
pub(crate) fn first_ending_after_from<T>(
    xs: &[T],
    from: usize,
    t: SimTime,
    end: impl Fn(&T) -> SimTime,
) -> usize {
    let tail = &xs[from..];
    let n = tail.len();
    if n == 0 || end(&tail[0]) > t {
        return from;
    }
    // tail[prev] is known to end at or before `t`.
    let mut prev = 0usize;
    let mut step = 1usize;
    while prev + step < n && end(&tail[prev + step]) <= t {
        prev += step;
        step *= 2;
    }
    // The answer is in (prev, min(prev + step, n)].
    let upper = (prev + step).min(n);
    let within = tail[prev + 1..upper].partition_point(|x| end(x) <= t);
    from + prev + 1 + within
}

/// First index whose item ends after `t`, searched outward from the
/// hint `near` (any index in `0..=xs.len()`): galloping forward when the
/// item at `near` ends at or before `t`, backward otherwise. A planning
/// pass's probes on a node mostly step a little forward, and a little
/// back when the DP turns to the next predecessor, so the answer is
/// usually a step or two from the last one either way.
pub(crate) fn first_ending_after_near<T>(
    xs: &[T],
    near: usize,
    t: SimTime,
    end: impl Fn(&T) -> SimTime,
) -> usize {
    if xs.get(near).is_some_and(|x| end(x) <= t) {
        return first_ending_after_from(xs, near + 1, t, end);
    }
    // `xs[hi]` ends after `t` (or `hi` is the end): the answer is at or
    // before it.
    let mut hi = near.min(xs.len());
    let mut step = 1usize;
    while hi >= step && end(&xs[hi - step]) > t {
        hi -= step;
        step *= 2;
    }
    // `xs[lo]` ends at or before `t`, unless `lo` is 0.
    let lo = hi.saturating_sub(step);
    lo + xs[lo..hi].partition_point(|x| end(x) <= t)
}

/// A window's end, the key the galloping searches read.
fn window_end(w: &TimeWindow) -> SimTime {
    w.end()
}

impl TimetableOverlay {
    /// Creates an overlay with no tentative reservations over `base`.
    #[must_use]
    pub fn new(base: AvailabilitySnapshot) -> Self {
        let n = base.node_count();
        TimetableOverlay {
            base,
            tentative: vec![Vec::new(); n],
            cursor: vec![Cell::new(None); n],
            index_stats: Cell::new(IndexStats::default()),
        }
    }

    /// Rebinds this overlay to a (possibly different) snapshot, dropping
    /// every tentative reservation but **keeping the allocated buffers** —
    /// the scratch-arena recycling path: steady-state planning reuses one
    /// overlay per role instead of allocating fresh per-node `Vec`s every
    /// scenario.
    pub fn reset_to(&mut self, base: AvailabilitySnapshot) {
        let n = base.node_count();
        self.base = base;
        self.tentative.resize_with(n, Vec::new);
        for list in &mut self.tentative {
            list.clear();
        }
        self.cursor.clear();
        self.cursor.resize_with(n, Cell::default);
        // A recycled overlay starts with a clean slate: any stats the
        // previous tenant left undrained belong to no one.
        self.index_stats.set(IndexStats::default());
    }

    /// Drains (returns and zeroes) the gap-index stats accumulated by
    /// this overlay's probes since the last drain or
    /// [`TimetableOverlay::reset_to`].
    pub fn take_index_stats(&self) -> IndexStats {
        self.index_stats.replace(IndexStats::default())
    }

    /// The shared snapshot this overlay reads through.
    #[must_use]
    pub fn base(&self) -> &AvailabilitySnapshot {
        &self.base
    }

    /// Number of nodes this view covers (the snapshot's node count).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.base.node_count()
    }

    /// The first base position and tentative index whose windows end
    /// after `t`, galloping from the node's cursor, forward or backward,
    /// and bisecting from scratch only when the node has none. The
    /// refreshed cursor is stored back for the next query.
    fn cursor_at(&self, node: NodeId, base: &NodeCalendar, t: SimTime) -> (Pos, usize) {
        let extra = self.tentative[node.index()].as_slice();
        let cell = &self.cursor[node.index()];
        let at = match cell.get() {
            Some((i, j)) => (
                base.seek_near(i, t),
                first_ending_after_near(extra, j, t, window_end),
            ),
            None => (base.seek(t), extra.partition_point(|w| w.end() <= t)),
        };
        cell.set(Some(at));
        at
    }

    /// The first base or tentative window overlapping `window`, if any.
    #[must_use]
    pub fn first_conflict(&self, node: NodeId, window: TimeWindow) -> Option<TimeWindow> {
        // Mirrors `Timetable::first_conflict`: only the first reservation
        // ending after `window.start()` can overlap — later ones start at
        // or after its end. Both lists' first such windows are found;
        // the earlier of the two is the merged one.
        let calendar = self.base.calendar(node);
        let (at, j) = self.cursor_at(node, calendar, window.start());
        let first = match (
            calendar.walk(at).peek(),
            self.tentative[node.index()].get(j),
        ) {
            (Some(a), Some(&b)) => Some(if a.start() <= b.start() { a } else { b }),
            (a, b) => a.or(b.copied()),
        };
        first.filter(|w| w.overlaps(window))
    }

    /// Whether `window` is completely free on `node`.
    #[must_use]
    pub fn is_free(&self, node: NodeId, window: TimeWindow) -> bool {
        self.first_conflict(node, window).is_none()
    }

    /// Finds the earliest start `s >= not_before` on `node` such that
    /// `[s, s + duration)` is free and ends no later than `deadline`.
    ///
    /// Same answer as
    /// [`Timetable::earliest_fit`](crate::timetable::Timetable::earliest_fit)
    /// over the merged base + tentative sequence (DESIGN.md §9): the same
    /// jump-walk, resumed from the node's cursor, that crosses base chunks
    /// too packed for `duration` in one gap-index search
    /// (`NodeCalendar::skip_packed`). A skip lands where the walk would
    /// have: every tentative window in the crossed span sits in a base
    /// gap narrower than `duration`, so it blocks too, and the tentative
    /// index gallops past them all. Every call with a positive `duration`
    /// is one probe and counts one seek in the [`IndexStats`].
    #[must_use]
    pub fn earliest_fit(
        &self,
        node: NodeId,
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        if duration.is_zero() {
            return Some(not_before);
        }
        let calendar = self.base.calendar(node);
        let tentative = self.tentative[node.index()].as_slice();
        let (at, mut j) = self.cursor_at(node, calendar, not_before);
        let mut base = calendar.walk(at);
        let mut stats = self.index_stats.get();
        stats.seeks += 1;
        self.index_stats.set(stats);
        let mut candidate = not_before;
        loop {
            let end = candidate.saturating_add(duration);
            if end > deadline {
                return None;
            }
            // Past every tentative window the last step crossed; the
            // base walk already stands past every base window it did.
            j = first_ending_after_from(tentative, j, candidate, window_end);
            // The earlier-starting of the two next windows blocks first;
            // if it does not block, neither does the other.
            let next = base.peek();
            match (next, tentative.get(j)) {
                (_, Some(w)) if w.start() < end && next.is_none_or(|b| w.start() < b.start()) => {
                    candidate = candidate.max_of(w.end());
                }
                (Some(b), w) if b.start() < end => {
                    let crossed = match calendar.skip_packed(&mut base, duration, deadline) {
                        Some(last_end) => last_end,
                        None => {
                            let stop = w.map_or(SimTime::MAX, |w| w.start());
                            base.cross_run(duration, deadline, stop)
                        }
                    };
                    candidate = candidate.max_of(crossed);
                }
                _ => return Some(candidate),
            }
        }
    }

    /// Tentatively reserves `window` on `node`.
    ///
    /// The reservation lives only in this overlay; the snapshot and the
    /// pool it came from are never touched. The node's cursor stays: the
    /// insert may shift the tentative index it holds, but the next query
    /// gallops to the right index from any start.
    ///
    /// # Errors
    ///
    /// Returns [`PlanConflict`] naming the earliest colliding window if
    /// `window` is not free.
    pub fn reserve_window(&mut self, node: NodeId, window: TimeWindow) -> Result<(), PlanConflict> {
        if let Some(existing) = self.first_conflict(node, window) {
            return Err(PlanConflict {
                requested: window,
                existing,
            });
        }
        let list = &mut self.tentative[node.index()];
        let idx = list.partition_point(|w| w.start() < window.start());
        list.insert(idx, window);
        debug_assert!(
            list.windows(2).all(|p| p[0].end() <= p[1].start()),
            "tentative windows stay sorted and disjoint"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DomainId;
    use crate::perf::Perf;
    use crate::timetable::{ReservationOwner, Timetable};

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn d(x: u64) -> SimDuration {
        SimDuration::from_ticks(x)
    }

    fn pool_with_windows(windows: &[TimeWindow]) -> ResourcePool {
        let mut pool = ResourcePool::new();
        let n = pool.add_node(DomainId::new(0), Perf::FULL);
        for (i, &win) in windows.iter().enumerate() {
            pool.timetable_mut(n)
                .reserve(win, ReservationOwner::Background(i as u64))
                .unwrap();
        }
        pool
    }

    /// A pool of one node whose calendar packs `packed` full chunks of
    /// 2-tick windows one tick apart, then one chunk whose 8th gap is
    /// `wide` ticks, then one more packed chunk: a probe longer than a
    /// tick skips the packed run to the wide chunk.
    fn skip_pool(packed: u64, wide: u64) -> (ResourcePool, Vec<TimeWindow>) {
        let per_chunk = crate::timetable::CHUNK_CAPACITY as u64;
        let mut windows = Vec::new();
        let mut at = 0;
        for i in 0..(packed + 2) * per_chunk {
            windows.push(w(at, at + 2));
            at += if i == packed * per_chunk + 7 {
                2 + wide
            } else {
                3
            };
        }
        let mut pool = ResourcePool::new();
        let n = pool.add_node(DomainId::new(0), Perf::FULL);
        *pool.timetable_mut(n) = Timetable::from_sorted(
            windows
                .iter()
                .enumerate()
                .map(|(i, &win)| (win, ReservationOwner::Background(i as u64))),
        );
        (pool, windows)
    }

    /// Every probe of `overlay` on node 0 over the given starts,
    /// durations and deadlines answers as the walk over a materialized
    /// timetable holding `base` plus `tentative`.
    fn assert_matches_union(
        overlay: &TimetableOverlay,
        base: &[TimeWindow],
        tentative: &[TimeWindow],
        starts: impl Iterator<Item = u64> + Clone,
    ) {
        let mut union = Timetable::from_sorted(
            base.iter()
                .map(|&win| (win, ReservationOwner::Background(0))),
        );
        for &win in tentative {
            union.reserve(win, ReservationOwner::Background(1)).unwrap();
        }
        let horizon = base.last().map_or(0, |w| w.end().ticks()) + 10;
        for nb in starts {
            for dur in [1, 2, 3, 5, 8, 13] {
                for dl in [SimTime::MAX, t(horizon / 2), t(nb + 40), t(nb + 400)] {
                    assert_eq!(
                        overlay.earliest_fit(NodeId::new(0), t(nb), d(dur), dl),
                        union.earliest_fit(t(nb), d(dur), dl),
                        "probe ({nb}, {dur}, {dl}), tentative {tentative:?}"
                    );
                }
            }
        }
    }

    /// The cursor search lands where a bisect of the whole list does,
    /// from any hint, on either side of the answer.
    #[test]
    fn first_ending_after_near_matches_a_bisect_from_any_hint() {
        gridsched_sim::check::check(512, |g| {
            let mut ws = Vec::new();
            let mut at = g.u64_in(0, 5);
            for _ in 0..g.usize_in(0, 40) {
                let len = g.u64_in(1, 6);
                ws.push(w(at, at + len));
                at += len + g.u64_in(0, 4);
            }
            let t = t(g.u64_in(0, at + 5));
            let near = g.usize_in(0, ws.len());
            assert_eq!(
                first_ending_after_near(&ws, near, t, window_end),
                ws.partition_point(|w| w.end() <= t),
                "windows {ws:?}, near {near}, t {t}"
            );
        });
    }

    #[test]
    fn snapshot_captures_windows_in_order() {
        let pool = pool_with_windows(&[w(5, 10), w(0, 3), w(12, 14)]);
        let snap = pool.snapshot();
        assert_eq!(snap.node_count(), 1);
        assert_eq!(
            snap.windows(NodeId::new(0)),
            &[w(0, 3), w(5, 10), w(12, 14)]
        );
    }

    #[test]
    fn snapshot_is_immutable_under_pool_changes() {
        let mut pool = pool_with_windows(&[w(0, 5)]);
        let snap = pool.snapshot();
        pool.timetable_mut(NodeId::new(0))
            .reserve(w(5, 9), ReservationOwner::Background(9))
            .unwrap();
        assert_eq!(snap.windows(NodeId::new(0)), &[w(0, 5)]);
    }

    #[test]
    fn overlay_merges_base_and_tentative() {
        let pool = pool_with_windows(&[w(0, 4), w(10, 12)]);
        let node = NodeId::new(0);
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        overlay.reserve_window(node, w(6, 8)).unwrap();
        assert!(!overlay.is_free(node, w(1, 2)), "base window blocks");
        assert!(!overlay.is_free(node, w(7, 9)), "tentative window blocks");
        // The union leaves [4,6), [8,10) and [12,..) free.
        for gap in [w(4, 6), w(8, 10), w(12, 14)] {
            assert!(overlay.is_free(node, gap), "{gap} is free");
        }
        assert_eq!(overlay.first_conflict(node, w(5, 11)), Some(w(6, 8)));
        assert_eq!(overlay.first_conflict(node, w(9, 11)), Some(w(10, 12)));
    }

    #[test]
    fn overlay_earliest_fit_jumps_both_layers() {
        let pool = pool_with_windows(&[w(0, 4), w(10, 12)]);
        let node = NodeId::new(0);
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        overlay.reserve_window(node, w(5, 9)).unwrap();
        // Gaps: [4,5) too small, [9,10) too small — first 2-tick slot is 12.
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(2), SimTime::MAX),
            Some(t(12))
        );
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(1), SimTime::MAX),
            Some(t(4))
        );
        assert_eq!(overlay.earliest_fit(node, t(0), d(2), t(13)), None);
        assert_eq!(
            overlay.earliest_fit(node, t(3), SimDuration::ZERO, t(0)),
            Some(t(3))
        );
    }

    #[test]
    fn overlay_reserve_conflicts_name_the_collision() {
        let pool = pool_with_windows(&[w(0, 4)]);
        let node = NodeId::new(0);
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        let err = overlay.reserve_window(node, w(2, 6)).unwrap_err();
        assert_eq!(err.existing, w(0, 4));
        assert!(err.to_string().contains("conflicts"));
        overlay.reserve_window(node, w(4, 6)).unwrap();
        let err = overlay.reserve_window(node, w(5, 7)).unwrap_err();
        assert_eq!(err.existing, w(4, 6));
    }

    #[test]
    fn adjacent_base_windows_are_not_merged() {
        // first_conflict parity depends on keeping [0,5) and [5,8) distinct:
        // a query at [6,7) must report [5,8), not a fused [0,8).
        let pool = pool_with_windows(&[w(0, 5), w(5, 8)]);
        let node = NodeId::new(0);
        let overlay = TimetableOverlay::new(pool.snapshot());
        assert_eq!(overlay.first_conflict(node, w(6, 7)), Some(w(5, 8)));
    }

    #[test]
    fn index_stats_count_seeks_and_one_shared_build() {
        let pool = pool_with_windows(&[w(0, 4), w(10, 12)]);
        let node = NodeId::new(0);
        let snap = pool.snapshot();
        let a = TimetableOverlay::new(snap.clone());
        let b = TimetableOverlay::new(snap);
        assert_eq!(a.take_index_stats(), IndexStats::default());
        let _ = a.earliest_fit(node, t(0), d(2), SimTime::MAX);
        // A repeat probe seeks again.
        let _ = a.earliest_fit(node, t(0), d(2), SimTime::MAX);
        assert_eq!(a.take_index_stats().seeks, 2);
        // Sibling overlay on the same snapshot: the one calendar, index
        // built at freeze, is shared.
        assert!(Arc::ptr_eq(
            a.base().calendar(node),
            b.base().calendar(node)
        ));
        let _ = b.earliest_fit(node, t(1), d(3), SimTime::MAX);
        assert_eq!(b.take_index_stats().seeks, 1);
        assert_eq!(a.take_index_stats(), IndexStats::default(), "drained");
    }

    /// The overlay answers no `earliest_fit` from a memo: every call with
    /// a positive duration — repeats, probes inside an earlier answer's
    /// range and probes between reserves included — is one probe,
    /// counted as one seek.
    #[test]
    fn every_positive_duration_call_is_one_probe() {
        let pool = pool_with_windows(&[w(0, 4), w(6, 7), w(10, 12), w(20, 30)]);
        let node = NodeId::new(0);
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        let probes = [
            (0, 2, SimTime::MAX),
            (0, 2, SimTime::MAX),
            (1, 2, SimTime::MAX),
            (4, 2, SimTime::MAX),
            (0, 9, t(25)),
            (0, 9, t(25)),
            (3, 9, t(25)),
            (13, 1, t(14)),
            (13, 1, t(14)),
        ];
        let mut calls = 0u64;
        for round in 0..3 {
            for &(nb, dur, dl) in &probes {
                let _ = overlay.earliest_fit(node, t(nb), d(dur), dl);
                calls += 1;
            }
            let _ = overlay.earliest_fit(node, t(5), SimDuration::ZERO, SimTime::MAX);
            overlay
                .reserve_window(node, w(14 + round, 15 + round))
                .unwrap();
        }
        assert_eq!(overlay.take_index_stats().seeks, calls);
    }

    /// A skip over packed chunks gallops the tentative index past the
    /// tentative windows it crosses: each sits in a one-tick base gap,
    /// so the walk would have crossed it too.
    #[test]
    fn a_skip_crosses_tentative_windows_in_the_packed_run() {
        let (pool, base) = skip_pool(3, 9);
        let node = NodeId::new(0);
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        // One-tick gaps inside chunks 0 and 1 and at the chunk 1/2 seam.
        let tentative = [w(2, 3), w(200, 201), w(383, 384)];
        for &win in &tentative {
            overlay.reserve_window(node, win).unwrap();
        }
        // The wide gap opens after the 8th window of chunk 3.
        let wide_start = 3 * 64 * 3 + 7 * 3 + 2;
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(5), SimTime::MAX),
            Some(t(wide_start))
        );
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(5), t(wide_start + 4)),
            None
        );
        assert_matches_union(&overlay, &base, &tentative, (0..60).chain(180..220));
    }

    /// Tentative windows at the first chunk whose leaf fits: one in the
    /// seam before it, one splitting its wide gap so the gap no longer
    /// holds the probe. The walk resumes after the skip and takes both
    /// into account.
    #[test]
    fn tentative_windows_at_the_first_wide_chunk_veto_its_gap() {
        let (pool, base) = skip_pool(2, 9);
        let node = NodeId::new(0);
        let wide_start = 2 * 64 * 3 + 7 * 3 + 2;
        let tentative = [
            w(2 * 64 * 3 - 1, 2 * 64 * 3),
            w(wide_start + 4, wide_start + 5),
        ];
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        for &win in &tentative {
            overlay.reserve_window(node, win).unwrap();
        }
        // 5 ticks no longer fit the split gap (4 + 4); the probe runs on
        // to the calendar's end, past the last packed chunk.
        let last_end = base.last().unwrap().end();
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(5), SimTime::MAX),
            Some(last_end)
        );
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(4), SimTime::MAX),
            Some(t(wide_start))
        );
        assert_matches_union(&overlay, &base, &tentative, (0..40).chain(360..420));
    }

    #[test]
    fn reset_to_rebases_onto_a_fresh_index_epoch() {
        let mut pool = pool_with_windows(&[w(0, 4)]);
        let node = NodeId::new(0);
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(2), SimTime::MAX),
            Some(t(4))
        );
        pool.timetable_mut(node)
            .reserve(w(4, 9), ReservationOwner::Background(1))
            .unwrap();
        // Undrained stats die with the rebind, and the new snapshot's
        // index answers from the new calendar.
        overlay.reset_to(pool.snapshot());
        assert_eq!(overlay.take_index_stats(), IndexStats::default());
        assert_eq!(
            overlay.earliest_fit(node, t(0), d(2), SimTime::MAX),
            Some(t(9))
        );
        assert_eq!(overlay.take_index_stats().seeks, 1);
    }
}
