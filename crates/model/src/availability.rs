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
//! # Gap-indexed probes
//!
//! A linear `earliest_fit` walks the merged base + tentative sequence —
//! O(R) against the §4 background loads. Each frozen [`NodeCalendar`]
//! therefore carries a [`GapIndex`] with one leaf per chunk, built when
//! the calendar is frozen and never invalidated because frozen calendars
//! are immutable. The indexed probe asks the calendar for the earliest
//! **base** fit (an O(log(R/B)) climb to the first chunk whose leaf
//! fits, then a scan of at most B windows) and lets the scenario's few
//! tentative windows veto and re-seed the probe; with no tentative
//! windows on the node the calendar answers outright. Its seek into the
//! window lists resumes from the node's cursor, as the linear walk's
//! does. Answers are
//! bit-identical to the linear walk — see DESIGN.md §9 and
//! `crates/model/tests/prop_gap_index.rs` — so the path a pool's
//! [`ProbeConfig`] picks has no observable effect beyond the
//! [`IndexStats`] counters.
//!
//! The index only engages for calendars of at least
//! [`ProbeConfig::index_floor`] base windows ([`DEFAULT_INDEX_FLOOR`]
//! unless the pool's config moves it): below that, deadline-clipped
//! probes finish the linear walk at least as fast.
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
use crate::timetable::{NodeCalendar, Pos, Walk};
use crate::window::TimeWindow;

/// Default [`ProbeConfig::index_floor`]: nodes with fewer base windows
/// than this answer probes linearly.
///
/// The index trades a linear walk for a climb over chunk leaves plus at
/// most two chunk scans, so it only pays where calendars are large
/// enough that deadline-clipped linear walks cross many windows. The
/// floor used to sit at 16k because every snapshot rebuilt an O(R) index
/// from scratch; since each timetable keeps its frozen calendar until its
/// windows change, and a refreeze now builds the index over one leaf per
/// chunk, the floor sits at 1k. Below 1k an index buys little: probes
/// bisect a few hundred windows in a handful of hops either way. The
/// warm-capture shape of `BENCH_probe_scaling.json`
/// (the manual `probe_scaling` tool, which CI does not run) justifies
/// the number; the work-count gate on the traced perfbench
/// ledger (`bench_check --fresh --baseline`, `model.index_seeks` and
/// `model.index_bypasses` on `dense_calendar`) pins which probes it
/// routes through the index.
pub const DEFAULT_INDEX_FLOOR: usize = 1_000;

/// How a pool's planning probes run: which probe path an
/// `earliest_fit` takes.
///
/// The choice is unobservable in the answers (the DESIGN.md §9
/// contract): the gap-indexed and linear probes are bit-identical, and
/// only the [`IndexStats`] counters see the difference. The value lives
/// on the [`ResourcePool`]
/// ([`ResourcePool::set_probe_config`]) and is fixed into each
/// [`AvailabilitySnapshot`] at capture, so pools with different configs
/// can plan side by side on different threads.
///
/// ```
/// use gridsched_model::availability::{ProbeConfig, DEFAULT_INDEX_FLOOR};
///
/// assert_eq!(ProbeConfig::default().index_floor, DEFAULT_INDEX_FLOOR);
/// // Gap index on every calendar / never engaged.
/// let forced = ProbeConfig { index_floor: 0 };
/// let linear = ProbeConfig { index_floor: usize::MAX };
/// assert_ne!(forced, linear);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Minimum base-window count at which a node's probes engage the
    /// gap index. `0` engages it on every calendar (tests and the chaos
    /// `probe-index` axis); `usize::MAX` never engages it.
    pub index_floor: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            index_floor: DEFAULT_INDEX_FLOOR,
        }
    }
}

/// Gap-index activity of one [`TimetableOverlay`], drained by the
/// planning session into the workspace telemetry counters
/// (`index_seeks` / `index_bypasses`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// `earliest_fit` probes answered through the base gap index.
    pub seeks: u64,
    /// Probes that took the linear merged walk: every probe on
    /// a node whose calendar is below the snapshot's
    /// [`ProbeConfig::index_floor`] ([`DEFAULT_INDEX_FLOOR`] by default;
    /// `usize::MAX` sends every probe here). Sparse pools whose
    /// calendars all stay below the floor record only bypasses and zero
    /// seeks.
    pub bypasses: u64,
}

impl IndexStats {
    /// Component-wise sum of two stat sets.
    #[must_use]
    pub fn merged(self, other: IndexStats) -> IndexStats {
        IndexStats {
            seeks: self.seeks + other.seeks,
            bypasses: self.bypasses + other.bypasses,
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
    /// The pool's [`ProbeConfig::index_floor`] at capture: overlays on
    /// this snapshot engage the gap index for nodes with at least this
    /// many base windows.
    index_floor: usize,
}

impl AvailabilitySnapshot {
    /// Captures the current reservations of every node in `pool`, under
    /// the pool's [`ProbeConfig`].
    ///
    /// A node whose timetable still holds the calendar an earlier capture
    /// froze is reused by `Arc` bump, and only nodes changed since freeze
    /// fresh calendars (one pointer bump per chunk plus an index over one
    /// leaf per chunk), which their timetables keep for the next capture. The config's
    /// [`ProbeConfig::index_floor`] is fixed into the snapshot and decides
    /// the probe path of every overlay on it.
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
            inner: Arc::new(SnapshotInner {
                nodes,
                warm_nodes,
                index_floor: pool.probe_config().index_floor,
            }),
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

/// Two-pointer merge over a node's base and tentative windows.
///
/// Both inputs are sorted by start and pairwise non-overlapping, and the
/// union is non-overlapping too (reservations check conflicts against
/// both lists), so merging by start yields a sequence with non-decreasing
/// ends — the same shape a materialized
/// [`Timetable`](crate::timetable::Timetable) would have.
struct MergedWindows<'a> {
    base: Walk<'a>,
    extra: &'a [TimeWindow],
    j: usize,
}

impl MergedWindows<'_> {
    fn peek(&self) -> Option<TimeWindow> {
        match (self.base.peek(), self.extra.get(self.j)) {
            (Some(a), Some(&b)) => Some(if a.start() <= b.start() { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(&b)) => Some(b),
            (None, None) => None,
        }
    }

    fn advance(&mut self) {
        match (self.base.peek(), self.extra.get(self.j)) {
            (Some(a), Some(b)) => {
                if a.start() <= b.start() {
                    self.base.advance();
                } else {
                    self.j += 1;
                }
            }
            (Some(_), None) => self.base.advance(),
            (None, Some(_)) => self.j += 1,
            (None, None) => {}
        }
    }
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

    /// Merged base + tentative walk starting at the first windows ending
    /// after `t` (see [`TimetableOverlay::cursor_at`]).
    fn merged_after<'a>(
        &'a self,
        node: NodeId,
        base: &'a NodeCalendar,
        t: SimTime,
    ) -> MergedWindows<'a> {
        let (i, j) = self.cursor_at(node, base, t);
        MergedWindows {
            base: base.walk(i),
            extra: &self.tentative[node.index()],
            j,
        }
    }

    /// The first base or tentative window overlapping `window`, if any.
    #[must_use]
    pub fn first_conflict(&self, node: NodeId, window: TimeWindow) -> Option<TimeWindow> {
        // Mirrors `Timetable::first_conflict`: only the first reservation
        // ending after `window.start()` can overlap — later ones start at
        // or after its end.
        self.merged_after(node, self.base.calendar(node), window.start())
            .peek()
            .filter(|w| w.overlaps(window))
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
    /// over the merged base + tentative sequence, by one of two
    /// bit-identical paths (DESIGN.md §9): the snapshot's gap index for
    /// nodes at or above its engagement floor, the linear merged walk
    /// otherwise. Every call with a positive `duration` is one probe down
    /// one of them and counts one seek or one bypass in the
    /// [`IndexStats`].
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
        if calendar.len() >= self.base.inner.index_floor {
            self.earliest_fit_indexed(node, calendar, not_before, duration, deadline)
        } else {
            let mut stats = self.index_stats.get();
            stats.bypasses += 1;
            self.index_stats.set(stats);
            self.earliest_fit_linear(node, calendar, not_before, duration, deadline)
        }
    }

    /// The indexed path: the base layer answers through the frozen
    /// calendar's [`GapIndex`](crate::gap_index::GapIndex); the
    /// scenario's tentative windows (none or a handful) veto and re-seed
    /// the probe. The seek into both lists resumes from the node's
    /// cursor, as the linear walk's does, so a probe just after the last
    /// one gallops a step or two instead of bisecting every base window.
    ///
    /// Each round asks the index for the earliest **base-only** fit `s`
    /// at or after the candidate — every start below `s` is blocked by
    /// the base alone, so none can be the merged answer. If no tentative
    /// window intersects `[s, s + duration)`, `s` *is* the merged answer.
    /// Otherwise the first tentative window `w` ending after `s` blocks
    /// every start in `[s, w.end())` (any such start keeps the interval
    /// overlapping `w`), so the candidate jumps to `w.end()` — exactly
    /// where the linear walk lands when it hops `w`. Candidates only move
    /// forward, so both indices gallop on from where the last round left
    /// them. Each round retires one tentative window, so the loop runs at
    /// most `tentative + 1` rounds of O(log(R/B) + B + log T) for R base
    /// windows in chunks of B.
    fn earliest_fit_indexed(
        &self,
        node: NodeId,
        calendar: &NodeCalendar,
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        let (mut i, mut j) = self.cursor_at(node, calendar, not_before);
        let mut stats = self.index_stats.get();
        stats.seeks += 1;
        self.index_stats.set(stats);
        let tentative = self.tentative[node.index()].as_slice();
        let mut candidate = not_before;
        loop {
            // A base-only start past the deadline ends the probe: the
            // merged answer is no earlier, which matches the linear
            // walk's early exit because candidates only move forward.
            let s = calendar.earliest_fit_at(i, candidate, duration, deadline)?;
            let end = s.saturating_add(duration);
            j = first_ending_after_from(tentative, j, s, window_end);
            match tentative.get(j) {
                Some(w) if w.start() < end => {
                    candidate = w.end();
                    i = calendar.seek_near(i, candidate);
                }
                _ => return Some(s),
            }
        }
    }

    /// The linear path: the pre-index merged base + tentative walk, kept
    /// as the differential reference and the path of every node below
    /// the snapshot's engagement floor.
    fn earliest_fit_linear(
        &self,
        node: NodeId,
        calendar: &NodeCalendar,
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        let mut merged = self.merged_after(node, calendar, not_before);
        let mut candidate = not_before;
        loop {
            let end = candidate.saturating_add(duration);
            if end > deadline {
                return None;
            }
            match merged.peek() {
                Some(w) if w.start() < end => {
                    // Gap too small; jump past this reservation.
                    candidate = candidate.max_of(w.end());
                    merged.advance();
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
    use crate::timetable::ReservationOwner;

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

    /// `pool_with_windows` with the engagement floor dropped to zero:
    /// tiny calendars sit under the default floor, so without this the
    /// indexed path never runs.
    fn indexed_pool_with_windows(windows: &[TimeWindow]) -> ResourcePool {
        let mut pool = pool_with_windows(windows);
        pool.set_probe_config(ProbeConfig { index_floor: 0 });
        pool
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
        let pool = indexed_pool_with_windows(&[w(0, 4), w(10, 12)]);
        let node = NodeId::new(0);
        let snap = pool.snapshot();
        let a = TimetableOverlay::new(snap.clone());
        let b = TimetableOverlay::new(snap);
        assert_eq!(a.take_index_stats(), IndexStats::default());
        let _ = a.earliest_fit(node, t(0), d(2), SimTime::MAX);
        // A repeat probe seeks again.
        let _ = a.earliest_fit(node, t(0), d(2), SimTime::MAX);
        let sa = a.take_index_stats();
        assert_eq!((sa.seeks, sa.bypasses), (2, 0));
        // Sibling overlay on the same snapshot: the one calendar, index
        // built at freeze, is shared.
        assert!(Arc::ptr_eq(
            a.base().calendar(node),
            b.base().calendar(node)
        ));
        let _ = b.earliest_fit(node, t(1), d(3), SimTime::MAX);
        let sb = b.take_index_stats();
        assert_eq!((sb.seeks, sb.bypasses), (1, 0));
        assert_eq!(a.take_index_stats(), IndexStats::default(), "drained");
    }

    /// The overlay answers no `earliest_fit` from a memo: on both paths,
    /// every call with a positive duration — repeats, probes inside an
    /// earlier answer's range and probes between reserves included — is
    /// one probe, counted as one seek or one bypass.
    #[test]
    fn every_positive_duration_call_is_one_probe() {
        for index_floor in [0, usize::MAX] {
            let mut pool = pool_with_windows(&[w(0, 4), w(6, 7), w(10, 12), w(20, 30)]);
            pool.set_probe_config(ProbeConfig { index_floor });
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
                overlay
                    .reserve_window(node, w(14 + round, 15 + round))
                    .unwrap();
            }
            let s = overlay.take_index_stats();
            assert_eq!(s.seeks + s.bypasses, calls, "floor {index_floor}: {s:?}");
            let path = if index_floor == 0 {
                s.seeks
            } else {
                s.bypasses
            };
            assert_eq!(path, calls, "floor {index_floor} keeps one path");
        }
    }

    #[test]
    fn reset_to_rebases_onto_a_fresh_index_epoch() {
        let mut pool = indexed_pool_with_windows(&[w(0, 4)]);
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
        let s = overlay.take_index_stats();
        assert_eq!((s.seeks, s.bypasses), (1, 0));
    }
}
