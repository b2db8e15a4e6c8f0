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
//! next query gallops instead of bisecting both lists. `reserve_window`
//! clears the node's cursor, since inserting shifts the tentative
//! indices; a differential property test pins that warm answers equal a
//! cold recompute after arbitrary reserve/query interleavings. Reusing
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
//! O(R) against the §4 background loads. Each snapshot therefore carries
//! one lazily built [`GapIndex`] per node (built at most once per
//! snapshot, race-free via [`std::sync::OnceLock`], never invalidated
//! because snapshots are immutable). The indexed probe asks it for the
//! earliest **base** fit in O(log R) and lets the scenario's few
//! tentative windows veto and re-seed the probe; with no tentative
//! windows on the node the index answers outright. Its seek into the
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
//! probes finish the linear walk faster than the build amortizes even
//! across captures.
//!
//! # Cross-snapshot calendar sharing
//!
//! `capture` does not copy or index from scratch every time: each
//! [`Timetable`] holds the [`NodeCalendar`] (frozen windows + lazily built
//! index) its last capture froze, and every window-changing mutation
//! drops it. A capture of an *unchanged* node is an `Arc` bump reusing
//! both the window slice and any already built index — which is what
//! lets the engagement floor sit at 1k windows instead of 16k: the build
//! amortizes over every capture of the unchanged node, not just one
//! snapshot's lifetime. A cloned timetable starts with no frozen
//! calendar, so a capture of a cloned pool is cold.
//!
//! [`GapIndex`]: crate::gap_index::GapIndex

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use gridsched_sim::time::{SimDuration, SimTime};

use crate::ids::NodeId;
use crate::node::ResourcePool;
use crate::timetable::NodeCalendar;
use crate::window::TimeWindow;

/// Default [`ProbeConfig::index_floor`]: nodes with fewer base windows
/// than this answer probes linearly.
///
/// The index trades an O(R) build per frozen calendar for O(log R)
/// probes, so it only pays where calendars are large enough that the
/// amortized build beats deadline-clipped linear walks. The floor used to
/// sit at 16k because every snapshot rebuilt from scratch and a snapshot
/// often lives for a single job's generation; since each timetable keeps
/// its frozen calendar until its windows change, a build is paid once
/// per mutation and reused by every later capture of the unchanged node,
/// so the §4 sweep calendars (~6k windows/node) amortize it across the
/// whole sweep and the floor drops to 1k. Below 1k even a cached index buys
/// little: probes bisect a few hundred windows in a handful of hops
/// either way, and the first capture after every mutation would still pay
/// a (tiny) build. The warm-capture shape of `BENCH_probe_scaling.json`
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
/// (`index_seeks` / `index_rebuilds` / `index_bypasses`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// `earliest_fit` probes answered through the base gap index.
    pub seeks: u64,
    /// Probes that found their snapshot node unindexed and built the
    /// index (at most once per node per snapshot, `OnceLock`-enforced).
    pub builds: u64,
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
            builds: self.builds + other.builds,
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
    /// windows (sorted by start, pairwise non-overlapping) plus the
    /// lazily built gap index over them, shared with the timetable that
    /// froze it, so an unchanged node's windows *and* its built index
    /// survive across captures. Snapshots stay immutable either way —
    /// a pool mutation drops the timetable's frozen calendar and only
    /// becomes visible through a new capture freezing a new one.
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
    /// froze is reused by `Arc` bump — no window copy, no index rebuild —
    /// and only nodes changed since freeze fresh calendars, which their
    /// timetables keep for the next capture. The config's
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

    /// The captured reserved windows of `node`, in start order.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the captured pool.
    #[must_use]
    pub fn windows(&self, node: NodeId) -> &[TimeWindow] {
        self.inner.nodes[node.index()].windows()
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
    /// the first base and tentative indices whose windows end after its
    /// time, `None` until the node's first query after a reserve or
    /// [`TimetableOverlay::reset_to`]. `Cell` keeps queries `&self`; see
    /// the module docs for the `!Sync` trade.
    cursor: Vec<Cell<Option<(usize, usize)>>>,
    /// Gap-index activity accumulated by this overlay's probes, drained
    /// with [`TimetableOverlay::take_index_stats`].
    index_stats: Cell<IndexStats>,
}

/// First index at or after `from` whose window ends after `t`, given that
/// every window before `from` ends at or before `t` (ends are strictly
/// increasing in a sorted non-overlapping list).
///
/// Gallops from `from` before bisecting: within one planning pass the
/// probes advance nearly monotonically, so the answer is usually within a
/// step or two of the previous cursor and the whole-list
/// `partition_point` is wasted work.
fn first_ending_after_from(ws: &[TimeWindow], from: usize, t: SimTime) -> usize {
    let tail = &ws[from..];
    let n = tail.len();
    if n == 0 || tail[0].end() > t {
        return from;
    }
    // tail[prev] is known to end at or before `t`.
    let mut prev = 0usize;
    let mut step = 1usize;
    while prev + step < n && tail[prev + step].end() <= t {
        prev += step;
        step *= 2;
    }
    // The answer is in (prev, min(prev + step, n)].
    let upper = (prev + step).min(n);
    let within = tail[prev + 1..upper].partition_point(|w| w.end() <= t);
    from + prev + 1 + within
}

/// First index whose window ends after `t`, searched outward from the
/// hint `near`: galloping forward when the window at `near` ends at or
/// before `t`, backward otherwise. A planning pass's probes on a node
/// mostly step a little forward, and a little back when the DP turns to
/// the next predecessor, so the answer is usually a step or two from the
/// last one either way.
fn first_ending_after_near(ws: &[TimeWindow], near: usize, t: SimTime) -> usize {
    if ws.get(near).is_some_and(|w| w.end() <= t) {
        return first_ending_after_from(ws, near + 1, t);
    }
    // `ws[hi]` ends after `t` (or `hi` is the end): the answer is at or
    // before it.
    let mut hi = near.min(ws.len());
    let mut step = 1usize;
    while hi >= step && ws[hi - step].end() > t {
        hi -= step;
        step *= 2;
    }
    // `ws[lo]` ends at or before `t`, unless `lo` is 0.
    let lo = hi.saturating_sub(step);
    lo + ws[lo..hi].partition_point(|w| w.end() <= t)
}

/// Two-pointer merge over a node's base and tentative windows.
///
/// Both inputs are sorted by start and pairwise non-overlapping, and the
/// union is non-overlapping too (reservations check conflicts against
/// both lists), so merging by start yields a sequence with non-decreasing
/// ends — the same shape a materialized
/// [`Timetable`](crate::timetable::Timetable) would have.
struct MergedWindows<'a> {
    base: &'a [TimeWindow],
    extra: &'a [TimeWindow],
    i: usize,
    j: usize,
}

impl MergedWindows<'_> {
    fn peek(&self) -> Option<TimeWindow> {
        match (self.base.get(self.i), self.extra.get(self.j)) {
            (Some(&a), Some(&b)) => Some(if a.start() <= b.start() { a } else { b }),
            (Some(&a), None) => Some(a),
            (None, Some(&b)) => Some(b),
            (None, None) => None,
        }
    }

    fn advance(&mut self) {
        match (self.base.get(self.i), self.extra.get(self.j)) {
            (Some(a), Some(b)) => {
                if a.start() <= b.start() {
                    self.i += 1;
                } else {
                    self.j += 1;
                }
            }
            (Some(_), None) => self.i += 1,
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

    /// The first base and tentative indices whose windows end after `t`,
    /// galloping from the node's cursor, forward or backward, and
    /// bisecting from scratch only when the node has none. The refreshed
    /// cursor is stored back for the next query.
    fn cursor_at(&self, node: NodeId, t: SimTime) -> (usize, usize) {
        let base = self.base.windows(node);
        let extra = self.tentative[node.index()].as_slice();
        let cell = &self.cursor[node.index()];
        let at = match cell.get() {
            Some((i, j)) => (
                first_ending_after_near(base, i, t),
                first_ending_after_near(extra, j, t),
            ),
            None => (
                base.partition_point(|w| w.end() <= t),
                extra.partition_point(|w| w.end() <= t),
            ),
        };
        cell.set(Some(at));
        at
    }

    /// Merged base + tentative walk starting at the first windows ending
    /// after `t` (see [`TimetableOverlay::cursor_at`]).
    fn merged_after(&self, node: NodeId, t: SimTime) -> MergedWindows<'_> {
        let (i, j) = self.cursor_at(node, t);
        MergedWindows {
            base: self.base.windows(node),
            extra: &self.tentative[node.index()],
            i,
            j,
        }
    }

    /// The first base or tentative window overlapping `window`, if any.
    #[must_use]
    pub fn first_conflict(&self, node: NodeId, window: TimeWindow) -> Option<TimeWindow> {
        // Mirrors `Timetable::first_conflict`: only the first reservation
        // ending after `window.start()` can overlap — later ones start at
        // or after its end.
        self.merged_after(node, window.start())
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
        if self.base.windows(node).len() >= self.base.inner.index_floor {
            self.earliest_fit_indexed(node, not_before, duration, deadline)
        } else {
            let mut stats = self.index_stats.get();
            stats.bypasses += 1;
            self.index_stats.set(stats);
            self.earliest_fit_linear(node, not_before, duration, deadline)
        }
    }

    /// The indexed path: the base layer answers through the snapshot's
    /// [`GapIndex`](crate::gap_index::GapIndex) in O(log B); the
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
    /// most `tentative + 1` rounds of O(log B + log T).
    fn earliest_fit_indexed(
        &self,
        node: NodeId,
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        let (mut i, mut j) = self.cursor_at(node, not_before);
        let calendar = self.base.calendar(node);
        let mut built = false;
        let gap = calendar.gap_index_tracked(&mut built);
        let mut stats = self.index_stats.get();
        stats.seeks += 1;
        stats.builds += u64::from(built);
        self.index_stats.set(stats);
        let base = calendar.windows();
        let tentative = self.tentative[node.index()].as_slice();
        let mut candidate = not_before;
        loop {
            // A base-only start past the deadline ends the probe: the
            // merged answer is no earlier, which matches the linear
            // walk's early exit because candidates only move forward.
            let s = gap.earliest_fit_at(base, i, candidate, duration, deadline)?;
            let end = s.saturating_add(duration);
            j = first_ending_after_from(tentative, j, s);
            match tentative.get(j) {
                Some(w) if w.start() < end => {
                    candidate = w.end();
                    i = first_ending_after_from(base, i, candidate);
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
        not_before: SimTime,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        let mut merged = self.merged_after(node, not_before);
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
    /// pool it came from are never touched. Clears the node's cursor: the
    /// insert shifts the tentative indices after it.
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
        self.cursor[node.index()].set(None);
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
                first_ending_after_near(&ws, near, t),
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
        // A repeat probe seeks again; only the first built the index.
        let _ = a.earliest_fit(node, t(0), d(2), SimTime::MAX);
        let sa = a.take_index_stats();
        assert_eq!((sa.seeks, sa.builds, sa.bypasses), (2, 1, 0));
        // Sibling overlay on the same snapshot: the index is shared and
        // already built.
        let _ = b.earliest_fit(node, t(1), d(3), SimTime::MAX);
        let sb = b.take_index_stats();
        assert_eq!((sb.seeks, sb.builds, sb.bypasses), (1, 0, 0));
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
        assert_eq!((s.seeks, s.builds), (1, 1));
    }
}
