//! Per-node reservation calendars.
//!
//! Each processor node keeps a **timetable**: a set of non-overlapping
//! reserved wall-time windows. Application-level schedules are expressed as
//! advance reservations against these timetables (§3: the `[Start, End]`
//! interval "is treated as so called wall time, defined at the resource
//! reservation time in the local batch-job management system").
//!
//! # Chunked, copy-on-write storage
//!
//! A timetable stores its reservations in [`Chunk`]s of at most
//! [`CHUNK_CAPACITY`] consecutive windows, each behind an [`Arc`]. A chunk
//! keeps its windows contiguous (probes scan 16-byte [`TimeWindow`]s), their
//! owners beside them, its largest interior gap and its count of
//! task-owned reservations. A write finds its chunk by binary search and
//! changes only that chunk, through [`Arc::make_mut`]: in place unless a
//! frozen calendar still shares it, else one chunk copy. A chunk splits
//! when it overflows and is dropped when it empties. The bulk path
//! ([`Timetable::extend_sorted`]) stays one linear pass that packs full
//! chunks.
//!
//! A reservation has no name of its own: windows never overlap, so a
//! node, a window and an owner identify it. [`Timetable::release`] finds
//! it with the same seek a probe uses.
//!
//! A capture freezes a node into a [`NodeCalendar`] by cloning the chunk
//! list, R/B pointer bumps for R windows in chunks of B, and builds the
//! calendar's [`GapIndex`] at once over one leaf per chunk, in O(R/B).
//! The timetable keeps that calendar until its windows change, so an
//! unchanged node's next capture is one more pointer bump.

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

use gridsched_sim::time::{SimDuration, SimTime};

use crate::availability::first_ending_after_near;
use crate::gap_index::GapIndex;
use crate::ids::{GlobalTaskId, JobId};
use crate::window::TimeWindow;

/// Most windows one [`Chunk`] holds. A write that would overflow a chunk
/// splits it.
///
/// A write copies at most one chunk and a refreeze does one pointer bump
/// per chunk, so small chunks make writes cheap and large ones make
/// captures cheap; an indexed probe cost the same from 16 to 128. At 64
/// a cold capture of a 1k-window calendar takes ~0.45 µs (16: ~1.1–2.3,
/// 128: ~0.3) and a write copies 3 KB (EXPERIMENTS.md has the sweep).
pub const CHUNK_CAPACITY: usize = 64;

/// A calendar position: chunk number and offset inside that chunk. The
/// end of a calendar is `(chunk count, 0)`.
pub(crate) type Pos = (usize, usize);

/// Up to [`CHUNK_CAPACITY`] consecutive reservations of one
/// [`Timetable`], shared by reference with the calendars frozen from it.
#[derive(Debug)]
pub struct Chunk {
    /// Sorted by start, pairwise non-overlapping, never empty inside a
    /// timetable.
    windows: Vec<TimeWindow>,
    /// `owners[k]` holds `windows[k]`.
    owners: Vec<ReservationOwner>,
    /// The largest gap between two consecutive windows, in ticks.
    max_gap: u64,
    /// How many of the reservations are task-owned.
    tasks: usize,
}

impl Clone for Chunk {
    /// Copies with room for one window past capacity, so a write to the
    /// copy never reallocates before the chunk splits.
    fn clone(&self) -> Self {
        let mut copy = Chunk::new();
        copy.windows.extend_from_slice(&self.windows);
        copy.owners.extend_from_slice(&self.owners);
        copy.max_gap = self.max_gap;
        copy.tasks = self.tasks;
        copy
    }
}

/// The largest gap between consecutive windows of `ws`, 0 for fewer than
/// two. Saturating, so an overlapping batch reaches the caller's debug
/// check instead of an overflow.
fn max_interior_gap(ws: &[TimeWindow]) -> u64 {
    ws.windows(2)
        .map(|p| p[1].start().ticks().saturating_sub(p[0].end().ticks()))
        .max()
        .unwrap_or(0)
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            windows: Vec::with_capacity(CHUNK_CAPACITY + 1),
            owners: Vec::with_capacity(CHUNK_CAPACITY + 1),
            max_gap: 0,
            tasks: 0,
        }
    }

    /// The chunk's windows, in start order.
    #[must_use]
    pub fn windows(&self) -> &[TimeWindow] {
        &self.windows
    }

    fn last_end(&self) -> SimTime {
        self.windows[self.windows.len() - 1].end()
    }

    fn reservation(&self, k: usize) -> Reservation {
        Reservation {
            window: self.windows[k],
            owner: self.owners[k],
        }
    }

    fn reservations(&self, from: usize) -> impl Iterator<Item = Reservation> + '_ {
        (from..self.windows.len()).map(|k| self.reservation(k))
    }

    /// Appends a window that starts at or after the last one's end.
    fn push(&mut self, window: TimeWindow, owner: ReservationOwner) {
        if let Some(last) = self.windows.last() {
            let gap = window.start().ticks().saturating_sub(last.end().ticks());
            self.max_gap = self.max_gap.max(gap);
        }
        self.windows.push(window);
        self.owners.push(owner);
        self.tasks += usize::from(owner.is_task());
    }

    /// Removes the reservation at offset `k`.
    fn remove(&mut self, k: usize) -> Reservation {
        let removed = self.reservation(k);
        self.windows.remove(k);
        self.owners.remove(k);
        self.refresh();
        removed
    }

    /// Recomputes the cached gap and task count after an edit.
    fn refresh(&mut self) {
        self.max_gap = max_interior_gap(&self.windows);
        self.tasks = self.owners.iter().filter(|o| o.is_task()).count();
    }

    /// Inserts at offset `k`. If that overflows the chunk, splits off and
    /// returns the upper part: a chunk holding just the new window when it
    /// was appended past the end of the calendar (`at_end`), so calendars
    /// written in time order stay packed, else the upper half.
    fn insert(
        &mut self,
        k: usize,
        window: TimeWindow,
        owner: ReservationOwner,
        at_end: bool,
    ) -> Option<Chunk> {
        self.windows.insert(k, window);
        self.owners.insert(k, owner);
        if self.windows.len() <= CHUNK_CAPACITY {
            self.refresh();
            return None;
        }
        let at = if at_end {
            CHUNK_CAPACITY
        } else {
            self.windows.len() / 2
        };
        let mut upper = Chunk::new();
        for (w, o) in self.windows.drain(at..).zip(self.owners.drain(at..)) {
            upper.push(w, o);
        }
        self.refresh();
        Some(upper)
    }

    /// Removes the reservations `hit` selects, appending them to `out` in
    /// start order.
    fn remove_where(
        &mut self,
        hit: impl Fn(TimeWindow, ReservationOwner) -> bool,
        out: &mut Vec<Reservation>,
    ) {
        let mut kept = 0;
        for k in 0..self.windows.len() {
            let (window, owner) = (self.windows[k], self.owners[k]);
            if hit(window, owner) {
                out.push(Reservation { window, owner });
            } else {
                self.windows[kept] = window;
                self.owners[kept] = owner;
                kept += 1;
            }
        }
        self.windows.truncate(kept);
        self.owners.truncate(kept);
        self.refresh();
    }
}

/// The position of the first window ending after `t`.
fn seek(chunks: &[Arc<Chunk>], t: SimTime) -> Pos {
    let c = chunks.partition_point(|ch| ch.last_end() <= t);
    match chunks.get(c) {
        Some(ch) => (c, ch.windows.partition_point(|w| w.end() <= t)),
        None => (c, 0),
    }
}

/// The reservations from position `(c, k)` on, in start order.
fn reservations_from(chunks: &[Arc<Chunk>], (c, k): Pos) -> impl Iterator<Item = Reservation> + '_ {
    chunks
        .get(c..)
        .unwrap_or_default()
        .iter()
        .enumerate()
        .flat_map(move |(n, ch)| ch.reservations(if n == 0 { k } else { 0 }))
}

/// A forward walk over a chunk list's windows: the current chunk's
/// number and slice and the offset in it. Stepping is a slice index, and
/// crossing into the next chunk one compare more. At the end the walk
/// stands at `(chunk count, 0)` on an empty slice.
#[derive(Debug, Clone)]
pub(crate) struct Walk<'a> {
    chunks: &'a [Arc<Chunk>],
    c: usize,
    cur: &'a [TimeWindow],
    k: usize,
}

impl<'a> Walk<'a> {
    fn new(chunks: &'a [Arc<Chunk>], (c, k): Pos) -> Self {
        Walk {
            chunks,
            c,
            cur: chunks.get(c).map_or(&[], |ch| &ch.windows),
            k,
        }
    }

    /// The window at the walk's position, if any is left.
    pub(crate) fn peek(&self) -> Option<TimeWindow> {
        self.cur.get(self.k).copied()
    }

    /// Steps past the current window.
    fn advance(&mut self) {
        self.k += 1;
        if self.k == self.cur.len() {
            *self = Walk::new(self.chunks, (self.c + 1, 0));
        }
    }

    /// Steps past the current window, which blocks a probe for
    /// `duration`, and past each following window of the same chunk that
    /// blocks it in turn: one that starts less than `duration` after the
    /// end before it and before `stop`, where another window list cuts
    /// in. Stops early at an end too late for a start there to meet
    /// `deadline`. Returns the last end crossed, where a window by window
    /// walk would stand.
    #[inline]
    pub(crate) fn cross_run(
        &mut self,
        duration: SimDuration,
        deadline: SimTime,
        stop: SimTime,
    ) -> SimTime {
        let ws = self.cur;
        let mut end = ws[self.k].end();
        while let Some(next) = ws.get(self.k + 1) {
            if end.saturating_add(duration) > deadline
                || next.start() >= stop
                || next.start() >= end.saturating_add(duration)
            {
                break;
            }
            self.k += 1;
            end = next.end();
        }
        self.advance();
        end
    }
}

impl Iterator for Walk<'_> {
    type Item = TimeWindow;

    fn next(&mut self) -> Option<TimeWindow> {
        let w = self.peek()?;
        self.advance();
        Some(w)
    }
}

/// One node's frozen calendar: a [`Timetable`]'s chunks at one instant,
/// plus the gap index over them.
///
/// Freezing clones the timetable's chunk list, so the calendar shares
/// every chunk with the timetable until a write copies one; the index is
/// built right away, over one leaf per chunk. The timetable keeps the
/// calendar it last froze until its windows change, so every snapshot
/// capture of an unchanged node shares it ([`Timetable::calendar_tracked`]).
#[derive(Debug)]
pub struct NodeCalendar {
    chunks: Box<[Arc<Chunk>]>,
    /// `ends[c]` = the ends of chunk `c`'s first and last windows. Seeks
    /// bisect the last ends; the index search stops at the first chunk
    /// whose first end is too late for the deadline.
    ends: Box<[(SimTime, SimTime)]>,
    /// Leaf `c` is the widest gap after a window of chunk `c`: its
    /// largest interior gap or the gap to chunk `c + 1`'s first window.
    index: GapIndex,
    len: usize,
}

impl NodeCalendar {
    fn freeze(chunks: &[Arc<Chunk>], len: usize) -> Self {
        let ends = chunks
            .iter()
            .map(|ch| (ch.windows[0].end(), ch.last_end()))
            .collect();
        let index = GapIndex::from_gaps(chunks.iter().enumerate().map(|(c, ch)| {
            let to_next = chunks.get(c + 1).map_or(0, |next| {
                next.windows[0].start().ticks() - ch.last_end().ticks()
            });
            ch.max_gap.max(to_next)
        }));
        NodeCalendar {
            chunks: chunks.into(),
            ends,
            index,
            len,
        }
    }

    /// Number of frozen windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar holds no window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frozen windows, in start order.
    pub fn windows(&self) -> impl Iterator<Item = TimeWindow> + '_ {
        self.walk((0, 0))
    }

    /// The frozen chunks, shared with the timetable and with every other
    /// calendar frozen from the same chunk.
    #[must_use]
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// Approximate heap bytes the calendar holds beyond the chunks it
    /// shares with its timetable: the chunk list, the chunk ends and the
    /// gap-index tree.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.chunks.len()
            * (std::mem::size_of::<Arc<Chunk>>() + std::mem::size_of::<(SimTime, SimTime)>())
            + self.index.approx_bytes()
    }

    /// The position of the first window ending after `t`, by bisection.
    pub(crate) fn seek(&self, t: SimTime) -> Pos {
        seek(&self.chunks, t)
    }

    /// [`NodeCalendar::seek`] searched outward from the position `near`
    /// (any position of this calendar): galloping over the chunk ends,
    /// then inside the chunk found, from `near`'s offset when it is the
    /// same chunk and from the side `t` came from otherwise.
    pub(crate) fn seek_near(&self, (c0, k0): Pos, t: SimTime) -> Pos {
        // Most probes land in the chunk the last one did: every window
        // before it ends at or before `t` and its last one after.
        let stays =
            self.ends.get(c0).is_some_and(|e| e.1 > t) && (c0 == 0 || self.ends[c0 - 1].1 <= t);
        if stays {
            let ws = &self.chunks[c0].windows;
            return (c0, first_ending_after_near(ws, k0, t, |w| w.end()));
        }
        let c = first_ending_after_near(&self.ends, c0, t, |e| e.1);
        let Some(ch) = self.chunks.get(c) else {
            return (c, 0);
        };
        let hint = match c.cmp(&c0) {
            Ordering::Equal => k0,
            Ordering::Greater => 0,
            Ordering::Less => ch.windows.len(),
        };
        (
            c,
            first_ending_after_near(&ch.windows, hint, t, |w| w.end()),
        )
    }

    /// A forward walk over the windows from `at` on.
    pub(crate) fn walk(&self, at: Pos) -> Walk<'_> {
        Walk::new(&self.chunks, at)
    }

    /// The chunk skip of a probe for `duration` whose walk is blocked
    /// by the window it stands on.
    ///
    /// When no gap after a window of the walk's chunk holds `duration`
    /// (the chunk's leaf is narrower), every window from the walk's
    /// position to the chunk's end blocks the probe in turn, and so do
    /// the windows of each following chunk with as narrow a leaf, up to
    /// the first window of the first chunk whose leaf fits: a window by
    /// window walk would stand at the last end before that chunk. The
    /// skip moves the walk to that chunk in one gap-index search and
    /// returns that end. The search stops at a chunk whose first window
    /// ends too late for a start after it to meet `deadline`; the walk
    /// then goes to the calendar's end, whose last end fails the
    /// deadline too. `None`, with the walk left in place, when the
    /// chunk's leaf fits.
    #[inline]
    pub(crate) fn skip_packed<'a>(
        &'a self,
        walk: &mut Walk<'a>,
        duration: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        let need = duration.ticks();
        if self.index.gap(walk.c) >= need {
            return None;
        }
        let past = |c: usize| self.ends[c].0.saturating_add(duration) > deadline;
        let next = self
            .index
            .first_gap_at_least(walk.c + 1, need, past)
            .unwrap_or(self.chunks.len());
        *walk = self.walk((next, 0));
        Some(self.ends[next - 1].1)
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

impl ReservationOwner {
    fn is_task(self) -> bool {
        matches!(self, ReservationOwner::Task(_))
    }
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

/// One reserved window in a timetable, identified by its window and
/// owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    window: TimeWindow,
    owner: ReservationOwner,
}

impl Reservation {
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
    /// Non-empty chunks in start order; the windows of all of them,
    /// read in order, are sorted by start and pairwise non-overlapping.
    chunks: Vec<Arc<Chunk>>,
    len: usize,
    /// The calendar the last capture froze, if the windows have not
    /// changed since: filled by [`Timetable::calendar_tracked`], emptied
    /// by every window-changing mutation, empty in a clone.
    frozen: OnceLock<Arc<NodeCalendar>>,
}

impl Clone for Timetable {
    /// Shares the chunks, copy-on-write; the copy starts with no frozen
    /// calendar, so its first capture freezes its own.
    fn clone(&self) -> Self {
        Timetable {
            chunks: self.chunks.clone(),
            len: self.len,
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
            Arc::new(NodeCalendar::freeze(&self.chunks, self.len))
        })
    }

    /// The frozen calendar, if a capture has frozen one since the last
    /// window-changing mutation.
    #[must_use]
    pub fn frozen(&self) -> Option<&Arc<NodeCalendar>> {
        self.frozen.get()
    }

    /// Drops the frozen calendar before a window-changing mutation, so
    /// the chunk about to change is shared only with live snapshots, if
    /// any. Snapshots that share the calendar keep it alive until they
    /// die.
    fn thaw(&mut self) {
        self.frozen.take();
    }

    /// Number of active reservations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no reservations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over reservations in start-time order.
    pub fn iter(&self) -> impl Iterator<Item = Reservation> + '_ {
        reservations_from(&self.chunks, (0, 0))
    }

    /// Whether `window` is completely free.
    #[must_use]
    pub fn is_free(&self, window: TimeWindow) -> bool {
        self.first_conflict(window).is_none()
    }

    /// The first reservation overlapping `window`, if any.
    #[must_use]
    pub fn first_conflict(&self, window: TimeWindow) -> Option<Reservation> {
        // Only the first reservation ending after `window.start()` can
        // overlap: later ones start at or after its end.
        let (c, k) = seek(&self.chunks, window.start());
        let first = self.chunks.get(c)?.reservation(k);
        first.window.overlaps(window).then_some(first)
    }

    /// All reservations overlapping `window`, in start order.
    pub fn conflicts_with(&self, window: TimeWindow) -> impl Iterator<Item = Reservation> + '_ {
        reservations_from(&self.chunks, seek(&self.chunks, window.start()))
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
    ) -> Result<(), ReserveConflict> {
        let (c, k) = seek(&self.chunks, window.start());
        // Only the first reservation ending after `window.start()` can
        // overlap: later ones start at or after its end.
        if let Some(existing) = self
            .chunks
            .get(c)
            .map(|ch| ch.reservation(k))
            .filter(|r| r.window.overlaps(window))
        {
            return Err(ReserveConflict {
                requested: window,
                existing: existing.window,
                holder: existing.owner,
            });
        }
        self.thaw();
        // Every window before the seek position ends at or before
        // `window.start()`, and the one at it starts at or after
        // `window.end()`: the new window goes right there, or at the end
        // of the last chunk when it is later than every window.
        let (c, k) = match self.chunks.last() {
            Some(last) if c == self.chunks.len() => (c - 1, last.windows.len()),
            Some(_) => (c, k),
            None => {
                self.chunks.push(Arc::new(Chunk::new()));
                (0, 0)
            }
        };
        let at_end = c + 1 == self.chunks.len() && k == self.chunks[c].windows.len();
        let upper = Arc::make_mut(&mut self.chunks[c]).insert(k, window, owner, at_end);
        if let Some(upper) = upper {
            self.chunks.insert(c + 1, Arc::new(upper));
        }
        self.len += 1;
        debug_assert!(self.invariants_hold());
        Ok(())
    }

    /// Builds a timetable from a batch of windows already sorted by start
    /// and pairwise non-overlapping — the bulk twin of repeated
    /// [`Timetable::reserve`] calls.
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
    /// reservations. One O(existing + batch) pass that repacks the
    /// calendar into full chunks, instead of one chunk insert per window:
    /// laying down the §4 background load (~143k reservations per node at
    /// the reference scale) stays linear. The result equals sequential
    /// [`Timetable::reserve`] calls.
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
        let mut batch = batch.into_iter().peekable();
        if batch.peek().is_none() {
            return;
        }
        self.thaw();
        let old = std::mem::take(&mut self.chunks);
        let mut old_iter = reservations_from(&old, (0, 0)).peekable();
        let mut packed = Packer::default();
        for (window, owner) in batch {
            while let Some(r) = old_iter.next_if(|r| r.window.start() <= window.start()) {
                packed.push(r);
            }
            packed.push(Reservation { window, owner });
        }
        for r in old_iter {
            packed.push(r);
        }
        (self.chunks, self.len) = packed.finish();
        debug_assert!(
            self.invariants_hold(),
            "extend_sorted batch must be sorted and non-overlapping"
        );
    }

    /// Releases the reservation `owner` holds on exactly `window`,
    /// returning it. `None`, with the timetable and its frozen calendar
    /// untouched, when no reservation matches both: another owner's
    /// window, or one of this owner's that differs in either end, stays.
    pub fn release(&mut self, window: TimeWindow, owner: ReservationOwner) -> Option<Reservation> {
        // The reservation starting at `window.start()`, if any, is the
        // first one ending after it: every earlier one ends at or before.
        let (c, k) = seek(&self.chunks, window.start());
        let ch = self.chunks.get(c)?;
        if ch.windows[k] != window || ch.owners[k] != owner {
            return None;
        }
        self.thaw();
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        let released = chunk.remove(k);
        if chunk.windows.is_empty() {
            self.chunks.remove(c);
        }
        self.len -= 1;
        Some(released)
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
        let (first, _) = seek(&self.chunks, window.start());
        let last = self
            .chunks
            .partition_point(|ch| ch.windows[0].start() < window.end());
        let mut voided = Vec::new();
        self.remove_where(
            first..last.max(first),
            |w, _| w.overlaps(window),
            &mut voided,
        );
        debug_assert!(self.invariants_hold());
        voided
    }

    /// Releases every reservation held by any task of `job`; returns the
    /// removed reservations in start order. Used when a job is dropped so
    /// its entire footprint is guaranteed to leave the calendar.
    pub fn release_job(&mut self, job: JobId) -> Vec<Reservation> {
        let mut removed = Vec::new();
        self.remove_where(
            0..self.chunks.len(),
            |_, o| matches!(o, ReservationOwner::Task(GlobalTaskId { job: j, .. }) if j == job),
            &mut removed,
        );
        removed
    }

    /// Removes the task-owned reservations `hit` selects from the chunks
    /// in `range`, appending them to `out` in start order. Only chunks
    /// holding a hit change, after the calendar is thawed; chunks
    /// left empty are dropped.
    fn remove_where(
        &mut self,
        range: std::ops::Range<usize>,
        hit: impl Fn(TimeWindow, ReservationOwner) -> bool,
        out: &mut Vec<Reservation>,
    ) {
        let before = out.len();
        for c in range {
            let ch = &self.chunks[c];
            let any = ch.tasks > 0
                && ch
                    .windows
                    .iter()
                    .zip(&ch.owners)
                    .any(|(&w, &o)| o.is_task() && hit(w, o));
            if !any {
                continue;
            }
            self.thaw();
            Arc::make_mut(&mut self.chunks[c]).remove_where(|w, o| o.is_task() && hit(w, o), out);
        }
        let removed = out.len() - before;
        if removed > 0 {
            self.len -= removed;
            self.chunks.retain(|ch| !ch.windows.is_empty());
        }
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
        let mut windows = Walk::new(&self.chunks, seek(&self.chunks, not_before));
        loop {
            let end = candidate.saturating_add(duration);
            if end > deadline {
                return None;
            }
            match windows.next() {
                // Gap too small; jump past this reservation.
                Some(w) if w.start() < end => candidate = candidate.max_of(w.end()),
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
        for w in Walk::new(&self.chunks, seek(&self.chunks, range.start())) {
            if w.start() >= range.end() {
                break;
            }
            if w.start() > cursor {
                if let Ok(free) = TimeWindow::new(cursor, w.start()) {
                    out.push(free);
                }
            }
            cursor = cursor.max_of(w.end());
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
        let chunks_hold = self.chunks.iter().all(|ch| {
            !ch.windows.is_empty()
                && ch.windows.len() <= CHUNK_CAPACITY
                && ch.windows.len() == ch.owners.len()
                && ch.max_gap == max_interior_gap(&ch.windows)
                && ch.tasks == ch.owners.iter().filter(|o| o.is_task()).count()
        });
        let windows = Walk::new(&self.chunks, (0, 0));
        chunks_hold
            && self.len == self.chunks.iter().map(|ch| ch.windows.len()).sum::<usize>()
            && windows
                .clone()
                .zip(windows.skip(1))
                .all(|(a, b)| a.end() <= b.start())
    }
}

/// Packs reservations arriving in start order into full chunks: the
/// bulk path's one linear pass.
#[derive(Default)]
struct Packer {
    chunks: Vec<Arc<Chunk>>,
    open: Option<Chunk>,
    len: usize,
}

impl Packer {
    fn push(&mut self, r: Reservation) {
        let open = self.open.get_or_insert_with(Chunk::new);
        open.push(r.window, r.owner);
        self.len += 1;
        if open.windows.len() == CHUNK_CAPACITY {
            self.chunks
                .push(Arc::new(self.open.take().expect("just filled")));
        }
    }

    fn finish(mut self) -> (Vec<Arc<Chunk>>, usize) {
        self.chunks.extend(self.open.map(Arc::new));
        (self.chunks, self.len)
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
        let a: Vec<Reservation> = bulk.iter().collect();
        let b: Vec<Reservation> = seq.iter().collect();
        assert_eq!(a, b, "bulk merge == one reserve per window");
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
        tt.reserve(w(0, 10), bg(0)).unwrap();
        tt.reserve(w(12, 15), bg(1)).unwrap();
        assert!(!tt.is_free(w(2, 3)));
        // Only the exact window under its own owner matches.
        assert!(tt.release(w(0, 10), bg(1)).is_none(), "another owner");
        assert!(tt.release(w(0, 9), bg(0)).is_none(), "another end");
        assert!(tt.release(w(10, 12), bg(0)).is_none(), "a free window");
        assert!(tt.release(w(20, 30), bg(0)).is_none(), "past the end");
        assert_eq!(tt.len(), 2, "a failed release removes nothing");
        let released = tt.release(w(0, 10), bg(0)).unwrap();
        assert_eq!(released.window(), w(0, 10));
        assert_eq!(released.owner(), bg(0));
        assert!(tt.is_free(w(2, 3)));
        assert!(
            tt.release(w(0, 10), bg(0)).is_none(),
            "double release returns None"
        );
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
        // An outage blocks the voided window; releasing it as the voided
        // task misses, and the blocker stays.
        tt.reserve(w(0, 4), bg(1)).unwrap();
        assert!(tt.release(w(0, 4), owner(1)).is_none());
        assert_eq!(tt.first_conflict(w(0, 4)).map(|r| r.owner()), Some(bg(1)));
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
        let tt = Timetable::from_sorted([(w(0, 2), bg(0)), (w(5, 7), bg(1)), (w(9, 12), bg(2))]);
        let mut froze = false;
        let cal = Arc::clone(tt.calendar_tracked(&mut froze));
        assert!(froze);
        assert_eq!(cal.index.gap_count(), 1, "one leaf per chunk");
        assert_eq!(cal.index.gap(0), 3, "the leaf is the chunk's widest gap");
        let mut again = false;
        assert!(Arc::ptr_eq(tt.calendar_tracked(&mut again), &cal));
        assert!(!again, "a second capture reuses the calendar and its index");
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
