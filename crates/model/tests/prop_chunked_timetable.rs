//! Differential property suite for the chunked, copy-on-write
//! [`Timetable`].
//!
//! A timetable stores its windows in chunks of at most
//! [`CHUNK_CAPACITY`], shared by reference with the calendars frozen from
//! it. These tests run random mixes of every write (`reserve`, `release`,
//! `release_job`, `void_tasks_within`, `extend_sorted`) against a flat
//! sorted `Vec` reference, on calendars large enough that chunks split
//! and are emptied. They check that:
//! - every write returns what the reference returns and leaves the same
//!   reservations, owners included;
//! - calendars captured between writes keep their windows;
//! - a capture after one `reserve`, or after one `release` from 100k
//!   windows, shares every chunk but the touched one with the capture
//!   before it;
//! - overlay probes, whose walk crosses packed chunks through the
//!   calendar's gap index, equal the linear walk and the cold flat
//!   index, on random calendars and at 1, B − 1, B, B + 1, 2B + 1 and
//!   100k windows.

use std::cell::Cell;
use std::sync::Arc;

use gridsched_model::availability::TimetableOverlay;
use gridsched_model::gap_index::GapIndex;
use gridsched_model::ids::{DomainId, GlobalTaskId, JobId, NodeId, TaskId};
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::Perf;
use gridsched_model::timetable::{
    NodeCalendar, Reservation, ReservationOwner, Timetable, CHUNK_CAPACITY,
};
use gridsched_model::window::TimeWindow;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::{SimDuration, SimTime};

/// The ticks the generated windows live in: wide enough for several
/// hundred windows, so calendars span many chunks.
const SPAN: u64 = 3_000;

fn win(a: u64, b: u64) -> TimeWindow {
    TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
}

fn task(job: u64, t: u32) -> ReservationOwner {
    ReservationOwner::Task(GlobalTaskId {
        job: JobId::new(job),
        task: TaskId::new(t),
    })
}

fn gen_owner(g: &mut Gen) -> ReservationOwner {
    match g.u64_in(0, 3) {
        0 => ReservationOwner::Background(g.u64_in(0, 50)),
        1 => ReservationOwner::Transfer(g.u64_in(0, 50)),
        _ => task(g.u64_in(0, 3), g.u64_in(0, 9) as u32),
    }
}

fn gen_window(g: &mut Gen) -> TimeWindow {
    let start = g.u64_in(0, SPAN);
    win(start, start + g.u64_in(1, 6))
}

fn gen_probe(g: &mut Gen) -> (SimTime, SimDuration, SimTime) {
    let not_before = SimTime::from_ticks(g.u64_in(0, SPAN + 20));
    let duration = SimDuration::from_ticks(if g.chance(0.1) { 0 } else { g.u64_in(1, 12) });
    let deadline = if g.chance(0.3) {
        SimTime::MAX
    } else {
        not_before.saturating_add(SimDuration::from_ticks(g.u64_in(0, 400)))
    };
    (not_before, duration, deadline)
}

/// One reservation of the flat reference: `(window, owner)`.
type Row = (TimeWindow, ReservationOwner);

/// The flat reference: every reservation in one sorted `Vec`, each write
/// a plain insert or retain.
#[derive(Default)]
struct Flat {
    rows: Vec<Row>,
}

impl Flat {
    fn windows(&self) -> Vec<TimeWindow> {
        self.rows.iter().map(|r| r.0).collect()
    }

    fn reserve(&mut self, w: TimeWindow, owner: ReservationOwner) -> bool {
        if self.rows.iter().any(|r| r.0.overlaps(w)) {
            return false;
        }
        let at = self.rows.partition_point(|r| r.0.start() < w.start());
        self.rows.insert(at, (w, owner));
        true
    }

    fn remove_where(&mut self, hit: impl Fn(&Row) -> bool) -> Vec<Row> {
        let (out, kept) = self.rows.iter().partition(|r| hit(r));
        self.rows = kept;
        out
    }
}

fn row(r: &Reservation) -> Row {
    (r.window(), r.owner())
}

fn rows(tt: &Timetable) -> Vec<Row> {
    tt.iter().map(|r| row(&r)).collect()
}

/// An overlay with no tentative windows over a one-node pool holding a
/// copy of `tt` (sharing its chunks).
fn overlay_of(tt: &Timetable) -> (TimetableOverlay, NodeId) {
    let mut pool = ResourcePool::new();
    let node = pool.add_node(DomainId::new(0), Perf::FULL);
    *pool.timetable_mut(node) = tt.clone();
    (TimetableOverlay::new(pool.snapshot()), node)
}

fn freeze(tt: &Timetable) -> Arc<NodeCalendar> {
    let mut froze = false;
    Arc::clone(tt.calendar_tracked(&mut froze))
}

/// How many of `after`'s chunks are shared, by pointer, with `before`.
fn shared_chunks(before: &NodeCalendar, after: &NodeCalendar) -> usize {
    after
        .chunks()
        .iter()
        .filter(|a| before.chunks().iter().any(|b| Arc::ptr_eq(a, b)))
        .count()
}

/// A batch of windows in start order that overlap neither each other nor
/// `flat`, owned by one job so that releasing it can empty whole chunks.
fn gen_batch(g: &mut Gen, flat: &Flat) -> Vec<(TimeWindow, ReservationOwner)> {
    let job = g.u64_in(0, 3);
    let mut at = g.u64_in(0, SPAN);
    let mut batch = Vec::new();
    for t in 0..g.usize_in(0, 2 * CHUNK_CAPACITY) {
        let w = win(at, at + g.u64_in(1, 4));
        at = w.end().ticks() + g.u64_in(0, 3);
        if !flat.rows.iter().any(|r| r.0.overlaps(w)) {
            let owner = if g.chance(0.8) {
                task(job, t as u32)
            } else {
                ReservationOwner::Background(t as u64)
            };
            batch.push((w, owner));
        }
    }
    batch
}

/// Random write mixes against the flat reference. Calendars hold up to
/// several hundred windows, so chunks split, and whole-job releases and
/// wide voids empty them; every capture taken on the way keeps its
/// windows to the end.
#[test]
fn random_writes_match_a_flat_reference() {
    let splits = Cell::new(0usize);
    let emptied = Cell::new(0usize);
    check(96, |g| {
        let mut tt = Timetable::new();
        let mut flat = Flat::default();
        let mut captures: Vec<(Arc<NodeCalendar>, Vec<TimeWindow>)> = Vec::new();
        for _ in 0..g.usize_in(10, 60) {
            let chunks_before = freeze(&tt).chunks().len();
            match g.u64_in(0, 9) {
                0..=3 => {
                    let w = gen_window(g);
                    let owner = gen_owner(g);
                    let got = tt.reserve(w, owner).is_ok();
                    assert_eq!(got, flat.reserve(w, owner), "reserve {w}");
                }
                4 => {
                    // A held pair, or one that differs from it in its
                    // owner or end, or a random pair: mostly absent.
                    let (w, owner) = if flat.rows.is_empty() || g.chance(0.2) {
                        (gen_window(g), gen_owner(g))
                    } else {
                        let (w, owner) = *g.pick(&flat.rows);
                        match g.u64_in(0, 5) {
                            0 => (w, gen_owner(g)),
                            1 => (win(w.start().ticks(), w.end().ticks() + 1), owner),
                            _ => (w, owner),
                        }
                    };
                    let got = tt.release(w, owner);
                    let want = flat.remove_where(|r| *r == (w, owner));
                    assert_eq!(got.as_ref().map(row), want.first().copied(), "release {w}");
                }
                5 | 6 => {
                    let job = g.u64_in(0, 3);
                    let got = tt.release_job(JobId::new(job));
                    let want = flat.remove_where(|r| {
                        matches!(r.1, ReservationOwner::Task(gid) if gid.job == JobId::new(job))
                    });
                    let got: Vec<Row> = got.iter().map(row).collect();
                    assert_eq!(got, want, "release_job {job}");
                }
                7 => {
                    let start = g.u64_in(0, SPAN);
                    let w = win(start, start + g.u64_in(1, SPAN / 4));
                    let got = tt.void_tasks_within(w);
                    let want = flat.remove_where(|r| {
                        matches!(r.1, ReservationOwner::Task(_)) && r.0.overlaps(w)
                    });
                    let got: Vec<Row> = got.iter().map(row).collect();
                    assert_eq!(got, want, "void_tasks_within {w}");
                }
                _ => {
                    let batch = gen_batch(g, &flat);
                    for &(w, owner) in &batch {
                        assert!(flat.reserve(w, owner), "the batch is free");
                    }
                    tt.extend_sorted(batch);
                }
            }
            assert_eq!(rows(&tt), flat.rows, "same reservations, owners included");
            assert_eq!(tt.len(), flat.rows.len());
            let calendar = freeze(&tt);
            assert!(calendar
                .chunks()
                .iter()
                .all(|c| !c.windows().is_empty() && c.windows().len() <= CHUNK_CAPACITY));
            let chunks_after = calendar.chunks().len();
            splits.set(splits.get() + usize::from(chunks_after > chunks_before));
            emptied.set(emptied.get() + usize::from(chunks_after < chunks_before));
            if g.chance(0.3) {
                captures.push((Arc::clone(&calendar), flat.windows()));
            }
            let reference = flat.windows();
            let index = GapIndex::build(&reference);
            let (overlay, node) = overlay_of(&tt);
            for _ in 0..4 {
                let (not_before, duration, deadline) = gen_probe(g);
                let want = index.earliest_fit(&reference, not_before, duration, deadline);
                assert_eq!(
                    overlay.earliest_fit(node, not_before, duration, deadline),
                    want,
                    "overlay probe ({not_before}, {duration}, {deadline})"
                );
                assert_eq!(
                    tt.earliest_fit(not_before, duration, deadline),
                    want,
                    "linear probe ({not_before}, {duration}, {deadline})"
                );
            }
        }
        for (calendar, windows) in &captures {
            assert_eq!(
                &calendar.windows().collect::<Vec<_>>(),
                windows,
                "a capture keeps its windows through later writes"
            );
        }
    });
    assert!(splits.get() > 0, "some write split a chunk");
    assert!(emptied.get() > 0, "some write emptied a chunk");
}

/// A capture after one `reserve` shares every chunk but the one the
/// reserve touched, which split or not; the capture before it keeps its
/// own copy of that chunk.
#[test]
fn a_capture_after_one_reserve_shares_every_untouched_chunk() {
    check(128, |g| {
        let mut tt = Timetable::new();
        let mut at = 0;
        tt.extend_sorted((0..g.usize_in(1, 6 * CHUNK_CAPACITY)).map(|i| {
            let w = win(at, at + g.u64_in(1, 3));
            at = w.end().ticks() + g.u64_in(0, 3);
            (w, ReservationOwner::Background(i as u64))
        }));
        for _ in 0..8 {
            let before = freeze(&tt);
            let before_windows: Vec<TimeWindow> = before.windows().collect();
            let start = g.u64_in(0, at + 5);
            let Ok(_) = tt.reserve(win(start, start + 1), task(1, 0)) else {
                continue;
            };
            let after = freeze(&tt);
            let shared = shared_chunks(&before, &after);
            assert_eq!(
                shared,
                before.chunks().len() - 1,
                "every chunk but the touched one is shared"
            );
            let fresh = after.chunks().len() - shared;
            assert!(
                fresh == 1 || fresh == 2,
                "the touched chunk is one copy, or two after a split"
            );
            assert_eq!(
                before.windows().collect::<Vec<_>>(),
                before_windows,
                "the earlier capture is unchanged"
            );
        }
    });
}

/// A release from a frozen 100k-window calendar copies only that
/// window's chunk: the capture after it shares every other chunk with
/// the capture before, which keeps the window. Releasing it again
/// misses and keeps the new frozen calendar.
#[test]
fn a_capture_after_one_release_shares_every_untouched_chunk() {
    check(2, |g| {
        let (mut tt, windows, _) = packed(100_000, g);
        let mut picked: Vec<usize> = (0..4).map(|_| g.usize_in(0, windows.len() - 1)).collect();
        picked.sort_unstable();
        picked.dedup();
        for i in picked {
            let owner = ReservationOwner::Background(i as u64);
            let before = freeze(&tt);
            let released = tt.release(windows[i], owner).expect("the window is held");
            assert_eq!(row(&released), (windows[i], owner));
            let after = freeze(&tt);
            assert_eq!(after.chunks().len(), before.chunks().len());
            assert_eq!(
                shared_chunks(&before, &after),
                before.chunks().len() - 1,
                "every chunk but the touched one is shared"
            );
            assert!(
                before.windows().any(|w| w == windows[i]),
                "the earlier capture keeps the window"
            );
            assert!(tt.release(windows[i], owner).is_none());
            assert!(
                Arc::ptr_eq(&after, &freeze(&tt)),
                "a missed release keeps the frozen calendar"
            );
        }
    });
}

/// A calendar of `n` windows built in time order through the bulk path:
/// gaps of 0–10 ticks between windows of 3–12 ticks, so a slot wider than
/// every gap crosses the whole calendar.
fn packed(n: usize, g: &mut Gen) -> (Timetable, Vec<TimeWindow>, u64) {
    let mut windows = Vec::with_capacity(n);
    let mut end = 0;
    for _ in 0..n {
        let start = end + g.u64_in(0, 10);
        end = start + g.u64_in(3, 12);
        windows.push(win(start, end));
    }
    let tt = Timetable::from_sorted(
        windows
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, ReservationOwner::Background(i as u64))),
    );
    (tt, windows, end)
}

/// Overlay probes, with and without tentative windows, equal the linear
/// walk over the materialized union and the cold flat index at the
/// chunk-boundary sizes 1, B − 1, B, B + 1, 2B + 1, for packed chunks
/// (the bulk path) and for chunks left half full by splits (one reserve
/// per window, in random order).
#[test]
fn indexed_probes_match_the_linear_walk_at_chunk_boundaries() {
    let b = CHUNK_CAPACITY;
    check(48, |g| {
        for n in [1, b - 1, b, b + 1, 2 * b + 1] {
            let (bulk, windows, end) = packed(n, g);
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, g.usize_in(0, i));
            }
            let mut split = Timetable::new();
            for &i in &order {
                split
                    .reserve(windows[i], ReservationOwner::Background(i as u64))
                    .expect("the windows are disjoint");
            }
            for tt in [bulk, split] {
                let (bare, node) = overlay_of(&tt);
                let (mut on, _) = overlay_of(&tt);
                let mut union = tt.clone();
                for _ in 0..3 {
                    let start = g.u64_in(0, end + 5);
                    let w = win(start, start + g.u64_in(1, 4));
                    let ok = on.reserve_window(node, w).is_ok();
                    let union_ok = union.reserve(w, ReservationOwner::Background(0)).is_ok();
                    assert_eq!(ok, union_ok, "reserve {w}");
                }
                let flat: Vec<TimeWindow> = union.iter().map(|r| r.window()).collect();
                let cold = GapIndex::build(&flat);
                for _ in 0..24 {
                    let not_before = SimTime::from_ticks(g.u64_in(0, end + 5));
                    let duration = SimDuration::from_ticks(g.u64_in(1, 14));
                    let deadline = if g.chance(0.3) {
                        SimTime::MAX
                    } else {
                        not_before.saturating_add(SimDuration::from_ticks(g.u64_in(0, 300)))
                    };
                    let probe = format!("n={n} probe=({not_before}, {duration}, {deadline})");
                    assert_eq!(
                        bare.earliest_fit(node, not_before, duration, deadline),
                        tt.earliest_fit(not_before, duration, deadline),
                        "{probe}"
                    );
                    let answer = on.earliest_fit(node, not_before, duration, deadline);
                    assert_eq!(
                        answer,
                        union.earliest_fit(not_before, duration, deadline),
                        "{probe}"
                    );
                    assert_eq!(
                        answer,
                        cold.earliest_fit(&flat, not_before, duration, deadline),
                        "{probe}"
                    );
                }
            }
        }
    });
}

/// The same differential at the scale the index is for: 100k windows,
/// slots wider than every gap from early starts (the walk crosses the
/// whole calendar), short slots from anywhere, and clipped deadlines.
#[test]
fn indexed_probes_match_the_linear_walk_at_100k_windows() {
    check(2, |g| {
        let (tt, windows, end) = packed(100_000, g);
        let (overlay, node) = overlay_of(&tt);
        assert_eq!(overlay.base().calendar(node).len(), windows.len());
        let cold = GapIndex::build(&windows);
        let max_gap = windows
            .windows(2)
            .map(|p| p[1].start().ticks() - p[0].end().ticks())
            .max()
            .unwrap_or(0);
        for _ in 0..64 {
            let (not_before, duration) = if g.chance(0.5) {
                (g.u64_in(0, end / 50), max_gap + 1)
            } else {
                (g.u64_in(0, end), g.u64_in(1, 16))
            };
            let (not_before, duration) = (
                SimTime::from_ticks(not_before),
                SimDuration::from_ticks(duration),
            );
            let deadline = if g.chance(0.5) {
                SimTime::MAX
            } else {
                SimTime::from_ticks(g.u64_in(0, end + 100))
            };
            let answer = overlay.earliest_fit(node, not_before, duration, deadline);
            let probe = format!("probe=({not_before}, {duration}, {deadline})");
            assert_eq!(
                answer,
                tt.earliest_fit(not_before, duration, deadline),
                "{probe}"
            );
            assert_eq!(
                answer,
                cold.earliest_fit(&windows, not_before, duration, deadline),
                "{probe}"
            );
        }
    });
}

/// Chunk sizes follow the two write paths: the bulk path packs full
/// chunks, appends in time order keep them full, and a write into a full
/// chunk in the middle splits it in half.
#[test]
fn chunks_pack_on_bulk_and_append_and_split_in_half_in_the_middle() {
    let b = CHUNK_CAPACITY;
    let windows: Vec<TimeWindow> = (0..2 * b as u64 + 1)
        .map(|i| win(4 * i, 4 * i + 2))
        .collect();
    let sizes = |tt: &Timetable| -> Vec<usize> {
        freeze(tt)
            .chunks()
            .iter()
            .map(|c| c.windows().len())
            .collect()
    };
    let bulk = Timetable::from_sorted(
        windows
            .iter()
            .map(|&w| (w, ReservationOwner::Background(0))),
    );
    assert_eq!(sizes(&bulk), vec![b, b, 1]);
    let mut appended = Timetable::new();
    for &w in &windows {
        appended
            .reserve(w, ReservationOwner::Background(0))
            .unwrap();
    }
    assert_eq!(sizes(&appended), vec![b, b, 1]);
    let mut middle = bulk.clone();
    middle.reserve(win(3, 4), task(0, 0)).unwrap();
    // The overflowing chunk holds b + 1 windows and splits at its middle.
    let overflowing = b + 1;
    let lower = overflowing / 2;
    let upper = overflowing - lower;
    assert_eq!(sizes(&middle), vec![lower, upper, b, 1]);
    assert_eq!(sizes(&bulk), vec![b, b, 1], "the clone's write is its own");
    // Releasing the task shrinks the lower half; releasing the tail
    // window drops its chunk.
    assert_eq!(middle.release_job(JobId::new(0)).len(), 1);
    let last = middle.iter().last().unwrap();
    middle.release(last.window(), last.owner()).unwrap();
    assert_eq!(sizes(&middle), vec![lower - 1, upper, b]);
}

/// The two-way gallop used by the overlay cursor is also the chunk-level
/// seek: from any hint position, forward or backward, the calendar seek
/// lands where a cold seek does — checked through overlay probes whose
/// `not_before` jumps both ways across chunk boundaries.
#[test]
fn cursor_seeks_cross_chunks_both_ways() {
    check(64, |g| {
        let (tt, _, end) = packed(g.usize_in(1, 5 * CHUNK_CAPACITY), g);
        let mut pool = ResourcePool::new();
        let node: NodeId = pool.add_node(DomainId::new(0), Perf::FULL);
        *pool.timetable_mut(node) = tt;
        let snapshot = pool.snapshot();
        let warm = TimetableOverlay::new(snapshot.clone());
        for _ in 0..32 {
            let (not_before, duration, deadline) = (
                SimTime::from_ticks(g.u64_in(0, end + 5)),
                SimDuration::from_ticks(g.u64_in(1, 12)),
                SimTime::MAX,
            );
            let cold = TimetableOverlay::new(snapshot.clone());
            assert_eq!(
                warm.earliest_fit(node, not_before, duration, deadline),
                cold.earliest_fit(node, not_before, duration, deadline)
            );
            assert_eq!(
                warm.first_conflict(node, win(not_before.ticks(), not_before.ticks() + 1)),
                cold.first_conflict(node, win(not_before.ticks(), not_before.ticks() + 1))
            );
        }
    });
}
