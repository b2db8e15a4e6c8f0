//! Differential property tests: a [`TimetableOverlay`] over a snapshot
//! must answer exactly like a materialized cloned [`Timetable`] holding
//! the union of base and tentative reservations.
//!
//! This is the equivalence the planning-session refactor rests on: the
//! critical-works method used to plan against per-scenario `Timetable`
//! clones; it now plans against copy-on-write overlays, and bit-identical
//! strategies require bit-identical availability answers.

use gridsched_model::availability::TimetableOverlay;
use gridsched_model::ids::{DomainId, NodeId};
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::Perf;
use gridsched_model::timetable::{ReservationOwner, Timetable};
use gridsched_model::window::TimeWindow;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::{SimDuration, SimTime};

fn gen_window(g: &mut Gen) -> TimeWindow {
    let start = g.u64_in(0, 199);
    let len = g.u64_in(1, 19);
    TimeWindow::new(SimTime::from_ticks(start), SimTime::from_ticks(start + len)).expect("len >= 1")
}

/// A random pool state plus an overlay/clone pair driven by the same
/// reservation attempts: base reservations land in the pool before the
/// snapshot, tentative ones go to the overlay and to the clone.
struct Fixture {
    node: NodeId,
    overlay: TimetableOverlay,
    clone: Timetable,
}

fn build(g: &mut Gen) -> Fixture {
    let mut pool = ResourcePool::new();
    let node = pool.add_node(DomainId::new(0), Perf::FULL);
    for (i, w) in g.vec_of(0, 14, gen_window).into_iter().enumerate() {
        let _ = pool
            .timetable_mut(node)
            .reserve(w, ReservationOwner::Background(i as u64));
    }
    // The clone is the pre-refactor materialization: a full copy of the
    // node's calendar that tentative reservations are committed into.
    let mut clone = pool.timetable(node).clone();
    let mut overlay = TimetableOverlay::new(pool.snapshot());
    for (i, w) in g.vec_of(0, 14, gen_window).into_iter().enumerate() {
        let via_overlay = overlay.reserve_window(node, w);
        let via_clone = clone.reserve(w, ReservationOwner::Background(100 + i as u64));
        assert_eq!(
            via_overlay.is_err(),
            via_clone.is_err(),
            "reserve acceptance diverged on {w}"
        );
        if let (Err(o), Err(c)) = (via_overlay, via_clone) {
            assert_eq!(o.requested, c.requested(), "conflict request diverged");
            assert_eq!(o.existing, c.existing(), "conflict window diverged");
        }
    }
    Fixture {
        node,
        overlay,
        clone,
    }
}

#[test]
fn is_free_and_first_conflict_match_materialized_clone() {
    check(256, |g| {
        let f = build(g);
        for _ in 0..20 {
            let w = gen_window(g);
            assert_eq!(
                f.overlay.is_free(f.node, w),
                f.clone.is_free(w),
                "is_free diverged on {w}"
            );
            assert_eq!(
                f.overlay.first_conflict(f.node, w),
                f.clone.first_conflict(w).map(|r| r.window()),
                "first_conflict diverged on {w}"
            );
        }
    });
}

#[test]
fn earliest_fit_matches_materialized_clone() {
    check(256, |g| {
        let f = build(g);
        for _ in 0..20 {
            let from = SimTime::from_ticks(g.u64_in(0, 220));
            let duration = SimDuration::from_ticks(g.u64_in(0, 25));
            let deadline = SimTime::from_ticks(g.u64_in(0, 400));
            assert_eq!(
                f.overlay.earliest_fit(f.node, from, duration, deadline),
                f.clone.earliest_fit(from, duration, deadline),
                "earliest_fit diverged from={from} dur={duration} dl={deadline}"
            );
        }
    });
}

/// The overlay's per-node cursor must be invisible: a *warm* overlay —
/// whose cursors were moved by earlier queries — answers exactly like a
/// freshly built overlay with the same tentative state and no cursor yet,
/// across arbitrary interleavings of `reserve_window` and queries.
#[test]
fn warm_queries_match_cold_recompute_after_reserve_interleavings() {
    check(128, |g| {
        let mut pool = ResourcePool::new();
        let node = pool.add_node(DomainId::new(0), Perf::FULL);
        for (i, w) in g.vec_of(0, 10, gen_window).into_iter().enumerate() {
            let _ = pool
                .timetable_mut(node)
                .reserve(w, ReservationOwner::Background(i as u64));
        }
        let snapshot = pool.snapshot();
        let mut warm = TimetableOverlay::new(snapshot.clone());
        let mut committed: Vec<TimeWindow> = Vec::new();
        for _ in 0..25 {
            // Mutate: a random reserve attempt (most of a busy calendar's
            // attempts conflict and must leave the cursor usable).
            let w = gen_window(g);
            if warm.reserve_window(node, w).is_ok() {
                committed.push(w);
            }
            // Query with monotonically increasing `from` (the pattern the
            // allocator's DP produces — what the cursor accelerates),
            // then re-ask one query verbatim.
            let mut cold = TimetableOverlay::new(snapshot.clone());
            for &w in &committed {
                cold.reserve_window(node, w)
                    .expect("committed windows are mutually conflict-free");
            }
            let mut from = 0u64;
            let mut last_query = None;
            for _ in 0..6 {
                from += g.u64_in(0, 45);
                let f = SimTime::from_ticks(from);
                let duration = SimDuration::from_ticks(g.u64_in(0, 25));
                let deadline = SimTime::from_ticks(g.u64_in(0, 400));
                assert_eq!(
                    warm.earliest_fit(node, f, duration, deadline),
                    cold.earliest_fit(node, f, duration, deadline),
                    "warm earliest_fit diverged from cold recompute \
                     (from={f} dur={duration} dl={deadline})"
                );
                let probe = gen_window(g);
                assert_eq!(
                    warm.is_free(node, probe),
                    cold.is_free(node, probe),
                    "warm is_free diverged on {probe}"
                );
                last_query = Some((f, duration, deadline));
            }
            if let Some((f, duration, deadline)) = last_query {
                assert_eq!(
                    warm.earliest_fit(node, f, duration, deadline),
                    cold.earliest_fit(node, f, duration, deadline),
                    "repeated query diverged"
                );
            }
        }
    });
}

/// A dense calendar of many chunks: short windows mostly 0–2 ticks
/// apart, with a few wide gaps, so probes longer than the packed gaps
/// cross whole chunks through the gap index.
fn gen_dense(g: &mut Gen) -> Timetable {
    let mut at = 0;
    let batch: Vec<_> = (0..g.usize_in(130, 400))
        .map(|i| {
            let start = at
                + if g.chance(0.02) {
                    g.u64_in(5, 30)
                } else {
                    g.u64_in(0, 2)
                };
            at = start + g.u64_in(1, 4);
            let w = TimeWindow::new(SimTime::from_ticks(start), SimTime::from_ticks(at))
                .expect("len >= 1");
            (w, ReservationOwner::Background(i as u64))
        })
        .collect();
    Timetable::from_sorted(batch)
}

/// The node cursor the probe walk resumes from is invisible on both paths
/// a probe takes through a calendar: the plain walk over a sparse
/// one-chunk calendar, and the chunk skip over a dense calendar of many
/// packed chunks. A warm overlay answers `earliest_fit` and
/// `first_conflict` exactly like the materialized clone, on query
/// sequences whose `not_before` moves forward and backward, interleaved
/// with `reserve_window`.
#[test]
fn cursor_survives_backward_queries_and_mutations_on_both_paths() {
    check(128, |g| {
        for dense in [false, true] {
            let mut pool = ResourcePool::new();
            let node = pool.add_node(DomainId::new(0), Perf::FULL);
            if dense {
                *pool.timetable_mut(node) = gen_dense(g);
            } else {
                for (i, w) in g.vec_of(0, 14, gen_window).into_iter().enumerate() {
                    let _ = pool
                        .timetable_mut(node)
                        .reserve(w, ReservationOwner::Background(i as u64));
                }
            }
            // Queries and tentative windows range over the calendar.
            let span = pool
                .timetable(node)
                .iter()
                .last()
                .map_or(200, |r| r.window().end().ticks().max(200));
            let scale = span / 200;
            let mut clone = pool.timetable(node).clone();
            let mut overlay = TimetableOverlay::new(pool.snapshot());
            let mut from = g.u64_in(0, span);
            for step in 0..30 {
                match g.usize_in(0, 5) {
                    0 | 1 => {
                        let start = g.u64_in(0, span);
                        let w = TimeWindow::new(
                            SimTime::from_ticks(start),
                            SimTime::from_ticks(start + g.u64_in(1, 19)),
                        )
                        .expect("len >= 1");
                        let ok = overlay.reserve_window(node, w).is_ok();
                        let clone_ok = clone
                            .reserve(w, ReservationOwner::Background(100_000 + step))
                            .is_ok();
                        assert_eq!(ok, clone_ok, "reserve acceptance diverged on {w}");
                    }
                    _ => {
                        from = if g.chance(0.3) {
                            from.saturating_sub(g.u64_in(0, 80 * scale))
                        } else {
                            from + g.u64_in(0, 25 * scale)
                        };
                        let f = SimTime::from_ticks(from);
                        let duration = SimDuration::from_ticks(g.u64_in(0, 25));
                        let deadline = SimTime::from_ticks(g.u64_in(0, 2 * span));
                        assert_eq!(
                            overlay.earliest_fit(node, f, duration, deadline),
                            clone.earliest_fit(f, duration, deadline),
                            "dense {dense}: earliest_fit diverged \
                             from={f} dur={duration} dl={deadline}"
                        );
                        let start = g.u64_in(0, span);
                        let probe = TimeWindow::new(
                            SimTime::from_ticks(start),
                            SimTime::from_ticks(start + g.u64_in(1, 19)),
                        )
                        .expect("len >= 1");
                        assert_eq!(
                            overlay.first_conflict(node, probe),
                            clone.first_conflict(probe).map(|r| r.window()),
                            "dense {dense}: first_conflict diverged on {probe}"
                        );
                    }
                }
            }
        }
    });
}
