//! Differential property tests: a [`TimetableOverlay`] over a snapshot
//! must answer exactly like a materialized cloned [`Timetable`] holding
//! the union of base and tentative reservations.
//!
//! This is the equivalence the planning-session refactor rests on: the
//! critical-works method used to plan against per-scenario `Timetable`
//! clones; it now plans against copy-on-write overlays, and bit-identical
//! strategies require bit-identical availability answers.

use gridsched_model::availability::{ProbeConfig, TimetableOverlay};
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

/// The node cursor both probe paths resume from is invisible: with the
/// gap index engaged on every calendar and with it never engaged, a warm
/// overlay answers `earliest_fit` and `first_conflict` exactly like the
/// materialized clone, on query sequences whose `not_before` moves
/// forward and backward, interleaved with `reserve_window`.
#[test]
fn cursor_survives_backward_queries_and_mutations_on_both_paths() {
    check(128, |g| {
        for index_floor in [0, usize::MAX] {
            let mut pool = ResourcePool::new();
            pool.set_probe_config(ProbeConfig { index_floor });
            let node = pool.add_node(DomainId::new(0), Perf::FULL);
            for (i, w) in g.vec_of(0, 14, gen_window).into_iter().enumerate() {
                let _ = pool
                    .timetable_mut(node)
                    .reserve(w, ReservationOwner::Background(i as u64));
            }
            let mut clone = pool.timetable(node).clone();
            let mut overlay = TimetableOverlay::new(pool.snapshot());
            let mut from = g.u64_in(0, 200);
            for step in 0..30 {
                match g.usize_in(0, 5) {
                    0 | 1 => {
                        let w = gen_window(g);
                        let ok = overlay.reserve_window(node, w).is_ok();
                        let clone_ok = clone
                            .reserve(w, ReservationOwner::Background(100 + step))
                            .is_ok();
                        assert_eq!(ok, clone_ok, "reserve acceptance diverged on {w}");
                    }
                    _ => {
                        from = if g.chance(0.3) {
                            from.saturating_sub(g.u64_in(0, 80))
                        } else {
                            from + g.u64_in(0, 25)
                        };
                        let f = SimTime::from_ticks(from);
                        let duration = SimDuration::from_ticks(g.u64_in(0, 25));
                        let deadline = SimTime::from_ticks(g.u64_in(0, 400));
                        assert_eq!(
                            overlay.earliest_fit(node, f, duration, deadline),
                            clone.earliest_fit(f, duration, deadline),
                            "floor {index_floor}: earliest_fit diverged \
                             from={f} dur={duration} dl={deadline}"
                        );
                        let probe = gen_window(g);
                        assert_eq!(
                            overlay.first_conflict(node, probe),
                            clone.first_conflict(probe).map(|r| r.window()),
                            "floor {index_floor}: first_conflict diverged on {probe}"
                        );
                    }
                }
            }
        }
    });
}
