//! Differential property suite for gap-indexed probes.
//!
//! The DESIGN.md §9 contract: every query answered with the help of a
//! [`GapIndex`] is **bit-identical** to the linear reference — the
//! [`Timetable`] jump-walk for the flat index over one list, a
//! materialized base + tentative [`Timetable`] for overlay probes, whose
//! walk crosses packed chunks through the calendar's index. These tests
//! pin that contract on random reservation sets, including the
//! degenerate shapes (empty calendars, fully packed touching windows,
//! zero durations, clipped deadlines) where off-by-one descent bugs
//! live.

use gridsched_model::availability::TimetableOverlay;
use gridsched_model::gap_index::GapIndex;
use gridsched_model::ids::{DomainId, NodeId};
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::Perf;
use gridsched_model::timetable::{ReservationOwner, Timetable};
use gridsched_model::window::TimeWindow;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::{SimDuration, SimTime};

fn gen_window(g: &mut Gen) -> TimeWindow {
    let start = g.u64_in(0, 299);
    // Length 1..=19, with a bias toward tight packing: dense calendars
    // exercise the zero-capacity interior gaps of touching windows.
    let len = if g.chance(0.3) { 1 } else { g.u64_in(1, 19) };
    TimeWindow::new(SimTime::from_ticks(start), SimTime::from_ticks(start + len)).expect("len >= 1")
}

/// A random timetable built by accept/reject `reserve` attempts.
fn gen_timetable(g: &mut Gen, max_attempts: usize) -> Timetable {
    let attempts = g.vec_of(0, max_attempts, gen_window);
    let mut tt = Timetable::new();
    for (i, w) in attempts.into_iter().enumerate() {
        let _ = tt.reserve(w, ReservationOwner::Background(i as u64));
    }
    tt
}

/// A one-node pool holding `timetable`.
fn one_node_pool(timetable: Timetable) -> (ResourcePool, NodeId) {
    let mut pool = ResourcePool::new();
    let node = pool.add_node(DomainId::new(0), Perf::FULL);
    *pool.timetable_mut(node) = timetable;
    (pool, node)
}

/// A probe drawn to hit every regime: zero durations, starts beyond the
/// horizon, deadlines from impossible to unbounded.
fn gen_probe(g: &mut Gen) -> (SimTime, SimDuration, SimTime) {
    let not_before = SimTime::from_ticks(g.u64_in(0, 400));
    let duration = if g.chance(0.1) {
        SimDuration::ZERO
    } else {
        SimDuration::from_ticks(g.u64_in(1, 30))
    };
    let deadline = if g.chance(0.3) {
        SimTime::MAX
    } else {
        SimTime::from_ticks(g.u64_in(0, 500))
    };
    (not_before, duration, deadline)
}

/// Index descent == linear jump-walk on the bare timetable, for every
/// probe shape.
#[test]
fn indexed_earliest_fit_matches_linear_walk() {
    check(512, |g| {
        let tt = gen_timetable(g, 49);
        let windows: Vec<TimeWindow> = tt.iter().map(|r| r.window()).collect();
        let index = GapIndex::build(&windows);
        assert_eq!(index.gap_count(), windows.len().saturating_sub(1));
        for _ in 0..8 {
            let (not_before, duration, deadline) = gen_probe(g);
            assert_eq!(
                index.earliest_fit(&windows, not_before, duration, deadline),
                tt.earliest_fit(not_before, duration, deadline),
                "windows={windows:?} probe=({not_before}, {duration}, {deadline})"
            );
        }
    });
}

/// The same differential at the scale the index is for: calendars of
/// 100k+ windows (the §4 reference calendar holds ~143k), probed with
/// slots wider than every interior gap from early starts (the walk scans
/// to the trailing gap), short slots from anywhere, and clipped deadlines.
#[test]
fn indexed_earliest_fit_matches_linear_walk_at_100k_windows() {
    check(2, |g| {
        let count = g.usize_in(100_000, 143_000);
        let mut windows = Vec::with_capacity(count);
        let mut end = 0;
        let mut max_gap = 0;
        for i in 0..count {
            let gap = g.u64_in(0, 10);
            if i > 0 {
                max_gap = max_gap.max(gap);
            }
            let start = end + gap;
            end = start + g.u64_in(3, 12);
            windows.push(
                TimeWindow::new(SimTime::from_ticks(start), SimTime::from_ticks(end))
                    .expect("len >= 3"),
            );
        }
        let tt = Timetable::from_sorted(
            windows
                .iter()
                .enumerate()
                .map(|(i, &w)| (w, ReservationOwner::Background(i as u64))),
        );
        let index = GapIndex::build(&windows);
        for _ in 0..32 {
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
            assert_eq!(
                index.earliest_fit(&windows, not_before, duration, deadline),
                tt.earliest_fit(not_before, duration, deadline),
                "{count} windows, probe=({not_before}, {duration}, {deadline})"
            );
        }
    });
}

/// The seek primitive agrees with the linear reference.
#[test]
fn index_seek_matches_linear_reference() {
    check(256, |g| {
        let tt = gen_timetable(g, 39);
        let windows: Vec<TimeWindow> = tt.iter().map(|r| r.window()).collect();
        let index = GapIndex::build(&windows);
        let t = SimTime::from_ticks(g.u64_in(0, 400));
        let linear_seek = windows.iter().position(|w| w.end() > t);
        assert_eq!(
            index.first_ending_after(&windows, t),
            linear_seek.unwrap_or(windows.len())
        );
    });
}

/// The overlay's walk over base and tentative windows equals a
/// materialized timetable holding the union of both layers.
#[test]
fn overlay_hybrid_probes_match_materialized_union() {
    check(512, |g| {
        let base = gen_timetable(g, 39);
        let (pool, node) = one_node_pool(base.clone());
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        let mut union = base;
        for w in g.vec_of(0, 9, gen_window) {
            let overlay_ok = overlay.reserve_window(node, w).is_ok();
            let union_ok = union.reserve(w, ReservationOwner::Background(999)).is_ok();
            assert_eq!(overlay_ok, union_ok, "accept/reject parity for {w}");
        }
        for _ in 0..8 {
            let (not_before, duration, deadline) = gen_probe(g);
            assert_eq!(
                overlay.earliest_fit(node, not_before, duration, deadline),
                union.earliest_fit(not_before, duration, deadline),
                "probe=({not_before}, {duration}, {deadline})"
            );
        }
    });
}

/// Index answers survive `reserve_window` and `reset_to`: warm overlay
/// answers always equal a cold overlay over the same state, and a
/// rebased overlay sees the mutated pool through a *new* snapshot (and a
/// new index).
#[test]
fn index_survives_reserves_and_reset() {
    check(256, |g| {
        let (mut pool, node) = one_node_pool(gen_timetable(g, 29));
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        let mut held: Vec<TimeWindow> = Vec::new();
        for _ in 0..12 {
            if g.chance(0.6) {
                let w = gen_window(g);
                if overlay.reserve_window(node, w).is_ok() {
                    held.push(w);
                }
            }
            let (not_before, duration, deadline) = gen_probe(g);
            // Cold reference: a fresh overlay with the same tentative set.
            let mut cold = TimetableOverlay::new(overlay.base().clone());
            for &w in &held {
                cold.reserve_window(node, w).expect("same state is free");
            }
            assert_eq!(
                overlay.earliest_fit(node, not_before, duration, deadline),
                cold.earliest_fit(node, not_before, duration, deadline)
            );
        }
        // Mutate the pool itself: the old snapshot's index must be
        // untouched, and a rebased overlay must answer from fresh state.
        let stale = overlay.base().clone();
        let stale_windows: Vec<TimeWindow> = stale.windows(node).to_vec();
        let extra = gen_window(g);
        let extra_applied = pool
            .timetable_mut(node)
            .reserve(extra, ReservationOwner::Background(7_000))
            .is_ok();
        if g.chance(0.5) {
            let victim = pool.timetable(node).iter().next();
            if let Some(r) = victim {
                pool.timetable_mut(node).release(r.window(), r.owner());
            }
        }
        assert_eq!(
            stale.windows(node),
            stale_windows.as_slice(),
            "snapshots are immutable under pool mutation"
        );
        overlay.reset_to(pool.snapshot());
        let fresh = TimetableOverlay::new(pool.snapshot());
        let (not_before, duration, deadline) = gen_probe(g);
        assert_eq!(
            overlay.earliest_fit(node, not_before, duration, deadline),
            fresh.earliest_fit(node, not_before, duration, deadline),
            "rebased overlay answers from the new snapshot (extra={extra} applied={extra_applied})"
        );
    });
}

/// The probe resumes its seek from the node's cursor. On query
/// sequences whose `not_before` moves forward and backward, interleaved
/// with tentative reserves, every answer of a warm overlay equals the
/// linear walk over the materialized union of base and tentative
/// windows, and a cold `GapIndex::earliest_fit` over that union.
#[test]
fn cursor_resumed_probes_match_linear_walk_and_cold_index() {
    check(256, |g| {
        let base = gen_timetable(g, 39);
        let (pool, node) = one_node_pool(base.clone());
        let mut overlay = TimetableOverlay::new(pool.snapshot());
        let mut union = base;
        let mut held: Vec<TimeWindow> = Vec::new();
        let mut not_before = g.u64_in(0, 300);
        for _ in 0..24 {
            match g.usize_in(0, 5) {
                0 | 1 => {
                    let w = gen_window(g);
                    if overlay.reserve_window(node, w).is_ok() {
                        union
                            .reserve(w, ReservationOwner::Background(1_000))
                            .expect("the overlay accepted it");
                        held.push(w);
                    }
                }
                _ => {
                    // Mostly small steps forward, sometimes a jump back.
                    not_before = if g.chance(0.25) {
                        not_before.saturating_sub(g.u64_in(0, 120))
                    } else {
                        not_before + g.u64_in(0, 30)
                    };
                    let not_before = SimTime::from_ticks(not_before);
                    let duration = SimDuration::from_ticks(g.u64_in(1, 20));
                    let deadline = if g.chance(0.3) {
                        SimTime::MAX
                    } else {
                        not_before.saturating_add(SimDuration::from_ticks(g.u64_in(0, 200)))
                    };
                    let windows: Vec<TimeWindow> = union.iter().map(|r| r.window()).collect();
                    let cold = GapIndex::build(&windows)
                        .earliest_fit(&windows, not_before, duration, deadline);
                    let probe =
                        format!("probe=({not_before}, {duration}, {deadline}) held={held:?}");
                    let answer = overlay.earliest_fit(node, not_before, duration, deadline);
                    assert_eq!(answer, cold, "overlay vs cold index, {probe}");
                    assert_eq!(
                        answer,
                        union.earliest_fit(not_before, duration, deadline),
                        "overlay vs linear walk, {probe}"
                    );
                }
            }
        }
    });
}
