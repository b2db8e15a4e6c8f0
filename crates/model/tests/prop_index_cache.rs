//! Property suite for the revision counter and the cross-snapshot
//! calendar cache.
//!
//! The cache contract (DESIGN.md §9): a [`Timetable`]'s revision is
//! retagged by every window-changing mutation and never by a no-op, so a
//! `(node, revision)` cache key can only ever resolve to the exact window
//! set it was inserted under. These tests pin both halves — the revision
//! discipline on every mutating operation, and the end-to-end guarantee
//! that a capture through the cache is indistinguishable from a fresh
//! build on random mutate/capture interleavings.

use std::sync::Arc;

use gridsched_model::availability::{ProbeConfig, TimetableOverlay};
use gridsched_model::ids::{DomainId, GlobalTaskId, JobId, NodeId, TaskId};
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::Perf;
use gridsched_model::timetable::{ReservationOwner, Timetable, EMPTY_REVISION};
use gridsched_model::window::TimeWindow;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::{SimDuration, SimTime};

fn gen_window(g: &mut Gen) -> TimeWindow {
    let start = g.u64_in(0, 299);
    let len = if g.chance(0.3) { 1 } else { g.u64_in(1, 19) };
    TimeWindow::new(SimTime::from_ticks(start), SimTime::from_ticks(start + len)).expect("len >= 1")
}

fn gen_timetable(g: &mut Gen, max_attempts: usize) -> Timetable {
    let attempts = g.vec_of(0, max_attempts, gen_window);
    let mut tt = Timetable::new();
    for (i, w) in attempts.into_iter().enumerate() {
        let _ = tt.reserve(w, ReservationOwner::Background(i as u64));
    }
    tt
}

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

/// An empty pool that engages the gap index on every calendar, with the
/// calendar cache on or off.
fn indexed_pool(calendar_cache: bool) -> ResourcePool {
    let mut pool = ResourcePool::new();
    pool.set_probe_config(ProbeConfig {
        index_floor: 0,
        calendar_cache,
    });
    pool
}

fn win(a: u64, b: u64) -> TimeWindow {
    TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
}

fn task_owner(job: u64, task: u32) -> ReservationOwner {
    ReservationOwner::Task(GlobalTaskId {
        job: JobId::new(job),
        task: TaskId::new(task),
    })
}

/// Every window-changing mutation retags the calendar; the tags are
/// process-globally unique, so equal revisions imply equal windows.
#[test]
fn every_window_changing_mutation_bumps_the_revision() {
    let mut tt = Timetable::new();
    assert_eq!(tt.revision(), EMPTY_REVISION, "pristine empty calendar");

    let id = tt
        .reserve(win(0, 5), ReservationOwner::Background(0))
        .unwrap();
    let r1 = tt.revision();
    assert_ne!(r1, EMPTY_REVISION, "reserve retags");

    tt.extend_sorted([
        (win(10, 12), ReservationOwner::Background(1)),
        (win(20, 22), task_owner(7, 0)),
    ]);
    let r2 = tt.revision();
    assert_ne!(r2, r1, "extend_sorted retags");

    tt.release(id).unwrap();
    let r3 = tt.revision();
    assert_ne!(r3, r2, "release retags");

    assert_eq!(tt.release_owned_by(ReservationOwner::Background(1)), 1);
    let r4 = tt.revision();
    assert_ne!(r4, r3, "release_owned_by retags");

    tt.reserve(win(30, 33), task_owner(8, 1)).unwrap();
    let r5 = tt.revision();
    assert_eq!(tt.void_tasks_within(win(29, 40)).len(), 1);
    let r6 = tt.revision();
    assert_ne!(r6, r5, "void_tasks_within retags");

    assert_eq!(tt.release_job(JobId::new(7)).len(), 1);
    let r7 = tt.revision();
    assert_ne!(r7, r6, "release_job retags");

    // Wholesale replacement and `from_sorted` carry their own tags.
    let rebuilt = Timetable::from_sorted([(win(0, 1), ReservationOwner::Background(9))]);
    assert_ne!(rebuilt.revision(), EMPTY_REVISION);
    assert_ne!(rebuilt.revision(), r7, "tags are never reused");
}

/// Mutations that change nothing keep the revision: the cache entry for
/// the unchanged window set stays valid.
#[test]
fn noop_mutations_keep_the_revision() {
    let mut tt = Timetable::new();
    let id = tt
        .reserve(win(0, 5), ReservationOwner::Background(0))
        .unwrap();
    // Ids are per-timetable counters: `other`'s *second* id was never
    // issued by `tt`, so releasing it there must be a no-op.
    let mut other = Timetable::new();
    let _ = other
        .reserve(win(0, 1), ReservationOwner::Background(1))
        .unwrap();
    let foreign = other
        .reserve(win(2, 3), ReservationOwner::Background(1))
        .unwrap();
    let r = tt.revision();

    assert!(tt
        .reserve(win(2, 4), ReservationOwner::Background(2))
        .is_err());
    assert_eq!(tt.revision(), r, "rejected reserve is a no-op");
    tt.extend_sorted(std::iter::empty());
    assert_eq!(tt.revision(), r, "empty extend is a no-op");
    other.release(foreign);
    assert!(tt.release(foreign).is_none());
    assert_eq!(tt.revision(), r, "release of an unknown id is a no-op");
    assert_eq!(tt.release_owned_by(ReservationOwner::Background(42)), 0);
    assert_eq!(tt.revision(), r, "ownerless release is a no-op");
    assert!(tt.void_tasks_within(win(0, 100)).is_empty());
    assert_eq!(tt.revision(), r, "voiding no tasks is a no-op");
    assert!(tt.release_job(JobId::new(3)).is_empty());
    assert_eq!(tt.revision(), r, "releasing an absent job is a no-op");
    assert!(tt.release(id).is_some());
    assert_ne!(tt.revision(), r);
}

/// A clone shares its source's tag (identical content) until either side
/// mutates; both then retag to fresh, distinct revisions.
#[test]
fn clone_shares_revision_until_either_side_mutates() {
    let mut a = Timetable::new();
    a.reserve(win(0, 5), ReservationOwner::Background(0))
        .unwrap();
    let mut b = a.clone();
    assert_eq!(a.revision(), b.revision(), "clone = identical content");

    a.reserve(win(10, 12), ReservationOwner::Background(1))
        .unwrap();
    b.reserve(win(20, 22), ReservationOwner::Background(2))
        .unwrap();
    assert_ne!(
        a.revision(),
        b.revision(),
        "divergent content, divergent tags"
    );
    let old = b.revision();
    b.release_owned_by(ReservationOwner::Background(2));
    assert_ne!(
        b.revision(),
        old,
        "returning to an earlier window set still retags (tags are never reused)"
    );
}

/// Warm captures of an unchanged pool share the frozen calendar (and its
/// at-most-once gap index) by pointer; mutated nodes refreeze while
/// untouched neighbours keep sharing.
#[test]
fn warm_capture_shares_calendars_and_builds_once() {
    let mut pool = indexed_pool(true);
    let hot = pool.add_node(DomainId::new(0), Perf::FULL);
    let still = pool.add_node(DomainId::new(0), Perf::FULL);
    for i in 0..40u64 {
        pool.timetable_mut(hot)
            .reserve(win(4 * i, 4 * i + 2), ReservationOwner::Background(i))
            .unwrap();
        pool.timetable_mut(still)
            .reserve(win(4 * i, 4 * i + 3), ReservationOwner::Background(i))
            .unwrap();
    }
    let cold = pool.snapshot();
    let _ = pool.index_cache().take_stats();

    // Build both indexes through a probing overlay on the cold snapshot.
    let overlay = TimetableOverlay::new(cold.clone());
    for node in [hot, still] {
        overlay
            .earliest_fit(
                node,
                SimTime::ZERO,
                SimDuration::from_ticks(1),
                SimTime::MAX,
            )
            .unwrap();
    }
    assert!(overlay.take_index_stats().builds >= 1, "cold probes build");

    // Warm capture: same Arcs, pure cache hits, zero rebuilds on probe.
    let warm = pool.snapshot();
    assert!(Arc::ptr_eq(cold.calendar(hot), warm.calendar(hot)));
    assert!(Arc::ptr_eq(cold.calendar(still), warm.calendar(still)));
    let stats = pool.index_cache().take_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 0);
    let warm_overlay = TimetableOverlay::new(warm.clone());
    for node in [hot, still] {
        warm_overlay
            .earliest_fit(
                node,
                SimTime::ZERO,
                SimDuration::from_ticks(1),
                SimTime::MAX,
            )
            .unwrap();
    }
    let warm_stats = warm_overlay.take_index_stats();
    assert_eq!(warm_stats.builds, 0, "shared calendars keep their index");
    assert!(warm_stats.seeks >= 2);

    // Mutate one node: only it refreezes on the next capture.
    pool.timetable_mut(hot)
        .reserve(win(500, 510), ReservationOwner::Background(99))
        .unwrap();
    let next = pool.snapshot();
    assert!(!Arc::ptr_eq(warm.calendar(hot), next.calendar(hot)));
    assert!(Arc::ptr_eq(warm.calendar(still), next.calendar(still)));
    let stats = pool.index_cache().take_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

/// Random mutate/capture interleavings: a capture through the cache
/// always reflects the live pool exactly, and its probe answers match
/// the linear per-timetable reference — the cache can never serve a
/// stale window set or index.
#[test]
fn capture_through_cache_never_serves_stale_state() {
    check(96, |g| {
        let mut pool = indexed_pool(true);
        let n = g.u64_in(1, 4) as usize;
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| pool.add_node(DomainId::new(0), Perf::FULL))
            .collect();
        for &node in &nodes {
            *pool.timetable_mut(node) = gen_timetable(g, 19);
        }
        let mut prev = pool.snapshot();
        for _ in 0..10 {
            let mutated = match g.u64_in(0, 3) {
                0 => {
                    let node = *g.pick(&nodes);
                    pool.timetable_mut(node)
                        .reserve(gen_window(g), ReservationOwner::Background(777))
                        .is_ok()
                        .then_some(node)
                }
                1 => {
                    let node = *g.pick(&nodes);
                    let victim = pool.timetable(node).iter().map(|r| r.id()).next();
                    victim.map(|id| {
                        pool.timetable_mut(node).release(id);
                        node
                    })
                }
                2 => {
                    pool.reset_timetables();
                    None // every node changed; checked via windows below
                }
                _ => None,
            };
            let snap = pool.snapshot();
            for &node in &nodes {
                let live: Vec<TimeWindow> =
                    pool.timetable(node).iter().map(|r| r.window()).collect();
                assert_eq!(snap.windows(node), live.as_slice(), "capture is exact");
                if mutated != Some(node) && prev.windows(node) == snap.windows(node) {
                    // Note: after reset_timetables an empty calendar may
                    // refreeze; sharing is only promised for cache hits.
                    let _ = Arc::ptr_eq(prev.calendar(node), snap.calendar(node));
                }
                let overlay = TimetableOverlay::new(snap.clone());
                for _ in 0..4 {
                    let (not_before, duration, deadline) = gen_probe(g);
                    assert_eq!(
                        overlay.earliest_fit(node, not_before, duration, deadline),
                        pool.timetable(node)
                            .earliest_fit(not_before, duration, deadline),
                        "cached capture answers like the live timetable"
                    );
                }
            }
            prev = snap;
        }
    });
}

/// With the cache disabled every capture refreezes, and nothing becomes
/// resident — but answers are identical (the cache is pure reuse).
#[test]
fn disabled_cache_shares_nothing_and_changes_nothing() {
    let mut pool = indexed_pool(false);
    let node = pool.add_node(DomainId::new(0), Perf::FULL);
    for i in 0..20u64 {
        pool.timetable_mut(node)
            .reserve(win(5 * i, 5 * i + 3), ReservationOwner::Background(i))
            .unwrap();
    }
    let a = pool.snapshot();
    let b = pool.snapshot();
    assert!(!Arc::ptr_eq(a.calendar(node), b.calendar(node)));
    assert_eq!(pool.index_cache().resident_entries(), 0);
    let stats = pool.index_cache().take_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "disabled = not consulted"
    );
    assert_eq!(a.windows(node), b.windows(node));
    let (oa, ob) = (TimetableOverlay::new(a), TimetableOverlay::new(b));
    for t in 0..30 {
        let probe = (
            SimTime::from_ticks(t * 3),
            SimDuration::from_ticks(1 + t % 4),
            SimTime::MAX,
        );
        assert_eq!(
            oa.earliest_fit(node, probe.0, probe.1, probe.2),
            ob.earliest_fit(node, probe.0, probe.1, probe.2)
        );
    }
}
