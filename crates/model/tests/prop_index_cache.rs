//! Property suite for the frozen calendar each timetable keeps.
//!
//! The contract (DESIGN.md §9): a [`Timetable`] holds the calendar its
//! last capture froze until a window-changing mutation drops it, a no-op
//! keeps it, and a clone starts without one. So a capture can only ever
//! reuse a calendar frozen from the exact window set it captures. These
//! tests pin both halves — the slot discipline on every mutating
//! operation, and the end-to-end guarantee that a warm capture is
//! indistinguishable from a cold capture of a clone on random
//! mutate/capture interleavings.

use std::sync::Arc;

use gridsched_model::availability::TimetableOverlay;
use gridsched_model::gap_index::GapIndex;
use gridsched_model::ids::{DomainId, GlobalTaskId, JobId, NodeId, TaskId};
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::Perf;
use gridsched_model::timetable::{NodeCalendar, ReservationOwner, Timetable};
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

fn win(a: u64, b: u64) -> TimeWindow {
    TimeWindow::new(SimTime::from_ticks(a), SimTime::from_ticks(b)).unwrap()
}

fn task_owner(job: u64, task: u32) -> ReservationOwner {
    ReservationOwner::Task(GlobalTaskId {
        job: JobId::new(job),
        task: TaskId::new(task),
    })
}

/// Freezes `tt`'s calendar (as a capture would) and returns it.
fn freeze(tt: &Timetable) -> Arc<NodeCalendar> {
    let mut froze = false;
    Arc::clone(tt.calendar_tracked(&mut froze))
}

/// Every window-changing mutation drops the frozen calendar, so the next
/// capture freezes the new windows.
#[test]
fn every_window_changing_mutation_thaws_the_calendar() {
    let mut tt = Timetable::new();
    assert!(tt.frozen().is_none(), "a new timetable starts cold");
    freeze(&tt);
    assert!(tt.frozen().is_some(), "a capture freezes");

    tt.reserve(win(0, 5), ReservationOwner::Background(0))
        .unwrap();
    assert!(tt.frozen().is_none(), "reserve thaws");

    freeze(&tt);
    tt.extend_sorted([
        (win(10, 12), ReservationOwner::Background(1)),
        (win(20, 22), task_owner(7, 0)),
    ]);
    assert!(tt.frozen().is_none(), "extend_sorted thaws");

    freeze(&tt);
    tt.release(win(0, 5), ReservationOwner::Background(0))
        .unwrap();
    assert!(tt.frozen().is_none(), "release thaws");

    tt.reserve(win(30, 33), task_owner(8, 1)).unwrap();
    freeze(&tt);
    assert_eq!(tt.void_tasks_within(win(29, 40)).len(), 1);
    assert!(tt.frozen().is_none(), "void_tasks_within thaws");

    freeze(&tt);
    assert_eq!(tt.release_job(JobId::new(7)).len(), 1);
    assert!(tt.frozen().is_none(), "release_job thaws");

    // The next capture freezes exactly the live windows.
    let live: Vec<TimeWindow> = tt.iter().map(|r| r.window()).collect();
    assert_eq!(freeze(&tt).windows().collect::<Vec<_>>(), live);

    // `from_sorted` builds a timetable with nothing frozen.
    let rebuilt = Timetable::from_sorted([(win(0, 1), ReservationOwner::Background(9))]);
    assert!(rebuilt.frozen().is_none());
}

/// Mutations that change nothing keep the frozen calendar: the next
/// capture still reuses it.
#[test]
fn noop_mutations_keep_the_frozen_calendar() {
    let mut tt = Timetable::new();
    let owner = ReservationOwner::Background(0);
    tt.reserve(win(0, 5), owner).unwrap();
    let frozen = freeze(&tt);
    let kept = |tt: &Timetable| tt.frozen().is_some_and(|f| Arc::ptr_eq(f, &frozen));

    assert!(tt
        .reserve(win(2, 4), ReservationOwner::Background(2))
        .is_err());
    assert!(kept(&tt), "rejected reserve is a no-op");
    tt.extend_sorted(std::iter::empty());
    assert!(kept(&tt), "empty extend is a no-op");
    assert!(tt.release(win(0, 5), task_owner(0, 0)).is_none());
    assert!(kept(&tt), "releasing another owner's window is a no-op");
    assert!(tt.release(win(0, 4), owner).is_none());
    assert!(kept(&tt), "releasing a window with another end is a no-op");
    assert!(tt.release(win(2, 3), owner).is_none());
    assert!(
        kept(&tt),
        "releasing a window that starts inside one is a no-op"
    );
    assert!(tt.release(win(7, 9), owner).is_none());
    assert!(kept(&tt), "releasing a free window is a no-op");
    assert!(tt.void_tasks_within(win(0, 100)).is_empty());
    assert!(kept(&tt), "voiding no tasks is a no-op");
    assert!(tt.release_job(JobId::new(3)).is_empty());
    assert!(kept(&tt), "releasing an absent job is a no-op");
    let mut froze = false;
    let again = tt.calendar_tracked(&mut froze);
    assert!(
        !froze && Arc::ptr_eq(again, &frozen),
        "a warm capture reuses it"
    );
    assert!(tt.release(win(0, 5), owner).is_some());
    assert!(tt.frozen().is_none());
}

/// A clone copies the reservations but not the frozen calendar: its first
/// capture freezes its own, equal to the source's, and neither side's
/// later mutations touch the other's.
#[test]
fn clone_starts_with_a_cold_calendar() {
    let mut a = Timetable::new();
    a.reserve(win(0, 5), ReservationOwner::Background(0))
        .unwrap();
    let frozen_a = freeze(&a);
    let mut b = a.clone();
    assert!(b.frozen().is_none(), "the clone starts cold");
    let mut froze = false;
    let frozen_b = Arc::clone(b.calendar_tracked(&mut froze));
    assert!(froze, "the clone's first capture freezes");
    assert!(!Arc::ptr_eq(&frozen_a, &frozen_b));
    assert!(frozen_a.windows().eq(frozen_b.windows()), "same windows");

    b.reserve(win(20, 22), ReservationOwner::Background(2))
        .unwrap();
    assert!(b.frozen().is_none());
    assert!(
        a.frozen().is_some_and(|f| Arc::ptr_eq(f, &frozen_a)),
        "the source keeps its own"
    );
}

/// Warm captures of an unchanged pool share the frozen calendar (and the
/// gap index built once, at freeze) by pointer; mutated nodes refreeze
/// while untouched neighbours keep sharing.
#[test]
fn warm_capture_shares_calendars_and_builds_once() {
    let mut pool = ResourcePool::new();
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
    assert_eq!(cold.warm_nodes(), 0);

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
    assert_eq!(
        overlay.take_index_stats().seeks,
        2,
        "cold probes seek the indexes built at freeze"
    );

    // Warm capture: same Arcs, every node warm, zero rebuilds on probe.
    let warm = pool.snapshot();
    assert!(Arc::ptr_eq(cold.calendar(hot), warm.calendar(hot)));
    assert!(Arc::ptr_eq(cold.calendar(still), warm.calendar(still)));
    assert_eq!(warm.warm_nodes(), 2);
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
    assert_eq!(
        warm_overlay.take_index_stats().seeks,
        2,
        "shared calendars keep their index"
    );

    // Mutate one node: only it refreezes on the next capture.
    pool.timetable_mut(hot)
        .reserve(win(500, 510), ReservationOwner::Background(99))
        .unwrap();
    let next = pool.snapshot();
    assert!(!Arc::ptr_eq(warm.calendar(hot), next.calendar(hot)));
    assert!(Arc::ptr_eq(warm.calendar(still), next.calendar(still)));
    assert_eq!(next.warm_nodes(), 1);
}

/// A mutation releases the node's frozen calendar from the pool at once:
/// the resident bytes fall by that calendar, and once no snapshot holds
/// it either, it is freed.
#[test]
fn a_mutation_releases_that_nodes_frozen_calendar() {
    let mut pool = ResourcePool::new();
    let hot = pool.add_node(DomainId::new(0), Perf::FULL);
    let still = pool.add_node(DomainId::new(0), Perf::FULL);
    for i in 0..30u64 {
        for node in [hot, still] {
            pool.timetable_mut(node)
                .reserve(win(5 * i, 5 * i + 3), ReservationOwner::Background(i))
                .unwrap();
        }
    }
    let snap = pool.snapshot();
    let before = pool.index_cache().resident_bytes();
    let hot_bytes = snap.calendar(hot).approx_bytes();
    assert_eq!(before, hot_bytes + snap.calendar(still).approx_bytes());
    let stale = Arc::downgrade(snap.calendar(hot));

    pool.timetable_mut(hot)
        .reserve(win(500, 510), ReservationOwner::Background(99))
        .unwrap();
    assert_eq!(
        pool.index_cache().resident_bytes(),
        before - hot_bytes,
        "the stale calendar is no longer resident in the pool"
    );
    assert!(
        stale.upgrade().is_some(),
        "the live snapshot still holds it"
    );
    drop(snap);
    assert!(stale.upgrade().is_none(), "freed with its last snapshot");
}

/// Random mutate/capture interleavings: a warm capture always reflects
/// the live pool exactly, shares every unchanged node's calendar with the
/// previous capture, and equals a cold capture of a clone — windows and
/// probe answers alike, both matching the live timetable.
#[test]
fn capture_through_cache_never_serves_stale_state() {
    check(96, |g| {
        let mut pool = ResourcePool::new();
        let n = g.u64_in(1, 4) as usize;
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| pool.add_node(DomainId::new(0), Perf::FULL))
            .collect();
        for &node in &nodes {
            *pool.timetable_mut(node) = gen_timetable(g, 19);
        }
        let mut prev = pool.snapshot();
        for _ in 0..10 {
            let mut changed = vec![false; n];
            match g.u64_in(0, 3) {
                0 => {
                    let node = *g.pick(&nodes);
                    changed[node.index()] = pool
                        .timetable_mut(node)
                        .reserve(gen_window(g), ReservationOwner::Background(777))
                        .is_ok();
                }
                1 => {
                    let node = *g.pick(&nodes);
                    let victim = pool.timetable(node).iter().next();
                    if let Some(r) = victim {
                        pool.timetable_mut(node).release(r.window(), r.owner());
                        changed[node.index()] = true;
                    }
                }
                2 => {
                    for &node in &nodes {
                        *pool.timetable_mut(node) = Timetable::new();
                    }
                    changed.fill(true);
                }
                _ => {}
            }
            let snap = pool.snapshot();
            let cold = pool.clone().snapshot();
            assert_eq!(cold.warm_nodes(), 0, "a cloned pool captures cold");
            assert_eq!(
                snap.warm_nodes(),
                changed.iter().filter(|&&c| !c).count(),
                "exactly the unchanged nodes are warm"
            );
            for &node in &nodes {
                let live: Vec<TimeWindow> =
                    pool.timetable(node).iter().map(|r| r.window()).collect();
                assert_eq!(snap.windows(node), live.as_slice(), "capture is exact");
                assert_eq!(cold.windows(node), live.as_slice(), "cold capture too");
                assert_eq!(
                    Arc::ptr_eq(prev.calendar(node), snap.calendar(node)),
                    !changed[node.index()],
                    "shared exactly when unchanged"
                );
                let overlay = TimetableOverlay::new(snap.clone());
                let cold_overlay = TimetableOverlay::new(cold.clone());
                let flat = GapIndex::build(&live);
                for _ in 0..4 {
                    let (not_before, duration, deadline) = gen_probe(g);
                    let answer = overlay.earliest_fit(node, not_before, duration, deadline);
                    assert_eq!(
                        answer,
                        cold_overlay.earliest_fit(node, not_before, duration, deadline),
                        "warm capture answers like a cold one"
                    );
                    assert_eq!(
                        answer,
                        pool.timetable(node)
                            .earliest_fit(not_before, duration, deadline),
                        "warm capture answers like the live timetable"
                    );
                    assert_eq!(
                        answer,
                        flat.earliest_fit(&live, not_before, duration, deadline),
                        "warm capture answers like the cold flat index"
                    );
                }
            }
            prev = snap;
        }
    });
}
