//! Property tests: timetable invariants under random operation sequences.

use gridsched_model::timetable::{ReservationOwner, Timetable};
use gridsched_model::window::TimeWindow;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::{SimDuration, SimTime};

fn gen_window(g: &mut Gen) -> TimeWindow {
    let start = g.u64_in(0, 199);
    let len = g.u64_in(1, 19);
    TimeWindow::new(SimTime::from_ticks(start), SimTime::from_ticks(start + len)).expect("len >= 1")
}

fn gen_windows(g: &mut Gen, min: usize, max: usize) -> Vec<TimeWindow> {
    g.vec_of(min, max, gen_window)
}

/// However reservations are attempted, accepted ones never overlap.
#[test]
fn reservations_never_overlap() {
    check(256, |g| {
        let windows = gen_windows(g, 1, 39);
        let mut tt = Timetable::new();
        let mut accepted: Vec<TimeWindow> = Vec::new();
        for (i, w) in windows.into_iter().enumerate() {
            if tt
                .reserve(w, ReservationOwner::Background(i as u64))
                .is_ok()
            {
                accepted.push(w);
            }
        }
        for (i, a) in accepted.iter().enumerate() {
            for b in &accepted[i + 1..] {
                assert!(!a.overlaps(*b), "{a} overlaps {b}");
            }
        }
        assert_eq!(tt.len(), accepted.len());
    });
}

/// A reservation is rejected exactly when it overlaps an accepted one.
#[test]
fn rejection_iff_overlap() {
    check(256, |g| {
        let windows = gen_windows(g, 1, 39);
        let mut tt = Timetable::new();
        let mut accepted: Vec<TimeWindow> = Vec::new();
        for (i, w) in windows.into_iter().enumerate() {
            let overlaps = accepted.iter().any(|a| a.overlaps(w));
            let result = tt.reserve(w, ReservationOwner::Background(i as u64));
            assert_eq!(result.is_err(), overlaps, "window {w}");
            if result.is_ok() {
                accepted.push(w);
            }
        }
    });
}

/// `earliest_fit` returns a free slot, and no earlier start would fit.
#[test]
fn earliest_fit_is_free_and_minimal() {
    check(256, |g| {
        let windows = gen_windows(g, 0, 19);
        let from = g.u64_in(0, 99);
        let len = g.u64_in(1, 14);
        let mut tt = Timetable::new();
        for (i, w) in windows.into_iter().enumerate() {
            let _ = tt.reserve(w, ReservationOwner::Background(i as u64));
        }
        let duration = SimDuration::from_ticks(len);
        let deadline = SimTime::from_ticks(1_000);
        if let Some(start) = tt.earliest_fit(SimTime::from_ticks(from), duration, deadline) {
            let fit = TimeWindow::starting_at(start, duration).expect("non-empty");
            assert!(tt.is_free(fit), "returned slot {fit} is not free");
            assert!(start >= SimTime::from_ticks(from));
            assert!(fit.end() <= deadline);
            // Minimality: every earlier candidate start collides.
            for earlier in from..start.ticks() {
                let w = TimeWindow::starting_at(SimTime::from_ticks(earlier), duration)
                    .expect("non-empty");
                assert!(!tt.is_free(w), "earlier slot {w} was free");
            }
        }
    });
}

/// Releasing everything restores an empty timetable, and busy time
/// within any range equals the sum of clipped reservations.
#[test]
fn release_restores_and_busy_accounts() {
    check(256, |g| {
        let windows = gen_windows(g, 1, 29);
        let mut tt = Timetable::new();
        let mut held = Vec::new();
        for (i, w) in windows.into_iter().enumerate() {
            let owner = ReservationOwner::Background(i as u64);
            if tt.reserve(w, owner).is_ok() {
                held.push((w, owner));
            }
        }
        let range =
            TimeWindow::new(SimTime::from_ticks(0), SimTime::from_ticks(250)).expect("valid range");
        let expected: u64 = held
            .iter()
            .filter_map(|(w, _)| w.intersect(range))
            .map(|w| w.duration().ticks())
            .sum();
        assert_eq!(tt.busy_within(range).ticks(), expected);
        for &(w, owner) in &held {
            assert!(tt.release(w, owner).is_some());
        }
        assert!(tt.is_empty());
        assert_eq!(tt.busy_within(range), SimDuration::ZERO);
    });
}

/// Free windows and busy time partition any range exactly.
#[test]
fn free_windows_partition_range() {
    check(256, |g| {
        let windows = gen_windows(g, 0, 24);
        let range_start = g.u64_in(0, 99);
        let range_len = g.u64_in(1, 149);
        let mut tt = Timetable::new();
        for (i, w) in windows.into_iter().enumerate() {
            let _ = tt.reserve(w, ReservationOwner::Background(i as u64));
        }
        let range = TimeWindow::new(
            SimTime::from_ticks(range_start),
            SimTime::from_ticks(range_start + range_len),
        )
        .expect("non-empty");
        let mut free_windows = Vec::new();
        tt.free_windows_into(range, &mut free_windows);
        let free: u64 = free_windows.iter().map(|w| w.duration().ticks()).sum();
        let busy = tt.busy_within(range).ticks();
        assert_eq!(free + busy, range_len);
        // Every reported free window really is free.
        for &w in &free_windows {
            assert!(tt.is_free(w), "{w} reported free but is not");
        }
    });
}

/// Voiding a window releases exactly the task reservations overlapping it
/// and leaves background reservations alone.
#[test]
fn void_window_releases_only_overlapping_tasks() {
    use gridsched_model::ids::{GlobalTaskId, JobId, TaskId};
    check(256, |g| {
        let mut tt = Timetable::new();
        let mut task_windows = Vec::new();
        let mut bg_windows = Vec::new();
        for (i, w) in gen_windows(g, 1, 30).into_iter().enumerate() {
            if g.chance(0.5) {
                let owner = ReservationOwner::Task(GlobalTaskId {
                    job: JobId::new(i as u64),
                    task: TaskId::new(0),
                });
                if tt.reserve(w, owner).is_ok() {
                    task_windows.push(w);
                }
            } else if tt
                .reserve(w, ReservationOwner::Background(i as u64))
                .is_ok()
            {
                bg_windows.push(w);
            }
        }
        let cut = gen_window(g);
        let expected: Vec<TimeWindow> = task_windows
            .iter()
            .copied()
            .filter(|w| w.overlaps(cut))
            .collect();
        let voided = tt.void_tasks_within(cut);
        assert_eq!(voided.len(), expected.len(), "voided count mismatch");
        for v in &voided {
            assert!(expected.contains(&v.window()), "unexpected void {v:?}");
        }
        // Background survivors: count unchanged.
        let bg_left = tt
            .iter()
            .filter(|r| matches!(r.owner(), ReservationOwner::Background(_)))
            .count();
        assert_eq!(bg_left, bg_windows.len());
    });
}
