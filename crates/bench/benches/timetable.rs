//! Bench: timetable operations (the substrate everything else stands
//! on).

use gridsched::model::timetable::{ReservationOwner, Timetable};
use gridsched::model::window::TimeWindow;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched_bench::timing::Group;

fn main() {
    let group = Group::new("timetable");
    // A timetable with 1000 busy windows; measure earliest-fit probing.
    let mut tt = Timetable::new();
    for k in 0..1000u64 {
        let w = TimeWindow::new(SimTime::from_ticks(k * 10), SimTime::from_ticks(k * 10 + 7))
            .expect("valid");
        tt.reserve(w, ReservationOwner::Background(k))
            .expect("free");
    }
    group.bench("earliest_fit_1000_reservations", || {
        tt.earliest_fit(
            SimTime::ZERO,
            SimDuration::from_ticks(4),
            SimTime::from_ticks(20_000),
        )
    });
    let w =
        TimeWindow::new(SimTime::from_ticks(10_007), SimTime::from_ticks(10_009)).expect("valid");
    let cell = std::cell::RefCell::new(tt);
    group.bench("reserve_release_cycle", || {
        let mut tt = cell.borrow_mut();
        let owner = ReservationOwner::Background(u64::MAX);
        tt.reserve(w, owner).expect("free");
        tt.release(w, owner).expect("present");
    });
}
