//! Bench: raw discrete-event engine throughput and timetable
//! operations (the substrate everything else stands on).

use gridsched::model::timetable::{ReservationOwner, Timetable};
use gridsched::model::window::TimeWindow;
use gridsched::sim::engine::{Engine, Scheduler, World};
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched_bench::timing::Group;

struct Chain {
    remaining: u64,
}

impl World for Chain {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), s: &mut Scheduler<'_, ()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            s.after(SimDuration::TICK, ());
        }
    }
}

fn main() {
    let group = Group::new("sim_engine");
    for events in [1_000u64, 10_000, 100_000] {
        let label = format!("event_chain/{events}");
        group.bench(&label, || {
            let mut engine = Engine::new();
            engine.prime(SimTime::ZERO, ());
            let mut world = Chain { remaining: events };
            engine.run(&mut world)
        });
    }

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
