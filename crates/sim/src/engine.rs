//! The simulation driver: a clock plus an event loop.

use crate::event::{EventId, EventQueue};
use crate::time::SimTime;

/// The behaviour plugged into an [`Engine`].
///
/// A world receives each fired event together with a [`Scheduler`] handle it
/// can use to schedule (or cancel) follow-up events.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at simulated time `now`.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        scheduler: &mut Scheduler<'_, Self::Event>,
    );
}

/// Handle given to [`World::handle`] for scheduling follow-up events.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Scheduler<'_, E> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — a world must never rewind time.
    pub fn at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "attempted to schedule an event at {at}, before now ({})",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedules an event `delay` ticks from now.
    pub fn after(&mut self, delay: crate::time::SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// Outcome of an [`Engine::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of events delivered to the world.
    pub events_processed: u64,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Why an engine run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The future-event list drained.
    QueueEmpty,
    /// The configured event budget was exhausted.
    EventBudgetExhausted,
}

/// A discrete-event simulation engine.
///
/// # Examples
///
/// ```
/// use gridsched_sim::engine::{Engine, Scheduler, World};
/// use gridsched_sim::time::{SimDuration, SimTime};
///
/// struct Counter {
///     fired: u32,
/// }
///
/// impl World for Counter {
///     type Event = ();
///     fn handle(&mut self, _now: SimTime, _ev: (), s: &mut Scheduler<'_, ()>) {
///         self.fired += 1;
///         if self.fired < 3 {
///             s.after(SimDuration::from_ticks(5), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.prime(SimTime::ZERO, ());
/// let mut world = Counter { fired: 0 };
/// let report = engine.run(&mut world);
/// assert_eq!(world.fired, 3);
/// assert_eq!(report.finished_at.ticks(), 10);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    event_budget: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with an effectively unlimited event budget.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            event_budget: u64::MAX,
        }
    }

    /// Limits the run to at most `budget` delivered events — a guard against
    /// accidentally self-perpetuating worlds.
    #[must_use]
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an initial event before the run starts.
    pub fn prime(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.schedule(at, event)
    }

    /// Runs the event loop until the queue drains or the event budget is
    /// exhausted.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W) -> RunReport {
        let mut processed: u64 = 0;
        loop {
            if processed >= self.event_budget {
                return RunReport {
                    events_processed: processed,
                    finished_at: self.now,
                    stop: StopReason::EventBudgetExhausted,
                };
            }
            let Some((at, event)) = self.queue.pop() else {
                return RunReport {
                    events_processed: processed,
                    finished_at: self.now,
                    stop: StopReason::QueueEmpty,
                };
            };
            debug_assert!(
                at >= self.now,
                "event queue delivered an event from the past"
            );
            self.now = at;
            let mut scheduler = Scheduler {
                now: self.now,
                queue: &mut self.queue,
            };
            world.handle(at, event, &mut scheduler);
            processed += 1;
        }
    }

    /// Total number of events ever scheduled.
    #[must_use]
    pub fn scheduled_count(&self) -> u64 {
        self.queue.scheduled_count()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Tick {
        Ping,
        Pong,
    }

    struct PingPong {
        log: Vec<(u64, Tick)>,
        rounds: u32,
    }

    impl World for PingPong {
        type Event = Tick;
        fn handle(&mut self, now: SimTime, ev: Tick, s: &mut Scheduler<'_, Tick>) {
            self.log.push((now.ticks(), ev));
            if self.rounds == 0 {
                return;
            }
            self.rounds -= 1;
            match ev {
                Tick::Ping => {
                    s.after(SimDuration::from_ticks(2), Tick::Pong);
                }
                Tick::Pong => {
                    s.after(SimDuration::from_ticks(3), Tick::Ping);
                }
            }
        }
    }

    #[test]
    fn ping_pong_alternates_with_correct_times() {
        let mut engine = Engine::new();
        engine.prime(SimTime::ZERO, Tick::Ping);
        let mut world = PingPong {
            log: Vec::new(),
            rounds: 4,
        };
        let report = engine.run(&mut world);
        assert_eq!(report.stop, StopReason::QueueEmpty);
        assert_eq!(
            world.log,
            vec![
                (0, Tick::Ping),
                (2, Tick::Pong),
                (5, Tick::Ping),
                (7, Tick::Pong),
                (10, Tick::Ping),
            ]
        );
    }

    #[test]
    fn event_budget_stops_run() {
        let mut engine = Engine::new().with_event_budget(3);
        engine.prime(SimTime::ZERO, Tick::Ping);
        let mut world = PingPong {
            log: Vec::new(),
            rounds: u32::MAX,
        };
        let report = engine.run(&mut world);
        assert_eq!(report.stop, StopReason::EventBudgetExhausted);
        assert_eq!(report.events_processed, 3);
    }

    struct Canceller {
        victim: Option<crate::event::EventId>,
        delivered: Vec<&'static str>,
    }

    impl World for Canceller {
        type Event = &'static str;
        fn handle(&mut self, _now: SimTime, ev: &'static str, s: &mut Scheduler<'_, &'static str>) {
            self.delivered.push(ev);
            if ev == "first" {
                if let Some(id) = self.victim.take() {
                    assert!(s.cancel(id));
                }
            }
        }
    }

    #[test]
    fn world_can_cancel_pending_events() {
        let mut engine = Engine::new();
        engine.prime(SimTime::from_ticks(1), "first");
        let victim = engine.prime(SimTime::from_ticks(5), "victim");
        engine.prime(SimTime::from_ticks(9), "last");
        let mut world = Canceller {
            victim: Some(victim),
            delivered: Vec::new(),
        };
        engine.run(&mut world);
        assert_eq!(world.delivered, vec!["first", "last"]);
    }

    #[test]
    fn empty_engine_reports_queue_empty() {
        let mut engine = Engine::<Tick>::new();
        struct Nop;
        impl World for Nop {
            type Event = Tick;
            fn handle(&mut self, _: SimTime, _: Tick, _: &mut Scheduler<'_, Tick>) {}
        }
        let report = engine.run(&mut Nop);
        assert_eq!(report.events_processed, 0);
        assert_eq!(report.stop, StopReason::QueueEmpty);
    }
}
