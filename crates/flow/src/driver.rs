//! The shared flow driver: both campaign flavours as one event machine.
//!
//! The batch campaign ([`crate::simulation`]) and the online serving loop
//! ([`crate::online`]) face the same event alphabet — job releases,
//! perturbations, injected faults — and the same settle-before-handle
//! discipline. This module expresses that shape once: a [`FlowMachine`]
//! plugs campaign-specific handlers into a [`gridsched_sim::engine::Engine`]
//! run, so the two drivers are two configurations of the same machine
//! rather than two hand-rolled event loops.
//!
//! The engine's event budget is wired in as a runaway guard: flow worlds
//! never schedule follow-up events, so a run that exceeds
//! [`flow_event_budget`] deliveries can only mean a self-perpetuating bug —
//! [`drive`] fails loudly with
//! [`crate::oracle::OracleViolation::EventBudgetExhausted`].
//!
//! # Determinism
//!
//! [`drive`] sorts the primed events by time with a stable sort and the
//! engine's queue fires equal-time events in insertion order, so event
//! delivery reproduces the pre-hierarchy sorted-vector loop bit for bit.

use gridsched_model::ids::NodeId;
use gridsched_model::job::Job;
use gridsched_sim::engine::{Engine, Scheduler, StopReason, World};
use gridsched_sim::time::{SimDuration, SimTime};

use crate::faults::Fault;

/// The event alphabet both flow drivers consume.
pub(crate) enum FlowEvent {
    /// A job enters the system: batch release or online arrival.
    Release(Job),
    /// An independent local job seizes node time.
    Perturbation {
        at: SimTime,
        node: NodeId,
        len: SimDuration,
    },
    /// An injected fault fires.
    Fault(Fault),
}

impl FlowEvent {
    pub(crate) fn time(&self) -> SimTime {
        match self {
            FlowEvent::Release(j) => j.release(),
            FlowEvent::Perturbation { at, .. } => *at,
            FlowEvent::Fault(f) => f.at,
        }
    }
}

/// Campaign-specific behaviour plugged into the shared driver.
pub(crate) trait FlowMachine {
    /// Settles everything due strictly by `now` (overruns; completions
    /// too, for machines that observe them online) before the event at
    /// `now` is handled.
    fn settle(&mut self, now: SimTime);
    /// A job entered the system.
    fn on_release(&mut self, job: Job);
    /// An independent local job seized `[at, at+len)` on `node`.
    fn on_perturbation(&mut self, at: SimTime, node: NodeId, len: SimDuration);
    /// An injected fault fired.
    fn on_fault(&mut self, fault: Fault);
    /// Runs after every handled event — an arrival, a perturbation or a
    /// fault (the online machine drains its admission queue here — every
    /// event can change feasibility).
    fn after_event(&mut self, _now: SimTime) {}
}

/// Adapter: any [`FlowMachine`] is a [`World`] over [`FlowEvent`]s.
struct FlowWorld<M>(M);

impl<M: FlowMachine> World for FlowWorld<M> {
    type Event = FlowEvent;

    fn handle(&mut self, now: SimTime, event: FlowEvent, _: &mut Scheduler<'_, FlowEvent>) {
        self.0.settle(now);
        match event {
            FlowEvent::Release(job) => self.0.on_release(job),
            FlowEvent::Perturbation { at, node, len } => self.0.on_perturbation(at, node, len),
            FlowEvent::Fault(fault) => self.0.on_fault(fault),
        }
        self.0.after_event(now);
    }
}

/// The runaway guard for a run priming `n` events. Flow machines schedule
/// nothing themselves, so `n` deliveries suffice; the slack absorbs future
/// machines that schedule a bounded number of follow-ups without letting a
/// self-perpetuating loop run away.
pub(crate) fn flow_event_budget(n: usize) -> u64 {
    n as u64 * 2 + 64
}

/// Drives `machine` through `events` on a [`gridsched_sim::engine::Engine`]
/// and hands it back once the queue drains.
///
/// # Panics
///
/// Panics with [`crate::oracle::OracleViolation::EventBudgetExhausted`] if
/// the engine stops on its event budget — a flow world must drain its
/// primed events and nothing more.
pub(crate) fn drive<M: FlowMachine>(mut events: Vec<FlowEvent>, machine: M, budget: u64) -> M {
    // Stable by-time sort: equal-time events keep their construction order
    // (releases before perturbations before faults), exactly as the
    // engine's queue will fire them.
    events.sort_by_key(FlowEvent::time);
    let mut engine = Engine::new().with_event_budget(budget);
    for event in events {
        engine.prime(event.time(), event);
    }
    let mut world = FlowWorld(machine);
    let report = engine.run(&mut world);
    assert!(
        report.stop != StopReason::EventBudgetExhausted,
        "flow driver violated its oracle: {}",
        crate::oracle::OracleViolation::EventBudgetExhausted {
            processed: report.events_processed,
        }
    );
    world.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the delivery order; schedules nothing.
    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, &'static str)>,
        settled_to: Vec<u64>,
    }

    impl FlowMachine for Recorder {
        fn settle(&mut self, now: SimTime) {
            self.settled_to.push(now.ticks());
        }
        fn on_release(&mut self, job: Job) {
            self.log.push((job.release().ticks(), "release"));
        }
        fn on_perturbation(&mut self, at: SimTime, _: NodeId, _: SimDuration) {
            self.log.push((at.ticks(), "perturbation"));
        }
        fn on_fault(&mut self, fault: Fault) {
            self.log.push((fault.at.ticks(), "fault"));
        }
    }

    fn perturbation(at: u64) -> FlowEvent {
        FlowEvent::Perturbation {
            at: SimTime::from_ticks(at),
            node: NodeId::new(0),
            len: SimDuration::from_ticks(1),
        }
    }

    #[test]
    fn events_fire_in_time_order_with_stable_ties() {
        use crate::faults::FaultKind;
        let events = vec![
            perturbation(7),
            FlowEvent::Fault(Fault {
                at: SimTime::from_ticks(7),
                node: NodeId::new(1),
                kind: FaultKind::Degradation { factor: 0.5 },
            }),
            perturbation(3),
        ];
        let machine = drive(events, Recorder::default(), flow_event_budget(3));
        assert_eq!(
            machine.log,
            vec![(3, "perturbation"), (7, "perturbation"), (7, "fault")]
        );
        // Settle runs before every event, at the event's instant.
        assert_eq!(machine.settled_to, vec![3, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "event kernel exhausted its budget")]
    fn exhausted_budget_fails_loudly() {
        let events = (0..8).map(perturbation).collect();
        let _ = drive(events, Recorder::default(), 4);
    }
}
