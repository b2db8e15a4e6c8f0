//! The shared flow driver: both campaign flavours as one event machine.
//!
//! The batch campaign ([`crate::simulation`]) and the online serving loop
//! ([`crate::online`]) face the same event alphabet — job releases,
//! perturbations, injected faults — and the same settle-before-handle
//! discipline. This module expresses that shape once: a [`FlowMachine`]
//! plugs campaign-specific handlers into one loop over the campaign's
//! pre-drawn events, so the two drivers are two configurations of the
//! same machine rather than two hand-rolled event loops.
//!
//! Both drivers draw their whole event stream before the run starts, and
//! machines schedule nothing: overruns and completions are settled inline
//! by [`FlowMachine::settle`]. A sorted pass over that stream is therefore
//! the entire event kernel.
//!
//! # Determinism
//!
//! [`drive`] sorts the events by time with a stable sort, so equal-time
//! events fire in construction order and event delivery reproduces the
//! pre-hierarchy sorted-vector loop bit for bit.

use gridsched_model::ids::NodeId;
use gridsched_model::job::Job;
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

/// Drives `machine` through `events` in time order and hands it back
/// settled to `horizon_end`.
///
/// Each event is preceded by [`FlowMachine::settle`] at its instant and
/// followed by [`FlowMachine::after_event`]; once the last event is
/// handled, the machine settles to `horizon_end`.
pub(crate) fn drive<M: FlowMachine>(
    mut events: Vec<FlowEvent>,
    mut machine: M,
    horizon_end: SimTime,
) -> M {
    // Stable by-time sort: equal-time events keep their construction order
    // (releases before perturbations before faults).
    events.sort_by_key(FlowEvent::time);
    for event in events {
        let now = event.time();
        machine.settle(now);
        match event {
            FlowEvent::Release(job) => machine.on_release(job),
            FlowEvent::Perturbation { at, node, len } => machine.on_perturbation(at, node, len),
            FlowEvent::Fault(fault) => machine.on_fault(fault),
        }
        machine.after_event(now);
    }
    machine.settle(horizon_end);
    machine
}

#[cfg(test)]
mod tests {
    use gridsched_model::ids::JobId;
    use gridsched_model::job::JobBuilder;
    use gridsched_model::volume::Volume;
    use gridsched_sim::check::{check, Gen};

    use super::*;
    use crate::faults::FaultKind;

    /// One call into the machine; deliveries carry the event's time and
    /// its construction index.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Settle(u64),
        Deliver(u64, u64),
        After(u64),
    }

    /// Records every call in order.
    #[derive(Default)]
    struct Recorder {
        log: Vec<Step>,
    }

    impl FlowMachine for Recorder {
        fn settle(&mut self, now: SimTime) {
            self.log.push(Step::Settle(now.ticks()));
        }
        fn on_release(&mut self, job: Job) {
            self.log
                .push(Step::Deliver(job.release().ticks(), job.id().raw()));
        }
        fn on_perturbation(&mut self, at: SimTime, node: NodeId, _: SimDuration) {
            self.log
                .push(Step::Deliver(at.ticks(), u64::from(node.raw())));
        }
        fn on_fault(&mut self, fault: Fault) {
            self.log
                .push(Step::Deliver(fault.at.ticks(), u64::from(fault.node.raw())));
        }
        fn after_event(&mut self, now: SimTime) {
            self.log.push(Step::After(now.ticks()));
        }
    }

    /// Event `id` of a random kind at `at`; the id rides in the job or
    /// node id so the recorder can tell deliveries apart.
    fn event(g: &mut Gen, id: u32, at: u64) -> FlowEvent {
        let at = SimTime::from_ticks(at);
        let node = NodeId::new(id);
        match g.usize_in(0, 4) {
            0 => {
                let mut b = JobBuilder::new();
                b.add_task(Volume::new(1.0));
                b.release_at(at);
                FlowEvent::Release(b.build(JobId::new(u64::from(id))).expect("valid job"))
            }
            1 => FlowEvent::Perturbation {
                at,
                node,
                len: SimDuration::from_ticks(1),
            },
            k => FlowEvent::Fault(Fault {
                at,
                node,
                kind: match k {
                    2 => FaultKind::Outage {
                        len: SimDuration::from_ticks(2),
                    },
                    3 => FaultKind::Degradation { factor: 0.5 },
                    _ => FaultKind::TransferFault {
                        retry: SimDuration::from_ticks(1),
                    },
                },
            }),
        }
    }

    #[test]
    fn events_fire_in_time_order_with_stable_ties() {
        check(128, |g: &mut Gen| {
            // Times from a few ticks, so equal-time ties are common.
            let times = g.vec_of(0, 60, |g| g.u64_in(0, 4));
            let events = (0u32..)
                .zip(&times)
                .map(|(id, &at)| event(g, id, at))
                .collect();
            let horizon = g.u64_in(4, 6);
            let log = drive(events, Recorder::default(), SimTime::from_ticks(horizon)).log;

            // One settle, delivery, after-event triple per event at the
            // event's instant, then one settle at the horizon.
            assert_eq!(log.len(), times.len() * 3 + 1);
            assert_eq!(log.last(), Some(&Step::Settle(horizon)));
            let mut delivered = Vec::new();
            for step in log.chunks_exact(3) {
                let &[Step::Settle(s), Step::Deliver(at, id), Step::After(a)] = step else {
                    panic!("not a settle/deliver/after triple: {step:?}");
                };
                assert!(s == at && a == at, "{step:?}");
                delivered.push((at, id));
            }
            // Times never decrease; equal times keep construction order.
            for pair in delivered.windows(2) {
                assert!(pair[0] < pair[1], "out of order: {pair:?}");
            }
            // Every event exactly once, at its own time.
            let mut ids: Vec<u64> = delivered.iter().map(|&(_, id)| id).collect();
            ids.sort_unstable();
            assert!(ids.iter().copied().eq(0..times.len() as u64));
            assert!(delivered.iter().all(|&(at, id)| times[id as usize] == at));
        });
    }
}
