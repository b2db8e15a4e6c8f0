//! Campaign event traces.
//!
//! An optional chronological log of everything the job-flow level does —
//! activations, perturbations, breaks, schedule switches, replans, drops —
//! for debugging simulations and for tests that assert *mechanisms*, not
//! just aggregate numbers.

use std::fmt;

use gridsched_model::ids::{DomainId, JobId, NodeId};
use gridsched_sim::time::SimTime;

/// Why an active schedule broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakKind {
    /// An independent local job seized a reserved window.
    Perturbation,
    /// A task ran past its reserved budget.
    Overrun,
    /// A node outage voided reservations (injected fault).
    Outage,
    /// A data transfer failed and must be retried (injected fault).
    TransferFault,
}

impl BreakKind {
    /// Every break cause.
    pub const ALL: [BreakKind; 4] = [
        BreakKind::Perturbation,
        BreakKind::Overrun,
        BreakKind::Outage,
        BreakKind::TransferFault,
    ];
}

impl fmt::Display for BreakKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakKind::Perturbation => f.write_str("perturbation"),
            BreakKind::Overrun => f.write_str("overrun"),
            BreakKind::Outage => f.write_str("outage"),
            BreakKind::TransferFault => f.write_str("transfer fault"),
        }
    }
}

/// Why the online admission controller turned a job away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was full when the job arrived.
    QueueFull,
    /// The job's remaining critical path cannot fit before its absolute
    /// deadline any more — no amount of waiting will help.
    Unmeetable,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("queue full"),
            RejectReason::Unmeetable => f.write_str("deadline unmeetable"),
        }
    }
}

/// One job-flow-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignEvent {
    /// A job entered the online serving loop (streamed arrival). Batch
    /// campaigns, which release a pre-built job list, never record this.
    Arrived {
        /// The job.
        job: JobId,
    },
    /// The online admission controller turned the job away — it was never
    /// released to the metascheduler.
    Rejected {
        /// The job.
        job: JobId,
        /// Why it was turned away.
        reason: RejectReason,
    },
    /// A job arrived and its strategy was generated.
    Released {
        /// The job.
        job: JobId,
        /// Whether any supporting schedule existed.
        admissible: bool,
    },
    /// A supporting schedule was activated and its windows reserved.
    Activated {
        /// The job.
        job: JobId,
        /// Cost of the activated schedule.
        cost: u64,
    },
    /// An independent local job reserved node time, displacing pending
    /// application-level reservations.
    ///
    /// Traced only when the perturbation broke at least one job's pending
    /// tasks and its window was still free afterwards; a perturbation that
    /// hit no pending task still reserves its window as background load
    /// (and counts in the `perturbations` counter) but leaves no event.
    Perturbation {
        /// The seized node.
        node: NodeId,
    },
    /// An active schedule broke.
    Broken {
        /// The job.
        job: JobId,
        /// What broke it.
        kind: BreakKind,
    },
    /// The break was resolved by switching to another supporting schedule.
    Switched {
        /// The job.
        job: JobId,
    },
    /// The break was resolved by replanning the remaining tasks.
    Replanned {
        /// The job.
        job: JobId,
    },
    /// The break was resolved by restarting already-started tasks on
    /// other nodes (their original node died) and replanning the rest.
    ///
    /// `from`/`to` record the inter-domain hand-off: the job's home
    /// domain before the break and the domain holding the majority of the
    /// re-placed schedule's reserved ticks. Equal domains mean the restart
    /// stayed in the same domain.
    Migrated {
        /// The job.
        job: JobId,
        /// Home domain before the migration replan.
        from: DomainId,
        /// Home domain after it (majority reserved ticks, ties to the
        /// lowest domain id).
        to: DomainId,
    },
    /// No feasible replan existed; the job was dropped.
    Dropped {
        /// The job.
        job: JobId,
    },
    /// Every remaining task of the job ran to completion.
    ///
    /// Recorded once per surviving activated job when the campaign
    /// finalizes; `end` is the job's realized completion time (which may
    /// differ from the event's timestamp — completion facts are only
    /// known at the end of the horizon).
    Completed {
        /// The job.
        job: JobId,
        /// Realized completion time (latest placement window end).
        end: SimTime,
    },
    /// A node outage struck (injected fault).
    Outage {
        /// The dead node.
        node: NodeId,
        /// Task reservations voided by the outage.
        voided: usize,
    },
    /// A node's performance dropped (injected fault).
    Degraded {
        /// The degraded node.
        node: NodeId,
    },
    /// An inter-domain transfer incident struck a node (injected fault).
    TransferFaultInjected {
        /// The afflicted node.
        node: NodeId,
    },
    /// A transfer fault hit a job whose active-replication policy had a
    /// nearby replica: no break needed.
    TransferAbsorbed {
        /// The unharmed job.
        job: JobId,
    },
}

impl CampaignEvent {
    /// The job this event concerns, if any (pool-level events — external
    /// perturbations and injected faults — concern no single job).
    #[must_use]
    pub fn job(&self) -> Option<JobId> {
        match self {
            CampaignEvent::Arrived { job }
            | CampaignEvent::Rejected { job, .. }
            | CampaignEvent::Released { job, .. }
            | CampaignEvent::Activated { job, .. }
            | CampaignEvent::Broken { job, .. }
            | CampaignEvent::Switched { job }
            | CampaignEvent::Replanned { job }
            | CampaignEvent::Migrated { job, .. }
            | CampaignEvent::Dropped { job }
            | CampaignEvent::Completed { job, .. }
            | CampaignEvent::TransferAbsorbed { job } => Some(*job),
            CampaignEvent::Perturbation { .. }
            | CampaignEvent::Outage { .. }
            | CampaignEvent::Degraded { .. }
            | CampaignEvent::TransferFaultInjected { .. } => None,
        }
    }
}

impl fmt::Display for CampaignEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignEvent::Arrived { job } => write!(f, "{job} arrived"),
            CampaignEvent::Rejected { job, reason } => {
                write!(f, "{job} rejected ({reason})")
            }
            CampaignEvent::Released { job, admissible } => {
                write!(f, "{job} released (admissible: {admissible})")
            }
            CampaignEvent::Activated { job, cost } => {
                write!(f, "{job} activated (CF {cost})")
            }
            CampaignEvent::Perturbation { node } => {
                write!(f, "independent job on {node}")
            }
            CampaignEvent::Broken { job, kind } => write!(f, "{job} broken by {kind}"),
            CampaignEvent::Switched { job } => write!(f, "{job} switched supporting schedule"),
            CampaignEvent::Replanned { job } => write!(f, "{job} replanned"),
            CampaignEvent::Migrated { job, from, to } => {
                write!(f, "{job} migrated off a dead node ({from} -> {to})")
            }
            CampaignEvent::Dropped { job } => write!(f, "{job} dropped"),
            CampaignEvent::Completed { job, end } => write!(f, "{job} completed at {end}"),
            CampaignEvent::Outage { node, voided } => {
                write!(f, "outage on {node} ({voided} reservations voided)")
            }
            CampaignEvent::Degraded { node } => write!(f, "{node} degraded"),
            CampaignEvent::TransferFaultInjected { node } => {
                write!(f, "transfer fault at {node}")
            }
            CampaignEvent::TransferAbsorbed { job } => {
                write!(f, "{job} absorbed a transfer fault via replication")
            }
        }
    }
}

/// A chronological campaign log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignTrace {
    events: Vec<(SimTime, CampaignEvent)>,
}

impl CampaignTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        CampaignTrace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, at: SimTime, event: CampaignEvent) {
        debug_assert!(
            self.events.last().is_none_or(|(t, _)| *t <= at),
            "trace must be chronological"
        );
        self.events.push((at, event));
    }

    /// All events, in order.
    #[must_use]
    pub fn events(&self) -> &[(SimTime, CampaignEvent)] {
        &self.events
    }

    /// Mutable access to the raw events, for tests that corrupt a real
    /// trace in place before handing it to the [`crate::oracle`].
    pub fn events_mut(&mut self) -> &mut Vec<(SimTime, CampaignEvent)> {
        &mut self.events
    }

    /// Events concerning one job.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &(SimTime, CampaignEvent)> {
        self.events
            .iter()
            .filter(move |(_, e)| e.job() == Some(job))
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&CampaignEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl fmt::Display for CampaignTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, e) in &self.events {
            writeln!(f, "{t:>8} {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_in_order_and_filters_by_job() {
        let mut tr = CampaignTrace::new();
        let j0 = JobId::new(0);
        let j1 = JobId::new(1);
        tr.push(
            SimTime::from_ticks(1),
            CampaignEvent::Released {
                job: j0,
                admissible: true,
            },
        );
        tr.push(
            SimTime::from_ticks(1),
            CampaignEvent::Activated { job: j0, cost: 12 },
        );
        tr.push(
            SimTime::from_ticks(3),
            CampaignEvent::Released {
                job: j1,
                admissible: false,
            },
        );
        tr.push(
            SimTime::from_ticks(5),
            CampaignEvent::Broken {
                job: j0,
                kind: BreakKind::Overrun,
            },
        );
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.for_job(j0).count(), 3);
        assert_eq!(tr.for_job(j1).count(), 1);
        assert_eq!(tr.count(|e| matches!(e, CampaignEvent::Broken { .. })), 1);
    }

    #[test]
    fn display_is_line_per_event() {
        let mut tr = CampaignTrace::new();
        tr.push(
            SimTime::from_ticks(2),
            CampaignEvent::Perturbation {
                node: NodeId::new(3),
            },
        );
        tr.push(
            SimTime::from_ticks(4),
            CampaignEvent::Dropped { job: JobId::new(9) },
        );
        let text = tr.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("N3"));
        assert!(text.contains("J9 dropped"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "chronological")]
    fn non_chronological_push_is_caught() {
        let mut tr = CampaignTrace::new();
        tr.push(
            SimTime::from_ticks(5),
            CampaignEvent::Perturbation {
                node: NodeId::new(0),
            },
        );
        tr.push(
            SimTime::from_ticks(4),
            CampaignEvent::Perturbation {
                node: NodeId::new(0),
            },
        );
    }
}
