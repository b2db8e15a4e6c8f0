//! Trace-invariant oracle for campaign runs.
//!
//! [`audit`] replays a [`CampaignTrace`] against its final
//! [`VoReport`] and checks that the job-flow level behaved lawfully:
//!
//! - event times are monotone;
//! - every job walks a legal lifecycle (`Released` → `Activated` →
//!   breaks/resolutions → exactly one terminal `Completed` xor `Dropped`,
//!   with nothing after the terminal); online campaigns prepend `Arrived`
//!   and may end a lifecycle early with a terminal `Rejected` (a job that
//!   only ever `Arrived` is a lawful deferral — still queued at horizon);
//! - resolutions (`Switched`/`Replanned`/`Migrated`/`Dropped`) never
//!   outnumber the breaks that caused them;
//! - per-record counters (`breaks`, `switches`, `migrations`, `dropped`,
//!   `admissible`) match the replayed trace exactly, and `time_to_live`
//!   is recomputable from it;
//! - the report's [`FaultSummary`](crate::faults::FaultSummary)
//!   accounting matches the trace event-for-event.
//!
//! [`audit_final_state`] additionally checks *structural* invariants that
//! need the final resource pool: no node-tick is double-booked (across
//! jobs and background load alike), every task reservation lies inside
//! its owner's placement, and unbroken schedules respect precedence — no
//! task starts before its predecessors' windows (including transfer
//! staging) end.
//!
//! The campaign runs both audits automatically in debug/test builds
//! whenever a trace is collected, so every traced test run is verified.

use std::collections::HashMap;
use std::fmt;

use gridsched_core::distribution::Placement;
use gridsched_model::ids::{DomainId, JobId, TaskId};
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;
use gridsched_model::timetable::ReservationOwner;
use gridsched_sim::time::SimTime;

use crate::report::VoReport;
use crate::trace::{CampaignEvent, CampaignTrace};

/// A broken invariant found by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleViolation {
    /// The report carries no trace to audit.
    MissingTrace,
    /// Event times go backwards.
    NonMonotoneTime {
        /// Position of the offending event.
        index: usize,
    },
    /// A job arrived more than once (or after its release).
    DuplicateArrival(JobId),
    /// An online rejection on a job that never arrived.
    RejectionWithoutArrival(JobId),
    /// An online rejection after the job was already admitted (released).
    RejectionAfterAdmission(JobId),
    /// A job was released more than once.
    DuplicateRelease(JobId),
    /// A job event appeared before the job's release.
    EventBeforeRelease(JobId),
    /// A job activated without an admissible release (or twice).
    IllegalActivation(JobId),
    /// A break, absorption or resolution on a never-activated job.
    EventBeforeActivation(JobId),
    /// A resolution event without a preceding unresolved break.
    ResolutionWithoutBreak(JobId),
    /// An event after the job's terminal `Completed`/`Dropped`.
    EventAfterTerminal(JobId),
    /// An activated job reached the end of the trace with no terminal.
    UnresolvedActivation(JobId),
    /// A traced job has no record in the report.
    UnknownJob(JobId),
    /// A record's flag or counter disagrees with the trace.
    RecordMismatch {
        /// The job.
        job: JobId,
        /// Which field disagrees.
        field: &'static str,
    },
    /// A record's `time_to_live` is not recomputable from the trace.
    TtlMismatch {
        /// The job.
        job: JobId,
    },
    /// The report's fault summary disagrees with the trace.
    FaultAccountingMismatch {
        /// Which counter disagrees.
        field: &'static str,
        /// Value recomputed from the trace.
        from_trace: usize,
        /// Value claimed by the report.
        from_report: usize,
    },
    /// Two reservations overlap on one node (double booking).
    DoubleBooking {
        /// Node index.
        node: usize,
    },
    /// A task reservation is owned by a job the campaign never activated.
    UnknownReservationOwner(JobId),
    /// A task reservation exists without a matching placement.
    ReservationWithoutPlacement {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
    },
    /// A task reservation lies outside (or off the node of) its
    /// placement.
    ReservationOutsidePlacement {
        /// The job.
        job: JobId,
        /// The task.
        task: TaskId,
    },
    /// An unbroken schedule starts a task before a predecessor finishes.
    PrecedenceViolation {
        /// The job.
        job: JobId,
    },
    /// Consecutive `Migrated` events on a job do not chain: a later
    /// migration's `from` domain differs from the previous one's `to`.
    MigrationChainBroken(JobId),
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::MissingTrace => f.write_str("report carries no trace to audit"),
            OracleViolation::NonMonotoneTime { index } => {
                write!(f, "event {index} goes back in time")
            }
            OracleViolation::DuplicateArrival(j) => write!(f, "{j} arrived twice"),
            OracleViolation::RejectionWithoutArrival(j) => {
                write!(f, "{j} rejected without ever arriving")
            }
            OracleViolation::RejectionAfterAdmission(j) => {
                write!(f, "{j} rejected after it was already admitted")
            }
            OracleViolation::DuplicateRelease(j) => write!(f, "{j} released twice"),
            OracleViolation::EventBeforeRelease(j) => {
                write!(f, "{j} has an event before its release")
            }
            OracleViolation::IllegalActivation(j) => {
                write!(f, "{j} activated without a single admissible release")
            }
            OracleViolation::EventBeforeActivation(j) => {
                write!(f, "{j} has a lifecycle event before activation")
            }
            OracleViolation::ResolutionWithoutBreak(j) => {
                write!(f, "{j} resolved more breaks than it suffered")
            }
            OracleViolation::EventAfterTerminal(j) => {
                write!(f, "{j} has an event after its terminal state")
            }
            OracleViolation::UnresolvedActivation(j) => {
                write!(f, "{j} activated but never completed nor dropped")
            }
            OracleViolation::UnknownJob(j) => {
                write!(f, "{j} appears in the trace without a record")
            }
            OracleViolation::RecordMismatch { job, field } => {
                write!(f, "{job}: record field `{field}` disagrees with the trace")
            }
            OracleViolation::TtlMismatch { job } => {
                write!(f, "{job}: time_to_live is not recomputable from the trace")
            }
            OracleViolation::FaultAccountingMismatch {
                field,
                from_trace,
                from_report,
            } => write!(
                f,
                "fault summary `{field}`: trace says {from_trace}, report says {from_report}"
            ),
            OracleViolation::DoubleBooking { node } => {
                write!(f, "node {node} has overlapping reservations")
            }
            OracleViolation::UnknownReservationOwner(j) => {
                write!(f, "a reservation is owned by unknown {j}")
            }
            OracleViolation::ReservationWithoutPlacement { job, task } => {
                write!(f, "{job}/{task} reserved without a placement")
            }
            OracleViolation::ReservationOutsidePlacement { job, task } => {
                write!(f, "{job}/{task} reservation lies outside its placement")
            }
            OracleViolation::PrecedenceViolation { job } => {
                write!(f, "{job}: unbroken schedule violates task precedence")
            }
            OracleViolation::MigrationChainBroken(j) => {
                write!(f, "{j}: migration domains do not chain")
            }
        }
    }
}

impl std::error::Error for OracleViolation {}

/// Per-job lifecycle state while replaying the trace.
#[derive(Debug, Default, Clone)]
struct Lifecycle {
    arrived: bool,
    rejected: bool,
    released: bool,
    admissible: bool,
    activated: bool,
    breaks: usize,
    switches: usize,
    replans: usize,
    migrations: usize,
    resolutions: usize,
    dropped: bool,
    completed: bool,
    first_break: Option<SimTime>,
    /// Home domain after the last migration (`to` of the latest
    /// `Migrated` event); `None` while the job never migrated.
    home: Option<DomainId>,
}

impl Lifecycle {
    fn terminal(&self) -> bool {
        self.dropped || self.completed || self.rejected
    }
}

/// Replays `report.trace` and checks every trace-level invariant.
///
/// # Errors
///
/// Returns the first [`OracleViolation`] found. A report without a trace
/// fails with [`OracleViolation::MissingTrace`] — there is nothing to
/// audit.
pub fn audit(report: &VoReport) -> Result<(), OracleViolation> {
    let trace = report.trace.as_ref().ok_or(OracleViolation::MissingTrace)?;
    let jobs = replay(trace)?;
    check_records(report, &jobs)?;
    check_fault_accounting(report, trace)?;
    Ok(())
}

/// Replays the trace into per-job lifecycles, enforcing chronology and
/// lifecycle legality.
fn replay(trace: &CampaignTrace) -> Result<HashMap<JobId, Lifecycle>, OracleViolation> {
    let mut jobs: HashMap<JobId, Lifecycle> = HashMap::new();
    let mut last = SimTime::ZERO;
    for (index, (at, event)) in trace.events().iter().enumerate() {
        if *at < last {
            return Err(OracleViolation::NonMonotoneTime { index });
        }
        last = *at;
        let Some(job) = event.job() else {
            continue; // Pool-level events carry no lifecycle.
        };
        let state = jobs.entry(job).or_default();
        match event {
            CampaignEvent::Arrived { .. } => {
                // Arrival is the very first thing that can happen to an
                // online job; batch campaigns skip it entirely.
                if state.arrived || state.released {
                    return Err(OracleViolation::DuplicateArrival(job));
                }
                state.arrived = true;
            }
            CampaignEvent::Rejected { .. } => {
                if !state.arrived {
                    return Err(OracleViolation::RejectionWithoutArrival(job));
                }
                if state.released {
                    return Err(OracleViolation::RejectionAfterAdmission(job));
                }
                if state.terminal() {
                    return Err(OracleViolation::EventAfterTerminal(job));
                }
                state.rejected = true;
            }
            CampaignEvent::Released { admissible, .. } => {
                if state.released {
                    return Err(OracleViolation::DuplicateRelease(job));
                }
                if state.rejected {
                    return Err(OracleViolation::EventAfterTerminal(job));
                }
                state.released = true;
                state.admissible = *admissible;
            }
            CampaignEvent::Activated { .. } => {
                if !state.released {
                    return Err(OracleViolation::EventBeforeRelease(job));
                }
                if !state.admissible || state.activated {
                    return Err(OracleViolation::IllegalActivation(job));
                }
                state.activated = true;
            }
            CampaignEvent::Broken { .. } => {
                require_live(state, job)?;
                state.breaks += 1;
                state.first_break.get_or_insert(*at);
            }
            CampaignEvent::Switched { .. } => {
                require_live(state, job)?;
                if state.resolutions >= state.breaks {
                    return Err(OracleViolation::ResolutionWithoutBreak(job));
                }
                state.switches += 1;
                state.resolutions += 1;
            }
            CampaignEvent::Replanned { .. } => {
                require_live(state, job)?;
                if state.resolutions >= state.breaks {
                    return Err(OracleViolation::ResolutionWithoutBreak(job));
                }
                state.replans += 1;
                state.resolutions += 1;
            }
            CampaignEvent::Migrated { from, to, .. } => {
                require_live(state, job)?;
                if state.resolutions >= state.breaks {
                    return Err(OracleViolation::ResolutionWithoutBreak(job));
                }
                // Migrations must chain: each hand-off leaves from the
                // domain the previous one arrived at.
                if let Some(home) = state.home {
                    if *from != home {
                        return Err(OracleViolation::MigrationChainBroken(job));
                    }
                }
                state.home = Some(*to);
                state.migrations += 1;
                state.resolutions += 1;
            }
            CampaignEvent::Dropped { .. } => {
                require_live(state, job)?;
                if state.resolutions >= state.breaks {
                    return Err(OracleViolation::ResolutionWithoutBreak(job));
                }
                state.resolutions += 1;
                state.dropped = true;
            }
            CampaignEvent::Completed { .. } => {
                require_live(state, job)?;
                state.completed = true;
            }
            CampaignEvent::TransferAbsorbed { .. } => {
                require_live(state, job)?;
            }
            CampaignEvent::Perturbation { .. }
            | CampaignEvent::Outage { .. }
            | CampaignEvent::Degraded { .. }
            | CampaignEvent::TransferFaultInjected { .. } => unreachable!("no job"),
        }
    }
    // Every activation must have ended somewhere.
    for (job, state) in &jobs {
        if state.activated && !state.terminal() {
            return Err(OracleViolation::UnresolvedActivation(*job));
        }
    }
    Ok(jobs)
}

/// An activated, not-yet-terminated job — the only state in which breaks,
/// resolutions, absorptions and terminals are legal.
fn require_live(state: &Lifecycle, job: JobId) -> Result<(), OracleViolation> {
    if !state.released {
        return Err(OracleViolation::EventBeforeRelease(job));
    }
    if !state.activated {
        return Err(OracleViolation::EventBeforeActivation(job));
    }
    if state.terminal() {
        return Err(OracleViolation::EventAfterTerminal(job));
    }
    Ok(())
}

/// Cross-checks every record against its replayed lifecycle.
fn check_records(
    report: &VoReport,
    jobs: &HashMap<JobId, Lifecycle>,
) -> Result<(), OracleViolation> {
    for job in jobs.keys() {
        if !report.records.iter().any(|r| r.job_id == *job) {
            return Err(OracleViolation::UnknownJob(*job));
        }
    }
    for r in &report.records {
        let Some(state) = jobs.get(&r.job_id) else {
            // A record without trace events: the job never even released
            // in the trace — a missing-release corruption.
            return Err(OracleViolation::RecordMismatch {
                job: r.job_id,
                field: "released",
            });
        };
        let mismatch = |field| OracleViolation::RecordMismatch {
            job: r.job_id,
            field,
        };
        if state.admissible != r.admissible {
            return Err(mismatch("admissible"));
        }
        if state.activated != r.cost.is_some() || state.activated != r.planned_makespan.is_some() {
            return Err(mismatch("activated"));
        }
        if state.breaks != r.breaks {
            return Err(mismatch("breaks"));
        }
        if state.switches != r.switches {
            return Err(mismatch("switches"));
        }
        if state.migrations != r.migrations {
            return Err(mismatch("migrations"));
        }
        if state.dropped != r.dropped {
            return Err(mismatch("dropped"));
        }
        if state.migrations > 0 && r.home_domain != state.home {
            return Err(mismatch("home_domain"));
        }
        if state.activated {
            // TTL is recomputable: survival until the first break, or the
            // whole planned runtime when nothing broke.
            let planned = r.planned_makespan.expect("activated record has a makespan");
            let until = state.first_break.unwrap_or(planned);
            let expected = until.saturating_since(r.release);
            if r.time_to_live != Some(expected) {
                return Err(OracleViolation::TtlMismatch { job: r.job_id });
            }
        } else if r.time_to_live.is_some() {
            return Err(OracleViolation::TtlMismatch { job: r.job_id });
        }
    }
    Ok(())
}

/// Cross-checks the report's fault summary against the trace.
fn check_fault_accounting(report: &VoReport, trace: &CampaignTrace) -> Result<(), OracleViolation> {
    use crate::trace::BreakKind;
    let count = |pred: &dyn Fn(&CampaignEvent) -> bool| trace.count(pred);
    let f = &report.faults;
    let checks: [(&'static str, usize, usize); 12] = [
        (
            "outages_injected",
            count(&|e| matches!(e, CampaignEvent::Outage { .. })),
            f.outages_injected,
        ),
        (
            "degradations_injected",
            count(&|e| matches!(e, CampaignEvent::Degraded { .. })),
            f.degradations_injected,
        ),
        (
            "transfer_faults_injected",
            count(&|e| matches!(e, CampaignEvent::TransferFaultInjected { .. })),
            f.transfer_faults_injected,
        ),
        (
            "transfer_faults_absorbed",
            count(&|e| matches!(e, CampaignEvent::TransferAbsorbed { .. })),
            f.transfer_faults_absorbed,
        ),
        (
            "breaks_by_perturbation",
            count(&|e| {
                matches!(
                    e,
                    CampaignEvent::Broken {
                        kind: BreakKind::Perturbation,
                        ..
                    }
                )
            }),
            f.breaks_by_perturbation,
        ),
        (
            "breaks_by_overrun",
            count(&|e| {
                matches!(
                    e,
                    CampaignEvent::Broken {
                        kind: BreakKind::Overrun,
                        ..
                    }
                )
            }),
            f.breaks_by_overrun,
        ),
        (
            "breaks_by_outage",
            count(&|e| {
                matches!(
                    e,
                    CampaignEvent::Broken {
                        kind: BreakKind::Outage,
                        ..
                    }
                )
            }),
            f.breaks_by_outage,
        ),
        (
            "breaks_by_transfer_fault",
            count(&|e| {
                matches!(
                    e,
                    CampaignEvent::Broken {
                        kind: BreakKind::TransferFault,
                        ..
                    }
                )
            }),
            f.breaks_by_transfer_fault,
        ),
        (
            "switches",
            count(&|e| matches!(e, CampaignEvent::Switched { .. })),
            f.switches,
        ),
        (
            "replans",
            count(&|e| matches!(e, CampaignEvent::Replanned { .. })),
            f.replans,
        ),
        (
            "migrations",
            count(&|e| matches!(e, CampaignEvent::Migrated { .. })),
            f.migrations,
        ),
        (
            "drops",
            count(&|e| matches!(e, CampaignEvent::Dropped { .. })),
            f.drops,
        ),
    ];
    for (field, from_trace, from_report) in checks {
        if from_trace != from_report {
            return Err(OracleViolation::FaultAccountingMismatch {
                field,
                from_trace,
                from_report,
            });
        }
    }
    Ok(())
}

/// One job's final state, for the structural audit.
#[derive(Debug)]
pub struct FinalJobState<'a> {
    /// The (planning) job.
    pub job: &'a Job,
    /// Its final placements, per task.
    pub placements: &'a HashMap<TaskId, Placement>,
    /// Whether the job was dropped.
    pub dropped: bool,
    /// How many breaks it suffered.
    pub breaks: usize,
}

/// Structural audit of the final resource pool against the jobs' final
/// placements.
///
/// Checks, per node: reservations are sorted and never overlap (no
/// double-booking across jobs and background load); every task-owned
/// reservation belongs to a known job, covers a placed task on the same
/// node, and lies inside that placement's window. Per unbroken, undropped
/// job: precedence holds — no consumer window starts before each
/// producer's window ends (transfer staging lives inside the consumer's
/// window) — and the job never overlaps itself on a node.
///
/// # Errors
///
/// Returns the first [`OracleViolation`] found.
pub fn audit_final_state(
    states: &[FinalJobState<'_>],
    pool: &ResourcePool,
) -> Result<(), OracleViolation> {
    let by_job: HashMap<JobId, &FinalJobState<'_>> =
        states.iter().map(|s| (s.job.id(), s)).collect();
    for node in pool.nodes() {
        let mut prev_end: Option<SimTime> = None;
        for r in pool.timetable(node.id()).iter() {
            if let Some(end) = prev_end {
                if r.window().start() < end {
                    return Err(OracleViolation::DoubleBooking {
                        node: node.id().index(),
                    });
                }
            }
            prev_end = Some(r.window().end());
            let ReservationOwner::Task(gid) = r.owner() else {
                continue;
            };
            let Some(state) = by_job.get(&gid.job) else {
                return Err(OracleViolation::UnknownReservationOwner(gid.job));
            };
            let Some(p) = state.placements.get(&gid.task) else {
                return Err(OracleViolation::ReservationWithoutPlacement {
                    job: gid.job,
                    task: gid.task,
                });
            };
            let inside = p.node == node.id()
                && r.window().start() >= p.window.start()
                && r.window().end() <= p.window.end();
            if !inside {
                return Err(OracleViolation::ReservationOutsidePlacement {
                    job: gid.job,
                    task: gid.task,
                });
            }
        }
    }
    for state in states {
        if state.breaks > 0 || state.dropped {
            continue;
        }
        let job_id = state.job.id();
        for e in state.job.edges() {
            let (Some(from), Some(to)) = (
                state.placements.get(&e.from()),
                state.placements.get(&e.to()),
            ) else {
                return Err(OracleViolation::ReservationWithoutPlacement {
                    job: job_id,
                    task: e.to(),
                });
            };
            if to.window.start() < from.window.end() {
                return Err(OracleViolation::PrecedenceViolation { job: job_id });
            }
        }
        let placements: Vec<&Placement> = state.placements.values().collect();
        for (i, a) in placements.iter().enumerate() {
            for b in &placements[i + 1..] {
                if a.node == b.node && a.window.overlaps(b.window) {
                    return Err(OracleViolation::DoubleBooking {
                        node: a.node.index(),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{run_campaign, CampaignConfig};
    use crate::trace::BreakKind;

    fn traced_report() -> VoReport {
        run_campaign(&CampaignConfig {
            jobs: 15,
            perturbations: 25,
            collect_trace: true,
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn clean_campaign_passes() {
        let report = traced_report();
        audit(&report).expect("real campaign traces are oracle-clean");
    }

    #[test]
    fn missing_trace_is_rejected() {
        let mut report = traced_report();
        report.trace = None;
        assert_eq!(audit(&report), Err(OracleViolation::MissingTrace));
    }

    #[test]
    fn time_reversal_is_rejected() {
        let mut report = traced_report();
        let trace = report.trace.as_mut().expect("trace collected");
        assert!(trace.len() >= 2, "campaign produced events");
        // Corrupt only the clock: push the first event past the second,
        // leaving the event order (and thus every lifecycle) intact.
        let events = trace.events_mut();
        let t1 = events[1].0;
        events[0].0 = SimTime::from_ticks(t1.ticks() + 1);
        assert!(matches!(
            audit(&report),
            Err(OracleViolation::NonMonotoneTime { .. })
        ));
    }

    #[test]
    fn phantom_break_is_rejected() {
        let mut report = traced_report();
        let job = report.records[0].job_id;
        let trace = report.trace.as_mut().expect("trace collected");
        let last = trace.events().last().expect("non-empty").0;
        trace.events_mut().push((
            last,
            CampaignEvent::Broken {
                job,
                kind: BreakKind::Overrun,
            },
        ));
        assert!(audit(&report).is_err());
    }

    #[test]
    fn counter_tampering_is_rejected() {
        let mut report = traced_report();
        report.faults.breaks_by_perturbation += 1;
        assert!(matches!(
            audit(&report),
            Err(OracleViolation::FaultAccountingMismatch { .. })
        ));
    }
}
