//! # gridsched-flow
//!
//! The job-flow level of Toporkov's PaCT 2009 framework: the hierarchical
//! metascheduler that groups user jobs into strategy flows (§2, Fig. 1),
//! and the end-to-end virtual-organization simulation that drives the
//! paper's experiments.
//!
//! - [`metascheduler`]: the top-tier dispatcher — flow assignment rules
//!   (single flow, round-robin, by job size) and home-domain selection
//!   for activated schedules;
//! - `driver` (crate-private): the shared event machine both campaign
//!   flavours run on — one stable time-sorted pass over the campaign's
//!   pre-drawn releases, perturbations and faults;
//! - [`simulation`]: the campaign driver — strategy generation per job,
//!   activation of the supporting schedule matching observed conditions,
//!   background perturbations, task overruns, and the dynamic reallocation
//!   mechanism (schedule breaks → replan around started tasks);
//! - [`faults`]: deterministic fault injection — node outages (reserved
//!   windows voided, running tasks migrate), node degradation (remaining
//!   runtimes inflate) and data-transfer faults (retry penalty, absorbed
//!   by active replication);
//! - [`online`]: the online serving layer — streaming arrivals from a
//!   seeded [`gridsched_workload::arrivals::ArrivalProcess`], a bounded
//!   admission queue with deadline probes, and incremental
//!   replanning on arrival/completion/fault events;
//! - [`trace`]: the chronological campaign event log;
//! - [`oracle`]: the trace-invariant oracle that replays a trace against
//!   its report and the final pool — run automatically on every traced
//!   campaign in debug/test builds;
//! - [`report`]: per-job records and the aggregates Figs. 3–4 plot, plus
//!   fault/recovery accounting.
//!
//! # Examples
//!
//! ```
//! use gridsched_core::strategy::StrategyKind;
//! use gridsched_flow::metascheduler::FlowAssignment;
//! use gridsched_flow::simulation::{run_campaign, CampaignConfig};
//!
//! let report = run_campaign(&CampaignConfig {
//!     assignment: FlowAssignment::Single(StrategyKind::S2),
//!     jobs: 5,
//!     perturbations: 5,
//!     ..CampaignConfig::default()
//! });
//! assert_eq!(report.records.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
mod driver;
pub mod faults;
pub mod metascheduler;
pub mod online;
pub mod oracle;
pub mod report;
pub mod simulation;
pub mod trace;

pub use bridge::{domain_reservations, domain_reserved_ticks};
pub use faults::{Fault, FaultConfig, FaultKind, FaultPlan, FaultSummary};
pub use metascheduler::{FlowAssignment, Metascheduler};
pub use online::{
    run_online, run_online_instrumented, AdmissionOutcome, AdmissionRecord, AdmissionSummary,
    OnlineConfig, OnlineReport,
};
pub use oracle::{audit, audit_final_state, FinalJobState, OracleViolation};
pub use report::{DomainStat, JobRecord, VoReport};
pub use simulation::{run_campaign, run_campaign_instrumented, CampaignConfig};
pub use trace::{BreakKind, CampaignEvent, CampaignTrace, RejectReason};
