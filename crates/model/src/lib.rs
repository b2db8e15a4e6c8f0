//! # gridsched-model
//!
//! The resource and compound-job model shared by every layer of the
//! `gridsched` reproduction of Toporkov's PaCT 2009 scheduling framework:
//!
//! - [`ids`]: typed identifiers for jobs, tasks, nodes, domains, datasets;
//! - [`perf`]: relative node performance and the paper's three performance
//!   groups (fast / medium / slow);
//! - [`volume`]: abstract computation/data volumes (`V_ij` in the paper);
//! - [`window`] and [`timetable`]: wall-time windows and per-node
//!   advance-reservation calendars;
//! - [`node`]: processor nodes and the virtual organization's
//!   [`node::ResourcePool`];
//! - [`task`] and [`job`]: tasks and validated compound-job DAGs
//!   (the paper's "information graphs", Fig. 2a);
//! - [`estimate`]: execution-time estimation scenarios (full sweeps for
//!   S1/S2/S3, best/worst for MS1);
//! - [`fixtures`]: reference jobs, including the exact Fig. 2 job.
//!
//! # Examples
//!
//! ```
//! use gridsched_model::fixtures::fig2_job;
//! use gridsched_model::perf::Perf;
//!
//! let job = fig2_job();
//! // Critical path on the fastest node class: P1-P2-P4-P6 = 2+3+2+2 ticks.
//! assert_eq!(job.critical_path(Perf::FULL).ticks(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod estimate;
pub mod fixtures;
pub mod gap_index;
pub mod ids;
pub mod job;
pub mod node;
pub mod perf;
pub mod task;
pub mod timetable;
pub mod volume;
pub mod window;

pub use availability::{AvailabilitySnapshot, PlanConflict, TimetableOverlay};
pub use estimate::{EstimateScenario, ScenarioSweep};
pub use gap_index::GapIndex;
pub use ids::{DataId, DomainId, GlobalTaskId, JobId, NodeId, TaskId};
pub use job::{BuildJobError, DataEdge, Job, JobBuilder};
pub use node::{FrozenCalendars, Node, ResourcePool};
pub use perf::{Perf, PerfGroup};
pub use task::Task;
pub use timetable::{NodeCalendar, Reservation, ReservationOwner, ReserveConflict, Timetable};
pub use volume::Volume;
pub use window::TimeWindow;
