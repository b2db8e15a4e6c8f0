//! # gridsched-core
//!
//! The primary contribution of Toporkov's PaCT 2009 paper, implemented as a
//! library: **application-level scheduling strategies built with the
//! critical works method**.
//!
//! A compound job (a DAG of tasks, [`gridsched_model::job::Job`]) is
//! scheduled onto heterogeneous processor nodes by:
//!
//! 1. decomposing it into *critical works* — longest chains of unassigned
//!    tasks ([`chains`]);
//! 2. co-allocating each work with a Pareto dynamic program minimizing the
//!    paper's cost function `CF = Σ ceil(V_i / T_i)` subject to the job
//!    deadline ([`allocate`], [`cost`]);
//! 3. detecting and resolving *collisions* between works competing for the
//!    same node ([`method`], entered through a [`session`]);
//! 4. sweeping estimation scenarios and data policies to produce a
//!    **strategy**: a set of supporting schedules the job-flow layer can
//!    switch between at run time ([`strategy`], [`distribution`]).
//!
//! # Examples
//!
//! Schedule the paper's Fig. 2 job on its four node types and inspect the
//! resulting supporting schedule:
//!
//! ```
//! use gridsched_core::method::ScheduleRequest;
//! use gridsched_core::session::PlanningSession;
//! use gridsched_data::policy::DataPolicy;
//! use gridsched_model::estimate::EstimateScenario;
//! use gridsched_model::fixtures::fig2_job;
//! use gridsched_model::ids::DomainId;
//! use gridsched_model::node::ResourcePool;
//! use gridsched_model::perf::Perf;
//! use gridsched_sim::time::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let job = fig2_job();
//! let mut pool = ResourcePool::new();
//! for j in 1..=4u32 {
//!     pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j))?);
//! }
//! let policy = DataPolicy::remote_access();
//! let session = PlanningSession::open(&pool);
//! let dist = session.build_distribution(&ScheduleRequest {
//!     job: &job,
//!     pool: &pool,
//!     policy: &policy,
//!     scenario: EstimateScenario::BEST,
//!     release: SimTime::ZERO,
//! })?;
//! assert!(dist.meets_deadline(SimTime::from_ticks(20)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Persistent worker pool for scenario sweeps.
///
/// The implementation is vendored in the (tiny, dependency-free)
/// `gridsched-exec` crate because the pool needs two narrow `unsafe`
/// ingredients and every other workspace crate — this one included —
/// carries `#![forbid(unsafe_code)]`. Re-exported here so planning code
/// and tests can simply say `gridsched_core::pool::WorkerPool`.
pub mod pool {
    pub use gridsched_exec::WorkerPool;
}

pub mod allocate;
pub mod chains;
pub mod cost;
pub mod distribution;
pub mod gantt;
pub mod granularity;
pub mod method;
pub mod objective;
pub mod scratch;
pub mod session;
pub mod strategy;

pub use allocate::{AllocateError, AllocationContext};
pub use chains::{chain_decomposition, next_critical_work, ranked_maximal_paths, CriticalWork};
pub use cost::{task_cost, Cost};
pub use distribution::{CollisionRecord, Distribution, DistributionError, Placement};
pub use gantt::render_gantt;
pub use granularity::{coarsen, CoarsenedJob};
pub use method::{build_distribution_cloning, ScheduleError, ScheduleRequest};
pub use objective::Objective;
pub use scratch::{EngineScratch, Scratch};
pub use session::PlanningSession;
pub use strategy::{
    GenerateOptions, Strategy, StrategyConfig, StrategyKind, SweepExecutor, FULL_SWEEP_SCENARIOS,
};
