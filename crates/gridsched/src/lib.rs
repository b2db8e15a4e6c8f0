//! # gridsched
//!
//! A faithful, from-scratch reproduction of
//!
//! > V. Toporkov, *"Application-Level and Job-Flow Scheduling: An Approach
//! > for Achieving Quality of Service in Distributed Computing"*,
//! > PaCT 2009, LNCS 5698, pp. 350–359.
//!
//! The paper proposes scheduling **strategies** — sets of supporting
//! schedules built with the **critical works method** — coordinated across
//! two levels: application-level co-allocation of compound-job tasks, and
//! job-flow management in a hierarchical virtual organization.
//!
//! This facade re-exports the whole workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sim`] | integer simulated time, seeded RNG, property-test harness |
//! | [`model`] | nodes, performance groups, timetables, compound-job DAGs |
//! | [`data`] | transfer model, replica catalog, S1/S2/S3 data policies |
//! | [`batch`] | local batch systems: FCFS, LWF, backfilling, reservations |
//! | [`workload`] | §4 random workloads: pools, job streams, background load |
//! | [`core`] | **the contribution**: critical works, cost model, strategies |
//! | [`flow`] | metascheduler, job flows, dynamic VO campaign simulation |
//! | [`metrics`] | summaries, histograms, group loads, text tables |
//!
//! # Quickstart
//!
//! Schedule the paper's Fig. 2 job and print its supporting schedules:
//!
//! ```
//! use gridsched::core::strategy::{Strategy, StrategyConfig, StrategyKind};
//! use gridsched::model::fixtures::fig2_job;
//! use gridsched::model::ids::DomainId;
//! use gridsched::model::node::ResourcePool;
//! use gridsched::model::perf::Perf;
//! use gridsched::sim::time::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let job = fig2_job();
//! let mut pool = ResourcePool::new();
//! for j in 1..=4u32 {
//!     pool.add_node(DomainId::new(0), Perf::new(1.0 / f64::from(j))?);
//! }
//! let config = StrategyConfig::for_kind(StrategyKind::S2, &pool);
//! let strategy = Strategy::generate(&job, &pool, &config, SimTime::ZERO);
//! assert!(strategy.is_admissible());
//! for dist in strategy.distributions() {
//!     println!("{dist}");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gridsched_batch as batch;
pub use gridsched_core as core;
pub use gridsched_data as data;
pub use gridsched_flow as flow;
pub use gridsched_metrics as metrics;
pub use gridsched_model as model;
pub use gridsched_sim as sim;
pub use gridsched_workload as workload;
