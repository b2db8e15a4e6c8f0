//! # gridsched-metrics
//!
//! Statistics accumulators and plain-text report tables for the `gridsched`
//! experiments:
//!
//! - [`summary::Summary`]: streaming mean/variance/min/max;
//! - [`histogram::Histogram`]: fixed-bucket histograms with quantiles;
//! - [`load::GroupLoad`]: per-performance-group node load (Fig. 4a);
//! - [`table::Table`]: aligned text tables for experiment output;
//! - [`forecast`]: node load-level forecasting (§5 future work) — the
//!   metascheduler's domain-ranking signal;
//! - [`telemetry`]: hierarchical timing spans, monotonic QoS-event
//!   counters/gauges, and JSON / Prometheus / table exporters — the
//!   observability layer threaded through the planner, the job-flow
//!   campaign and the batch systems.
//!
//! # Examples
//!
//! ```
//! use gridsched_metrics::summary::Summary;
//!
//! let waits: Summary = [3.0, 5.0, 4.0].into_iter().collect();
//! assert_eq!(waits.count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forecast;
pub mod histogram;
pub mod load;
pub mod summary;
pub mod table;
pub mod telemetry;

pub use forecast::{booked_load, rank_domains_by_forecast};
pub use histogram::Histogram;
pub use load::GroupLoad;
pub use summary::Summary;
pub use table::Table;
pub use telemetry::{Counter, Span, SpanId, Telemetry, TelemetrySnapshot};
