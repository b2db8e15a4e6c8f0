//! # gridsched-data
//!
//! Data-grid substrate for the `gridsched` reproduction of Toporkov's
//! PaCT 2009 scheduling framework: transfer timing, replica tracking and the
//! data-access policies that distinguish the paper's strategy families
//! (S1: active replication, S2: remote access, S3: static storage).
//!
//! # Examples
//!
//! ```
//! use gridsched_data::policy::DataPolicy;
//! use gridsched_model::ids::{DomainId, NodeId};
//! use gridsched_model::node::ResourcePool;
//! use gridsched_model::perf::Perf;
//! use gridsched_model::volume::Volume;
//!
//! let mut pool = ResourcePool::new();
//! let a = pool.add_node(DomainId::new(0), Perf::new(1.0)?);
//! let b = pool.add_node(DomainId::new(1), Perf::new(0.5)?);
//!
//! let remote = DataPolicy::remote_access();
//! let delay = remote.consumer_delay(Volume::new(5.0), a, b, &pool);
//! assert!(delay.ticks() > 0);
//! # Ok::<(), gridsched_model::perf::PerfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod network;
pub mod policy;

pub use catalog::ReplicaCatalog;
pub use network::TransferModel;
pub use policy::{ArcTimes, DataPolicy, DataPolicyKind};
