//! # gridsched-sim
//!
//! Deterministic simulation substrate underlying the `gridsched`
//! reproduction of Toporkov's PaCT 2009 scheduling framework.
//!
//! The crate provides three small building blocks:
//!
//! - [`time`]: integer simulated time ([`time::SimTime`]) and spans
//!   ([`time::SimDuration`]);
//! - [`rng`]: seeded random streams ([`rng::SimRng`]) so whole simulation
//!   campaigns replay bit-identically;
//! - [`check`]: a tiny deterministic property-testing harness used by the
//!   workspace's randomized test suites.
//!
//! # Examples
//!
//! ```
//! use gridsched_sim::rng::SimRng;
//! use gridsched_sim::time::{SimDuration, SimTime};
//!
//! // Two streams from one seed draw the same arrival times.
//! let arrivals = |seed| {
//!     let mut rng = SimRng::seed_from(seed);
//!     let mut t = SimTime::ZERO;
//!     (0..3)
//!         .map(|_| {
//!             t = t + SimDuration::from_ticks(rng.uniform_u64(1, 5));
//!             t
//!         })
//!         .collect::<Vec<_>>()
//! };
//! assert_eq!(arrivals(7), arrivals(7));
//! assert!(arrivals(7).windows(2).all(|w| w[0] < w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod rng;
pub mod time;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
