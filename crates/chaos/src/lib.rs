//! Seeded chaos harness: differential campaign fuzzing for the whole
//! scheduling stack.
//!
//! The workspace's QoS story rests on a pile of *bit-identity contracts*:
//! the `Sequential` and pooled scenario-sweep executors must plan
//! identically; telemetry must be strictly observational; and a batch
//! campaign over a degenerate zero-gap release stream must match an
//! online serving run over the same arrivals. Each contract is pinned by
//! hand-picked seeds in the test suite — this crate turns them into
//! *continuously fuzzed invariants*:
//!
//! 1. [`space::ChaosCampaign::generate`] forks an entire campaign
//!    description — pool size, domain count, fault plan, perturbation
//!    stream, deadlines, arrival gaps — from one `u64` seed.
//! 2. [`differential::run_axes`] executes the campaign across every
//!    configuration axis that must agree and asserts trace-fingerprint
//!    equality plus [`gridsched::flow::oracle`] cleanliness on every run.
//! 3. On divergence, [`shrink::shrink`] greedily drops jobs, faults,
//!    perturbations, domains and nodes while the failure still
//!    reproduces, and [`repro::ReproArtifact`] serializes the minimized
//!    campaign as a self-contained `chaos-repro.json` with the exact
//!    `chaos_run` CLI to replay it.
//!
//! The differential style follows the deadline/budget stress regimes and
//! hierarchy stress scenarios of the related-work experiments: instead of
//! asserting absolute numbers, every run is its own reference — two
//! configurations that must agree either do, or the harness ships a
//! minimal counterexample.
//!
//! Everything is deterministic: the same master seed yields the same
//! campaigns, the same verdicts and the same shrunken repro, byte for
//! byte. A test-only injection hook ([`differential::Axis`] passed as
//! `inject`) forces a divergence so the catch→shrink→replay pipeline is
//! itself under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod fingerprint;
pub mod repro;
pub mod runner;
pub mod shrink;
pub mod space;

pub use differential::{run_axes, Axis, AxisReport, ChaosFailure};
pub use repro::ReproArtifact;
pub use runner::{replay, run_sweep, SweepConfig, SweepOutcome};
pub use space::ChaosCampaign;
