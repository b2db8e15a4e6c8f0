//! What every workload provides to the measuring loop: fixed instances
//! generated from the seed, and one timed, checked run of an instance.

use std::time::Duration;

use gridsched::metrics::telemetry::Telemetry;

use crate::ledger::Extras;

/// One finished run of one instance: its wall clock, what it decided and
/// what its output checks found. Checks run after the clock stops.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall clock of the run (a serving loop, a campaign, a pass of the
    /// closed loop).
    pub wall: Duration,
    /// Fingerprint of everything the run decided; must repeat exactly.
    pub fingerprint: u64,
    /// Jobs offered (arrived, released, stepped).
    pub jobs: usize,
    /// Jobs given a schedule (admitted, admissible, reserved).
    pub admitted: usize,
    /// Sum of the paper's CF over activated schedules.
    pub cost_sum: f64,
    /// Activated schedules the cost sum covers.
    pub costs: usize,
    /// Per-decision walls in ms, where the workload times decisions.
    pub decisions_ms: Vec<f64>,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// The fixed instances one cycle runs, in order.
    fn instances(&self) -> usize;

    /// Runs instance `i` once: untraced with `None`, traced with a fresh
    /// recorder otherwise.
    fn run(&mut self, i: usize, telemetry: Option<&Telemetry>) -> Run;

    /// Set-up side figures for the ledger (generator timings, worker
    /// count, calendar-cache residency).
    fn extras(&self) -> Extras;

    /// An extra, untimed checking run of instance 0 whose fingerprint
    /// the timed runs must repeat, for checks too costly to run inside
    /// the timed loop. None by default.
    fn verify(&mut self) -> Option<Run> {
        None
    }
}

/// Seed of instance `i`: the workload seed itself for the first, a
/// SplitMix64 scramble of `(seed, i)` for the rest.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
