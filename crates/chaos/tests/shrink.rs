//! The catch → shrink → replay pipeline, end to end, on an injected
//! divergence.
//!
//! The injection hook (`SweepConfig::inject`) XORs a mask into one
//! axis's fingerprint, forcing a known-divergent synthetic campaign
//! without touching product code. These tests assert the full contract:
//! the divergence is caught, shrunk to a stable small repro (identical
//! across two runs with the same seed), serialized to an artifact that
//! round-trips through JSON, and reproduced by replaying that artifact.

use gridsched::metrics::telemetry::{Counter, Telemetry};
use gridsched_chaos::{
    replay, run_sweep, Axis, ChaosFailure, ReproArtifact, SweepConfig, SweepOutcome,
};

fn injected_sweep() -> SweepConfig {
    SweepConfig {
        master_seed: 0xBAD_5EED,
        campaigns: 4,
        inject: Some(Axis::Executors),
        ..SweepConfig::default()
    }
}

fn run_injected() -> SweepOutcome {
    run_sweep(&injected_sweep(), &Telemetry::disabled())
}

#[test]
fn injected_divergence_is_caught_and_shrunk() {
    let telemetry = Telemetry::new();
    let outcome = run_sweep(&injected_sweep(), &telemetry);
    let repro = outcome.repro.expect("injected divergence must be caught");
    // The very first campaign diverges; the sweep stops there.
    assert_eq!(outcome.campaigns_run, 1);
    assert_eq!(telemetry.counter(Counter::ChaosDivergences), 1);
    assert_eq!(repro.axis, Axis::Executors);
    assert!(repro.injected);
    assert!(repro.shrink_attempts > 0);
    // The repro is small: the shrinker flattened every dimension the
    // injected failure does not depend on (which is all of them — the
    // injection diverges unconditionally).
    assert_eq!(repro.campaign.jobs, 1);
    assert_eq!(repro.campaign.perturbations, 0);
    assert_eq!(repro.campaign.outages, 0);
    assert_eq!(repro.campaign.degradations, 0);
    assert_eq!(repro.campaign.transfer_faults, 0);
    assert_eq!(repro.campaign.domains, 1);
    assert_eq!(repro.campaign.job_gap, 0);
}

#[test]
fn shrinking_twice_with_the_same_seed_is_stable() {
    let a = run_injected().repro.expect("caught");
    let b = run_injected().repro.expect("caught");
    assert_eq!(a, b, "same seed must minimize to the same repro");
}

#[test]
fn artifact_round_trips_and_replays() {
    let repro = run_injected().repro.expect("caught");
    let json = repro.to_json("chaos-repro.json");
    let parsed = ReproArtifact::from_json(&json).expect("artifact parses back");
    assert_eq!(parsed, repro);
    // Replaying the parsed artifact reproduces the same failure on the
    // same axis with the same fingerprints.
    let failure = replay(&parsed).expect("failure must reproduce from the artifact");
    match failure {
        ChaosFailure::Divergence {
            axis,
            expected,
            actual,
            ..
        } => {
            assert_eq!(axis, parsed.axis);
            assert_eq!(expected, parsed.expected);
            assert_eq!(actual, parsed.actual);
        }
        other => panic!("expected a divergence, got {other}"),
    }
}

#[test]
fn clean_campaigns_do_not_replay_as_failures() {
    // An artifact for a campaign that does not actually fail (injection
    // flag off) replays clean — the signal a fix landed.
    let mut repro = run_injected().repro.expect("caught");
    repro.injected = false;
    assert!(replay(&repro).is_none());
}
