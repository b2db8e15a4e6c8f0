//! Differential property tests: generated campaigns agree across every
//! axis, and the sweep machinery is deterministic end to end.

use gridsched::flow::simulation::run_campaign_instrumented;
use gridsched::metrics::telemetry::{Counter, Telemetry};
use gridsched_chaos::{run_axes, run_sweep, ChaosCampaign, SweepConfig};

/// A handful of fixed generator seeds must run the full differential
/// clean: executors, telemetry and (where comparable) batch-vs-online
/// all agree, and every trace passes the oracle.
#[test]
fn fixed_seeds_run_the_full_differential_clean() {
    for generator_seed in [0, 1, 2, 3, 4, 1_000_003, 0xfeed_f00d] {
        let campaign = ChaosCampaign::generate(generator_seed);
        let report = run_axes(&campaign, None);
        assert!(
            report.failure.is_none(),
            "generator seed {generator_seed} diverged: {:?}\ncampaign: {campaign:?}",
            report.failure
        );
    }
}

/// The campaign configuration the axes compare must actually reach the
/// pool's probe path: with a single probe path, cold probes of the base
/// run cross packed chunks through the gap index, and its captures reuse
/// frozen calendars. Without this, the axes could compare runs that
/// never exercise the indexed, warm-capture path.
#[test]
fn probe_config_variants_reach_the_pool() {
    for generator_seed in [0, 1, 2, 3] {
        let campaign = ChaosCampaign::generate(generator_seed);
        let telemetry = Telemetry::new();
        let _ = run_campaign_instrumented(&campaign.base_config(), &telemetry);
        assert!(
            telemetry.counter(Counter::IndexSeeks) > 0,
            "seed {generator_seed}: base probes never seek"
        );
        assert!(
            telemetry.counter(Counter::IndexCacheHits) > 0,
            "seed {generator_seed}: base captures reuse frozen calendars"
        );
    }
}

/// The same campaign always yields the same axis report — the runner
/// itself is part of the determinism contract.
#[test]
fn run_axes_is_deterministic() {
    let campaign = ChaosCampaign::generate(11);
    assert_eq!(run_axes(&campaign, None), run_axes(&campaign, None));
}

/// A short sweep from a fixed master seed completes clean, counts its
/// campaigns and exercises the batch-vs-online comparison on at least
/// one of them.
#[test]
fn short_sweep_is_clean_and_counted() {
    let telemetry = Telemetry::new();
    let config = SweepConfig {
        master_seed: 0x5EED_0001,
        campaigns: 6,
        ..SweepConfig::default()
    };
    let outcome = run_sweep(&config, &telemetry);
    assert!(outcome.clean(), "unexpected failure: {:?}", outcome.repro);
    assert_eq!(outcome.campaigns_run, 6);
    assert_eq!(outcome.online_compared + outcome.online_skipped, 6);
    assert!(
        outcome.online_compared > 0,
        "no campaign exercised the batch-vs-online comparison"
    );
    assert_eq!(telemetry.counter(Counter::ChaosCampaigns), 6);
    assert_eq!(telemetry.counter(Counter::ChaosDivergences), 0);
}
