//! Hierarchy refactor guard-rails.
//!
//! Baseline trace fingerprints recorded on the pre-refactor monolithic
//! drivers (see `fingerprint` below for the exact byte stream). The
//! hierarchical, `Engine`-based drivers must keep these bit-identical:
//! same seed ⇒ same records, same fault accounting, same chronological
//! trace. If a fingerprint moves, the refactor changed observable
//! behaviour — that is a bug in the refactor, not a reason to re-record.
//!
//! Also holds the cross-domain migration lifecycle property test:
//! a migrated job's trace obeys (Arrived →) Released → Activated →
//! (breaks/resolutions) → Migrated → terminal ordering, with chaining
//! `from`/`to` domains and a matching final `home_domain` record — and
//! the domain-attribution check: the per-domain telemetry series sum to
//! their global counters.
//!
//! One more online fingerprint was recorded on the one-probe-at-a-time
//! admission walk, on a 25-node pool where an admission often changes
//! the verdict of a job queued behind it: admission rounds that consumed
//! a probe computed before an admission would move it.

use gridsched::core::strategy::SweepExecutorKind;
use gridsched::flow::faults::FaultConfig;
use gridsched::flow::online::{run_online, run_online_instrumented, OnlineConfig};
use gridsched::flow::simulation::{run_campaign, run_campaign_instrumented, CampaignConfig};
use gridsched::flow::trace::{CampaignEvent, CampaignTrace};
use gridsched::flow::VoReport;
use gridsched::metrics::telemetry::{Counter, Telemetry};
use gridsched::workload::arrivals::ArrivalProcess;
use gridsched::workload::pool::PoolConfig;

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything a campaign observably produced: per-job
/// records, fault accounting and the full chronological trace, via their
/// `Debug` forms (stable — plain derived formatting of plain data).
fn fingerprint(report: &VoReport) -> u64 {
    fnv1a64(format!("{:?}", (&report.records, &report.faults, &report.trace)).as_bytes())
}

fn faulted_cfg(
    seed: u64,
    outages: usize,
    degradations: usize,
    transfer_faults: usize,
) -> CampaignConfig {
    CampaignConfig {
        jobs: 25,
        perturbations: 30,
        faults: FaultConfig {
            outages,
            degradations,
            transfer_faults,
            ..FaultConfig::none()
        },
        collect_trace: true,
        seed,
        ..CampaignConfig::default()
    }
}

/// An outage-heavy campaign that forces task migrations (started tasks
/// restarted off dead nodes). Seed 18 is the first in 0.. that actually
/// migrates under this config; the test below asserts it still does.
fn migration_cfg() -> CampaignConfig {
    CampaignConfig {
        jobs: 15,
        perturbations: 25,
        faults: FaultConfig {
            outages: 14,
            outage_len: (8, 20),
            ..FaultConfig::none()
        },
        collect_trace: true,
        seed: 18,
        ..CampaignConfig::default()
    }
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        base: CampaignConfig {
            jobs: 20,
            perturbations: 25,
            faults: FaultConfig {
                outages: 4,
                degradations: 3,
                transfer_faults: 4,
                ..FaultConfig::none()
            },
            collect_trace: true,
            seed: 2718,
            ..CampaignConfig::default()
        },
        arrivals: ArrivalProcess::Poisson { rate: 0.08 },
        ..OnlineConfig::default()
    }
}

#[test]
fn batch_traces_match_monolithic_baseline() {
    assert_eq!(
        fingerprint(&run_campaign(&faulted_cfg(4242, 6, 4, 6))),
        0xc98a_0429_9453_b333,
        "seed 4242 diverged from the pre-refactor monolithic driver"
    );
    assert_eq!(
        fingerprint(&run_campaign(&faulted_cfg(321, 8, 5, 8))),
        0xaaf4_c26e_eab9_9af2,
        "seed 321 diverged from the pre-refactor monolithic driver"
    );
}

#[test]
fn migration_campaign_matches_monolithic_baseline() {
    let report = run_campaign(&migration_cfg());
    assert!(
        report.migration_count() > 0,
        "the migration config must still migrate"
    );
    assert_eq!(
        fingerprint(&report),
        0xfab0_7855_9504_43f5,
        "migration campaign diverged from the pre-refactor monolithic driver"
    );
}

#[test]
fn online_trace_matches_monolithic_baseline() {
    let online = run_online(&online_cfg());
    let fp = fnv1a64(
        format!(
            "{:?}",
            (
                &online.report.records,
                &online.report.faults,
                &online.report.trace,
                &online.admission,
                &online.summary,
            )
        )
        .as_bytes(),
    );
    assert_eq!(
        fp, 0x0fa8_7098_7342_a145,
        "online serving diverged from the pre-refactor monolithic driver"
    );
}

/// The `online_throughput` shape on a fixed 25-node pool, seed 1: probe
/// verdicts there depend on the admissions made earlier in the same
/// drain of the queue.
fn dense_online_cfg(executor: SweepExecutorKind) -> OnlineConfig {
    OnlineConfig {
        base: CampaignConfig {
            jobs: 60,
            perturbations: 40,
            faults: FaultConfig {
                outages: 3,
                degradations: 2,
                transfer_faults: 3,
                ..FaultConfig::none()
            },
            pool_config: PoolConfig {
                nodes_min: 25,
                nodes_max: 25,
                ..PoolConfig::default()
            },
            collect_trace: true,
            seed: 1,
            executor,
            ..CampaignConfig::default()
        },
        arrivals: ArrivalProcess::Poisson { rate: 0.15 },
        queue_capacity: 16,
        ..OnlineConfig::default()
    }
}

#[test]
fn online_admission_rounds_match_the_one_probe_walk_baseline() {
    for executor in [SweepExecutorKind::Auto, SweepExecutorKind::Sequential] {
        let online = run_online(&dense_online_cfg(executor));
        let fp = fnv1a64(
            format!(
                "{:?}",
                (
                    &online.report.records,
                    &online.report.faults,
                    &online.report.trace,
                    &online.admission,
                    &online.summary,
                )
            )
            .as_bytes(),
        );
        assert_eq!(
            fp, 0x382e_1892_4d1b_46e9,
            "{executor:?}: admission rounds diverged from the one-probe-at-a-time walk"
        );
    }
}

/// Checks every migrated job in a trace for lawful lifecycle ordering and
/// domain chaining; returns how many migrated jobs it saw.
fn check_migration_ordering(report: &VoReport, trace: &CampaignTrace) -> usize {
    let mut checked = 0;
    for record in &report.records {
        if record.migrations == 0 {
            continue;
        }
        checked += 1;
        let job = record.job_id;
        let events: Vec<&(_, CampaignEvent)> = trace.for_job(job).collect();
        let position =
            |pred: &dyn Fn(&CampaignEvent) -> bool| events.iter().position(|(_, e)| pred(e));
        let released = position(&|e| matches!(e, CampaignEvent::Released { .. }))
            .expect("migrated job must have released");
        let activated = position(&|e| matches!(e, CampaignEvent::Activated { .. }))
            .expect("migrated job must have activated");
        let first_migrated = position(&|e| matches!(e, CampaignEvent::Migrated { .. }))
            .expect("record counts a migration, trace must show one");
        if let Some(arrived) = position(&|e| matches!(e, CampaignEvent::Arrived { .. })) {
            assert!(arrived < released, "{job}: Arrived must precede Released");
        }
        assert!(
            released < activated,
            "{job}: Released must precede Activated"
        );
        assert!(
            activated < first_migrated,
            "{job}: Activated must precede Migrated"
        );
        // Each migration resolves a break that already happened.
        let breaks_before = events[..first_migrated]
            .iter()
            .filter(|(_, e)| matches!(e, CampaignEvent::Broken { .. }))
            .count();
        assert!(breaks_before > 0, "{job}: Migrated without a prior break");
        // Consecutive migrations chain, and the record's final home is
        // where the last one arrived.
        let mut home = None;
        let mut last_migrated = first_migrated;
        for (i, (_, e)) in events.iter().enumerate() {
            if let CampaignEvent::Migrated { from, to, .. } = e {
                if let Some(h) = home {
                    assert_eq!(*from, h, "{job}: migration domains must chain");
                }
                home = Some(*to);
                last_migrated = i;
            }
        }
        assert_eq!(
            record.home_domain, home,
            "{job}: final home_domain must match the last migration's `to`"
        );
        // Exactly one terminal, after the last migration.
        let terminal = position(&|e| {
            matches!(
                e,
                CampaignEvent::Completed { .. } | CampaignEvent::Dropped { .. }
            )
        })
        .expect("migrated job must terminate");
        assert!(
            terminal > last_migrated,
            "{job}: terminal must follow the last Migrated"
        );
        assert_eq!(
            events[terminal + 1..]
                .iter()
                .filter(|(_, e)| matches!(
                    e,
                    CampaignEvent::Completed { .. } | CampaignEvent::Dropped { .. }
                ))
                .count(),
            0,
            "{job}: exactly one terminal event"
        );
    }
    checked
}

#[test]
fn migrated_jobs_obey_lifecycle_ordering() {
    let report = run_campaign(&migration_cfg());
    let trace = report.trace.as_ref().expect("trace collected");
    let checked = check_migration_ordering(&report, trace);
    assert!(checked > 0, "property test must exercise a migrated job");

    // The online path gets the same scrutiny (it may or may not migrate
    // under this config; the batch run above guarantees coverage).
    let online = run_online(&online_cfg());
    let trace = online.report.trace.as_ref().expect("trace collected");
    check_migration_ordering(&online.report, trace);
}

/// Checks that every domain-labelled counter series sums to its global
/// counter, and that the run spread its activations over ≥ 2 domains.
fn check_domain_attribution(telemetry: &Telemetry, run: &str) {
    let snapshot = telemetry.snapshot();
    for counter in [
        Counter::JobsActivated,
        Counter::ScheduleBreaks,
        Counter::ScheduleSwitches,
        Counter::Replans,
        Counter::Migrations,
        Counter::Drops,
    ] {
        let per_domain: u64 = snapshot
            .domains()
            .keys()
            .map(|&d| snapshot.domain_counter(d, counter.name()))
            .sum();
        assert_eq!(
            per_domain,
            telemetry.counter(counter),
            "{run}: per-domain {} must sum to the global counter",
            counter.name()
        );
    }
    let active_domains = snapshot
        .domains()
        .keys()
        .filter(|&&d| snapshot.domain_counter(d, "jobs_activated") > 0)
        .count();
    assert!(
        active_domains >= 2,
        "{run}: activations must span at least two domains, saw {active_domains}"
    );
}

#[test]
fn per_domain_counters_sum_to_global_counters() {
    let telemetry = Telemetry::new();
    let report = run_campaign_instrumented(&migration_cfg(), &telemetry);
    assert!(
        telemetry.counter(Counter::Migrations) > 0,
        "the migration config must still migrate"
    );
    assert_eq!(
        telemetry.counter(Counter::Migrations),
        report.migration_count() as u64
    );
    check_domain_attribution(&telemetry, "migration campaign");

    let telemetry = Telemetry::new();
    let _ = run_online_instrumented(&online_cfg(), &telemetry);
    assert!(telemetry.counter(Counter::JobsActivated) > 0);
    check_domain_attribution(&telemetry, "online run");
}
