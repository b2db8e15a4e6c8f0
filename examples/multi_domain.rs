//! The hierarchy at work (§2, Fig. 1): a metascheduler over three node
//! domains and a job-flow campaign whose dynamics force an inter-domain
//! migration.
//!
//! An outage-heavy fault plan kills nodes with started tasks; the
//! reallocation mechanism restarts those tasks elsewhere, and when the
//! re-placed schedule's reserved ticks land mostly in another domain the
//! campaign re-homes the job — a `Migrated { from, to }` trace event and
//! a new home domain on its record.
//!
//! Run with: `cargo run --example multi_domain`

use gridsched::flow::faults::FaultConfig;
use gridsched::flow::simulation::{run_campaign_instrumented, CampaignConfig};
use gridsched::flow::trace::CampaignEvent;
use gridsched::metrics::telemetry::Telemetry;
use gridsched::workload::pool::PoolConfig;

fn main() {
    // The outage-heavy configuration of the hierarchy test-suite; seed 26
    // is the first in 0.. whose migration actually crosses domains.
    let config = CampaignConfig {
        jobs: 15,
        perturbations: 25,
        pool_config: PoolConfig {
            domains: 3,
            ..PoolConfig::default()
        },
        faults: FaultConfig {
            outages: 14,
            outage_len: (8, 20),
            ..FaultConfig::none()
        },
        collect_trace: true,
        seed: 26,
        ..CampaignConfig::default()
    };

    let telemetry = Telemetry::new();
    let report = run_campaign_instrumented(&config, &telemetry);

    println!("multi_domain: {} jobs over 3 node domains\n", config.jobs);

    println!("per-domain summary (final homes):");
    println!("  domain  jobs  breaks  migrations  dropped");
    for stat in report.domain_summary() {
        println!(
            "  {:>6}  {:>4}  {:>6}  {:>10}  {:>7}",
            stat.domain.to_string(),
            stat.jobs,
            stat.breaks,
            stat.migrations,
            stat.dropped
        );
    }

    let trace = report.trace.as_ref().expect("trace collected");
    println!("\nmigrations (restarts off dead nodes):");
    let mut cross_domain = 0;
    for (at, event) in trace.events() {
        if let CampaignEvent::Migrated { job, from, to } = event {
            if from == to {
                println!("  t{:>4}  {job} restarted within {from}", at.ticks());
            } else {
                cross_domain += 1;
                println!(
                    "  t{:>4}  {job} re-homed {from} -> {to} (domain hand-off)",
                    at.ticks()
                );
            }
        }
    }
    assert!(cross_domain > 0, "seed 26 must migrate across domains");

    println!("\ndomain-labeled telemetry (activated / breaks / migrations):");
    let snapshot = telemetry.snapshot();
    for &domain in snapshot.domains().keys() {
        println!(
            "  domain {domain}: {} / {} / {}",
            snapshot.domain_counter(domain, "jobs_activated"),
            snapshot.domain_counter(domain, "schedule_breaks"),
            snapshot.domain_counter(domain, "migrations"),
        );
    }

    println!(
        "\ncampaign totals: {} activated, {} breaks, {} migrations, {} dropped",
        report.records.iter().filter(|r| r.admissible).count(),
        report.records.iter().map(|r| r.breaks).sum::<usize>(),
        report.migration_count(),
        report.records.iter().filter(|r| r.dropped).count(),
    );
}
