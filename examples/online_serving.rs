//! The online serving layer end to end: streamed arrivals, deadline-aware
//! admission control, incremental replanning.
//!
//! Runs one instrumented online campaign — Poisson arrivals paced by a
//! seeded arrival process, each probed for deadline feasibility before
//! its full strategy sweep runs — and prints the admission stories, the
//! queue-wait histogram and the online QoS counters.
//!
//! Run with: `cargo run --example online_serving`

use gridsched::flow::online::{run_online_instrumented, AdmissionOutcome, OnlineConfig};
use gridsched::flow::simulation::CampaignConfig;
use gridsched::metrics::table::Table;
use gridsched::metrics::telemetry::Telemetry;
use gridsched::workload::arrivals::ArrivalProcess;

fn main() {
    let config = OnlineConfig {
        base: CampaignConfig {
            jobs: 25,
            perturbations: 20,
            collect_trace: true,
            seed: 42,
            ..CampaignConfig::default()
        },
        arrivals: ArrivalProcess::Poisson { rate: 0.1 },
        queue_capacity: 6,
    };
    let telemetry = Telemetry::new();
    let report = run_online_instrumented(&config, &telemetry);

    // 1. Per-arrival admission stories.
    let mut t = Table::new(vec!["job", "arrival", "outcome", "probes"]);
    for a in &report.admission {
        let outcome = match a.outcome {
            AdmissionOutcome::Admitted { at } if at > a.arrival => {
                format!(
                    "admitted at {at} (waited {})",
                    at.saturating_since(a.arrival)
                )
            }
            AdmissionOutcome::Admitted { .. } => "admitted on arrival".to_owned(),
            AdmissionOutcome::Rejected { at, reason } => {
                format!("rejected at {at} ({reason})")
            }
            AdmissionOutcome::Deferred => "still queued at horizon".to_owned(),
        };
        t.row(vec![
            a.job_id.to_string(),
            a.arrival.to_string(),
            outcome,
            a.probes.to_string(),
        ]);
    }
    println!("admission stories (seed {}):\n{t}", config.base.seed);

    // 2. The aggregate summary and its conservation law.
    let s = report.summary;
    println!(
        "arrived {} = admitted {} + rejected {} + deferred {}  (reconciles: {})",
        s.arrived,
        s.admitted,
        s.rejected,
        s.deferred,
        report.counters_reconcile()
    );
    println!(
        "probes {}, incremental replans {}, queue peak {}/{}",
        s.probes, s.incremental_replans, s.queue_peak, config.queue_capacity
    );
    if let Some(p50) = report.queue_wait.quantile(0.5) {
        println!("queue wait p50: {p50:.0} ticks");
    }

    // 3. The online QoS counters, straight from telemetry.
    let snapshot = telemetry.snapshot();
    println!("\nonline QoS counters:");
    for (name, value) in snapshot.counters() {
        if matches!(
            *name,
            "jobs_arrived"
                | "jobs_admitted"
                | "jobs_rejected"
                | "admission_probes"
                | "queue_peak_depth"
                | "incremental_replans"
        ) {
            println!("  {name:<22} {value}");
        }
    }

    // 4. The campaign beneath behaves like any other: drops, breaks and
    // completions are all in the trace, and the oracle has already
    // audited it in debug builds.
    println!(
        "\ncampaign: {} records, admissible share {:.2}, drop share {:.2}",
        report.report.records.len(),
        report.report.admissible_share(),
        report.report.drop_share()
    );
}
