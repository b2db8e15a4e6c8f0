//! Backpressure: a bursty trace-driven arrival process saturates the
//! bounded admission queue. The drop ordering must be deterministic (the
//! newest arrival is shed), the rejection counters must match the report,
//! and the trace-invariant oracle must accept the run.

use gridsched_flow::online::{run_online, AdmissionOutcome, OnlineConfig};
use gridsched_flow::oracle::audit;
use gridsched_flow::simulation::CampaignConfig;
use gridsched_flow::trace::{CampaignEvent, RejectReason};
use gridsched_workload::arrivals::ArrivalProcess;

fn burst_config() -> OnlineConfig {
    OnlineConfig {
        base: CampaignConfig {
            jobs: 24,
            perturbations: 10,
            collect_trace: true,
            seed: 909,
            ..CampaignConfig::default()
        },
        // Bursts of six simultaneous arrivals, then a long lull.
        arrivals: ArrivalProcess::Trace {
            gaps: vec![0, 0, 0, 0, 0, 120],
        },
        queue_capacity: 2,
    }
}

/// The burst overwhelms the 2-deep queue: queue-full rejections must
/// occur, land at the exact arrival instants, and hit the *newest*
/// arrivals (everything older already holds a queue slot).
#[test]
fn bursts_shed_the_newest_arrivals_deterministically() {
    let cfg = burst_config();
    let report = run_online(&cfg);
    assert!(
        report.summary.rejected_queue_full > 0,
        "a 6-wide burst against a 2-deep queue must shed load: {:?}",
        report.summary
    );
    for a in &report.admission {
        if let AdmissionOutcome::Rejected {
            at,
            reason: RejectReason::QueueFull,
        } = a.outcome
        {
            assert_eq!(
                at, a.arrival,
                "{}: queue-full is decided on arrival",
                a.job_id
            );
            assert_eq!(a.probes, 0, "{}: shed arrivals are never probed", a.job_id);
        }
    }
    // Within every simultaneous burst, shed jobs arrived after every job
    // that got a queue slot: drop ordering is newest-first, hence
    // deterministic — no tie-breaking on anything but arrival order.
    let mut seen_rejected_at = Vec::new();
    for a in &report.admission {
        if matches!(
            a.outcome,
            AdmissionOutcome::Rejected {
                reason: RejectReason::QueueFull,
                ..
            }
        ) {
            seen_rejected_at.push((a.arrival, a.job_id));
        } else {
            assert!(
                !seen_rejected_at
                    .iter()
                    .any(|&(t, shed)| t == a.arrival && shed < a.job_id),
                "{}: admitted/queued although an older same-instant arrival was shed",
                a.job_id
            );
        }
    }
    // Bit-identical under re-run, including which jobs were shed.
    let again = run_online(&cfg);
    assert_eq!(report.admission, again.admission);
    assert_eq!(report.report.trace, again.report.trace);
}

/// The rejection counters reconcile with the trace and the report, and
/// the oracle accepts the saturated run.
#[test]
fn saturated_runs_keep_counters_and_oracle_consistent() {
    let report = run_online(&burst_config());
    assert!(report.counters_reconcile(), "{:?}", report.summary);
    let trace = report.report.trace.as_ref().expect("trace collected");
    assert_eq!(
        trace.count(|e| matches!(
            e,
            CampaignEvent::Rejected {
                reason: RejectReason::QueueFull,
                ..
            }
        )),
        report.summary.rejected_queue_full,
        "every shed arrival is traced exactly once"
    );
    assert_eq!(
        trace.count(|e| matches!(e, CampaignEvent::Rejected { .. })),
        report.summary.rejected
    );
    // Shed jobs never make it into the pool: no released/activated events.
    for a in &report.admission {
        if matches!(a.outcome, AdmissionOutcome::Rejected { .. }) {
            assert_eq!(
                trace
                    .for_job(a.job_id)
                    .filter(|(_, e)| !matches!(
                        e,
                        CampaignEvent::Arrived { .. } | CampaignEvent::Rejected { .. }
                    ))
                    .count(),
                0,
                "{}: rejected job leaked into the campaign",
                a.job_id
            );
        }
    }
    audit(&report.report).expect("oracle must accept the saturated run");
}

/// Draining works: the burst's survivors are probed again on later events
/// (incremental replans), and every re-probed job eventually reaches a
/// terminal decision *after* its arrival instant — the queue does not
/// silently sit on work.
#[test]
fn lulls_drain_the_queue_with_incremental_replans() {
    let report = run_online(&burst_config());
    assert!(
        report.summary.incremental_replans > 0,
        "queued survivors must be re-probed: {:?}",
        report.summary
    );
    let late_decisions = report
        .admission
        .iter()
        .filter(|a| match a.outcome {
            AdmissionOutcome::Admitted { at }
            | AdmissionOutcome::Rejected {
                at,
                reason: RejectReason::Unmeetable,
            } => at > a.arrival,
            _ => false,
        })
        .count();
    assert!(
        late_decisions > 0,
        "re-probes must settle deferred jobs after their arrival: {:?}",
        report.summary
    );
    assert!(
        report.summary.queue_peak <= 2,
        "peak bounded by capacity: {:?}",
        report.summary
    );
}
