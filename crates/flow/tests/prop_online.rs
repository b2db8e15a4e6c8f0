//! Property sweep over the online serving layer: for a spread of seeds,
//! arrival processes and queue bounds, the admission-control invariants
//! must hold on every run, and the trace-invariant oracle must stay green.

use gridsched_core::strategy::SweepExecutorKind;
use gridsched_flow::online::{run_online, run_online_instrumented, AdmissionOutcome, OnlineConfig};
use gridsched_flow::oracle::audit;
use gridsched_flow::simulation::CampaignConfig;
use gridsched_flow::trace::{CampaignEvent, RejectReason};
use gridsched_metrics::telemetry::{Counter, Telemetry};
use gridsched_workload::arrivals::ArrivalProcess;

fn configs() -> Vec<OnlineConfig> {
    let mut out = Vec::new();
    for seed in [3u64, 41, 2009, 8080] {
        for (arrivals, queue_capacity) in [
            (ArrivalProcess::Poisson { rate: 0.05 }, 16),
            (ArrivalProcess::Poisson { rate: 0.3 }, 3),
            (
                ArrivalProcess::Trace {
                    gaps: vec![0, 0, 0, 60],
                },
                2,
            ),
        ] {
            out.push(OnlineConfig {
                base: CampaignConfig {
                    jobs: 15,
                    perturbations: 12,
                    collect_trace: true,
                    seed,
                    ..CampaignConfig::default()
                },
                arrivals,
                queue_capacity,
            });
        }
    }
    out
}

/// Admission rounds are exact: the pooled executor (a round's probes run
/// in parallel against one snapshot) decides every arrival exactly as the
/// sequential executor (in-order probes, each round stopping at its first
/// feasible entry) on every config. How many probes a pooled round runs
/// past its admission depends on thread timing; the discard path itself
/// is covered by `online`'s unit test
/// `a_round_discards_the_probes_past_its_admission`.
#[test]
fn pooled_admission_rounds_decide_like_the_sequential_walk() {
    for cfg in configs() {
        assert_eq!(cfg.base.executor, SweepExecutorKind::Auto);
        let seed = cfg.base.seed;
        let telemetry = Telemetry::new();
        let sequential = run_online_instrumented(
            &OnlineConfig {
                base: CampaignConfig {
                    executor: SweepExecutorKind::Sequential,
                    ..cfg.base.clone()
                },
                ..cfg.clone()
            },
            &telemetry,
        );
        assert_eq!(
            telemetry.counter(Counter::AdmissionProbesDiscarded),
            0,
            "seed {seed}: a sequential round never probes past its first feasible entry"
        );
        let report = run_online_instrumented(&cfg, &Telemetry::new());
        assert_eq!(report.admission, sequential.admission, "seed {seed}");
        assert_eq!(
            report.report.records, sequential.report.records,
            "seed {seed}"
        );
        assert_eq!(report.report.trace, sequential.report.trace, "seed {seed}");
    }
}

/// The bounded queue is actually bounded: the observed high-water mark
/// never exceeds the configured capacity.
#[test]
fn queue_depth_never_exceeds_the_bound() {
    for cfg in configs() {
        let report = run_online(&cfg);
        assert!(
            report.summary.queue_peak <= cfg.queue_capacity,
            "peak {} > capacity {} (seed {})",
            report.summary.queue_peak,
            cfg.queue_capacity,
            cfg.base.seed
        );
    }
}

/// Every rejection is justified at admission time: queue-full rejections
/// were never probed (the queue had no room), and unmeetable rejections
/// burned at least one failed probe. No rejected job is ever released,
/// activated or completed.
#[test]
fn every_rejection_fails_the_admit_time_test() {
    for cfg in configs() {
        let report = run_online(&cfg);
        let trace = report.report.trace.as_ref().expect("trace collected");
        for (a, r) in report.admission.iter().zip(&report.report.records) {
            assert_eq!(a.job_id, r.job_id, "admission parallels records");
            let AdmissionOutcome::Rejected { reason, .. } = a.outcome else {
                continue;
            };
            match reason {
                RejectReason::QueueFull => {
                    assert_eq!(a.probes, 0, "{}: queue-full skips the probe", a.job_id);
                }
                RejectReason::Unmeetable => {
                    assert!(
                        a.probes >= 1,
                        "{}: unmeetable needs a failed probe",
                        a.job_id
                    );
                }
            }
            assert!(
                !r.admissible,
                "{}: rejected jobs are not admissible",
                a.job_id
            );
            let post_rejection = trace
                .for_job(a.job_id)
                .filter(|(_, e)| {
                    matches!(
                        e,
                        CampaignEvent::Released { .. }
                            | CampaignEvent::Activated { .. }
                            | CampaignEvent::Completed { .. }
                    )
                })
                .count();
            assert_eq!(
                post_rejection, 0,
                "{}: rejected job must stay out",
                a.job_id
            );
        }
    }
}

/// Every admitted job obtained at least one supporting schedule — the
/// admission probe's promise — and was traced as released and activated.
#[test]
fn every_admitted_job_gets_a_supporting_schedule() {
    for cfg in configs() {
        let report = run_online(&cfg);
        let trace = report.report.trace.as_ref().expect("trace collected");
        let mut admitted = 0;
        for (a, r) in report.admission.iter().zip(&report.report.records) {
            let AdmissionOutcome::Admitted { at } = a.outcome else {
                continue;
            };
            admitted += 1;
            assert!(
                at >= a.arrival,
                "{}: admission cannot precede arrival",
                a.job_id
            );
            assert!(
                r.admissible && r.schedules >= 1,
                "{}: admitted without a supporting schedule",
                a.job_id
            );
            assert!(a.probes >= 1, "{}: admission requires a probe", a.job_id);
            let activated = trace
                .for_job(a.job_id)
                .filter(|(_, e)| matches!(e, CampaignEvent::Activated { .. }))
                .count();
            assert_eq!(activated, 1, "{}: exactly one activation", a.job_id);
        }
        assert_eq!(admitted, report.summary.admitted);
    }
}

/// Conservation: every arrival is admitted, rejected or deferred —
/// nothing is lost, nothing is double-counted — and the trace-invariant
/// oracle accepts the whole run.
#[test]
fn arrivals_are_conserved_and_the_oracle_stays_green() {
    for cfg in configs() {
        let report = run_online(&cfg);
        assert!(
            report.counters_reconcile(),
            "seed {}: {:?}",
            cfg.base.seed,
            report.summary
        );
        assert_eq!(report.summary.arrived, report.admission.len());
        assert_eq!(report.summary.arrived, report.report.records.len());
        let trace = report.report.trace.as_ref().expect("trace collected");
        assert_eq!(
            trace.count(|e| matches!(e, CampaignEvent::Arrived { .. })),
            report.summary.arrived
        );
        assert_eq!(
            trace.count(|e| matches!(e, CampaignEvent::Rejected { .. })),
            report.summary.rejected
        );
        audit(&report.report).expect("oracle must accept every online trace");
    }
}
