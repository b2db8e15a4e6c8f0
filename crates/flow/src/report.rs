//! Per-job records and campaign-level aggregates.

use std::collections::BTreeMap;

use gridsched_core::strategy::StrategyKind;
use gridsched_metrics::load::GroupLoad;
use gridsched_metrics::summary::Summary;
use gridsched_model::ids::{DomainId, JobId};
use gridsched_model::perf::PerfGroup;
use gridsched_sim::time::{SimDuration, SimTime};

/// What happened to one job over the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job.
    pub job_id: JobId,
    /// The strategy flow the metascheduler assigned the job to.
    pub strategy: StrategyKind,
    /// Release (submission) time.
    pub release: SimTime,
    /// Whether the strategy contained at least one supporting schedule
    /// (Fig. 3a's "admissible solutions").
    pub admissible: bool,
    /// Collisions on fast-group nodes while generating the strategy.
    pub collisions_fast: usize,
    /// Collisions on medium/slow nodes.
    pub collisions_slow: usize,
    /// Number of supporting schedules generated.
    pub schedules: usize,
    /// Estimate multiplier of the activated scenario, if activated.
    pub scenario_multiplier: Option<f64>,
    /// Cost of the activated schedule, per the paper's `CF` over actual
    /// wall occupation. `None` if never activated.
    pub cost: Option<u64>,
    /// Mean reserved wall-window length per task of the activated schedule.
    pub mean_task_window: Option<f64>,
    /// Volume that crossed the network for this job under its data policy
    /// (replication counts its eager pushes).
    pub data_traffic: Option<f64>,
    /// Number of distinct nodes the job's tasks ran on (consolidation
    /// measure: S3 "tries to monopolize" few strong nodes).
    pub nodes_used: Option<usize>,
    /// Planned makespan of the activated schedule.
    pub planned_makespan: Option<SimTime>,
    /// Start-time deviation of the activated schedule from the user's
    /// optimistic forecast, summed over tasks, as a ratio to the planned
    /// runtime.
    pub start_deviation_ratio: Option<f64>,
    /// How long the active schedule survived before its first break
    /// (perturbation hit or overrun); the full planned runtime if it never
    /// broke.
    pub time_to_live: Option<SimDuration>,
    /// The job's home domain: the domain holding the majority of the activated schedule's reserved ticks (ties to
    /// the lowest domain id), re-homed whenever the job migrates across
    /// domains. `None` if the job was never activated.
    pub home_domain: Option<DomainId>,
    /// Times the job's active schedule broke.
    pub breaks: usize,
    /// How many of those breaks were resolved by switching to another
    /// precomputed supporting schedule (no replanning needed).
    pub switches: usize,
    /// How many breaks forced already-started tasks to *migrate* — restart
    /// on another node because their original node died mid-execution.
    pub migrations: usize,
    /// Whether the job was eventually dropped (no feasible replan).
    pub dropped: bool,
}

impl JobRecord {
    /// The record of a job just released under `strategy`: nothing
    /// generated, activated or broken yet.
    pub(crate) fn fresh(job_id: JobId, strategy: StrategyKind, release: SimTime) -> Self {
        JobRecord {
            job_id,
            strategy,
            release,
            admissible: false,
            collisions_fast: 0,
            collisions_slow: 0,
            schedules: 0,
            scenario_multiplier: None,
            cost: None,
            mean_task_window: None,
            planned_makespan: None,
            start_deviation_ratio: None,
            time_to_live: None,
            data_traffic: None,
            nodes_used: None,
            home_domain: None,
            breaks: 0,
            switches: 0,
            migrations: 0,
            dropped: false,
        }
    }
}

/// Aggregated result of one campaign run.
#[derive(Debug, Clone)]
pub struct VoReport {
    /// Strategy under test (of the first flow, for single-flow runs).
    pub strategy: StrategyKind,
    /// Per-job records, in release order.
    pub records: Vec<JobRecord>,
    /// Task-only node load per performance group over the horizon.
    pub task_load: GroupLoad,
    /// Fault-injection and recovery accounting (all zeros when
    /// [`crate::faults::FaultConfig`] injects nothing — benign breaks are
    /// still classified here).
    pub faults: crate::faults::FaultSummary,
    /// Chronological event log, when
    /// [`crate::simulation::CampaignConfig::collect_trace`] was set.
    pub trace: Option<crate::trace::CampaignTrace>,
}

impl VoReport {
    /// Fraction of jobs with at least one admissible supporting schedule
    /// (Fig. 3a).
    #[must_use]
    pub fn admissible_share(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let n = self.records.iter().filter(|r| r.admissible).count();
        n as f64 / self.records.len() as f64
    }

    /// Share of collisions that happened on fast-group nodes (Fig. 3b).
    /// Returns `None` when no collisions occurred.
    #[must_use]
    pub fn fast_collision_share(&self) -> Option<f64> {
        let fast: usize = self.records.iter().map(|r| r.collisions_fast).sum();
        let slow: usize = self.records.iter().map(|r| r.collisions_slow).sum();
        let total = fast + slow;
        if total == 0 {
            None
        } else {
            Some(fast as f64 / total as f64)
        }
    }

    /// Total collisions observed.
    #[must_use]
    pub fn total_collisions(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.collisions_fast + r.collisions_slow)
            .sum()
    }

    /// Summary of activated-schedule costs.
    #[must_use]
    pub fn cost_summary(&self) -> Summary {
        self.records
            .iter()
            .filter_map(|r| r.cost)
            .map(|c| c as f64)
            .collect()
    }

    /// Summary of mean task wall-window lengths.
    #[must_use]
    pub fn task_window_summary(&self) -> Summary {
        self.records
            .iter()
            .filter_map(|r| r.mean_task_window)
            .collect()
    }

    /// Summary of per-job network traffic volumes.
    #[must_use]
    pub fn traffic_summary(&self) -> Summary {
        self.records.iter().filter_map(|r| r.data_traffic).collect()
    }

    /// Summary of distinct-node counts per job.
    #[must_use]
    pub fn nodes_used_summary(&self) -> Summary {
        self.records
            .iter()
            .filter_map(|r| r.nodes_used)
            .map(|n| n as f64)
            .collect()
    }

    /// Summary of time-to-live values, in ticks.
    #[must_use]
    pub fn ttl_summary(&self) -> Summary {
        self.records
            .iter()
            .filter_map(|r| r.time_to_live)
            .map(|d| d.ticks() as f64)
            .collect()
    }

    /// Summary of start-deviation ratios.
    #[must_use]
    pub fn deviation_summary(&self) -> Summary {
        self.records
            .iter()
            .filter_map(|r| r.start_deviation_ratio)
            .collect()
    }

    /// Mean load level of a performance group (Fig. 4a), counting only
    /// task reservations.
    #[must_use]
    pub fn load_level(&self, group: PerfGroup) -> f64 {
        self.task_load.level(group)
    }

    /// Total task migrations (started tasks restarted off dead nodes).
    #[must_use]
    pub fn migration_count(&self) -> usize {
        self.records.iter().map(|r| r.migrations).sum()
    }

    /// Per-domain aggregates over the activated jobs, each counted under
    /// its final home domain, ascending by domain id. Jobs that never
    /// activated have no home and appear in no slice.
    #[must_use]
    pub fn domain_summary(&self) -> Vec<DomainStat> {
        let mut stats: BTreeMap<DomainId, DomainStat> = BTreeMap::new();
        for r in &self.records {
            let Some(domain) = r.home_domain else {
                continue;
            };
            let s = stats.entry(domain).or_insert(DomainStat {
                domain,
                jobs: 0,
                breaks: 0,
                migrations: 0,
                dropped: 0,
                total_cost: 0,
            });
            s.jobs += 1;
            s.breaks += r.breaks;
            s.migrations += r.migrations;
            s.dropped += usize::from(r.dropped);
            s.total_cost += r.cost.unwrap_or(0);
        }
        stats.into_values().collect()
    }

    /// Fraction of activated jobs that were eventually dropped.
    #[must_use]
    pub fn drop_share(&self) -> f64 {
        let activated = self.records.iter().filter(|r| r.cost.is_some()).count();
        if activated == 0 {
            return 0.0;
        }
        let dropped = self.records.iter().filter(|r| r.dropped).count();
        dropped as f64 / activated as f64
    }
}

/// Aggregates over the jobs whose final home domain is one domain (see
/// [`VoReport::domain_summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainStat {
    /// The domain.
    pub domain: DomainId,
    /// Activated jobs whose final home is this domain.
    pub jobs: usize,
    /// Schedule breaks those jobs suffered.
    pub breaks: usize,
    /// Migration resolutions among them (restarts off dead nodes).
    pub migrations: usize,
    /// How many of them were eventually dropped.
    pub dropped: usize,
    /// Summed activated-schedule cost.
    pub total_cost: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(admissible: bool, fast: usize, slow: usize, cost: Option<u64>) -> JobRecord {
        JobRecord {
            admissible,
            collisions_fast: fast,
            collisions_slow: slow,
            schedules: usize::from(admissible),
            scenario_multiplier: cost.map(|_| 1.0),
            cost,
            mean_task_window: cost.map(|_| 4.0),
            data_traffic: cost.map(|_| 10.0),
            nodes_used: cost.map(|_| 2),
            planned_makespan: cost.map(|_| SimTime::from_ticks(10)),
            start_deviation_ratio: cost.map(|_| 0.1),
            time_to_live: cost.map(|_| SimDuration::from_ticks(8)),
            home_domain: cost.map(|_| DomainId::new(0)),
            ..JobRecord::fresh(JobId::new(0), StrategyKind::S1, SimTime::ZERO)
        }
    }

    fn report(records: Vec<JobRecord>) -> VoReport {
        VoReport {
            strategy: StrategyKind::S1,
            records,
            task_load: GroupLoad::default(),
            faults: crate::faults::FaultSummary::default(),
            trace: None,
        }
    }

    #[test]
    fn admissible_share() {
        let r = report(vec![
            record(true, 0, 0, Some(10)),
            record(false, 0, 0, None),
            record(true, 0, 0, Some(12)),
            record(true, 0, 0, Some(9)),
        ]);
        assert!((r.admissible_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn collision_share() {
        let r = report(vec![
            record(true, 3, 1, Some(1)),
            record(true, 1, 3, Some(1)),
        ]);
        assert_eq!(r.fast_collision_share(), Some(0.5));
        assert_eq!(r.total_collisions(), 8);
        let empty = report(vec![record(true, 0, 0, Some(1))]);
        assert_eq!(empty.fast_collision_share(), None);
    }

    #[test]
    fn summaries_skip_unactivated_jobs() {
        let r = report(vec![
            record(true, 0, 0, Some(10)),
            record(false, 0, 0, None),
        ]);
        assert_eq!(r.cost_summary().count(), 1);
        assert_eq!(r.ttl_summary().count(), 1);
        assert_eq!(r.deviation_summary().count(), 1);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = report(Vec::new());
        assert_eq!(r.admissible_share(), 0.0);
        assert_eq!(r.drop_share(), 0.0);
        assert_eq!(r.fast_collision_share(), None);
    }
}
