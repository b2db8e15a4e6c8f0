//! The campaign space: one `u64` seed → one complete campaign description.
//!
//! A [`ChaosCampaign`] is a plain-data superset of everything the
//! differential axes need: it expands to a batch [`CampaignConfig`], to
//! its degenerate zero-gap variant, and to an [`OnlineConfig`] over the
//! matching all-zero arrival trace. All fields are numbers so the repro
//! artifact can serialize a campaign as flat JSON and rebuild it exactly.

use gridsched::core::strategy::{StrategyKind, SweepExecutorKind};
use gridsched::flow::faults::FaultConfig;
use gridsched::flow::metascheduler::FlowAssignment;
use gridsched::flow::online::OnlineConfig;
use gridsched::flow::simulation::CampaignConfig;
use gridsched::model::availability::ProbeConfig;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::SimDuration;
use gridsched::workload::arrivals::ArrivalProcess;
use gridsched::workload::jobs::JobConfig;
use gridsched::workload::pool::PoolConfig;

/// One generated campaign: the random point the differential runner
/// executes across every configuration axis.
///
/// The bounds are deliberately small — chaos earns its keep from *many*
/// diverse campaigns per second, not from big ones — but they cover every
/// dynamic the simulator has: multi-domain pools, background load,
/// perturbations, all three fault kinds, tight-ish deadlines and bursty
/// release gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCampaign {
    /// Campaign seed: drives the pool, jobs, perturbations and faults of
    /// every expanded configuration (it is **not** the generator seed —
    /// see [`ChaosCampaign::generate`]).
    pub seed: u64,
    /// Index into [`StrategyKind::ALL`].
    pub strategy: u64,
    /// Number of jobs submitted / offered.
    pub jobs: u64,
    /// Minimum pool size.
    pub nodes_min: u64,
    /// Maximum pool size.
    pub nodes_max: u64,
    /// Domain count the pool shards into (≤ `nodes_min`).
    pub domains: u64,
    /// Static background load level in `[0, 1)`.
    pub background_load: f64,
    /// Maximum inter-release gap of the batch stream, in ticks.
    pub job_gap: u64,
    /// External perturbation events over the horizon.
    pub perturbations: u64,
    /// Upper bound of a perturbation reservation, in ticks (lower is 1).
    pub perturbation_len_max: u64,
    /// Node outages injected by the fault plan.
    pub outages: u64,
    /// Upper bound of an outage, in ticks (lower is 3).
    pub outage_len_max: u64,
    /// Node degradations injected by the fault plan.
    pub degradations: u64,
    /// Data-transfer faults injected by the fault plan.
    pub transfer_faults: u64,
    /// Campaign horizon, in ticks.
    pub horizon: u64,
    /// Deadline = factor × critical path (generous values keep the
    /// batch-vs-online axis comparable: first-probe admissions).
    pub deadline_factor: f64,
    /// Maximum DAG depth (minimum is 3).
    pub layers_max: u64,
    /// Maximum parallel tasks per middle layer.
    pub width_max: u64,
    /// Half-width of the per-task slowdown jitter.
    pub task_jitter: f64,
    /// Urgency escalation slack factor; `0.0` disables escalation.
    pub urgency_slack: f64,
}

impl ChaosCampaign {
    /// Generates the campaign at `generator_seed` in the campaign space.
    ///
    /// Every field is drawn from a [`SimRng`] seeded with
    /// `generator_seed` in a fixed order, so the mapping seed → campaign
    /// is part of the determinism contract: the same seed reproduces the
    /// same campaign forever (the repro artifact still stores the
    /// expanded fields, so shrunken campaigns — which left the image of
    /// this map — round-trip too).
    #[must_use]
    pub fn generate(generator_seed: u64) -> Self {
        let mut rng = SimRng::seed_from(generator_seed);
        let seed = rng.next_u64();
        let strategy = rng.uniform_u64(0, StrategyKind::ALL.len() as u64 - 1);
        let jobs = rng.uniform_u64(3, 10);
        let nodes_min = rng.uniform_u64(6, 10);
        let nodes_max = nodes_min + rng.uniform_u64(0, 6);
        let domains = rng.uniform_u64(1, 4).min(nodes_min);
        let background_load = rng.uniform_f64(0.0, 0.35);
        let job_gap = rng.uniform_u64(0, 10);
        let perturbations = rng.uniform_u64(0, 25);
        let perturbation_len_max = rng.uniform_u64(2, 8);
        let outages = rng.uniform_u64(0, 5);
        let outage_len_max = rng.uniform_u64(4, 14);
        let degradations = rng.uniform_u64(0, 4);
        let transfer_faults = rng.uniform_u64(0, 5);
        let horizon = rng.uniform_u64(250, 800);
        let deadline_factor = rng.uniform_f64(3.0, 6.0);
        let layers_max = rng.uniform_u64(3, 5);
        let width_max = rng.uniform_u64(1, 3);
        let task_jitter = rng.uniform_f64(0.0, 0.2);
        let urgency_slack = if rng.chance(0.7) {
            rng.uniform_f64(1.2, 2.5)
        } else {
            0.0
        };
        ChaosCampaign {
            seed,
            strategy,
            jobs,
            nodes_min,
            nodes_max,
            domains,
            background_load,
            job_gap,
            perturbations,
            perturbation_len_max,
            outages,
            outage_len_max,
            degradations,
            transfer_faults,
            horizon,
            deadline_factor,
            layers_max,
            width_max,
            task_jitter,
            urgency_slack,
        }
    }

    /// The strategy flow every expanded configuration assigns.
    #[must_use]
    pub fn strategy_kind(&self) -> StrategyKind {
        StrategyKind::ALL[(self.strategy as usize).min(StrategyKind::ALL.len() - 1)]
    }

    /// The batch campaign this point describes, with the default (`Auto`)
    /// executor and the sharded flow layer — the reference variant every
    /// axis compares against. Traces are always collected: they are the
    /// fingerprint input and what the oracle audits.
    #[must_use]
    pub fn base_config(&self) -> CampaignConfig {
        CampaignConfig {
            assignment: FlowAssignment::Single(self.strategy_kind()),
            jobs: self.jobs as usize,
            job_config: JobConfig {
                layers_min: 3,
                layers_max: self.layers_max.max(3) as usize,
                width_max: self.width_max.max(1) as usize,
                deadline_factor: self.deadline_factor,
                ..JobConfig::default()
            },
            pool_config: PoolConfig {
                nodes_min: self.nodes_min as usize,
                nodes_max: self.nodes_max.max(self.nodes_min) as usize,
                domains: u32::try_from(self.domains.max(1)).expect("small domain count"),
                ..PoolConfig::default()
            },
            background_load: self.background_load,
            job_gap: SimDuration::from_ticks(self.job_gap),
            perturbations: self.perturbations as usize,
            perturbation_len: (1, self.perturbation_len_max.max(1)),
            faults: FaultConfig {
                outages: self.outages as usize,
                outage_len: (3, self.outage_len_max.max(3)),
                degradations: self.degradations as usize,
                transfer_faults: self.transfer_faults as usize,
                ..FaultConfig::none()
            },
            horizon: SimDuration::from_ticks(self.horizon),
            task_jitter: self.task_jitter,
            collect_trace: true,
            executor: SweepExecutorKind::Auto,
            urgency_slack_factor: (self.urgency_slack > 0.0).then_some(self.urgency_slack),
            seed: self.seed,
            ..CampaignConfig::default()
        }
    }

    /// [`ChaosCampaign::base_config`] with the gap index engaged on every
    /// calendar (floor zero; calendar cache on, as by default). Campaign
    /// calendars sit below the default floor, so the base run probes
    /// linearly and this variant sends every cold probe through the
    /// index. The `probe-index` axis runs it, and so does the
    /// `index-cache` axis as its cache-forced variant: with the floor at
    /// zero, cached gap indexes actually answer probes.
    #[must_use]
    pub fn probe_index_forced_config(&self) -> CampaignConfig {
        self.with_probe(ProbeConfig {
            index_floor: 0,
            calendar_cache: true,
        })
    }

    /// [`ChaosCampaign::base_config`] with the calendar cache off: every
    /// capture refreezes every node. The `index-cache` axis's second
    /// variant.
    #[must_use]
    pub fn index_cache_disabled_config(&self) -> CampaignConfig {
        self.with_probe(ProbeConfig {
            calendar_cache: false,
            ..ProbeConfig::default()
        })
    }

    fn with_probe(&self, probe: ProbeConfig) -> CampaignConfig {
        let mut config = self.base_config();
        config.pool_config.probe = probe;
        config
    }

    /// [`ChaosCampaign::base_config`] with every release gap collapsed to
    /// zero — the degenerate stream the batch-vs-online axis runs, where
    /// neither generator consumes gap randomness and both produce the
    /// same jobs.
    #[must_use]
    pub fn zero_gap_config(&self) -> CampaignConfig {
        CampaignConfig {
            job_gap: SimDuration::ZERO,
            ..self.base_config()
        }
    }

    /// The online serving run the zero-gap batch campaign must match: an
    /// all-zero arrival trace (same jobs, same instants) and a queue wide
    /// enough that no arrival is rejected for capacity.
    #[must_use]
    pub fn online_config(&self) -> OnlineConfig {
        OnlineConfig {
            base: self.zero_gap_config(),
            arrivals: ArrivalProcess::Trace { gaps: vec![0] },
            queue_capacity: self.jobs as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_bounds() {
        for generator_seed in 0..64 {
            let a = ChaosCampaign::generate(generator_seed);
            let b = ChaosCampaign::generate(generator_seed);
            assert_eq!(a, b);
            assert!((3..=10).contains(&a.jobs));
            assert!(a.nodes_min >= 6 && a.nodes_max >= a.nodes_min);
            assert!(a.domains >= 1 && a.domains <= a.nodes_min);
            assert!((250..=800).contains(&a.horizon));
            assert!(a.deadline_factor >= 3.0);
            // The expansions must be buildable (their validators panic on
            // nonsense bounds).
            let _ = a.base_config();
            let _ = a.zero_gap_config();
            let _ = a.online_config();
        }
    }

    #[test]
    fn seeds_spread_over_the_space() {
        let campaigns: Vec<ChaosCampaign> = (0..32).map(ChaosCampaign::generate).collect();
        assert!(campaigns.iter().any(|c| c.outages > 0));
        assert!(campaigns.iter().any(|c| c.outages == 0));
        assert!(campaigns.iter().any(|c| c.domains > 1));
        assert!(campaigns.iter().any(|c| c.job_gap == 0));
        assert!(campaigns.iter().any(|c| c.job_gap > 0));
        assert!(campaigns.iter().any(|c| c.urgency_slack == 0.0));
        assert!(campaigns.iter().any(|c| c.urgency_slack > 0.0));
    }
}
