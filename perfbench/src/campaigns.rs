//! The two job-flow workloads: `online_admission` drives
//! `flow::online::run_online`, `batch_campaign` drives
//! `flow::simulation::run_campaign`. Each cycles over many campaigns
//! whose seeds derive from the workload seed (the first uses the seed
//! itself): one campaign's wall and decisions swing by a third from seed
//! to seed, so a run averages over dozens of them.

use std::hint::black_box;
use std::time::Instant;

use gridsched::core::pool::WorkerPool;
use gridsched::core::strategy::StrategyKind;
use gridsched::data::network::TransferModel;
use gridsched::flow::faults::FaultConfig;
use gridsched::flow::metascheduler::FlowAssignment;
use gridsched::flow::online::{run_online, run_online_instrumented, OnlineConfig};
use gridsched::flow::oracle::audit;
use gridsched::flow::simulation::{run_campaign, run_campaign_instrumented, CampaignConfig};
use gridsched::flow::VoReport;
use gridsched::metrics::telemetry::Telemetry;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched::workload::arrivals::{generate_arrivals, ArrivalProcess};
use gridsched::workload::background::{apply_background_load, BackgroundConfig};
use gridsched::workload::jobs::{generate_stream, JobConfig};
use gridsched::workload::pool::{generate_pool, PoolConfig};
use gridsched_chaos::fingerprint::{fnv1a64, report_fingerprint};

use crate::ledger::Extras;
use crate::workload::{instance_seed, Run, Workload};

/// Campaigns per cycle of `online_admission` (~0.2 s each).
const ONLINE_INSTANCES: usize = 40;
/// Campaigns per cycle of `batch_campaign` (~0.06 s each).
const BATCH_INSTANCES: usize = 64;

/// Pool size of every campaign, the middle of §4's 20–30 range. Planning
/// cost scales with it, so drawing it per seed would dominate the
/// seed-to-seed spread of every timing.
fn pool_config() -> PoolConfig {
    PoolConfig {
        nodes_min: 25,
        nodes_max: 25,
        ..PoolConfig::default()
    }
}

/// The committed `online_throughput` shape: Poisson rate 0.15, queue 16,
/// 3 domains, 3 outages, 2 degradations, 3 transfer faults and 40
/// perturbations over the default 1000-tick horizon. The job cap is
/// above rate × horizon, so the horizon alone bounds the arrivals
/// (~150).
fn online_config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        base: CampaignConfig {
            jobs: 1_000,
            perturbations: 40,
            faults: FaultConfig {
                outages: 3,
                degradations: 2,
                transfer_faults: 3,
                ..FaultConfig::none()
            },
            pool_config: pool_config(),
            collect_trace: true,
            seed,
            ..CampaignConfig::default()
        },
        arrivals: ArrivalProcess::Poisson { rate: 0.15 },
        queue_capacity: 16,
        ..OnlineConfig::default()
    }
}

/// The §4 / Fig. 4 campaign (`fig4_campaign_base` of the experiment
/// binaries) at a quarter of its length — 100 jobs and 100 perturbations
/// over 1250 ticks, the same densities — with jobs dealt round-robin over
/// S1/S2/S3/MS1 so every strategy kind's sweep runs.
fn batch_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        assignment: FlowAssignment::RoundRobin(StrategyKind::ALL.to_vec()),
        jobs: 100,
        perturbations: 100,
        background_load: 0.1,
        horizon: SimDuration::from_ticks(1_250),
        job_gap: SimDuration::from_ticks(12),
        job_config: JobConfig {
            deadline_factor: 6.0,
            ..JobConfig::default()
        },
        pool_config: PoolConfig {
            group_shares: (0.25, 0.35, 0.40),
            ..pool_config()
        },
        transfer_model: TransferModel::new(5.0, 3.5, SimDuration::from_ticks(1)),
        collect_trace: true,
        seed,
        ..CampaignConfig::default()
    }
}

/// Times the `workload` generators a campaign calls on its own streams
/// (pool, background calendars, job stream), in ms. The campaign
/// regenerates them internally; these calls only measure that layer.
fn time_generators(base: &CampaignConfig, jobs: impl FnOnce(&mut SimRng), extras: &mut Extras) {
    let mut master = SimRng::seed_from(base.seed);
    let t = Instant::now();
    let mut pool = generate_pool(&base.pool_config, &mut master.fork(1));
    extras.pool_ms += t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let background = BackgroundConfig {
        load: base.background_load,
        horizon: base.horizon,
        ..BackgroundConfig::default()
    };
    black_box(apply_background_load(
        &mut pool,
        &background,
        &mut master.fork(2),
    ));
    extras.background_ms += t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    jobs(&mut master.fork(3));
    extras.arrivals_ms += t.elapsed().as_secs_f64() * 1e3;
    black_box(pool);
}

/// Output checks shared by both flavours: the trace oracle must pass.
fn audit_problems(report: &VoReport) -> Vec<String> {
    match audit(report) {
        Ok(()) => Vec::new(),
        Err(v) => vec![format!("oracle violation: {v}")],
    }
}

fn costs(report: &VoReport) -> (f64, usize) {
    let summary = report.cost_summary();
    (summary.sum(), summary.count() as usize)
}

/// `online_admission`: open loop in simulated time, as fast as possible
/// in wall time.
pub struct Online {
    configs: Vec<OnlineConfig>,
    extras: Extras,
}

impl Online {
    /// Generates the instances and warms up with one serving run.
    pub fn setup(seed: u64) -> Self {
        let mut extras = Extras::default();
        let configs: Vec<OnlineConfig> = (0..ONLINE_INSTANCES)
            .map(|i| online_config(instance_seed(seed, i)))
            .collect();
        for cfg in &configs {
            time_generators(
                &cfg.base,
                |rng| {
                    black_box(generate_arrivals(
                        &cfg.base.job_config,
                        cfg.base.jobs,
                        &cfg.arrivals,
                        SimTime::ZERO + cfg.base.horizon,
                        rng,
                    ));
                },
                &mut extras,
            );
        }
        extras.workers = WorkerPool::global().workers() as f64;
        black_box(run_online(&configs[0]));
        Online { configs, extras }
    }
}

impl Workload for Online {
    fn instances(&self) -> usize {
        self.configs.len()
    }

    fn run(&mut self, i: usize, telemetry: Option<&Telemetry>) -> Run {
        let cfg = &self.configs[i];
        let start = Instant::now();
        let report = match telemetry {
            None => run_online(cfg),
            Some(t) => run_online_instrumented(cfg, t),
        };
        let wall = start.elapsed();
        let mut problems = audit_problems(&report.report);
        if !report.counters_reconcile() {
            problems.push(format!(
                "admission counters do not reconcile: {:?}",
                report.summary
            ));
        }
        let (cost_sum, costs) = costs(&report.report);
        Run {
            wall,
            fingerprint: fnv1a64(
                format!(
                    "{:x}{:?}{:?}",
                    report_fingerprint(&report.report),
                    report.admission,
                    report.summary
                )
                .as_bytes(),
            ),
            jobs: report.summary.arrived,
            admitted: report.summary.admitted,
            cost_sum,
            costs,
            decisions_ms: Vec::new(),
            problems,
        }
    }

    fn extras(&self) -> Extras {
        self.extras
    }
}

/// `batch_campaign`: the whole job list released up front, no admission
/// queue.
pub struct Batch {
    configs: Vec<CampaignConfig>,
    extras: Extras,
}

impl Batch {
    /// Generates the instances and warms up with one campaign.
    pub fn setup(seed: u64) -> Self {
        let mut extras = Extras::default();
        let configs: Vec<CampaignConfig> = (0..BATCH_INSTANCES)
            .map(|i| batch_config(instance_seed(seed, i)))
            .collect();
        for cfg in &configs {
            time_generators(
                cfg,
                |rng| {
                    black_box(generate_stream(&cfg.job_config, cfg.jobs, cfg.job_gap, rng));
                },
                &mut extras,
            );
        }
        extras.workers = WorkerPool::global().workers() as f64;
        black_box(run_campaign(&configs[0]));
        Batch { configs, extras }
    }
}

impl Workload for Batch {
    fn instances(&self) -> usize {
        self.configs.len()
    }

    fn run(&mut self, i: usize, telemetry: Option<&Telemetry>) -> Run {
        let cfg = &self.configs[i];
        let start = Instant::now();
        let report = match telemetry {
            None => run_campaign(cfg),
            Some(t) => run_campaign_instrumented(cfg, t),
        };
        let wall = start.elapsed();
        let (cost_sum, costs) = costs(&report);
        Run {
            wall,
            fingerprint: report_fingerprint(&report),
            jobs: report.records.len(),
            admitted: report.records.iter().filter(|r| r.admissible).count(),
            cost_sum,
            costs,
            decisions_ms: Vec::new(),
            problems: audit_problems(&report),
        }
    }

    fn extras(&self) -> Extras {
        self.extras
    }
}
