//! `dense_calendar`: a closed loop with one client over 29-node pools
//! whose nodes carry thousands of background reservations each.
//!
//! Each step plans one job against the live calendars through the public
//! planning API: open a session, `probe` under `MinTime`, and — if the
//! probe admits — `Strategy::generate`, then reserve the cheapest
//! supporting schedule into the live timetables. The job reserved
//! [`LAG`] steps earlier is released, so calendar size stays steady and
//! every step writes between reads. The clock advances [`STEP_GAP`]
//! ticks per step and jobs rotate over S1/S2/S3/MS1. One pass over a
//! pool's job stream releases everything it reserved, so every pass
//! starts from the same calendar contents and repeats the same decisions.
//!
//! The jobs are pipelines (DAG width 1). A `MinTime` probe has no
//! `MinCost` fallback, and its zero-slack first chain strands every
//! fork-join's second critical work, so with the default job family only
//! the ~20% of jobs that happen to be chains would ever pass the probe,
//! whatever the load or deadline. With chains, the calendars and the
//! deadline decide admission.

use std::hint::black_box;
use std::time::Instant;

use gridsched::core::granularity::coarsen;
use gridsched::core::method::ScheduleRequest;
use gridsched::core::objective::Objective;
use gridsched::core::pool::WorkerPool;
use gridsched::core::session::PlanningSession;
use gridsched::core::strategy::{Strategy, StrategyConfig, StrategyKind};
use gridsched::metrics::telemetry::Telemetry;
use gridsched::model::estimate::EstimateScenario;
use gridsched::model::ids::{GlobalTaskId, JobId};
use gridsched::model::job::Job;
use gridsched::model::node::ResourcePool;
use gridsched::model::timetable::ReservationOwner;
use gridsched::sim::rng::SimRng;
use gridsched::sim::time::{SimDuration, SimTime};
use gridsched::workload::background::{apply_background_load, BackgroundConfig};
use gridsched::workload::jobs::{generate_job, JobConfig};
use gridsched::workload::pool::{generate_pool, PoolConfig};
use gridsched_chaos::fingerprint::fnv1a64;

use crate::ledger::{Extras, GENERATE_SPAN, PROBE_SPAN, RESERVE_SPAN, STEP_SPAN};
use crate::workload::{instance_seed, Run, Workload};

/// Pools per cycle, each with its own calendars and job stream.
const INSTANCES: usize = 6;
/// Nodes per pool (the `strategy_sweep` pool size at seed 2009).
const NODES: usize = 29;
/// Background utilization painted on every node.
const LOAD: f64 = 0.4;
/// Background busy-chunk lengths, in ticks: short chunks make dense
/// calendars.
const CHUNKS: (u64, u64) = (1, 4);
/// Span the background calendars cover: about 1600 reservations per
/// node, above the gap index's 1000-window engagement floor, while one
/// pass scans only its first half. Twice this span doubled the bytes
/// each refreeze copies and made the pass wall drift twice as much with
/// the machine's memory traffic.
const HORIZON: u64 = 10_000;
/// Steps per pass over a pool's job stream.
const STEPS: usize = 250;
/// Ticks the clock advances per step.
const STEP_GAP: u64 = 20;
/// A job's reservations are released this many steps after they are made.
const LAG: usize = 8;
/// Deadline = factor × critical path on a performance-1.0 node; with
/// [`LOAD`] this admits ~90% of steps.
const DEADLINE_FACTOR: f64 = 4.0;
/// Steps of the set-up warm-up (reserved, then released again).
const WARMUP_STEPS: usize = 64;
/// The verification pass cross-checks every this-many-th admitted step
/// against the sequential sweep.
const VERIFY_EVERY: usize = 10;

/// A step's decision: the generated strategy and the index of the
/// supporting schedule reserved from it.
type Decision = Option<(Strategy, usize)>;

/// One pool with its live calendars and its job stream.
struct Calendar {
    pool: ResourcePool,
    jobs: Vec<(Job, StrategyKind)>,
}

/// The `dense_calendar` workload state.
pub struct Dense {
    calendars: Vec<Calendar>,
    extras: Extras,
}

impl Dense {
    /// Generates the pools, their background calendars and job streams,
    /// and warms up with the first steps of the first stream.
    pub fn setup(seed: u64) -> Self {
        let mut extras = Extras::default();
        let job_config = JobConfig {
            deadline_factor: DEADLINE_FACTOR,
            width_max: 1,
            ..JobConfig::default()
        };
        let calendars = (0..INSTANCES)
            .map(|i| {
                let mut master = SimRng::seed_from(instance_seed(seed, i));
                let t = Instant::now();
                let mut pool = generate_pool(
                    &PoolConfig {
                        nodes_min: NODES,
                        nodes_max: NODES,
                        ..PoolConfig::default()
                    },
                    &mut master.fork(1),
                );
                extras.pool_ms += t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                black_box(apply_background_load(
                    &mut pool,
                    &BackgroundConfig {
                        load: LOAD,
                        horizon: SimDuration::from_ticks(HORIZON),
                        chunk_min: CHUNKS.0,
                        chunk_max: CHUNKS.1,
                    },
                    &mut master.fork(2),
                ));
                extras.background_ms += t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let mut rng = master.fork(3);
                let jobs = (0..STEPS)
                    .map(|j| {
                        let release = SimTime::from_ticks(j as u64 * STEP_GAP);
                        let job =
                            generate_job(&job_config, JobId::new(j as u64), release, &mut rng);
                        (job, StrategyKind::ALL[j % StrategyKind::ALL.len()])
                    })
                    .collect();
                extras.arrivals_ms += t.elapsed().as_secs_f64() * 1e3;
                Calendar { pool, jobs }
            })
            .collect();
        extras.workers = WorkerPool::global().workers() as f64;
        let mut dense = Dense { calendars, extras };
        black_box(dense.calendars[0].pass(WARMUP_STEPS, None, false));
        dense
    }
}

impl Calendar {
    /// Runs the first `steps` steps of the stream and releases what they
    /// reserved; checks run after the clock stops.
    fn pass(&mut self, steps: usize, telemetry: Option<&Telemetry>, verify: bool) -> Run {
        let mut decisions: Vec<Decision> = Vec::with_capacity(steps);
        let mut decisions_ms = Vec::with_capacity(steps);
        let mut problems = Vec::new();
        let start = Instant::now();
        for j in 0..steps {
            let t = Instant::now();
            let decision = self.step(j, telemetry, verify, &decisions, &mut problems);
            decisions_ms.push(t.elapsed().as_secs_f64() * 1e3);
            decisions.push(decision);
        }
        for j in steps.saturating_sub(LAG)..steps {
            self.release(j, &decisions, &mut problems);
        }
        let wall = start.elapsed();

        let mut fingerprint = 0;
        let mut cost_sum = 0.0;
        let mut admitted = 0;
        for (j, decision) in decisions.iter().enumerate() {
            let Some((strategy, idx)) = decision else {
                fingerprint = fnv1a64(format!("{fingerprint:x}-{j}").as_bytes());
                continue;
            };
            let chosen = &strategy.distributions()[*idx];
            if let Err(e) = chosen.validate(strategy.job(), &self.pool) {
                problems.push(format!("step {j}: invalid schedule: {e:?}"));
            }
            if !chosen.meets_deadline(strategy.job().absolute_deadline()) {
                problems.push(format!("step {j}: schedule misses its deadline"));
            }
            admitted += 1;
            cost_sum += chosen.cost() as f64;
            fingerprint =
                fnv1a64(format!("{fingerprint:x}{j}/{idx}{:?}", chosen.placements()).as_bytes());
        }
        let leftover: usize = self
            .pool
            .nodes()
            .map(|n| {
                self.pool
                    .timetable(n.id())
                    .iter()
                    .filter(|r| matches!(r.owner(), ReservationOwner::Task(_)))
                    .count()
            })
            .sum();
        if leftover != 0 {
            problems.push(format!("{leftover} task reservations left after the pass"));
        }
        Run {
            wall,
            fingerprint,
            jobs: steps,
            admitted,
            cost_sum,
            costs: admitted,
            decisions_ms,
            problems,
        }
    }

    /// One closed-loop step: plan job `j` against the live calendars,
    /// reserve the cheapest supporting schedule, release job `j - LAG`.
    fn step(
        &mut self,
        j: usize,
        telemetry: Option<&Telemetry>,
        verify: bool,
        history: &[Decision],
        problems: &mut Vec<String>,
    ) -> Decision {
        let step_span = telemetry.map(|t| t.span(STEP_SPAN));
        let parent = step_span.as_ref().and_then(|s| s.id());
        let (job, kind) = &self.jobs[j];
        let now = job.release();
        let config = StrategyConfig::for_kind(*kind, &self.pool);

        // Admission probe: one best-case MinTime pass on the job the
        // strategy would plan (S3 coarsens), as the online loop probes.
        let coarse;
        let planning_job = if config.coarse_grain() {
            coarse = coarsen(job).job;
            &coarse
        } else {
            job
        };
        let admitted = {
            let session = match telemetry {
                None => PlanningSession::open(&self.pool),
                Some(t) => PlanningSession::open_instrumented(&self.pool, t, parent),
            };
            let req = ScheduleRequest {
                job: planning_job,
                pool: &self.pool,
                policy: config.policy(),
                scenario: EstimateScenario::BEST,
                release: now,
            };
            let _span = telemetry.map(|t| t.span_under(PROBE_SPAN, parent));
            session
                .probe(
                    &req,
                    job.absolute_deadline(),
                    Objective::MinTime { budget: None },
                )
                .is_ok()
        };

        let decision = admitted
            .then(|| {
                let strategy = {
                    let span = telemetry.map(|t| t.span_under(GENERATE_SPAN, parent));
                    match telemetry {
                        None => Strategy::generate(job, &self.pool, &config, now),
                        Some(t) => Strategy::generate_instrumented(
                            job,
                            &self.pool,
                            &config,
                            now,
                            t,
                            span.as_ref().and_then(|s| s.id()),
                        ),
                    }
                };
                if verify && j.is_multiple_of(VERIFY_EVERY) {
                    let sequential = Strategy::generate_sequential(job, &self.pool, &config, now);
                    if sequential.distributions() != strategy.distributions() {
                        problems.push(format!("step {j}: pooled sweep differs from sequential"));
                    }
                }
                let idx = strategy
                    .distributions()
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, d)| d.cost())
                    .map(|(i, _)| i)?;
                Some((strategy, idx))
            })
            .flatten();

        let _span = telemetry.map(|t| t.span_under(RESERVE_SPAN, parent));
        if let Some((strategy, idx)) = &decision {
            let job_id = strategy.job().id();
            for p in strategy.distributions()[*idx].placements() {
                let owner = ReservationOwner::Task(GlobalTaskId {
                    job: job_id,
                    task: p.task,
                });
                if let Err(e) = self.pool.timetable_mut(p.node).reserve(p.window, owner) {
                    problems.push(format!("step {j}: reserve conflict: {e}"));
                }
            }
        }
        if j >= LAG {
            self.release(j - LAG, history, problems);
        }
        decision
    }

    /// Releases every reservation job `j` made.
    fn release(&mut self, j: usize, history: &[Decision], problems: &mut Vec<String>) {
        let Some((strategy, idx)) = &history[j] else {
            return;
        };
        let placements = strategy.distributions()[*idx].placements();
        let mut nodes: Vec<_> = placements.iter().map(|p| p.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let released: usize = nodes
            .into_iter()
            .map(|n| {
                self.pool
                    .timetable_mut(n)
                    .release_job(strategy.job().id())
                    .len()
            })
            .sum();
        if released != placements.len() {
            problems.push(format!(
                "step {j}: released {released} of {} reservations",
                placements.len()
            ));
        }
    }
}

impl Workload for Dense {
    fn instances(&self) -> usize {
        self.calendars.len()
    }

    fn run(&mut self, i: usize, telemetry: Option<&Telemetry>) -> Run {
        self.calendars[i].pass(STEPS, telemetry, false)
    }

    fn extras(&self) -> Extras {
        Extras {
            cache_resident_bytes: self
                .calendars
                .iter()
                .map(|c| c.pool.index_cache().resident_bytes() as f64)
                .sum(),
            ..self.extras
        }
    }

    fn verify(&mut self) -> Option<Run> {
        Some(self.calendars[0].pass(STEPS, None, true))
    }
}
