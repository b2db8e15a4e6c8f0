//! Strategies: sets of supporting schedules.
//!
//! §3: "The strategy is a set of possible resource allocation and schedules
//! (distributions) for all N tasks in the job". §4 studies four strategy
//! types, distinguished by computation granularity, data policy and
//! estimate coverage:
//!
//! | type | granularity | data policy         | scenarios          |
//! |------|-------------|---------------------|--------------------|
//! | S1   | fine        | active replication  | full sweep         |
//! | S2   | fine        | remote data access  | full sweep         |
//! | S3   | coarse      | static data storage | full sweep         |
//! | MS1  | fine        | active replication  | best + worst only  |

use std::borrow::Cow;
use std::fmt;

use gridsched_exec::WorkerPool;
use gridsched_sim::time::SimTime;

use gridsched_data::policy::DataPolicy;
use gridsched_metrics::telemetry::{Counter, SpanId, Telemetry};
use gridsched_model::estimate::ScenarioSweep;
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;

use crate::distribution::{CollisionRecord, Distribution};
use crate::granularity::coarsen;
use crate::method::{build_distribution_cloning, ScheduleError, ScheduleRequest};
use crate::session::PlanningSession;

/// Number of scenarios in the full sweeps of S1/S2/S3.
pub const FULL_SWEEP_SCENARIOS: usize = 4;

/// How a scenario sweep is executed.
///
/// Both executors are **bit-identical** in output: each scenario's
/// schedule depends only on the immutable session snapshot, and results are
/// always collected in sweep order regardless of completion order (the
/// determinism suite pins this). They differ only in cost:
///
/// * [`Sequential`](SweepExecutor::Sequential) — one scenario after another
///   on the calling thread. The baseline, and what small sweeps resolve to.
/// * [`Pooled`](SweepExecutor::Pooled) — scenarios drained by a persistent
///   [`WorkerPool`] (see [`crate::pool`]), reused across sweeps and across
///   the whole campaign.
///
/// Small sweeps are not worth fanning out: `Pooled` resolves to
/// `Sequential` when the sweep has ≤ 2 scenarios or the machine offers no
/// parallelism (a zero-worker pool — [`WorkerPool::global`] has zero
/// workers exactly when `available_parallelism() == 1`), so MS1's two
/// scenarios never pay a thread hand-off.
#[derive(Clone, Copy)]
pub enum SweepExecutor<'e> {
    /// Plan scenarios one after another on the calling thread.
    Sequential,
    /// Drain scenarios through a persistent worker pool.
    Pooled(&'e WorkerPool),
}

impl SweepExecutor<'static> {
    /// The default executor: the process-wide persistent pool
    /// ([`WorkerPool::global`]), which resolves to a sequential sweep on
    /// single-core machines and for ≤ 2-scenario sweeps.
    #[must_use]
    pub fn auto() -> Self {
        SweepExecutor::Pooled(WorkerPool::global())
    }
}

/// A borrow-free name for a [`SweepExecutor`] choice, so configurations
/// (which are plain `Clone + PartialEq` data) can carry the executor
/// selection without holding a pool reference.
///
/// Both choices are bit-identical in observable behaviour — that is the
/// whole point of naming them: the chaos harness runs the same campaign
/// under each kind and asserts the trace fingerprints agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepExecutorKind {
    /// [`SweepExecutor::auto`]: the persistent global pool, with the
    /// small-sweep / single-core sequential fallback.
    #[default]
    Auto,
    /// [`SweepExecutor::Sequential`].
    Sequential,
}

impl SweepExecutorKind {
    /// Materializes the named executor.
    #[must_use]
    pub fn executor(self) -> SweepExecutor<'static> {
        match self {
            SweepExecutorKind::Auto => SweepExecutor::auto(),
            SweepExecutorKind::Sequential => SweepExecutor::Sequential,
        }
    }
}

impl<'e> SweepExecutor<'e> {
    /// Applies the small-sweep / no-parallelism fallback.
    fn resolve(self, scenario_count: usize) -> SweepExecutor<'e> {
        match self {
            SweepExecutor::Pooled(pool) if scenario_count <= 2 || pool.workers() == 0 => {
                SweepExecutor::Sequential
            }
            other => other,
        }
    }
}

/// How [`Strategy::generate_with`] runs a sweep. None of the fields
/// changes the schedules built; they pick the executor and say where
/// telemetry goes.
#[derive(Clone, Copy)]
pub struct GenerateOptions<'a> {
    /// Which executor drains the scenario sweep.
    pub executor: SweepExecutor<'a>,
    /// Recorder for the `strategy_generation` and `scenario` spans and the
    /// sweep counters.
    pub telemetry: &'a Telemetry,
    /// Span the `strategy_generation` span nests under.
    pub parent: Option<SpanId>,
}

/// The recorder [`GenerateOptions::default`] points at.
static NO_TELEMETRY: Telemetry = Telemetry::disabled();

impl Default for GenerateOptions<'_> {
    /// The pooled executor ([`SweepExecutor::auto`]) with telemetry off.
    fn default() -> Self {
        GenerateOptions {
            executor: SweepExecutor::auto(),
            telemetry: &NO_TELEMETRY,
            parent: None,
        }
    }
}

/// The four strategy types of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Fine-grain computations, active data replication.
    S1,
    /// Fine-grain computations, remote data access.
    S2,
    /// Coarse-grain computations, static data storage.
    S3,
    /// S1 economized to best-/worst-case estimations only.
    Ms1,
}

impl StrategyKind {
    /// All kinds, in the paper's order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::S1,
        StrategyKind::S2,
        StrategyKind::S3,
        StrategyKind::Ms1,
    ];

    /// The paper's name for the kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::S1 => "S1",
            StrategyKind::S2 => "S2",
            StrategyKind::S3 => "S3",
            StrategyKind::Ms1 => "MS1",
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully resolved strategy configuration.
#[derive(Debug, Clone)]
pub struct StrategyConfig {
    kind: StrategyKind,
    policy: DataPolicy,
    sweep: ScenarioSweep,
    coarse_grain: bool,
}

impl StrategyConfig {
    /// The standard configuration of a strategy kind against a pool.
    ///
    /// S3's static-storage policy stages through the pool's fastest node
    /// (ties towards the smaller id) — data services live on the strongest
    /// resource.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    #[must_use]
    pub fn for_kind(kind: StrategyKind, pool: &ResourcePool) -> Self {
        assert!(
            !pool.is_empty(),
            "cannot configure a strategy for an empty pool"
        );
        match kind {
            StrategyKind::S1 => StrategyConfig {
                kind,
                policy: DataPolicy::active_replication(),
                sweep: ScenarioSweep::full(FULL_SWEEP_SCENARIOS),
                coarse_grain: false,
            },
            StrategyKind::S2 => StrategyConfig {
                kind,
                policy: DataPolicy::remote_access(),
                sweep: ScenarioSweep::full(FULL_SWEEP_SCENARIOS),
                coarse_grain: false,
            },
            StrategyKind::S3 => {
                let storage = pool
                    .nodes()
                    .max_by(|a, b| a.perf().cmp(&b.perf()).then(b.id().cmp(&a.id())))
                    .expect("non-empty pool")
                    .id();
                StrategyConfig {
                    kind,
                    policy: DataPolicy::static_storage(storage),
                    sweep: ScenarioSweep::full(FULL_SWEEP_SCENARIOS),
                    coarse_grain: true,
                }
            }
            StrategyKind::Ms1 => StrategyConfig {
                kind,
                policy: DataPolicy::active_replication(),
                sweep: ScenarioSweep::best_worst(),
                coarse_grain: false,
            },
        }
    }

    /// The strategy kind.
    #[must_use]
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// The data policy.
    #[must_use]
    pub fn policy(&self) -> &DataPolicy {
        &self.policy
    }

    /// The scenario sweep.
    #[must_use]
    pub fn sweep(&self) -> &ScenarioSweep {
        &self.sweep
    }

    /// Whether the job is coarsened before scheduling.
    #[must_use]
    pub fn coarse_grain(&self) -> bool {
        self.coarse_grain
    }

    /// Overrides the scenario sweep (for ablations).
    #[must_use]
    pub fn with_sweep(mut self, sweep: ScenarioSweep) -> Self {
        self.sweep = sweep;
        self
    }

    /// Overrides the data policy (for ablations).
    #[must_use]
    pub fn with_policy(mut self, policy: DataPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// A generated strategy: the supporting schedules that could be built, plus
/// the scenarios that admitted none.
#[derive(Debug, Clone)]
pub struct Strategy {
    kind: StrategyKind,
    config: StrategyConfig,
    /// The job the schedules refer to (coarsened for S3).
    job: Job,
    distributions: Vec<Distribution>,
    failures: Vec<ScheduleError>,
}

impl Strategy {
    /// Generates the strategy for `job` on `pool` under `config`, planning
    /// from `release`.
    ///
    /// One supporting schedule is attempted per scenario in the sweep;
    /// scenarios with no feasible schedule are recorded as failures (their
    /// collisions still count).
    ///
    /// All scenarios plan inside **one** [`PlanningSession`] (a single
    /// availability snapshot shared by reference) and are drained by the
    /// process-wide persistent [`WorkerPool`] ([`SweepExecutor::auto`]);
    /// the result is bit-identical to the sequential sweep
    /// ([`Strategy::generate_sequential`]) because each scenario's
    /// schedule depends only on the immutable snapshot and the results are
    /// collected in sweep order. Sweeps with ≤ 2 scenarios, and any sweep
    /// on a machine without parallelism, fall back to the sequential path
    /// instead of paying thread hand-off for sub-millisecond work.
    #[must_use]
    pub fn generate(
        job: &Job,
        pool: &ResourcePool,
        config: &StrategyConfig,
        release: SimTime,
    ) -> Strategy {
        Strategy::generate_with(
            Cow::Borrowed(job),
            pool,
            config,
            release,
            GenerateOptions::default(),
        )
    }

    /// The one generation entry point: takes the job borrowed or owned
    /// and the executor and telemetry choices in `opts`, and sweeps the
    /// scenarios of `config` over one planning session.
    ///
    /// S3's coarsening happens here, once. [`Strategy::generate`],
    /// [`Strategy::generate_instrumented`] and
    /// [`Strategy::generate_sequential`] are thin calls into this one,
    /// and the job-flow layer hands its jobs over as [`Cow::Owned`] so
    /// fine-grain strategies plan without a clone. With telemetry on, the
    /// whole sweep runs under a `strategy_generation` span (parented under
    /// `opts.parent`), each scenario under its own `scenario` span, and
    /// [`Counter::ScenariosPlanned`] / [`Counter::ScenariosFailed`] tally
    /// the sweep outcome. Whatever the executor, results are collected in
    /// sweep order, so schedules are bit-identical whatever `opts` holds.
    #[must_use]
    pub fn generate_with(
        job: Cow<'_, Job>,
        pool: &ResourcePool,
        config: &StrategyConfig,
        release: SimTime,
        opts: GenerateOptions<'_>,
    ) -> Strategy {
        let planning_job = Self::planning_job(job, config);
        let GenerateOptions {
            executor,
            telemetry,
            parent,
        } = opts;
        let sweep_span = telemetry.span_under("strategy_generation", parent);
        let sweep_id = sweep_span.id();
        let session = PlanningSession::open_instrumented(pool, telemetry, sweep_id);
        let job: &Job = &planning_job;
        let plan = |scenario| {
            // Each scenario gets its own span; its critical-works passes
            // nest under it via the scoped session view. The view shares
            // the snapshot by reference, so parallel determinism holds.
            let scenario_span = telemetry.span_under("scenario", sweep_id);
            session
                .scoped_under(scenario_span.id())
                .build_distribution(&ScheduleRequest {
                    job,
                    pool,
                    policy: &config.policy,
                    scenario,
                    release,
                })
        };
        let scenarios = config.sweep.scenarios();
        let results: Vec<Result<Distribution, ScheduleError>> = match executor
            .resolve(scenarios.len())
        {
            SweepExecutor::Sequential => scenarios.iter().map(|&scenario| plan(scenario)).collect(),
            SweepExecutor::Pooled(worker_pool) => {
                // Persistent workers drain the sweep (the calling
                // thread participates); results land in slots addressed
                // by sweep index, so collection order is sweep order
                // regardless of completion order.
                telemetry.incr(Counter::PooledSweeps);
                worker_pool.scatter(scenarios.len(), |i| plan(scenarios[i]))
            }
        };
        let mut distributions = Vec::new();
        let mut failures = Vec::new();
        for result in results {
            match result {
                Ok(d) => distributions.push(d),
                Err(e) => failures.push(e),
            }
        }
        telemetry.add(Counter::ScenariosPlanned, distributions.len() as u64);
        telemetry.add(Counter::ScenariosFailed, failures.len() as u64);
        Strategy {
            kind: config.kind,
            config: config.clone(),
            job: planning_job.into_owned(),
            distributions,
            failures,
        }
    }

    /// [`Strategy::generate`] with a telemetry recorder attached; see
    /// [`Strategy::generate_with`] for the spans and counters recorded.
    #[must_use]
    pub fn generate_instrumented(
        job: &Job,
        pool: &ResourcePool,
        config: &StrategyConfig,
        release: SimTime,
        telemetry: &Telemetry,
        parent: Option<SpanId>,
    ) -> Strategy {
        let opts = GenerateOptions {
            executor: SweepExecutor::auto(),
            telemetry,
            parent,
        };
        Strategy::generate_with(Cow::Borrowed(job), pool, config, release, opts)
    }

    /// [`Strategy::generate`] with the scenario sweep forced sequential —
    /// the determinism baseline the parallel sweep is checked against.
    #[must_use]
    pub fn generate_sequential(
        job: &Job,
        pool: &ResourcePool,
        config: &StrategyConfig,
        release: SimTime,
    ) -> Strategy {
        let opts = GenerateOptions {
            executor: SweepExecutor::Sequential,
            ..GenerateOptions::default()
        };
        Strategy::generate_with(Cow::Borrowed(job), pool, config, release, opts)
    }

    /// The clone-per-scenario reference sweep: sequential, with every
    /// scenario cloning the pool and planning on a cold snapshot of the
    /// clone ([`build_distribution_cloning`]) instead of sharing one
    /// session snapshot.
    ///
    /// Kept as the test oracle: the determinism suite checks that it
    /// produces bit-identical strategies to [`Strategy::generate`].
    #[must_use]
    pub fn generate_cloning(
        job: &Job,
        pool: &ResourcePool,
        config: &StrategyConfig,
        release: SimTime,
    ) -> Strategy {
        let planning_job = Self::planning_job(Cow::Borrowed(job), config);
        let mut distributions = Vec::new();
        let mut failures = Vec::new();
        for &scenario in config.sweep.scenarios() {
            let req = ScheduleRequest {
                job: &planning_job,
                pool,
                policy: &config.policy,
                scenario,
                release,
            };
            match build_distribution_cloning(&req) {
                Ok(d) => distributions.push(d),
                Err(e) => failures.push(e),
            }
        }
        Strategy {
            kind: config.kind,
            config: config.clone(),
            job: planning_job.into_owned(),
            distributions,
            failures,
        }
    }

    /// The job actually planned: the caller's job as handed over for
    /// fine-grain strategies, an owned coarsened copy for S3. Only the
    /// coarse path pays an allocation.
    fn planning_job<'j>(job: Cow<'j, Job>, config: &StrategyConfig) -> Cow<'j, Job> {
        if config.coarse_grain {
            Cow::Owned(coarsen(&job).job)
        } else {
            job
        }
    }

    /// The configuration this strategy was generated with.
    #[must_use]
    pub fn config(&self) -> &StrategyConfig {
        &self.config
    }

    /// The strategy's kind.
    #[must_use]
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// The job the supporting schedules place (coarsened for S3).
    #[must_use]
    pub fn job(&self) -> &Job {
        &self.job
    }

    /// The supporting schedules, in sweep order (best-case scenario first).
    #[must_use]
    pub fn distributions(&self) -> &[Distribution] {
        &self.distributions
    }

    /// Scenarios for which no schedule could be built.
    #[must_use]
    pub fn failures(&self) -> &[ScheduleError] {
        &self.failures
    }

    /// Whether at least one supporting schedule exists — the paper's
    /// "admissible solution" criterion (Fig. 3a).
    #[must_use]
    pub fn is_admissible(&self) -> bool {
        !self.distributions.is_empty()
    }

    /// The cheapest supporting schedule (the default the metascheduler
    /// activates).
    #[must_use]
    pub fn best_by_cost(&self) -> Option<&Distribution> {
        self.distributions
            .iter()
            .min_by_key(|d| (d.cost(), d.makespan()))
    }

    /// The fastest supporting schedule.
    #[must_use]
    pub fn fastest(&self) -> Option<&Distribution> {
        self.distributions
            .iter()
            .min_by_key(|d| (d.makespan(), d.cost()))
    }

    /// All collisions across schedules and failed scenarios (Fig. 3b).
    pub fn collisions(&self) -> impl Iterator<Item = &CollisionRecord> {
        self.distributions
            .iter()
            .flat_map(|d| d.collisions().iter())
            .chain(self.failures.iter().flat_map(|f| f.collisions.iter()))
    }

    /// Fraction of the sweep that yielded a schedule — the "coverage of
    /// events in distributed environment" §4 attributes to fuller
    /// strategies.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.distributions.len() + self.failures.len();
        if total == 0 {
            0.0
        } else {
            self.distributions.len() as f64 / total as f64
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} schedules, {} failures]",
            self.kind,
            self.distributions.len(),
            self.failures.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_data::policy::DataPolicyKind;
    use gridsched_model::fixtures::{fig2_job, fig2_job_with_deadline};
    use gridsched_model::ids::DomainId;
    use gridsched_model::perf::Perf;
    use gridsched_sim::time::SimDuration;

    fn pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        // Two domains, mixed speeds.
        for (d, p) in [(0, 1.0), (0, 0.5), (1, 0.8), (1, 0.33)] {
            pool.add_node(DomainId::new(d), Perf::new(p).unwrap());
        }
        pool
    }

    #[test]
    fn kind_configs_match_paper_table() {
        let pool = pool();
        let s1 = StrategyConfig::for_kind(StrategyKind::S1, &pool);
        assert_eq!(s1.policy().kind(), DataPolicyKind::ActiveReplication);
        assert_eq!(s1.sweep().len(), FULL_SWEEP_SCENARIOS);
        assert!(!s1.coarse_grain());

        let s2 = StrategyConfig::for_kind(StrategyKind::S2, &pool);
        assert_eq!(s2.policy().kind(), DataPolicyKind::RemoteAccess);

        let s3 = StrategyConfig::for_kind(StrategyKind::S3, &pool);
        assert_eq!(s3.policy().kind(), DataPolicyKind::StaticStorage);
        assert!(s3.coarse_grain());
        // Storage on the fastest node (N0, perf 1.0).
        assert_eq!(
            s3.policy().storage_node(),
            Some(gridsched_model::ids::NodeId::new(0))
        );

        let ms1 = StrategyConfig::for_kind(StrategyKind::Ms1, &pool);
        assert_eq!(ms1.policy().kind(), DataPolicyKind::ActiveReplication);
        assert_eq!(ms1.sweep().len(), 2);
    }

    #[test]
    fn full_strategy_has_one_schedule_per_scenario_when_relaxed() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(200));
        let pool = pool();
        let cfg = StrategyConfig::for_kind(StrategyKind::S1, &pool);
        let s = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
        assert!(s.is_admissible());
        assert_eq!(s.distributions().len(), FULL_SWEEP_SCENARIOS);
        assert_eq!(s.coverage(), 1.0);
    }

    #[test]
    fn ms1_generates_at_most_two_schedules() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(200));
        let pool = pool();
        let cfg = StrategyConfig::for_kind(StrategyKind::Ms1, &pool);
        let s = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
        assert!(s.distributions().len() <= 2);
        assert!(s.is_admissible());
    }

    #[test]
    fn tight_deadline_drops_worst_case_scenarios_first() {
        // Pick a deadline only the faster scenarios can meet.
        let job = fig2_job_with_deadline(SimDuration::from_ticks(18));
        let pool = pool();
        let cfg = StrategyConfig::for_kind(StrategyKind::S2, &pool);
        let s = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
        assert!(s.is_admissible());
        assert!(
            !s.failures().is_empty(),
            "the worst-case scenario should be infeasible at deadline 18"
        );
        // Surviving schedules are the optimistic ones.
        for d in s.distributions() {
            assert!(d.scenario() < gridsched_model::estimate::EstimateScenario::WORST);
        }
    }

    #[test]
    fn impossible_deadline_is_inadmissible() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(4));
        let pool = pool();
        let cfg = StrategyConfig::for_kind(StrategyKind::S2, &pool);
        let s = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
        assert!(!s.is_admissible());
        assert_eq!(s.coverage(), 0.0);
        assert!(s.best_by_cost().is_none());
    }

    #[test]
    fn best_by_cost_and_fastest_are_consistent() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(200));
        let pool = pool();
        let cfg = StrategyConfig::for_kind(StrategyKind::S2, &pool);
        let s = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
        let cheap = s.best_by_cost().unwrap();
        let fast = s.fastest().unwrap();
        assert!(cheap.cost() <= fast.cost());
        assert!(fast.makespan() <= cheap.makespan());
    }

    #[test]
    fn s3_plans_on_the_coarsened_job() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(200));
        let pool = pool();
        let cfg = StrategyConfig::for_kind(StrategyKind::S3, &pool);
        let s = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
        // Fig. 2's fork-join graph does not coarsen, so counts match; the
        // planning job is still a distinct owned copy.
        assert_eq!(s.job().task_count(), fig2_job().task_count());
        for d in s.distributions() {
            assert_eq!(d.validate(s.job(), &pool), Ok(()));
        }
    }

    /// Everything observable about a strategy, for bit-exact comparisons.
    fn fingerprint(s: &Strategy) -> impl PartialEq + std::fmt::Debug {
        (
            s.kind(),
            s.job().task_count(),
            s.distributions()
                .iter()
                .map(|d| {
                    (
                        d.scenario(),
                        d.cost(),
                        d.makespan(),
                        d.placements().to_vec(),
                        d.collisions().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
            s.failures().to_vec(),
        )
    }

    #[test]
    fn parallel_sequential_and_cloning_sweeps_are_bit_identical() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(100));
        let mut pool = pool();
        // Background load so overlay merging is exercised.
        for i in 0..pool.len() {
            let id = gridsched_model::ids::NodeId::new(i as u32);
            pool.timetable_mut(id)
                .reserve(
                    gridsched_model::window::TimeWindow::new(
                        SimTime::from_ticks(3 * i as u64),
                        SimTime::from_ticks(3 * i as u64 + 4),
                    )
                    .unwrap(),
                    gridsched_model::timetable::ReservationOwner::Background(i as u64),
                )
                .unwrap();
        }
        for kind in StrategyKind::ALL {
            let cfg = StrategyConfig::for_kind(kind, &pool);
            let par = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
            let seq = Strategy::generate_sequential(&job, &pool, &cfg, SimTime::ZERO);
            let cloning = Strategy::generate_cloning(&job, &pool, &cfg, SimTime::ZERO);
            let owned = Strategy::generate_with(
                Cow::Owned(job.clone()),
                &pool,
                &cfg,
                SimTime::ZERO,
                GenerateOptions::default(),
            );
            assert_eq!(fingerprint(&par), fingerprint(&seq), "{kind}");
            assert_eq!(fingerprint(&par), fingerprint(&cloning), "{kind}");
            assert_eq!(fingerprint(&par), fingerprint(&owned), "{kind}");
        }
    }

    #[test]
    fn instrumented_sweep_is_bit_identical_and_tallies_counters() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(100));
        let pool = pool();
        let cfg = StrategyConfig::for_kind(StrategyKind::S2, &pool);
        let plain = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
        let telemetry = Telemetry::new();
        let instrumented =
            Strategy::generate_instrumented(&job, &pool, &cfg, SimTime::ZERO, &telemetry, None);
        assert_eq!(fingerprint(&plain), fingerprint(&instrumented));
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("scenarios_planned"),
            plain.distributions().len() as u64
        );
        assert_eq!(
            snap.counter("scenarios_failed"),
            plain.failures().len() as u64
        );
        assert_eq!(snap.counter("sessions_opened"), 1);
        assert_eq!(
            snap.counter("critical_works_passes"),
            FULL_SWEEP_SCENARIOS as u64
        );
        // The sweep's span tree covers the full planning hierarchy even
        // though scenarios ran on pool worker threads.
        for phase in [
            "strategy_generation",
            "session_open",
            "scenario",
            "critical_works_pass",
        ] {
            assert!(snap.phases().contains(&phase), "missing phase {phase}");
        }
        let spans = snap.spans();
        let sweep = spans
            .iter()
            .find(|s| s.name == "strategy_generation")
            .unwrap();
        for scenario in spans.iter().filter(|s| s.name == "scenario") {
            assert_eq!(scenario.parent, Some(sweep.id));
        }
        let scenario_ids: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "scenario")
            .map(|s| s.id)
            .collect();
        for pass in spans.iter().filter(|s| s.name == "critical_works_pass") {
            assert!(pass.parent.is_some_and(|p| scenario_ids.contains(&p)));
        }
    }

    #[test]
    fn every_distribution_validates() {
        let job = fig2_job_with_deadline(SimDuration::from_ticks(100));
        let pool = pool();
        for kind in StrategyKind::ALL {
            let cfg = StrategyConfig::for_kind(kind, &pool);
            let s = Strategy::generate(&job, &pool, &cfg, SimTime::ZERO);
            for d in s.distributions() {
                assert_eq!(d.validate(s.job(), &pool), Ok(()), "{kind}");
            }
        }
    }
}
