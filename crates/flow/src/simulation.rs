//! End-to-end virtual-organization campaign simulation.
//!
//! Reproduces the paper's §4 experimental setup: a random pool of 20–30
//! nodes in three performance groups, background load from independent
//! flows, a stream of random compound jobs with fixed completion times,
//! and *resource dynamics* — external reservations appearing over time and
//! task overruns — that break active schedules and trigger the dynamic
//! reallocation mechanism of §2.
//!
//! One run produces a [`VoReport`] carrying everything Figs. 3 and 4 plot:
//! admissible share, collision distribution by node group, per-group task
//! load, job costs, task wall times, schedule time-to-live and start-time
//! deviations.

use std::borrow::Cow;
use std::collections::HashMap;

use gridsched_core::distribution::{Distribution, Placement};
use gridsched_core::method::ScheduleRequest;
use gridsched_core::session::PlanningSession;
use gridsched_core::strategy::{
    GenerateOptions, Strategy, StrategyConfig, StrategyKind, SweepExecutorKind,
};
use gridsched_data::policy::{DataPolicy, DataPolicyKind};
use gridsched_metrics::load::GroupLoad;
use gridsched_metrics::telemetry::{Counter, SpanId, Telemetry};
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{GlobalTaskId, JobId, NodeId, TaskId};
use gridsched_model::job::Job;
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::{Perf, PerfGroup};
use gridsched_model::timetable::ReservationOwner;
use gridsched_model::window::TimeWindow;
use gridsched_sim::rng::SimRng;
use gridsched_sim::time::{SimDuration, SimTime};
use gridsched_workload::background::{apply_background_load, BackgroundConfig};
use gridsched_workload::jobs::{generate_stream, JobConfig};
use gridsched_workload::pool::{generate_pool, PoolConfig};

use crate::driver::{drive, FlowEvent, FlowMachine};
use crate::faults::{Fault, FaultConfig, FaultKind, FaultPlan, FaultSummary};
use crate::metascheduler::{select_domain, FlowAssignment, Metascheduler};
use crate::report::{JobRecord, VoReport};
use crate::trace::BreakKind;

/// Configuration of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// How jobs are grouped into strategy flows.
    pub assignment: FlowAssignment,
    /// Number of compound jobs submitted.
    pub jobs: usize,
    /// Random-job shape parameters.
    pub job_config: JobConfig,
    /// Random-pool parameters.
    pub pool_config: PoolConfig,
    /// Initial background load level in `[0, 1)`.
    pub background_load: f64,
    /// Maximum gap between consecutive job releases.
    pub job_gap: SimDuration,
    /// Number of external perturbation events (independent local jobs
    /// seizing node time) over the horizon.
    pub perturbations: usize,
    /// Min/max length of a perturbation reservation, in ticks.
    pub perturbation_len: (u64, u64),
    /// Injected faults: node outages, degradations and transfer faults.
    /// The default injects nothing.
    pub faults: FaultConfig,
    /// Campaign horizon.
    pub horizon: SimDuration,
    /// Network model strategies plan with.
    pub transfer_model: gridsched_data::network::TransferModel,
    /// Range the per-job slowdown factor is drawn from (actual runtimes =
    /// nominal × factor). The paper's workload spreads runtimes 2–3×;
    /// `(1.0, 1.0)` makes every job run exactly at its optimistic
    /// estimate (useful in tests).
    pub slowdown_range: (f64, f64),
    /// Half-width of the per-task jitter added to the job's slowdown
    /// factor. `0.0` makes all tasks of a job slow down uniformly.
    pub task_jitter: f64,
    /// Collect a chronological [`crate::trace::CampaignTrace`] of every
    /// activation, break, switch, replan and drop.
    pub collect_trace: bool,
    /// Which scenario-sweep executor releases plan with
    /// ([`SweepExecutorKind::Auto`] is the persistent pool with its
    /// sequential fallback). All kinds are bit-identical — the chaos
    /// harness's executor axis runs the same campaign under each and
    /// asserts the trace fingerprints agree; the determinism suite pins
    /// `Sequential` as the campaign-level baseline.
    pub executor: SweepExecutorKind,
    /// Urgency escalation (§5's dynamic priority change): when a broken
    /// job's remaining slack falls below this multiple of its optimistic
    /// remaining work, it replans for speed (`MinTime`) instead of cost.
    /// `None` disables escalation.
    pub urgency_slack_factor: Option<f64>,
    /// Master seed; every random stream forks from it.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            assignment: FlowAssignment::Single(StrategyKind::S1),
            jobs: 150,
            job_config: JobConfig::default(),
            pool_config: PoolConfig::default(),
            background_load: 0.3,
            job_gap: SimDuration::from_ticks(6),
            perturbations: 150,
            perturbation_len: (2, 8),
            faults: FaultConfig::none(),
            horizon: SimDuration::from_ticks(1_000),
            transfer_model: gridsched_data::network::TransferModel::default(),
            slowdown_range: (1.0, EstimateScenario::WORST_FACTOR),
            task_jitter: 0.15,
            collect_trace: false,
            executor: SweepExecutorKind::default(),
            urgency_slack_factor: Some(1.5),
            seed: 0x9d5c,
        }
    }
}

/// Runs one campaign and aggregates the paper's metrics.
///
/// Deterministic: the same configuration (including seed) always yields the
/// same report.
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> VoReport {
    run_campaign_instrumented(config, &Telemetry::disabled())
}

/// [`run_campaign`] with a telemetry recorder attached.
///
/// The whole run executes under a `campaign` root span with `setup`,
/// `fault_plan`, per-job `release` (nesting the strategy sweep's own
/// spans), `replan` and `finalize` children; every QoS event of the
/// campaign — releases, activations, breaks, switches, replans,
/// migrations, drops, fault injections and absorptions — lands in the
/// matching [`Counter`]. Instrumentation is strictly observational: the
/// report is bit-identical to [`run_campaign`] on the same config (the
/// determinism suite pins this).
#[must_use]
pub fn run_campaign_instrumented(config: &CampaignConfig, telemetry: &Telemetry) -> VoReport {
    let campaign_span = telemetry.span("campaign");
    let root = campaign_span.id();
    let setup = telemetry.span_under("setup", root);
    let campaign = Campaign::new(config, telemetry, root);
    drop(setup);
    campaign.run()
}

/// One activated job's live state.
///
/// `pub(crate)` (with its fields) so the [`crate::simulation`] dynamics
/// engine and the [`crate::online`] serving loop drive the same state.
/// The job keeps no reservation handles: a pending task's reservation
/// is its placement's window in `current` under its
/// `ReservationOwner::Task`, and a break releases it by that pair
/// (DESIGN.md §9 says why an exact match is enough).
#[derive(Debug, Clone)]
pub(crate) struct ActiveJob {
    pub(crate) record: usize,
    pub(crate) job: Job,
    pub(crate) policy: DataPolicy,
    pub(crate) scenario: EstimateScenario,
    pub(crate) activation: SimTime,
    pub(crate) deadline_abs: SimTime,
    /// Each task's current placement.
    pub(crate) current: HashMap<TaskId, Placement>,
    pub(crate) task_factors: Vec<f64>,
    /// The strategy's other supporting schedules, available for switching
    /// while no task has started yet.
    pub(crate) alternatives: Vec<Distribution>,
    /// Start times of the user's optimistic forecast (the best-case
    /// supporting schedule), per task.
    pub(crate) reference_starts: Vec<SimTime>,
    /// Planned runtime of that forecast, in ticks.
    pub(crate) reference_runtime: f64,
    /// `(break time, overrunning task)` of the earliest pending overrun.
    pub(crate) pending_overrun: Option<(SimTime, TaskId)>,
    pub(crate) first_break: Option<SimTime>,
    pub(crate) dropped: bool,
    /// Realized completion instant, once the online loop observes every
    /// window closed. Batch campaigns never set it: completion facts are
    /// only known at the horizon there, and the campaign finalizer stamps
    /// them for every surviving job whose completion was not yet recorded.
    pub(crate) completed: Option<SimTime>,
}

impl ActiveJob {
    /// When the job's current placements end: the latest window end, or
    /// its activation instant if it holds none.
    pub(crate) fn realized_end(&self) -> SimTime {
        self.current
            .values()
            .map(|p| p.window.end())
            .max()
            .unwrap_or(self.activation)
    }
}

/// The campaign dynamics engine: pool state, active schedules, break
/// handling and finalization. `pub(crate)` so [`crate::online`] can drive
/// the exact same machinery from a streaming event loop.
pub(crate) struct Campaign<'a> {
    pub(crate) config: &'a CampaignConfig,
    pub(crate) pool: ResourcePool,
    /// The top-tier dispatcher: assigns each job its strategy flow.
    pub(crate) meta: Metascheduler,
    /// Every activated job in activation order, dropped ones included
    /// (their records still finalize). The index is the job's handle and
    /// the tie-break of every scan over live jobs; a job's domain is an
    /// attribute of its record (`home_domain`), not where it is stored.
    pub(crate) active: Vec<ActiveJob>,
    pub(crate) records: Vec<JobRecord>,
    pub(crate) horizon_end: SimTime,
    pub(crate) activation_rng: SimRng,
    pub(crate) next_background_tag: u64,
    pub(crate) faults: FaultSummary,
    pub(crate) trace: Option<crate::trace::CampaignTrace>,
    pub(crate) telemetry: Telemetry,
    /// The `campaign` root span every top-level phase parents under.
    pub(crate) root: Option<SpanId>,
    /// Reused buffer for outage gap-blocking (`free_windows_into`).
    pub(crate) gap_scratch: Vec<TimeWindow>,
}

impl FlowMachine for Campaign<'_> {
    fn settle(&mut self, now: SimTime) {
        self.settle_overruns(now);
    }

    fn on_release(&mut self, job: Job) {
        self.handle_release(job);
    }

    fn on_perturbation(&mut self, at: SimTime, node: NodeId, len: SimDuration) {
        self.handle_perturbation(at, node, len);
    }

    fn on_fault(&mut self, fault: Fault) {
        self.handle_fault(fault);
    }
}

impl<'a> Campaign<'a> {
    pub(crate) fn new(
        config: &'a CampaignConfig,
        telemetry: &Telemetry,
        root: Option<SpanId>,
    ) -> Self {
        let mut master = SimRng::seed_from(config.seed);
        let mut pool_rng = master.fork(1);
        let mut bg_rng = master.fork(2);
        let activation_rng = master.fork(4);

        let mut pool = generate_pool(&config.pool_config, &mut pool_rng);
        let bg = BackgroundConfig {
            load: config.background_load,
            horizon: config.horizon,
            ..BackgroundConfig::default()
        };
        if config.background_load > 0.0 {
            apply_background_load(&mut pool, &bg, &mut bg_rng);
        }
        // Spin the persistent sweep workers up front so the first strategy
        // sweep of the campaign doesn't pay the one-off thread spawn; every
        // later sweep reuses the same pool.
        let _ = gridsched_core::pool::WorkerPool::global();
        let meta = Metascheduler::with_telemetry(config.assignment.clone(), telemetry);
        Campaign {
            config,
            pool,
            meta,
            active: Vec::new(),
            records: Vec::with_capacity(config.jobs),
            horizon_end: SimTime::ZERO + config.horizon,
            activation_rng,
            next_background_tag: 1 << 32,
            faults: FaultSummary::default(),
            trace: config.collect_trace.then(crate::trace::CampaignTrace::new),
            telemetry: telemetry.clone(),
            root,
            gap_scratch: Vec::new(),
        }
    }

    pub(crate) fn record_event(&mut self, at: SimTime, event: crate::trace::CampaignEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(at, event);
        }
    }

    /// Perturbation and fault events for one run, drawn from the
    /// campaign's dedicated streams. Shared with [`crate::online`] so both
    /// campaign flavours face identical dynamics per seed.
    pub(crate) fn dynamics_events(
        &mut self,
        pert_rng: &mut SimRng,
        fault_rng: &mut SimRng,
    ) -> Vec<FlowEvent> {
        let node_count = self.pool.len();
        let mut events = Vec::with_capacity(self.config.perturbations);
        for _ in 0..self.config.perturbations {
            let at = SimTime::from_ticks(pert_rng.uniform_u64(0, self.config.horizon.ticks()));
            let node = NodeId::new(pert_rng.uniform_u64(0, node_count as u64 - 1) as u32);
            let len = SimDuration::from_ticks(pert_rng.uniform_u64(
                self.config.perturbation_len.0,
                self.config.perturbation_len.1,
            ));
            events.push(FlowEvent::Perturbation { at, node, len });
        }
        let plan = FaultPlan::generate_instrumented(
            &self.config.faults,
            node_count,
            self.config.horizon,
            fault_rng,
            &self.telemetry,
            self.root,
        );
        events.extend(plan.faults().iter().copied().map(FlowEvent::Fault));
        events
    }

    fn run(self) -> VoReport {
        let mut master = SimRng::seed_from(self.config.seed);
        let mut jobs_rng = master.fork(3);
        let mut pert_rng = master.fork(5);
        let mut fault_rng = master.fork(6);

        let jobs = generate_stream(
            &self.config.job_config,
            self.config.jobs,
            self.config.job_gap,
            &mut jobs_rng,
        );
        let mut this = self;
        let mut events: Vec<FlowEvent> = jobs.into_iter().map(FlowEvent::Release).collect();
        events.extend(this.dynamics_events(&mut pert_rng, &mut fault_rng));

        let horizon_end = this.horizon_end;
        let this = drive(events, this, horizon_end);
        let finalize_span = this.telemetry.span_under("finalize", this.root);
        let report = this.finalize();
        drop(finalize_span);
        report
    }

    fn handle_release(&mut self, job: Job) {
        let release_span = self.telemetry.span_under("release", self.root);
        self.telemetry.incr(Counter::JobsReleased);
        let kind = self.meta.assign(&job);
        let config = self.strategy_config(kind);
        // The job is handed off to the strategy whole: an owned job
        // avoids the planning clone for fine-grain strategies.
        let job_id = job.id();
        let release = job.release();
        let opts = GenerateOptions {
            executor: self.config.executor.executor(),
            telemetry: &self.telemetry,
            parent: release_span.id(),
        };
        let strategy = Strategy::generate_with(Cow::Owned(job), &self.pool, &config, release, opts);
        let (fast, slow) = collision_tally(&strategy);
        let record = JobRecord {
            admissible: strategy.is_admissible(),
            collisions_fast: fast,
            collisions_slow: slow,
            schedules: strategy.distributions().len(),
            ..JobRecord::fresh(job_id, kind, release)
        };
        let record_idx = self.records.len();
        let admissible = strategy.is_admissible();
        self.record_event(
            release,
            crate::trace::CampaignEvent::Released {
                job: job_id,
                admissible,
            },
        );
        self.records.push(record);
        if !admissible {
            return;
        }
        self.activate(strategy, config, record_idx, release, release_span.id());
    }

    /// The strategy configuration `kind` plans with in this campaign: the
    /// kind's defaults with the campaign's network model on its policy.
    pub(crate) fn strategy_config(&self, kind: StrategyKind) -> StrategyConfig {
        let config = StrategyConfig::for_kind(kind, &self.pool);
        let policy = config
            .policy()
            .clone()
            .with_transfer_model(self.config.transfer_model.clone());
        config.with_policy(policy)
    }

    /// Activates the supporting schedule matching the observed conditions:
    /// the tightest scenario covering the job's actual slowdown factor.
    pub(crate) fn activate(
        &mut self,
        strategy: Strategy,
        config: StrategyConfig,
        record_idx: usize,
        release: SimTime,
        parent: Option<SpanId>,
    ) {
        let _span = self.telemetry.span_under("activate", parent);
        self.telemetry.incr(Counter::JobsActivated);
        let planning_job = strategy.job().clone();
        let (lo, hi) = self.config.slowdown_range;
        let job_factor = if hi > lo {
            self.activation_rng.uniform_f64(lo, hi)
        } else {
            lo
        };
        let jitter_half = self.config.task_jitter;
        let task_factors: Vec<f64> = (0..planning_job.task_count())
            .map(|_| {
                let jitter = if jitter_half > 0.0 {
                    self.activation_rng.uniform_f64(-jitter_half, jitter_half)
                } else {
                    0.0
                };
                (job_factor + jitter).clamp(1.0, EstimateScenario::WORST_FACTOR)
            })
            .collect();
        let chosen = strategy
            .distributions()
            .iter()
            .filter(|d| d.scenario().multiplier() + 1e-9 >= job_factor)
            .min_by_key(|d| (d.scenario(), d.cost()))
            .or_else(|| strategy.distributions().iter().max_by_key(|d| d.scenario()))
            .expect("admissible strategy has a distribution")
            .clone();
        let alternatives: Vec<_> = strategy
            .distributions()
            .iter()
            .filter(|d| **d != chosen)
            .cloned()
            .collect();

        // The user's forecast is the optimistic (best-case) supporting
        // schedule; the realized deviation from it is measured when the
        // campaign finishes (Fig. 4c).
        let reference = &strategy.distributions()[0];
        let reference_starts: Vec<SimTime> = reference
            .placements()
            .iter()
            .map(|p| p.window.start())
            .collect();
        let reference_runtime = reference.makespan().saturating_since(release).ticks() as f64;

        for p in chosen.placements() {
            self.pool
                .timetable_mut(p.node)
                .reserve(
                    p.window,
                    ReservationOwner::Task(GlobalTaskId {
                        job: planning_job.id(),
                        task: p.task,
                    }),
                )
                .expect("activated schedule was built against current availability");
        }

        let record = &mut self.records[record_idx];
        record.planned_makespan = Some(chosen.makespan());
        record.scenario_multiplier = Some(chosen.scenario().multiplier());

        let deadline_abs = release.saturating_add(planning_job.deadline());
        let current: HashMap<TaskId, Placement> =
            chosen.placements().iter().map(|p| (p.task, *p)).collect();
        // Top-tier domain selection: the domain holding the majority of
        // the schedule's reserved ticks homes the job.
        let home = select_domain(current.values(), &self.pool);
        self.records[record_idx].home_domain = Some(home);
        self.telemetry
            .incr_domain(Counter::JobsActivated, u64::from(home.raw()));
        self.record_event(
            release,
            crate::trace::CampaignEvent::Activated {
                job: planning_job.id(),
                cost: chosen.cost(),
            },
        );
        let mut active = ActiveJob {
            record: record_idx,
            job: planning_job,
            policy: config.policy().clone(),
            scenario: chosen.scenario(),
            activation: release,
            deadline_abs,
            current,
            task_factors,
            alternatives,
            reference_starts,
            reference_runtime,
            pending_overrun: None,
            first_break: None,
            dropped: false,
            completed: None,
        };
        active.pending_overrun = next_overrun(&active, &self.pool, release);
        self.active.push(active);
    }

    /// The live (not dropped) job with this id, if any.
    fn find_live(&self, id: JobId) -> Option<usize> {
        self.active
            .iter()
            .position(|a| a.job.id() == id && !a.dropped)
    }

    /// Handles one external perturbation: an independent local job seizing
    /// `[at, at+len)` on `node`. Pending application-level reservations
    /// lose (local administering rules favour the resource owner); running
    /// tasks are never preempted (the paper's inseparability condition).
    pub(crate) fn handle_perturbation(&mut self, at: SimTime, node: NodeId, len: SimDuration) {
        if at >= self.horizon_end || len.is_zero() {
            return;
        }
        let window = TimeWindow::starting_at(at, len).expect("non-empty perturbation");
        // Collect pending victim tasks per job.
        let mut victims: Vec<(JobId, SimTime)> = Vec::new();
        for r in self.pool.timetable(node).conflicts_with(window) {
            if let ReservationOwner::Task(gid) = r.owner() {
                if r.window().start() > at {
                    victims.push((gid.job, at));
                }
            }
        }
        if victims.is_empty() {
            self.reserve_background_if_free(node, window);
            return;
        }
        victims.sort_unstable();
        victims.dedup();
        for (job_id, tau) in victims {
            if let Some(j) = self.find_live(job_id) {
                self.break_job(j, tau, BreakKind::Perturbation, &[], tau);
            }
        }
        if self.reserve_background_if_free(node, window) {
            self.record_event(at, crate::trace::CampaignEvent::Perturbation { node });
        }
    }

    /// Reserves a perturbation's window on `node` as background load if it
    /// is still free; returns whether it did.
    fn reserve_background_if_free(&mut self, node: NodeId, window: TimeWindow) -> bool {
        if !self.pool.timetable(node).is_free(window) {
            return false;
        }
        let tag = self.next_background_tag;
        self.next_background_tag += 1;
        self.pool
            .timetable_mut(node)
            .reserve(window, ReservationOwner::Background(tag))
            .expect("checked free");
        self.telemetry.incr(Counter::Perturbations);
        true
    }

    /// Dispatches one injected fault.
    pub(crate) fn handle_fault(&mut self, fault: Fault) {
        if fault.at >= self.horizon_end {
            return;
        }
        match fault.kind {
            FaultKind::Outage { len } => self.handle_outage(fault.at, fault.node, len),
            FaultKind::Degradation { factor } => {
                self.handle_degradation(fault.at, fault.node, factor);
            }
            FaultKind::TransferFault { retry } => {
                self.handle_transfer_fault(fault.at, fault.node, retry);
            }
        }
    }

    /// A node dies for `[at, at+len)`: every task reservation overlapping
    /// the window is voided. Pending victims are replanned as usual;
    /// already-running victims lose their partial execution and must
    /// *migrate* — restart on another node. The outage window itself is
    /// blocked so no replan lands inside it.
    fn handle_outage(&mut self, at: SimTime, node: NodeId, len: SimDuration) {
        if len.is_zero() {
            return;
        }
        let window = TimeWindow::starting_at(at, len).expect("non-empty outage");
        let voided = self.pool.timetable_mut(node).void_tasks_within(window);
        self.faults.outages_injected += 1;
        self.telemetry.incr(Counter::OutagesInjected);
        self.record_event(
            at,
            crate::trace::CampaignEvent::Outage {
                node,
                voided: voided.len(),
            },
        );
        // Block every remaining free gap of the outage window (background
        // reservations already occupying parts of it need no blocking).
        // The gap buffer is campaign-owned and reused across outages.
        let mut gaps = std::mem::take(&mut self.gap_scratch);
        self.pool
            .timetable(node)
            .free_windows_into(window, &mut gaps);
        for &gap in &gaps {
            let tag = self.next_background_tag;
            self.next_background_tag += 1;
            self.pool
                .timetable_mut(node)
                .reserve(gap, ReservationOwner::Background(tag))
                .expect("free_windows returned a free gap");
        }
        gaps.clear();
        self.gap_scratch = gaps;
        // Group victims by job; tasks already running at `at` are forced
        // migrations (their reservation is gone mid-execution).
        let mut victims: Vec<(JobId, Vec<TaskId>)> = Vec::new();
        for r in &voided {
            let ReservationOwner::Task(gid) = r.owner() else {
                continue;
            };
            let pos = match victims.iter().position(|(j, _)| *j == gid.job) {
                Some(p) => p,
                None => {
                    victims.push((gid.job, Vec::new()));
                    victims.len() - 1
                }
            };
            if r.window().start() <= at && !victims[pos].1.contains(&gid.task) {
                victims[pos].1.push(gid.task);
            }
        }
        for (job_id, forced) in victims {
            let Some(j) = self.find_live(job_id) else {
                continue;
            };
            self.break_job(j, at, BreakKind::Outage, &forced, at);
        }
    }

    /// A node's performance drops by `factor`: every remaining runtime on
    /// it inflates, which future replans see directly and active schedules
    /// feel as overruns.
    fn handle_degradation(&mut self, at: SimTime, node: NodeId, factor: f64) {
        let old = self.pool.node(node).perf().value();
        let degraded =
            Perf::new((old * factor).clamp(0.05, 1.0)).expect("clamped into a valid performance");
        self.pool.set_perf(node, degraded);
        self.faults.degradations_injected += 1;
        self.telemetry.incr(Counter::DegradationsInjected);
        self.record_event(at, crate::trace::CampaignEvent::Degraded { node });
        // Remaining runtimes on the node just grew: refresh the earliest
        // pending overrun of every job with a future placement there.
        for a in &mut self.active {
            if a.dropped {
                continue;
            }
            let affected = a
                .current
                .values()
                .any(|p| p.node == node && p.window.start() > at);
            if affected {
                a.pending_overrun = next_overrun(a, &self.pool, at);
            }
        }
    }

    /// An inter-domain transfer incident at `node`: every active job with
    /// a pending task whose input crosses the broken link re-draws the
    /// transfer (retry penalty) and replans — unless its policy is active
    /// replication, which reads a nearby replica and absorbs the fault.
    fn handle_transfer_fault(&mut self, at: SimTime, node: NodeId, retry: SimDuration) {
        self.faults.transfer_faults_injected += 1;
        self.telemetry.incr(Counter::TransferFaultsInjected);
        self.record_event(
            at,
            crate::trace::CampaignEvent::TransferFaultInjected { node },
        );
        // Scan in activation order.
        let mut absorbed: Vec<JobId> = Vec::new();
        let mut victims: Vec<usize> = Vec::new();
        for (j, a) in self.active.iter().enumerate() {
            if a.dropped {
                continue;
            }
            if !transfer_exposed(a, node, at, &self.pool) {
                continue;
            }
            if a.policy.kind() == DataPolicyKind::ActiveReplication {
                absorbed.push(a.job.id());
            } else {
                victims.push(j);
            }
        }
        for job in absorbed {
            self.faults.transfer_faults_absorbed += 1;
            self.telemetry.incr(Counter::TransferFaultsAbsorbed);
            self.record_event(at, crate::trace::CampaignEvent::TransferAbsorbed { job });
        }
        // A break touches only its own job, so every victim is still live.
        for j in victims {
            let earliest = at + retry;
            self.break_job(j, at, BreakKind::TransferFault, &[], earliest);
        }
    }

    /// Processes every due overrun, earliest first; ties on activation
    /// order.
    fn settle_overruns(&mut self, now: SimTime) {
        while let Some((t, j, task)) = self.due_overrun(now) {
            self.handle_overrun(j, t, task);
        }
    }

    /// The earliest pending overrun of a live job due by `now`, as
    /// `(break time, job index, task)`; ties go to the earlier-activated
    /// job, then the lower task id.
    pub(crate) fn due_overrun(&self, now: SimTime) -> Option<(SimTime, usize, TaskId)> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.dropped)
            .filter_map(|(j, a)| a.pending_overrun.map(|(t, task)| (t, j, task)))
            .filter(|&(t, _, _)| t <= now)
            .min()
    }

    /// A task ran past its reserved window: extend it (best effort) and
    /// replan everything downstream.
    pub(crate) fn handle_overrun(&mut self, j: usize, at: SimTime, task: TaskId) {
        // Extend the overrunning task's placement to its actual finish.
        let (old, actual_end) = {
            let a = &self.active[j];
            let p = a.current[&task];
            let actual = actual_exec(&a.job, &self.pool, &p, a.task_factors[task.index()]);
            (p, p.window.start() + p.stall + actual)
        };
        let extended = TimeWindow::new(old.window.start(), actual_end.max_of(old.window.end()))
            .expect("extension keeps the window non-empty");
        // Best-effort reservation of the extension tail.
        if extended.end() > old.window.end() {
            if let Ok(tail) = TimeWindow::new(old.window.end(), extended.end()) {
                let owner = ReservationOwner::Task(GlobalTaskId {
                    job: self.active[j].job.id(),
                    task,
                });
                let _ = self.pool.timetable_mut(old.node).reserve(tail, owner);
            }
        }
        let a = &mut self.active[j];
        let entry = a.current.get_mut(&task).expect("task is placed");
        entry.window = extended;
        a.pending_overrun = None;
        self.break_job(j, at, BreakKind::Overrun, &[], at);
    }

    /// Attempts to activate another supporting schedule of the job's
    /// strategy. The alternative's *relative* structure (nodes, window
    /// lengths, precedence offsets) was precomputed at activation; only
    /// its anchor moves: the whole schedule is shifted uniformly forward
    /// so its earliest window starts no sooner than `earliest`. A uniform
    /// shift preserves precedence, so the switch succeeds iff every
    /// shifted window is free on the current timetables and the shifted
    /// makespan still meets the deadline. Returns `true` on success.
    fn try_switch(&mut self, j: usize, tau: SimTime, earliest: SimTime) -> bool {
        let found = {
            let a = &self.active[j];
            // A read-only what-if view over one snapshot: every candidate
            // alternative is probed against the same captured availability
            // (the planning-session discipline; bit-identical to reading
            // the live timetables since nothing mutates during the probe).
            let probe = PlanningSession::open_instrumented(&self.pool, &self.telemetry, self.root)
                .overlay();
            a.alternatives.iter().enumerate().find_map(|(pos, d)| {
                let first = d.placements().iter().map(|p| p.window.start()).min()?;
                let delta = earliest.saturating_since(first);
                if d.makespan() + delta > a.deadline_abs {
                    return None;
                }
                let all_free = d
                    .placements()
                    .iter()
                    .all(|p| probe.is_free(p.node, shift_window(p.window, delta)));
                all_free.then_some((pos, delta))
            })
        };
        let Some((pos, delta)) = found else {
            return false;
        };
        let a = &mut self.active[j];
        let dist = a.alternatives.remove(pos);
        for p in dist.placements() {
            let shifted = Placement {
                window: shift_window(p.window, delta),
                ..*p
            };
            let owner = ReservationOwner::Task(GlobalTaskId {
                job: a.job.id(),
                task: p.task,
            });
            self.pool
                .timetable_mut(p.node)
                .reserve(shifted.window, owner)
                .expect("switch candidate windows were checked free");
            a.current.insert(p.task, shifted);
        }
        a.scenario = dist.scenario();
        a.pending_overrun = next_overrun(a, &self.pool, tau);
        self.records[a.record].switches += 1;
        true
    }

    /// Releases the job's pending reservations and replans the remaining
    /// tasks — the §2 reallocation mechanism.
    ///
    /// `forced` lists already-started tasks that must nevertheless be
    /// re-placed (their node died mid-execution — migration); `earliest`
    /// is the earliest time re-placed windows may start (`tau` itself for
    /// benign breaks, `tau + retry` for transfer faults).
    fn break_job(
        &mut self,
        j: usize,
        tau: SimTime,
        kind: BreakKind,
        forced: &[TaskId],
        earliest: SimTime,
    ) {
        let record_idx = self.active[j].record;
        // Domain attribution for labeled telemetry comes from the record.
        let home = self.records[record_idx]
            .home_domain
            .expect("activated jobs have a home domain");
        self.records[record_idx].breaks += 1;
        self.telemetry.incr(Counter::ScheduleBreaks);
        self.telemetry
            .incr_domain(Counter::ScheduleBreaks, u64::from(home.raw()));
        self.active[j].first_break.get_or_insert(tau);
        let job_id = self.active[j].job.id();
        self.record_event(
            tau,
            crate::trace::CampaignEvent::Broken { job: job_id, kind },
        );
        match kind {
            BreakKind::Perturbation => self.faults.breaks_by_perturbation += 1,
            BreakKind::Overrun => self.faults.breaks_by_overrun += 1,
            BreakKind::Outage => self.faults.breaks_by_outage += 1,
            BreakKind::TransferFault => self.faults.breaks_by_transfer_fault += 1,
        }

        // Split into started (fixed) and pending tasks; forced tasks are
        // pending again even though they started.
        let mut pending: Vec<TaskId> = self.active[j]
            .current
            .iter()
            .filter(|(_, p)| p.window.start() > tau)
            .map(|(t, _)| *t)
            .collect();
        for t in forced {
            if !pending.contains(t) {
                pending.push(*t);
            }
        }
        if pending.is_empty() {
            self.active[j].pending_overrun = None;
            return;
        }
        // A pending task's reservation is its current window, unless an
        // outage voided it; the owner check keeps the outage's blocker.
        for t in &pending {
            let p = self.active[j].current[t];
            let owner = ReservationOwner::Task(GlobalTaskId {
                job: job_id,
                task: *t,
            });
            self.pool.timetable_mut(p.node).release(p.window, owner);
        }
        let fixed: HashMap<TaskId, Placement> = self.active[j]
            .current
            .iter()
            .filter(|(t, _)| !pending.contains(t))
            .map(|(t, p)| (*t, *p))
            .collect();

        // §3: "The choice of the specific variant from the strategy depends
        // on the state and load level of processor nodes" — before paying
        // for a replan, try to *switch* to another precomputed supporting
        // schedule. Only possible while no task has started (a started task
        // pins its placement, which other schedules will not match) and
        // nothing was killed mid-execution.
        if fixed.is_empty() && forced.is_empty() && self.try_switch(j, tau, earliest) {
            self.faults.switches += 1;
            self.telemetry.incr(Counter::ScheduleSwitches);
            self.telemetry
                .incr_domain(Counter::ScheduleSwitches, u64::from(home.raw()));
            self.record_event(tau, crate::trace::CampaignEvent::Switched { job: job_id });
            return;
        }

        let replan_span = self.telemetry.span_under("replan", self.root);
        let result = {
            let a = &self.active[j];
            // One planning session per replan: the snapshot is taken after
            // the pending reservations were released above, so overlay
            // views see exactly the availability the replan may use.
            let session =
                PlanningSession::open_instrumented(&self.pool, &self.telemetry, replan_span.id());
            let req = ScheduleRequest {
                job: &a.job,
                pool: &self.pool,
                policy: &a.policy,
                scenario: a.scenario,
                release: earliest,
            };
            // §5's dynamic priority change: if the deadline is endangered,
            // pay quota for speed.
            let objective = match self.config.urgency_slack_factor {
                Some(factor) => {
                    let ctx = gridsched_core::allocate::AllocationContext {
                        job: &a.job,
                        pool: &self.pool,
                        policy: &a.policy,
                        scenario: a.scenario,
                        release: earliest,
                        deadline: a.deadline_abs,
                        domain: None,
                        objective: gridsched_core::objective::Objective::MinCost,
                    };
                    let remaining = ctx
                        .remaining_optimistic()
                        .into_iter()
                        .max()
                        .unwrap_or(gridsched_sim::time::SimDuration::ZERO);
                    let slack = a.deadline_abs.saturating_since(earliest);
                    if (slack.ticks() as f64) < remaining.ticks() as f64 * factor {
                        gridsched_core::objective::Objective::FASTEST
                    } else {
                        gridsched_core::objective::Objective::MinCost
                    }
                }
                None => gridsched_core::objective::Objective::MinCost,
            };
            session.reschedule_with_objective(&req, &fixed, a.deadline_abs, objective)
        };
        match result {
            Ok(dist) => {
                for t in &pending {
                    let p = *dist.placement(*t);
                    let owner = ReservationOwner::Task(GlobalTaskId {
                        job: job_id,
                        task: *t,
                    });
                    self.pool
                        .timetable_mut(p.node)
                        .reserve(p.window, owner)
                        .expect("replanned against current availability");
                    self.active[j].current.insert(*t, p);
                }
                let a = &mut self.active[j];
                a.pending_overrun = next_overrun(a, &self.pool, tau);
                if forced.is_empty() {
                    self.faults.replans += 1;
                    self.telemetry.incr(Counter::Replans);
                    self.telemetry
                        .incr_domain(Counter::Replans, u64::from(home.raw()));
                    self.record_event(tau, crate::trace::CampaignEvent::Replanned { job: job_id });
                } else {
                    self.faults.migrations += 1;
                    self.telemetry.incr(Counter::Migrations);
                    self.telemetry
                        .incr_domain(Counter::Migrations, u64::from(home.raw()));
                    self.records[record_idx].migrations += 1;
                    // The inter-domain hand-off of the paper's hierarchy:
                    // the job re-homes to wherever the majority of its
                    // re-placed schedule now lives.
                    let from = self.records[record_idx]
                        .home_domain
                        .expect("activated jobs have a home domain");
                    let to = select_domain(self.active[j].current.values(), &self.pool);
                    self.records[record_idx].home_domain = Some(to);
                    self.record_event(
                        tau,
                        crate::trace::CampaignEvent::Migrated {
                            job: job_id,
                            from,
                            to,
                        },
                    );
                }
            }
            Err(_) => {
                let a = &mut self.active[j];
                a.dropped = true;
                a.pending_overrun = None;
                self.records[record_idx].dropped = true;
                self.faults.drops += 1;
                self.telemetry.incr(Counter::Drops);
                self.telemetry
                    .incr_domain(Counter::Drops, u64::from(home.raw()));
                self.record_event(tau, crate::trace::CampaignEvent::Dropped { job: job_id });
            }
        }
    }

    pub(crate) fn finalize(mut self) -> VoReport {
        for a in &self.active {
            let record = &mut self.records[a.record];
            let mut cost_total: u64 = 0;
            let mut window_sum: u64 = 0;
            for p in a.current.values() {
                let actual = actual_exec(&a.job, &self.pool, p, a.task_factors[p.task.index()]);
                let wall = p.stall + actual;
                cost_total += gridsched_core::cost::task_cost(a.job.task(p.task).volume(), wall);
                window_sum += p.window.duration().ticks();
            }
            record.cost = Some(cost_total);
            record.mean_task_window = Some(window_sum as f64 / a.job.task_count() as f64);
            let traffic: f64 = a
                .job
                .edges()
                .iter()
                .map(|e| {
                    let from = a.current[&e.from()].node;
                    let to = a.current[&e.to()].node;
                    a.policy
                        .network_traffic(e.volume(), from, to, &self.pool)
                        .units()
                })
                .sum();
            record.data_traffic = Some(traffic);
            let distinct: std::collections::HashSet<_> =
                a.current.values().map(|p| p.node).collect();
            record.nodes_used = Some(distinct.len());
            record.start_deviation_ratio = Some(if a.reference_runtime > 0.0 {
                let total: u64 = a
                    .current
                    .values()
                    .map(|p| {
                        let r = a.reference_starts[p.task.index()];
                        let c = p.window.start();
                        if c >= r {
                            c.since(r).ticks()
                        } else {
                            r.since(c).ticks()
                        }
                    })
                    .sum();
                total as f64 / a.job.task_count() as f64 / a.reference_runtime
            } else {
                0.0
            });
            let planned_end = record
                .planned_makespan
                .expect("activated jobs have a planned makespan");
            record.time_to_live = Some(match a.first_break {
                Some(t) => t.saturating_since(a.activation),
                None => planned_end.saturating_since(a.activation),
            });
        }
        // Surviving activated jobs ran to completion: record the terminal
        // fact. Completion is only *known* once the horizon closes, so the
        // events are stamped at the horizon and carry the realized end.
        // Jobs whose completion the online loop already observed (and
        // traced at its realized instant) are skipped. Events land in
        // activation order.
        let completions: Vec<(JobId, SimTime)> = self
            .active
            .iter()
            .filter(|a| !a.dropped && a.completed.is_none())
            .map(|a| (a.job.id(), a.realized_end()))
            .collect();
        let horizon_end = self.horizon_end;
        for (job, end) in completions {
            self.record_event(
                horizon_end,
                crate::trace::CampaignEvent::Completed { job, end },
            );
        }
        let task_load = measure_task_load(&self.pool, self.horizon_end);
        let strategy = match &self.config.assignment {
            FlowAssignment::Single(kind) => *kind,
            FlowAssignment::RoundRobin(kinds) => kinds[0],
            FlowAssignment::BySize { large, .. } => *large,
        };
        let report = VoReport {
            strategy,
            records: std::mem::take(&mut self.records),
            task_load,
            faults: self.faults,
            trace: self.trace.take(),
        };
        // Terminal QoS gauges for the exporters; strictly observational.
        self.telemetry
            .set_gauge("admissible_share", report.admissible_share());
        self.telemetry.set_gauge("drop_share", report.drop_share());
        #[cfg(debug_assertions)]
        self.audit(&report);
        report
    }

    /// Debug/test builds: every traced campaign run is replayed through
    /// the [`crate::oracle`] before the report leaves the campaign. A
    /// violation here is a bug in the campaign itself.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self, report: &VoReport) {
        if report.trace.is_none() {
            return;
        }
        if let Err(violation) = crate::oracle::audit(report) {
            panic!("campaign trace failed the oracle: {violation}");
        }
        let states: Vec<crate::oracle::FinalJobState<'_>> = self
            .active
            .iter()
            .map(|a| {
                let rec = report
                    .records
                    .iter()
                    .find(|r| r.job_id == a.job.id())
                    .expect("every active job has a record");
                crate::oracle::FinalJobState {
                    job: &a.job,
                    placements: &a.current,
                    dropped: a.dropped,
                    breaks: rec.breaks,
                }
            })
            .collect();
        if let Err(violation) = crate::oracle::audit_final_state(&states, &self.pool) {
            panic!("campaign final state failed the oracle: {violation}");
        }
    }
}

/// Whether `a` has a pending inter-node data transfer exposed to an
/// incident at `node` at time `at`.
///
/// A transfer is in flight while its consumer has not started; same-node
/// exchanges never touch the network. Static storage stages every
/// cross-node exchange through the storage node, so it is exposed to
/// incidents there as well as at either endpoint; every other policy
/// moves data directly and only inter-domain transfers traverse the
/// faulted backbone link.
fn transfer_exposed(a: &ActiveJob, node: NodeId, at: SimTime, pool: &ResourcePool) -> bool {
    a.job.edges().iter().any(|e| {
        let from = &a.current[&e.from()];
        let to = &a.current[&e.to()];
        if to.window.start() <= at || from.node == to.node {
            return false;
        }
        let touches = from.node == node || to.node == node;
        match a.policy.kind() {
            DataPolicyKind::StaticStorage => touches || a.policy.storage_node() == Some(node),
            _ => touches && pool.node(from.node).domain() != pool.node(to.node).domain(),
        }
    })
}

/// How many of a strategy's collisions fell on fast and on slow nodes.
pub(crate) fn collision_tally(strategy: &Strategy) -> (usize, usize) {
    let fast = strategy.collisions().filter(|c| c.group.is_fast()).count();
    (fast, strategy.collisions().count() - fast)
}

/// Shifts a window uniformly forward by `delta`, preserving its length.
fn shift_window(w: TimeWindow, delta: SimDuration) -> TimeWindow {
    TimeWindow::new(w.start() + delta, w.end() + delta)
        .expect("a uniform forward shift preserves non-emptiness")
}

/// The task's actual execution time on its assigned node, under its drawn
/// slowdown factor.
fn actual_exec(job: &Job, pool: &ResourcePool, p: &Placement, factor: f64) -> SimDuration {
    job.task(p.task)
        .duration_on(pool.node(p.node).perf())
        .scale_ceil(factor)
}

/// The earliest overrun among placements starting after `after`:
/// a task whose actual execution exceeds its reserved exec budget.
pub(crate) fn next_overrun(
    a: &ActiveJob,
    pool: &ResourcePool,
    after: SimTime,
) -> Option<(SimTime, TaskId)> {
    a.current
        .values()
        .filter(|p| p.window.start() > after)
        .filter_map(|p| {
            let budget = p.window.duration() - p.stall;
            let actual = actual_exec(&a.job, pool, p, a.task_factors[p.task.index()]);
            if actual > budget {
                Some((p.window.end(), p.task))
            } else {
                None
            }
        })
        .min()
}

/// Per-group node load counting only task-owned reservations, over
/// `[t0, horizon)`.
fn measure_task_load(pool: &ResourcePool, horizon: SimTime) -> GroupLoad {
    let range = match TimeWindow::new(SimTime::ZERO, horizon) {
        Ok(r) => r,
        Err(_) => return GroupLoad::default(),
    };
    let mut sums: std::collections::BTreeMap<PerfGroup, (f64, usize)> =
        std::collections::BTreeMap::new();
    for node in pool.nodes() {
        let busy: u64 = pool
            .timetable(node.id())
            .iter()
            .filter(|r| matches!(r.owner(), ReservationOwner::Task(_)))
            .filter_map(|r| r.window().intersect(range))
            .map(|w| w.duration().ticks())
            .sum();
        let level = busy as f64 / range.duration().ticks() as f64;
        let entry = sums.entry(node.group()).or_insert((0.0, 0));
        entry.0 += level;
        entry.1 += 1;
    }
    GroupLoad::from_levels(sums.into_iter().map(|(g, (sum, n))| (g, sum / n as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_live_skips_dropped_jobs() {
        let cfg = CampaignConfig {
            jobs: 1,
            perturbations: 0,
            ..CampaignConfig::default()
        };
        let mut campaign = Campaign::new(&cfg, &Telemetry::disabled(), None);
        let job = gridsched_model::fixtures::fig2_job();
        let id = job.id();
        campaign.active.push(ActiveJob {
            record: 0,
            job,
            policy: DataPolicy::new(
                DataPolicyKind::RemoteAccess,
                gridsched_data::network::TransferModel::default(),
                None,
            ),
            scenario: EstimateScenario::BEST,
            activation: SimTime::ZERO,
            deadline_abs: SimTime::from_ticks(100),
            current: HashMap::new(),
            task_factors: Vec::new(),
            alternatives: Vec::new(),
            reference_starts: Vec::new(),
            reference_runtime: 0.0,
            pending_overrun: None,
            first_break: None,
            dropped: false,
            completed: None,
        });
        assert_eq!(campaign.find_live(id), Some(0));
        campaign.active[0].dropped = true;
        assert_eq!(campaign.find_live(id), None);
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig {
            jobs: 12,
            perturbations: 20,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn all_jobs_get_records() {
        let cfg = CampaignConfig {
            jobs: 10,
            perturbations: 10,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.records.len(), 10);
    }

    #[test]
    fn accurate_estimates_and_no_perturbations_mean_no_breaks() {
        let cfg = CampaignConfig {
            jobs: 20,
            perturbations: 0,
            slowdown_range: (1.0, 1.0),
            task_jitter: 0.0,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        for r in &report.records {
            assert_eq!(r.breaks, 0, "{:?}", r.job_id);
            assert!(!r.dropped);
            if let (Some(ttl), Some(makespan)) = (r.time_to_live, r.planned_makespan) {
                // Unbroken schedules live out their whole planned runtime.
                assert_eq!(ttl, makespan.saturating_since(r.release));
            }
        }
    }

    #[test]
    fn worst_case_slowdowns_without_jitter_never_overrun() {
        // Every job at exactly the worst-case factor: the activated
        // worst-case schedule covers it, so the only breaks come from
        // external perturbations — and we run none.
        let cfg = CampaignConfig {
            jobs: 20,
            perturbations: 0,
            slowdown_range: (2.5, 2.5),
            task_jitter: 0.0,
            job_config: gridsched_workload::jobs::JobConfig {
                deadline_factor: 8.0,
                ..gridsched_workload::jobs::JobConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        for r in &report.records {
            // Only jobs whose worst-case schedule was actually feasible
            // are covered; the rest run on an undersized fallback.
            if r.scenario_multiplier == Some(2.5) {
                assert_eq!(r.breaks, 0, "{:?}", r.job_id);
            }
        }
        assert!(
            report
                .records
                .iter()
                .any(|r| r.scenario_multiplier == Some(2.5)),
            "some job must activate its worst-case schedule"
        );
    }

    #[test]
    fn underestimated_jobs_overrun_and_break() {
        // Jobs slow down but only the optimistic schedule exists at a
        // tight deadline: overruns must surface as breaks.
        let cfg = CampaignConfig {
            jobs: 30,
            perturbations: 0,
            slowdown_range: (2.0, 2.4),
            task_jitter: 0.0,
            job_config: gridsched_workload::jobs::JobConfig {
                deadline_factor: 2.0,
                ..gridsched_workload::jobs::JobConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        let total_breaks: usize = report.records.iter().map(|r| r.breaks).sum();
        assert!(
            total_breaks > 0,
            "underestimating jobs must overrun somewhere"
        );
    }

    #[test]
    fn trace_is_consistent_with_records() {
        use crate::trace::CampaignEvent;
        let cfg = CampaignConfig {
            jobs: 25,
            perturbations: 40,
            collect_trace: true,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        let trace = report.trace.as_ref().expect("trace collected");
        assert!(!trace.is_empty());
        // One Released event per job; Activated iff admissible.
        let released = trace.count(|e| matches!(e, CampaignEvent::Released { .. }));
        assert_eq!(released, report.records.len());
        let activated = trace.count(|e| matches!(e, CampaignEvent::Activated { .. }));
        let admissible = report.records.iter().filter(|r| r.admissible).count();
        assert_eq!(activated, admissible);
        // Per-job break counts line up.
        for r in &report.records {
            let broken = trace
                .for_job(r.job_id)
                .filter(|(_, e)| matches!(e, CampaignEvent::Broken { .. }))
                .count();
            assert_eq!(broken, r.breaks, "{:?}", r.job_id);
            let dropped = trace
                .for_job(r.job_id)
                .any(|(_, e)| matches!(e, CampaignEvent::Dropped { .. }));
            assert_eq!(dropped, r.dropped, "{:?}", r.job_id);
        }
        // Every break is resolved by exactly one of switch/replan/drop.
        let breaks = trace.count(|e| matches!(e, CampaignEvent::Broken { .. }));
        let resolutions = trace.count(|e| {
            matches!(
                e,
                CampaignEvent::Switched { .. }
                    | CampaignEvent::Replanned { .. }
                    | CampaignEvent::Dropped { .. }
            )
        });
        // Breaks with no pending tasks resolve trivially (no event), so
        // resolutions never exceed breaks.
        assert!(resolutions <= breaks, "{resolutions} > {breaks}");
    }

    #[test]
    fn no_trace_collected_by_default() {
        let cfg = CampaignConfig {
            jobs: 5,
            perturbations: 5,
            ..CampaignConfig::default()
        };
        assert!(run_campaign(&cfg).trace.is_none());
    }

    #[test]
    fn urgency_escalation_changes_replanning_behaviour() {
        // Heavy perturbations on tight deadlines. Escalation (replanning
        // endangered jobs for speed) is a policy trade-off: it saves the
        // escalated job but crowds fast nodes for everyone else, so we
        // assert the *mechanism* (outcomes change deterministically), not
        // a universal improvement.
        let base = CampaignConfig {
            jobs: 60,
            perturbations: 250,
            job_config: gridsched_workload::jobs::JobConfig {
                deadline_factor: 2.2,
                ..gridsched_workload::jobs::JobConfig::default()
            },
            ..CampaignConfig::default()
        };
        let plain = run_campaign(&CampaignConfig {
            urgency_slack_factor: None,
            ..base.clone()
        });
        let adaptive = run_campaign(&CampaignConfig {
            urgency_slack_factor: Some(2.0),
            ..base.clone()
        });
        assert_ne!(
            plain.records, adaptive.records,
            "escalation must actually change replanning decisions"
        );
        // Replanned (escalated) jobs still never miss their deadline.
        for r in &adaptive.records {
            if let Some(makespan) = r.planned_makespan {
                assert!(makespan >= r.release);
            }
        }
        // And the adaptive run stays deterministic.
        let again = run_campaign(&CampaignConfig {
            urgency_slack_factor: Some(2.0),
            ..base
        });
        assert_eq!(adaptive.records, again.records);
    }

    #[test]
    fn strategies_differ_in_outcomes() {
        let base = CampaignConfig {
            jobs: 30,
            perturbations: 40,
            ..CampaignConfig::default()
        };
        let s1 = run_campaign(&CampaignConfig {
            assignment: FlowAssignment::Single(StrategyKind::S1),
            ..base.clone()
        });
        let s3 = run_campaign(&CampaignConfig {
            assignment: FlowAssignment::Single(StrategyKind::S3),
            ..base.clone()
        });
        // S3 coarse-grains jobs, so its mean task wall window is longer.
        let w1 = s1.task_window_summary().mean();
        let w3 = s3.task_window_summary().mean();
        assert!(w3 > w1, "S3 windows {w3} should exceed S1 windows {w1}");
    }
}
