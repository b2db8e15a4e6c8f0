//! Online job-flow serving: streaming arrivals, deadline-aware admission
//! control and incremental replanning.
//!
//! The paper's job-flow level is inherently *online* — the metascheduler
//! receives a continuous flow of compound jobs — yet the batch
//! [`crate::simulation`] campaign releases a fixed job list up front. An
//! [`OnlineCampaign`](run_online) instead consumes a seeded
//! [`ArrivalProcess`] (Poisson or trace-driven) and pushes each arrival
//! through a **bounded admission queue**:
//!
//! 1. **Arrival.** The job enters the queue (or is rejected outright when
//!    the queue is full — the newest arrival is the deterministic drop).
//! 2. **Admission probe.** A cheap single-pass MS1-style probe via the
//!    existing [`PlanningSession`] asks whether *any* best-case supporting
//!    schedule can still meet the job's absolute deadline under
//!    [`Objective::FASTEST`] — the deadline admission test of Buyya et
//!    al.'s DBC algorithm, with no budget.
//!    Probes run in **admission rounds**: one session snapshot per round,
//!    the queued jobs probed against it in parallel on the sweep worker
//!    pool, the results consumed in queue order up to the first
//!    admission (which moves the calendar and ends the round).
//! 3. **Admit / defer / reject.** A successful probe admits the job: its
//!    full strategy sweep runs (reusing the persistent `gridsched-exec`
//!    worker pool) and the matching supporting schedule activates. A
//!    failed probe defers the job — it is re-probed after every subsequent
//!    arrival, perturbation or fault event (*incremental replanning*,
//!    rather than re-running whole-batch generation; completions are not
//!    events of their own, they are settled before each event) — unless
//!    its remaining critical path can no longer fit before the deadline
//!    even on a perfect node, in which case it is rejected for good.
//!
//! Completions are observed *online*: when the last reserved window of an
//! active job closes, a terminal `Completed` event is traced at its
//! realized instant (the batch campaign only learns completions at the
//! horizon). Breaks, switches, replans, migrations and drops ride on the
//! same dynamics engine as the batch campaign, so the
//! [`crate::oracle`] audits online traces unchanged.
//!
//! # Determinism contract
//!
//! One seed fixes everything: the arrival stream, every admission
//! decision, the full event order and the resulting [`OnlineReport`] are
//! bit-identical across runs, with telemetry on or off, and across
//! `Sequential`/`Pooled` executors (`tests/determinism.rs` and
//! `crates/flow/tests/prop_online.rs` pin this). A pooled admission round
//! consumes only results computed on the state a one-probe-at-a-time walk
//! would have probed; how many probes it runs ahead and discards
//! (`admission_probes_discarded`) depends on thread timing and shows in
//! telemetry only. So does the number of rounds, and with it of
//! `session_open` spans and `sessions_opened`: a round also ends at the
//! first entry its cut-off skipped (reached when the feasible entry before
//! it was not admitted), and the next round opens a new session there. A
//! sequential executor skips every entry past the first feasible one, so
//! it opens the most sessions. All report-side latencies are sim-time;
//! wall-clock timings live only in telemetry spans.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use gridsched_core::granularity::coarsen;
use gridsched_core::method::ScheduleRequest;
use gridsched_core::objective::Objective;
use gridsched_core::session::PlanningSession;
use gridsched_core::strategy::{
    GenerateOptions, Strategy, StrategyConfig, StrategyKind, SweepExecutor,
};
use gridsched_metrics::histogram::Histogram;
use gridsched_metrics::telemetry::{Counter, Telemetry};
use gridsched_model::estimate::EstimateScenario;
use gridsched_model::ids::{JobId, NodeId};
use gridsched_model::job::Job;
use gridsched_model::perf::Perf;
use gridsched_sim::rng::SimRng;
use gridsched_sim::time::{SimDuration, SimTime};
use gridsched_workload::arrivals::{generate_arrivals, ArrivalProcess};

use crate::driver::{drive, flow_event_budget, FlowEvent, FlowMachine};
use crate::faults::Fault;
use crate::report::{JobRecord, VoReport};
use crate::simulation::{collision_tally, Campaign, CampaignConfig};
use crate::trace::{CampaignEvent, RejectReason};

/// Configuration of one online serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// The shared campaign knobs: pool, job shapes, perturbations, faults,
    /// horizon, seed. `base.jobs` caps the arrival count; `base.job_gap`
    /// is ignored — inter-arrival gaps come from `arrivals`.
    pub base: CampaignConfig,
    /// The arrival process that paces the stream.
    pub arrivals: ArrivalProcess,
    /// Bound of the admission queue. An arrival finding the queue full is
    /// rejected immediately (the newest arrival is the deterministic
    /// drop).
    pub queue_capacity: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            base: CampaignConfig::default(),
            arrivals: ArrivalProcess::Poisson { rate: 0.15 },
            queue_capacity: 16,
        }
    }
}

/// How one arrival left the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Admitted: strategy generated and (if admissible) activated.
    Admitted {
        /// Admission instant (== arrival when admitted on first probe).
        at: SimTime,
    },
    /// Rejected for good.
    Rejected {
        /// Rejection instant.
        at: SimTime,
        /// Why.
        reason: RejectReason,
    },
    /// Still queued when the horizon closed.
    Deferred,
}

/// One arrival's admission story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRecord {
    /// The job.
    pub job_id: JobId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Final admission outcome.
    pub outcome: AdmissionOutcome,
    /// Admission probes spent on this job (0 for queue-full rejections).
    pub probes: usize,
}

/// Aggregate admission accounting; reconciles exactly with the telemetry
/// counters and with [`OnlineReport::admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionSummary {
    /// Jobs that arrived (`jobs_arrived`).
    pub arrived: usize,
    /// Jobs admitted (`jobs_admitted`).
    pub admitted: usize,
    /// Jobs rejected (`jobs_rejected`), all reasons.
    pub rejected: usize,
    /// Rejections caused by a full queue.
    pub rejected_queue_full: usize,
    /// Rejections caused by an unmeetable deadline.
    pub rejected_unmeetable: usize,
    /// Jobs still queued at the horizon. Always
    /// `arrived == admitted + rejected + deferred`.
    pub deferred: usize,
    /// Admission probes consumed as decisions (`admission_probes`); the
    /// probes an admission round discarded are not among them.
    pub probes: usize,
    /// Re-probes of deferred jobs (`incremental_replans`):
    /// `probes - jobs probed at least once`.
    pub incremental_replans: usize,
    /// High-water mark of the queue depth (`queue_peak_depth`).
    pub queue_peak: usize,
}

/// Result of one online serving run.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// The campaign report (records in arrival order, faults, trace).
    pub report: VoReport,
    /// Per-arrival admission stories, in arrival order.
    pub admission: Vec<AdmissionRecord>,
    /// Aggregate admission accounting.
    pub summary: AdmissionSummary,
    /// Queue-wait latency (admission minus arrival), in ticks; rejected
    /// and deferred jobs are not recorded.
    pub queue_wait: Histogram,
}

impl OnlineReport {
    /// Whether the admission counters reconcile
    /// (`arrived == admitted + rejected + deferred`).
    #[must_use]
    pub fn counters_reconcile(&self) -> bool {
        let s = &self.summary;
        s.arrived == s.admitted + s.rejected + s.deferred
            && s.rejected == s.rejected_queue_full + s.rejected_unmeetable
    }
}

/// One queued arrival awaiting admission.
#[derive(Debug, Clone)]
struct Queued {
    job: Job,
    /// The job the admission probe plans: the coarsened job when the
    /// strategy coarsens (S3), `None` to plan `job` itself. Built once on
    /// arrival; every re-probe reuses it.
    planning: Option<Job>,
    /// `job.critical_path(Perf::FULL)`: the lower bound a failed probe's
    /// reject test compares against the deadline.
    critical_path: SimDuration,
    kind: StrategyKind,
    record: usize,
    arrival: SimTime,
    deadline_abs: SimTime,
    probes: usize,
}

impl Queued {
    /// The deadline admission probe: one single-pass best-case
    /// (MS1-style) planning attempt under [`Objective::FASTEST`] against the
    /// job's absolute deadline, on `session`'s snapshot at `now`. Records
    /// one `admission_probe` span; otherwise pure, so a round can run its
    /// probes on any thread.
    fn probe(&self, campaign: &Campaign<'_>, session: &PlanningSession<'_>, now: SimTime) -> bool {
        let span = campaign
            .telemetry
            .span_under("admission_probe", campaign.root);
        let config = campaign.strategy_config(self.kind);
        let req = ScheduleRequest {
            // Probe the job the strategy would actually plan: S3 coarsens.
            job: self.planning.as_ref().unwrap_or(&self.job),
            pool: &campaign.pool,
            policy: config.policy(),
            scenario: EstimateScenario::BEST,
            release: now,
        };
        session
            .scoped_under(span.id())
            .probe(&req, self.deadline_abs, Objective::FASTEST)
            .is_ok()
    }
}

/// What one consumed admission probe decided.
enum Decision {
    Admit,
    Reject,
    Defer,
}

/// Runs one online campaign.
///
/// Deterministic: the same configuration (including seed) always yields
/// the same report, bit for bit.
#[must_use]
pub fn run_online(config: &OnlineConfig) -> OnlineReport {
    run_online_instrumented(config, &Telemetry::disabled())
}

/// [`run_online`] with a telemetry recorder attached.
///
/// The run executes under an `online_campaign` root span with `setup`,
/// per-arrival `arrival`, per-round `session_open`, per-probe
/// `admission_probe` (consumed or discarded), per-admission `admit`
/// (nesting the strategy sweep's own spans), `replan` and `finalize`
/// children. QoS events land in the online counters (`jobs_arrived`,
/// `jobs_admitted`, `jobs_rejected`, `admission_probes`,
/// `admission_probes_discarded`, `queue_peak_depth`,
/// `incremental_replans`) on top of the batch set.
/// Instrumentation is strictly observational: the report is bit-identical
/// to [`run_online`] on the same config.
#[must_use]
pub fn run_online_instrumented(config: &OnlineConfig, telemetry: &Telemetry) -> OnlineReport {
    let campaign_span = telemetry.span("online_campaign");
    let root = campaign_span.id();
    let setup = telemetry.span_under("setup", root);
    let mut campaign = Campaign::new(&config.base, telemetry, root);
    drop(setup);

    // Same stream layout as the batch campaign (master forks 3/5/6), so
    // an online run faces the same perturbation/fault schedule per seed.
    let mut master = SimRng::seed_from(config.base.seed);
    let mut jobs_rng = master.fork(3);
    let mut pert_rng = master.fork(5);
    let mut fault_rng = master.fork(6);
    let horizon_end = campaign.horizon_end;
    let jobs = generate_arrivals(
        &config.base.job_config,
        config.base.jobs,
        &config.arrivals,
        horizon_end,
        &mut jobs_rng,
    );
    let mut events: Vec<FlowEvent> = jobs.into_iter().map(FlowEvent::Release).collect();
    events.extend(campaign.dynamics_events(&mut pert_rng, &mut fault_rng));

    let online = Online {
        campaign,
        config,
        admission: Vec::new(),
        queue: VecDeque::new(),
        queue_waits: Vec::new(),
        queue_peak: 0,
    };
    // The same event kernel as the batch campaign drives the serving
    // loop; only the machine plugged into it differs.
    let budget = flow_event_budget(events.len());
    let mut online = drive(events, online, budget);
    online.settle_due(horizon_end);
    let finalize_span = telemetry.span_under("finalize", root);
    let report = online.finalize();
    drop(finalize_span);
    report
}

struct Online<'a> {
    campaign: Campaign<'a>,
    config: &'a OnlineConfig,
    /// Parallel to `campaign.records`, in arrival order.
    admission: Vec<AdmissionRecord>,
    /// The admission queue, in arrival order.
    queue: VecDeque<Queued>,
    /// Queue waits of admitted jobs, in ticks.
    queue_waits: Vec<u64>,
    queue_peak: usize,
}

impl FlowMachine for Online<'_> {
    fn settle(&mut self, now: SimTime) {
        self.settle_due(now);
    }

    fn on_release(&mut self, job: Job) {
        self.on_arrival(job);
    }

    fn on_perturbation(&mut self, at: SimTime, node: NodeId, len: SimDuration) {
        self.campaign.handle_perturbation(at, node, len);
    }

    fn on_fault(&mut self, fault: Fault) {
        self.campaign.handle_fault(fault);
    }

    fn after_event(&mut self, now: SimTime) {
        // Incremental replanning: every event can change feasibility, so
        // every queued job gets a fresh probe — no batch regeneration.
        self.drain_queue(now);
    }
}

impl Online<'_> {
    /// Settles every due overrun *and* completion up to `now`, in time
    /// order (an overrun at the same instant goes first — it extends
    /// windows and can push the completion later; ties within a kind fall
    /// back to activation order). The batch campaign settles overruns
    /// only; observing completions online is what lets terminal events
    /// carry their realized instant.
    fn settle_due(&mut self, now: SimTime) {
        loop {
            let overrun = self.campaign.due_overrun(now);
            let completion = self
                .campaign
                .active
                .iter()
                .enumerate()
                .filter(|(_, a)| !a.dropped && a.completed.is_none() && a.pending_overrun.is_none())
                .filter_map(|(j, a)| {
                    let end = a.realized_end();
                    (end <= now).then_some((end, j))
                })
                .min();
            match (overrun, completion) {
                (Some((t, j, task)), completion) if completion.is_none_or(|(end, _)| t <= end) => {
                    self.campaign.handle_overrun(j, t, task);
                }
                (_, Some((end, j))) => {
                    let job = self.campaign.active[j].job.id();
                    self.campaign.active[j].completed = Some(end);
                    self.campaign
                        .record_event(end, CampaignEvent::Completed { job, end });
                }
                (None, None) => return,
                (Some(_), None) => unreachable!("first arm covers completion == None"),
            }
        }
    }

    /// One streamed arrival: trace it, open its record, and enqueue it —
    /// or reject it outright when the bounded queue is full.
    fn on_arrival(&mut self, job: Job) {
        let at = job.release();
        let _span = self
            .campaign
            .telemetry
            .span_under("arrival", self.campaign.root);
        self.campaign.telemetry.incr(Counter::JobsArrived);
        let job_id = job.id();
        self.campaign
            .record_event(at, CampaignEvent::Arrived { job: job_id });
        let kind = self.campaign.meta.assign(&job);
        let record = self.campaign.records.len();
        self.campaign
            .records
            .push(JobRecord::fresh(job_id, kind, at));
        self.admission.push(AdmissionRecord {
            job_id,
            arrival: at,
            outcome: AdmissionOutcome::Deferred,
            probes: 0,
        });
        // The queue bound is a system-wide admission capacity.
        if self.queue.len() >= self.config.queue_capacity {
            self.reject(record, at, RejectReason::QueueFull);
            return;
        }
        let deadline_abs = at.saturating_add(job.deadline());
        let planning = StrategyConfig::for_kind(kind, &self.campaign.pool)
            .coarse_grain()
            .then(|| coarsen(&job).job);
        let critical_path = job.critical_path(Perf::FULL);
        self.queue.push_back(Queued {
            job,
            planning,
            critical_path,
            kind,
            record,
            arrival: at,
            deadline_abs,
            probes: 0,
        });
        let depth = self.queue.len();
        self.queue_peak = self.queue_peak.max(depth);
        self.campaign
            .telemetry
            .record_max(Counter::QueuePeakDepth, depth as u64);
    }

    fn reject(&mut self, record: usize, at: SimTime, reason: RejectReason) {
        self.campaign.telemetry.incr(Counter::JobsRejected);
        let job_id = self.campaign.records[record].job_id;
        self.campaign.record_event(
            at,
            CampaignEvent::Rejected {
                job: job_id,
                reason,
            },
        );
        self.admission[record].outcome = AdmissionOutcome::Rejected { at, reason };
    }

    /// Decides every queued job once, oldest first, admitting and
    /// rejecting in place, in **admission rounds**.
    ///
    /// A round opens one planning session and probes the queue from the
    /// current position against its snapshot ([`Online::probe_round`]),
    /// then consumes the results strictly in queue order. Within a round
    /// the calendar and `now` change only through a successful admission,
    /// so every result consumed before it was computed on exactly the
    /// state a one-probe-at-a-time walk would have probed; a failed
    /// admission reserves nothing and leaves the later results valid. The
    /// round therefore ends at the first successful admission (the
    /// results after it are discarded) or at the first entry the round
    /// skipped, and the next round re-probes the rest against a fresh
    /// snapshot.
    fn drain_queue(&mut self, now: SimTime) {
        // Admissions never enqueue, and the walk advances past every entry
        // that stays queued, so each queued arrival is decided exactly once.
        let mut pos = 0;
        while pos < self.queue.len() {
            let results = self.probe_round(pos, now);
            pos = self.consume_round(pos, now, results);
        }
    }

    /// Consumes one admission round's `results` (offsets from `pos`, as
    /// [`Online::probe_round`] returns them) strictly in queue order, and
    /// returns the position the next round starts from.
    ///
    /// The round ends at its first `None` (an entry the cut-off skipped)
    /// or at its first successful admission; every `Some` after an
    /// admission was probed on a stale snapshot and is counted in
    /// `admission_probes_discarded`.
    fn consume_round(&mut self, mut pos: usize, now: SimTime, results: Vec<Option<bool>>) -> usize {
        let mut results = results.into_iter();
        for result in results.by_ref() {
            // Skipped past an earlier feasible entry: the next round
            // probes it.
            let Some(feasible) = result else { break };
            match self.decide(pos, now, feasible) {
                Decision::Admit => {
                    let entry = self.queue.remove(pos).expect("index in bounds");
                    match self.admit(entry, now) {
                        // The calendar moved: the rest of the round
                        // probed a stale snapshot.
                        None => break,
                        Some(entry) => {
                            // The full sweep disagreed with the probe;
                            // the job stays queued for the next event.
                            self.queue.insert(pos, entry);
                            pos += 1;
                        }
                    }
                }
                Decision::Reject => {
                    let entry = self.queue.remove(pos).expect("index in bounds");
                    self.reject(entry.record, now, RejectReason::Unmeetable);
                }
                Decision::Defer => pos += 1,
            }
        }
        let discarded = results.flatten().count();
        self.campaign
            .telemetry
            .add(Counter::AdmissionProbesDiscarded, discarded as u64);
        pos
    }

    /// One admission round's probes: every queued entry from `from` on,
    /// against one session snapshot opened at `now`, each result at its
    /// offset from `from`.
    ///
    /// The campaign's sweep executor runs the probes — the persistent
    /// worker pool drains them in queue order, a sequential executor (or a
    /// zero-worker pool) loops over them in order. A shared cut-off keeps
    /// any probe from starting past the first feasible entry found: such
    /// entries come back `None`. Sequentially that stops the round at its
    /// first feasible entry, which is exactly the probes a
    /// one-at-a-time walk runs.
    fn probe_round(&self, from: usize, now: SimTime) -> Vec<Option<bool>> {
        let campaign = &self.campaign;
        let queue = &self.queue;
        let session =
            PlanningSession::open_instrumented(&campaign.pool, &campaign.telemetry, campaign.root);
        let len = queue.len() - from;
        // Relaxed is enough: the cut-off only saves work. A stale read runs
        // one more probe, and the round discards or consumes it as usual.
        let cutoff = AtomicUsize::new(len);
        let probe = |i: usize| {
            if i > cutoff.load(Ordering::Relaxed) {
                return None;
            }
            let feasible = queue[from + i].probe(campaign, &session, now);
            if feasible {
                cutoff.fetch_min(i, Ordering::Relaxed);
            }
            Some(feasible)
        };
        match campaign.config.executor.executor() {
            SweepExecutor::Pooled(pool) if pool.workers() > 0 => pool.scatter(len, probe),
            _ => (0..len).map(probe).collect(),
        }
    }

    /// Consumes one admission probe result for the queued entry at `pos`:
    /// counts the probe, then turns it into a decision.
    fn decide(&mut self, pos: usize, now: SimTime, feasible: bool) -> Decision {
        let entry = &mut self.queue[pos];
        entry.probes += 1;
        let probes = entry.probes;
        self.campaign.telemetry.incr(Counter::AdmissionProbes);
        if probes > 1 {
            self.campaign.telemetry.incr(Counter::IncrementalReplans);
        }
        let entry = &self.queue[pos];
        self.admission[entry.record].probes = probes;
        if feasible {
            return Decision::Admit;
        }
        // A failed probe defers — today's congestion may clear — unless
        // even a perfect node could no longer fit the critical path before
        // the deadline, in which case no amount of waiting helps.
        let lower_bound = now.saturating_add(entry.critical_path);
        if lower_bound > entry.deadline_abs {
            Decision::Reject
        } else {
            Decision::Defer
        }
    }

    /// Admits one probed job: re-anchor it at the admission instant, run
    /// the full strategy sweep (persistent worker pool), and activate the
    /// matching supporting schedule.
    ///
    /// Returns the entry untouched — for the caller to re-queue — in the
    /// rare case where the sweep yields no supporting schedule despite the
    /// successful probe: the probe plans under `MinTime` while the sweep's
    /// scenario passes plan under `MinCost`, and the two criteria can fail
    /// in opposite directions. Admission commits only once a supporting
    /// schedule actually exists, so every *admitted* job has one.
    fn admit(&mut self, entry: Queued, now: SimTime) -> Option<Queued> {
        let span = self
            .campaign
            .telemetry
            .span_under("admit", self.campaign.root);
        // A deferred job is re-anchored at its admission instant; its
        // *absolute* deadline never moves.
        let job = if now > entry.arrival {
            entry
                .job
                .with_timing(now, entry.deadline_abs.saturating_since(now))
        } else {
            entry.job.clone()
        };
        let job_id = job.id();
        let config = self.campaign.strategy_config(entry.kind);
        let opts = GenerateOptions {
            executor: self.campaign.config.executor.executor(),
            telemetry: &self.campaign.telemetry,
            parent: span.id(),
        };
        let strategy =
            Strategy::generate_with(Cow::Owned(job), &self.campaign.pool, &config, now, opts);
        if !strategy.is_admissible() {
            return Some(entry);
        }
        let record = entry.record;
        self.campaign.telemetry.incr(Counter::JobsAdmitted);
        // Admission *is* the online release to the metascheduler; keep the
        // batch-level counter consistent.
        self.campaign.telemetry.incr(Counter::JobsReleased);
        let (fast, slow) = collision_tally(&strategy);
        {
            let r = &mut self.campaign.records[record];
            r.release = now;
            r.admissible = true;
            r.collisions_fast = fast;
            r.collisions_slow = slow;
            r.schedules = strategy.distributions().len();
        }
        self.campaign.record_event(
            now,
            CampaignEvent::Released {
                job: job_id,
                admissible: true,
            },
        );
        self.admission[record].outcome = AdmissionOutcome::Admitted { at: now };
        self.queue_waits
            .push(now.saturating_since(entry.arrival).ticks());
        self.campaign
            .activate(strategy, config, record, now, span.id());
        None
    }

    fn finalize(self) -> OnlineReport {
        let Online {
            campaign,
            mut admission,
            queue,
            queue_waits,
            queue_peak,
            ..
        } = self;
        // Whatever is still queued at the horizon stayed deferred.
        debug_assert!(
            queue
                .iter()
                .all(|q| admission[q.record].outcome == AdmissionOutcome::Deferred),
            "queued entries carry the Deferred outcome"
        );
        let mut summary = AdmissionSummary {
            arrived: admission.len(),
            queue_peak,
            ..AdmissionSummary::default()
        };
        for a in &mut admission {
            summary.probes += a.probes;
            summary.incremental_replans += a.probes.saturating_sub(1);
            match a.outcome {
                AdmissionOutcome::Admitted { .. } => summary.admitted += 1,
                AdmissionOutcome::Rejected { reason, .. } => {
                    summary.rejected += 1;
                    match reason {
                        RejectReason::QueueFull => summary.rejected_queue_full += 1,
                        RejectReason::Unmeetable => summary.rejected_unmeetable += 1,
                    }
                }
                AdmissionOutcome::Deferred => summary.deferred += 1,
            }
        }
        // Sized to the observed wait range (not the horizon) so the
        // bucket resolution matches typical waits; the max wait is fully
        // seed-determined, so the histogram stays deterministic.
        let max_wait = queue_waits.iter().copied().max().unwrap_or(0);
        let mut queue_wait = Histogram::new(0.0, (max_wait + 1) as f64, 32);
        for &w in &queue_waits {
            queue_wait.record(w as f64);
        }
        campaign.telemetry.set_gauge(
            "queue_wait_mean",
            if queue_waits.is_empty() {
                0.0
            } else {
                queue_waits.iter().sum::<u64>() as f64 / queue_waits.len() as f64
            },
        );
        let report = campaign.finalize();
        OnlineReport {
            report,
            admission,
            summary,
            queue_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> OnlineConfig {
        OnlineConfig {
            base: CampaignConfig {
                jobs: 20,
                perturbations: 15,
                collect_trace: true,
                ..CampaignConfig::default()
            },
            arrivals: ArrivalProcess::Poisson { rate: 0.1 },
            ..OnlineConfig::default()
        }
    }

    /// An `Online` machine with `jobs` arrivals queued at time zero, each
    /// given the whole horizon as its deadline.
    fn queued_machine<'a>(
        config: &'a OnlineConfig,
        telemetry: &'a Telemetry,
        jobs: usize,
    ) -> Online<'a> {
        let root = telemetry.span("online_campaign").id();
        let mut online = Online {
            campaign: Campaign::new(&config.base, telemetry, root),
            config,
            admission: Vec::new(),
            queue: VecDeque::new(),
            queue_waits: Vec::new(),
            queue_peak: 0,
        };
        let horizon_end = online.campaign.horizon_end;
        let arrivals = generate_arrivals(
            &config.base.job_config,
            jobs,
            &ArrivalProcess::Trace { gaps: vec![0] },
            horizon_end,
            &mut SimRng::seed_from(config.base.seed),
        );
        for job in arrivals {
            online.on_arrival(job.with_timing(SimTime::ZERO, config.base.horizon));
        }
        online
    }

    /// A pooled round can return probes past the entry it admits. They
    /// ran on a snapshot the admission made stale, so the round counts
    /// them as discarded and consumes none. The round's results are fixed
    /// here, so the discard path runs whatever the thread timing.
    #[test]
    fn a_round_discards_the_probes_past_its_admission() {
        let config = small_config();
        let telemetry = Telemetry::new();
        let mut online = queued_machine(&config, &telemetry, 5);
        let round = vec![Some(false), Some(true), Some(true), None, Some(false)];
        // Entry 0 defers and entry 1 is admitted, so the next round
        // starts at 1; the two `Some`s after the admission are discarded.
        assert_eq!(online.consume_round(0, SimTime::ZERO, round), 1);
        assert_eq!(online.queue.len(), 4);
        assert_eq!(online.admission[0].outcome, AdmissionOutcome::Deferred);
        assert_eq!(
            online.admission[1].outcome,
            AdmissionOutcome::Admitted { at: SimTime::ZERO }
        );
        assert_eq!(telemetry.counter(Counter::AdmissionProbes), 2);
        assert_eq!(telemetry.counter(Counter::AdmissionProbesDiscarded), 2);

        // A round the cut-off ended (what a sequential round returns)
        // consumes up to the skipped entry and discards nothing.
        assert_eq!(
            online.consume_round(1, SimTime::ZERO, vec![Some(false), None]),
            2
        );
        assert_eq!(telemetry.counter(Counter::AdmissionProbes), 3);
        assert_eq!(telemetry.counter(Counter::AdmissionProbesDiscarded), 2);
    }

    #[test]
    fn online_campaign_is_deterministic() {
        let cfg = small_config();
        let a = run_online(&cfg);
        let b = run_online(&cfg);
        assert_eq!(a.report.records, b.report.records);
        assert_eq!(a.report.trace, b.report.trace);
        assert_eq!(a.admission, b.admission);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.queue_wait, b.queue_wait);
    }

    #[test]
    fn every_arrival_is_accounted_for() {
        let report = run_online(&small_config());
        assert!(report.counters_reconcile(), "{:?}", report.summary);
        assert_eq!(report.summary.arrived, report.report.records.len());
        assert_eq!(report.summary.arrived, report.admission.len());
        assert!(report.summary.admitted > 0, "some job must be admitted");
    }

    #[test]
    fn admitted_jobs_complete_or_break_online() {
        use crate::trace::CampaignEvent;
        let report = run_online(&small_config());
        let trace = report.report.trace.as_ref().expect("trace collected");
        // Completions are traced at their realized instants, before the
        // horizon closes them in batch mode.
        let completed = trace.count(|e| matches!(e, CampaignEvent::Completed { .. }));
        assert!(completed > 0, "online completions must be observed");
        let arrived = trace.count(|e| matches!(e, CampaignEvent::Arrived { .. }));
        assert_eq!(arrived, report.summary.arrived);
    }

    #[test]
    fn trace_driven_arrivals_work() {
        let cfg = OnlineConfig {
            base: CampaignConfig {
                jobs: 12,
                perturbations: 10,
                collect_trace: true,
                ..CampaignConfig::default()
            },
            arrivals: ArrivalProcess::Trace {
                gaps: vec![0, 0, 40],
            },
            ..OnlineConfig::default()
        };
        let report = run_online(&cfg);
        assert!(report.counters_reconcile());
        assert_eq!(report.summary.arrived, 12);
    }

    #[test]
    fn zero_capacity_queue_rejects_everything() {
        let cfg = OnlineConfig {
            queue_capacity: 0,
            ..small_config()
        };
        let report = run_online(&cfg);
        assert_eq!(report.summary.admitted, 0);
        assert_eq!(report.summary.rejected, report.summary.arrived);
        assert_eq!(report.summary.rejected_queue_full, report.summary.arrived);
        assert!(report.counters_reconcile());
    }
}
