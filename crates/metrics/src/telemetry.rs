//! Zero-dependency observability: hierarchical timing spans, monotonic
//! event counters, gauges, and machine/human exporters.
//!
//! Monitoring is a first-class concern for hierarchical Grid schedulers:
//! the paper's job-flow framework is *evaluated* by measuring strategy
//! behaviour — schedule switches, replans, migrations, CF/load trade-offs
//! — so every phase of a campaign (release → strategy generation →
//! planning session → scenario sweep → critical-works pass) and every QoS
//! event must be observable without changing behaviour.
//!
//! # Design
//!
//! A [`Telemetry`] handle is a cheap `Arc` clone; a **disabled** handle
//! (the default) is a `None` and every operation on it is a no-op branch,
//! so hot paths can be instrumented unconditionally. The handle is `Send +
//! Sync`: counters are atomics and completed spans are pushed into one
//! mutex-guarded vector, which keeps the recorder safe under the scoped-
//! thread parallel scenario sweep.
//!
//! Instrumentation is strictly **observational**: nothing the planner or
//! the campaign does may read telemetry state, so an instrumented run is
//! bit-identical to an uninstrumented one (the determinism suite pins
//! this).
//!
//! # Spans
//!
//! A [`Span`] records its wall-clock duration when dropped. Hierarchy is
//! explicit: children name their parent's [`SpanId`], which is `Copy` and
//! can cross scoped-thread boundaries (a thread-local "current span" would
//! lose the hierarchy exactly where we need it most — inside the parallel
//! sweep).
//!
//! ```
//! use gridsched_metrics::telemetry::{Counter, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! {
//!     let campaign = telemetry.span("campaign");
//!     let _release = telemetry.span_under("release", campaign.id());
//!     telemetry.incr(Counter::JobsReleased);
//! }
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter("jobs_released"), 1);
//! assert_eq!(snapshot.spans().len(), 2);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::Histogram;
use crate::summary::Summary;
use crate::table::Table;

/// The monotonic event counters of the QoS story.
///
/// Every variant maps to one `snake_case` metric name (see
/// [`Counter::name`]); the set is fixed so counters can live in a plain
/// atomic array with no per-event allocation or hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Jobs released to the metascheduler.
    JobsReleased,
    /// Jobs whose strategy was admissible and got activated.
    JobsActivated,
    /// Jobs the metascheduler assigned to a strategy flow.
    FlowAssignments,
    /// Active schedules broken by any dynamics (perturbation, overrun,
    /// outage, transfer fault).
    ScheduleBreaks,
    /// Breaks resolved by switching to a precomputed supporting schedule.
    ScheduleSwitches,
    /// Breaks resolved by replanning pending tasks.
    Replans,
    /// Breaks resolved by migrating started tasks off a dead node.
    Migrations,
    /// Breaks with no feasible resolution: the job was dropped.
    Drops,
    /// External perturbations that seized node time.
    Perturbations,
    /// Node outages injected by the fault plan.
    OutagesInjected,
    /// Node degradations injected by the fault plan.
    DegradationsInjected,
    /// Data-transfer faults injected by the fault plan.
    TransferFaultsInjected,
    /// Transfer faults absorbed by active replication.
    TransferFaultsAbsorbed,
    /// Faults scheduled up front by the fault plan (some may land beyond
    /// the horizon and never fire).
    FaultsPlanned,
    /// Planning sessions opened (availability snapshots taken).
    SessionsOpened,
    /// Copy-on-write timetable overlays created over session snapshots.
    OverlaysCreated,
    /// Critical-works engine passes (one per schedule construction).
    CriticalWorksPasses,
    /// Plan conflicts observed while placing tasks (collisions on busy
    /// windows, successful and failed passes alike).
    PlanConflicts,
    /// Scenario sweeps that yielded a supporting schedule.
    ScenariosPlanned,
    /// Scenario sweeps that admitted no schedule.
    ScenariosFailed,
    /// Aggressive-objective replans that degraded to `MinCost`.
    ObjectiveFallbacks,
    /// EASY backfill: jobs that jumped the queue under the head's shadow
    /// reservation.
    BackfillShadowHits,
    /// Conservative backfill: trial reservations placed in what-if
    /// overlays.
    ConservativeTrials,
    /// Batch-profile what-if overlays created.
    ProfileOverlays,
    /// Start-time forecasts computed for newly arrived batch jobs.
    StartPredictions,
    /// Scenario sweeps actually executed on the persistent worker pool
    /// (sweeps that fell back to sequential — small sweeps, single-core
    /// machines — do not count).
    PooledSweeps,
    /// Jobs that entered the online serving loop (arrival events).
    JobsArrived,
    /// Arrivals admitted past the deadline probe.
    JobsAdmitted,
    /// Arrivals rejected (queue overflow or unmeetable deadline).
    JobsRejected,
    /// Admission probes whose result the serving loop consumed as a
    /// decision (first-chance and re-probe alike).
    AdmissionProbes,
    /// Admission probes an admission round ran ahead of a successful
    /// admission and threw away: the admission moved the calendar they
    /// probed. Never counted in `AdmissionProbes`.
    AdmissionProbesDiscarded,
    /// High-water mark of the admission queue depth (recorded with
    /// [`Telemetry::record_max`], not incremented).
    QueuePeakDepth,
    /// Re-probes of deferred arrivals triggered by later arrival,
    /// perturbation or fault events — the online loop's incremental
    /// replanning work.
    IncrementalReplans,
    /// Differential chaos campaigns executed by the chaos harness.
    ChaosCampaigns,
    /// Chaos campaigns that diverged across configuration axes or failed
    /// the trace oracle (each one ships a shrunken repro artifact).
    ChaosDivergences,
    /// Cold `earliest_fit` probes answered through a snapshot's gap
    /// index (the O(log R) base-layer descent).
    IndexSeeks,
    /// Gap indexes lazily built — at most one per (snapshot, node) pair,
    /// so this counts distinct node calendars actually probed cold.
    IndexRebuilds,
    /// Cold probes that took the linear merged walk instead of the gap
    /// index: every cold probe on a node calendar below the pool's
    /// engagement floor (`ProbeConfig::index_floor`, 1k base windows by
    /// default; `usize::MAX` bypasses every probe). A run whose calendars
    /// all stay below the floor shows only bypasses and zero seeks; that
    /// is the expected shape for sparse pools, not a disabled index.
    /// Answers are bit-identical either way.
    IndexBypasses,
    /// Snapshot captures of a node answered by the pool's cross-snapshot
    /// calendar cache (frozen windows + gap index reused, nothing
    /// copied or rebuilt).
    IndexCacheHits,
    /// Cached calendars dropped to respect the cache's byte budget.
    IndexCacheEvictions,
    /// `MinCost` chain allocations decided by the cost-to-go-bounded
    /// Pareto pass alone (DESIGN §4 rule 9).
    CostBoundHeld,
    /// `MinCost` chain allocations where the bounded pass kept no final
    /// state and the unbounded Pareto pass ran after it. Held plus
    /// fallbacks is the number of `MinCost` chain allocations.
    CostBoundFallbacks,
    /// `FASTEST` chain allocations whose one-path incumbent dive
    /// completed, so the earliest-finish pass ran capped by its finish
    /// (DESIGN §4 rule 10).
    FastestCapped,
    /// `FASTEST` chain allocations whose dive failed, so the
    /// earliest-finish pass ran uncapped. Capped plus uncapped is the
    /// number of `FASTEST` chain allocations.
    FastestUncapped,
    /// `earliest_fit` calls made by the earliest-finish pass of
    /// `FASTEST` chains (DESIGN §4 rule 4), the dive's own not included.
    FirstPassFits,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 45] = [
        Counter::JobsReleased,
        Counter::JobsActivated,
        Counter::FlowAssignments,
        Counter::ScheduleBreaks,
        Counter::ScheduleSwitches,
        Counter::Replans,
        Counter::Migrations,
        Counter::Drops,
        Counter::Perturbations,
        Counter::OutagesInjected,
        Counter::DegradationsInjected,
        Counter::TransferFaultsInjected,
        Counter::TransferFaultsAbsorbed,
        Counter::FaultsPlanned,
        Counter::SessionsOpened,
        Counter::OverlaysCreated,
        Counter::CriticalWorksPasses,
        Counter::PlanConflicts,
        Counter::ScenariosPlanned,
        Counter::ScenariosFailed,
        Counter::ObjectiveFallbacks,
        Counter::BackfillShadowHits,
        Counter::ConservativeTrials,
        Counter::ProfileOverlays,
        Counter::StartPredictions,
        Counter::PooledSweeps,
        Counter::JobsArrived,
        Counter::JobsAdmitted,
        Counter::JobsRejected,
        Counter::AdmissionProbes,
        Counter::AdmissionProbesDiscarded,
        Counter::QueuePeakDepth,
        Counter::IncrementalReplans,
        Counter::ChaosCampaigns,
        Counter::ChaosDivergences,
        Counter::IndexSeeks,
        Counter::IndexRebuilds,
        Counter::IndexBypasses,
        Counter::IndexCacheHits,
        Counter::IndexCacheEvictions,
        Counter::CostBoundHeld,
        Counter::CostBoundFallbacks,
        Counter::FastestCapped,
        Counter::FastestUncapped,
        Counter::FirstPassFits,
    ];

    const COUNT: usize = Counter::ALL.len();

    /// The counter's stable `snake_case` metric name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::JobsReleased => "jobs_released",
            Counter::JobsActivated => "jobs_activated",
            Counter::FlowAssignments => "flow_assignments",
            Counter::ScheduleBreaks => "schedule_breaks",
            Counter::ScheduleSwitches => "schedule_switches",
            Counter::Replans => "replans",
            Counter::Migrations => "migrations",
            Counter::Drops => "drops",
            Counter::Perturbations => "perturbations",
            Counter::OutagesInjected => "outages_injected",
            Counter::DegradationsInjected => "degradations_injected",
            Counter::TransferFaultsInjected => "transfer_faults_injected",
            Counter::TransferFaultsAbsorbed => "transfer_faults_absorbed",
            Counter::FaultsPlanned => "faults_planned",
            Counter::SessionsOpened => "sessions_opened",
            Counter::OverlaysCreated => "overlays_created",
            Counter::CriticalWorksPasses => "critical_works_passes",
            Counter::PlanConflicts => "plan_conflicts",
            Counter::ScenariosPlanned => "scenarios_planned",
            Counter::ScenariosFailed => "scenarios_failed",
            Counter::ObjectiveFallbacks => "objective_fallbacks",
            Counter::BackfillShadowHits => "backfill_shadow_hits",
            Counter::ConservativeTrials => "conservative_trials",
            Counter::ProfileOverlays => "profile_overlays",
            Counter::StartPredictions => "start_predictions",
            Counter::PooledSweeps => "pooled_sweeps",
            Counter::JobsArrived => "jobs_arrived",
            Counter::JobsAdmitted => "jobs_admitted",
            Counter::JobsRejected => "jobs_rejected",
            Counter::AdmissionProbes => "admission_probes",
            Counter::AdmissionProbesDiscarded => "admission_probes_discarded",
            Counter::QueuePeakDepth => "queue_peak_depth",
            Counter::IncrementalReplans => "incremental_replans",
            Counter::ChaosCampaigns => "chaos_campaigns",
            Counter::ChaosDivergences => "chaos_divergences",
            Counter::IndexSeeks => "index_seeks",
            Counter::IndexRebuilds => "index_rebuilds",
            Counter::IndexBypasses => "index_bypasses",
            Counter::IndexCacheHits => "index_cache_hits",
            Counter::IndexCacheEvictions => "index_cache_evictions",
            Counter::CostBoundHeld => "cost_bound_held",
            Counter::CostBoundFallbacks => "cost_bound_fallbacks",
            Counter::FastestCapped => "fastest_capped",
            Counter::FastestUncapped => "fastest_uncapped",
            Counter::FirstPassFits => "first_pass_fits",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Opaque identifier of a recorded span; `Copy`, so it can be captured by
/// scoped threads to parent their own spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

/// One completed span: a named interval with an optional parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's id.
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Phase name (shared by all spans of the same kind).
    pub name: &'static str,
    /// Start offset from the recorder's epoch, in nanoseconds.
    pub start_ns: u64,
    /// End offset from the recorder's epoch, in nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counters: [AtomicU64; Counter::COUNT],
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    /// Labeled counters: `(domain label, counter)` → value. Domains are
    /// dynamic (one pool may shard into any number of them), so these live
    /// in a map rather than the fixed atomic array.
    domains: Mutex<BTreeMap<(u64, usize), u64>>,
}

/// A cheap, thread-safe telemetry handle; disabled by default.
///
/// Cloning shares the underlying recorder. A disabled handle makes every
/// operation a no-op, so instrumentation can stay in place permanently.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An **enabled** recorder.
    #[must_use]
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: Mutex::new(BTreeMap::new()),
                domains: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A **disabled** handle: every operation is a no-op.
    #[must_use]
    pub const fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span. Recorded when the returned guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_under(name, None)
    }

    /// Opens a span under `parent` (pass `None` for a root).
    #[must_use]
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> Span {
        match &self.inner {
            None => Span {
                inner: None,
                id: None,
                parent: None,
                name,
                start_ns: 0,
            },
            Some(inner) => {
                let id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
                Span {
                    inner: Some(Arc::clone(inner)),
                    id: Some(id),
                    parent,
                    name,
                    start_ns: nanos_since(inner.epoch),
                }
            }
        }
    }

    /// Increments a counter by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises a counter to at least `value` (high-water-mark semantics,
    /// e.g. [`Counter::QueuePeakDepth`]).
    pub fn record_max(&self, counter: Counter, value: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Increments the per-domain series of `counter` for `domain` by one.
    ///
    /// Domain-labeled series are recorded *in addition to* the global
    /// counter, never instead of it — callers keep `incr`/`add` for the
    /// totals and add a labeled increment where the domain is known.
    pub fn incr_domain(&self, counter: Counter, domain: u64) {
        self.add_domain(counter, domain, 1);
    }

    /// Adds `n` to the per-domain series of `counter` for `domain`.
    pub fn add_domain(&self, counter: Counter, domain: u64, n: u64) {
        if let Some(inner) = &self.inner {
            *inner
                .domains
                .lock()
                .expect("domain counter map never poisoned")
                .entry((domain, counter as usize))
                .or_insert(0) += n;
        }
    }

    /// The per-domain value of `counter` for `domain` (0 when disabled or
    /// never recorded).
    #[must_use]
    pub fn domain_counter(&self, counter: Counter, domain: u64) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => *inner
                .domains
                .lock()
                .expect("domain counter map never poisoned")
                .get(&(domain, counter as usize))
                .unwrap_or(&0),
        }
    }

    /// The counter's current value (0 when disabled).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.counters[counter as usize].load(Ordering::Relaxed),
        }
    }

    /// Sets a named gauge to `value` (last write wins).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN gauge would poison the exporters.
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        assert!(!value.is_nan(), "set_gauge({name}): NaN value");
        if let Some(inner) = &self.inner {
            inner
                .gauges
                .lock()
                .expect("gauge map never poisoned")
                .insert(name, value);
        }
    }

    /// A consistent copy of everything recorded so far.
    ///
    /// Spans are sorted by start offset (ties by id) so exports are stable
    /// regardless of drop order under the parallel sweep.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            None => TelemetrySnapshot {
                spans: Vec::new(),
                counters: Counter::ALL.iter().map(|c| (c.name(), 0)).collect(),
                gauges: BTreeMap::new(),
                domains: BTreeMap::new(),
            },
            Some(inner) => {
                let mut spans = inner
                    .spans
                    .lock()
                    .expect("span recorder never poisoned")
                    .clone();
                spans.sort_by_key(|s| (s.start_ns, s.id));
                let mut domains: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
                for (&(domain, counter), &value) in inner
                    .domains
                    .lock()
                    .expect("domain counter map never poisoned")
                    .iter()
                {
                    domains
                        .entry(domain)
                        .or_default()
                        .push((Counter::ALL[counter].name(), value));
                }
                TelemetrySnapshot {
                    spans,
                    counters: Counter::ALL
                        .iter()
                        .map(|c| {
                            (
                                c.name(),
                                inner.counters[*c as usize].load(Ordering::Relaxed),
                            )
                        })
                        .collect(),
                    gauges: inner
                        .gauges
                        .lock()
                        .expect("gauge map never poisoned")
                        .clone(),
                    domains,
                }
            }
        }
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open span; records itself into the recorder when dropped.
#[derive(Debug)]
pub struct Span {
    inner: Option<Arc<Inner>>,
    id: Option<SpanId>,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
}

impl Span {
    /// The span's id, for parenting children — `None` when the recorder is
    /// disabled (children become roots, which a disabled recorder drops
    /// anyway).
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// The phase name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let (Some(inner), Some(id)) = (self.inner.take(), self.id) else {
            return;
        };
        let end_ns = nanos_since(inner.epoch);
        inner
            .spans
            .lock()
            .expect("span recorder never poisoned")
            .push(SpanRecord {
                id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
    }
}

/// An immutable copy of a recorder's state, with exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    spans: Vec<SpanRecord>,
    counters: Vec<(&'static str, u64)>,
    gauges: BTreeMap<&'static str, f64>,
    /// Per-domain labeled counters: domain label → `(metric name, value)`
    /// pairs in export order. Empty unless the run recorded any.
    domains: BTreeMap<u64, Vec<(&'static str, u64)>>,
}

impl TelemetrySnapshot {
    /// Completed spans, sorted by start offset.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Every counter with its value (zero-valued counters included, so
    /// the schema is stable).
    #[must_use]
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// A counter's value by metric name (0 for unknown names).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The gauges, by name.
    #[must_use]
    pub fn gauges(&self) -> &BTreeMap<&'static str, f64> {
        &self.gauges
    }

    /// The per-domain labeled counters: domain label → `(name, value)`.
    #[must_use]
    pub fn domains(&self) -> &BTreeMap<u64, Vec<(&'static str, u64)>> {
        &self.domains
    }

    /// A domain's labeled counter by metric name (0 for unknown pairs).
    #[must_use]
    pub fn domain_counter(&self, domain: u64, name: &str) -> u64 {
        self.domains.get(&domain).map_or(0, |counters| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        })
    }

    /// The distinct phase names, in first-seen (start-offset) order.
    #[must_use]
    pub fn phases(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for s in &self.spans {
            if !seen.contains(&s.name) {
                seen.push(s.name);
            }
        }
        seen
    }

    /// Duration statistics (milliseconds) of every span named `phase`.
    #[must_use]
    pub fn phase_summary(&self, phase: &str) -> Summary {
        self.spans
            .iter()
            .filter(|s| s.name == phase)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The human phase-breakdown table: one row per phase with span count
    /// and total/mean/min/max duration in milliseconds.
    #[must_use]
    pub fn phase_table(&self) -> Table {
        let mut table = Table::new(vec![
            "phase", "spans", "total ms", "mean ms", "min ms", "max ms",
        ]);
        for phase in self.phases() {
            let s = self.phase_summary(phase);
            table.row(vec![
                phase.to_owned(),
                s.count().to_string(),
                format!("{:.3}", s.sum()),
                format!("{:.3}", s.mean()),
                format!("{:.3}", s.min()),
                format!("{:.3}", s.max()),
            ]);
        }
        table
    }

    /// Machine-readable JSON: schema id, counters, gauges, per-phase
    /// duration statistics, and the full span tree (children nested under
    /// parents; orphans promoted to roots).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"gridsched-telemetry/1\",\n");

        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {value}");
        }
        out.push_str("\n  },\n");

        out.push_str("  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {}", json_f64(*value));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"domains\": {");
        for (i, (domain, counters)) in self.domains.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{domain}\": {{");
            for (j, (name, value)) in counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": {value}");
            }
            out.push('}');
        }
        out.push_str("\n  },\n");

        out.push_str("  \"phases\": [");
        for (i, phase) in self.phases().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = self.phase_summary(phase);
            let _ = write!(
                out,
                "\n    {{\"name\": \"{phase}\", \"spans\": {}, \"total_ms\": {}, \"mean_ms\": {}, \"min_ms\": {}, \"max_ms\": {}}}",
                s.count(),
                json_f64(s.sum()),
                json_f64(s.mean()),
                json_f64(s.min()),
                json_f64(s.max()),
            );
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"span_tree\": [");
        let forest = self.span_forest();
        let roots = forest.roots.clone();
        for (i, root) in roots.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            self.write_tree_node(&mut out, &forest, root, 2);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Prometheus-style text dump: one `counter` line per metric, one
    /// `gauge` line per gauge, and a cumulative duration histogram plus
    /// sum/count per phase.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE gridsched_{name} counter");
            let _ = writeln!(out, "gridsched_{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE gridsched_gauge_{name} gauge");
            let _ = writeln!(out, "gridsched_gauge_{name} {}", json_f64(*value));
        }
        // Domain-labeled series grouped per metric family, one TYPE line
        // each (the unlabeled totals above are separate families).
        let mut labeled: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (&domain, counters) in &self.domains {
            for &(name, value) in counters {
                labeled.entry(name).or_default().push((domain, value));
            }
        }
        for (name, series) in labeled {
            let _ = writeln!(out, "# TYPE gridsched_domain_{name} counter");
            for (domain, value) in series {
                let _ = writeln!(
                    out,
                    "gridsched_domain_{name}{{domain=\"{domain}\"}} {value}"
                );
            }
        }
        if self.spans.is_empty() {
            return out;
        }
        let _ = writeln!(out, "# TYPE gridsched_span_duration_ms histogram");
        for phase in self.phases() {
            let summary = self.phase_summary(phase);
            // Exponential-ish bucket edges up to the observed maximum keep
            // the histogram meaningful for micro- and macro-phases alike.
            let hi = summary.max().max(1e-3) * (1.0 + 1e-9);
            let mut hist = Histogram::new(0.0, hi, 8);
            for s in self.spans.iter().filter(|s| s.name == phase) {
                hist.record(s.duration_ns() as f64 / 1e6);
            }
            let width = hi / hist.bucket_count() as f64;
            let mut cumulative = hist.underflow();
            for b in 0..hist.bucket_count() {
                cumulative += hist.bucket(b);
                let le = width * (b + 1) as f64;
                let _ = writeln!(
                    out,
                    "gridsched_span_duration_ms_bucket{{phase=\"{phase}\",le=\"{}\"}} {cumulative}",
                    json_f64(le)
                );
            }
            let _ = writeln!(
                out,
                "gridsched_span_duration_ms_bucket{{phase=\"{phase}\",le=\"+Inf\"}} {}",
                hist.total()
            );
            let _ = writeln!(
                out,
                "gridsched_span_duration_ms_sum{{phase=\"{phase}\"}} {}",
                json_f64(summary.sum())
            );
            let _ = writeln!(
                out,
                "gridsched_span_duration_ms_count{{phase=\"{phase}\"}} {}",
                summary.count()
            );
        }
        out
    }

    fn span_forest(&self) -> SpanForest {
        let present: std::collections::BTreeSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
        let mut roots = Vec::new();
        let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
        for (idx, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) if present.contains(&p) => children.entry(p).or_default().push(idx),
                _ => roots.push(idx),
            }
        }
        SpanForest { roots, children }
    }

    fn write_tree_node(&self, out: &mut String, forest: &SpanForest, idx: usize, depth: usize) {
        let s = &self.spans[idx];
        let pad = "  ".repeat(depth);
        let _ = write!(
            out,
            "{pad}{{\"name\": \"{}\", \"start_us\": {}, \"duration_us\": {}, \"children\": [",
            s.name,
            s.start_ns / 1_000,
            s.duration_ns() / 1_000,
        );
        let kids = forest.children.get(&s.id).cloned().unwrap_or_default();
        if kids.is_empty() {
            out.push_str("]}");
            return;
        }
        for (i, kid) in kids.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            self.write_tree_node(out, forest, kid, depth + 1);
        }
        let _ = write!(out, "\n{pad}]}}");
    }
}

struct SpanForest {
    roots: Vec<usize>,
    children: BTreeMap<SpanId, Vec<usize>>,
}

/// Formats a float for JSON/Prometheus output: finite values with ≤ 6
/// significant decimals, non-finite saturated to large sentinels (JSON has
/// no `Infinity`).
fn json_f64(value: f64) -> String {
    if value.is_nan() {
        return "0".to_owned();
    }
    if value == f64::INFINITY {
        return "1e308".to_owned();
    }
    if value == f64::NEG_INFINITY {
        return "-1e308".to_owned();
    }
    let text = format!("{value:.6}");
    let trimmed = text.trim_end_matches('0').trim_end_matches('.');
    if trimmed.is_empty() {
        "0".to_owned()
    } else {
        trimmed.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.incr(Counter::Replans);
        t.incr_domain(Counter::Replans, 0);
        t.set_gauge("x", 1.0);
        let span = t.span("campaign");
        assert_eq!(span.id(), None);
        drop(span);
        let snap = t.snapshot();
        assert!(snap.spans().is_empty());
        assert_eq!(snap.counter("replans"), 0);
        assert!(snap.domains().is_empty());
        // Schema is still stable: every counter is present at zero.
        assert_eq!(snap.counters().len(), Counter::ALL.len());
    }

    #[test]
    fn domain_labeled_counters_accumulate_and_export() {
        let t = Telemetry::new();
        t.incr_domain(Counter::JobsActivated, 0);
        t.add_domain(Counter::JobsActivated, 1, 2);
        t.incr_domain(Counter::Drops, 1);
        assert_eq!(t.domain_counter(Counter::JobsActivated, 1), 2);
        assert_eq!(t.domain_counter(Counter::Drops, 0), 0);
        let snap = t.snapshot();
        assert_eq!(snap.domain_counter(0, "jobs_activated"), 1);
        assert_eq!(snap.domain_counter(1, "jobs_activated"), 2);
        assert_eq!(snap.domain_counter(1, "drops"), 1);
        assert_eq!(snap.domain_counter(2, "drops"), 0);
        // Within a domain, metrics export in declaration order.
        let json = snap.to_json();
        assert!(json.contains("\"1\": {\"jobs_activated\": 2, \"drops\": 1}"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE gridsched_domain_jobs_activated counter"));
        assert!(prom.contains("gridsched_domain_jobs_activated{domain=\"1\"} 2"));
        assert!(prom.contains("gridsched_domain_drops{domain=\"1\"} 1"));
    }

    #[test]
    fn counters_accumulate_and_export() {
        let t = Telemetry::new();
        t.incr(Counter::JobsReleased);
        t.add(Counter::JobsReleased, 2);
        t.incr(Counter::Drops);
        assert_eq!(t.counter(Counter::JobsReleased), 3);
        let snap = t.snapshot();
        assert_eq!(snap.counter("jobs_released"), 3);
        assert_eq!(snap.counter("drops"), 1);
        assert_eq!(snap.counter("no_such_counter"), 0);
    }

    #[test]
    fn span_hierarchy_is_preserved() {
        let t = Telemetry::new();
        {
            let root = t.span("campaign");
            let child = t.span_under("release", root.id());
            let _grandchild = t.span_under("scenario", child.id());
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans().len(), 3);
        assert_eq!(snap.phases(), vec!["campaign", "release", "scenario"]);
        let by_name = |n: &str| snap.spans().iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("release").parent, Some(by_name("campaign").id));
        assert_eq!(by_name("scenario").parent, Some(by_name("release").id));
        assert_eq!(by_name("campaign").parent, None);
        // Nesting shows up in the JSON tree: inside `span_tree`, the child
        // `release` node appears within `campaign`'s `children` array.
        let json = snap.to_json();
        let tree = &json[json.find("\"span_tree\"").unwrap()..];
        let campaign_pos = tree.find("\"campaign\"").unwrap();
        let release_pos = tree.find("\"release\"").unwrap();
        let children_pos = tree.find("\"children\"").unwrap();
        assert!(campaign_pos < children_pos);
        assert!(children_pos < release_pos);
    }

    #[test]
    fn spans_survive_scoped_threads() {
        let t = Telemetry::new();
        {
            let root = t.span("sweep");
            let parent = root.id();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let t = &t;
                    s.spawn(move || {
                        let _span = t.span_under("scenario", parent);
                        t.incr(Counter::ScenariosPlanned);
                    });
                }
            });
        }
        let snap = t.snapshot();
        assert_eq!(snap.counter("scenarios_planned"), 4);
        assert_eq!(snap.phase_summary("scenario").count(), 4);
        let root_id = snap.spans().iter().find(|s| s.name == "sweep").unwrap().id;
        for s in snap.spans().iter().filter(|s| s.name == "scenario") {
            assert_eq!(s.parent, Some(root_id));
        }
    }

    #[test]
    fn orphan_spans_become_roots_in_the_tree() {
        let t = Telemetry::new();
        let leaked_parent = {
            let root = t.span("never-recorded");
            root.id()
        };
        // Parent recorded above (dropped), now a child of a *fresh* id that
        // will never be recorded.
        let fake = SpanId(9_999);
        assert_ne!(Some(fake), leaked_parent);
        drop(t.span_under("orphan", Some(fake)));
        let snap = t.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"orphan\""));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = Telemetry::new().snapshot();
        assert!(snap.phases().is_empty());
        assert_eq!(snap.phase_summary("anything").count(), 0);
        let table = snap.phase_table();
        assert!(table.is_empty());
        let json = snap.to_json();
        assert!(json.contains("\"span_tree\": [\n  ]"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("gridsched_jobs_released 0"));
        assert!(!prom.contains("span_duration"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_and_complete() {
        let t = Telemetry::new();
        for _ in 0..5 {
            drop(t.span("phase"));
        }
        let snap = t.snapshot();
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE gridsched_span_duration_ms histogram"));
        assert!(prom.contains("le=\"+Inf\"} 5"));
        assert!(prom.contains("gridsched_span_duration_ms_count{phase=\"phase\"} 5"));
    }

    #[test]
    fn phase_table_lists_each_phase_once() {
        let t = Telemetry::new();
        drop(t.span("a"));
        drop(t.span("a"));
        drop(t.span("b"));
        let table = t.snapshot().phase_table();
        assert_eq!(table.len(), 2);
        let text = table.to_string();
        assert!(text.contains('a') && text.contains('b'));
    }

    #[test]
    fn json_f64_handles_edge_values() {
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(f64::NEG_INFINITY), "-1e308");
        assert_eq!(json_f64(0.000_000_4), "0");
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
