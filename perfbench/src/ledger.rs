//! The per-layer ledger of a traced run: span timings (total, self time,
//! quantiles) and counters, accumulated over every traced campaign, and
//! the fixed list of per-layer metrics they feed.

use std::collections::{BTreeMap, HashMap};

use gridsched::metrics::telemetry::TelemetrySnapshot;

use crate::stats::{percentile, ratio, self_times, tail_percentile, SpanNode};
use crate::Metric;

/// Span names the benchmark records itself around public calls in the
/// `dense_calendar` loop. The program's own spans carry other names.
pub const STEP_SPAN: &str = "bench_step";
/// Around `PlanningSession::probe`.
pub const PROBE_SPAN: &str = "bench_probe";
/// Around `Strategy::generate`.
pub const GENERATE_SPAN: &str = "bench_generate";
/// Around `Timetable::reserve` / `Timetable::release_job`.
pub const RESERVE_SPAN: &str = "bench_reserve";

/// Every span of one name, across all traced runs.
#[derive(Debug, Default)]
struct Phase {
    /// Durations in microseconds, in arrival order (sorted on read).
    durations_us: Vec<f64>,
    total_ns: u64,
    self_ns: u64,
}

/// Per-layer timings and counters summed over traced runs.
#[derive(Debug, Default)]
pub struct Ledger {
    phases: BTreeMap<&'static str, Phase>,
    counters: BTreeMap<&'static str, u64>,
    span_records: u64,
    runs: u64,
}

/// Quantile and total view of one phase.
struct PhaseView {
    count: f64,
    total_ms: f64,
    self_ms: f64,
    p50_us: f64,
    p99_us: f64,
    p99_samples_ok: bool,
}

impl Ledger {
    /// Folds one traced run's telemetry into the ledger.
    pub fn absorb(&mut self, snapshot: &TelemetrySnapshot) {
        let spans = snapshot.spans();
        let index: HashMap<_, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let nodes: Vec<SpanNode> = spans
            .iter()
            .map(|s| SpanNode {
                parent: s.parent.and_then(|p| index.get(&p).copied()),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            })
            .collect();
        for (span, self_ns) in spans.iter().zip(self_times(&nodes)) {
            let phase = self.phases.entry(span.name).or_default();
            phase.durations_us.push(span.duration_ns() as f64 / 1e3);
            phase.total_ns += span.duration_ns();
            phase.self_ns += self_ns;
        }
        for &(name, value) in snapshot.counters() {
            *self.counters.entry(name).or_default() += value;
        }
        self.span_records += spans.len() as u64;
        self.runs += 1;
    }

    /// Total of a program counter over all traced runs.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean span records per traced run.
    pub fn spans_per_run(&self) -> f64 {
        ratio(self.span_records as f64, self.runs as f64)
    }

    fn phase(&self, name: &str) -> PhaseView {
        let Some(phase) = self.phases.get(name) else {
            return PhaseView {
                count: 0.0,
                total_ms: 0.0,
                self_ms: 0.0,
                p50_us: 0.0,
                p99_us: 0.0,
                p99_samples_ok: false,
            };
        };
        let mut sorted = phase.durations_us.clone();
        sorted.sort_by(f64::total_cmp);
        let p99 = tail_percentile(&sorted, 99);
        PhaseView {
            count: sorted.len() as f64,
            total_ms: phase.total_ns as f64 / 1e6,
            self_ms: phase.self_ns as f64 / 1e6,
            p50_us: percentile(&sorted, 50).unwrap_or(0.0),
            p99_us: p99.unwrap_or(0.0),
            p99_samples_ok: p99.is_some(),
        }
    }

    /// Phases whose `p99` was withheld for lack of samples, with their
    /// sample counts — printed next to the ledger so a 0 reads as
    /// "not enough samples", not as "instant".
    pub fn withheld_tails(&self) -> Vec<(&'static str, usize)> {
        self.phases
            .iter()
            .filter(|(name, _)| {
                SPAN_METRICS
                    .iter()
                    .any(|(_, span, figures)| span == *name && figures.contains(&"p99_us"))
            })
            .filter(|(name, _)| !self.phase(name).p99_samples_ok)
            .map(|(name, p)| (*name, p.durations_us.len()))
            .collect()
    }
}

/// `(metric prefix, span name, reported figures)`; a figure is one of
/// `count`, `total_ms`, `self_ms`, `p50_us` and `p99_us`.
const SPAN_METRICS: [(&str, &str, &[&str]); 10] = [
    (
        "flow.admission_probe",
        "admission_probe",
        &["count", "total_ms", "self_ms", "p50_us", "p99_us"],
    ),
    (
        "flow.admit",
        "admit",
        &["count", "total_ms", "p50_us", "p99_us"],
    ),
    ("flow.replan", "replan", &["count", "total_ms", "p99_us"]),
    ("flow.release", "release", &["count", "total_ms"]),
    (
        "core.strategy_generation",
        "strategy_generation",
        &["count", "total_ms", "p50_us", "p99_us"],
    ),
    (
        "core.critical_works_pass",
        "critical_works_pass",
        &["count", "total_ms", "p50_us", "p99_us"],
    ),
    ("core.probe", PROBE_SPAN, &["count", "p50_us", "p99_us"]),
    ("core.generate", GENERATE_SPAN, &["p50_us", "p99_us"]),
    (
        "model.session_open",
        "session_open",
        &["count", "total_ms", "p99_us"],
    ),
    (
        "model.reserve",
        RESERVE_SPAN,
        &["count", "p50_us", "p99_us"],
    ),
];

/// Figures measured outside the telemetry: set-up timings of the
/// workload generators, the worker pool, the calendar cache, the
/// untraced/traced wall comparison and the untraced decision latency.
#[derive(Debug, Default, Clone, Copy)]
pub struct Extras {
    /// `workload::pool::generate_pool`, ms (median set-up).
    pub pool_ms: f64,
    /// `workload::background::apply_background_load`, ms.
    pub background_ms: f64,
    /// Job-stream generation (`generate_arrivals` / `generate_stream` /
    /// `generate_job`), ms.
    pub arrivals_ms: f64,
    /// Persistent sweep workers.
    pub workers: f64,
    /// Bytes resident in the benchmark-owned pool's calendar cache.
    pub cache_resident_bytes: f64,
    /// Traced vs untraced campaign wall, percent.
    pub tracing_overhead_pct: f64,
    /// Untraced per-decision wall, p50, ms (`dense_calendar` only).
    pub decision_p50_ms: f64,
    /// Untraced per-decision wall, p99, ms (`dense_calendar` only; 0
    /// below 1000 decisions).
    pub decision_p99_ms: f64,
}

/// The full per-layer metric list, in a fixed order. Every metric is
/// present on every workload; a layer a workload does not reach reads 0.
pub fn per_layer(ledger: &Ledger, extras: &Extras) -> Vec<Metric> {
    let mut out = Vec::new();
    for (prefix, span, figures) in SPAN_METRICS {
        let v = ledger.phase(span);
        for &figure in figures {
            let (value, unit) = match figure {
                "count" => (v.count, "count"),
                "total_ms" => (v.total_ms, "ms"),
                "self_ms" => (v.self_ms, "ms"),
                "p50_us" => (v.p50_us, "us"),
                _ => (v.p99_us, "us"),
            };
            out.push(Metric::new(
                format!("{prefix}.{figure}"),
                value,
                unit,
                "lower",
            ));
        }
    }

    let c = |name: &str| ledger.counter(name);
    let generations = ledger.phase("strategy_generation").count;
    let seeks = c("index_seeks");
    let bypasses = c("index_bypasses");
    let campaigns_ms = ledger.phase("online_campaign").total_ms + ledger.phase("campaign").total_ms;
    let derived = [
        (
            "flow.admission_probe.wall_share",
            ratio(ledger.phase("admission_probe").total_ms, campaigns_ms),
            "ratio",
            "lower",
        ),
        (
            "flow.reprobe_ratio",
            ratio(c("incremental_replans"), c("admission_probes")),
            "ratio",
            "lower",
        ),
        (
            "flow.probe_admit_ratio",
            ratio(c("jobs_admitted"), c("admission_probes")),
            "ratio",
            "higher",
        ),
        (
            "flow.drop_share",
            ratio(c("drops"), c("jobs_activated")),
            "ratio",
            "lower",
        ),
        (
            "core.scenario_success_ratio",
            ratio(
                c("scenarios_planned"),
                c("scenarios_planned") + c("scenarios_failed"),
            ),
            "ratio",
            "higher",
        ),
        ("model.index_seeks", seeks, "count", "higher"),
        ("model.index_bypasses", bypasses, "count", "lower"),
        (
            "model.index_rebuilds",
            c("index_rebuilds"),
            "count",
            "lower",
        ),
        (
            "model.index_seek_ratio",
            ratio(seeks, seeks + bypasses),
            "ratio",
            "higher",
        ),
        (
            "model.index_cache_hits",
            c("index_cache_hits"),
            "count",
            "higher",
        ),
        (
            "model.index_cache_evictions",
            c("index_cache_evictions"),
            "count",
            "lower",
        ),
        (
            "model.index_cache_resident_mb",
            extras.cache_resident_bytes / (1024.0 * 1024.0),
            "MB",
            "lower",
        ),
        ("exec.workers", extras.workers, "count", "higher"),
        ("exec.pooled_sweeps", c("pooled_sweeps"), "count", "higher"),
        (
            "exec.pooled_share",
            ratio(c("pooled_sweeps"), generations),
            "ratio",
            "higher",
        ),
        ("workload.pool_ms", extras.pool_ms, "ms", "lower"),
        (
            "workload.background_ms",
            extras.background_ms,
            "ms",
            "lower",
        ),
        ("workload.arrivals_ms", extras.arrivals_ms, "ms", "lower"),
        (
            "metrics.tracing_overhead_pct",
            extras.tracing_overhead_pct,
            "%",
            "lower",
        ),
        (
            "metrics.span_records",
            ledger.spans_per_run(),
            "count",
            "lower",
        ),
        ("decision_p50_ms", extras.decision_p50_ms, "ms", "lower"),
        ("decision_p99_ms", extras.decision_p99_ms, "ms", "lower"),
    ];
    for (name, value, unit, better) in derived {
        out.push(Metric::new(name.to_owned(), value, unit, better));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched::metrics::telemetry::{Counter, Telemetry};

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn empty_ledger_reports_every_metric_as_zero() {
        let metrics = per_layer(&Ledger::default(), &Extras::default());
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "metric names are unique");
        // No probes, no generations: every ratio's denominator is zero.
        for m in &metrics {
            assert_eq!(m.value, 0.0, "{}", m.name);
        }
    }

    #[test]
    fn probe_and_admit_are_separate_lines() {
        let t = Telemetry::new();
        {
            let root = t.span("online_campaign");
            {
                let probe = t.span_under("admission_probe", root.id());
                let _pass = t.span_under("critical_works_pass", probe.id());
            }
            let admit = t.span_under("admit", root.id());
            let _pass = t.span_under("critical_works_pass", admit.id());
        }
        t.add(Counter::AdmissionProbes, 4);
        t.add(Counter::IncrementalReplans, 1);
        t.add(Counter::JobsAdmitted, 2);
        let mut ledger = Ledger::default();
        ledger.absorb(&t.snapshot());
        ledger.absorb(&Telemetry::new().snapshot());
        let metrics = per_layer(&ledger, &Extras::default());
        assert_eq!(value(&metrics, "flow.admission_probe.count"), 1.0);
        assert_eq!(value(&metrics, "flow.admit.count"), 1.0);
        assert_eq!(value(&metrics, "core.critical_works_pass.count"), 2.0);
        assert!(
            value(&metrics, "flow.admission_probe.self_ms")
                <= value(&metrics, "flow.admission_probe.total_ms")
        );
        assert_eq!(value(&metrics, "flow.reprobe_ratio"), 0.25);
        assert_eq!(value(&metrics, "flow.probe_admit_ratio"), 0.5);
        // One p99 needs 1000 samples; a single span withholds it.
        assert_eq!(value(&metrics, "flow.admission_probe.p99_us"), 0.0);
        // Five spans over two runs.
        assert_eq!(value(&metrics, "metrics.span_records"), 2.5);
    }
}
