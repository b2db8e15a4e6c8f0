//! Shared helpers for the experiment binaries that regenerate the paper's
//! figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gridsched::core::strategy::StrategyKind;
use gridsched::flow::metascheduler::FlowAssignment;
use gridsched::flow::simulation::{run_campaign, CampaignConfig};
use gridsched::flow::VoReport;

pub mod timing;

/// The exact `--key` sets each experiment binary accepts. Binaries
/// validate against their list via [`Args::capture_validated`], so a
/// typo'd flag is a hard error instead of a silently ignored no-op (a
/// mistyped `--sede` would otherwise run the default seed and "pass").
pub mod keys {
    /// Knobs consumed by [`crate::fig4_campaign_base`], shared by every
    /// Fig. 4 binary.
    pub const FIG4_BASE: &[&str] = &[
        "jobs",
        "perturbations",
        "load",
        "horizon",
        "job-gap",
        "seed",
        "deadline-factor",
    ];
    /// `ablations` binary.
    pub const ABLATIONS: &[&str] = &["jobs", "load", "seed", "deadline-factor"];
    /// `bench_check` binary.
    pub const BENCH_CHECK: &[&str] = &["fresh", "baseline"];
    /// `coordination_bridge` binary.
    pub const COORDINATION_BRIDGE: &[&str] = &["jobs", "local-jobs", "seed"];
    /// `fig3_admissible` binary.
    pub const FIG3_ADMISSIBLE: &[&str] = &["jobs", "load", "deadline-factor", "seed"];
    /// `fig4_cost_time` / `fig4_ttl_deviation` binaries (base knobs only).
    pub const FIG4: &[&str] = FIG4_BASE;
    /// `fig4_load` binary (base knobs plus sweep repeats).
    pub const FIG4_LOAD: &[&str] = &[
        "jobs",
        "perturbations",
        "load",
        "horizon",
        "job-gap",
        "seed",
        "deadline-factor",
        "repeats",
    ];
    /// `probe_scaling` binary.
    pub const PROBE_SCALING: &[&str] = &["seed", "budget-ms", "probes", "max-reservations", "out"];
    /// `sec5_queue_policies` binary.
    pub const SEC5_QUEUE_POLICIES: &[&str] = &["jobs", "capacity", "seed"];
    /// `chaos_run` binary.
    pub const CHAOS_RUN: &[&str] = &[
        "seed",
        "seed-from-run-id",
        "campaigns",
        "budget-ms",
        "artifact",
        "inject",
        "replay",
        "out",
    ];
}

/// Parses `--key value` and bare `--flag` style overrides from
/// `std::env::args`.
///
/// Binaries capture through [`Args::capture_validated`] with their
/// [`keys`] list, rejecting unknown flags with a nonzero exit. A
/// `--flag` followed by another `--option` (or by nothing) is recorded as
/// a boolean flag with the value `"true"`, so `--telemetry` style switches
/// need no explicit value.
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Captures the process arguments.
    #[must_use]
    pub fn capture() -> Self {
        Args::parse(std::env::args().skip(1))
    }

    /// Captures the process arguments, exiting with status 2 and a
    /// usage message on stderr if any `--key` is not in `known`.
    #[must_use]
    pub fn capture_validated(known: &[&str]) -> Self {
        let args = Args::capture();
        let unknown = args.unknown_keys(known);
        if !unknown.is_empty() {
            for key in &unknown {
                eprintln!("error: unknown flag --{key}");
            }
            eprintln!(
                "known flags: {}",
                known
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            std::process::exit(2);
        }
        args
    }

    /// The supplied keys that are not in `known`, in first-seen order.
    #[must_use]
    pub fn unknown_keys(&self, known: &[&str]) -> Vec<String> {
        let mut unknown: Vec<String> = Vec::new();
        for (key, _) in &self.pairs {
            if !known.contains(&key.as_str()) && !unknown.contains(key) {
                unknown.push(key.clone());
            }
        }
        unknown
    }

    /// Parses an explicit argument list (what [`Args::capture`] does with
    /// the process arguments).
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Self {
        let raw: Vec<String> = raw.into_iter().collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let Some(key) = raw[i].strip_prefix("--") else {
                i += 1;
                continue;
            };
            match raw.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((key.to_owned(), value.clone()));
                    i += 2;
                }
                _ => {
                    // Bare flag: `--telemetry`, `--verbose`, end-of-args.
                    pairs.push((key.to_owned(), "true".to_owned()));
                    i += 1;
                }
            }
        }
        Args { pairs }
    }

    /// Whether an override for `key` was supplied.
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    /// Looks up an override, parsed to `T`, falling back to `default`.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if the value does not parse.
    #[must_use]
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            Some((_, v)) => match v.parse() {
                Ok(parsed) => parsed,
                Err(e) => panic!("--{key} {v}: {e}"),
            },
            None => default,
        }
    }
}

impl Default for Args {
    fn default() -> Self {
        Args::capture()
    }
}

/// The calibrated campaign configuration shared by the Fig. 4 binaries:
/// same network, pool mix and deadline pressure as the Fig. 3 experiment,
/// with a lighter *static* background (the dynamics come from the
/// perturbation stream instead).
#[must_use]
pub fn fig4_campaign_base(args: &Args) -> CampaignConfig {
    use gridsched::data::network::TransferModel;
    use gridsched::sim::time::SimDuration;
    use gridsched::workload::jobs::JobConfig;
    use gridsched::workload::pool::PoolConfig;

    CampaignConfig {
        jobs: args.get("jobs", 400),
        perturbations: args.get("perturbations", 400),
        background_load: args.get("load", 0.1),
        horizon: SimDuration::from_ticks(args.get("horizon", 5_000)),
        job_gap: SimDuration::from_ticks(args.get("job-gap", 12)),
        seed: args.get("seed", 2009),
        job_config: JobConfig {
            deadline_factor: args.get("deadline-factor", 6.0),
            ..JobConfig::default()
        },
        pool_config: PoolConfig {
            group_shares: (0.25, 0.35, 0.40),
            ..PoolConfig::default()
        },
        transfer_model: TransferModel::new(5.0, 3.5, SimDuration::from_ticks(1)),
        ..CampaignConfig::default()
    }
}

/// Runs one single-flow campaign for `kind`, sharing every other knob.
#[must_use]
pub fn campaign_for(kind: StrategyKind, base: &CampaignConfig) -> VoReport {
    run_campaign(&CampaignConfig {
        assignment: FlowAssignment::Single(kind),
        ..base.clone()
    })
}

/// Normalizes a slice of values to its maximum (the paper's "relative"
/// bars). All-zero input stays zero.
#[must_use]
pub fn normalize(values: &[f64]) -> Vec<f64> {
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| v / max).collect()
}

/// Extracts the numeric value following `"key":` in a JSON document.
///
/// This is deliberately tiny — just enough to read the `"value"` of one
/// metric entry on a perfbench JSON line (first occurrence of the key
/// wins).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let idx = json.find(&pat)?;
    let rest = json[idx + pat.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One checked metric of a work-count gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLine {
    /// What was checked: `<workload>/<metric>`.
    pub key: String,
    /// The freshly measured value, if the metric was present.
    pub fresh: Option<f64>,
    /// The committed baseline value, if present.
    pub baseline: Option<f64>,
    /// Whether the fresh value clears the check.
    pub pass: bool,
}

/// How far a work count may move from its committed baseline, relative
/// to the baseline. Work counts are deterministic per seed except where
/// pooled admission rounds probe ahead of the first admission and discard
/// the extra results: on `online_admission` that moves the probe, pass,
/// session and index counts by well under 1% between a pooled and a
/// one-core run. A doubled layer moves its counts by 100%.
pub const COUNT_TOLERANCE: f64 = 0.05;

/// `count` metrics the work-count gate skips: both follow the machine's
/// core count (a one-core machine has no sweep workers and pools no
/// sweep).
const CORE_DEPENDENT_COUNTS: [&str; 2] = ["exec.workers", "exec.pooled_sweeps"];

/// One workload of a perfbench run: its name and its `count` metrics, in
/// report order.
type WorkloadCounts = (String, Vec<(String, f64)>);

/// Reads the `count`-unit metrics of every workload in perfbench's
/// standard output.
///
/// perfbench prints one `<workload>: seed …` header per workload, then
/// indented metric lines, then one JSON line whose `metrics` object maps
/// each metric name to `{"value": V, "unit": "U"}`. A JSON line is
/// credited to the header above it; a workload without one has no counts.
fn perfbench_counts(stdout: &str) -> Vec<WorkloadCounts> {
    let mut workloads: Vec<WorkloadCounts> = Vec::new();
    for line in stdout.lines() {
        let header = line
            .split_once(": seed ")
            .filter(|_| !line.starts_with(' '));
        if let Some((workload, _)) = header {
            workloads.push((workload.to_owned(), Vec::new()));
        } else if let (Some((_, metrics)), Some((_, counts))) =
            (line.split_once("\"metrics\": {"), workloads.last_mut())
        {
            // Entries are `"name": {"value": V, "unit": "U"`, split on
            // the `}, ` that closes each one.
            for entry in metrics.split("}, ") {
                let Some((name, rest)) = entry
                    .strip_prefix('"')
                    .and_then(|entry| entry.split_once('"'))
                else {
                    continue;
                };
                if rest.contains("\"unit\": \"count\"") {
                    if let Some(value) = json_number(rest, "value") {
                        counts.push((name.to_owned(), value));
                    }
                }
            }
        }
    }
    workloads
}

/// The work-count gate: compares the `count` metrics of a fresh traced
/// perfbench run (`--trace 1`, standard output) with a committed run of
/// the same seed and cycle count, workload by workload.
///
/// One line per `<workload>/<metric>` found in either file (baseline
/// order first). A line fails when either side lacks it or when the fresh
/// count moves from the baseline by more than [`COUNT_TOLERANCE`] of the
/// baseline (a zero baseline therefore needs a zero count). The
/// core-count-dependent `exec.workers` and `exec.pooled_sweeps` are
/// skipped. A baseline without any workload fails as a whole. Wall time
/// is not compared: deterministic counts catch a layer that does more
/// work on any machine, where timings on a shared runner cannot.
#[must_use]
pub fn count_gate(fresh: &str, baseline: &str) -> (Vec<GateLine>, bool) {
    let fresh = perfbench_counts(fresh);
    let baseline = perfbench_counts(baseline);
    let find = |runs: &[WorkloadCounts], workload: &str, metric: &str| {
        runs.iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, counts)| counts.iter().find(|(m, _)| m == metric))
            .map(|&(_, v)| v)
    };
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for (workload, counts) in baseline.iter().chain(&fresh) {
        for (metric, _) in counts {
            let key = (workload.as_str(), metric.as_str());
            if !CORE_DEPENDENT_COUNTS.contains(&key.1) && !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    let mut lines: Vec<GateLine> = keys
        .into_iter()
        .map(|(workload, metric)| {
            let f = find(&fresh, workload, metric);
            let b = find(&baseline, workload, metric);
            GateLine {
                key: format!("{workload}/{metric}"),
                fresh: f,
                baseline: b,
                pass: match (f, b) {
                    (Some(f), Some(b)) => (f - b).abs() <= COUNT_TOLERANCE * b.abs(),
                    _ => false,
                },
            }
        })
        .collect();
    if baseline.is_empty() {
        lines.push(GateLine {
            key: "baseline has workloads".to_owned(),
            fresh: None,
            baseline: None,
            pass: false,
        });
    }
    let pass = lines.iter().all(|l| l.pass);
    (lines, pass)
}

/// Prints a HOLDS/DIFFERS verdict line for a paper-claim check.
pub fn verdict(label: &str, holds: bool) {
    let mark = if holds { "HOLDS" } else { "DIFFERS" };
    println!("  [{mark}] {label}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_scales_to_unit_max() {
        assert_eq!(normalize(&[2.0, 4.0, 1.0]), vec![0.5, 1.0, 0.25]);
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn args_parse_overrides_and_fall_back() {
        let args = Args {
            pairs: vec![
                ("jobs".into(), "42".into()),
                ("load".into(), "0.5".into()),
                ("jobs".into(), "99".into()), // last wins
            ],
        };
        assert_eq!(args.get("jobs", 7usize), 99);
        assert!((args.get("load", 0.0f64) - 0.5).abs() < 1e-12);
        assert_eq!(args.get("seed", 123u64), 123);
        assert!(args.has("jobs"));
        assert!(!args.has("seed"));
    }

    #[test]
    fn args_parse_bare_flags() {
        let args = Args::parse(
            ["--telemetry", "--jobs", "5", "--verbose"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert!(args.has("telemetry"));
        assert!(args.get("telemetry", false));
        assert_eq!(args.get("jobs", 0usize), 5);
        assert!(args.get("verbose", false));
        assert!(!args.has("seed"));
    }

    #[test]
    fn unknown_flags_are_rejected_per_binary() {
        // One representative valid invocation and one typo'd flag per
        // binary with a strict key list.
        let cases: &[(&[&str], &[&str], &str)] = &[
            (
                keys::BENCH_CHECK,
                &["--fresh", "f.txt", "--baseline", "b.txt"],
                // A removed gate's flag is rejected like a typo.
                "--probe-index",
            ),
            (
                keys::PROBE_SCALING,
                &["--budget-ms", "40", "--out", "p.json"],
                "--budget",
            ),
            (
                keys::CHAOS_RUN,
                &[
                    "--seed",
                    "1",
                    "--campaigns",
                    "8",
                    "--budget-ms",
                    "0",
                    "--inject",
                    "executors",
                ],
                "--cmapaigns",
            ),
        ];
        for (known, valid, typo) in cases {
            let args = Args::parse(valid.iter().map(|s| (*s).to_owned()));
            assert_eq!(args.unknown_keys(known), Vec::<String>::new());
            let mut with_typo: Vec<String> = valid.iter().map(|s| (*s).to_owned()).collect();
            with_typo.push((*typo).to_owned());
            let args = Args::parse(with_typo);
            assert_eq!(
                args.unknown_keys(known),
                vec![typo.trim_start_matches("--").to_owned()]
            );
        }
    }

    #[test]
    fn unknown_keys_dedupe_and_preserve_order() {
        let args = Args::parse(
            ["--b", "1", "--a", "--b", "2", "--jobs", "3"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert_eq!(args.unknown_keys(&["jobs"]), vec!["b", "a"]);
    }

    #[test]
    #[should_panic(expected = "--jobs")]
    fn args_report_bad_values() {
        let args = Args {
            pairs: vec![("jobs".into(), "many".into())],
        };
        let _: usize = args.get("jobs", 1);
    }

    #[test]
    fn json_number_reads_flat_documents() {
        let doc = "{\n  \"a\": 1.5,\n  \"b\": -2e3,\n  \"c\": 7\n}";
        assert_eq!(json_number(doc, "a"), Some(1.5));
        assert_eq!(json_number(doc, "b"), Some(-2e3));
        assert_eq!(json_number(doc, "c"), Some(7.0));
        assert_eq!(json_number(doc, "missing"), None);
        assert_eq!(json_number("{\"a\": \"text\"}", "a"), None);
    }

    /// A two-workload perfbench transcript in the shape the binary prints.
    fn transcript(probes: u64, workers: u64) -> String {
        format!(
            "online_admission: seed 2009, 0.001 s, trace 1\n  \
             flow.admission_probe.count {probes} count (lower is better)\n  \
             error_share 0 (0 failed of 80 run(s))\n\
             {{\"correct\": true, \"attempted\": 80, \"failed\": 0, \"metrics\": {{\
             \"flow.admission_probe.count\": {{\"value\": {probes}, \"unit\": \"count\"}}, \
             \"flow.admission_probe.total_ms\": {{\"value\": 1264.1, \"unit\": \"ms\"}}, \
             \"exec.workers\": {{\"value\": {workers}, \"unit\": \"count\"}}, \
             \"metrics.span_records\": {{\"value\": 3032.45, \"unit\": \"count\"}}}}}}\n\
             dense_calendar: seed 2009, 0.001 s, trace 1\n\
             {{\"correct\": true, \"attempted\": 13, \"failed\": 0, \"metrics\": {{\
             \"model.index_seeks\": {{\"value\": 2002147, \"unit\": \"count\"}}, \
             \"model.index_rebuilds\": {{\"value\": 0, \"unit\": \"count\"}}}}}}\n"
        )
    }

    #[test]
    fn perfbench_counts_reads_every_workload() {
        let runs = perfbench_counts(&transcript(42_439, 1));
        let names: Vec<&str> = runs.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(names, ["online_admission", "dense_calendar"]);
        assert_eq!(
            runs[0].1,
            [
                ("flow.admission_probe.count".to_owned(), 42_439.0),
                ("exec.workers".to_owned(), 1.0),
                ("metrics.span_records".to_owned(), 3032.45),
            ]
        );
        assert_eq!(runs[1].1.len(), 2);
    }

    #[test]
    fn count_gate_passes_identical_runs() {
        let run = transcript(42_439, 1);
        let (lines, pass) = count_gate(&run, &run);
        assert!(pass);
        // Two counts on each workload; `exec.workers` is skipped.
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].key, "online_admission/flow.admission_probe.count");
        assert_eq!(lines[0].fresh, Some(42_439.0));
    }

    #[test]
    fn count_gate_fails_past_the_tolerance_and_names_the_layer() {
        let baseline = transcript(40_000, 1);
        let within = 40_000.0 * (1.0 + COUNT_TOLERANCE);
        assert!(count_gate(&transcript(within as u64, 1), &baseline).1);
        assert!(count_gate(&transcript(40_000 - 40, 1), &baseline).1);

        for moved in [within as u64 + 1, 80_000, 20_000] {
            let (lines, pass) = count_gate(&transcript(moved, 1), &baseline);
            assert!(!pass, "{moved}");
            let failed: Vec<&str> = lines
                .iter()
                .filter(|l| !l.pass)
                .map(|l| l.key.as_str())
                .collect();
            assert_eq!(failed, ["online_admission/flow.admission_probe.count"]);
        }
    }

    #[test]
    fn count_gate_fails_on_missing_workloads_and_metrics() {
        let full = transcript(42_439, 1);
        // A fresh run that stopped after its first workload.
        let cut = &full[..full.find("dense_calendar").unwrap()];
        let (lines, pass) = count_gate(cut, &full);
        assert!(!pass);
        assert!(lines
            .iter()
            .filter(|l| !l.pass)
            .all(|l| l.key.starts_with("dense_calendar/") && l.fresh.is_none()));

        // A count the baseline lacks fails too: the baseline is stale.
        let renamed = full.replace("model.index_rebuilds", "model.index_refreezes");
        let (lines, pass) = count_gate(&renamed, &full);
        assert!(!pass);
        let failed: Vec<&str> = lines
            .iter()
            .filter(|l| !l.pass)
            .map(|l| l.key.as_str())
            .collect();
        assert_eq!(
            failed,
            [
                "dense_calendar/model.index_rebuilds",
                "dense_calendar/model.index_refreezes"
            ]
        );

        // An empty or unreadable baseline gates nothing, so it fails.
        assert!(!count_gate(&full, "").1);
    }

    #[test]
    fn count_gate_ignores_core_dependent_counts() {
        assert!(count_gate(&transcript(42_439, 0), &transcript(42_439, 3)).1);
    }

    #[test]
    fn fig4_base_is_deterministic_given_same_args() {
        let args = Args { pairs: Vec::new() };
        assert_eq!(fig4_campaign_base(&args), fig4_campaign_base(&args));
    }
}
