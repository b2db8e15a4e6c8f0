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
    pub const BENCH_CHECK: &[&str] = &[
        "fresh",
        "baseline",
        "min-speedup",
        "require-pooled",
        "online",
        "probe-index",
        "min-probe-speedup",
        "index-cache",
        "min-cache-speedup",
    ];
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
    /// `online_throughput` binary.
    pub const ONLINE_THROUGHPUT: &[&str] = &[
        "jobs",
        "seed",
        "rate",
        "queue",
        "perturbations",
        "domains",
        "out",
        "repeat",
    ];
    /// `probe_scaling` binary.
    pub const PROBE_SCALING: &[&str] = &["seed", "budget-ms", "probes", "max-reservations", "out"];
    /// `sec5_queue_policies` binary.
    pub const SEC5_QUEUE_POLICIES: &[&str] = &["jobs", "capacity", "seed"];
    /// `strategy_sweep` binary.
    pub const STRATEGY_SWEEP: &[&str] =
        &["seed", "load", "horizon", "budget-ms", "out", "telemetry"];
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
/// This is deliberately tiny — just enough to read back the flat
/// `BENCH_*.json` files this crate writes (first occurrence of the key
/// wins; nested objects with colliding key names are not a concern for
/// those files).
#[must_use]
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let idx = json.find(&pat)?;
    let rest = json[idx + pat.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One checked metric of a bench-gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLine {
    /// The JSON key that was checked.
    pub key: &'static str,
    /// The freshly measured value, if the key was present.
    pub fresh: Option<f64>,
    /// The committed baseline value, if the key was present.
    pub baseline: Option<f64>,
    /// Whether the fresh value clears the threshold.
    pub pass: bool,
}

/// Compares a fresh `strategy_sweep` result against the committed
/// baseline: all overall speedups must be present and at or above
/// `min_speedup` (the paper-claim floor — absolute, not relative to the
/// baseline, because CI machines are slower and noisier than the one
/// that produced the committed numbers). Returns the per-metric lines
/// and the overall verdict.
///
/// When `require_pooled_ge_sequential` is set (CI passes it on runners
/// with ≥ 2 cores; meaningless on single-core machines where the pooled
/// sweep falls back to the sequential one), an extra line checks that the
/// persistent-pool sweep's overall speedup is at least the sequential
/// sweep's — the regression tripwire for pool hand-off overhead.
#[must_use]
pub fn bench_gate(
    fresh: &str,
    baseline: &str,
    min_speedup: f64,
    require_pooled_ge_sequential: bool,
) -> (Vec<GateLine>, bool) {
    let keys = ["overall_speedup_sequential", "overall_speedup_pooled"];
    let mut lines: Vec<GateLine> = keys
        .iter()
        .map(|key| {
            let fresh_value = json_number(fresh, key);
            GateLine {
                key,
                fresh: fresh_value,
                baseline: json_number(baseline, key),
                pass: fresh_value.is_some_and(|v| v >= min_speedup),
            }
        })
        .collect();
    if require_pooled_ge_sequential {
        let sequential = json_number(fresh, "overall_speedup_sequential");
        let pooled = json_number(fresh, "overall_speedup_pooled");
        lines.push(GateLine {
            key: "pooled_ge_sequential",
            fresh: pooled,
            baseline: sequential,
            pass: match (pooled, sequential) {
                (Some(p), Some(s)) => p >= s,
                _ => false,
            },
        });
    }
    let pass = lines.iter().all(|l| l.pass);
    (lines, pass)
}

/// Gates a fresh `probe_scaling` result: the gap-indexed cold probe must
/// be at least `min_speedup`× the linear jump-walk at the benchmark's
/// largest pool, and that pool must be big enough for the comparison to
/// mean anything (≥ 100k reservations — below that both paths finish in
/// nanoseconds and the ratio is noise). The threshold is absolute, not
/// relative to a committed baseline, for the same reason as
/// [`bench_gate`]: CI machines are slower and noisier than the box that
/// produced the committed numbers.
#[must_use]
pub fn probe_gate(fresh: &str, min_speedup: f64) -> (Vec<GateLine>, bool) {
    let cold = json_number(fresh, "probe_index_speedup_cold");
    let reservations = json_number(fresh, "max_reservations");
    let lines = vec![
        GateLine {
            key: "probe_index_speedup_cold",
            fresh: cold,
            baseline: Some(min_speedup),
            pass: cold.is_some_and(|v| v >= min_speedup),
        },
        GateLine {
            key: "max_reservations_ge_100k",
            fresh: reservations,
            baseline: Some(100_000.0),
            pass: reservations.is_some_and(|r| r >= 100_000.0),
        },
    ];
    let pass = lines.iter().all(|l| l.pass);
    (lines, pass)
}

/// Gates the warm-capture keys of a fresh `probe_scaling` result: a warm
/// [`AvailabilitySnapshot`] capture of an unchanged pool must be at
/// least `min_speedup`× the cold (cache-disabled) capture at the
/// benchmark's largest pool, that pool must hold ≥ 100k windows for the
/// ratio to mean anything, the warm capture must have rebuilt **zero**
/// indexes, and it must have registered at least one cache hit (proof
/// the cached path — not a lucky allocator — produced the speedup). The
/// threshold is absolute for the same reason as [`bench_gate`].
///
/// [`AvailabilitySnapshot`]: gridsched::model::availability::AvailabilitySnapshot
#[must_use]
pub fn index_cache_gate(fresh: &str, min_speedup: f64) -> (Vec<GateLine>, bool) {
    let warm = json_number(fresh, "index_cache_warm_speedup");
    let windows = json_number(fresh, "index_cache_windows");
    let rebuilds = json_number(fresh, "index_cache_warm_rebuilds");
    let hits = json_number(fresh, "index_cache_warm_hits");
    let lines = vec![
        GateLine {
            key: "index_cache_warm_speedup",
            fresh: warm,
            baseline: Some(min_speedup),
            pass: warm.is_some_and(|v| v >= min_speedup),
        },
        GateLine {
            key: "index_cache_windows_ge_100k",
            fresh: windows,
            baseline: Some(100_000.0),
            pass: windows.is_some_and(|w| w >= 100_000.0),
        },
        GateLine {
            key: "index_cache_warm_rebuilds",
            fresh: rebuilds,
            baseline: Some(0.0),
            pass: rebuilds == Some(0.0),
        },
        GateLine {
            key: "index_cache_warm_hits",
            fresh: hits,
            baseline: Some(1.0),
            pass: hits.is_some_and(|h| h >= 1.0),
        },
    ];
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
                &[
                    "--fresh",
                    "f.json",
                    "--min-speedup",
                    "2.0",
                    "--require-pooled",
                ],
                "--min-sppedup",
            ),
            (
                keys::STRATEGY_SWEEP,
                &["--seed", "2009", "--budget-ms", "400", "--telemetry"],
                "--sede",
            ),
            (
                keys::ONLINE_THROUGHPUT,
                &[
                    "--jobs",
                    "60",
                    "--rate",
                    "0.15",
                    "--domains",
                    "3",
                    "--out",
                    "o.json",
                ],
                "--rat",
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

    #[test]
    fn bench_gate_passes_and_fails_on_threshold() {
        let fresh = "{\"overall_speedup_sequential\": 5.0, \"overall_speedup_pooled\": 6.0}";
        let baseline = "{\"overall_speedup_sequential\": 34.1, \"overall_speedup_pooled\": 35.2}";
        let (lines, pass) = bench_gate(fresh, baseline, 2.0, false);
        assert!(pass);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].fresh, Some(5.0));
        assert_eq!(lines[0].baseline, Some(34.1));

        let (lines, pass) = bench_gate(fresh, baseline, 5.5, false);
        assert!(!pass, "sequential speedup 5.0 is below 5.5");
        assert!(!lines[0].pass);
        assert!(lines[1].pass);
    }

    #[test]
    fn bench_gate_pooled_vs_sequential_line() {
        let ahead = "{\"overall_speedup_sequential\": 5.0, \"overall_speedup_pooled\": 6.0}";
        let (lines, pass) = bench_gate(ahead, ahead, 2.0, true);
        assert!(pass);
        assert_eq!(lines.len(), 3);
        let gate = &lines[2];
        assert_eq!(gate.key, "pooled_ge_sequential");
        assert_eq!(gate.fresh, Some(6.0));
        assert_eq!(gate.baseline, Some(5.0));
        assert!(gate.pass);

        let behind = "{\"overall_speedup_sequential\": 5.0, \"overall_speedup_pooled\": 4.9}";
        let (lines, pass) = bench_gate(behind, behind, 2.0, true);
        assert!(!pass, "pooled 4.9 is behind sequential 5.0");
        assert!(!lines[2].pass);
    }

    #[test]
    fn bench_gate_fails_on_missing_keys() {
        let (lines, pass) = bench_gate("{}", "{}", 2.0, true);
        assert!(!pass);
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.fresh.is_none() && !l.pass));
    }

    #[test]
    fn probe_gate_checks_speedup_and_scale() {
        let good = "{\"probe_index_speedup_cold\": 12.4, \"probe_index_speedup_typical\": 1.1, \
                    \"max_reservations\": 200000}";
        let (lines, pass) = probe_gate(good, 5.0);
        assert!(pass);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].fresh, Some(12.4));
        assert_eq!(lines[0].baseline, Some(5.0));

        // Below the speedup floor fails.
        assert!(!probe_gate(good, 20.0).1);

        // A toy-sized run fails even with a huge ratio.
        let tiny = "{\"probe_index_speedup_cold\": 50.0, \"max_reservations\": 10000}";
        let (lines, pass) = probe_gate(tiny, 5.0);
        assert!(!pass);
        assert!(lines[0].pass);
        assert!(!lines[1].pass);

        // Missing keys fail.
        assert!(!probe_gate("{}", 1.0).1);
    }

    #[test]
    fn index_cache_gate_checks_speedup_scale_and_rebuilds() {
        let good = "{\"index_cache_warm_speedup\": 42.7, \
                    \"index_cache_windows\": 200000, \
                    \"index_cache_warm_rebuilds\": 0, \
                    \"index_cache_warm_hits\": 37}";
        let (lines, pass) = index_cache_gate(good, 10.0);
        assert!(pass);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].fresh, Some(42.7));
        assert_eq!(lines[0].baseline, Some(10.0));

        // Below the warm-capture floor fails.
        assert!(!index_cache_gate(good, 100.0).1);

        // A toy-sized pool fails even with a huge ratio.
        let tiny = "{\"index_cache_warm_speedup\": 80.0, \
                    \"index_cache_windows\": 5000, \
                    \"index_cache_warm_rebuilds\": 0, \
                    \"index_cache_warm_hits\": 4}";
        let (lines, pass) = index_cache_gate(tiny, 10.0);
        assert!(!pass);
        assert!(lines[0].pass);
        assert!(!lines[1].pass);

        // Any rebuild on the warm path fails: the cache went stale or
        // was bypassed, so the speedup measured something else.
        let rebuilt = "{\"index_cache_warm_speedup\": 42.7, \
                       \"index_cache_windows\": 200000, \
                       \"index_cache_warm_rebuilds\": 1, \
                       \"index_cache_warm_hits\": 37}";
        assert!(!index_cache_gate(rebuilt, 10.0).1);

        // Zero recorded hits fails: nothing proves the cache served.
        let cold = "{\"index_cache_warm_speedup\": 42.7, \
                    \"index_cache_windows\": 200000, \
                    \"index_cache_warm_rebuilds\": 0, \
                    \"index_cache_warm_hits\": 0}";
        assert!(!index_cache_gate(cold, 10.0).1);

        // Missing keys fail.
        assert!(!index_cache_gate("{}", 1.0).1);
    }

    #[test]
    fn fig4_base_is_deterministic_given_same_args() {
        let args = Args { pairs: Vec::new() };
        assert_eq!(fig4_campaign_base(&args), fig4_campaign_base(&args));
    }
}
