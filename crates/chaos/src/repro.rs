//! Self-contained repro artifacts: a minimized failing campaign as flat
//! JSON, plus the exact CLI to replay it.
//!
//! The workspace is dependency-free, so the artifact format is a flat
//! JSON object written and parsed by hand: integer fields as plain
//! numbers, `u64` seeds and fingerprints as quoted hex strings (they can
//! exceed the 2^53 range a JSON number round-trips exactly), floats in
//! Rust's shortest-round-trip formatting. `from_json` rebuilds the exact
//! campaign `to_json` described, which is what makes a `chaos-repro.json`
//! a complete bug report: anyone can replay it with one command.

use crate::differential::{Axis, ChaosFailure};
use crate::space::ChaosCampaign;

/// A minimized failing campaign, ready to serialize and replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproArtifact {
    /// The (shrunken) campaign that still fails.
    pub campaign: ChaosCampaign,
    /// The failing axis.
    pub axis: Axis,
    /// The variant that broke away (or whose trace was unlawful).
    pub variant: String,
    /// Reference fingerprint (0 for oracle violations).
    pub expected: u64,
    /// Diverging fingerprint (0 for oracle violations).
    pub actual: u64,
    /// Human-readable failure description.
    pub message: String,
    /// Whether the divergence was forced by the test-only injection hook
    /// (replay must re-apply it to reproduce).
    pub injected: bool,
    /// Predicate evaluations the shrinker spent.
    pub shrink_attempts: u64,
}

impl ReproArtifact {
    /// Builds an artifact from a failure observed on `campaign`.
    #[must_use]
    pub fn new(
        campaign: ChaosCampaign,
        failure: &ChaosFailure,
        injected: bool,
        shrink_attempts: u64,
    ) -> Self {
        let message = failure.to_string();
        match failure {
            ChaosFailure::Divergence {
                axis,
                variant,
                expected,
                actual,
            } => ReproArtifact {
                campaign,
                axis: *axis,
                variant: (*variant).to_owned(),
                expected: *expected,
                actual: *actual,
                message,
                injected,
                shrink_attempts,
            },
            ChaosFailure::Oracle { variant, .. } => ReproArtifact {
                campaign,
                // Oracle violations are not tied to one axis; attribute
                // them to the axis order's first for a stable field.
                axis: Axis::Executors,
                variant: (*variant).to_owned(),
                expected: 0,
                actual: 0,
                message,
                injected,
                shrink_attempts,
            },
        }
    }

    /// The exact command line that replays this artifact.
    #[must_use]
    pub fn replay_command(&self, artifact_path: &str) -> String {
        format!(
            "cargo run --release -p gridsched-bench --bin chaos_run -- --replay {artifact_path}"
        )
    }

    /// Serializes the artifact as flat JSON. `artifact_path` is embedded
    /// in the `replay` field so the file documents its own usage.
    #[must_use]
    pub fn to_json(&self, artifact_path: &str) -> String {
        let c = &self.campaign;
        let mut out = String::from("{\n");
        let mut field = |key: &str, value: String| {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("chaos_repro_version", "1".to_owned());
        field("axis", format!("\"{}\"", self.axis.name()));
        field("variant", format!("\"{}\"", self.variant));
        field("expected_fingerprint", format!("\"{:#x}\"", self.expected));
        field("actual_fingerprint", format!("\"{:#x}\"", self.actual));
        field(
            "message",
            format!(
                "\"{}\"",
                self.message.replace('\\', "\\\\").replace('"', "\\\"")
            ),
        );
        field("injected", u64::from(self.injected).to_string());
        field("shrink_attempts", self.shrink_attempts.to_string());
        field("seed", format!("\"{:#x}\"", c.seed));
        field("strategy", c.strategy.to_string());
        field("jobs", c.jobs.to_string());
        field("nodes_min", c.nodes_min.to_string());
        field("nodes_max", c.nodes_max.to_string());
        field("domains", c.domains.to_string());
        field("background_load", c.background_load.to_string());
        field("job_gap", c.job_gap.to_string());
        field("perturbations", c.perturbations.to_string());
        field("perturbation_len_max", c.perturbation_len_max.to_string());
        field("outages", c.outages.to_string());
        field("outage_len_max", c.outage_len_max.to_string());
        field("degradations", c.degradations.to_string());
        field("transfer_faults", c.transfer_faults.to_string());
        field("horizon", c.horizon.to_string());
        field("deadline_factor", c.deadline_factor.to_string());
        field("layers_max", c.layers_max.to_string());
        field("width_max", c.width_max.to_string());
        field("task_jitter", c.task_jitter.to_string());
        field("urgency_slack", c.urgency_slack.to_string());
        out.push_str(&format!(
            "  \"replay\": \"{}\"\n}}\n",
            self.replay_command(artifact_path)
        ));
        out
    }

    /// Parses an artifact back from [`ReproArtifact::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(json: &str) -> Result<ReproArtifact, String> {
        let axis_name = string_field(json, "axis")?;
        let axis = Axis::parse(&axis_name).ok_or_else(|| format!("unknown axis {axis_name:?}"))?;
        Ok(ReproArtifact {
            campaign: ChaosCampaign {
                seed: hex_field(json, "seed")?,
                strategy: u64_field(json, "strategy")?,
                jobs: u64_field(json, "jobs")?,
                nodes_min: u64_field(json, "nodes_min")?,
                nodes_max: u64_field(json, "nodes_max")?,
                domains: u64_field(json, "domains")?,
                background_load: f64_field(json, "background_load")?,
                job_gap: u64_field(json, "job_gap")?,
                perturbations: u64_field(json, "perturbations")?,
                perturbation_len_max: u64_field(json, "perturbation_len_max")?,
                outages: u64_field(json, "outages")?,
                outage_len_max: u64_field(json, "outage_len_max")?,
                degradations: u64_field(json, "degradations")?,
                transfer_faults: u64_field(json, "transfer_faults")?,
                horizon: u64_field(json, "horizon")?,
                deadline_factor: f64_field(json, "deadline_factor")?,
                layers_max: u64_field(json, "layers_max")?,
                width_max: u64_field(json, "width_max")?,
                task_jitter: f64_field(json, "task_jitter")?,
                urgency_slack: f64_field(json, "urgency_slack")?,
            },
            axis,
            variant: string_field(json, "variant")?,
            expected: hex_field(json, "expected_fingerprint")?,
            actual: hex_field(json, "actual_fingerprint")?,
            message: string_field(json, "message")?,
            injected: u64_field(json, "injected")? != 0,
            shrink_attempts: u64_field(json, "shrink_attempts")?,
        })
    }
}

/// The raw token following `"key":`, trimmed, up to the next `,` or `}`
/// (strings keep their quotes; parsed separately).
fn raw_field<'a>(json: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let idx = json
        .find(&pat)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    let rest = json[idx + pat.len()..]
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("field {key:?} has no value"))?
        .trim_start();
    if rest.starts_with('"') {
        // A string value: scan to the closing unescaped quote.
        let mut escaped = false;
        for (i, ch) in rest.char_indices().skip(1) {
            match ch {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => return Ok(&rest[..=i]),
                _ => escaped = false,
            }
        }
        Err(format!("unterminated string for field {key:?}"))
    } else {
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        Ok(rest[..end].trim())
    }
}

fn u64_field(json: &str, key: &str) -> Result<u64, String> {
    raw_field(json, key)?
        .parse()
        .map_err(|e| format!("field {key:?}: {e}"))
}

fn f64_field(json: &str, key: &str) -> Result<f64, String> {
    raw_field(json, key)?
        .parse()
        .map_err(|e| format!("field {key:?}: {e}"))
}

fn string_field(json: &str, key: &str) -> Result<String, String> {
    let raw = raw_field(json, key)?;
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("field {key:?} is not a string"))?;
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

fn hex_field(json: &str, key: &str) -> Result<u64, String> {
    let value = string_field(json, key)?;
    let digits = value
        .strip_prefix("0x")
        .ok_or_else(|| format!("field {key:?} is not hex: {value:?}"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("field {key:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> ReproArtifact {
        ReproArtifact {
            campaign: ChaosCampaign {
                seed: 0xdead_beef_dead_beef,
                strategy: 2,
                jobs: 3,
                nodes_min: 6,
                nodes_max: 6,
                domains: 2,
                background_load: 0.125,
                job_gap: 0,
                perturbations: 4,
                perturbation_len_max: 5,
                outages: 1,
                outage_len_max: 8,
                degradations: 0,
                transfer_faults: 0,
                horizon: 300,
                deadline_factor: 4.5,
                layers_max: 4,
                width_max: 2,
                task_jitter: 0.07,
                urgency_slack: 0.0,
            },
            axis: Axis::Telemetry,
            variant: "instrumented".to_owned(),
            expected: u64::MAX,
            actual: 0x1234,
            message: "axis telemetry: variant \"instrumented\" diverged".to_owned(),
            injected: true,
            shrink_attempts: 17,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let a = artifact();
        let json = a.to_json("chaos-repro.json");
        let parsed = ReproArtifact::from_json(&json).expect("parses");
        assert_eq!(parsed, a);
        // u64::MAX exceeds 2^53: the hex-string encoding is what keeps
        // the fingerprint exact through the round trip.
        assert_eq!(parsed.expected, u64::MAX);
        assert!(json.contains("\"replay\""));
        assert!(json.contains("--replay chaos-repro.json"));
    }

    #[test]
    fn parse_reports_missing_fields() {
        let err = ReproArtifact::from_json("{}").unwrap_err();
        assert!(err.contains("missing field"), "{err}");
        let err = ReproArtifact::from_json("{\"axis\": \"bogus\"}").unwrap_err();
        assert!(err.contains("unknown axis"), "{err}");
    }
}
