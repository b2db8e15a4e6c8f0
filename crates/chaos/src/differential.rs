//! The differential axes: configurations of one campaign that must agree.
//!
//! Three axes, each a bit-identity contract the test suite pins with
//! hand-picked seeds and this module fuzzes with generated ones:
//!
//! * [`Axis::Executors`] — the `Sequential` and the pooled `Auto`
//!   executors plan identically: the batch campaign's scenario sweeps,
//!   and the zero-gap online run's admission rounds (one big round when
//!   the whole burst arrives at once), whose admission records must
//!   agree too.
//! * [`Axis::Telemetry`] — attaching a live telemetry recorder is
//!   strictly observational.
//! * [`Axis::BatchOnline`] — a batch campaign over a degenerate zero-gap
//!   release stream matches an online serving run over the same arrivals,
//!   whenever admission control stayed out of the way (see
//!   [`online_comparable`]).
//!
//! Every variant run is additionally audited by the trace oracle; an
//! oracle violation fails the campaign even if all fingerprints agree.

use gridsched::core::strategy::SweepExecutorKind;
use gridsched::flow::online::{run_online, OnlineConfig};
use gridsched::flow::oracle;
use gridsched::flow::simulation::{run_campaign, run_campaign_instrumented, CampaignConfig};
use gridsched::flow::VoReport;
use gridsched::metrics::telemetry::Telemetry;

use crate::fingerprint::{
    normalized_fingerprint, online_comparable, online_fingerprint, report_fingerprint,
};
use crate::space::ChaosCampaign;

/// The mask the test-only injection hook XORs into a variant's
/// fingerprint to force a divergence.
pub const INJECTION_MASK: u64 = 0xd1ff_d1ff_d1ff_d1ff;

/// One differential axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Sequential vs pooled executors (sweeps and admission rounds).
    Executors,
    /// Telemetry-off vs telemetry-on.
    Telemetry,
    /// Batch vs online on degenerate zero-gap arrivals.
    BatchOnline,
}

impl Axis {
    /// Every axis, in execution order.
    pub const ALL: [Axis; 3] = [Axis::Executors, Axis::Telemetry, Axis::BatchOnline];

    /// Stable CLI/JSON name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Axis::Executors => "executors",
            Axis::Telemetry => "telemetry",
            Axis::BatchOnline => "batch-online",
        }
    }

    /// Parses a [`Axis::name`] back.
    #[must_use]
    pub fn parse(name: &str) -> Option<Axis> {
        Axis::ALL.iter().copied().find(|a| a.name() == name)
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a campaign failed the differential check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosFailure {
    /// Two variants that must agree produced different fingerprints.
    Divergence {
        /// The axis that disagreed.
        axis: Axis,
        /// The variant whose fingerprint broke away from the reference.
        variant: &'static str,
        /// The reference fingerprint.
        expected: u64,
        /// The diverging fingerprint.
        actual: u64,
    },
    /// A variant's trace failed the invariant oracle.
    Oracle {
        /// The variant whose trace was unlawful.
        variant: &'static str,
        /// The oracle's violation message.
        message: String,
    },
}

impl ChaosFailure {
    /// Whether `other` is the *same* failure for shrinking purposes: a
    /// divergence on the same axis, or any oracle violation. Shrinking
    /// only accepts reductions that keep reproducing the same kind of
    /// failure, so a minimized campaign demonstrates the bug it was
    /// reported for — not whatever else small campaigns can trip.
    #[must_use]
    pub fn same_kind(&self, other: &ChaosFailure) -> bool {
        match (self, other) {
            (
                ChaosFailure::Divergence { axis: a, .. },
                ChaosFailure::Divergence { axis: b, .. },
            ) => a == b,
            (ChaosFailure::Oracle { .. }, ChaosFailure::Oracle { .. }) => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosFailure::Divergence {
                axis,
                variant,
                expected,
                actual,
            } => write!(
                f,
                "axis {axis}: variant {variant} diverged \
                 (expected {expected:#018x}, got {actual:#018x})"
            ),
            ChaosFailure::Oracle { variant, message } => {
                write!(f, "variant {variant} failed the trace oracle: {message}")
            }
        }
    }
}

/// The verdict of one campaign across every axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisReport {
    /// The first failure encountered, if any (axes run in
    /// [`Axis::ALL`] order and stop at the first).
    pub failure: Option<ChaosFailure>,
    /// Whether the batch-vs-online axis actually compared (admission
    /// control admitted every arrival on first probe). `false` when the
    /// axis was skipped as incomparable or a failure stopped the run
    /// earlier.
    pub online_compared: bool,
}

/// Runs one variant and audits its trace.
fn audited(config: &CampaignConfig, variant: &'static str) -> Result<VoReport, ChaosFailure> {
    let report = run_campaign(config);
    audit(&report, variant)?;
    Ok(report)
}

fn audit(report: &VoReport, variant: &'static str) -> Result<(), ChaosFailure> {
    match oracle::audit(report) {
        Ok(()) => Ok(()),
        Err(violation) => Err(ChaosFailure::Oracle {
            variant,
            message: violation.to_string(),
        }),
    }
}

/// Executes `campaign` across every differential axis, asserting
/// trace-fingerprint equality and oracle cleanliness on every run.
///
/// `inject` is the test-only divergence hook: the named axis's last
/// variant gets its computed fingerprint XORed with [`INJECTION_MASK`]
/// before comparison, forcing a divergence the catch→shrink→replay
/// pipeline must handle. For [`Axis::BatchOnline`] the injection also
/// bypasses the comparability gate, so the forced failure cannot be
/// shrunk away by making admission control kick in.
#[must_use]
pub fn run_axes(campaign: &ChaosCampaign, inject: Option<Axis>) -> AxisReport {
    let failed = |failure| AxisReport {
        failure: Some(failure),
        online_compared: false,
    };
    let base_config = campaign.base_config();
    let base = match audited(&base_config, "pooled") {
        Ok(report) => report_fingerprint(&report),
        Err(failure) => return failed(failure),
    };

    // Axis 1: executors (the base runs are pooled): the batch campaign's
    // sweeps, then the zero-gap online run's admission rounds. The online
    // run is kept for axis 3.
    let online_config = campaign.online_config();
    let online = {
        let config = CampaignConfig {
            executor: SweepExecutorKind::Sequential,
            ..base_config.clone()
        };
        let fp = match audited(&config, "sequential") {
            Ok(report) => report_fingerprint(&report),
            Err(failure) => return failed(failure),
        };
        if fp != base {
            return failed(ChaosFailure::Divergence {
                axis: Axis::Executors,
                variant: "sequential",
                expected: base,
                actual: fp,
            });
        }
        let online = run_online(&online_config);
        if let Err(failure) = audit(&online.report, "online-zero-gap") {
            return failed(failure);
        }
        let sequential = run_online(&OnlineConfig {
            base: CampaignConfig {
                executor: SweepExecutorKind::Sequential,
                ..online_config.base.clone()
            },
            ..online_config.clone()
        });
        if let Err(failure) = audit(&sequential.report, "online-sequential") {
            return failed(failure);
        }
        let expected = online_fingerprint(&online);
        let mut actual = online_fingerprint(&sequential);
        if inject == Some(Axis::Executors) {
            actual ^= INJECTION_MASK;
        }
        if actual != expected {
            return failed(ChaosFailure::Divergence {
                axis: Axis::Executors,
                variant: "online-sequential",
                expected,
                actual,
            });
        }
        online
    };

    // Axis 2: telemetry bit-identity.
    {
        let telemetry = Telemetry::new();
        let report = run_campaign_instrumented(&base_config, &telemetry);
        if let Err(failure) = audit(&report, "instrumented") {
            return failed(failure);
        }
        let mut fp = report_fingerprint(&report);
        if inject == Some(Axis::Telemetry) {
            fp ^= INJECTION_MASK;
        }
        if fp != base {
            return failed(ChaosFailure::Divergence {
                axis: Axis::Telemetry,
                variant: "instrumented",
                expected: base,
                actual: fp,
            });
        }
    }

    // Axis 3: batch vs online on degenerate zero-gap arrivals.
    let batch = match audited(&campaign.zero_gap_config(), "batch-zero-gap") {
        Ok(report) => report,
        Err(failure) => return failed(failure),
    };
    let comparable = online_comparable(&online);
    if comparable || inject == Some(Axis::BatchOnline) {
        let expected = normalized_fingerprint(&batch);
        let mut actual = normalized_fingerprint(&online.report);
        if inject == Some(Axis::BatchOnline) {
            actual ^= INJECTION_MASK;
        }
        if actual != expected {
            return AxisReport {
                failure: Some(ChaosFailure::Divergence {
                    axis: Axis::BatchOnline,
                    variant: "online-zero-gap",
                    expected,
                    actual,
                }),
                online_compared: comparable,
            };
        }
    }
    AxisReport {
        failure: None,
        online_compared: comparable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_names_round_trip() {
        for axis in Axis::ALL {
            assert_eq!(Axis::parse(axis.name()), Some(axis));
        }
        assert_eq!(Axis::parse("bogus"), None);
    }

    #[test]
    fn same_kind_matches_axis_not_payload() {
        let a = ChaosFailure::Divergence {
            axis: Axis::Executors,
            variant: "sequential",
            expected: 1,
            actual: 2,
        };
        let b = ChaosFailure::Divergence {
            axis: Axis::Executors,
            variant: "sequential",
            expected: 3,
            actual: 4,
        };
        let c = ChaosFailure::Divergence {
            axis: Axis::Telemetry,
            variant: "instrumented",
            expected: 1,
            actual: 2,
        };
        let o = ChaosFailure::Oracle {
            variant: "pooled",
            message: "m".into(),
        };
        assert!(a.same_kind(&b));
        assert!(!a.same_kind(&c));
        assert!(!a.same_kind(&o));
        assert!(o.same_kind(&o.clone()));
    }
}
