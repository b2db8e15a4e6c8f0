//! Trace fingerprints: the equality the differential axes assert.
//!
//! Mirrors the fingerprint idiom of the hierarchy guard-rail tests:
//! FNV-1a 64-bit over the `Debug` form of everything a campaign
//! observably produced — per-job records, fault accounting and the full
//! chronological trace. Plain derived formatting of plain data, so the
//! bytes are stable across platforms and toolchains.

use gridsched::flow::online::{AdmissionOutcome, OnlineReport};
use gridsched::flow::trace::CampaignEvent;
use gridsched::flow::VoReport;
use gridsched::model::ids::JobId;
use gridsched::sim::time::SimTime;

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything a campaign observably produced: records,
/// fault accounting and the chronological trace.
#[must_use]
pub fn report_fingerprint(report: &VoReport) -> u64 {
    fnv1a64(format!("{:?}", (&report.records, &report.faults, &report.trace)).as_bytes())
}

/// Fingerprint of an online serving run: its report, as
/// [`report_fingerprint`] reads it, together with every arrival's
/// admission record.
#[must_use]
pub fn online_fingerprint(online: &OnlineReport) -> u64 {
    let report = &online.report;
    fnv1a64(
        format!(
            "{:?}",
            (
                &report.records,
                &report.faults,
                &report.trace,
                &online.admission
            )
        )
        .as_bytes(),
    )
}

/// Whether an online run is *comparable* to its batch twin: every arrival
/// was admitted on its first probe at its arrival instant. Under the
/// degenerate zero-gap stream that means the online loop made exactly the
/// decisions the batch campaign makes — admission control never kicked
/// in, so the two runs must agree event for event.
///
/// Deferral, rejection or any re-probe makes the runs legitimately
/// different (that is admission control working); the differential axis
/// skips those campaigns rather than comparing apples to oranges.
#[must_use]
pub fn online_comparable(online: &OnlineReport) -> bool {
    let s = &online.summary;
    s.arrived == s.admitted
        && s.probes == s.arrived
        && online
            .admission
            .iter()
            .all(|a| a.outcome == AdmissionOutcome::Admitted { at: a.arrival })
}

/// Fingerprint of a report *normalized* for the batch-vs-online
/// comparison.
///
/// The two flavours legitimately differ in how they narrate terminal
/// events: the online loop traces `Arrived` per arrival and observes
/// `Completed` at its realized instant, while the batch campaign has no
/// arrival notion and stamps completions at the horizon. Both carry the
/// same realized `end`, so the normalization drops `Arrived`, compares
/// the remaining trace verbatim, and compares completions as a sorted
/// `(job, realized end)` set.
#[must_use]
pub fn normalized_fingerprint(report: &VoReport) -> u64 {
    let events: &[(SimTime, CampaignEvent)] =
        report.trace.as_ref().map_or(&[], |trace| trace.events());
    let kept: Vec<&(SimTime, CampaignEvent)> = events
        .iter()
        .filter(|(_, e)| {
            !matches!(
                e,
                CampaignEvent::Arrived { .. } | CampaignEvent::Completed { .. }
            )
        })
        .collect();
    let mut completions: Vec<(JobId, SimTime)> = events
        .iter()
        .filter_map(|(_, e)| match e {
            CampaignEvent::Completed { job, end } => Some((*job, *end)),
            _ => None,
        })
        .collect();
    completions.sort_unstable();
    fnv1a64(
        format!(
            "{:?}",
            (&report.records, &report.faults, &kept, &completions)
        )
        .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched::flow::simulation::{run_campaign, CampaignConfig};

    fn traced() -> CampaignConfig {
        CampaignConfig {
            jobs: 6,
            perturbations: 5,
            collect_trace: true,
            seed: 99,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a's published 64-bit test vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fingerprints_are_deterministic_and_sensitive() {
        let a = run_campaign(&traced());
        let b = run_campaign(&traced());
        assert_eq!(report_fingerprint(&a), report_fingerprint(&b));
        assert_eq!(normalized_fingerprint(&a), normalized_fingerprint(&b));
        let other = run_campaign(&CampaignConfig {
            seed: 100,
            ..traced()
        });
        assert_ne!(report_fingerprint(&a), report_fingerprint(&other));
    }
}
