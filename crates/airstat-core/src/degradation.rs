//! The end-to-end degradation report for fault campaigns.
//!
//! [`DegradationReport`] condenses a campaign's
//! [`DegradationTally`] and the
//! backend's dedup counter into the three quantities the collection layer
//! is judged by — **data completeness**, the **report latency
//! distribution** (virtual seconds), and **loss/duplicate counts** per
//! cause — rendered next to `throughput_summary()` by the CLI and the
//! `fault_campaign` example. The cniCloud / WLAN-Analytics lesson applies:
//! collection loss, not analysis, dominates fidelity, so this report is
//! the first thing to read when a campaign's tables look off.

use std::fmt;

use airstat_sim::faults::DegradationTally;
use airstat_sim::SimulationOutput;

/// A rendered summary of how gracefully one campaign degraded.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The fault scenario label ("none" for a healthy run).
    pub scenario: String,
    /// The campaign-wide tally the engine accumulated.
    pub tally: DegradationTally,
    /// Duplicate reports the backend's sequence dedup rejected.
    pub duplicates_dropped: u64,
}

impl DegradationReport {
    /// Builds the report from a finished simulation.
    pub fn from_simulation(output: &SimulationOutput, scenario: &str) -> Self {
        DegradationReport {
            scenario: scenario.to_string(),
            tally: output.run.degradation.clone(),
            duplicates_dropped: output.store.duplicates_dropped(),
        }
    }

    /// Data completeness in `[0, 1]`: unique accepted reports over
    /// submitted reports.
    pub(crate) fn completeness(&self) -> f64 {
        self.tally.completeness()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.tally;
        writeln!(f, "degradation report (scenario: {}):", self.scenario)?;
        writeln!(
            f,
            "  completeness   {:>7.3}%  ({} of {} reports accepted)",
            self.completeness() * 100.0,
            t.accepted,
            t.submitted,
        )?;
        writeln!(
            f,
            "  lost reports   {:>7} overflow  {:>6} crash  {:>6} unpolled  {:>6} evicted",
            t.dropped_overflow, t.lost_to_crash, t.left_queued, t.lost_to_eviction,
        )?;
        writeln!(
            f,
            "  evicted APs    high {}  normal {}  low {}  (only LOW is ever evicted)",
            t.evicted_high, t.evicted_normal, t.evicted_low,
        )?;
        writeln!(
            f,
            "  duplicates     {:>7} dropped by seq dedup  ({} redelivered on wire)",
            self.duplicates_dropped, t.redelivered,
        )?;
        writeln!(
            f,
            "  polls          {:>7} total  {:>6} lost  {:>6} disconnected",
            t.polls, t.polls_lost, t.disconnected_polls,
        )?;
        writeln!(
            f,
            "  failovers      {:>7}  (secondary served {} polls)",
            t.failovers, t.secondary_served,
        )?;
        writeln!(
            f,
            "  crash reboots  {:>7}  budget-exhausted agents {}",
            t.crash_reboots, t.budget_exhausted_agents,
        )?;
        let q = |p: f64| {
            t.latency
                .quantile(p)
                .map_or_else(|| "-".to_string(), |s| s.to_string())
        };
        write!(
            f,
            "  latency (virt) p50 {} s  p90 {} s  p99 {} s  max {} s",
            q(0.5),
            q(0.9),
            q(0.99),
            t.latency
                .max_s()
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_telemetry::poll::LatencyHistogram;

    fn sample_report() -> DegradationReport {
        let mut latency = LatencyHistogram::default();
        latency.record_n(60, 80);
        latency.record_n(480, 15);
        latency.record_n(1920, 5);
        DegradationReport {
            scenario: "dc-outage".into(),
            tally: DegradationTally {
                submitted: 1_000,
                accepted: 940,
                dropped_overflow: 50,
                lost_to_crash: 10,
                polls: 2_000,
                polls_lost: 120,
                disconnected_polls: 40,
                failovers: 12,
                secondary_served: 80,
                redelivered: 90,
                crash_reboots: 3,
                lost_to_eviction: 7,
                evicted_low: 4,
                latency,
                ..DegradationTally::default()
            },
            duplicates_dropped: 85,
        }
    }

    #[test]
    fn completeness_from_tally() {
        let report = sample_report();
        assert!((report.completeness() - 0.94).abs() < 1e-12);
    }

    #[test]
    fn renders_every_axis() {
        let text = sample_report().to_string();
        assert!(text.contains("scenario: dc-outage"));
        assert!(text.contains("94.000%"));
        assert!(text.contains("50 overflow"));
        assert!(text.contains("7 evicted"));
        assert!(text.contains("high 0  normal 0  low 4"));
        assert!(text.contains("85 dropped by seq dedup"));
        assert!(text.contains("failovers"));
        assert!(text.contains("p50 60 s"));
        assert!(text.contains("max 1920 s"));
    }

    #[test]
    fn empty_latency_renders_dashes() {
        let report = DegradationReport {
            scenario: "zero".into(),
            tally: DegradationTally::default(),
            duplicates_dropped: 0,
        };
        let text = report.to_string();
        assert!(text.contains("p50 - s"));
        assert!(text.contains("100.000%"));
    }
}
