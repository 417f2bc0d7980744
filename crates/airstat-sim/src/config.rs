//! Scenario configuration.
//!
//! Everything is derived from the paper's §2–§5 setup: 20,667 networks,
//! 10,000 MR16s, 10,000 MR18s, one-week measurement windows in January
//! 2014 and January 2015, plus the July 2014 neighbour comparison. The
//! `scale` knob shrinks every population proportionally so the full
//! pipeline runs in seconds on a laptop while keeping every distribution's
//! *shape*; `scale = 1.0` reproduces the paper's magnitudes.

use airstat_telemetry::backend::WindowId;

use crate::faults::FaultSchedule;

/// The two usage-measurement years.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasurementYear {
    /// January 15–22, 2014.
    Y2014,
    /// January 15–22, 2015.
    Y2015,
}

impl MeasurementYear {
    /// The backend window this year's data lands in.
    pub(crate) fn window(self) -> WindowId {
        match self {
            MeasurementYear::Y2014 => WINDOW_JAN_2014,
            MeasurementYear::Y2015 => WINDOW_JAN_2015,
        }
    }
}

/// Backend window for January 15–22, 2014.
pub const WINDOW_JAN_2014: WindowId = WindowId(1401);
/// Backend window for the July 2014 neighbour/link comparison ("six
/// months ago" in §4).
pub const WINDOW_JUL_2014: WindowId = WindowId(1407);
/// Backend window for January 15–22, 2015.
pub const WINDOW_JAN_2015: WindowId = WindowId(1501);

/// Seconds in the one-week measurement window.
pub const WEEK_S: u64 = 7 * 24 * 3600;

/// Top-level fleet configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Root random seed; every run with the same seed is byte-identical.
    pub seed: u64,
    /// Population scale in `(0, 1]` relative to the paper's fleet.
    pub scale: f64,
    /// Interval between link-stat report submissions (s). The probe
    /// machinery itself stays at 15 s probes / 300 s windows; this only
    /// controls how often the sliding-window value is *reported*.
    pub link_report_interval_s: u64,
    /// Probability a poll round-trip is lost (transport fault injection).
    pub poll_drop_probability: f64,
    /// Worker threads for the engine's parallel panels. `1` selects the
    /// strictly serial path; larger values fan independent work units out
    /// across a thread pool. Output is byte-identical for every value —
    /// the engine merges unit results in deterministic order. Defaults to
    /// `default_threads`.
    pub threads: usize,
    /// Shard count for the aggregation store the engine fills. Like
    /// `threads`, output is byte-identical for every value ≥ 1 — the
    /// store's query engine merges per-shard partials in a canonical
    /// order. Defaults to [`airstat_store::DEFAULT_SHARDS`].
    pub shards: usize,
    /// Optional fault-injection campaign. `None` runs the healthy
    /// pipeline; `Some(schedule)` injects the schedule's per-window
    /// faults during every drain. A [`FaultSchedule::zero`] schedule
    /// reproduces the `None` output byte for byte (differential-tested),
    /// and campaigns stay byte-identical across thread counts.
    pub faults: Option<FaultSchedule>,
    /// Seal the store's columnar read layout every N ingested batches
    /// mid-campaign (`None` seals only when the first query opens).
    /// Reports are byte-identical for every cadence — a seal is purely a
    /// read-layout projection — and with incremental delta segments each
    /// mid-run seal costs in proportion to the rows dirtied since the
    /// previous one, not the store size.
    pub seal_every: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::paper(0.01)
    }
}

impl FleetConfig {
    /// The paper-faithful configuration at the given scale.
    ///
    /// # Panics
    /// Panics unless `0 < scale <= 1`.
    pub fn paper(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        FleetConfig {
            seed: 0x0051_60C0_2015,
            scale,
            link_report_interval_s: 3600,
            poll_drop_probability: 0.01,
            threads: default_threads(),
            shards: airstat_store::DEFAULT_SHARDS,
            faults: None,
            seal_every: None,
        }
    }

    /// A tiny smoke-test configuration for unit tests.
    pub fn smoke() -> Self {
        FleetConfig {
            link_report_interval_s: 6 * 3600,
            ..FleetConfig::paper(0.002)
        }
    }

    /// Networks in the usage panel at this scale (at least 1).
    pub fn usage_networks(&self) -> u32 {
        scale_count(USAGE_NETWORKS_FULL, self.scale)
    }

    /// MR16 APs at this scale.
    pub fn mr16_aps(&self) -> u32 {
        scale_count(MR16_APS_FULL, self.scale)
    }

    /// MR18 APs at this scale.
    pub fn mr18_aps(&self) -> u32 {
        scale_count(MR18_APS_FULL, self.scale)
    }

    /// Worker threads the engine will actually use (at least 1).
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Store shards the engine will actually use (at least 1).
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }

    /// Target client count for a measurement year at this scale.
    ///
    /// 2014 is 2015 divided by the paper's 37% total growth.
    pub fn clients(&self, year: MeasurementYear) -> u64 {
        let full_2015 = CLIENTS_2015_FULL as f64;
        let full = match year {
            MeasurementYear::Y2015 => full_2015,
            MeasurementYear::Y2014 => full_2015 / 1.371,
        };
        ((full * self.scale).round() as u64).max(1)
    }
}

/// Networks in the usage panel at `scale = 1.0` (paper: 20,667).
const USAGE_NETWORKS_FULL: u32 = 20_667;
/// MR16-class APs in the radio panel at `scale = 1.0` (paper: 10,000).
const MR16_APS_FULL: u32 = 10_000;
/// MR18-class APs in the scan panel at `scale = 1.0` (paper: 10,000).
const MR18_APS_FULL: u32 = 10_000;
/// Unique clients per week at `scale = 1.0` for the 2015 window
/// (paper: 5,578,126). The 2014 window is derived from growth rates.
const CLIENTS_2015_FULL: u64 = 5_578_126;

fn scale_count(full: u32, scale: f64) -> u32 {
    ((f64::from(full) * scale).round() as u32).max(1)
}

/// The host's available parallelism, with a serial fallback when the
/// runtime cannot determine it.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper() {
        let cfg = FleetConfig::paper(1.0);
        assert_eq!(cfg.usage_networks(), 20_667);
        assert_eq!(cfg.mr16_aps(), 10_000);
        assert_eq!(cfg.mr18_aps(), 10_000);
        assert_eq!(cfg.clients(MeasurementYear::Y2015), 5_578_126);
        // 2014 ≈ 4.07M (paper: "4.07 million to 5.58 million").
        let c2014 = cfg.clients(MeasurementYear::Y2014);
        assert!((c2014 as f64 - 4.07e6).abs() < 0.03e6, "{c2014}");
    }

    #[test]
    fn scaling_is_proportional() {
        let cfg = FleetConfig::paper(0.1);
        assert_eq!(cfg.usage_networks(), 2_067);
        assert_eq!(cfg.mr16_aps(), 1_000);
        let ratio = cfg.clients(MeasurementYear::Y2015) as f64 / 5_578_126.0;
        assert!((ratio - 0.1).abs() < 1e-3);
    }

    #[test]
    fn tiny_scale_never_zero() {
        let cfg = FleetConfig::paper(1e-6);
        assert!(cfg.usage_networks() >= 1);
        assert!(cfg.mr16_aps() >= 1);
        assert!(cfg.clients(MeasurementYear::Y2014) >= 1);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_rejected() {
        let _ = FleetConfig::paper(0.0);
    }

    #[test]
    fn thread_knob_defaults_sane() {
        let cfg = FleetConfig::paper(0.01);
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.effective_threads(), cfg.threads);
        let serial = FleetConfig {
            threads: 0,
            ..FleetConfig::smoke()
        };
        assert_eq!(serial.effective_threads(), 1);
    }

    #[test]
    fn shard_knob_defaults_sane() {
        let cfg = FleetConfig::paper(0.01);
        assert_eq!(cfg.shards, airstat_store::DEFAULT_SHARDS);
        assert_eq!(cfg.effective_shards(), cfg.shards);
        let single = FleetConfig {
            shards: 0,
            ..FleetConfig::smoke()
        };
        assert_eq!(single.effective_shards(), 1);
    }

    #[test]
    fn windows_are_distinct() {
        assert_ne!(WINDOW_JAN_2014, WINDOW_JUL_2014);
        assert_ne!(WINDOW_JUL_2014, WINDOW_JAN_2015);
        assert_eq!(MeasurementYear::Y2014.window(), WINDOW_JAN_2014);
        assert_eq!(MeasurementYear::Y2015.window(), WINDOW_JAN_2015);
    }
}
