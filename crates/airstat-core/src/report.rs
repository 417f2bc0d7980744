//! The full paper reproduction in one object.
//!
//! [`PaperReport::from_simulation`] computes every table and figure from a
//! completed fleet run; its `Display` prints the whole reproduction in
//! paper order, and the accessors let benches and tests assert on the
//! qualitative acceptance criteria from DESIGN.md.

use airstat_rf::band::Band;
use airstat_sim::config::{FleetConfig, WINDOW_JAN_2014, WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat_sim::engine::{DAY_SAMPLE_HOUR, NIGHT_SAMPLE_HOUR};
use airstat_sim::SimulationOutput;
use airstat_stats::SeedTree;
use airstat_store::FleetQuery;
use std::fmt;

use crate::figures::{
    ChannelCensusFigure, DayNightFigure, DecodableFigure, DeliveryFigure, LinkTimeseriesFigure,
    RssiFigure, SpectrumFigure, UtilVsApsFigure, UtilizationFigure,
};
use crate::tables::{
    CapabilitiesTable, CategoriesTable, IndustryTable, NearbyTable, OsUsageTable, TopAppsTable,
};

/// Every table and figure of the paper, computed from one simulation.
#[derive(Debug, Clone)]
pub struct PaperReport {
    /// Table 2: industry mix of the usage panel.
    pub table2: IndustryTable,
    /// Table 3: usage by OS with YoY growth.
    pub table3: OsUsageTable,
    /// Table 4: client capabilities, 2014 vs 2015.
    pub table4: CapabilitiesTable,
    /// Table 5: top 40 applications.
    pub table5: TopAppsTable,
    /// Table 6: usage by category.
    pub table6: CategoriesTable,
    /// Table 7: nearby-network growth over six months.
    pub table7: NearbyTable,
    /// Figure 1: client RSSI distribution.
    pub figure1: RssiFigure,
    /// Figure 2: nearby networks by channel.
    pub figure2: ChannelCensusFigure,
    /// Figure 3: delivery-ratio CDFs.
    pub figure3: DeliveryFigure,
    /// Figure 4: 2.4 GHz sample link series.
    pub figure4: LinkTimeseriesFigure,
    /// Figure 5: 5 GHz sample link series.
    pub figure5: LinkTimeseriesFigure,
    /// Figure 6: MR16 serving-channel utilization.
    pub figure6: UtilizationFigure,
    /// Figure 7: utilization vs APs, 2.4 GHz.
    pub figure7: UtilVsApsFigure,
    /// Figure 8: utilization vs APs, 5 GHz.
    pub figure8: UtilVsApsFigure,
    /// Figure 9a: day/night utilization, 2.4 GHz.
    pub figure9_2_4: DayNightFigure,
    /// Figure 9b: day/night utilization, 5 GHz.
    pub figure9_5: DayNightFigure,
    /// Figure 10: decodable-802.11 share of busy time.
    pub figure10: DecodableFigure,
    /// Figure 11: spectrum waterfalls.
    pub figure11: SpectrumFigure,
}

impl PaperReport {
    /// Computes the whole report from a finished simulation.
    ///
    /// Opens a cached query engine over the run's sealed store (so the
    /// repeated client/usage lookups below hit the store's result cache)
    /// and delegates to [`PaperReport::from_query`].
    pub fn from_simulation(output: &SimulationOutput, config: &FleetConfig) -> Self {
        PaperReport::from_query(&output.query(), config)
    }

    /// Computes the whole report from any [`FleetQuery`] source — the
    /// sharded store's query engine or the legacy backend. Identical
    /// data yields an identical report either way (the store model test
    /// in `tests/persistence.rs` holds the engine to the legacy backend
    /// on every plan the report issues).
    pub fn from_query<Q: FleetQuery>(backend: &Q, config: &FleetConfig) -> Self {
        let seed = SeedTree::new(config.seed);
        PaperReport {
            table2: IndustryTable::compute(config.usage_networks(), &seed),
            table3: OsUsageTable::compute(backend, WINDOW_JAN_2015, WINDOW_JAN_2014),
            table4: CapabilitiesTable::compute(backend, WINDOW_JAN_2014, WINDOW_JAN_2015),
            table5: TopAppsTable::compute(
                backend,
                WINDOW_JAN_2015,
                WINDOW_JAN_2014,
                TopAppsTable::PAPER_LIMIT,
            ),
            table6: CategoriesTable::compute(backend, WINDOW_JAN_2015, WINDOW_JAN_2014),
            table7: NearbyTable::compute(backend, WINDOW_JUL_2014, WINDOW_JAN_2015),
            figure1: RssiFigure::compute_snapshot(
                backend,
                WINDOW_JAN_2015,
                // One evening's connected clients: 309k of the week's
                // 5.58M unique devices (§3.1) ≈ 5.5%.
                (backend.client_count(WINDOW_JAN_2015) as f64 * 0.055).ceil() as usize,
                &seed,
            ),
            figure2: ChannelCensusFigure::compute(backend, WINDOW_JAN_2015),
            figure3: DeliveryFigure::compute(backend, WINDOW_JUL_2014, WINDOW_JAN_2015),
            figure4: LinkTimeseriesFigure::compute(backend, WINDOW_JAN_2015, Band::Ghz2_4, 2),
            figure5: LinkTimeseriesFigure::compute(backend, WINDOW_JAN_2015, Band::Ghz5, 2),
            figure6: UtilizationFigure::compute(backend, WINDOW_JAN_2015),
            figure7: UtilVsApsFigure::compute(backend, WINDOW_JAN_2015, Band::Ghz2_4),
            figure8: UtilVsApsFigure::compute(backend, WINDOW_JAN_2015, Band::Ghz5),
            figure9_2_4: DayNightFigure::compute(
                backend,
                WINDOW_JAN_2015,
                Band::Ghz2_4,
                DAY_SAMPLE_HOUR,
                NIGHT_SAMPLE_HOUR,
            ),
            figure9_5: DayNightFigure::compute(
                backend,
                WINDOW_JAN_2015,
                Band::Ghz5,
                DAY_SAMPLE_HOUR,
                NIGHT_SAMPLE_HOUR,
            ),
            figure10: DecodableFigure::compute(backend, WINDOW_JAN_2015),
            figure11: SpectrumFigure::compute(&seed.child("figure11"), 120),
        }
    }
}

impl fmt::Display for PaperReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let section = |f: &mut fmt::Formatter<'_>, title: &str| writeln!(f, "\n=== {title} ===");
        section(f, "Table 2: Network deployment types")?;
        write!(f, "{}", self.table2)?;
        section(f, "Table 3: Usage by operating system")?;
        write!(f, "{}", self.table3)?;
        section(f, "Table 4: Client capabilities")?;
        write!(f, "{}", self.table4)?;
        section(f, "Table 5: Top applications by usage")?;
        write!(f, "{}", self.table5)?;
        section(f, "Table 6: Usage by application category")?;
        write!(f, "{}", self.table6)?;
        section(f, "Table 7: Nearby networks over six months")?;
        write!(f, "{}", self.table7)?;
        section(f, "Figure 1: Client signal strength (RSSI)")?;
        write!(f, "{}", self.figure1)?;
        section(f, "Figure 2: Nearby networks by channel")?;
        write!(f, "{}", self.figure2)?;
        section(f, "Figure 3: Link delivery ratios")?;
        write!(f, "{}", self.figure3)?;
        section(f, "Figure 4: 2.4 GHz link delivery over a week")?;
        write!(f, "{}", self.figure4)?;
        section(f, "Figure 5: 5 GHz link delivery over a week")?;
        write!(f, "{}", self.figure5)?;
        section(f, "Figure 6: Channel utilization (MR16 serving radio)")?;
        write!(f, "{}", self.figure6)?;
        section(f, "Figure 7: Utilization vs nearby APs, 2.4 GHz")?;
        write!(f, "{}", self.figure7)?;
        section(f, "Figure 8: Utilization vs nearby APs, 5 GHz")?;
        write!(f, "{}", self.figure8)?;
        section(f, "Figure 9: Day vs night utilization (MR18 scanner)")?;
        write!(f, "{}", self.figure9_2_4)?;
        write!(f, "{}", self.figure9_5)?;
        section(f, "Figure 10: Decodable 802.11 share of busy time")?;
        write!(f, "{}", self.figure10)?;
        section(f, "Figure 11: Spectrum analysis (USRP)")?;
        write!(f, "{}", self.figure11)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_sim::FleetSimulation;

    #[test]
    fn full_report_from_smoke_run() {
        let config = FleetConfig::smoke();
        let output = FleetSimulation::new(config.clone()).run();
        let report = PaperReport::from_simulation(&output, &config);
        // Every artifact produced something.
        assert!(report.table2.total() > 0);
        assert!(!report.table3.rows.is_empty());
        assert!(!report.table5.rows.is_empty());
        assert!(!report.table6.rows.is_empty());
        assert!(report.table7.now_2_4.total_networks > 0);
        assert!(!report.figure1.rssi_2_4.is_empty());
        assert!(!report.figure3.now_2_4.is_empty());
        assert!(!report.figure6.util_2_4.is_empty());
        assert!(!report.figure7.points.is_empty());
        // The rendered report mentions every section.
        let s = report.to_string();
        for needle in [
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Figure 11",
        ] {
            assert!(s.contains(needle), "missing section {needle}");
        }
    }
}
