//! # airstat-core — the paper's analysis, as a library
//!
//! Everything the paper's evaluation publishes — Tables 2–7 and Figures
//! 1–11 — is regenerated here as a typed query over any
//! [`airstat_store::FleetQuery`] source: the sharded store's cached
//! query engine (the production path, via `SimulationOutput::query()`)
//! or the legacy [`airstat_telemetry::Backend`]. Each
//! table/figure is a struct with a `compute(...)` constructor and a
//! `Display` impl that prints rows in the paper's own format, so the
//! examples and benches can diff our reproduction against the published
//! numbers line by line.
//!
//! * [`tables`] — Table 2 (industry mix), Table 3 (usage by OS), Table 4
//!   (client capabilities), Table 5 (top 40 applications), Table 6
//!   (categories), Table 7 (nearby-network growth);
//! * [`figures`] — Figure 1 (RSSI), Figure 2 (channel census), Figure 3
//!   (delivery CDFs), Figures 4/5 (link time series), Figure 6 (MR16
//!   utilization), Figures 7/8 (utilization-vs-APs scatter + correlation),
//!   Figure 9 (day/night), Figure 10 (decodable share), Figure 11
//!   (spectrum waterfalls);
//! * [`render`] — plain-text table and CDF renderers shared by the
//!   examples;
//! * [`report`] — [`report::PaperReport`]: one call that runs the whole
//!   campaign and prints the full reproduction;
//! * [`export`] — the anonymized dataset release of §8
//!   (`dl.meraki.net/sigcomm-2015`), regenerated;
//! * [`planner`] — §8's second recommendation: coordinated,
//!   utilization-driven channel planning, with the count-based baseline;
//! * [`degradation`] — the fault-campaign degradation report:
//!   completeness, loss/duplicate accounting, and report latency
//!   quantiles for a simulated collection-layer fault scenario.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod degradation;
pub mod export;
pub mod figures;
pub mod planner;
pub mod render;
pub mod report;
pub mod tables;

pub use degradation::DegradationReport;
pub use report::PaperReport;
