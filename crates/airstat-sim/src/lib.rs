//! # airstat-sim — the synthetic wireless fleet
//!
//! The paper's dataset is proprietary, so AirStat substitutes a generative
//! fleet: ~20k customer networks across 19 industry verticals, ~10k MR16-
//! and ~10k MR18-class access points, and millions of clients (scaled by a
//! configurable factor so a laptop run finishes in seconds). The models
//! are parameterized by the *marginal* statistics the paper publishes —
//! client OS mix, capability evolution, per-app byte shares, neighbour
//! densities — and the pipeline then re-derives the paper's tables from
//! raw simulated telemetry, exercising the same classification,
//! aggregation and analysis code paths the production system used.
//!
//! Module map:
//!
//! * [`config`] — scenario knobs and the paper-faithful presets;
//! * [`industry`] — Table 2's industry verticals and the network mix;
//! * [`population`] — client populations: OS mix per year (Table 3),
//!   capability evolution (Table 4), per-OS usage volumes, classifier
//!   evidence generation;
//! * [`appmix`] — the application traffic profile behind Tables 5/6
//!   (byte shares, client reach, download fractions, YoY growth);
//! * [`traffic`] — turns a client into a week of classified flows;
//! * [`world`] — topology: networks, APs, channels, neighbour densities,
//!   probe links, interferers;
//! * [`engine`] — the discrete-event loop that runs measurement windows
//!   and pushes reports through the telemetry pipeline into a sharded
//!   store (or any [`airstat_store::ReportSink`]);
//! * [`exec`] — deterministic ordered fan-out of independent work units
//!   across a scoped thread pool (the engine's parallel backbone; now
//!   hosted by `airstat-store` and re-exported here);
//! * [`faults`] — deterministic fault-injection campaigns: scripted
//!   per-window schedules of tunnel flaps, DC outages, crash/reboot
//!   cycles, queue pressure and re-poll storms, with campaign-wide
//!   degradation accounting.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod appmix;
pub mod config;
pub mod engine;
pub use airstat_store::exec;
pub mod faults;
pub mod fleet;
pub mod industry;
pub mod population;
pub mod traffic;
pub mod world;

pub use config::{FleetConfig, MeasurementYear};
pub use engine::{CampaignRun, FleetSimulation, SimulationOutput};
pub use faults::{DegradationTally, FaultIntensity, FaultSchedule, FaultedEndpoint};
pub use fleet::{run_fleet_campaign, FleetCampaignConfig, FleetCampaignRun};
