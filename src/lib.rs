//! # AirStat — a full reproduction of *Large-scale Measurements of
//! Wireless Network Behavior* (SIGCOMM 2015)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`stats`] — statistics substrate (CDFs, samplers, seeds);
//! * [`rf`] — 802.11 PHY/MAC and RF-environment models;
//! * [`classify`] — device-OS and application classifiers;
//! * [`telemetry`] — wire format, faulty transport, legacy backend store;
//! * [`store`] — the sharded snapshot store and its parallel cached
//!   query engine (the production aggregation path);
//! * [`sim`] — the synthetic fleet and measurement campaign;
//! * [`core`] — the paper's tables and figures as typed analytics.
//!
//! Quick start:
//!
//! ```
//! use airstat::sim::{FleetConfig, FleetSimulation};
//! use airstat::core::PaperReport;
//!
//! let config = FleetConfig::smoke();
//! let output = FleetSimulation::new(config.clone()).run();
//! let report = PaperReport::from_simulation(&output, &config);
//! assert!(report.table3.all.clients > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use airstat_classify as classify;
pub use airstat_core as core;
pub use airstat_rf as rf;
pub use airstat_sim as sim;
pub use airstat_stats as stats;
pub use airstat_store as store;
pub use airstat_telemetry as telemetry;
