//! # airstat-rf — 802.11 radio and RF-environment substrate
//!
//! This crate models everything the paper's access points measure at the
//! physical and MAC layers, so that the telemetry pipeline and analytics in
//! the rest of AirStat exercise the same code paths the real Meraki fleet
//! did:
//!
//! * [`band`] — frequency bands, the FCC channel plan (2.4 GHz channels
//!   1–11, the 5 GHz UNII-1/2/2e/3 sub-bands with DFS flags);
//! * [`phy`] — client capability descriptors (802.11 g/n/ac, spatial
//!   streams, 40 MHz support) and exact frame airtime arithmetic for
//!   beacons, probes and data frames at the paper's rates (a 0.42 ms
//!   OFDM beacon vs. a 2.592 ms 802.11b beacon);
//! * [`propagation`] — indoor log-distance path loss with band-dependent
//!   attenuation and log-normal shadowing, noise floor, RSSI and SNR;
//! * [`link`] — the inter-AP probe-link model: SNR plus interference plus a
//!   per-link frequency-selective fading penalty give a delivery
//!   probability, with slow AR(1) time variation (Figures 3–5);
//! * [`airtime`] — microsecond busy/decodable counters with the Atheros
//!   semantics the paper describes: energy-detect time vs. time spent on
//!   frames with intact PLCP headers (Figures 6, 9, 10);
//! * [`neighbors`] — where nearby networks sit on the channel plan
//!   (Figure 2) and how many of them are personal hotspots (Table 7);
//! * [`interference`] — non-802.11 interferer models (Bluetooth frequency
//!   hoppers, ZigBee, cordless phones, microwave ovens);
//! * [`scanner`] — the two measurement instruments: the MR16 serving-radio
//!   counter (current channel only) and the MR18 dedicated scanning radio
//!   (5 ms dwell per channel, 3-minute aggregates);
//! * [`spectrum`] — a USRP-style FFT spectrum synthesizer regenerating the
//!   Figure 11 waterfalls.
//!
//! The models are deliberately *generative*: they are parameterized by the
//! marginal statistics the paper publishes and produce raw per-device
//! counters, which the analytics crate then re-aggregates — so a failure to
//! reproduce a figure is a real bug somewhere in the pipeline, not a
//! tautology.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod airtime;
pub mod band;
pub mod interference;
pub mod link;
pub mod neighbors;
pub mod phy;
pub mod propagation;
pub mod scanner;
pub mod spectrum;

pub use airtime::AirtimeLedger;
pub use band::{Band, Channel};
pub use link::{LinkModel, ProbeLink};
pub use phy::Capabilities;
pub use propagation::{Environment, PathLoss};
