//! # airstat-stats — statistics substrate for the AirStat measurement suite
//!
//! This crate provides the numerical building blocks used by every other
//! AirStat crate:
//!
//! * deterministic, hierarchical random-seed derivation ([`rng::SeedTree`]),
//!   so that an entire 10,000-AP fleet simulation is reproducible from a
//!   single `u64`;
//! * heavy-tailed samplers ([`dist`]) for client usage, spatial layout and
//!   interference models (log-normal, Pareto, exponential, normal);
//! * empirical distributions ([`cdf::Ecdf`]) with quantile queries, used to
//!   regenerate every CDF figure in the paper;
//! * correlation measures ([`correlation`]) for the utilization-vs-AP-count
//!   scatter analyses (Figures 7 and 8);
//! * reservoir sampling ([`reservoir`]) for the client-RSSI snapshot
//!   (Figure 1), which in the paper is a point-in-time sample of ~309,000
//!   clients;
//! * sliding-window ratio counters ([`window`]) matching the paper's
//!   300-second probe-delivery window semantics;
//! * one fixed-key hasher ([`FixedHasher`]) for the hash maps that are
//!   read only by key.
//!
//! Everything in this crate is pure computation: no I/O, no global state,
//! no wall-clock time. All randomness is injected through [`rand::Rng`]
//! so callers control determinism.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cdf;
pub mod correlation;
pub mod dist;
mod hash;
pub mod reservoir;
pub mod rng;
pub mod summary;
pub mod window;

pub use cdf::Ecdf;
pub use hash::{BuildFixedHasher, FixedHasher};
pub use reservoir::Reservoir;
pub use rng::SeedTree;
pub use window::SlidingRatio;
