//! # airstat-classify — device and application classification
//!
//! The paper's usage tables (§3) rest on two classifiers running on the
//! access point's Click-router fast path:
//!
//! * **Device/OS classification** (Table 3): a combination of MAC address
//!   OUI prefix, DHCP option fingerprints, and HTTP `User-Agent` inspection
//!   assigns each client an operating system. The classifiers are imperfect
//!   by design — devices presenting multiple DHCP fingerprints (VMs,
//!   dual-boot) or embedded Linux boxes land in *Unknown*, and the paper
//!   explicitly notes the Unknown row *shrank* year-over-year because the
//!   heuristics improved. [`device`] reproduces the mechanism, including a
//!   versioned ruleset so the 2014 and 2015 measurement windows classify
//!   with different fidelity.
//! * **Application classification** (Tables 5/6): rules over initial DNS
//!   lookups, HTTP Host headers, TLS SNI, and port numbers map each flow
//!   to an application (100 rules in the 2015 set and 94 in the 2014 set,
//!   against the paper's "about 200"); applications roll up into categories
//!   ("Video & music", "File sharing", ...). Flows matching no rule fall
//!   into the Miscellaneous buckets that dominate Table 5. [`apps`]
//!   implements the rule engine and both rulesets.
//!
//! Both classifiers are pure functions over evidence structs, so the
//! telemetry pipeline can run them at "the edge" (inside the simulated AP)
//! exactly where the real system runs them. The simulator classifies each
//! flow once and adds its bytes to the client's per-application counters,
//! the per-(MAC, application) state §2.1 keeps on the AP's fast path.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apps;
pub mod device;
pub mod mac;

pub use apps::{AppCategory, Application, FlowMetadata, RuleSet};
pub use device::{DeviceClassifier, DeviceEvidence, OsFamily};
pub use mac::MacAddress;
