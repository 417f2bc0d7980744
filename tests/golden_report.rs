//! Golden report bytes: the rendered paper report, pinned by digest.
//!
//! Every other byte-identity test in this repository compares two paths
//! through the *same* build (threads, shards, backends, persist→resume),
//! and the benchmark's per-rep oracle is derived from the same simulation
//! it checks — so none of them can see a change that moves the bytes of
//! every path at once, such as classifier drift. These constants were
//! captured on the commit *before* the application ruleset was compiled
//! into its first-match-wins index; they change only when a PR means to
//! change what the paper tables say, and that PR must say so.

use airstat::core::PaperReport;
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::stats::rng::fnv1a;

/// `(seed, fnv1a(report), report bytes, reports ingested, wire bytes)`.
const GOLDEN: [(u64, u64, usize, u64, u64); 2] = [
    (1, 10182680452425768850, 20117, 14390, 4874747),
    (7, 13591530433038007572, 20025, 13045, 4658635),
];

#[test]
fn rendered_report_digest_is_pinned_for_two_seeds() {
    for (seed, digest, len, reports, wire_bytes) in GOLDEN {
        let config = FleetConfig {
            seed,
            threads: 1,
            shards: 8,
            ..FleetConfig::paper(0.002)
        };
        let output = FleetSimulation::new(config.clone()).run();
        let text = PaperReport::from_simulation(&output, &config).to_string();
        assert_eq!(
            (
                fnv1a(text.as_bytes()),
                text.len(),
                output.reports_ingested(),
                output.run.bytes_encoded
            ),
            (digest, len, reports, wire_bytes),
            "seed {seed}: report bytes moved"
        );
    }
}
