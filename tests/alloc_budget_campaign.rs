//! Allocation budget for the campaign path: a count, not a clock.
//!
//! `campaign_report` is the batch user's whole path, and at PR 24's
//! parent a fifth of its profile sat inside libc: a client's week cost 51
//! allocations — two `String`s per flow host, a `Vec` per decoded
//! record, clones and lowercase copies in the device classifier, tree
//! nodes the flow table freed for every client, and a second ordered
//! copy of every stored key in a dirty ledger no seal or persist had a
//! baseline to read against. This binary wraps the system allocator in
//! a counter and holds one `FleetSimulation::run` at the benchmark's
//! `paper(0.003)` (28 940 clients, every panel, 8 shards, one thread) to
//! a per-client budget. The count repeats exactly for a given build, so
//! the gain stays gated on any host without reading a wall clock.
//!
//! Measured per client (seed 1, release and debug alike):
//!
//! | | allocations | bytes requested |
//! |---|---|---|
//! | PR 24's parent (`dcc6844`) | 51.450 (1 488 964) | 7 048.7 (203 988 794) |
//! | PR 24 | 11.271 (326 183) | 2 718.1 (78 662 292) |
//! | `60695c1`, before the typed record decoders | 11.271 (326 182) | 2 715.8 (78 596 012) |
//! | the typed record decoders | 9.317 (269 634) | 2 202.5 (63 741 132) |
//!
//! A growing `realloc` counts as an allocation of its new size. The
//! typed record decoders dropped the wire decoder's per-report list of
//! record bodies and its per-record field scratch, and allocate each
//! payload once at its final length. The budgets below are their values
//! rounded up, the way the earlier budgets were. What is left, by sampled call site
//! (`docs/perf-log/PR-24.md`): one `String` and its copy per
//! miscellaneous-bucket hostname, a client's two evidence `Vec`s, one
//! payload `Vec` per decoded report, and the store's row-table nodes.
//! This file holds exactly one `#[test]`: a second test would run on a
//! second thread and allocate into the same counters.

mod counting;

use airstat::sim::{FleetConfig, FleetSimulation, MeasurementYear};

use counting::{counted, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per client.
const ALLOCATION_BUDGET: f64 = 10.0;
/// Bytes requested per client.
const BYTE_BUDGET: f64 = 2_300.0;

#[test]
fn campaign_stays_inside_its_per_client_allocation_budget() {
    let config = FleetConfig {
        seed: 1,
        threads: 1,
        ..FleetConfig::paper(0.003)
    };
    let clients = config.clients(MeasurementYear::Y2014) + config.clients(MeasurementYear::Y2015);
    let simulation = FleetSimulation::new(config);
    let (output, allocations, bytes) = counted(|| simulation.run());
    assert_eq!(clients, 28_940, "the benchmark's fleet");
    assert!(output.reports_ingested() > 0);

    let per_client = (
        allocations as f64 / clients as f64,
        bytes as f64 / clients as f64,
    );
    println!(
        "{allocations} allocations, {bytes} bytes: {:.3} allocations and {:.1} bytes per client",
        per_client.0, per_client.1
    );
    assert!(
        per_client.0 <= ALLOCATION_BUDGET,
        "{:.3} allocations per client, budget {ALLOCATION_BUDGET}",
        per_client.0
    );
    assert!(
        per_client.1 <= BYTE_BUDGET,
        "{:.1} bytes requested per client, budget {BYTE_BUDGET}",
        per_client.1
    );
}
