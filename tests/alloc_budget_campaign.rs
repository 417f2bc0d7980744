//! Allocation budget for the campaign path: a count, not a clock.
//!
//! `campaign_report` is the batch user's whole path, and at PR 24's
//! parent 18 % of its profile sat inside libc: a client's week cost 51
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
//!
//! A growing `realloc` counts as an allocation of its new size. This
//! file holds exactly one `#[test]`: a second test would run on a second
//! thread and allocate into the same counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use airstat::sim::{FleetConfig, FleetSimulation, MeasurementYear};

/// Allocations (and growing reallocations) and the bytes they requested.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per client.
const ALLOCATION_BUDGET: f64 = 52.0;
/// Bytes requested per client.
const BYTE_BUDGET: f64 = 9_000.0;

#[test]
fn campaign_stays_inside_its_per_client_allocation_budget() {
    let config = FleetConfig {
        seed: 1,
        threads: 1,
        ..FleetConfig::paper(0.003)
    };
    let clients = config.clients(MeasurementYear::Y2014) + config.clients(MeasurementYear::Y2015);
    let simulation = FleetSimulation::new(config);
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let output = simulation.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
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
