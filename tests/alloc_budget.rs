//! Allocation budget for the shared-scheduler path: a count, not a clock.
//!
//! `poll_pressure` spends its time admitting, holding and shedding APs,
//! and at PR 23's parent a third of that was `malloc`/`free`/`memmove`
//! for APs that are built, admitted, evicted and torn down without one
//! poll. This binary wraps the system allocator in a counter and holds
//! one 20 000-AP `queue_pressure_fleet` campaign to a per-AP budget. The
//! count repeats exactly for a given build, so the gain stays gated on
//! any host without reading a wall clock.
//!
//! Measured per admitted AP (seed 1, 20 000 APs, release and debug alike):
//!
//! | | allocations | bytes requested |
//! |---|---|---|
//! | PR 23's parent (`54e6a33`) | 8.231 (164 611) | 5 746.3 (114 925 383) |
//! | PR 23 | 3.937 (78 744) | 1 166.6 (23 331 232) |
//!
//! A growing `realloc` counts as an allocation of its new size. The
//! budgets below are PR 23's values rounded up — 49 % and 21 % of the
//! parent's. This file holds exactly one `#[test]`: a second test
//! would run on a second thread and allocate into the same counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use airstat::sim::{run_fleet_campaign, FleetCampaignConfig};

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

const APS: u64 = 20_000;
/// Allocations per admitted AP.
const ALLOCATION_BUDGET: f64 = 4.0;
/// Bytes requested per admitted AP.
const BYTE_BUDGET: f64 = 1_200.0;

#[test]
fn fleet_campaign_stays_inside_its_per_ap_allocation_budget() {
    let config = FleetCampaignConfig {
        seed: 1,
        ..FleetCampaignConfig::queue_pressure_fleet(APS as usize)
    };
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let run = run_fleet_campaign(&config);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    assert_eq!(run.sched.admissions, APS, "every AP is admitted");

    let per_ap = (allocations as f64 / APS as f64, bytes as f64 / APS as f64);
    println!(
        "{allocations} allocations, {bytes} bytes: {:.3} allocations and {:.1} bytes per AP",
        per_ap.0, per_ap.1
    );
    assert!(
        per_ap.0 <= ALLOCATION_BUDGET,
        "{:.3} allocations per AP, budget {ALLOCATION_BUDGET}",
        per_ap.0
    );
    assert!(
        per_ap.1 <= BYTE_BUDGET,
        "{:.1} bytes requested per AP, budget {BYTE_BUDGET}",
        per_ap.1
    );
}
