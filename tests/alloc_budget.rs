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
//! | hash-keyed index, APs built at first poll | 3.969 (79 370) | 1 123.0 (22 460 428) |
//!
//! Building an AP at its first poll trades the agent queue a shed AP no
//! longer allocates for one `Box` per polled AP and the hash index's
//! growth, so the count barely moves while the bytes fall.
//!
//! A growing `realloc` counts as an allocation of its new size
//! (`tests/counting/mod.rs`, shared with `alloc_budget_campaign.rs`). The
//! budgets below are PR 23's values rounded up — 49 % and 21 % of the
//! parent's. This file holds exactly one `#[test]`: a second test
//! would run on a second thread and allocate into the same counters.

mod counting;

use airstat::sim::{run_fleet_campaign, FleetCampaignConfig};

use counting::{counted, Counting};

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
    let (run, allocations, bytes) = counted(|| run_fleet_campaign(&config));
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
