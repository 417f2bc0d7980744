//! Debugging at scale: the §6.1 Manhattan bug, end to end.
//!
//! "We received reports of a small number of access points rebooting
//! either minutes or hours after booting ... These access points
//! eventually rebooted due to an out-of-memory error (not at the same
//! point in the code) ... some of the access points were located in
//! skyscrapers in Manhattan and could decode beacons from miles away."
//!
//! This example runs a fleet whose firmware grows its neighbour table
//! without bound, collects the resulting crash telemetry, and shows how
//! the backend's signature aggregation localizes the bug: the OOM
//! signature scatters across program counters (heap exhaustion) and the
//! affected devices correlate with extreme neighbour density.
//!
//! ```text
//! cargo run --release --example fleet_debugging
//! ```

use airstat::rf::band::Band;
use airstat::sim::engine::sample_census;
use airstat::sim::world::{NeighborEpoch, World};
use airstat::stats::SeedTree;
use airstat::telemetry::crash::{
    CrashAggregator, CrashReport, CrashSignature, DeviceMemory, RebootReason,
};
use rand::Rng;

fn main() {
    let seed = SeedTree::new(0xDEB6);
    let world = World::generate(&seed, 400, 0);
    let mut rng = seed.child("fleet").rng();
    let mut aggregator = CrashAggregator::new();
    let mut dense_crashers = Vec::new();

    for ap in &world.aps {
        // The buggy firmware keeps one table entry per BSSID ever heard
        // and never evicts. Stationary networks cost a one-time insert,
        // but churning BSSIDs — personal hotspots passing by, or the
        // paper's AP riding a bus between cities — accumulate forever.
        // Run a day of 15-minute scan cycles with ~5% of heard BSSIDs
        // being new each cycle.
        let mut memory = DeviceMemory::mr16();
        memory.set_clients(rng.gen_range(5..60));
        let census = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
        let heard = u64::from(census.count_on_band(Band::Ghz2_4))
            + u64::from(census.count_on_band(Band::Ghz5));
        let mut crashed_at = None;
        memory.grow_neighbor_table(heard);
        for cycle in 1..96u64 {
            let churn = ((heard as f64) * 0.05).ceil() as u64;
            if !memory.grow_neighbor_table(churn) {
                crashed_at = Some(cycle * 15 * 60);
                break;
            }
        }
        if let Some(uptime_s) = crashed_at {
            // OOM kills whatever allocation happens to fail: the program
            // counter scatters across the codebase.
            aggregator.ingest(CrashReport {
                device: ap.device_id,
                firmware: "mr16-25.9".into(),
                reason: RebootReason::OutOfMemory,
                program_counter: 0x40_0000 + rng.gen_range(0u64..0x8_0000),
                uptime_s,
                free_memory_bytes: memory.free_bytes(),
            });
            dense_crashers.push((ap.device_id, ap.density, heard, uptime_s));
        }
        // Background churn so the dashboard is realistic.
        if rng.gen::<f64>() < 0.02 {
            aggregator.ingest(CrashReport {
                device: ap.device_id,
                firmware: "mr16-25.9".into(),
                reason: RebootReason::Requested,
                program_counter: 0,
                uptime_s: 86_400,
                free_memory_bytes: 20 << 20,
            });
        }
    }

    println!(
        "fleet of {} APs produced {} crash reports\n",
        world.aps.len(),
        aggregator.crash_count()
    );
    println!("crash triage dashboard (by signature):");
    for (signature, count) in aggregator.by_signature() {
        let pcs = aggregator.distinct_pcs(&signature);
        let devices = aggregator.affected_devices(&signature);
        let verdict = if aggregator.looks_like_heap_exhaustion(&signature, 3) {
            "  <-- scattered PCs: heap exhaustion, not a code-site bug"
        } else {
            ""
        };
        println!(
            "  {} / {}: {count} crashes, {devices} devices, {pcs} distinct program counters{verdict}",
            signature.firmware,
            signature.reason.name(),
        );
    }

    let oom = CrashSignature {
        firmware: "mr16-25.9".into(),
        reason: RebootReason::OutOfMemory,
    };
    if aggregator.looks_like_heap_exhaustion(&oom, 3) {
        println!("\naffected devices vs neighbour environment:");
        dense_crashers.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (device, density, heard, uptime) in dense_crashers.iter().take(8) {
            println!(
                "  AP {device}: density {density:.1}x fleet mean, {heard} networks heard, \
                 rebooted after {:.1} h",
                *uptime as f64 / 3600.0
            );
        }
        let crashers = dense_crashers.len();
        let mean_density: f64 =
            dense_crashers.iter().map(|c| c.1).sum::<f64>() / crashers.max(1) as f64;
        println!(
            "\nconclusion: {crashers}/{} APs crashed; their mean neighbour density is {mean_density:.1}x \
             the fleet mean — the unbounded neighbour table is the culprit.",
            world.aps.len()
        );
        println!("fix: cap the neighbour table, evicting its oldest entries, or clear it between cycles.");
    }
}
