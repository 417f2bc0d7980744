//! The paper's five design choices, each isolated on a fixed seed: the
//! claim's *shape* is asserted and the numbers EXPERIMENTS.md
//! "Ablations" quotes are pinned, so the doc cannot drift from the code.
//!
//! ```text
//! cargo test --test ablations -- --nocapture   # prints every figure
//! ```

use airstat::classify::apps::Application;
use airstat::classify::mac::MacAddress;
use airstat::core::planner::{evaluate, plan, ChannelMeasurement, PlannerStrategy};
use airstat::rf::airtime::ChannelLoad;
use airstat::rf::band::{Band, Channel};
use airstat::rf::scanner::{ScanningRadio, ServingRadio};
use airstat::sim::engine::{channel_load, diurnal, sample_census};
use airstat::sim::traffic::metadata_for;
use airstat::sim::world::{NeighborEpoch, World};
use airstat::stats::{SeedTree, SlidingRatio};
use airstat::telemetry::report::{Report, ReportPayload, UsageRecord};
use airstat::telemetry::transport::{DeviceAgent, PollOutcome, Tunnel, TunnelConfig};
use airstat::telemetry::wire::put_field_str;
use rand::Rng;
use std::collections::BTreeMap;

/// §4.2: 15 s probes over a sliding window. A longer window reports a
/// steadier ratio and answers later; 300 s halves the 60 s noise.
#[test]
fn probe_window_noise_falls_with_window_length() {
    let mut rng = SeedTree::new(0xAB1).rng();
    let std_of = |window_s: u64, rng: &mut rand::rngs::SmallRng| {
        let ratios: Vec<f64> = (0..200)
            .map(|_| {
                let mut window = SlidingRatio::new(window_s);
                for t in (0..window_s * 4).step_by(15) {
                    window.record(t, rng.gen::<f64>() < 0.7);
                }
                window.ratio().expect("the window holds probes")
            })
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (mean - 0.7).abs() < 0.01,
            "{window_s} s: biased mean {mean}"
        );
        let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / ratios.len() as f64;
        var.sqrt()
    };
    let stds = [60u64, 300, 900].map(|window_s| std_of(window_s, &mut rng));
    println!("probe window 60/300/900 s (true delivery 0.7): std {stds:.3?}");
    assert!(stds[0] > stds[1] && stds[1] > stds[2], "{stds:?}");
    assert_eq!(format!("{stds:.3?}"), "[0.221, 0.104, 0.055]");
}

/// §2: the backend regulates its own load by bounding the per-poll
/// batch; what a deep queue costs is round-trips, ⌈backlog / batch⌉.
#[test]
fn poll_batch_sets_the_round_trips_a_backlog_costs() {
    const BACKLOG: usize = 2_048;
    for batch in [8usize, 64, 512] {
        let mut agent = DeviceAgent::with_capacity(1, 2 * BACKLOG);
        for t in 0..BACKLOG as u64 {
            agent.submit(t, ReportPayload::Usage(vec![]));
        }
        let mut tunnel = Tunnel::new(TunnelConfig {
            drop_probability: 0.0,
            poll_batch: batch,
        });
        let mut rng = SeedTree::new(2).rng();
        let (mut polls, mut delivered) = (0, 0);
        while agent.queued() > 0 {
            if let PollOutcome::Delivered(reports) = tunnel.poll(&mut agent, &mut rng) {
                polls += 1;
                delivered += reports.len();
            }
        }
        println!("poll batch {batch}: {polls} round-trips drain {delivered} reports");
        assert_eq!(delivered, BACKLOG);
        assert_eq!(polls, BACKLOG.div_ceil(batch));
    }
}

/// §3.3: classifying on the AP ships a counter record; classifying in
/// the backend would ship the same record with the flow's hostname
/// riding along, and the hostname alone is as large as the record.
#[test]
fn edge_classification_halves_the_bytes_per_flow() {
    let edge_bytes = Report {
        device: 1,
        seq: 0,
        timestamp_s: 0,
        payload: ReportPayload::Usage(vec![UsageRecord {
            mac: MacAddress::new([0, 0, 0, 0, 0, 1]),
            app: Application::Netflix,
            up_bytes: 1_000,
            down_bytes: 100_000,
        }]),
    }
    .encode()
    .len();
    let metadata = metadata_for(Application::Netflix, &mut SeedTree::new(3).rng());
    let mut host_field = Vec::new();
    put_field_str(
        &mut host_field,
        1,
        metadata
            .best_host()
            .expect("Netflix flows carry a hostname"),
    );
    let raw_bytes = edge_bytes + host_field.len();
    println!("bytes per flow: edge-classified {edge_bytes} B, with raw metadata {raw_bytes} B");
    assert!(raw_bytes * 10 >= edge_bytes * 19, "less than 1.9x");
    assert_eq!((edge_bytes, raw_bytes), (21, 41));
}

/// §5.2: an MR16 measures only the channel it serves on, an MR18 sweeps
/// every channel — over one RF world they report very different "busy"
/// (the Figure 6 vs Figure 9 discrepancy).
#[test]
fn serving_radio_reports_far_busier_air_than_the_scanner() {
    let serving_channel = Channel::new(Band::Ghz2_4, 6).expect("channel 6 exists");
    let busy = ChannelLoad {
        non_wifi_duty: 0.5,
        ..ChannelLoad::idle()
    };
    let quiet = ChannelLoad {
        non_wifi_duty: 0.05,
        ..ChannelLoad::idle()
    };
    let loads = |ch: Channel| match ch {
        ch if ch == serving_channel => busy,
        ch if ch.band == Band::Ghz2_4 => quiet,
        _ => ChannelLoad::idle(),
    };
    const THREE_MINUTES_US: u64 = 180_000_000;
    let mut serving = ServingRadio::default();
    serving.observe(&busy, THREE_MINUTES_US);
    let serving_busy = serving.ledger().utilization().expect("time was observed");
    let mut scanner = ScanningRadio::new();
    scanner.run_for(THREE_MINUTES_US / 50, &loads);
    let samples = scanner.collect(&|_| 0);
    let scanner_busy = samples.iter().map(|s| s.utilization).sum::<f64>() / samples.len() as f64;
    let percent = format!("{:.0} {:.1}", serving_busy * 100.0, scanner_busy * 100.0);
    println!("same RF world, % busy: serving radio vs scanner mean {percent}");
    assert!(serving_busy > 10.0 * scanner_busy);
    assert_eq!(percent, "50 2.9");
}

/// §8: pick each AP's channel by measured utilization, not by how many
/// networks are heard on it.
#[test]
fn utilization_based_plan_beats_the_count_based_plan() {
    let world = World::generate(&SeedTree::new(0x71A9), 150, 0);
    let mut measurements = BTreeMap::new();
    let mut rng = SeedTree::new(0xAB7).rng();
    let hours = [9u64, 11, 14, 16, 10];
    for ap in &world.aps {
        let census = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
        for n in [1u16, 6, 11] {
            let channel = Channel::new(Band::Ghz2_4, n).expect("a 2.4 GHz channel");
            let utilization = hours
                .iter()
                .map(|&hour| {
                    let epoch = NeighborEpoch::Jan2015;
                    channel_load(ap, &census, channel, epoch, diurnal(hour), &mut rng).utilization()
                })
                .sum::<f64>()
                / hours.len() as f64;
            let networks = census.count_on(channel);
            let measured = ChannelMeasurement {
                networks,
                utilization,
            };
            measurements.insert((ap.device_id, n), measured);
        }
    }
    let measure = |device: u64, ch: Channel| {
        measurements
            .get(&(device, ch.number))
            .copied()
            .unwrap_or_default()
    };
    let truth = |device: u64, ch: Channel| measure(device, ch).utilization;
    let busy = |strategy| evaluate(&world, &plan(&world, &measure, strategy), &truth) * 100.0;
    let by_count = busy(PlannerStrategy::FewestNetworks);
    let by_utilization = busy(PlannerStrategy::LowestUtilization);
    println!(
        "channel plan over {} APs: count-based mean busy {by_count:.1}%, utilization-based {by_utilization:.1}%",
        world.aps.len()
    );
    assert!(by_utilization < by_count);
    assert_eq!(format!("{by_count:.1} {by_utilization:.1}"), "24.3 16.9");
}
