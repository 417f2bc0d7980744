//! Integration tests for the operational systems around the paper's
//! §6 ("Real-world experiences") and §8 (practical implications):
//! crash telemetry, channel planning, transport failover, and the dataset
//! release.

use airstat::core::export::build_release;
use airstat::core::planner::{evaluate, plan, ChannelMeasurement, PlannerStrategy};
use airstat::rf::band::{Band, Channel};
use airstat::sim::config::{WINDOW_JAN_2015, WINDOW_JUL_2014};
use airstat::sim::engine::{channel_load, diurnal, sample_census};
use airstat::sim::world::{NeighborEpoch, World};
use airstat::sim::{FleetConfig, FleetSimulation};
use airstat::stats::SeedTree;
use airstat::store::FleetQuery;
use airstat::telemetry::crash::{CrashSignature, RebootReason};

#[test]
fn fleet_run_surfaces_the_manhattan_bug() {
    // A normal campaign at modest scale: a handful of extreme-density APs
    // must OOM, and the backend's triage view must fingerprint the bug as
    // heap exhaustion (one reason, scattered program counters).
    let config = FleetConfig::paper(0.02);
    let output = FleetSimulation::new(config).run();
    let crashes = output
        .query()
        .crashes(WINDOW_JAN_2015)
        .expect("some APs must crash");
    let signature = CrashSignature {
        firmware: airstat::sim::engine::FIRMWARE_VERSION.to_string(),
        reason: RebootReason::OutOfMemory,
    };
    let affected = crashes.affected_devices(&signature);
    let fleet = (output.run.world.aps.len() as f64) as usize;
    assert!(affected > 0, "the bug must reproduce");
    assert!(
        affected * 5 < fleet,
        "\"a small number of access points\": {affected}/{fleet}"
    );
    assert!(
        crashes.looks_like_heap_exhaustion(&signature, 3),
        "scattered PCs identify heap exhaustion"
    );
    // Crashing devices live in unusually dense RF environments.
    let mean_density: f64 =
        output.run.world.aps.iter().map(|a| a.density).sum::<f64>() / fleet as f64;
    // affected_devices has no device list API; recompute via world: the
    // crashers were the census-extreme APs, which correlates with density.
    // Weak check: the fleet has outliers at all.
    let max_density = output
        .run
        .world
        .aps
        .iter()
        .map(|a| a.density)
        .fold(0.0, f64::max);
    assert!(
        max_density > 3.0 * mean_density,
        "skyscraper-grade outliers exist"
    );
}

#[test]
fn utilization_planner_beats_count_planner_at_fleet_scale() {
    let world = World::generate(&SeedTree::new(0x0b6), 200, 0);
    let mut measurements = std::collections::HashMap::new();
    let mut rng = SeedTree::new(0x0b7).rng();
    for ap in &world.aps {
        let census = sample_census(&world, ap, NeighborEpoch::Jan2015, &mut rng);
        for n in [1u16, 6, 11] {
            let channel = Channel::new(Band::Ghz2_4, n).unwrap();
            let mut util = 0.0;
            for hour in [9u64, 11, 14, 16, 10, 13] {
                util += channel_load(
                    ap,
                    &census,
                    channel,
                    NeighborEpoch::Jan2015,
                    diurnal(hour),
                    &mut rng,
                )
                .utilization();
            }
            measurements.insert(
                (ap.device_id, n),
                ChannelMeasurement {
                    networks: census.count_on(channel),
                    utilization: util / 6.0,
                },
            );
        }
    }
    let measure = |d: u64, ch: Channel| {
        measurements
            .get(&(d, ch.number))
            .copied()
            .unwrap_or_default()
    };
    let truth = |d: u64, ch: Channel| measure(d, ch).utilization;
    let by_count = plan(&world, &measure, PlannerStrategy::FewestNetworks);
    let by_util = plan(&world, &measure, PlannerStrategy::LowestUtilization);
    let cost_count = evaluate(&world, &by_count, &truth);
    let cost_util = evaluate(&world, &by_util, &truth);
    assert!(
        cost_util < cost_count,
        "utilization planning ({cost_util:.3}) must beat counting ({cost_count:.3})"
    );
}

#[test]
fn failover_during_campaign_poll() {
    use airstat::telemetry::failover::{DataCenter, DualTunnel};
    use airstat::telemetry::transport::{DeviceAgent, PollOutcome, TunnelConfig};
    use airstat::telemetry::ReportPayload;
    let mut agent = DeviceAgent::new(1);
    for t in 0..500 {
        agent.submit(t, ReportPayload::Usage(vec![]));
    }
    let mut dual = DualTunnel::new(
        TunnelConfig {
            drop_probability: 0.05,
            poll_batch: 32,
        },
        3,
    );
    dual.outage(DataCenter::Primary);
    let mut rng = SeedTree::new(0x0b8).rng();
    let mut reports = Vec::new();
    for _ in 0..1_000_000 {
        if agent.queued() == 0 {
            break;
        }
        if let (PollOutcome::Delivered(batch), _) = dual.poll_mode(&mut agent, &mut rng, true) {
            reports.extend(batch);
        }
    }
    assert_eq!(reports.len(), 500, "outage loses nothing");
    assert!(dual.served_by(DataCenter::Secondary) > 0);
}

#[test]
fn dataset_release_covers_both_windows() {
    let config = FleetConfig::smoke();
    let output = FleetSimulation::new(config.clone()).run();
    let release = build_release(
        &output.query(),
        &[(WINDOW_JUL_2014, "2014-07"), (WINDOW_JAN_2015, "2015-01")],
        1,
    );
    let (links, nearby, util) = release.row_counts();
    assert!(links > 0 && nearby > 0 && util > 0);
    assert!(release.links_csv.contains("2014-07"));
    assert!(release.links_csv.contains("2015-01"));
    // No raw device ids below the pseudonym space leak into the CSV.
    for line in release.links_csv.lines().skip(1).take(50) {
        let rx = line.split(',').nth(2).unwrap();
        assert_eq!(rx.len(), 16, "16-hex-digit pseudonyms only: {rx}");
    }
}
