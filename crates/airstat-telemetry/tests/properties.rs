//! Property tests for the telemetry pipeline.
//!
//! Invariants: the wire format round-trips every representable report; the
//! backend is idempotent under retransmission; MAC aggregation is
//! permutation-invariant (the order reports arrive in never changes a
//! total); and the lossy transport with retransmission eventually delivers
//! every report exactly once.

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;
use airstat_classify::mac::MacAddress;
use airstat_rf::band::{Band, Channel, CHANNELS_2_4, CHANNELS_5};
use airstat_rf::phy::{Capabilities, Generation};
use airstat_stats::SeedTree;
use airstat_telemetry::backend::{Backend, WindowId};
use airstat_telemetry::report::{
    AirtimeRecord, ChannelScanRecord, ClientInfoRecord, CrashRecord, LinkRecord, NeighborRecord,
    Report, ReportPayload, UsageRecord,
};
use airstat_telemetry::transport::{DeviceAgent, PollOutcome, Tunnel, TunnelConfig};
use proptest::prelude::*;

const W: WindowId = WindowId(2015);

fn any_band() -> impl Strategy<Value = Band> {
    prop_oneof![Just(Band::Ghz2_4), Just(Band::Ghz5)]
}

fn any_channel() -> impl Strategy<Value = Channel> {
    any_band().prop_flat_map(|band| {
        let numbers: Vec<u16> = match band {
            Band::Ghz2_4 => CHANNELS_2_4.to_vec(),
            Band::Ghz5 => CHANNELS_5.to_vec(),
        };
        prop::sample::select(numbers).prop_map(move |n| Channel::new(band, n).unwrap())
    })
}

fn any_app() -> impl Strategy<Value = Application> {
    prop::sample::select(Application::ALL.to_vec())
}

fn any_os() -> impl Strategy<Value = OsFamily> {
    prop::sample::select(OsFamily::ALL.to_vec())
}

fn any_caps() -> impl Strategy<Value = Capabilities> {
    (
        prop_oneof![
            Just(Generation::B),
            Just(Generation::G),
            Just(Generation::N),
            Just(Generation::Ac)
        ],
        any::<bool>(),
        any::<bool>(),
        1u8..=4,
    )
        .prop_map(|(g, d, f, s)| Capabilities::new(g, d, f, s))
}

fn any_mac() -> impl Strategy<Value = MacAddress> {
    any::<[u8; 6]>().prop_map(MacAddress::new)
}

fn any_payload() -> impl Strategy<Value = ReportPayload> {
    prop_oneof![
        prop::collection::vec(
            (any_mac(), any_app(), any::<u32>(), any::<u32>()).prop_map(|(mac, app, up, down)| {
                UsageRecord {
                    mac,
                    app,
                    up_bytes: u64::from(up),
                    down_bytes: u64::from(down),
                }
            }),
            0..8
        )
        .prop_map(ReportPayload::Usage),
        prop::collection::vec(
            (any_mac(), any_os(), any_caps(), any_band(), -100.0f64..0.0).prop_map(
                |(mac, os, caps, band, rssi_dbm)| ClientInfoRecord {
                    mac,
                    os,
                    caps,
                    band,
                    rssi_dbm
                }
            ),
            0..8
        )
        .prop_map(ReportPayload::ClientInfo),
        prop::collection::vec(
            (any::<u32>(), any_band(), 0u32..100, 0u32..100).prop_map(
                |(peer, band, expected, received)| LinkRecord {
                    peer_device: u64::from(peer),
                    band,
                    probes_expected: expected,
                    probes_received: received,
                }
            ),
            0..8
        )
        .prop_map(ReportPayload::Links),
        prop::collection::vec(
            (
                any_channel(),
                0u64..1_000_000,
                0u64..1_000_000,
                0u64..1_000_000
            )
                .prop_map(|(channel, elapsed, busy, wifi)| AirtimeRecord {
                    channel,
                    elapsed_us: elapsed,
                    busy_us: busy,
                    wifi_us: wifi,
                }),
            0..8
        )
        .prop_map(ReportPayload::Airtime),
        prop::collection::vec(
            (any_channel(), 0u32..200, 0u32..50).prop_map(|(channel, networks, hotspots)| {
                NeighborRecord {
                    channel,
                    networks,
                    hotspots,
                }
            }),
            0..8
        )
        .prop_map(ReportPayload::Neighbors),
        prop::collection::vec(
            (any_channel(), 0u32..1_000_000, 0u32..1_000_000, 0u32..50).prop_map(
                |(channel, util, dec, networks)| ChannelScanRecord {
                    channel,
                    utilization_ppm: util,
                    decodable_ppm: dec,
                    networks,
                }
            ),
            0..8
        )
        .prop_map(ReportPayload::ChannelScan),
        prop::collection::vec(
            (
                "[a-z0-9.-]{1,16}",
                0u8..5,
                any::<u64>(),
                any::<u64>(),
                any::<u64>()
            )
                .prop_map(|(firmware, reason, pc, uptime, free)| CrashRecord {
                    firmware,
                    reason,
                    program_counter: pc,
                    uptime_s: uptime,
                    free_memory_bytes: free,
                }),
            0..8
        )
        .prop_map(ReportPayload::Crash),
    ]
}

proptest! {
    #[test]
    fn report_wire_roundtrip(device in any::<u64>(), seq in any::<u64>(),
                             timestamp in any::<u64>(), payload in any_payload()) {
        let report = Report { device, seq, timestamp_s: timestamp, payload };
        let decoded = Report::decode(&report.encode()).unwrap();
        prop_assert_eq!(decoded, report);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must produce Ok or Err, never a panic.
        let _ = Report::decode(&bytes);
    }

    #[test]
    fn backend_idempotent_under_replay(payloads in prop::collection::vec(any_payload(), 1..6),
                                       replays in 1usize..4) {
        let build = |payloads: &[ReportPayload]| -> Backend {
            let mut backend = Backend::new();
            for (i, p) in payloads.iter().enumerate() {
                let report = Report { device: 1, seq: i as u64, timestamp_s: i as u64, payload: p.clone() };
                backend.ingest(W, &report);
            }
            backend
        };
        let reference = build(&payloads);
        // Now replay each report several times.
        let mut noisy = Backend::new();
        for (i, p) in payloads.iter().enumerate() {
            let report = Report { device: 1, seq: i as u64, timestamp_s: i as u64, payload: p.clone() };
            for _ in 0..replays {
                noisy.ingest(W, &report);
            }
        }
        prop_assert_eq!(noisy.usage_by_app(W), reference.usage_by_app(W));
        prop_assert_eq!(noisy.client_count(W), reference.client_count(W));
        prop_assert_eq!(
            noisy.latest_delivery_ratios(W, Band::Ghz2_4),
            reference.latest_delivery_ratios(W, Band::Ghz2_4)
        );
        prop_assert_eq!(
            noisy.serving_utilizations(W, Band::Ghz2_4),
            reference.serving_utilizations(W, Band::Ghz2_4)
        );
    }

    #[test]
    fn usage_totals_permutation_invariant(
        records in prop::collection::vec(
            (0u64..4, any_app(), 0u64..1000, 0u64..1000), 1..20),
        seed in any::<u64>()) {
        // Same usage records attributed to different devices in different
        // orders must aggregate identically by MAC.
        let macs: Vec<MacAddress> = (0..4).map(|i| MacAddress::new([0, 0, 0, 0, 0, i as u8])).collect();
        let mut order: Vec<usize> = (0..records.len()).collect();
        // Deterministic shuffle from the seed.
        let mut rng_state = seed;
        for i in (1..order.len()).rev() {
            rng_state = airstat_stats::rng::splitmix64(rng_state);
            order.swap(i, (rng_state % (i as u64 + 1)) as usize);
        }
        let ingest_in = |idxs: &[usize]| -> Backend {
            let mut backend = Backend::new();
            for (round, &i) in idxs.iter().enumerate() {
                let (mac_idx, app, up, down) = records[i];
                let report = Report {
                    device: round as u64 % 3, // spray across devices
                    seq: round as u64 / 3,
                    timestamp_s: 0,
                    payload: ReportPayload::Usage(vec![UsageRecord {
                        mac: macs[mac_idx as usize],
                        app,
                        up_bytes: up,
                        down_bytes: down,
                    }]),
                };
                backend.ingest(W, &report);
            }
            backend
        };
        let forward: Vec<usize> = (0..records.len()).collect();
        prop_assert_eq!(ingest_in(&forward).usage_by_app(W), ingest_in(&order).usage_by_app(W));
    }

    #[test]
    fn lossy_transport_eventually_delivers_everything(
        n_reports in 1usize..30,
        drop_prob in 0.0f64..0.9,
        seed in any::<u64>()) {
        let mut agent = DeviceAgent::new(7);
        for t in 0..n_reports {
            agent.submit(t as u64, ReportPayload::Usage(vec![UsageRecord {
                mac: MacAddress::new([0, 0, 0, 0, 0, 1]),
                app: Application::MiscWeb,
                up_bytes: 1,
                down_bytes: 1,
            }]));
        }
        let mut tunnel = Tunnel::new(TunnelConfig { drop_probability: drop_prob, poll_batch: 4 });
        let mut backend = Backend::new();
        let mut rng = SeedTree::new(seed).rng();
        // Poll until drained (bounded by a generous cap).
        for _ in 0..10_000 {
            match tunnel.poll(&mut agent, &mut rng) {
                PollOutcome::Delivered(reports) => {
                    for r in &reports {
                        backend.ingest(W, r);
                    }
                    if agent.queued() == 0 {
                        break;
                    }
                }
                PollOutcome::Lost | PollOutcome::Disconnected => {}
            }
        }
        prop_assert_eq!(agent.queued(), 0, "queue must drain");
        let rows = backend.usage_by_app(W);
        prop_assert_eq!(rows.len(), 1);
        // Exactly-once effect: every report counted exactly once.
        prop_assert_eq!(rows[0].1.total(), 2 * n_reports as u64);
    }
}

mod extended {
    use super::*;
    use airstat_telemetry::failover::{DataCenter, DualTunnel};

    proptest! {
        #[test]
        fn failover_drains_everything(n in 1usize..200, drop_p in 0.0f64..0.5,
                                      outage in any::<bool>(), seed in any::<u64>()) {
            let mut agent = DeviceAgent::new(1);
            for t in 0..n {
                agent.submit(t as u64, ReportPayload::Usage(vec![]));
            }
            let mut dual = DualTunnel::new(
                TunnelConfig { drop_probability: drop_p, poll_batch: 16 },
                2,
            );
            if outage {
                dual.outage(DataCenter::Primary);
            }
            let mut rng = SeedTree::new(seed).rng();
            let mut reports = Vec::new();
            for _ in 0..1_000_000 {
                if agent.queued() == 0 {
                    break;
                }
                if let (PollOutcome::Delivered(batch), _) = dual.poll_mode(&mut agent, &mut rng, true) {
                    reports.extend(batch);
                }
            }
            prop_assert_eq!(reports.len(), n, "every report arrives exactly once");
            // Sequence numbers are intact and unique.
            let mut seqs: Vec<u64> = reports.iter().map(|r| r.seq).collect();
            seqs.sort_unstable();
            seqs.dedup();
            prop_assert_eq!(seqs.len(), n);
        }
    }
}
