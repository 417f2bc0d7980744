//! Property tests for the classifiers.
//!
//! Key invariants: classification is total (every flow gets an app, every
//! evidence set gets an OS), deterministic, and stable under irrelevant
//! perturbations (case of hostnames, duplicated evidence). The 2015 device
//! ruleset never does *worse* than 2014 (it only turns Unknowns into known
//! families, never the reverse). The flow table is held to a `BTreeMap`
//! model that has no hasher, so nothing it reports can depend on one.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use airstat_classify::apps::{Application, ContentHint, FlowMetadata, RuleSet, Transport};
use airstat_classify::device::{ClassifierVersion, DeviceClassifier, DhcpFingerprint, OsFamily};
use airstat_classify::flows::{AppUsage, Direction, FlowKey, FlowTable, Path};
use airstat_classify::mac::MacAddress;
use airstat_classify::DeviceEvidence;
use proptest::prelude::*;

fn any_fingerprint() -> impl Strategy<Value = DhcpFingerprint> {
    prop_oneof![
        Just(DhcpFingerprint::WindowsStyle),
        Just(DhcpFingerprint::IosStyle),
        Just(DhcpFingerprint::MacStyle),
        Just(DhcpFingerprint::AndroidStyle),
        Just(DhcpFingerprint::ChromeOsStyle),
        Just(DhcpFingerprint::LinuxStyle),
        Just(DhcpFingerprint::PlaystationStyle),
        Just(DhcpFingerprint::BlackBerryStyle),
        Just(DhcpFingerprint::MobileWindowsStyle),
        Just(DhcpFingerprint::Unrecognized),
    ]
}

fn any_transport() -> impl Strategy<Value = Transport> {
    prop_oneof![Just(Transport::Tcp), Just(Transport::Udp)]
}

fn any_flow() -> impl Strategy<Value = FlowMetadata> {
    (
        prop::option::of("[a-z]{1,10}\\.[a-z]{2,5}"),
        prop::option::of("[a-z]{1,10}\\.[a-z]{2,5}"),
        prop::option::of("[a-z]{1,10}\\.[a-z]{2,5}"),
        any::<u16>(),
        any_transport(),
        any::<bool>(),
        any::<bool>(),
        prop::option::of(prop_oneof![
            Just(ContentHint::Video),
            Just(ContentHint::Audio)
        ]),
    )
        .prop_map(
            |(dns, http, sni, port, transport, bt, opaque, hint)| FlowMetadata {
                dns_host: dns.map(Cow::Owned),
                http_host: http.map(Cow::Owned),
                sni: sni.map(Cow::Owned),
                dst_port: port,
                transport,
                bittorrent_handshake: bt,
                opaque_encrypted: opaque,
                content_hint: hint,
            },
        )
}

/// One call on a [`FlowTable`]. Clients, flow ids and clock steps come
/// from ranges small enough that keys are reopened, packets arrive for
/// evicted flows and `last_seen` stamps tie.
#[derive(Debug, Clone, Copy)]
enum FlowOp {
    Open {
        key: (u8, u64),
        metadata: usize,
    },
    Packet {
        key: (u8, u64),
        up: bool,
        bytes: u64,
        metadata: usize,
    },
    Finish {
        key: (u8, u64),
    },
    Flush,
}

fn any_flow_op() -> impl Strategy<Value = FlowOp> {
    let key = || (0u8..3, 0u64..4);
    let open = || (key(), 0usize..4).prop_map(|(key, metadata)| FlowOp::Open { key, metadata });
    let packet = || {
        (key(), any::<bool>(), 0u64..2_000, 0usize..4).prop_map(|(key, up, bytes, metadata)| {
            FlowOp::Packet {
                key,
                up,
                bytes,
                metadata,
            }
        })
    };
    // Opens and packets twice: they are what fills the table.
    prop_oneof![
        open(),
        open(),
        packet(),
        packet(),
        key().prop_map(|key| FlowOp::Finish { key }),
        Just(FlowOp::Flush),
    ]
}

/// What [`FlowTable`] documents, over ordered maps only.
struct FlowModel {
    capacity: usize,
    /// `(app, up, down, last_seen)` per live flow.
    flows: BTreeMap<FlowKey, (Application, u64, u64, u64)>,
    usage: BTreeMap<(MacAddress, Application), AppUsage>,
    slow: u64,
    fast: u64,
    evictions: u64,
}

impl FlowModel {
    fn retire(&mut self, key: FlowKey) {
        let (app, up, down, _) = self.flows.remove(&key).expect("retiring a live flow");
        let slot = self.usage.entry((key.client, app)).or_default();
        slot.up_bytes += up;
        slot.down_bytes += down;
    }

    /// The slow path: a new key at capacity first evicts the flow with
    /// the least `(last_seen, key)`.
    fn admit(&mut self, key: FlowKey, app: Application, now: u64) {
        self.slow += 1;
        if self.flows.len() >= self.capacity && !self.flows.contains_key(&key) {
            let victim = self
                .flows
                .iter()
                .min_by_key(|(&k, &(_, _, _, last_seen))| (last_seen, k))
                .map(|(&k, _)| k)
                .expect("capacity > 0");
            self.retire(victim);
            self.evictions += 1;
        }
        self.flows.insert(key, (app, 0, 0, now));
    }

    fn packet(
        &mut self,
        key: FlowKey,
        up: bool,
        bytes: u64,
        fallback: Application,
        now: u64,
    ) -> Path {
        let path = if self.flows.contains_key(&key) {
            self.fast += 1;
            Path::Fast
        } else {
            self.admit(key, fallback, now);
            Path::Slow
        };
        let entry = self.flows.get_mut(&key).expect("live or just admitted");
        if up {
            entry.1 += bytes;
        } else {
            entry.2 += bytes;
        }
        entry.3 = now;
        path
    }

    fn finish(&mut self, key: FlowKey) {
        self.slow += 1;
        if self.flows.contains_key(&key) {
            self.retire(key);
        }
    }

    fn flush(&mut self) -> Vec<((MacAddress, Application), AppUsage)> {
        let live: Vec<FlowKey> = self.flows.keys().copied().collect();
        for key in live {
            self.retire(key);
        }
        std::mem::take(&mut self.usage).into_iter().collect()
    }
}

proptest! {
    #[test]
    fn flow_classification_is_total_and_deterministic(flow in any_flow()) {
        let rs = RuleSet::standard_2015();
        let a = rs.classify(&flow);
        let b = rs.classify(&flow);
        prop_assert_eq!(a, b);
        // The result always has a printable name and a category.
        prop_assert!(!a.name().is_empty());
        let _ = a.category();
    }

    #[test]
    fn host_case_is_irrelevant(host in "[a-z]{1,10}\\.(com|net|org)") {
        let rs = RuleSet::standard_2015();
        let lower = rs.classify(&FlowMetadata::https(host.clone()));
        let upper = rs.classify(&FlowMetadata::https(host.to_ascii_uppercase()));
        prop_assert_eq!(lower, upper);
    }

    #[test]
    fn device_classification_total(mac_bytes in any::<[u8; 6]>(),
                                   dhcp in prop::collection::vec(any_fingerprint(), 0..4),
                                   uas in prop::collection::vec("[ -~]{0,60}", 0..3)) {
        let ev = DeviceEvidence {
            mac: Some(MacAddress::new(mac_bytes)),
            dhcp,
            user_agents: uas.into_iter().map(Cow::Owned).collect(),
        };
        let c = DeviceClassifier::new(ClassifierVersion::V2015);
        let a = c.classify(&ev);
        prop_assert_eq!(a, c.classify(&ev), "deterministic");
        prop_assert!(!a.name().is_empty());
    }

    #[test]
    fn user_agent_case_is_irrelevant(
        ua in "[ -~]{0,12}(iPhone|Android|CrOS|Windows Phone|Windows NT|Macintosh|Mac OS X|BlackBerry|PlayStation|Linux|)[ -~]{0,12}",
    ) {
        let c = DeviceClassifier::new(ClassifierVersion::V2015);
        let classify = |ua: String| {
            c.classify(&DeviceEvidence { mac: None, dhcp: vec![], user_agents: vec![Cow::Owned(ua)] })
        };
        let as_is = classify(ua.clone());
        prop_assert_eq!(classify(ua.to_ascii_lowercase()), as_is);
        prop_assert_eq!(classify(ua.to_ascii_uppercase()), as_is);
    }

    #[test]
    fn v2015_only_improves_on_v2014(mac_bytes in any::<[u8; 6]>(),
                                    dhcp in prop::collection::vec(any_fingerprint(), 0..2)) {
        // With MAC+DHCP evidence only (no free-text UAs), the newer
        // ruleset may resolve devices the old one could not, but must
        // never *change* a previously known family.
        let ev = DeviceEvidence {
            mac: Some(MacAddress::new(mac_bytes)),
            dhcp,
            user_agents: vec![],
        };
        let old = DeviceClassifier::new(ClassifierVersion::V2014).classify(&ev);
        let new = DeviceClassifier::new(ClassifierVersion::V2015).classify(&ev);
        if old != OsFamily::Unknown {
            prop_assert_eq!(old, new, "2015 must not reclassify known devices");
        }
    }

    #[test]
    fn duplicated_dhcp_evidence_is_idempotent(fp in any_fingerprint()) {
        let c = DeviceClassifier::new(ClassifierVersion::V2015);
        let once = DeviceEvidence { mac: None, dhcp: vec![fp], user_agents: vec![] };
        let thrice = DeviceEvidence { mac: None, dhcp: vec![fp, fp, fp], user_agents: vec![] };
        prop_assert_eq!(c.classify(&once), c.classify(&thrice));
    }

    #[test]
    fn two_distinct_fingerprints_always_unknown(a in any_fingerprint(), b in any_fingerprint()) {
        prop_assume!(a != b);
        let c = DeviceClassifier::new(ClassifierVersion::V2015);
        let ev = DeviceEvidence { mac: None, dhcp: vec![a, b], user_agents: vec![] };
        prop_assert_eq!(c.classify(&ev), OsFamily::Unknown);
    }

    #[test]
    fn flow_table_matches_an_ordered_map_model(
        capacity in 1usize..6,
        ops in prop::collection::vec((any_flow_op(), 0u64..3), 1..80),
    ) {
        // One hit per classification outcome the engine's flows produce.
        let metadata = [
            FlowMetadata::https("movies.netflix.com"),
            FlowMetadata::http("site1.example.com"),
            FlowMetadata::tcp(443),
            FlowMetadata::udp(3074),
        ];
        let rules = Arc::new(RuleSet::standard_2015());
        let apps = metadata.clone().map(|m| rules.classify(&m));
        let mut table = FlowTable::new(Arc::clone(&rules), capacity);
        let mut model = FlowModel {
            capacity,
            flows: BTreeMap::new(),
            usage: BTreeMap::new(),
            slow: 0,
            fast: 0,
            evictions: 0,
        };
        let flow_key = |(client, flow_id): (u8, u64)| FlowKey {
            client: MacAddress::new([2, 0, 0, 0, 0, client]),
            flow_id,
        };
        let mut now = 0;
        for (op, step) in ops {
            now += step;
            match op {
                FlowOp::Open { key, metadata: m } => {
                    prop_assert_eq!(table.open(flow_key(key), &metadata[m], now), apps[m]);
                    model.admit(flow_key(key), apps[m], now);
                }
                FlowOp::Packet { key, up, bytes, metadata: m } => {
                    let direction = if up { Direction::Up } else { Direction::Down };
                    prop_assert_eq!(
                        table.packet(flow_key(key), direction, bytes, &metadata[m], now),
                        model.packet(flow_key(key), up, bytes, apps[m], now)
                    );
                }
                FlowOp::Finish { key } => {
                    table.finish(flow_key(key), now);
                    model.finish(flow_key(key));
                }
                FlowOp::Flush => {
                    let rows: Vec<_> = table.flush().collect();
                    prop_assert_eq!(rows, model.flush());
                }
            }
            prop_assert_eq!(
                table.flow_counters(),
                (model.evictions, model.slow, model.fast, model.flows.len()),
                "after {:?} at {}", op, now
            );
        }
        let rows: Vec<_> = table.flush().collect();
        prop_assert_eq!(rows, model.flush());
    }

    #[test]
    fn mac_parse_roundtrip(bytes in any::<[u8; 6]>()) {
        let mac = MacAddress::new(bytes);
        let parsed: MacAddress = mac.to_string().parse().unwrap();
        prop_assert_eq!(parsed, mac);
    }
}
