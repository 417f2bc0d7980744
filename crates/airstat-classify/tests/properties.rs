//! Property tests for the classifiers.
//!
//! Key invariants: classification is total (every flow gets an app, every
//! evidence set gets an OS), deterministic, and stable under irrelevant
//! perturbations (case of hostnames, duplicated evidence). The 2015 device
//! ruleset never does *worse* than 2014 (it only turns Unknowns into known
//! families, never the reverse).

use std::borrow::Cow;

use airstat_classify::apps::{ContentHint, FlowMetadata, RuleSet, Transport};
use airstat_classify::device::{ClassifierVersion, DeviceClassifier, DhcpFingerprint, OsFamily};
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
    fn mac_parse_roundtrip(bytes in any::<[u8; 6]>()) {
        let mac = MacAddress::new(bytes);
        let parsed: MacAddress = mac.to_string().parse().unwrap();
        prop_assert_eq!(parsed, mac);
    }
}
