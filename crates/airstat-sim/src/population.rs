//! Client populations: who connects, on what hardware, using how much.
//!
//! Encodes the year-specific marginals behind Tables 3 and 4:
//!
//! * the OS mix (client-count shares), back-projected for 2014 through the
//!   growth column of Table 3;
//! * per-OS weekly volume profiles (log-normal, fit so the *mean* matches
//!   the MB/client column — usage is heavy-tailed, §6.2: "a subset of
//!   clients driving most of the usage");
//! * the capability evolution of Table 4 (11ac 2.5% → 18%, 5 GHz 48.9% →
//!   64.9%, 40 MHz 23.4% → 63.8%, multi-stream growth);
//! * classifier *evidence* per client: rather than stamping the OS on the
//!   record, the generator emits a MAC with a plausible OUI, DHCP
//!   fingerprints and User-Agent strings, and the pipeline then runs the
//!   real [`DeviceClassifier`](airstat_classify::DeviceClassifier) — so Unknown rows arise from genuine
//!   ambiguity (VM fingerprints, embedded devices) exactly as in the
//!   paper.

use airstat_classify::device::{DeviceEvidence, DhcpFingerprint, OsFamily};
use airstat_classify::mac::{oui_of, MacAddress, Oui, Vendor};

use airstat_rf::phy::{Capabilities, Generation};
use airstat_stats::dist::{LogNormal, WeightedIndex};
use rand::Rng;

use crate::config::MeasurementYear;

/// Ground truth about one generated client (what the simulator knows;
/// the pipeline only ever sees the evidence).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientTruth {
    /// The actual platform.
    pub os: OsFamily,
    /// MAC address presented on the air.
    pub mac: MacAddress,
    /// Advertised capabilities.
    pub caps: Capabilities,
    /// Weekly traffic budget in bytes.
    pub weekly_bytes: u64,
    /// Classifier evidence the AP accumulates.
    pub evidence: DeviceEvidence,
    /// Whether this client is an always-on embedded device (cameras,
    /// consoles idling) as opposed to a human-carried one — affects the
    /// diurnal activity profile.
    pub always_on: bool,
}

/// Per-OS population marginals for one year.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OsMarginal {
    os: OsFamily,
    /// Client count at full scale.
    clients: f64,
    /// Mean weekly bytes per client (MB).
    mb_per_client: f64,
}

/// Table 3's 2015 column (clients, MB/client).
const MARGINALS_2015: &[OsMarginal] = &[
    OsMarginal {
        os: OsFamily::Windows,
        clients: 822_761.0,
        mb_per_client: 751.0,
    },
    OsMarginal {
        os: OsFamily::AppleIos,
        clients: 2_550_379.0,
        mb_per_client: 224.0,
    },
    OsMarginal {
        os: OsFamily::MacOsX,
        clients: 313_976.0,
        mb_per_client: 1_487.0,
    },
    OsMarginal {
        os: OsFamily::Android,
        clients: 1_535_859.0,
        mb_per_client: 121.0,
    },
    OsMarginal {
        os: OsFamily::Unknown,
        clients: 228_182.0,
        mb_per_client: 357.0,
    },
    OsMarginal {
        os: OsFamily::ChromeOs,
        clients: 178_095.0,
        mb_per_client: 366.0,
    },
    OsMarginal {
        os: OsFamily::Other,
        clients: 13_969.0,
        mb_per_client: 1_951.0,
    },
    OsMarginal {
        os: OsFamily::PlaystationOs,
        clients: 4_267.0,
        mb_per_client: 5_319.0,
    },
    OsMarginal {
        os: OsFamily::Linux,
        clients: 4_402.0,
        mb_per_client: 1_393.0,
    },
    OsMarginal {
        os: OsFamily::BlackBerry,
        clients: 13_681.0,
        mb_per_client: 11.0,
    },
    OsMarginal {
        os: OsFamily::MobileWindows,
        clients: 4_943.0,
        mb_per_client: 26.0,
    },
];

/// Table 3's client-count growth (% increase), used to back-project 2014.
fn client_growth(os: OsFamily) -> f64 {
    match os {
        OsFamily::Windows => 0.28,
        OsFamily::AppleIos => 0.34,
        OsFamily::MacOsX => 0.24,
        OsFamily::Android => 0.61,
        OsFamily::Unknown => -0.089,
        OsFamily::ChromeOs => 2.22,
        OsFamily::Other => -0.33,
        OsFamily::PlaystationOs => -0.13,
        OsFamily::Linux => 1.65,
        OsFamily::BlackBerry => -0.53,
        OsFamily::MobileWindows => -0.42,
    }
}

/// Table 3's MB/client growth, used to back-project 2014 volumes.
fn volume_growth(os: OsFamily) -> f64 {
    match os {
        OsFamily::Windows => 0.12,
        OsFamily::AppleIos => 0.44,
        OsFamily::MacOsX => 0.17,
        OsFamily::Android => 0.69,
        OsFamily::Unknown => -0.0036,
        OsFamily::ChromeOs => 0.16,
        OsFamily::Other => 1.68,
        OsFamily::PlaystationOs => 0.77,
        OsFamily::Linux => 1.69,
        OsFamily::BlackBerry => -0.19,
        OsFamily::MobileWindows => 0.13,
    }
}

/// Heavy-tail width (log-scale sigma) of per-client weekly volume.
const VOLUME_SIGMA: f64 = 1.6;

/// A year-specific client population model.
#[derive(Debug, Clone)]
pub struct PopulationModel {
    year: MeasurementYear,
    os_choice: WeightedIndex,
    os_order: Vec<OsFamily>,
    volume: Vec<LogNormal>,
}

impl PopulationModel {
    /// Builds the model for a measurement year.
    pub fn new(year: MeasurementYear) -> Self {
        let mut weights = Vec::with_capacity(MARGINALS_2015.len());
        let mut os_order = Vec::with_capacity(MARGINALS_2015.len());
        let mut volume = Vec::with_capacity(MARGINALS_2015.len());
        for m in MARGINALS_2015 {
            let clients = match year {
                MeasurementYear::Y2015 => m.clients,
                MeasurementYear::Y2014 => m.clients / (1.0 + client_growth(m.os)),
            };
            let mb = match year {
                MeasurementYear::Y2015 => m.mb_per_client,
                MeasurementYear::Y2014 => m.mb_per_client / (1.0 + volume_growth(m.os)),
            };
            weights.push(clients);
            os_order.push(m.os);
            // Log-normal with the target *mean*: median = mean / e^(σ²/2).
            let median_bytes = mb * 1e6 / (VOLUME_SIGMA * VOLUME_SIGMA / 2.0).exp();
            volume.push(LogNormal::new(median_bytes.ln(), VOLUME_SIGMA));
        }
        PopulationModel {
            year,
            os_choice: WeightedIndex::new(weights),
            os_order,
            volume,
        }
    }

    /// Generates one client.
    pub fn sample_client<R: Rng + ?Sized>(&self, id: u64, rng: &mut R) -> ClientTruth {
        let idx = self.os_choice.sample(rng);
        let os = self.os_order[idx];
        let weekly_bytes = self.volume[idx].sample(rng).min(5e12) as u64;
        let caps = sample_capabilities(os, self.year, rng);
        let mac = sample_mac(os, id, rng);
        let evidence = sample_evidence(os, mac, rng);
        let always_on = matches!(os, OsFamily::PlaystationOs | OsFamily::Other)
            || (os == OsFamily::Unknown && rng.gen::<f64>() < 0.5)
            || (os == OsFamily::Linux && rng.gen::<f64>() < 0.7);
        ClientTruth {
            os,
            mac,
            caps,
            weekly_bytes,
            evidence,
            always_on,
        }
    }
}

/// Samples Table 4-consistent capabilities for a client.
///
/// Aggregate targets per year (Table 4) with platform adjustments: phones
/// are 1–2 streams; desktops carry the 3/4-stream share; consoles and
/// embedded devices skew legacy.
pub(crate) fn sample_capabilities<R: Rng + ?Sized>(
    os: OsFamily,
    year: MeasurementYear,
    rng: &mut R,
) -> Capabilities {
    let (p_ac, p_n, p_dual, p_forty, p2, p3, p4): (f64, f64, f64, f64, f64, f64, f64) = match year {
        MeasurementYear::Y2014 => (0.025, 0.957, 0.489, 0.234, 0.077, 0.024, 0.007),
        MeasurementYear::Y2015 => (0.18, 0.977, 0.649, 0.638, 0.193, 0.038, 0.018),
    };
    // Platform multipliers on the ac / dual-band odds. Dual-band applies
    // to the *residual* probability after 802.11ac clients (which are
    // dual-band by definition), so the aggregate still hits Table 4.
    let (ac_mult, dual_mult) = match os {
        OsFamily::AppleIos | OsFamily::MacOsX => (1.5, 1.1),
        OsFamily::Android => (1.0, 0.8),
        OsFamily::Windows | OsFamily::ChromeOs => (0.9, 1.0),
        OsFamily::BlackBerry | OsFamily::MobileWindows => (0.1, 0.5),
        OsFamily::PlaystationOs | OsFamily::Other | OsFamily::Unknown | OsFamily::Linux => {
            (0.3, 0.7)
        }
    };
    let p_dual_resid = ((p_dual - p_ac) / (1.0 - p_ac)).max(0.0);
    let u: f64 = rng.gen();
    let generation = if u < p_ac * ac_mult {
        Generation::Ac
    } else if u < p_n {
        Generation::N
    } else if u < 0.999 {
        Generation::G
    } else {
        Generation::B
    };
    let dual =
        generation == Generation::Ac || rng.gen::<f64>() < (p_dual_resid * dual_mult).min(1.0);
    let forty = rng.gen::<f64>() < p_forty;
    // Spatial streams: phones cap at 2 (antenna budget), so desktops and
    // laptops carry the fleet's 3/4-stream share (Table 4's aggregates
    // are 2:19.3%, 3:3.8%, 4:1.8% in 2015 with ~78% mobile clients).
    let (q2, q3, q4) = if os.is_mobile() {
        (p2 * 0.93, 0.0, 0.0)
    } else {
        (p2 * 1.3, p3 * 4.3, p4 * 4.3)
    };
    let su: f64 = rng.gen();
    let streams = if su < q4 {
        4
    } else if su < q4 + q3 {
        3
    } else if su < q4 + q3 + q2 {
        2
    } else {
        1
    };
    Capabilities::new(generation, dual, forty, streams)
}

/// Picks a plausible OUI for the platform and derives the MAC.
fn sample_mac<R: Rng + ?Sized>(os: OsFamily, id: u64, rng: &mut R) -> MacAddress {
    let vendor = match os {
        OsFamily::AppleIos | OsFamily::MacOsX => Vendor::Apple,
        OsFamily::Android => *pick(
            rng,
            &[Vendor::Samsung, Vendor::Htc, Vendor::Motorola, Vendor::Lg],
        ),
        OsFamily::Windows => *pick(rng, &[Vendor::Intel, Vendor::Dell, Vendor::Hp]),
        OsFamily::ChromeOs => *pick(rng, &[Vendor::Google, Vendor::Intel]),
        OsFamily::Linux => *pick(rng, &[Vendor::RaspberryPi, Vendor::Intel]),
        OsFamily::PlaystationOs => Vendor::Sony,
        OsFamily::BlackBerry => Vendor::Rim,
        OsFamily::MobileWindows => Vendor::Microsoft,
        OsFamily::Other => *pick(rng, &[Vendor::Dropcam, Vendor::Sony, Vendor::Microsoft]),
        OsFamily::Unknown => *pick(rng, &[Vendor::Intel, Vendor::Dell, Vendor::Hp]),
    };
    let oui: Oui = oui_of(vendor);
    MacAddress::from_id(oui, id)
}

fn pick<'a, T, R: Rng + ?Sized>(rng: &mut R, options: &'a [T]) -> &'a T {
    &options[rng.gen_range(0..options.len())]
}

/// Builds the classifier evidence one AP would accumulate for a client.
///
/// Most clients present coherent evidence; the deliberate imperfections:
///
/// * ~2% of laptops/desktops run VMs and present **two** DHCP fingerprints
///   (→ Unknown, §3.2);
/// * embedded devices (Unknown ground truth) present unrecognized DHCP
///   patterns and no User-Agent;
/// * a fraction of clients never browse, so the AP has DHCP evidence only.
pub(crate) fn sample_evidence<R: Rng + ?Sized>(
    os: OsFamily,
    mac: MacAddress,
    rng: &mut R,
) -> DeviceEvidence {
    let (fingerprint, ua): (DhcpFingerprint, Option<&'static str>) = match os {
        OsFamily::Windows => (
            DhcpFingerprint::WindowsStyle,
            Some("Mozilla/5.0 (Windows NT 6.1; Win64; x64) AppleWebKit/537.36"),
        ),
        OsFamily::AppleIos => (
            DhcpFingerprint::IosStyle,
            Some("Mozilla/5.0 (iPhone; CPU iPhone OS 8_1_2 like Mac OS X) Version/8.0 Safari"),
        ),
        OsFamily::MacOsX => (
            DhcpFingerprint::MacStyle,
            Some("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10_1) Safari/600.2.5"),
        ),
        OsFamily::Android => (
            DhcpFingerprint::AndroidStyle,
            Some("Mozilla/5.0 (Linux; Android 4.4.4; SM-G900V) Chrome/39.0 Mobile"),
        ),
        OsFamily::ChromeOs => (
            DhcpFingerprint::ChromeOsStyle,
            Some("Mozilla/5.0 (X11; CrOS x86_64 6457.107.0) Chrome/40.0"),
        ),
        OsFamily::Linux => (DhcpFingerprint::LinuxStyle, None),
        OsFamily::PlaystationOs => (
            DhcpFingerprint::PlaystationStyle,
            Some("Mozilla/5.0 (PlayStation 4 2.03) AppleWebKit/536.26"),
        ),
        OsFamily::BlackBerry => (
            DhcpFingerprint::BlackBerryStyle,
            Some("Mozilla/5.0 (BlackBerry; U; BlackBerry 9900)"),
        ),
        OsFamily::MobileWindows => (
            DhcpFingerprint::MobileWindowsStyle,
            Some("Mozilla/5.0 (Windows Phone 8.1; ARM; Lumia 630)"),
        ),
        OsFamily::Other | OsFamily::Unknown => (DhcpFingerprint::Unrecognized, None),
    };
    let mut dhcp = vec![fingerprint];
    // VMs / dual-boot on desktop platforms (§3.2's Unknown source).
    let desktop = matches!(os, OsFamily::Windows | OsFamily::MacOsX | OsFamily::Linux);
    if desktop && rng.gen::<f64>() < 0.02 {
        let second = if fingerprint == DhcpFingerprint::WindowsStyle {
            DhcpFingerprint::LinuxStyle
        } else {
            DhcpFingerprint::WindowsStyle
        };
        dhcp.push(second);
    }
    // Some clients never browse through the AP (TLS-only apps, headless).
    let browses = match os {
        OsFamily::Other | OsFamily::Unknown | OsFamily::Linux => false,
        _ => rng.gen::<f64>() < 0.9,
    };
    let user_agents = match (browses, ua) {
        (true, Some(ua)) => vec![ua.into()],
        _ => vec![],
    };
    DeviceEvidence {
        mac: Some(mac),
        dhcp,
        user_agents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::device::ClassifierVersion;
    use airstat_classify::DeviceClassifier;
    use airstat_stats::SeedTree;
    use std::collections::HashMap;

    fn sample_population(year: MeasurementYear, n: usize, seed: u64) -> Vec<ClientTruth> {
        let model = PopulationModel::new(year);
        let mut rng = SeedTree::new(seed).child("pop").rng();
        (0..n)
            .map(|i| model.sample_client(i as u64, &mut rng))
            .collect()
    }

    #[test]
    fn os_mix_tracks_table3() {
        let clients = sample_population(MeasurementYear::Y2015, 100_000, 1);
        let mut counts: HashMap<OsFamily, usize> = HashMap::new();
        for c in &clients {
            *counts.entry(c.os).or_default() += 1;
        }
        let frac = |os| counts.get(&os).copied().unwrap_or(0) as f64 / clients.len() as f64;
        // Table 3 shares: iOS 45.7%, Android 27.5%, Windows 14.7%.
        assert!(
            (frac(OsFamily::AppleIos) - 0.457).abs() < 0.01,
            "{}",
            frac(OsFamily::AppleIos)
        );
        assert!((frac(OsFamily::Android) - 0.275).abs() < 0.01);
        assert!((frac(OsFamily::Windows) - 0.147).abs() < 0.01);
        // iOS clients ≈ 3x Windows clients (§3.2's headline).
        assert!(frac(OsFamily::AppleIos) / frac(OsFamily::Windows) > 2.5);
    }

    #[test]
    fn os_mix_2014_shifts_toward_desktop() {
        let c2014 = sample_population(MeasurementYear::Y2014, 100_000, 2);
        let c2015 = sample_population(MeasurementYear::Y2015, 100_000, 2);
        let frac = |cs: &[ClientTruth], os| {
            cs.iter().filter(|c| c.os == os).count() as f64 / cs.len() as f64
        };
        // Android and Chrome OS shares grew; BlackBerry shrank.
        assert!(frac(&c2014, OsFamily::Android) < frac(&c2015, OsFamily::Android));
        assert!(frac(&c2014, OsFamily::ChromeOs) < frac(&c2015, OsFamily::ChromeOs));
        assert!(frac(&c2014, OsFamily::BlackBerry) > frac(&c2015, OsFamily::BlackBerry));
    }

    #[test]
    fn volumes_heavy_tailed_with_correct_means() {
        let clients = sample_population(MeasurementYear::Y2015, 200_000, 3);
        // Windows mean ≈ 751 MB/week.
        let win: Vec<u64> = clients
            .iter()
            .filter(|c| c.os == OsFamily::Windows)
            .map(|c| c.weekly_bytes)
            .collect();
        let mean_mb = win.iter().sum::<u64>() as f64 / win.len() as f64 / 1e6;
        assert!(
            (mean_mb / 751.0 - 1.0).abs() < 0.25,
            "windows mean {mean_mb} MB"
        );
        // Heavy tail: median far below mean.
        let mut sorted = win.clone();
        sorted.sort_unstable();
        let median_mb = sorted[sorted.len() / 2] as f64 / 1e6;
        assert!(
            median_mb < mean_mb / 2.0,
            "median {median_mb} vs mean {mean_mb}"
        );
        // Mobile devices use far less than desktops on average.
        let ios: Vec<u64> = clients
            .iter()
            .filter(|c| c.os == OsFamily::AppleIos)
            .map(|c| c.weekly_bytes)
            .collect();
        let ios_mean = ios.iter().sum::<u64>() as f64 / ios.len() as f64 / 1e6;
        assert!(
            mean_mb > 2.0 * ios_mean,
            "windows {mean_mb} vs ios {ios_mean}"
        );
    }

    #[test]
    fn capabilities_track_table4() {
        let mut rng = SeedTree::new(4).rng();
        let n = 100_000;
        let mut ac = 0;
        let mut dual = 0;
        let mut forty = 0;
        let mut multi2 = 0;
        let model = PopulationModel::new(MeasurementYear::Y2015);
        for i in 0..n {
            let c = model.sample_client(i as u64, &mut rng);
            if c.caps.supports_ac() {
                ac += 1;
            }
            if c.caps.dual_band() {
                dual += 1;
            }
            if c.caps.forty_mhz() {
                forty += 1;
            }
            if c.caps.streams() >= 2 {
                multi2 += 1;
            }
        }
        let f = |x: i32| f64::from(x) / n as f64;
        assert!((f(ac) - 0.18).abs() < 0.05, "ac {}", f(ac));
        assert!((f(dual) - 0.649).abs() < 0.06, "dual {}", f(dual));
        assert!((f(forty) - 0.638).abs() < 0.06, "forty {}", f(forty));
        // Two+ streams ≈ 19.3 + 3.8 + 1.8 ≈ 25%, reduced a bit by the
        // mobile two-stream cap.
        assert!(
            f(multi2) > 0.15 && f(multi2) < 0.30,
            "streams {}",
            f(multi2)
        );
    }

    #[test]
    fn capabilities_grow_year_over_year() {
        let mut rng = SeedTree::new(5).rng();
        let n = 50_000;
        let mut count_ac = |year| {
            let model = PopulationModel::new(year);
            (0..n)
                .filter(|&i| model.sample_client(i as u64, &mut rng).caps.supports_ac())
                .count() as f64
                / n as f64
        };
        let ac14 = count_ac(MeasurementYear::Y2014);
        let ac15 = count_ac(MeasurementYear::Y2015);
        assert!(ac14 < 0.08, "2014 ac {ac14}");
        assert!(ac15 > 2.0 * ac14, "ac grew {ac14} -> {ac15}");
    }

    #[test]
    fn classifier_recovers_most_ground_truth() {
        let clients = sample_population(MeasurementYear::Y2015, 50_000, 6);
        let classifier = DeviceClassifier::new(ClassifierVersion::V2015);
        let mut correct = 0usize;
        let mut unknown = 0usize;
        for c in &clients {
            let got = classifier.classify(&c.evidence);
            if got == c.os {
                correct += 1;
            }
            if got == OsFamily::Unknown {
                unknown += 1;
            }
        }
        let accuracy = correct as f64 / clients.len() as f64;
        let unknown_frac = unknown as f64 / clients.len() as f64;
        assert!(accuracy > 0.85, "accuracy {accuracy}");
        // The Unknown row is ~4% in Table 3; ours should be mid-single-digit.
        assert!(
            unknown_frac > 0.01 && unknown_frac < 0.12,
            "unknown {unknown_frac}"
        );
    }

    #[test]
    fn unknown_row_shrinks_with_ruleset_upgrade() {
        let clients = sample_population(MeasurementYear::Y2015, 50_000, 7);
        let count_unknown = |v| {
            let classifier = DeviceClassifier::new(v);
            clients
                .iter()
                .filter(|c| classifier.classify(&c.evidence) == OsFamily::Unknown)
                .count()
        };
        let old = count_unknown(ClassifierVersion::V2014);
        let new = count_unknown(ClassifierVersion::V2015);
        assert!(new < old, "unknowns must shrink: {old} -> {new}");
    }

    #[test]
    fn macs_are_unique_per_id() {
        let model = PopulationModel::new(MeasurementYear::Y2015);
        let mut rng = SeedTree::new(8).rng();
        let macs: std::collections::HashSet<MacAddress> = (0..10_000)
            .map(|i| model.sample_client(i, &mut rng).mac)
            .collect();
        assert_eq!(macs.len(), 10_000);
    }

    #[test]
    fn consoles_are_always_on() {
        let clients = sample_population(MeasurementYear::Y2015, 50_000, 9);
        for c in clients.iter().filter(|c| c.os == OsFamily::PlaystationOs) {
            assert!(c.always_on);
        }
        // Phones are not.
        assert!(clients
            .iter()
            .filter(|c| c.os == OsFamily::AppleIos)
            .all(|c| !c.always_on));
    }
}
