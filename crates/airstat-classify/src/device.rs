//! Device operating-system classification.
//!
//! §3.2: "Meraki uses a combination of MAC address prefix, DHCP
//! fingerprints, and HTTP User-Agent inspection to determine device types."
//! The Unknown row in Table 3 comes from devices the heuristics cannot
//! settle: VMs and dual-boot machines present *multiple* DHCP fingerprints
//! from one MAC, embedded Linux devices present none of the known ones, and
//! browsers sometimes present conflicting User-Agent families. The Unknown
//! share *fell* between 2014 and 2015 because the heuristics improved.
//!
//! [`DeviceClassifier`] reproduces that pipeline with explicit precedence:
//!
//! 1. conflicting DHCP fingerprints → [`OsFamily::Unknown`] immediately;
//! 2. a User-Agent match is the strongest single signal;
//! 3. a DHCP fingerprint match is next;
//! 4. OUI vendor alone resolves only vendor-locked platforms (Sony →
//!    PlayStation, RIM → BlackBerry, Apple-without-UA stays ambiguous
//!    between iOS and Mac OS X and is refined by DHCP);
//! 5. everything else is Unknown.
//!
//! The classifier is versioned: [`ClassifierVersion::V2014`] lacks several
//! rules that [`ClassifierVersion::V2015`] has (Chrome OS DHCP prints,
//! embedded-Linux OUI knowledge, better Android UA parsing), so running the
//! same population through both versions shrinks the Unknown row exactly as
//! the paper describes.

use std::borrow::Cow;

use crate::mac::{vendor_of, MacAddress, Vendor};

/// Operating-system families, matching Table 3's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OsFamily {
    /// Desktop/laptop Windows.
    Windows,
    /// Apple iOS (iPhone, iPad, iPod touch).
    AppleIos,
    /// Mac OS X.
    MacOsX,
    /// Android phones and tablets.
    Android,
    /// Chrome OS (Chromebooks).
    ChromeOs,
    /// Desktop/server/embedded Linux.
    Linux,
    /// Sony PlayStation OS.
    PlaystationOs,
    /// RIM BlackBerry.
    BlackBerry,
    /// Windows Phone / Windows Mobile.
    MobileWindows,
    /// Recognized but off-taxonomy devices (consoles other than
    /// PlayStation, printers, smart TVs, ...).
    Other,
    /// Classification failed.
    Unknown,
}

impl OsFamily {
    /// All families in Table 3 display order.
    pub const ALL: [OsFamily; 11] = [
        OsFamily::Windows,
        OsFamily::AppleIos,
        OsFamily::MacOsX,
        OsFamily::Android,
        OsFamily::Unknown,
        OsFamily::ChromeOs,
        OsFamily::Other,
        OsFamily::PlaystationOs,
        OsFamily::Linux,
        OsFamily::BlackBerry,
        OsFamily::MobileWindows,
    ];

    /// Table 3's row label.
    pub fn name(self) -> &'static str {
        match self {
            OsFamily::Windows => "Windows",
            OsFamily::AppleIos => "Apple iOS",
            OsFamily::MacOsX => "Mac OS X",
            OsFamily::Android => "Android",
            OsFamily::ChromeOs => "Chrome OS",
            OsFamily::Linux => "Linux",
            OsFamily::PlaystationOs => "Sony Playstation OS",
            OsFamily::BlackBerry => "RIM BlackBerry",
            OsFamily::MobileWindows => "Mobile Windows OSes",
            OsFamily::Other => "Other",
            OsFamily::Unknown => "Unknown",
        }
    }

    /// Whether this family denotes a handheld/mobile platform — used for
    /// the paper's mobile-vs-desktop comparisons (download ratios, §3.2).
    pub fn is_mobile(self) -> bool {
        matches!(
            self,
            OsFamily::AppleIos | OsFamily::Android | OsFamily::BlackBerry | OsFamily::MobileWindows
        )
    }
}

/// A DHCP option fingerprint (parameter-request-list pattern).
///
/// Real fingerprints are option-number sequences; a closed enumeration of
/// the pattern *classes* keeps the simulation honest without shipping a
/// fingerprint corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DhcpFingerprint {
    /// Windows DHCP stack (NetBIOS options requested).
    WindowsStyle,
    /// Apple iOS stack.
    IosStyle,
    /// Mac OS X stack.
    MacStyle,
    /// Android (dhcpcd) stack.
    AndroidStyle,
    /// Chrome OS stack.
    ChromeOsStyle,
    /// Generic Linux dhclient/systemd.
    LinuxStyle,
    /// PlayStation network stack.
    PlaystationStyle,
    /// BlackBerry stack.
    BlackBerryStyle,
    /// Windows Phone stack.
    MobileWindowsStyle,
    /// A pattern the corpus does not contain.
    Unrecognized,
}

/// Everything the AP learned about one client.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceEvidence {
    /// The client MAC (always present).
    pub mac: Option<MacAddress>,
    /// DHCP fingerprints seen from this MAC. More than one distinct
    /// fingerprint means a VM or dual-boot host.
    pub dhcp: Vec<DhcpFingerprint>,
    /// HTTP User-Agent strings observed on the slow path. A string the
    /// program knows at compile time is borrowed, not copied.
    pub user_agents: Vec<Cow<'static, str>>,
}

/// Ruleset generation, matching the two measurement windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierVersion {
    /// January 2014 heuristics.
    V2014,
    /// January 2015 heuristics (recognizes more platforms).
    V2015,
}

/// The MAC + DHCP + User-Agent device classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceClassifier {
    version: ClassifierVersion,
}

impl DeviceClassifier {
    /// Creates a classifier with the given ruleset generation.
    pub fn new(version: ClassifierVersion) -> Self {
        DeviceClassifier { version }
    }

    /// Classifies a client from its accumulated evidence.
    ///
    /// ```
    /// use airstat_classify::device::{
    ///     ClassifierVersion, DeviceClassifier, DeviceEvidence, DhcpFingerprint, OsFamily,
    /// };
    ///
    /// let classifier = DeviceClassifier::new(ClassifierVersion::V2015);
    /// let evidence = DeviceEvidence {
    ///     mac: None,
    ///     dhcp: vec![DhcpFingerprint::IosStyle],
    ///     user_agents: vec!["Mozilla/5.0 (iPhone; CPU iPhone OS 8_1 like Mac OS X)".into()],
    /// };
    /// assert_eq!(classifier.classify(&evidence), OsFamily::AppleIos);
    /// ```
    pub fn classify(&self, evidence: &DeviceEvidence) -> OsFamily {
        // Rule 1: conflicting DHCP fingerprints (VM / dual boot) → Unknown.
        let fingerprint = evidence.dhcp.first().copied();
        if evidence.dhcp.iter().any(|&fp| Some(fp) != fingerprint) {
            return OsFamily::Unknown;
        }

        // Rule 2: User-Agent — strongest signal when present and coherent.
        if let Some(os) = self.classify_user_agents(&evidence.user_agents) {
            return os;
        }

        // Rule 3: single DHCP fingerprint.
        if let Some(fp) = fingerprint {
            if let Some(os) = self.classify_dhcp(fp) {
                return os;
            }
        }

        // Rule 4: OUI vendor for vendor-locked platforms.
        if let Some(mac) = evidence.mac {
            if let Some(os) = self.classify_vendor(mac) {
                return os;
            }
        }

        OsFamily::Unknown
    }

    fn classify_user_agents(&self, agents: &[Cow<'static, str>]) -> Option<OsFamily> {
        let mut hits = agents
            .iter()
            .filter_map(|ua| self.classify_one_user_agent(ua));
        let first = hits.next()?;
        if hits.all(|os| os == first) {
            Some(first)
        } else {
            // Conflicting UA families from one MAC (§3.2 calls out Chrome
            // and smartphone apps presenting multiple device types).
            Some(OsFamily::Unknown)
        }
    }

    fn classify_one_user_agent(&self, ua: &str) -> Option<OsFamily> {
        // The needles are lowercase ASCII, so the agent is lowercased once
        // — on the stack: only an agent longer than any browser sends
        // spills to a heap copy.
        let mut inline = [0u8; 160];
        let spilled;
        let lower = match inline.get_mut(..ua.len()) {
            Some(buffer) => {
                buffer.copy_from_slice(ua.as_bytes());
                buffer.make_ascii_lowercase();
                std::str::from_utf8(buffer).expect("invariant: ASCII lowercasing keeps UTF-8 valid")
            }
            None => {
                spilled = ua.to_ascii_lowercase();
                spilled.as_str()
            }
        };
        let has = |needle: &str| lower.contains(needle);
        // Order matters: more specific substrings first. "like Mac OS X"
        // appears inside iOS UAs; Android UAs contain "linux".
        if has("iphone") || has("ipad") || has("ipod") {
            return Some(OsFamily::AppleIos);
        }
        if has("android") {
            return Some(OsFamily::Android);
        }
        if has("cros") {
            // Chrome OS detection only landed in the 2015 ruleset.
            return match self.version {
                ClassifierVersion::V2015 => Some(OsFamily::ChromeOs),
                ClassifierVersion::V2014 => None,
            };
        }
        if has("windows phone") {
            return Some(OsFamily::MobileWindows);
        }
        if has("windows nt") {
            return Some(OsFamily::Windows);
        }
        if has("macintosh") || has("mac os x") {
            return Some(OsFamily::MacOsX);
        }
        if has("blackberry") {
            return Some(OsFamily::BlackBerry);
        }
        if has("playstation") {
            return Some(OsFamily::PlaystationOs);
        }
        if has("linux") {
            return Some(OsFamily::Linux);
        }
        None
    }

    fn classify_dhcp(&self, fp: DhcpFingerprint) -> Option<OsFamily> {
        match fp {
            DhcpFingerprint::WindowsStyle => Some(OsFamily::Windows),
            DhcpFingerprint::IosStyle => Some(OsFamily::AppleIos),
            DhcpFingerprint::MacStyle => Some(OsFamily::MacOsX),
            DhcpFingerprint::AndroidStyle => Some(OsFamily::Android),
            DhcpFingerprint::ChromeOsStyle => match self.version {
                ClassifierVersion::V2015 => Some(OsFamily::ChromeOs),
                // In 2014 the Chrome OS print was not in the corpus; its
                // dhclient ancestry made it look like generic Linux.
                ClassifierVersion::V2014 => Some(OsFamily::Unknown),
            },
            DhcpFingerprint::LinuxStyle => match self.version {
                ClassifierVersion::V2015 => Some(OsFamily::Linux),
                ClassifierVersion::V2014 => Some(OsFamily::Unknown),
            },
            DhcpFingerprint::PlaystationStyle => Some(OsFamily::PlaystationOs),
            DhcpFingerprint::BlackBerryStyle => Some(OsFamily::BlackBerry),
            DhcpFingerprint::MobileWindowsStyle => Some(OsFamily::MobileWindows),
            DhcpFingerprint::Unrecognized => None,
        }
    }

    fn classify_vendor(&self, mac: MacAddress) -> Option<OsFamily> {
        if mac.is_locally_administered() {
            return None; // randomized MAC carries no vendor signal
        }
        match vendor_of(mac.oui()) {
            Vendor::Sony => Some(OsFamily::PlaystationOs),
            Vendor::Rim => Some(OsFamily::BlackBerry),
            Vendor::Dropcam => Some(OsFamily::Other),
            Vendor::RaspberryPi => match self.version {
                ClassifierVersion::V2015 => Some(OsFamily::Linux),
                ClassifierVersion::V2014 => None,
            },
            // Apple without higher-layer evidence is ambiguous between iOS
            // and OS X; Intel/Samsung/etc. are multi-OS vendors.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{oui_of, Vendor};

    fn c2015() -> DeviceClassifier {
        DeviceClassifier::new(ClassifierVersion::V2015)
    }

    fn c2014() -> DeviceClassifier {
        DeviceClassifier::new(ClassifierVersion::V2014)
    }

    fn mac(vendor: Vendor) -> MacAddress {
        MacAddress::from_id(oui_of(vendor), 42)
    }

    #[test]
    fn user_agent_beats_everything() {
        let ev = DeviceEvidence {
            mac: Some(mac(Vendor::Apple)),
            dhcp: vec![DhcpFingerprint::WindowsStyle], // bootcamp!
            user_agents: vec!["Mozilla/5.0 (Windows NT 10.0; Win64)".into()],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::Windows);
    }

    #[test]
    fn conflicting_dhcp_is_unknown() {
        let ev = DeviceEvidence {
            mac: Some(mac(Vendor::Intel)),
            dhcp: vec![DhcpFingerprint::WindowsStyle, DhcpFingerprint::LinuxStyle],
            user_agents: vec!["Mozilla/5.0 (Windows NT 6.1)".into()],
        };
        // VM or dual-boot: Unknown even with a plausible UA (§3.2).
        assert_eq!(c2015().classify(&ev), OsFamily::Unknown);
    }

    #[test]
    fn duplicate_same_dhcp_is_fine() {
        let ev = DeviceEvidence {
            mac: None,
            dhcp: vec![DhcpFingerprint::IosStyle, DhcpFingerprint::IosStyle],
            user_agents: vec![],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::AppleIos);
    }

    #[test]
    fn ios_ua_not_mistaken_for_mac() {
        // iOS UAs contain "like Mac OS X"; iPhone must win.
        let ev = DeviceEvidence {
            mac: None,
            dhcp: vec![],
            user_agents: vec!["Mozilla/5.0 (iPhone; CPU iPhone OS 8_1 like Mac OS X)".into()],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::AppleIos);
    }

    #[test]
    fn android_ua_not_mistaken_for_linux() {
        let ev = DeviceEvidence {
            mac: None,
            dhcp: vec![],
            user_agents: vec!["Mozilla/5.0 (Linux; Android 5.0; Nexus 5)".into()],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::Android);
    }

    #[test]
    fn long_user_agents_match_past_the_inline_buffer() {
        // The lowercase copy is on the stack up to a fixed length and on
        // the heap beyond it; a token must be found on either side of it.
        for padding in [0, 100, 133, 134, 400] {
            let ua = format!("Mozilla/5.0 ({}; ANDROID 5.0)", "x".repeat(padding));
            let ev = DeviceEvidence {
                mac: None,
                dhcp: vec![],
                user_agents: vec![ua.clone().into()],
            };
            assert_eq!(
                c2015().classify(&ev),
                OsFamily::Android,
                "{} bytes",
                ua.len()
            );
        }
    }

    #[test]
    fn conflicting_user_agents_unknown() {
        let ev = DeviceEvidence {
            mac: None,
            dhcp: vec![],
            user_agents: vec![
                "Mozilla/5.0 (Windows NT 6.3)".into(),
                "Mozilla/5.0 (iPhone; CPU iPhone OS 8_0 like Mac OS X)".into(),
            ],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::Unknown);
    }

    #[test]
    fn dhcp_fallback_when_no_ua() {
        let ev = DeviceEvidence {
            mac: Some(mac(Vendor::Apple)),
            dhcp: vec![DhcpFingerprint::MacStyle],
            user_agents: vec![],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::MacOsX);
    }

    #[test]
    fn vendor_fallback_for_consoles() {
        let ev = DeviceEvidence {
            mac: Some(mac(Vendor::Sony)),
            dhcp: vec![],
            user_agents: vec![],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::PlaystationOs);
        assert_eq!(c2014().classify(&ev), OsFamily::PlaystationOs);
    }

    #[test]
    fn apple_oui_alone_is_ambiguous() {
        let ev = DeviceEvidence {
            mac: Some(mac(Vendor::Apple)),
            dhcp: vec![],
            user_agents: vec![],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::Unknown);
    }

    #[test]
    fn randomized_mac_has_no_vendor_signal() {
        let ev = DeviceEvidence {
            mac: Some(MacAddress::new([0x02, 0x04, 0x1F, 1, 2, 3])), // Sony-ish but local bit set
            dhcp: vec![],
            user_agents: vec![],
        };
        assert_eq!(c2015().classify(&ev), OsFamily::Unknown);
    }

    #[test]
    fn ruleset_improvement_2014_to_2015() {
        // Chrome OS: UA recognized only by 2015.
        let cros = DeviceEvidence {
            mac: None,
            dhcp: vec![],
            user_agents: vec!["Mozilla/5.0 (X11; CrOS x86_64 6457.107.0)".into()],
        };
        assert_eq!(c2015().classify(&cros), OsFamily::ChromeOs);
        // In 2014 a CrOS UA fell through to the X11/Linux bucket... but our
        // UA rule chain returns None for cros in 2014, and no other token
        // matches, so it lands Unknown.
        assert_eq!(c2014().classify(&cros), OsFamily::Unknown);

        // Embedded Linux via DHCP: 2014 ruleset treats as Unknown.
        let linux = DeviceEvidence {
            mac: None,
            dhcp: vec![DhcpFingerprint::LinuxStyle],
            user_agents: vec![],
        };
        assert_eq!(c2015().classify(&linux), OsFamily::Linux);
        assert_eq!(c2014().classify(&linux), OsFamily::Unknown);

        // Raspberry Pi via OUI: 2015 only.
        let pi = DeviceEvidence {
            mac: Some(mac(Vendor::RaspberryPi)),
            dhcp: vec![],
            user_agents: vec![],
        };
        assert_eq!(c2015().classify(&pi), OsFamily::Linux);
        assert_eq!(c2014().classify(&pi), OsFamily::Unknown);
    }

    #[test]
    fn empty_evidence_is_unknown() {
        assert_eq!(
            c2015().classify(&DeviceEvidence::default()),
            OsFamily::Unknown
        );
    }

    #[test]
    fn mobile_flag() {
        assert!(OsFamily::AppleIos.is_mobile());
        assert!(OsFamily::Android.is_mobile());
        assert!(!OsFamily::Windows.is_mobile());
        assert!(!OsFamily::PlaystationOs.is_mobile());
    }

    #[test]
    fn names_are_table3_labels() {
        assert_eq!(OsFamily::MobileWindows.name(), "Mobile Windows OSes");
        assert_eq!(OsFamily::PlaystationOs.name(), "Sony Playstation OS");
        assert_eq!(OsFamily::ALL.len(), 11);
    }
}
