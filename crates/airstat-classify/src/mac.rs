//! MAC addresses and OUI (vendor prefix) handling.
//!
//! The backend aggregates usage **by MAC address** to handle roaming
//! (§2.3), and the device classifier's first signal is the OUI — the upper
//! three bytes identifying the interface vendor. This module provides the
//! address type, parsing/formatting, OUI extraction, locally-administered
//! detection (randomized hotspot MACs), and a small vendor registry
//! covering the vendors the paper calls out (Apple, Sony, RIM, the mobile-
//! hotspot makers Novatel/Pantech/Sierra Wireless, ...).

use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddress(pub [u8; 6]);

/// The 24-bit organizationally unique identifier prefix of a MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oui(pub [u8; 3]);

impl MacAddress {
    /// Builds an address from raw bytes.
    pub fn new(bytes: [u8; 6]) -> Self {
        MacAddress(bytes)
    }

    /// The vendor prefix.
    pub(crate) fn oui(&self) -> Oui {
        Oui([self.0[0], self.0[1], self.0[2]])
    }

    /// True if the locally-administered bit is set — randomized or
    /// software-assigned addresses (common for mobile hotspots and modern
    /// phone privacy modes), which carry no vendor information.
    pub(crate) fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Deterministically derives a MAC from a 64-bit id, for simulation.
    ///
    /// The unicast, globally-administered bits are forced so derived
    /// addresses behave like real client MACs; the OUI is taken from the
    /// provided vendor prefix.
    pub fn from_id(oui: Oui, id: u64) -> Self {
        MacAddress([
            oui.0[0] & !0x03,
            oui.0[1],
            oui.0[2],
            (id >> 16) as u8,
            (id >> 8) as u8,
            id as u8,
        ])
    }
}

impl fmt::Display for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error parsing a MAC address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("expected six colon- or dash-separated hex octets")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddress {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = if s.contains(':') {
            s.split(':').collect()
        } else {
            s.split('-').collect()
        };
        if parts.len() != 6 {
            return Err(ParseMacError);
        }
        let mut bytes = [0u8; 6];
        for (b, p) in bytes.iter_mut().zip(parts) {
            *b = u8::from_str_radix(p, 16).map_err(|_| ParseMacError)?;
        }
        Ok(MacAddress(bytes))
    }
}

/// Hardware vendors the classifier knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Apple Inc. (iPhones, iPads, Macs).
    Apple,
    /// Samsung (Android phones and tablets).
    Samsung,
    /// Sony (PlayStation consoles, Xperia phones).
    Sony,
    /// Microsoft (Surface, Xbox).
    Microsoft,
    /// Research In Motion (BlackBerry).
    Rim,
    /// Intel NICs (laptops of every OS).
    Intel,
    /// Google (Chromebooks, Nexus).
    Google,
    /// Novatel Wireless (MiFi mobile hotspots).
    Novatel,
    /// Pantech (hotspots and handsets).
    Pantech,
    /// Sierra Wireless (mobile hotspots).
    SierraWireless,
    /// HTC (Android handsets).
    Htc,
    /// Motorola (Android handsets).
    Motorola,
    /// LG (Android handsets).
    Lg,
    /// Hewlett-Packard (laptops, printers).
    Hp,
    /// Dell (laptops, desktops).
    Dell,
    /// Raspberry Pi foundation (embedded Linux).
    RaspberryPi,
    /// Nest / Dropcam cameras.
    Dropcam,
    /// Anything else.
    Other,
}

/// Representative OUI assignments. Real vendors own many prefixes; one
/// canonical prefix per vendor is enough for a closed simulation, and the
/// registry below is the single source of truth both for generation (the
/// simulator asks for a vendor's OUI) and classification (the classifier
/// looks the prefix back up).
const REGISTRY: &[(Oui, Vendor)] = &[
    (Oui([0x00, 0x03, 0x93]), Vendor::Apple),
    (Oui([0x28, 0xCF, 0xE9]), Vendor::Apple),
    (Oui([0x00, 0x16, 0x32]), Vendor::Samsung),
    (Oui([0x8C, 0x77, 0x12]), Vendor::Samsung),
    (Oui([0x00, 0x04, 0x1F]), Vendor::Sony),
    (Oui([0xFC, 0x0F, 0xE6]), Vendor::Sony),
    (Oui([0x00, 0x50, 0xF2]), Vendor::Microsoft),
    (Oui([0x7C, 0xED, 0x8D]), Vendor::Microsoft),
    (Oui([0x00, 0x1C, 0xCC]), Vendor::Rim),
    (Oui([0x00, 0x13, 0x02]), Vendor::Intel),
    (Oui([0x94, 0xEB, 0x2C]), Vendor::Google),
    (Oui([0x00, 0x15, 0xFF]), Vendor::Novatel),
    (Oui([0x00, 0x26, 0x5E]), Vendor::Pantech),
    (Oui([0x00, 0x14, 0x3E]), Vendor::SierraWireless),
    (Oui([0x00, 0x09, 0x2D]), Vendor::Htc),
    (Oui([0x00, 0x0A, 0x28]), Vendor::Motorola),
    (Oui([0x00, 0x1C, 0x62]), Vendor::Lg),
    (Oui([0x00, 0x0B, 0xCD]), Vendor::Hp),
    (Oui([0x00, 0x06, 0x5B]), Vendor::Dell),
    (Oui([0xB8, 0x27, 0xEB]), Vendor::RaspberryPi),
    (Oui([0x30, 0x8C, 0xFB]), Vendor::Dropcam),
];

/// Looks up the vendor for an OUI; unknown prefixes return [`Vendor::Other`].
pub(crate) fn vendor_of(oui: Oui) -> Vendor {
    REGISTRY
        .iter()
        .find(|(o, _)| *o == oui)
        .map(|&(_, v)| v)
        .unwrap_or(Vendor::Other)
}

/// Returns a canonical OUI for a vendor (the first registry entry).
///
/// # Panics
/// Panics for [`Vendor::Other`], which has no canonical prefix.
pub fn oui_of(vendor: Vendor) -> Oui {
    REGISTRY
        .iter()
        .find(|&&(_, v)| v == vendor)
        .map(|&(o, _)| o)
        .unwrap_or_else(|| panic!("no canonical OUI for {vendor:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let mac = MacAddress::new([0x28, 0xCF, 0xE9, 0x01, 0x02, 0x03]);
        let s = mac.to_string();
        assert_eq!(s, "28:cf:e9:01:02:03");
        assert_eq!(s.parse::<MacAddress>().unwrap(), mac);
        assert_eq!("28-CF-E9-01-02-03".parse::<MacAddress>().unwrap(), mac);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddress>().is_err());
        assert!("28:cf:e9:01:02".parse::<MacAddress>().is_err());
        assert!("zz:cf:e9:01:02:03".parse::<MacAddress>().is_err());
        assert!("28:cf:e9:01:02:03:04".parse::<MacAddress>().is_err());
    }

    #[test]
    fn oui_extraction() {
        let mac: MacAddress = "28:cf:e9:aa:bb:cc".parse().unwrap();
        assert_eq!(mac.oui(), Oui([0x28, 0xCF, 0xE9]));
        assert_eq!(vendor_of(mac.oui()), Vendor::Apple);
    }

    #[test]
    fn locally_administered_bit() {
        let local = MacAddress::new([0x02, 0, 0, 0, 0, 1]);
        assert!(local.is_locally_administered());
        let global = MacAddress::new([0x28, 0xCF, 0xE9, 0, 0, 1]);
        assert!(!global.is_locally_administered());
    }

    #[test]
    fn from_id_is_unicast_global() {
        let mac = MacAddress::from_id(oui_of(Vendor::Apple), 0xABCDEF);
        assert_eq!(mac.0[0] & 0x01, 0, "unicast");
        assert!(!mac.is_locally_administered());
        assert_eq!(vendor_of(mac.oui()), Vendor::Apple);
        assert_eq!(mac.0[3..], [0xAB, 0xCD, 0xEF]);
    }

    #[test]
    fn from_id_distinct_ids_distinct_macs() {
        let a = MacAddress::from_id(oui_of(Vendor::Intel), 1);
        let b = MacAddress::from_id(oui_of(Vendor::Intel), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_oui_maps_to_other() {
        assert_eq!(vendor_of(Oui([0xDE, 0xAD, 0xBE])), Vendor::Other);
    }

    #[test]
    fn registry_roundtrip() {
        for &(oui, vendor) in REGISTRY {
            assert_eq!(vendor_of(oui), vendor);
        }
        assert_eq!(vendor_of(oui_of(Vendor::Sony)), Vendor::Sony);
    }

    #[test]
    #[should_panic(expected = "no canonical OUI")]
    fn other_has_no_oui() {
        let _ = oui_of(Vendor::Other);
    }
}
