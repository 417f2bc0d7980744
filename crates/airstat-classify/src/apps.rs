//! Application classification: the flow rule engine behind Tables 5 and 6.
//!
//! §3.3: "Meraki uses several sources of information — including initial
//! DNS lookup, HTTP header inspection, SSL handshake inspection, and port
//! numbers — to determine the application underlying each new network
//! flow", applied as rule sets inside the Click router on the AP. Flows no
//! rule matches land in the *Miscellaneous* buckets (web, secure web,
//! video, audio, non-web TCP, UDP) that dominate Table 5.
//!
//! The engine here has the same shape. A [`RuleSet`] is *specified* as an
//! ordered list of matchers over [`FlowMetadata`] where the first match
//! wins and unmatched flows fall through to the misc buckets by
//! transport/port/content heuristics. That order is the semantics, not the
//! implementation: building a ruleset compiles the list once into a
//! private `RuleIndex` — per matcher kind, the lowest rule ordinal that
//! can fire — and [`RuleSet::classify`] probes it and takes the minimum
//! ordinal found, which is "first match wins" for any rule order. The
//! linear walk over the list survives only in this module's tests, as the
//! differential oracle for the index.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use airstat_stats::BuildFixedHasher;

/// Application categories, matching Table 6's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppCategory {
    /// Anything without a better home (misc web, CDNs, Google, ...).
    Other,
    /// Video and music streaming.
    VideoMusic,
    /// LAN and cloud file sharing.
    FileSharing,
    /// Social web and photo sharing.
    SocialWebPhoto,
    /// Email.
    Email,
    /// VoIP and video conferencing.
    VoipVideoConferencing,
    /// Peer-to-peer transfers.
    P2p,
    /// Software and anti-virus updates.
    SoftwareUpdates,
    /// Gaming.
    Gaming,
    /// Sports.
    Sports,
    /// News.
    News,
    /// Online backup.
    OnlineBackup,
    /// Blogging platforms.
    Blogging,
    /// Web file sharing (one-click hosters distributing via links).
    WebFileSharing,
}

impl AppCategory {
    /// All categories in Table 6 order.
    pub const ALL: [AppCategory; 14] = [
        AppCategory::Other,
        AppCategory::VideoMusic,
        AppCategory::FileSharing,
        AppCategory::SocialWebPhoto,
        AppCategory::Email,
        AppCategory::VoipVideoConferencing,
        AppCategory::P2p,
        AppCategory::SoftwareUpdates,
        AppCategory::Gaming,
        AppCategory::Sports,
        AppCategory::News,
        AppCategory::OnlineBackup,
        AppCategory::Blogging,
        AppCategory::WebFileSharing,
    ];

    /// Table 6's row label.
    pub fn name(self) -> &'static str {
        match self {
            AppCategory::Other => "Other",
            AppCategory::VideoMusic => "Video & music",
            AppCategory::FileSharing => "File sharing",
            AppCategory::SocialWebPhoto => "Social web & photo sharing",
            AppCategory::Email => "Email",
            AppCategory::VoipVideoConferencing => "VoIP & video conferencing",
            AppCategory::P2p => "Peer-to-peer (P2P)",
            AppCategory::SoftwareUpdates => "Software & anti-virus updates",
            AppCategory::Gaming => "Gaming",
            AppCategory::Sports => "Sports",
            AppCategory::News => "News",
            AppCategory::OnlineBackup => "Online backup",
            AppCategory::Blogging => "Blogging",
            AppCategory::WebFileSharing => "Web file sharing",
        }
    }
}

impl fmt::Display for AppCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! applications {
    ($( $variant:ident => ($name:expr, $category:ident) ),+ $(,)?) => {
        /// Applications the ruleset can identify, plus the miscellaneous
        /// fallback buckets. Covers the paper's entire top-40 (Table 5)
        /// and representatives for every Table 6 category.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Application {
            $(
                #[doc = $name]
                $variant,
            )+
        }

        impl Application {
            /// Every application, in declaration order.
            pub const ALL: &'static [Application] = &[
                $(Application::$variant,)+
            ];

            /// Table 5's display name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Application::$variant => $name,)+
                }
            }

            /// The category this application rolls up into (Table 6).
            pub fn category(self) -> AppCategory {
                match self {
                    $(Application::$variant => AppCategory::$category,)+
                }
            }
        }
    };
}

applications! {
    // --- the Miscellaneous buckets (top of Table 5) ---
    MiscWeb => ("Miscellaneous web", Other),
    MiscSecureWeb => ("Miscellaneous secure web", Other),
    MiscVideo => ("Miscellaneous video", VideoMusic),
    MiscAudio => ("Miscellaneous audio", VideoMusic),
    NonWebTcp => ("Non-web TCP", Other),
    UdpOther => ("UDP", Other),
    // --- named applications from Table 5 ---
    Netflix => ("Netflix", VideoMusic),
    Youtube => ("YouTube", VideoMusic),
    Itunes => ("iTunes", VideoMusic),
    WindowsFileSharing => ("Windows file sharing", FileSharing),
    Cdns => ("CDNs", Other),
    Facebook => ("Facebook", SocialWebPhoto),
    GoogleHttps => ("Google HTTPS", Other),
    AppleFileSharing => ("Apple file sharing", FileSharing),
    AppleCom => ("apple.com", Other),
    Google => ("Google", Other),
    GoogleDrive => ("Google Drive", Other),
    Dropbox => ("Dropbox", FileSharing),
    SoftwareUpdates => ("Software updates", SoftwareUpdates),
    Instagram => ("Instagram", SocialWebPhoto),
    BitTorrent => ("BitTorrent", P2p),
    Skype => ("Skype", VoipVideoConferencing),
    Pandora => ("Pandora", VideoMusic),
    Rtmp => ("RTMP (Adobe Flash)", Other),
    Gmail => ("Gmail", Email),
    MicrosoftCom => ("microsoft.com", Other),
    Tumblr => ("Tumblr", Other),
    Spotify => ("Spotify", VideoMusic),
    WindowsLiveMail => ("Windows Live Hotmail and Outlook", Email),
    Dropcam => ("Dropcam", VoipVideoConferencing),
    Hulu => ("Hulu", VideoMusic),
    Steam => ("Steam", Gaming),
    Twitter => ("Twitter", SocialWebPhoto),
    EncryptedP2p => ("Encrypted P2P", P2p),
    EncryptedTcp => ("Encrypted TCP (SSL)", Other),
    RemoteDesktop => ("Remote desktop", Other),
    Espn => ("ESPN", Sports),
    XfinityTv => ("Xfinity TV", VideoMusic),
    OtherWebmail => ("Other web-based email", Email),
    Skydrive => ("Microsoft Skydrive", FileSharing),
    // --- representatives completing the Table 6 categories ---
    XboxLive => ("Xbox Live", Gaming),
    Crashplan => ("CrashPlan", OnlineBackup),
    Backblaze => ("Backblaze", OnlineBackup),
    Wordpress => ("WordPress", Blogging),
    Blogger => ("Blogger", Blogging),
    Mediafire => ("MediaFire", WebFileSharing),
    Hotfile => ("Hotfile", WebFileSharing),
    Cnn => ("CNN", News),
    NyTimes => ("nytimes.com", News),
    Vimeo => ("Vimeo", VideoMusic),
    Twitch => ("Twitch", VideoMusic),
    Snapchat => ("Snapchat", SocialWebPhoto),
    Pinterest => ("Pinterest", SocialWebPhoto),
    YahooMail => ("Yahoo Mail", Email),
    Webex => ("WebEx", VoipVideoConferencing),
    Facetime => ("FaceTime", VoipVideoConferencing),
}

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
}

/// The slow-path metadata extracted from one flow (§2.1: DNS, TCP SYN/FIN,
/// HTTP headers and SSL handshakes are punted to the Click router).
///
/// Hostnames are `Cow<'static, str>`: a flow to a name the program knows
/// at compile time (every named application's canonical host) borrows it
/// and owns no heap; only a name built at run time is an owned `String`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMetadata {
    /// Hostname from the initial DNS lookup, if the AP saw one.
    pub dns_host: Option<Cow<'static, str>>,
    /// HTTP `Host:` header, if the flow carried plaintext HTTP.
    pub http_host: Option<Cow<'static, str>>,
    /// TLS SNI from the ClientHello, if the flow carried TLS.
    pub sni: Option<Cow<'static, str>>,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub transport: Transport,
    /// Whether BitTorrent wire-protocol markers were seen.
    pub bittorrent_handshake: bool,
    /// Whether the payload was encrypted with no readable metadata
    /// (obfuscated P2P and similar).
    pub opaque_encrypted: bool,
    /// HTTP `Content-Type` hint for the misc video/audio split.
    pub content_hint: Option<ContentHint>,
}

/// Coarse content classes from HTTP header inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentHint {
    /// `video/*` content types or HLS/DASH manifests.
    Video,
    /// `audio/*` content types.
    Audio,
}

impl FlowMetadata {
    /// A plain HTTP flow to `host` on port 80.
    pub fn http(host: impl Into<Cow<'static, str>>) -> Self {
        let host = host.into();
        FlowMetadata {
            dns_host: Some(host.clone()),
            http_host: Some(host),
            sni: None,
            dst_port: 80,
            transport: Transport::Tcp,
            bittorrent_handshake: false,
            opaque_encrypted: false,
            content_hint: None,
        }
    }

    /// A TLS flow to `host` on port 443 with SNI.
    pub fn https(host: impl Into<Cow<'static, str>>) -> Self {
        let host = host.into();
        FlowMetadata {
            dns_host: Some(host.clone()),
            http_host: None,
            sni: Some(host),
            dst_port: 443,
            transport: Transport::Tcp,
            bittorrent_handshake: false,
            opaque_encrypted: false,
            content_hint: None,
        }
    }

    /// A bare TCP flow to a port, no readable metadata.
    pub fn tcp(port: u16) -> Self {
        FlowMetadata {
            dns_host: None,
            http_host: None,
            sni: None,
            dst_port: port,
            transport: Transport::Tcp,
            bittorrent_handshake: false,
            opaque_encrypted: false,
            content_hint: None,
        }
    }

    /// A bare UDP flow to a port.
    pub fn udp(port: u16) -> Self {
        FlowMetadata {
            transport: Transport::Udp,
            ..FlowMetadata::tcp(port)
        }
    }

    /// The best hostname available: SNI beats HTTP Host beats DNS.
    pub fn best_host(&self) -> Option<&str> {
        self.sni
            .as_deref()
            .or(self.http_host.as_deref())
            .or(self.dns_host.as_deref())
    }
}

/// How a rule matches a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Matcher {
    /// Hostname equals the suffix or ends with `.suffix`.
    HostSuffix(&'static str),
    /// Destination port equals, with the given transport.
    Port(Transport, u16),
    /// BitTorrent handshake marker present.
    BitTorrentMarker,
    /// Opaque encrypted payload on a non-well-known port.
    OpaqueEncrypted,
}

/// One classification rule.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    app: Application,
    matcher: Matcher,
}

/// Ruleset version, mirroring the fingerprint updates the paper mentions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleSetVersion {
    /// January 2014 rules.
    V2014,
    /// January 2015 rules (more coverage).
    V2015,
}

/// An ordered application ruleset, compiled for lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    version: RuleSetVersion,
    rules: Vec<Rule>,
    index: RuleIndex,
}

/// The rule list compiled into lookup tables: for each matcher kind, the
/// lowest ordinal (position in the rule list) among the rules that can
/// fire. Hash maps under the fixed-key hasher: every flow probes one host
/// key per label suffix, and a hash probe beats a string-compare walk
/// down a tree of a hundred keys. Their keys are the ruleset's own, so
/// no input sizes them.
#[derive(Debug, Clone, PartialEq, Default)]
struct RuleIndex {
    // airstat::allow(no-hashmap-iter): keyed access only, never iterated
    hosts: HashMap<&'static str, usize, BuildFixedHasher>,
    /// Bit `n` set when some key of `hosts` is `n` bytes long (bit 63:
    /// 63 or more), so a suffix of a length no key has skips its probe —
    /// `com`, and most whole hostnames.
    host_lengths: u64,
    // airstat::allow(no-hashmap-iter): keyed access only, never iterated
    ports: HashMap<(Transport, u16), usize, BuildFixedHasher>,
    bittorrent_marker: Option<usize>,
    opaque_encrypted: Option<usize>,
}

/// `len`'s bit in [`RuleIndex::host_lengths`].
fn length_bit(len: usize) -> u64 {
    1 << len.min(63)
}

impl RuleIndex {
    /// Compiles `rules`, and lists every rule that can never fire as
    /// `(shadowed ordinal, ordinal of the earlier rule that shadows it)`.
    /// Shadowed rules stay out of the tables.
    fn compile(rules: &[Rule]) -> (Self, Vec<(usize, usize)>) {
        let mut index = RuleIndex::default();
        let mut shadowed = Vec::new();
        for (ordinal, rule) in rules.iter().enumerate() {
            // Rules arrive in ordinal order, so whichever rule already
            // answers for this rule's own key answers first for every flow
            // this rule matches.
            let winner = match rule.matcher {
                Matcher::HostSuffix(suffix) => match index.host(suffix) {
                    Some(earlier) => earlier,
                    None => {
                        index.host_lengths |= length_bit(suffix.len());
                        *index.hosts.entry(suffix).or_insert(ordinal)
                    }
                },
                Matcher::Port(transport, port) => {
                    *index.ports.entry((transport, port)).or_insert(ordinal)
                }
                Matcher::BitTorrentMarker => *index.bittorrent_marker.get_or_insert(ordinal),
                Matcher::OpaqueEncrypted => *index.opaque_encrypted.get_or_insert(ordinal),
            };
            if winner != ordinal {
                shadowed.push((ordinal, winner));
            }
        }
        (index, shadowed)
    }

    /// Lowest ordinal among the host rules whose suffix is the lowercase
    /// `host` itself or what follows one of its dots — the label-aligned
    /// suffixes, so `notfacebook.com` never reaches `facebook.com`.
    fn host(&self, host: &str) -> Option<usize> {
        std::iter::successors(Some(host), |rest| {
            rest.split_once('.').map(|(_, tail)| tail)
        })
        .filter(|suffix| self.host_lengths & length_bit(suffix.len()) != 0)
        .filter_map(|suffix| self.hosts.get(suffix).copied())
        .min()
    }
}

/// Host-suffix rules shared by both ruleset versions.
const HOST_RULES: &[(&str, Application)] = &[
    // Video & music.
    ("nflxvideo.net", Application::Netflix),
    ("netflix.com", Application::Netflix),
    ("youtube.com", Application::Youtube),
    ("googlevideo.com", Application::Youtube),
    ("ytimg.com", Application::Youtube),
    ("itunes.apple.com", Application::Itunes),
    ("phobos.apple.com", Application::Itunes),
    ("mzstatic.com", Application::Itunes),
    ("pandora.com", Application::Pandora),
    ("hulu.com", Application::Hulu),
    ("huluim.com", Application::Hulu),
    ("xfinity.com", Application::XfinityTv),
    ("xfinitytv.comcast.net", Application::XfinityTv),
    ("vimeo.com", Application::Vimeo),
    ("vimeocdn.com", Application::Vimeo),
    ("twitch.tv", Application::Twitch),
    ("ttvnw.net", Application::Twitch),
    // Social web & photo sharing.
    ("facebook.com", Application::Facebook),
    ("fbcdn.net", Application::Facebook),
    ("instagram.com", Application::Instagram),
    ("cdninstagram.com", Application::Instagram),
    ("twitter.com", Application::Twitter),
    ("twimg.com", Application::Twitter),
    ("pinterest.com", Application::Pinterest),
    ("pinimg.com", Application::Pinterest),
    // Google properties: order matters — specific before generic.
    ("mail.google.com", Application::Gmail),
    ("gmail.com", Application::Gmail),
    ("drive.google.com", Application::GoogleDrive),
    ("docs.google.com", Application::GoogleDrive),
    ("googleusercontent.com", Application::GoogleDrive),
    // Apple properties.
    ("swcdn.apple.com", Application::SoftwareUpdates),
    ("swdist.apple.com", Application::SoftwareUpdates),
    ("apple.com", Application::AppleCom),
    // Microsoft properties.
    ("windowsupdate.com", Application::SoftwareUpdates),
    ("update.microsoft.com", Application::SoftwareUpdates),
    ("onedrive.live.com", Application::Skydrive),
    ("skydrive.live.com", Application::Skydrive),
    ("storage.live.com", Application::Skydrive),
    ("hotmail.com", Application::WindowsLiveMail),
    ("outlook.com", Application::WindowsLiveMail),
    ("mail.live.com", Application::WindowsLiveMail),
    ("microsoft.com", Application::MicrosoftCom),
    // File sharing.
    ("dropbox.com", Application::Dropbox),
    ("dropboxstatic.com", Application::Dropbox),
    // Email (other).
    ("mail.yahoo.com", Application::YahooMail),
    // VoIP & video conferencing.
    ("skype.com", Application::Skype),
    ("skypeassets.com", Application::Skype),
    ("dropcam.com", Application::Dropcam),
    ("nexusapi.dropcam.com", Application::Dropcam),
    ("webex.com", Application::Webex),
    // Gaming.
    ("steampowered.com", Application::Steam),
    ("steamcontent.com", Application::Steam),
    ("xboxlive.com", Application::XboxLive),
    // Sports and news.
    ("espn.com", Application::Espn),
    ("espncdn.com", Application::Espn),
    ("cnn.com", Application::Cnn),
    ("nytimes.com", Application::NyTimes),
    // Backup.
    ("crashplan.com", Application::Crashplan),
    ("backblaze.com", Application::Backblaze),
    ("backblazeb2.com", Application::Backblaze),
    // Blogging.
    ("wordpress.com", Application::Wordpress),
    ("blogger.com", Application::Blogger),
    ("blogspot.com", Application::Blogger),
    // Web file sharing.
    ("mediafire.com", Application::Mediafire),
    ("hotfile.com", Application::Hotfile),
    // Tumblr.
    ("tumblr.com", Application::Tumblr),
    // CDNs.
    ("akamaihd.net", Application::Cdns),
    ("akamaized.net", Application::Cdns),
    ("cloudfront.net", Application::Cdns),
    ("edgecastcdn.net", Application::Cdns),
    ("fastly.net", Application::Cdns),
    ("llnwd.net", Application::Cdns),
];

/// Host rules only present in the 2015 ruleset — the "periodically-updated
/// fingerprints" of §3.3. Spotify and Snapchat classification landing in
/// 2015 contributes to their outsized measured growth.
const HOST_RULES_2015_ONLY: &[(&str, Application)] = &[
    ("spotify.com", Application::Spotify),
    ("scdn.co", Application::Spotify),
    ("audio-fa.spotify.com", Application::Spotify),
    ("snapchat.com", Application::Snapchat),
    ("feelinsonice.appspot.com", Application::Snapchat),
    ("facetime.apple.com", Application::Facetime),
];

impl RuleSet {
    /// Builds the January 2015 ruleset.
    pub fn standard_2015() -> Self {
        Self::build(RuleSetVersion::V2015)
    }

    /// Builds the January 2014 ruleset (smaller host corpus).
    pub fn standard_2014() -> Self {
        Self::build(RuleSetVersion::V2014)
    }

    fn build(version: RuleSetVersion) -> Self {
        let mut rules = Vec::new();
        // 1. Wire-protocol markers beat hostnames: BitTorrent over any port.
        rules.push(Rule {
            app: Application::BitTorrent,
            matcher: Matcher::BitTorrentMarker,
        });
        // 2. Host-suffix rules. Newer fingerprints are more specific
        // (facetime.apple.com vs apple.com), so they come first.
        if version == RuleSetVersion::V2015 {
            for &(host, app) in HOST_RULES_2015_ONLY {
                rules.push(Rule {
                    app,
                    matcher: Matcher::HostSuffix(host),
                });
            }
        }
        for &(host, app) in HOST_RULES {
            rules.push(Rule {
                app,
                matcher: Matcher::HostSuffix(host),
            });
        }
        // 3. Generic Google rules after all specific Google products.
        rules.push(Rule {
            app: Application::GoogleHttps,
            matcher: Matcher::HostSuffix("google.com"),
        });
        // 4. Port-based rules.
        for &(transport, port, app) in &[
            (Transport::Tcp, 445u16, Application::WindowsFileSharing),
            (Transport::Tcp, 139, Application::WindowsFileSharing),
            (Transport::Tcp, 548, Application::AppleFileSharing),
            (Transport::Tcp, 1935, Application::Rtmp),
            (Transport::Tcp, 3389, Application::RemoteDesktop),
            (Transport::Tcp, 5900, Application::RemoteDesktop),
            (Transport::Udp, 3074, Application::XboxLive),
            (Transport::Tcp, 993, Application::OtherWebmail),
            (Transport::Tcp, 143, Application::OtherWebmail),
            (Transport::Udp, 3478, Application::Skype), // STUN
        ] {
            rules.push(Rule {
                app,
                matcher: Matcher::Port(transport, port),
            });
        }
        for port in 6881..=6889u16 {
            rules.push(Rule {
                app: Application::BitTorrent,
                matcher: Matcher::Port(Transport::Tcp, port),
            });
        }
        // 5. Obfuscated P2P last among the positive rules.
        rules.push(Rule {
            app: Application::EncryptedP2p,
            matcher: Matcher::OpaqueEncrypted,
        });
        let (index, _shadowed) = RuleIndex::compile(&rules);
        RuleSet {
            version,
            rules,
            index,
        }
    }

    /// Classifies a flow. Always returns *something*: unmatched flows fall
    /// into the Miscellaneous buckets.
    ///
    /// The result is that of the first rule in list order that matches:
    /// each matcher kind reports the lowest ordinal it can fire, and the
    /// minimum over the kinds wins. No allocation unless the hostname
    /// carries an ASCII uppercase byte.
    ///
    /// ```
    /// use airstat_classify::apps::{Application, FlowMetadata, RuleSet};
    ///
    /// let rules = RuleSet::standard_2015();
    /// assert_eq!(
    ///     rules.classify(&FlowMetadata::https("movies.netflix.com")),
    ///     Application::Netflix
    /// );
    /// // No rule matches: the flow lands in a miscellaneous bucket.
    /// assert_eq!(
    ///     rules.classify(&FlowMetadata::https("example.invalid")),
    ///     Application::MiscSecureWeb
    /// );
    /// ```
    pub fn classify(&self, flow: &FlowMetadata) -> Application {
        let index = &self.index;
        let host = flow.best_host().and_then(|host| {
            let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
                Cow::Owned(host.to_ascii_lowercase())
            } else {
                Cow::Borrowed(host)
            };
            index.host(&host)
        });
        let port = index.ports.get(&(flow.transport, flow.dst_port)).copied();
        let marker = index
            .bittorrent_marker
            .filter(|_| flow.bittorrent_handshake);
        let opaque = index
            .opaque_encrypted
            .filter(|_| flow.opaque_encrypted && flow.dst_port != 443 && flow.dst_port != 80);
        match [host, port, marker, opaque].into_iter().flatten().min() {
            Some(ordinal) => self.rules[ordinal].app,
            None => self.fallback(flow),
        }
    }

    /// The Miscellaneous-bucket fallback (§3.3's "categories capturing
    /// flows from applications not described in the rule set").
    fn fallback(&self, flow: &FlowMetadata) -> Application {
        match flow.content_hint {
            Some(ContentHint::Video) => return Application::MiscVideo,
            Some(ContentHint::Audio) => return Application::MiscAudio,
            None => {}
        }
        match (flow.transport, flow.dst_port) {
            (Transport::Tcp, 80) | (Transport::Tcp, 8080) => Application::MiscWeb,
            (Transport::Tcp, 443) => {
                if flow.sni.is_some() {
                    Application::MiscSecureWeb
                } else {
                    Application::EncryptedTcp
                }
            }
            (Transport::Tcp, _) => Application::NonWebTcp,
            (Transport::Udp, _) => Application::UdpOther,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs() -> RuleSet {
        RuleSet::standard_2015()
    }

    /// The specification, executable: walk the rule list in order and
    /// return the first rule that matches. Production code never runs
    /// this; it is the differential oracle for [`RuleSet::classify`].
    fn classify_linear(rules: &RuleSet, flow: &FlowMetadata) -> Application {
        let matches = |matcher: &Matcher| match matcher {
            Matcher::HostSuffix(suffix) => flow.best_host().is_some_and(|h| {
                let h = h.to_ascii_lowercase();
                h == *suffix || h.ends_with(&format!(".{suffix}"))
            }),
            Matcher::Port(t, p) => flow.transport == *t && flow.dst_port == *p,
            Matcher::BitTorrentMarker => flow.bittorrent_handshake,
            Matcher::OpaqueEncrypted => {
                flow.opaque_encrypted && flow.dst_port != 443 && flow.dst_port != 80
            }
        };
        match rules.rules.iter().find(|rule| matches(&rule.matcher)) {
            Some(rule) => rule.app,
            None => rules.fallback(flow),
        }
    }

    /// Hostnames built around one rule suffix: the hits, and the near
    /// misses a suffix table could get wrong.
    fn hosts_around(suffix: &str) -> Vec<String> {
        let mixed_case: String = suffix
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        vec![
            suffix.to_string(),
            format!("x.{suffix}"),
            format!("x.y.{suffix}"),
            format!("not{suffix}"),
            format!("{suffix}.evil.example"),
            format!("{suffix}."),
            format!(".{suffix}"),
            format!("WWW.{mixed_case}"),
            mixed_case,
            format!("b\u{fc}cher.{suffix}"),
            format!("\u{130}.{suffix}"),
        ]
    }

    #[test]
    fn index_agrees_with_linear_scan_on_the_rule_corpus() {
        let hints = [None, Some(ContentHint::Video), Some(ContentHint::Audio)];
        for rules in [RuleSet::standard_2014(), RuleSet::standard_2015()] {
            let mut hosts: Vec<String> = ["", ".", "..com", "com", "unknown-host.example"]
                .map(String::from)
                .to_vec();
            let mut ports = vec![80u16, 443, 8080, 0, u16::MAX, 51413];
            for rule in &rules.rules {
                match rule.matcher {
                    Matcher::HostSuffix(suffix) => hosts.extend(hosts_around(suffix)),
                    Matcher::Port(_, port) => ports.extend([port - 1, port, port + 1]),
                    Matcher::BitTorrentMarker | Matcher::OpaqueEncrypted => {}
                }
            }
            ports.sort_unstable();
            ports.dedup();
            let mut cases = 0u64;
            let mut check = |flow: &FlowMetadata| {
                assert_eq!(
                    rules.classify(flow),
                    classify_linear(&rules, flow),
                    "{:?}: {flow:?}",
                    rules.version
                );
                cases += 1;
            };
            // Every host against every port, transport, flag and hint that
            // can interact with it.
            for host in &hosts {
                for &dst_port in &ports {
                    for transport in [Transport::Tcp, Transport::Udp] {
                        for flags in 0..4u8 {
                            let flow = FlowMetadata {
                                dns_host: None,
                                http_host: None,
                                sni: Some(Cow::Owned(host.clone())),
                                dst_port,
                                transport,
                                bittorrent_handshake: flags & 1 != 0,
                                opaque_encrypted: flags & 2 != 0,
                                // Hints only steer the shared fallback:
                                // rotated here, crossed in full below.
                                content_hint: hints[usize::from(dst_port) % 3],
                            };
                            check(&flow);
                        }
                    }
                }
            }
            // Which of the three hostname sources is present, and which
            // one wins: a rule host, a different rule host, and a miss.
            let sources = [
                None,
                Some(Cow::Borrowed("mail.google.com")),
                Some(Cow::Borrowed("WWW.Apple.com")),
                Some(Cow::Borrowed("portal7.example.org")),
            ];
            for dns_host in &sources {
                for http_host in &sources {
                    for sni in &sources {
                        for content_hint in hints {
                            for dst_port in [80, 443, 993, 6881] {
                                check(&FlowMetadata {
                                    dns_host: dns_host.clone(),
                                    http_host: http_host.clone(),
                                    sni: sni.clone(),
                                    dst_port,
                                    transport: Transport::Tcp,
                                    bittorrent_handshake: false,
                                    opaque_encrypted: dst_port == 993,
                                    content_hint,
                                });
                            }
                        }
                    }
                }
            }
            assert!(cases > 300_000, "corpus shrank to {cases} cases");
        }
    }

    #[test]
    fn shadowed_rules_agree_with_their_shadower() {
        // A host rule listed after a rule for one of its own parent
        // suffixes can never fire. That is harmless while both name the
        // same application and a silent Table 5 error otherwise (think
        // `apple.com` listed before `swcdn.apple.com`), so the dead rules
        // are pinned by name: a new one has to be put in order or
        // acknowledged here.
        let suffix = |rules: &RuleSet, ordinal: usize| match rules.rules[ordinal].matcher {
            Matcher::HostSuffix(suffix) => suffix,
            ref other => panic!("only host rules are shadowed today, not {other:?}"),
        };
        for (rules, pinned) in [
            (
                RuleSet::standard_2014(),
                vec![("nexusapi.dropcam.com", "dropcam.com")],
            ),
            (
                RuleSet::standard_2015(),
                vec![
                    ("audio-fa.spotify.com", "spotify.com"),
                    ("nexusapi.dropcam.com", "dropcam.com"),
                ],
            ),
        ] {
            let (index, shadowed) = RuleIndex::compile(&rules.rules);
            assert_eq!(index, rules.index);
            let mut named = Vec::new();
            for (dead, shadower) in shadowed {
                assert!(shadower < dead);
                assert_eq!(
                    rules.rules[dead].app, rules.rules[shadower].app,
                    "{:?}: rule {dead} ({:?}) is unreachable behind rule {shadower} ({:?}) \
                     and names a different application",
                    rules.version, rules.rules[dead].matcher, rules.rules[shadower].matcher,
                );
                named.push((suffix(&rules, dead), suffix(&rules, shadower)));
            }
            assert_eq!(named, pinned, "{:?}", rules.version);
        }
    }

    #[test]
    fn compile_reports_a_misordered_specific_rule() {
        // The ordering mistake the audit exists for.
        let rule = |host, app| Rule {
            app,
            matcher: Matcher::HostSuffix(host),
        };
        let rules = [
            rule("apple.com", Application::AppleCom),
            rule("swcdn.apple.com", Application::SoftwareUpdates),
            rule("apple.com", Application::AppleCom),
        ];
        let (index, shadowed) = RuleIndex::compile(&rules);
        assert_eq!(shadowed, vec![(1, 0), (2, 0)]);
        assert_eq!(index.host("swcdn.apple.com"), Some(0));
    }

    #[test]
    fn host_rules_classify_top_apps() {
        let cases = [
            ("movies.netflix.com", Application::Netflix),
            ("r3---sn-p5qlsnz6.googlevideo.com", Application::Youtube),
            ("www.facebook.com", Application::Facebook),
            ("scontent-a.cdninstagram.com", Application::Instagram),
            ("www.dropbox.com", Application::Dropbox),
            ("www.espn.com", Application::Espn),
            ("audio-fa.spotify.com", Application::Spotify),
            ("nexusapi.dropcam.com", Application::Dropcam),
            ("e1234.akamaihd.net", Application::Cdns),
        ];
        for (host, expected) in cases {
            assert_eq!(
                rs().classify(&FlowMetadata::https(host)),
                expected,
                "{host}"
            );
        }
    }

    #[test]
    fn suffix_matching_is_label_aligned() {
        // "notfacebook.com" must NOT match the facebook.com rule.
        let flow = FlowMetadata::https("notfacebook.com");
        assert_eq!(rs().classify(&flow), Application::MiscSecureWeb);
        // Exact host matches too.
        assert_eq!(
            rs().classify(&FlowMetadata::https("facebook.com")),
            Application::Facebook
        );
    }

    #[test]
    fn specific_google_rules_beat_generic() {
        assert_eq!(
            rs().classify(&FlowMetadata::https("mail.google.com")),
            Application::Gmail
        );
        assert_eq!(
            rs().classify(&FlowMetadata::https("drive.google.com")),
            Application::GoogleDrive
        );
        assert_eq!(
            rs().classify(&FlowMetadata::https("www.google.com")),
            Application::GoogleHttps
        );
    }

    #[test]
    fn apple_update_hosts_beat_apple_com() {
        assert_eq!(
            rs().classify(&FlowMetadata::https("swcdn.apple.com")),
            Application::SoftwareUpdates
        );
        assert_eq!(
            rs().classify(&FlowMetadata::https("www.apple.com")),
            Application::AppleCom
        );
    }

    #[test]
    fn port_rules() {
        assert_eq!(
            rs().classify(&FlowMetadata::tcp(445)),
            Application::WindowsFileSharing
        );
        assert_eq!(
            rs().classify(&FlowMetadata::tcp(548)),
            Application::AppleFileSharing
        );
        assert_eq!(rs().classify(&FlowMetadata::tcp(1935)), Application::Rtmp);
        assert_eq!(
            rs().classify(&FlowMetadata::tcp(3389)),
            Application::RemoteDesktop
        );
        assert_eq!(
            rs().classify(&FlowMetadata::udp(3074)),
            Application::XboxLive
        );
        assert_eq!(
            rs().classify(&FlowMetadata::tcp(6881)),
            Application::BitTorrent
        );
    }

    #[test]
    fn bittorrent_marker_beats_hostname() {
        let mut flow = FlowMetadata::http("example.com");
        flow.bittorrent_handshake = true;
        assert_eq!(rs().classify(&flow), Application::BitTorrent);
    }

    #[test]
    fn opaque_encrypted_is_encrypted_p2p_off_443() {
        let mut flow = FlowMetadata::tcp(51413);
        flow.opaque_encrypted = true;
        assert_eq!(rs().classify(&flow), Application::EncryptedP2p);
        // On 443 it is just unidentifiable TLS.
        let mut https = FlowMetadata::tcp(443);
        https.opaque_encrypted = true;
        assert_eq!(rs().classify(&https), Application::EncryptedTcp);
    }

    #[test]
    fn fallback_buckets() {
        assert_eq!(
            rs().classify(&FlowMetadata::http("unknown-host.example")),
            Application::MiscWeb
        );
        assert_eq!(
            rs().classify(&FlowMetadata::https("unknown-host.example")),
            Application::MiscSecureWeb
        );
        assert_eq!(
            rs().classify(&FlowMetadata::tcp(443)),
            Application::EncryptedTcp
        );
        assert_eq!(
            rs().classify(&FlowMetadata::tcp(9000)),
            Application::NonWebTcp
        );
        assert_eq!(
            rs().classify(&FlowMetadata::udp(5353)),
            Application::UdpOther
        );
    }

    #[test]
    fn content_hints_drive_misc_video_audio() {
        let mut video = FlowMetadata::http("cdn77-video.example");
        video.content_hint = Some(ContentHint::Video);
        assert_eq!(rs().classify(&video), Application::MiscVideo);
        let mut audio = FlowMetadata::http("stream.example");
        audio.content_hint = Some(ContentHint::Audio);
        assert_eq!(rs().classify(&audio), Application::MiscAudio);
    }

    #[test]
    fn v2014_lacks_spotify() {
        let old = RuleSet::standard_2014();
        // In 2014 Spotify traffic fell into misc secure web.
        assert_eq!(
            old.classify(&FlowMetadata::https("audio-fa.spotify.com")),
            Application::MiscSecureWeb
        );
        assert!(old.rules.len() < rs().rules.len());
    }

    #[test]
    fn every_application_has_a_category_and_name() {
        for &app in Application::ALL {
            assert!(!app.name().is_empty());
            let _ = app.category(); // must not panic
        }
        // Spot-check paper categorizations that are easy to get wrong:
        // the paper files Google Drive and Tumblr under "Other".
        assert_eq!(Application::GoogleDrive.category(), AppCategory::Other);
        assert_eq!(Application::Tumblr.category(), AppCategory::Other);
        assert_eq!(
            Application::Dropcam.category(),
            AppCategory::VoipVideoConferencing
        );
        assert_eq!(Application::MiscVideo.category(), AppCategory::VideoMusic);
    }

    #[test]
    fn category_labels_match_table6() {
        assert_eq!(AppCategory::VideoMusic.name(), "Video & music");
        assert_eq!(AppCategory::P2p.name(), "Peer-to-peer (P2P)");
        assert_eq!(
            AppCategory::SoftwareUpdates.name(),
            "Software & anti-virus updates"
        );
        assert_eq!(AppCategory::ALL.len(), 14);
    }

    #[test]
    fn ruleset_scale_comparable_to_paper() {
        // The paper says "about 200 application identification rules".
        // Ours is the same order of magnitude; README quotes the counts.
        assert_eq!(
            (RuleSet::standard_2014().rules.len(), rs().rules.len()),
            (94, 100)
        );
    }

    #[test]
    fn best_host_precedence() {
        let flow = FlowMetadata {
            dns_host: Some("dns.example".into()),
            http_host: Some("http.example".into()),
            sni: Some("sni.example".into()),
            dst_port: 443,
            transport: Transport::Tcp,
            bittorrent_handshake: false,
            opaque_encrypted: false,
            content_hint: None,
        };
        assert_eq!(flow.best_host(), Some("sni.example"));
    }

    #[test]
    fn case_insensitive_hosts() {
        assert_eq!(
            rs().classify(&FlowMetadata::https("WWW.Facebook.COM")),
            Application::Facebook
        );
    }
}
