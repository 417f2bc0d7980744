//! Traffic generation: from a client's byte budget to classified flows.
//!
//! The honest part of the pipeline: the generator does **not** stamp
//! applications onto usage records. It picks a ground-truth application,
//! synthesizes the [`FlowMetadata`] that app's traffic would show on the
//! slow path (DNS hostname / SNI / ports / protocol markers), and the
//! engine then classifies those flows with the *real* [`RuleSet`] — so
//! classifier blind spots (e.g. Spotify before its 2015 fingerprint)
//! distort the measured tables exactly the way they distorted the paper's.
//!
//! [`RuleSet`]: airstat_classify::apps::RuleSet

use std::sync::OnceLock;

use airstat_classify::apps::{Application, ContentHint, FlowMetadata};
use airstat_classify::device::OsFamily;
use airstat_stats::dist::LogNormal;
use rand::Rng;

use crate::appmix::{os_affinity, year_adjusted, PROFILES};
use crate::config::MeasurementYear;
use crate::population::ClientTruth;

/// One generated flow: ground truth plus what the wire shows.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedFlow {
    /// The application that actually produced the traffic.
    pub truth: Application,
    /// What the AP's slow path extracts.
    pub metadata: FlowMetadata,
    /// Bytes from client to network.
    pub up_bytes: u64,
    /// Bytes from network to client.
    pub down_bytes: u64,
}

/// A client's week of application traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeeklyTraffic {
    /// All flows, unordered.
    pub flows: Vec<GeneratedFlow>,
}

/// Expected participation-weight sum for an OS and year.
///
/// `E[Σ_i w_i] = Σ_i P(participate_i) · intensity_i ≈ Σ_i share_i · affinity_i`.
/// Dividing by this keeps each OS's *mean* weekly bytes on the Table 3
/// calibration while letting clients of rare heavy applications (the
/// Netflix/Dropcam users) consume several times the average — exactly the
/// per-client skew Table 5's MB/client column shows.
pub fn expected_weight_sum(os: OsFamily, year: MeasurementYear) -> f64 {
    let mut sum = 0.0;
    for profile in PROFILES {
        let (share, reach) = year_adjusted(profile, year);
        let affinity = os_affinity(os, profile.app);
        if affinity <= 0.0 || reach <= 0.0 {
            continue;
        }
        let p = (reach * affinity).min(1.0);
        sum += p * share / reach;
    }
    sum.max(1e-6)
}

/// [`expected_weight_sum`] from a table folded once per process: the sum
/// walks every profile but depends only on `(year, OS)`, and
/// [`generate_weekly`] wants it for every client. The entries come from
/// the same expression, so they are the same bits.
fn weight_norm(os: OsFamily, year: MeasurementYear) -> f64 {
    static NORMS: OnceLock<[[f64; OsFamily::ALL.len()]; 2]> = OnceLock::new();
    let norms = NORMS.get_or_init(|| {
        let mut norms = [[0.0; OsFamily::ALL.len()]; 2];
        for year in [MeasurementYear::Y2014, MeasurementYear::Y2015] {
            for os in OsFamily::ALL {
                norms[year as usize][os as usize] = expected_weight_sum(os, year);
            }
        }
        norms
    });
    norms[year as usize][os as usize]
}

/// One profile a client can take part in: `(app, participation odds,
/// intensity before jitter, download fraction)`.
type Odds = (Application, f64, f64, f64);

/// The profiles a client of `os` can take part in during `year`, in
/// `PROFILES` order, from a table folded once per process like
/// [`weight_norm`]'s. A profile the OS has no affinity for is left out,
/// which is exactly the profile [`generate_weekly_into`] would pass over
/// without a draw; the odds and intensity are the expressions it would
/// evaluate, so they are the same bits.
fn participation_odds(os: OsFamily, year: MeasurementYear) -> &'static [Odds] {
    static ODDS: OnceLock<[[Vec<Odds>; OsFamily::ALL.len()]; 2]> = OnceLock::new();
    let odds = ODDS.get_or_init(|| {
        let mut odds: [[Vec<Odds>; OsFamily::ALL.len()]; 2] = Default::default();
        for year in [MeasurementYear::Y2014, MeasurementYear::Y2015] {
            for os in OsFamily::ALL {
                odds[year as usize][os as usize] = PROFILES
                    .iter()
                    .filter_map(|profile| {
                        let (share, reach) = year_adjusted(profile, year);
                        let affinity = os_affinity(os, profile.app);
                        (affinity > 0.0).then(|| {
                            (
                                profile.app,
                                (reach * affinity).min(1.0),
                                share / reach.max(1e-6),
                                profile.down_frac,
                            )
                        })
                    })
                    .collect();
            }
        }
        odds
    });
    &odds[year as usize][os as usize]
}

/// Generates one client's weekly traffic.
///
/// Algorithm (see `appmix`): every application the client *participates
/// in* (Bernoulli on year-adjusted reach × OS affinity) gets a weight of
/// `byte_share / reach`, jittered log-normally; bytes per app are
/// `budget · w_i / E[Σw]` — normalizing by the *expected* weight sum
/// (not the client's own) preserves aggregate byte shares while giving
/// heavy-app participants proportionally larger realized totals. Per-app
/// up/down follows the profile's download fraction with a small jitter.
pub fn generate_weekly<R: Rng + ?Sized>(
    client: &ClientTruth,
    year: MeasurementYear,
    rng: &mut R,
) -> WeeklyTraffic {
    let mut week = WeeklyTraffic::default();
    generate_weekly_into(client, year, rng, &mut week);
    week
}

/// [`generate_weekly`] into a week the caller keeps: `week.flows` is
/// cleared and refilled, so a loop over many clients reuses one buffer.
pub(crate) fn generate_weekly_into<R: Rng + ?Sized>(
    client: &ClientTruth,
    year: MeasurementYear,
    rng: &mut R,
    week: &mut WeeklyTraffic,
) {
    let jitter = LogNormal::new(0.0, 0.5);
    // `(app, intensity, download fraction)` per application the client
    // takes part in — at most one per profile, so a fixed array holds them.
    let mut participations = [(Application::MiscWeb, 0.0, 0.0); PROFILES.len()];
    let mut participating = 0;
    for &(app, p, intensity, down_frac) in participation_odds(client.os, year) {
        if rng.gen::<f64>() < p {
            participations[participating] = (app, intensity * jitter.sample(rng), down_frac);
            participating += 1;
        }
    }
    if participating == 0 {
        // Everyone at least touches the web once (captive portal, probe).
        participations[0] = (Application::MiscWeb, 1.0, 0.8);
        participating = 1;
    }
    let norm = weight_norm(client.os, year);
    let budget = client.weekly_bytes as f64;
    // Handhelds consume rather than produce: the paper measured mobile
    // platforms downloading ~9x what they upload vs ~3x for Mac OS X.
    // Mobile apps upload thumbnails where desktops sync originals, so the
    // *upload* share of every app shrinks on a mobile client.
    let upload_shrink = if client.os.is_mobile() { 0.55 } else { 1.0 };
    let flows = &mut week.flows;
    flows.clear();
    flows.reserve(participating);
    for &(app, weight, down_frac) in &participations[..participating] {
        let bytes = budget * weight / norm;
        if bytes < 1.0 {
            continue;
        }
        // Jitter the direction split a little per client.
        let down_frac = 1.0 - (1.0 - down_frac) * upload_shrink;
        let down_frac = (down_frac + (rng.gen::<f64>() - 0.5) * 0.05).clamp(0.0, 1.0);
        let down = (bytes * down_frac) as u64;
        let up = (bytes as u64).saturating_sub(down);
        flows.push(GeneratedFlow {
            truth: app,
            metadata: metadata_for(app, rng),
            up_bytes: up,
            down_bytes: down,
        });
    }
}

/// Synthesizes the on-the-wire metadata a flow from `app` presents.
///
/// Named applications expose their real hostnames (which the ruleset will
/// recognize); the misc buckets expose exactly the *absence* of signal
/// that lands them in the misc buckets.
pub fn metadata_for<R: Rng + ?Sized>(app: Application, rng: &mut R) -> FlowMetadata {
    use Application as A;
    match app {
        // Misc buckets: generic or absent metadata.
        A::MiscWeb => FlowMetadata::http(format!("site{}.example.com", rng.gen_range(0..100_000))),
        A::MiscSecureWeb => {
            FlowMetadata::https(format!("portal{}.example.org", rng.gen_range(0..100_000)))
        }
        A::MiscVideo => {
            let mut m =
                FlowMetadata::http(format!("media{}.example.net", rng.gen_range(0..10_000)));
            m.content_hint = Some(ContentHint::Video);
            m
        }
        A::MiscAudio => {
            let mut m =
                FlowMetadata::http(format!("radio{}.example.net", rng.gen_range(0..10_000)));
            m.content_hint = Some(ContentHint::Audio);
            m
        }
        A::NonWebTcp => FlowMetadata::tcp(rng.gen_range(1024..60_000)),
        A::UdpOther => FlowMetadata::udp(rng.gen_range(1024..60_000)),
        // Port/protocol applications.
        A::WindowsFileSharing => FlowMetadata::tcp(445),
        A::AppleFileSharing => FlowMetadata::tcp(548),
        A::Rtmp => FlowMetadata::tcp(1935),
        A::RemoteDesktop => FlowMetadata::tcp(if rng.gen() { 3389 } else { 5900 }),
        A::XboxLive => FlowMetadata::udp(3074),
        A::BitTorrent => {
            let mut m = FlowMetadata::tcp(rng.gen_range(6881..=6889));
            m.bittorrent_handshake = true;
            m
        }
        A::EncryptedP2p => {
            let mut m = FlowMetadata::tcp(rng.gen_range(20_000..60_000));
            m.opaque_encrypted = true;
            m
        }
        A::EncryptedTcp => {
            let mut m = FlowMetadata::tcp(443);
            m.opaque_encrypted = true;
            m
        }
        A::OtherWebmail => {
            if rng.gen::<f64>() < 0.5 {
                FlowMetadata::tcp(993)
            } else {
                FlowMetadata::https("imap.mail.example.org")
            }
        }
        // Hostname applications.
        _ => {
            let host = canonical_host(app);
            if rng.gen::<f64>() < 0.85 {
                FlowMetadata::https(host)
            } else {
                FlowMetadata::http(host)
            }
        }
    }
}

/// The canonical hostname each named application resolves through.
fn canonical_host(app: Application) -> &'static str {
    use Application as A;
    match app {
        A::Netflix => "movies.netflix.com",
        A::Youtube => "r4---sn-abc.googlevideo.com",
        A::Itunes => "itunes.apple.com",
        A::Cdns => "e8218.akamaihd.net",
        A::Facebook => "www.facebook.com",
        A::GoogleHttps | A::Google => "www.google.com",
        A::AppleCom => "www.apple.com",
        A::GoogleDrive => "drive.google.com",
        A::Dropbox => "client.dropbox.com",
        A::SoftwareUpdates => "swcdn.apple.com",
        A::Instagram => "scontent.cdninstagram.com",
        A::Skype => "conn.skype.com",
        A::Pandora => "audio.pandora.com",
        A::Gmail => "mail.google.com",
        A::MicrosoftCom => "www.microsoft.com",
        A::Tumblr => "www.tumblr.com",
        A::Spotify => "audio-fa.spotify.com",
        A::WindowsLiveMail => "mail.live.com",
        A::Dropcam => "nexusapi.dropcam.com",
        A::Hulu => "play.hulu.com",
        A::Steam => "content1.steamcontent.com",
        A::Twitter => "pbs.twimg.com",
        A::Espn => "a.espncdn.com",
        A::XfinityTv => "xfinitytv.comcast.net",
        A::Skydrive => "onedrive.live.com",
        A::Crashplan => "backup.crashplan.com",
        A::Backblaze => "pod-001.backblaze.com",
        A::Wordpress => "s0.wordpress.com",
        A::Blogger => "example.blogspot.com",
        A::Mediafire => "download.mediafire.com",
        A::Hotfile => "s14.hotfile.com",
        A::Cnn => "www.cnn.com",
        A::NyTimes => "www.nytimes.com",
        A::Vimeo => "player.vimeo.com",
        A::Twitch => "video-edge.ttvnw.net",
        A::Snapchat => "feelinsonice.appspot.com",
        A::Pinterest => "i.pinimg.com",
        A::YahooMail => "mail.yahoo.com",
        A::Webex => "mw1.webex.com",
        A::Facetime => "facetime.apple.com",
        // Misc/port apps never reach here.
        _ => "unknown.example",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationModel;
    use airstat_classify::apps::RuleSet;
    use airstat_stats::SeedTree;

    /// Total bytes both directions.
    fn total_bytes(week: &WeeklyTraffic) -> u64 {
        week.flows.iter().map(|f| f.up_bytes + f.down_bytes).sum()
    }

    fn clients(n: usize, year: MeasurementYear, seed: u64) -> Vec<ClientTruth> {
        let model = PopulationModel::new(year);
        let mut rng = SeedTree::new(seed).child("clients").rng();
        (0..n)
            .map(|i| model.sample_client(i as u64, &mut rng))
            .collect()
    }

    #[test]
    fn mean_realized_bytes_track_budgets() {
        // Realized totals vary per client (heavy-app participants use
        // more), but the population mean must stay on the budget mean.
        let cs = clients(30_000, MeasurementYear::Y2015, 1);
        let mut rng = SeedTree::new(1).child("traffic").rng();
        let mut budget_sum = 0u64;
        let mut realized_sum = 0u64;
        for c in &cs {
            budget_sum += c.weekly_bytes;
            realized_sum += total_bytes(&generate_weekly(c, MeasurementYear::Y2015, &mut rng));
        }
        let ratio = realized_sum as f64 / budget_sum as f64;
        assert!((ratio - 1.0).abs() < 0.25, "realized/budget = {ratio}");
    }

    #[test]
    fn rare_heavy_app_participants_use_more() {
        // A Netflix participant's realized volume should exceed its raw
        // budget on average — the paper's Netflix users pull ~1.2 GB/week
        // vs a 367 MB/week fleet average.
        let cs = clients(30_000, MeasurementYear::Y2015, 2);
        let mut rng = SeedTree::new(2).child("traffic").rng();
        let mut with_netflix = (0u64, 0u64); // (realized, budget)
        let mut without = (0u64, 0u64);
        for c in &cs {
            let week = generate_weekly(c, MeasurementYear::Y2015, &mut rng);
            let has = week.flows.iter().any(|f| f.truth == Application::Netflix);
            let slot = if has { &mut with_netflix } else { &mut without };
            slot.0 += total_bytes(&week);
            slot.1 += c.weekly_bytes;
        }
        let boost = |(r, b): (u64, u64)| r as f64 / b.max(1) as f64;
        assert!(
            boost(with_netflix) > 1.5 * boost(without),
            "netflix participants {} vs others {}",
            boost(with_netflix),
            boost(without)
        );
    }

    #[test]
    fn named_apps_classified_back_correctly() {
        let rs = RuleSet::standard_2015();
        let mut rng = SeedTree::new(2).rng();
        // Every hostname/port app must round-trip through the classifier.
        for profile in PROFILES {
            let app = profile.app;
            for _ in 0..8 {
                let m = metadata_for(app, &mut rng);
                let classified = rs.classify(&m);
                match app {
                    // Google HTTP/HTTPS share a hostname; accept either.
                    Application::Google | Application::GoogleHttps => assert!(
                        matches!(classified, Application::Google | Application::GoogleHttps),
                        "google flow -> {classified:?}"
                    ),
                    // Yahoo/IMAP flows map to the webmail bucket family.
                    Application::YahooMail | Application::OtherWebmail => assert!(
                        matches!(
                            classified,
                            Application::YahooMail
                                | Application::OtherWebmail
                                | Application::MiscSecureWeb
                        ),
                        "webmail flow -> {classified:?}"
                    ),
                    _ => assert_eq!(classified, app, "app {app:?} metadata {m:?}"),
                }
            }
        }
    }

    #[test]
    fn aggregate_shares_follow_profile() {
        let cs = clients(20_000, MeasurementYear::Y2015, 3);
        let mut rng = SeedTree::new(3).child("traffic").rng();
        let mut by_app: std::collections::HashMap<Application, u64> = Default::default();
        let mut total = 0u64;
        for c in &cs {
            for f in generate_weekly(c, MeasurementYear::Y2015, &mut rng).flows {
                let b = f.up_bytes + f.down_bytes;
                *by_app.entry(f.truth).or_default() += b;
                total += b;
            }
        }
        let share = |app| by_app.get(&app).copied().unwrap_or(0) as f64 / total as f64;
        // The heavy hitters must be in roughly the right place.
        assert!(
            share(Application::MiscWeb) > 0.08,
            "misc web {}",
            share(Application::MiscWeb)
        );
        let video = share(Application::Youtube) + share(Application::Netflix);
        assert!(video > 0.05 && video < 0.45, "video {video}");
        // Tiny apps stay tiny.
        assert!(share(Application::Hotfile) < 0.01);
    }

    #[test]
    fn download_ratios_match_direction_profiles() {
        let cs = clients(30_000, MeasurementYear::Y2015, 4);
        let mut rng = SeedTree::new(4).child("traffic").rng();
        let mut up: std::collections::HashMap<Application, u64> = Default::default();
        let mut down: std::collections::HashMap<Application, u64> = Default::default();
        for c in &cs {
            for f in generate_weekly(c, MeasurementYear::Y2015, &mut rng).flows {
                *up.entry(f.truth).or_default() += f.up_bytes;
                *down.entry(f.truth).or_default() += f.down_bytes;
            }
        }
        let down_frac = |app: Application| {
            let u = up.get(&app).copied().unwrap_or(0) as f64;
            let d = down.get(&app).copied().unwrap_or(0) as f64;
            d / (u + d).max(1.0)
        };
        // Netflix ≈ 98% down; Dropcam ≈ 5% down (uploads 19x).
        assert!(down_frac(Application::Netflix) > 0.94);
        if down.contains_key(&Application::Dropcam) || up.contains_key(&Application::Dropcam) {
            assert!(down_frac(Application::Dropcam) < 0.15);
        }
        // File sharing is balanced-ish.
        let fs = down_frac(Application::Dropbox);
        assert!(fs > 0.4 && fs < 0.8, "dropbox {fs}");
    }

    #[test]
    fn platform_rules_respected_in_traffic() {
        let cs = clients(30_000, MeasurementYear::Y2015, 5);
        let mut rng = SeedTree::new(5).child("traffic").rng();
        for c in cs.iter().filter(|c| c.os == OsFamily::AppleIos) {
            for f in generate_weekly(c, MeasurementYear::Y2015, &mut rng).flows {
                assert_ne!(
                    f.truth,
                    Application::WindowsFileSharing,
                    "iOS mounting SMB?"
                );
                assert_ne!(f.truth, Application::Steam);
            }
        }
    }

    #[test]
    fn spotify_misclassified_under_2014_rules() {
        // The pipeline-honesty check: Spotify traffic classified with the
        // 2014 ruleset lands in misc secure web.
        let rs2014 = RuleSet::standard_2014();
        let mut rng = SeedTree::new(6).rng();
        let m = metadata_for(Application::Spotify, &mut rng);
        let got = rs2014.classify(&m);
        assert!(
            matches!(got, Application::MiscSecureWeb | Application::MiscWeb),
            "{got:?}"
        );
    }

    #[test]
    fn weight_norm_table_holds_the_fold_bit_for_bit() {
        for year in [MeasurementYear::Y2014, MeasurementYear::Y2015] {
            for os in OsFamily::ALL {
                assert_eq!(
                    weight_norm(os, year).to_bits(),
                    expected_weight_sum(os, year).to_bits(),
                    "{os:?} {year:?}"
                );
            }
        }
    }

    #[test]
    fn participation_odds_hold_the_profile_loop_bit_for_bit() {
        for year in [MeasurementYear::Y2014, MeasurementYear::Y2015] {
            for os in OsFamily::ALL {
                let mut odds = participation_odds(os, year).iter();
                for profile in PROFILES {
                    let (share, reach) = year_adjusted(profile, year);
                    let affinity = os_affinity(os, profile.app);
                    if affinity <= 0.0 {
                        continue;
                    }
                    let &(app, p, intensity, down_frac) = odds.next().expect("an entry");
                    assert_eq!(app, profile.app, "{os:?} {year:?}");
                    assert_eq!(p.to_bits(), (reach * affinity).min(1.0).to_bits());
                    assert_eq!(intensity.to_bits(), (share / reach.max(1e-6)).to_bits());
                    assert_eq!(down_frac.to_bits(), profile.down_frac.to_bits());
                }
                assert_eq!(odds.next(), None, "{os:?} {year:?}");
            }
        }
    }

    #[test]
    fn empty_budget_yields_minimal_traffic() {
        let model = PopulationModel::new(MeasurementYear::Y2015);
        let mut rng = SeedTree::new(7).rng();
        let mut c = model.sample_client(0, &mut rng);
        c.weekly_bytes = 0;
        let week = generate_weekly(&c, MeasurementYear::Y2015, &mut rng);
        assert_eq!(total_bytes(&week), 0);
    }
}
