//! The application traffic profile: the generative side of Tables 5 and 6.
//!
//! For every application we carry four marginals taken from (or
//! interpolated around) Table 5:
//!
//! * `byte_share` — fraction of total 2015 bytes;
//! * `growth` — year-over-year byte growth, used to derive the 2014
//!   profile (`share_2014 ∝ share_2015 / (1 + growth)`);
//! * `reach` — fraction of all clients that touch the app in a week;
//! * `down_frac` — downstream share of the app's bytes (Table 5's
//!   "% download" column), the source of the paper's observations about
//!   balanced file-sharing vs. 45× read-heavy web file hosting vs. 23×
//!   write-heavy online backup and the upload-dominated Dropcam.
//!
//! The traffic generator samples *participation* per client from `reach`
//! and splits the client's byte budget proportionally to
//! `byte_share / reach` (the per-user intensity), so the aggregate shares,
//! per-app client counts, and MB/client columns all emerge from the same
//! three numbers — just like the real table did.

use airstat_classify::apps::Application;
use airstat_classify::device::OsFamily;

use crate::config::MeasurementYear;

/// One application's marginals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// The application.
    pub app: Application,
    /// Share of total 2015 bytes, unnormalized (we normalize at use).
    pub byte_share: f64,
    /// Year-over-year byte growth (0.76 = +76%).
    pub growth: f64,
    /// Fraction of clients using the app per week (2015).
    pub reach: f64,
    /// Downstream fraction of the app's bytes.
    pub down_frac: f64,
}

/// The full 2015 profile table.
///
/// Shares follow Table 5 (mangled cells interpolated); apps added to
/// complete Table 6's categories get small shares consistent with the
/// category totals.
pub const PROFILES: &[AppProfile] = &[
    // Miscellaneous buckets.
    AppProfile {
        app: Application::MiscWeb,
        byte_share: 0.205,
        growth: 0.55,
        reach: 0.829,
        down_frac: 0.77,
    },
    AppProfile {
        app: Application::MiscSecureWeb,
        byte_share: 0.077,
        growth: 0.94,
        reach: 0.80,
        down_frac: 0.70,
    },
    AppProfile {
        app: Application::MiscVideo,
        byte_share: 0.051,
        growth: 0.61,
        reach: 0.248,
        down_frac: 0.91,
    },
    AppProfile {
        app: Application::MiscAudio,
        byte_share: 0.0066,
        growth: 0.54,
        reach: 0.0825,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::NonWebTcp,
        byte_share: 0.082,
        growth: 0.76,
        reach: 0.917,
        down_frac: 0.60,
    },
    AppProfile {
        app: Application::UdpOther,
        byte_share: 0.032,
        growth: 0.60,
        reach: 0.664,
        down_frac: 0.61,
    },
    // Named top-40 applications.
    AppProfile {
        app: Application::Netflix,
        byte_share: 0.098,
        growth: 0.76,
        reach: 0.0289,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::Youtube,
        byte_share: 0.100,
        growth: 0.70,
        reach: 0.40,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::Itunes,
        byte_share: 0.054,
        growth: 0.66,
        reach: 0.40,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::WindowsFileSharing,
        byte_share: 0.045,
        growth: 0.48,
        reach: 0.1328,
        down_frac: 0.66,
    },
    AppProfile {
        app: Application::Cdns,
        byte_share: 0.039,
        growth: 0.81,
        reach: 0.566,
        down_frac: 0.72,
    },
    AppProfile {
        app: Application::Facebook,
        byte_share: 0.032,
        growth: 0.61,
        reach: 0.642,
        down_frac: 0.90,
    },
    AppProfile {
        app: Application::GoogleHttps,
        byte_share: 0.026,
        growth: 0.67,
        reach: 0.709,
        down_frac: 0.85,
    },
    AppProfile {
        app: Application::AppleFileSharing,
        byte_share: 0.022,
        growth: 0.18,
        reach: 0.0039,
        down_frac: 0.44,
    },
    AppProfile {
        app: Application::AppleCom,
        byte_share: 0.019,
        growth: 0.79,
        reach: 0.495,
        down_frac: 0.94,
    },
    AppProfile {
        app: Application::Google,
        byte_share: 0.018,
        growth: 0.19,
        reach: 0.682,
        down_frac: 0.85,
    },
    AppProfile {
        app: Application::GoogleDrive,
        byte_share: 0.012,
        growth: 3.74,
        reach: 0.238,
        down_frac: 0.79,
    },
    AppProfile {
        app: Application::Dropbox,
        byte_share: 0.012,
        growth: -0.015,
        reach: 0.066,
        down_frac: 0.60,
    },
    AppProfile {
        app: Application::SoftwareUpdates,
        byte_share: 0.0094,
        growth: 0.36,
        reach: 0.124,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::Instagram,
        byte_share: 0.0091,
        growth: 0.45,
        reach: 0.149,
        down_frac: 0.96,
    },
    AppProfile {
        app: Application::BitTorrent,
        byte_share: 0.0069,
        growth: -0.085,
        reach: 0.0069,
        down_frac: 0.58,
    },
    AppProfile {
        app: Application::Skype,
        byte_share: 0.0069,
        growth: 0.48,
        reach: 0.0704,
        down_frac: 0.49,
    },
    AppProfile {
        app: Application::Pandora,
        byte_share: 0.0064,
        growth: 0.25,
        reach: 0.0328,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::Rtmp,
        byte_share: 0.0062,
        growth: 0.10,
        reach: 0.0253,
        down_frac: 0.96,
    },
    AppProfile {
        app: Application::Gmail,
        byte_share: 0.0062,
        growth: 0.26,
        reach: 0.240,
        down_frac: 0.74,
    },
    AppProfile {
        app: Application::MicrosoftCom,
        byte_share: 0.0059,
        growth: 0.15,
        reach: 0.154,
        down_frac: 0.94,
    },
    AppProfile {
        app: Application::Tumblr,
        byte_share: 0.0057,
        growth: 0.31,
        reach: 0.0485,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::Spotify,
        byte_share: 0.0056,
        growth: 1.42,
        reach: 0.0375,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::WindowsLiveMail,
        byte_share: 0.0047,
        growth: 2.16,
        reach: 0.0657,
        down_frac: 0.64,
    },
    AppProfile {
        app: Application::Dropcam,
        byte_share: 0.0042,
        growth: 0.72,
        reach: 0.000527,
        down_frac: 0.05,
    },
    AppProfile {
        app: Application::Hulu,
        byte_share: 0.0036,
        growth: 1.02,
        reach: 0.00926,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::Steam,
        byte_share: 0.0035,
        growth: 0.47,
        reach: 0.00377,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::Twitter,
        byte_share: 0.0033,
        growth: 0.67,
        reach: 0.345,
        down_frac: 0.91,
    },
    AppProfile {
        app: Application::EncryptedP2p,
        byte_share: 0.0033,
        growth: 0.17,
        reach: 0.0146,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::EncryptedTcp,
        byte_share: 0.0031,
        growth: 0.50,
        reach: 0.258,
        down_frac: 0.65,
    },
    AppProfile {
        app: Application::RemoteDesktop,
        byte_share: 0.0029,
        growth: 0.66,
        reach: 0.0168,
        down_frac: 0.88,
    },
    AppProfile {
        app: Application::Espn,
        byte_share: 0.0027,
        growth: 1.22,
        reach: 0.0364,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::XfinityTv,
        byte_share: 0.0026,
        growth: 0.87,
        reach: 0.0023,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::OtherWebmail,
        byte_share: 0.0025,
        growth: -0.064,
        reach: 0.0498,
        down_frac: 0.49,
    },
    AppProfile {
        app: Application::Skydrive,
        byte_share: 0.0023,
        growth: -0.10,
        reach: 0.0483,
        down_frac: 0.25,
    },
    // Category completions (below the top-40 cut but present in Table 6).
    AppProfile {
        app: Application::XboxLive,
        byte_share: 0.0020,
        growth: 0.50,
        reach: 0.020,
        down_frac: 0.95,
    },
    AppProfile {
        app: Application::Crashplan,
        byte_share: 0.0008,
        growth: 0.10,
        reach: 0.0007,
        down_frac: 0.042,
    },
    AppProfile {
        app: Application::Backblaze,
        byte_share: 0.0007,
        growth: 0.10,
        reach: 0.0006,
        down_frac: 0.042,
    },
    AppProfile {
        app: Application::Wordpress,
        byte_share: 0.0002,
        growth: -0.34,
        reach: 0.050,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::Blogger,
        byte_share: 0.00018,
        growth: -0.34,
        reach: 0.037,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::Mediafire,
        byte_share: 0.0001,
        growth: -0.27,
        reach: 0.0012,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::Hotfile,
        byte_share: 0.00006,
        growth: -0.27,
        reach: 0.0007,
        down_frac: 0.98,
    },
    AppProfile {
        app: Application::Cnn,
        byte_share: 0.0011,
        growth: 0.76,
        reach: 0.080,
        down_frac: 0.95,
    },
    AppProfile {
        app: Application::NyTimes,
        byte_share: 0.0010,
        growth: 0.76,
        reach: 0.073,
        down_frac: 0.95,
    },
    AppProfile {
        app: Application::Vimeo,
        byte_share: 0.0015,
        growth: 0.70,
        reach: 0.020,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::Twitch,
        byte_share: 0.0015,
        growth: 1.00,
        reach: 0.010,
        down_frac: 0.97,
    },
    AppProfile {
        app: Application::Snapchat,
        byte_share: 0.0010,
        growth: 1.50,
        reach: 0.060,
        down_frac: 0.85,
    },
    AppProfile {
        app: Application::Pinterest,
        byte_share: 0.0008,
        growth: 0.80,
        reach: 0.070,
        down_frac: 0.95,
    },
    AppProfile {
        app: Application::YahooMail,
        byte_share: 0.0008,
        growth: -0.05,
        reach: 0.040,
        down_frac: 0.55,
    },
    AppProfile {
        app: Application::Webex,
        byte_share: 0.0012,
        growth: 0.40,
        reach: 0.012,
        down_frac: 0.45,
    },
    AppProfile {
        app: Application::Facetime,
        byte_share: 0.0010,
        growth: 0.60,
        reach: 0.015,
        down_frac: 0.50,
    },
];

/// Year-adjusted `(byte_share, reach)` for an app.
///
/// 2014 byte shares are back-projected through the growth column and then
/// used unnormalized — the traffic generator normalizes per client. Reach
/// is back-projected through a compressed growth factor (client counts
/// grew slower than bytes, per Table 5's two % columns).
pub(crate) fn year_adjusted(profile: &AppProfile, year: MeasurementYear) -> (f64, f64) {
    match year {
        MeasurementYear::Y2015 => (profile.byte_share, profile.reach),
        MeasurementYear::Y2014 => {
            let share = profile.byte_share / (1.0 + profile.growth).max(0.05);
            // Client reach grew roughly half as fast as bytes.
            let reach_growth = 1.0 + profile.growth / 2.0;
            let reach = (profile.reach / reach_growth.max(0.3)).clamp(0.0, 1.0);
            (share, reach)
        }
    }
}

/// Per-OS affinity multiplier applied to an app's participation odds.
///
/// Encodes the paper's platform observations: consoles stream media and
/// play games but do not mount SMB shares; mobile devices skew to social
/// and video and away from desktop protocols; Chromebooks live in Google
/// services; Dropcam-class embedded devices do one thing only.
pub(crate) fn os_affinity(os: OsFamily, app: Application) -> f64 {
    use airstat_classify::apps::AppCategory as C;
    use Application as A;
    let cat = app.category();
    match os {
        OsFamily::PlaystationOs => match cat {
            C::Gaming | C::VideoMusic => 8.0,
            C::SoftwareUpdates => 2.0,
            _ => match app {
                A::NonWebTcp | A::UdpOther | A::MiscWeb => 0.4,
                _ => 0.0,
            },
        },
        OsFamily::AppleIos => match app {
            A::WindowsFileSharing | A::RemoteDesktop | A::Steam | A::XboxLive => 0.0,
            A::Itunes | A::AppleCom | A::Facetime => 3.0,
            A::Instagram | A::Snapchat | A::Facebook | A::Youtube => 1.8,
            A::BitTorrent | A::EncryptedP2p => 0.0,
            _ => 1.0,
        },
        OsFamily::Android => match app {
            A::WindowsFileSharing | A::RemoteDesktop | A::Steam | A::Itunes | A::Facetime => 0.0,
            A::Youtube | A::GoogleHttps | A::Google | A::GoogleDrive => 2.0,
            A::Instagram | A::Snapchat | A::Facebook => 1.8,
            A::BitTorrent | A::EncryptedP2p => 0.1,
            _ => 1.0,
        },
        OsFamily::ChromeOs => match app {
            A::GoogleHttps | A::Google | A::GoogleDrive | A::Gmail | A::Youtube => 3.0,
            A::WindowsFileSharing | A::Itunes | A::Steam | A::BitTorrent => 0.0,
            _ => 0.8,
        },
        OsFamily::Windows => match app {
            A::WindowsFileSharing | A::SoftwareUpdates | A::Steam | A::RemoteDesktop => 2.0,
            A::Skydrive | A::WindowsLiveMail | A::MicrosoftCom => 2.0,
            A::Itunes | A::Facetime => 0.3,
            _ => 1.0,
        },
        OsFamily::MacOsX => match app {
            A::AppleFileSharing | A::Itunes | A::AppleCom | A::Facetime => 2.5,
            A::WindowsFileSharing => 0.3,
            A::Crashplan | A::Backblaze | A::Dropbox => 2.0,
            _ => 1.0,
        },
        OsFamily::Linux => match app {
            A::Itunes | A::WindowsFileSharing | A::Skydrive | A::Facetime => 0.0,
            A::NonWebTcp | A::EncryptedTcp | A::RemoteDesktop => 2.0,
            A::BitTorrent => 3.0,
            _ => 0.8,
        },
        OsFamily::BlackBerry | OsFamily::MobileWindows => match cat {
            C::Email | C::SocialWebPhoto => 1.5,
            C::VideoMusic => 0.5,
            _ => match app {
                A::MiscWeb | A::MiscSecureWeb | A::NonWebTcp | A::UdpOther => 1.0,
                _ => 0.2,
            },
        },
        // Dropcam cameras and other embedded devices live here: Unknown
        // and Other get the Dropcam/backup-style apps at full odds.
        OsFamily::Unknown | OsFamily::Other => match app {
            A::Dropcam => 30.0,
            A::MiscWeb | A::MiscSecureWeb | A::NonWebTcp | A::UdpOther | A::EncryptedTcp => 1.0,
            _ => 0.3,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_classify::apps::AppCategory;

    /// The profile for an app, if it has one.
    fn profile_of(app: Application) -> Option<&'static AppProfile> {
        PROFILES.iter().find(|p| p.app == app)
    }

    #[test]
    fn profiles_cover_every_application() {
        for &app in Application::ALL {
            assert!(profile_of(app).is_some(), "missing profile for {app:?}");
        }
        assert_eq!(PROFILES.len(), Application::ALL.len());
    }

    #[test]
    fn shares_sum_near_one() {
        let total: f64 = PROFILES.iter().map(|p| p.byte_share).sum();
        assert!((total - 1.0).abs() < 0.06, "shares sum to {total}");
    }

    #[test]
    fn category_shares_match_table6_shape() {
        let mut by_cat = std::collections::BTreeMap::new();
        for p in PROFILES {
            *by_cat.entry(p.app.category()).or_insert(0.0) += p.byte_share;
        }
        let total: f64 = by_cat.values().sum();
        let share = |c: AppCategory| by_cat.get(&c).copied().unwrap_or(0.0) / total;
        // Table 6: Other 47%, Video & music 34%, File sharing 8.4%.
        assert!(
            (share(AppCategory::Other) - 0.47).abs() < 0.05,
            "other {}",
            share(AppCategory::Other)
        );
        assert!((share(AppCategory::VideoMusic) - 0.34).abs() < 0.05);
        assert!((share(AppCategory::FileSharing) - 0.084).abs() < 0.03);
        assert!(share(AppCategory::SocialWebPhoto) > 0.02);
        assert!(share(AppCategory::Email) > 0.01);
    }

    #[test]
    fn marginals_are_sane() {
        for p in PROFILES {
            assert!(p.byte_share > 0.0 && p.byte_share < 0.5, "{:?}", p.app);
            assert!(p.reach > 0.0 && p.reach <= 1.0, "{:?}", p.app);
            assert!((0.0..=1.0).contains(&p.down_frac), "{:?}", p.app);
            assert!(p.growth > -1.0, "{:?}", p.app);
        }
    }

    #[test]
    fn dropcam_marginals_produce_the_papers_anomaly() {
        // Dropcam: tiny reach, meaningful share, upload-dominated.
        let p = profile_of(Application::Dropcam).unwrap();
        // Implied MB/client = share / reach is the highest in the table.
        let intensity = p.byte_share / p.reach;
        for q in PROFILES {
            if q.app != Application::Dropcam
                && q.app != Application::Crashplan
                && q.app != Application::Backblaze
            {
                assert!(
                    intensity > q.byte_share / q.reach,
                    "Dropcam intensity must dominate {:?}",
                    q.app
                );
            }
        }
        assert!(p.down_frac < 0.1, "Dropcam uploads ~19x what it downloads");
    }

    #[test]
    fn year_adjustment_shrinks_growing_apps() {
        let spotify = profile_of(Application::Spotify).unwrap();
        let (s2014, r2014) = year_adjusted(spotify, MeasurementYear::Y2014);
        let (s2015, r2015) = year_adjusted(spotify, MeasurementYear::Y2015);
        assert!(s2014 < s2015 / 2.0, "Spotify grew 142%");
        assert!(r2014 < r2015);
        // Shrinking app: 2014 share larger.
        let bt = profile_of(Application::BitTorrent).unwrap();
        let (bt2014, _) = year_adjusted(bt, MeasurementYear::Y2014);
        assert!(bt2014 > bt.byte_share);
    }

    #[test]
    fn affinities_respect_platform_rules() {
        assert_eq!(
            os_affinity(OsFamily::AppleIos, Application::WindowsFileSharing),
            0.0
        );
        assert_eq!(os_affinity(OsFamily::Android, Application::Itunes), 0.0);
        assert!(os_affinity(OsFamily::PlaystationOs, Application::Steam) > 1.0);
        assert_eq!(
            os_affinity(OsFamily::PlaystationOs, Application::Gmail),
            0.0
        );
        assert!(os_affinity(OsFamily::ChromeOs, Application::GoogleDrive) > 1.0);
        assert!(os_affinity(OsFamily::Unknown, Application::Dropcam) > 10.0);
        // Everything has non-negative affinity everywhere.
        for &os in &OsFamily::ALL {
            for &app in Application::ALL {
                assert!(os_affinity(os, app) >= 0.0);
            }
        }
    }
}
