//! Figure 11: USRP-style spectrum analysis near one access point.
//!
//! Paper: 32 MHz scans with a 4096-point FFT at 2.437 GHz (22% utilization,
//! 20 MHz 802.11 frames + 1 MHz frequency-hopping Bluetooth + unidentified
//! narrowband sources) and 5.220 GHz (2% utilization, 20/40 MHz 802.11 with
//! visible frequency-selective fading). We synthesize both captures and
//! summarize occupancy plus an ASCII waterfall. Only that summary is kept:
//! [`SpectrumScan::summarize`] replays the whole capture's RNG stream but
//! finishes a cell only where the printed output depends on it.

use airstat_rf::spectrum::{ScanSummary, SpectrumScan, BIN_NOISE_FLOOR_DBM, SHADE_LEVELS};
use airstat_stats::SeedTree;
use std::fmt;
use std::fmt::Write as _;

/// Threshold above which a bin counts as occupied (dB above the floor).
pub const OCCUPANCY_THRESHOLD_DBM: f64 = BIN_NOISE_FLOOR_DBM + 15.0;

/// Waterfall rows (frames) the report prints per scan.
const ROWS: usize = 16;

/// Waterfall columns (downsampled bins) the report prints per scan.
const COLS: usize = 64;

/// Figure 11's reproduction: one scan summary per band.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumFigure {
    /// The 2.437 GHz scan.
    pub scan_2_4: ScanSummary,
    /// The 5.220 GHz scan.
    pub scan_5: ScanSummary,
}

impl SpectrumFigure {
    /// Scans both bands with `frames` FFT snapshots each.
    pub(crate) fn compute(seed: &SeedTree, frames: usize) -> Self {
        let summarize = |name: &str, scan: SpectrumScan| {
            let mut rng = seed.child(name).rng();
            scan.summarize(frames, &mut rng, OCCUPANCY_THRESHOLD_DBM, ROWS, COLS)
        };
        SpectrumFigure {
            scan_2_4: summarize("usrp-2.4", SpectrumScan::paper_2_4ghz()),
            scan_5: summarize("usrp-5", SpectrumScan::paper_5ghz()),
        }
    }

    /// Cell-occupancy fraction of the 2.4 GHz capture (paper: ~22% channel
    /// utilization at the scanned site).
    pub fn occupancy_2_4(&self) -> f64 {
        self.scan_2_4.occupancy()
    }

    /// Cell-occupancy fraction of the 5 GHz capture (paper: ~2%).
    pub fn occupancy_5(&self) -> f64 {
        self.scan_5.occupancy()
    }

    /// Renders a summary's shade rows as an ASCII waterfall over a
    /// frequency axis; empty for a scan with no cell.
    pub fn render(scan: &ScanSummary) -> String {
        const SHADES: [char; SHADE_LEVELS] = [' ', '.', ':', '+', '*', '#'];
        let mut out = String::new();
        if scan.is_empty() {
            return out;
        }
        for row in scan.shade_rows() {
            out.push('|');
            out.extend(row.iter().map(|&i| SHADES[usize::from(i)]));
            out.push('|');
            out.push('\n');
        }
        let _ = writeln!(
            out,
            " {:.0} MHz {:^width$} {:.0} MHz",
            scan.center_mhz - scan.span_mhz / 2.0,
            "frequency",
            scan.center_mhz + scan.span_mhz / 2.0,
            width = scan.cols().saturating_sub(16)
        );
        out
    }
}

impl fmt::Display for SpectrumFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "2.437 GHz scan: occupancy {:.1}% (paper: ~22%, WiFi + Bluetooth hoppers + narrowband)",
            self.occupancy_2_4() * 100.0
        )?;
        f.write_str(&Self::render(&self.scan_2_4))?;
        writeln!(
            f,
            "5.220 GHz scan: occupancy {:.1}% (paper: ~2%, 20/40 MHz WiFi with selective fading)",
            self.occupancy_5() * 100.0
        )?;
        f.write_str(&Self::render(&self.scan_5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_rf::spectrum::Waterfall;
    use airstat_stats::rng::fnv1a;

    fn fig() -> SpectrumFigure {
        SpectrumFigure::compute(&SeedTree::new(99), 200)
    }

    /// The renderer Figure 11 used before it kept only a summary: shades
    /// `rows` frames × `cols` downsampled bins of the full capture.
    fn render_full_capture(w: &Waterfall, rows: usize, cols: usize) -> String {
        const SHADES: &[char] = &[' ', '.', ':', '+', '*', '#'];
        let mut out = String::new();
        let frames = w.frames.len();
        let bins = w.num_bins();
        if frames == 0 || bins == 0 {
            return out;
        }
        for r in 0..rows.min(frames) {
            let frame = &w.frames[r * frames / rows.min(frames)];
            out.push('|');
            for c in 0..cols {
                let lo = c * bins / cols;
                let hi = ((c + 1) * bins / cols).max(lo + 1);
                // airstat::allow(float-fold-order): max is order-insensitive over finite bin powers
                let peak = frame[lo..hi].iter().cloned().fold(f64::MIN, f64::max);
                let rel = (peak - BIN_NOISE_FLOOR_DBM) / 50.0;
                let idx =
                    ((rel * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                out.push(SHADES[idx]);
            }
            out.push('|');
            out.push('\n');
        }
        let _ = writeln!(
            out,
            " {:.0} MHz {:^width$} {:.0} MHz",
            w.center_mhz - w.span_mhz / 2.0,
            "frequency",
            w.center_mhz + w.span_mhz / 2.0,
            width = cols.saturating_sub(16)
        );
        out
    }

    /// `scan` at `seed`'s child `name`, summarized at `rows × cols`.
    fn summary(
        seed: u64,
        name: &str,
        scan: &SpectrumScan,
        frames: usize,
        rows: usize,
        cols: usize,
    ) -> ScanSummary {
        let mut rng = SeedTree::new(seed).child(name).rng();
        scan.summarize(frames, &mut rng, OCCUPANCY_THRESHOLD_DBM, rows, cols)
    }

    #[test]
    fn occupancy_ordering_matches_paper() {
        let f = fig();
        let o24 = f.occupancy_2_4();
        let o5 = f.occupancy_5();
        assert!(o24 > 0.03 && o24 < 0.5, "2.4 GHz occupancy {o24}");
        assert!(o5 < o24 / 3.0, "5 GHz should be far quieter: {o5} vs {o24}");
    }

    #[test]
    fn waterfall_dimensions() {
        let scan = summary(99, "usrp-2.4", &SpectrumScan::paper_2_4ghz(), 200, 8, 40);
        let s = SpectrumFigure::render(&scan);
        let data_rows = s.lines().filter(|l| l.starts_with('|')).count();
        assert_eq!(data_rows, 8);
        for line in s.lines().filter(|l| l.starts_with('|')) {
            assert_eq!(line.chars().count(), 42);
        }
    }

    #[test]
    fn render_matches_the_full_capture_renderer() {
        // The summary's text, occupancy bits included, against the old
        // renderer over the full capture, at the report's shape, with
        // fewer frames than rows, and at the example's shape.
        for seed in [3u64, 17, 0xF11] {
            for (name, scan) in [
                ("usrp-2.4", SpectrumScan::paper_2_4ghz()),
                ("usrp-5", SpectrumScan::paper_5ghz()),
            ] {
                for (frames, rows, cols) in [(40, 16, 64), (7, 16, 64), (24, 24, 76)] {
                    let got = summary(seed, name, &scan, frames, rows, cols);
                    let mut rng = SeedTree::new(seed).child(name).rng();
                    let full = scan.capture(frames, &mut rng);
                    assert_eq!(
                        SpectrumFigure::render(&got),
                        render_full_capture(&full, rows, cols),
                        "seed {seed} {name} ({frames}, {rows}, {cols})"
                    );
                    let cells = full.frames.concat();
                    let hot = cells.iter().filter(|&&p| p > OCCUPANCY_THRESHOLD_DBM);
                    assert_eq!(
                        got.occupancy().to_bits(),
                        (hot.count() as f64 / cells.len() as f64).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SpectrumFigure::compute(&SeedTree::new(5), 20);
        let b = SpectrumFigure::compute(&SeedTree::new(5), 20);
        assert_eq!(a, b);
    }

    #[test]
    fn figure_text_is_pinned() {
        // What `airstat report` prints for Figure 11, at the report's 120
        // frames, the example's 240 and a short 20, for three seeds.
        let mut digests = Vec::new();
        for seed in [1u64, 2, 0xF11] {
            for frames in [120, 240, 20] {
                let text = SpectrumFigure::compute(&SeedTree::new(seed), frames).to_string();
                digests.push(fnv1a(text.as_bytes()));
            }
        }
        assert_eq!(
            digests,
            [
                0x66a9_dbed_6616_3e12,
                0x8ee4_989d_fe5c_5e60,
                0xc465_a085_6576_7055,
                0x40e2_0577_d7a1_cc53,
                0x1385_1173_5f17_920f,
                0x263c_860d_1f8e_22bb,
                0x921c_7258_c97c_9866,
                0xbcc3_68bc_03a7_7e93,
                0x83b9_932c_94ba_c573,
            ],
            "{digests:#x?}"
        );
    }

    #[test]
    fn example_shape_is_pinned() {
        // `examples/spectrum_survey.rs` at its default seed: both scans'
        // occupancy bits and their 240-frame waterfalls at 24 × 76.
        let scan_2_4 = summary(
            0xF11,
            "usrp-2.4",
            &SpectrumScan::paper_2_4ghz(),
            240,
            24,
            76,
        );
        let scan_5 = summary(0xF11, "usrp-5", &SpectrumScan::paper_5ghz(), 240, 24, 76);
        let text = format!(
            "{:#x} {:#x}\n{}{}",
            scan_2_4.occupancy().to_bits(),
            scan_5.occupancy().to_bits(),
            SpectrumFigure::render(&scan_2_4),
            SpectrumFigure::render(&scan_5)
        );
        assert_eq!(
            fnv1a(text.as_bytes()),
            0xe8e3_9cbb_a7fc_8e4a,
            "{:#x}",
            fnv1a(text.as_bytes())
        );
    }

    #[test]
    fn renders_labels() {
        let s = fig().to_string();
        assert!(s.contains("2.437 GHz"));
        assert!(s.contains("5.220 GHz"));
        assert!(s.contains("occupancy"));
    }
}
