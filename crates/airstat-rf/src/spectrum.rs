//! USRP-style spectrum synthesis: Figure 11's waterfalls.
//!
//! The paper inspected the air near one AP with a USRP B200 doing 32 MHz
//! wide scans with a 4096-point FFT, centered at 2.437 GHz and 5.220 GHz.
//! The 2.4 GHz scan shows 20 MHz 802.11 packets, 1 MHz frequency-hopping
//! Bluetooth and unidentified narrowband sources; the 5 GHz scan shows
//! 20/40 MHz 802.11 packets and fainter transmissions with frequency-
//! selective fading.
//!
//! [`SpectrumScan`] synthesizes the same kind of time × frequency power
//! matrix. Each frame is one FFT snapshot; emitters switch on and off per
//! frame according to their duty cycles, and each 802.11 source carries a
//! static multipath ripple across its occupied bins so wideband frames
//! show the frequency-selective fading structure of [Halperin et al.].

use airstat_stats::dist::Normal;
use rand::Rng;

use crate::propagation::{dbm_to_mw, mw_to_dbm};

/// Thermal + receiver noise density per FFT bin (dBm). A 32 MHz span over
/// 4096 bins is ~7.8 kHz/bin: −174 dBm/Hz + 39 dB + 7 dB NF ≈ −128 dBm,
/// but display floors in practice sit near −110 dBm with window leakage.
pub const BIN_NOISE_FLOOR_DBM: f64 = -110.0;

/// An emitter visible in the scanned span.
#[derive(Debug, Clone, PartialEq)]
pub enum Emitter {
    /// An 802.11 OFDM transmitter: fixed center, 20/40 MHz wide bursts.
    Wifi {
        /// Center frequency (MHz).
        center_mhz: f64,
        /// Occupied bandwidth (MHz), typically 20 or 40.
        bandwidth_mhz: f64,
        /// Peak in-band power per bin (dBm).
        power_dbm: f64,
        /// Probability a given frame contains a burst from this source.
        duty: f64,
        /// Multipath ripple depth (dB peak-to-peak) across the band —
        /// frequency-selective fading visible on wideband signals.
        ripple_db: f64,
        /// Ripple period across frequency (MHz).
        ripple_period_mhz: f64,
    },
    /// A frequency hopper (Bluetooth): narrow transmissions that move
    /// every frame within a hop span.
    Hopper {
        /// Lowest hop frequency (MHz).
        lo_mhz: f64,
        /// Highest hop frequency (MHz).
        hi_mhz: f64,
        /// Occupied bandwidth per transmission (MHz), 1 for Bluetooth.
        bandwidth_mhz: f64,
        /// Power per bin when transmitting (dBm).
        power_dbm: f64,
        /// Probability of transmitting in a given frame.
        duty: f64,
    },
    /// A static narrowband source (cordless phone, video sender, spur).
    Narrowband {
        /// Center frequency (MHz).
        center_mhz: f64,
        /// Bandwidth (MHz).
        bandwidth_mhz: f64,
        /// Power per bin (dBm).
        power_dbm: f64,
        /// Probability of being on in a given frame.
        duty: f64,
    },
}

/// Configuration of one synthetic scan.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumScan {
    /// Center of the span (MHz) — 2437.0 and 5220.0 in the paper.
    pub center_mhz: f64,
    /// Span width (MHz) — 32 in the paper.
    pub span_mhz: f64,
    /// FFT size — 4096 in the paper.
    pub fft_bins: usize,
    /// Emitters present near the observer.
    pub emitters: Vec<Emitter>,
}

/// The output: `frames × bins` power matrix in dBm.
#[derive(Debug, Clone, PartialEq)]
pub struct Waterfall {
    /// Center of the span (MHz).
    pub center_mhz: f64,
    /// Span width (MHz).
    pub span_mhz: f64,
    /// Power per frame per bin (dBm).
    pub frames: Vec<Vec<f64>>,
}

impl SpectrumScan {
    /// The paper's 2.4 GHz scan: 22% utilization with 20 MHz 802.11 on
    /// channel 6, Bluetooth hopping across the whole span, and an
    /// unidentified narrowband source.
    pub fn paper_2_4ghz() -> Self {
        SpectrumScan {
            center_mhz: 2437.0,
            span_mhz: 32.0,
            fft_bins: 4096,
            emitters: vec![
                Emitter::Wifi {
                    center_mhz: 2437.0,
                    bandwidth_mhz: 20.0,
                    power_dbm: -55.0,
                    duty: 0.20,
                    ripple_db: 8.0,
                    ripple_period_mhz: 4.0,
                },
                Emitter::Wifi {
                    center_mhz: 2427.0, // overlapping channel 4 neighbour
                    bandwidth_mhz: 20.0,
                    power_dbm: -72.0,
                    duty: 0.05,
                    ripple_db: 6.0,
                    ripple_period_mhz: 5.0,
                },
                Emitter::Hopper {
                    lo_mhz: 2422.0,
                    hi_mhz: 2452.0,
                    bandwidth_mhz: 1.0,
                    power_dbm: -60.0,
                    duty: 0.4,
                },
                Emitter::Narrowband {
                    center_mhz: 2445.5,
                    bandwidth_mhz: 0.8,
                    power_dbm: -67.0,
                    duty: 0.25,
                },
            ],
        }
    }

    /// The paper's 5 GHz scan: 2% utilization, 20 and 40 MHz 802.11 with
    /// visible frequency-selective fading, no non-WiFi sources.
    pub fn paper_5ghz() -> Self {
        SpectrumScan {
            center_mhz: 5220.0,
            span_mhz: 32.0,
            fft_bins: 4096,
            emitters: vec![
                Emitter::Wifi {
                    center_mhz: 5220.0,
                    bandwidth_mhz: 20.0,
                    power_dbm: -58.0,
                    duty: 0.02,
                    ripple_db: 10.0,
                    ripple_period_mhz: 3.0,
                },
                Emitter::Wifi {
                    center_mhz: 5230.0,
                    bandwidth_mhz: 40.0,
                    power_dbm: -70.0,
                    duty: 0.015,
                    ripple_db: 12.0,
                    ripple_period_mhz: 2.5,
                },
            ],
        }
    }

    /// Frequency (MHz) of bin `i`.
    pub fn bin_freq_mhz(&self, i: usize) -> f64 {
        let lo = self.center_mhz - self.span_mhz / 2.0;
        lo + self.span_mhz * (i as f64 + 0.5) / self.fft_bins as f64
    }

    /// Synthesizes `frames` FFT snapshots.
    ///
    /// The RNG is drawn in a fixed order: every emitter's ripple phase,
    /// then per frame each emitter's hop (hoppers only) and duty roll,
    /// then one noise sample per bin.
    pub fn capture<R: Rng + ?Sized>(&self, frames: usize, rng: &mut R) -> Waterfall {
        let noise = Normal::new(0.0, 2.0);
        let floor_mw = dbm_to_mw(BIN_NOISE_FLOOR_DBM);
        let floor_dbm = mw_to_dbm(floor_mw);
        let freqs: Vec<f64> = (0..self.fft_bins).map(|i| self.bin_freq_mhz(i)).collect();
        // Pre-compute each emitter's static ripple phase so fading is a
        // property of the path, not re-rolled per frame.
        let phases: Vec<f64> = self
            .emitters
            .iter()
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();
        // A fixed-frequency emitter puts the same power in the same bins
        // every frame it is on, so it is shaped once; a hopper moves, so
        // it is shaped per frame (`None` here).
        let shapes: Vec<Option<(usize, Vec<f64>)>> = self
            .emitters
            .iter()
            .zip(&phases)
            .map(|(e, &phase)| {
                let (start, mw) = emitter_band(&freqs, e, e.center_mhz()?, phase);
                Some((start, mw.collect()))
            })
            .collect();
        let mut out = Vec::with_capacity(frames);
        let mut frame_mw = vec![floor_mw; self.fft_bins];
        for _ in 0..frames {
            frame_mw.fill(floor_mw);
            for ((e, &phase), shape) in self.emitters.iter().zip(&phases).zip(&shapes) {
                let hop = match *e {
                    Emitter::Hopper { lo_mhz, hi_mhz, .. } => {
                        Some(lo_mhz + rng.gen::<f64>() * (hi_mhz - lo_mhz))
                    }
                    _ => None,
                };
                if rng.gen::<f64>() >= e.duty() {
                    continue; // silent this frame
                }
                if let Some((start, mw)) = shape {
                    for (bin, &p) in frame_mw[*start..].iter_mut().zip(mw) {
                        *bin += p;
                    }
                } else {
                    let center = hop.expect("invariant: only a hopper has no static shape");
                    let (start, mw) = emitter_band(&freqs, e, center, phase);
                    for (bin, p) in frame_mw[start..].iter_mut().zip(mw) {
                        *bin += p;
                    }
                }
            }
            // Per-bin measurement noise on top, in dB. A bin no emitter
            // reached still holds the floor's exact bits, so it takes the
            // floor's dB value.
            let frame_dbm: Vec<f64> = frame_mw
                .iter()
                .map(|&mw| {
                    let dbm = if mw.to_bits() == floor_mw.to_bits() {
                        floor_dbm
                    } else {
                        mw_to_dbm(mw)
                    };
                    dbm + noise.sample(rng)
                })
                .collect();
            out.push(frame_dbm);
        }
        Waterfall {
            center_mhz: self.center_mhz,
            span_mhz: self.span_mhz,
            frames: out,
        }
    }
}

impl Emitter {
    /// Fixed center frequency (MHz); `None` for a hopper, whose center is
    /// drawn per frame.
    fn center_mhz(&self) -> Option<f64> {
        match *self {
            Emitter::Wifi { center_mhz, .. } | Emitter::Narrowband { center_mhz, .. } => {
                Some(center_mhz)
            }
            Emitter::Hopper { .. } => None,
        }
    }

    /// Probability the emitter is on in a given frame.
    fn duty(&self) -> f64 {
        match *self {
            Emitter::Wifi { duty, .. }
            | Emitter::Hopper { duty, .. }
            | Emitter::Narrowband { duty, .. } => duty,
        }
    }
}

/// The first bin of `e`'s band `[center − bw/2, center + bw/2]` and the
/// emitter's power (mW) in each bin of the band, in order. `freqs` is
/// every bin's frequency, ascending, so the band is one contiguous range.
fn emitter_band<'a>(
    freqs: &'a [f64],
    e: &Emitter,
    center: f64,
    phase: f64,
) -> (usize, impl Iterator<Item = f64> + 'a) {
    let (bw, power, ripple, period) = match *e {
        Emitter::Wifi {
            bandwidth_mhz,
            power_dbm,
            ripple_db,
            ripple_period_mhz,
            ..
        } => (bandwidth_mhz, power_dbm, ripple_db, ripple_period_mhz),
        Emitter::Hopper {
            bandwidth_mhz,
            power_dbm,
            ..
        }
        | Emitter::Narrowband {
            bandwidth_mhz,
            power_dbm,
            ..
        } => (bandwidth_mhz, power_dbm, 0.0, 1.0),
    };
    let lo = center - bw / 2.0;
    let hi = center + bw / 2.0;
    let start = freqs.partition_point(|&f| f < lo);
    let end = freqs.partition_point(|&f| f <= hi).max(start);
    let mw = freqs[start..end].iter().map(move |&f| {
        // Spectral shape: flat top with soft 0.5 MHz edges.
        let edge = (f - lo).min(hi - f);
        let rolloff_db = if edge < 0.5 { (0.5 - edge) * 30.0 } else { 0.0 };
        // Static multipath ripple across frequency.
        let ripple_db = ripple / 2.0 * (std::f64::consts::TAU * f / period + phase).sin();
        dbm_to_mw(power - rolloff_db + ripple_db)
    });
    (start, mw)
}

impl Waterfall {
    /// Number of frames captured.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of FFT bins per frame.
    pub fn num_bins(&self) -> usize {
        self.frames.first().map_or(0, Vec::len)
    }

    /// Time-averaged power per bin (dBm), averaging in linear power.
    pub fn mean_psd_dbm(&self) -> Vec<f64> {
        if self.frames.is_empty() {
            return Vec::new();
        }
        let bins = self.num_bins();
        let mut acc = vec![0.0f64; bins];
        for frame in &self.frames {
            for (a, &p) in acc.iter_mut().zip(frame) {
                *a += dbm_to_mw(p);
            }
        }
        acc.into_iter()
            .map(|mw| mw_to_dbm(mw / self.frames.len() as f64))
            .collect()
    }

    /// Fraction of (frame, bin) cells above `threshold_dbm` — a crude
    /// occupancy measure comparable to energy-detect utilization.
    pub fn occupancy_above(&self, threshold_dbm: f64) -> f64 {
        let total: usize = self.frames.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let hot: usize = self
            .frames
            .iter()
            .flat_map(|f| f.iter())
            .filter(|&&p| p > threshold_dbm)
            .count();
        hot as f64 / total as f64
    }

    /// Fraction of frames in which any bin inside `[lo_mhz, hi_mhz]`
    /// exceeds `threshold_dbm` — per-signal burst occupancy.
    pub fn band_occupancy(&self, lo_mhz: f64, hi_mhz: f64, threshold_dbm: f64) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let bins = self.num_bins();
        let span_lo = self.center_mhz - self.span_mhz / 2.0;
        let to_bin = |f: f64| -> usize {
            (((f - span_lo) / self.span_mhz * bins as f64) as isize).clamp(0, bins as isize - 1)
                as usize
        };
        let (b0, b1) = (to_bin(lo_mhz), to_bin(hi_mhz));
        let hits = self
            .frames
            .iter()
            .filter(|f| f[b0..=b1].iter().any(|&p| p > threshold_dbm))
            .count();
        hits as f64 / self.frames.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::rng::fnv1a;
    use airstat_stats::SeedTree;

    /// An always-on 20 MHz source with a deep ripple at 5.22 GHz.
    fn ripple_scan() -> SpectrumScan {
        SpectrumScan {
            center_mhz: 5220.0,
            span_mhz: 32.0,
            fft_bins: 1024,
            emitters: vec![Emitter::Wifi {
                center_mhz: 5220.0,
                bandwidth_mhz: 20.0,
                power_dbm: -55.0,
                duty: 1.0, // always on, isolate the ripple
                ripple_db: 10.0,
                ripple_period_mhz: 4.0,
            }],
        }
    }

    /// An always-on Bluetooth-like hopper across the 2.4 GHz span.
    fn hopper_scan() -> SpectrumScan {
        SpectrumScan {
            center_mhz: 2437.0,
            span_mhz: 32.0,
            fft_bins: 512,
            emitters: vec![Emitter::Hopper {
                lo_mhz: 2422.0,
                hi_mhz: 2452.0,
                bandwidth_mhz: 1.0,
                power_dbm: -50.0,
                duty: 1.0,
            }],
        }
    }

    /// FNV-1a over every cell's `f64::to_bits`, frame by frame.
    fn bit_digest(wf: &Waterfall) -> u64 {
        let bytes: Vec<u8> = wf
            .frames
            .iter()
            .flatten()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }

    #[test]
    fn captures_are_pinned_bit_for_bit() {
        // Every cell of a capture is a function of the scan and the RNG
        // stream alone; these digests hold it to the bit, so a faster
        // synthesis has to keep each emitter's operands, the order they
        // are summed in and the order the RNG is drawn in.
        let mut digests = Vec::new();
        for seed in [1u64, 2, 3] {
            for scan in [SpectrumScan::paper_2_4ghz(), SpectrumScan::paper_5ghz()] {
                let mut rng = SeedTree::new(seed).rng();
                digests.push(bit_digest(&scan.capture(120, &mut rng)));
            }
        }
        for scan in [ripple_scan(), hopper_scan()] {
            let mut rng = SeedTree::new(7).rng();
            digests.push(bit_digest(&scan.capture(120, &mut rng)));
        }
        assert_eq!(
            digests,
            [
                0xd304_1dae_95ae_63b9,
                0xf9e2_3511_014b_91f3,
                0xe34e_f44d_63ad_a3c2,
                0xf392_ab27_8750_dc21,
                0xa0fa_fa62_e89d_21c0,
                0x2b5c_4afa_d4da_a086,
                0x95e9_1901_444e_d874,
                0x2f44_7066_e13d_dddd,
            ],
            "{digests:#x?}"
        );
    }

    #[test]
    fn bin_frequencies_span_the_window() {
        let scan = SpectrumScan::paper_2_4ghz();
        let f0 = scan.bin_freq_mhz(0);
        let fn_1 = scan.bin_freq_mhz(scan.fft_bins - 1);
        assert!(f0 > 2421.0 && f0 < 2421.1);
        assert!(fn_1 > 2452.9 && fn_1 < 2453.0);
    }

    #[test]
    fn capture_dimensions() {
        let scan = SpectrumScan::paper_2_4ghz();
        let mut rng = SeedTree::new(41).rng();
        let wf = scan.capture(50, &mut rng);
        assert_eq!(wf.num_frames(), 50);
        assert_eq!(wf.num_bins(), 4096);
    }

    #[test]
    fn quiet_span_sits_at_noise_floor() {
        let scan = SpectrumScan {
            center_mhz: 5500.0,
            span_mhz: 32.0,
            fft_bins: 512,
            emitters: vec![],
        };
        let mut rng = SeedTree::new(42).rng();
        let wf = scan.capture(20, &mut rng);
        let psd = wf.mean_psd_dbm();
        let mean: f64 = psd.iter().sum::<f64>() / psd.len() as f64;
        assert!((mean - BIN_NOISE_FLOOR_DBM).abs() < 2.0, "mean {mean}");
        assert!(wf.occupancy_above(-100.0) < 0.01);
    }

    #[test]
    fn wifi_burst_occupies_its_band() {
        let scan = SpectrumScan::paper_2_4ghz();
        let mut rng = SeedTree::new(43).rng();
        let wf = scan.capture(400, &mut rng);
        // Channel 6 (2427–2447) should burst ~20% of frames well above floor.
        let occ = wf.band_occupancy(2430.0, 2444.0, -80.0);
        assert!(occ > 0.15 && occ < 0.75, "channel-6 occupancy {occ}");
        // The top edge of the span (outside any 802.11 channel here) shows
        // only the Bluetooth hopper, so much lower occupancy.
        let edge = wf.band_occupancy(2452.0, 2452.9, -80.0);
        assert!(edge < occ / 2.0, "edge occupancy {edge} vs {occ}");
    }

    #[test]
    fn five_ghz_scan_is_quieter_than_2_4() {
        let mut rng = SeedTree::new(44).rng();
        let wf24 = SpectrumScan::paper_2_4ghz().capture(200, &mut rng);
        let wf5 = SpectrumScan::paper_5ghz().capture(200, &mut rng);
        let occ24 = wf24.occupancy_above(-85.0);
        let occ5 = wf5.occupancy_above(-85.0);
        assert!(
            occ24 > 4.0 * occ5,
            "2.4 GHz occupancy {occ24} should dwarf 5 GHz {occ5}"
        );
    }

    #[test]
    fn ripple_produces_frequency_selective_structure() {
        // With a large ripple, the in-band PSD should vary by several dB.
        let scan = ripple_scan();
        let mut rng = SeedTree::new(45).rng();
        let wf = scan.capture(100, &mut rng);
        let psd = wf.mean_psd_dbm();
        // Look at in-band bins away from the edges.
        let bins = psd.len();
        let in_band: Vec<f64> = (0..bins)
            .filter(|&i| {
                let f = scan.bin_freq_mhz(i);
                f > 5212.0 && f < 5228.0
            })
            .map(|i| psd[i])
            .collect();
        let max = in_band.iter().cloned().fold(f64::MIN, f64::max);
        let min = in_band.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 5.0, "ripple depth {}", max - min);
    }

    #[test]
    fn hopper_moves_between_frames() {
        let scan = hopper_scan();
        let mut rng = SeedTree::new(46).rng();
        let wf = scan.capture(100, &mut rng);
        // Find the hottest bin per frame; it should move around.
        let hot_bins: std::collections::HashSet<usize> = wf
            .frames
            .iter()
            .map(|f| {
                f.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            })
            .collect();
        assert!(
            hot_bins.len() > 20,
            "hopper visited {} bins",
            hot_bins.len()
        );
    }
}
