//! Complementary Code Keying — the 802.11b high-rate PHY.
//!
//! CCK replaced Barker spreading at 5.5 and 11 Mbps while keeping the 11 MHz
//! chip rate and a "DSSS-like signature" (the paper's phrase): each symbol is
//! an 8-chip codeword
//!
//! ```text
//! c = (e^{j(φ1+φ2+φ3+φ4)}, e^{j(φ1+φ3+φ4)}, e^{j(φ1+φ2+φ4)}, −e^{j(φ1+φ4)},
//!      e^{j(φ1+φ2+φ3)},     e^{j(φ1+φ3)},    −e^{j(φ1+φ2)},    e^{j(φ1)})
//! ```
//!
//! with φ1 carrying a DQPSK dibit and (at 11 Mbps) φ2–φ4 carrying three more
//! QPSK dibits — 8 bits per 8-chip symbol, i.e. 11 Mbps at 1.375 Msym/s.
//! The receiver correlates against the full codebook (64 codewords at
//! 11 Mbps, 4 at 5.5 Mbps), which is what made CCK practical: a 64-way
//! correlator bank instead of a 256-state trellis.

use std::f64::consts::PI;
use wlan_math::Complex;

/// Chips per CCK symbol.
pub const CHIPS_PER_SYMBOL: usize = 8;

/// Builds the 8-chip CCK codeword for the four phases.
pub fn codeword(phi1: f64, phi2: f64, phi3: f64, phi4: f64) -> [Complex; 8] {
    let e = |p: f64| Complex::from_polar(1.0, p);
    [
        e(phi1 + phi2 + phi3 + phi4),
        e(phi1 + phi3 + phi4),
        e(phi1 + phi2 + phi4),
        -e(phi1 + phi4),
        e(phi1 + phi2 + phi3),
        e(phi1 + phi3),
        -e(phi1 + phi2),
        e(phi1),
    ]
}

/// QPSK dibit → phase for φ2..φ4 (802.11b table 65: Gray-ish direct map).
fn dibit_phase(d0: u8, d1: u8) -> f64 {
    match (d0, d1) {
        (0, 0) => 0.0,
        (0, 1) => PI / 2.0,
        (1, 0) => PI,
        (1, 1) => 3.0 * PI / 2.0,
        _ => panic!("bits must be 0 or 1"),
    }
}

fn phase_dibit(index: usize) -> (u8, u8) {
    match index {
        0 => (0, 0),
        1 => (0, 1),
        2 => (1, 0),
        _ => (1, 1),
    }
}

/// DQPSK dibit → differential phase for φ1 (Gray coded).
fn dqpsk_phase(d0: u8, d1: u8) -> f64 {
    match (d0, d1) {
        (0, 0) => 0.0,
        (0, 1) => PI / 2.0,
        (1, 1) => PI,
        (1, 0) => 3.0 * PI / 2.0,
        _ => panic!("bits must be 0 or 1"),
    }
}

fn dqpsk_dibit(quadrant: usize) -> (u8, u8) {
    match quadrant {
        0 => (0, 0),
        1 => (0, 1),
        2 => (1, 1),
        _ => (1, 0),
    }
}

/// CCK data rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CckRate {
    /// 5.5 Mbps: 4 bits per symbol.
    Half,
    /// 11 Mbps: 8 bits per symbol.
    Full,
}

impl CckRate {
    /// Information bits carried per 8-chip symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            CckRate::Half => 4,
            CckRate::Full => 8,
        }
    }

    /// Data rate in Mbps at the 11 MHz chip rate.
    pub fn rate_mbps(self) -> f64 {
        // 11 Mchip/s ÷ 8 chips/symbol × bits/symbol.
        11.0 / 8.0 * self.bits_per_symbol() as f64
    }
}

/// A stateful CCK modulator (φ1 is differential across symbols).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CckModulator {
    rate: CckRate,
    phi1: f64,
}

impl CckModulator {
    /// Creates a modulator at the given rate with φ1 reference 0.
    pub fn new(rate: CckRate) -> Self {
        CckModulator { rate, phi1: 0.0 }
    }

    /// Modulates a whole number of symbols worth of bits into chips
    /// (normalized to unit average chip energy).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the bits per symbol.
    pub fn modulate(&mut self, bits: &[u8]) -> Vec<Complex> {
        let bps = self.rate.bits_per_symbol();
        assert_eq!(bits.len() % bps, 0, "bits must fill whole CCK symbols");
        let mut chips = Vec::with_capacity(bits.len() / bps * CHIPS_PER_SYMBOL);
        for sym in bits.chunks(bps) {
            self.phi1 += dqpsk_phase(sym[0], sym[1]);
            let (p2, p3, p4) = match self.rate {
                CckRate::Full => (
                    dibit_phase(sym[2], sym[3]),
                    dibit_phase(sym[4], sym[5]),
                    dibit_phase(sym[6], sym[7]),
                ),
                // 802.11b §18.4.6.5.3: φ2 = d2·π + π/2, φ3 = 0, φ4 = d3·π.
                CckRate::Half => (
                    sym[2] as f64 * PI + PI / 2.0,
                    0.0,
                    sym[3] as f64 * PI,
                ),
            };
            chips.extend_from_slice(&codeword(self.phi1, p2, p3, p4));
        }
        chips
    }
}

/// A CCK correlation receiver (codebook search + differential φ1).
#[derive(Debug, Clone, PartialEq)]
pub struct CckDemodulator {
    rate: CckRate,
    prev_phi1: f64,
    /// Candidate (φ2, φ3, φ4) triples with their decoded payload bits.
    candidates: Vec<([Complex; 8], Vec<u8>)>,
    /// `u_i = conj(e^{jiπ/2})`, the factors of the 11 Mbps correlator.
    quarter_turns: [Complex; 4],
}

impl CckDemodulator {
    /// Creates a demodulator matching [`CckModulator::new`].
    pub fn new(rate: CckRate) -> Self {
        // Precompute φ1 = 0 codewords for every data combination.
        let mut candidates = Vec::new();
        match rate {
            CckRate::Full => {
                for i2 in 0..4usize {
                    for i3 in 0..4usize {
                        for i4 in 0..4usize {
                            let cw = codeword(
                                0.0,
                                i2 as f64 * PI / 2.0,
                                i3 as f64 * PI / 2.0,
                                i4 as f64 * PI / 2.0,
                            );
                            let (b2, b3) = phase_dibit(i2);
                            let (b4, b5) = phase_dibit(i3);
                            let (b6, b7) = phase_dibit(i4);
                            candidates.push((cw, vec![b2, b3, b4, b5, b6, b7]));
                        }
                    }
                }
            }
            CckRate::Half => {
                for d2 in 0..2u8 {
                    for d3 in 0..2u8 {
                        let cw = codeword(
                            0.0,
                            d2 as f64 * PI + PI / 2.0,
                            0.0,
                            d3 as f64 * PI,
                        );
                        candidates.push((cw, vec![d2, d3]));
                    }
                }
            }
        }
        CckDemodulator {
            rate,
            prev_phi1: 0.0,
            candidates,
            quarter_turns: std::array::from_fn(|i| {
                Complex::from_polar(1.0, i as f64 * PI / 2.0).conj()
            }),
        }
    }

    /// Demodulates a whole number of 8-chip symbols.
    ///
    /// # Panics
    ///
    /// Panics if `chips.len()` is not a multiple of 8.
    pub fn demodulate(&mut self, chips: &[Complex]) -> Vec<u8> {
        assert_eq!(
            chips.len() % CHIPS_PER_SYMBOL,
            0,
            "chip stream must be whole CCK symbols"
        );
        let n_sym = chips.len() / CHIPS_PER_SYMBOL;
        let mut bits = Vec::with_capacity(n_sym * self.rate.bits_per_symbol());
        for block in chips.chunks(CHIPS_PER_SYMBOL) {
            let (best, best_corr) = match self.rate {
                CckRate::Full => self.correlate_full(block),
                CckRate::Half => self.correlate_codebook(block),
            };
            // The winning correlation's phase is φ1; decode it differentially.
            let phi1 = best_corr.arg();
            let dphi = phi1 - self.prev_phi1;
            self.prev_phi1 = phi1;
            let quadrant =
                (((dphi.rem_euclid(2.0 * PI)) + PI / 4.0) / (PI / 2.0)).floor() as usize % 4;
            let (b0, b1) = dqpsk_dibit(quadrant);
            bits.push(b0);
            bits.push(b1);
            bits.extend_from_slice(&self.candidates[best].1);
        }
        bits
    }

    /// Maximum-magnitude correlation by exhaustive codebook search (the
    /// small 5.5 Mbps codebook).
    fn correlate_codebook(&self, block: &[Complex]) -> (usize, Complex) {
        let mut best = 0usize;
        let mut best_corr = Complex::ZERO;
        for (i, (cw, _)) in self.candidates.iter().enumerate() {
            let corr: Complex = block
                .iter()
                .zip(cw.iter())
                .map(|(&r, &c)| r * c.conj())
                .sum();
            if corr.norm_sqr() > best_corr.norm_sqr() {
                best = i;
                best_corr = corr;
            }
        }
        (best, best_corr)
    }

    /// Factorized 64-way correlator for the 11 Mbps codebook.
    ///
    /// With φ1 = 0 the codeword conjugate splits over φ4: writing
    /// `u_i = conj(e^{jφ_i})`,
    ///
    /// ```text
    /// corr(φ2,φ3,φ4) = u4·(r0·u2u3 + r1·u3 + r2·u2 − r3)
    ///                +     (r4·u2u3 + r5·u3 − r6·u2 + r7)
    /// ```
    ///
    /// so the receiver computes 16 (φ2, φ3) partial pairs once and reuses
    /// each across the four φ4 hypotheses — ~3× fewer complex multiplies
    /// than the plain 64 × 8 bank, with the same argmax decision rule and
    /// candidate ordering (index = (i2·4 + i3)·4 + i4).
    fn correlate_full(&self, block: &[Complex]) -> (usize, Complex) {
        let u = &self.quarter_turns;
        let mut best = 0usize;
        let mut best_corr = Complex::ZERO;
        for p in 0..16usize {
            let (i2, i3) = (p / 4, p % 4);
            let u23 = u[i2] * u[i3];
            let a = block[0] * u23 + block[1] * u[i3] + block[2] * u[i2] - block[3];
            let b = block[4] * u23 + block[5] * u[i3] - block[6] * u[i2] + block[7];
            for (i4, &u4) in u.iter().enumerate() {
                let corr = a * u4 + b;
                if corr.norm_sqr() > best_corr.norm_sqr() {
                    best = (p << 2) | i4;
                    best_corr = corr;
                }
            }
        }
        (best, best_corr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::{Rng, WlanRng};

    #[test]
    fn rates_match_standard() {
        assert!((CckRate::Half.rate_mbps() - 5.5).abs() < 1e-12);
        assert!((CckRate::Full.rate_mbps() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn codewords_have_unit_chip_energy() {
        let cw = codeword(0.3, 1.0, 2.0, 0.5);
        for c in cw {
            assert!((c.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn codebook_is_distinct() {
        let demod = CckDemodulator::new(CckRate::Full);
        assert_eq!(demod.candidates.len(), 64);
        // All 64 codewords mutually distinguishable: max cross-correlation
        // magnitude strictly below the autocorrelation (8).
        for i in 0..64 {
            for j in (i + 1)..64 {
                let corr: Complex = demod.candidates[i]
                    .0
                    .iter()
                    .zip(demod.candidates[j].0.iter())
                    .map(|(&a, &b)| a * b.conj())
                    .sum();
                assert!(corr.norm() < 7.99, "codewords {i},{j} too similar");
            }
        }
    }

    #[test]
    fn full_rate_roundtrip() {
        let mut rng = WlanRng::seed_from_u64(60);
        let bits: Vec<u8> = (0..8 * 50).map(|_| rng.gen_range(0..2u8)).collect();
        let chips = CckModulator::new(CckRate::Full).modulate(&bits);
        assert_eq!(chips.len(), 50 * CHIPS_PER_SYMBOL);
        let out = CckDemodulator::new(CckRate::Full).demodulate(&chips);
        assert_eq!(out, bits);
    }

    #[test]
    fn half_rate_roundtrip() {
        let mut rng = WlanRng::seed_from_u64(61);
        let bits: Vec<u8> = (0..4 * 50).map(|_| rng.gen_range(0..2u8)).collect();
        let chips = CckModulator::new(CckRate::Half).modulate(&bits);
        let out = CckDemodulator::new(CckRate::Half).demodulate(&chips);
        assert_eq!(out, bits);
    }

    #[test]
    fn roundtrip_with_carrier_phase_offset() {
        // A static phase offset shifts φ1 of every symbol equally: it cancels
        // in the symbol-to-symbol differences and only biases the *first*
        // symbol against the φ1 = 0 reference, where it is absorbed as long
        // as it stays inside the π/4 DQPSK decision margin.
        let bits = vec![1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1];
        let chips = CckModulator::new(CckRate::Full).modulate(&bits);
        let rotated: Vec<Complex> = chips
            .iter()
            .map(|&c| c * Complex::from_polar(1.0, 0.6))
            .collect();
        let out = CckDemodulator::new(CckRate::Full).demodulate(&rotated);
        assert_eq!(out, bits);

        // Beyond π/4 the damage must be confined to the first symbol.
        let rotated_far: Vec<Complex> = chips
            .iter()
            .map(|&c| c * Complex::from_polar(1.0, 1.2))
            .collect();
        let out_far = CckDemodulator::new(CckRate::Full).demodulate(&rotated_far);
        assert_eq!(&out_far[8..], &bits[8..], "later symbols must be intact");
    }

    #[test]
    fn roundtrip_with_mild_noise() {
        let mut rng = WlanRng::seed_from_u64(62);
        let bits: Vec<u8> = (0..8 * 100).map(|_| rng.gen_range(0..2u8)).collect();
        let chips = CckModulator::new(CckRate::Full).modulate(&bits);
        // 12 dB chip SNR is comfortable for the 64-codeword correlator.
        let noisy: Vec<Complex> = chips
            .iter()
            .map(|&c| {
                c + wlan_channel::noise::complex_gaussian(&mut rng)
                    .scale(10f64.powf(-12.0 / 20.0))
            })
            .collect();
        let out = CckDemodulator::new(CckRate::Full).demodulate(&noisy);
        let errors: usize = out.iter().zip(&bits).filter(|(a, b)| a != b).count();
        let ber = errors as f64 / bits.len() as f64;
        assert!(ber < 0.01, "BER too high: {errors}/{}", bits.len());
    }

    #[test]
    #[should_panic(expected = "whole CCK symbols")]
    fn modulate_length_checked() {
        let _ = CckModulator::new(CckRate::Full).modulate(&[1, 0, 1]);
    }
}
