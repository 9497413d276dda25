//! OFDM symbol assembly: subcarrier mapping, pilots, IFFT, cyclic prefix.

use crate::params::{
    data_carriers, N_CP, N_DATA, N_FFT, N_OCCUPIED, PILOT_CARRIERS, PILOT_VALUES,
};
use wlan_coding::scrambler::Scrambler;
use wlan_math::fft::{self, FftPlan};
use wlan_math::Complex;

/// Time-domain amplitude scale making the average transmitted sample power
/// approximately one: the IFFT of 52 unit-power subcarriers spread over 64
/// bins needs `N/√N_occupied`.
pub fn tx_scale() -> f64 {
    N_FFT as f64 / (N_OCCUPIED as f64).sqrt()
}

/// The pilot polarity sequence `p_n` (802.11a §17.3.5.9): the 127-periodic
/// scrambler sequence mapped 0 → +1, 1 → −1.
///
/// The 127-long period is generated once per process; this is called once
/// per symbol on both the transmit and receive paths.
pub fn pilot_polarity(n: usize) -> f64 {
    static SEQ: std::sync::OnceLock<[f64; 127]> = std::sync::OnceLock::new();
    let seq = SEQ.get_or_init(|| {
        let bits = Scrambler::new(0x7F).sequence(127);
        let mut out = [0.0; 127];
        for (slot, &b) in out.iter_mut().zip(bits.iter()) {
            *slot = if b == 0 { 1.0 } else { -1.0 };
        }
        out
    });
    seq[n % 127]
}

/// Maps signed subcarrier index (−32..32) to FFT bin (0..64).
fn carrier_to_bin(k: i32) -> usize {
    ((k + N_FFT as i32) % N_FFT as i32) as usize
}

/// FFT bin of each of the 48 data subcarriers, in mapping order.
pub(crate) fn data_bins() -> &'static [usize; N_DATA] {
    static BINS: std::sync::OnceLock<[usize; N_DATA]> = std::sync::OnceLock::new();
    BINS.get_or_init(|| data_carriers().map(carrier_to_bin))
}

/// Assembles one time-domain OFDM symbol (CP + 64 samples) from 48 data
/// subcarrier values, inserting pilots for symbol index `sym_idx`.
///
/// # Panics
///
/// Panics if `data.len() != 48`.
pub fn assemble_symbol(data: &[Complex], sym_idx: usize) -> Vec<Complex> {
    assert_eq!(data.len(), N_DATA, "need exactly 48 data subcarriers");
    let mut bins = [Complex::ZERO; N_FFT];
    for (&bin, &d) in data_bins().iter().zip(data) {
        bins[bin] = d;
    }
    let mut out = Vec::with_capacity(N_CP + N_FFT);
    emit_symbol(&mut bins, sym_idx, &fft::cached_plan(N_FFT), &mut out);
    out
}

/// Finishes one symbol whose data bins the caller has filled (every other
/// bin zero): inserts the pilots for symbol index `sym_idx`, inverse-
/// transforms the bins in place with `plan` (a 64-point plan), and appends
/// the scaled cyclic prefix (the last 16 samples) and the 64 samples to
/// `out`.
pub(crate) fn emit_symbol(
    bins: &mut [Complex; N_FFT],
    sym_idx: usize,
    plan: &FftPlan,
    out: &mut Vec<Complex>,
) {
    let polarity = pilot_polarity(sym_idx);
    for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
        bins[carrier_to_bin(k)] = Complex::from_re(PILOT_VALUES[i] * polarity);
    }
    plan.ifft_in_place(bins);
    let scale = tx_scale();
    out.extend(bins[N_FFT - N_CP..].iter().map(|s| s.scale(scale)));
    out.extend(bins.iter().map(|s| s.scale(scale)));
}

/// Result of disassembling one received symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct RxSymbol {
    /// Equalized data subcarrier values (48), in mapping order.
    pub data: Vec<Complex>,
    /// Per-subcarrier CSI weights `|H_k|²` for soft demapping.
    pub csi: Vec<f64>,
}

/// Strips the CP, FFTs, equalizes against `channel` (the per-bin frequency
/// response), corrects the common pilot phase error, and extracts the data
/// subcarriers of symbol `sym_idx`.
///
/// # Panics
///
/// Panics if `samples.len() != 80` or `channel.len() != 64`.
pub fn disassemble_symbol(samples: &[Complex], channel: &[Complex], sym_idx: usize) -> RxSymbol {
    assert_eq!(samples.len(), N_CP + N_FFT, "need one 80-sample symbol");
    assert_eq!(channel.len(), N_FFT, "need a 64-bin channel estimate");
    let mut bins: Vec<Complex> = samples[N_CP..]
        .iter()
        .map(|s| s.scale(1.0 / tx_scale()))
        .collect();
    fft::fft_in_place(&mut bins);

    let mut data = Vec::with_capacity(N_DATA);
    let mut csi = Vec::with_capacity(N_DATA);
    let taps = EqualizerTaps::new(channel);
    equalize_into(&bins, &taps, sym_idx, &mut data, &mut csi);
    RxSymbol { data, csi }
}

/// Per-bin equalizer taps, derived once per frame from the channel
/// estimate: `1/H_k` (the factor `y / H_k` multiplies `y` by) and the CSI
/// weight `|H_k|²`.
struct EqualizerTaps {
    inv: [Complex; N_FFT],
    gain: [f64; N_FFT],
}

impl EqualizerTaps {
    /// `channel` must hold 64 bins.
    fn new(channel: &[Complex]) -> Self {
        EqualizerTaps {
            inv: std::array::from_fn(|b| channel[b].recip()),
            gain: std::array::from_fn(|b| channel[b].norm_sqr()),
        }
    }
}

/// Pilot CPE correction + per-carrier equalization of one FFT'd symbol,
/// appending the 48 data points and CSI weights to the caller's buffers.
/// `y / H_k` is computed as `y · (1/H_k)`, exactly what complex division
/// does, with the reciprocal taken once per frame instead of per symbol.
fn equalize_into(
    bins: &[Complex],
    taps: &EqualizerTaps,
    sym_idx: usize,
    data: &mut Vec<Complex>,
    csi: &mut Vec<f64>,
) {
    // Common phase error from the four pilots.
    let polarity = pilot_polarity(sym_idx);
    let mut cpe = Complex::ZERO;
    for (i, &k) in PILOT_CARRIERS.iter().enumerate() {
        let bin = carrier_to_bin(k);
        let expected = Complex::from_re(PILOT_VALUES[i] * polarity);
        if taps.gain[bin] > 1e-12 {
            cpe += (bins[bin] * taps.inv[bin]) * expected.conj();
        }
    }
    let rot = if cpe.norm() > 1e-9 {
        Complex::from_polar(1.0, -cpe.arg())
    } else {
        Complex::ONE
    };

    for &bin in data_bins() {
        let h2 = taps.gain[bin];
        if h2 > 1e-12 {
            data.push(bins[bin] * taps.inv[bin] * rot);
        } else {
            data.push(Complex::ZERO);
        }
        csi.push(h2);
    }
}

/// Reusable FFT workspace for [`disassemble_symbols_into`]; holding one
/// across frames keeps the receive chain allocation-free per symbol.
#[derive(Debug, Clone, Default)]
pub struct DisassemblyScratch {
    bins: Vec<Complex>,
}

/// Disassembles `n_sym` consecutive 80-sample symbols in one batched,
/// in-place FFT pass, appending equalized data points and CSI weights to
/// `data`/`csi` in `(symbol, carrier)` order. Symbol `s` uses pilot
/// polarity index `first_sym_idx + s`. Bit-identical to calling
/// [`disassemble_symbol`] once per symbol.
///
/// # Panics
///
/// Panics if `samples` holds fewer than `n_sym` whole symbols or
/// `channel.len() != 64`.
pub fn disassemble_symbols_into(
    samples: &[Complex],
    channel: &[Complex],
    first_sym_idx: usize,
    n_sym: usize,
    scratch: &mut DisassemblyScratch,
    data: &mut Vec<Complex>,
    csi: &mut Vec<f64>,
) {
    assert!(
        samples.len() >= n_sym * (N_CP + N_FFT),
        "need {n_sym} whole 80-sample symbols"
    );
    assert_eq!(channel.len(), N_FFT, "need a 64-bin channel estimate");
    let plan = fft::cached_plan(N_FFT);
    let inv_scale = 1.0 / tx_scale();

    scratch.bins.clear();
    scratch.bins.reserve(n_sym * N_FFT);
    for s in 0..n_sym {
        let body = &samples[s * (N_CP + N_FFT) + N_CP..(s + 1) * (N_CP + N_FFT)];
        scratch.bins.extend(body.iter().map(|v| v.scale(inv_scale)));
    }
    plan.fft_batch(&mut scratch.bins);

    let taps = EqualizerTaps::new(channel);
    data.reserve(n_sym * N_DATA);
    csi.reserve(n_sym * N_DATA);
    for (s, bins) in scratch.bins.chunks_exact(N_FFT).enumerate() {
        equalize_into(bins, &taps, first_sym_idx + s, data, csi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::complex::mean_power;

    fn test_data() -> Vec<Complex> {
        (0..N_DATA)
            .map(|i| Complex::from_polar(1.0, i as f64 * 0.71))
            .collect()
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        let data = test_data();
        let sym = assemble_symbol(&data, 1);
        assert_eq!(sym.len(), 80);
        let flat = vec![Complex::ONE; N_FFT];
        let rx = disassemble_symbol(&sym, &flat, 1);
        for (a, b) in rx.data.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-9);
        }
        for w in rx.csi {
            assert!((w - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cp_is_cyclic() {
        let sym = assemble_symbol(&test_data(), 0);
        for i in 0..N_CP {
            assert!((sym[i] - sym[i + N_FFT]).norm() < 1e-12, "CP sample {i}");
        }
    }

    #[test]
    fn average_power_is_near_unity() {
        // Average over subcarrier-bearing samples: the scale targets 1.0.
        let mut acc = 0.0;
        let trials = 64;
        for t in 0..trials {
            let data: Vec<Complex> = (0..N_DATA)
                .map(|i| Complex::from_polar(1.0, (i * (t + 3)) as f64 * 1.37))
                .collect();
            acc += mean_power(&assemble_symbol(&data, t));
        }
        let avg = acc / trials as f64;
        assert!((avg - 1.0).abs() < 0.1, "avg symbol power {avg}");
    }

    #[test]
    fn pilot_polarity_follows_scrambler_sequence() {
        // First bits of the 127 sequence: 0 0 0 0 1 1 1 0 → + + + + − − − +.
        let want = [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0];
        for (n, &w) in want.iter().enumerate() {
            assert_eq!(pilot_polarity(n), w, "symbol {n}");
        }
        // Periodicity.
        assert_eq!(pilot_polarity(5), pilot_polarity(5 + 127));
    }

    #[test]
    fn phase_error_is_corrected_by_pilots() {
        let data = test_data();
        let sym = assemble_symbol(&data, 2);
        // Rotate the whole symbol by a common phase (residual CFO effect).
        let rotated: Vec<Complex> = sym
            .iter()
            .map(|&s| s * Complex::from_polar(1.0, 0.3))
            .collect();
        let flat = vec![Complex::ONE; N_FFT];
        let rx = disassemble_symbol(&rotated, &flat, 2);
        for (a, b) in rx.data.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-6, "CPE not removed: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn equalizer_inverts_multipath() {
        let data = test_data();
        let sym = assemble_symbol(&data, 3);
        // Two-tap channel applied circularly via the CP.
        let taps = [Complex::from_re(1.0), Complex::new(0.4, -0.3)];
        let mut rxs = vec![Complex::ZERO; sym.len()];
        for (i, &s) in sym.iter().enumerate() {
            for (j, &h) in taps.iter().enumerate() {
                if i + j < rxs.len() {
                    rxs[i + j] += s * h;
                }
            }
        }
        // Channel frequency response over 64 bins.
        let mut padded = taps.to_vec();
        padded.resize(N_FFT, Complex::ZERO);
        let h = wlan_math::fft::fft(&padded);
        let rx = disassemble_symbol(&rxs, &h, 3);
        for (a, b) in rx.data.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-6, "equalization failed");
        }
    }

    #[test]
    fn nulled_channel_yields_zero_csi() {
        let data = test_data();
        let sym = assemble_symbol(&data, 0);
        let mut h = vec![Complex::ONE; N_FFT];
        // Null the bin of the first data carrier.
        let first = data_carriers()[0];
        h[carrier_to_bin(first)] = Complex::ZERO;
        let rx = disassemble_symbol(&sym, &h, 0);
        assert!(rx.csi[0] < 1e-12);
        assert!(rx.csi[1] > 0.5);
    }

    #[test]
    #[should_panic(expected = "48 data subcarriers")]
    fn assemble_checks_length() {
        let _ = assemble_symbol(&[Complex::ZERO; 47], 0);
    }

    #[test]
    fn batched_disassembly_is_bit_identical_to_scalar() {
        // Multi-symbol stream through a frequency-selective channel; batch
        // output must match the per-symbol path bit for bit.
        let taps = [Complex::from_re(0.9), Complex::new(0.3, -0.2)];
        let mut padded = taps.to_vec();
        padded.resize(N_FFT, Complex::ZERO);
        let h = wlan_math::fft::fft(&padded);

        let n_sym = 5;
        let mut stream = Vec::new();
        let mut datas = Vec::new();
        for s in 0..n_sym {
            let data: Vec<Complex> = (0..N_DATA)
                .map(|i| Complex::from_polar(1.0, (i * (s + 2)) as f64 * 0.53))
                .collect();
            stream.extend(assemble_symbol(&data, s + 1));
            datas.push(data);
        }

        let mut scratch = DisassemblyScratch::default();
        let mut data = Vec::new();
        let mut csi = Vec::new();
        disassemble_symbols_into(&stream, &h, 1, n_sym, &mut scratch, &mut data, &mut csi);
        assert_eq!(data.len(), n_sym * N_DATA);

        for s in 0..n_sym {
            let rx = disassemble_symbol(&stream[s * 80..(s + 1) * 80], &h, s + 1);
            for c in 0..N_DATA {
                let b = data[s * N_DATA + c];
                let a = rx.data[c];
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "symbol {s} carrier {c}: {a:?} vs {b:?}"
                );
                assert_eq!(rx.csi[c].to_bits(), csi[s * N_DATA + c].to_bits());
            }
        }

        // Scratch reuse across calls changes nothing.
        let mut data2 = Vec::new();
        let mut csi2 = Vec::new();
        disassemble_symbols_into(&stream, &h, 1, n_sym, &mut scratch, &mut data2, &mut csi2);
        assert_eq!(data, data2);
        assert_eq!(csi, csi2);
    }
}
