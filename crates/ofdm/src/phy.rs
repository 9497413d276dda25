//! The frame-level 802.11a transmit/receive chain.
//!
//! A transmitted frame is `STF ‖ LTF ‖ SIGNAL ‖ DATA…`:
//!
//! 1. the short training field (160 samples, sync/AGC),
//! 2. the long training field (160 samples, channel estimation),
//! 3. one BPSK rate-1/2 SIGNAL symbol carrying RATE and LENGTH,
//! 4. `N_SYM` data symbols carrying
//!    `SERVICE(16) ‖ payload ‖ TAIL(6) ‖ PAD`, scrambled, convolutionally
//!    encoded, punctured, interleaved and QAM-mapped.
//!
//! The receiver estimates the channel from the LTF, decodes SIGNAL to learn
//! rate and length, then equalizes and soft-decodes the data field.

use crate::params::{Modulation, OfdmRate, N_DATA, N_FFT, N_SYM_SAMPLES};
use crate::preamble;
use crate::qam;
use crate::symbol::{
    data_bins, disassemble_symbol, disassemble_symbols_into, emit_symbol, DisassemblyScratch,
};
use std::sync::OnceLock;
use wlan_coding::interleaver::Interleaver;
use wlan_coding::scrambler::Scrambler;
use wlan_coding::{ConvEncoder, ViterbiDecoder};
use wlan_math::fft::{self, FftPlan};
use wlan_math::Complex;

/// Errors the receive chain can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// The sample stream is shorter than the advertised frame.
    TooShort,
    /// The SIGNAL field failed its parity check.
    SignalParity,
    /// The SIGNAL RATE bits decode to no known rate.
    UnknownRate,
    /// SIGNAL decoded to a different rate than this PHY is configured for.
    RateMismatch,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::TooShort => write!(f, "sample stream shorter than frame"),
            RxError::SignalParity => write!(f, "SIGNAL field parity check failed"),
            RxError::UnknownRate => write!(f, "SIGNAL rate bits invalid"),
            RxError::RateMismatch => write!(f, "SIGNAL rate differs from configured rate"),
        }
    }
}

impl std::error::Error for RxError {}

/// A complete 802.11a OFDM PHY at a fixed rate.
///
/// # Examples
///
/// ```
/// use wlan_ofdm::{OfdmPhy, OfdmRate};
///
/// let phy = OfdmPhy::new(OfdmRate::R24);
/// let frame = phy.transmit(b"data");
/// assert_eq!(phy.receive(&frame).unwrap(), b"data");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfdmPhy {
    rate: OfdmRate,
}

/// Number of preamble samples (STF + LTF).
pub const PREAMBLE_SAMPLES: usize = 320;
/// Sample offset of the SIGNAL symbol.
pub const SIGNAL_OFFSET: usize = PREAMBLE_SAMPLES;
/// Sample offset of the first data symbol.
pub const DATA_OFFSET: usize = PREAMBLE_SAMPLES + N_SYM_SAMPLES;
/// Largest payload in bytes the 12-bit SIGNAL LENGTH field can carry.
pub const MAX_PAYLOAD: usize = 4095;

/// The data-field scrambler seed (the standard's example value).
const SCRAMBLER_SEED: u8 = 0x5D;

/// One 127-bit period of the data-field scrambler sequence.
fn scrambler_sequence() -> &'static [u8; 127] {
    static SEQ: OnceLock<[u8; 127]> = OnceLock::new();
    SEQ.get_or_init(|| {
        let mut lfsr = Scrambler::new(SCRAMBLER_SEED);
        std::array::from_fn(|_| lfsr.next_bit())
    })
}

/// The symbol tables of one rate, built once per process.
///
/// Every data symbol carries `2·N_DBPS` mother-code bits, a whole number of
/// puncturing periods at every rate, so puncturing and interleaving reduce
/// to one per-symbol index map. The SIGNAL symbol is coded like a 6 Mbps
/// data symbol (BPSK, rate 1/2) and uses that rate's tables.
struct RateTables {
    modulation: Modulation,
    /// Mother-code offset (within the symbol's `2·N_DBPS` mother bits) of
    /// each interleaved coded bit: the interleaver composed with the
    /// puncturer's kept positions. Subcarrier `c` carries coded bits
    /// `c·N_BPSC .. (c+1)·N_BPSC`.
    gather: Vec<usize>,
    /// Constellation point of each `N_BPSC`-bit label, bit `t` of the index
    /// being label bit `t`, as `qam::map_bits` maps it.
    points: Vec<Complex>,
}

impl RateTables {
    fn new(rate: OfdmRate) -> Self {
        let modulation = rate.modulation();
        let bpsc = modulation.bits_per_subcarrier();
        let pattern = rate.code_rate().pattern();
        let kept: Vec<usize> = (0..2 * rate.data_bits_per_symbol())
            .filter(|&m| pattern[m % pattern.len()])
            .collect();
        let il = Interleaver::new(rate.coded_bits_per_symbol(), bpsc);
        let gather = il.forward_map().iter().map(|&k| kept[k]).collect();
        let points = (0..1usize << bpsc)
            .map(|label| {
                let bits: Vec<u8> = (0..bpsc).map(|t| ((label >> t) & 1) as u8).collect();
                qam::map_bits(modulation, &bits)
            })
            .collect();
        RateTables {
            modulation,
            gather,
            points,
        }
    }

    fn get(rate: OfdmRate) -> &'static RateTables {
        static TABLES: [OnceLock<RateTables>; 8] = [const { OnceLock::new() }; 8];
        TABLES[rate as usize].get_or_init(|| RateTables::new(rate))
    }

    /// Maps one symbol's mother-code bits onto the 48 data bins of `bins`.
    fn map_symbol(&self, mother: &[u8], bins: &mut [Complex; N_FFT]) {
        let slots = self.gather.chunks_exact(self.modulation.bits_per_subcarrier());
        for (&bin, slots) in data_bins().iter().zip(slots) {
            let label = slots
                .iter()
                .enumerate()
                .fold(0, |label, (t, &m)| label | (mother[m] as usize) << t);
            bins[bin] = self.points[label];
        }
    }

    /// Soft-demaps one symbol's 48 equalized subcarriers (with their CSI
    /// weights) straight into its mother-code LLR plane. Slots no gather
    /// reaches are the punctured positions; they keep their value.
    fn demap_symbol(&self, data: &[Complex], csi: &[f64], plane: &mut [f64]) {
        let bpsc = self.modulation.bits_per_subcarrier();
        let mut llrs = [0.0; 6];
        for ((y, &w), slots) in data.iter().zip(csi).zip(self.gather.chunks_exact(bpsc)) {
            qam::demap_soft_into(self.modulation, *y, w, &mut llrs[..bpsc]);
            for (&m, &l) in slots.iter().zip(&llrs) {
                plane[m] = l;
            }
        }
    }
}

impl OfdmPhy {
    /// Creates a PHY at the given rate (scrambler seed 0x5D, the standard's
    /// example value).
    pub fn new(rate: OfdmRate) -> Self {
        OfdmPhy { rate }
    }

    /// The configured rate.
    pub fn rate(&self) -> OfdmRate {
        self.rate
    }

    /// Number of data OFDM symbols needed for a payload of `len` bytes.
    pub fn num_data_symbols(&self, len: usize) -> usize {
        let bits = 16 + 8 * len + 6;
        bits.div_ceil(self.rate.data_bits_per_symbol())
    }

    /// Total frame length in samples.
    pub fn frame_samples(&self, len: usize) -> usize {
        DATA_OFFSET + self.num_data_symbols(len) * N_SYM_SAMPLES
    }

    /// Frame duration in microseconds (20 MHz sampling).
    pub fn frame_duration_us(&self, len: usize) -> f64 {
        self.frame_samples(len) as f64 / 20.0
    }

    /// Encodes and modulates a payload into a complete baseband frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() > MAX_PAYLOAD` (the 12-bit LENGTH limit).
    pub fn transmit(&self, payload: &[u8]) -> Vec<Complex> {
        assert!(payload.len() <= MAX_PAYLOAD, "LENGTH field is 12 bits");
        let plan = fft::cached_plan(N_FFT);
        let mut samples = Vec::with_capacity(self.frame_samples(payload.len()));
        samples.extend(preamble::short_training_field());
        samples.extend(preamble::long_training_field());
        self.encode_signal(payload.len(), &plan, &mut samples);
        self.encode_data(payload, &plan, &mut samples);
        samples
    }

    /// Decodes a received frame (flat or already-equalized channel is not
    /// assumed: the LTF inside `samples` provides the estimate).
    ///
    /// # Errors
    ///
    /// Returns an [`RxError`] when the stream is too short or the SIGNAL
    /// field is unusable. Residual payload bit errors are *not* detected
    /// here — that is the MAC FCS's job.
    pub fn receive(&self, samples: &[Complex]) -> Result<Vec<u8>, RxError> {
        if samples.len() < DATA_OFFSET {
            return Err(RxError::TooShort);
        }
        let channel = preamble::estimate_channel(&samples[160..320]);
        let (rate, length) = self.decode_signal(
            &samples[SIGNAL_OFFSET..SIGNAL_OFFSET + N_SYM_SAMPLES],
            &channel,
        )?;
        if rate != self.rate {
            return Err(RxError::RateMismatch);
        }
        let n_sym = self.num_data_symbols(length);
        if samples.len() < DATA_OFFSET + n_sym * N_SYM_SAMPLES {
            return Err(RxError::TooShort);
        }
        Ok(self.decode_data(&samples[DATA_OFFSET..], length, &channel))
    }

    /// Convenience wrapper returning `None` on any receive error.
    pub fn receive_ideal(&self, samples: &[Complex]) -> Option<Vec<u8>> {
        self.receive(samples).ok()
    }

    fn encode_signal(&self, length: usize, plan: &FftPlan, out: &mut Vec<Complex>) {
        // RATE(4) ‖ R(1)=0 ‖ LENGTH(12, LSB first) ‖ PARITY(1).
        let mut info = Vec::with_capacity(18);
        info.extend_from_slice(&self.rate.signal_bits());
        info.push(0);
        for i in 0..12 {
            info.push(((length >> i) & 1) as u8);
        }
        let parity = info.iter().fold(0u8, |a, &b| a ^ b);
        info.push(parity);
        // Tail bits come from encode_terminated; BPSK rate 1/2, one symbol.
        let coded = ConvEncoder::new().encode_terminated(&info);
        debug_assert_eq!(coded.len(), 48);
        let mut bins = [Complex::ZERO; N_FFT];
        RateTables::get(OfdmRate::R6).map_symbol(&coded, &mut bins);
        emit_symbol(&mut bins, 0, plan, out);
    }

    fn decode_signal(
        &self,
        samples: &[Complex],
        channel: &[Complex],
    ) -> Result<(OfdmRate, usize), RxError> {
        let rx = disassemble_symbol(samples, channel, 0);
        let mut llrs = [0.0; 48];
        RateTables::get(OfdmRate::R6).demap_symbol(&rx.data, &rx.csi, &mut llrs);
        let info = ViterbiDecoder::new().decode_soft(&llrs, 18);
        let parity = info[..17].iter().fold(0u8, |a, &b| a ^ b);
        if parity != info[17] {
            return Err(RxError::SignalParity);
        }
        let rate = OfdmRate::from_signal_bits([info[0], info[1], info[2], info[3]])
            .ok_or(RxError::UnknownRate)?;
        let mut length = 0usize;
        for i in 0..12 {
            length |= (info[5 + i] as usize) << i;
        }
        Ok((rate, length))
    }

    /// Appends the `N_SYM` data symbols of `payload` to `out`, each built
    /// in a 64-bin stack buffer and inverse-transformed by one planned IFFT.
    ///
    /// The data bits `SERVICE(16) ‖ payload ‖ TAIL(6) ‖ PAD` are scrambled
    /// and fed to the rate-1/2 encoder one symbol at a time; the six tail
    /// bits are zero *after* scrambling (§17.3.5.2) so the trellis is
    /// driven to a known state at that point.
    fn encode_data(&self, payload: &[u8], plan: &FftPlan, out: &mut Vec<Complex>) {
        let tables = RateTables::get(self.rate);
        let ndbps = self.rate.data_bits_per_symbol();
        let seq = scrambler_sequence();
        let payload_end = 16 + 8 * payload.len();
        let mut enc = ConvEncoder::new();
        // 2·N_DBPS ≤ 432 mother bits per symbol (54 Mbps).
        let mut mother = [0u8; 432];
        for s in 0..self.num_data_symbols(payload.len()) {
            for (t, pair) in mother[..2 * ndbps].chunks_exact_mut(2).enumerate() {
                let i = s * ndbps + t;
                let bit = if i >= payload_end && i < payload_end + 6 {
                    0
                } else if i >= 16 && i < payload_end {
                    let j = i - 16;
                    ((payload[j / 8] >> (j % 8)) & 1) ^ seq[i % 127]
                } else {
                    seq[i % 127]
                };
                let (a, b) = enc.push(bit);
                pair[0] = a;
                pair[1] = b;
            }
            let mut bins = [Complex::ZERO; N_FFT];
            tables.map_symbol(&mother, &mut bins);
            emit_symbol(&mut bins, s + 1, plan, out);
        }
    }

    /// Decodes the data field: one batched FFT pass over every symbol,
    /// then each subcarrier's LLRs go straight to their mother-code slots
    /// through the rate's gather table. The slots no gather reaches are
    /// the punctured positions and stay zero-LLR erasures.
    fn decode_data(&self, samples: &[Complex], length: usize, channel: &[Complex]) -> Vec<u8> {
        let tables = RateTables::get(self.rate);
        let ndbps = self.rate.data_bits_per_symbol();
        let n_sym = self.num_data_symbols(length);
        let total_bits = n_sym * ndbps;

        let mut scratch = DisassemblyScratch::default();
        let mut data = Vec::new();
        let mut csi = Vec::new();
        disassemble_symbols_into(samples, channel, 1, n_sym, &mut scratch, &mut data, &mut csi);
        let mut mother = vec![0.0; total_bits * 2];
        let symbols = data
            .chunks_exact(N_DATA)
            .zip(csi.chunks_exact(N_DATA))
            .zip(mother.chunks_exact_mut(2 * ndbps));
        for ((data, csi), plane) in symbols {
            tables.demap_symbol(data, csi, plane);
        }
        let scrambled = ViterbiDecoder::new().decode_soft_unterminated(&mother, total_bits);
        let seq = scrambler_sequence();
        let mut payload = vec![0u8; length];
        for (k, byte) in payload.iter_mut().enumerate() {
            for b in 0..8 {
                let i = 16 + 8 * k + b;
                *byte |= (scrambled[i] ^ seq[i % 127]) << b;
            }
        }
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_math::rng::{Rng, WlanRng};
    use wlan_channel::{Awgn, MultipathChannel, PowerDelayProfile};

    #[test]
    fn clean_roundtrip_all_rates() {
        let payload: Vec<u8> = (0..100).map(|i| (i * 7 + 13) as u8).collect();
        for rate in OfdmRate::all() {
            let phy = OfdmPhy::new(rate);
            let frame = phy.transmit(&payload);
            assert_eq!(frame.len(), phy.frame_samples(payload.len()), "{rate}");
            let out = phy.receive(&frame).unwrap_or_else(|e| panic!("{rate}: {e}"));
            assert_eq!(out, payload, "{rate}");
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let phy = OfdmPhy::new(OfdmRate::R6);
        let frame = phy.transmit(&[]);
        assert_eq!(phy.receive(&frame).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn signal_field_carries_rate_and_length() {
        let phy = OfdmPhy::new(OfdmRate::R36);
        let frame = phy.transmit(&[0u8; 321]);
        let channel = preamble::estimate_channel(&frame[160..320]);
        let (rate, len) = phy
            .decode_signal(&frame[SIGNAL_OFFSET..SIGNAL_OFFSET + 80], &channel)
            .unwrap();
        assert_eq!(rate, OfdmRate::R36);
        assert_eq!(len, 321);
    }

    #[test]
    fn rate_mismatch_is_detected() {
        let tx = OfdmPhy::new(OfdmRate::R12);
        let rx = OfdmPhy::new(OfdmRate::R18);
        let frame = tx.transmit(b"abc");
        assert_eq!(rx.receive(&frame), Err(RxError::RateMismatch));
    }

    #[test]
    fn short_stream_is_rejected() {
        let phy = OfdmPhy::new(OfdmRate::R6);
        assert_eq!(phy.receive(&[Complex::ZERO; 100]), Err(RxError::TooShort));
        // Valid preamble+signal but truncated data.
        let frame = phy.transmit(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(
            phy.receive(&frame[..frame.len() - 80]),
            Err(RxError::TooShort)
        );
    }

    #[test]
    fn roundtrip_through_awgn_at_high_snr() {
        let mut rng = WlanRng::seed_from_u64(100);
        let payload: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
        for rate in [OfdmRate::R6, OfdmRate::R24, OfdmRate::R54] {
            let phy = OfdmPhy::new(rate);
            let frame = phy.transmit(&payload);
            let noisy = Awgn::from_snr_db(30.0).apply(&frame, &mut rng);
            assert_eq!(phy.receive(&noisy).unwrap(), payload, "{rate}");
        }
    }

    #[test]
    fn robust_rate_survives_low_snr_where_fast_rate_fails() {
        let mut rng = WlanRng::seed_from_u64(101);
        let payload: Vec<u8> = (0..150).map(|_| rng.gen()).collect();
        let snr_db = 6.0;
        // 6 Mbps should be fine at 6 dB.
        let slow = OfdmPhy::new(OfdmRate::R6);
        let frame = slow.transmit(&payload);
        let noisy = Awgn::from_snr_db(snr_db).apply(&frame, &mut rng);
        assert_eq!(slow.receive(&noisy).unwrap(), payload, "6 Mbps at 6 dB");
        // 54 Mbps payload must be corrupted at 6 dB (needs ~25 dB).
        let fast = OfdmPhy::new(OfdmRate::R54);
        let frame = fast.transmit(&payload);
        let noisy = Awgn::from_snr_db(snr_db).apply(&frame, &mut rng);
        let corrupted = match fast.receive(&noisy) {
            Ok(out) => out != payload,
            Err(_) => true,
        };
        assert!(corrupted, "54 Mbps cannot survive 6 dB");
    }

    #[test]
    fn roundtrip_through_multipath() {
        let mut rng = WlanRng::seed_from_u64(102);
        let payload: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        let phy = OfdmPhy::new(OfdmRate::R12);
        let pdp = PowerDelayProfile::tgn_model('C');
        let mut successes = 0;
        let trials = 10;
        for _ in 0..trials {
            let ch = MultipathChannel::realize(&pdp, &mut rng);
            let frame = phy.transmit(&payload);
            let mut rx = ch.filter(&frame);
            rx.truncate(frame.len());
            let noisy = Awgn::from_snr_db(25.0).apply(&rx, &mut rng);
            if phy.receive(&noisy) == Ok(payload.clone()) {
                successes += 1;
            }
        }
        // Fading occasionally kills a realization, but most must decode.
        assert!(successes >= 8, "only {successes}/{trials} decoded");
    }

    #[test]
    fn frame_duration_scales_with_rate() {
        let len = 1500;
        let slow = OfdmPhy::new(OfdmRate::R6).frame_duration_us(len);
        let fast = OfdmPhy::new(OfdmRate::R54).frame_duration_us(len);
        // 1500 bytes: ~2 ms at 6 Mbps vs ~240 µs at 54 Mbps.
        assert!(slow > 8.0 * fast, "slow {slow} µs vs fast {fast} µs");
        // And the absolute number is sane: payload bits / rate + preamble.
        let expect_data_us = (16 + 8 * len + 6) as f64 / 54.0;
        assert!((fast - 24.0 - expect_data_us).abs() < 8.0, "fast {fast} µs");
    }

    #[test]
    #[should_panic(expected = "LENGTH field")]
    fn oversized_payload_rejected() {
        let _ = OfdmPhy::new(OfdmRate::R54).transmit(&vec![0u8; 4096]);
    }

    #[test]
    fn delay_spread_beyond_cyclic_prefix_breaks_the_link() {
        // The 0.8 µs CP absorbs ~16 samples of channel memory. A channel
        // stretching far past it leaves ~9 dB of irreducible ISI/ICI that
        // no equalizer can undo — fatal for the SINR-hungry high rates,
        // which is the design constraint that sized the CP.
        let mut rng = WlanRng::seed_from_u64(103);
        let payload: Vec<u8> = (0..120).map(|_| rng.gen()).collect();
        let phy = OfdmPhy::new(OfdmRate::R36);

        let run = |taps: Vec<Complex>, rng: &mut WlanRng| -> usize {
            let ch = MultipathChannel::from_taps(taps);
            let mut ok = 0;
            for _ in 0..8 {
                let frame = phy.transmit(&payload);
                let mut rx = ch.filter(&frame);
                rx.truncate(frame.len());
                let noisy = Awgn::from_snr_db(30.0).apply(&rx, rng);
                if phy.receive(&noisy) == Ok(payload.clone()) {
                    ok += 1;
                }
            }
            ok
        };

        // Within the CP: two strong taps 10 samples apart — fine.
        let short = run(
            vec![
                Complex::from_re(0.8),
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::from_re(0.6),
            ],
            &mut rng,
        );
        assert!(short >= 7, "within-CP channel decoded only {short}/8");

        // Far beyond the CP: an echo at 40 samples (2 µs) — broken.
        let mut taps = vec![Complex::ZERO; 41];
        taps[0] = Complex::from_re(0.8);
        taps[40] = Complex::from_re(0.6);
        let long = run(taps, &mut rng);
        assert!(long <= 2, "beyond-CP channel decoded {long}/8 frames");
    }
}
