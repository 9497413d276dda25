//! Golden-value regression tests.
//!
//! A simulator's worst failure mode is a silent numerical drift that leaves
//! every test "passing" while the physics quietly changes. These tests pin
//! the key measured quantities (with seeds fixed, everything here is
//! deterministic) to the values recorded in EXPERIMENTS.md, within
//! Monte-Carlo-appropriate tolerances.

use wlan_core::math::rng::WlanRng;

#[test]
fn golden_evolution_table() {
    let table = wlan_core::evolution::evolution_table();
    let got: Vec<(f64, f64, f64)> = table
        .iter()
        .map(|r| (r.peak_rate_mbps, r.bandwidth_mhz, r.spectral_efficiency))
        .collect();
    let want = [
        (2.0, 20.0, 0.1),
        (11.0, 22.0, 0.5),
        (54.0, 20.0, 2.7),
        (600.0, 40.0, 15.0),
    ];
    for ((gr, gb, gs), (wr, wb, ws)) in got.iter().zip(want) {
        assert_eq!(*gr, wr);
        assert_eq!(*gb, wb);
        assert!((gs - ws).abs() < 1e-12);
    }
}

#[test]
fn golden_processing_gain() {
    assert!((wlan_core::dsss::barker::processing_gain_db() - 10.4139).abs() < 1e-3);
}

#[test]
fn golden_bianchi_throughput() {
    // 802.11a, 54 Mbps, 1500 B, 10 stations: the model is deterministic.
    use wlan_core::mac::bianchi::saturation_throughput;
    use wlan_core::mac::params::MacProfile;
    let r = saturation_throughput(&MacProfile::dot11a(54.0), 10, 1500, false);
    assert!(
        (r.throughput_mbps - 27.74).abs() < 0.1,
        "Bianchi 10-station throughput drifted: {}",
        r.throughput_mbps
    );
    assert!(
        (r.collision_probability - 0.384).abs() < 0.01,
        "Bianchi p drifted: {}",
        r.collision_probability
    );
}

#[test]
fn golden_mac_profile_durations() {
    use wlan_core::mac::params::MacProfile;
    let a = MacProfile::dot11a(54.0);
    // 20 + (28+1500)·8/54 = 246.4 µs.
    assert!((a.data_frame_us(1500) - 246.37).abs() < 0.1);
    assert!((a.success_duration_us(1500) - 335.0).abs() < 1.0);
    let b = MacProfile::dot11b(11.0);
    assert!((b.data_frame_us(1500) - 1303.1).abs() < 0.5);
}

#[test]
fn golden_aggregation_efficiency() {
    use wlan_core::mac::aggregation::mac_efficiency;
    use wlan_core::mac::params::MacProfile;
    let p600 = MacProfile::dot11n(600.0);
    let single = mac_efficiency(&p600, 1, 1500);
    let full = mac_efficiency(&p600, 64, 1500);
    assert!((single - 0.13).abs() < 0.02, "single {single}");
    assert!((full - 0.89).abs() < 0.02, "full {full}");
}

#[test]
fn golden_pa_efficiency_at_ofdm_backoff() {
    use wlan_core::power::pa::PaClass;
    // Class B at 8 dB back-off: π/4 / √6.31 ≈ 31.3 %.
    assert!((PaClass::B.efficiency(8.0) - 0.3126).abs() < 1e-3);
}

#[test]
fn golden_direct_outage() {
    use wlan_core::coop::outage::direct_outage_analytic;
    // 10 dB, 1 bps/Hz: 1 − e^{−0.1} = 0.09516.
    assert!((direct_outage_analytic(10.0, 1.0) - 0.09516).abs() < 1e-4);
}

#[test]
fn golden_noise_floor_and_range() {
    use wlan_core::channel::pathloss::{LinkBudget, PathLossModel};
    let lb = LinkBudget::typical_wlan();
    assert!((lb.noise_floor_dbm() - (-94.99)).abs() < 0.05);
    let model = PathLossModel::tgn_model_d();
    // Median SNR at 50 m under TGn-D: 110.0 dB budget − PL(50).
    let snr = lb.snr_at_distance_db(&model, 50.0);
    assert!((snr - 25.5).abs() < 1.0, "snr at 50 m drifted: {snr}");
}

#[test]
fn golden_dsss_per_threshold() {
    // The E4 calibration point the goodput module's DSSS table relies on:
    // 2 Mbps DQPSK at 4 dB chip SNR is essentially clean (seeded MC).
    use wlan_core::dsss::DsssRate;
    use wlan_core::linksim::{sweep_per, DsssLink};
    let curve = sweep_per(
        &DsssLink {
            rate: DsssRate::Dqpsk2M,
        },
        &[4.0],
        100,
        50,
        42,
    );
    assert!(
        curve.points[0].per <= 0.1,
        "DQPSK at 4 dB drifted: PER {}",
        curve.points[0].per
    );
}

#[test]
fn golden_ofdm54_needs_about_19db() {
    use wlan_core::linksim::{sweep_per, OfdmLink};
    use wlan_core::ofdm::OfdmRate;
    let lo = sweep_per(&OfdmLink::awgn(OfdmRate::R54), &[16.0], 100, 40, 42);
    let hi = sweep_per(&OfdmLink::awgn(OfdmRate::R54), &[21.0], 100, 40, 42);
    assert!(lo.points[0].per > 0.5, "16 dB should fail: {}", lo.points[0].per);
    assert!(hi.points[0].per < 0.1, "21 dB should pass: {}", hi.points[0].per);
}

#[test]
fn golden_mimo_capacity_scaling() {
    // Ergodic 4×4 i.i.d. capacity at 20 dB ≈ 21–23 bps/Hz (seeded).
    use wlan_core::channel::MimoChannel;
    let mut rng = WlanRng::seed_from_u64(42);
    let mean: f64 = (0..2000)
        .map(|_| MimoChannel::iid_rayleigh(4, 4, &mut rng).capacity_bps_hz(20.0))
        .sum::<f64>()
        / 2000.0;
    assert!((mean - 22.0).abs() < 1.0, "4x4 ergodic capacity drifted: {mean}");
}

#[test]
fn golden_papr_at_one_permille() {
    use wlan_core::ofdm::papr::ofdm_papr_ccdf;
    use wlan_core::ofdm::params::Modulation;
    let mut rng = WlanRng::seed_from_u64(10);
    let ccdf = ofdm_papr_ccdf(Modulation::Qam64, 3000, &mut rng);
    let papr = ccdf
        .points()
        .find(|&(_, p)| p <= 1e-3)
        .map(|(x, _)| x)
        .expect("grid covers the tail");
    assert!((9.0..12.0).contains(&papr), "PAPR@0.1% drifted: {papr}");
}

#[test]
fn golden_ht_rates() {
    use wlan_core::coding::CodeRate;
    use wlan_core::mimo::ht::HtPhy;
    use wlan_core::ofdm::params::Modulation;
    let want = [
        (Modulation::Bpsk, CodeRate::R1_2, 6.5),
        (Modulation::Qpsk, CodeRate::R3_4, 19.5),
        (Modulation::Qam16, CodeRate::R3_4, 39.0),
        (Modulation::Qam64, CodeRate::R5_6, 65.0),
    ];
    for (m, r, mbps) in want {
        assert_eq!(HtPhy::new(m, r).rate_mbps(), mbps);
    }
}

#[test]
fn golden_crc_vectors() {
    use wlan_core::coding::crc::crc32;
    use wlan_core::dsss::plcp::crc16_ccitt;
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc16_ccitt(b"123456789"), !0x29B1);
}

#[test]
fn golden_scrambler_prefix() {
    use wlan_core::coding::scrambler::Scrambler;
    let seq = Scrambler::new(0x7F).sequence(16);
    assert_eq!(seq, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
}

#[test]
fn golden_snr_for_per_endpoint_contract() {
    // When the lowest swept point already meets the target, the answer is
    // that exact SNR — bit-exact, no extrapolation below the sweep.
    use wlan_core::linksim::{PerCurve, PerPoint};
    let curve = |pairs: &[(f64, f64)]| PerCurve {
        name: "endpoint".into(),
        rate_mbps: 1.0,
        points: pairs
            .iter()
            .map(|&(snr_db, per)| PerPoint { snr_db, per })
            .collect(),
    };
    let c = curve(&[(2.0, 0.08), (5.0, 0.01), (8.0, 0.0)]);
    assert_eq!(c.snr_for_per(0.1), Some(2.0), "first point below target");
    assert_eq!(c.snr_for_per(0.08), Some(2.0), "meeting the target exactly counts");
    // A NaN placeholder at lower SNR neither extrapolates nor poisons.
    let with_nan = curve(&[(-1.0, f64::NAN), (2.0, 0.05), (5.0, 0.0)]);
    assert_eq!(with_nan.snr_for_per(0.1), Some(2.0));
    // Degenerate single-point curves obey the same contract.
    assert_eq!(curve(&[(3.0, 0.02)]).snr_for_per(0.1), Some(3.0));
    assert_eq!(curve(&[(3.0, 0.2)]).snr_for_per(0.1), None);
}

#[test]
fn determinism_same_seed_identical_per_curve() {
    // The reproducibility contract: a full 802.11a OFDM PHY chain
    // (scramble → encode → interleave → QAM → IFFT → AWGN → receive) swept
    // at fixed SNRs must give *bit-identical* PER for the same seed, and a
    // different (but again deterministic) PER for a different seed.
    use wlan_core::linksim::{sweep_per, OfdmLink};
    use wlan_core::ofdm::OfdmRate;
    // Mid-waterfall SNRs for 54 Mbps (cf. golden_ofdm54_needs_about_19db):
    // PER is fractional here, so distinct seeds are visible in the curve.
    let snrs = [17.0, 18.0, 19.0];
    let run = |seed: u64| -> Vec<f64> {
        sweep_per(&OfdmLink::awgn(OfdmRate::R54), &snrs, 100, 80, seed)
            .points
            .iter()
            .map(|p| p.per)
            .collect()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed must reproduce the PER curve bit-for-bit");
    let c = run(43);
    assert_ne!(a, c, "different seeds must explore different noise");
}

#[test]
fn determinism_forked_streams_are_stable() {
    // Forked sub-streams must not depend on the parent's draw position:
    // that is what lets one master seed drive many independent links.
    let master = WlanRng::seed_from_u64(7);
    let mut parent = master.clone();
    let before = parent.fork(3);
    use wlan_core::math::rng::Rng;
    for _ in 0..1000 {
        let _: u64 = parent.gen();
    }
    let after = parent.fork(3);
    assert_eq!(before, after);
}

/// Golden `(per, erasure_rate)` pairs from `sweep_per_faulted`, one link
/// per PHY generation × {clean, collision pulse, frame truncation}, three
/// waterfall SNRs each. Every value is a multiple of 1/32 (32 frames per
/// point), so the literals are exact and compare via `f64::to_bits`.
/// These pin the trial engine: any change to how trials are addressed,
/// batched or tallied — or to any generation's physics — moves a value.
#[test]
fn golden_faulted_sweeps_every_generation() {
    use wlan_core::coding::CodeRate;
    use wlan_core::dsss::DsssRate;
    use wlan_core::fault::{FaultChain, FaultKind};
    use wlan_core::linksim::{
        sweep_per_faulted, DsssLink, FhssLink, HtLink, MimoLink, OfdmLink, PhyLink, StbcLink,
    };
    use wlan_core::ofdm::params::Modulation;
    use wlan_core::ofdm::OfdmRate;

    type Golden = [[(f64, f64); 3]; 3];
    let ht = |ldpc| HtLink {
        modulation: Modulation::Qpsk,
        code_rate: CodeRate::R1_2,
        ldpc,
        fading: false,
    };
    let cases: Vec<(Box<dyn PhyLink>, [f64; 3], Golden)> = vec![
        (
            Box::new(FhssLink),
            [0.0, 2.0, 4.0],
            [
                [(0.75, 0.0), (0.125, 0.0), (0.0, 0.0)],
                [(1.0, 0.0), (0.96875, 0.0), (1.0, 0.0)],
                [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
            ],
        ),
        (
            Box::new(DsssLink {
                rate: DsssRate::Dbpsk1M,
            }),
            [-4.0, -1.0, 2.0],
            [
                [(0.53125, 0.0), (0.0, 0.0), (0.0, 0.0)],
                [(0.84375, 0.0), (0.40625, 0.0), (0.03125, 0.0)],
                [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
            ],
        ),
        (
            Box::new(OfdmLink::awgn(OfdmRate::R12)),
            [2.0, 4.0, 6.0],
            [
                [(0.90625, 0.0), (0.21875, 0.0), (0.0625, 0.0)],
                [(1.0, 0.21875), (0.875, 0.25), (0.78125, 0.0625)],
                [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
            ],
        ),
        (
            Box::new(ht(false)),
            [2.0, 4.0, 6.0],
            [
                [(1.0, 0.0), (0.21875, 0.0), (0.0, 0.0)],
                [(1.0, 0.0), (0.96875, 0.0), (1.0, 0.0)],
                [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
            ],
        ),
        (
            Box::new(ht(true)),
            [2.0, 4.0, 6.0],
            [
                [(1.0, 0.0), (0.375, 0.0), (0.0, 0.0)],
                [(1.0, 0.0), (1.0, 0.0), (0.9375, 0.0)],
                [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
            ],
        ),
        (
            Box::new(MimoLink::flat(2, 2)),
            [6.0, 12.0, 18.0],
            [
                [(0.59375, 0.0), (0.21875, 0.0), (0.03125, 0.0)],
                [(0.90625, 0.0), (1.0, 0.0), (0.9375, 0.0)],
                [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
            ],
        ),
        (
            Box::new(StbcLink::flat(1)),
            [4.0, 8.0, 12.0],
            [
                [(0.5625, 0.0), (0.09375, 0.0), (0.03125, 0.0)],
                [(0.90625, 0.0), (0.8125, 0.0), (0.5625, 0.0)],
                [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
            ],
        ),
    ];
    let chains = [
        FaultChain::clean(),
        FaultKind::CollisionPulse.chain(0.2),
        FaultKind::FrameTruncation.chain(0.2),
    ];
    for (link, snrs, golden) in &cases {
        for (chain, expected) in chains.iter().zip(golden) {
            let sweep = sweep_per_faulted(link.as_ref(), chain, snrs, 24, 32, 0x601D);
            for (p, &(per, erasure_rate)) in sweep.points.iter().zip(expected) {
                let ctx = format!("{} / {} @ {} dB", sweep.name, sweep.fault, p.snr_db);
                assert_eq!(p.per.to_bits(), per.to_bits(), "{ctx}: per {}", p.per);
                assert_eq!(
                    p.erasure_rate.to_bits(),
                    erasure_rate.to_bits(),
                    "{ctx}: erasure_rate {}",
                    p.erasure_rate
                );
            }
        }
    }
}

/// A total-erasure sweep reads PER = erasure_rate = 1.0 at every point —
/// an erased trial can never default to "frame passed" — and
/// `snr_for_per` on the resulting curve refuses to report a passing SNR.
/// The `wlan_math::ci` degenerate contracts the campaign stoppers rely on
/// hold too: zero trials give the vacuous Wilson interval and an infinite
/// Hoeffding half-width, so no stopping rule can fire on a point that has
/// produced no samples.
#[test]
fn erased_pipelines_never_masquerade_as_zero_per() {
    use wlan_core::fault::FaultKind;
    use wlan_core::linksim::{sweep_per_faulted, OfdmLink};
    use wlan_core::ofdm::OfdmRate;
    let snrs = [8.0, 14.0];
    let link = OfdmLink::awgn(OfdmRate::R12);
    let chain = FaultKind::FrameTruncation.chain(1.0);
    let sweep = sweep_per_faulted(&link, &chain, &snrs, 24, 10, 0x9A11E1);
    for p in &sweep.points {
        assert_eq!(p.per, 1.0, "every trial erased → PER exactly 1.0");
        assert_eq!(p.erasure_rate, 1.0, "every erasure is typed and counted");
    }

    let curve = sweep.into_per_curve();
    assert_eq!(
        curve.snr_for_per(0.5),
        None,
        "no SNR achieves 0.5 on an all-erased curve"
    );
    // Endpoint and non-finite-target contracts on a measured curve.
    assert_eq!(
        curve.snr_for_per(1.0),
        Some(snrs[0]),
        "PER 1.0 is met at the lowest point, bit-exactly"
    );
    assert_eq!(curve.snr_for_per(f64::NAN), None);
    assert_eq!(curve.snr_for_per(f64::INFINITY), None);

    // ci degenerate inputs: zero trials stay vacuous, never a tight bound.
    let vac = wlan_core::math::ci::wilson(0, 0, wlan_core::math::ci::Z_95);
    assert_eq!((vac.lo, vac.hi), (0.0, 1.0));
    assert!(wlan_core::math::ci::hoeffding_half_width(0, 0.05).is_infinite());
}

/// FNV-1a-64 fold over 64-bit words (each word's eight little-endian
/// bytes): the digest the bit-pattern pins below accumulate.
fn fnv_fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_samples(h: u64, samples: &[wlan_core::math::Complex]) -> u64 {
    samples.iter().fold(h, |h, s| {
        fnv_fold(fnv_fold(h, s.re.to_bits()), s.im.to_bits())
    })
}

/// Bit-pattern pin of the OFDM transmit chain: one digest per rate over
/// the exact `f64` bits of every sample `OfdmPhy::transmit` emits for
/// payloads of 1, 2, 7, 100, 333, 1200, 1500 and 4095 bytes (4095 is the
/// largest the 12-bit LENGTH field carries). Any reordering of the
/// scrambler, encoder, puncturer, interleaver, mapper or IFFT arithmetic
/// moves a digest.
#[test]
fn golden_ofdm_transmit_digest() {
    use wlan_core::math::rng::Rng;
    use wlan_core::ofdm::{OfdmPhy, OfdmRate};
    let want: [u64; 8] = [
        0x8b4d39317285ad29,
        0x66cc312c41d64181,
        0x4a7d990702e66138,
        0x9100ef5414feef66,
        0x54a1fc1ff8faa88a,
        0x03a63aa7f3cf71e8,
        0x99b0830c5116d9b4,
        0x416dcbcf54c1a13a,
    ];
    let mut got = [0u64; 8];
    for (slot, rate) in got.iter_mut().zip(OfdmRate::all()) {
        let phy = OfdmPhy::new(rate);
        let mut rng = WlanRng::seed_from_u64(0x7a11);
        let mut h = FNV_OFFSET;
        for len in [1usize, 2, 7, 100, 333, 1200, 1500, 4095] {
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            h = fold_samples(fnv_fold(h, len as u64), &phy.transmit(&payload));
        }
        *slot = h;
    }
    assert_eq!(got, want, "transmit digests {got:#018x?}");
}

/// Bit-pattern pin of `FftPlan`: forward and inverse batches of three
/// blocks for every power-of-two length from 1 to 256.
#[test]
fn golden_fft_batch_digest() {
    use wlan_core::math::fft::FftPlan;
    use wlan_core::math::rng::Rng;
    use wlan_core::math::Complex;
    let mut rng = WlanRng::seed_from_u64(0xff7);
    let mut h = FNV_OFFSET;
    for log2 in 0..=8 {
        let n = 1usize << log2;
        let plan = FftPlan::new(n);
        let x: Vec<Complex> = (0..3 * n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let mut fwd = x.clone();
        plan.fft_batch(&mut fwd);
        let mut inv = x;
        plan.ifft_batch(&mut inv);
        h = fold_samples(fold_samples(fnv_fold(h, n as u64), &fwd), &inv);
    }
    assert_eq!(h, 0x9ff4_e29f_7188_3b09, "fft digest {h:#018x}");
}

/// Bit-pattern pin of the OFDM receive chain: per rate, frames through a
/// fixed three-tap channel plus AWGN at three SNRs around the rate's
/// waterfall, so the digest covers decoded payloads that carry residual
/// bit errors (and so every LLR the equalizer, demapper and Viterbi
/// decoder produce) as well as clean ones.
#[test]
fn golden_ofdm_receive_digest() {
    use wlan_core::channel::{Awgn, MultipathChannel};
    use wlan_core::math::rng::Rng;
    use wlan_core::math::Complex;
    use wlan_core::ofdm::{OfdmPhy, OfdmRate};
    let ch = MultipathChannel::from_taps(vec![
        Complex::new(0.85, 0.1),
        Complex::new(0.0, -0.4),
        Complex::new(0.2, 0.15),
    ]);
    let base_snr = [3.0, 5.0, 6.0, 9.0, 12.0, 15.0, 19.0, 21.0];
    let want: [u64; 8] = [
        0xf76429dce49f8b92,
        0x4d13447dd52b8686,
        0x6f220ff057058f2c,
        0x491dcdd1a133a67d,
        0xfa2a5436a6da9717,
        0x2d5eceb62c4f5ae3,
        0x7d8dc13495a183e7,
        0x6647a05625500da2,
    ];
    let mut got = [0u64; 8];
    for ((slot, rate), base) in got.iter_mut().zip(OfdmRate::all()).zip(base_snr) {
        let phy = OfdmPhy::new(rate);
        let mut rng = WlanRng::seed_from_u64(0x2ec5);
        let mut h = FNV_OFFSET;
        for snr_db in [base - 2.0, base, base + 2.0] {
            for len in [1usize, 333] {
                let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let frame = phy.transmit(&payload);
                let mut rx = ch.filter(&frame);
                rx.truncate(frame.len());
                let noisy = Awgn::from_snr_db(snr_db).apply(&rx, &mut rng);
                h = match phy.receive(&noisy) {
                    Ok(bytes) => bytes
                        .iter()
                        .fold(fnv_fold(h, 1), |h, &b| fnv_fold(h, b as u64)),
                    Err(e) => fnv_fold(h, 2 + e as u64),
                };
            }
        }
        *slot = h;
    }
    assert_eq!(got, want, "receive digests {got:#018x?}");
}

/// Bit-pattern pin of the OFDM equalizer: the channel estimate, the
/// equalized SIGNAL symbol and every equalized data point and CSI weight
/// of noisy multipath frames, per rate. Decoded payloads absorb
/// last-bit changes in these values; this digest does not.
#[test]
fn golden_ofdm_equalizer_digest() {
    use wlan_core::channel::{Awgn, MultipathChannel};
    use wlan_core::math::rng::Rng;
    use wlan_core::math::Complex;
    use wlan_core::ofdm::phy::{DATA_OFFSET, SIGNAL_OFFSET};
    use wlan_core::ofdm::preamble::estimate_channel;
    use wlan_core::ofdm::symbol::{
        disassemble_symbol, disassemble_symbols_into, DisassemblyScratch,
    };
    use wlan_core::ofdm::{OfdmPhy, OfdmRate};
    let ch = MultipathChannel::from_taps(vec![
        Complex::new(0.85, 0.1),
        Complex::new(0.0, -0.4),
        Complex::new(0.2, 0.15),
    ]);
    let want: [u64; 8] = [
        0x68660770318d0efd,
        0x0c63363ce68b5411,
        0xde1a2114dfd9f8d4,
        0xe7e25733adaf5b4f,
        0x6ffc8261ce132449,
        0x266724e74dd3eeaf,
        0xbe6cbc76ab84609e,
        0x714de9b09487595a,
    ];
    let mut got = [0u64; 8];
    for (slot, rate) in got.iter_mut().zip(OfdmRate::all()) {
        let phy = OfdmPhy::new(rate);
        let mut rng = WlanRng::seed_from_u64(0xe9a1);
        let mut h = FNV_OFFSET;
        for snr_db in [4.0, 12.0, 25.0] {
            let payload: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
            let frame = phy.transmit(&payload);
            let mut rx = ch.filter(&frame);
            rx.truncate(frame.len());
            let noisy = Awgn::from_snr_db(snr_db).apply(&rx, &mut rng);
            let channel = estimate_channel(&noisy[160..320]);
            h = fold_samples(h, &channel);
            let signal = disassemble_symbol(&noisy[SIGNAL_OFFSET..DATA_OFFSET], &channel, 0);
            h = fold_samples(h, &signal.data);
            h = signal.csi.iter().fold(h, |h, w| fnv_fold(h, w.to_bits()));
            let (mut data, mut csi) = (Vec::new(), Vec::new());
            let n_sym = phy.num_data_symbols(payload.len());
            let mut scratch = DisassemblyScratch::default();
            disassemble_symbols_into(
                &noisy[DATA_OFFSET..],
                &channel,
                1,
                n_sym,
                &mut scratch,
                &mut data,
                &mut csi,
            );
            h = fold_samples(h, &data);
            h = csi.iter().fold(h, |h, w| fnv_fold(h, w.to_bits()));
        }
        *slot = h;
    }
    assert_eq!(got, want, "equalizer digests {got:#018x?}");
}
