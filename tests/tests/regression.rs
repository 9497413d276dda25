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
