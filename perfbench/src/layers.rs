//! Per-layer metrics for the traced run: the program's own spans and
//! counters, per-link frame costs, and direct calls into the PHY kernels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use wlan_channel::Awgn;
use wlan_coding::ldpc::{LdpcCode, MinSum};
use wlan_coding::{ConvEncoder, FrameLlrs, ViterbiKernel};
use wlan_core::dsss::DsssRate;
use wlan_core::linksim::{
    frame_trial_at, DsssLink, FhssLink, HtLink, MimoLink, OfdmLink, PhyLink, StbcLink,
};
use wlan_fault::FaultChain;
use wlan_math::fft::FftPlan;
use wlan_math::{CMatrix, Complex, Rng, WlanRng};
use wlan_mimo::detect::{Detector, LinearDetector};
use wlan_obs::{HistSnapshot, Snapshot};
use wlan_ofdm::params::Modulation;
use wlan_ofdm::qam::{demap_soft_into, map_bits};
use wlan_ofdm::{OfdmPhy, OfdmRate};

use crate::harness::Pass;
use crate::stats::{coverage, median, p99_from_buckets};

/// Every per-layer metric a traced run reports, with its unit. A metric
/// of a layer the workload does not exercise reads 0 (a link absent from
/// the workload, the city on `link-sweep`, ...). Counts are per traced
/// pass; times are means unless named `p99`.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("phy.frame_us.dbpsk1", "us"),
    ("phy.frame_us.dqpsk2", "us"),
    ("phy.frame_us.cck11", "us"),
    ("phy.frame_us.fhss", "us"),
    ("phy.frame_us.ofdm6", "us"),
    ("phy.frame_us.ofdm9", "us"),
    ("phy.frame_us.ofdm12", "us"),
    ("phy.frame_us.ofdm18", "us"),
    ("phy.frame_us.ofdm24", "us"),
    ("phy.frame_us.ofdm36", "us"),
    ("phy.frame_us.ofdm48", "us"),
    ("phy.frame_us.ofdm54", "us"),
    ("phy.frame_us.mimo2x2", "us"),
    ("phy.frame_us.mimo1x2", "us"),
    ("phy.frame_us.ht_ldpc16", "us"),
    ("phy.frame_us.stbc2x1", "us"),
    ("coding.viterbi_us", "us"),
    ("math.fft64_ns", "ns"),
    ("ofdm.demap_ns", "ns"),
    ("mimo.detect_ns", "ns"),
    ("channel.awgn_ns", "ns"),
    ("ofdm.tx_us", "us"),
    ("coding.ldpc_us", "us"),
    ("coding.ldpc_iters", "count"),
    ("coding.ldpc_converged", "ratio"),
    ("linksim.tx_us", "us"),
    ("linksim.channel_us", "us"),
    ("linksim.rx_us", "us"),
    ("linksim.rx_p99_us", "us"),
    ("linksim.frames", "count"),
    ("linksim.frame_errors", "count"),
    ("linksim.erasures", "count"),
    ("par.calls", "count"),
    ("par.items", "count"),
    ("trace.cover", "ratio"),
    ("runner.waves", "count"),
    ("runner.trials", "count"),
    ("runner.quarantined", "count"),
    ("runner.journal_write_us", "us"),
    ("runner.journal_bytes", "B"),
    ("runner.resume_ms", "ms"),
    ("mac.traffic_ms", "ms"),
    ("mac.retries", "count"),
    ("mac.dropped", "count"),
    ("city.calibrate_s", "s"),
    ("city.calibrate_frames", "count"),
    ("city.layout_ms", "ms"),
    ("city.epoch_ms", "ms"),
    ("city.journal_write_ms", "ms"),
    ("city.journal_bytes", "B"),
    ("city.resume_ms", "ms"),
    ("city.attempts", "count"),
    ("city.delivered", "count"),
    ("dist.join_ms", "ms"),
    ("dist.leases", "count"),
    ("dist.redispatches", "count"),
    ("dist.worker_deaths", "count"),
    ("dist.timeouts", "count"),
    ("dist.fallback_leases", "count"),
    ("dist.local_s", "s"),
    ("dist.overhead_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
];

/// The per-layer values a traced run collected, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name.to_owned(), value);
    }

    /// The value of `name`, 0 when the run did not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A PHY link under its per-layer metric slug.
pub struct BenchLink {
    pub slug: &'static str,
    pub link: Box<dyn PhyLink>,
}

impl BenchLink {
    pub fn dsss(slug: &'static str, rate: DsssRate) -> Self {
        Self {
            slug,
            link: Box::new(DsssLink { rate }),
        }
    }

    pub fn ofdm(slug: &'static str, rate: OfdmRate) -> Self {
        Self {
            slug,
            link: Box::new(OfdmLink::awgn(rate)),
        }
    }

    pub fn mimo(slug: &'static str, n_streams: usize, n_rx: usize) -> Self {
        Self {
            slug,
            link: Box::new(MimoLink::flat(n_streams, n_rx)),
        }
    }

    pub fn fhss() -> Self {
        Self {
            slug: "fhss",
            link: Box::new(FhssLink),
        }
    }

    /// The HT 16-QAM rate-1/2 LDPC link of the fault catalog.
    pub fn ht_ldpc16() -> Self {
        Self {
            slug: "ht_ldpc16",
            link: Box::new(HtLink {
                modulation: Modulation::Qam16,
                code_rate: wlan_coding::CodeRate::R1_2,
                ldpc: true,
                fading: false,
            }),
        }
    }

    pub fn stbc2x1() -> Self {
        Self {
            slug: "stbc2x1",
            link: Box::new(StbcLink::flat(1)),
        }
    }
}

/// Mean host µs of serial clean `frame_trial_at` calls on each link,
/// `frames` per SNR point, into `phy.frame_us.<slug>`.
pub fn phy_frame_us(
    layers: &mut Layers,
    links: &[BenchLink],
    snrs_db: &[f64],
    payload_len: usize,
    frames: u64,
    seed: u64,
) {
    let clean = FaultChain::clean();
    let master = WlanRng::seed_from_u64(seed);
    for bl in links {
        let started = Instant::now();
        let mut n = 0u64;
        for (i, &snr) in snrs_db.iter().enumerate() {
            let point_rng = master.fork(i as u64);
            for frame in 0..frames {
                let _ = black_box(frame_trial_at(
                    bl.link.as_ref(),
                    &clean,
                    snr,
                    payload_len,
                    &point_rng,
                    frame,
                ));
                n += 1;
            }
        }
        let us = started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
        layers.set(&format!("phy.frame_us.{}", bl.slug), us);
    }
}

/// `after − before` for one histogram (min and max are `after`'s, which
/// only bounds the p99 clamp).
fn hist_delta(after: &HistSnapshot, before: Option<&HistSnapshot>) -> HistSnapshot {
    let Some(before) = before else {
        return after.clone();
    };
    let buckets = after
        .buckets
        .iter()
        .map(|&(le, n)| {
            let old = before.buckets.iter().find(|b| b.0 == le).map_or(0, |b| b.1);
            (le, n - old)
        })
        .filter(|b| b.1 > 0)
        .collect();
    HistSnapshot {
        count: after.count - before.count,
        sum_ns: after.sum_ns - before.sum_ns,
        min_ns: after.min_ns,
        max_ns: after.max_ns,
        buckets,
    }
}

/// Spans whose sum `trace.cover` divides by the traced wall: every span
/// the program records on the paths the workloads drive. They do not
/// nest, so their sum never double-counts.
const COVER_SPANS: [&str; 6] = [
    "linksim.tx",
    "linksim.channel",
    "linksim.rx",
    "runner.journal_write",
    "city.epoch",
    "city.journal_write",
];

/// Metrics read from the recorder over the traced passes, plus the
/// per-layer values the passes measured themselves.
pub fn from_passes(
    layers: &mut Layers,
    passes: &[Pass],
    before: &Snapshot,
    after: &Snapshot,
    threads: usize,
) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let n = traced.len().max(1) as f64;
    let hist = |name: &str| {
        let a = after
            .histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h);
        let b = before
            .histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h);
        a.map(|a| hist_delta(a, b))
    };
    let counter = |name: &str| {
        let get = |s: &Snapshot| {
            s.counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, v)| *v)
        };
        (get(after) - get(before)) as f64
    };
    let mean = |name: &str, scale: f64| hist(name).map_or(0.0, |h| h.mean_ns() / scale);

    layers.set("linksim.tx_us", mean("linksim.tx", 1e3));
    layers.set("linksim.channel_us", mean("linksim.channel", 1e3));
    layers.set("linksim.rx_us", mean("linksim.rx", 1e3));
    layers.set(
        "linksim.rx_p99_us",
        hist("linksim.rx")
            .and_then(|h| p99_from_buckets(&h))
            .map_or(0.0, |ns| ns / 1e3),
    );
    layers.set("runner.journal_write_us", mean("runner.journal_write", 1e3));
    layers.set("city.epoch_ms", mean("city.epoch", 1e6));
    layers.set("city.journal_write_ms", mean("city.journal_write", 1e6));
    for name in [
        "linksim.frames",
        "linksim.frame_errors",
        "linksim.erasures",
        "par.calls",
        "par.items",
        "runner.waves",
        "runner.trials",
        "runner.quarantined",
    ] {
        layers.set(name, counter(name) / n);
    }

    let span_ns: f64 = COVER_SPANS
        .iter()
        .filter_map(|s| hist(s))
        .map(|h| h.sum_ns as f64)
        .sum();
    let traced_wall_ns: f64 = traced.iter().map(|p| p.wall_s * 1e9).sum();
    layers.set("trace.cover", coverage(span_ns, traced_wall_ns, threads));

    let walls = |on: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == on)
            .map(|p| p.wall_s)
            .collect()
    };
    if let (Some(on), Some(off)) = (median(&walls(true)), median(&walls(false))) {
        layers.set("obs.overhead_frac", on / off - 1.0);
    }

    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in &traced {
        for &(k, v) in &p.layers {
            by_name.entry(k).or_default().push(v);
        }
    }
    for (k, vs) in by_name {
        layers.set(k, median(&vs).unwrap_or(0.0));
    }
}

/// Host seconds per call of `f`: the median over seven batches of
/// `reps` calls, so one scheduling hiccup does not move the figure.
fn time_per_call(reps: u64, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                f();
            }
            started.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&batches).unwrap_or(0.0)
}

/// Direct calls into the PHY kernels on workload-shaped inputs.
pub fn kernels(layers: &mut Layers) {
    let mut rng = WlanRng::seed_from_u64(0x4b45_524e);

    // Viterbi: one 100-byte frame, rate-1/2 terminated, BPSK LLRs at 3 dB.
    let info: Vec<u8> = (0..800).map(|_| rng.gen_range(0..2u8)).collect();
    let coded = ConvEncoder::new().encode_terminated(&info);
    let sigma = (0.5f64 / 10f64.powf(0.3)).sqrt();
    let llrs: Vec<f64> = coded
        .iter()
        .map(|&b| {
            let x = if b == 0 { 1.0 } else { -1.0 };
            2.0 * (x + sigma * wlan_channel::noise::gaussian(&mut rng)) / (sigma * sigma)
        })
        .collect();
    let mut viterbi = ViterbiKernel::new();
    let s = time_per_call(30, || {
        let _ = black_box(viterbi.decode(FrameLlrs::terminated(black_box(&llrs), info.len())));
    });
    layers.set("coding.viterbi_us", s * 1e6);

    // FFT: a 1200-byte 24 Mbps frame's worth of 64-point symbols.
    let symbols = 100;
    let plan = FftPlan::new(64);
    let base: Vec<Complex> = (0..64 * symbols)
        .map(|_| wlan_channel::noise::complex_gaussian(&mut rng))
        .collect();
    let mut data = base.clone();
    let s = time_per_call(15, || {
        data.copy_from_slice(&base);
        plan.fft_batch(black_box(&mut data));
    });
    layers.set("math.fft64_ns", s * 1e9 / symbols as f64);

    // Soft demapping: 64-QAM subcarriers at unit CSI.
    let points: Vec<Complex> = (0..4800)
        .map(|_| wlan_channel::noise::complex_gaussian(&mut rng))
        .collect();
    let mut out = [0.0f64; 6];
    let s = time_per_call(3, || {
        for &y in &points {
            demap_soft_into(Modulation::Qam64, black_box(y), 1.0, &mut out);
            black_box(&out);
        }
    });
    layers.set("ofdm.demap_ns", s * 1e9 / points.len() as f64);

    // MIMO detection: 2x2 MMSE over one subcarrier of a long frame.
    let h = CMatrix::from_vec(
        2,
        2,
        (0..4)
            .map(|_| wlan_channel::noise::complex_gaussian(&mut rng))
            .collect(),
    );
    let vectors = 2000;
    let ys: Vec<Complex> = (0..2 * vectors)
        .map(|_| wlan_channel::noise::complex_gaussian(&mut rng))
        .collect();
    if let Ok(mut det) = LinearDetector::prepare(Detector::Mmse, &h, 0.05) {
        let mut symbols_out = Vec::with_capacity(2 * vectors);
        let mut ok = Vec::with_capacity(vectors);
        let s = time_per_call(3, || {
            symbols_out.clear();
            ok.clear();
            let _ = black_box(det.detect_batch(black_box(&ys), &mut symbols_out, &mut ok));
        });
        layers.set("mimo.detect_ns", s * 1e9 / vectors as f64);
    }

    // AWGN: a 1200-byte 24 Mbps frame's samples.
    let awgn = Awgn::from_snr_db(15.0);
    let mut samples = base.clone();
    let s = time_per_call(8, || awgn.apply_in_place(black_box(&mut samples), &mut rng));
    layers.set("channel.awgn_ns", s * 1e9 / samples.len() as f64);

    // OFDM transmit of the city's 1200-byte payload at 24 Mbps.
    let phy = OfdmPhy::new(OfdmRate::R24);
    let payload: Vec<u8> = (0..1200).map(|_| rng.gen()).collect();
    let s = time_per_call(3, || {
        black_box(phy.transmit(black_box(&payload)));
    });
    layers.set("ofdm.tx_us", s * 1e6);

    ldpc(layers);
}

/// LDPC decoding at the fault catalog's HT operating point: the 16-QAM
/// rate-1/2 HT code (k = 728) at 18 dB with the production 40-iteration
/// cap, on clean blocks and on blocks with a burst of erased LLRs, the
/// way interference faults hit it.
fn ldpc(layers: &mut Layers) {
    const K: usize = 728;
    const MAX_ITERS: usize = 40;
    let code = LdpcCode::new(K, K, 0x11AC);
    // Its own stream, so the blocks (and the iteration counts) do not
    // depend on how many draws the other kernel timings made.
    let rng = &mut WlanRng::seed_from_u64(0x4c44_5043);
    let awgn = Awgn::from_snr_db(18.0);
    let erased_shares = [0.0, 0.2, 0.4, 0.6];
    let blocks: Vec<Vec<f64>> = (0..16)
        .map(|b| {
            let info: Vec<u8> = (0..K).map(|_| rng.gen_range(0..2u8)).collect();
            let cw = code.encode(&info);
            let mut tx: Vec<Complex> = cw
                .chunks(4)
                .map(|c| map_bits(Modulation::Qam16, c))
                .collect();
            awgn.apply_in_place(&mut tx, rng);
            let csi = 1.0 / awgn.noise_power();
            let mut llrs = vec![0.0; cw.len()];
            for (y, out) in tx.iter().zip(llrs.chunks_mut(4)) {
                demap_soft_into(Modulation::Qam16, *y, csi, out);
            }
            let erased = (erased_shares[b % erased_shares.len()] * llrs.len() as f64) as usize;
            let start = rng.gen_range(0..llrs.len() - erased + 1);
            llrs[start..start + erased].fill(0.0);
            llrs
        })
        .collect();
    let mut iters = 0usize;
    let mut converged = 0usize;
    let mut calls = 0usize;
    let s = time_per_call(1, || {
        for llrs in &blocks {
            let out = code.decode(black_box(llrs), MAX_ITERS, MinSum::Normalized(0.8));
            iters += out.iterations;
            converged += usize::from(out.converged);
            calls += 1;
        }
    });
    layers.set("coding.ldpc_us", s * 1e6 / blocks.len() as f64);
    layers.set("coding.ldpc_iters", iters as f64 / calls as f64);
    layers.set("coding.ldpc_converged", converged as f64 / calls as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = wlan_obs::json::Value::parse(&text).expect("valid JSON");
        let Some(wlan_obs::json::Value::Arr(items)) = json.get(list) else {
            panic!("{list} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        assert_eq!(declared("end_to_end"), owned(&crate::harness::END_TO_END));
    }

    #[test]
    fn hist_delta_subtracts_bucket_counts() {
        let before = HistSnapshot {
            count: 3,
            sum_ns: 30,
            min_ns: 5,
            max_ns: 15,
            buckets: vec![(7, 1), (15, 2)],
        };
        let after = HistSnapshot {
            count: 5,
            sum_ns: 100,
            min_ns: 5,
            max_ns: 40,
            buckets: vec![(7, 1), (15, 3), (63, 1)],
        };
        let d = hist_delta(&after, Some(&before));
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_ns, 70);
        assert_eq!(d.buckets, vec![(15, 1), (63, 1)]);
    }
}
