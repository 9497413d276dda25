//! `link-sweep`: the E04 PER-versus-SNR table on one thread. Clean
//! `sweep_per_faulted` over the eight E04 links × 12 SNR points at a
//! fixed frame count, 100-byte payloads. The PHY tx/channel/rx kernels
//! and the sweep trial engine do nearly all the work.

use wlan_core::dsss::DsssRate;
use wlan_core::linksim::{frame_trial_at, sweep_per_faulted};
use wlan_core::ofdm::OfdmRate;
use wlan_fault::FaultChain;
use wlan_math::WlanRng;

use crate::harness::{Checks, Ctx, Pass, Size, Workload};
use crate::layers::{phy_frame_us, BenchLink, Layers};
use crate::stats::Digest;

const PAYLOAD: usize = 100;

/// Pass digest at `GOLDEN_SEED` and full size.
const GOLDEN: u64 = 0x3040_f07b_6342_13f0;

fn frames_per_point(size: Size) -> usize {
    match size {
        Size::Full => 64,
        Size::Tiny => 2,
    }
}

/// The eight E04 links, DSSS through MIMO.
fn links() -> Vec<BenchLink> {
    vec![
        BenchLink::dsss("dbpsk1", DsssRate::Dbpsk1M),
        BenchLink::dsss("dqpsk2", DsssRate::Dqpsk2M),
        BenchLink::dsss("cck11", DsssRate::Cck11M),
        BenchLink::ofdm("ofdm6", OfdmRate::R6),
        BenchLink::ofdm("ofdm24", OfdmRate::R24),
        BenchLink::ofdm("ofdm54", OfdmRate::R54),
        BenchLink::mimo("mimo2x2", 2, 2),
        BenchLink::mimo("mimo1x2", 1, 2),
    ]
}

pub struct LinkSweep {
    links: Vec<BenchLink>,
    snrs_db: Vec<f64>,
}

impl Workload for LinkSweep {
    fn setup(ctx: &Ctx, _checks: &mut Checks) -> Result<Self, String> {
        let links = links();
        let snrs_db: Vec<f64> = (0..12).map(|i| -2.0 + 3.0 * i as f64).collect();
        // One frame per link and SNR point fills lazily built PHY state
        // before timing. Verdicts are physics, not failures.
        let rng = WlanRng::seed_from_u64(ctx.seed);
        for bl in &links {
            for &snr in &snrs_db {
                let _ = std::hint::black_box(frame_trial_at(
                    bl.link.as_ref(),
                    &FaultChain::clean(),
                    snr,
                    PAYLOAD,
                    &rng,
                    0,
                ));
            }
        }
        Ok(Self { links, snrs_db })
    }

    fn pass(&mut self, ctx: &Ctx, checks: &mut Checks) -> Pass {
        let frames = frames_per_point(ctx.size);
        let clean = FaultChain::clean();
        let mut digest = Digest::default();
        let mut total_frames = 0u64;
        let mut air_s = 0.0;
        let started = std::time::Instant::now();
        for bl in &self.links {
            let link = bl.link.as_ref();
            let sweep = sweep_per_faulted(link, &clean, &self.snrs_db, PAYLOAD, frames, ctx.seed);
            let n = (sweep.points.len() * frames) as u64;
            total_frames += n;
            air_s += n as f64 * (PAYLOAD * 8) as f64 / (link.rate_mbps() * 1e6);
            digest.str(&sweep.name);
            for p in &sweep.points {
                digest.f64(p.snr_db).f64(p.per).f64(p.erasure_rate);
            }
            checks.check(
                &format!("{}: one point per SNR", sweep.name),
                sweep.points.len() == self.snrs_db.len(),
            );
            // Physics: the link must do better at 31 dB than at −2 dB.
            if let (Some(lo), Some(hi)) = (sweep.points.first(), sweep.points.last()) {
                checks.check(
                    &format!("{}: PER falls with SNR", sweep.name),
                    hi.per <= lo.per && hi.per < 1.0,
                );
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        Pass {
            wall_s,
            frames: total_frames,
            sim_s: air_s,
            sim_host_s: wall_s,
            digest: digest.value(),
            ..Pass::default()
        }
    }

    fn golden(&self) -> Option<u64> {
        Some(GOLDEN)
    }

    fn after(
        &mut self,
        ctx: &Ctx,
        _checks: &mut Checks,
        _passes: &[Pass],
        _setup_s: &[f64],
        layers: Option<&mut Layers>,
    ) {
        if let Some(layers) = layers {
            phy_frame_us(layers, &self.links, &self.snrs_db, PAYLOAD, 4, ctx.seed);
        }
    }

    fn teardown(self, _checks: &mut Checks) {}
}
