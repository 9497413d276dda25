//! `city`: the E20 city campaign on two threads, calibration included.
//! `PerTableSet::calibrated` on the production grid (nine links × 20 SNR
//! points, 1200-byte payloads); then a journaled `run_city_campaign` on a
//! 529-AP, 50 255-station metro with 3 % legacy stations, checkpointing
//! every epoch; then one re-invocation on the completed journal.
//! Calibration is PHY-bound; the epoch loop runs no PHY and is about
//! half journal writes.

use std::path::PathBuf;
use std::time::Instant;

use wlan_city::{run_city_campaign, City, CityCampaignConfig, CityConfig, PerTableSet};
use wlan_core::dsss::DsssRate;
use wlan_core::ofdm::OfdmRate;
use wlan_runner::{Budget, Resume};

use crate::harness::{Checks, Ctx, Pass, Size, Workload};
use crate::layers::{phy_frame_us, BenchLink, Layers};
use crate::stats::{median, Digest};

/// Calibration SNR points per link (the grid `PerTableSet::calibrated`
/// sweeps) and links per table set.
const CAL_POINTS: u64 = 20;
const CAL_LINKS: u64 = 9;

/// Reference city aggregates and the relative tolerance each pass must
/// meet. They are not bit-exact on purpose: a calibration that spends
/// its frames differently (early stopping, say) moves the PER tables a
/// little, and the city must still land here. The tolerance covers the
/// spread across layout seeds.
const REF_THROUGHPUT_MBPS: f64 = 2980.0;
const REF_LOSS_RATE: f64 = 0.73;
const REF_JAIN: f64 = 0.38;
const REL_TOL: f64 = 0.10;

struct Scale {
    n_aps: usize,
    stations_per_ap: usize,
    cal_frames: usize,
}

fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale {
            n_aps: 529,
            stations_per_ap: 95,
            cal_frames: 48,
        },
        Size::Tiny => Scale {
            n_aps: 9,
            stations_per_ap: 10,
            cal_frames: 1,
        },
    }
}

/// The calibration links, under their per-layer slugs.
fn links() -> Vec<BenchLink> {
    vec![
        BenchLink::dsss("cck11", DsssRate::Cck11M),
        BenchLink::ofdm("ofdm6", OfdmRate::R6),
        BenchLink::ofdm("ofdm9", OfdmRate::R9),
        BenchLink::ofdm("ofdm12", OfdmRate::R12),
        BenchLink::ofdm("ofdm18", OfdmRate::R18),
        BenchLink::ofdm("ofdm24", OfdmRate::R24),
        BenchLink::ofdm("ofdm36", OfdmRate::R36),
        BenchLink::ofdm("ofdm48", OfdmRate::R48),
        BenchLink::ofdm("ofdm54", OfdmRate::R54),
    ]
}

pub struct CityWorkload {
    city: CityConfig,
    cal_frames: usize,
    journal: PathBuf,
}

fn within(value: f64, reference: f64) -> bool {
    (value - reference).abs() <= REL_TOL * reference
}

impl Workload for CityWorkload {
    fn setup(ctx: &Ctx, checks: &mut Checks) -> Result<Self, String> {
        let s = scale(ctx.size);
        let mut city = CityConfig::metro(s.n_aps, s.stations_per_ap, ctx.seed);
        city.epochs = 12;
        city.b_fraction = 0.03;
        // The deployment layout: what `run_city_campaign` builds before
        // its first epoch.
        let built = City::new(city.clone(), PerTableSet::synthetic());
        checks
            .ok("City::new", built.map(std::hint::black_box))
            .ok_or("city layout rejected")?;
        Ok(Self {
            city,
            cal_frames: s.cal_frames,
            journal: ctx.work_dir.join("city.journal"),
        })
    }

    fn pass(&mut self, ctx: &Ctx, checks: &mut Checks) -> Pass {
        let _ = std::fs::remove_file(&self.journal);
        let mut digest = Digest::default();
        let started = Instant::now();

        let calibrated =
            PerTableSet::calibrated(self.city.payload_bytes, self.cal_frames, self.city.seed);
        let calibrate_s = started.elapsed().as_secs_f64();
        let Some(tables) = checks.ok("PerTableSet::calibrated", calibrated) else {
            return Pass::default();
        };
        digest.u64(tables.digest());

        let cfg = CityCampaignConfig {
            city: self.city.clone(),
            tables,
            budget: Budget::unlimited(),
            journal: Some(self.journal.clone()),
            checkpoint_every_epochs: 1,
            threads: Some(ctx.threads),
            target_half_width: Some(0.0005),
            min_epochs: 6,
        };
        let campaign_started = Instant::now();
        let run = run_city_campaign(&cfg);
        let campaign_s = campaign_started.elapsed().as_secs_f64();
        let Some(first) = checks.ok("run_city_campaign", run) else {
            return Pass::default();
        };
        let journal_bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());

        let resume_started = Instant::now();
        let again = run_city_campaign(&cfg);
        let resume_s = resume_started.elapsed().as_secs_f64();
        let wall_s = started.elapsed().as_secs_f64();

        let r = &first.report;
        checks.check("city campaign complete", first.outcome.is_complete());
        if let Some(again) = checks.ok("run_city_campaign (resume)", again) {
            checks.check(
                "city resume is a no-op",
                matches!(again.resume, Resume::Resumed { .. })
                    && again.epochs_this_invocation == 0
                    && again.report == first.report
                    && again.state == first.state
                    && again.outcome.is_complete(),
            );
        }
        if ctx.size == Size::Full {
            checks.check(
                &format!(
                    "city throughput {:.1} Mbps near reference",
                    r.throughput_mbps
                ),
                within(r.throughput_mbps, REF_THROUGHPUT_MBPS),
            );
            checks.check(
                &format!("city loss rate {:.4} near reference", r.loss_rate),
                within(r.loss_rate, REF_LOSS_RATE),
            );
            checks.check(
                &format!("city Jain {:.3} near reference", r.jain_fairness),
                within(r.jain_fairness, REF_JAIN),
            );
        }
        digest
            .u64(r.epochs_run)
            .u64(r.attempts)
            .u64(r.failures)
            .u64(r.delivered_frames)
            .u64(r.handoffs)
            .f64(r.throughput_mbps)
            .f64(r.loss_rate)
            .f64(r.jain_fairness);

        Pass {
            wall_s,
            frames: CAL_LINKS * CAL_POINTS * self.cal_frames as u64,
            sim_s: r.epochs_run as f64 * self.city.epoch_ms / 1e3,
            sim_host_s: campaign_s,
            digest: digest.value(),
            layers: vec![
                ("city.calibrate_s", calibrate_s),
                (
                    "city.calibrate_frames",
                    (CAL_LINKS * CAL_POINTS * self.cal_frames as u64) as f64,
                ),
                ("city.journal_bytes", journal_bytes as f64),
                ("city.resume_ms", resume_s * 1e3),
                ("city.attempts", r.attempts as f64),
                ("city.delivered", r.delivered_frames as f64),
            ],
            ..Pass::default()
        }
    }

    fn golden(&self) -> Option<u64> {
        None
    }

    fn after(
        &mut self,
        ctx: &Ctx,
        _checks: &mut Checks,
        _passes: &[Pass],
        setup_s: &[f64],
        layers: Option<&mut Layers>,
    ) {
        if let Some(layers) = layers {
            layers.set("city.layout_ms", median(setup_s).unwrap_or(0.0) * 1e3);
            let snrs: Vec<f64> = (0..CAL_POINTS).map(|i| -4.0 + 2.0 * i as f64).collect();
            phy_frame_us(
                layers,
                &links(),
                &snrs,
                self.city.payload_bytes,
                1,
                ctx.seed,
            );
        }
    }

    fn teardown(self, _checks: &mut Checks) {
        let _ = std::fs::remove_file(&self.journal);
    }
}
