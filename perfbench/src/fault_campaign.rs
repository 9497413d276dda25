//! `fault-campaign`: the E16 fault catalog on one thread. Journaled
//! `run_per_campaign` for six links × six fault kinds × severity
//! {0, 0.5, 1} at 18 dB; then every campaign re-invoked on its completed
//! journal (a resume to a no-op); then the eight-call `simulate_traffic`
//! goodput table. It is the only workload with LDPC links.

use std::path::PathBuf;
use std::time::Instant;

use wlan_core::dsss::DsssRate;
use wlan_core::linksim::frame_trial_at;
use wlan_core::ofdm::OfdmRate;
use wlan_fault::{FaultChain, FaultKind};
use wlan_mac::arq::{ArqConfig, GeLossConfig};
use wlan_mac::params::MacProfile;
use wlan_mac::traffic::{simulate_traffic, TrafficConfig};
use wlan_math::WlanRng;
use wlan_runner::per::{run_per_campaign, PerCampaignConfig, PerCampaignReport};
use wlan_runner::{Budget, Resume};

use crate::harness::{Checks, Ctx, Pass, Size, Workload};
use crate::layers::{phy_frame_us, BenchLink, Layers};
use crate::stats::Digest;

const SNR_DB: f64 = 18.0;
const PAYLOAD: usize = 100;
const SEVERITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// Pass digest at `GOLDEN_SEED` and full size.
const GOLDEN: u64 = 0x8344_f043_39ad_129e;

/// The six E16 links, FHSS through STBC.
fn links() -> Vec<BenchLink> {
    vec![
        BenchLink::fhss(),
        BenchLink::dsss("cck11", DsssRate::Cck11M),
        BenchLink::ofdm("ofdm24", OfdmRate::R24),
        BenchLink::ht_ldpc16(),
        BenchLink::mimo("mimo2x2", 2, 2),
        BenchLink::stbc2x1(),
    ]
}

struct Campaign {
    link: usize,
    kind: FaultKind,
    chain: FaultChain,
    cfg: PerCampaignConfig,
}

pub struct FaultCampaign {
    links: Vec<BenchLink>,
    campaigns: Vec<Campaign>,
    traffic: Vec<TrafficConfig>,
}

impl FaultCampaign {
    fn journals(&self) -> impl Iterator<Item = &PathBuf> {
        self.campaigns.iter().filter_map(|c| c.cfg.journal.as_ref())
    }
}

/// The E16 goodput table: 10 and 30 stations × four MAC policies under
/// bursty interference, 6 s of simulated time each (1 s tiny).
fn traffic_configs(seed: u64, size: Size) -> Vec<TrafficConfig> {
    let protect_all = ArqConfig {
        max_retries: 6,
        rts_cts_after: 0,
        enabled: true,
    };
    let policies = [
        (ArqConfig::disabled(), GeLossConfig::clean()),
        (ArqConfig::disabled(), GeLossConfig::bursty()),
        (ArqConfig::basic(), GeLossConfig::bursty()),
        (protect_all, GeLossConfig::bursty()),
    ];
    let sim_time_us = match size {
        Size::Full => 6_000_000.0,
        Size::Tiny => 1_000_000.0,
    };
    let mut out = Vec::new();
    for n_stations in [10usize, 30] {
        for (arq, loss) in policies {
            out.push(TrafficConfig {
                profile: MacProfile::dot11a(54.0),
                n_stations,
                payload_bytes: 1500,
                arrival_rate_hz: 200.0,
                sim_time_us,
                seed,
                arq,
                loss,
            });
        }
    }
    out
}

fn fold_report(d: &mut Digest, r: &PerCampaignReport) {
    d.str(&r.name).str(&r.fault).u64(r.seed);
    for p in &r.points {
        d.f64(p.snr_db).u64(p.trials).u64(p.errors).u64(p.erasures);
    }
    for q in &r.quarantine {
        d.u64(q.point as u64).u64(q.frame).str(&q.error);
    }
}

impl Workload for FaultCampaign {
    fn setup(ctx: &Ctx, _checks: &mut Checks) -> Result<Self, String> {
        let links = links();
        let (link_count, kinds): (usize, Vec<FaultKind>) = match ctx.size {
            Size::Full => (links.len(), FaultKind::all().to_vec()),
            Size::Tiny => (2, FaultKind::all()[..2].to_vec()),
        };
        let max_frames = match ctx.size {
            Size::Full => 40,
            Size::Tiny => 4,
        };
        let mut campaigns = Vec::new();
        for link in 0..link_count {
            for &kind in &kinds {
                for s in SEVERITIES {
                    let journal = ctx.work_dir.join(format!("fc-{}.journal", campaigns.len()));
                    let mut cfg = PerCampaignConfig::new(&[SNR_DB], PAYLOAD, max_frames, ctx.seed)
                        .with_budget(Budget::unlimited())
                        .with_journal(journal)
                        .with_threads(ctx.threads);
                    cfg.min_frames = cfg.min_frames.min(max_frames);
                    // Each campaign is two waves. Per-wave checkpoints
                    // would write its journal three times, each later
                    // write a rename over the file that waits on the
                    // disk; the exit checkpoint alone keeps the journal
                    // write and read paths with a third of those renames.
                    cfg.checkpoint_every_rounds = u64::MAX;
                    campaigns.push(Campaign {
                        link,
                        kind,
                        chain: kind.chain(s),
                        cfg,
                    });
                }
            }
        }
        // One frame per campaign fills lazily built PHY state (the LDPC
        // code cache among it) before timing. Verdicts are physics, not
        // failures.
        let rng = WlanRng::seed_from_u64(ctx.seed);
        for c in &campaigns {
            let _ = std::hint::black_box(frame_trial_at(
                links[c.link].link.as_ref(),
                &c.chain,
                SNR_DB,
                PAYLOAD,
                &rng,
                0,
            ));
        }
        Ok(Self {
            links,
            campaigns,
            traffic: traffic_configs(ctx.seed, ctx.size),
        })
    }

    fn pass(&mut self, _ctx: &Ctx, checks: &mut Checks) -> Pass {
        // Each pass starts from empty journals (outside the timed body).
        for path in self.journals() {
            let _ = std::fs::remove_file(path);
        }
        let mut digest = Digest::default();
        let started = Instant::now();

        let mut fresh = Vec::with_capacity(self.campaigns.len());
        let mut frames = 0u64;
        for c in &self.campaigns {
            let link = self.links[c.link].link.as_ref();
            let r = run_per_campaign(link, &c.chain, &c.cfg);
            checks.check(
                &format!("{} / {}: complete", r.name, c.kind.name()),
                r.outcome.is_complete() && r.journal_error.is_none() && r.resume == Resume::Fresh,
            );
            frames += r.completed_trials();
            fold_report(&mut digest, &r);
            fresh.push(r);
        }
        let journal_bytes: u64 = self
            .journals()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();

        let resume_started = Instant::now();
        for (c, first) in self.campaigns.iter().zip(&fresh) {
            let link = self.links[c.link].link.as_ref();
            let r = run_per_campaign(link, &c.chain, &c.cfg);
            let banked = first.completed_trials();
            checks.check(
                &format!("{} / {}: resume is a no-op", r.name, c.kind.name()),
                r.resume == Resume::Resumed { trials: banked }
                    && r.completed_trials() == banked
                    && r.points == first.points
                    && r.quarantine == first.quarantine
                    && r.outcome.is_complete(),
            );
        }
        let resume_s = resume_started.elapsed().as_secs_f64();

        let traffic_started = Instant::now();
        let mut retries = 0u64;
        let mut dropped = 0u64;
        let mut sim_s = 0.0;
        for cfg in &self.traffic {
            let out = simulate_traffic(cfg);
            checks.check(
                "traffic: goodput within offered load",
                out.delivered_mbps.is_finite()
                    && out.delivered_mbps >= 0.0
                    && out.delivered_mbps <= out.offered_mbps * 1.05,
            );
            retries += out.retries;
            dropped += out.dropped;
            sim_s += cfg.sim_time_us / 1e6;
            digest
                .f64(out.offered_mbps)
                .f64(out.delivered_mbps)
                .f64(out.mean_delay_us)
                .f64(out.p95_delay_us)
                .u64(out.backlog as u64)
                .u64(out.retries)
                .u64(out.dropped)
                .u64(out.protected_tx);
        }
        let traffic_s = traffic_started.elapsed().as_secs_f64();
        let wall_s = started.elapsed().as_secs_f64();

        Pass {
            wall_s,
            frames,
            sim_s,
            sim_host_s: traffic_s,
            digest: digest.value(),
            layers: vec![
                ("runner.journal_bytes", journal_bytes as f64),
                ("runner.resume_ms", resume_s * 1e3),
                ("mac.traffic_ms", traffic_s * 1e3),
                ("mac.retries", retries as f64),
                ("mac.dropped", dropped as f64),
            ],
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
            phy_frame_us(layers, &self.links, &[SNR_DB], PAYLOAD, 24, ctx.seed);
        }
    }

    fn teardown(self, _checks: &mut Checks) {
        for path in self.journals() {
            let _ = std::fs::remove_file(path);
        }
    }
}
