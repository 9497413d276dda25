//! `dist-tcp`: two `run_tcp_worker` threads join an `Acceptor` on
//! `127.0.0.1:0` and run three light PER campaigns back to back on one
//! `Fleet`. The PHY work is light, so the coordinator, leases, protocol
//! and TCP transport show. After the timed loop the same campaigns run
//! in-process with `run_per_campaign`, and their rendered tables must
//! match the fleet's byte for byte.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wlan_core::dsss::DsssRate;
use wlan_core::ofdm::OfdmRate;
use wlan_dist::{
    run_dist_per_campaign_on, run_tcp_worker, Acceptor, DistConfig, DistPerReport, DistStats,
    FaultSpec, Fleet, LinkSpec, ProtoError, WorkerOpts,
};
use wlan_runner::per::{run_per_campaign, PerCampaignConfig};
use wlan_runner::Budget;

use crate::harness::{Checks, Ctx, Pass, Size, Workload};
use crate::layers::{phy_frame_us, BenchLink, Layers};
use crate::stats::{median, Digest};

const PAYLOAD: usize = 150;
const WORKERS: usize = 2;
const HEARTBEAT_MS: u64 = 200;
/// How long set-up waits for both workers to handshake.
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// One queued campaign: link, SNR points in its waterfall, per-layer slug.
struct Spec {
    link: LinkSpec,
    snrs_db: Vec<f64>,
    slug: &'static str,
}

/// The `distributed_campaign` R12 waterfall plus CCK 11 and OFDM 54
/// across theirs; 150-byte frames, Wilson half-width 0.02.
fn specs() -> Vec<Spec> {
    let range = |lo: f64| (0..6).map(|i| lo + i as f64).collect::<Vec<f64>>();
    vec![
        Spec {
            link: LinkSpec::Ofdm(OfdmRate::R12),
            snrs_db: range(1.0),
            slug: "ofdm12",
        },
        Spec {
            link: LinkSpec::Dsss(DsssRate::Cck11M),
            snrs_db: range(1.0),
            slug: "cck11",
        },
        Spec {
            link: LinkSpec::Ofdm(OfdmRate::R54),
            snrs_db: range(16.0),
            slug: "ofdm54",
        },
    ]
}

fn per_config(spec: &Spec, ctx: &Ctx) -> PerCampaignConfig {
    let max_frames = match ctx.size {
        Size::Full => 4096,
        Size::Tiny => 64,
    };
    PerCampaignConfig::new(&spec.snrs_db, PAYLOAD, max_frames, ctx.seed)
        .with_target_half_width(0.02)
        .with_budget(Budget::unlimited())
        .with_threads(ctx.threads)
}

fn render(report: &DistPerReport) -> Vec<u8> {
    let mut out = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = report.render_table(&mut out);
    out
}

pub struct DistTcp {
    specs: Vec<Spec>,
    configs: Vec<DistConfig>,
    acceptor: Acceptor,
    fleet: Fleet,
    workers: Vec<JoinHandle<Result<u64, ProtoError>>>,
    /// Seconds from bind until both workers had handshaken.
    join_s: f64,
}

impl Workload for DistTcp {
    fn setup(ctx: &Ctx, _checks: &mut Checks) -> Result<Self, String> {
        let specs = specs();
        let configs = specs
            .iter()
            .map(|s| {
                DistConfig::new(per_config(s, ctx), 0)
                    .with_lease_timeout_ms(10_000)
                    .with_heartbeat_ms(HEARTBEAT_MS)
            })
            .collect();
        let (acceptor, joiners) =
            Acceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = acceptor.local_addr();
        let opts = WorkerOpts {
            retries: 20,
            backoff_ms: 5,
            backoff_cap_ms: 40,
            reconnect: false,
            ..WorkerOpts::default()
        };
        let workers = (0..WORKERS)
            .map(|_| {
                let addr = addr.clone();
                let opts = opts.clone();
                std::thread::spawn(move || run_tcp_worker(&addr, &opts))
            })
            .collect();
        let mut fleet = Fleet::from_joiners(joiners);
        let started = Instant::now();
        while fleet.alive_workers() < WORKERS {
            if started.elapsed() > JOIN_TIMEOUT {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
            fleet.idle_tick(HEARTBEAT_MS);
        }
        let join_s = started.elapsed().as_secs_f64();
        let joined = fleet.alive_workers();
        let mut workload = Self {
            specs,
            configs,
            acceptor,
            fleet,
            workers,
            join_s,
        };
        if joined < WORKERS {
            workload.teardown(&mut Checks::default());
            return Err(format!("{joined} of {WORKERS} workers joined"));
        }
        // One lease per worker warms the lease path and the workers' PHY
        // state before timing.
        let warm = DistConfig::new(
            PerCampaignConfig::new(&[30.0, 31.0], PAYLOAD, 32, ctx.seed)
                .with_budget(Budget::unlimited()),
            0,
        )
        .with_lease_timeout_ms(10_000)
        .with_heartbeat_ms(HEARTBEAT_MS);
        let r = run_dist_per_campaign_on(
            workload.specs[0].link,
            FaultSpec::Clean,
            &warm,
            &mut workload.fleet,
            "",
            None,
        );
        if !r.outcome.is_complete() {
            workload.teardown(&mut Checks::default());
            return Err("warm-up campaign did not complete".to_owned());
        }
        Ok(workload)
    }

    fn pass(&mut self, _ctx: &Ctx, checks: &mut Checks) -> Pass {
        let join_ms = self.join_s * 1e3;
        let mut digest = Digest::default();
        let mut stats = DistStats::default();
        let mut frames = 0u64;
        let mut air_s = 0.0;
        let started = Instant::now();
        for (spec, cfg) in self.specs.iter().zip(&self.configs) {
            let r = run_dist_per_campaign_on(
                spec.link,
                FaultSpec::Clean,
                cfg,
                &mut self.fleet,
                "",
                None,
            );
            checks.check(
                &format!("{}: distributed campaign complete", r.name),
                r.outcome.is_complete() && r.lease_quarantine.is_empty(),
            );
            frames += r.completed_trials();
            air_s += r.completed_trials() as f64 * (PAYLOAD * 8) as f64 / (r.rate_mbps * 1e6);
            stats.leases_completed += r.stats.leases_completed;
            stats.redispatches += r.stats.redispatches;
            stats.worker_deaths += r.stats.worker_deaths;
            stats.timeouts += r.stats.timeouts;
            stats.fallback_leases += r.stats.fallback_leases;
            digest.bytes(&render(&r));
        }
        let wall_s = started.elapsed().as_secs_f64();
        Pass {
            wall_s,
            frames,
            sim_s: air_s,
            sim_host_s: wall_s,
            digest: digest.value(),
            layers: vec![
                ("dist.join_ms", join_ms),
                ("dist.leases", stats.leases_completed as f64),
                ("dist.redispatches", stats.redispatches as f64),
                ("dist.worker_deaths", stats.worker_deaths as f64),
                ("dist.timeouts", stats.timeouts as f64),
                ("dist.fallback_leases", stats.fallback_leases as f64),
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
        checks: &mut Checks,
        passes: &[Pass],
        _setup_s: &[f64],
        layers: Option<&mut Layers>,
    ) {
        // The same campaigns in-process: tallies and ledger must render
        // to the fleet's bytes (the ledger in the fleet's (point, frame)
        // order). Every pass reproduces the first, so the first pass's
        // digest stands for all of them.
        let started = Instant::now();
        let mut local = Vec::with_capacity(self.specs.len());
        for (spec, cfg) in self.specs.iter().zip(&self.configs) {
            let mut r = run_per_campaign(&*spec.link.build(), &FaultSpec::Clean.build(), &cfg.per);
            r.quarantine.sort_by_key(|q| (q.point, q.frame));
            local.push(DistPerReport {
                name: r.name,
                fault: r.fault,
                rate_mbps: r.rate_mbps,
                seed: r.seed,
                points: r.points,
                quarantine: r.quarantine,
                lease_quarantine: Vec::new(),
                outcome: r.outcome,
                resume: r.resume,
                journal_error: r.journal_error,
                stats: DistStats::default(),
            });
        }
        let local_s = started.elapsed().as_secs_f64();
        let mut digest = Digest::default();
        for report in &local {
            digest.bytes(&render(report));
        }
        checks.check(
            "TCP tables equal the in-process tables",
            passes.first().is_some_and(|p| p.digest == digest.value()),
        );

        if let Some(layers) = layers {
            layers.set("dist.local_s", local_s);
            let walls: Vec<f64> = passes
                .iter()
                .filter(|p| !p.traced)
                .map(|p| p.wall_s)
                .collect();
            if let Some(wall) = median(&walls) {
                layers.set("dist.overhead_frac", wall / local_s - 1.0);
            }
            for spec in &self.specs {
                let bl = BenchLink {
                    slug: spec.slug,
                    link: spec.link.build(),
                };
                phy_frame_us(layers, &[bl], &spec.snrs_db, PAYLOAD, 8, ctx.seed);
            }
        }
    }

    fn teardown(mut self, checks: &mut Checks) {
        self.fleet.shutdown();
        self.acceptor.close();
        for handle in self.workers.drain(..) {
            let served = handle
                .join()
                .map_err(|_| "worker thread panicked".to_owned());
            checks.ok(
                "TCP worker served one session",
                served.and_then(|r| r.map_err(|e| e.to_string())),
            );
        }
    }
}
