//! `campaign serve` — a long-running distributed-campaign service.
//!
//! [`run_campaign_service`] binds a TCP listener, builds a [`Fleet`]
//! fed by every worker that completes the [`transport`](crate::transport)
//! handshake (before the first campaign or in the middle of one — late
//! joiners attach at the next coordinator pass), and runs its queued
//! campaigns back-to-back on that one fleet. Three connection roles
//! multiplex on the same port, distinguished by the handshake:
//!
//! * **worker** — joins the fleet and receives leases.
//! * **control** — may send a [`Msg::Shutdown`] frame; the service then
//!   *drains*: in-flight leases finish (still policed by their
//!   deadlines), the current campaign checkpoints and exits with
//!   [`StopReason::Interrupted`](wlan_runner::budget::StopReason), and
//!   queued campaigns after it never start.
//! * **events** — receives the service's `serve_*`/`conn_*` narration
//!   as JSONL, one object per line, mirroring the `WLAN_OBS` sink.
//!
//! Every campaign journals under a key that appends the service's
//! listen address and the campaign's queue position to the classic
//! `dist v1` identity, so a SIGKILLed service re-run with the same
//! address resumes each campaign bit-identically — and two services
//! sharing one journal file can never resume each other's entries.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use wlan_obs::json;

use crate::catalog::{FaultSpec, LinkSpec};
use crate::coord::{run_dist_per_campaign_on, DistConfig, DistPerReport, Fleet, WorkerIo};
use crate::proto::{read_msg, Msg, ProtoError};
use crate::transport::{server_handshake, Role, DEFAULT_HEARTBEAT_MS};

/// Locks a mutex, recovering from poison: a panicked subscriber write
/// must not take the whole service down with it.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// State shared between the service loop, the accept loop, and every
/// per-connection handler thread.
struct Shared {
    /// Set by a control client's shutdown frame.
    stop: AtomicBool,
    /// Cleared when the acceptor closes; the accept loop exits on the
    /// next connection instead of handling it.
    accepting: AtomicBool,
    /// Monotonic connection counter (for `conn_*` event correlation).
    conns: AtomicU64,
    /// Live event-subscriber sockets; pruned on write failure.
    subscribers: Mutex<Vec<TcpStream>>,
}

impl Shared {
    /// Emits to the process-wide `WLAN_OBS` recorder *and* fans the
    /// same JSONL line out to every event subscriber.
    fn emit(&self, name: &str, fields: &[(&str, json::Value)]) {
        wlan_obs::global().event(name, fields);
        let mut pairs = Vec::with_capacity(fields.len() + 1);
        pairs.push(("event".to_owned(), json::Value::Str(name.to_owned())));
        for (k, v) in fields {
            pairs.push(((*k).to_owned(), v.clone()));
        }
        let mut line = json::Value::Obj(pairs).to_json();
        line.push('\n');
        let mut subs = locked(&self.subscribers);
        subs.retain_mut(|s| {
            s.write_all(line.as_bytes())
                .and_then(|()| s.flush())
                .is_ok()
        });
    }
}

/// A bound service listener: accepts connections, handshakes them, and
/// routes workers into the channel returned by [`Acceptor::bind`] —
/// pair it with [`Fleet::from_joiners`]. [`run_campaign_service`] wraps
/// all of this; tests and bespoke services can use the acceptor
/// directly.
pub struct Acceptor {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Acceptor {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop. Returns the acceptor and the channel of
    /// handshaken workers.
    pub fn bind(addr: &str) -> std::io::Result<(Acceptor, mpsc::Receiver<WorkerIo>)> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            conns: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
        });
        let (tx, rx) = mpsc::channel();
        let accept_shared = Arc::clone(&shared);
        let accept_thread =
            std::thread::spawn(move || accept_loop(listener, accept_shared, tx));
        Ok((
            Acceptor {
                local_addr,
                shared,
                accept_thread: Mutex::new(Some(accept_thread)),
            },
            rx,
        ))
    }

    /// The actually-bound address (resolves an `:0` ephemeral port).
    pub fn local_addr(&self) -> String {
        self.local_addr.to_string()
    }

    /// Whether a control client has requested a shutdown.
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting connections and waits for the accept loop to
    /// exit (so the port is genuinely released when this returns —
    /// a restarted service can rebind the same address immediately).
    /// Already-handshaken connections are unaffected.
    pub fn close(&self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        // The listener blocks in accept(); a throwaway connection wakes
        // it so it can observe `accepting == false` and exit.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = locked(&self.accept_thread).take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, tx: mpsc::Sender<WorkerIo>) {
    for stream in listener.incoming() {
        if !shared.accepting.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        let conn_tx = tx.clone();
        std::thread::spawn(move || handle_conn(stream, conn_shared, conn_tx));
    }
}

fn handle_conn(stream: TcpStream, shared: Arc<Shared>, tx: mpsc::Sender<WorkerIo>) {
    match server_handshake(stream) {
        Ok((role, reader, writer)) => {
            let conn = shared.conns.fetch_add(1, Ordering::SeqCst);
            shared.emit(
                wlan_obs::events::CONN_ACCEPT,
                &[
                    ("conn", json::Value::U64(conn)),
                    ("role", json::Value::Str(role.as_str().to_owned())),
                ],
            );
            match role {
                Role::Worker => {
                    let kill_stream = writer.try_clone().ok();
                    // The handshake's BufReader travels with the slot:
                    // any bytes the worker pipelined behind its connect
                    // frame are already buffered in it.
                    let io = WorkerIo {
                        writer: Box::new(writer),
                        reader: Box::new(reader),
                        kill: Box::new(move || {
                            if let Some(s) = &kill_stream {
                                let _ = s.shutdown(Shutdown::Both);
                            }
                        }),
                    };
                    let _ = tx.send(io);
                }
                Role::Control => {
                    let mut r = reader;
                    loop {
                        match read_msg(&mut r) {
                            Ok(Some(Msg::Shutdown)) => {
                                shared.stop.store(true, Ordering::SeqCst);
                                break;
                            }
                            Ok(Some(_)) => continue,
                            Ok(None) | Err(ProtoError::Io(_)) => break,
                            // Damaged frames resync at the next newline,
                            // same as the worker loop.
                            Err(_) => continue,
                        }
                    }
                    // Obs-only (no subscriber fan-out): closes are
                    // bookkeeping, not service lifecycle.
                    wlan_obs::global().event(
                        wlan_obs::events::CONN_CLOSE,
                        &[("conn", json::Value::U64(conn))],
                    );
                }
                Role::Events => {
                    locked(&shared.subscribers).push(writer);
                }
            }
        }
        Err(e) => {
            shared.emit(
                wlan_obs::events::CONN_REJECT,
                &[("reason", json::Value::Str(e.to_string()))],
            );
        }
    }
}

/// One queued campaign: what to run and how to run it. The fleet
/// geometry fields of `cfg` (`workers`) are ignored — the service's
/// fleet is whoever connected.
pub struct ServeCampaign {
    /// The PHY link under test.
    pub link: LinkSpec,
    /// The fault chain under test.
    pub fault: FaultSpec,
    /// Campaign and failure-handling configuration.
    pub cfg: DistConfig,
}

/// Configuration for [`run_campaign_service`].
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral one).
    /// Defaults come from `WLAN_DIST_ADDR` via
    /// [`dist_addr_from_env`](crate::transport::dist_addr_from_env).
    pub addr: String,
    /// Campaigns to run back-to-back, in order.
    pub campaigns: Vec<ServeCampaign>,
    /// Keep serving after the queue drains — pinging idle workers and
    /// accepting joiners — until a shutdown frame arrives. Off, the
    /// service exits once the queue is done.
    pub linger: bool,
}

/// What [`run_campaign_service`] did.
#[derive(Debug)]
pub struct ServeReport {
    /// The actually-bound listen address.
    pub bound_addr: String,
    /// One report per campaign that ran (a drain cuts the queue short).
    pub reports: Vec<DistPerReport>,
    /// Whether a shutdown was requested (vs. the queue running dry).
    pub shutdown_requested: bool,
}

/// Runs the `campaign serve` service: bind, accept workers, run the
/// queued campaigns on one persistent fleet, drain on shutdown.
///
/// `on_campaign` fires after each campaign completes (index in the
/// queue, its report) — the serve example streams progress from it.
///
/// Campaign `q`'s journal key is the one-shot key plus
/// `" serve addr=<bound> q=<q>"`, so a killed service re-run on the
/// same address resumes every finished campaign as complete and the
/// interrupted one from its last checkpoint — bit-identically.
pub fn run_campaign_service(
    cfg: &ServeConfig,
    mut on_campaign: impl FnMut(usize, &DistPerReport),
) -> std::io::Result<ServeReport> {
    let (acceptor, joiners) = Acceptor::bind(&cfg.addr)?;
    let bound = acceptor.local_addr();
    acceptor.shared.emit(
        wlan_obs::events::SERVE_START,
        &[("addr", json::Value::Str(bound.clone()))],
    );

    let mut fleet = Fleet::from_joiners(joiners);
    let mut reports = Vec::new();
    for (q, c) in cfg.campaigns.iter().enumerate() {
        if acceptor.stop_requested() {
            break;
        }
        acceptor.shared.emit(
            wlan_obs::events::SERVE_CAMPAIGN_START,
            &[
                ("q", json::Value::U64(q as u64)),
                ("link", json::Value::Str(c.link.id())),
                ("fault", json::Value::Str(c.fault.id())),
            ],
        );
        let suffix = format!(" serve addr={bound} q={q}");
        let report = run_dist_per_campaign_on(
            c.link,
            c.fault,
            &c.cfg,
            &mut fleet,
            &suffix,
            Some(&acceptor.shared.stop),
        );
        acceptor.shared.emit(
            wlan_obs::events::SERVE_CAMPAIGN_DONE,
            &[
                ("q", json::Value::U64(q as u64)),
                ("complete", json::Value::Bool(report.outcome.is_complete())),
                ("trials", json::Value::U64(report.completed_trials())),
            ],
        );
        on_campaign(q, &report);
        reports.push(report);
    }

    if cfg.linger {
        let heartbeat_ms = cfg
            .campaigns
            .first()
            .map(|c| c.cfg.heartbeat_ms)
            .unwrap_or(DEFAULT_HEARTBEAT_MS);
        while !acceptor.stop_requested() {
            fleet.idle_tick(heartbeat_ms);
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let shutdown_requested = acceptor.stop_requested();
    acceptor.shared.emit(
        wlan_obs::events::SERVE_SHUTDOWN,
        &[
            ("campaigns", json::Value::U64(reports.len() as u64)),
            ("requested", json::Value::Bool(shutdown_requested)),
        ],
    );
    fleet.shutdown();
    acceptor.close();
    Ok(ServeReport {
        bound_addr: bound,
        reports,
        shutdown_requested,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{run_dist_per_campaign, InProcessFactory};
    use crate::transport::{connect_role, run_tcp_worker, WorkerOpts};
    use crate::proto::write_msg;
    use wlan_runner::per::PerCampaignConfig;

    fn small_per(seed: u64, journal: Option<std::path::PathBuf>) -> PerCampaignConfig {
        let mut per = PerCampaignConfig::new(&[2.0, 4.0], 24, 96, seed);
        per.journal = journal;
        per
    }

    fn dist_cfg(per: PerCampaignConfig) -> DistConfig {
        DistConfig::new(per, 0)
            .with_lease_timeout_ms(10_000)
            .with_heartbeat_ms(50)
    }

    fn points_bits(r: &DistPerReport) -> Vec<(u64, u64, u64)> {
        r.points
            .iter()
            .map(|p| (p.trials, p.errors, p.per().to_bits()))
            .collect()
    }

    #[test]
    fn service_runs_queued_campaigns_on_tcp_workers_bit_identically() {
        let serve_cfg = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            campaigns: vec![
                ServeCampaign {
                    link: LinkSpec::Ofdm(wlan_core::ofdm::OfdmRate::R12),
                    fault: FaultSpec::Clean,
                    cfg: dist_cfg(small_per(11, None)),
                },
                ServeCampaign {
                    link: LinkSpec::Dsss(wlan_core::dsss::DsssRate::Dqpsk2M),
                    fault: FaultSpec::Clean,
                    cfg: dist_cfg(small_per(12, None)),
                },
            ],
            linger: false,
        };

        // The service publishes its bound address through the report,
        // but workers need it *before* the service returns — run the
        // service on a thread and discover the port via an addr probe.
        let (addr_tx, addr_rx) = mpsc::channel::<String>();
        let svc = std::thread::spawn(move || {
            // Bind first so the address exists before workers dial.
            run_campaign_service_with_probe(&serve_cfg, addr_tx)
        });
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_default();
        assert!(!addr.is_empty(), "service never reported its address");

        let opts = WorkerOpts {
            retries: 20,
            backoff_ms: 5,
            backoff_cap_ms: 40,
            read_timeout_ms: 5_000,
            ..WorkerOpts::default()
        };
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let opts = opts.clone();
                std::thread::spawn(move || run_tcp_worker(&addr, &opts))
            })
            .collect();

        let report = match svc.join() {
            Ok(Ok(r)) => r,
            other => panic!("service failed: {other:?}"),
        };
        assert_eq!(report.reports.len(), 2);
        for r in &report.reports {
            assert!(r.outcome.is_complete(), "{:?}", r.outcome);
        }
        // Workers got an orderly shutdown, not an error.
        for w in workers {
            let sessions = match w.join() {
                Ok(Ok(n)) => n,
                other => panic!("worker failed: {other:?}"),
            };
            assert!(sessions >= 1);
        }

        // Bit-identity: each served campaign matches the classic
        // one-shot in-process run of the same config.
        for (q, seed) in [(0usize, 11u64), (1, 12)] {
            let cfg = dist_cfg(small_per(seed, None));
            let baseline = match q {
                0 => run_dist_per_campaign(
                    LinkSpec::Ofdm(wlan_core::ofdm::OfdmRate::R12),
                    FaultSpec::Clean,
                    &DistConfig { workers: 2, ..cfg },
                    &mut InProcessFactory::clean(),
                ),
                _ => run_dist_per_campaign(
                    LinkSpec::Dsss(wlan_core::dsss::DsssRate::Dqpsk2M),
                    FaultSpec::Clean,
                    &DistConfig { workers: 2, ..cfg },
                    &mut InProcessFactory::clean(),
                ),
            };
            assert_eq!(
                points_bits(&report.reports[q]),
                points_bits(&baseline),
                "campaign {q} diverged from its one-shot baseline"
            );
        }
    }

    /// Like [`run_campaign_service`] but reports the bound address on a
    /// channel as soon as the listener exists (test plumbing only).
    fn run_campaign_service_with_probe(
        cfg: &ServeConfig,
        addr_tx: mpsc::Sender<String>,
    ) -> std::io::Result<ServeReport> {
        let (acceptor, joiners) = Acceptor::bind(&cfg.addr)?;
        let bound = acceptor.local_addr();
        let _ = addr_tx.send(bound.clone());
        let mut fleet = Fleet::from_joiners(joiners);
        // Give the workers a moment to dial before the first campaign
        // decides whether to fall back in-process; joiners arriving
        // later would still attach mid-campaign.
        std::thread::sleep(Duration::from_millis(100));
        let mut reports = Vec::new();
        for (q, c) in cfg.campaigns.iter().enumerate() {
            if acceptor.stop_requested() {
                break;
            }
            let suffix = format!(" serve addr={bound} q={q}");
            reports.push(run_dist_per_campaign_on(
                c.link,
                c.fault,
                &c.cfg,
                &mut fleet,
                &suffix,
                Some(&acceptor.shared.stop),
            ));
        }
        let shutdown_requested = acceptor.stop_requested();
        fleet.shutdown();
        acceptor.close();
        Ok(ServeReport {
            bound_addr: bound,
            reports,
            shutdown_requested,
        })
    }

    #[test]
    fn control_shutdown_frame_stops_a_lingering_service() {
        let serve_cfg = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            campaigns: Vec::new(),
            linger: true,
        };
        let (addr_tx, addr_rx) = mpsc::channel::<String>();
        let svc = std::thread::spawn(move || {
            let (acceptor, joiners) = Acceptor::bind(&serve_cfg.addr)?;
            let _ = addr_tx.send(acceptor.local_addr());
            let mut fleet = Fleet::from_joiners(joiners);
            while !acceptor.stop_requested() {
                fleet.idle_tick(50);
                std::thread::sleep(Duration::from_millis(5));
            }
            fleet.shutdown();
            acceptor.close();
            Ok::<bool, std::io::Error>(acceptor.stop_requested())
        });
        let addr = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_default();
        assert!(!addr.is_empty());

        let mut control = match connect_role(&addr, Role::Control, &WorkerOpts::default()) {
            Ok(c) => c,
            Err(e) => panic!("control connect failed: {e}"),
        };
        assert!(write_msg(&mut control.writer, &Msg::Shutdown).is_ok());

        match svc.join() {
            Ok(Ok(true)) => {}
            other => panic!("service did not observe the shutdown: {other:?}"),
        }
    }

    #[test]
    fn serves_never_cross_resume_across_addresses_or_queue_slots() {
        // S6 regression: the journal key carries the listen address and
        // queue position. A campaign completed by a service at address A
        // must never be "resumed" (i.e. skipped) by a service at address
        // B, nor may queue slot 1 resume slot 0's completed entry — each
        // runs in full and all arrive at bit-identical results.
        let dir = std::env::temp_dir().join(format!(
            "wlan_serve_keys_{}_{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or_default()
        ));
        std::fs::create_dir_all(&dir).ok();
        let journal = dir.join("serve.journal");

        // Zero workers + no joiners dialling in: campaigns degrade to
        // in-process fallback, keeping this test free of socket timing.
        let one_campaign = || ServeCampaign {
            link: LinkSpec::Ofdm(wlan_core::ofdm::OfdmRate::R12),
            fault: FaultSpec::Clean,
            cfg: dist_cfg(small_per(21, Some(journal.clone()))),
        };
        let serve = |addr: &str, n: usize| ServeConfig {
            addr: addr.to_owned(),
            campaigns: (0..n).map(|_| one_campaign()).collect(),
            linger: false,
        };

        // Service A: two *identical* campaigns sharing one journal path.
        // Slot 1 must not load slot 0's completed entry and skip itself
        // — its key differs in `q=`, so it refuses the file (ColdStart)
        // and runs in full.
        let a = match run_campaign_service(&serve("127.0.0.1:0", 2), |_, _| {}) {
            Ok(r) => r,
            Err(e) => panic!("service A failed: {e}"),
        };
        assert_eq!(a.reports.len(), 2);
        assert_eq!(a.reports[0].resume, wlan_runner::Resume::Fresh);
        match a.reports[1].resume {
            wlan_runner::Resume::ColdStart { .. } => {}
            ref other => panic!("slot 1 must refuse slot 0's journal entry, got {other:?}"),
        }
        assert!(a.reports[1].outcome.is_complete());
        assert_eq!(points_bits(&a.reports[0]), points_bits(&a.reports[1]));

        // Service B, different (ephemeral) address, same journal: must
        // refuse A's entry for the same reason.
        let b = match run_campaign_service(&serve("127.0.0.1:0", 1), |_, _| {}) {
            Ok(r) => r,
            Err(e) => panic!("service B failed: {e}"),
        };
        assert_ne!(a.bound_addr, b.bound_addr);
        match b.reports[0].resume {
            wlan_runner::Resume::ColdStart { .. } => {}
            ref other => panic!("B must refuse A's journal entry, got {other:?}"),
        }
        assert_eq!(points_bits(&a.reports[0]), points_bits(&b.reports[0]));

        // Re-running B's exact address and queue slot *does* resume —
        // the key binds identity, it does not forbid resumption.
        let rerun = match run_campaign_service(&serve(&b.bound_addr, 1), |_, _| {}) {
            Ok(r) => r,
            Err(e) => panic!("rerun failed: {e}"),
        };
        match rerun.reports[0].resume {
            wlan_runner::Resume::Resumed { .. } => {}
            ref other => panic!("expected a resume, got {other:?}"),
        }
        assert_eq!(points_bits(&b.reports[0]), points_bits(&rerun.reports[0]));

        std::fs::remove_dir_all(&dir).ok();
    }
}
