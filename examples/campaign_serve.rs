//! `campaign serve` demonstrator: one binary, four roles.
//!
//! * `--serve` — bind `WLAN_DIST_ADDR` (or `--addr`), accept TCP
//!   workers, run the queued campaigns back-to-back on one persistent
//!   fleet, drain on a shutdown frame. Result tables go to stdout in
//!   queue order and must be byte-identical whatever the fleet does —
//!   ci.sh diffs a 1-worker run against runs that lose workers, restart
//!   them, or SIGKILL the service itself and resume it.
//! * `--tcp-worker` — dial the service (with reconnect/backoff) and
//!   serve leases until the fleet shuts down. `--die-after-ms` arms a
//!   crash timer for the chaos smokes.
//! * `--shutdown` — send the control shutdown frame: the service
//!   finishes in-flight leases, checkpoints, and exits.
//! * `--events` — subscribe to the service's `serve_*`/`conn_*` JSONL
//!   narration and relay it to stdout until the service closes.
//!
//! Usage:
//!   campaign_serve --serve [--addr A] [--addr-file F] [--journal-dir D]
//!                  [--campaigns N] [--linger]
//!   campaign_serve --tcp-worker (--addr A | --addr-file F)
//!                  [--retries N] [--die-after-ms M]
//!   campaign_serve --shutdown --addr A
//!   campaign_serve --events --addr A

use std::io::BufRead;
use std::time::Duration;

use wlan_core::ofdm::OfdmRate;
use wlan_dist::transport::{
    connect_retries_from_env, dist_addr_from_env, heartbeat_ms_from_env,
};
use wlan_dist::{
    connect_role, run_campaign_service, run_tcp_worker, DistConfig, FaultSpec, LinkSpec, Msg,
    Role, ServeCampaign, ServeConfig, WorkerOpts,
};
use wlan_runner::per::PerCampaignConfig;

fn usage() -> ! {
    eprintln!(
        "usage: campaign_serve --serve [--addr A] [--addr-file F] [--journal-dir D] \
         [--campaigns N] [--linger]\n\
         \x20      campaign_serve --tcp-worker (--addr A | --addr-file F) [--retries N] \
         [--die-after-ms M]\n\
         \x20      campaign_serve --shutdown --addr A\n\
         \x20      campaign_serve --events --addr A"
    );
    std::process::exit(2);
}

/// Parsed command line: mode plus the flags any mode may use.
struct Args {
    mode: String,
    addr: Option<String>,
    addr_file: Option<String>,
    journal_dir: Option<String>,
    campaigns: usize,
    linger: bool,
    retries: Option<u32>,
    die_after_ms: Option<u64>,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        mode: String::new(),
        addr: None,
        addr_file: None,
        journal_dir: None,
        campaigns: 1,
        linger: false,
        retries: None,
        die_after_ms: None,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve" | "--tcp-worker" | "--shutdown" | "--events" => {
                if !args.mode.is_empty() {
                    usage();
                }
                args.mode = arg.clone();
            }
            "--addr" => match it.next() {
                Some(a) => args.addr = Some(a.clone()),
                None => usage(),
            },
            "--addr-file" => match it.next() {
                Some(f) => args.addr_file = Some(f.clone()),
                None => usage(),
            },
            "--journal-dir" => match it.next() {
                Some(d) => args.journal_dir = Some(d.clone()),
                None => usage(),
            },
            "--campaigns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => args.campaigns = n,
                None => usage(),
            },
            "--linger" => args.linger = true,
            "--retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => args.retries = Some(n),
                None => usage(),
            },
            "--die-after-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => args.die_after_ms = Some(ms),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if args.mode.is_empty() {
        usage();
    }
    args
}

/// Queue slot `q`'s campaign: the R12 waterfall of the
/// `survivable_campaign` example, with the seed stepped per slot so
/// queued campaigns are distinct work rather than re-runs.
fn campaign_for_slot(q: usize, journal_dir: Option<&str>) -> ServeCampaign {
    let snrs: Vec<f64> = (0..6).map(|i| 1.0 + i as f64).collect();
    let mut per =
        PerCampaignConfig::new(&snrs, 150, 4096, 77 + q as u64).with_target_half_width(0.02);
    if let Some(dir) = journal_dir {
        per = per.with_journal(std::path::Path::new(dir).join(format!("q{q}.journal")));
    }
    ServeCampaign {
        link: LinkSpec::Ofdm(OfdmRate::R12),
        fault: FaultSpec::Clean,
        cfg: DistConfig::new(per, 0)
            .with_lease_timeout_ms(10_000)
            .with_heartbeat_ms(heartbeat_ms_from_env()),
    }
}

fn serve_mode(args: &Args) -> i32 {
    let addr = args.addr.clone().unwrap_or_else(dist_addr_from_env);
    if let Some(dir) = &args.journal_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create journal dir {dir}: {e}");
            return 2;
        }
    }
    let cfg = ServeConfig {
        addr,
        campaigns: (0..args.campaigns)
            .map(|q| campaign_for_slot(q, args.journal_dir.as_deref()))
            .collect(),
        linger: args.linger,
    };

    // Workers (and the SIGKILL-resume rerun, which must rebind the
    // *same* port to keep its journal keys) need the address before the
    // service returns, so `--addr-file` publishes a concrete address up
    // front: `:0` is resolved via a throwaway listener, then written.
    let addr_file = args.addr_file.clone();
    let cfg = if let Some(file) = &addr_file {
        let resolved = match resolve_addr(&cfg.addr) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("cannot resolve listen address {}: {e}", cfg.addr);
                return 2;
            }
        };
        if let Err(e) = std::fs::write(file, &resolved) {
            eprintln!("cannot write addr file {file}: {e}");
            return 2;
        }
        ServeConfig {
            addr: resolved,
            ..cfg
        }
    } else {
        cfg
    };

    let mut out = std::io::stdout().lock();
    let report = run_campaign_service(&cfg, |q, r| {
        eprintln!(
            "campaign {q}: fleet {} spawned, {} died, {} timeouts, {} fallback leases",
            r.stats.workers_spawned, r.stats.worker_deaths, r.stats.timeouts,
            r.stats.fallback_leases,
        );
        let _ = r.render_table(&mut out);
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve failed: {e}");
            return 2;
        }
    };
    eprintln!(
        "served {} campaign(s) on {} (shutdown requested: {})",
        report.reports.len(),
        report.bound_addr,
        report.shutdown_requested
    );
    let all_complete = report.reports.iter().all(|r| r.outcome.is_complete());
    if all_complete || report.shutdown_requested {
        0
    } else {
        3
    }
}

/// Resolves `host:0` to a concrete `host:port` by briefly binding a
/// throwaway listener; concrete addresses pass through unchanged. The
/// port is released before the service binds it — a tiny race the
/// smokes tolerate (workers retry, and ci owns the whole machine).
fn resolve_addr(addr: &str) -> std::io::Result<String> {
    if !addr.ends_with(":0") {
        return Ok(addr.to_owned());
    }
    let probe = std::net::TcpListener::bind(addr)?;
    Ok(probe.local_addr()?.to_string())
}

/// Polls `--addr-file` until it holds an address (the service writes it
/// right after resolving its port), bounded at ~10 s.
fn addr_from_file(path: &str) -> Option<String> {
    for _ in 0..500 {
        if let Ok(s) = std::fs::read_to_string(path) {
            let s = s.trim();
            if !s.is_empty() {
                return Some(s.to_owned());
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

fn worker_mode(args: &Args) -> i32 {
    let addr = match (&args.addr, &args.addr_file) {
        (Some(a), _) => a.clone(),
        (None, Some(f)) => match addr_from_file(f) {
            Some(a) => a,
            None => {
                eprintln!("addr file {f} never materialised");
                return 2;
            }
        },
        (None, None) => dist_addr_from_env(),
    };
    if let Some(ms) = args.die_after_ms {
        // Chaos timer: a hard exit mid-lease, exactly like a crashed or
        // OOM-killed worker box. The coordinator must re-dispatch.
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            eprintln!("worker chaos timer fired after {ms}ms; dying");
            std::process::exit(9);
        });
    }
    let opts = WorkerOpts {
        retries: args.retries.unwrap_or_else(connect_retries_from_env),
        ..WorkerOpts::from_env()
    };
    match run_tcp_worker(&addr, &opts) {
        Ok(sessions) => {
            eprintln!("worker served {sessions} session(s)");
            0
        }
        Err(e) => {
            eprintln!("worker failed: {e}");
            1
        }
    }
}

fn shutdown_mode(args: &Args) -> i32 {
    let addr = args.addr.clone().unwrap_or_else(dist_addr_from_env);
    let mut conn = match connect_role(&addr, Role::Control, &WorkerOpts::from_env()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("control connect to {addr} failed: {e}");
            return 1;
        }
    };
    match wlan_dist::proto::write_msg(&mut conn.writer, &Msg::Shutdown) {
        Ok(()) => {
            eprintln!("shutdown requested at {addr}");
            0
        }
        Err(e) => {
            eprintln!("shutdown frame failed: {e}");
            1
        }
    }
}

fn events_mode(args: &Args) -> i32 {
    let addr = args.addr.clone().unwrap_or_else(dist_addr_from_env);
    let conn = match connect_role(&addr, Role::Events, &WorkerOpts::from_env()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("events connect to {addr} failed: {e}");
            return 1;
        }
    };
    // The subscription has no deadline: the stream lives as long as the
    // service does.
    let _ = conn.writer.set_read_timeout(None);
    let mut reader = conn.reader;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => print!("{line}"),
            Err(_) => break,
        }
    }
    0
}

fn main() {
    let args = parse_args();
    let code = match args.mode.as_str() {
        "--serve" => serve_mode(&args),
        "--tcp-worker" => worker_mode(&args),
        "--shutdown" => shutdown_mode(&args),
        "--events" => events_mode(&args),
        _ => usage(),
    };
    std::process::exit(code);
}
