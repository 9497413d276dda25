//! TCP transport: the one way worker processes join a fleet.
//!
//! The frame protocol in [`proto`](crate::proto) is deliberately
//! transport-agnostic: newline-delimited, length-prefixed, checksummed
//! byte lines that work identically over the in-memory duplex pairs of
//! the test fleet and — here — `std::net::TcpStream`. This module adds
//! the three things a socket needs that an in-memory pipe does not:
//!
//! 1. **A handshake.** An in-memory pipe's two ends are the same binary
//!    by construction; a socket's are not. Before any protocol frame flows,
//!    the connecting side sends `connect v=<version> catalog=<digest>
//!    role=<role>` and the accepting side answers `accept …` or
//!    `reject …`. A version or catalog mismatch is a typed
//!    [`ProtoError::Incompatible`] — *terminal*, never retried, because
//!    two binaries with different experiment catalogs would disagree
//!    about what `ofdm:12` even means and corrupt results silently.
//! 2. **Deadlines.** Reads carry timeouts (`set_read_timeout`) so a
//!    half-closed peer costs bounded time, and `TCP_NODELAY` keeps the
//!    small control frames from queueing behind Nagle.
//! 3. **Reconnect with DCF-style backoff.** A worker that loses its
//!    coordinator re-dials under a capped binary-exponential backoff
//!    whose jitter is drawn from a seeded [`WlanRng`] — the same
//!    contention discipline the MAC uses on the air, and just as
//!    reproducible: a given seed replays the same reconnect schedule.
//!
//! Env knobs ([`ADDR_ENV`], [`HEARTBEAT_MS_ENV`], [`CONNECT_RETRIES_ENV`])
//! follow the `WLAN_OBS` convention: garbage warns once on stderr and
//! falls back to the default, never panics.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use wlan_math::rng::{Rng, WlanRng};

use crate::catalog::catalog_digest;
use crate::proto::{encode_frame, read_frame, ProtoError};
use crate::worker::{serve, ServeEnd};

/// Version of the connection-layer handshake + message protocol. Bump
/// whenever a frame's meaning changes incompatibly.
pub const PROTO_VERSION: u64 = 1;

/// How long either side waits for the peer's half of the handshake
/// before declaring the connection dead. Generous: a handshake is two
/// small frames, so 5 s only ever matters against a hung peer.
pub const HANDSHAKE_TIMEOUT_MS: u64 = 5_000;

/// Environment knob: `host:port` the campaign service listens on and
/// workers dial.
pub const ADDR_ENV: &str = "WLAN_DIST_ADDR";
/// Environment knob: coordinator heartbeat interval in milliseconds.
pub const HEARTBEAT_MS_ENV: &str = "WLAN_DIST_HEARTBEAT_MS";
/// Environment knob: consecutive connect failures a TCP worker absorbs
/// before giving up.
pub const CONNECT_RETRIES_ENV: &str = "WLAN_DIST_CONNECT_RETRIES";

/// Default listen/dial address (loopback; multi-machine fleets set
/// [`ADDR_ENV`]).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7690";
/// Default heartbeat interval.
pub const DEFAULT_HEARTBEAT_MS: u64 = 500;
/// Default connect-retry budget.
pub const DEFAULT_CONNECT_RETRIES: u32 = 5;

/// What a connection wants to be once handshaken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Runs leases (the fleet).
    Worker,
    /// Sends control frames (shutdown).
    Control,
    /// Receives the service's JSONL event stream.
    Events,
}

impl Role {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Role::Worker => "worker",
            Role::Control => "control",
            Role::Events => "events",
        }
    }

    /// Inverse of [`Role::as_str`].
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "worker" => Some(Role::Worker),
            "control" => Some(Role::Control),
            "events" => Some(Role::Events),
            _ => None,
        }
    }
}

/// Formats a handshake identity (the parser reads the same `key=value`
/// tokens the `connect` frame uses).
fn identity_of(version: u64, digest: u64) -> String {
    format!("v={version} catalog={digest:016x}")
}

/// This binary's handshake identity: protocol version + catalog digest.
pub fn identity() -> String {
    identity_of(PROTO_VERSION, catalog_digest())
}

/// Encodes the client side's opening handshake frame.
pub fn encode_connect(version: u64, digest: u64, role: Role) -> Vec<u8> {
    encode_frame(
        format!(
            "connect v={version} catalog={digest:016x} role={}",
            role.as_str()
        )
        .as_bytes(),
    )
}

fn hex_field<'a>(tokens: &[&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn parse_connect(payload: &[u8]) -> Option<(u64, u64, Role)> {
    let text = std::str::from_utf8(payload).ok()?;
    let tokens: Vec<&str> = text.split_ascii_whitespace().collect();
    if tokens.first() != Some(&"connect") {
        return None;
    }
    let version = hex_field(&tokens, "v")?.parse::<u64>().ok()?;
    let digest = u64::from_str_radix(hex_field(&tokens, "catalog")?, 16).ok()?;
    let role = Role::parse(hex_field(&tokens, "role")?)?;
    Some((version, digest, role))
}

/// Interprets the server's reply to a `connect` frame: `Ok(())` on a
/// matching `accept`, [`ProtoError::Incompatible`] on a `reject` or an
/// `accept` whose identity differs from ours, [`ProtoError::Malformed`]
/// on anything else.
pub fn parse_handshake_reply(payload: &[u8]) -> Result<(), ProtoError> {
    let Ok(text) = std::str::from_utf8(payload) else {
        return Err(ProtoError::Malformed);
    };
    let tokens: Vec<&str> = text.split_ascii_whitespace().collect();
    let verdict = tokens.first().copied().unwrap_or_default();
    if verdict != "accept" && verdict != "reject" {
        return Err(ProtoError::Malformed);
    }
    let theirs = match (
        hex_field(&tokens, "v").and_then(|v| v.parse::<u64>().ok()),
        hex_field(&tokens, "catalog").and_then(|d| u64::from_str_radix(d, 16).ok()),
    ) {
        (Some(v), Some(d)) => identity_of(v, d),
        _ => return Err(ProtoError::Malformed),
    };
    if verdict == "accept" && theirs == identity() {
        Ok(())
    } else {
        Err(ProtoError::Incompatible {
            ours: identity(),
            theirs,
        })
    }
}

fn io_err(e: &std::io::Error) -> ProtoError {
    ProtoError::Io(e.kind())
}

/// A connected, handshaken worker-side TCP connection: the buffered
/// reader half (any bytes the handshake over-read stay buffered here —
/// never rebuild it from the raw stream) and the writer half.
#[derive(Debug)]
pub struct WorkerConn {
    /// Coordinator → worker frames.
    pub reader: BufReader<TcpStream>,
    /// Worker → coordinator frames.
    pub writer: TcpStream,
}

/// Tuning for a TCP worker's dial/serve/re-dial loop.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// Consecutive connect failures tolerated before giving up. The
    /// counter resets on every successful connect, so a long-lived
    /// worker survives any number of *transient* outages.
    pub retries: u32,
    /// Backoff window for the first retry, in milliseconds; doubles per
    /// consecutive failure (DCF-style) up to `backoff_cap_ms`.
    pub backoff_ms: u64,
    /// Upper bound on the backoff window.
    pub backoff_cap_ms: u64,
    /// Read deadline once serving, in milliseconds (0 = none). The
    /// coordinator pings idle workers every heartbeat, so a read that
    /// outlasts this means the coordinator is gone, not merely quiet.
    pub read_timeout_ms: u64,
    /// Seeds the backoff jitter (reproducible reconnect schedules).
    pub seed: u64,
    /// Re-dial after a served session disconnects. `false` makes the
    /// worker one-shot: serve once, then return.
    pub reconnect: bool,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        Self {
            retries: DEFAULT_CONNECT_RETRIES,
            backoff_ms: 100,
            backoff_cap_ms: 3_200,
            read_timeout_ms: 30_000,
            seed: 0x57_4c_41_4e, // "WLAN"
            reconnect: true,
        }
    }
}

impl WorkerOpts {
    /// Defaults with the retry budget read from [`CONNECT_RETRIES_ENV`].
    pub fn from_env() -> Self {
        Self {
            retries: connect_retries_from_env(),
            ..Self::default()
        }
    }
}

/// The wait before reconnect attempt `attempt` (1-based): a DCF-style
/// contention window that doubles per consecutive failure up to the
/// cap, with the actual wait drawn as `cw/2 + uniform[0, cw/2)` from a
/// fork addressed by the attempt number — a deterministic floor so
/// retries never hammer, plus seeded jitter so a rebooted fleet's
/// workers don't re-dial in lockstep (the thundering-herd analogue of
/// synchronized slot counters).
pub fn reconnect_backoff(opts: &WorkerOpts, attempt: u32) -> Duration {
    const BACKOFF_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
    let doublings = attempt.saturating_sub(1).min(16);
    let cw = opts
        .backoff_ms
        .saturating_mul(1u64 << doublings)
        .min(opts.backoff_cap_ms.max(1))
        .max(1);
    let mut rng = WlanRng::seed_from_u64(opts.seed ^ BACKOFF_SALT).fork(u64::from(attempt));
    let jitter = (rng.next_f64() * (cw as f64 / 2.0)) as u64;
    Duration::from_millis(cw / 2 + jitter)
}

fn handshake_deadline(stream: &TcpStream) -> Result<(), ProtoError> {
    stream
        .set_read_timeout(Some(Duration::from_millis(HANDSHAKE_TIMEOUT_MS)))
        .map_err(|e| io_err(&e))
}

/// Dials `addr`, handshakes as `role`, and returns the connected halves.
/// `Err(Incompatible)` when the peer speaks a different protocol or
/// catalog; other errors are transient (retryable).
pub fn connect_role(addr: &str, role: Role, opts: &WorkerOpts) -> Result<WorkerConn, ProtoError> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err(&e))?;
    let _ = stream.set_nodelay(true);
    handshake_deadline(&stream)?;
    let mut writer = stream.try_clone().map_err(|e| io_err(&e))?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(&encode_connect(PROTO_VERSION, catalog_digest(), role))
        .and_then(|()| writer.flush())
        .map_err(|e| io_err(&e))?;
    let Some(reply) = read_frame(&mut reader)? else {
        // The acceptor hung up without answering — transient.
        return Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof));
    };
    parse_handshake_reply(&reply)?;
    let timeout = (opts.read_timeout_ms > 0).then(|| Duration::from_millis(opts.read_timeout_ms));
    let _ = reader.get_ref().set_read_timeout(timeout);
    Ok(WorkerConn { reader, writer })
}

/// [`connect_role`] as a worker.
pub fn connect_worker(addr: &str, opts: &WorkerOpts) -> Result<WorkerConn, ProtoError> {
    connect_role(addr, Role::Worker, opts)
}

/// Accept-side handshake: reads the peer's `connect` frame, answers
/// `accept` or `reject`, and returns the peer's role plus the stream
/// halves. The returned [`BufReader`] holds any bytes read past the
/// handshake frame — callers must keep using it, never re-wrap the raw
/// stream (a control client may pipeline its shutdown frame right
/// behind `connect`).
pub fn server_handshake(
    stream: TcpStream,
) -> Result<(Role, BufReader<TcpStream>, TcpStream), ProtoError> {
    let _ = stream.set_nodelay(true);
    handshake_deadline(&stream)?;
    let mut writer = stream.try_clone().map_err(|e| io_err(&e))?;
    let mut reader = BufReader::new(stream);
    let Some(payload) = read_frame(&mut reader)? else {
        return Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof));
    };
    match parse_connect(&payload) {
        Some((v, d, role)) if v == PROTO_VERSION && d == catalog_digest() => {
            writer
                .write_all(&encode_frame(
                    format!("accept {}", identity()).as_bytes(),
                ))
                .and_then(|()| writer.flush())
                .map_err(|e| io_err(&e))?;
            let _ = reader.get_ref().set_read_timeout(None);
            Ok((role, reader, writer))
        }
        Some((v, d, _)) => {
            let _ = writer.write_all(&encode_frame(
                format!("reject {}", identity()).as_bytes(),
            ));
            let _ = writer.flush();
            Err(ProtoError::Incompatible {
                ours: identity(),
                theirs: identity_of(v, d),
            })
        }
        None => Err(ProtoError::Malformed),
    }
}

/// Runs a TCP worker against `addr`: dial (with handshake), serve
/// leases, and on disconnect re-dial under [`reconnect_backoff`] — for
/// as long as consecutive failures stay within `opts.retries`.
///
/// Returns the number of served sessions. An orderly [`Msg::Shutdown`]
/// (fleet teardown) ends the loop immediately;
/// [`ProtoError::Incompatible`] is terminal and returned as `Err`; a
/// worker that exhausts its retry budget without ever serving returns
/// the last connect error.
///
/// [`Msg::Shutdown`]: crate::proto::Msg::Shutdown
pub fn run_tcp_worker(addr: &str, opts: &WorkerOpts) -> Result<u64, ProtoError> {
    let mut sessions: u64 = 0;
    let mut failures: u32 = 0;
    loop {
        match connect_worker(addr, opts) {
            Ok(conn) => {
                failures = 0;
                sessions += 1;
                let end = serve(conn.reader, conn.writer);
                if end == ServeEnd::Shutdown || !opts.reconnect {
                    return Ok(sessions);
                }
            }
            Err(e @ ProtoError::Incompatible { .. }) => return Err(e),
            Err(e) => {
                failures += 1;
                if failures > opts.retries {
                    return if sessions > 0 { Ok(sessions) } else { Err(e) };
                }
                std::thread::sleep(reconnect_backoff(opts, failures));
            }
        }
    }
}

// --- env knobs (the WLAN_OBS convention: parse pure, warn once, never
// panic) ---------------------------------------------------------------

/// Parses [`ADDR_ENV`]: unset means [`DEFAULT_ADDR`]; anything that is
/// not `host:port` with a valid port is an error carrying the warning
/// text.
pub fn parse_dist_addr(raw: Option<&str>) -> Result<String, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_ADDR.to_owned());
    };
    let s = raw.trim();
    let valid = s
        .rsplit_once(':')
        .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
    if valid {
        Ok(s.to_owned())
    } else {
        Err(format!(
            "ignoring invalid {ADDR_ENV}={raw:?} (want host:port); using {DEFAULT_ADDR}"
        ))
    }
}

/// Parses [`HEARTBEAT_MS_ENV`]: unset means [`DEFAULT_HEARTBEAT_MS`];
/// zero or garbage is an error carrying the warning text.
pub fn parse_heartbeat_ms(raw: Option<&str>) -> Result<u64, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_HEARTBEAT_MS);
    };
    match raw.trim().parse::<u64>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(format!(
            "ignoring invalid {HEARTBEAT_MS_ENV}={raw:?} (want a positive integer); \
             using {DEFAULT_HEARTBEAT_MS}"
        )),
    }
}

/// Parses [`CONNECT_RETRIES_ENV`]: unset means
/// [`DEFAULT_CONNECT_RETRIES`]; garbage is an error carrying the
/// warning text. Zero is *valid* (a one-shot worker that never
/// retries).
pub fn parse_connect_retries(raw: Option<&str>) -> Result<u32, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_CONNECT_RETRIES);
    };
    match raw.trim().parse::<u32>() {
        Ok(v) => Ok(v),
        Err(_) => Err(format!(
            "ignoring invalid {CONNECT_RETRIES_ENV}={raw:?} (want a non-negative integer); \
             using {DEFAULT_CONNECT_RETRIES}"
        )),
    }
}

static WARNED_ADDR: AtomicBool = AtomicBool::new(false);
static WARNED_HEARTBEAT: AtomicBool = AtomicBool::new(false);
static WARNED_RETRIES: AtomicBool = AtomicBool::new(false);

fn env_or_default<T>(
    name: &str,
    warned: &AtomicBool,
    parse: impl Fn(Option<&str>) -> Result<T, String>,
    default: T,
) -> T {
    let raw = std::env::var(name).ok();
    match parse(raw.as_deref()) {
        Ok(v) => v,
        Err(msg) => {
            if !warned.swap(true, Ordering::Relaxed) {
                eprintln!("wlan-dist: {msg}");
            }
            default
        }
    }
}

/// [`ADDR_ENV`] with the warn-once fallback applied.
pub fn dist_addr_from_env() -> String {
    env_or_default(
        ADDR_ENV,
        &WARNED_ADDR,
        parse_dist_addr,
        DEFAULT_ADDR.to_owned(),
    )
}

/// [`HEARTBEAT_MS_ENV`] with the warn-once fallback applied.
pub fn heartbeat_ms_from_env() -> u64 {
    env_or_default(
        HEARTBEAT_MS_ENV,
        &WARNED_HEARTBEAT,
        parse_heartbeat_ms,
        DEFAULT_HEARTBEAT_MS,
    )
}

/// [`CONNECT_RETRIES_ENV`] with the warn-once fallback applied.
pub fn connect_retries_from_env() -> u32 {
    env_or_default(
        CONNECT_RETRIES_ENV,
        &WARNED_RETRIES,
        parse_connect_retries,
        DEFAULT_CONNECT_RETRIES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_payloads_round_trip() {
        let frame = encode_connect(PROTO_VERSION, catalog_digest(), Role::Worker);
        let payload = crate::proto::decode_frame(frame.strip_suffix(b"\n").unwrap()).unwrap();
        assert_eq!(
            parse_connect(&payload),
            Some((PROTO_VERSION, catalog_digest(), Role::Worker))
        );
        for role in [Role::Worker, Role::Control, Role::Events] {
            assert_eq!(Role::parse(role.as_str()), Some(role));
        }
    }

    #[test]
    fn handshake_reply_accepts_only_our_identity() {
        let ok = format!("accept {}", identity());
        assert_eq!(parse_handshake_reply(ok.as_bytes()), Ok(()));

        let stale = format!("accept v={} catalog={:016x}", PROTO_VERSION + 1, 7u64);
        let Err(ProtoError::Incompatible { ours, theirs }) =
            parse_handshake_reply(stale.as_bytes())
        else {
            panic!("version skew must be Incompatible");
        };
        assert_eq!(ours, identity());
        assert!(theirs.starts_with(&format!("v={}", PROTO_VERSION + 1)));

        let reject = format!("reject {}", identity());
        assert!(matches!(
            parse_handshake_reply(reject.as_bytes()),
            Err(ProtoError::Incompatible { .. })
        ));
        assert_eq!(
            parse_handshake_reply(b"what even is this"),
            Err(ProtoError::Malformed)
        );
        assert_eq!(parse_handshake_reply(b"accept"), Err(ProtoError::Malformed));
    }

    #[test]
    fn connect_parser_rejects_garbage() {
        assert_eq!(parse_connect(b""), None);
        assert_eq!(parse_connect(b"connect"), None);
        assert_eq!(parse_connect(b"connect v=x catalog=00 role=worker"), None);
        assert_eq!(
            parse_connect(b"connect v=1 catalog=zz role=worker"),
            None
        );
        assert_eq!(
            parse_connect(b"connect v=1 catalog=0123456789abcdef role=manager"),
            None
        );
        assert_eq!(parse_connect(&[0xff, 0xfe, b'\n']), None);
    }

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let opts = WorkerOpts {
            backoff_ms: 100,
            backoff_cap_ms: 800,
            seed: 9,
            ..WorkerOpts::default()
        };
        for attempt in 1..=12u32 {
            let a = reconnect_backoff(&opts, attempt);
            let b = reconnect_backoff(&opts, attempt);
            assert_eq!(a, b, "attempt {attempt} must replay identically");
            let cw = (100u64 << (attempt - 1).min(16)).min(800);
            let ms = a.as_millis() as u64;
            assert!(
                ms >= cw / 2 && ms < cw + 1,
                "attempt {attempt}: {ms}ms outside [{}, {cw}]",
                cw / 2
            );
        }
        // The window saturates at the cap.
        assert!(reconnect_backoff(&opts, 30).as_millis() as u64 <= 800);
        // Different seeds give different jitter somewhere in the schedule.
        let other = WorkerOpts { seed: 10, ..opts };
        assert!(
            (1..=12).any(|n| reconnect_backoff(&opts, n) != reconnect_backoff(&other, n)),
            "jitter must depend on the seed"
        );
    }

    #[test]
    fn env_knobs_parse_like_wlan_obs() {
        // Unset → defaults.
        assert_eq!(parse_dist_addr(None), Ok(DEFAULT_ADDR.to_owned()));
        assert_eq!(parse_heartbeat_ms(None), Ok(DEFAULT_HEARTBEAT_MS));
        assert_eq!(parse_connect_retries(None), Ok(DEFAULT_CONNECT_RETRIES));

        // Valid values, surrounding whitespace tolerated.
        assert_eq!(
            parse_dist_addr(Some(" 10.0.0.7:9000 ")),
            Ok("10.0.0.7:9000".to_owned())
        );
        assert_eq!(parse_heartbeat_ms(Some("250")), Ok(250));
        assert_eq!(parse_connect_retries(Some("0")), Ok(0));

        // Garbage → Err carrying a warning that names the knob.
        for bad in ["", "localhost", "host:", "host:notaport", "host:99999"] {
            let err = parse_dist_addr(Some(bad)).unwrap_err();
            assert!(err.contains(ADDR_ENV), "{err}");
        }
        for bad in ["", "0", "-4", "fast", "1.5"] {
            let err = parse_heartbeat_ms(Some(bad)).unwrap_err();
            assert!(err.contains(HEARTBEAT_MS_ENV), "{err}");
        }
        for bad in ["", "-1", "many", "2.0"] {
            let err = parse_connect_retries(Some(bad)).unwrap_err();
            assert!(err.contains(CONNECT_RETRIES_ENV), "{err}");
        }
    }

    #[test]
    fn tcp_handshake_end_to_end_over_localhost() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            server_handshake(stream)
        });
        let conn = connect_worker(&addr, &WorkerOpts::default()).expect("handshake must succeed");
        let (role, _r, _w) = server.join().unwrap().expect("server side must accept");
        assert_eq!(role, Role::Worker);
        drop(conn);
    }

    #[test]
    fn tcp_handshake_mismatch_is_typed_and_bounded() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            server_handshake(stream)
        });
        // A peer from the future: wrong protocol version.
        let started = std::time::Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&encode_connect(PROTO_VERSION + 1, catalog_digest(), Role::Worker))
            .unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = read_frame(&mut reader).unwrap().expect("reject frame");
        assert!(matches!(
            parse_handshake_reply(&reply),
            Err(ProtoError::Incompatible { .. })
        ));
        let server_err = server.join().unwrap().unwrap_err();
        assert!(matches!(server_err, ProtoError::Incompatible { .. }));
        assert!(
            started.elapsed() < Duration::from_millis(HANDSHAKE_TIMEOUT_MS),
            "mismatch must resolve fast, not hang"
        );
    }

    #[test]
    fn silent_acceptor_times_out_with_typed_error() {
        // An acceptor that never answers the handshake: the client's
        // read deadline must convert the hang into a typed Io error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let _keep = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Hold the socket open, never reply.
            std::thread::sleep(Duration::from_millis(HANDSHAKE_TIMEOUT_MS + 2_000));
            drop(stream);
        });
        let started = std::time::Instant::now();
        let err = connect_worker(&addr, &WorkerOpts::default()).unwrap_err();
        assert!(matches!(err, ProtoError::Io(_)), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_millis(HANDSHAKE_TIMEOUT_MS + 1_500),
            "handshake hang must be bounded by the deadline"
        );
    }
}
