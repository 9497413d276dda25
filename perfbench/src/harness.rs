//! The closed loop shared by every workload: repeated set-up, a
//! timed loop of passes over the workload body for `--seconds`, result
//! checks, and the two output lines.

use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

use wlan_obs::json::Value;

use crate::layers::{self, Layers};
use crate::stats::{median, tail_value};
use crate::{city, dist_tcp, fault_campaign, link_sweep};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["link-sweep", "fault-campaign", "city", "dist-tcp"];

/// The seed whose result digests are pinned in the workloads' golden
/// values. Other seeds are checked for self-consistency and against
/// independent paths only.
pub const GOLDEN_SEED: u64 = 1;

/// Set-up runs before the first pass; `setup_s` is the median over
/// these and the re-runs between passes.
const SETUP_REPS: usize = 3;

/// Problem size: the benchmark proper, or a tiny smoke of the same code
/// paths for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub revision: String,
    pub size: Size,
}

/// Worker threads each workload runs with (the host has two cores).
/// `fault-campaign` runs on one: each of its waves hands the pool only
/// two or three frames, so at two threads its wall is mostly the wait
/// at each join and follows the host's scheduling, not the program.
pub fn threads_for(workload: &str) -> usize {
    if workload == "link-sweep" || workload == "fault-campaign" {
        1
    } else {
        2
    }
}

/// Every `WLAN_*` variable set in the environment, sorted.
pub fn wlan_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("WLAN_"))
        .collect();
    vars.sort();
    vars
}

/// Result checks: every public call and every comparison counts as one
/// attempted operation; an `Err`, a non-complete outcome or a failed
/// comparison counts as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; returns `ok`.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what.to_owned());
            }
            eprintln!("check failed: {what}");
        }
        ok
    }

    /// Records one fallible call; returns its value on success.
    pub fn ok<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(what, true);
                Some(v)
            }
            Err(e) => {
                self.check(&format!("{what}: {e}"), false);
                None
            }
        }
    }
}

/// One timed execution of a workload body.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds for the whole body.
    pub wall_s: f64,
    /// PHY frames simulated by the body.
    pub frames: u64,
    /// Simulated air-time seconds the body covered.
    pub sim_s: f64,
    /// Host seconds of the part of the body that simulated `sim_s`.
    pub sim_host_s: f64,
    /// Digest of every result the body produced; equal across passes.
    pub digest: u64,
    /// Per-layer values measured inside the body, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Whether the obs recorder was on during this pass.
    pub traced: bool,
}

/// Everything a workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub size: Size,
    pub threads: usize,
    /// Scratch directory for journals, inside the working directory.
    pub work_dir: PathBuf,
}

/// A benchmark workload: repeated set-up, a timed body, and what runs
/// after the timed loop (cross-path checks, per-layer extras).
pub trait Workload: Sized {
    /// Builds the inputs and anything the first timed call needs.
    fn setup(ctx: &Ctx, checks: &mut Checks) -> Result<Self, String>;
    /// One timed pass of the body. Checks results as it goes.
    fn pass(&mut self, ctx: &Ctx, checks: &mut Checks) -> Pass;
    /// The pinned digest of a pass at [`GOLDEN_SEED`] and full size.
    fn golden(&self) -> Option<u64>;
    /// Runs after the timed loop: checks against an independent path
    /// (every run) and, when `layers` is given, per-layer extras.
    fn after(
        &mut self,
        ctx: &Ctx,
        checks: &mut Checks,
        passes: &[Pass],
        setup_s: &[f64],
        layers: Option<&mut Layers>,
    );
    /// Releases what set-up acquired (threads, sockets, files).
    fn teardown(self, checks: &mut Checks);
}

/// What a run produced.
pub struct RunResult {
    pub checks: Checks,
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
    pub layers: Layers,
    pub peak_rss_mib: f64,
    pub threads: usize,
}

/// Runs the workload named in `opts`.
pub fn run(opts: &Opts) -> RunResult {
    let threads = threads_for(&opts.workload);
    let ctx = Ctx {
        seed: opts.seed,
        size: opts.size,
        threads,
        work_dir: work_dir(&opts.workload),
    };
    match opts.workload.as_str() {
        "link-sweep" => drive::<link_sweep::LinkSweep>(opts, &ctx),
        "fault-campaign" => drive::<fault_campaign::FaultCampaign>(opts, &ctx),
        "city" => drive::<city::CityWorkload>(opts, &ctx),
        _ => drive::<dist_tcp::DistTcp>(opts, &ctx),
    }
}

/// A per-process scratch directory under the working directory.
fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from("perfbench-work").join(format!("{workload}-{}", std::process::id()))
}

fn drive<W: Workload>(opts: &Opts, ctx: &Ctx) -> RunResult {
    let obs = wlan_obs::global();
    obs.set_enabled(false);
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let empty = |checks, setup_s| RunResult {
        checks,
        setup_s,
        passes: Vec::new(),
        layers: Layers::new(),
        peak_rss_mib: peak_rss_mib(),
        threads: ctx.threads,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        checks.check(&format!("create {}: {e}", ctx.work_dir.display()), false);
        return empty(checks, Vec::new());
    }

    // Set-up runs a few times up front and again before every later pass,
    // so its samples span the same window as the passes.
    let mut setup_s = Vec::new();
    let mut workload: Option<W> = None;
    let rebuild = |workload: &mut Option<W>, checks: &mut Checks, setup_s: &mut Vec<f64>| {
        if let Some(previous) = workload.take() {
            previous.teardown(checks);
        }
        let started = Instant::now();
        let built = W::setup(ctx, checks);
        setup_s.push(started.elapsed().as_secs_f64());
        match built {
            Ok(w) => {
                *workload = Some(w);
                true
            }
            Err(e) => checks.check(&format!("set-up: {e}"), false),
        }
    };
    for _ in 0..SETUP_REPS {
        if !rebuild(&mut workload, &mut checks, &mut setup_s) {
            remove_work_dir(ctx);
            return empty(checks, setup_s);
        }
    }

    // Closed loop: the next pass starts when the previous one returns.
    // A traced run alternates recorder-off and recorder-on passes, so
    // per-layer metrics come from the traced passes and the obs overhead
    // from the two halves measured in the same window.
    let before = obs.snapshot();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while let Some(w) = workload.as_mut() {
        let traced = opts.trace && passes.len() % 2 == 1;
        obs.set_enabled(traced);
        let mut pass = w.pass(ctx, &mut checks);
        obs.set_enabled(false);
        pass.traced = traced;
        passes.push(pass);
        let both_halves = !opts.trace || passes.len() >= 2;
        if both_halves && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        rebuild(&mut workload, &mut checks, &mut setup_s);
    }
    let Some(mut workload) = workload else {
        remove_work_dir(ctx);
        return RunResult {
            passes,
            ..empty(checks, setup_s)
        };
    };
    let after = obs.snapshot();

    let first = passes[0].digest;
    checks.check(
        "every pass reproduces the first pass's results",
        passes.iter().all(|p| p.digest == first),
    );
    if opts.seed == GOLDEN_SEED && ctx.size == Size::Full {
        if let Some(golden) = workload.golden() {
            checks.check(
                &format!("golden digest {golden:#018x} (got {first:#018x})"),
                first == golden,
            );
        }
    }

    if opts.trace {
        layers::from_passes(&mut layers, &passes, &before, &after, ctx.threads);
        workload.after(ctx, &mut checks, &passes, &setup_s, Some(&mut layers));
        layers::kernels(&mut layers);
    } else {
        workload.after(ctx, &mut checks, &passes, &setup_s, None);
    }
    workload.teardown(&mut checks);
    remove_work_dir(ctx);
    RunResult {
        checks,
        setup_s,
        passes,
        layers,
        peak_rss_mib: peak_rss_mib(),
        threads: ctx.threads,
    }
}

/// Removes this run's scratch directory, and its parent once no other
/// run is using it.
fn remove_work_dir(ctx: &Ctx) {
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if let Some(parent) = ctx.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// VmHWM of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn untraced(result: &RunResult) -> impl Iterator<Item = &Pass> {
    result.passes.iter().filter(|p| !p.traced)
}

/// The end-to-end metrics, in the order `BENCHMARK.json` declares them,
/// with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("sim_rate", "s/s"),
    ("peak_rss_mib", "MiB"),
];

/// The values of [`END_TO_END`], from the recorder-off passes.
pub fn end_to_end(result: &RunResult) -> [f64; 5] {
    let walls: Vec<f64> = untraced(result).map(|p| p.wall_s).collect();
    let fps: Vec<f64> = untraced(result)
        .map(|p| p.frames as f64 / p.wall_s)
        .collect();
    let sim: Vec<f64> = untraced(result)
        .filter(|p| p.sim_host_s > 0.0)
        .map(|p| p.sim_s / p.sim_host_s)
        .collect();
    [
        median(&walls).unwrap_or(0.0),
        median(&result.setup_s).unwrap_or(0.0),
        median(&fps).unwrap_or(0.0),
        median(&sim).unwrap_or(0.0),
        result.peak_rss_mib,
    ]
}

/// The contract's last line: `{correct, attempted, failed, metrics}`.
pub fn result_line(opts: &Opts, result: &RunResult) -> Value {
    let metric = |value: f64, unit: &str| {
        Value::Obj(vec![
            ("value".into(), Value::F64(value)),
            ("unit".into(), Value::Str(unit.into())),
        ])
    };
    let metrics: Vec<(String, Value)> = if opts.trace {
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_owned(), metric(result.layers.get(name), unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(result))
            .map(|(&(name, unit), v)| (name.to_owned(), metric(v, unit)))
            .collect()
    };
    let c = &result.checks;
    Value::Obj(vec![
        ("correct".into(), Value::Bool(c.failed == 0)),
        ("attempted".into(), Value::U64(c.attempted.max(1))),
        ("failed".into(), Value::U64(c.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

/// Provenance and per-run detail: the line before the result.
pub fn detail_line(opts: &Opts, env: &[(String, String)], result: &RunResult) -> Value {
    let walls: Vec<f64> = untraced(result).map(|p| p.wall_s).collect();
    let tail = match tail_value(&walls) {
        Some((p, v)) => Value::Obj(vec![
            ("percentile".into(), Value::F64(p)),
            ("wall_s".into(), Value::F64(v)),
        ]),
        None => Value::Null,
    };
    let c = &result.checks;
    Value::Obj(vec![
        (
            "provenance".into(),
            Value::Obj(vec![
                ("revision".into(), Value::Str(opts.revision.clone())),
                (
                    "nproc".into(),
                    Value::U64(wlan_math::par::available_parallelism() as u64),
                ),
                ("threads".into(), Value::U64(result.threads as u64)),
                (
                    "wlan_env".into(),
                    Value::Obj(
                        env.iter()
                            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ),
                ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
                ("workload".into(), Value::Str(opts.workload.clone())),
                ("seed".into(), Value::U64(opts.seed)),
                ("seconds".into(), Value::F64(opts.seconds)),
                ("trace".into(), Value::Bool(opts.trace)),
            ]),
        ),
        (
            "detail".into(),
            Value::Obj(vec![
                ("passes".into(), Value::U64(result.passes.len() as u64)),
                (
                    "pass_wall_s".into(),
                    Value::Arr(result.passes.iter().map(|p| Value::F64(p.wall_s)).collect()),
                ),
                ("timed_samples".into(), Value::U64(walls.len() as u64)),
                ("wall_s_tail".into(), tail),
                ("setup_reps".into(), Value::U64(result.setup_s.len() as u64)),
                (
                    "digest".into(),
                    Value::Str(
                        result
                            .passes
                            .first()
                            .map_or_else(String::new, |p| format!("{:#018x}", p.digest)),
                    ),
                ),
                (
                    "error_rate".into(),
                    Value::F64(c.failed as f64 / c.attempted.max(1) as f64),
                ),
                (
                    "failures".into(),
                    Value::Arr(c.failures.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
            ]),
        ),
    ])
}
