//! The observability layer must be a pure observer: switching the
//! recorder on or off cannot change a single bit of any simulated
//! result, at any thread count.
//!
//! This is the workspace's determinism guarantee (DESIGN.md
//! "Observability"): counters and span timers read the wall clock but
//! never feed it back into simulation decisions, so an instrumented
//! E4-style sweep and an uninstrumented one are the same computation.
//! ci.sh additionally checks this at process level by diffing a
//! `WLAN_OBS=0` smoke campaign against the obs-on expected output.

use std::sync::Mutex;

use wlan_core::fault::{FaultChain, FaultKind};
use wlan_core::linksim::OfdmLink;
use wlan_core::ofdm::OfdmRate;
use wlan_runner::budget::Budget;
use wlan_runner::per::{run_per_campaign, PerCampaignConfig, PointProgress};

/// Both tests toggle the process-global recorder; serialise them so the
/// default parallel test runner cannot interleave the toggles.
static OBS_GATE: Mutex<()> = Mutex::new(());

const SNRS: [f64; 5] = [0.0, 3.0, 6.0, 9.0, 12.0];

fn e4_style_sweep(threads: Option<usize>) -> Vec<PointProgress> {
    let link = OfdmLink::awgn(OfdmRate::R12);
    let chain = FaultKind::FrameTruncation.chain(0.3);
    let mut cfg = PerCampaignConfig::new(&SNRS, 100, 96, 2026)
        .with_budget(Budget::unlimited())
        .with_target_half_width(0.06);
    cfg.threads = threads;
    let report = run_per_campaign(&link, &chain, &cfg);
    assert!(report.outcome.is_complete());
    report.points
}

/// Drives the same sweep with the global recorder disabled and enabled
/// and requires bit-identical reports — tallies, statuses, and CI
/// bounds — at pinned serial threading and at the `WLAN_THREADS`
/// default.
#[test]
fn e4_sweep_is_bit_identical_with_obs_off_and_on() {
    let _gate = OBS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let obs = wlan_obs::global();
    for threads in [Some(1), None] {
        obs.set_enabled(false);
        let off = e4_style_sweep(threads);
        obs.set_enabled(true);
        let on = e4_style_sweep(threads);
        obs.set_enabled(false);

        assert_eq!(off, on, "threads={threads:?}: obs must not perturb tallies");
        for (a, b) in off.iter().zip(&on) {
            let (ca, cb) = (a.ci().expect("ci"), b.ci().expect("ci"));
            assert_eq!(
                ca.lo.to_bits(),
                cb.lo.to_bits(),
                "threads={threads:?}: CI lower bound must be bit-identical"
            );
            assert_eq!(
                ca.hi.to_bits(),
                cb.hi.to_bits(),
                "threads={threads:?}: CI upper bound must be bit-identical"
            );
        }

        // The instrumented run really did record something — otherwise
        // this test would pass vacuously with a broken recorder.
        let snap = obs.snapshot();
        let frames = snap
            .counters
            .iter()
            .find(|(k, _)| k == "linksim.frames")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        assert!(frames > 0, "instrumented sweep must count frames");
    }
}

/// A fault chain is part of the simulation, not the observer: the
/// erasure tallies the instrumented run records must equal the ones the
/// report itself carries (the counters are derived from, never fed back
/// into, the sweep).
#[test]
fn instrumented_counters_agree_with_the_report() {
    let _gate = OBS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let link = OfdmLink::awgn(OfdmRate::R12);
    let chain = FaultChain::clean();
    let cfg = PerCampaignConfig::new(&[6.0], 100, 64, 7).with_budget(Budget::unlimited());

    let obs = wlan_obs::global();
    obs.set_enabled(true);
    let before = counter_value("linksim.frames");
    let report = run_per_campaign(&link, &chain, &cfg);
    let after = counter_value("linksim.frames");
    obs.set_enabled(false);

    assert!(
        after - before >= report.completed_trials(),
        "frame counter ({}) must cover the campaign's trials ({})",
        after - before,
        report.completed_trials()
    );
}

fn counter_value(name: &str) -> u64 {
    wlan_obs::global()
        .snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

fn span_count(name: &str) -> u64 {
    wlan_obs::global().histogram(name).snapshot().count
}

/// Stage-span accounting contract: the `linksim.tx` / `linksim.channel` /
/// `linksim.rx` histograms record **exactly one span per frame per
/// stage** — never one per batch, and never two when trials are batched
/// (`FRAMES_PER_BATCH` in linksim): each `frame_trial_faulted` call wraps
/// each chain segment once.
#[test]
fn stage_spans_record_once_per_frame() {
    let _gate = OBS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let link = OfdmLink::awgn(OfdmRate::R12);
    let chain = FaultChain::clean();
    // 2 points × 20 frames spans several 8-frame batches.
    let (points, frames) = (2u64, 20u64);
    let obs = wlan_obs::global();
    obs.set_enabled(true);

    let stages = ["linksim.tx", "linksim.channel", "linksim.rx"];
    let before: Vec<u64> = stages.iter().map(|s| span_count(s)).collect();
    wlan_core::linksim::sweep_per_faulted(&link, &chain, &[6.0, 12.0], 48, frames as usize, 404);
    for (stage, was) in stages.iter().zip(&before) {
        assert_eq!(
            span_count(stage) - was,
            points * frames,
            "{stage} must record one span per frame"
        );
    }
    obs.set_enabled(false);
}

/// The sweep's trial counters match its report exactly: one
/// `linksim.frames` bump per frame, one `frame_errors` per failed frame,
/// one `erasures` per typed erasure — no double counting under batching.
#[test]
fn trial_counters_match_the_sweep_report() {
    let _gate = OBS_GATE.lock().unwrap_or_else(|p| p.into_inner());
    let link = OfdmLink::awgn(OfdmRate::R12);
    let chain = FaultKind::FrameTruncation.chain(0.8);
    let obs = wlan_obs::global();
    obs.set_enabled(true);
    let (f0, e0, r0) = (
        counter_value("linksim.frames"),
        counter_value("linksim.frame_errors"),
        counter_value("linksim.erasures"),
    );
    let frames = 25usize;
    let sweep =
        wlan_core::linksim::sweep_per_faulted(&link, &chain, &[4.0, 10.0], 48, frames, 2027);
    let (f1, e1, r1) = (
        counter_value("linksim.frames"),
        counter_value("linksim.frame_errors"),
        counter_value("linksim.erasures"),
    );
    obs.set_enabled(false);

    let errors: f64 = sweep.points.iter().map(|p| p.per * frames as f64).sum();
    let erasures: f64 = sweep
        .points
        .iter()
        .map(|p| p.erasure_rate * frames as f64)
        .sum();
    assert_eq!(f1 - f0, (2 * frames) as u64, "one frames bump per trial");
    assert_eq!(e1 - e0, errors.round() as u64, "one error bump per failed trial");
    assert_eq!(r1 - r0, erasures.round() as u64, "one erasure bump per typed erasure");
}
