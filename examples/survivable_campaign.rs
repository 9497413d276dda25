//! Kill-and-resume demonstrator for the ci.sh smoke test.
//!
//! Runs a single-process PER campaign with a checkpoint journal and
//! prints the final result table to stdout; progress chatter goes to
//! stderr. The campaign is deliberately sized so a `SIGKILL` a fraction
//! of a second in lands mid-flight; rerunning with the same journal path
//! resumes from the last checkpoint and must produce *byte-identical
//! stdout* to a run that was never interrupted — that `diff` is exactly
//! what `ci.sh` performs. (The same campaign sharded over TCP workers is
//! `campaign_serve`.)
//!
//! Usage:
//!   survivable_campaign <journal-path>

use std::io::Write;

use wlan_core::fault::FaultChain;
use wlan_core::linksim::OfdmLink;
use wlan_core::ofdm::OfdmRate;
use wlan_runner::per::{run_per_campaign, PerCampaignConfig, PointProgress};
use wlan_runner::{Outcome, Resume};

fn usage() -> ! {
    eprintln!("usage: survivable_campaign <journal-path>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [journal] = args.as_slice() else { usage() };
    if journal.starts_with("--") {
        usage();
    }

    // The R12 waterfall region: PER mid-range, so the Wilson interval is
    // at its widest and the 0.02 target needs a few thousand frames per
    // point — enough work that a SIGKILL lands mid-campaign.
    let snrs: Vec<f64> = (0..6).map(|i| 1.0 + i as f64).collect();
    let cfg = PerCampaignConfig::new(&snrs, 150, 4096, 77)
        .with_journal(journal.into())
        .with_target_half_width(0.02);

    let link = OfdmLink::awgn(OfdmRate::R12);
    let report = run_per_campaign(&link, &FaultChain::clean(), &cfg);

    match &report.resume {
        Resume::Fresh => eprintln!("started fresh"),
        Resume::Resumed { trials } => eprintln!("resumed with {trials} trials banked"),
        Resume::Salvaged { trials, error } => {
            eprintln!("salvaged {trials} trials from a damaged journal ({error})")
        }
        Resume::ColdStart { error } => eprintln!("cold start: {error}"),
    }
    match &report.outcome {
        Outcome::Complete => eprintln!("campaign complete"),
        Outcome::Partial {
            completed,
            remaining,
            reason,
        } => eprintln!("partial: {completed} done, <= {remaining} to go ({reason})"),
    }

    print_table(
        &report.name,
        &report.fault,
        &report.points,
        report.quarantine.len(),
    );

    if !report.outcome.is_complete() {
        // Let the resume loop in ci.sh know there is more to do.
        std::process::exit(3);
    }
}

// The deterministic result table: stdout only, no timing, no paths —
// byte-identical across resume schedules.
fn print_table(name: &str, fault: &str, points: &[PointProgress], quarantined: usize) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "campaign {name} / {fault}");
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>8} {:>10} {:>10} {:>22}",
        "snr_db", "trials", "errors", "per", "erasure", "wilson95"
    );
    for p in points {
        let ci = p.ci().map_or_else(
            || "n/a".to_owned(),
            |ci| format!("[{:.6}, {:.6}]", ci.lo, ci.hi),
        );
        let _ = writeln!(
            out,
            "{:>8.1} {:>8} {:>8} {:>10.6} {:>10.6} {:>22}",
            p.snr_db,
            p.trials,
            p.errors,
            p.per(),
            p.erasure_rate(),
            ci
        );
    }
    let _ = writeln!(out, "quarantined {quarantined}");
}
