//! Tier-1 trial-loop equivalence harness: batching frames through
//! [`run_trials`] is an execution strategy, never a physics change.
//!
//! Every sweep, campaign wave and distributed lease runs its frames
//! through [`run_trials`] on some frame range. For every PHY generation,
//! the per-frame verdicts it reports — including the typed `WlanError`
//! of an erasure — must match [`frame_trial_at`] one by one, however the
//! frames are split into ranges: a failed trial can surface only as the
//! trial's own error, never as a default-0 PER sample.

use wlan_core::coding::CodeRate;
use wlan_core::dsss::DsssRate;
use wlan_core::fault::FaultKind;
use wlan_core::linksim::{
    frame_trial_at, run_trials, DsssLink, FhssLink, HtLink, MimoLink, OfdmLink, PhyLink, StbcLink,
    FRAMES_PER_BATCH,
};
use wlan_core::ofdm::params::Modulation;
use wlan_core::ofdm::OfdmRate;
use wlan_math::rng::WlanRng;

const MASTER_SEED: u64 = 0x9A11E1;
const PAYLOAD: usize = 24;
const FRAMES: u64 = 10; // > one FRAMES_PER_BATCH batch
const SNR_DB: f64 = 8.0;

/// One link per generation (mirrors the parallel-determinism roster).
fn all_generations() -> Vec<Box<dyn PhyLink>> {
    vec![
        Box::new(FhssLink),
        Box::new(DsssLink {
            rate: DsssRate::Dbpsk1M,
        }),
        Box::new(OfdmLink::awgn(OfdmRate::R12)),
        Box::new(HtLink {
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::R1_2,
            ldpc: false,
            fading: false,
        }),
        Box::new(HtLink {
            modulation: Modulation::Qpsk,
            code_rate: CodeRate::R1_2,
            ldpc: true,
            fading: false,
        }),
        Box::new(MimoLink::flat(2, 2)),
        Box::new(StbcLink::flat(1)),
    ]
}

/// A trial erasure surfaces as the trial's *typed* `WlanError` — same
/// variant, same fields, same frame — never as a silent pass.
/// `FrameTruncation` at severity 1.0 truncates every frame, so every
/// generation must report erasures identical to `frame_trial_at`'s, both
/// from one range over all frames and from the sweep's batch split.
#[test]
fn per_frame_typed_errors_match_frame_trial_at_for_every_generation() {
    let master = WlanRng::seed_from_u64(MASTER_SEED);
    let point_rng = master.fork(0);
    let chain = FaultKind::FrameTruncation.chain(1.0);
    let batch = FRAMES_PER_BATCH as u64;
    let mut roster_erasures = 0usize;
    for link in all_generations() {
        let expected: Vec<_> = (0..FRAMES)
            .map(|frame| frame_trial_at(link.as_ref(), &chain, SNR_DB, PAYLOAD, &point_rng, frame))
            .collect();

        let (whole, whole_erased) = run_trials(
            link.as_ref(),
            &chain,
            SNR_DB,
            PAYLOAD,
            &point_rng,
            0..FRAMES,
        );
        let (head, mut split_erased) =
            run_trials(link.as_ref(), &chain, SNR_DB, PAYLOAD, &point_rng, 0..batch);
        let (tail, tail_erased) = run_trials(
            link.as_ref(),
            &chain,
            SNR_DB,
            PAYLOAD,
            &point_rng,
            batch..FRAMES,
        );
        split_erased.extend(tail_erased);
        assert_eq!(whole.trials, FRAMES, "{}: trial count", link.name());
        assert_eq!(
            head.trials + tail.trials,
            FRAMES,
            "{}: split trial count",
            link.name()
        );
        assert_eq!(
            whole_erased,
            split_erased,
            "{}: erasures depend on the frame-range split",
            link.name()
        );

        let expected_erased: Vec<_> = expected
            .iter()
            .enumerate()
            .filter_map(|(frame, v)| v.err().map(|e| (frame as u64, e)))
            .collect();
        // Which variant surfaces depends on the receiver (a DSSS rx sees
        // `FrameTruncated`, an OFDM rx may reject the SIGNAL field
        // instead); identity with `frame_trial_at` is the contract, the
        // variant is the receiver's business.
        assert_eq!(
            whole_erased,
            expected_erased,
            "{}: run_trials and frame_trial_at erasures diverged",
            link.name()
        );
        let failed = expected.iter().filter(|v| !matches!(v, Ok(true))).count() as u64;
        assert_eq!(whole.errors, failed, "{}: error tally", link.name());
        assert_eq!(
            whole.erasures,
            expected_erased.len() as u64,
            "{}: erasure tally",
            link.name()
        );
        roster_erasures += expected_erased.len();
    }
    assert!(
        roster_erasures > 0,
        "severity-1.0 truncation must produce typed erasures somewhere in the roster"
    );
}
