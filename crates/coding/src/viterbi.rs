//! Viterbi decoding of the 802.11 convolutional code.
//!
//! Supports hard decisions (Hamming branch metrics) and soft decisions
//! (log-likelihood-ratio correlation metrics); the ≈2 dB gap between the two
//! is one of the design-choice ablations benchmarked in experiment E6.
//!
//! The workhorse is [`ViterbiKernel`]: a reusable decoder whose trellis pass
//! runs allocation-free against a scratch arena owned by the kernel — branch
//! outputs precomputed for every 7-bit register value and one `u64` of
//! bit-parallel survivor decisions per trellis step. The forward pass runs
//! on one of three paths, picked once per kernel by CPU feature detection:
//! an AVX-512F whole-frame pass that keeps all 64 path metrics in registers
//! from the first step to the last, the AVX2 add-compare-select step, or the
//! portable scalar step that both vector paths must match bit for bit. The
//! ergonomic [`ViterbiDecoder`] front end delegates to a thread-local kernel,
//! so the per-call `Vec` churn of the original implementation is gone from
//! the sweep hot path while the public API is unchanged. Kernel and front
//! end are bit-identical by construction: the per-next-state formulation
//! visits the low predecessor first and replaces it only on a strictly
//! better high branch, exactly the add-compare-select order of the scalar
//! reference loop.

use crate::convolutional::{trellis_step, CONSTRAINT_LENGTH, NUM_STATES};
use std::cell::RefCell;
use wlan_math::WlanError;

const NEG_INF: f64 = f64::NEG_INFINITY;
/// Zero-termination tail length (drives the trellis back to state 0).
const TAIL: usize = CONSTRAINT_LENGTH - 1;

/// One frame's soft input to [`ViterbiKernel::decode_batch`].
///
/// The LLR convention is `llr = log(P(bit=0)/P(bit=1))`: positive values
/// favour 0, an erasure is exactly 0. LLRs are assumed finite (the demappers
/// only produce finite values).
#[derive(Debug, Clone, Copy)]
pub struct FrameLlrs<'a> {
    /// Coded LLRs, two per trellis step.
    pub llrs: &'a [f64],
    /// Information bits to recover.
    pub num_bits: usize,
    /// Whether the encoder appended the six zero tail bits (traceback from
    /// state 0) or not (traceback from the best-metric end state).
    pub terminated: bool,
}

impl<'a> FrameLlrs<'a> {
    /// A zero-terminated frame: `llrs.len()` must be `(num_bits + 6) * 2`.
    pub fn terminated(llrs: &'a [f64], num_bits: usize) -> Self {
        FrameLlrs { llrs, num_bits, terminated: true }
    }

    /// An unterminated stream: `llrs.len()` must be `num_bits * 2`.
    pub fn unterminated(llrs: &'a [f64], num_bits: usize) -> Self {
        FrameLlrs { llrs, num_bits, terminated: false }
    }

    /// Validates the LLR length and returns the trellis step count. Every
    /// decode goes through here first, so the forward passes may rely on
    /// exactly two LLRs per step. A `num_bits` so large that the step or LLR
    /// count overflows `usize` is a typed error, never a wrapped length.
    fn check(&self) -> Result<usize, WlanError> {
        const OVERFLOW: WlanError =
            WlanError::InvalidConfig("Viterbi frame length overflows usize");
        let tail = if self.terminated { TAIL } else { 0 };
        let total_steps = self.num_bits.checked_add(tail).ok_or(OVERFLOW)?;
        let expected = total_steps.checked_mul(2).ok_or(OVERFLOW)?;
        if self.llrs.len() != expected {
            return Err(WlanError::LengthMismatch { expected, got: self.llrs.len() });
        }
        Ok(total_steps)
    }
}

/// Which add-compare-select implementation a kernel runs, chosen once by
/// CPU feature detection in [`AcsPath::detect`]; no option selects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcsPath {
    /// Whole-frame AVX-512F pass with register-resident metrics ([`avx512`]).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 step, one call per trellis step ([`simd`]); the only vector
    /// path on x86-64 hosts without AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Portable reference step ([`acs_step_scalar`]).
    Scalar,
}

impl AcsPath {
    /// The fastest path this CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return AcsPath::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return AcsPath::Avx2;
            }
        }
        AcsPath::Scalar
    }
}

/// Batched, allocation-free Viterbi kernel for the K=7, (133, 171) code.
///
/// Owns its scratch arena (survivor words and a decode buffer), so decoding
/// a frame — or a batch — performs no heap allocation once the arena has
/// grown to the longest frame seen. The kernel is `!Sync` by design: each
/// sweep worker holds its own (see `wlan_core::linksim`), which is what
/// keeps batched decoding bit-identical at any `WLAN_THREADS`.
///
/// # Examples
///
/// ```
/// use wlan_coding::{ConvEncoder, FrameLlrs, ViterbiKernel};
///
/// let data = vec![0, 1, 1, 0, 1, 0, 0, 1];
/// let coded = ConvEncoder::new().encode_terminated(&data);
/// let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
/// let mut kernel = ViterbiKernel::new();
/// let frames = kernel
///     .decode_batch(&[FrameLlrs::terminated(&llrs, data.len())])
///     .unwrap();
/// assert_eq!(frames, vec![data]);
/// ```
#[derive(Debug, Clone)]
pub struct ViterbiKernel {
    /// The forward-pass implementation, detected once at construction.
    path: AcsPath,
    /// One survivor word per trellis step: bit `s` set means next-state `s`
    /// kept its high (odd-register) predecessor.
    survivors: Vec<u64>,
    /// Traceback output buffer, reused across frames.
    decoded: Vec<u8>,
}

impl ViterbiKernel {
    /// Creates a kernel with an empty scratch arena.
    pub fn new() -> Self {
        ViterbiKernel { path: AcsPath::detect(), survivors: Vec::new(), decoded: Vec::new() }
    }

    /// Decodes a batch of frames, reusing the kernel's scratch across all of
    /// them. Outputs are bit-identical to decoding each frame alone (the
    /// trellis carries no state between frames), which the batch/scalar
    /// equivalence suite pins across generations, rates, and SNRs.
    pub fn decode_batch(&mut self, frames: &[FrameLlrs<'_>]) -> Result<Vec<Vec<u8>>, WlanError> {
        // Validate every frame before decoding any, so a bad frame cannot
        // leave a half-decoded batch behind.
        for frame in frames {
            frame.check()?;
        }
        let mut out = Vec::with_capacity(frames.len());
        for frame in frames {
            let mut bits = Vec::new();
            self.decode_into(*frame, &mut bits)?;
            out.push(bits);
        }
        Ok(out)
    }

    /// Decodes one frame into a caller-owned buffer (cleared first) — the
    /// fully allocation-free entry point for hot paths that recycle their
    /// output storage.
    pub fn decode_into(
        &mut self,
        frame: FrameLlrs<'_>,
        bits: &mut Vec<u8>,
    ) -> Result<(), WlanError> {
        let total_steps = frame.check()?;
        self.run_trellis(frame.llrs, total_steps, frame.terminated);
        bits.clear();
        bits.extend_from_slice(&self.decoded[..frame.num_bits]);
        Ok(())
    }

    /// Decodes one frame, allocating the output.
    pub fn decode(&mut self, frame: FrameLlrs<'_>) -> Result<Vec<u8>, WlanError> {
        let mut bits = Vec::new();
        self.decode_into(frame, &mut bits)?;
        Ok(bits)
    }

    /// Add-compare-select forward pass + traceback into `self.decoded`
    /// (resized to `total_steps`; the first `num_bits` entries are the
    /// answer). `llrs` holds exactly two LLRs per step ([`FrameLlrs::check`]).
    fn run_trellis(&mut self, llrs: &[f64], total_steps: usize, terminated: bool) {
        let metrics = self.forward(llrs, total_steps);

        // Terminated: trace back from state 0; otherwise from the best end
        // state. The fold is infallible over the fixed state set and keeps
        // `max_by`'s last-max-wins tie behaviour.
        let mut state = if terminated {
            0usize
        } else {
            let mut best = 0usize;
            for s in 1..NUM_STATES {
                if metrics[s].total_cmp(&metrics[best]) != std::cmp::Ordering::Less {
                    best = s;
                }
            }
            best
        };
        self.decoded.clear();
        self.decoded.resize(total_steps, 0);
        for t in (0..total_steps).rev() {
            // The input bit that produced `state` is its top register bit;
            // the survivor bit selects the low or high predecessor.
            self.decoded[t] = (state >= NUM_STATES / 2) as u8;
            let kept_hi = (self.survivors[t] >> state) & 1;
            state = ((state << 1) & (NUM_STATES - 1)) | kept_hi as usize;
        }
    }

    /// Runs the forward pass on this kernel's path: fills one survivor word
    /// per step into `self.survivors` and returns the final path metrics.
    fn forward(&mut self, llrs: &[f64], total_steps: usize) -> [f64; NUM_STATES] {
        self.survivors.clear();
        self.survivors.resize(total_steps, 0);
        match self.path {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512` is only selected when runtime detection
            // confirmed AVX-512F (`AcsPath::detect`); `FrameLlrs::check`
            // guarantees two LLRs per survivor word, so the pass covers
            // every step.
            AcsPath::Avx512 => unsafe { avx512::forward(llrs, &mut self.survivors) },
            #[cfg(target_arch = "x86_64")]
            AcsPath::Avx2 => forward_steps(llrs, &mut self.survivors, |metrics, next, la, lb| {
                // SAFETY: `Avx2` is only selected when runtime detection
                // confirmed AVX2 (`AcsPath::detect`); the step reads and
                // writes the fixed 64-state banks only, whatever the frame
                // length `FrameLlrs::check` admitted.
                unsafe { simd::acs_step_avx2(metrics, next, la, lb) }
            }),
            AcsPath::Scalar => forward_steps(llrs, &mut self.survivors, |metrics, next, la, lb| {
                acs_step_scalar(metrics, next, la, lb)
            }),
        }
    }
}

/// Branch outputs `(a << 1) | b` indexed by the 7-bit register value
/// `input << 6 | state`; built from the encoder's own `trellis_step` so the
/// two can never drift apart.
const OUT2: [u8; 2 * NUM_STATES] = {
    let mut out2 = [0u8; 2 * NUM_STATES];
    let mut reg = 0;
    while reg < 2 * NUM_STATES {
        let (a, b, _next) = trellis_step((reg % NUM_STATES) as u32, (reg / NUM_STATES) as u8);
        out2[reg] = (a << 1) | b;
        reg += 1;
    }
    // The butterflies rely on both generator polynomials having their top
    // bit set, so the input bit complements both outputs.
    let mut state = 0;
    while state < NUM_STATES {
        assert!(out2[state] ^ out2[state | NUM_STATES] == 3);
        state += 1;
    }
    out2
};

/// Forward pass one trellis step at a time, the metrics ping-ponging
/// between two stack banks; `step` fills the next bank and returns the
/// step's survivor word.
fn forward_steps(
    llrs: &[f64],
    survivors: &mut [u64],
    mut step: impl FnMut(&[f64; NUM_STATES], &mut [f64; NUM_STATES], f64, f64) -> u64,
) -> [f64; NUM_STATES] {
    let mut bank_a = [NEG_INF; NUM_STATES];
    let mut bank_b = [NEG_INF; NUM_STATES];
    bank_a[0] = 0.0; // encoder starts in state 0
    let (mut metrics, mut next_metrics) = (&mut bank_a, &mut bank_b);
    for (pair, word) in llrs.chunks_exact(2).zip(survivors.iter_mut()) {
        *word = step(metrics, next_metrics, pair[0], pair[1]);
        std::mem::swap(&mut metrics, &mut next_metrics);
    }
    *metrics
}

impl Default for ViterbiKernel {
    fn default() -> Self {
        ViterbiKernel::new()
    }
}

/// One add-compare-select trellis step (all 64 next-states); returns the
/// survivor word. This is the portable reference the vector path must match
/// bit for bit.
fn acs_step_scalar(
    metrics: &[f64; NUM_STATES],
    next_metrics: &mut [f64; NUM_STATES],
    la: f64,
    lb: f64,
) -> u64 {
    // Correlation metric per branch-output pair (a, b): +llr when the
    // branch emits 0, indexed by (a << 1) | b.
    let bm = [la + lb, la - lb, -la + lb, -la - lb];
    let mut word = 0u64;
    // Butterfly pairing: next-states j and j+32 share predecessors 2j and
    // 2j+1, and because both generator polynomials have their top bit set,
    // flipping the input bit complements both outputs — the j+32 branch
    // metrics are the exact IEEE negations of the j ones (asserted where
    // `OUT2` is built). One pass over the predecessor metrics therefore
    // feeds both halves.
    for j in 0..NUM_STATES / 2 {
        let reg_lo = j << 1;
        let m0 = metrics[reg_lo];
        let m1 = metrics[reg_lo | 1];
        let b0 = bm[OUT2[reg_lo] as usize];
        let b1 = bm[OUT2[reg_lo | 1] as usize];
        // Strict '>' keeps the scalar reference's low-predecessor-wins
        // tie-break, so outputs stay bit-identical.
        let (lo, hi) = (m0 + b0, m1 + b1);
        let take_hi = hi > lo;
        next_metrics[j] = if take_hi { hi } else { lo };
        word |= (take_hi as u64) << j;
        // next = j + 32 (input bit 1): negated metrics, and `m - b` is
        // bitwise `m + (-b)`.
        let (lo, hi) = (m0 - b0, m1 - b1);
        let take_hi = hi > lo;
        next_metrics[j + NUM_STATES / 2] = if take_hi { hi } else { lo };
        word |= (take_hi as u64) << (j + NUM_STATES / 2);
    }
    word
}

/// AVX2 add-compare-select step, 4 butterflies per vector iteration.
///
/// Bit-identity with [`acs_step_scalar`] holds because every float op maps
/// one-to-one: branch metrics are `±la + ±lb` (sign multiplication is
/// exact), path updates are single IEEE adds/subs in the same operand
/// order, and the select uses the same strict `hi > lo` predicate
/// (`_CMP_GT_OQ`). No FMA contraction can occur — intrinsics lower to the
/// exact instructions named.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{NUM_STATES, OUT2};

    /// Butterfly lane order inside each 4-wide block: `unpacklo/hi_pd`
    /// interleave 128-bit lanes, so block k processes butterflies
    /// `4k + [0, 2, 1, 3]` in lanes 0..4. The permutation is self-inverse;
    /// sign tables are pre-permuted, results re-permuted before storing.
    const LANES: [usize; 4] = [0, 2, 1, 3];

    /// Maps a `movemask` nibble (lane order) to survivor bits (butterfly
    /// order): output bit `LANES[l]` = input bit `l`.
    const NIBBLE: [u8; 16] = {
        let mut table = [0u8; 16];
        let mut m = 0;
        while m < 16 {
            let mut l = 0;
            while l < 4 {
                table[m] |= (((m >> l) & 1) as u8) << LANES[l];
                l += 1;
            }
            m += 1;
        }
        table
    };

    /// Branch-metric signs in lane order: entry `4k + l` belongs to
    /// butterfly `4k + LANES[l]`, with `bm = sa·la + sb·lb` and
    /// `sa, sb ∈ {+1, -1}` (+1 when the branch emits a 0).
    struct SignTables {
        sae: [f64; NUM_STATES / 2],
        sbe: [f64; NUM_STATES / 2],
        sao: [f64; NUM_STATES / 2],
        sbo: [f64; NUM_STATES / 2],
    }

    const SIGNS: SignTables = {
        const fn sign(bit: u8) -> f64 {
            if bit == 0 {
                1.0
            } else {
                -1.0
            }
        }
        let mut t = SignTables {
            sae: [0.0; NUM_STATES / 2],
            sbe: [0.0; NUM_STATES / 2],
            sao: [0.0; NUM_STATES / 2],
            sbo: [0.0; NUM_STATES / 2],
        };
        let mut i = 0;
        while i < NUM_STATES / 2 {
            let j = i - i % 4 + LANES[i % 4];
            let (even, odd) = (OUT2[2 * j], OUT2[2 * j + 1]);
            t.sae[i] = sign(even >> 1);
            t.sbe[i] = sign(even & 1);
            t.sao[i] = sign(odd >> 1);
            t.sbo[i] = sign(odd & 1);
            i += 1;
        }
        t
    };

    /// # Safety
    ///
    /// The CPU must support AVX2 (see `AcsPath::detect`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn acs_step_avx2(
        metrics: &[f64; NUM_STATES],
        next_metrics: &mut [f64; NUM_STATES],
        la: f64,
        lb: f64,
    ) -> u64 {
        use std::arch::x86_64::*;
        // Lane selector [0, 2, 1, 3]: undoes the unpack interleave.
        const UNSHUFFLE: i32 = 0b11_01_10_00;
        let sgn = &SIGNS;
        let la_v = _mm256_set1_pd(la);
        let lb_v = _mm256_set1_pd(lb);
        let mut word = 0u64;
        for k in 0..NUM_STATES / 8 {
            // Predecessor metrics for butterflies 4k..4k+4: states
            // 8k..8k+8, split into even (m0) and odd (m1) lanes.
            let v0 = _mm256_loadu_pd(metrics.as_ptr().add(8 * k));
            let v1 = _mm256_loadu_pd(metrics.as_ptr().add(8 * k + 4));
            let m0 = _mm256_unpacklo_pd(v0, v1);
            let m1 = _mm256_unpackhi_pd(v0, v1);
            let b0 = _mm256_add_pd(
                _mm256_mul_pd(_mm256_loadu_pd(sgn.sae.as_ptr().add(4 * k)), la_v),
                _mm256_mul_pd(_mm256_loadu_pd(sgn.sbe.as_ptr().add(4 * k)), lb_v),
            );
            let b1 = _mm256_add_pd(
                _mm256_mul_pd(_mm256_loadu_pd(sgn.sao.as_ptr().add(4 * k)), la_v),
                _mm256_mul_pd(_mm256_loadu_pd(sgn.sbo.as_ptr().add(4 * k)), lb_v),
            );
            // Input-0 half: next-states j = 4k..4k+4.
            let lo = _mm256_add_pd(m0, b0);
            let hi = _mm256_add_pd(m1, b1);
            let take = _mm256_cmp_pd::<_CMP_GT_OQ>(hi, lo);
            let sel = _mm256_blendv_pd(lo, hi, take);
            _mm256_storeu_pd(
                next_metrics.as_mut_ptr().add(4 * k),
                _mm256_permute4x64_pd::<UNSHUFFLE>(sel),
            );
            let mask = _mm256_movemask_pd(take) as usize;
            word |= (NIBBLE[mask] as u64) << (4 * k);
            // Input-1 half: next-states j+32, exact IEEE negations.
            let lo = _mm256_sub_pd(m0, b0);
            let hi = _mm256_sub_pd(m1, b1);
            let take = _mm256_cmp_pd::<_CMP_GT_OQ>(hi, lo);
            let sel = _mm256_blendv_pd(lo, hi, take);
            _mm256_storeu_pd(
                next_metrics.as_mut_ptr().add(4 * k + NUM_STATES / 2),
                _mm256_permute4x64_pd::<UNSHUFFLE>(sel),
            );
            let mask = _mm256_movemask_pd(take) as usize;
            word |= (NIBBLE[mask] as u64) << (4 * k + NUM_STATES / 2);
        }
        word
    }
}

/// AVX-512F forward pass over a whole frame, 8 butterflies per vector.
///
/// The 64 path metrics stay in eight `__m512d` registers (vector `v` holds
/// states `8v..8v+8`) from the first trellis step to the last; memory sees
/// only the LLR pairs going in and one survivor word per step going out.
/// Per step and per group `g` of butterflies `8g..8g+8`:
///
/// - `permutex2var` splits metric vectors `2g` and `2g+1` (states
///   `16g..16g+16`) into the even and the odd predecessors;
/// - the branch metrics are the broadcast `la` and `lb` with their sign
///   bits flipped from a per-butterfly table, plus one add: the same
///   `(±la) + (±lb)` IEEE op as the scalar step's `bm` table (`la - lb` is
///   bitwise `la + (-lb)`);
/// - the input-0 half writes next-states `8g..8g+8` (vector `g`) and the
///   input-1 half, with the metrics subtracted, next-states `32+8g..`
///   (vector `g+4`); the strict `hi > lo` compare (`_CMP_GT_OQ`) lands in a
///   mask register that is both the blend selector and, as it stands, the
///   survivor byte for that vector.
///
/// Every float op and operand order matches [`acs_step_scalar`], so
/// survivors and metrics are bit-identical to it.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{NEG_INF, NUM_STATES, OUT2};
    use std::arch::x86_64::*;

    /// Metric vectors in the frame state.
    const VECTORS: usize = NUM_STATES / 8;

    /// Sign-bit masks of `la` (`[0]`) and `lb` (`[1]`) per branch, one
    /// 8-lane row per butterfly group and predecessor parity: row `2g` holds
    /// the even predecessors of butterflies `8g..8g+8`, row `2g + 1` the odd
    /// ones. A set sign bit means the branch emits a 1 on that output, so
    /// its LLR enters negated.
    const FLIPS: [[[u64; 8]; VECTORS]; 2] = {
        let mut flips = [[[0; 8]; VECTORS]; 2];
        let mut reg = 0;
        while reg < NUM_STATES {
            let (j, parity) = (reg / 2, reg % 2);
            let (row, lane) = (2 * (j / 8) + parity, j % 8);
            flips[0][row][lane] = ((OUT2[reg] >> 1) as u64) << 63;
            flips[1][row][lane] = ((OUT2[reg] & 1) as u64) << 63;
            reg += 1;
        }
        flips
    };

    /// `x` with the sign bits set in `mask` flipped.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn flip(x: __m512i, mask: [u64; 8]) -> __m512d {
        let [a, b, c, d, e, f, g, h] = mask.map(|lane| lane as i64);
        _mm512_castsi512_pd(_mm512_xor_si512(x, _mm512_setr_epi64(a, b, c, d, e, f, g, h)))
    }

    /// Runs one frame: writes one survivor word per LLR pair into
    /// `survivors` and returns the final path metrics.
    ///
    /// # Safety
    ///
    /// Callers without AVX-512F enabled must call it in `unsafe` and only
    /// on a CPU that has it (`AcsPath::detect`).
    #[target_feature(enable = "avx512f")]
    pub(super) fn forward(llrs: &[f64], survivors: &mut [u64]) -> [f64; NUM_STATES] {
        // `permutex2var` lane selectors over the 16 states of a vector
        // pair: the even ones, then the odd ones, in state order.
        let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        // The encoder starts in state 0.
        let mut m = [_mm512_set1_pd(NEG_INF); VECTORS];
        m[0] = _mm512_mask_mov_pd(m[0], 1, _mm512_setzero_pd());
        for (pair, word) in llrs.chunks_exact(2).zip(survivors.iter_mut()) {
            let la = _mm512_castpd_si512(_mm512_set1_pd(pair[0]));
            let lb = _mm512_castpd_si512(_mm512_set1_pd(pair[1]));
            let mut next = m;
            let mut take = [0u8; VECTORS];
            for g in 0..VECTORS / 2 {
                let (e, o) = (2 * g, 2 * g + 1);
                let m0 = _mm512_permutex2var_pd(m[e], even, m[o]);
                let m1 = _mm512_permutex2var_pd(m[e], odd, m[o]);
                let b0 = _mm512_add_pd(flip(la, FLIPS[0][e]), flip(lb, FLIPS[1][e]));
                let b1 = _mm512_add_pd(flip(la, FLIPS[0][o]), flip(lb, FLIPS[1][o]));
                // Input-0 half: next-states 8g..8g+8.
                let lo = _mm512_add_pd(m0, b0);
                let hi = _mm512_add_pd(m1, b1);
                take[g] = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(hi, lo);
                next[g] = _mm512_mask_blend_pd(take[g], lo, hi);
                // Input-1 half: next-states 32+8g.., exact IEEE negations.
                let lo = _mm512_sub_pd(m0, b0);
                let hi = _mm512_sub_pd(m1, b1);
                let k = g + VECTORS / 2;
                take[k] = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(hi, lo);
                next[k] = _mm512_mask_blend_pd(take[k], lo, hi);
            }
            // Mask `v` is the survivor byte of metric vector `v`. Written
            // as a shift-or chain, the packing stays in general-purpose
            // registers; as an OR of shifted bytes the compiler builds it
            // with byte inserts on the vector ports instead, which cost
            // about a fifth of the step.
            let mut w = 0u64;
            for v in (0..VECTORS).rev() {
                w = (w << 8) | u64::from(take[v]);
            }
            *word = w;
            m = next;
        }
        // SAFETY: `[__m512d; 8]` and `[f64; 64]` are the same 512 bytes of
        // plain `f64`s, so every bit pattern is valid for both (`transmute`
        // checks the sizes). No length enters here: the zip above covers
        // every step because `FrameLlrs::check` admitted exactly two LLRs
        // per survivor word.
        unsafe { std::mem::transmute::<[__m512d; VECTORS], [f64; NUM_STATES]>(m) }
    }
}

thread_local! {
    /// Per-thread kernel backing [`ViterbiDecoder`]: each `wlan_math::par`
    /// worker warms its own arena once and then decodes allocation-free.
    static THREAD_KERNEL: RefCell<ViterbiKernel> = RefCell::new(ViterbiKernel::new());
}

/// Runs `f` against this thread's kernel; a failed borrow (re-entrant use)
/// falls back to a fresh kernel rather than introducing a panic path.
fn with_thread_kernel<R>(f: impl FnOnce(&mut ViterbiKernel) -> R) -> R {
    THREAD_KERNEL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut kernel) => f(&mut kernel),
        Err(_) => f(&mut ViterbiKernel::new()),
    })
}

/// Viterbi decoder for the K=7, (133, 171) code with zero termination.
///
/// A zero-sized handle over the thread-local [`ViterbiKernel`]; batch users
/// and sweep workers that want explicit arena ownership use the kernel
/// directly.
///
/// # Examples
///
/// ```
/// use wlan_coding::{ConvEncoder, ViterbiDecoder};
///
/// let data = vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1];
/// let mut coded = ConvEncoder::new().encode_terminated(&data);
/// coded[3] ^= 1; // a channel error
/// coded[10] ^= 1; // another one
/// let decoded = ViterbiDecoder::new().decode_hard(&coded, data.len());
/// assert_eq!(decoded, data);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViterbiDecoder {
    _private: (),
}

impl ViterbiDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        ViterbiDecoder { _private: () }
    }

    /// Decodes hard bits.
    ///
    /// `coded` must contain `(num_info + 6) * 2` bits produced by
    /// [`crate::ConvEncoder::encode_terminated`]; `num_info` information bits
    /// are returned.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len() != (num_info + 6) * 2`; see
    /// [`ViterbiDecoder::try_decode_hard`] for the non-panicking variant.
    pub fn decode_hard(&self, coded: &[u8], num_info: usize) -> Vec<u8> {
        // Map hard bits to bipolar soft values: 0 → +1, 1 → −1.
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        self.decode_soft(&llrs, num_info)
    }

    /// Like [`ViterbiDecoder::decode_hard`], but reports a truncated or
    /// mis-sized input as a typed error instead of panicking — the form the
    /// fault-injection sweeps rely on.
    pub fn try_decode_hard(&self, coded: &[u8], num_info: usize) -> Result<Vec<u8>, WlanError> {
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        self.try_decode_soft(&llrs, num_info)
    }

    /// Decodes soft log-likelihood ratios.
    ///
    /// The LLR convention is `llr = log(P(bit=0)/P(bit=1))`: positive values
    /// favour 0. An erasure (punctured position) is an LLR of exactly 0.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != (num_info + 6) * 2`; see
    /// [`ViterbiDecoder::try_decode_soft`] for the non-panicking variant.
    pub fn decode_soft(&self, llrs: &[f64], num_info: usize) -> Vec<u8> {
        let decoded = self.try_decode_soft(llrs, num_info);
        assert!(decoded.is_ok(), "coded length must be (num_info + 6) * 2");
        decoded.unwrap_or_default()
    }

    /// Like [`ViterbiDecoder::decode_soft`], but a mis-sized LLR block
    /// returns [`WlanError::LengthMismatch`] instead of panicking.
    pub fn try_decode_soft(&self, llrs: &[f64], num_info: usize) -> Result<Vec<u8>, WlanError> {
        with_thread_kernel(|k| k.decode(FrameLlrs::terminated(llrs, num_info)))
    }

    /// Decodes a stream that is *not* zero-terminated (e.g. the 802.11a DATA
    /// field, whose pad bits follow the tail): traceback starts from the
    /// best-metric end state instead of state 0. All `num_bits` inputs are
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != num_bits * 2`; see
    /// [`ViterbiDecoder::try_decode_soft_unterminated`] for the
    /// non-panicking variant.
    pub fn decode_soft_unterminated(&self, llrs: &[f64], num_bits: usize) -> Vec<u8> {
        let decoded = self.try_decode_soft_unterminated(llrs, num_bits);
        assert!(decoded.is_ok(), "coded length must be num_bits * 2");
        decoded.unwrap_or_default()
    }

    /// Like [`ViterbiDecoder::decode_soft_unterminated`], but a mis-sized
    /// LLR block returns [`WlanError::LengthMismatch`] instead of panicking.
    pub fn try_decode_soft_unterminated(
        &self,
        llrs: &[f64],
        num_bits: usize,
    ) -> Result<Vec<u8>, WlanError> {
        with_thread_kernel(|k| k.decode(FrameLlrs::unterminated(llrs, num_bits)))
    }
}

#[cfg(test)]
impl AcsPath {
    /// Every path this CPU can run, the scalar reference first.
    fn supported() -> Vec<AcsPath> {
        #[allow(unused_mut)]
        let mut paths = vec![AcsPath::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                paths.push(AcsPath::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(AcsPath::Avx512);
            }
        }
        paths
    }
}

#[cfg(test)]
impl ViterbiKernel {
    /// Forces `path`, so tests can pin each vector path against the scalar
    /// step on the same machine.
    fn on_path(mut self, path: AcsPath) -> Self {
        assert!(AcsPath::supported().contains(&path), "{path:?} is unsupported here");
        self.path = path;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::ConvEncoder;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let coded = ConvEncoder::new().encode_terminated(data);
        ViterbiDecoder::new().decode_hard(&coded, data.len())
    }

    #[test]
    fn vector_and_scalar_trellis_are_bit_identical() {
        // Every vector path this CPU supports against the scalar reference
        // step: survivor words, final path metrics (bitwise, so the sign of
        // a zero counts) and decoded bits, terminated and unterminated.
        use wlan_math::rng::{Rng, WlanRng};
        let vector_paths: Vec<AcsPath> =
            AcsPath::supported().into_iter().filter(|&p| p != AcsPath::Scalar).collect();
        let mut scalar = ViterbiKernel::new().on_path(AcsPath::Scalar);
        let mut rng = WlanRng::seed_from_u64(17);
        for (n, trials) in [(1usize, 40), (7, 40), (800, 10), (9624, 2)] {
            for trial in 0..trials {
                for terminated in [true, false] {
                    let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
                    let coded = if terminated {
                        ConvEncoder::new().encode_terminated(&data)
                    } else {
                        ConvEncoder::new().encode(&data)
                    };
                    // Noisy LLRs quantized to halves, plus exact erasures:
                    // path metrics are then exact sums, so equal metrics —
                    // where only the strict `>` tie-break decides — and
                    // signed zeros are common, not just clean runs.
                    let llrs: Vec<f64> = coded
                        .iter()
                        .map(|&b| {
                            if rng.gen_bool(0.05) {
                                0.0
                            } else {
                                let x = (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_gaussian();
                                (2.0 * x).round() / 2.0
                            }
                        })
                        .collect();
                    let frame = FrameLlrs { llrs: &llrs, num_bits: n, terminated };
                    let steps = frame.check().unwrap();
                    let want_metrics = scalar.forward(&llrs, steps).map(f64::to_bits);
                    let want_bits = scalar.decode(frame).unwrap();
                    for &path in &vector_paths {
                        let at = format!("{path:?} n={n} terminated={terminated} trial={trial}");
                        let mut fast = ViterbiKernel::new().on_path(path);
                        let metrics = fast.forward(&llrs, steps).map(f64::to_bits);
                        assert_eq!(fast.survivors, scalar.survivors, "survivors: {at}");
                        assert_eq!(metrics, want_metrics, "final metrics: {at}");
                        assert_eq!(fast.decode(frame).unwrap(), want_bits, "bits: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn overflowing_lengths_are_typed_errors() {
        // Step and LLR counts that overflow usize must be refused, not
        // wrapped into a length that happens to match the slice.
        let dec = ViterbiDecoder::new();
        let overflow = WlanError::InvalidConfig("Viterbi frame length overflows usize");
        let half = usize::MAX / 2 + 1;
        assert_eq!(dec.try_decode_soft_unterminated(&[], half), Err(overflow));
        assert_eq!(dec.try_decode_soft(&[], usize::MAX - 5), Err(overflow));
        assert_eq!(dec.try_decode_soft(&[0.0; 4], half - 4), Err(overflow));
        assert_eq!(dec.try_decode_hard(&[], usize::MAX), Err(overflow));
    }

    #[test]
    fn alternating_batch_sizes_never_read_stale_scratch() {
        // Regression pin for the shrinking-batch hazard: one kernel reused
        // across growing and shrinking frame sizes on a single thread must
        // decode every frame exactly like a fresh kernel. The scratch
        // arenas (`survivors`, `decoded`) are resized per frame; a stale
        // tail surviving a shrink would corrupt the traceback of the
        // shorter frame.
        use wlan_math::rng::{Rng, WlanRng};
        let mut reused = ViterbiKernel::new();
        let mut rng = WlanRng::seed_from_u64(91);
        // Long → short → medium → long …: every transition direction,
        // several times over, with noisy LLRs so tracebacks traverse the
        // full arena.
        let sizes = [96usize, 8, 40, 96, 12, 64, 8, 96, 24];
        for (round, &n) in sizes.iter().cycle().take(4 * sizes.len()).enumerate() {
            let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = ConvEncoder::new().encode_terminated(&data);
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_gaussian())
                .collect();
            let frame = FrameLlrs::terminated(&llrs, n);
            let stale = reused.decode(frame).unwrap();
            let fresh = ViterbiKernel::new().decode(frame).unwrap();
            assert_eq!(stale, fresh, "round {round}: n={n} diverged after batch-size change");
        }
    }

    #[test]
    fn alternating_batch_sizes_in_decode_batch_match_singles() {
        // Same invariant through the batch entry point: batches of
        // different sizes (and different frame lengths inside one batch)
        // interleaved on one kernel must equal per-frame decodes.
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(92);
        let mut kernel = ViterbiKernel::new();
        for batch_len in [8usize, 2, 5, 1, 8, 3] {
            let mut llr_store: Vec<(Vec<f64>, usize)> = Vec::new();
            for k in 0..batch_len {
                let n = 16 + 24 * (k % 3);
                let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
                let coded = ConvEncoder::new().encode_terminated(&data);
                let llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_gaussian())
                    .collect();
                llr_store.push((llrs, n));
            }
            let frames: Vec<FrameLlrs<'_>> = llr_store
                .iter()
                .map(|(llrs, n)| FrameLlrs::terminated(llrs, *n))
                .collect();
            let batched = kernel.decode_batch(&frames).unwrap();
            for (frame, got) in frames.iter().zip(&batched) {
                let solo = ViterbiKernel::new().decode(*frame).unwrap();
                assert_eq!(*got, solo, "batch of {batch_len} diverged from solo decode");
            }
        }
    }

    #[test]
    fn error_free_roundtrip() {
        let data: Vec<u8> = (0..64).map(|i| ((i * 7 + 3) % 5 < 2) as u8).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn corrects_up_to_free_distance_errors() {
        // d_free = 10 → any 4 errors spread apart are correctable.
        let data: Vec<u8> = (0..40).map(|i| (i % 3 == 1) as u8).collect();
        let mut coded = ConvEncoder::new().encode_terminated(&data);
        for &pos in &[2usize, 20, 45, 70] {
            coded[pos] ^= 1;
        }
        let decoded = ViterbiDecoder::new().decode_hard(&coded, data.len());
        assert_eq!(decoded, data);
    }

    #[test]
    fn burst_beyond_capability_fails_gracefully() {
        // 12 consecutive errors exceed what d_free=10 can fix; the decoder
        // must still return the right length without panicking.
        let data: Vec<u8> = (0..30).map(|i| (i % 2) as u8).collect();
        let mut coded = ConvEncoder::new().encode_terminated(&data);
        for b in coded.iter_mut().take(12) {
            *b ^= 1;
        }
        let decoded = ViterbiDecoder::new().decode_hard(&coded, data.len());
        assert_eq!(decoded.len(), data.len());
    }

    #[test]
    fn soft_decisions_use_reliability() {
        // One flipped bit marked unreliable (small LLR) plus a strong
        // correct neighbourhood: soft decoding must recover.
        let data = vec![1u8, 1, 0, 0, 1, 0, 1, 1, 0, 1];
        let coded = ConvEncoder::new().encode_terminated(&data);
        let mut llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 5.0 } else { -5.0 }).collect();
        llrs[7] = -llrs[7].signum() * 0.1; // weak wrong observation
        let decoded = ViterbiDecoder::new().decode_soft(&llrs, data.len());
        assert_eq!(decoded, data);
    }

    #[test]
    fn erasures_are_neutral() {
        // Zero LLRs (punctured bits) carry no information but must not
        // corrupt decoding when enough other bits survive.
        let data = vec![0u8, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0];
        let coded = ConvEncoder::new().encode_terminated(&data);
        let mut llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 3.0 } else { -3.0 }).collect();
        for i in (0..llrs.len()).step_by(6) {
            llrs[i] = 0.0;
        }
        let decoded = ViterbiDecoder::new().decode_soft(&llrs, data.len());
        assert_eq!(decoded, data);
    }

    #[test]
    fn empty_message_roundtrips() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn unterminated_stream_decodes() {
        // Encode without tail bits; decode with best-state traceback.
        let data: Vec<u8> = (0..50).map(|i| ((i * 3) % 4 == 1) as u8).collect();
        let mut enc = ConvEncoder::new();
        let coded = enc.encode(&data);
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 2.0 } else { -2.0 }).collect();
        let decoded = ViterbiDecoder::new().decode_soft_unterminated(&llrs, data.len());
        assert_eq!(decoded, data);
    }

    #[test]
    fn unterminated_with_errors_recovers_prefix() {
        // Without termination the last few bits are weakly protected, but
        // bits well before the end must still decode despite channel errors.
        let data: Vec<u8> = (0..60).map(|i| (i % 5 < 2) as u8).collect();
        let coded = ConvEncoder::new().encode(&data);
        let mut llrs: Vec<f64> =
            coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        llrs[10] = -llrs[10];
        llrs[50] = -llrs[50];
        let decoded = ViterbiDecoder::new().decode_soft_unterminated(&llrs, data.len());
        assert_eq!(&decoded[..50], &data[..50]);
    }

    #[test]
    #[should_panic(expected = "(num_info + 6) * 2")]
    fn length_mismatch_panics() {
        let _ = ViterbiDecoder::new().decode_hard(&[0, 1, 0], 4);
    }

    #[test]
    fn try_variants_report_typed_errors() {
        use wlan_math::WlanError;
        let dec = ViterbiDecoder::new();
        assert_eq!(
            dec.try_decode_hard(&[0, 1, 0], 4).unwrap_err(),
            WlanError::LengthMismatch { expected: 20, got: 3 }
        );
        assert_eq!(
            dec.try_decode_soft_unterminated(&[0.0; 5], 4).unwrap_err(),
            WlanError::LengthMismatch { expected: 8, got: 5 }
        );
    }

    #[test]
    fn try_variants_agree_with_panicking_ones() {
        let data: Vec<u8> = (0..32).map(|i| (i % 3 == 0) as u8).collect();
        let coded = ConvEncoder::new().encode_terminated(&data);
        let dec = ViterbiDecoder::new();
        assert_eq!(
            dec.try_decode_hard(&coded, data.len()).unwrap(),
            dec.decode_hard(&coded, data.len())
        );
        let stream = ConvEncoder::new().encode(&data);
        let llrs: Vec<f64> = stream.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        assert_eq!(
            dec.try_decode_soft_unterminated(&llrs, data.len()).unwrap(),
            dec.decode_soft_unterminated(&llrs, data.len())
        );
    }

    /// The scalar reference trellis the kernel must match bit-for-bit: the
    /// original per-(prev, input) loop with tuple survivors, kept here as a
    /// test oracle.
    fn reference_trellis(llrs: &[f64], total_steps: usize, keep: usize, terminated: bool) -> Vec<u8> {
        let mut metrics = vec![NEG_INF; NUM_STATES];
        metrics[0] = 0.0;
        let mut next_metrics = vec![NEG_INF; NUM_STATES];
        let mut survivors = vec![[(0u32, 0u8); NUM_STATES]; total_steps];
        for t in 0..total_steps {
            let la = llrs[2 * t];
            let lb = llrs[2 * t + 1];
            next_metrics.fill(NEG_INF);
            for state in 0..NUM_STATES as u32 {
                let m = metrics[state as usize];
                if m == NEG_INF {
                    continue;
                }
                for input in 0..=1u8 {
                    let (a, b, next) = trellis_step(state, input);
                    let branch = if a == 0 { la } else { -la } + if b == 0 { lb } else { -lb };
                    let cand = m + branch;
                    if cand > next_metrics[next as usize] {
                        next_metrics[next as usize] = cand;
                        survivors[t][next as usize] = (state, input);
                    }
                }
            }
            std::mem::swap(&mut metrics, &mut next_metrics);
        }
        let mut state = if terminated {
            0u32
        } else {
            let mut best = 0u32;
            for s in 1..NUM_STATES as u32 {
                if metrics[s as usize].total_cmp(&metrics[best as usize])
                    != std::cmp::Ordering::Less
                {
                    best = s;
                }
            }
            best
        };
        let mut decoded = vec![0u8; total_steps];
        for t in (0..total_steps).rev() {
            let (prev, input) = survivors[t][state as usize];
            decoded[t] = input;
            state = prev;
        }
        decoded.truncate(keep);
        decoded
    }

    #[test]
    fn kernel_matches_scalar_reference_bitwise() {
        // Noisy LLRs across many lengths, terminated and not: the u64
        // survivor kernel reproduces the tuple-survivor reference exactly.
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(99);
        let mut kernel = ViterbiKernel::new();
        for &n in &[1usize, 2, 7, 24, 48, 96, 200] {
            for trial in 0..4 {
                let data: Vec<u8> = (0..n).map(|_| (rng.gen::<u64>() & 1) as u8).collect();
                let coded = ConvEncoder::new().encode_terminated(&data);
                let llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_range(-1.5..1.5))
                    .collect();
                let reference = reference_trellis(&llrs, n + TAIL, n, true);
                let got = kernel.decode(FrameLlrs::terminated(&llrs, n)).unwrap();
                assert_eq!(got, reference, "terminated n={n} trial={trial}");

                let stream = ConvEncoder::new().encode(&data);
                let sllrs: Vec<f64> = stream
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_range(-1.5..1.5))
                    .collect();
                let reference = reference_trellis(&sllrs, n, n, false);
                let got = kernel.decode(FrameLlrs::unterminated(&sllrs, n)).unwrap();
                assert_eq!(got, reference, "unterminated n={n} trial={trial}");
            }
        }
    }

    #[test]
    fn batch_equals_one_at_a_time() {
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(7);
        let frames: Vec<(Vec<f64>, usize)> = [12usize, 40, 12, 96]
            .iter()
            .map(|&n| {
                let data: Vec<u8> = (0..n).map(|_| (rng.gen::<u64>() & 1) as u8).collect();
                let coded = ConvEncoder::new().encode_terminated(&data);
                let llrs = coded
                    .iter()
                    .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + rng.gen_range(-1.0..1.0))
                    .collect();
                (llrs, n)
            })
            .collect();
        let refs: Vec<FrameLlrs<'_>> = frames
            .iter()
            .map(|(llrs, n)| FrameLlrs::terminated(llrs, *n))
            .collect();
        let mut kernel = ViterbiKernel::new();
        let batched = kernel.decode_batch(&refs).unwrap();
        for (frame, want) in refs.iter().zip(&batched) {
            let mut fresh = ViterbiKernel::new();
            assert_eq!(fresh.decode(*frame).unwrap(), *want);
        }
    }

    #[test]
    fn batch_rejects_any_bad_frame_up_front() {
        let good = [1.0f64; 16]; // 2 info bits terminated
        let bad = [1.0f64; 5];
        let mut kernel = ViterbiKernel::new();
        let err = kernel
            .decode_batch(&[
                FrameLlrs::terminated(&good, 2),
                FrameLlrs::unterminated(&bad, 4),
            ])
            .unwrap_err();
        assert_eq!(err, WlanError::LengthMismatch { expected: 8, got: 5 });
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let data = vec![1u8, 0, 1, 1, 0, 0, 1, 0];
        let coded = ConvEncoder::new().encode_terminated(&data);
        let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 4.0 } else { -4.0 }).collect();
        let mut kernel = ViterbiKernel::new();
        let mut bits = vec![9u8; 100]; // stale content must be cleared
        kernel
            .decode_into(FrameLlrs::terminated(&llrs, data.len()), &mut bits)
            .unwrap();
        assert_eq!(bits, data);
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::convolutional::ConvEncoder;

    #[test]
    #[ignore = "manual timing probe"]
    fn time_both_paths() {
        // Per-step cost of every path this CPU supports, on an 800-bit
        // terminated frame and on the 9 624-step unterminated stream of a
        // 1200-byte OFDM frame.
        use wlan_math::rng::{Rng, WlanRng};
        let mut rng = WlanRng::seed_from_u64(5);
        for (n, terminated, reps) in [(800usize, true, 400), (9624, false, 40)] {
            let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = if terminated {
                ConvEncoder::new().encode_terminated(&data)
            } else {
                ConvEncoder::new().encode(&data)
            };
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| (if b == 0 { 1.0 } else { -1.0 }) + 0.3 * rng.gen_gaussian())
                .collect();
            let frame = FrameLlrs { llrs: &llrs, num_bits: n, terminated };
            let steps = llrs.len() / 2;
            println!("detected: {:?}", AcsPath::detect());
            // Min over interleaved rounds: the paths share each time window.
            let mut kernels: Vec<(ViterbiKernel, f64)> = AcsPath::supported()
                .into_iter()
                .map(|path| (ViterbiKernel::new().on_path(path), f64::INFINITY))
                .collect();
            let mut bits = Vec::new();
            for _round in 0..7 {
                for (kernel, best) in &mut kernels {
                    let t = std::time::Instant::now();
                    for _ in 0..reps {
                        kernel.decode_into(frame, &mut bits).unwrap();
                        std::hint::black_box(&bits);
                    }
                    *best = best.min(t.elapsed().as_secs_f64() / reps as f64);
                }
            }
            for (kernel, per_frame) in &kernels {
                println!(
                    "{:?} {steps} steps: {:.1} us/frame, {:.1} ns/step",
                    kernel.path,
                    per_frame * 1e6,
                    per_frame * 1e9 / steps as f64
                );
            }
        }
    }
}
