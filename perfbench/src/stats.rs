//! Summary statistics the benchmark reports: medians, the deepest tail
//! percentile a sample can support, p99 from obs histogram buckets, span
//! coverage, and result digests.

use wlan_obs::HistSnapshot;

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// The highest percentile of an `n`-sample distribution that still has at
/// least ten samples beyond it, as a fraction in `(0, 1)`: `1 − 10/n`.
/// `None` when `n < 20`, where that percentile would sit at or below the
/// median and says nothing about the tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some(1.0 - 10.0 / n as f64)
}

/// The value at [`tail_percentile`] of `xs`: the sample with exactly ten
/// samples above it. `None` when the sample is too small.
pub fn tail_value(xs: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(xs.len())?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((p, v[v.len() - 11]))
}

/// The 99th percentile of a histogram in nanoseconds, read from its
/// power-of-two buckets: find the bucket holding the 99th-percentile rank
/// and interpolate linearly inside it, clamped to the recorded maximum.
/// `None` for an empty histogram.
pub fn p99_from_buckets(h: &HistSnapshot) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let rank = 0.99 * h.count as f64;
    let mut below = 0u64;
    for &(upper, n) in &h.buckets {
        if (below + n) as f64 >= rank {
            // Bucket `i` holds values of bit length `i`: `[2^(i-1), 2^i − 1]`
            // for `upper = 2^i − 1`, and exactly 0 for `upper = 0`.
            let lower = if upper == 0 { 0 } else { upper / 2 + 1 };
            let frac = ((rank - below as f64) / n as f64).clamp(0.0, 1.0);
            let est = lower as f64 + frac * (upper - lower) as f64;
            return Some(est.clamp(h.min_ns as f64, h.max_ns as f64));
        }
        below += n;
    }
    Some(h.max_ns as f64)
}

/// The share of `threads` workers' wall time that recorded spans account
/// for: `span_ns / (wall_ns × threads)`. Zero when nothing was timed.
pub fn coverage(span_ns: f64, wall_ns: f64, threads: usize) -> f64 {
    let denom = wall_ns * threads as f64;
    if denom > 0.0 {
        span_ns / denom
    } else {
        0.0
    }
}

/// FNV-1a-64 accumulator for result digests: fold in integers, floats
/// (exact bits) and strings, then read the hash.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds an integer (little-endian bytes).
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Folds a float by its exact bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// Folds a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(buckets: &[(u64, u64)], min: u64, max: u64) -> HistSnapshot {
        HistSnapshot {
            count: buckets.iter().map(|b| b.1).sum(),
            sum_ns: 0,
            min_ns: min,
            max_ns: max,
            buckets: buckets.to_vec(),
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(1000), Some(0.99));
        for n in [20usize, 37, 100, 1000, 12345] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, v) = tail_value(&xs).expect("n >= 20");
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert!((p - (1.0 - 10.0 / n as f64)).abs() < 1e-12);
        }
        assert_eq!(tail_value(&[1.0; 5]), None);
    }

    #[test]
    fn p99_reads_the_bucket_holding_the_rank() {
        assert_eq!(p99_from_buckets(&hist(&[], 0, 0)), None);
        // 100 values: 98 in [512, 1023], 2 in [4096, 8191]. Rank 99 falls
        // in the upper bucket, halfway through its two samples.
        let h = hist(&[(1023, 98), (8191, 2)], 600, 8000);
        let p = p99_from_buckets(&h).expect("nonempty");
        assert!((p - (4096.0 + 0.5 * 4095.0)).abs() < 1e-9, "{p}");
        // Clamped to the recorded extremes.
        let one = hist(&[(1023, 1)], 700, 700);
        assert_eq!(p99_from_buckets(&one), Some(700.0));
        let zeros = hist(&[(0, 10)], 0, 0);
        assert_eq!(p99_from_buckets(&zeros), Some(0.0));
    }

    #[test]
    fn p99_agrees_with_a_recorder_histogram() {
        let rec = wlan_obs::Recorder::new(true);
        let h = rec.histogram("t");
        for i in 1..=1000u64 {
            h.record_ns(i * 1000);
        }
        let p = p99_from_buckets(&h.snapshot()).expect("nonempty");
        // True p99 is 990 µs; a power-of-two bucket bounds it within 2×.
        assert!((990_000.0 / 2.0..=990_000.0 * 2.0).contains(&p), "{p}");
    }

    #[test]
    fn coverage_is_span_time_over_worker_time() {
        assert_eq!(coverage(1.0, 0.0, 2), 0.0);
        assert!((coverage(150.0, 100.0, 2) - 0.75).abs() < 1e-12);
        assert!((coverage(90.0, 100.0, 1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.str("ofdm").u64(7).f64(0.25);
        // Pinned: a digest that moves would silently invalidate every
        // golden value the workloads check against.
        assert_eq!(a.value(), 0xaded_4160_3047_9fed);
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        let mut c = Digest::default();
        c.f64(0.25).u64(7).str("ofdm");
        assert_ne!(a.value(), c.value());
        let (mut x, mut y) = (Digest::default(), Digest::default());
        x.str("ab").str("c");
        y.str("a").str("bc");
        assert_ne!(x.value(), y.value());
    }
}
