//! Deterministic mergeable log-bucket quantile sketch — the one
//! distribution type of the metrics registry.
//!
//! The bucket layout is global and value-independent: every positive
//! `f64` maps to a bucket index derived from its bit pattern (sign,
//! exponent and the top [`MANTISSA_BITS`] mantissa bits), so two
//! sketches built on different workers — or merged in any order —
//! always agree bucket-for-bucket. That makes the merge exact: merging
//! is per-index counter addition, and the quantile read on a merged
//! sketch is byte-identical to the read on a sketch built from the
//! concatenated stream. The layout has no knobs, so no caller ever
//! picks bucket bounds.
//!
//! Bucket width is relative: with 7 mantissa bits each bucket spans a
//! ratio of at most `1 + 2⁻⁷` (≈ 0.8 %), so p50/p95/p99 reads carry
//! sub-percent relative error at any magnitude from `1e-300` to
//! `1e300` without configuration. All arithmetic is integer or exact
//! `f64` bit manipulation — no transcendental calls — so reads are
//! bitwise deterministic across platforms.

use std::collections::BTreeMap;

/// Mantissa bits kept in the bucket index: the log-bucket resolution.
pub const MANTISSA_BITS: u32 = 7;

const SHIFT: u32 = 52 - MANTISSA_BITS;

/// A deterministic mergeable quantile sketch over non-negative samples.
///
/// Values `<= 0` (and exact zeros) land in a dedicated zero bucket;
/// non-finite values are ignored. The bucket layout is a pure function
/// of the value bits, identical for every sketch instance, which is
/// what makes [`Sketch::merge`] worker-count invariant.
///
/// # Examples
///
/// ```
/// use adrias_obs::sketch::Sketch;
///
/// let mut a = Sketch::new();
/// let mut b = Sketch::new();
/// for v in [1.0, 2.0, 3.0] {
///     a.observe(v);
/// }
/// for v in [4.0, 5.0] {
///     b.observe(v);
/// }
/// a.merge(&b);
/// assert_eq!(a.count(), 5);
/// let p50 = a.quantile(0.5);
/// assert!((p50 - 3.0).abs() / 3.0 < 0.01, "p50 {p50}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    buckets: BTreeMap<u32, u64>,
    zero: u64,
    count: u64,
    min: f64,
    max: f64,
}

/// The bucket index of a strictly positive finite value: the top bits
/// of its IEEE-754 representation. Monotone in the value, so bucket
/// order equals value order.
fn bucket_index(v: f64) -> u32 {
    (v.to_bits() >> SHIFT) as u32
}

/// Lower edge of bucket `idx` (the smallest value mapping to it).
fn bucket_lo(idx: u32) -> f64 {
    f64::from_bits(u64::from(idx) << SHIFT)
}

/// Upper edge of bucket `idx` (exclusive).
fn bucket_hi(idx: u32) -> f64 {
    f64::from_bits(u64::from(idx + 1) << SHIFT)
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl Sketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Values `<= 0` count into the zero bucket;
    /// NaN and infinities are ignored.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(v.max(0.0));
        self.max = self.max.max(v.max(0.0));
        if v <= 0.0 {
            self.zero += 1;
        } else {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples that landed in the zero bucket (`v <= 0`).
    pub fn zero_count(&self) -> u64 {
        self.zero
    }

    /// Number of occupied log buckets (the zero bucket excluded).
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Smallest recorded sample (clamped at 0), or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (clamped at 0), or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self`: per-index counter addition. The
    /// layout is global, so the merge is exact and order-independent —
    /// a merged sketch answers quantiles byte-identically to one built
    /// from the concatenated sample stream.
    pub fn merge(&mut self, other: &Sketch) {
        if other.count == 0 {
            return;
        }
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with linear interpolation
    /// inside the hit bucket, clamped to the observed `[min, max]`.
    /// Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * (self.count - 1) as f64;
        let mut seen = 0.0f64;
        if self.zero > 0 {
            let c = self.zero as f64;
            if rank < c {
                return 0.0;
            }
            seen = c;
        }
        for (&idx, &count) in &self.buckets {
            let c = count as f64;
            if rank < seen + c {
                let frac = ((rank - seen + 0.5) / c).clamp(0.0, 1.0);
                let lo = bucket_lo(idx);
                let hi = bucket_hi(idx);
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_reads_zero() {
        // `default()` must be `new()`: a zeroed min would pin every
        // later sample's minimum at 0.
        assert_eq!(Sketch::default(), Sketch::new());
        let s = Sketch::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn bucket_index_is_monotone_in_the_value() {
        let values = [1e-9, 0.003, 0.5, 1.0, 1.001, 2.0, 99.7, 1e6, 1e12];
        for w in values.windows(2) {
            assert!(
                bucket_index(w[0]) <= bucket_index(w[1]),
                "index order inverted between {} and {}",
                w[0],
                w[1]
            );
        }
        for v in values {
            let idx = bucket_index(v);
            assert!(
                bucket_lo(idx) <= v && v < bucket_hi(idx),
                "{v} outside its bucket"
            );
        }
    }

    #[test]
    fn quantiles_carry_subpercent_relative_error() {
        let mut s = Sketch::new();
        for i in 1..=10_000u64 {
            s.observe(i as f64 * 0.01);
        }
        for (q, exact) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
            let got = s.quantile(q);
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.01, "q{q}: {got} vs {exact} (rel {rel:.4})");
        }
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let samples: Vec<f64> = (0..500).map(|i| 0.1 + (i as f64) * 0.37).collect();
        let mut whole = Sketch::new();
        for &v in &samples {
            whole.observe(v);
        }
        // Split across three "workers", merged in two different orders.
        let parts: Vec<Sketch> = samples
            .chunks(167)
            .map(|chunk| {
                let mut s = Sketch::new();
                for &v in chunk {
                    s.observe(v);
                }
                s
            })
            .collect();
        let mut fwd = Sketch::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Sketch::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(fwd.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    #[test]
    fn zero_and_negative_samples_land_in_the_zero_bucket() {
        let mut s = Sketch::new();
        for v in [0.0, -3.5, 0.0, 4.0] {
            s.observe(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.zero_count(), 3);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut s = Sketch::new();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        s.observe(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), 2.0);
    }

    #[test]
    fn single_sample_quantiles_return_that_sample() {
        let mut s = Sketch::new();
        s.observe(7.25);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 7.25, "q{q}");
        }
    }

    #[test]
    fn merge_into_empty_equals_clone() {
        let mut src = Sketch::new();
        for v in [1.0, 10.0, 100.0] {
            src.observe(v);
        }
        let mut dst = Sketch::new();
        dst.merge(&src);
        assert_eq!(dst, src);
        // Merging an empty sketch is a no-op.
        dst.merge(&Sketch::new());
        assert_eq!(dst, src);
    }
}
