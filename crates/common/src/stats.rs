//! Statistics primitives: counters, histograms and summary helpers.
//!
//! These are used by the memory system to report hit rates and traffic,
//! and by the experiment harness to aggregate per-task latencies into the
//! figures of the paper.

use serde::{Deserialize, Serialize};

/// A saturating event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` covers `[edges[i-1], edges[i])`, with an implicit final
/// bucket for values `>= edges.last()`.
///
/// Histograms over the *same* edges are mergeable ([`Histogram::merge`])
/// and quantile-queryable ([`Histogram::quantile`]): merging adds the
/// bucket counts (and pools min/max/sum), so percentiles of a merged
/// histogram come from the pooled samples — the right way to fold
/// per-seed tails, as opposed to averaging per-seed percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    /// Smallest recorded sample (`u64::MAX` when empty).
    min: u64,
    /// Largest recorded sample (`0` when empty).
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    pub fn new(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples (weighted insert).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.edges.partition_point(|&e| e <= value);
        self.counts[idx] += n;
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one: bucket counts add, and
    /// min/max/sum pool, so quantiles of the merged histogram are
    /// quantiles of the pooled sample set.
    ///
    /// # Panics
    ///
    /// Panics when the two histograms do not share identical bucket
    /// edges — counts over different buckets cannot be added
    /// meaningfully.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.edges, other.edges,
            "merging histograms requires identical bucket edges"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// An upper-bound estimate of the `q`-quantile of the recorded
    /// samples (`None` when empty); see [`bucket_quantile`] for the
    /// estimator and its documented error bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        bucket_quantile(&self.edges, &self.counts, self.max, q)
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fraction of samples in each bucket; sums to 1 for non-empty data.
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Raw bucket counts (`edges.len() + 1` entries).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket edges.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }
}

/// Upper-bound quantile estimate over bucketed counts — the estimator
/// behind [`Histogram::quantile`] and the runtime's compact latency
/// tail.
///
/// `edges` are the ascending bucket boundaries ([`Histogram`]
/// semantics: bucket `i` covers `[edges[i-1], edges[i])`, the final
/// bucket is `[edges.last(), ∞)`), `counts` has `edges.len() + 1`
/// entries, and `max` is the largest recorded sample (used to clamp
/// the open-ended final bucket). Returns `None` when `counts` is all
/// zero.
///
/// The estimate is the inclusive upper bound of the bucket holding the
/// `⌈q·n⌉`-th smallest sample (clamped to `max`). Two guarantees
/// follow, and the test suite checks both against exact sorted-sample
/// quantiles:
///
/// * **never an under-estimate** — `exact ≤ estimate` (conservative
///   for SLA/tail reporting);
/// * **bin-resolution error** — the estimate lies in the *same bucket*
///   as the exact order statistic, so `estimate − exact` is less than
///   that bucket's width. For geometric (e.g. power-of-two) edges this
///   is a bounded *relative* error: `estimate < 2 × exact` whenever
///   the exact value is at or above the bucket's lower edge ≥ 1.
pub fn bucket_quantile(edges: &[u64], counts: &[u64], max: u64, q: f64) -> Option<u64> {
    debug_assert_eq!(counts.len(), edges.len() + 1);
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let k = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= k {
            let upper_incl = edges.get(i).map_or(u64::MAX, |&e| e.saturating_sub(1));
            return Some(upper_incl.min(max));
        }
    }
    // Unreachable: cum == total >= k after the loop.
    Some(max)
}

/// Streaming mean/variance accumulator (Welford's algorithm), used by
/// the sweep layer's multi-seed statistics.
///
/// Numerically stable one-pass updates; `stddev` is the *sample*
/// standard deviation (`n - 1` denominator) and [`Welford::ci95`] the
/// half-width of the two-sided 95% Student-t confidence interval of
/// the mean.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0.0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval of the mean,
    /// `t(0.975, n-1) * stddev / sqrt(n)` (0.0 with fewer than two
    /// samples).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t95(self.n - 1) * self.stddev() / (self.n as f64).sqrt()
        }
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (the classic table for `df <= 30`, 1.96 asymptote beyond).
pub fn t95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Geometric mean of a slice of positive values (1.0 for empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Min/max fairness index used by the QoS evaluation (Section IV-A4):
/// the ratio of the slowest to the fastest normalized progress.
pub fn fairness(progresses: &[f64]) -> f64 {
    if progresses.is_empty() {
        return 1.0;
    }
    let min = progresses.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = progresses.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 {
        0.0
    } else {
        min / max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_bucketing() {
        // Buckets: [0,10), [10,20), [20,inf)
        let mut h = Histogram::new(&[10, 20]);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(25);
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.total(), 4);
        let f = h.fractions();
        assert!((f[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_weighted() {
        let mut h = Histogram::new(&[100]);
        h.record_n(5, 10);
        h.record_n(200, 30);
        assert_eq!(h.counts(), &[10, 30]);
        assert!((h.mean() - (5.0 * 10.0 + 200.0 * 30.0) / 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_edges() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn histogram_tracks_min_and_max() {
        let mut h = Histogram::new(&[10, 20]);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        h.record(15);
        h.record_n(3, 2);
        h.record(40);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(40));
        // Zero-weight inserts change nothing.
        h.record_n(1000, 0);
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_merge_pools_samples() {
        let mut a = Histogram::new(&[10, 20]);
        a.record(5);
        a.record(12);
        let mut b = Histogram::new(&[10, 20]);
        b.record(25);
        b.record_n(1, 3);
        a.merge(&b);
        assert_eq!(a.counts(), &[4, 1, 1]);
        assert_eq!(a.total(), 6);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(25));
        // The pooled mean covers all six samples (three weight-1 ones).
        let exact = (5.0 + 12.0 + 25.0 + 3.0 * 1.0) / 6.0;
        assert!((a.mean() - exact).abs() < 1e-12);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Histogram::new(&[10, 20]));
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "identical bucket edges")]
    fn histogram_merge_rejects_different_edges() {
        let mut a = Histogram::new(&[10]);
        a.merge(&Histogram::new(&[20]));
    }

    #[test]
    fn quantile_is_empty_safe_and_clamped() {
        let h = Histogram::new(&[10, 20]);
        assert_eq!(h.quantile(0.5), None);
        let mut h = Histogram::new(&[10, 20]);
        h.record(7);
        // One sample: every q maps to it; clamped to the recorded max.
        assert_eq!(h.quantile(0.0), Some(7));
        assert_eq!(h.quantile(0.5), Some(7));
        assert_eq!(h.quantile(1.0), Some(7));
        // Out-of-range q is clamped, not NaN'd.
        assert_eq!(h.quantile(-3.0), Some(7));
        assert_eq!(h.quantile(42.0), Some(7));
    }

    #[test]
    fn quantile_overflow_bucket_uses_the_recorded_max() {
        let mut h = Histogram::new(&[10]);
        h.record(5);
        h.record(1_000_000);
        // The p100 sample sits in the open-ended bucket: the estimate
        // is the recorded max, not u64::MAX.
        assert_eq!(h.quantile(1.0), Some(1_000_000));
        // The p25 sample is in [0, 10): upper bound 9, clamped by max.
        assert_eq!(h.quantile(0.25), Some(9));
    }

    /// Exact q-quantile of a sorted sample set under the same rank
    /// convention the estimator uses (the ⌈q·n⌉-th smallest).
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let k = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[(k - 1) as usize]
    }

    /// Bucket index of a value under Histogram semantics.
    fn bucket_of(edges: &[u64], v: u64) -> usize {
        edges.partition_point(|&e| e <= v)
    }

    #[test]
    fn quantile_matches_exact_sorted_quantiles_within_bin_error() {
        // Property test (hand-rolled, deterministic): random sample
        // sets through random geometric edge ladders; the histogram
        // estimate must never under-state the exact order statistic and
        // must land in the exact value's own bucket (error < bin
        // width). Merged histograms over random splits of the same
        // samples must agree with the unsplit histogram exactly.
        let mut rng = crate::SimRng::new(0xD1CE);
        for trial in 0..200 {
            // Edges: a geometric ladder with a random base and ratio.
            let base = 1 + rng.next_below(100);
            let levels = 3 + rng.next_below(10) as usize;
            let mut edges = Vec::with_capacity(levels);
            let mut e = base;
            for _ in 0..levels {
                edges.push(e);
                e = e.saturating_mul(2);
            }
            // Samples: mixture of uniform, clustered and heavy tail.
            let n = 1 + rng.next_below(300) as usize;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                let v = match rng.next_below(4) {
                    0 => rng.next_below(base * 2),
                    1 => base * 4 + rng.next_below(base),
                    2 => rng.next_below(*edges.last().unwrap() * 4),
                    _ => rng.next_below(16),
                };
                samples.push(v);
            }
            let mut h = Histogram::new(&edges);
            // Random split into two histograms merged back together —
            // quantiles must come from the pooled samples.
            let mut left = Histogram::new(&edges);
            let mut right = Histogram::new(&edges);
            for &s in &samples {
                h.record(s);
                if rng.next_below(2) == 0 {
                    left.record(s);
                } else {
                    right.record(s);
                }
            }
            left.merge(&right);
            assert_eq!(left, h, "trial {trial}: merge must pool exactly");

            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &q in &[0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let exact = exact_quantile(&sorted, q);
                let est = h.quantile(q).expect("non-empty");
                assert!(
                    est >= exact,
                    "trial {trial} q={q}: estimate {est} under-states exact {exact}"
                );
                assert_eq!(
                    bucket_of(&edges, est),
                    bucket_of(&edges, exact),
                    "trial {trial} q={q}: estimate {est} left exact {exact}'s bucket"
                );
            }
        }
    }

    #[test]
    fn welford_matches_two_pass_statistics() {
        // Fixture: {10, 12, 14} -> mean 12, sample stddev 2, and a 95%
        // CI half-width of t(0.975, 2) * 2 / sqrt(3) = 4.303 * 1.1547.
        let mut w = Welford::new();
        for v in [10.0, 12.0, 14.0] {
            w.record(v);
        }
        assert_eq!(w.count(), 3);
        assert!((w.mean() - 12.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
        assert!((w.ci95() - 4.303 * 2.0 / 3.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn welford_degenerate_counts_are_nan_free() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        assert_eq!(w.ci95(), 0.0);
        w.record(7.5);
        assert_eq!(w.mean(), 7.5);
        assert_eq!(w.stddev(), 0.0, "one sample has no spread");
        assert_eq!(w.ci95(), 0.0);
    }

    #[test]
    fn t_table_endpoints() {
        assert_eq!(t95(0), f64::INFINITY);
        assert!((t95(1) - 12.706).abs() < 1e-9);
        assert!((t95(2) - 4.303).abs() < 1e-9);
        assert!((t95(30) - 2.042).abs() < 1e-9);
        assert_eq!(t95(31), 1.96);
        assert_eq!(t95(10_000), 1.96);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn fairness_min_over_max() {
        assert!((fairness(&[0.5, 1.0]) - 0.5).abs() < 1e-12);
        assert!((fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(fairness(&[]), 1.0);
    }
}
