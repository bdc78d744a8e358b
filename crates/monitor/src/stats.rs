//! Small statistics toolbox: streaming moments, quantiles, error metrics.
//!
//! Kept dependency-free; everything here is exact arithmetic over `f64`.

/// Streaming mean/variance via Welford's algorithm.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or `None` before any sample.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance, or `None` with fewer than two samples.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation, or `None` with fewer than two samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Adds `k` samples all equal to `x` in O(1) — the merge of a
    /// zero-variance batch. Count, sum and mean stay exact; only the
    /// within-batch spread is collapsed, so callers that absorb whole
    /// windows of identically-attributed measurements (batched
    /// engines) keep exact first moments at O(batches) cost.
    pub fn push_n(&mut self, x: f64, k: u64) {
        if k == 0 {
            return;
        }
        self.merge(&Welford {
            n: k,
            mean: x,
            m2: 0.0,
        });
    }

    /// Merges another accumulator into this one — the exact parallel
    /// combination (Chan et al.), so per-worker accumulators fold into
    /// the same moments a single stream would have produced.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.mean += delta * other.n as f64 / n;
        self.n += other.n;
    }
}

/// Linear-interpolated quantile of a **sorted** slice, `q ∈ [0, 1]`.
///
/// # Panics
/// Panics if the slice is empty or `q` is out of range.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median of an unsorted slice (copies and sorts internally).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    Some(quantile_sorted(&v, 0.5))
}

/// Accumulates forecast errors and reports MAE and mean error (bias).
#[derive(Clone, Debug, Default)]
pub struct ErrorStats {
    n: u64,
    abs_sum: f64,
    signed_sum: f64,
}

impl ErrorStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(predicted, actual)` pair.
    pub fn record(&mut self, predicted: f64, actual: f64) {
        let e = predicted - actual;
        self.n += 1;
        self.abs_sum += e.abs();
        self.signed_sum += e;
    }

    /// Number of pairs recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean absolute error, or `None` before any pair.
    pub fn mae(&self) -> Option<f64> {
        (self.n > 0).then(|| self.abs_sum / self.n as f64)
    }

    /// Mean signed error (positive = over-prediction), or `None` if empty.
    pub fn bias(&self) -> Option<f64> {
        (self.n > 0).then(|| self.signed_sum / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((w.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn push_n_matches_repeated_push() {
        let mut batched = Welford::new();
        let mut streamed = Welford::new();
        batched.push(1.0);
        streamed.push(1.0);
        batched.push_n(4.0, 5);
        for _ in 0..5 {
            streamed.push(4.0);
        }
        assert_eq!(batched.count(), streamed.count());
        assert!((batched.mean().unwrap() - streamed.mean().unwrap()).abs() < 1e-12);
        assert!((batched.variance().unwrap() - streamed.variance().unwrap()).abs() < 1e-12);
        // k = 0 is a no-op.
        batched.push_n(100.0, 0);
        assert_eq!(batched.count(), 6);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        w.push(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.variance(), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert!((quantile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn error_stats_compute_mae_and_bias() {
        let mut e = ErrorStats::new();
        e.record(1.0, 2.0); // error -1
        e.record(4.0, 2.0); // error +2
        assert_eq!(e.count(), 2);
        assert!((e.mae().unwrap() - 1.5).abs() < 1e-12);
        assert!((e.bias().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn error_stats_empty() {
        let e = ErrorStats::new();
        assert_eq!(e.mae(), None);
        assert_eq!(e.bias(), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let _ = quantile_sorted(&[], 0.5);
    }
}
