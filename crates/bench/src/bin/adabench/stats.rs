//! Order statistics over rep timings: a metric is an order statistic
//! over many timed reps, never one timing.

/// Linear-interpolated quantile of an ascending slice at `q ∈ [0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `[q1, q2, q3]` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method) — the rule the acceptance check uses,
/// so `--selfcheck` reports the same spread the driver will see.
pub fn quartiles_exclusive(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative when `j` was clamped up (two values): Python then
        // extrapolates below the smaller one, and so does this.
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Median, quartiles, extremes and count of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        }
    }

    /// A summary of one exact value (counts, simulated outcomes).
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            min: value,
            q1: value,
            median: value,
            q3: value,
            max: value,
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_small_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.n, 5);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_exclusive(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            [1.5, 4.0, 12.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn quantile_clamps_its_argument() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(quantile_sorted(&v, -1.0), 1.0);
        assert_eq!(quantile_sorted(&v, 2.0), 3.0);
        assert_eq!(quantile_sorted(&v, 0.99), 2.98);
    }
}
