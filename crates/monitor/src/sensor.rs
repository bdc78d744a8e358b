//! Sensors: keyed forecaster banks and observation noise.
//!
//! A [`MetricBank`] is what the adaptive controller actually holds: one
//! forecaster per monitored quantity (node availability, stage work,
//! link cost), indexed densely. [`NoisyChannel`] perturbs measurements to
//! model imperfect grid sensors; experiments use it to check the
//! controller tolerates realistic observation error.

use crate::forecast::{
    AdaptiveEwma, Ensemble, Ewma, Forecaster, LastValue, RunningMean, SlidingMean, SlidingMedian,
};

/// Which predictor family a [`MetricBank`] instantiates per metric —
/// exposed so ablation experiments can quantify the value of the NWS
/// ensemble against its individual members.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ForecasterKind {
    /// NWS-style dynamic selection over the whole family (the default).
    #[default]
    NwsEnsemble,
    /// Persistence only.
    LastValue,
    /// Running mean of all history.
    RunningMean,
    /// Mean over the observation window.
    SlidingMean,
    /// Median over the observation window.
    SlidingMedian,
    /// Fixed-gain EWMA (α = 0.3).
    Ewma,
    /// Error-adaptive EWMA.
    AdaptiveEwma,
}

impl ForecasterKind {
    /// Instantiates one forecaster of this kind.
    pub fn build(self, window: usize) -> Box<dyn Forecaster> {
        match self {
            ForecasterKind::NwsEnsemble => Box::new(Ensemble::nws_default(window)),
            ForecasterKind::LastValue => Box::new(LastValue::new()),
            ForecasterKind::RunningMean => Box::new(RunningMean::new()),
            ForecasterKind::SlidingMean => Box::new(SlidingMean::new(window)),
            ForecasterKind::SlidingMedian => Box::new(SlidingMedian::new(window)),
            ForecasterKind::Ewma => Box::new(Ewma::new(0.3)),
            ForecasterKind::AdaptiveEwma => Box::new(AdaptiveEwma::new(0.05, 0.9)),
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ForecasterKind::NwsEnsemble => "nws_ensemble",
            ForecasterKind::LastValue => "last_value",
            ForecasterKind::RunningMean => "running_mean",
            ForecasterKind::SlidingMean => "sliding_mean",
            ForecasterKind::SlidingMedian => "sliding_median",
            ForecasterKind::Ewma => "ewma",
            ForecasterKind::AdaptiveEwma => "adaptive_ewma",
        }
    }

    /// Every kind, for sweep experiments.
    pub fn all() -> [ForecasterKind; 7] {
        [
            ForecasterKind::NwsEnsemble,
            ForecasterKind::LastValue,
            ForecasterKind::RunningMean,
            ForecasterKind::SlidingMean,
            ForecasterKind::SlidingMedian,
            ForecasterKind::Ewma,
            ForecasterKind::AdaptiveEwma,
        ]
    }
}

/// A dense bank of independent forecasters, one per monitored metric.
pub struct MetricBank {
    metrics: Vec<Box<dyn Forecaster>>,
    window: usize,
    kind: ForecasterKind,
}

impl MetricBank {
    /// Creates a bank of `n` NWS-default ensembles with the given
    /// observation window.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(n: usize, window: usize) -> Self {
        MetricBank::with_kind(n, window, ForecasterKind::NwsEnsemble)
    }

    /// Creates a bank of `n` forecasters of the given kind.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn with_kind(n: usize, window: usize, kind: ForecasterKind) -> Self {
        assert!(window > 0, "window must be positive");
        MetricBank {
            metrics: (0..n).map(|_| kind.build(window)).collect(),
            window,
            kind,
        }
    }

    /// Number of metrics tracked.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if the bank tracks no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The configured observation window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feeds one observation of metric `idx` at time `t`.
    pub fn observe(&mut self, idx: usize, t: f64, value: f64) {
        self.metrics[idx].observe(t, value);
    }

    /// Forecast for metric `idx`, or `None` before any observation.
    pub fn predict(&self, idx: usize) -> Option<f64> {
        self.metrics[idx].predict()
    }

    /// Forecast for metric `idx`, falling back to `default` when the
    /// metric has never been observed.
    pub fn predict_or(&self, idx: usize, default: f64) -> f64 {
        self.predict(idx).unwrap_or(default)
    }

    /// Clears all learned state (e.g. after a migration invalidates
    /// node-specific history).
    pub fn reset(&mut self, idx: usize) {
        self.metrics[idx].reset();
    }

    /// The predictor family this bank instantiates.
    pub fn kind(&self) -> ForecasterKind {
        self.kind
    }

    /// Direct access to the underlying forecaster of metric `idx`.
    pub fn forecaster(&self, idx: usize) -> &dyn Forecaster {
        self.metrics[idx].as_ref()
    }
}

/// Multiplicative observation noise: `observe(v) = v · (1 + ε)` with `ε`
/// uniform in `[-magnitude, magnitude]`, deterministic per seed.
#[derive(Clone, Debug)]
pub struct NoisyChannel {
    state: u64,
    magnitude: f64,
}

impl NoisyChannel {
    /// Creates a channel with the given relative noise magnitude
    /// (`0.05` = ±5 %).
    ///
    /// # Panics
    /// Panics if `magnitude` is negative or ≥ 1.
    pub fn new(seed: u64, magnitude: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&magnitude),
            "magnitude must be in [0,1)"
        );
        NoisyChannel {
            state: seed.max(1),
            magnitude,
        }
    }

    /// A noiseless channel.
    pub fn clean() -> Self {
        NoisyChannel {
            state: 1,
            magnitude: 0.0,
        }
    }

    /// Perturbs one measurement.
    pub fn perturb(&mut self, value: f64) -> f64 {
        if self.magnitude == 0.0 {
            return value;
        }
        // xorshift64* — tiny, deterministic, plenty for noise.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        let eps = (2.0 * u - 1.0) * self.magnitude;
        value * (1.0 + eps)
    }

    /// The configured noise magnitude.
    pub fn magnitude(&self) -> f64 {
        self.magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_tracks_metrics_independently() {
        let mut b = MetricBank::new(2, 8);
        for i in 0..20 {
            b.observe(0, i as f64, 1.0);
            b.observe(1, i as f64, 5.0);
        }
        assert!((b.predict(0).unwrap() - 1.0).abs() < 1e-9);
        assert!((b.predict(1).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn predict_or_falls_back() {
        let b = MetricBank::new(1, 4);
        assert_eq!(b.predict(0), None);
        assert_eq!(b.predict_or(0, 0.5), 0.5);
    }

    #[test]
    fn reset_forgets_one_metric_only() {
        let mut b = MetricBank::new(2, 4);
        b.observe(0, 0.0, 1.0);
        b.observe(1, 0.0, 2.0);
        b.reset(0);
        assert_eq!(b.predict(0), None);
        assert_eq!(b.predict(1), Some(2.0));
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let mut a = NoisyChannel::new(9, 0.1);
        let mut b = NoisyChannel::new(9, 0.1);
        for _ in 0..1000 {
            let va = a.perturb(10.0);
            let vb = b.perturb(10.0);
            assert_eq!(va, vb);
            assert!((9.0..=11.0).contains(&va), "va={va}");
        }
    }

    #[test]
    fn clean_channel_is_identity() {
        let mut c = NoisyChannel::clean();
        assert_eq!(c.perturb(3.25), 3.25);
        assert_eq!(c.magnitude(), 0.0);
    }

    #[test]
    fn noise_has_roughly_zero_mean() {
        let mut c = NoisyChannel::new(17, 0.2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| c.perturb(1.0)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "magnitude")]
    fn bad_magnitude_panics() {
        let _ = NoisyChannel::new(1, 1.5);
    }
}
