//! NWS-style time-series forecasters.
//!
//! The Network Weather Service (Wolski et al., FGCS 1999) popularised a
//! simple but effective scheme for grid resource prediction: run a family
//! of cheap predictors in parallel, track each one's recent error, and
//! answer queries with the currently most accurate member. This module
//! reproduces that design: individual predictors implement
//! [`Forecaster`]; [`Ensemble`] performs the dynamic selection.

use crate::series::ObservationWindow;
use crate::stats::quantile_sorted;

/// A single-quantity time-series predictor.
///
/// `observe` feeds one measurement; `predict` returns the forecast for
/// the next measurement, or `None` before any data has been seen.
pub trait Forecaster: Send {
    /// Feeds one observation taken at time `t` (seconds, non-decreasing).
    fn observe(&mut self, t: f64, value: f64);

    /// Forecast for the next observation, if any data has been seen.
    fn predict(&self) -> Option<f64>;

    /// A short stable name for reports.
    fn name(&self) -> &'static str;

    /// Discards all learned state.
    fn reset(&mut self);
}

/// Predicts the most recent observation (a.k.a. naive or persistence
/// forecast). Hard to beat on slowly-varying series.
#[derive(Clone, Debug, Default)]
pub struct LastValue {
    last: Option<f64>,
}

impl LastValue {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Forecaster for LastValue {
    fn observe(&mut self, _t: f64, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
    fn name(&self) -> &'static str {
        "last_value"
    }
    fn reset(&mut self) {
        self.last = None;
    }
}

/// Predicts the mean of all observations so far.
#[derive(Clone, Debug, Default)]
pub struct RunningMean {
    n: u64,
    sum: f64,
}

impl RunningMean {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Forecaster for RunningMean {
    fn observe(&mut self, _t: f64, value: f64) {
        self.n += 1;
        self.sum += value;
    }
    fn predict(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
    fn name(&self) -> &'static str {
        "running_mean"
    }
    fn reset(&mut self) {
        self.n = 0;
        self.sum = 0.0;
    }
}

/// Predicts the mean of the last `w` observations.
#[derive(Clone, Debug)]
pub struct SlidingMean {
    window: ObservationWindow,
}

impl SlidingMean {
    /// Creates a predictor over a window of `w` observations.
    pub fn new(w: usize) -> Self {
        SlidingMean {
            window: ObservationWindow::new(w),
        }
    }
}

impl Forecaster for SlidingMean {
    fn observe(&mut self, t: f64, value: f64) {
        self.window.push(t, value);
    }
    fn predict(&self) -> Option<f64> {
        self.window.mean()
    }
    fn name(&self) -> &'static str {
        "sliding_mean"
    }
    fn reset(&mut self) {
        self.window.clear();
    }
}

/// Predicts the median of the last `w` observations — robust to the
/// availability spikes grid hosts exhibit.
#[derive(Clone, Debug)]
pub struct SlidingMedian {
    window: ObservationWindow,
    /// The window's values, kept sorted as a stable sort of the window
    /// would order them (equal values oldest first), so `predict` reads
    /// the median without copying or sorting.
    sorted: Vec<f64>,
}

impl SlidingMedian {
    /// Creates a predictor over a window of `w` observations.
    pub fn new(w: usize) -> Self {
        SlidingMedian {
            window: ObservationWindow::new(w),
            sorted: Vec::with_capacity(w),
        }
    }
}

impl Forecaster for SlidingMedian {
    fn observe(&mut self, t: f64, value: f64) {
        assert!(!value.is_nan(), "NaN in median input");
        if self.window.len() == self.window.capacity() {
            // The evicted value is the oldest, so the first of its equals.
            let (_, evicted) = self.window.oldest().expect("a full window");
            let at = self.sorted.partition_point(|&x| x < evicted);
            self.sorted.remove(at);
        }
        self.window.push(t, value);
        // The newest value goes after its equals.
        let at = self.sorted.partition_point(|&x| x <= value);
        self.sorted.insert(at, value);
    }
    fn predict(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| quantile_sorted(&self.sorted, 0.5))
    }
    fn name(&self) -> &'static str {
        "sliding_median"
    }
    fn reset(&mut self) {
        self.window.clear();
        self.sorted.clear();
    }
}

/// Exponentially weighted moving average with gain `alpha`.
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with gain `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is out of range.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, state: None }
    }
}

impl Forecaster for Ewma {
    fn observe(&mut self, _t: f64, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => s + self.alpha * (value - s),
        });
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
    fn name(&self) -> &'static str {
        "ewma"
    }
    fn reset(&mut self) {
        self.state = None;
    }
}

/// EWMA whose gain adapts to the prediction error trend: on large errors
/// the gain rises (track fast changes); on small errors it decays
/// (smooth noise). A cheap stand-in for NWS's gradient predictors.
#[derive(Clone, Debug)]
pub struct AdaptiveEwma {
    state: Option<f64>,
    alpha: f64,
    min_alpha: f64,
    max_alpha: f64,
    /// Smoothed absolute error scale used to normalise new errors.
    err_scale: f64,
}

impl AdaptiveEwma {
    /// Creates an adaptive EWMA with gain bounded to `[min_alpha, max_alpha]`.
    ///
    /// # Panics
    /// Panics unless `0 < min_alpha ≤ max_alpha ≤ 1`.
    pub fn new(min_alpha: f64, max_alpha: f64) -> Self {
        assert!(
            min_alpha > 0.0 && min_alpha <= max_alpha && max_alpha <= 1.0,
            "need 0 < min_alpha ≤ max_alpha ≤ 1"
        );
        AdaptiveEwma {
            state: None,
            alpha: (min_alpha + max_alpha) / 2.0,
            min_alpha,
            max_alpha,
            err_scale: 0.0,
        }
    }
}

impl Forecaster for AdaptiveEwma {
    fn observe(&mut self, _t: f64, value: f64) {
        match self.state {
            None => {
                self.state = Some(value);
                self.err_scale = value.abs().max(1e-12);
            }
            Some(s) => {
                let err = (value - s).abs();
                self.err_scale = 0.9 * self.err_scale + 0.1 * err.max(1e-12);
                // Normalised error ≥ 1 means "much larger than usual".
                let ratio = err / self.err_scale;
                if ratio > 1.5 {
                    self.alpha = (self.alpha * 1.5).min(self.max_alpha);
                } else {
                    self.alpha = (self.alpha * 0.95).max(self.min_alpha);
                }
                self.state = Some(s + self.alpha * (value - s));
            }
        }
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
    fn name(&self) -> &'static str {
        "adaptive_ewma"
    }
    fn reset(&mut self) {
        self.state = None;
        self.err_scale = 0.0;
        self.alpha = (self.min_alpha + self.max_alpha) / 2.0;
    }
}

/// NWS-style dynamic predictor selection: runs every member on each
/// observation, tracks each member's trailing mean absolute error over a
/// bounded horizon, and predicts with the current best member.
pub struct Ensemble {
    members: Vec<Box<dyn Forecaster>>,
    /// Trailing absolute errors per member (bounded FIFO).
    errors: Vec<ObservationWindow>,
    horizon: usize,
}

impl Ensemble {
    /// Builds an ensemble over `members`, scoring them by trailing MAE
    /// over the last `horizon` predictions.
    ///
    /// # Panics
    /// Panics if `members` is empty or `horizon` is zero.
    pub fn new(members: Vec<Box<dyn Forecaster>>, horizon: usize) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        assert!(horizon > 0, "error horizon must be positive");
        let errors = members
            .iter()
            .map(|_| ObservationWindow::new(horizon))
            .collect();
        Ensemble {
            members,
            errors,
            horizon,
        }
    }

    /// The default NWS-like family: persistence, running mean, sliding
    /// mean/median over `window`, and two EWMAs.
    pub fn nws_default(window: usize) -> Self {
        Ensemble::new(
            vec![
                Box::new(LastValue::new()),
                Box::new(RunningMean::new()),
                Box::new(SlidingMean::new(window)),
                Box::new(SlidingMedian::new(window)),
                Box::new(Ewma::new(0.3)),
                Box::new(Ewma::new(0.05)),
                Box::new(AdaptiveEwma::new(0.05, 0.9)),
            ],
            window,
        )
    }

    /// Index and name of the member that currently scores best, or `None`
    /// before any prediction has been scored.
    fn best_member(&self) -> Option<(usize, &'static str)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, errs) in self.errors.iter().enumerate() {
            let Some(mae) = errs.mean() else { continue };
            if best.is_none_or(|(_, b)| mae < b) {
                best = Some((i, mae));
            }
        }
        best.map(|(i, _)| (i, self.members[i].name()))
    }

    /// The scoring horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }
}

impl Forecaster for Ensemble {
    fn observe(&mut self, t: f64, value: f64) {
        // Score the members' previous predictions against this value
        // before updating them (one-step-ahead evaluation).
        for (member, errs) in self.members.iter().zip(self.errors.iter_mut()) {
            if let Some(pred) = member.predict() {
                errs.push(t, (pred - value).abs());
            }
        }
        for member in &mut self.members {
            member.observe(t, value);
        }
    }

    fn predict(&self) -> Option<f64> {
        match self.best_member() {
            Some((i, _)) => self.members[i].predict(),
            // No member scored yet: fall back to the first member that
            // can predict at all (typically after one observation).
            None => self.members.iter().find_map(|m| m.predict()),
        }
    }

    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
        for e in &mut self.errors {
            e.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(f: &mut dyn Forecaster, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            f.observe(i as f64, v);
        }
    }

    #[test]
    fn last_value_is_persistence() {
        let mut f = LastValue::new();
        assert_eq!(f.predict(), None);
        feed(&mut f, &[1.0, 2.0, 7.0]);
        assert_eq!(f.predict(), Some(7.0));
        f.reset();
        assert_eq!(f.predict(), None);
    }

    #[test]
    fn running_mean_averages_everything() {
        let mut f = RunningMean::new();
        feed(&mut f, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.predict(), Some(2.5));
    }

    #[test]
    fn sliding_mean_forgets_old_samples() {
        let mut f = SlidingMean::new(2);
        feed(&mut f, &[100.0, 1.0, 3.0]);
        assert_eq!(f.predict(), Some(2.0));
    }

    #[test]
    fn sliding_median_resists_outliers() {
        let mut f = SlidingMedian::new(5);
        feed(&mut f, &[1.0, 1.0, 1.0, 1.0, 100.0]);
        assert_eq!(f.predict(), Some(1.0));
    }

    #[test]
    fn sliding_median_equals_the_median_of_its_window_bit_for_bit() {
        use crate::stats::median;
        use std::collections::VecDeque;
        // A seeded stream over few distinct values, ±0 among them, so
        // duplicates and evictions of equal values are the common case.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 11 {
                0 => -0.0,
                1 => 0.0,
                k => (k % 6) as f64 * 0.25,
            }
        };
        for w in [1, 2, 5, 16] {
            let mut f = SlidingMedian::new(w);
            let mut window = VecDeque::new();
            for i in 0..10_000 {
                if i == 5_000 {
                    f.reset();
                    window.clear();
                    assert_eq!(f.predict(), None);
                }
                let v = draw();
                f.observe(i as f64, v);
                window.push_back(v);
                if window.len() > w {
                    window.pop_front();
                }
                let want = median(window.make_contiguous()).map(f64::to_bits);
                assert_eq!(f.predict().map(f64::to_bits), want, "w {w}, step {i}");
            }
        }
    }

    #[test]
    fn ewma_converges_geometrically() {
        let mut f = Ewma::new(0.5);
        feed(&mut f, &[0.0, 1.0, 1.0]);
        // 0 → 0.5 → 0.75
        assert!((f.predict().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn adaptive_ewma_raises_alpha_on_step() {
        let mut f = AdaptiveEwma::new(0.05, 0.9);
        // Long stable phase drives alpha to the floor.
        for i in 0..200 {
            f.observe(i as f64, 1.0);
        }
        let low = f.alpha;
        assert!(low <= 0.06, "alpha should decay, got {low}");
        // A large step drives alpha back up.
        for i in 200..210 {
            f.observe(i as f64, 0.1);
        }
        assert!(f.alpha > low, "alpha should rise after a step");
        // And the forecast tracks the new level quickly.
        assert!((f.predict().unwrap() - 0.1).abs() < 0.2);
    }

    #[test]
    fn ensemble_picks_persistence_on_trends_and_median_on_noise() {
        // Slow ramp: persistence (last_value) has the lowest one-step error.
        let mut e = Ensemble::nws_default(8);
        for i in 0..100 {
            e.observe(i as f64, i as f64 * 0.01);
        }
        let (_, name) = e.best_member().expect("scored");
        assert_eq!(name, "last_value");

        // Frequent spikes (every 4th sample, so the 8-sample scoring
        // window always contains some): the median is robust;
        // persistence pays twice per spike.
        let mut e2 = Ensemble::nws_default(8);
        for i in 0..100 {
            let v = if i % 4 == 0 { 10.0 } else { 1.0 };
            e2.observe(i as f64, v);
        }
        let get = |n: &str| {
            let at = e2.members.iter().position(|m| m.name() == n);
            at.and_then(|i| e2.errors[i].mean()).expect("mae")
        };
        assert!(get("sliding_median") < get("last_value"));
    }

    #[test]
    fn ensemble_predicts_before_scoring() {
        let mut e = Ensemble::nws_default(4);
        assert_eq!(e.predict(), None);
        e.observe(0.0, 5.0);
        // One observation: members can predict, none scored yet.
        assert_eq!(e.predict(), Some(5.0));
    }

    #[test]
    fn ensemble_reset_clears_scores() {
        let mut e = Ensemble::nws_default(4);
        for i in 0..10 {
            e.observe(i as f64, 1.0);
        }
        assert!(e.best_member().is_some());
        e.reset();
        assert_eq!(e.best_member(), None);
        assert_eq!(e.predict(), None);
    }

    #[test]
    fn ensemble_tracks_constant_series_exactly() {
        let mut e = Ensemble::nws_default(8);
        for i in 0..50 {
            e.observe(i as f64, 0.7);
        }
        assert!((e.predict().unwrap() - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = Ensemble::new(vec![], 4);
    }
}
