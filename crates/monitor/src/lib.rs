//! # adapipe-monitor
//!
//! Resource measurement and forecasting for the adaptive pipeline —
//! the stand-in for the Network Weather Service (Wolski et al., 1999)
//! that grid deployments of the pattern would query.
//!
//! The adaptive pipeline pattern decides *when and where* to move stages
//! based on predictions of node availability, per-stage work, and link
//! cost. This crate supplies:
//!
//! * [`forecast`] — a family of one-step-ahead predictors (persistence,
//!   running/sliding mean, sliding median, fixed and adaptive EWMA) and an
//!   NWS-style [`forecast::Ensemble`] that dynamically selects the member
//!   with the lowest trailing error;
//! * [`series`] — bounded observation windows;
//! * [`sensor`] — dense forecaster banks keyed by metric index, plus
//!   deterministic observation noise for robustness experiments;
//! * [`stats`] — streaming moments, quantiles, and forecast-error metrics.
//!
//! The crate is dependency-free and clock-agnostic: timestamps are plain
//! `f64` seconds supplied by the caller (simulated or wall time).
//!
//! ## Example
//!
//! ```
//! use adapipe_monitor::prelude::*;
//!
//! let mut bank = MetricBank::new(1, 16);
//! for step in 0..50 {
//!     let availability = if step < 25 { 1.0 } else { 0.25 };
//!     bank.observe(0, step as f64, availability);
//! }
//! // After the load step the forecast tracks the new level.
//! assert!((bank.predict(0).unwrap() - 0.25).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod forecast;
pub mod sensor;
pub mod series;
pub mod stats;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::forecast::{
        AdaptiveEwma, Ensemble, Ewma, Forecaster, LastValue, RunningMean, SlidingMean,
        SlidingMedian,
    };
    pub use crate::sensor::{ForecasterKind, MetricBank, NoisyChannel};
    pub use crate::series::ObservationWindow;
    pub use crate::stats::{median, quantile_sorted, ErrorStats, Welford};
}

pub use prelude::*;
