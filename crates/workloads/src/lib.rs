//! # adapipe-workloads
//!
//! Workload generators and domain kernels for the adaptive-pipeline
//! evaluation:
//!
//! * [`imaging`] — a real image-processing pipeline (3×3 box blur,
//!   Sobel, uniform posterisation, pixel-sum checksum) over
//!   deterministic synthetic frames;
//! * [`signal`] — a real FIR filter-chain pipeline over synthetic sample
//!   frames;
//! * [`scenario`] — the named synthetic pipeline shapes the experiments
//!   reference (balanced / middle-heavy / ramp cost shapes), plus the
//!   spin-based threaded twin of any simulated spec.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod imaging;
pub mod scenario;
pub mod signal;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::imaging::{blur, imaging_pipeline, quantise, sobel, Image};
    pub use crate::scenario::{synth_items, synth_pipeline, synthetic_spec, CostShape, SynthItem};
    pub use crate::signal::{signal_pipeline, Frame};
}

pub use prelude::*;
