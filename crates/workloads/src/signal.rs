//! A signal-processing pipeline: FIR filter chain over sample frames.
//!
//! The second domain workload: frames of `f64` samples pass through a
//! chain of finite-impulse-response filters, then a power detector.
//! All arithmetic is real; frames are deterministic per index.

use adapipe_core::pipeline::{Pipeline, PipelineBuilder};
use adapipe_core::spec::StageSpec;
use adapipe_gridsim::rng::{mix, unit_f64};

/// A frame of time-domain samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// The samples.
    pub samples: Vec<f64>,
}

impl Frame {
    /// Deterministic synthetic frame: two tones plus uniform noise.
    pub fn synthetic(len: usize, index: u64) -> Self {
        assert!(len > 0, "frame must be non-empty");
        let samples = (0..len)
            .map(|i| {
                let t = i as f64 / len as f64;
                let noise = unit_f64(mix(index, i as u64)) - 0.5;
                (std::f64::consts::TAU * 5.0 * t).sin()
                    + 0.5 * (std::f64::consts::TAU * 50.0 * t).sin()
                    + 0.1 * noise
            })
            .collect();
        Frame { samples }
    }

    /// Mean signal power.
    pub fn power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s * s).sum::<f64>() / self.samples.len() as f64
    }
}

/// Applies a FIR filter (direct convolution, same-length output,
/// zero-padded history).
pub(crate) fn fir(frame: &Frame, taps: &[f64]) -> Frame {
    assert!(!taps.is_empty(), "filter needs at least one tap");
    let n = frame.samples.len();
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &tap) in taps.iter().enumerate() {
            if i >= k {
                acc += tap * frame.samples[i - k];
            }
        }
        *o = acc;
    }
    Frame { samples: out }
}

/// A windowed-sinc low-pass filter with `taps` coefficients and
/// normalised cutoff `fc ∈ (0, 0.5)`.
pub(crate) fn lowpass_taps(taps: usize, fc: f64) -> Vec<f64> {
    assert!(taps >= 3 && taps % 2 == 1, "need an odd tap count ≥ 3");
    assert!(fc > 0.0 && fc < 0.5, "cutoff must be in (0, 0.5)");
    let m = (taps - 1) as f64;
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let sinc = if x == 0.0 {
                2.0 * fc
            } else {
                (std::f64::consts::TAU * fc * x).sin() / (std::f64::consts::PI * x)
            };
            // Hamming window.
            let w = 0.54 - 0.46 * (std::f64::consts::TAU * i as f64 / m).cos();
            sinc * w
        })
        .collect();
    let sum: f64 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

/// Builds the 4-stage signal pipeline for frames of `frame_len` samples:
/// low-pass → decimate ×2 → band emphasis → power detect.
pub fn signal_pipeline(frame_len: usize) -> Pipeline<Frame, f64> {
    let bytes = (frame_len * 8) as u64;
    let lp = lowpass_taps(63, 0.1);
    let hp: Vec<f64> = {
        // Spectral inversion of a low-pass = crude high-pass emphasis.
        let mut t = lowpass_taps(31, 0.2);
        for (i, v) in t.iter_mut().enumerate() {
            *v = -*v;
            if i == 15 {
                *v += 1.0;
            }
        }
        t
    };
    PipelineBuilder::<Frame>::new()
        .input_bytes(bytes)
        .stage(
            StageSpec::balanced("lowpass", 2.0, bytes),
            move |f: Frame| fir(&f, &lp),
        )
        .stage(
            StageSpec::balanced("decimate", 0.2, bytes / 2),
            |f: Frame| Frame {
                samples: f.samples.iter().step_by(2).copied().collect(),
            },
        )
        .stage(
            StageSpec::balanced("emphasis", 1.0, bytes / 2),
            move |f: Frame| fir(&f, &hp),
        )
        .stage(StageSpec::balanced("power", 0.1, 8), |f: Frame| f.power())
        .build()
}

/// Generates `n` synthetic frames of `len` samples.
pub fn frames(len: usize, n: u64) -> Vec<Frame> {
    (0..n).map(|i| Frame::synthetic(len, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_frames_are_deterministic() {
        assert_eq!(Frame::synthetic(64, 1), Frame::synthetic(64, 1));
        assert_ne!(Frame::synthetic(64, 1), Frame::synthetic(64, 2));
    }

    #[test]
    fn identity_filter_is_identity() {
        let f = Frame::synthetic(32, 0);
        let out = fir(&f, &[1.0]);
        assert_eq!(out, f);
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        let taps = lowpass_taps(63, 0.05);
        // Pure high-frequency tone (period 4 samples).
        let hi = Frame {
            samples: (0..256)
                .map(|i| (std::f64::consts::TAU * i as f64 / 4.0).sin())
                .collect(),
        };
        // Pure low-frequency tone (period 128 samples).
        let lo = Frame {
            samples: (0..256)
                .map(|i| (std::f64::consts::TAU * i as f64 / 128.0).sin())
                .collect(),
        };
        let hi_out = fir(&hi, &taps).power();
        let lo_out = fir(&lo, &taps).power();
        assert!(
            hi_out < lo_out * 0.05,
            "high tone must be attenuated: hi={hi_out:.4}, lo={lo_out:.4}"
        );
    }

    #[test]
    fn lowpass_taps_sum_to_one() {
        let taps = lowpass_taps(31, 0.1);
        let sum: f64 = taps.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decimation_halves_length() {
        let p = signal_pipeline(128);
        let (_, mut stages, ..) = p.into_parts();
        let mut item: adapipe_core::stage::BoxedItem =
            adapipe_core::payload::Payload::new(Frame::synthetic(128, 0));
        stages[0]
            .process(&mut item)
            .expect("stages are type-aligned");
        stages[1]
            .process(&mut item)
            .expect("stages are type-aligned");
        let decimated = item.downcast::<Frame>().unwrap();
        assert_eq!(decimated.samples.len(), 64);
    }

    #[test]
    fn pipeline_produces_finite_power() {
        let p = signal_pipeline(128);
        let (_, mut stages, ..) = p.into_parts();
        let mut item: adapipe_core::stage::BoxedItem =
            adapipe_core::payload::Payload::new(Frame::synthetic(128, 3));
        for s in &mut stages {
            s.process(&mut item).expect("stages are type-aligned");
        }
        let power = item.downcast::<f64>().unwrap();
        assert!(power.is_finite() && power >= 0.0);
    }

    #[test]
    fn power_of_silence_is_zero() {
        let f = Frame {
            samples: vec![0.0; 64],
        };
        assert_eq!(f.power(), 0.0);
    }

    #[test]
    #[should_panic(expected = "odd tap count")]
    fn even_tap_count_rejected() {
        let _ = lowpass_taps(32, 0.1);
    }
}
