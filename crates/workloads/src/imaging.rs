//! An image-processing pipeline with real computational kernels.
//!
//! The canonical motivating application for pipeline skeletons: a stream
//! of frames passes through *generate → blur → edge-detect → quantise*
//! stages. The kernels are genuine (3×3 convolution, Sobel operator,
//! histogram quantisation over `u8` grids), so the threaded engine runs
//! them as real compute while the simulator plans with their measured
//! cost shape.

use adapipe_core::pipeline::{Pipeline, PipelineBuilder};
use adapipe_core::spec::StageSpec;
use adapipe_gridsim::rng::{mix, unit_f64};

/// A grayscale image in row-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// `width × height` pixel values.
    pub pixels: Vec<u8>,
}

impl Image {
    /// Creates an image filled with zeros.
    pub fn zeros(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Image {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Deterministic pseudo-random test frame `index`.
    pub fn synthetic(width: usize, height: usize, index: u64) -> Self {
        let mut img = Image::zeros(width, height);
        for (i, px) in img.pixels.iter_mut().enumerate() {
            *px = (mix(index, i as u64) & 0xFF) as u8;
        }
        img
    }

    /// Pixel at `(x, y)` with edge clamping.
    #[inline]
    pub fn at_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[y * self.width + x]
    }

    /// Bytes occupied by the pixel data.
    pub fn byte_size(&self) -> u64 {
        self.pixels.len() as u64
    }
}

/// 3×3 convolution with the given kernel (divided by `divisor`), edge
/// pixels clamped.
pub fn convolve3x3(src: &Image, kernel: &[[i32; 3]; 3], divisor: i32) -> Image {
    assert!(divisor != 0, "divisor must be non-zero");
    let mut out = Image::zeros(src.width, src.height);
    for y in 0..src.height as isize {
        for x in 0..src.width as isize {
            let mut acc = 0i32;
            for (ky, row) in kernel.iter().enumerate() {
                for (kx, &k) in row.iter().enumerate() {
                    let px = src.at_clamped(x + kx as isize - 1, y + ky as isize - 1);
                    acc += k * px as i32;
                }
            }
            out.pixels[y as usize * src.width + x as usize] = (acc / divisor).clamp(0, 255) as u8;
        }
    }
    out
}

/// Box blur (all-ones kernel).
pub fn blur(src: &Image) -> Image {
    convolve3x3(src, &[[1, 1, 1], [1, 1, 1], [1, 1, 1]], 9)
}

/// Sobel edge magnitude.
pub fn sobel(src: &Image) -> Image {
    let gx_k = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]];
    let gy_k = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]];
    let mut out = Image::zeros(src.width, src.height);
    for y in 0..src.height as isize {
        for x in 0..src.width as isize {
            let mut gx = 0i32;
            let mut gy = 0i32;
            for ky in 0..3 {
                for kx in 0..3 {
                    let px = src.at_clamped(x + kx as isize - 1, y + ky as isize - 1) as i32;
                    gx += gx_k[ky][kx] * px;
                    gy += gy_k[ky][kx] * px;
                }
            }
            let mag = ((gx * gx + gy * gy) as f64).sqrt().min(255.0) as u8;
            out.pixels[y as usize * src.width + x as usize] = mag;
        }
    }
    out
}

/// Quantises to `levels` grey levels (posterisation).
pub fn quantise(src: &Image, levels: u8) -> Image {
    assert!(levels >= 2, "need at least two levels");
    let step = 256.0 / levels as f64;
    let mut out = src.clone();
    for px in &mut out.pixels {
        let bucket = (*px as f64 / step).floor().min(levels as f64 - 1.0);
        *px = (bucket * step + step / 2.0) as u8;
    }
    out
}

/// Builds the 4-stage imaging pipeline over `side`×`side` frames for the
/// threaded engine: blur → sobel → quantise → checksum.
///
/// Work metadata is expressed in seconds-of-compute per frame on a unit
/// node, estimated from the kernels' arithmetic density (the engine's
/// planner only needs *relative* weights; absolute wall times depend on
/// the host and are measured, not assumed).
pub fn imaging_pipeline(side: usize) -> Pipeline<Image, u64> {
    let frame_bytes = (side * side) as u64;
    // Relative weights: sobel does two convolutions' worth of work.
    let w_blur = 1.0;
    let w_sobel = 2.0;
    let w_quant = 0.25;
    let w_sum = 0.1;
    PipelineBuilder::<Image>::new()
        .input_bytes(frame_bytes)
        .stage(
            StageSpec::balanced("blur", w_blur, frame_bytes),
            |img: Image| blur(&img),
        )
        .stage(
            StageSpec::balanced("sobel", w_sobel, frame_bytes),
            |img: Image| sobel(&img),
        )
        .stage(
            StageSpec::balanced("quantise", w_quant, frame_bytes),
            |img: Image| quantise(&img, 8),
        )
        .stage(StageSpec::balanced("checksum", w_sum, 8), |img: Image| {
            img.pixels.iter().map(|&p| p as u64).sum::<u64>()
        })
        .build()
}

/// Generates `n` synthetic frames.
pub fn frames(side: usize, n: u64) -> Vec<Image> {
    (0..n).map(|i| Image::synthetic(side, side, i)).collect()
}

/// Deterministic jitter in `[lo, hi)` keyed by `(seed, index)` — used by
/// examples to vary frame sizes.
pub fn jitter_in(seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    assert!(hi > lo);
    lo + (hi - lo) * unit_f64(mix(seed, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_frames_are_deterministic() {
        let a = Image::synthetic(16, 16, 3);
        let b = Image::synthetic(16, 16, 3);
        let c = Image::synthetic(16, 16, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.byte_size(), 256);
    }

    #[test]
    fn blur_smooths_an_impulse() {
        let mut img = Image::zeros(5, 5);
        img.pixels[2 * 5 + 2] = 255;
        let out = blur(&img);
        // The impulse spreads: centre becomes 255/9 = 28.
        assert_eq!(out.pixels[2 * 5 + 2], 28);
        assert_eq!(out.pixels[5 + 1], 28);
        assert_eq!(out.pixels[0], 0);
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = Image {
            width: 4,
            height: 4,
            pixels: vec![100; 16],
        };
        assert_eq!(blur(&img).pixels, vec![100; 16]);
    }

    #[test]
    fn sobel_finds_a_vertical_edge() {
        // Left half 0, right half 255 → strong response on the boundary.
        let mut img = Image::zeros(8, 8);
        for y in 0..8 {
            for x in 4..8 {
                img.pixels[y * 8 + x] = 255;
            }
        }
        let out = sobel(&img);
        let edge = out.pixels[3 * 8 + 4];
        let flat = out.pixels[3 * 8 + 1];
        assert!(edge > 200, "edge response {edge}");
        assert_eq!(flat, 0, "flat region must stay dark");
    }

    #[test]
    fn quantise_reduces_distinct_levels() {
        let img = Image::synthetic(32, 32, 7);
        let out = quantise(&img, 4);
        let mut levels: Vec<u8> = out.pixels.clone();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 4, "got {} levels", levels.len());
    }

    #[test]
    fn clamping_handles_borders() {
        let img = Image::synthetic(3, 3, 0);
        assert_eq!(img.at_clamped(-5, -5), img.at_clamped(0, 0));
        assert_eq!(img.at_clamped(10, 10), img.at_clamped(2, 2));
    }

    #[test]
    fn pipeline_spec_shape_matches_stages() {
        let p = imaging_pipeline(64);
        assert_eq!(p.len(), 4);
        let profile = p.spec().profile();
        profile.validate();
        // Sobel is the heavy stage.
        let max = profile.stage_work.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(profile.stage_work[1], max);
    }

    #[test]
    fn pipeline_runs_end_to_end_in_process() {
        let p = imaging_pipeline(16);
        let (_, mut stages, ..) = p.into_parts();
        let mut item: adapipe_core::stage::BoxedItem =
            adapipe_core::payload::Payload::new(Image::synthetic(16, 16, 0));
        for s in &mut stages {
            item = s.process(item).expect("stages are type-aligned");
        }
        let checksum = item.downcast::<u64>().unwrap();
        assert!(checksum > 0);
    }

    #[test]
    fn jitter_stays_in_range() {
        for i in 0..1000 {
            let v = jitter_in(5, i, 2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }
}
