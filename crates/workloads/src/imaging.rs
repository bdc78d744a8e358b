//! An image-processing pipeline with real computational kernels.
//!
//! The canonical motivating application for pipeline skeletons: a stream
//! of frames passes through *generate → blur → edge-detect → quantise →
//! checksum* stages. The kernels are genuine (3×3 box blur, Sobel
//! operator, uniform posterisation and a pixel sum over `u8` grids), so
//! the threaded engine runs them as real compute while the simulator
//! plans with their measured cost shape.
//!
//! # Kernel shape
//!
//! Blur and Sobel are separable, so each output row is two passes over
//! plain slices, with no per-tap clamp or bounds check, which the
//! compiler vectorises:
//!
//! 1. a *vertical* pass combines the three source rows around `y` (the
//!    row above the first and below the last is the row itself) into a
//!    scratch row of `w + 2` entries, whose two ends replicate their
//!    neighbours: that is the edge clamp in `x`, paid twice per row
//!    instead of six times per pixel;
//! 2. a *horizontal* pass reads entries `x`, `x + 1`, `x + 2` of the
//!    scratch row for output pixel `x`.
//!
//! The passes run a strip of [`STRIP`] rows at a time. First the
//! vertical passes of the strip's rows run, top to bottom, each into a
//! scratch row of its own, so the scratch holds `STRIP` rows of `w + 2`
//! entries (Sobel's rows are twice that). Then the horizontal passes
//! run over those rows in the same order. The reason is the loads. Two
//! of a horizontal pass's three loads start one entry either side of
//! where the vertical pass's vector stores start, so each spans two
//! stores. Run right after its own row's vertical pass, as the kernels
//! were first written, the horizontal pass waits on those loads. In a
//! SIGPROF walk of Sobel alone, the instructions that load them or
//! first use them took 17 % of the samples, and 6 % in strips; blur's
//! took 27 %, and 9 % in strips. A kernel that still alternates the
//! passes but stores each row one pass ahead of its loads gains most of
//! what strips gain. So the cost is the distance from a store to the
//! load that reads it, not the order of the passes. Eight rows of a 192-pixel frame keep the scratch at 3 KB
//! (Sobel's at 6 KB), inside the L1 cache. Strips as tall as the frame
//! spill it and are slower than rows.
//!
//! Blur sums the three rows in `u16` (at most 9 × 255) and divides the
//! three-column sum by 9. Sobel keeps two `i16` rows, the smooth
//! `s = r0 + 2·r1 + r2` and the difference `d = r2 − r0`, so that
//! `gx = s[x+1] − s[x−1]` and `gy = d[x−1] + 2·d[x] + d[x+1]`.
//!
//! The Sobel magnitude is `⌊√(gx² + gy²)⌋` saturating at 255, which
//! the naive kernel took as `(n as f64).sqrt().min(255.0) as u8`.
//! `magnitude` computes the same byte in 16-bit lanes:
//!
//! - It clamps `|gx|` and `|gy|` to 255. A component of 255 or more puts
//!   the root at 255 or more, where the output saturates, and so does the
//!   clamped one, so no byte moves; and each square is now at most
//!   255² = 65025, which a `u16` holds.
//! - It adds the squares saturating at 65535 and caps the sum at 255²:
//!   every sum from there up is the byte 255.
//! - For `n ≤ 255²`, `⌊√n⌋` is the nearest integer to `√n − 0.499`.
//!   Below the next square `k²` the root is under `k − 1/2k`, so
//!   `√n − 0.499` stays under `⌊√n⌋ + 0.5` by more than 0.0009, over 60
//!   ulps of an `f32` near 255; at a perfect square it is 0.001 above
//!   `√n − 0.5`. A bias of 0.5 would put every perfect square on a tie,
//!   which rounds to even, so odd roots would come out one low.
//! - `n` converts to `f32` exactly and IEEE `sqrt` is correctly rounded.
//!   Adding `1.5 · 2²³` rounds the biased root to the nearest integer
//!   and leaves it in the low mantissa bits, which are the byte. A float
//!   → integer `as` cast would saturate, which does not vectorise.
//!
//! A test sweeps every reachable `(gx, gy)` through both compiled copies.
//!
//! Quantise posterises to `levels = 2^k` grey levels. Its formula as
//! first written is `f64`: with `step = 256 / levels`, grey `px` falls
//! in bucket `⌊px / step⌋` and maps to `bucket · step + step / 2`. For a
//! power of two every term is exact: `step = 2^(8−k)` and `step / 2`
//! are exact in `f64`, the bucket is `px >> (8 − k)`, and
//! `bucket · step` is `px` with its low `8 − k` bits cleared. `step / 2`
//! is one of those low bits, so adding it sets it, and the byte is
//! `(px & !(step − 1)) | step / 2`: one mask and one or per pixel,
//! applied in place. Off the powers of two the `f64` formula is no clean
//! definition (for 186 levels it puts grey 128 one bucket below
//! `⌊128 · levels / 256⌋`), so [`quantise`] takes powers of two only.
//!
//! The checksum stage sums pixels in `u16` runs of 257 (257 × 255 =
//! 65535 is the most a `u16` holds) and widens each run's sum to `u64`
//! once.
//!
//! # Two compiled copies
//!
//! Blur, Sobel, posterisation and the pixel sum are each one body that
//! `two_copies!` compiles twice: for the build's target (SSE2 on x86-64:
//! 8 `u16` or 16 `u8` lanes) and with AVX2 (16 `u16` or 32 `u8`). Each
//! call runs the AVX2 copy when `is_x86_feature_detected!` finds AVX2.
//! Both copies give the same byte: the integer operations are exact at
//! any width, IEEE `sqrt`, `+` and `−` round each lane exactly as the
//! scalar expression does, and Rust never contracts a multiply and an
//! add into an FMA.
//!
//! The body is `#[inline(always)]` and called directly from the
//! `#[target_feature]` copy, so its loops are compiled with the feature.
//! A generic wrapper that runs a closure with the feature enabled,
//! `wide(|| kernel(..))`, does not work: the closure is compiled as a
//! function of its own, without the feature. A prototype built that way
//! had no `vsqrtps` in its binary and gained only what the narrower
//! lanes gave. The baseline copy is `#[inline(never)]`, so a dispatcher
//! stays a feature check and a call (under 40 instructions) and never
//! holds a third copy of the loops.
//!
//! # Who owns the frames
//!
//! [`blur`], [`sobel`] and [`quantise`] allocate their result. The
//! stages of [`imaging_pipeline`] do not: blur and sobel each own a
//! scratch [`Image`] and their scratch rows, write a frame's result into
//! the scratch, hand that on, and keep the frame they were given as the
//! next scratch (ping-pong); quantise rewrites the frame it owns. A
//! stateless stage may own scratch like this provided it overwrites
//! every byte it hands on, so no item sees another's pixels; a kernel
//! re-fits its destination to each frame's dimensions, and a replica
//! is a clone of the closure with a scratch of its own.

use adapipe_core::pipeline::{Pipeline, PipelineBuilder};
use adapipe_core::spec::StageSpec;
use adapipe_gridsim::rng::mix;
use std::mem;

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
    fn zeros(width: usize, height: usize) -> Self {
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

    /// No pixels and no allocation: a kernel's destination before its
    /// first frame [`fit`](Self::fit)s it.
    fn unsized_scratch() -> Self {
        Image {
            width: 0,
            height: 0,
            pixels: Vec::new(),
        }
    }

    /// Takes the dimensions `width × height`, keeping the allocation
    /// when it is large enough. What the pixels hold is unspecified:
    /// the kernels that call this overwrite every one.
    fn fit(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "image must be non-empty");
        self.width = width;
        self.height = height;
        self.pixels.resize(width * height, 0);
    }

    /// Rows `y − 1`, `y` and `y + 1`, clamped to the image.
    fn rows_around(&self, y: usize) -> [&[u8]; 3] {
        let row = |i: usize| &self.pixels[i * self.width..(i + 1) * self.width];
        [
            row(y.saturating_sub(1)),
            row(y),
            row((y + 1).min(self.height - 1)),
        ]
    }
}

/// Copies a scratch row's first and last interior entries into its two
/// border entries: the edge clamp in `x`.
fn replicate_ends<T: Copy>(row: &mut [T]) {
    let n = row.len();
    row[0] = row[1];
    row[n - 1] = row[n - 2];
}

/// Defines a kernel from one body compiled twice: `$name::baseline` for
/// the build's target, and on x86-64 an AVX2 copy that `$name::avx2`
/// hands out when the CPU has AVX2. The function `$name` runs the AVX2
/// copy when there is one. The body is `#[inline(always)]`, so each copy
/// holds its own loops, compiled with its own features (see the module
/// docs for why a closure will not do).
macro_rules! two_copies {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block) => {
        $(#[$doc])*
        fn $name($($arg: $ty),*) $(-> $ret)? {
            $name::avx2().unwrap_or($name::baseline)($($arg),*)
        }

        /// The two compiled copies of the kernel of the same name.
        mod $name {
            #[allow(unused_imports)] // a body may name nothing from the module
            use super::*;

            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            /// The body compiled for the build's target. Never inlined:
            /// inlined into the dispatcher, it would be a third copy of
            /// the loops, run only where AVX2 is missing.
            #[inline(never)]
            pub(super) fn baseline($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2_copy($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            /// The body compiled with AVX2, when this CPU has it.
            pub(super) fn avx2() -> Option<fn($($ty),*) $(-> $ret)?> {
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: `avx2_copy` needs no more than AVX2, and
                    // the line above checked that this CPU has it.
                    return Some(|$($arg),*| unsafe { avx2_copy($($arg),*) });
                }
                None
            }

            /// Each copy this CPU can run, named.
            #[cfg(test)]
            pub(super) fn copies() -> Vec<(&'static str, fn($($ty),*) $(-> $ret)?)> {
                let mut all = vec![("baseline", baseline as fn($($ty),*) $(-> $ret)?)];
                all.extend(avx2().map(|f| ("avx2", f)));
                all
            }
        }
    };
}

/// Rows per strip: [`in_strips`] runs the vertical passes of this many
/// rows before the first of their horizontal passes (see the module
/// docs).
const STRIP: usize = 8;

/// A separable 3×3 kernel over `src` into `dst`, re-fitted to `src`, a
/// strip of [`STRIP`] rows at a time: `vertical` fills each row's
/// `stride` scratch entries from the three source rows around it, then
/// `horizontal` makes each output row from its entries. Both are
/// `#[inline(always)]` functions, so each compiled copy of a kernel
/// holds its passes' loops (a closure would be compiled on its own and
/// called, without the copy's features, once it had two callers).
#[inline(always)]
fn in_strips<T: Copy + Default>(
    src: &Image,
    dst: &mut Image,
    scratch: &mut Vec<T>,
    stride: usize,
    vertical: impl Fn([&[u8]; 3], &mut [T]),
    horizontal: impl Fn(&[T], &mut [u8]),
) {
    let w = src.width;
    dst.fit(w, src.height);
    scratch.resize(STRIP * stride, T::default());
    for (strip, out) in dst.pixels.chunks_mut(STRIP * w).enumerate() {
        let rows = &mut scratch[..out.len() / w * stride];
        for (i, row) in rows.chunks_exact_mut(stride).enumerate() {
            vertical(src.rows_around(strip * STRIP + i), row);
        }
        for (row, out) in rows.chunks_exact(stride).zip(out.chunks_exact_mut(w)) {
            horizontal(row, out);
        }
    }
}

/// Blur's vertical pass: the column sums of three source rows, in the
/// `w + 2` entries of `col`.
#[inline(always)]
fn blur_vertical([r0, r1, r2]: [&[u8]; 3], col: &mut [u16]) {
    let w = r0.len();
    for (((c, &a), &b), &d) in col[1..=w].iter_mut().zip(r0).zip(r1).zip(r2) {
        *c = u16::from(a) + u16::from(b) + u16::from(d);
    }
    replicate_ends(col);
}

/// Blur's horizontal pass: each output pixel is the mean of three
/// neighbouring column sums.
#[inline(always)]
fn blur_horizontal(col: &[u16], out: &mut [u8]) {
    let w = out.len();
    let taps = col[..w].iter().zip(&col[1..]).zip(&col[2..]);
    for (o, ((&a, &b), &c)) in out.iter_mut().zip(taps) {
        *o = ((a + b + c) / 9) as u8;
    }
}

two_copies! {
    /// [`blur`] into `dst`, re-fitted to `src`; `cols` holds the scratch
    /// rows.
    fn blur_into(src: &Image, dst: &mut Image, cols: &mut Vec<u16>) {
        in_strips(src, dst, cols, src.width + 2, blur_vertical, blur_horizontal);
    }
}

/// `1.5 · 2²³`: added to an `f32` in `(−2²², 2²²)` it rounds that value
/// to the nearest integer (ties to even) and leaves the integer in the
/// low mantissa bits.
const ROUND_TO_MANTISSA: f32 = 12_582_912.0;

/// The Sobel magnitude `⌊√(gx² + gy²)⌋` saturating at 255, in `u16`
/// lanes and without a float → integer `as` cast (see the module docs).
#[inline(always)]
fn magnitude(gx: i16, gy: i16) -> u8 {
    let (x, y) = (gx.abs().min(255) as u16, gy.abs().min(255) as u16);
    let n = (x * x).saturating_add(y * y).min(255 * 255);
    (f32::from(n).sqrt() - 0.499 + ROUND_TO_MANTISSA).to_bits() as u8
}

/// Sobel's vertical pass: the smooth and difference rows of three
/// source rows, `w + 2` entries each, one after the other in `row`.
#[inline(always)]
fn sobel_vertical([r0, r1, r2]: [&[u8]; 3], row: &mut [i16]) {
    let w = r0.len();
    let (smooth, diff) = row.split_at_mut(w + 2);
    let vertical = smooth[1..=w].iter_mut().zip(&mut diff[1..=w]);
    for ((((s, d), &a), &b), &c) in vertical.zip(r0).zip(r1).zip(r2) {
        let (a, b, c) = (i16::from(a), i16::from(b), i16::from(c));
        *s = a + 2 * b + c;
        *d = c - a;
    }
    replicate_ends(smooth);
    replicate_ends(diff);
}

/// Sobel's horizontal pass: each output pixel's magnitude from the
/// smooth and difference entries around it.
#[inline(always)]
fn sobel_horizontal(row: &[i16], out: &mut [u8]) {
    let w = out.len();
    let (smooth, diff) = row.split_at(w + 2);
    let gx = smooth[2..].iter().zip(&smooth[..w]);
    let gy = diff[..w].iter().zip(&diff[1..]).zip(&diff[2..]);
    for (o, ((&s2, &s0), ((&d0, &d1), &d2))) in out.iter_mut().zip(gx.zip(gy)) {
        *o = magnitude(s2 - s0, d0 + 2 * d1 + d2);
    }
}

two_copies! {
    /// [`sobel`] into `dst`, re-fitted to `src`; `rows` holds each
    /// row's smooth and difference scratch rows.
    fn sobel_into(src: &Image, dst: &mut Image, rows: &mut Vec<i16>) {
        let stride = 2 * (src.width + 2);
        in_strips(src, dst, rows, stride, sobel_vertical, sobel_horizontal);
    }
}

/// Pixels per `u16` run of [`pixel_sum()`]: 257 × 255 = 65535 is the
/// most a `u16` holds.
const SUM_RUN: usize = 257;

two_copies! {
    /// The sum of `pixels`, in `u16` runs of [`SUM_RUN`] pixels, each
    /// widened to `u64` once.
    fn pixel_sum(pixels: &[u8]) -> u64 {
        pixels
            .chunks(SUM_RUN)
            .map(|run| u64::from(run.iter().map(|&p| u16::from(p)).sum::<u16>()))
            .sum()
    }
}

two_copies! {
    /// Each pixel's high bits kept by `mask` and its low bits set to
    /// `half`: posterisation to a power-of-two level count (see
    /// [`level_bits`]).
    fn posterise(pixels: &mut [u8], mask: u8, half: u8) {
        for px in pixels {
            *px = (*px & mask) | half;
        }
    }
}

/// The `(mask, half)` that [`posterise()`] takes for `levels`, a power
/// of two in `2..=128`: each level is `step = 256 / levels` grey values
/// wide and maps to its middle value.
fn level_bits(levels: u8) -> (u8, u8) {
    assert!(
        levels >= 2 && levels.is_power_of_two(),
        "levels must be a power of two in 2..=128, got {levels}"
    );
    let step = 256 / u16::from(levels);
    (!(step - 1) as u8, (step / 2) as u8)
}

/// Box blur: the mean of the 3×3 neighbourhood, edge pixels clamped.
pub fn blur(src: &Image) -> Image {
    let mut out = Image::unsized_scratch();
    blur_into(src, &mut out, &mut Vec::new());
    out
}

/// Sobel edge magnitude, edge pixels clamped, saturating at 255.
pub fn sobel(src: &Image) -> Image {
    let mut out = Image::unsized_scratch();
    sobel_into(src, &mut out, &mut Vec::new());
    out
}

/// Quantises to `levels` grey levels (uniform posterisation): grey
/// `px` maps to the middle of its `256 / levels`-wide bucket.
///
/// # Panics
///
/// Unless `levels` is a power of two in `2..=128`.
pub fn quantise(src: &Image, levels: u8) -> Image {
    let (mask, half) = level_bits(levels);
    let mut out = src.clone();
    posterise(&mut out.pixels, mask, half);
    out
}

/// A stage closure over `kernel` that allocates nothing in steady
/// state: it owns the destination frame and the scratch rows, and keeps
/// each input frame as the next destination (see the module docs).
fn ping_pong<T: Clone + Send + 'static>(
    kernel: fn(&Image, &mut Image, &mut Vec<T>),
) -> impl FnMut(Image) -> Image + Clone + Send + 'static {
    let mut scratch = Image::unsized_scratch();
    let mut rows = Vec::new();
    move |img: Image| {
        kernel(&img, &mut scratch, &mut rows);
        mem::replace(&mut scratch, img)
    }
}

/// Builds the 4-stage imaging pipeline over `side`×`side` frames for the
/// threaded engine: blur → sobel → quantise → checksum.
///
/// Work metadata is expressed in seconds-of-compute per frame on a unit
/// node. The weights 1 : 5 : 1.25 : 0.9 are a fixed cost shape, kept as
/// the kernels get faster because the simulated scenario of
/// `tests/grand_tour.rs` reads them. Measured in process on 192² frames
/// (best of 300 calls of each stage, the quietest of three rounds on one
/// CPU of a 2-vCPU AVX2 Xeon container) the stages now take about
/// 6.6 : 16 : 0.6 : 1.0 µs. The engine's planner only needs *relative*
/// weights; absolute wall times depend on the host and are measured,
/// not assumed.
pub fn imaging_pipeline(side: usize) -> Pipeline<Image, u64> {
    let frame_bytes = (side * side) as u64;
    let w_blur = 1.0;
    let w_sobel = 5.0;
    let w_quant = 1.25;
    let w_sum = 0.9;
    let (mask, half) = level_bits(8);
    PipelineBuilder::<Image>::new()
        .input_bytes(frame_bytes)
        .stage(
            StageSpec::balanced("blur", w_blur, frame_bytes),
            ping_pong(blur_into),
        )
        .stage(
            StageSpec::balanced("sobel", w_sobel, frame_bytes),
            ping_pong(sobel_into),
        )
        .stage(
            StageSpec::balanced("quantise", w_quant, frame_bytes),
            move |mut img: Image| {
                posterise(&mut img.pixels, mask, half);
                img
            },
        )
        .stage(StageSpec::balanced("checksum", w_sum, 8), |img: Image| {
            pixel_sum(&img.pixels)
        })
        .build()
}

/// Generates `n` synthetic frames.
pub fn frames(side: usize, n: u64) -> Vec<Image> {
    (0..n).map(|i| Image::synthetic(side, side, i)).collect()
}

/// The kernels as first written: one clamped, bounds-checked tap at a
/// time, `f64` arithmetic per pixel. Kept as the reference the row
/// passes must equal byte for byte.
#[cfg(test)]
mod oracle {
    use super::Image;

    impl Image {
        /// Pixel at `(x, y)` with edge clamping.
        pub fn at_clamped(&self, x: isize, y: isize) -> u8 {
            let x = x.clamp(0, self.width as isize - 1) as usize;
            let y = y.clamp(0, self.height as isize - 1) as usize;
            self.pixels[y * self.width + x]
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
                out.pixels[y as usize * src.width + x as usize] =
                    (acc / divisor).clamp(0, 255) as u8;
            }
        }
        out
    }

    pub fn blur(src: &Image) -> Image {
        convolve3x3(src, &[[1, 1, 1], [1, 1, 1], [1, 1, 1]], 9)
    }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_core::payload::Payload;
    use adapipe_core::stage::BoxedItem;

    #[test]
    fn synthetic_frames_are_deterministic() {
        let a = Image::synthetic(16, 16, 3);
        let b = Image::synthetic(16, 16, 3);
        let c = Image::synthetic(16, 16, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.pixels.len(), 256);
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
        let mut item: BoxedItem = Payload::new(Image::synthetic(16, 16, 0));
        for s in &mut stages {
            s.process(&mut item).expect("stages are type-aligned");
        }
        let checksum = item.downcast::<u64>().unwrap();
        assert!(checksum > 0);
    }

    /// Frame `seed` at `w × h` and its two high-contrast variants:
    /// thresholded to 0 / 255, and a half-plane (255 on one side of a
    /// seeded line, 0 on the other). Between them they reach the
    /// magnitudes where the Sobel cast saturates.
    fn variants(w: usize, h: usize, seed: u64) -> [Image; 3] {
        let raw = Image::synthetic(w, h, seed);
        let mut hard = raw.clone();
        for px in &mut hard.pixels {
            *px = if *px >= 128 { 255 } else { 0 };
        }
        let slope = |i| (mix(seed, i) % 5) as i64 - 2;
        let (a, b) = (slope(1), slope(2));
        let c = a * (mix(seed, 3) % w as u64) as i64 + b * (mix(seed, 4) % h as u64) as i64;
        let mut plane = Image::zeros(w, h);
        for (i, px) in plane.pixels.iter_mut().enumerate() {
            let (x, y) = ((i % w) as i64, (i / w) as i64);
            *px = if a * x + b * y >= c { 255 } else { 0 };
        }
        [raw, hard, plane]
    }

    type Kernel<T> = fn(&Image, &mut Image, &mut Vec<T>);

    fn run<T>(kernel: Kernel<T>, src: &Image) -> Image {
        let mut out = Image::unsized_scratch();
        kernel(src, &mut out, &mut Vec::new());
        out
    }

    #[test]
    fn row_passes_equal_the_oracle_byte_for_byte() {
        let dims = [
            (1, 1),
            (1, 7),
            (7, 1),
            (2, 2),
            (3, 3),
            (2, 9),
            (17, 5),
            // Heights at the strip seams: a row short of a strip, a
            // strip, a strip and a row, two strips, and a one-pixel
            // column two strips and a row tall.
            (6, STRIP - 1),
            (5, STRIP),
            (9, STRIP + 1),
            (3, 2 * STRIP),
            (1, 2 * STRIP + 1),
            (64, 33),
            (192, 192),
        ];
        for ((name, blur_k), (_, sobel_k)) in
            blur_into::copies().into_iter().zip(sobel_into::copies())
        {
            let mut saturated = 0;
            for (w, h) in dims {
                for seed in 0..20 {
                    for (v, img) in variants(w, h, seed).iter().enumerate() {
                        let at = format!("{name}, {w}x{h}, seed {seed}, variant {v}");
                        let blurred = run(blur_k, img);
                        assert_eq!(blurred, oracle::blur(img), "blur, {at}");
                        let edges = run(sobel_k, img);
                        assert_eq!(edges, oracle::sobel(img), "sobel, {at}");
                        // What the pipeline's sobel stage is handed.
                        assert_eq!(
                            run(sobel_k, &blurred),
                            oracle::sobel(&blurred),
                            "sobel ∘ blur, {at}"
                        );
                        saturated += edges.pixels.iter().filter(|&&p| p == 255).count();
                    }
                }
            }
            assert!(
                saturated > 10_000,
                "{name}: only {saturated} saturated magnitudes"
            );
        }
    }

    /// Every power-of-two level count on every grey value (the ramp)
    /// and on seeded slices whose lengths straddle the 16- and 32-lane
    /// vector widths: each copy of the kernel equals the `f64` formula.
    #[test]
    fn posterise_equals_the_oracle_on_every_power_of_two_and_grey_value() {
        let ramp = Image {
            width: 256,
            height: 1,
            pixels: (0..=255).collect(),
        };
        let lengths = [1, 15, 16, 17, 31, 32, 33, 36_864, 36_865];
        let frames = lengths.map(|len| Image::synthetic(len, 1, len as u64));
        for levels in (1..8).map(|k| 1u8 << k) {
            let (mask, half) = level_bits(levels);
            for img in std::iter::once(&ramp).chain(&frames) {
                let expected = oracle::quantise(img, levels);
                for (name, kernel) in posterise::copies() {
                    let mut pixels = img.pixels.clone();
                    kernel(&mut pixels, mask, half);
                    assert_eq!(
                        pixels,
                        expected.pixels,
                        "{name}, {levels} levels, length {}",
                        img.pixels.len()
                    );
                }
                assert_eq!(quantise(img, levels), expected, "{levels} levels");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn quantise_rejects_a_level_count_off_the_powers_of_two() {
        quantise(&Image::synthetic(4, 4, 0), 3);
    }

    two_copies! {
        /// [`magnitude`] of each `(gx[i], gy[i])`, at the kernel's
        /// vector width in each copy.
        #[allow(dead_code)] // the test calls each copy, not the dispatch
        fn magnitudes(gx: &[i16], gy: &[i16], out: &mut [u8]) {
            for ((o, &x), &y) in out.iter_mut().zip(gx).zip(gy) {
                *o = magnitude(x, y);
            }
        }
    }

    /// Every `(gx, gy)` the Sobel kernel can produce (`|gx|, |gy| ≤
    /// 4 × 255`): each copy's magnitude is the oracle's `f64` expression.
    #[test]
    fn magnitude_equals_the_f64_root_on_every_reachable_gradient() {
        let gy: Vec<i16> = (-1020..=1020).collect();
        let mut out = vec![0; gy.len()];
        for (name, kernel) in magnitudes::copies() {
            for gx in -1020..=1020i16 {
                kernel(&vec![gx; gy.len()], &gy, &mut out);
                for (&y, &got) in gy.iter().zip(&out) {
                    let n = i32::from(gx).pow(2) + i32::from(y).pow(2);
                    let oracle = (n as f64).sqrt().min(255.0) as u8;
                    assert_eq!(got, oracle, "{name}: gx = {gx}, gy = {y}");
                }
            }
        }
    }

    /// All-255 frames whose lengths straddle multiples of the `u16` run,
    /// where a run one pixel longer would wrap, and seeded frames.
    #[test]
    fn pixel_sum_equals_the_u64_sum_across_run_boundaries() {
        let lengths = [1, 2, 255, 256, 257, 258, 513, 514, 515, 771, 36_864, 36_865];
        for (name, sum) in pixel_sum::copies() {
            for len in lengths {
                assert_eq!(
                    sum(&vec![255; len]),
                    255 * len as u64,
                    "{name}, {len} × 255"
                );
                let frame = Image::synthetic(len, 1, len as u64);
                let naive: u64 = frame.pixels.iter().map(|&p| u64::from(p)).sum();
                assert_eq!(sum(&frame.pixels), naive, "{name}, seeded {len}");
            }
        }
    }

    /// Frames of two sizes alternate through one set of stage objects:
    /// each stage's scratch is the other size's previous frame, so a
    /// kernel that failed to re-fit it, or left a pixel unwritten, would
    /// change a checksum. The wide frame is several strips tall with a
    /// part strip at its foot, and the narrow one is shorter than a
    /// strip, so its scratch rows are the first few of those the wide
    /// frame sized and filled. The pipeline's own stages run, then
    /// ping-pong stages over each compiled copy.
    #[test]
    fn ping_pong_scratch_refits_and_never_leaks_stale_pixels() {
        let frame = |i: u64| {
            let (w, h) = [(16, 3 * STRIP + 3), (5, STRIP - 3)][i as usize % 2];
            Image::synthetic(w, h, 100 + i)
        };
        let expected = |i| {
            let out = oracle::quantise(&oracle::sobel(&oracle::blur(&frame(i))), 8);
            out.pixels.iter().map(|&p| p as u64).sum::<u64>()
        };
        let (_, mut stages, ..) = imaging_pipeline(16).into_parts();
        for i in 0..12u64 {
            let mut item: BoxedItem = Payload::new(frame(i));
            for s in &mut stages {
                s.process(&mut item).expect("stages are type-aligned");
            }
            assert_eq!(item.downcast::<u64>().unwrap(), expected(i), "frame {i}");
        }
        let kernels = blur_into::copies().into_iter().zip(sobel_into::copies());
        for (((name, blur_k), (_, sobel_k)), (_, sum)) in kernels.zip(pixel_sum::copies()) {
            let (mut blur_stage, mut sobel_stage) = (ping_pong(blur_k), ping_pong(sobel_k));
            for i in 0..12u64 {
                let out = quantise(&sobel_stage(blur_stage(frame(i))), 8);
                assert_eq!(sum(&out.pixels), expected(i), "{name}, frame {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "image must be non-empty")]
    fn an_empty_frame_is_rejected() {
        let _ = Image::synthetic(0, 4, 0);
    }
}
