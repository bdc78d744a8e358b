//! `imaging`: real kernels over real frames. `imaging_pipeline(192)`
//! (blur → sobel → quantise → checksum) on 36 KB frames, which spill
//! the `Payload` into pooled blocks, on two vnodes pinned
//! `[v0, v1, v0, v0]` so the heavy stage (sobel) has a vnode to itself.
//!
//! The kernels are > 90 % of the time: a plumbing optimisation must show
//! **no change** here, and a kernel or large-payload change shows only
//! here. The launch mapping is pinned because a planner-chosen one is
//! bimodal on a 2-core host (4.4k vs 7.1k frames/s for 64-px frames).

use crate::gen;
use crate::harness::{Paced, Shape, Threaded};
use adapipe::api::{Pipeline, PipelineBuilder, RunConfig};
use adapipe_gridsim::node::NodeId;
use adapipe_mapper::mapping::Mapping;
use adapipe_runtime::policy::Policy;
use adapipe_workloads::imaging::{blur, imaging_pipeline, quantise, sobel, Image};
use std::time::Duration;

pub const SIDE: usize = 192;
/// Distinct frames the seeded stream draws from.
const POOL: u64 = 48;

/// What the pipeline computes for one frame, on the calling thread.
pub fn reference_checksum(frame: &Image) -> u64 {
    quantise(&sobel(&blur(frame)), 8)
        .pixels
        .iter()
        .map(|&p| p as u64)
        .sum()
}

pub struct Imaging {
    frames: Vec<Image>,
    checksums: Vec<u64>,
}

impl Imaging {
    /// Renders the frame pool of `seed` and its reference checksums —
    /// once, outside every timed region.
    pub fn new(seed: u64) -> Imaging {
        let frames: Vec<Image> = (0..POOL)
            .map(|i| Image::synthetic(SIDE, SIDE, gen::draw(seed, i)))
            .collect();
        let checksums = frames.iter().map(reference_checksum).collect();
        Imaging { frames, checksums }
    }

    fn slot(stream: u64, index: u64) -> usize {
        (gen::draw(stream, index) % POOL) as usize
    }
}

impl Threaded for Imaging {
    type In = Image;
    type Out = u64;
    type Ref = ();

    fn shape(&self) -> Shape {
        Shape {
            rep_items: 300,
            chunk: 8,
            batched: false,
        }
    }

    /// Four frames every 6 ms is 667 frames/s, about half of what the
    /// one CPU sustains. Paced one frame at a time, the hand-offs are a
    /// third of the 1.2 ms latency and its p50 moved 11 % between
    /// identical runs.
    fn paced(&self) -> Option<Paced> {
        Some(Paced {
            burst_items: 4,
            burst_period: Duration::from_millis(6),
        })
    }

    fn build(&self) -> Pipeline<Image, u64> {
        PipelineBuilder::from_pipeline(imaging_pipeline(SIDE))
            .policy(Policy::Static)
            .build()
            .expect("valid pipeline")
    }

    fn vnodes(&self) -> usize {
        2
    }

    fn config(&self) -> RunConfig {
        let v = |i| NodeId(i);
        RunConfig {
            items: self.shape().rep_items,
            initial_mapping: Some(Mapping::from_assignment(&[v(0), v(1), v(0), v(0)])),
            queue_capacity: Some(16),
            ..RunConfig::default()
        }
    }

    fn input(&self, stream: u64, index: u64) -> Image {
        self.frames[Self::slot(stream, index)].clone()
    }

    fn new_ref(&self) {}

    fn inline(&self, _: &mut (), input: Image) -> u64 {
        reference_checksum(&input)
    }

    /// The pool's checksums were computed inline once, at construction;
    /// recomputing a frame per output would put the kernels on the
    /// bench thread, next to the workers being measured.
    fn expect(&self, _: &mut (), stream: u64, index: u64, out: &u64) -> bool {
        *out == self.checksums[Self::slot(stream, index)]
    }
}
