//! `wire_batch` and `wire_item`: the same trivial 2-stage `u64` chain on
//! one vnode (so the two stages fuse), driven the two ways the data
//! plane can be used. All plumbing, no work — what they measure is the
//! wire itself.
//!
//! * `wire_batch` ships 256-item envelopes: payload, stage call, stride
//!   clock, sink and resequencer do the work, once per item; inbox,
//!   condvar and credit gate are touched once per envelope and cost
//!   almost nothing.
//! * `wire_item` ships one item per envelope through a 64-deep queue:
//!   one inbox lock/notify and one credit per item, so those and the
//!   thread hand-off dominate.
//!
//! Like every workload they run confined to one CPU (see `affinity`).
//!
//! A change that helps batches at per-item cost (or the reverse) shows
//! as opposite moves on the two.

use crate::gen;
use crate::harness::{Shape, Threaded};
use adapipe::api::{Pipeline, RunConfig};
use adapipe_gridsim::node::NodeId;
use adapipe_mapper::mapping::Mapping;
use adapipe_runtime::policy::Policy;

pub struct Wire {
    batch_size: usize,
    queue_capacity: usize,
    shape: Shape,
}

pub fn wire_batch() -> Wire {
    Wire {
        batch_size: 256,
        queue_capacity: 4096,
        shape: Shape {
            rep_items: 1_500_000,
            chunk: 4096,
            batched: true,
        },
    }
}

pub fn wire_item() -> Wire {
    Wire {
        batch_size: 1,
        queue_capacity: 64,
        shape: Shape {
            rep_items: 125_000,
            chunk: 64,
            batched: false,
        },
    }
}

pub fn inc(x: u64) -> u64 {
    x + 1
}

pub fn double(x: u64) -> u64 {
    x * 2
}

impl Threaded for Wire {
    type In = u64;
    type Out = u64;
    type Ref = ();

    fn shape(&self) -> Shape {
        self.shape
    }

    fn build(&self) -> Pipeline<u64, u64> {
        Pipeline::<u64>::builder()
            .stage("inc", inc)
            .stage("double", double)
            .policy(Policy::Static)
            .build()
            .expect("valid pipeline")
    }

    fn vnodes(&self) -> usize {
        1
    }

    fn config(&self) -> RunConfig {
        RunConfig {
            items: self.shape.rep_items,
            initial_mapping: Some(Mapping::all_on(NodeId(0), 2)),
            queue_capacity: Some(self.queue_capacity),
            batch_size: self.batch_size,
            ..RunConfig::default()
        }
    }

    fn input(&self, stream: u64, index: u64) -> u64 {
        gen::wire_item(stream, index)
    }

    fn new_ref(&self) {}

    fn inline(&self, _: &mut (), input: u64) -> u64 {
        double(inc(input))
    }
}
