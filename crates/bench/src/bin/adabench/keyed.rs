//! `keyed_dag`: the unfusable path. A record fans out to two branches,
//! joins, updates per-key state on a sharded keyed stage spread over
//! both vnodes, and is formatted:
//!
//! ```text
//!          ┌─ score ─┐
//! parse ──▶│         ├──▶ combine ──▶ count (keyed, 8 shards) ──▶ fmt
//!          └─ tag ───┘
//! ```
//!
//! What does the work here: the fan-out clone, the join's slot map, key
//! hash → shard routing, per-shard envelope bucketing and the
//! `KeyedStage` state map. Fusion is bypassed entirely (`count` breaks
//! the chain on both sides), so a fusion or stride-clock change must
//! show no change on this workload. Four threads hand 256-item
//! envelopes to one another far more than they compute; like every
//! workload it runs confined to one CPU (see `affinity`).

use crate::gen;
use crate::harness::{Shape, Threaded};
use adapipe::api::{Branch, Pipeline, RunConfig};
use adapipe_gridsim::node::NodeId;
use adapipe_mapper::mapping::{Mapping, Placement};
use adapipe_runtime::policy::Policy;

pub const SHARDS: usize = 8;

/// A parsed record: two words, so it travels inline in a `Payload`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rec {
    pub key: u64,
    pub val: u64,
}

/// What a branch hands the join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    Score(Rec, u64),
    Tag(Rec, u8),
}

/// The joined record: four words, so it spills out of the `Payload`'s
/// inline storage into a pooled block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scored {
    pub key: u64,
    pub val: u64,
    pub score: u64,
    pub tag: u64,
}

/// The pipeline's output: the joined record's digest and how many
/// records of its key the `count` stage had seen, this one included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line {
    pub key: u64,
    pub seen: u64,
    pub digest: u64,
}

pub fn parse(raw: u64) -> Rec {
    Rec {
        key: raw >> 32,
        val: raw & 0xFFFF_FFFF,
    }
}

pub fn score(r: Rec) -> Part {
    Part::Score(r, r.val.wrapping_mul(0x9E37_79B9).rotate_left(13) ^ r.key)
}

pub fn tag(r: Rec) -> Part {
    Part::Tag(r, (r.val % 251) as u8)
}

pub fn combine(parts: Vec<Part>) -> Scored {
    join(parts[0], parts[1])
}

fn join(first: Part, second: Part) -> Scored {
    match (first, second) {
        (Part::Score(r, score), Part::Tag(t, tag)) if r == t => Scored {
            key: r.key,
            val: r.val,
            score,
            tag: tag as u64,
        },
        other => panic!("join mixed records or branch order: {other:?}"),
    }
}

pub fn fmt((s, seen): (Scored, u64)) -> Line {
    Line {
        key: s.key,
        seen,
        digest: s.score.wrapping_add(s.tag << 56) ^ s.val,
    }
}

pub struct KeyedDag;

impl Threaded for KeyedDag {
    type In = u64;
    type Out = Line;
    /// Records seen so far per key.
    type Ref = Vec<u64>;

    fn shape(&self) -> Shape {
        Shape {
            rep_items: 150_000,
            chunk: 4096,
            batched: true,
        }
    }

    fn build(&self) -> Pipeline<u64, Line> {
        Pipeline::<u64>::builder()
            .stage("parse", parse)
            .parallel(vec![
                Branch::new().stage("score", score),
                Branch::new().stage("tag", tag),
            ])
            .merge("combine", combine)
            .keyed_stage(
                "count",
                SHARDS,
                |s: &Scored| s.key,
                || 0u64,
                |seen: &mut u64, s: Scored| {
                    *seen += 1;
                    (s, *seen)
                },
            )
            .stage("fmt", fmt)
            .policy(Policy::Static)
            .build()
            .expect("valid pipeline")
    }

    fn vnodes(&self) -> usize {
        2
    }

    fn config(&self) -> RunConfig {
        // `count` on both vnodes (4 shards each), everything else on v0.
        let v0 = || Placement::single(NodeId(0));
        let mapping = Mapping::new(vec![
            v0(),
            v0(),
            v0(),
            v0(),
            Placement::replicated(vec![NodeId(0), NodeId(1)]),
            v0(),
        ]);
        RunConfig {
            items: self.shape().rep_items,
            initial_mapping: Some(mapping),
            queue_capacity: Some(4096),
            batch_size: 256,
            ..RunConfig::default()
        }
    }

    fn input(&self, stream: u64, index: u64) -> u64 {
        gen::keyed_record(stream, index)
    }

    fn new_ref(&self) -> Vec<u64> {
        vec![0; gen::KEYS as usize]
    }

    fn inline(&self, seen: &mut Vec<u64>, input: u64) -> Line {
        let rec = parse(input);
        seen[rec.key as usize] += 1;
        fmt((join(score(rec), tag(rec)), seen[rec.key as usize]))
    }
}
