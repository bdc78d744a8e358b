//! The typed pipeline builder — the user-facing skeleton API.
//!
//! ```
//! use adapipe_core::pipeline::PipelineBuilder;
//! use adapipe_core::spec::StageSpec;
//!
//! let pipeline = PipelineBuilder::<u32>::new()
//!     .stage(StageSpec::balanced("square", 1.0, 8), |x: u32| x * x)
//!     .stage(StageSpec::balanced("format", 0.5, 16), |x: u32| format!("{x}"))
//!     .build();
//! assert_eq!(pipeline.len(), 2);
//! ```
//!
//! The builder tracks the current item type at compile time: stage `i+1`
//! must accept exactly what stage `i` produces. `build` yields a
//! [`Pipeline`] bundling the erased stage functions with the
//! [`PipelineSpec`] metadata the planner needs.

use crate::spec::{PipelineSpec, StageSpec};
use crate::stage::{DynStage, FanOutFn, FnStage, KeyFn, KeyedStage};
use adapipe_gridsim::node::NodeId;
use adapipe_state::StateCodec;
use std::marker::PhantomData;

/// A fully built, type-checked pipeline: erased stage functions plus the
/// cost metadata, and one fan-out duplicator per fan block of the spec's
/// stage graph (in block order; none for a linear pipeline). Keyed
/// stages additionally carry their erased key extractor so the routing
/// hot path can pick the destination shard per item.
pub struct Pipeline<I, O> {
    spec: PipelineSpec,
    stages: Vec<Box<dyn DynStage>>,
    fanouts: Vec<FanOutFn>,
    keys: Vec<Option<KeyFn>>,
    _types: PhantomData<fn(I) -> O>,
}

impl<I, O> Pipeline<I, O> {
    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the pipeline has no stages (unbuildable via the builder).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The planner-facing metadata.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Splits the pipeline into its erased parts — spec, stage
    /// functions, per-block fan-out duplicators (none for a chain) and
    /// per-stage key extractors (`None` for unkeyed stages). Engines
    /// take ownership of all four; a caller after some of them
    /// destructures with `..`.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        PipelineSpec,
        Vec<Box<dyn DynStage>>,
        Vec<FanOutFn>,
        Vec<Option<KeyFn>>,
    ) {
        (self.spec, self.stages, self.fanouts, self.keys)
    }

    /// Reassembles a pipeline from its erased parts: a spec, matching
    /// stage functions, one fan-out duplicator per fan block of the
    /// spec's graph, and the per-stage key extractors a keyed stage
    /// routes by.
    ///
    /// The caller asserts the type discipline the builder normally
    /// enforces: the entry stages accept `I`, each stage feeds its
    /// consumers, each joining stage accepts the `Vec` of its inputs in
    /// slot order, each fan-out duplicates the item type its source
    /// produces, each `Some` key extractor accepts its stage's input
    /// type, and the exit stage produces `O`. The unified `adapipe::api`
    /// builders use this to hand their (already type-checked) stages to
    /// a backend.
    ///
    /// # Panics
    /// Panics if `stages` is empty, if its length or `keys`' disagrees
    /// with `spec`, or if `fanouts` does not cover the graph's fan
    /// blocks.
    pub fn from_parts(
        spec: PipelineSpec,
        stages: Vec<Box<dyn DynStage>>,
        fanouts: Vec<FanOutFn>,
        keys: Vec<Option<KeyFn>>,
    ) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert_eq!(spec.len(), stages.len(), "spec must cover every stage");
        assert_eq!(
            spec.graph.blocks(),
            fanouts.len(),
            "need one fan-out per fan block"
        );
        assert_eq!(spec.len(), keys.len(), "keys must cover every stage");
        Pipeline {
            spec,
            stages,
            fanouts,
            keys,
            _types: PhantomData,
        }
    }
}

/// Builder for [`Pipeline`]; `Cur` is the item type flowing out of the
/// last stage added so far.
pub struct PipelineBuilder<In, Cur = In> {
    spec_stages: Vec<StageSpec>,
    stages: Vec<Box<dyn DynStage>>,
    keys: Vec<Option<KeyFn>>,
    input_bytes: u64,
    source: Option<NodeId>,
    sink: Option<NodeId>,
    _types: PhantomData<fn(In) -> Cur>,
}

impl<In: Send + 'static> PipelineBuilder<In, In> {
    /// Starts a pipeline whose inputs have type `In`.
    pub fn new() -> Self {
        PipelineBuilder {
            spec_stages: Vec::new(),
            stages: Vec::new(),
            keys: Vec::new(),
            input_bytes: 0,
            source: None,
            sink: None,
            _types: PhantomData,
        }
    }
}

impl<In: Send + 'static> Default for PipelineBuilder<In, In> {
    fn default() -> Self {
        Self::new()
    }
}

impl<In: Send + 'static, Cur: Send + 'static> PipelineBuilder<In, Cur> {
    /// Declares how many bytes each input item carries into stage 0.
    pub fn input_bytes(mut self, bytes: u64) -> Self {
        self.input_bytes = bytes;
        self
    }

    /// Pins the input source to a grid node (inputs pay the transfer
    /// from there to stage 0's host).
    pub fn source(mut self, node: NodeId) -> Self {
        self.source = Some(node);
        self
    }

    /// Pins the output sink to a grid node.
    pub fn sink(mut self, node: NodeId) -> Self {
        self.sink = Some(node);
        self
    }

    /// Appends a plain-closure stage. The closure must be `Clone`: the
    /// stage replicates iff `spec`'s declared state is replicable, and
    /// runs as one instance otherwise.
    pub fn stage<Out, F>(mut self, spec: StageSpec, f: F) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        self.stages
            .push(Box::new(FnStage::new(spec.name.clone(), f)));
        self.spec_stages.push(spec);
        self.keys.push(None);
        self.retype()
    }

    /// Appends a stateful stage with *opaque* closure state
    /// ([`FnStage::opaque`]): it runs as one instance that is never
    /// copied, and a permanent loss of its host aborts the run. The
    /// closure need not be `Clone`, so a replicable declaration is
    /// normalised to opaque. Prefer [`PipelineBuilder::keyed_stage`]
    /// (or the unified builder's declared-state methods) for state the
    /// runtime should be able to move.
    pub fn stateful_stage<Out, F>(mut self, spec: StageSpec, f: F) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + 'static,
    {
        let spec = if spec.state.replicable() {
            let bytes = spec.state_bytes;
            spec.with_state(bytes)
        } else {
            spec
        };
        self.stages
            .push(Box::new(FnStage::opaque(spec.name.clone(), f)));
        self.spec_stages.push(spec);
        self.keys.push(None);
        self.retype()
    }

    /// Appends a stage with *keyed* state: `key` hashes each item to a
    /// state slice, `init` seeds a first-seen key's state `S`, and `f`
    /// transforms the item with mutable access to its key's state. The
    /// spec must declare the pattern (`with_keyed_state`): the declared
    /// shard count is what lets the stage replicate and migrate.
    ///
    /// # Panics
    /// Panics if `spec` does not declare keyed state.
    pub fn keyed_stage<Out, S, K, F>(
        mut self,
        spec: StageSpec,
        key: K,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> PipelineBuilder<In, Out>
    where
        Out: Send + 'static,
        S: StateCodec + Send + 'static,
        K: Fn(&Cur) -> u64 + Send + Sync + 'static,
        F: FnMut(&mut S, Cur) -> Out + Send + Clone + 'static,
    {
        assert!(
            spec.state.shards() > 0,
            "stage '{}' must declare keyed state (with_keyed_state)",
            spec.name
        );
        let stage = KeyedStage::new(spec.name.clone(), key, init, f);
        self.keys.push(Some(stage.routing_key()));
        self.stages.push(Box::new(stage));
        self.spec_stages.push(spec);
        self.retype()
    }

    /// The same declaration with `Out` as the current item type.
    fn retype<Out>(self) -> PipelineBuilder<In, Out> {
        PipelineBuilder {
            spec_stages: self.spec_stages,
            stages: self.stages,
            keys: self.keys,
            input_bytes: self.input_bytes,
            source: self.source,
            sink: self.sink,
            _types: PhantomData,
        }
    }

    /// Finalises the pipeline.
    ///
    /// # Panics
    /// Panics if no stage was added.
    pub fn build(self) -> Pipeline<In, Cur> {
        assert!(!self.stages.is_empty(), "pipeline needs at least one stage");
        let mut spec = PipelineSpec::new(self.spec_stages);
        spec.input_bytes = self.input_bytes;
        spec.source = self.source;
        spec.sink = self.sink;
        Pipeline {
            spec,
            stages: self.stages,
            fanouts: Vec::new(),
            keys: self.keys,
            _types: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_types() {
        let p = PipelineBuilder::<u32>::new()
            .stage(StageSpec::balanced("inc", 1.0, 4), |x: u32| x + 1)
            .stage(StageSpec::balanced("to_str", 1.0, 16), |x: u32| {
                x.to_string()
            })
            .stage(StageSpec::balanced("len", 1.0, 8), |s: String| s.len())
            .build();
        assert_eq!(p.len(), 3);
        assert_eq!(p.spec().names(), vec!["inc", "to_str", "len"]);
    }

    #[test]
    fn stages_execute_in_order_when_driven_manually() {
        let p = PipelineBuilder::<u32>::new()
            .stage(StageSpec::balanced("inc", 1.0, 4), |x: u32| x + 1)
            .stage(StageSpec::balanced("double", 1.0, 4), |x: u32| x * 2)
            .build();
        let (_, mut stages, ..) = p.into_parts();
        let mut item: crate::stage::BoxedItem = crate::payload::Payload::new(5u32);
        for s in &mut stages {
            item = s.process(item).expect("stages are type-aligned");
        }
        assert_eq!(item.downcast::<u32>().unwrap(), 12);
    }

    #[test]
    fn stateful_stage_keeps_state_and_refuses_replication() {
        let p = PipelineBuilder::<u64>::new()
            .stateful_stage(StageSpec::balanced("sum", 1.0, 8).with_state(8), {
                let mut acc = 0u64;
                move |x: u64| {
                    acc += x;
                    acc
                }
            })
            .build();
        assert!(!p.spec().profile().state[0].replicable());
        let (_, mut stages, ..) = p.into_parts();
        assert_eq!(
            stages[0]
                .process(crate::payload::Payload::new(2u64))
                .expect("typed item")
                .downcast::<u64>()
                .unwrap(),
            2
        );
        assert_eq!(
            stages[0]
                .process(crate::payload::Payload::new(3u64))
                .expect("typed item")
                .downcast::<u64>()
                .unwrap(),
            5
        );
    }

    #[test]
    fn builder_records_source_sink_and_input_bytes() {
        let p = PipelineBuilder::<u8>::new()
            .input_bytes(1024)
            .source(NodeId(0))
            .sink(NodeId(2))
            .stage(StageSpec::balanced("id", 1.0, 512), |x: u8| x)
            .build();
        let spec = p.spec();
        assert_eq!(spec.input_bytes, 1024);
        assert_eq!(spec.source, Some(NodeId(0)));
        assert_eq!(spec.sink, Some(NodeId(2)));
        let profile = spec.profile();
        assert_eq!(profile.boundary_bytes, vec![1024, 512]);
    }

    #[test]
    fn keyed_stage_builds_and_carries_its_key() {
        let p = PipelineBuilder::<u64>::new()
            .keyed_stage(
                StageSpec::balanced("count", 1.0, 8).with_keyed_state(4, 1024),
                |x: &u64| *x % 10,
                || 0u64,
                |n: &mut u64, x: u64| {
                    *n += 1;
                    (x, *n)
                },
            )
            .build();
        assert_eq!(p.spec().profile().replica_cap, vec![4]);
        let (_, mut stages, _, keys) = p.into_parts();
        assert_eq!(keys.len(), 1);
        let kf = keys[0].clone().expect("keyed stage has a key fn");
        let item: crate::stage::BoxedItem = crate::payload::Payload::new(13u64);
        assert_eq!(kf(&item), Some(3));
        let out = stages[0]
            .process(crate::payload::Payload::new(13u64))
            .expect("typed item");
        assert_eq!(out.downcast::<(u64, u64)>().unwrap(), (13, 1));
    }

    #[test]
    #[should_panic(expected = "must declare keyed state")]
    fn keyed_stage_requires_the_declaration() {
        let _ = PipelineBuilder::<u64>::new().keyed_stage(
            StageSpec::balanced("k", 1.0, 0),
            |x: &u64| *x,
            || 0u64,
            |_: &mut u64, x: u64| x,
        );
    }

    #[test]
    fn stage_seals_a_stateful_spec() {
        let p = PipelineBuilder::<u8>::new()
            .stage(StageSpec::balanced("x", 1.0, 0).with_state(64), |x: u8| x)
            .stage(
                StageSpec::balanced("k", 1.0, 0).with_keyed_state(4, 64),
                |x: u8| x,
            )
            .build();
        let state = p.spec().profile().state;
        assert!(!state[0].replicable(), "opaque state runs as one instance");
        assert!(state[1].replicable(), "keyed state replicates");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_build_panics() {
        let _ = PipelineBuilder::<u8>::new().build();
    }
}
