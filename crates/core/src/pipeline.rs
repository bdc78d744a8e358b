//! The typed pipeline builder: one graph of typed stage handles, and a
//! chain over it.
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
//! Every pipeline is declared on one [`DagBuilder`]: each stage names
//! its producers by the typed [`Node`] handles earlier declarations
//! returned, so stage `i+1` must accept exactly what its producer
//! makes, and an exit of the wrong type does not compile. The chain
//! [`PipelineBuilder`] is that graph plus a handle on its last stage
//! (the facade's builder adds the run declarations). The graph erases
//! each stage as it is declared, so every erased stage, fan-out
//! duplicator and key extractor a [`Pipeline`] carries to a backend is
//! well-typed by construction; [`DagBuilder::finish`] validates the
//! rest and assembles the [`PipelineSpec`] the planner needs.
//!
//! A mis-typed chain does not compile:
//!
//! ```compile_fail
//! use adapipe_core::pipeline::PipelineBuilder;
//! use adapipe_core::spec::StageSpec;
//!
//! let _ = PipelineBuilder::<u32>::new()
//!     .stage(StageSpec::balanced("square", 1.0, 8), |x: u32| x * x)
//!     .stage(StageSpec::balanced("shout", 0.5, 16), |s: String| s.to_uppercase());
//! ```
//!
//! Its twin, which differs only in the stage's input type, does:
//!
//! ```
//! use adapipe_core::pipeline::PipelineBuilder;
//! use adapipe_core::spec::StageSpec;
//!
//! let _ = PipelineBuilder::<u32>::new()
//!     .stage(StageSpec::balanced("square", 1.0, 8), |x: u32| x * x)
//!     .stage(StageSpec::balanced("shout", 0.5, 16), |x: u32| x.to_string());
//! ```

use crate::spec::{GraphError, PipelineSpec, ResiliencePolicy, StageGraph, StageSpec};
use crate::stage::{
    fan_out_fn, AccumStage, DynStage, FallibleFnStage, FanOutFn, FnStage, KeyFn, KeyedStage,
    MergeStage,
};
use adapipe_gridsim::node::NodeId;
use adapipe_runtime::session::{self, BuildError};
use adapipe_state::StateCodec;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Assembles a pipeline from erased parts that are well-typed by
    /// construction: the entry stages accept `I`, each stage feeds its
    /// consumers, each joining stage accepts the `Vec` of its inputs in
    /// slot order, each fan-out duplicates what its source produces,
    /// each key extractor reads its stage's input, and the exit stage
    /// produces `O`. Only this module's builders call it.
    pub(crate) fn from_parts(
        spec: PipelineSpec,
        stages: Vec<Box<dyn DynStage>>,
        fanouts: Vec<FanOutFn>,
        keys: Vec<Option<KeyFn>>,
    ) -> Self {
        Pipeline {
            spec,
            stages,
            fanouts,
            keys,
            _types: PhantomData,
        }
    }
}

impl Pipeline<u64, u64> {
    /// The identity program over any spec, however its graph was wired:
    /// each stage passes its `u64` on, and a joining stage its first
    /// input's value. The simulator executes the spec's cost metadata,
    /// not the stage functions, so this is what a simulation scenario
    /// declared as a bare [`PipelineSpec`] runs.
    pub fn identity(spec: PipelineSpec) -> Self {
        let graph = &spec.graph;
        let stages = (spec.stages.iter().enumerate())
            .map(|(i, s)| -> Box<dyn DynStage> {
                if graph.merge_block_of(i).is_some() {
                    let first = |mut parts: Vec<u64>| parts.swap_remove(0);
                    Box::new(MergeStage::new(s.name.clone(), first))
                } else {
                    Box::new(FnStage::new(s.name.clone(), |x: u64| x))
                }
            })
            .collect();
        let fanouts = (0..graph.blocks())
            .map(|b| fan_out_fn::<u64>(graph.fan_targets(b).len()))
            .collect();
        let keys = vec![None; spec.len()];
        Pipeline::from_parts(spec, stages, fanouts, keys)
    }
}

/// A typed handle on one stage of a [`DagBuilder`] graph, or on the
/// pipeline input ([`DagBuilder::input`]): what a consumer names to be
/// fed the `T`s it produces.
///
/// A handle moves into the one consumer it is passed to. To feed a
/// second consumer, clone it — which needs `T: Clone`, because each
/// consumer then receives its own copy of every item.
pub struct Node<T> {
    /// The graph that handed the handle out.
    graph: u64,
    /// The stage; `None` for the pipeline input.
    id: Option<usize>,
    /// Set on a clone: the duplicator of `T`s for a given consumer
    /// count, which the graph records for the stage when it fans out.
    fan: Option<fn(usize) -> FanOutFn>,
    _item: PhantomData<fn() -> T>,
}

impl<T> Node<T> {
    /// The same handle at item type `U`, fanning out by `fan`.
    fn with<U>(&self, fan: Option<fn(usize) -> FanOutFn>) -> Node<U> {
        Node {
            graph: self.graph,
            id: self.id,
            fan,
            _item: PhantomData,
        }
    }

    /// The same handle at another item type, for a chain spliced in
    /// whole ([`DagBuilder::parallel`]): its stages were typed when
    /// they were declared on the chain.
    fn cast<U>(self) -> Node<U> {
        self.with(self.fan)
    }
}

impl<T: Clone + Send + 'static> Clone for Node<T> {
    fn clone(&self) -> Self {
        self.with(Some(fan_out_fn::<T>))
    }
}

/// What [`DagBuilder::exit`] turns a graph and its exit into: core's
/// chain builder (`X = ()`), or a front end's builder around it, which
/// carries declarations of its own through the graph's end.
pub trait Exit<In>: Sized {
    /// The builder, its tail of type `Out`.
    type Builder<Out>;
    /// Wraps core's chain builder.
    fn wrap<Out>(chain: PipelineBuilder<In, Out, Self>) -> Self::Builder<Out>;
}

impl<In> Exit<In> for () {
    type Builder<Out> = PipelineBuilder<In, Out>;

    fn wrap<Out>(chain: PipelineBuilder<In, Out>) -> PipelineBuilder<In, Out> {
        chain
    }
}

/// Builder for a pipeline over a *general DAG* of named stages. Each
/// declaration names its producers by their typed [`Node`] handles and
/// returns the handle of the new stage, starting from
/// [`DagBuilder::input`]; [`DagBuilder::finish`] names the node whose
/// output the pipeline delivers, and [`DagBuilder::exit`] hands the
/// graph on as a chain (`X`'s builder). There is one typed constructor per
/// stage kind: plain ([`DagBuilder::node_with`]), fallible
/// ([`DagBuilder::try_node_with`]), joining ([`DagBuilder::join_with`]),
/// keyed, accumulator, exclusive and opaque state.
///
/// A handle names only a stage that already exists, so every edge
/// points backwards: the graph has no cycle, self-edge or unknown
/// stage to report. Types are checked where the handle is passed: an
/// edge from a `Node<u64>` into a stage that takes `String` does not
/// compile, and neither does an exit whose type differs from the
/// pipeline's output. A stage feeding several consumers fans copies
/// out, so its handle must be cloned, which needs a `Clone` output; a
/// stage declared with `join` receives one `Vec` with the outputs of
/// its inputs, in the order given. What is left for `finish` returns a
/// typed [`BuildError`]: [`BuildError::UnreachableStage`] and
/// [`BuildError::InvalidEdge`] for a dangling node, a join of fewer
/// than two stages, one handle given to a join twice, or an exit that
/// is not the graph's one sink, plus empty pipelines, duplicate stage
/// names and illegal replica bounds.
pub struct DagBuilder<In, X = ()> {
    /// Tells this graph's handles from every other graph's.
    id: u64,
    specs: Vec<StageSpec>,
    stages: Vec<Box<dyn DynStage>>,
    /// Per-stage routing-key extractors (`Some` for keyed stages only).
    keys: Vec<Option<KeyFn>>,
    /// `(producer, consumer)` stage pairs, grouped by consumer in
    /// join-slot order; a stage the pipeline input feeds has none.
    edges: Vec<(usize, usize)>,
    /// How each producer that may fan out copies its output, by its
    /// number of consumers (`None`: the pipeline input).
    fans: Vec<(Option<usize>, FanFn)>,
    input_bytes: u64,
    source: Option<NodeId>,
    sink: Option<NodeId>,
    /// First structural error of the declaration, surfaced by `finish`.
    err: Option<BuildError>,
    _input: PhantomData<fn(In) -> X>,
}

/// A producer's fan-out duplicator, by its number of consumers.
type FanFn = Box<dyn Fn(usize) -> FanOutFn + Send>;

/// An empty graph whose input items have type `In`.
impl<In, X> Default for DagBuilder<In, X> {
    fn default() -> Self {
        static GRAPHS: AtomicU64 = AtomicU64::new(0);
        DagBuilder {
            id: GRAPHS.fetch_add(1, Ordering::Relaxed),
            specs: Vec::new(),
            stages: Vec::new(),
            keys: Vec::new(),
            edges: Vec::new(),
            fans: Vec::new(),
            input_bytes: 0,
            source: None,
            sink: None,
            err: None,
            _input: PhantomData,
        }
    }
}

impl<In: Send + 'static, X: Exit<In>> DagBuilder<In, X> {
    fn handle<T>(&self, id: Option<usize>) -> Node<T> {
        Node {
            graph: self.id,
            id,
            fan: None,
            _item: PhantomData,
        }
    }

    fn fail(&mut self, err: BuildError) {
        self.err.get_or_insert(err);
    }

    /// The pipeline input: the producer of every entry stage. Feeding
    /// it to several stages means cloning it, as for any handle.
    pub fn input(&self) -> Node<In> {
        self.handle(None)
    }

    /// Declares a named stateless stage with default cost metadata,
    /// fed by `from`.
    pub fn node<A, B, F>(&mut self, name: impl Into<String>, from: Node<A>, f: F) -> Node<B>
    where
        A: Send + 'static,
        B: Send + 'static,
        F: FnMut(A) -> B + Send + Clone + 'static,
    {
        self.node_with(StageSpec::balanced(name, 1.0, 0), from, f)
    }

    /// Declares a named stage with explicit cost metadata. The closure
    /// must be `Clone`: the stage replicates iff `spec`'s declared state
    /// is replicable (stateless, keyed, accumulator); exclusive and
    /// opaque declarations run it as one instance, never copied.
    pub fn node_with<A, B, F>(&mut self, spec: StageSpec, from: Node<A>, f: F) -> Node<B>
    where
        A: Send + 'static,
        B: Send + 'static,
        F: FnMut(A) -> B + Send + Clone + 'static,
    {
        let stage = Box::new(FnStage::new(spec.name.clone(), f));
        self.push(spec, stage, None, [from])
    }

    /// Declares a named *fallible* stage: the closure may reject an
    /// item with an error string, handled per the stage's
    /// [`DagBuilder::resilience`] policy. The input must be `Clone` so
    /// a failed attempt can be re-presented.
    pub fn try_node<A, B, F>(&mut self, name: impl Into<String>, from: Node<A>, f: F) -> Node<B>
    where
        A: Clone + Send + 'static,
        B: Send + 'static,
        F: FnMut(A) -> Result<B, String> + Send + Clone + 'static,
    {
        self.try_node_with(StageSpec::balanced(name, 1.0, 0), from, f)
    }

    /// Declares a fallible stage with explicit cost metadata; it
    /// replicates iff the declared state does.
    pub fn try_node_with<A, B, F>(&mut self, spec: StageSpec, from: Node<A>, f: F) -> Node<B>
    where
        A: Clone + Send + 'static,
        B: Send + 'static,
        F: FnMut(A) -> Result<B, String> + Send + Clone + 'static,
    {
        let stage = Box::new(FallibleFnStage::new(spec.name.clone(), f));
        self.push(spec, stage, None, [from])
    }

    /// Declares a named *joining* stage: it receives one `Vec` holding
    /// the outputs of the stages `from` names, in that order, per item.
    /// At least two stages are required — a single-input consumer is an
    /// ordinary `node`.
    pub fn join<B, Out, F>(
        &mut self,
        name: impl Into<String>,
        from: Vec<Node<B>>,
        f: F,
    ) -> Node<Out>
    where
        B: Send + 'static,
        Out: Send + 'static,
        F: FnMut(Vec<B>) -> Out + Send + Clone + 'static,
    {
        self.join_with(StageSpec::balanced(name, 1.0, 0), from, f)
    }

    /// Declares a joining stage with explicit cost metadata; it
    /// replicates iff the declared state does (an exclusive or opaque
    /// declaration pins the join to width one).
    pub fn join_with<B, Out, F>(&mut self, spec: StageSpec, from: Vec<Node<B>>, f: F) -> Node<Out>
    where
        B: Send + 'static,
        Out: Send + 'static,
        F: FnMut(Vec<B>) -> Out + Send + Clone + 'static,
    {
        if from.len() < 2 {
            self.fail(BuildError::InvalidEdge {
                detail: format!(
                    "join '{}' declares {} input(s); a join needs at least two",
                    spec.name,
                    from.len()
                ),
            });
        }
        if from.iter().any(|node| node.id.is_none()) {
            self.fail(BuildError::InvalidEdge {
                detail: format!(
                    "join '{}' takes the pipeline input; only stages can be joined",
                    spec.name
                ),
            });
        }
        let stage = Box::new(MergeStage::new(spec.name.clone(), f));
        self.push(spec, stage, None, from)
    }

    /// Declares a stage with *opaque* (undeclared) closure state: it
    /// runs as one instance that is never copied, migrating it costs
    /// `spec.state_bytes` of transfer, and losing its node permanently
    /// fails the run with `RunError::StatefulStageLost`. The closure
    /// needs no `Clone` bound, so it cannot replicate: a replicable
    /// declaration is normalised to opaque.
    pub fn stateful_node_with<A, B, F>(&mut self, spec: StageSpec, from: Node<A>, f: F) -> Node<B>
    where
        A: Send + 'static,
        B: Send + 'static,
        F: FnMut(A) -> B + Send + 'static,
    {
        let spec = if spec.state.replicable() {
            let bytes = spec.state_bytes;
            spec.with_state(bytes)
        } else {
            spec
        };
        let stage = Box::new(FnStage::opaque(spec.name.clone(), f));
        self.push(spec, stage, None, [from])
    }

    /// Declares a stage with *keyed* state: `key` hashes each item to a
    /// state slice, `init` seeds a first-seen key's state `S`, and `f`
    /// transforms the item with mutable access to its key's state. The
    /// declared shard count is what lets the stage replicate and
    /// migrate, and the router sends every item of one key to the same
    /// instance.
    ///
    /// # Panics
    /// Panics if `spec` does not declare keyed state
    /// ([`StageSpec::with_keyed_state`]): the shard count is part of
    /// the declaration, not something the builder can guess.
    pub fn keyed_node_with<A, B, S, K, F>(
        &mut self,
        spec: StageSpec,
        from: Node<A>,
        key: K,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> Node<B>
    where
        A: Send + 'static,
        B: Send + 'static,
        S: StateCodec + Send + 'static,
        K: Fn(&A) -> u64 + Send + Sync + 'static,
        F: FnMut(&mut S, A) -> B + Send + Clone + 'static,
    {
        assert!(
            spec.state.shards() > 0,
            "stage '{}' must declare keyed state",
            spec.name
        );
        let stage = KeyedStage::new(spec.name.clone(), key, init, f);
        let key = stage.routing_key();
        self.push(spec, Box::new(stage), Some(key), [from])
    }

    /// Declares a stage with *accumulator* state: one logical value with
    /// a commutative `merge` (the declaration is applied if missing).
    /// Replicas keep partials seeded from `init`; a replica vacating a
    /// host hands its partial to a survivor through `merge`.
    pub fn accumulator_node_with<A, B, S, F, M>(
        &mut self,
        spec: StageSpec,
        from: Node<A>,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
        merge: M,
    ) -> Node<B>
    where
        A: Send + 'static,
        B: Send + 'static,
        S: StateCodec + Send + 'static,
        F: FnMut(&mut S, A) -> B + Send + Clone + 'static,
        M: Fn(&mut S, S) + Send + Sync + 'static,
    {
        let bytes = spec.state_bytes;
        let spec = spec.with_accumulator_state(bytes);
        let stage = AccumStage::new(spec.name.clone(), init, f, merge);
        self.push(spec, Box::new(stage), None, [from])
    }

    /// Declares a stage with *exclusive* state, seeded from `init` (the
    /// declaration is applied if missing): exactly one live instance
    /// runs, and its state quiesces, snapshots and resumes on another
    /// host when it moves.
    pub fn exclusive_node_with<A, B, S, F>(
        &mut self,
        spec: StageSpec,
        from: Node<A>,
        init: impl Fn() -> S + Send + Sync + 'static,
        f: F,
    ) -> Node<B>
    where
        A: Send + 'static,
        B: Send + 'static,
        S: StateCodec + Send + 'static,
        F: FnMut(&mut S, A) -> B + Send + Clone + 'static,
    {
        let bytes = spec.state_bytes;
        let spec = spec.with_exclusive_state(bytes);
        let stage = AccumStage::exclusive(spec.name.clone(), init, f);
        self.push(spec, Box::new(stage), None, [from])
    }

    /// Declares a parallel block fed by `from`: each branch chain's
    /// stages are appended in branch order, each branch's first stage
    /// receives its own copy of `from`'s items, and each replicable
    /// stage's bound is tightened to its branch's cap. Returns the last
    /// stage of each branch, in branch order, for a join to close the
    /// block with. A block of fewer than two branches, or with an empty
    /// branch, is the [`BuildError`] `finish` returns.
    pub fn parallel<A, B>(
        &mut self,
        from: Node<A>,
        branches: Vec<(PipelineBuilder<A, B>, usize)>,
    ) -> Vec<Node<B>>
    where
        A: Clone + Send + 'static,
        B: Send + 'static,
    {
        // Blocks are numbered by their joins: those declared so far.
        let joins = self.edges.chunk_by(|a, b| a.1 == b.1);
        let block = joins.filter(|inputs| inputs.len() > 1).count();
        if branches.len() < 2 {
            self.fail(BuildError::TooFewBranches { block });
        }
        if branches
            .iter()
            .any(|(chain, _)| chain.graph.specs.is_empty())
        {
            self.fail(BuildError::EmptyBranch { block });
        }
        let branches = branches.into_iter();
        let ends = branches.map(|(PipelineBuilder { graph, .. }, cap)| {
            let start: Node<()> = from.clone().cast();
            let stages = graph.specs.into_iter().zip(graph.stages).zip(graph.keys);
            let end = stages.fold(start, |end, ((mut spec, stage), key)| {
                if spec.state.replicable() {
                    spec.max_replicas = spec.max_replicas.min(cap);
                }
                self.push(spec, stage, key, [end])
            });
            end.cast()
        });
        ends.collect()
    }

    /// Declares the failure-handling policy of the most recently
    /// declared stage (retries, backoff, dead-letter, trace) —
    /// honoured identically by both backends. A call before any stage
    /// was declared is ignored.
    pub fn resilience(&mut self, policy: ResiliencePolicy) {
        if let Some(spec) = self.specs.last_mut() {
            spec.resilience = policy;
        }
    }

    /// Records a handle this graph did not hand out as the first error.
    fn check<T>(&mut self, node: &Node<T>) {
        if node.graph != self.id {
            self.fail(BuildError::InvalidEdge {
                detail: "a handle from another graph was passed in".into(),
            });
        }
    }

    /// Appends one stage: its declaration, its erased function, its
    /// routing-key extractor, and the producers feeding it, in slot
    /// order. A cloned producer handle records how that producer fans
    /// out.
    fn push<T, Out>(
        &mut self,
        spec: StageSpec,
        stage: Box<dyn DynStage>,
        key: Option<KeyFn>,
        from: impl IntoIterator<Item = Node<T>>,
    ) -> Node<Out> {
        let id = self.specs.len();
        for node in from {
            self.check(&node);
            if let Some(fan) = node.fan {
                if !self.fans.iter().any(|(source, _)| *source == node.id) {
                    self.fans.push((node.id, Box::new(fan)));
                }
            }
            self.edges.extend(node.id.map(|producer| (producer, id)));
        }
        self.specs.push(spec);
        self.stages.push(stage);
        self.keys.push(key);
        self.handle(Some(id))
    }

    /// Ends the graph at `exit`, the one stage nothing consumes: the
    /// returned builder delivers its output, and can append further
    /// stages after it.
    pub fn exit<Out>(self, exit: Node<Out>) -> X::Builder<Out> {
        X::wrap(PipelineBuilder {
            graph: self,
            tail: exit,
        })
    }

    /// Validates the declaration and assembles the pipeline whose
    /// output is `exit`'s: the graph's first wiring error, stage names
    /// and replica bounds, then the stage graph, that `exit` is its one
    /// sink, and one fan-out duplicator per fan block of it.
    pub fn finish<Out>(mut self, exit: Node<Out>) -> Result<Pipeline<In, Out>, BuildError> {
        self.check(&exit);
        if let Some(err) = self.err {
            return Err(err);
        }
        let names: Vec<&str> = self.specs.iter().map(|s| s.name.as_str()).collect();
        session::validate_stage_names(&names)?;
        for spec in &self.specs {
            session::validate_replicas(&spec.name, spec.state, spec.max_replicas)?;
        }
        let wiring = (self.edges.iter()).fold(StageGraph::dag(names.len()), |w, &(from, to)| {
            w.edge(from, to)
        });
        let graph = wiring.build().map_err(|e| graph_build_error(e, &names))?;
        let name = |id: Option<usize>| {
            id.map_or("the pipeline input".to_string(), |s| {
                format!("'{}'", names[s])
            })
        };
        if exit.id != Some(graph.exit()) {
            return Err(BuildError::InvalidEdge {
                detail: format!(
                    "exit {} is not the graph's sink '{}'",
                    name(exit.id),
                    names[graph.exit()]
                ),
            });
        }
        let fanouts = (0..graph.blocks())
            .map(|b| {
                let source = graph.fan_source(b);
                let (_, fan) = self
                    .fans
                    .iter()
                    .find(|(s, _)| *s == source)
                    .ok_or_else(|| BuildError::InvalidEdge {
                        detail: format!(
                            "{} feeds several stages, but its handle was not cloned",
                            name(source)
                        ),
                    })?;
                Ok(fan(graph.fan_targets(b).len()))
            })
            .collect::<Result<_, BuildError>>()?;
        let mut spec = PipelineSpec::with_graph(self.specs, graph);
        spec.input_bytes = self.input_bytes;
        spec.source = self.source;
        spec.sink = self.sink;
        Ok(Pipeline::from_parts(spec, self.stages, fanouts, self.keys))
    }
}

/// Maps the graph layer's structural [`GraphError`] (stage *ids*) to
/// the typed [`BuildError`] (stage *names*). Handles point only
/// backwards, so cycles, self-edges and unknown stages cannot occur;
/// what can is a dangling stage or a join fed twice by one producer.
fn graph_build_error(err: GraphError, names: &[&str]) -> BuildError {
    match err {
        GraphError::Unreachable { stage } => BuildError::UnreachableStage {
            stage: names[stage].to_string(),
        },
        GraphError::DuplicateEdge { from, to } => BuildError::InvalidEdge {
            detail: format!("'{}' feeds join '{}' twice", names[from], names[to]),
        },
        GraphError::MultipleExits { exits } => BuildError::InvalidEdge {
            detail: format!(
                "several stages have no consumer: {:?} (a pipeline has one sink)",
                exits.iter().map(|&s| names[s]).collect::<Vec<_>>()
            ),
        },
        other => BuildError::InvalidEdge {
            detail: other.to_string(),
        },
    }
}

/// The chain builder: a [`DagBuilder`] graph plus its *tail*, the
/// [`Node`] whose output the next appended stage consumes. `Cur` is the
/// tail's item type, so stage `i+1` must accept exactly what stage `i`
/// produces. `X` is the graph's [`Exit`].
pub struct PipelineBuilder<In, Cur = In, X = ()> {
    graph: DagBuilder<In, X>,
    tail: Node<Cur>,
}

impl<In: Send + 'static, X: Exit<In>> PipelineBuilder<In, In, X> {
    /// Starts a pipeline whose inputs have type `In`: a graph with no
    /// stage yet, positioned at the pipeline input.
    pub fn new() -> Self {
        let graph = DagBuilder::default();
        let tail = graph.input();
        PipelineBuilder { graph, tail }
    }
}

impl<In: Send + 'static, X: Exit<In>> Default for PipelineBuilder<In, In, X> {
    fn default() -> Self {
        Self::new()
    }
}

impl<In: Send + 'static, Cur: Send + 'static, X: Exit<In>> PipelineBuilder<In, Cur, X> {
    /// Adopts a built pipeline — its stages, stage graph and cost
    /// metadata — positioned at its exit stage, so stages appended
    /// afterwards consume the exit's output.
    pub fn from_pipeline(pipeline: Pipeline<In, Cur>) -> Self {
        let (spec, stages, fanouts, keys) = pipeline.into_parts();
        let adopted = &spec.graph;
        let mut graph = DagBuilder {
            specs: spec.stages,
            stages,
            keys,
            edges: adopted.edges().collect(),
            input_bytes: spec.input_bytes,
            source: spec.source,
            sink: spec.sink,
            ..DagBuilder::default()
        };
        // No adopted stage gains a consumer: the only handle on one is
        // the tail, the exit, which feeds nothing yet. So each adopted
        // duplicator keeps the width it was built for.
        for (b, fan) in fanouts.into_iter().enumerate() {
            let source = adopted.fan_source(b);
            graph.fans.push((source, Box::new(move |_| fan.clone())));
        }
        let tail = graph.handle(Some(adopted.exit()));
        PipelineBuilder { graph, tail }
    }

    /// Declares how many bytes each input item carries into stage 0.
    pub fn input_bytes(mut self, bytes: u64) -> Self {
        self.graph.input_bytes = bytes;
        self
    }

    /// Pins the input source to a grid node (inputs pay the transfer
    /// from there to stage 0's host).
    pub fn source(mut self, node: NodeId) -> Self {
        self.graph.source = Some(node);
        self
    }

    /// Pins the output sink to a grid node.
    pub fn sink(mut self, node: NodeId) -> Self {
        self.graph.sink = Some(node);
        self
    }

    /// Declares one stage on the graph, fed by the tail, and makes it
    /// the new tail: `declare` calls one of the [`DagBuilder`]'s typed
    /// constructors.
    pub fn then<Out>(
        self,
        declare: impl FnOnce(&mut DagBuilder<In, X>, Node<Cur>) -> Node<Out>,
    ) -> PipelineBuilder<In, Out, X> {
        let PipelineBuilder { mut graph, tail } = self;
        let tail = declare(&mut graph, tail);
        PipelineBuilder { graph, tail }
    }

    /// Appends a plain-closure stage ([`DagBuilder::node_with`]).
    pub fn stage<Out, F>(self, spec: StageSpec, f: F) -> PipelineBuilder<In, Out, X>
    where
        Out: Send + 'static,
        F: FnMut(Cur) -> Out + Send + Clone + 'static,
    {
        self.then(|graph, tail| graph.node_with(spec, tail, f))
    }

    /// The graph and the handle on its tail.
    pub fn into_graph(self) -> (DagBuilder<In, X>, Node<Cur>) {
        (self.graph, self.tail)
    }

    /// Finalises the pipeline, its output the tail's.
    ///
    /// # Panics
    /// Panics with the [`BuildError`] [`DagBuilder::finish`] returns —
    /// no stage, a duplicate stage name, a zero replica bound.
    pub fn build(self) -> Pipeline<In, Cur> {
        let (graph, tail) = self.into_graph();
        graph.finish(tail).unwrap_or_else(|err| panic!("{err}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::stage::BoxedItem;

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
        let mut item: BoxedItem = Payload::new(5u32);
        for s in &mut stages {
            s.process(&mut item).expect("stages are type-aligned");
        }
        assert_eq!(item.downcast::<u32>().unwrap(), 12);
    }

    #[test]
    fn stateful_stage_keeps_state_and_refuses_replication() {
        let spec = StageSpec::balanced("sum", 1.0, 8).with_state(8);
        let p = PipelineBuilder::<u64>::new()
            .then(|graph, tail| {
                let mut acc = 0u64;
                graph.stateful_node_with(spec, tail, move |x: u64| {
                    acc += x;
                    acc
                })
            })
            .build();
        assert!(!p.spec().profile().state[0].replicable());
        let (_, mut stages, ..) = p.into_parts();
        let mut run = |x: u64| {
            let mut out = Payload::new(x);
            stages[0].process(&mut out).expect("typed item");
            out.downcast::<u64>().unwrap()
        };
        assert_eq!(run(2), 2);
        assert_eq!(run(3), 5);
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
        let spec = StageSpec::balanced("count", 1.0, 8).with_keyed_state(4, 1024);
        let p = PipelineBuilder::<u64>::new()
            .then(|graph, tail| {
                let count = |n: &mut u64, x: u64| {
                    *n += 1;
                    (x, *n)
                };
                graph.keyed_node_with(spec, tail, |x: &u64| *x % 10, || 0u64, count)
            })
            .build();
        assert_eq!(p.spec().profile().replica_cap, vec![4]);
        let (_, mut stages, _, keys) = p.into_parts();
        assert_eq!(keys.len(), 1);
        let kf = keys[0].clone().expect("keyed stage has a key fn");
        let item: BoxedItem = Payload::new(13u64);
        assert_eq!(kf(&item), 3);
        let mut out = Payload::new(13u64);
        stages[0].process(&mut out).expect("typed item");
        assert_eq!(out.downcast::<(u64, u64)>().unwrap(), (13, 1));
    }

    #[test]
    #[should_panic(expected = "must declare keyed state")]
    fn keyed_stage_requires_the_declaration() {
        let _ = PipelineBuilder::<u64>::new().then(|graph, tail| {
            let spec = StageSpec::balanced("k", 1.0, 0);
            graph.keyed_node_with(spec, tail, |x: &u64| *x, || 0u64, |_: &mut u64, x| x)
        });
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
