//! Pipeline specifications: the metadata the adaptive runtime plans with.
//!
//! A [`PipelineSpec`] describes each stage's *cost shape* — expected work
//! per item, output size, migratable state size, statefulness — without
//! reference to any particular engine — plus the [`StageGraph`] that
//! wires the stages: one DAG, whether it was declared through the chain
//! and parallel-block sugar or edge by edge. Both the simulated engine
//! and the threaded engine consume the same spec; the mapper sees it
//! through [`PipelineSpec::profile`].

use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::rng::{mix, unit_f64};
use adapipe_mapper::model::PipelineProfile;

pub use adapipe_mapper::graph::{DagGraphBuilder, GraphError, Next, StageGraph, StageGraphBuilder};
pub use adapipe_runtime::session::ResiliencePolicy;
pub use adapipe_state::StateAccess;

/// Per-item work drawn for `(stage, item)` pairs.
///
/// Implementations must be deterministic functions of the item index so
/// simulation runs replay exactly; `mean` feeds the analytic model.
pub trait WorkModel: Send + Sync {
    /// Work units stage processing of item `item` costs.
    fn draw(&self, item: u64) -> f64;
    /// Expected work units per item.
    fn mean(&self) -> f64;
    /// An owned copy of this model, so specs (and therefore whole
    /// pipelines) are cloneable — streaming sessions own their spec.
    fn clone_box(&self) -> Box<dyn WorkModel>;
}

impl Clone for Box<dyn WorkModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Every item costs exactly `work` units.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConstantWork(pub(crate) f64);

impl WorkModel for ConstantWork {
    fn draw(&self, _item: u64) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
    fn clone_box(&self) -> Box<dyn WorkModel> {
        Box::new(*self)
    }
}

/// Work uniform in `[mean·(1−spread), mean·(1+spread)]`, deterministic
/// per `(seed, item)`.
#[derive(Clone, Copy, Debug)]
pub struct UniformWork {
    mean: f64,
    spread: f64,
    seed: u64,
}

impl UniformWork {
    /// Creates the model; `spread ∈ [0, 1)`.
    ///
    /// # Panics
    /// Panics if `mean` is not positive or `spread` out of range.
    pub fn new(mean: f64, spread: f64, seed: u64) -> Self {
        assert!(mean > 0.0, "mean work must be positive");
        assert!((0.0..1.0).contains(&spread), "spread must be in [0,1)");
        UniformWork { mean, spread, seed }
    }
}

impl WorkModel for UniformWork {
    fn draw(&self, item: u64) -> f64 {
        let u = unit_f64(mix(self.seed, item));
        self.mean * (1.0 + self.spread * (2.0 * u - 1.0))
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn clone_box(&self) -> Box<dyn WorkModel> {
        Box::new(*self)
    }
}

/// Cost metadata for one stage.
#[derive(Clone)]
pub struct StageSpec {
    /// Stage name for reports.
    pub name: String,
    /// Per-item work model.
    pub work: Box<dyn WorkModel>,
    /// Bytes each output item carries to the next stage (or the sink).
    pub out_bytes: u64,
    /// Bytes of internal state a migration must move (0 for stateless).
    pub state_bytes: u64,
    /// Declared replica-width cap for the planner (`usize::MAX` leaves
    /// the width to the planner's global `max_width`; folded together
    /// with the state pattern's own bound by [`StageSpec::replica_cap`]).
    pub max_replicas: usize,
    /// Declared state-access pattern (Danelutto/Torquati taxonomy): the
    /// one statefulness datum, read in place by the builders, the
    /// planner and both backends. It decides replicability and the
    /// instance type of a plain closure (`replicable`), stealing and
    /// fusion (`is_stateless`), shard routing (`shards`), and whether
    /// the state can migrate off a dying node instead of aborting the
    /// run (`migratable`).
    pub state: StateAccess,
    /// Per-item failure handling (retries, dead-letter, trace). The
    /// default is fail-fast: the first item a fallible stage rejects
    /// ends the run with `RunError::PoisonItem` (`attempts == 1`) on
    /// either backend.
    pub resilience: ResiliencePolicy,
}

impl StageSpec {
    /// A stateless stage with constant work.
    pub fn balanced(name: impl Into<String>, work: f64, out_bytes: u64) -> Self {
        StageSpec {
            name: name.into(),
            work: Box::new(ConstantWork(work)),
            out_bytes,
            state_bytes: 0,
            max_replicas: usize::MAX,
            state: StateAccess::Stateless,
            resilience: ResiliencePolicy::default(),
        }
    }

    /// Declares this stage's failure handling: retries with backoff,
    /// dead-letter diversion, per-hop tracing.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Marks the stage stateful with `state_bytes` of state the runtime
    /// cannot inspect (*opaque* closure state: pinned to one node, lost
    /// with it). Prefer the declared patterns — [`Self::with_keyed_state`],
    /// [`Self::with_accumulator_state`], [`Self::with_exclusive_state`] —
    /// which replicate and/or migrate instead.
    pub fn with_state(mut self, state_bytes: u64) -> Self {
        self.state_bytes = state_bytes;
        self.state = StateAccess::Opaque;
        self
    }

    /// Declares keyed state: `state_bytes` of per-key state partitioned
    /// into `shards` independent slices by key hash. The stage may
    /// replicate up to `shards` ways and its shards migrate when their
    /// owner changes.
    pub fn with_keyed_state(mut self, shards: usize, state_bytes: u64) -> Self {
        assert!(shards > 0, "keyed state needs at least one shard");
        self.state_bytes = state_bytes;
        self.state = StateAccess::Keyed { shards };
        self
    }

    /// Declares accumulator state: `state_bytes` of one logical value
    /// with a commutative merge. Replicas keep partials; a vacating
    /// replica's partial is absorbed by a survivor.
    pub fn with_accumulator_state(mut self, state_bytes: u64) -> Self {
        self.state_bytes = state_bytes;
        self.state = StateAccess::Accumulator;
        self
    }

    /// Declares exclusive state: serializable but indivisible. Exactly
    /// one live instance, which can still snapshot and move off a dying
    /// node instead of aborting the run.
    pub fn with_exclusive_state(mut self, state_bytes: u64) -> Self {
        self.state_bytes = state_bytes;
        self.state = StateAccess::Exclusive;
        self
    }

    /// The planner-facing replica bound: the declared `max_replicas`
    /// preference folded with what the state pattern supports.
    pub fn replica_cap(&self) -> usize {
        // A zero declaration passes through unclamped so the unified
        // builder can reject it as a typed error at `build()` (which
        // also rejects an explicit width on a single-instance pattern —
        // it validates the raw `max_replicas` declaration, not this
        // planner-facing clamp).
        if self.max_replicas == 0 {
            return 0;
        }
        self.state.effective_cap(self.max_replicas)
    }

    /// Declares how wide the runtime may legally replicate this stage
    /// (Danelutto-style state-access declaration: the programmer states
    /// the replication property, the planner exploits it). The bound is
    /// validated by the unified builder — zero is rejected at `build()`.
    pub fn with_replicas(mut self, max_replicas: usize) -> Self {
        self.max_replicas = max_replicas;
        self
    }

    /// Replaces the work model.
    pub fn with_work(mut self, work: Box<dyn WorkModel>) -> Self {
        self.work = work;
        self
    }
}

impl std::fmt::Debug for StageSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageSpec")
            .field("name", &self.name)
            .field("mean_work", &self.work.mean())
            .field("out_bytes", &self.out_bytes)
            .field("state_bytes", &self.state_bytes)
            .field("max_replicas", &self.max_replicas)
            .field("state", &self.state)
            .field("resilience", &self.resilience)
            .finish()
    }
}

/// A complete engine-agnostic pipeline description.
#[derive(Clone, Debug)]
pub struct PipelineSpec {
    /// The stages, indexed by stage id (the sugar builders number them
    /// in declaration order: chain stages in series; inside a parallel
    /// block: branch 0's stages, branch 1's, …, then the merge stage).
    pub stages: Vec<StageSpec>,
    /// The DAG wiring the stage ids together.
    pub graph: StageGraph,
    /// Bytes each input item carries into the entry stage(s).
    pub input_bytes: u64,
    /// Node where inputs originate (`None`: materialise at the entry
    /// host for free).
    pub source: Option<NodeId>,
    /// Node where outputs must be delivered (`None`: vanish at the last
    /// stage's host for free).
    pub sink: Option<NodeId>,
}

impl PipelineSpec {
    /// Builds a linear spec from stages with no explicit source/sink
    /// placement.
    ///
    /// # Panics
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<StageSpec>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        let graph = StageGraph::linear(stages.len());
        PipelineSpec {
            stages,
            graph,
            input_bytes: 0,
            source: None,
            sink: None,
        }
    }

    /// Builds a spec whose stages are wired by `graph` — any DAG, from
    /// either graph builder.
    ///
    /// # Panics
    /// Panics if `stages` is empty or `graph` covers a different number
    /// of stages.
    pub fn with_graph(stages: Vec<StageSpec>, graph: StageGraph) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        graph.validate(stages.len());
        PipelineSpec {
            stages,
            graph,
            input_bytes: 0,
            source: None,
            sink: None,
        }
    }

    /// A pipeline of `n` identical stateless stages — the balanced
    /// synthetic workload.
    pub fn balanced(n: usize, work: f64, bytes: u64) -> Self {
        assert!(n > 0);
        let mut spec = PipelineSpec::new(
            (0..n)
                .map(|i| StageSpec::balanced(format!("stage{i}"), work, bytes))
                .collect(),
        );
        spec.input_bytes = bytes;
        spec
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the spec has no stages (not constructible).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Per-item work drawn for `(stage, item)`.
    pub fn draw_work(&self, stage: usize, item: u64) -> f64 {
        self.stages[stage].work.draw(item)
    }

    /// The mapper's view: mean work, boundary bytes, declared state.
    ///
    /// The profile carries each stage's [`StateAccess`] as declared;
    /// the planner asks it `replicable()` — declared keyed and
    /// accumulator stages replicate even though they hold state, only
    /// exclusive and opaque state pins to one host — and the model asks
    /// it `is_stateless()`, the engine's fusion predicate. Replica caps
    /// fold each stage's declared `max_replicas` with its state
    /// pattern's own bound ([`StageSpec::replica_cap`]):
    /// a keyed stage never runs wider than its shard count, and
    /// single-instance patterns clamp to one. A declared bound of zero
    /// passes through — the unified builder rejects it at `build()`
    /// with a typed error, and backend-level callers hit
    /// `PipelineProfile::validate`'s assert.
    pub fn profile(&self) -> PipelineProfile {
        let ns = self.stages.len();
        let mut boundary_bytes = Vec::with_capacity(ns + 1);
        boundary_bytes.push(self.input_bytes);
        for s in &self.stages {
            boundary_bytes.push(s.out_bytes);
        }
        PipelineProfile {
            stage_work: self.stages.iter().map(|s| s.work.mean()).collect(),
            boundary_bytes,
            graph: self.graph.clone(),
            state: self.stages.iter().map(|s| s.state).collect(),
            replica_cap: self.stages.iter().map(|s| s.replica_cap()).collect(),
            source: self.source,
            sink: self.sink,
            // Conservative default: the simulator routes every boundary
            // through its link model, self links included. The threaded
            // engine — the one backend that fuses co-located chains —
            // flips this on before planning.
            fuses_colocated: false,
        }
    }

    /// Mean total work per item.
    pub fn total_mean_work(&self) -> f64 {
        self.stages.iter().map(|s| s.work.mean()).sum()
    }

    /// Stage names in order.
    pub fn names(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_work_is_flat() {
        let w = ConstantWork(2.5);
        assert_eq!(w.draw(0), 2.5);
        assert_eq!(w.draw(999), 2.5);
        assert_eq!(w.mean(), 2.5);
    }

    #[test]
    fn uniform_work_is_bounded_and_deterministic() {
        let w = UniformWork::new(2.0, 0.5, 7);
        let w2 = UniformWork::new(2.0, 0.5, 7);
        for item in 0..1000 {
            let v = w.draw(item);
            assert!((1.0..=3.0).contains(&v), "v={v}");
            assert_eq!(v, w2.draw(item));
        }
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| w.draw(i)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn balanced_spec_profile_round_trips() {
        let spec = PipelineSpec::balanced(3, 1.5, 100);
        let profile = spec.profile();
        profile.validate();
        assert_eq!(profile.stage_work, vec![1.5, 1.5, 1.5]);
        assert_eq!(profile.boundary_bytes, vec![100; 4]);
        assert!(profile.state.iter().all(|s| s.replicable()));
        assert_eq!(spec.total_mean_work(), 4.5);
    }

    #[test]
    fn with_state_marks_stateful() {
        let s = StageSpec::balanced("acc", 1.0, 10).with_state(4096);
        assert!(!s.state.is_stateless());
        assert_eq!(s.state_bytes, 4096);
        let spec = PipelineSpec::new(vec![s]);
        assert!(!spec.profile().state[0].replicable());
    }

    #[test]
    fn replica_bounds_flow_into_the_profile() {
        let spec = PipelineSpec::new(vec![
            StageSpec::balanced("wide", 1.0, 0).with_replicas(3),
            StageSpec::balanced("free", 1.0, 0),
            StageSpec::balanced("acc", 1.0, 0)
                .with_state(8)
                .with_replicas(5),
        ]);
        let profile = spec.profile();
        profile.validate();
        // Stateful stages are pinned to width 1 regardless of the bound.
        assert_eq!(profile.replica_cap, vec![3, usize::MAX, 1]);
    }

    #[test]
    fn declared_state_patterns_flow_into_the_profile() {
        let spec = PipelineSpec::new(vec![
            StageSpec::balanced("sessions", 1.0, 0).with_keyed_state(4, 4096),
            StageSpec::balanced("stats", 1.0, 0).with_accumulator_state(64),
            StageSpec::balanced("ledger", 1.0, 0).with_exclusive_state(256),
            StageSpec::balanced("legacy", 1.0, 0).with_state(8),
        ]);
        let profile = spec.profile();
        profile.validate();
        // Keyed and accumulator stages are replicable despite state;
        // exclusive and opaque state pins to one instance.
        let replicable: Vec<bool> = profile.state.iter().map(|s| s.replicable()).collect();
        assert_eq!(replicable, vec![true, true, false, false]);
        assert_eq!(profile.replica_cap, vec![4, usize::MAX, 1, 1]);
        assert_eq!(spec.stages[0].state, StateAccess::Keyed { shards: 4 });
        assert!(spec.stages[0].state.migratable());
        assert!(!spec.stages[3].state.migratable());
    }

    #[test]
    fn keyed_cap_folds_with_declared_replicas() {
        let s = StageSpec::balanced("k", 1.0, 0)
            .with_keyed_state(8, 0)
            .with_replicas(3);
        assert_eq!(s.replica_cap(), 3);
        let s = StageSpec::balanced("k", 1.0, 0)
            .with_replicas(0)
            .with_keyed_state(8, 0);
        assert_eq!(s.replica_cap(), 0, "zero passes through for build()");
    }

    #[test]
    fn branched_spec_profile_carries_the_graph() {
        let graph = StageGraph::builder().stages(1).split(&[1, 1]).build();
        let spec = PipelineSpec::with_graph(
            vec![
                StageSpec::balanced("pre", 1.0, 10),
                StageSpec::balanced("a", 2.0, 4),
                StageSpec::balanced("b", 3.0, 4),
                StageSpec::balanced("join", 0.5, 8),
            ],
            graph.clone(),
        );
        let profile = spec.profile();
        profile.validate();
        assert_eq!(profile.graph, graph);
        assert!(!profile.graph.is_linear());
        assert_eq!(profile.boundary_bytes, vec![0, 10, 4, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "graph covers")]
    fn mismatched_graph_is_rejected() {
        let _ = PipelineSpec::with_graph(
            vec![StageSpec::balanced("only", 1.0, 0)],
            StageGraph::linear(2),
        );
    }

    #[test]
    fn names_report_in_order() {
        let spec = PipelineSpec::new(vec![
            StageSpec::balanced("a", 1.0, 0),
            StageSpec::balanced("b", 1.0, 0),
        ]);
        assert_eq!(spec.names(), vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_spec_panics() {
        let _ = PipelineSpec::new(vec![]);
    }
}
