//! # adapipe — An Adaptive Parallel Pipeline Pattern for Grids
//!
//! A Rust reconstruction of the adaptive parallel pipeline *algorithmic
//! skeleton* of Gonzalez-Velez & Cole (IPDPS 2008): the programmer
//! supplies per-stage functions; the skeleton owns placement on a set of
//! heterogeneous, dynamically loaded processors and **re-maps the
//! running pipeline** as resource availability changes.
//!
//! This facade crate re-exports the whole workspace and adds the
//! unified, backend-agnostic [`api`]:
//!
//! | Crate | Role |
//! |---|---|
//! | [`gridsim`] | deterministic discrete-event grid substrate |
//! | [`monitor`] | NWS-style measurement + forecasting |
//! | [`mapper`] | stage DAGs, throughput model + mapping optimisers |
//! | [`state`] | state-access taxonomy, shard math, snapshot codec — how stateful stages declare, shard, and move their state |
//! | [`runtime`] | backend-agnostic adaptive runtime: routing table, adaptation loop, controller, policies, reports, sessions |
//! | [`core`] | the skeleton: stages, specs, stage graphs, the item-semantics kernel ([`core::item`]), and the simulation backend ([`core::simsession`] over [`core::simengine`]), whose [`core::simsession::SimPool`] shares one simulated grid between sessions |
//! | [`engine`] | threaded backend with synthetic heterogeneity, whose worker [`engine::exec::Pool`] serves many sessions and, for a cluster, runs the capacity arbiter |
//! | [`workloads`] | cost models, imaging & signal pipelines, scenarios |
//!
//! Both execution backends sit under the shared [`runtime`] layer and
//! behind the one [`api::Pipeline`] surface (see `README.md` for the
//! diagram and a "writing a new backend" guide). The layering is
//! kernel → backends → facade: what happens to one item at one stage
//! (retry budget, dead letter or [`api::RunError::PoisonItem`], join
//! assembly, fan-out order) is written once in [`core::item`]; the
//! threaded workers and the simulator's
//! [`core::simsession::SimSession`] both call it; and [`api`] only
//! validates, hands the backend the pipeline's session and the caller's
//! [`api::RunConfig`] as they are, and holds the backend's own session
//! behind the one [`runtime::session::LiveSession`] trait (and, for an
//! [`api::Cluster`], the backend's own pool behind a two-arm match; each
//! pool keeps the registry of its tenants) — it executes no stage. The
//! stage topology is
//! one first-class *DAG*, declared through one graph builder, which
//! lives in core ([`core::pipeline::DagBuilder`]; the facade's
//! [`api::DagBuilder`], via `Pipeline::dag()`, is the same builder
//! ending in the facade's run declarations). It wires arbitrary
//! topologies through typed [`api::Node`] handles, so a mis-typed edge
//! does not compile, and [`api::PipelineBuilder::stage`] chains,
//! [`api::PipelineBuilder::parallel`] / [`api::ParallelBuilder::merge`]
//! blocks and core's chain builder are sugar over the same builder. A
//! stage is erased in the one call that declares it, so no erased
//! pipeline crosses a crate boundary mis-typed. Every declaration ends in the
//! same graph, the same cost-model walk and the same executors. Per-stage [`runtime::session::ResiliencePolicy`] (retry,
//! dead-letter, trace) is opt-in; the default fails fast with
//! [`api::RunError::PoisonItem`] —
//! all executed with item-identical outputs on both backends (see the
//! README's "Composing skeletons" and "General DAGs & resilience
//! policies").
//!
//! ## Quickstart
//!
//! One program, any backend: declare stages (with their replication
//! properties), a policy, and an arrival process; `build()` validates;
//! `run()` executes on the backend you hand it.
//!
//! ```
//! use adapipe::prelude::*;
//!
//! let grid = testbed_small3();
//! let pipeline = Pipeline::<u64>::builder()
//!     .stage("parse", |x: u64| x + 1)
//!     .stage_replicated("transform", |x: u64| x * 2, 2)
//!     .stage("emit", |x: u64| x)
//!     .policy(Policy::periodic_default())
//!     .feed(|i| i)
//!     .build()
//!     .expect("a valid pipeline");
//!
//! // Simulated on a 3-node grid…
//! let report = pipeline
//!     .run(Backend::Sim(&grid), RunConfig { items: 100, ..RunConfig::default() })
//!     .expect("sim run")
//!     .report;
//! assert_eq!(report.completed, 100);
//!
//! // …or for real, on threads (same program, same report shape):
//! let pipeline = Pipeline::<u64>::builder()
//!     .stage("parse", |x: u64| x + 1)
//!     .stage_replicated("transform", |x: u64| x * 2, 2)
//!     .stage("emit", |x: u64| x)
//!     .feed(|i| i)
//!     .build()
//!     .expect("a valid pipeline");
//! let handle = pipeline
//!     .run(
//!         Backend::Threads(vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]),
//!         RunConfig { items: 10, ..RunConfig::default() },
//!     )
//!     .expect("threaded run");
//! assert_eq!(handle.outputs, (0..10).map(|x| (x + 1) * 2).collect::<Vec<_>>());
//! ```
//!
//! Invalid declarations fail at `build()` with a typed error:
//!
//! ```
//! use adapipe::prelude::*;
//!
//! let err = Pipeline::<u64>::builder()
//!     .stage_replicated("hot", |x: u64| x, 0) // zero replicas
//!     .build()
//!     .unwrap_err();
//! assert!(matches!(err, BuildError::ZeroReplicas { .. }));
//! ```
//!
//! ## Streaming quickstart
//!
//! Batch `run()` is sugar over the live session API. `spawn()` starts
//! the pipeline and hands back a [`api::RunSession`]: push items while
//! the run is live, pull outputs as they complete, and steer adaptation
//! in flight. With a bounded `queue_capacity`, `push()` blocks under
//! real backpressure instead of queueing without limit:
//!
//! ```
//! use adapipe::prelude::*;
//!
//! let pipeline = Pipeline::<u64>::builder()
//!     .stage("parse", |x: u64| x + 1)
//!     .stage("emit", |x: u64| x * 2)
//!     .build()
//!     .expect("valid pipeline");
//!
//! let mut session = pipeline
//!     .spawn(
//!         Backend::Threads(vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]),
//!         RunConfig { queue_capacity: Some(8), ..RunConfig::default() },
//!     )
//!     .expect("spawn");
//!
//! let events = session.events(); // live verdicts / remaps / stalls
//! let mut outputs = Vec::new();
//! for i in 0..20 {
//!     session.push(i).unwrap(); // blocks only when the bounded queues are full
//!     if let TryNext::Item(o) = session.try_next() {
//!         outputs.push(o); // consume while producing
//!     }
//! }
//! let handle = session.drain(); // graceful: every pushed item completes
//! outputs.extend(handle.outputs);
//! assert_eq!(outputs, (0..20).map(|x| (x + 1) * 2).collect::<Vec<_>>());
//! assert_eq!(handle.report.completed, 20);
//! drop(events);
//! ```
//!
//! The same session program runs under `Backend::Sim(&grid)`: the
//! simulated world advances as the session is driven, and stage
//! functions are applied to pushed items in push order, so outputs are
//! item-identical across backends.
//!
//! **Migrating from batch:** `run(backend, cfg)` ≡ `spawn(backend,
//! cfg)` + push `cfg.items` items on the declared arrival schedule +
//! `drain()`. Existing batch code needs no change; switch to `spawn`
//! when the item stream is open-ended, when outputs must be consumed
//! while producing, or when the run needs in-flight control
//! (`pause_adaptation`, `force_remap`, `abort`).
//!
//! See `examples/` (notably `examples/live_service.rs`) for runnable
//! programs and `crates/bench` for the experiment reproduction harness.

pub mod api;

pub use adapipe_core as core;
pub use adapipe_engine as engine;
pub use adapipe_gridsim as gridsim;
pub use adapipe_mapper as mapper;
pub use adapipe_monitor as monitor;
pub use adapipe_runtime as runtime;
pub use adapipe_state as state;
pub use adapipe_workloads as workloads;

/// One glob import for applications: brings in the preludes of every
/// sub-crate plus the unified [`api`] surface. The `Pipeline` and
/// `PipelineBuilder` names resolve to the unified API; the engine-level
/// builder remains at [`core::pipeline`].
pub mod prelude {
    pub use crate::api::{
        ArrivalProcess, Backend, Branch, BuildError, Cluster, ClusterConfig, DagBuilder, EventBus,
        ParallelBuilder, Pipeline, PipelineBuilder, RunConfig, RunError, RunEvent, RunHandle,
        RunSession, SessionConfig, SessionId, ShareQuota, TryNext, Verdict,
    };
    pub use adapipe_core::prelude::*;
    pub use adapipe_engine::prelude::*;
    pub use adapipe_gridsim::prelude::*;
    pub use adapipe_mapper::prelude::*;
    pub use adapipe_monitor::prelude::*;
    pub use adapipe_workloads::prelude::*;
}

// Compile-and-run the README's code blocks as doctests so the quickstart
// can never drift from the API again.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
