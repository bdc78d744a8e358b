//! # adapipe-core
//!
//! The adaptive parallel pipeline skeleton — the primary contribution of
//! *An Adaptive Parallel Pipeline Pattern for Grids* (Gonzalez-Velez &
//! Cole, IPDPS 2008), reconstructed in Rust.
//!
//! The programmer describes a pipeline on the one typed builder
//! ([`pipeline::DagBuilder`], or the chain [`pipeline::PipelineBuilder`]
//! over it) with per-stage cost metadata ([`spec`]); the skeleton owns
//! everything else:
//!
//! * **instrumentation** of availability and service times,
//! * **forecasting** via `adapipe-monitor`,
//! * **planning** via `adapipe-mapper`,
//! * **adaptation** — re-mapping stages across grid nodes at run time
//!   under a [`policy::Policy`], with hysteresis and migration-cost
//!   accounting in the [`controller`].
//!
//! Two engines execute a pipeline:
//!
//! * [`simengine`] — deterministic discrete-event execution on
//!   `adapipe-gridsim` (the evaluation substrate), with
//!   [`simsession`] as its live push/pull session;
//! * the threaded engine in `adapipe-engine` — real OS threads and
//!   channels with synthetic heterogeneity on one machine.
//!
//! Neither decides what happens to an item at a stage. That is
//! [`item`], the item-semantics kernel: the one retry loop and its
//! give-up mapping (dead letter or typed run error), join-slot
//! assembly, and the walk that forwards an output to its consumers.
//! [`simsession::SimSession`] calls it at push time, the threaded
//! workers call it from their slow path, and the facade above both
//! only translates types and delegates.
//!
//! ## Controller stability design (summary)
//!
//! The controller combines four mechanisms, each added in response to a
//! measured failure mode (ablation A2, `adaptation_stability` tests):
//! sub-interval **windowed sensing** (point samples alias against
//! oscillating load), a short **warm-up** (a cold forecaster
//! extrapolates wildly from one sample), optional **verdict
//! confirmation** (off by default — its lag costs more than the
//! flapping it prevents unless migrations are very expensive), and a
//! **regret guard** that reverts any re-mapping whose *measured*
//! throughput stays far below its prediction. Forecasts can be fooled;
//! measurements cannot.
//!
//! ## Quick example (simulated, backend-level)
//!
//! Applications should prefer the unified `adapipe::api::Pipeline`
//! builder in the facade crate; this is the backend-level entry point
//! it delegates to.
//!
//! ```
//! use adapipe_core::prelude::*;
//! use adapipe_core::simengine;
//! use adapipe_gridsim::prelude::*;
//!
//! let grid = testbed_small3();
//! let spec = PipelineSpec::balanced(3, 1.0, 0);
//! let cfg = RunConfig {
//!     items: 50,
//!     ..RunConfig::default()
//! };
//! let report = simengine::run(&grid, &spec, &Session::default(), &cfg);
//! assert_eq!(report.completed, 50);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod item;
pub mod payload;
pub mod pipeline;
pub mod simengine;
pub mod simsession;
pub mod spec;
pub mod stage;

// The adaptation machinery (controller, policies, reports, metrics)
// moved to `adapipe-runtime`, the backend-agnostic runtime layer; the
// historical `adapipe_core::*` paths remain valid through these
// re-exports.
pub use adapipe_runtime::{controller, metrics, policy, report};

/// Convenient glob-import surface.
///
/// The legacy typed builder (`pipeline::Pipeline` /
/// `pipeline::PipelineBuilder`) is deliberately *not* re-exported here:
/// the facade crate's `adapipe::api` module exports a unified `Pipeline`
/// under the same names, and both preludes are glob-merged there.
/// Backends and tests that need the engine-level builder import it from
/// [`crate::pipeline`] directly.
pub mod prelude {
    pub use crate::controller::{Controller, ControllerConfig};
    pub use crate::metrics::{StageMetrics, StageStats};
    pub use crate::payload::Payload;
    pub use crate::policy::Policy;
    pub use crate::report::{AdaptationEvent, DeadLetter, RunReport};
    pub use crate::spec::{
        PipelineSpec, ResiliencePolicy, StageGraph, StageGraphBuilder, StageSpec, UniformWork,
        WorkModel,
    };
    pub use crate::stage::{BoxedItem, DynStage, FanOutFn, StageError};
    pub use adapipe_runtime::arrivals::ArrivalProcess;
    pub use adapipe_runtime::backend::{ExecutionBackend, RemapPlan};
    pub use adapipe_runtime::routing::{RoutingTable, Selection};
    pub use adapipe_runtime::session::{BuildError, RunConfig, Session};
    pub use adapipe_state::{StateAccess, StateCodec, StateSnapshot};
}

pub use prelude::*;
