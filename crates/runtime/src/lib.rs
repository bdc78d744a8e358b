//! # adapipe-runtime
//!
//! The backend-agnostic half of adaptive pipeline execution — the part
//! of the pattern that is *the same* no matter what actually runs the
//! stages. The paper's contribution is a single adaptive skeleton
//! (instrument → forecast → plan → re-map); this crate is that skeleton,
//! factored out so every execution backend shares one implementation:
//!
//! * [`backend`] — the [`backend::ExecutionBackend`] trait: the four
//!   things a backend must expose to be adapted (time source,
//!   availability probe, completion counter, physical re-map commit);
//! * [`routing`] — the [`routing::RoutingTable`]: live stage→replica-set
//!   routing with round-robin or least-loaded selection, swappable under
//!   a running pipeline;
//! * [`adapt`] — the [`adapt::AdaptationLoop`]: windowed sensing, and
//!   a backend-free `step` — warm-up, policy dispatch, the
//!   realized-throughput regret guard, one [`controller::Controller`]
//!   cycle — that names each tick's [`adapt::Verdict`], applied
//!   identically for every backend;
//! * [`controller`] — monitor → plan → decide, with hysteresis and
//!   migration-cost accounting;
//! * [`fault`] — the `fault::FaultTracker` node-health state machine:
//!   down/up transitions derived from a fault plan, driving routing
//!   exclusion, forced recovery re-maps, and item replay identically on
//!   every backend;
//! * [`policy`] — when the controller wakes up and what it may see;
//! * [`report`] — [`report::RunReport`] and the shared
//!   [`report::ReportBuilder`] so every backend's report has an
//!   identical shape;
//! * [`metrics`] — per-stage service instrumentation;
//! * [`session`] — the backend-agnostic half of the unified `Pipeline`
//!   API: typed [`session::BuildError`] validation, the shared
//!   [`session::RunConfig`], the live [`session::RunEvent`] stream, and
//!   the [`session::LiveSession`] trait both backends' sessions
//!   implement.
//!
//! Concrete backends live elsewhere: the discrete-event simulation
//! backend in `adapipe-core::simengine`, the threaded vnode backend in
//! `adapipe-engine::exec`. Both are thin: they own item transport and
//! implement [`backend::ExecutionBackend`]; everything adaptive lives
//! here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapt;
pub mod arrivals;
pub mod backend;
pub mod controller;
pub mod fault;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod routing;
pub mod session;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::adapt::{AdaptationLoop, RuntimeConfig, Verdict};
    pub use crate::arrivals::ArrivalProcess;
    pub use crate::backend::{ExecutionBackend, RemapPlan};
    pub use crate::controller::{Controller, ControllerConfig};
    pub use crate::metrics::{StageMetrics, StageStats};
    pub use crate::policy::Policy;
    pub use crate::report::{AdaptationEvent, DeadLetter, ReportBuilder, RunReport};
    pub use crate::routing::{RoutingTable, Selection};
    pub use crate::session::{
        BuildError, EventBus, LiveSession, ResiliencePolicy, RunConfig, RunError, RunHandle,
        Session, SessionId,
    };
    pub use adapipe_gridsim::fault::{Fault, FaultPlan};
}

pub use prelude::*;
