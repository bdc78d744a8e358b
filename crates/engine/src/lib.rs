//! # adapipe-engine
//!
//! The threaded execution engine for the adaptive parallel pipeline:
//! real OS threads and channels on one machine, with the grid's
//! heterogeneity reproduced synthetically.
//!
//! * [`vnode`] — virtual nodes: per-worker speed factors and wall-clock
//!   background-load schedules (the calibration band's "synthetic
//!   heterogeneity on one box");
//! * [`exec`] — the engine proper: one worker thread per vnode, shared
//!   routing table, live re-mapping with stateful-instance hand-off, an
//!   order-preserving collector, and the same monitoring/planning
//!   controller the simulator uses; the worker pool ([`exec::Pool`])
//!   serves any number of concurrent tenant sessions under
//!   weighted-fair envelope admission. Three seams of it are modules
//!   of their own: the worker `inbox` (control first, then
//!   start-time-fair tenant lanes), the `credits` gate behind
//!   `queue_capacity`, and `item` — what a worker does with one item at
//!   one stage, as thin callers of the backend-independent kernel
//!   [`adapipe_core::item`] (pool, session, worker loop and fusion are
//!   still in `exec`);
//! * [`inject`] — optional *real* CPU burners for demonstrations of
//!   genuine contention.
//!
//! The engine accepts the same [`adapipe_core::pipeline::Pipeline`] the
//! simulator plans over, so an application written once runs under both.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod credits;
pub mod exec;
mod inbox;
pub mod inject;
mod item;
pub mod vnode;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::exec::{
        attach, execute, execute_fed, spawn, EngineConfig, EngineOutcome, EngineSession, Pool,
        TenantHandle,
    };
    pub use crate::inject::LoadInjector;
    pub use crate::vnode::{calibrate_host, spin_for, VNodeSpec, MIN_WALL_AVAILABILITY};
}

pub use prelude::*;
