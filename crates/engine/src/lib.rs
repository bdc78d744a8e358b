//! # adapipe-engine
//!
//! The threaded execution engine for the adaptive parallel pipeline:
//! real OS threads and channels on one machine, with the grid's
//! heterogeneity reproduced synthetically.
//!
//! * [`vnode`] — virtual nodes: per-worker speed factors and wall-clock
//!   background-load schedules (the calibration band's "synthetic
//!   heterogeneity on one box");
//! * [`exec`] — the engine's public face: the live
//!   [`exec::EngineSession`] (push / pull, backpressure, its
//!   order-preserving collector) and the entry points `spawn` /
//!   `attach` / `execute` / `execute_fed`, which take the vnodes (or a
//!   running pool) and then the run's `Session` and `RunConfig` as the
//!   facade received them. The worker pool ([`exec::Pool`]) serves any
//!   number of concurrent tenant sessions under weighted-fair envelope
//!   admission; it keeps the registry of its tenants and, for a
//!   cluster, runs the arbiter that re-divides capacity between them
//!   every window. `spawn` is a pool of one, with no arbiter. The
//!   machinery underneath is one private module per protocol: `pool`
//!   (one worker thread per vnode, node health, shutdown), `arbiter`
//!   (the tenant registry and a cluster's capacity arbiter), `inbox`
//!   (control first,
//!   then start-time-fair tenant lanes; waiting, waking and stealing),
//!   `worker` (the loop, the placement decision, shipping), `fusion`
//!   (the batch loop, stage fusion, stamp strides), `tenant` (what the
//!   threads share about one session: stage depot, routing table and
//!   cache, live re-mapping with stateful-instance hand-off — the same
//!   monitoring/planning controller the simulator uses), the `credits`
//!   gate behind `queue_capacity`, and `item` — what a worker does with
//!   one item at one stage, as thin callers of the backend-independent
//!   kernel [`adapipe_core::item`];
//! * [`LoadInjector`] — optional *real* CPU burners for demonstrations
//!   of genuine contention.
//!
//! Threads: a pool runs one worker per vnode, plus the arbiter for a
//! cluster; a session runs its collector, plus an adaptation thread
//! only when its loop has a schedule (a tick interval or a pending
//! fault transition). None of them polls: each sleeps until a message,
//! a wake-up or its next deadline.
//!
//! The engine accepts the same [`adapipe_core::pipeline::Pipeline`] the
//! simulator plans over, so an application written once runs under both.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arbiter;
mod credits;
pub mod exec;
mod fusion;
mod inbox;
mod inject;
mod item;
mod pool;
mod tenant;
pub mod vnode;
mod worker;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::exec::{attach, execute_fed, spawn, EngineSession, Pool};
    pub use crate::inject::LoadInjector;
    pub use crate::vnode::{calibrate_host, spin_for, VNodeSpec};
}

pub use prelude::*;
