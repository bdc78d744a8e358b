//! # adapipe-gridsim
//!
//! A deterministic discrete-event substrate standing in for the physical
//! computational grid of *An Adaptive Parallel Pipeline Pattern for Grids*
//! (Gonzalez-Velez & Cole, IPDPS 2008).
//!
//! The crate models exactly what the adaptive pipeline pattern observes
//! and exploits about a grid:
//!
//! * **Heterogeneous nodes** ([`node`]) with nominal speeds and
//!   time-varying *availability* — the fraction of the node usable by the
//!   application, the rest being consumed by other grid users;
//! * **Background load** ([`load`]) as pure, seeded functions of simulated
//!   time (steps, square waves, sinusoids, bounded random walks, Markov
//!   on/off processes, explicit traces), so work can be integrated across
//!   future load changes exactly and runs replay bit-for-bit;
//! * **Heterogeneous links** ([`net`]) as a latency + bandwidth matrix with
//!   optional per-link serialisation;
//! * **Event scheduling** ([`event`]) with deterministic tie-breaking;
//! * **Testbeds** ([`grid`]) — the three synthetic grids of experiment T1;
//! * **Fault injection** ([`fault`]) and **run recording** ([`trace`]).
//!
//! Higher layers (the pipeline engine in `adapipe-core`) drive the event
//! queue; this crate owns time, resources and their dynamics.
//!
//! ## Example
//!
//! ```
//! use adapipe_gridsim::prelude::*;
//!
//! // A 2× node that loses half its capacity at t = 10 s.
//! let node = Node::new(
//!     NodeSpec::new("edi-0", 2.0, 1),
//!     LoadModel::step(1.0, 0.5, SimTime::from_secs_f64(10.0)),
//! );
//! // 30 units of work started at t = 5 s: 10 done by t = 10, the
//! // remaining 20 at rate 1.0 finish at t = 30.
//! let done = node.completion_time(SimTime::from_secs_f64(5.0), 30.0);
//! assert!((done.as_secs_f64() - 30.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod fault;
pub mod grid;
pub mod load;
pub mod net;
pub mod node;
pub mod rng;
pub mod time;
pub mod trace;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::event::EventQueue;
    pub use crate::fault::{Fault, FaultPlan};
    pub use crate::grid::{testbed_grid32, testbed_hetero8, testbed_small3, GridSpec, Testbed};
    pub use crate::load::{LoadModel, OverlayWindow, PiecewiseConst};
    pub use crate::net::{LinkQueue, LinkSpec, Topology};
    pub use crate::node::{Node, NodeId, NodeSpec};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::ThroughputTimeline;
}

pub use prelude::*;
