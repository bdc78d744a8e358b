//! # adapipe-cluster
//!
//! Multi-tenant serving for the adaptive parallel pipeline: many
//! concurrent pipelines — heterogeneous stage graphs, each with its own
//! typed push/pull session — time-share **one** node pool, with a
//! single global arbitration loop dividing capacity across tenants.
//!
//! * [`arbiter`] — per-window demand sensing (progress delta + inbox
//!   backlog) and the demand → share derivation feeding
//!   `adapipe_mapper::share::arbitrate` (weighted progressive filling
//!   under `min_share`/`max_share` quotas);
//! * [`threads`] — [`threads::ThreadCluster`]: the shared engine worker
//!   pool plus the background arbiter thread that pushes the arbitrated
//!   shares into every tenant's handle. Shares act twice: they
//!   re-weight the pool inboxes' start-time-fair-queueing lanes (a
//!   spiking tenant cannot starve the rest) and re-scale each tenant's
//!   planner view of the pool (replicas migrate toward the tenants that
//!   can use them);
//! * [`sim`] — [`sim::SimCluster`]: the deterministic counterpart. No
//!   arbiter thread: each admitted session is granted a *static* share
//!   (the `share` it is attached with), and the tenants' simulated
//!   worlds interleave through the merged event clock of
//!   `adapipe_core::simsession::SimPool`.
//!
//! Applications normally reach all of this through the facade's
//! `Cluster::new` / `admit` / `evict`, which matches on which of the two
//! clusters here it holds: `admit` is generic in the tenant's item
//! types, so the pair cannot sit behind one trait object the way the
//! two backends' sessions sit behind `LiveSession`. An admitted tenant's
//! session is returned as that boxed `LiveSession`. This crate is the
//! backend-facing machinery.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arbiter;
pub mod sim;
pub mod threads;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::arbiter::{arbitrate_window, window_demands, TenantSignal, IDLE_GRACE};
    pub use crate::sim::SimCluster;
    pub use crate::threads::ThreadCluster;
    pub use adapipe_mapper::share::ShareQuota;
}

pub use prelude::*;
