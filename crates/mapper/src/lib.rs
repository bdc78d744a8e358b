//! # adapipe-mapper
//!
//! Planning for the adaptive parallel pipeline pattern: given a forecast
//! of per-node effective rates and the link cost matrix, find the
//! stage-to-processor mapping with the best predicted throughput, and
//! decide whether switching to it is worth the migration cost.
//!
//! * [`mapping`] — the mapping representation: per-stage host sets with
//!   coalescing (consecutive stages sharing a host) and replication
//!   (replicable stages fanned over several hosts);
//! * [`graph`] — stage graphs: the pipeline *shape* as one DAG of
//!   ordered predecessor/successor lists over flattened stage ids; the
//!   chain and parallel-block builders are sugar that emits edges into
//!   the same constructor as explicit edge-by-edge wiring;
//! * [`model`] — the analytic bottleneck model: busy-seconds-per-item on
//!   every processor and link, accumulated in one topological walk over
//!   the stage graph's edges; throughput = 1 / busiest resource, latency
//!   is the critical (slowest) path. [`model::Evaluator`] binds it to one
//!   planning problem so the optimisers score candidates without
//!   allocating;
//! * [`enumerate`] — assignment enumeration, compositions, neighbourhood
//!   moves, walked in place on one working mapping;
//! * [`search`] — exhaustive search (small instances), contiguous dynamic
//!   programming, steepest-descent local search with restarts, and the
//!   [`search::plan`] facade;
//! * [`replicate`] — greedy widening of replicable bottleneck stages;
//! * [`decide`] — hysteresis + cost/benefit re-mapping rule, and the
//!   throughput ceiling that certifies a keep without searching;
//! * [`share`] — cross-tenant capacity arbitration: each tenant's
//!   per-window demand (progress and backlog), then weighted
//!   progressive filling of one pool over many sessions under
//!   `min_share`/`max_share` quotas.
//!
//! ## Example
//!
//! ```
//! use adapipe_mapper::prelude::*;
//! use adapipe_gridsim::prelude::*;
//!
//! // 3-stage pipeline, uniform work, negligible data; 3 equal nodes.
//! let profile = PipelineProfile::uniform(vec![1.0, 1.0, 1.0], 0);
//! let topology = Topology::uniform(3, LinkSpec::lan());
//! let plan = plan(&profile, &[1.0, 1.0, 1.0], &topology, &PlannerConfig::default());
//! // The planner spreads the stages: one per node.
//! assert_eq!(plan.mapping.nodes_used().len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decide;
pub mod enumerate;
pub mod graph;
pub mod mapping;
pub mod model;
pub mod replicate;
pub mod search;
pub mod share;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::decide::{
        certified_keep, should_remap, throughput_ceiling, Decision, DecisionConfig, KeepReason,
    };
    pub use crate::enumerate::{assignment_count, compositions, Assignments};
    pub use crate::graph::{Next, StageGraph, StageGraphBuilder};
    pub use crate::mapping::{ContiguousMapping, Mapping, Placement};
    pub use crate::model::{
        evaluate, fused_stages, Bottleneck, Evaluator, Floor, PipelineProfile, Prediction, Score,
    };
    pub use crate::replicate::improve;
    pub use crate::search::{
        contiguous_dp, exhaustive_best, local_search, plan, Plan, PlannerConfig, Strategy,
    };
    pub use crate::share::{arbitrate, fair_shares, ShareQuota};
}

pub use prelude::*;
