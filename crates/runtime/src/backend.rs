//! The contract between the shared adaptive runtime and an execution
//! backend.
//!
//! A backend owns item transport and stage execution — event queues and
//! integrated service times in the simulator, worker threads and
//! channels in the threaded engine, something else entirely in a future
//! async or multi-process backend. Everything *adaptive* is delegated
//! upward: the [`crate::adapt::AdaptationLoop`] senses, forecasts, plans
//! and decides through this trait, and hands back a [`RemapPlan`] for
//! the backend to realise physically.

use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::mapping::Mapping;

/// An accepted re-mapping, fully priced, for the backend to commit.
///
/// By the time a backend sees the plan, the routing table already
/// points at [`RemapPlan::to`]; the backend's job is the *physical*
/// part — draining or re-homing queues, handing stateful instances
/// over, blocking new hosts until state lands at [`RemapPlan::ready_at`].
#[derive(Clone, Debug)]
pub struct RemapPlan {
    /// Mapping before the re-map.
    pub from: Mapping,
    /// Mapping now in force.
    pub to: Mapping,
    /// Stages whose placement changed.
    pub moved: Vec<usize>,
    /// Migration cost charged (state transfer + drain overhead).
    pub migration_cost: SimDuration,
    /// When the re-mapping was decided.
    pub at: SimTime,
    /// When migrated state arrives and moved stages may serve again.
    pub ready_at: SimTime,
}

/// What an execution backend must expose to be adapted.
///
/// The methods are exactly the backend-specific inputs of the paper's
/// control loop; see `README.md` ("writing a new backend") for the
/// checklist. All times are on the backend's own clock — simulated
/// seconds for the simulator, wall seconds since start for the threaded
/// engine — and the runtime never mixes clocks across backends.
pub trait ExecutionBackend {
    /// Number of (virtual) nodes the backend schedules onto.
    fn node_count(&self) -> usize;

    /// The backend's current time.
    fn now(&self) -> SimTime;

    /// Ground-truth mean availability of `node` over `[from, to]`; the
    /// adaptation loop guarantees `from < to`. Sensing perturbs the
    /// result with observation noise before the forecaster sees it,
    /// mirroring an imperfect grid sensor, and asks only about windows
    /// that have already ended (`to < now()`), possibly as late as its
    /// next tick or fault recovery, so a backend that measures rather
    /// than reads a schedule must keep answering for past windows.
    /// [`crate::policy::Policy::Oracle`] alone also asks about the
    /// coming interval, unperturbed: its clairvoyant rates are each
    /// node's nominal speed × this mean.
    fn mean_availability(&self, node: usize, from: SimTime, to: SimTime) -> f64;

    /// Items that have reached the sink so far.
    fn completed(&self) -> u64;

    /// Realises an accepted re-mapping: re-home queued items, hand over
    /// stateful instances, release replicas on vacated hosts. The
    /// routing table has already been swapped when this is called.
    fn commit_remap(&mut self, plan: &RemapPlan);

    /// A node of the run's fault plan went down at `at` (the routing
    /// table has already been updated to exclude it). Backends override
    /// this to do the physical part: the threaded engine wakes the dead
    /// worker so it evacuates buffered items to live replicas, the
    /// simulator arms its replay accounting. The default does nothing.
    fn on_node_down(&mut self, _node: usize, _at: SimTime) {}

    /// A node recovered at `at` (routing may use it again). The default
    /// does nothing.
    fn on_node_up(&mut self, _node: usize, _at: SimTime) {}
}
