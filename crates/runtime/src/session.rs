//! The backend-agnostic half of the unified `Pipeline` API.
//!
//! The facade crate's `adapipe::api` module is the user-facing builder;
//! everything in it that does **not** depend on a concrete backend lives
//! here so the rules are defined — and testable — exactly once:
//!
//! * [`BuildError`] — the typed validation errors `build()` and `run()`
//!   return instead of panicking;
//! * [`Session`] — a validated (policy, arrivals) pair: constructing one
//!   enforces every policy/arrival compatibility rule;
//! * [`RunConfig`] — the one run configuration: every backend, and the
//!   adaptation loop under them, reads it in place;
//! * [`RunEvent`] / [`EventBus`] — live observation: subscribers see
//!   every tick's verdict, re-mappings, faults, and backpressure stalls
//!   as they happen;
//! * [`SessionControl`] — in-flight steering (pause/resume adaptation,
//!   force a re-map) shared between a live session and the adaptation
//!   loop, honoured identically by every backend;
//! * [`LiveSession`] / [`RunHandle`] — the one live-session surface
//!   every backend's session implements, and what a finished run hands
//!   back.
//!
//! ## Validation rules
//!
//! Stage rules: a pipeline needs at least one stage; stage names must be
//! unique (reports and hooks identify stages by name); a declared
//! replica bound of zero is contradictory (a stage that may never be
//! placed); a replica bound above one on a *stateful* stage declares
//! replication the runtime must refuse (state would fork).
//!
//! Policy/arrival rules: rate-based arrival processes need a positive,
//! finite rate; adaptive policies need a positive interval; the reactive
//! degradation threshold must sit in `(0, 1]`. Two combinations are
//! rejected outright:
//!
//! * [`Policy::Static`] with a rate-paced open stream — a paced stream
//!   declares a live, varying workload, a static policy declares a
//!   fixed launch mapping; in every scenario this repo has carried, the
//!   combination was a mis-specified baseline. A deliberate baseline
//!   is declared by constructing the session with
//!   [`Session::baseline`] (the builder's `as_baseline()`), which
//!   waives only this pairing rule.
//! * [`Policy::Reactive`] with a rate-paced open stream — the
//!   degradation trigger compares realized throughput against the
//!   model's *saturated-capacity* prediction; an arrival-limited stream
//!   keeps realized throughput at the arrival rate regardless of grid
//!   health, misfiring the trigger every interval.

use crate::adapt::Verdict;
use crate::backend::RemapPlan;
use crate::controller::ControllerConfig;
use crate::policy::Policy;
use crate::report::{AdaptationEvent, RunReport};
use crate::routing::Selection;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::mapping::Mapping;
use adapipe_state::StateAccess;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

pub use crate::arrivals::ArrivalProcess;

/// Typed validation failure from the unified builder's `build()` or
/// `run()` — every rule the old API enforced by panicking (or not at
/// all) surfaces here as a matchable variant.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// The pipeline has no stages.
    EmptyPipeline,
    /// Two stages declared the same name.
    DuplicateStage {
        /// The name declared twice.
        name: String,
    },
    /// A stage declared a replica bound of zero.
    ZeroReplicas {
        /// The offending stage.
        stage: String,
    },
    /// A stateful stage declared a replica bound above one.
    StatefulReplicated {
        /// The offending stage.
        stage: String,
    },
    /// A parallel block declared fewer than two branches — fan-out to
    /// one branch is just a chain.
    TooFewBranches {
        /// Index of the offending parallel block (in graph order).
        block: usize,
    },
    /// A parallel block declared a branch with no stages.
    EmptyBranch {
        /// Index of the offending parallel block (in graph order).
        block: usize,
    },
    /// A rate-based arrival process declared a non-positive or
    /// non-finite rate.
    InvalidArrivalRate {
        /// The declared rate.
        rate: f64,
    },
    /// An adaptive policy declared a zero interval.
    NonPositiveInterval {
        /// `Policy::name()` of the offending policy.
        policy: &'static str,
    },
    /// A reactive policy declared a degradation threshold outside
    /// `(0, 1]`.
    DegradationOutOfRange {
        /// The declared threshold.
        degradation: f64,
    },
    /// The declared policy and arrival process contradict each other
    /// (see the module docs for the two rejected combinations).
    PolicyArrivalsMismatch {
        /// `Policy::name()` of the offending policy.
        policy: &'static str,
        /// Why the combination is rejected.
        reason: &'static str,
    },
    /// The chosen backend executes stage functions on real inputs, but
    /// the pipeline declared no input feed.
    MissingFeed {
        /// The backend that needed inputs.
        backend: &'static str,
    },
    /// The chosen backend cannot honour the requested replica-selection
    /// policy (e.g. least-loaded needs a queue-depth probe the threaded
    /// backend does not expose).
    UnsupportedSelection {
        /// The backend that lacks the probe.
        backend: &'static str,
    },
    /// The supplied launch mapping contradicts the pipeline declaration
    /// or the backend (wrong arity, stage wider than its legal replica
    /// bound, host outside the node set).
    InvalidMapping {
        /// What is wrong with the mapping.
        detail: String,
    },
    /// A bounded session declared a queue capacity of zero — it could
    /// never admit an item.
    ZeroQueueCapacity,
    /// The declared fault plan contradicts the backend (a fault names a
    /// node outside the backend's node set).
    InvalidFault {
        /// What is wrong with the plan.
        detail: String,
    },
    /// A session admitted to a multi-tenant cluster declared its own
    /// fault plan — node churn is a property of the shared pool
    /// (declare it on the cluster), not of one tenant.
    PerSessionFaults,
    /// The session's capacity quota is not internally consistent
    /// (shares outside `[0, 1]`, floor above cap, or a non-positive
    /// weight).
    InvalidQuota {
        /// What is wrong with the quota.
        detail: String,
    },
    /// Admitting this session to the deterministic simulation cluster
    /// would oversubscribe the pool: the static shares of the live
    /// sessions already cover the requested capacity.
    PoolOversubscribed {
        /// The share the new session asked for (`max_share`).
        requested: f64,
        /// The share still unclaimed by live sessions.
        available: f64,
    },
    /// A declared stage is wired into no path from source to sink —
    /// items could never reach (or never leave) it.
    UnreachableStage {
        /// The orphaned stage (by name).
        stage: String,
    },
    /// The declared wiring is structurally invalid: a join of fewer
    /// than two stages or fed twice by one, a graph whose stages leave
    /// more than one terminal stage (a pipeline has exactly one sink),
    /// or an exit that is not that sink.
    InvalidEdge {
        /// What is wrong with the wiring.
        detail: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyPipeline => write!(f, "pipeline needs at least one stage"),
            BuildError::DuplicateStage { name } => {
                write!(f, "duplicate stage name '{name}'")
            }
            BuildError::ZeroReplicas { stage } => {
                write!(f, "stage '{stage}' declares a replica bound of zero")
            }
            BuildError::StatefulReplicated { stage } => {
                write!(f, "stateful stage '{stage}' cannot be replicated")
            }
            BuildError::TooFewBranches { block } => {
                write!(f, "parallel block {block} needs at least two branches")
            }
            BuildError::EmptyBranch { block } => {
                write!(f, "parallel block {block} declares an empty branch")
            }
            BuildError::InvalidArrivalRate { rate } => {
                write!(f, "arrival rate must be positive and finite, got {rate}")
            }
            BuildError::NonPositiveInterval { policy } => {
                write!(f, "{policy} policy needs a positive adaptation interval")
            }
            BuildError::DegradationOutOfRange { degradation } => {
                write!(
                    f,
                    "reactive degradation threshold must be in (0, 1], got {degradation}"
                )
            }
            BuildError::PolicyArrivalsMismatch { policy, reason } => {
                write!(f, "{policy} policy incompatible with arrivals: {reason}")
            }
            BuildError::MissingFeed { backend } => {
                write!(
                    f,
                    "the {backend} backend runs stage functions on real inputs; \
                     declare an input feed on the builder"
                )
            }
            BuildError::UnsupportedSelection { backend } => {
                write!(
                    f,
                    "the {backend} backend exposes no queue-depth probe for \
                     least-loaded replica selection"
                )
            }
            BuildError::InvalidMapping { detail } => {
                write!(f, "invalid launch mapping: {detail}")
            }
            BuildError::ZeroQueueCapacity => {
                write!(
                    f,
                    "queue capacity must be at least 1 (a zero-capacity session \
                     could never admit an item); use None for unbounded queues"
                )
            }
            BuildError::InvalidFault { detail } => {
                write!(f, "invalid fault plan: {detail}")
            }
            BuildError::PerSessionFaults => {
                write!(
                    f,
                    "cluster sessions cannot declare their own fault plans; \
                     node churn belongs to the shared pool (ClusterConfig)"
                )
            }
            BuildError::InvalidQuota { detail } => {
                write!(f, "invalid session quota: {detail}")
            }
            BuildError::PoolOversubscribed {
                requested,
                available,
            } => {
                write!(
                    f,
                    "sim cluster pool oversubscribed: session asks for a \
                     {requested:.3} static share but only {available:.3} is unclaimed"
                )
            }
            BuildError::UnreachableStage { stage } => {
                write!(
                    f,
                    "stage '{stage}' is on no source-to-sink path; give it a consumer"
                )
            }
            BuildError::InvalidEdge { detail } => {
                write!(f, "invalid edge: {detail}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Per-stage failure handling, honoured identically by both backends.
///
/// The default policy is the historical behaviour: no retries, no
/// dead-letter diversion, no tracing — a stage error fails the run.
/// Each knob opts one stage into one recovery behaviour:
///
/// * **retries** — a failed item is re-presented to the stage up to
///   `max_retries` more times, waiting `backoff × factor^(n-1)` before
///   the n-th retry (backend clock: simulated seconds, or a real
///   `thread::sleep` on the threaded engine);
/// * **dead-letter** — an item that exhausts its retries is *diverted*
///   (with its originating stage, attempt count, and error) into the
///   report's dead-letter channel instead of failing the session;
/// * **trace** — every (item, stage) hop emits a
///   [`RunEvent::ItemTrace`].
#[derive(Clone, Debug, PartialEq)]
pub struct ResiliencePolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub backoff: SimDuration,
    /// Multiplier applied to the delay for each further retry.
    pub backoff_factor: f64,
    /// Divert exhausted items to the dead-letter channel instead of
    /// failing the run with [`RunError::PoisonItem`].
    pub dead_letter: bool,
    /// Emit a [`RunEvent::ItemTrace`] per (item, stage) hop.
    pub trace: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 0,
            backoff: SimDuration::ZERO,
            backoff_factor: 2.0,
            dead_letter: false,
            trace: false,
        }
    }
}

impl ResiliencePolicy {
    /// The historical no-recovery policy (all knobs off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the retry budget: up to `n` re-presentations after the
    /// first failure.
    #[must_use]
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the exponential backoff schedule: `base` before the first
    /// retry, multiplied by `factor` for each further one.
    #[must_use]
    pub fn backoff(mut self, base: SimDuration, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "backoff factor must be finite and at least 1"
        );
        self.backoff = base;
        self.backoff_factor = factor;
        self
    }

    /// Diverts exhausted items to the dead-letter channel instead of
    /// failing the run.
    #[must_use]
    pub fn dead_letter(mut self) -> Self {
        self.dead_letter = true;
        self
    }

    /// Emits a [`RunEvent::ItemTrace`] per (item, stage) hop.
    #[must_use]
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Delay before retry number `retry` (1-based): `backoff ×
    /// factor^(retry-1)`, saturating at [`SimDuration::MAX`] once the
    /// product overflows.
    pub fn backoff_delay(&self, retry: u32) -> SimDuration {
        if retry == 0 || self.backoff == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let exponent = i32::try_from(retry - 1).unwrap_or(i32::MAX);
        let secs = self.backoff.as_secs_f64() * self.backoff_factor.powi(exponent);
        if !secs.is_finite() {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(secs)
    }

    /// True when every knob is at its default — the fast path both
    /// backends take for stages with no declared resilience.
    pub fn is_default(&self) -> bool {
        self.max_retries == 0 && !self.dead_letter && !self.trace
    }
}

/// One live occurrence inside a running pipeline, published to every
/// [`EventBus`] subscriber: a streaming session can watch each tick's
/// verdict, re-mappings, faults, and backpressure stalls while the run
/// is in flight.
///
/// Every variant carries the [`SessionId`] of the run that produced it,
/// so a multi-tenant cluster can merge many sessions' streams onto one
/// bus and subscribers can still demultiplex. Standalone
/// (single-session) runs report `SessionId(0)`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum RunEvent {
    /// The controller committed a re-mapping: a planned one, a fault
    /// recovery, or a regret-guard revert. Fires once per committed
    /// plan, after the `Tick` that decided it.
    Remap {
        /// The session whose controller committed the plan.
        session: SessionId,
        /// The committed re-mapping.
        plan: RemapPlan,
    },
    /// One adaptation interval elapsed: what the loop observed, and
    /// what it decided.
    Tick {
        /// The session the interval belongs to.
        session: SessionId,
        /// Backend time of the tick.
        at: SimTime,
        /// Realized throughput over the elapsed interval (items/s).
        realized: f64,
        /// Model-predicted throughput of the mapping in force before the
        /// decision.
        expected: f64,
        /// Items completed so far.
        completed: u64,
        /// The tick's decision; [`Verdict::Paused`] while
        /// [`SessionControl::pause_adaptation`] is in force.
        verdict: Verdict,
    },
    /// A `push()` blocked on a full bounded queue (threaded backend).
    BackpressureStall {
        /// The session whose push stalled.
        session: SessionId,
        /// Sequence number of the item whose push stalled.
        seq: u64,
        /// How long the push waited for a free slot.
        waited: SimDuration,
    },
    /// A node went down (outage start or crash) per the run's fault
    /// plan: it is now excluded from routing, and — under an adaptive
    /// policy — a committed re-map away from it is forced.
    NodeDown {
        /// The session whose fault plan (or pool) lost the node.
        session: SessionId,
        /// The failed node.
        node: usize,
        /// The scheduled instant of the failure, on the backend clock.
        at: SimTime,
    },
    /// A node recovered (outage end): routing may use it again, and the
    /// regular adaptation cycle is free to re-adopt it.
    NodeUp {
        /// The session observing the recovery.
        session: SessionId,
        /// The recovered node.
        node: usize,
        /// The scheduled instant of the recovery, on the backend clock.
        at: SimTime,
    },
    /// One (item, stage) hop on a stage whose [`ResiliencePolicy`]
    /// opted into tracing. Fires once per hop, after the stage settled
    /// the item (success, dead-letter, or poison failure), with the
    /// number of attempts the hop consumed.
    ItemTrace {
        /// The session the traced item belongs to.
        session: SessionId,
        /// Sequence number of the traced item.
        seq: u64,
        /// The stage the item passed through.
        stage: usize,
        /// Attempts the hop consumed (1 = clean first try).
        attempts: u32,
        /// When the hop settled, on the backend clock.
        at: SimTime,
    },
    /// An item exhausted a stage's retry budget and was diverted to the
    /// dead-letter channel (the stage's policy set `dead_letter`). The
    /// full record — stage, attempts, error — lands in
    /// `RunReport::dead_letter_log`.
    ItemDeadLettered {
        /// The session the poisoned item belongs to.
        session: SessionId,
        /// Sequence number of the diverted item.
        seq: u64,
        /// The stage that gave up on it.
        stage: usize,
        /// Total attempts consumed (first try + retries).
        attempts: u32,
    },
    /// An in-flight item stranded on a down node was re-dealt to a live
    /// host (at-least-once replay). Fires once per rescue; the total is
    /// reported in `RunReport::replays`.
    ItemReplayed {
        /// The session the replayed item belongs to.
        session: SessionId,
        /// Sequence number of the replayed item.
        seq: u64,
        /// The stage the item was waiting for.
        stage: usize,
        /// The down node it was rescued from.
        from: usize,
        /// The stage's position in the stage graph: `Some((block,
        /// branch))` for a stage inside a parallel block's branch,
        /// `None` for series stages (linear pipelines always report
        /// `None`).
        branch: Option<(usize, usize)>,
    },
}

/// A typed, non-panicking run failure surfaced on the session (via
/// `RunSession::error()` / `RunHandle::error`) instead of killing a
/// worker thread opaquely. A run with an error set still tears down
/// cleanly and reports what it completed (`truncated` when items were
/// lost).
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A stage with *opaque* (undeclared) state was pinned to a node
    /// that went down permanently (a crash; a finite outage parks the
    /// stage's items and recovers instead). Opaque state cannot be
    /// snapshotted, so it dies with the node and at-least-once replay
    /// is impossible; the run fails instead of silently re-running the
    /// stage from forked or lost state. Stages that *declare* their
    /// state (keyed, accumulator, exclusive) never raise this: their
    /// snapshots live-migrate to a surviving host instead.
    StatefulStageLost {
        /// Index of the stateful stage.
        stage: usize,
        /// The crashed node it was pinned to.
        node: usize,
    },
    /// Every node of the backend is down: no mapping can make progress
    /// and no re-map can rescue the in-flight items.
    AllNodesDown,
    /// A node hosting pipeline stages crashed permanently under
    /// [`crate::policy::Policy::Static`]: a static policy never
    /// re-maps, so the stranded items could never complete — the run
    /// fails instead of starving forever.
    NodeLostUnderStatic {
        /// The crashed node.
        node: usize,
    },
    /// The session was closed (or aborted) and then pushed into. A
    /// closed stream's length is already settled, so late items have
    /// nowhere to go; `push`/`push_batch` return this instead of
    /// silently dropping the item or panicking.
    SessionClosed,
    /// The session was evicted from a shared cluster pool. Graceful
    /// eviction (`Cluster::evict`) rejects new pushes with this while
    /// in-flight items drain; forced eviction additionally fails the
    /// run with it, truncating whatever had not yet completed.
    Evicted {
        /// The evicted session.
        session: SessionId,
    },
    /// An item exhausted a stage's retry budget on a stage whose
    /// [`ResiliencePolicy`] did *not* opt into dead-lettering: the item
    /// has nowhere to go and the run fails. Enable `dead_letter()` on
    /// the stage to divert such items instead.
    PoisonItem {
        /// Name of the stage that exhausted its retries.
        stage: String,
        /// Sequence number of the poisoned item.
        seq: u64,
        /// Total attempts consumed (first try + retries).
        attempts: u32,
        /// The final attempt's error.
        reason: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::StatefulStageLost { stage, node } => {
                write!(
                    f,
                    "stateful stage {stage} was pinned to node {node}, which went \
                     down; its state is lost and cannot be replayed"
                )
            }
            RunError::AllNodesDown => {
                write!(f, "every node is down; the pipeline cannot make progress")
            }
            RunError::NodeLostUnderStatic { node } => {
                write!(
                    f,
                    "node {node} crashed permanently but the static policy never \
                     re-maps; the stranded items can never complete"
                )
            }
            RunError::SessionClosed => {
                write!(f, "cannot push into a closed session")
            }
            RunError::Evicted { session } => {
                write!(f, "session {session} was evicted from the cluster")
            }
            RunError::PoisonItem {
                stage,
                seq,
                attempts,
                reason,
            } => {
                write!(
                    f,
                    "item {seq} failed stage '{stage}' {attempts} times ({reason}); \
                     enable dead_letter() on the stage to divert poison items"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Identifies one tenant session admitted to a shared cluster pool.
/// Allocated by the pool at admission, unique for the pool's lifetime,
/// and carried on cluster-level event streams so heterogeneous tenants
/// can be told apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A broadcast channel for [`RunEvent`]s: any number of subscribers,
/// each receiving every event emitted after it subscribed. Cloning the
/// bus shares the subscriber list (it is a handle, not a copy).
/// Emission with no subscribers is a cheap no-op, so the bus rides in
/// [`RunConfig`] unconditionally.
#[derive(Clone, Default)]
pub struct EventBus {
    subs: Arc<Mutex<Vec<Sender<RunEvent>>>>,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber; events emitted from now on arrive on the
    /// returned channel. Dropping the receiver unsubscribes it.
    pub fn subscribe(&self) -> Receiver<RunEvent> {
        let (tx, rx) = channel();
        self.subs.lock().expect("event bus lock poisoned").push(tx);
        rx
    }

    /// True if nobody is listening (emission would be a no-op).
    pub(crate) fn is_idle(&self) -> bool {
        self.subs
            .lock()
            .expect("event bus lock poisoned")
            .is_empty()
    }

    /// Publishes `event` to every live subscriber, dropping subscribers
    /// whose receiver has gone away.
    pub fn emit(&self, event: RunEvent) {
        let mut subs = self.subs.lock().expect("event bus lock poisoned");
        subs.retain(|tx| tx.send(event.clone()).is_ok());
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field(
                "subscribers",
                &self.subs.lock().expect("event bus lock poisoned").len(),
            )
            .finish()
    }
}

/// In-flight steering shared between a live session and the adaptation
/// loop. Cloning shares the flags (it is a handle). Both backends
/// honour it identically because the checks live in the shared
/// [`crate::adapt::AdaptationLoop`], not in either engine.
#[derive(Clone, Debug, Default)]
pub struct SessionControl {
    flags: Arc<ControlFlags>,
}

#[derive(Debug, Default)]
struct ControlFlags {
    paused: AtomicBool,
    force_remap: AtomicBool,
    /// First fatal run error, surfaced to the session owner. Later
    /// errors are dropped: the first failure is the actionable one.
    error: Mutex<Option<RunError>>,
}

impl SessionControl {
    /// Fresh, unpaused control flags.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes adaptation: ticks keep sensing and reporting window
    /// statistics, but no re-mapping (planner or regret guard) commits
    /// until [`SessionControl::resume_adaptation`].
    pub fn pause_adaptation(&self) {
        self.flags.paused.store(true, Ordering::SeqCst);
    }

    /// Lifts a [`SessionControl::pause_adaptation`].
    pub fn resume_adaptation(&self) {
        self.flags.paused.store(false, Ordering::SeqCst);
    }

    /// True while adaptation is paused.
    pub(crate) fn is_paused(&self) -> bool {
        self.flags.paused.load(Ordering::SeqCst)
    }

    /// Requests one forced planning cycle at the next adaptation tick,
    /// bypassing warm-up gating, guard hold-downs, and the reactive
    /// policy's degradation trigger. A paused tick, or one whose regret
    /// guard reverts, leaves the request pending for the next tick.
    /// No-op under `Policy::Static` (a static run has no adaptation
    /// ticks to force).
    pub fn force_remap(&self) {
        self.flags.force_remap.store(true, Ordering::SeqCst);
    }

    /// Consumes a pending force request (the adaptation loop's side).
    pub(crate) fn take_force_remap(&self) -> bool {
        self.flags.force_remap.swap(false, Ordering::SeqCst)
    }

    /// Records a fatal run error (runtime/backend side). The first
    /// error sticks; subsequent calls are no-ops.
    pub fn fail(&self, error: RunError) {
        let mut slot = self.flags.error.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    /// The run's fatal error, if one was recorded.
    pub fn error(&self) -> Option<RunError> {
        self.flags
            .error
            .lock()
            .expect("error slot poisoned")
            .clone()
    }
}

/// Outcome of a non-blocking poll on a streaming session's output side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TryNext<O> {
    /// An output was ready.
    Item(O),
    /// Nothing ready *yet* — more outputs may still arrive.
    Pending,
    /// The stream is finished: every output has been delivered (or the
    /// run was aborted/starved) and no further item will ever arrive.
    Done,
}

/// A live pipeline run, as every backend's session exposes it: the input
/// side (`push`, `push_batch`, `close`), the output side (`next` through
/// [`Iterator`], `try_next`), the counters, and the two ways to end it.
/// The facade's `RunSession` holds one boxed and never asks which
/// backend is underneath.
pub trait LiveSession<I, O>: Iterator<Item = O> {
    /// Feeds one item, returning its sequence number.
    ///
    /// # Errors
    /// [`RunError::SessionClosed`] after `close`; [`RunError::Evicted`]
    /// once a cluster began evicting the session.
    fn push(&mut self, item: I) -> Result<u64, RunError>;

    /// Feeds every item of `items` in order, returning how many were
    /// pushed; items admitted before an error stay in flight.
    ///
    /// # Errors
    /// As [`LiveSession::push`].
    fn push_batch(&mut self, items: &mut dyn Iterator<Item = I>) -> Result<u64, RunError>;

    /// Declares the input stream complete. Idempotent.
    fn close(&mut self);

    /// The session's identity: `SessionId(0)` unless a cluster assigned
    /// one.
    fn session_id(&self) -> SessionId;

    /// Items pushed so far.
    fn pushed(&self) -> u64;

    /// Items that reached the sink so far.
    fn completed(&self) -> u64;

    /// Pushed items not yet settled: neither completed at the sink nor
    /// diverted to the dead-letter channel.
    fn in_flight(&self) -> u64;

    /// Non-blocking poll of the output side.
    fn try_next(&mut self) -> TryNext<O>;

    /// Graceful shutdown: closes the stream, waits until every pushed
    /// item has settled, and returns the un-pulled outputs, the report
    /// and the run's first fatal error.
    fn drain(self: Box<Self>) -> RunHandle<O>;

    /// Immediate shutdown: in-flight items are dropped and the report
    /// comes back `truncated` if anything was lost.
    fn abort(self: Box<Self>) -> RunReport;
}

/// The outcome of one run: typed outputs plus the backend-independent
/// [`RunReport`] — a single shape for every backend.
#[derive(Debug)]
pub struct RunHandle<O> {
    /// Pipeline outputs in item order (empty for a batch simulated run,
    /// which executes cost metadata only).
    pub outputs: Vec<O>,
    /// Run metrics, shape-identical across backends.
    pub report: RunReport,
    /// The run's fatal error, if one occurred (a stateful stage lost to
    /// a crashed node, every node down, a wrong-typed item). A failed
    /// run still returns its partial outputs and an honest, `truncated`
    /// report.
    pub error: Option<RunError>,
}

impl<O> RunHandle<O> {
    /// The run report.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Every re-mapping the controller committed, in order.
    pub fn adaptations(&self) -> &[AdaptationEvent] {
        &self.report.adaptations
    }

    /// Splits the handle into outputs and report.
    pub fn into_parts(self) -> (Vec<O>, RunReport) {
        (self.outputs, self.report)
    }
}

/// The run configuration of one pipeline run — the only one: every
/// backend takes it beside the validated [`Session`] and reads it in
/// place, as does the adaptation loop they launch.
///
/// A field a backend has no use for is ignored there and does not
/// error, so a scenario parameterised by backend sets it once:
///
/// | field | simulation | threads |
/// |---|---|---|
/// | `selection` | honoured | round-robin only (the facade rejects `LeastLoaded`) |
/// | `timeline_bucket: None` | 5 s, simulated | 500 ms, wall |
/// | `link_contention` | honoured | ignored |
/// | `max_sim_time` | honoured | ignored |
/// | `queue_capacity` | ignored: no wall-clock memory pressure | honoured |
/// | `batch_size` | ignored: no per-message overhead | honoured |
///
/// Every other field means the same on both. A shared pool (a cluster)
/// runs all its tenants under its own fault plan in place of `faults`.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Stream length for batch `run()`. A streaming session's true
    /// length is whatever gets pushed before `close()`; there `items`
    /// only seeds the adaptation loop's remaining-work amortisation.
    pub items: u64,
    /// Controller tunables (planner, hysteresis, monitoring window).
    pub controller: ControllerConfig,
    /// Launch mapping; `None` plans one from availability at start.
    pub initial_mapping: Option<Mapping>,
    /// How items are dealt among a replicated stage's hosts.
    /// Least-loaded needs a queue-depth probe.
    pub selection: Selection,
    /// Relative magnitude of availability observation noise (0 = clean).
    pub observation_noise: f64,
    /// Seed for the observation noise stream.
    pub noise_seed: u64,
    /// Bucket width of the reported throughput timeline; `None` uses
    /// the backend's own default.
    pub timeline_bucket: Option<SimDuration>,
    /// Serialise per-direction link transfers (adds contention the
    /// analytic model ignores).
    pub link_contention: bool,
    /// A live session delivers outputs in push order (resequenced by
    /// item index); off, in completion order.
    pub preserve_order: bool,
    /// Safety horizon: the run stops (truncated) past this time.
    pub max_sim_time: SimDuration,
    /// Broadcast stream of [`RunEvent`]s; `RunSession::events()`
    /// subscribes to it.
    pub events: EventBus,
    /// Per-stage-boundary queue bound for streaming sessions. `None`
    /// leaves queues unbounded (the legacy batch behaviour). `Some(c)`
    /// caps the total in-flight item count at `c × (stages + 1)` — one bounded buffer per stage
    /// boundary, source and sink included — so `push()` blocks under
    /// real backpressure instead of queueing without limit. The bound
    /// is enforced end-to-end (a completion frees a slot) rather than
    /// per physical channel: with stages coalesced on one worker,
    /// per-channel blocking sends can deadlock (worker A full and
    /// blocked sending to full worker B, which is blocked sending back
    /// to A), while an end-to-end credit never blocks a worker and
    /// still bounds every inter-stage queue by the same total. Must be
    /// ≥ 1.
    pub queue_capacity: Option<usize>,
    /// Envelope batch granularity: up to this many pushed items ship as
    /// one routed envelope, and stage exits batch their outputs the
    /// same way, amortising channel-send, routing, and credit overhead
    /// across the batch. A sender-side choice between latency and
    /// throughput: at `1` (the default) every push ships at once, and a
    /// worker that finds a backlog of such envelopes merges it itself,
    /// one clock window (≤ 64 items, ≤ 1 ms) at a time; raise it
    /// (64–256 is typical) when the pushing thread is the bottleneck.
    /// Buffered input flushes on `close()`, on any output-side call,
    /// and before a credit wait that its own items' credits must end,
    /// so batching never deadlocks against `queue_capacity`; the credit
    /// gate still accounts per item.
    pub batch_size: usize,
    /// In-flight steering flags (pause/resume/force re-map) shared with
    /// the session that owns the run.
    pub control: SessionControl,
    /// Scheduled faults injected into the run, honoured by every
    /// backend: slowdowns and outages degrade the named nodes' load
    /// schedules (the simulator's availability windows; the threaded
    /// engine's vnode loads), and outages/crashes additionally take the
    /// node *down* — excluded from routing, `RunEvent::NodeDown`
    /// emitted, and (under an adaptive policy) a committed re-map away
    /// from it forced, replaying stranded items at-least-once. Times are
    /// on the backend clock: simulated seconds, or wall seconds since
    /// engine start. Merged after any plan the pipeline builder
    /// declared.
    pub faults: FaultPlan,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            items: 1_000,
            controller: ControllerConfig::default(),
            initial_mapping: None,
            selection: Selection::RoundRobin,
            observation_noise: 0.0,
            noise_seed: 1,
            timeline_bucket: None,
            link_contention: false,
            preserve_order: true,
            max_sim_time: SimDuration::from_secs(7 * 24 * 3600),
            events: EventBus::default(),
            queue_capacity: None,
            batch_size: 1,
            control: SessionControl::default(),
            faults: FaultPlan::new(),
        }
    }
}

/// A validated (policy, arrivals) pair — the part of a built pipeline
/// the runtime owns. Constructing one runs every policy/arrival rule in
/// the module docs, so holding a `Session` *is* the proof the
/// combination is legal.
#[derive(Clone, Debug)]
pub struct Session {
    policy: Policy,
    arrivals: ArrivalProcess,
}

impl Session {
    /// Validates the pair; see the module docs for the rules.
    pub fn new(policy: Policy, arrivals: ArrivalProcess) -> Result<Self, BuildError> {
        validate_policy(&policy)?;
        validate_arrivals(&arrivals)?;
        validate_policy_arrivals(&policy, &arrivals)?;
        Ok(Session { policy, arrivals })
    }

    /// Like [`Session::new`], but skips the policy × arrivals pairing
    /// rule — the acknowledged escape hatch for *deliberate* baselines
    /// (e.g. a static mapping under a paced open stream, run to show
    /// what non-adaptive scheduling costs). Policy and arrivals are
    /// still validated in isolation.
    pub fn baseline(policy: Policy, arrivals: ArrivalProcess) -> Result<Self, BuildError> {
        validate_policy(&policy)?;
        validate_arrivals(&arrivals)?;
        Ok(Session { policy, arrivals })
    }

    /// The adaptation policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The arrival process.
    pub fn arrivals(&self) -> ArrivalProcess {
        self.arrivals
    }
}

/// A static mapping over a stream that is all present at `t = 0` — the
/// pair a run that declares neither gets.
impl Default for Session {
    fn default() -> Self {
        Session {
            policy: Policy::Static,
            arrivals: ArrivalProcess::AllAtOnce,
        }
    }
}

/// Validates a policy in isolation: adaptive intervals must be positive
/// and the reactive degradation threshold must sit in `(0, 1]`.
fn validate_policy(policy: &Policy) -> Result<(), BuildError> {
    if let Some(interval) = policy.interval() {
        if interval == SimDuration::ZERO {
            return Err(BuildError::NonPositiveInterval {
                policy: policy.name(),
            });
        }
    }
    if let Policy::Reactive { degradation, .. } = *policy {
        if !(degradation > 0.0 && degradation <= 1.0) {
            return Err(BuildError::DegradationOutOfRange { degradation });
        }
    }
    Ok(())
}

/// Validates an arrival process in isolation: rate-based processes need
/// a positive, finite rate (the legacy API asserts this at schedule
/// time — mid-run — instead of at build time).
fn validate_arrivals(arrivals: &ArrivalProcess) -> Result<(), BuildError> {
    match *arrivals {
        ArrivalProcess::AllAtOnce => Ok(()),
        ArrivalProcess::Uniform { rate } | ArrivalProcess::Poisson { rate, .. } => {
            if rate > 0.0 && rate.is_finite() {
                Ok(())
            } else {
                Err(BuildError::InvalidArrivalRate { rate })
            }
        }
    }
}

/// Validates the policy × arrivals combination; see the module docs for
/// why the two rejected pairings exist.
fn validate_policy_arrivals(policy: &Policy, arrivals: &ArrivalProcess) -> Result<(), BuildError> {
    let open_stream = !matches!(arrivals, ArrivalProcess::AllAtOnce);
    match *policy {
        Policy::Static if open_stream => Err(BuildError::PolicyArrivalsMismatch {
            policy: policy.name(),
            reason: "a rate-paced open stream declares a live workload; a static \
                     policy declares a fixed launch mapping — use an adaptive \
                     policy, or acknowledge a deliberate baseline with \
                     as_baseline()",
        }),
        Policy::Reactive { .. } if open_stream => Err(BuildError::PolicyArrivalsMismatch {
            policy: policy.name(),
            reason: "the reactive degradation trigger compares realized throughput \
                     against the saturated-capacity model; an arrival-limited \
                     stream misfires it every interval — acknowledge a deliberate \
                     baseline with as_baseline()",
        }),
        _ => Ok(()),
    }
}

/// Validates a supplied launch mapping against the declared stage
/// properties and the backend's node set: arity must match, no stage
/// may be mapped wider than its legal replica bound `replica_cap` (one
/// per stage, as `StageSpec::replica_cap` folds it: 1 for exclusive or
/// opaque state, the shard count for keyed state, the declared bound
/// otherwise), and every host must exist. The backends assert the same
/// invariants — this turns the panic into a typed
/// [`BuildError::InvalidMapping`] at the unified surface.
pub fn validate_mapping(
    mapping: &Mapping,
    replica_cap: &[usize],
    node_count: usize,
) -> Result<(), BuildError> {
    if mapping.len() != replica_cap.len() {
        return Err(BuildError::InvalidMapping {
            detail: format!(
                "mapping covers {} stages, pipeline declares {}",
                mapping.len(),
                replica_cap.len()
            ),
        });
    }
    for (s, &cap) in replica_cap.iter().enumerate() {
        let placement = mapping.placement(s);
        if placement.width() > cap {
            return Err(BuildError::InvalidMapping {
                detail: format!(
                    "stage {s} mapped at width {} above its legal replica bound {cap}",
                    placement.width()
                ),
            });
        }
        for host in placement.hosts() {
            if host.index() >= node_count {
                return Err(BuildError::InvalidMapping {
                    detail: format!(
                        "stage {s} mapped on node {host} outside the {node_count}-node backend"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Validates a fault plan against a backend's node set: every fault
/// must name a node the backend actually has.
pub fn validate_faults(plan: &FaultPlan, node_count: usize) -> Result<(), BuildError> {
    if let Some(node) = plan.max_node() {
        if node.index() >= node_count {
            return Err(BuildError::InvalidFault {
                detail: format!("fault targets node {node} outside the {node_count}-node backend"),
            });
        }
    }
    Ok(())
}

/// Validates the stage-name list: non-empty and duplicate-free.
pub fn validate_stage_names<S: AsRef<str>>(names: &[S]) -> Result<(), BuildError> {
    if names.is_empty() {
        return Err(BuildError::EmptyPipeline);
    }
    let mut seen = std::collections::HashSet::new();
    for name in names {
        if !seen.insert(name.as_ref()) {
            return Err(BuildError::DuplicateStage {
                name: name.as_ref().to_string(),
            });
        }
    }
    Ok(())
}

/// Validates one stage's declared replica bound against its declared
/// state: only a `replicable()` pattern may run more than one live
/// instance (declared keyed and accumulator state qualifies).
/// `usize::MAX` is the *unset* default ("planner decides") and is
/// always legal; an explicit bound above one on a non-replicable
/// stage declares replication the runtime must refuse.
pub fn validate_replicas(stage: &str, state: StateAccess, bound: usize) -> Result<(), BuildError> {
    if bound == 0 {
        return Err(BuildError::ZeroReplicas {
            stage: stage.to_string(),
        });
    }
    if !state.replicable() && bound > 1 && bound != usize::MAX {
        return Err(BuildError::StatefulReplicated {
            stage: stage.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_gridsim::time::SimDuration;

    #[test]
    fn session_accepts_the_canonical_pairs() {
        for arrivals in [
            ArrivalProcess::AllAtOnce,
            ArrivalProcess::Uniform { rate: 2.0 },
            ArrivalProcess::Poisson { rate: 1.0, seed: 7 },
        ] {
            let s = Session::new(Policy::periodic_default(), arrivals).unwrap();
            assert_eq!(s.policy(), Policy::periodic_default());
        }
        assert!(Session::new(Policy::Static, ArrivalProcess::AllAtOnce).is_ok());
    }

    #[test]
    fn static_with_open_stream_is_rejected() {
        let err = Session::new(Policy::Static, ArrivalProcess::Uniform { rate: 1.0 }).unwrap_err();
        assert!(matches!(
            err,
            BuildError::PolicyArrivalsMismatch {
                policy: "static",
                ..
            }
        ));
    }

    #[test]
    fn reactive_with_open_stream_is_rejected() {
        let policy = Policy::Reactive {
            interval: SimDuration::from_secs(5),
            degradation: 0.8,
        };
        let err = Session::new(policy, ArrivalProcess::Poisson { rate: 1.0, seed: 1 }).unwrap_err();
        assert!(matches!(err, BuildError::PolicyArrivalsMismatch { .. }));
    }

    #[test]
    fn zero_interval_and_bad_degradation_are_typed_errors() {
        let zero = Policy::Periodic {
            interval: SimDuration::ZERO,
        };
        assert_eq!(
            validate_policy(&zero),
            Err(BuildError::NonPositiveInterval { policy: "adaptive" })
        );
        let bad = Policy::Reactive {
            interval: SimDuration::from_secs(1),
            degradation: 1.5,
        };
        assert_eq!(
            validate_policy(&bad),
            Err(BuildError::DegradationOutOfRange { degradation: 1.5 })
        );
    }

    #[test]
    fn arrival_rates_must_be_positive_and_finite() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = validate_arrivals(&ArrivalProcess::Uniform { rate }).unwrap_err();
            assert!(matches!(err, BuildError::InvalidArrivalRate { .. }));
        }
    }

    #[test]
    fn stage_name_rules() {
        assert_eq!(
            validate_stage_names::<&str>(&[]),
            Err(BuildError::EmptyPipeline)
        );
        assert!(validate_stage_names(&["a", "b"]).is_ok());
        assert_eq!(
            validate_stage_names(&["a", "b", "a"]),
            Err(BuildError::DuplicateStage { name: "a".into() })
        );
    }

    #[test]
    fn replica_rules() {
        assert!(validate_replicas("s", StateAccess::Stateless, 4).is_ok());
        assert!(validate_replicas("s", StateAccess::Opaque, 1).is_ok());
        // The unset default (usize::MAX) never trips the stateful check.
        assert!(validate_replicas("s", StateAccess::Opaque, usize::MAX).is_ok());
        assert_eq!(
            validate_replicas("s", StateAccess::Stateless, 0),
            Err(BuildError::ZeroReplicas { stage: "s".into() })
        );
        assert_eq!(
            validate_replicas("s", StateAccess::Opaque, 2),
            Err(BuildError::StatefulReplicated { stage: "s".into() })
        );
    }

    #[test]
    fn baseline_session_skips_only_the_pairing_rule() {
        // The pairing rule is waived…
        let s = Session::baseline(Policy::Static, ArrivalProcess::Uniform { rate: 1.0 }).unwrap();
        assert_eq!(s.policy(), Policy::Static);
        // …but the isolated rules still apply.
        assert!(matches!(
            Session::baseline(Policy::Static, ArrivalProcess::Uniform { rate: 0.0 }),
            Err(BuildError::InvalidArrivalRate { .. })
        ));
    }

    #[test]
    fn mapping_rules() {
        use adapipe_gridsim::node::NodeId;
        use adapipe_mapper::mapping::Placement;
        let wide = Mapping::new(vec![Placement::replicated(vec![NodeId(0), NodeId(1)])]);
        // Stateless within cap and node set: fine.
        assert!(validate_mapping(&wide, &[2], 3).is_ok());
        // Stateful stage mapped wide: rejected.
        assert!(matches!(
            validate_mapping(&wide, &[1], 3),
            Err(BuildError::InvalidMapping { .. })
        ));
        // Width above the declared cap: rejected.
        assert!(matches!(
            validate_mapping(&wide, &[1], 3),
            Err(BuildError::InvalidMapping { .. })
        ));
        // Arity mismatch: rejected.
        assert!(matches!(
            validate_mapping(&wide, &[2, 2], 3),
            Err(BuildError::InvalidMapping { .. })
        ));
        // Host outside the backend: rejected.
        assert!(matches!(
            validate_mapping(&wide, &[2], 1),
            Err(BuildError::InvalidMapping { .. })
        ));
    }

    #[test]
    fn event_bus_broadcasts_to_every_subscriber() {
        let bus = EventBus::new();
        assert!(bus.is_idle());
        let a = bus.subscribe();
        let b = bus.subscribe();
        assert!(!bus.is_idle());
        bus.emit(RunEvent::BackpressureStall {
            session: SessionId(0),
            seq: 3,
            waited: SimDuration::from_millis(5),
        });
        for rx in [&a, &b] {
            match rx.try_recv().expect("event delivered") {
                RunEvent::BackpressureStall { seq, .. } => assert_eq!(seq, 3),
                other => panic!("unexpected event {other:?}"),
            }
        }
        // A dropped subscriber is pruned on the next emission.
        drop(a);
        bus.emit(RunEvent::Tick {
            session: SessionId(0),
            at: SimTime::ZERO,
            realized: 1.0,
            expected: 1.0,
            completed: 0,
            verdict: Verdict::WarmingUp,
        });
        assert_eq!(bus.subs.lock().unwrap().len(), 1);
        assert_eq!(b.try_iter().count(), 1);
    }

    #[test]
    fn session_control_flags_round_trip() {
        let ctl = SessionControl::new();
        assert!(!ctl.is_paused());
        ctl.pause_adaptation();
        // A clone shares the flags — it is a handle, not a copy.
        let other = ctl.clone();
        assert!(other.is_paused());
        other.resume_adaptation();
        assert!(!ctl.is_paused());
        assert!(!ctl.take_force_remap());
        ctl.force_remap();
        assert!(other.take_force_remap(), "force flag is shared");
        assert!(!ctl.take_force_remap(), "force flag is one-shot");
    }

    #[test]
    fn run_config_defaults_to_unbounded_queues() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.queue_capacity, None);
        assert!(!cfg.control.is_paused());
        assert!(cfg.events.is_idle());
    }

    #[test]
    fn errors_display_usefully() {
        let e = BuildError::DuplicateStage {
            name: "blur".into(),
        };
        assert!(e.to_string().contains("blur"));
        let e = BuildError::MissingFeed { backend: "threads" };
        assert!(e.to_string().contains("threads"));
        let e = BuildError::InvalidFault {
            detail: "node 9".into(),
        };
        assert!(e.to_string().contains("node 9"));
    }

    #[test]
    fn fault_plans_validate_against_the_node_set() {
        use adapipe_gridsim::node::NodeId;
        let plan = FaultPlan::new().crash(NodeId(2), SimTime::from_secs_f64(1.0));
        assert!(validate_faults(&plan, 3).is_ok());
        assert!(matches!(
            validate_faults(&plan, 2),
            Err(BuildError::InvalidFault { .. })
        ));
        assert!(validate_faults(&FaultPlan::new(), 0).is_ok());
    }

    #[test]
    fn first_run_error_sticks() {
        let ctl = SessionControl::new();
        assert_eq!(ctl.error(), None);
        ctl.fail(RunError::AllNodesDown);
        // A clone shares the slot; later errors are dropped.
        let other = ctl.clone();
        other.fail(RunError::SessionClosed);
        assert_eq!(ctl.error(), Some(RunError::AllNodesDown));
        assert!(ctl.error().unwrap().to_string().contains("every node"));
    }

    #[test]
    fn resilience_policy_defaults_and_backoff_schedule() {
        let p = ResiliencePolicy::default();
        assert!(p.is_default());
        assert_eq!(p.backoff_delay(1), SimDuration::ZERO);
        let p = ResiliencePolicy::new()
            .retries(3)
            .backoff(SimDuration::from_secs(1), 2.0)
            .dead_letter()
            .trace();
        assert!(!p.is_default());
        assert_eq!(p.max_retries, 3);
        assert!(p.dead_letter && p.trace);
        // Exponential: 1 s, 2 s, 4 s before retries 1, 2, 3.
        assert_eq!(p.backoff_delay(1), SimDuration::from_secs(1));
        assert_eq!(p.backoff_delay(2), SimDuration::from_secs(2));
        assert_eq!(p.backoff_delay(3), SimDuration::from_secs(4));
        assert_eq!(p.backoff_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn backoff_delay_saturates_instead_of_overflowing() {
        let doubling = ResiliencePolicy::new().backoff(SimDuration::from_millis(1), 2.0);
        // 2^1024 overflows an f64: the delay is "forever", not a panic.
        assert_eq!(doubling.backoff_delay(1025), SimDuration::MAX);
        assert_eq!(doubling.backoff_delay(u32::MAX), SimDuration::MAX);
        let steep = ResiliencePolicy::new().backoff(SimDuration::from_secs(1), 1e10);
        assert_eq!(steep.backoff_delay(32), SimDuration::MAX);
        // Past i32::MAX retries the exponent must not wrap negative and
        // shrink the delay.
        let flat = ResiliencePolicy::new().backoff(SimDuration::from_secs(3), 1.0);
        assert_eq!(flat.backoff_delay(u32::MAX), SimDuration::from_secs(3));
        let gentle = ResiliencePolicy::new().backoff(SimDuration::from_nanos(1), 1.000_000_01);
        assert!(gentle.backoff_delay((1 << 31) + 1) > gentle.backoff_delay(1 << 30));
        // Finite products keep their exact value.
        assert_eq!(doubling.backoff_delay(11), SimDuration::from_millis(1024));
    }

    #[test]
    fn graph_build_errors_display_usefully() {
        let e = BuildError::UnreachableStage { stage: "c".into() };
        assert!(e.to_string().contains("'c'"));
        let e = BuildError::InvalidEdge {
            detail: "duplicate edge a -> b".into(),
        };
        assert!(e.to_string().contains("duplicate edge"));
    }

    #[test]
    fn poison_item_error_names_the_stage_and_fix() {
        let e = RunError::PoisonItem {
            stage: "parse".into(),
            seq: 7,
            attempts: 4,
            reason: "bad utf-8".into(),
        };
        let s = e.to_string();
        assert!(s.contains("parse") && s.contains("7") && s.contains("dead_letter"));
    }

    #[test]
    fn run_errors_display_usefully() {
        let e = RunError::StatefulStageLost { stage: 1, node: 2 };
        let s = e.to_string();
        assert!(s.contains("stateful stage 1") && s.contains("node 2"));
        let e = RunError::NodeLostUnderStatic { node: 3 };
        let s = e.to_string();
        assert!(s.contains("node 3") && s.contains("static policy"));
    }
}
