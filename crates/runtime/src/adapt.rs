//! The shared adaptation loop: instrument → forecast → plan → re-map.
//!
//! Historically each engine re-implemented this cycle (the simulator in
//! its `on_sample`/`on_tick` event handlers, the threaded engine in a
//! dedicated controller thread), and the two copies drifted — the
//! threaded engine, for instance, never gained the regret guard. The
//! [`AdaptationLoop`] is the single implementation both drive now:
//!
//! * **sensing** — windowed mean availability per node, perturbed by
//!   observation noise, over several windows per adaptation interval
//!   (point samples alias against load oscillating near the sensing
//!   frequency). The loop owns the schedule: before every forecast read
//!   (each tick, and fault recovery) it observes each window that ended
//!   since the last one it read;
//! * **deciding** (`AdaptationLoop::step`) — once per interval, a
//!   function of the loop's own state and one `TickInput`: pause,
//!   realized-throughput regret guard, warm-up and hold-down gating,
//!   policy-specific rate selection, then one [`Controller::consider`]
//!   cycle. It returns the [`Verdict`] naming the exit it took, and
//!   touches no backend, routing table or event bus;
//! * **applying** ([`AdaptationLoop::tick`]) — settles the fault
//!   transitions due, reads the backend and the [`RoutingTable`] into a
//!   `TickInput`, runs `step`, publishes the verdict as
//!   [`RunEvent::Tick`], and commits a `Remap` or `Revert`: the mapping
//!   is swapped into the routing table and handed to the backend as a
//!   [`RemapPlan`] to commit physically.
//!
//! Fault recovery ([`AdaptationLoop::poll_faults`]) runs the same
//! planning cycle as `step` and commits through the same applier.
//!
//! A tick commits at most one plan: a `Revert` ends the tick. A force
//! request ([`SessionControl::force_remap`]) is spent only by a tick
//! that reaches planning; on a paused or reverting tick it stays pending
//! for the next one.
//!
//! Backends only choose *when* to call these — `tick` once per interval
//! and `poll_faults` at [`AdaptationLoop::next_fault_at`] (the simulator
//! schedules events, the engine sleeps on a wall clock) — never *what*
//! happens.

use crate::backend::{ExecutionBackend, RemapPlan};
use crate::controller::{Controller, GUARD_HOLD_TICKS, GUARD_TOLERANCE, SAMPLES_PER_INTERVAL};
use crate::fault::{FaultTracker, FaultTransition};
use crate::policy::Policy;
use crate::report::{AdaptationEvent, ReportBuilder};
use crate::routing::RoutingTable;
use crate::session::{EventBus, RunConfig, RunError, RunEvent, Session, SessionControl, SessionId};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::net::Topology;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::decide::KeepReason;
use adapipe_mapper::mapping::Mapping;
use adapipe_mapper::model::{evaluate, PipelineProfile};
use adapipe_mapper::search::plan;
use adapipe_monitor::sensor::NoisyChannel;
use adapipe_state::{owner_of, StateAccess};
use std::sync::RwLock;

/// The substrate one run adapts on: what the runtime cannot read from
/// the run's [`RunConfig`] and [`Session`], because only the backend
/// (and, for a shared pool, whoever owns it) knows it.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The mapper's view of the pipeline, declared state included.
    pub profile: PipelineProfile,
    /// Planning topology.
    pub topology: Topology,
    /// Nominal node speeds (forecast rates = speed × predicted
    /// availability).
    pub speeds: Vec<f64>,
    /// Migratable state per stage, in bytes (the pattern it follows is
    /// the stage's declaration, `profile.state`).
    pub state_bytes: Vec<u64>,
    /// The faults in force on the nodes this run executes on — the
    /// pool's plan when the run is one tenant of a shared pool, else
    /// the run's own. The backend applies the physics (degraded load
    /// schedules) itself; the loop owns the control plane — down/up
    /// transitions, routing exclusion, forced re-maps, and replay
    /// orchestration — identically for every backend.
    pub faults: FaultPlan,
    /// The session this loop adapts, stamped onto every emitted
    /// [`RunEvent`] so a multi-tenant cluster can merge many loops'
    /// streams onto one bus. `SessionId(0)` for standalone runs.
    pub session: SessionId,
}

/// What one adaptation tick decided: one variant per exit of
/// `AdaptationLoop::step`.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Adaptation is paused ([`SessionControl::pause_adaptation`]):
    /// sensing and reporting continue, nothing commits.
    Paused,
    /// Within the first `warmup_ticks` ticks: too little observation
    /// history to plan from.
    WarmingUp,
    /// A regret-guard revert holds planning down for
    /// `GUARD_HOLD_TICKS` (8) ticks.
    HeldDown,
    /// The policy called for no planning cycle: the reactive trigger
    /// held (realized ≥ degradation × expected throughput), or the
    /// policy is static.
    NotTriggered,
    /// A planning cycle ran and kept the current mapping.
    Keep(KeepReason),
    /// A planning cycle voted to re-map, with `votes` consecutive votes
    /// so far — short of `confirm_ticks`.
    Confirming {
        /// Consecutive re-map votes, this one included.
        votes: u32,
    },
    /// A planning cycle chose a new mapping.
    Remap {
        /// The mapping to adopt.
        to: Mapping,
        /// Its model-predicted throughput under the planning rates.
        throughput: f64,
        /// Predicted throughput ratio, new over current.
        speedup: f64,
        /// Migration cost charged (state transfer + drain overhead).
        migration_cost: SimDuration,
    },
    /// The regret guard tripped: the adopted mapping under-delivered
    /// its prediction, so the loop reverts to the one before it.
    Revert {
        /// The mapping to return to.
        to: Mapping,
    },
}

impl Verdict {
    /// A stable short name for the verdict, keeps split by reason —
    /// the key of a why-table.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Paused => "paused",
            Verdict::WarmingUp => "warming-up",
            Verdict::HeldDown => "held-down",
            Verdict::NotTriggered => "not-triggered",
            Verdict::Keep(KeepReason::NoImprovement) => "keep:no-improvement",
            Verdict::Keep(KeepReason::BelowThreshold) => "keep:below-threshold",
            Verdict::Keep(KeepReason::NotWorthMigration) => "keep:not-worth-migration",
            Verdict::Keep(KeepReason::StreamExhausted) => "keep:stream-exhausted",
            Verdict::Keep(KeepReason::Certified) => "keep:certified",
            Verdict::Confirming { .. } => "confirming",
            Verdict::Remap { .. } => "remap",
            Verdict::Revert { .. } => "revert",
        }
    }
}

/// Everything [`AdaptationLoop::step`] reads from outside the loop at
/// one tick.
#[derive(Clone, Debug)]
pub(crate) struct TickInput {
    /// Items completed so far.
    pub completed: u64,
    /// A planning cycle was requested ([`SessionControl::force_remap`]):
    /// it bypasses warm-up, any hold-down and the reactive trigger.
    pub forced: bool,
    /// Adaptation is paused.
    pub paused: bool,
    /// The mapping in force.
    pub current: Mapping,
    /// Under [`Policy::Oracle`], the true effective rates over the
    /// coming interval, which a planning cycle then plans from; `None`
    /// under every other policy, whose cycles plan from the forecast.
    pub oracle_rates: Option<Vec<f64>>,
}

/// The adaptation state machine shared by every backend.
pub struct AdaptationLoop {
    cfg: RuntimeConfig,
    /// The run's policy, stream-length hint, event bus and steering
    /// flags, taken from its [`Session`] and [`RunConfig`] at launch.
    policy: Policy,
    total_items: u64,
    events: EventBus,
    control: SessionControl,
    controller: Controller,
    noise: NoisyChannel,
    /// Index `j` of the last availability window `[(j−1)·dt, j·dt]`
    /// observed (0: none yet).
    sensed: u64,
    /// Model-predicted throughput of the mapping currently in force.
    expected_tput: f64,
    last_tick_completed: u64,
    ticks_seen: u32,
    /// Mapping to revert to if the regret guard trips, with the tick the
    /// current mapping was adopted.
    guard_prev: Option<(Mapping, u32)>,
    /// Consecutive under-delivering ticks of the armed guard (restarts
    /// when the guard is armed; meaningless while it is not).
    guard_bad: u32,
    hold_until_tick: u32,
    /// Node-health state machine for the run's fault plan.
    tracker: FaultTracker,
    /// A node went down and the mapping still touches a down node: keep
    /// forcing planning cycles until a committed re-map excludes every
    /// down node.
    fault_remap_pending: bool,
    /// Latched once a fault transition proved the run unrecoverable
    /// (see [`AdaptationLoop::poll_faults`]). Distinct from the
    /// session's error slot, which may carry non-fatal errors (e.g. the
    /// simulator's marker-semantics poison item).
    fatal: bool,
    /// Committed re-maps, planned or fault-driven; a guard revert undoes
    /// one and is not one.
    adaptations: Vec<AdaptationEvent>,
    /// State migrations implied by committed re-maps (shard, partial,
    /// or whole-instance moves), counted centrally from mapping diffs
    /// so both backends report identical totals.
    migrations: u64,
    /// Declared-state bytes those migrations shipped.
    state_bytes_moved: u64,
}

impl AdaptationLoop {
    /// Launches the loop for one run on the backend's `substrate` and
    /// returns it with the launch mapping: `cfg.initial_mapping`, or
    /// one planned from `launch_rates` — the effective node rates at
    /// start, which also seed the expected-throughput baseline the
    /// regret guard and the reactive policy compare in. Everything else
    /// the loop needs (policy, controller tunables, stream-length hint,
    /// observation noise, event bus, steering flags) it reads from
    /// `session` and `cfg`.
    ///
    /// # Panics
    /// Panics if the profile is malformed, if the topology does not
    /// cover every node, or if the launch mapping does not cover every
    /// stage or names a node the backend does not have.
    pub fn launch(
        substrate: RuntimeConfig,
        session: &Session,
        cfg: &RunConfig,
        launch_rates: &[f64],
    ) -> (Self, Mapping) {
        let np = substrate.speeds.len();
        substrate.profile.validate();
        assert_eq!(
            substrate.topology.len(),
            np,
            "topology must cover every node"
        );
        let mapping = cfg.initial_mapping.clone().unwrap_or_else(|| {
            plan(
                &substrate.profile,
                launch_rates,
                &substrate.topology,
                &cfg.controller.planner,
            )
            .mapping
        });
        assert_eq!(
            mapping.len(),
            substrate.profile.stages(),
            "mapping must cover every stage"
        );
        for node in mapping.nodes_used() {
            assert!(
                node.index() < np,
                "mapping uses node {node} outside the {np}-node backend"
            );
        }
        let expected_tput = evaluate(
            &substrate.profile,
            &mapping,
            launch_rates,
            &substrate.topology,
        )
        .throughput;
        let noise = if cfg.observation_noise > 0.0 {
            NoisyChannel::new(cfg.noise_seed, cfg.observation_noise)
        } else {
            NoisyChannel::clean()
        };
        let aloop = AdaptationLoop {
            policy: session.policy(),
            total_items: cfg.items,
            events: cfg.events.clone(),
            control: cfg.control.clone(),
            controller: Controller::new(np, cfg.controller.clone()),
            noise,
            sensed: 0,
            expected_tput,
            last_tick_completed: 0,
            ticks_seen: 0,
            guard_prev: None,
            guard_bad: 0,
            hold_until_tick: 0,
            tracker: FaultTracker::new(&substrate.faults, np),
            fault_remap_pending: false,
            fatal: false,
            adaptations: Vec::new(),
            migrations: 0,
            state_bytes_moved: 0,
            cfg: substrate,
        };
        (aloop, mapping)
    }

    /// True once a fault transition proved the run unrecoverable (the
    /// typed error is on the session control). Backends use this — not
    /// the session's error slot, which may carry non-fatal errors — to
    /// decide whether to stop the run.
    pub fn is_fatal(&self) -> bool {
        self.fatal
    }

    /// The adaptation interval, or `None` under [`Policy::Static`].
    pub fn interval(&self) -> Option<SimDuration> {
        self.policy.interval()
    }

    /// Observes every availability window not yet seen — each
    /// `[(j−1)·dt, j·dt]` after the last one observed that ended strictly
    /// before the backend's clock, `dt` being the interval over
    /// [`SAMPLES_PER_INTERVAL`] — window by window, node by node, through
    /// the noise channel, and at most the last `SAMPLES_PER_INTERVAL` of
    /// them. Like NWS's CPU sensor, each observation is the *mean*
    /// availability over its window, not a point sample: point-sampling
    /// a load oscillating near the sensing frequency aliases into
    /// forecast flapping and re-mapping churn.
    ///
    /// The bound is strict so that a tick at `k·I` never sees the window
    /// ending at `k·I`, as in the simulator's event order, whenever the
    /// backend wakes. The cap limits a tenant attached late to a running
    /// pool to the interval before its first tick.
    fn sense<B: ExecutionBackend>(&mut self, backend: &B) {
        let Some(interval) = self.policy.interval() else {
            return; // a static policy never forecasts
        };
        let dt = (interval.as_nanos() / u64::from(SAMPLES_PER_INTERVAL)).max(1);
        let Some(last) = backend.now().as_nanos().checked_sub(1).map(|ns| ns / dt) else {
            return; // t = 0: no window has ended
        };
        let first = (self.sensed + 1).max((last + 1).saturating_sub(SAMPLES_PER_INTERVAL.into()));
        for j in first..=last {
            let (from, to) = (
                SimTime::from_nanos((j - 1) * dt),
                SimTime::from_nanos(j * dt),
            );
            let t = to.as_secs_f64();
            for node in 0..backend.node_count() {
                let truth = backend.mean_availability(node, from, to);
                let observed = self.noise.perturb(truth).clamp(0.0, 1.0);
                self.controller.observe_availability(node, t, observed);
            }
        }
        self.sensed = self.sensed.max(last);
    }

    /// The instant of the next unprocessed fault transition, if any —
    /// wall-clock backends use this to wake exactly when a fault is due
    /// (the simulator schedules an event per transition instead).
    pub fn next_fault_at(&self) -> Option<SimTime> {
        self.tracker.next_transition_at()
    }

    /// Processes every fault transition due at the backend's current
    /// time. For each node going **down**: mark it down in the routing
    /// table (all selection policies skip it from now on), emit
    /// [`RunEvent::NodeDown`], notify the backend
    /// ([`ExecutionBackend::on_node_down`] — the threaded engine
    /// evacuates the dead worker, the simulator arms replay
    /// accounting), fail fatally if a stage with *opaque* (undeclared)
    /// state was pinned to a permanently lost node (declared state
    /// live-migrates through the forced re-map below; a finite outage
    /// parks and recovers) or if every node is now down, and otherwise force a planning
    /// cycle that keeps retrying until a committed re-map excludes
    /// every down node. Nodes coming back **up** are re-admitted to
    /// routing and left for the regular adaptation cycle to re-adopt.
    ///
    /// A fatal loss latches [`AdaptationLoop::is_fatal`], which the
    /// backend reads after the call to tear the run down.
    ///
    /// Idempotent and cheap when nothing is due; called from every
    /// [`AdaptationLoop::tick`] and from the backends' fault wake-ups,
    /// so both backends run the identical recovery sequence.
    pub fn poll_faults<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
    ) {
        let now = backend.now();
        let due = self.tracker.poll(now);
        if due.is_empty() && !self.fault_remap_pending {
            return;
        }
        for transition in due {
            match transition {
                FaultTransition::Down { node, at } => {
                    let table = routing.read().expect("routing lock poisoned");
                    table.mark_down(node);
                    // Only *opaque* (undeclared) state dies with its
                    // host (a fatal `StatefulStageLost`): declared state
                    // is snapshottable, so the recovery re-map below
                    // migrates it instead, and replicable stages re-deal
                    // their stranded items at-least-once.
                    let lost_stateful = (0..table.len()).find(|&s| {
                        !self.cfg.profile.state[s].migratable() && table.contains(s, node)
                    });
                    let hosting = table.mapping().nodes_used().contains(&node);
                    drop(table);
                    self.events.emit(RunEvent::NodeDown {
                        session: self.cfg.session,
                        node: node.index(),
                        at,
                    });
                    backend.on_node_down(node.index(), at);
                    // State dies only with a *permanent* loss: a finite
                    // outage parks the stage's items and the node (and
                    // its state) comes back at the scheduled recovery.
                    if let Some(stage) = lost_stateful {
                        if self.tracker.is_permanently_down(node.index()) {
                            self.control.fail(RunError::StatefulStageLost {
                                stage,
                                node: node.index(),
                            });
                            self.fatal = true;
                        }
                    }
                    if self.tracker.all_down() {
                        self.control.fail(RunError::AllNodesDown);
                        self.fatal = true;
                    }
                    // A permanent loss of a hosting node under a policy
                    // that never re-maps can never be recovered: fail
                    // now instead of starving forever.
                    if hosting
                        && self.policy.interval().is_none()
                        && self.tracker.is_permanently_down(node.index())
                    {
                        self.control
                            .fail(RunError::NodeLostUnderStatic { node: node.index() });
                        self.fatal = true;
                    }
                    self.fault_remap_pending = true;
                }
                FaultTransition::Up { node, at } => {
                    routing.read().expect("routing lock poisoned").mark_up(node);
                    self.events.emit(RunEvent::NodeUp {
                        session: self.cfg.session,
                        node: node.index(),
                        at,
                    });
                    backend.on_node_up(node.index(), at);
                }
            }
        }
        if !self.fatal && self.fault_remap_pending {
            self.recover(backend, routing, now);
        }
    }

    /// One planning cycle away from the down nodes, committed at once.
    /// Bypasses warm-up (recovery cannot wait for observation history —
    /// forecast rates of down nodes are masked to zero, and the
    /// controller's dead-mapping bypass skips confirmation). Clears the
    /// pending flag only once the mapping in force excludes every down
    /// node.
    fn recover<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
        now: SimTime,
    ) {
        let current = in_force(routing);
        if !self.touches_down(&current) {
            self.fault_remap_pending = false;
            return;
        }
        // Static policy never re-maps, faults included: the run honours
        // the paper's baseline semantics and starves (the session
        // surfaces no progress; the simulator truncates).
        if self.policy.interval().is_none() {
            return;
        }
        self.sense(backend);
        let rates = self.controller.forecast_rates(&self.cfg.speeds);
        // Stranded items guarantee work remains even when the
        // remaining-items hint has run out — never let the amortisation
        // veto crash recovery.
        let remaining = self.total_items.saturating_sub(backend.completed()).max(1);
        let verdict = self.plan_cycle(rates, &current, remaining);
        if let Verdict::Remap { to, .. } = &verdict {
            // Never arm the regret guard on a recovery mapping: a revert
            // would re-adopt the mapping that includes the dead node.
            self.guard_prev = None;
            if !self.touches_down(to) {
                self.fault_remap_pending = false;
            }
            self.apply(backend, routing, &verdict, now);
        }
    }

    /// One adaptation tick: observes the availability windows that
    /// ended since the last look, settles the fault transitions due,
    /// then decides with `AdaptationLoop::step` on what the backend and
    /// the routing table show, publishes [`RunEvent::Tick`], and commits
    /// a `Remap` or `Revert` verdict — the routing-table swap plus the
    /// backend commit.
    ///
    /// Returns the verdict, or `None` when the tick decided nothing: the
    /// policy is static (it has no ticks), or a fault transition due at
    /// the tick proved the run unrecoverable ([`AdaptationLoop::is_fatal`]).
    pub fn tick<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
    ) -> Option<Verdict> {
        let interval = self.policy.interval()?;
        self.sense(backend);
        // Fault transitions due since the last look (and pending
        // recovery re-maps) are settled before anything else plans: the
        // rest of the tick must see the post-fault world.
        self.poll_faults(backend, routing);
        if self.fatal {
            return None;
        }
        let now = backend.now();
        let completed = backend.completed();
        let input = TickInput {
            completed,
            forced: self.control.take_force_remap(),
            paused: self.control.is_paused(),
            current: in_force(routing),
            // The clairvoyant rates: nominal speed × true mean
            // availability over the coming interval.
            oracle_rates: matches!(self.policy, Policy::Oracle { .. }).then(|| {
                let speeds = self.cfg.speeds.iter().enumerate();
                speeds
                    .map(|(i, s)| s * backend.mean_availability(i, now, now + interval))
                    .collect()
            }),
        };
        let realized = self.realized(completed, interval);
        let expected = self.expected_tput;
        let verdict = self.step(&input);
        if input.forced && matches!(verdict, Verdict::Paused | Verdict::Revert { .. }) {
            self.control.force_remap(); // not spent: still pending
        }
        if !self.events.is_idle() {
            self.events.emit(RunEvent::Tick {
                session: self.cfg.session,
                at: now,
                realized,
                expected,
                completed,
                verdict: verdict.clone(),
            });
        }
        self.apply(backend, routing, &verdict, now);
        Some(verdict)
    }

    /// Decides one tick from the loop's state and `input` alone — the
    /// regret guard, the warm-up and hold-down gates, the policy's rate
    /// choice and one planning cycle, in that order — and updates the
    /// loop's state as if the verdict were applied. Touches no backend,
    /// routing table or event bus: [`AdaptationLoop::tick`] commits.
    pub(crate) fn step(&mut self, input: &TickInput) -> Verdict {
        let Some(interval) = self.policy.interval() else {
            return Verdict::NotTriggered; // a static policy never plans
        };
        // Realized throughput over the elapsed tick: the one signal
        // immune to the forecast pathologies the guard exists for.
        self.ticks_seen += 1;
        let realized = self.realized(input.completed, interval);
        self.last_tick_completed = input.completed;
        // Paused: sensing and window reporting continue, but nothing may
        // commit — not the planner, not the regret guard.
        if input.paused {
            return Verdict::Paused;
        }
        if let Some(to) = self.regret_guard(realized) {
            return Verdict::Revert { to };
        }
        // Never plan before the warm-up observation history exists, nor
        // during a guard hold-down — unless the caller asked for one
        // planning cycle *now*.
        if !input.forced {
            if self.ticks_seen <= self.controller.config().warmup_ticks {
                return Verdict::WarmingUp;
            }
            if self.ticks_seen < self.hold_until_tick {
                return Verdict::HeldDown;
            }
        }
        if let Policy::Reactive { degradation, .. } = self.policy {
            let degraded = realized < degradation * self.expected_tput;
            if !degraded && !input.forced {
                return Verdict::NotTriggered;
            }
        }
        let rates = match &input.oracle_rates {
            Some(oracle) => oracle.clone(),
            None => self.controller.forecast_rates(&self.cfg.speeds),
        };
        let remaining = self.total_items.saturating_sub(input.completed);
        let verdict = self.plan_cycle(rates, &input.current, remaining);
        if matches!(verdict, Verdict::Remap { .. }) {
            self.guard_prev = Some((input.current.clone(), self.ticks_seen));
            self.guard_bad = 0;
        }
        verdict
    }

    /// Regret guard: compares what the adopted mapping delivers against
    /// what the model promised. On sustained shortfall it returns the
    /// mapping to revert to, with the model's expectation reset to it
    /// and planning held down.
    fn regret_guard(&mut self, realized: f64) -> Option<Mapping> {
        let cfg = self.controller.config();
        let (prev, adopted_tick) = self.guard_prev.as_ref()?;
        let adopted_tick = *adopted_tick;
        // A revert must never re-adopt a mapping that touches a node now
        // known to be down.
        if self.touches_down(prev) {
            self.guard_prev = None;
            return None;
        }
        // Skip the adoption tick itself: migration transients depress
        // throughput legitimately.
        let armed = cfg.guard_bad_ticks > 0
            && self.ticks_seen > adopted_tick + 1
            && self.expected_tput > 0.0;
        if !armed {
            return None;
        }
        if realized < GUARD_TOLERANCE * self.expected_tput {
            self.guard_bad += 1;
        } else {
            self.guard_bad = 0;
            // The mapping has proven itself: stop guarding it.
            if self.ticks_seen > adopted_tick + 3 {
                self.guard_prev = None;
            }
        }
        if self.guard_bad < cfg.guard_bad_ticks {
            return None;
        }
        let (prev, _) = self.guard_prev.take()?;
        let rates = self.controller.forecast_rates(&self.cfg.speeds);
        self.expected_tput =
            evaluate(&self.cfg.profile, &prev, &rates, &self.cfg.topology).throughput;
        self.hold_until_tick = self.ticks_seen + GUARD_HOLD_TICKS;
        Some(prev)
    }

    /// The one planning cycle, shared by [`AdaptationLoop::step`] and
    /// fault recovery: `rates` masked so that no path maps work onto a
    /// node known to be down (even before the forecast catches up with
    /// the failure), then [`Controller::consider`]. A re-map's
    /// prediction becomes the expected throughput; callers arm or
    /// disarm the regret guard.
    fn plan_cycle(&mut self, mut rates: Vec<f64>, current: &Mapping, remaining: u64) -> Verdict {
        self.tracker.mask_rates(&mut rates);
        let verdict = self.controller.consider(
            &self.cfg.profile,
            &self.cfg.topology,
            &rates,
            current,
            remaining,
            &self.cfg.state_bytes,
        );
        if let Verdict::Remap { throughput, .. } = verdict {
            self.expected_tput = throughput;
        }
        verdict
    }

    /// Items per second completed since the last tick.
    fn realized(&self, completed: u64, interval: SimDuration) -> f64 {
        completed.saturating_sub(self.last_tick_completed) as f64 / interval.as_secs_f64()
    }

    /// True if `mapping` places any replica on a node currently down.
    fn touches_down(&self, mapping: &Mapping) -> bool {
        mapping
            .placements()
            .iter()
            .any(|p| p.hosts().iter().any(|h| self.tracker.is_down(h.index())))
    }

    /// Commits a `Remap` or `Revert` verdict: swaps its mapping into the
    /// routing table, hands the priced plan to the backend, tallies the
    /// state migrations it implies, records a `Remap` as an adaptation,
    /// and publishes [`RunEvent::Remap`]. Any other verdict commits
    /// nothing.
    fn apply<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
        verdict: &Verdict,
        now: SimTime,
    ) {
        let (to, speedup) = match verdict {
            Verdict::Remap { to, speedup, .. } => (to, Some(*speedup)),
            Verdict::Revert { to } => (to, None),
            _ => return,
        };
        let mut table = routing.write().expect("routing lock poisoned");
        let from = table.mapping().clone();
        let migration_cost =
            self.controller
                .migration_cost(&from, to, &self.cfg.state_bytes, &self.cfg.topology);
        self.count_migrations(&from, to);
        let moved = table.install(to.clone());
        drop(table);
        let plan = RemapPlan {
            from,
            to: to.clone(),
            moved,
            migration_cost,
            at: now,
            ready_at: now + migration_cost,
        };
        backend.commit_remap(&plan);
        if let Some(predicted_speedup) = speedup {
            self.adaptations.push(AdaptationEvent {
                at: now,
                from: plan.from.clone(),
                to: plan.to.clone(),
                migrated_stages: plan.moved.clone(),
                predicted_speedup,
                migration_cost,
            });
        }
        if !self.events.is_idle() {
            self.events.emit(RunEvent::Remap {
                session: self.cfg.session,
                plan,
            });
        }
    }

    /// Tallies the state migrations a committed re-map implies, from
    /// the mapping diff alone — both backends physically move state
    /// through their own mechanisms, but the *accounting* lives here so
    /// `RunReport.migrations` agrees across backends for the same diff.
    fn count_migrations(&mut self, from: &Mapping, to: &Mapping) {
        for s in 0..from.len().min(to.len()) {
            let bytes = self.cfg.state_bytes.get(s).copied().unwrap_or(0);
            let old = from.placement(s).hosts();
            let new = to.placement(s).hosts();
            if old.is_empty() || new.is_empty() {
                continue;
            }
            match self.cfg.profile.state[s] {
                StateAccess::Stateless => {}
                // A shard moves when its owner (by the shared
                // `owner_of` rule over the placement width) changes
                // host; bytes are charged pro rata per shard.
                StateAccess::Keyed { shards } => {
                    let moved = (0..shards)
                        .filter(|&sh| old[owner_of(sh, old.len())] != new[owner_of(sh, new.len())])
                        .count() as u64;
                    self.migrations += moved;
                    self.state_bytes_moved += bytes * moved / shards.max(1) as u64;
                }
                // Each replica leaving the placement ships its partial
                // to be merged on a surviving host.
                StateAccess::Accumulator => {
                    let gone = old.iter().filter(|h| !new.contains(h)).count() as u64;
                    self.migrations += gone;
                    self.state_bytes_moved += gone * bytes;
                }
                // Single instance: one move when the primary changes.
                StateAccess::Exclusive | StateAccess::Opaque => {
                    if old[0] != new[0] {
                        self.migrations += 1;
                        self.state_bytes_moved += bytes;
                    }
                }
            }
        }
    }

    /// The wrapped controller (diagnostics).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Consumes the loop and settles its part of the run's report: the
    /// committed re-maps, the planning cycles run, and the state
    /// migrations those re-maps implied — assembled identically for
    /// every backend.
    pub fn finish(self, report: &mut ReportBuilder) {
        report.adaptations = self.adaptations;
        report.planning_cycles = self.controller.plans_evaluated();
        report.migrations = self.migrations;
        report.state_bytes_moved = self.state_bytes_moved;
    }
}

/// The mapping the routing table has in force.
fn in_force(routing: &RwLock<RoutingTable>) -> Mapping {
    routing
        .read()
        .expect("routing lock poisoned")
        .mapping()
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use adapipe_gridsim::net::LinkSpec;
    use adapipe_gridsim::node::NodeId;

    /// A minimal in-memory backend: constant availability per node,
    /// scripted completion counter, records the availability windows it
    /// is asked about and the plans it commits.
    struct TestBackend {
        avail: Vec<f64>,
        now: SimTime,
        completed: u64,
        reads: std::cell::RefCell<Vec<(usize, SimTime, SimTime)>>,
        commits: Vec<RemapPlan>,
    }

    impl TestBackend {
        fn new(avail: Vec<f64>, now: SimTime) -> Self {
            TestBackend {
                avail,
                now,
                completed: 0,
                reads: Default::default(),
                commits: vec![],
            }
        }
    }

    impl ExecutionBackend for TestBackend {
        fn node_count(&self) -> usize {
            self.avail.len()
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn mean_availability(&self, node: usize, from: SimTime, to: SimTime) -> f64 {
            self.reads.borrow_mut().push((node, from, to));
            self.avail[node]
        }
        fn completed(&self) -> u64 {
            self.completed
        }
        fn commit_remap(&mut self, plan: &RemapPlan) {
            self.commits.push(plan.clone());
        }
    }

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    /// A three-stage unit-work chain on `np` unit-speed nodes: the
    /// substrate, session and run config one launch takes.
    struct Rig {
        substrate: RuntimeConfig,
        session: Session,
        run: RunConfig,
    }

    impl Rig {
        fn launch(self) -> AdaptationLoop {
            let rates = vec![1.0; self.substrate.speeds.len()];
            AdaptationLoop::launch(self.substrate, &self.session, &self.run, &rates).0
        }
    }

    /// The rig launched one stage per node, with that mapping.
    fn rig(policy: Policy, np: usize) -> (Rig, Mapping) {
        let mapping = Mapping::from_assignment(&(0..3).map(n).collect::<Vec<_>>());
        let substrate = RuntimeConfig {
            profile: PipelineProfile::uniform(vec![1.0; 3], 0),
            topology: Topology::uniform(np, LinkSpec::lan()),
            speeds: vec![1.0; np],
            state_bytes: vec![0; 3],
            faults: FaultPlan::new(),
            session: SessionId(0),
        };
        let run = RunConfig {
            items: 10_000,
            initial_mapping: Some(mapping.clone()),
            ..RunConfig::default()
        };
        let session = Session::new(policy, ArrivalProcess::AllAtOnce).expect("valid policy");
        (
            Rig {
                substrate,
                session,
                run,
            },
            mapping,
        )
    }

    /// The loop's part of the report, as [`AdaptationLoop::finish`]
    /// settles it.
    fn settle(aloop: AdaptationLoop) -> ReportBuilder {
        let mut report = ReportBuilder::new(SimDuration::from_secs(1), 0);
        aloop.finish(&mut report);
        report
    }

    #[test]
    fn static_policy_never_ticks() {
        let (rig, mapping) = rig(Policy::Static, 3);
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(10.0));
        backend.completed = 5;
        assert!(aloop.interval().is_none());
        assert_eq!(aloop.tick(&mut backend, &routing), None);
        assert!(backend.reads.borrow().is_empty(), "static never senses");
        let report = settle(aloop);
        assert!(report.adaptations.is_empty());
        assert_eq!(report.planning_cycles, 0);
    }

    #[test]
    fn periodic_remaps_off_collapsed_node_after_warmup() {
        let (rig, mapping) = rig(Policy::periodic_default(), 3);
        let warmup = rig.run.controller.warmup_ticks;
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping.clone()));
        // Node 1 collapsed.
        let mut backend = TestBackend::new(vec![1.0, 0.05, 1.0], SimTime::ZERO);
        for k in 0..warmup + 4 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            let verdict = aloop
                .tick(&mut backend, &routing)
                .expect("an adaptive tick");
            if k < warmup {
                assert_eq!(verdict, Verdict::WarmingUp, "tick {k}");
            }
            if matches!(verdict, Verdict::Remap { .. }) {
                break;
            }
        }
        assert_eq!(
            backend.commits.len(),
            1,
            "collapsed node must force a re-map"
        );
        let plan = &backend.commits[0];
        assert!(!plan.moved.is_empty());
        // The routing table now points at the new mapping.
        let table = routing.read().unwrap();
        assert_eq!(table.mapping(), &plan.to);
        assert_ne!(table.mapping(), &mapping);
        drop(table);
        let report = settle(aloop);
        assert_eq!(report.adaptations.len(), 1);
        assert_eq!(report.adaptations[0].to, plan.to);
        assert!(report.planning_cycles >= 1);
    }

    #[test]
    fn paused_loop_senses_but_never_commits() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        let control = SessionControl::new();
        rig.run.control = control.clone();
        let events = rig.run.events.subscribe();
        let warmup = rig.run.controller.warmup_ticks;
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping.clone()));
        // Would force a re-map if live.
        let mut backend = TestBackend::new(vec![1.0, 0.05, 1.0], SimTime::ZERO);
        control.pause_adaptation();
        for k in 0..warmup + 4 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            assert_eq!(
                aloop.tick(&mut backend, &routing),
                Some(Verdict::Paused),
                "tick {k}"
            );
        }
        assert_eq!(routing.read().unwrap().mapping(), &mapping);
        assert!(backend.commits.is_empty());
        // Window statistics kept flowing while paused.
        let stats: Vec<_> = events.try_iter().collect();
        assert_eq!(stats.len() as u32, warmup + 4);
        assert!(stats.iter().all(|e| matches!(
            e,
            RunEvent::Tick {
                verdict: Verdict::Paused,
                ..
            }
        )));
        // Resuming lets the collapsed node force the usual re-map.
        control.resume_adaptation();
        let mut committed = false;
        for k in 0..4 {
            backend.now += SimDuration::from_secs(5);
            if matches!(
                aloop.tick(&mut backend, &routing),
                Some(Verdict::Remap { .. })
            ) {
                committed = true;
                break;
            }
            assert!(k < 3, "resume must re-enable planning");
        }
        assert!(committed);
    }

    #[test]
    fn forced_tick_bypasses_warmup_and_emits_remap_event() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        // Make acceptance easy so the forced cycle visibly commits.
        rig.run.controller.decision = adapipe_mapper::decide::DecisionConfig {
            min_relative_gain: 0.0,
            cost_benefit_factor: 0.0,
        };
        let control = SessionControl::new();
        rig.run.control = control.clone();
        let events = rig.run.events.subscribe();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping));
        let mut backend = TestBackend::new(vec![1.0, 0.05, 1.0], SimTime::ZERO);
        // One observation, then a forced tick *inside* the warm-up
        // window: it must plan (and here commit) anyway.
        backend.now = SimTime::from_secs_f64(5.0);
        control.force_remap();
        let verdict = aloop.tick(&mut backend, &routing);
        assert!(
            matches!(verdict, Some(Verdict::Remap { .. })),
            "forced tick must plan: {verdict:?}"
        );
        assert!(!backend.commits[0].moved.is_empty());
        assert!(
            !control.take_force_remap(),
            "the planning tick spent the force"
        );
        // The tick's verdict, then the commit it decided.
        let events: Vec<_> = events.try_iter().collect();
        assert!(
            matches!(
                events.as_slice(),
                [
                    RunEvent::Tick {
                        verdict: Verdict::Remap { .. },
                        ..
                    },
                    RunEvent::Remap { .. }
                ]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn reactive_plans_only_on_degradation() {
        let (rig, mapping) = rig(
            Policy::Reactive {
                interval: SimDuration::from_secs(5),
                degradation: 0.7,
            },
            3,
        );
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping));
        let mut backend = TestBackend::new(vec![1.0, 0.05, 1.0], SimTime::ZERO);
        // Healthy throughput (≥ expected 1 item/s × 5 s per tick): the
        // forecast sees a collapsed node, but reactive never even plans.
        for k in 0..8u64 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            backend.completed = (k + 1) * 5;
            let verdict = aloop
                .tick(&mut backend, &routing)
                .expect("an adaptive tick");
            assert!(
                matches!(verdict, Verdict::WarmingUp | Verdict::NotTriggered),
                "tick {k}: {verdict:?}"
            );
        }
        let cycles_before = aloop.controller().plans_evaluated();
        assert_eq!(cycles_before, 0, "healthy reactive run must not plan");
        // Throughput collapses: now it must plan and re-map.
        let mut remapped = false;
        for k in 8..12u64 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            if matches!(
                aloop.tick(&mut backend, &routing),
                Some(Verdict::Remap { .. })
            ) {
                remapped = true;
                break;
            }
        }
        assert!(remapped, "degraded reactive run must re-map");
    }

    #[test]
    fn crash_forces_committed_remap_off_dead_node_before_warmup() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.substrate.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(2.0));
        let control = rig.run.control.clone();
        let events = rig.run.events.subscribe();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping.clone(),
            crate::routing::Selection::RoundRobin,
            3,
        ));
        // The forecast has not seen the crash.
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(2.5));
        assert_eq!(aloop.next_fault_at(), Some(SimTime::from_secs_f64(2.0)));
        // Well inside warm-up, one window sensed: recovery still plans
        // and commits immediately.
        aloop.poll_faults(&mut backend, &routing);
        assert!(!aloop.is_fatal());
        let plan = backend.commits.last().expect("crash must force a re-map");
        assert!(
            !plan.to.nodes_used().contains(&n(1)),
            "recovery mapping still uses the dead node: {}",
            plan.to
        );
        assert!(aloop.tracker.is_down(1));
        assert!(routing.read().unwrap().is_down(n(1)));
        assert_eq!(control.error(), None);
        let kinds: Vec<_> = events.try_iter().collect();
        assert!(kinds
            .iter()
            .any(|e| matches!(e, RunEvent::NodeDown { node: 1, .. })));
        assert!(kinds.iter().any(|e| matches!(e, RunEvent::Remap { .. })));
        // Idempotent: polling again does nothing further.
        aloop.poll_faults(&mut backend, &routing);
        assert_eq!(backend.commits.len(), 1);
        assert!(!aloop.is_fatal());
        // The recovery re-map is an adaptation in the report.
        assert_eq!(settle(aloop).adaptations.len(), 1);
    }

    #[test]
    fn outage_marks_down_then_up_in_routing() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.substrate.faults = FaultPlan::new().outage(
            n(2),
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(4.0),
        );
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping,
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(1.5));
        aloop.poll_faults(&mut backend, &routing);
        assert!(routing.read().unwrap().is_down(n(2)));
        backend.now = SimTime::from_secs_f64(4.5);
        aloop.poll_faults(&mut backend, &routing);
        assert!(!routing.read().unwrap().is_down(n(2)));
        assert_eq!(aloop.next_fault_at(), None);
    }

    #[test]
    fn stateful_stage_on_crashed_node_is_fatal() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.substrate.profile.state[1] = StateAccess::Opaque; // stage 1 stateful on n1
        rig.substrate.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(1.0));
        let control = rig.run.control.clone();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping,
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(1.5));
        aloop.poll_faults(&mut backend, &routing);
        assert!(aloop.is_fatal());
        assert_eq!(
            control.error(),
            Some(RunError::StatefulStageLost { stage: 1, node: 1 })
        );
    }

    #[test]
    fn declared_keyed_stage_on_crashed_node_migrates_instead_of_aborting() {
        // Same crash as `stateful_stage_on_crashed_node_is_fatal`, but
        // the stage *declares* its state: keyed shards are
        // snapshottable, so the loop forces a recovery re-map that
        // moves the shards — no typed abort.
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.substrate.profile.state = vec![
            StateAccess::Stateless,
            StateAccess::Keyed { shards: 4 },
            StateAccess::Stateless,
        ];
        rig.substrate.state_bytes = vec![0, 4096, 0];
        rig.substrate.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(1.0));
        let control = rig.run.control.clone();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping,
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(1.5));
        aloop.poll_faults(&mut backend, &routing);
        assert!(!aloop.is_fatal(), "declared state must migrate, not abort");
        assert_eq!(control.error(), None);
        let plan = backend.commits.last().expect("crash must force a re-map");
        assert!(!plan.to.nodes_used().contains(&n(1)));
        let report = settle(aloop);
        assert!(report.migrations > 0, "shard moves must be counted");
        assert!(
            report.state_bytes_moved > 0,
            "moved shards carry their bytes"
        );
    }

    #[test]
    fn exclusive_state_migrates_as_one_unit_on_crash() {
        // Declared exclusive state on the crashed node: one
        // whole-instance migration, full byte charge, no abort.
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.substrate.profile.state = vec![
            StateAccess::Stateless,
            StateAccess::Exclusive,
            StateAccess::Stateless,
        ];
        rig.substrate.state_bytes = vec![0, 1000, 0];
        rig.substrate.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(1.0));
        let control = rig.run.control.clone();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping,
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(1.5));
        aloop.poll_faults(&mut backend, &routing);
        assert!(!aloop.is_fatal());
        assert_eq!(control.error(), None);
        assert_eq!(backend.commits.len(), 1);
        let report = settle(aloop);
        assert_eq!(report.migrations, 1, "exclusive state moves as one unit");
        assert_eq!(report.state_bytes_moved, 1000);
    }

    #[test]
    fn stateful_stage_survives_a_finite_outage() {
        // An outage is recoverable: the stage's items park and the node
        // (with its state) comes back — no fatal error, unlike a crash.
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.substrate.profile.state[1] = StateAccess::Opaque; // stage 1 stateful on n1
        rig.substrate.faults = FaultPlan::new().outage(
            n(1),
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(3.0),
        );
        let control = rig.run.control.clone();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping,
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(1.5));
        aloop.poll_faults(&mut backend, &routing);
        assert!(!aloop.is_fatal(), "a finite outage must not be fatal");
        assert_eq!(control.error(), None);
        assert!(routing.read().unwrap().is_down(n(1)));
    }

    #[test]
    fn all_nodes_down_is_fatal() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.substrate.faults = FaultPlan::new()
            .crash(n(0), SimTime::from_secs_f64(1.0))
            .crash(n(1), SimTime::from_secs_f64(1.0))
            .crash(n(2), SimTime::from_secs_f64(1.0));
        let control = rig.run.control.clone();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping,
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(2.0));
        aloop.poll_faults(&mut backend, &routing);
        assert!(aloop.is_fatal());
        assert_eq!(control.error(), Some(RunError::AllNodesDown));
    }

    #[test]
    fn static_policy_marks_down_but_never_remaps_and_fails_on_permanent_loss() {
        let (mut rig, mapping) = rig(Policy::Static, 3);
        rig.substrate.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(1.0));
        let control = rig.run.control.clone();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping.clone(),
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_secs_f64(1.5));
        aloop.poll_faults(&mut backend, &routing);
        assert!(backend.commits.is_empty(), "static must not re-map");
        assert!(routing.read().unwrap().is_down(n(1)));
        assert_eq!(routing.read().unwrap().mapping(), &mapping);
        // A permanent loss of a hosting node can never complete under
        // static: surfaced as the typed fatal error.
        assert!(aloop.is_fatal());
        assert_eq!(
            control.error(),
            Some(RunError::NodeLostUnderStatic { node: 1 })
        );
    }

    #[test]
    fn regret_guard_reverts_underperforming_mapping() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        // Make the planner remap-happy and the guard fast.
        rig.run.controller.decision = adapipe_mapper::decide::DecisionConfig {
            min_relative_gain: 0.0,
            cost_benefit_factor: 0.0,
        };
        rig.run.controller.guard_bad_ticks = 2;
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping.clone()));
        let mut backend = TestBackend::new(vec![1.0, 0.05, 1.0], SimTime::ZERO);
        // Drive until the forecast-led re-map happens…
        let mut tick = 0u64;
        loop {
            tick += 1;
            backend.now = SimTime::from_secs_f64(tick as f64 * 5.0);
            if matches!(
                aloop.tick(&mut backend, &routing),
                Some(Verdict::Remap { .. })
            ) {
                break;
            }
            assert!(tick < 20, "no initial re-map");
        }
        let adopted = routing.read().unwrap().mapping().clone();
        // …then starve realized throughput (completed never moves): the
        // guard must revert to the original mapping within a few ticks.
        let mut reverted = false;
        for _ in 0..4 {
            tick += 1;
            backend.now = SimTime::from_secs_f64(tick as f64 * 5.0);
            let verdict = aloop
                .tick(&mut backend, &routing)
                .expect("an adaptive tick");
            assert!(!matches!(verdict, Verdict::Remap { .. }), "{verdict:?}");
            if let Verdict::Revert { to } = verdict {
                assert_eq!(to, mapping, "revert restores the guarded mapping");
                reverted = true;
                break;
            }
        }
        assert!(reverted, "guard must revert");
        let plan = backend.commits.last().expect("the revert committed");
        assert_eq!(plan.from, adopted);
        assert_eq!(plan.to, mapping);
        // Planning is held down afterwards.
        let held_until = aloop.ticks_seen + GUARD_HOLD_TICKS;
        for _ in aloop.ticks_seen..held_until.saturating_sub(1) {
            tick += 1;
            backend.now = SimTime::from_secs_f64(tick as f64 * 5.0);
            assert_eq!(
                aloop.tick(&mut backend, &routing),
                Some(Verdict::HeldDown),
                "hold-down violated"
            );
        }
        // A revert undoes an adaptation; it is not one.
        assert_eq!(settle(aloop).adaptations.len(), 1);
    }

    #[test]
    fn a_revert_ends_the_tick_and_a_force_request_waits_for_the_next() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        rig.run.controller.decision = adapipe_mapper::decide::DecisionConfig {
            min_relative_gain: 0.0,
            cost_benefit_factor: 0.0,
        };
        rig.run.controller.guard_bad_ticks = 1;
        let control = rig.run.control.clone();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping.clone()));
        let mut backend = TestBackend::new(vec![1.0, 0.05, 1.0], SimTime::ZERO);
        let tick = |aloop: &mut AdaptationLoop, backend: &mut TestBackend| {
            backend.now += SimDuration::from_secs(5);
            aloop.tick(backend, &routing).expect("an adaptive tick")
        };
        while !matches!(tick(&mut aloop, &mut backend), Verdict::Remap { .. }) {
            assert!(aloop.ticks_seen < 20, "no initial re-map");
        }
        // Completions never move, so the guard trips; a force request
        // arrives on the very tick it reverts.
        let verdict = loop {
            let commits = backend.commits.len();
            control.force_remap();
            let verdict = tick(&mut aloop, &mut backend);
            if matches!(verdict, Verdict::Revert { .. }) {
                assert_eq!(backend.commits.len(), commits + 1, "one commit per tick");
                break verdict;
            }
            assert!(aloop.ticks_seen < 20, "the guard never tripped");
            control.take_force_remap();
        };
        assert_eq!(verdict, Verdict::Revert { to: mapping });
        // The request survived the revert: the next tick plans through
        // the hold-down, and spends it.
        let next = tick(&mut aloop, &mut backend);
        assert!(
            matches!(next, Verdict::Remap { .. } | Verdict::Keep(_)),
            "{next:?}"
        );
        assert!(!control.take_force_remap());
        assert_eq!(tick(&mut aloop, &mut backend), Verdict::HeldDown);
    }

    /// The loop's sensing schedule, read off the windows a recording
    /// backend is asked about. Ticks at `k·I`, and one fault recovery
    /// between two of them, each read every window that ended strictly
    /// before them, contiguously from the last one read, window by
    /// window and node by node: none twice, at most
    /// `SAMPLES_PER_INTERVAL` per read. A loop first ticked long after
    /// launch reads only the last `SAMPLES_PER_INTERVAL` windows.
    #[test]
    fn sensing_reads_each_elapsed_window_once_before_it_forecasts() {
        const DT: u64 = 1_250_000_000; // the 5 s interval over four windows
        let window = |j: u64| {
            (
                SimTime::from_nanos((j - 1) * DT),
                SimTime::from_nanos(j * DT),
            )
        };
        let (mut crashing, mapping) = rig(Policy::periodic_default(), 3);
        crashing.substrate.faults = FaultPlan::new().crash(n(1), SimTime::from_secs_f64(12.0));
        let mut aloop = crashing.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping,
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend::new(vec![1.0, 0.5, 1.0], SimTime::ZERO);
        let mut last = 0; // the last window read
        for at in [5.0, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0] {
            backend.now = SimTime::from_secs_f64(at);
            if at == 12.0 {
                aloop.poll_faults(&mut backend, &routing);
                assert_eq!(backend.commits.len(), 1, "the crash forces a recovery");
            } else {
                aloop
                    .tick(&mut backend, &routing)
                    .expect("an adaptive tick");
            }
            let reads = backend.reads.take();
            let windows = (reads.len() / 3) as u64;
            assert!(
                (1..=u64::from(SAMPLES_PER_INTERVAL)).contains(&windows),
                "{at} s read {windows} windows"
            );
            for (j, nodes) in (last + 1..).zip(reads.chunks(3)) {
                let (from, to) = window(j);
                let expected: Vec<_> = (0..3).map(|node| (node, from, to)).collect();
                assert_eq!(nodes, expected.as_slice(), "{at} s: window {j}");
                assert!(to < backend.now, "window {j} had not ended at {at} s");
            }
            last += windows;
            assert!(
                window(last + 1).1 >= backend.now,
                "{at} s left window {} unread",
                last + 1
            );
        }
        // A loop first ticked long after launch, as a tenant attached late
        // to a running pool is: the cap keeps the interval before the tick.
        let (late, mapping) = rig(Policy::periodic_default(), 3);
        let mut aloop = late.launch();
        let routing = RwLock::new(RoutingTable::new(mapping));
        let mut backend = TestBackend::new(vec![1.0; 3], SimTime::from_nanos(80 * DT));
        aloop
            .tick(&mut backend, &routing)
            .expect("an adaptive tick");
        let windows: Vec<_> = backend
            .reads
            .take()
            .iter()
            .step_by(3)
            .map(|r| (r.1, r.2))
            .collect();
        assert_eq!(windows, (76..80).map(window).collect::<Vec<_>>());
    }

    /// The control schedule swept at the pure `step`: seeded sequences
    /// of pause and force requests and completion counts, under random
    /// availability the fault plan does not show (the forecast lags the
    /// failure), a crash and an outage advanced through the loop's own
    /// tracker, random controller tunables, and each adaptive policy.
    #[test]
    fn control_schedule_sweep_keeps_the_loop_invariants() {
        use adapipe_gridsim::rng::Rng64;
        let interval = SimDuration::from_secs(5);
        let mut seen = std::collections::BTreeMap::new();
        for seed in 0..300u64 {
            let mut rng = Rng64::new(seed);
            let np = 3 + rng.next_range(3);
            let policy = match rng.next_range(3) {
                0 => Policy::Periodic { interval },
                1 => Policy::Reactive {
                    interval,
                    degradation: 0.9,
                },
                _ => Policy::Oracle { interval },
            };
            let (mut rig, mapping) = rig(policy, np);
            let at = |tick: usize| SimTime::from_secs_f64(5.0 * tick as f64 + 2.5);
            let outage = rng.next_range(25);
            rig.substrate.faults = FaultPlan::new()
                .crash(n(rng.next_range(np)), at(rng.next_range(30)))
                .outage(
                    n(rng.next_range(np)),
                    at(outage),
                    at(outage + 1 + rng.next_range(8)),
                );
            let c = &mut rig.run.controller;
            c.decision = adapipe_mapper::decide::DecisionConfig {
                min_relative_gain: 0.0,
                cost_benefit_factor: 0.0,
            };
            c.warmup_ticks = rng.next_range(4) as u32;
            c.confirm_ticks = 1 + rng.next_range(2) as u32;
            c.guard_bad_ticks = rng.next_range(3) as u32;
            let warmup = c.warmup_ticks;
            let mut aloop = rig.launch();
            let mut current = mapping;
            let mut completed = 0;
            for k in 1..=40u32 {
                let now = SimTime::from_secs_f64(5.0 * k as f64);
                aloop.tracker.poll(now);
                let avail: Vec<f64> = (0..np).map(|_| 0.05 + 0.95 * rng.next_unit()).collect();
                for (node, &a) in avail.iter().enumerate() {
                    aloop
                        .controller
                        .observe_availability(node, now.as_secs_f64(), a);
                }
                completed += rng.next_range(12) as u64;
                let input = TickInput {
                    completed,
                    forced: rng.next_range(4) == 0,
                    paused: rng.next_range(5) == 0,
                    current: current.clone(),
                    oracle_rates: matches!(policy, Policy::Oracle { .. }).then(|| avail.clone()),
                };
                let verdict = aloop.step(&input);
                *seen.entry(verdict.kind()).or_insert(0u32) += 1;
                let down = |m: &Mapping| {
                    m.nodes_used()
                        .iter()
                        .any(|h| aloop.tracker.is_down(h.index()))
                };
                let at = format!("seed {seed} tick {k}: {verdict:?}");
                match &verdict {
                    Verdict::Remap { to, .. } | Verdict::Revert { to } => {
                        assert!(!input.paused, "{at} while paused");
                        assert!(!down(to), "{at} adopts a mapping on a down node");
                        current = to.clone();
                    }
                    Verdict::WarmingUp => {
                        assert!(!input.forced && k <= warmup, "{at} after warm-up")
                    }
                    _ => {}
                }
            }
        }
        // The sweep reached every exit the invariants are about.
        for kind in ["paused", "warming-up", "held-down", "remap", "revert"] {
            assert!(seen.contains_key(kind), "no {kind} verdict in {seen:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mapping must cover every stage")]
    fn launch_rejects_a_mapping_of_the_wrong_arity() {
        let (mut rig, _) = rig(Policy::Static, 3);
        rig.run.initial_mapping = Some(Mapping::from_assignment(&[n(0), n(1)]));
        rig.launch();
    }

    #[test]
    #[should_panic(expected = "outside the 3-node backend")]
    fn launch_rejects_a_mapping_onto_a_node_the_backend_lacks() {
        let (mut rig, _) = rig(Policy::Static, 3);
        rig.run.initial_mapping = Some(Mapping::from_assignment(&[n(0), n(1), n(3)]));
        rig.launch();
    }

    #[test]
    #[should_panic(expected = "topology must cover every node")]
    fn launch_rejects_a_topology_that_does_not_cover_the_pool() {
        let (mut rig, _) = rig(Policy::Static, 3);
        rig.substrate.topology = Topology::uniform(2, LinkSpec::lan());
        rig.launch();
    }

    #[test]
    fn verdict_kinds_are_distinct() {
        // A why-table keys on the kind: two exits sharing a name would
        // merge their rows.
        let to = Mapping::from_assignment(&[n(0)]);
        let all = [
            Verdict::Paused,
            Verdict::WarmingUp,
            Verdict::HeldDown,
            Verdict::NotTriggered,
            Verdict::Keep(KeepReason::NoImprovement),
            Verdict::Keep(KeepReason::BelowThreshold),
            Verdict::Keep(KeepReason::NotWorthMigration),
            Verdict::Keep(KeepReason::StreamExhausted),
            Verdict::Keep(KeepReason::Certified),
            Verdict::Confirming { votes: 1 },
            Verdict::Remap {
                to: to.clone(),
                throughput: 1.0,
                speedup: 2.0,
                migration_cost: SimDuration::ZERO,
            },
            Verdict::Revert { to },
        ];
        let kinds: std::collections::HashSet<_> = all.iter().map(Verdict::kind).collect();
        assert_eq!(kinds.len(), all.len(), "{kinds:?}");
        assert_eq!(
            Verdict::Keep(KeepReason::Certified).kind(),
            "keep:certified"
        );
    }
}
