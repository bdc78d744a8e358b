//! The shared adaptation loop: instrument → forecast → plan → re-map.
//!
//! Historically each engine re-implemented this cycle (the simulator in
//! its `on_sample`/`on_tick` event handlers, the threaded engine in a
//! dedicated controller thread), and the two copies drifted — the
//! threaded engine, for instance, never gained the regret guard. The
//! [`AdaptationLoop`] is the single implementation both drive now:
//!
//! * **sensing** ([`AdaptationLoop::sample`]) — windowed mean
//!   availability per node, perturbed by observation noise, several
//!   times per adaptation interval (point samples alias against load
//!   oscillating near the sensing frequency);
//! * **deciding** ([`AdaptationLoop::tick`]) — once per interval:
//!   realized-throughput regret guard, warm-up and hold-down gating,
//!   policy-specific rate selection, then one
//!   [`Controller::consider`] cycle; accepted mappings are swapped into
//!   the [`RoutingTable`] and handed to the backend as a
//!   [`RemapPlan`] to commit physically.
//!
//! Backends only choose *when* to call these (the simulator schedules
//! events, the engine sleeps on a wall clock) — never *what* happens.

use crate::backend::{ExecutionBackend, RemapPlan};
use crate::controller::Controller;
use crate::fault::{FaultTracker, FaultTransition};
use crate::policy::Policy;
use crate::report::AdaptationEvent;
use crate::routing::RoutingTable;
use crate::session::{RunConfig, RunError, RunEvent, RunHooks, Session, SessionControl, SessionId};
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::net::Topology;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::mapping::Mapping;
use adapipe_mapper::model::{evaluate, PipelineProfile};
use adapipe_mapper::search::{plan, Plan};
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

/// The adaptation state machine shared by every backend.
pub struct AdaptationLoop {
    cfg: RuntimeConfig,
    /// The run's policy, stream-length hint, hooks and steering flags,
    /// taken from its [`Session`] and [`RunConfig`] at launch.
    policy: Policy,
    total_items: u64,
    hooks: RunHooks,
    control: SessionControl,
    controller: Controller,
    noise: NoisyChannel,
    /// Model-predicted throughput of the mapping currently in force.
    expected_tput: f64,
    last_tick_completed: u64,
    ticks_seen: u32,
    /// Mapping to revert to if the regret guard trips, with the tick the
    /// current mapping was adopted.
    guard_prev: Option<(Mapping, u32)>,
    guard_bad: u32,
    hold_until_tick: u32,
    /// Node-health state machine for the run's fault plan.
    tracker: FaultTracker,
    /// A node went down and the mapping still touches a down node: keep
    /// forcing planning cycles until a committed re-map excludes every
    /// down node.
    fault_remap_pending: bool,
    /// Latched once a fault transition proved the run unrecoverable
    /// (see [`FaultOutcome::fatal`]). Distinct from the session's error
    /// slot, which may carry non-fatal errors (e.g. the simulator's
    /// marker-semantics type mismatch).
    fatal: bool,
    /// State migrations implied by committed re-maps (shard, partial,
    /// or whole-instance moves), counted centrally from mapping diffs
    /// so both backends report identical totals.
    migrations: u64,
    /// Declared-state bytes those migrations shipped.
    state_bytes_moved: u64,
}

/// What [`AdaptationLoop::poll_faults`] did about the transitions due.
#[derive(Debug, Default)]
pub struct FaultOutcome {
    /// A fault-driven re-map committed by this poll, if any.
    pub committed: Option<RemapPlan>,
    /// True if the run can no longer proceed (stateful stage lost,
    /// every node down): the error is recorded on the session control
    /// and the backend should tear the run down.
    pub fatal: bool,
}

impl AdaptationLoop {
    /// Launches the loop for one run on the backend's `substrate` and
    /// returns it with the launch mapping: `cfg.initial_mapping`, or
    /// one planned from `launch_rates` — the effective node rates at
    /// start, which also seed the expected-throughput baseline the
    /// regret guard and the reactive policy compare in. Everything else
    /// the loop needs (policy, controller tunables, stream-length hint,
    /// observation noise, hooks, steering flags) it reads from
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
            hooks: cfg.hooks.clone(),
            control: cfg.control.clone(),
            controller: Controller::new(np, cfg.controller.clone()),
            noise,
            expected_tput,
            last_tick_completed: 0,
            ticks_seen: 0,
            guard_prev: None,
            guard_bad: 0,
            hold_until_tick: 0,
            tracker: FaultTracker::new(&substrate.faults, np),
            fault_remap_pending: false,
            fatal: false,
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

    /// Sub-interval spacing of availability observations, or `None`
    /// under [`Policy::Static`] (nothing ever consumes the samples).
    pub fn sample_dt(&self) -> Option<SimDuration> {
        let interval = self.policy.interval()?;
        let divisions = self.controller.config().samples_per_interval.max(1);
        Some(SimDuration::from_nanos(
            (interval.as_nanos() / divisions as u64).max(1),
        ))
    }

    /// Observations per adaptation interval (≥ 1).
    pub fn samples_per_interval(&self) -> u32 {
        self.controller.config().samples_per_interval.max(1)
    }

    /// One availability observation on every node (the NWS stand-in).
    /// Like NWS's CPU sensor, the observation is the *mean* availability
    /// over the elapsed sample window, not a point sample: point-sampling
    /// a load oscillating near the sensing frequency aliases into
    /// forecast flapping and re-mapping churn.
    pub fn sample<B: ExecutionBackend>(&mut self, backend: &B) {
        let Some(dt) = self.sample_dt() else { return };
        let now = backend.now();
        let window_start = SimTime::from_nanos(now.as_nanos().saturating_sub(dt.as_nanos()));
        if window_start >= now {
            return; // no elapsed window yet (t = 0): nothing to observe
        }
        let t = now.as_secs_f64();
        for node in 0..backend.node_count() {
            let truth = backend.mean_availability(node, window_start, now);
            let observed = self.noise.perturb(truth).clamp(0.0, 1.0);
            self.controller.observe_availability(node, t, observed);
        }
    }

    /// The instant of the next unprocessed fault transition, if any —
    /// wall-clock backends use this to wake exactly when a fault is due
    /// (the simulator schedules an event per transition instead).
    pub fn next_fault_at(&self) -> Option<SimTime> {
        self.tracker.next_transition_at()
    }

    /// True if `node` is currently down per the processed fault plan.
    pub fn is_node_down(&self, node: usize) -> bool {
        self.tracker.is_down(node)
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
    /// Idempotent and cheap when nothing is due; called from every
    /// [`AdaptationLoop::tick`] and from the backends' fault wake-ups,
    /// so both backends run the identical recovery sequence.
    pub fn poll_faults<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
    ) -> FaultOutcome {
        let now = backend.now();
        let mut outcome = FaultOutcome::default();
        let due = self.tracker.poll(now);
        if due.is_empty() && !self.fault_remap_pending {
            return outcome;
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
                    drop(table);
                    self.hooks.events.emit(RunEvent::NodeDown {
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
                            outcome.fatal = true;
                        }
                    }
                    if self.tracker.all_down() {
                        self.control.fail(RunError::AllNodesDown);
                        outcome.fatal = true;
                    }
                    // A permanent loss of a hosting node under a policy
                    // that never re-maps can never be recovered: fail
                    // now instead of starving forever.
                    if self.policy.interval().is_none()
                        && self.tracker.is_permanently_down(node.index())
                        && routing
                            .read()
                            .expect("routing lock poisoned")
                            .mapping()
                            .nodes_used()
                            .contains(&node)
                    {
                        self.control
                            .fail(RunError::NodeLostUnderStatic { node: node.index() });
                        outcome.fatal = true;
                    }
                    self.fault_remap_pending = true;
                }
                FaultTransition::Up { node, at } => {
                    routing.read().expect("routing lock poisoned").mark_up(node);
                    self.hooks.events.emit(RunEvent::NodeUp {
                        session: self.cfg.session,
                        node: node.index(),
                        at,
                    });
                    backend.on_node_up(node.index(), at);
                }
            }
        }
        if outcome.fatal {
            self.fatal = true;
            return outcome;
        }
        if self.fault_remap_pending {
            outcome.committed = self.fault_remap(backend, routing, now);
        }
        outcome
    }

    /// One forced planning cycle away from the down nodes. Bypasses
    /// warm-up (recovery cannot wait for observation history — forecast
    /// rates of down nodes are masked to zero, and the controller's
    /// dead-mapping bypass skips confirmation). Clears the pending flag
    /// only once the mapping in force excludes every down node.
    fn fault_remap<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
        now: SimTime,
    ) -> Option<RemapPlan> {
        let current = routing
            .read()
            .expect("routing lock poisoned")
            .mapping()
            .clone();
        let touches_down = |m: &Mapping| {
            m.placements()
                .iter()
                .any(|p| p.hosts().iter().any(|h| self.tracker.is_down(h.index())))
        };
        if !touches_down(&current) {
            self.fault_remap_pending = false;
            return None;
        }
        // Static policy never re-maps, faults included: the run honours
        // the paper's baseline semantics and starves (the session
        // surfaces no progress; the simulator truncates).
        self.policy.interval()?;
        let mut rates = self.controller.forecast_rates(&self.cfg.speeds);
        self.tracker.mask_rates(&mut rates);
        // Stranded items guarantee work remains even when the
        // remaining-items hint has run out — never let the amortisation
        // veto crash recovery.
        let remaining = self.total_items.saturating_sub(backend.completed()).max(1);
        let accepted = self.controller.consider(
            now,
            &self.cfg.profile,
            &self.cfg.topology,
            &rates,
            &current,
            remaining,
            &self.cfg.state_bytes,
        );
        let Plan {
            mapping: new_mapping,
            prediction,
            ..
        } = accepted?;
        self.expected_tput = prediction.throughput;
        // Never arm the regret guard on a recovery mapping: a revert
        // would re-adopt the mapping that includes the dead node.
        self.guard_prev = None;
        self.guard_bad = 0;
        if !touches_down(&new_mapping) {
            self.fault_remap_pending = false;
        }
        Some(self.apply(backend, routing, new_mapping, now))
    }

    /// One adaptation tick: fault transitions, regret guard, warm-up
    /// gating, policy rate selection, plan/decide, and — on acceptance —
    /// the routing-table swap plus backend commit. Returns the committed
    /// [`RemapPlan`], if any (guard reverts and fault-driven recovery
    /// re-maps also surface here).
    pub fn tick<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
    ) -> Option<RemapPlan> {
        let interval = self.policy.interval()?;
        let now = backend.now();
        let completed = backend.completed();

        // 0. Fault transitions due since the last look (and pending
        // recovery re-maps) are settled before anything else senses or
        // plans: the rest of the tick must see the post-fault world.
        let fault = self.poll_faults(backend, routing);
        if fault.fatal {
            return fault.committed;
        }

        // 1. Realized throughput over the elapsed tick: the one signal
        // immune to the forecast pathologies the guard exists for.
        self.ticks_seen += 1;
        let realized =
            completed.saturating_sub(self.last_tick_completed) as f64 / interval.as_secs_f64();
        self.last_tick_completed = completed;

        let paused = self.control.is_paused();
        if !self.hooks.events.is_idle() {
            self.hooks.events.emit(RunEvent::WindowStats {
                session: self.cfg.session,
                at: now,
                realized,
                expected: self.expected_tput,
                completed,
                paused,
            });
        }
        // Paused: sensing and window reporting continue (above), but
        // nothing may commit — not the planner, not the regret guard. A
        // pending force request stays pending until resumed.
        if paused {
            return None;
        }
        let forced = self.control.take_force_remap();

        let mut committed: Option<RemapPlan> = fault.committed;

        // A guard revert must never re-adopt a mapping that touches a
        // node now known to be down.
        if let Some((prev, _)) = &self.guard_prev {
            if prev
                .placements()
                .iter()
                .any(|p| p.hosts().iter().any(|h| self.tracker.is_down(h.index())))
            {
                self.guard_prev = None;
                self.guard_bad = 0;
            }
        }

        // 2. Regret guard: compare what the adopted mapping delivers
        // against what the model promised; on sustained shortfall revert
        // and hold planning down.
        let guard_ticks = self.controller.config().guard_bad_ticks;
        if guard_ticks > 0 {
            if let Some((prev, adopted_tick)) = self.guard_prev.clone() {
                // Skip the adoption tick itself: migration transients
                // depress throughput legitimately.
                if self.ticks_seen > adopted_tick + 1 && self.expected_tput > 0.0 {
                    if realized < self.controller.config().guard_tolerance * self.expected_tput {
                        self.guard_bad += 1;
                    } else {
                        self.guard_bad = 0;
                        // The mapping has proven itself: stop guarding it.
                        if self.ticks_seen > adopted_tick + 3 {
                            self.guard_prev = None;
                        }
                    }
                    if self.guard_bad >= guard_ticks {
                        let rates = self.controller.forecast_rates(&self.cfg.speeds);
                        self.expected_tput =
                            evaluate(&self.cfg.profile, &prev, &rates, &self.cfg.topology)
                                .throughput;
                        committed = Some(self.apply(backend, routing, prev, now));
                        self.guard_prev = None;
                        self.guard_bad = 0;
                        self.hold_until_tick =
                            self.ticks_seen + self.controller.config().guard_hold_ticks;
                    }
                }
            }
        }

        // 3. Policy-specific planning — but never before the warm-up
        // observation history exists, and not during a guard hold-down.
        // A forced tick (SessionControl::force_remap) bypasses the
        // warm-up gate, any hold-down, and the reactive trigger: the
        // caller asked for one planning cycle *now*.
        let warmed_up = self.ticks_seen > self.controller.config().warmup_ticks
            && self.ticks_seen >= self.hold_until_tick;
        let remaining = self.total_items.saturating_sub(completed);
        let rates: Option<Vec<f64>> = match self.policy {
            _ if forced => match self.policy {
                Policy::Oracle { .. } => Some(backend.oracle_rates(now, now + interval)),
                _ => Some(self.controller.forecast_rates(&self.cfg.speeds)),
            },
            _ if !warmed_up => None,
            Policy::Static => None,
            Policy::Periodic { .. } => Some(self.controller.forecast_rates(&self.cfg.speeds)),
            Policy::Reactive { degradation, .. } => {
                if realized < degradation * self.expected_tput {
                    Some(self.controller.forecast_rates(&self.cfg.speeds))
                } else {
                    None
                }
            }
            Policy::Oracle { .. } => Some(backend.oracle_rates(now, now + interval)),
        };
        // No planning path may map work onto a node known to be down,
        // even before the forecast catches up with the failure.
        let rates = rates.map(|mut r| {
            self.tracker.mask_rates(&mut r);
            r
        });

        if let Some(rates) = rates {
            let current = routing
                .read()
                .expect("routing lock poisoned")
                .mapping()
                .clone();
            let accepted = self.controller.consider(
                now,
                &self.cfg.profile,
                &self.cfg.topology,
                &rates,
                &current,
                remaining,
                &self.cfg.state_bytes,
            );
            if let Some(Plan {
                mapping: new_mapping,
                prediction,
                ..
            }) = accepted
            {
                self.expected_tput = prediction.throughput;
                self.guard_prev = Some((current, self.ticks_seen));
                self.guard_bad = 0;
                committed = Some(self.apply(backend, routing, new_mapping, now));
            }
        }
        committed
    }

    /// Swaps `new` into the routing table and hands the priced plan to
    /// the backend for physical commit.
    fn apply<B: ExecutionBackend>(
        &mut self,
        backend: &mut B,
        routing: &RwLock<RoutingTable>,
        new: Mapping,
        now: SimTime,
    ) -> RemapPlan {
        let mut table = routing.write().expect("routing lock poisoned");
        let from = table.mapping().clone();
        let migration_cost =
            self.controller
                .migration_cost(&from, &new, &self.cfg.state_bytes, &self.cfg.topology);
        self.count_migrations(&from, &new);
        let moved = table.install(new.clone());
        drop(table);
        let plan = RemapPlan {
            from,
            to: new,
            moved,
            migration_cost,
            at: now,
            ready_at: now + migration_cost,
        };
        backend.commit_remap(&plan);
        if let Some(hook) = &self.hooks.on_remap {
            hook(&plan);
        }
        if !self.hooks.events.is_idle() {
            self.hooks.events.emit(RunEvent::Remap {
                session: self.cfg.session,
                plan: plan.clone(),
            });
        }
        plan
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

    /// Total state migrations and bytes shipped so far — backends read
    /// this at teardown and settle it into the report via
    /// [`crate::report::ReportBuilder::set_migrations`].
    pub fn migration_totals(&self) -> (u64, u64) {
        (self.migrations, self.state_bytes_moved)
    }

    /// The wrapped controller (diagnostics).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Adaptation ticks seen so far.
    pub fn ticks_seen(&self) -> u32 {
        self.ticks_seen
    }

    /// Consumes the loop, returning the accepted re-mapping events and
    /// the number of planning cycles run — the report's adaptation
    /// fields, assembled identically for every backend.
    pub fn finish(self) -> (Vec<AdaptationEvent>, u64) {
        let cycles = self.controller.plans_evaluated();
        (self.controller.into_events(), cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use adapipe_gridsim::net::LinkSpec;
    use adapipe_gridsim::node::NodeId;

    /// A minimal in-memory backend: constant availability per node,
    /// scripted completion counter, records committed plans.
    struct TestBackend {
        avail: Vec<f64>,
        now: SimTime,
        completed: u64,
        commits: Vec<RemapPlan>,
    }

    impl ExecutionBackend for TestBackend {
        fn node_count(&self) -> usize {
            self.avail.len()
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn mean_availability(&self, node: usize, _from: SimTime, _to: SimTime) -> f64 {
            self.avail[node]
        }
        fn completed(&self) -> u64 {
            self.completed
        }
        fn oracle_rates(&self, _from: SimTime, _to: SimTime) -> Vec<f64> {
            self.avail.clone()
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

    #[test]
    fn static_policy_never_ticks() {
        let (rig, mapping) = rig(Policy::Static, 3);
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping));
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(10.0),
            completed: 5,
            commits: vec![],
        };
        assert!(aloop.interval().is_none());
        assert!(aloop.sample_dt().is_none());
        assert!(aloop.tick(&mut backend, &routing).is_none());
        let (events, cycles) = aloop.finish();
        assert!(events.is_empty());
        assert_eq!(cycles, 0);
    }

    #[test]
    fn periodic_remaps_off_collapsed_node_after_warmup() {
        let (rig, mapping) = rig(Policy::periodic_default(), 3);
        let warmup = rig.run.controller.warmup_ticks;
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping.clone()));
        let mut backend = TestBackend {
            avail: vec![1.0, 0.05, 1.0], // node 1 collapsed
            now: SimTime::ZERO,
            completed: 0,
            commits: vec![],
        };
        let mut committed = None;
        for k in 0..warmup + 4 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            aloop.sample(&backend);
            if let Some(plan) = aloop.tick(&mut backend, &routing) {
                assert!(k >= warmup, "acted during warm-up at tick {k}");
                committed = Some(plan);
                break;
            }
        }
        let plan = committed.expect("collapsed node must force a re-map");
        assert!(!plan.moved.is_empty());
        assert_eq!(backend.commits.len(), 1);
        // The routing table now points at the new mapping.
        let table = routing.read().unwrap();
        assert_eq!(table.mapping(), &plan.to);
        assert_ne!(table.mapping(), &mapping);
        let (events, cycles) = aloop.finish();
        assert_eq!(events.len(), 1);
        assert!(cycles >= 1);
    }

    #[test]
    fn remap_hook_fires_on_commit() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        let fired = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&fired);
        rig.run.hooks = RunHooks::on_remap(move |plan| {
            assert!(!plan.moved.is_empty());
            seen.fetch_add(1, Ordering::SeqCst);
        });
        let warmup = rig.run.controller.warmup_ticks;
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping));
        let mut backend = TestBackend {
            avail: vec![1.0, 0.05, 1.0],
            now: SimTime::ZERO,
            completed: 0,
            commits: vec![],
        };
        for k in 0..warmup + 4 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            aloop.sample(&backend);
            if aloop.tick(&mut backend, &routing).is_some() {
                break;
            }
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook must fire once");
    }

    #[test]
    fn paused_loop_senses_but_never_commits() {
        let (mut rig, mapping) = rig(Policy::periodic_default(), 3);
        let control = SessionControl::new();
        rig.run.control = control.clone();
        let events = rig.run.hooks.events.subscribe();
        let warmup = rig.run.controller.warmup_ticks;
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping.clone()));
        let mut backend = TestBackend {
            avail: vec![1.0, 0.05, 1.0], // would force a re-map if live
            now: SimTime::ZERO,
            completed: 0,
            commits: vec![],
        };
        control.pause_adaptation();
        for k in 0..warmup + 4 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            aloop.sample(&backend);
            assert!(
                aloop.tick(&mut backend, &routing).is_none(),
                "paused loop committed at tick {k}"
            );
        }
        assert_eq!(routing.read().unwrap().mapping(), &mapping);
        // Window statistics kept flowing while paused.
        let stats: Vec<_> = events.try_iter().collect();
        assert_eq!(stats.len() as u32, warmup + 4);
        assert!(stats
            .iter()
            .all(|e| matches!(e, RunEvent::WindowStats { paused: true, .. })));
        // Resuming lets the collapsed node force the usual re-map.
        control.resume_adaptation();
        let mut committed = false;
        for k in 0..4 {
            backend.now += SimDuration::from_secs(5);
            aloop.sample(&backend);
            if aloop.tick(&mut backend, &routing).is_some() {
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
        let events = rig.run.hooks.events.subscribe();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping));
        let mut backend = TestBackend {
            avail: vec![1.0, 0.05, 1.0],
            now: SimTime::ZERO,
            completed: 0,
            commits: vec![],
        };
        // One observation, then a forced tick *inside* the warm-up
        // window: it must plan (and here commit) anyway.
        backend.now = SimTime::from_secs_f64(5.0);
        aloop.sample(&backend);
        control.force_remap();
        let plan = aloop
            .tick(&mut backend, &routing)
            .expect("forced tick must plan");
        assert!(!plan.moved.is_empty());
        let remaps: Vec<_> = events
            .try_iter()
            .filter(|e| matches!(e, RunEvent::Remap { .. }))
            .collect();
        assert_eq!(remaps.len(), 1, "Remap event mirrors the commit");
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
        let mut backend = TestBackend {
            avail: vec![1.0, 0.05, 1.0],
            now: SimTime::ZERO,
            completed: 0,
            commits: vec![],
        };
        // Healthy throughput (≥ expected 1 item/s × 5 s per tick): the
        // forecast sees a collapsed node, but reactive never even plans.
        for k in 0..8u64 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            backend.completed = (k + 1) * 5;
            aloop.sample(&backend);
            assert!(aloop.tick(&mut backend, &routing).is_none());
        }
        let cycles_before = aloop.controller().plans_evaluated();
        assert_eq!(cycles_before, 0, "healthy reactive run must not plan");
        // Throughput collapses: now it must plan and re-map.
        let mut remapped = false;
        for k in 8..12u64 {
            backend.now = SimTime::from_secs_f64((k + 1) as f64 * 5.0);
            aloop.sample(&backend);
            if aloop.tick(&mut backend, &routing).is_some() {
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
        let events = rig.run.hooks.events.subscribe();
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::with_selection(
            mapping.clone(),
            crate::routing::Selection::RoundRobin,
            3,
        ));
        let mut backend = TestBackend {
            avail: vec![1.0; 3], // the forecast has not seen the crash
            now: SimTime::from_secs_f64(2.5),
            completed: 0,
            commits: vec![],
        };
        assert_eq!(aloop.next_fault_at(), Some(SimTime::from_secs_f64(2.0)));
        // Well inside warm-up, no samples at all: recovery still plans
        // and commits immediately.
        let outcome = aloop.poll_faults(&mut backend, &routing);
        assert!(!outcome.fatal);
        let plan = outcome.committed.expect("crash must force a re-map");
        assert!(
            !plan.to.nodes_used().contains(&n(1)),
            "recovery mapping still uses the dead node: {}",
            plan.to
        );
        assert!(aloop.is_node_down(1));
        assert!(routing.read().unwrap().is_down(n(1)));
        assert_eq!(control.error(), None);
        let kinds: Vec<_> = events.try_iter().collect();
        assert!(kinds
            .iter()
            .any(|e| matches!(e, RunEvent::NodeDown { node: 1, .. })));
        assert!(kinds.iter().any(|e| matches!(e, RunEvent::Remap { .. })));
        // Idempotent: polling again does nothing further.
        let again = aloop.poll_faults(&mut backend, &routing);
        assert!(again.committed.is_none() && !again.fatal);
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
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(1.5),
            commits: vec![],
            completed: 0,
        };
        let _ = aloop.poll_faults(&mut backend, &routing);
        assert!(routing.read().unwrap().is_down(n(2)));
        backend.now = SimTime::from_secs_f64(4.5);
        let _ = aloop.poll_faults(&mut backend, &routing);
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
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(1.5),
            commits: vec![],
            completed: 0,
        };
        let outcome = aloop.poll_faults(&mut backend, &routing);
        assert!(outcome.fatal);
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
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(1.5),
            commits: vec![],
            completed: 0,
        };
        let outcome = aloop.poll_faults(&mut backend, &routing);
        assert!(!outcome.fatal, "declared state must migrate, not abort");
        assert_eq!(control.error(), None);
        let plan = outcome.committed.expect("crash must force a re-map");
        assert!(!plan.to.nodes_used().contains(&n(1)));
        let (migrations, bytes) = aloop.migration_totals();
        assert!(migrations > 0, "shard moves must be counted");
        assert!(bytes > 0, "moved shards carry their bytes");
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
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(1.5),
            commits: vec![],
            completed: 0,
        };
        let outcome = aloop.poll_faults(&mut backend, &routing);
        assert!(!outcome.fatal);
        assert_eq!(control.error(), None);
        assert!(outcome.committed.is_some());
        let (migrations, bytes) = aloop.migration_totals();
        assert_eq!(migrations, 1, "exclusive state moves as one unit");
        assert_eq!(bytes, 1000);
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
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(1.5),
            commits: vec![],
            completed: 0,
        };
        let outcome = aloop.poll_faults(&mut backend, &routing);
        assert!(!outcome.fatal, "a finite outage must not be fatal");
        assert!(!aloop.is_fatal());
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
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(2.0),
            commits: vec![],
            completed: 0,
        };
        assert!(aloop.poll_faults(&mut backend, &routing).fatal);
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
        let mut backend = TestBackend {
            avail: vec![1.0; 3],
            now: SimTime::from_secs_f64(1.5),
            commits: vec![],
            completed: 0,
        };
        let outcome = aloop.poll_faults(&mut backend, &routing);
        assert!(outcome.committed.is_none(), "static must not re-map");
        assert!(routing.read().unwrap().is_down(n(1)));
        assert_eq!(routing.read().unwrap().mapping(), &mapping);
        // A permanent loss of a hosting node can never complete under
        // static: surfaced as the typed fatal error.
        assert!(outcome.fatal);
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
        let guard_hold = rig.run.controller.guard_hold_ticks;
        let mut aloop = rig.launch();
        let routing = RwLock::new(RoutingTable::new(mapping.clone()));
        let mut backend = TestBackend {
            avail: vec![1.0, 0.05, 1.0],
            now: SimTime::ZERO,
            completed: 0,
            commits: vec![],
        };
        // Drive until the forecast-led re-map happens…
        let mut tick = 0u64;
        loop {
            tick += 1;
            backend.now = SimTime::from_secs_f64(tick as f64 * 5.0);
            aloop.sample(&backend);
            if aloop.tick(&mut backend, &routing).is_some() {
                break;
            }
            assert!(tick < 20, "no initial re-map");
        }
        let adopted = routing.read().unwrap().mapping().clone();
        // …then starve realized throughput (completed never moves): the
        // guard must revert to the original mapping within a few ticks.
        let mut reverted = None;
        for _ in 0..4 {
            tick += 1;
            backend.now = SimTime::from_secs_f64(tick as f64 * 5.0);
            aloop.sample(&backend);
            if let Some(plan) = aloop.tick(&mut backend, &routing) {
                reverted = Some(plan);
                break;
            }
        }
        let plan = reverted.expect("guard must revert");
        assert_eq!(plan.from, adopted);
        assert_eq!(plan.to, mapping, "revert restores the guarded mapping");
        // Planning is held down afterwards.
        let held_until = aloop.ticks_seen() + guard_hold;
        for _ in aloop.ticks_seen()..held_until.saturating_sub(1) {
            tick += 1;
            backend.now = SimTime::from_secs_f64(tick as f64 * 5.0);
            aloop.sample(&backend);
            assert!(
                aloop.tick(&mut backend, &routing).is_none(),
                "hold-down violated"
            );
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
}
