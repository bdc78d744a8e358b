//! The adaptation controller: monitor → plan → decide.
//!
//! Both execution engines (simulated and threaded) delegate the same
//! three-step cycle to [`Controller`]:
//!
//! 1. **Monitor** — per-node availability observations feed an NWS-style
//!    forecaster bank;
//! 2. **Plan** — the mapper searches for the best mapping under the
//!    forecast effective rates, unless the current mapping is already
//!    within the hysteresis threshold of the throughput ceiling, which
//!    no mapping exceeds (a certified keep, no search);
//! 3. **Decide** — hysteresis and cost/benefit rules accept or reject the
//!    candidate, pricing migration as state transfer plus a fixed drain
//!    overhead, and debounce acceptance over `confirm_ticks` cycles.
//!
//! [`Controller::consider`] returns the cycle's [`Verdict`] — a keep
//! with its reason, a pending confirmation, or a re-map — and keeps no
//! log of its own: the [`crate::adapt::AdaptationLoop`] applies a
//! re-map and records it.

use crate::adapt::Verdict;
use adapipe_gridsim::net::Topology;
use adapipe_gridsim::time::SimDuration;
use adapipe_mapper::decide::{certified_keep, should_remap, Decision, DecisionConfig, KeepReason};
use adapipe_mapper::mapping::Mapping;
use adapipe_mapper::model::{evaluate, PipelineProfile};
use adapipe_mapper::search::{plan, PlannerConfig};
use adapipe_monitor::sensor::{ForecasterKind, MetricBank};

/// Controller tunables.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Mapping search configuration.
    pub planner: PlannerConfig,
    /// Re-mapping hysteresis configuration.
    pub decision: DecisionConfig,
    /// Observations retained per node forecaster.
    pub monitor_window: usize,
    /// Which predictor family the availability bank uses (ablation knob;
    /// the default NWS ensemble is what the pattern prescribes).
    pub forecaster: ForecasterKind,
    /// Fixed cost charged per re-mapping on top of state transfer
    /// (pipeline drain, coordination).
    pub remap_overhead: SimDuration,
    /// Monitoring ticks to observe before the first re-mapping decision.
    /// A cold forecaster extrapolates wildly from one aliased sample; in
    /// deployment the grid information service supplies history, and a
    /// fresh run must accumulate a minimum of its own.
    pub warmup_ticks: u32,
    /// Consecutive ticks the "re-map" verdict must repeat before the
    /// controller acts (decision debouncing). A dead current mapping
    /// (zero predicted throughput) bypasses confirmation: crash recovery
    /// cannot wait.
    ///
    /// Default **1** (act on the first verdict): measured across
    /// square-wave load periods (see ablation A2 and the
    /// `adaptation_stability` suite), the verdict-lag a confirmation adds
    /// turns profitable load-chasing into anti-phase churn, losing more
    /// than the flapping it prevents — the regret guard plus hysteresis
    /// bound the flapping damage at far lower cost. Raise this only when
    /// migrations are so expensive that any churn is intolerable.
    pub confirm_ticks: u32,
    /// Regret guard: when a re-mapping's *realized* throughput stays
    /// below `GUARD_TOLERANCE` (0.6) × its predicted throughput for
    /// this many consecutive ticks, the loop reverts to the previous
    /// mapping and suppresses planning for `GUARD_HOLD_TICKS` (8) ticks
    /// (0 disables the guard). Forecast-driven decisions can be fooled
    /// by loads the predictor family cannot represent (e.g. oscillation
    /// phase-locked to the control period); measured throughput cannot.
    pub guard_bad_ticks: u32,
}

/// Availability windows per adaptation interval: the monitor observes
/// at a finer grain than the planner acts, as NWS sensors do, and the
/// adaptation loop reads every window that ended before each forecast.
/// Finer sensing shortens the staleness of the data behind each
/// decision, which is what makes tracking oscillating load profitable
/// at all.
pub(crate) const SAMPLES_PER_INTERVAL: u32 = 4;

/// The regret guard counts a tick as under-delivering when realized
/// throughput falls below this fraction of the adopted mapping's
/// prediction.
pub(crate) const GUARD_TOLERANCE: f64 = 0.6;

/// Ticks of planning hold-down after a regret-guard revert.
pub(crate) const GUARD_HOLD_TICKS: u32 = 8;

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            planner: PlannerConfig::default(),
            decision: DecisionConfig::default(),
            monitor_window: 16,
            forecaster: ForecasterKind::default(),
            remap_overhead: SimDuration::from_millis(100),
            warmup_ticks: 2,
            confirm_ticks: 1,
            guard_bad_ticks: 2,
        }
    }
}

/// The adaptation brain shared by all engines.
pub struct Controller {
    cfg: ControllerConfig,
    /// One availability forecaster per node.
    bank: MetricBank,
    plans_evaluated: u64,
    /// Planning cycles that ran the search (not certified keeps).
    searches: u64,
    /// Consecutive ticks whose verdict was "re-map".
    remap_votes: u32,
}

impl Controller {
    /// Creates a controller monitoring `np` nodes.
    pub fn new(np: usize, cfg: ControllerConfig) -> Self {
        let bank = MetricBank::with_kind(np, cfg.monitor_window, cfg.forecaster);
        Controller {
            cfg,
            bank,
            plans_evaluated: 0,
            searches: 0,
            remap_votes: 0,
        }
    }

    /// Feeds one availability observation for node `node_idx` at time
    /// `t` (seconds).
    pub fn observe_availability(&mut self, node_idx: usize, t: f64, availability: f64) {
        self.bank.observe(node_idx, t, availability.clamp(0.0, 1.0));
    }

    /// Forecast effective rates: nominal speed × predicted availability
    /// (1.0 for never-observed nodes — optimistic, matching a fresh grid
    /// information service).
    pub(crate) fn forecast_rates(&self, speeds: &[f64]) -> Vec<f64> {
        speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| s * self.bank.predict_or(i, 1.0).clamp(0.0, 1.0))
            .collect()
    }

    /// Estimated migration cost from `from` to `to`: per moved stage,
    /// state transfer between the old and new primary hosts, plus one
    /// fixed drain overhead if anything moves at all.
    pub fn migration_cost(
        &self,
        from: &Mapping,
        to: &Mapping,
        state_bytes: &[u64],
        topology: &Topology,
    ) -> SimDuration {
        let moved = from.diff(to);
        if moved.is_empty() {
            return SimDuration::ZERO;
        }
        let mut cost = self.cfg.remap_overhead;
        for &s in &moved {
            let bytes = state_bytes[s];
            if bytes > 0 {
                let src = from.placement(s).primary();
                let dst = to.placement(s).primary();
                if src != dst {
                    cost = cost.saturating_add(topology.transfer_time(src, dst, bytes));
                }
            }
        }
        cost
    }

    /// One full adaptation cycle: the current mapping kept (with the
    /// reason), a re-map verdict still short of `confirm_ticks`
    /// consecutive votes, or a confirmed re-map carrying the new mapping,
    /// the model's throughput for it under `rates`, the predicted
    /// speedup and the migration cost.
    pub fn consider(
        &mut self,
        profile: &PipelineProfile,
        topology: &Topology,
        rates: &[f64],
        current: &Mapping,
        remaining_items: u64,
        state_bytes: &[u64],
    ) -> Verdict {
        self.plans_evaluated += 1;
        // Re-map votes survive only a cycle that votes again: a keep of
        // any kind clears them, so flapping forecasts never accumulate a
        // confirmation, and an acted-on vote starts the count afresh.
        let votes = std::mem::take(&mut self.remap_votes) + 1;
        let current_pred = evaluate(profile, current, rates, topology);
        if certified_keep(
            profile,
            rates,
            &current_pred,
            remaining_items,
            &self.cfg.decision,
        ) {
            // The verdict is a keep whatever the search would return.
            return Verdict::Keep(KeepReason::Certified);
        }
        self.searches += 1;
        let candidate = plan(profile, rates, topology, &self.cfg.planner);
        if candidate.mapping == *current {
            return Verdict::Keep(KeepReason::NoImprovement);
        }
        let migration = self.migration_cost(current, &candidate.mapping, state_bytes, topology);
        let decision = should_remap(
            &current_pred,
            &candidate.prediction,
            remaining_items,
            migration.as_secs_f64(),
            &self.cfg.decision,
        );
        let speedup = match decision {
            Decision::Keep { reason } => return Verdict::Keep(reason),
            Decision::Remap { speedup, .. } => speedup,
        };
        // Debounce: act only on a confirmed verdict, unless the current
        // mapping is dead (crash recovery is immediate).
        let dead_current = current_pred.throughput <= 0.0;
        if !dead_current && votes < self.cfg.confirm_ticks {
            self.remap_votes = votes;
            return Verdict::Confirming { votes };
        }
        Verdict::Remap {
            to: candidate.mapping,
            throughput: candidate.prediction.throughput,
            speedup,
            migration_cost: migration,
        }
    }

    /// How many planning cycles ran (accepted or not) — adaptation
    /// overhead accounting for table T3.
    pub(crate) fn plans_evaluated(&self) -> u64 {
        self.plans_evaluated
    }

    /// How many of those cycles ran the mapping search: the rest were
    /// keeps [`certified_keep`] proved without one.
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_gridsim::net::LinkSpec;
    use adapipe_gridsim::node::NodeId;
    use adapipe_mapper::decide::throughput_ceiling;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    fn topo(np: usize) -> Topology {
        Topology::uniform(np, LinkSpec::lan())
    }

    fn profile3() -> PipelineProfile {
        PipelineProfile::uniform(vec![1.0, 1.0, 1.0], 1000)
    }

    #[test]
    fn forecast_defaults_to_full_availability() {
        let c = Controller::new(2, ControllerConfig::default());
        assert_eq!(c.forecast_rates(&[2.0, 3.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn forecast_tracks_observations() {
        let mut c = Controller::new(2, ControllerConfig::default());
        for i in 0..20 {
            c.observe_availability(1, i as f64, 0.25);
        }
        let rates = c.forecast_rates(&[2.0, 2.0]);
        assert_eq!(rates[0], 2.0);
        assert!((rates[1] - 0.5).abs() < 0.05, "rates[1]={}", rates[1]);
    }

    #[test]
    fn consider_moves_off_degraded_node_after_confirmation() {
        let cfg = ControllerConfig {
            confirm_ticks: 2,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(3, cfg);
        // Node 0 collapses to 5 % availability.
        for i in 0..20 {
            c.observe_availability(0, i as f64, 0.05);
        }
        let profile = profile3();
        let current = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let rates = c.forecast_rates(&[1.0, 1.0, 1.0]);
        let state = [0u64, 0, 0];
        let consider =
            |c: &mut Controller| c.consider(&profile, &topo(3), &rates, &current, 10_000, &state);
        // First verdict is only a vote (confirm_ticks = 2 here).
        assert_eq!(
            consider(&mut c),
            Verdict::Confirming { votes: 1 },
            "first vote must not act"
        );
        let Verdict::Remap {
            to: new,
            throughput,
            speedup,
            ..
        } = consider(&mut c)
        else {
            panic!("second consecutive vote acts");
        };
        // The verdict carries the model's prediction for the accepted
        // mapping, so the runtime need not evaluate it again.
        assert_eq!(
            throughput,
            evaluate(&profile, &new, &rates, &topo(3)).throughput
        );
        assert!(
            !new.placements()
                .iter()
                .any(|p| p.contains(n(0)) && p.is_single()),
            "stage still pinned to degraded node: {new}"
        );
        assert!(speedup > 1.1);
    }

    #[test]
    fn dead_mapping_bypasses_confirmation() {
        let mut c = Controller::new(2, ControllerConfig::default());
        let profile = PipelineProfile::uniform(vec![1.0], 0);
        let current = Mapping::from_assignment(&[n(0)]);
        // Node 0 is fully dead: the current mapping predicts zero
        // throughput, so the very first verdict must act.
        let rates = [0.0, 1.0];
        let verdict = c.consider(&profile, &topo(2), &rates, &current, 100, &[0]);
        assert!(
            matches!(verdict, Verdict::Remap { .. }),
            "crash recovery must not wait for confirmation: {verdict:?}"
        );
    }

    #[test]
    fn alternating_verdicts_never_confirm() {
        let cfg = ControllerConfig {
            confirm_ticks: 2,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(3, cfg);
        let profile = profile3();
        let current = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let state = [0u64, 0, 0];
        // Alternate between "node 0 degraded" and "all fine" forecasts:
        // the remap vote resets every other tick and never confirms.
        for k in 0..10 {
            let rates = if k % 2 == 0 {
                [0.05, 1.0, 1.0]
            } else {
                [1.0, 1.0, 1.0]
            };
            let out = c.consider(&profile, &topo(3), &rates, &current, 10_000, &state);
            assert!(
                matches!(out, Verdict::Keep(_) | Verdict::Confirming { votes: 1 }),
                "flapping forecast must never trigger a re-map: {out:?}"
            );
        }
    }

    #[test]
    fn consider_keeps_good_mapping() {
        let mut c = Controller::new(3, ControllerConfig::default());
        let profile = profile3();
        let current = Mapping::from_assignment(&[n(0), n(1), n(2)]);
        let rates = [1.0, 1.0, 1.0];
        let out = c.consider(&profile, &topo(3), &rates, &current, 10_000, &[0, 0, 0]);
        assert!(
            matches!(out, Verdict::Keep(_)),
            "balanced mapping must be kept: {out:?}"
        );
        assert_eq!(c.plans_evaluated(), 1);
    }

    #[test]
    fn a_keep_near_the_throughput_ceiling_skips_the_search() {
        // Four unit stages one per node, no data: throughput 1.0.
        let profile = PipelineProfile::uniform(vec![1.0; 4], 0);
        let current = Mapping::from_assignment(&[n(0), n(1), n(2), n(3)]);
        let mut c = Controller::new(5, ControllerConfig::default());
        let consider = |c: &mut Controller, rates: &[f64]| {
            let topo = topo(rates.len());
            let out = c.consider(&profile, &topo, rates, &current, 10_000, &[0; 4]);
            assert!(
                matches!(out, Verdict::Keep(_)),
                "no mapping beats 1.0 by 10 %: {out:?}"
            );
            evaluate(&profile, &current, rates, &topo).throughput
                / throughput_ceiling(&profile, rates)
        };
        // Four unit nodes: the ceiling is 1.0, the current mapping is on
        // it, so the cycle keeps without a search — and says so.
        assert_eq!(consider(&mut c, &[1.0; 4]), 1.0);
        assert_eq!(
            c.consider(&profile, &topo(4), &[1.0; 4], &current, 10_000, &[0; 4]),
            Verdict::Keep(KeepReason::Certified)
        );
        assert_eq!((c.plans_evaluated(), c.searches()), (2, 0));
        // A fifth node lifts the ceiling to 1.25: at 80 % of it, a 10 %
        // better mapping might exist, so the cycle searches.
        assert_eq!(consider(&mut c, &[1.0; 5]), 0.8);
        assert_eq!((c.plans_evaluated(), c.searches()), (3, 1));
    }

    #[test]
    fn migration_cost_counts_state_transfer() {
        let c = Controller::new(2, ControllerConfig::default());
        let from = Mapping::from_assignment(&[n(0), n(0)]);
        let to = Mapping::from_assignment(&[n(0), n(1)]);
        // Stage 1 moves with 1 MB of state over a LAN link.
        let cost = c.migration_cost(&from, &to, &[0, 1 << 20], &topo(2));
        let floor = c.config().remap_overhead;
        assert!(cost > floor, "cost {cost} should exceed the fixed overhead");
        // No move → no cost at all.
        assert_eq!(
            c.migration_cost(&from, &from, &[0, 0], &topo(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn stateless_migration_costs_only_overhead() {
        let c = Controller::new(2, ControllerConfig::default());
        let from = Mapping::from_assignment(&[n(0)]);
        let to = Mapping::from_assignment(&[n(1)]);
        let cost = c.migration_cost(&from, &to, &[0], &topo(2));
        assert_eq!(cost, c.config().remap_overhead);
    }

    #[test]
    fn exhausted_stream_never_remaps() {
        let mut c = Controller::new(2, ControllerConfig::default());
        for i in 0..20 {
            c.observe_availability(0, i as f64, 0.01);
        }
        let profile = PipelineProfile::uniform(vec![1.0], 0);
        let current = Mapping::from_assignment(&[n(0)]);
        let rates = c.forecast_rates(&[1.0, 1.0]);
        let out = c.consider(&profile, &topo(2), &rates, &current, 0, &[0]);
        assert_eq!(out, Verdict::Keep(KeepReason::Certified));
    }
}
