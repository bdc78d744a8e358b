//! Node-health tracking derived from a fault plan.
//!
//! The physics of a fault (degraded availability, zeroed windows) is
//! applied by each backend to its own load schedules before the run
//! starts. What remains backend-*independent* is the control plane: at
//! which instants does a node go **down** (outage start, crash) or come
//! back **up** (outage end), which nodes are down right now, and what
//! the adaptation loop must do about it — exclude them from routing,
//! force a committed re-map away from them, and have the backend replay
//! the items that were stranded. `FaultTracker` is that control
//! plane's state machine, consumed by `AdaptationLoop::poll_faults`.

use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::SimTime;

/// One node-health transition derived from a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultTransition {
    /// The node becomes unusable at `at` (outage start or crash).
    Down {
        /// The affected node.
        node: NodeId,
        /// The scheduled instant of the transition.
        at: SimTime,
    },
    /// The node recovers at `at` (outage end). Crashes never emit this.
    Up {
        /// The recovered node.
        node: NodeId,
        /// The scheduled instant of the transition.
        at: SimTime,
    },
}

impl FaultTransition {
    /// The scheduled instant of the transition.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultTransition::Down { at, .. } | FaultTransition::Up { at, .. } => at,
        }
    }
}

/// Replays a [`FaultPlan`]'s down/up transitions against a backend
/// clock, tracking which nodes are currently down.
///
/// Transitions are precomputed at construction from the plan's merged
/// per-node down intervals, so overlapping outages collapse into one
/// down/up pair and a crash inside an outage never emits a spurious
/// recovery.
#[derive(Debug)]
pub(crate) struct FaultTracker {
    /// All transitions, sorted by time (ties: `Up` before `Down` so a
    /// back-to-back outage pair settles down at the boundary instant).
    transitions: Vec<FaultTransition>,
    next: usize,
    down: Vec<bool>,
}

impl FaultTracker {
    /// Builds the tracker for a run over `node_count` nodes.
    pub fn new(plan: &FaultPlan, node_count: usize) -> Self {
        let far = adapipe_gridsim::fault::FOREVER;
        let mut transitions = Vec::new();
        for i in 0..node_count {
            let node = NodeId(i);
            for (from, to) in plan.down_intervals(node) {
                transitions.push(FaultTransition::Down { node, at: from });
                if to < far {
                    transitions.push(FaultTransition::Up { node, at: to });
                }
            }
        }
        transitions.sort_by_key(|t| (t.at(), matches!(t, FaultTransition::Down { .. })));
        FaultTracker {
            transitions,
            next: 0,
            down: vec![false; node_count],
        }
    }

    /// The instant of the next unprocessed transition, if any — backends
    /// that sleep on a wall clock use this to wake exactly when a fault
    /// is due.
    pub(crate) fn next_transition_at(&self) -> Option<SimTime> {
        self.transitions.get(self.next).map(|t| t.at())
    }

    /// Consumes and returns every transition due at or before `now`,
    /// updating the down set.
    pub fn poll(&mut self, now: SimTime) -> Vec<FaultTransition> {
        let mut due = Vec::new();
        while let Some(&t) = self.transitions.get(self.next) {
            if t.at() > now {
                break;
            }
            self.next += 1;
            match t {
                FaultTransition::Down { node, .. } => self.down[node.index()] = true,
                FaultTransition::Up { node, .. } => self.down[node.index()] = false,
            }
            due.push(t);
        }
        due
    }

    /// True if `node` is currently down (per the transitions processed
    /// so far).
    pub fn is_down(&self, node: usize) -> bool {
        self.down.get(node).copied().unwrap_or(false)
    }

    /// True once every node is down — no placement can make progress.
    pub(crate) fn all_down(&self) -> bool {
        !self.down.is_empty() && self.down.iter().all(|&d| d)
    }

    /// True if `node` is down with no recovery ever scheduled (a crash,
    /// or an outage merged into one).
    pub(crate) fn is_permanently_down(&self, node: usize) -> bool {
        self.is_down(node)
            && !self.transitions[self.next..]
                .iter()
                .any(|t| matches!(t, FaultTransition::Up { node: n, .. } if n.index() == node))
    }

    /// Zeroes the entries of `rates` belonging to down nodes, so no
    /// planning path — periodic, reactive, forced, or fault-driven —
    /// can map work back onto a node known to be dead.
    pub(crate) fn mask_rates(&self, rates: &mut [f64]) {
        for (i, r) in rates.iter_mut().enumerate() {
            if self.is_down(i) {
                *r = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_plan_never_fires() {
        let mut t = FaultTracker::new(&FaultPlan::new(), 3);
        assert_eq!(t.next_transition_at(), None);
        assert!(t.poll(secs(1e9)).is_empty());
        assert!(!t.is_down(0));
        assert!(!t.all_down());
    }

    #[test]
    fn outage_emits_down_then_up() {
        let plan = FaultPlan::new().outage(n(1), secs(10.0), secs(20.0));
        let mut t = FaultTracker::new(&plan, 3);
        assert_eq!(t.next_transition_at(), Some(secs(10.0)));
        assert!(t.poll(secs(5.0)).is_empty());
        let due = t.poll(secs(10.0));
        assert_eq!(
            due,
            vec![FaultTransition::Down {
                node: n(1),
                at: secs(10.0)
            }]
        );
        assert!(t.is_down(1));
        let due = t.poll(secs(25.0));
        assert_eq!(
            due,
            vec![FaultTransition::Up {
                node: n(1),
                at: secs(20.0)
            }]
        );
        assert!(!t.is_down(1));
        assert_eq!(t.next_transition_at(), None);
    }

    #[test]
    fn crash_never_recovers() {
        let plan = FaultPlan::new().crash(n(0), secs(30.0));
        let mut t = FaultTracker::new(&plan, 2);
        let due = t.poll(secs(1e12));
        assert_eq!(due.len(), 1, "a crash emits Down only: {due:?}");
        assert!(t.is_down(0));
        assert_eq!(t.next_transition_at(), None);
    }

    #[test]
    fn overlapping_faults_merge_into_one_down_window() {
        // Outage [10, 20) with a crash at 15 inside it: one Down at 10,
        // no Up ever.
        let plan = FaultPlan::new()
            .outage(n(0), secs(10.0), secs(20.0))
            .crash(n(0), secs(15.0));
        let mut t = FaultTracker::new(&plan, 1);
        let due = t.poll(secs(1e12));
        assert_eq!(
            due,
            vec![FaultTransition::Down {
                node: n(0),
                at: secs(10.0)
            }]
        );
        assert!(t.all_down());
    }

    #[test]
    fn slowdowns_do_not_count_as_down() {
        let plan = FaultPlan::new().slowdown(n(0), secs(0.0), secs(100.0), 0.1);
        let mut t = FaultTracker::new(&plan, 2);
        assert!(t.poll(secs(50.0)).is_empty());
        assert!(!t.is_down(0));
    }

    #[test]
    fn mask_rates_zeroes_down_nodes_only() {
        let plan = FaultPlan::new().crash(n(1), secs(1.0));
        let mut t = FaultTracker::new(&plan, 3);
        t.poll(secs(2.0));
        let mut rates = vec![1.0, 0.8, 0.5];
        t.mask_rates(&mut rates);
        assert_eq!(rates, vec![1.0, 0.0, 0.5]);
    }

    #[test]
    fn only_a_down_node_with_no_recovery_ahead_is_permanently_down() {
        let plan = FaultPlan::new()
            .outage(n(0), secs(10.0), secs(20.0))
            .crash(n(1), secs(10.0));
        let mut t = FaultTracker::new(&plan, 3);
        t.poll(secs(15.0));
        assert!(t.is_down(0) && !t.is_permanently_down(0), "an outage ends");
        assert!(t.is_permanently_down(1), "a crash never does");
        assert!(!t.is_permanently_down(2), "a node that is up");
        t.poll(secs(25.0));
        assert!(!t.is_down(0) && !t.is_permanently_down(0));
        assert!(t.is_permanently_down(1));
        assert!(!t.all_down());
    }
}
