//! Grid nodes: heterogeneous processors with time-varying availability.

use crate::fault::FOREVER;
use crate::load::LoadModel;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Identifier of a node within a [`crate::grid::GridSpec`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The node's index in its grid.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Static description of one grid node.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Human-readable name, e.g. `"edi-03"`.
    pub name: String,
    /// Nominal speed in work units per second at availability 1. A node
    /// twice as fast as the reference executes the same stage in half the
    /// time.
    pub speed: f64,
    /// Number of independent execution contexts (cores). A node can run
    /// this many tasks concurrently, each at full effective rate.
    pub cores: u32,
}

impl NodeSpec {
    /// Convenience constructor with validation.
    ///
    /// # Panics
    /// Panics if `speed` is not strictly positive or `cores` is zero.
    pub fn new(name: impl Into<String>, speed: f64, cores: u32) -> Self {
        assert!(
            speed > 0.0 && speed.is_finite(),
            "node speed must be positive"
        );
        assert!(cores >= 1, "node needs at least one core");
        NodeSpec {
            name: name.into(),
            speed,
            cores,
        }
    }
}

/// A node instance: static spec plus its availability model.
#[derive(Clone, Debug)]
pub struct Node {
    /// Static description.
    pub spec: NodeSpec,
    /// Availability as a function of simulated time.
    pub load: LoadModel,
}

impl Node {
    /// Builds a node from its spec and load model.
    pub fn new(spec: NodeSpec, load: LoadModel) -> Self {
        Node { spec, load }
    }

    /// Effective processing rate (work units per second) at time `t`.
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        self.spec.speed * self.load.availability(t)
    }

    /// The instant at which `work` units started at `start` complete on a
    /// dedicated core of this node, integrating the effective rate across
    /// availability breakpoints exactly.
    ///
    /// Returns [`SimTime::MAX`] if the work can never complete (the node
    /// is permanently unavailable from some point on).
    pub fn completion_time(&self, start: SimTime, work: f64) -> SimTime {
        assert!(work >= 0.0 && work.is_finite(), "work must be non-negative");
        if work == 0.0 {
            return start;
        }
        let mut t = start;
        let mut remaining = work;
        loop {
            let rate = self.rate_at(t);
            if rate <= 0.0 {
                // Inside an outage nothing gets done whatever the base
                // model does: go to its end in one step (`0 × span` would
                // add nothing per breakpoint), and a crash has none — a
                // cyclic base has breakpoints all the way to `FOREVER`.
                if let Some(end) = self.load.outage_end(t) {
                    if end >= FOREVER {
                        return SimTime::MAX;
                    }
                    t = end;
                    continue;
                }
            }
            let next = self.load.next_breakpoint(t);
            match next {
                Some(bp) => {
                    let span = (bp - t).as_secs_f64();
                    let can_do = rate * span;
                    if can_do >= remaining {
                        // Completes within this segment.
                        return t + SimDuration::from_secs_f64(remaining / rate);
                    }
                    remaining -= can_do;
                    t = bp;
                }
                None => {
                    if rate <= 0.0 {
                        return SimTime::MAX;
                    }
                    return t + SimDuration::from_secs_f64(remaining / rate);
                }
            }
        }
    }

    /// Work accomplished on a dedicated core between `from` and `to`.
    /// Inverse of [`Node::completion_time`]; used by migration logic to
    /// compute residual work of a preempted task.
    pub fn work_done(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to >= from, "interval must be forward in time");
        if to == from {
            return 0.0;
        }
        let mut t = from;
        let mut acc = 0.0;
        while t < to {
            let rate = self.rate_at(t);
            let seg_end = match self.load.next_breakpoint(t) {
                Some(bp) if bp < to => bp,
                _ => to,
            };
            acc += rate * (seg_end - t).as_secs_f64();
            t = seg_end;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn completion_on_free_node_is_work_over_speed() {
        let n = Node::new(NodeSpec::new("a", 4.0, 1), LoadModel::free());
        let done = n.completion_time(secs(10.0), 8.0);
        assert!((done.as_secs_f64() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let n = Node::new(NodeSpec::new("a", 1.0, 1), LoadModel::free());
        assert_eq!(n.completion_time(secs(3.0), 0.0), secs(3.0));
    }

    #[test]
    fn completion_integrates_across_step() {
        // Speed 1; availability 1.0 until t=5, then 0.5. 8 units of work
        // started at t=0: 5 done by t=5, remaining 3 at rate 0.5 → 6s more.
        let n = Node::new(
            NodeSpec::new("a", 1.0, 1),
            LoadModel::step(1.0, 0.5, secs(5.0)),
        );
        let done = n.completion_time(secs(0.0), 8.0);
        assert!((done.as_secs_f64() - 11.0).abs() < 1e-6, "done={done}");
    }

    #[test]
    fn completion_across_square_wave_accumulates_only_high_phases() {
        // hi=1 for 1s, lo=0 for 1s, speed 1: 3 units need 3 high phases.
        let n = Node::new(
            NodeSpec::new("a", 1.0, 1),
            LoadModel::square_wave(1.0, 0.0, SimDuration::from_secs(2), 0.5, SimDuration::ZERO),
        );
        let done = n.completion_time(secs(0.0), 3.0);
        assert!((done.as_secs_f64() - 5.0).abs() < 1e-6, "done={done}");
    }

    #[test]
    fn permanently_dead_node_never_completes() {
        let n = Node::new(NodeSpec::new("a", 1.0, 1), LoadModel::constant(0.0));
        assert_eq!(n.completion_time(secs(0.0), 1.0), SimTime::MAX);
    }

    #[test]
    fn outage_then_recovery_completes_after_outage() {
        let n = Node::new(
            NodeSpec::new("a", 1.0, 1),
            LoadModel::free().with_outages(&[(secs(1.0), secs(4.0))]),
        );
        // 2 units: 1 before the outage, 1 after it ends at t=4.
        let done = n.completion_time(secs(0.0), 2.0);
        assert!((done.as_secs_f64() - 5.0).abs() < 1e-6, "done={done}");
    }

    /// A node whose availability is a cyclic trace: breakpoints forever.
    fn random_walk_node(seed: u64) -> Node {
        let walk = LoadModel::random_walk(
            seed,
            0.9,
            0.05,
            SimDuration::from_secs(2),
            0.3,
            1.0,
            SimDuration::from_secs(600),
        );
        Node::new(NodeSpec::new("a", 1.0, 1), walk)
    }

    #[test]
    fn crash_on_a_cyclic_trace_never_completes_and_says_so_at_once() {
        let mut n = random_walk_node(7);
        n.load = n.load.with_outages(&[(secs(20.0), FOREVER)]);
        // Finishes before the crash; cut off by it; started after it.
        assert!(n.completion_time(secs(0.0), 5.0) < secs(20.0));
        assert_eq!(n.completion_time(secs(15.0), 50.0), SimTime::MAX);
        assert_eq!(n.completion_time(secs(30.0), 0.1), SimTime::MAX);
    }

    /// Skipping an outage in one step gives the instant that integrating
    /// it breakpoint by breakpoint gives, to the nanosecond.
    #[test]
    fn outage_skip_equals_hopping_every_breakpoint() {
        let hop = |n: &Node, start: SimTime, work: f64| {
            let (mut t, mut remaining) = (start, work);
            loop {
                let rate = n.rate_at(t);
                let bp = n.load.next_breakpoint(t).expect("cyclic trace");
                let can_do = rate * (bp - t).as_secs_f64();
                if can_do >= remaining {
                    return t + SimDuration::from_secs_f64(remaining / rate);
                }
                remaining -= can_do;
                t = bp;
            }
        };
        for seed in 0..20 {
            let mut n = random_walk_node(seed);
            n.load = n
                .load
                .with_outages(&[(secs(11.0), secs(47.5)), (secs(300.0), secs(1900.0))])
                .with_outages(&[(secs(40.0), secs(90.0))]);
            for (start, work) in [(0.0, 3.0), (5.0, 9.0), (20.0, 1.0), (250.0, 100.0)] {
                assert_eq!(
                    n.completion_time(secs(start), work),
                    hop(&n, secs(start), work),
                    "seed {seed}, {work} units from {start} s"
                );
            }
        }
    }

    #[test]
    fn work_done_is_inverse_of_completion() {
        let n = Node::new(
            NodeSpec::new("a", 2.0, 1),
            LoadModel::step(1.0, 0.25, secs(3.0)),
        );
        let work = 10.0;
        let done = n.completion_time(secs(0.0), work);
        let measured = n.work_done(secs(0.0), done);
        assert!((measured - work).abs() < 1e-6, "measured={measured}");
    }

    #[test]
    fn rate_scales_with_speed_and_availability() {
        let n = Node::new(NodeSpec::new("a", 3.0, 2), LoadModel::constant(0.5));
        assert!((n.rate_at(secs(0.0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn non_positive_speed_rejected() {
        let _ = NodeSpec::new("bad", 0.0, 1);
    }
}
