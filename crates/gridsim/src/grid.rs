//! Assembled grids and the synthetic testbeds used by the evaluation.
//!
//! A [`GridSpec`] couples a set of [`Node`]s with a [`Topology`]. The
//! `testbed_*` constructors build the three reference grids of experiment
//! T1; they are deterministic functions of a seed so every experiment can
//! reconstruct the exact same environment.

use crate::load::LoadModel;
use crate::net::{LinkSpec, Topology};
use crate::node::{Node, NodeId, NodeSpec};
use crate::rng::child_seed;
use crate::time::{SimDuration, SimTime};

/// A complete grid: nodes plus interconnect.
#[derive(Clone, Debug)]
pub struct GridSpec {
    nodes: Vec<Node>,
    topology: Topology,
}

impl GridSpec {
    /// Builds a grid from nodes and a matching topology.
    ///
    /// # Panics
    /// Panics if the topology size differs from the node count.
    pub fn new(nodes: Vec<Node>, topology: Topology) -> Self {
        assert_eq!(
            nodes.len(),
            topology.len(),
            "topology covers {} nodes but grid has {}",
            topology.len(),
            nodes.len()
        );
        assert!(!nodes.is_empty(), "grid needs at least one node");
        GridSpec { nodes, topology }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the grid has no nodes (not constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The interconnect.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Replaces the load model of `id`, returning the previous one.
    pub fn set_load(&mut self, id: NodeId, load: LoadModel) -> LoadModel {
        std::mem::replace(&mut self.nodes[id.0].load, load)
    }

    /// Effective rate of every node at `t` (speed × availability).
    pub fn rates_at(&self, t: SimTime) -> Vec<f64> {
        self.nodes.iter().map(|n| n.rate_at(t)).collect()
    }
}

/// `small3`: three identical free nodes on a uniform LAN.
///
/// The minimal testbed used for model-validation sweeps (experiment T2),
/// mirroring the 3-stage/3-processor setting classic pipeline mapping
/// studies use.
pub fn testbed_small3() -> GridSpec {
    let nodes = (0..3)
        .map(|i| {
            Node::new(
                NodeSpec::new(format!("small-{i}"), 1.0, 1),
                LoadModel::free(),
            )
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(3, LinkSpec::lan()))
}

/// `hetero8`: eight heterogeneous nodes (speeds 0.5×–3×) on a clustered
/// network (two LAN clusters of four, WAN between clusters), with
/// seed-derived random-walk background load on half of the nodes.
///
/// This is the workhorse testbed for the adaptation experiments (F1, F2,
/// F4, F5).
pub fn testbed_hetero8(seed: u64) -> GridSpec {
    let speeds = [3.0, 2.0, 1.5, 1.0, 1.0, 0.75, 0.5, 0.5];
    let nodes = speeds
        .iter()
        .enumerate()
        .map(|(i, &speed)| {
            let load = if i % 2 == 1 {
                LoadModel::random_walk(
                    child_seed(seed, i as u64),
                    0.9,
                    0.05,
                    SimDuration::from_secs(2),
                    0.3,
                    1.0,
                    SimDuration::from_secs(600),
                )
            } else {
                LoadModel::free()
            };
            Node::new(NodeSpec::new(format!("hetero-{i}"), speed, 1), load)
        })
        .collect();
    GridSpec::new(
        nodes,
        Topology::clustered(8, 4, LinkSpec::lan(), LinkSpec::wan()),
    )
}

/// `grid32`: thirty-two nodes in four clusters of eight; speeds drawn from
/// {0.5, 1, 2, 4} per cluster; Markov on/off background load on a third of
/// the nodes. Used for the scalability experiment (F3) and decision-cost
/// table (T3).
pub fn testbed_grid32(seed: u64) -> GridSpec {
    let cluster_speed = [4.0, 2.0, 1.0, 0.5];
    let nodes = (0..32)
        .map(|i| {
            let cluster = i / 8;
            let speed = cluster_speed[cluster];
            let load = if i % 3 == 0 {
                LoadModel::markov_on_off(
                    child_seed(seed, i as u64),
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(20),
                    0.25,
                    SimDuration::from_secs(1200),
                )
            } else {
                LoadModel::free()
            };
            Node::new(
                NodeSpec::new(format!("grid-{cluster}-{}", i % 8), speed, 1),
                load,
            )
        })
        .collect();
    GridSpec::new(
        nodes,
        Topology::clustered(32, 8, LinkSpec::lan(), LinkSpec::wan()),
    )
}

/// A named testbed, so experiment configs can refer to grids by string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Testbed {
    /// See [`testbed_small3`].
    Small3,
    /// See [`testbed_hetero8`].
    Hetero8,
    /// See [`testbed_grid32`].
    Grid32,
}

impl Testbed {
    /// Instantiates the testbed with the given seed.
    pub fn build(self, seed: u64) -> GridSpec {
        match self {
            Testbed::Small3 => testbed_small3(),
            Testbed::Hetero8 => testbed_hetero8(seed),
            Testbed::Grid32 => testbed_grid32(seed),
        }
    }

    /// The testbed's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Testbed::Small3 => "small3",
            Testbed::Hetero8 => "hetero8",
            Testbed::Grid32 => "grid32",
        }
    }

    /// All defined testbeds.
    pub fn all() -> [Testbed; 3] {
        [Testbed::Small3, Testbed::Hetero8, Testbed::Grid32]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small3_is_homogeneous_and_free() {
        let g = testbed_small3();
        assert_eq!(g.len(), 3);
        for id in g.node_ids() {
            assert_eq!(g.node(id).spec.speed, 1.0);
            assert_eq!(g.node(id).load.availability(SimTime::ZERO), 1.0);
        }
    }

    #[test]
    fn hetero8_is_deterministic_per_seed() {
        let a = testbed_hetero8(5);
        let b = testbed_hetero8(5);
        let c = testbed_hetero8(6);
        let t = SimTime::from_secs_f64(123.0);
        let ra: Vec<f64> = a.rates_at(t);
        let rb: Vec<f64> = b.rates_at(t);
        let rc: Vec<f64> = c.rates_at(t);
        assert_eq!(ra, rb, "same seed, same rates");
        assert_ne!(ra, rc, "different seed changes loaded-node rates");
    }

    #[test]
    fn hetero8_spans_6x_speed_range() {
        let g = testbed_hetero8(1);
        let speeds: Vec<f64> = g.node_ids().map(|id| g.node(id).spec.speed).collect();
        let max = speeds.iter().cloned().fold(f64::MIN, f64::max);
        let min = speeds.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(max / min, 6.0);
    }

    #[test]
    fn grid32_has_four_speed_classes() {
        let g = testbed_grid32(1);
        assert_eq!(g.len(), 32);
        let mut speeds: Vec<f64> = g.node_ids().map(|id| g.node(id).spec.speed).collect();
        speeds.dedup();
        assert_eq!(speeds, vec![4.0, 2.0, 1.0, 0.5]);
    }

    #[test]
    fn set_load_swaps_model() {
        let mut g = testbed_small3();
        let old = g.set_load(NodeId(1), LoadModel::constant(0.5));
        assert_eq!(old.availability(SimTime::ZERO), 1.0);
        assert_eq!(g.node(NodeId(1)).load.availability(SimTime::ZERO), 0.5);
    }

    #[test]
    fn testbed_names_round_trip() {
        for tb in Testbed::all() {
            assert!(!tb.name().is_empty());
            assert!(tb.build(3).len() >= 3);
        }
    }

    #[test]
    #[should_panic(expected = "topology covers")]
    fn mismatched_topology_panics() {
        let nodes = vec![Node::new(NodeSpec::new("a", 1.0, 1), LoadModel::free())];
        let _ = GridSpec::new(nodes, Topology::uniform(2, LinkSpec::lan()));
    }
}
