//! The interconnection network: heterogeneous point-to-point links.
//!
//! The adaptive pipeline pattern needs only the *cost* of moving an item
//! between the processors hosting adjacent stages, so the network is
//! modelled as a full matrix of [`LinkSpec`]s (latency + bandwidth) rather
//! than a routed topology. Intra-node "links" have near-zero cost.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Point-to-point link characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// One-way latency added to every transfer.
    pub latency: SimDuration,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl LinkSpec {
    /// Builds a link from latency and bandwidth.
    ///
    /// # Panics
    /// Panics if bandwidth is not strictly positive.
    pub fn new(latency: SimDuration, bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive"
        );
        LinkSpec { latency, bandwidth }
    }

    /// An effectively free link used for transfers within one node:
    /// 1 µs latency, 100 GB/s.
    pub fn local() -> Self {
        LinkSpec::new(SimDuration::from_micros(1), 100e9)
    }

    /// A LAN-class link: 0.1 ms latency, 1 Gbit/s.
    pub fn lan() -> Self {
        LinkSpec::new(SimDuration::from_micros(100), 125e6)
    }

    /// A WAN-class link: 20 ms latency, 100 Mbit/s.
    pub fn wan() -> Self {
        LinkSpec::new(SimDuration::from_millis(20), 12.5e6)
    }

    /// A congested WAN link: 100 ms latency, 10 Mbit/s.
    pub fn slow_wan() -> Self {
        LinkSpec::new(SimDuration::from_millis(100), 1.25e6)
    }

    /// Time to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// Full link matrix between `n` nodes.
///
/// The matrix need not be symmetric (e.g. asymmetric DSL-like links), but
/// all builders here produce symmetric topologies.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    links: Vec<LinkSpec>,
}

impl Topology {
    /// A topology where every distinct pair uses `inter` and every node
    /// reaches itself via [`LinkSpec::local`].
    pub fn uniform(n: usize, inter: LinkSpec) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let mut links = vec![inter; n * n];
        for i in 0..n {
            links[i * n + i] = LinkSpec::local();
        }
        Topology { n, links }
    }

    /// A cluster-of-clusters topology: nodes are grouped into equal-size
    /// clusters; intra-cluster pairs use `intra`, inter-cluster pairs use
    /// `inter`.
    pub fn clustered(n: usize, cluster_size: usize, intra: LinkSpec, inter: LinkSpec) -> Self {
        assert!(n > 0 && cluster_size > 0);
        let mut topo = Topology::uniform(n, inter);
        for i in 0..n {
            for j in 0..n {
                if i != j && i / cluster_size == j / cluster_size {
                    topo.set(NodeId(i), NodeId(j), intra);
                }
            }
        }
        topo
    }

    /// Number of nodes this topology connects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the topology is empty (never constructible via builders).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The link from `src` to `dst`.
    pub fn link(&self, src: NodeId, dst: NodeId) -> LinkSpec {
        assert!(src.0 < self.n && dst.0 < self.n, "node out of range");
        self.links[src.0 * self.n + dst.0]
    }

    /// Overrides the link from `src` to `dst` (one direction only).
    pub fn set(&mut self, src: NodeId, dst: NodeId, link: LinkSpec) {
        assert!(src.0 < self.n && dst.0 < self.n, "node out of range");
        self.links[src.0 * self.n + dst.0] = link;
    }

    /// Overrides the links in both directions between `a` and `b`.
    pub fn set_symmetric(&mut self, a: NodeId, b: NodeId, link: LinkSpec) {
        self.set(a, b, link);
        self.set(b, a, link);
    }

    /// Transfer time for `bytes` from `src` to `dst`.
    pub fn transfer_time(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimDuration {
        self.link(src, dst).transfer_time(bytes)
    }
}

/// Serialisation state of a contended link: at most one transfer in
/// flight per direction; later transfers queue behind earlier ones.
///
/// This is optional machinery — the analytic model ignores contention, and
/// experiment T2 quantifies the resulting model error.
#[derive(Clone, Debug, Default)]
pub struct LinkQueue {
    busy_until: SimTime,
}

impl LinkQueue {
    /// Creates an idle link queue.
    pub fn new() -> Self {
        LinkQueue {
            busy_until: SimTime::ZERO,
        }
    }

    /// Schedules a transfer requested at `now` taking `duration`;
    /// returns its completion time, accounting for queueing behind any
    /// transfer still in flight.
    pub fn schedule(&mut self, now: SimTime, duration: SimDuration) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        self.busy_until = start + duration;
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_combines_latency_and_bandwidth() {
        let l = LinkSpec::new(SimDuration::from_millis(10), 1000.0);
        let t = l.transfer_time(500);
        assert!((t.as_secs_f64() - 0.51).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn uniform_topology_has_local_self_links() {
        let topo = Topology::uniform(3, LinkSpec::lan());
        assert_eq!(topo.link(NodeId(0), NodeId(0)), LinkSpec::local());
        assert_eq!(topo.link(NodeId(0), NodeId(2)), LinkSpec::lan());
        assert_eq!(topo.len(), 3);
    }

    #[test]
    fn clustered_topology_distinguishes_intra_and_inter() {
        let topo = Topology::clustered(4, 2, LinkSpec::lan(), LinkSpec::wan());
        assert_eq!(topo.link(NodeId(0), NodeId(1)), LinkSpec::lan());
        assert_eq!(topo.link(NodeId(0), NodeId(2)), LinkSpec::wan());
        assert_eq!(topo.link(NodeId(2), NodeId(3)), LinkSpec::lan());
        assert_eq!(topo.link(NodeId(1), NodeId(1)), LinkSpec::local());
    }

    #[test]
    fn set_symmetric_updates_both_directions() {
        let mut topo = Topology::uniform(2, LinkSpec::lan());
        topo.set_symmetric(NodeId(0), NodeId(1), LinkSpec::slow_wan());
        assert_eq!(topo.link(NodeId(0), NodeId(1)), LinkSpec::slow_wan());
        assert_eq!(topo.link(NodeId(1), NodeId(0)), LinkSpec::slow_wan());
    }

    #[test]
    fn link_queue_serialises_overlapping_transfers() {
        let mut q = LinkQueue::new();
        let d = SimDuration::from_secs(2);
        let first = q.schedule(SimTime::from_secs_f64(0.0), d);
        assert_eq!(first, SimTime::from_secs_f64(2.0));
        // Requested at t=1 but the link is busy until t=2.
        let second = q.schedule(SimTime::from_secs_f64(1.0), d);
        assert_eq!(second, SimTime::from_secs_f64(4.0));
        // Requested after the link went idle: starts immediately.
        let third = q.schedule(SimTime::from_secs_f64(10.0), d);
        assert_eq!(third, SimTime::from_secs_f64(12.0));
    }

    #[test]
    fn local_link_is_cheap() {
        let t = LinkSpec::local().transfer_time(1 << 20);
        assert!(t.as_secs_f64() < 1e-3, "t={t}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let topo = Topology::uniform(2, LinkSpec::lan());
        let _ = topo.link(NodeId(0), NodeId(5));
    }
}
