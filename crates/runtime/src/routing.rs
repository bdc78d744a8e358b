//! Live stage→replica routing.
//!
//! A [`RoutingTable`] wraps the current [`Mapping`] with per-stage
//! replica-selection state. Both execution backends route every item
//! through it, and the adaptation loop re-points a *running* pipeline by
//! [`RoutingTable::install`]ing a new mapping: items already in flight
//! towards an old host are forwarded on arrival (backends check
//! [`RoutingSnapshot::contains`]), new items go straight to the new hosts.
//!
//! ## Epoch snapshots
//!
//! Internally the table is a publish-only cell over an immutable
//! [`RoutingSnapshot`]: every read (routing, host lookups, health
//! checks) goes through the current snapshot, and `install` *publishes
//! a new snapshot* with a bumped epoch instead of mutating in place.
//! Hot paths clone the `Arc` once ([`RoutingTable::snapshot`]) and
//! route lock-free against it, revalidating only when the shared
//! [`RoutingTable::epoch_cell`] says a newer snapshot exists — so a
//! re-map never stalls the data plane behind a lock. Two pieces of
//! state deliberately pierce the snapshot immutability, both atomic so
//! they take `&self`:
//!
//! * per-stage round-robin cursors — selection state, carried forward
//!   across installs for unmoved stages;
//! * per-node down flags — shared by *every* snapshot of the table, so
//!   a fault marked through a fresh snapshot is visible instantly to
//!   readers still holding an older one (fault re-routes must not wait
//!   for an epoch bump).
//!
//! The simulator gets identical (deterministic) round-robin behaviour
//! through the same code.

use adapipe_gridsim::node::NodeId;
use adapipe_mapper::mapping::Mapping;
use adapipe_state::{owner_of, shard_of};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How the table picks one replica among a stage's hosts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Selection {
    /// Deal items cyclically over the replica set (the paper's scheme;
    /// deterministic given arrival order).
    #[default]
    RoundRobin,
    /// Send each item to the replica with the smallest reported load
    /// (queue depth); ties break towards the lowest node id. Requires
    /// the backend to supply a load probe via
    /// [`RoutingSnapshot::route_with_load`].
    LeastLoaded,
}

/// One immutable published generation of the routing state: the mapping
/// in force, its selection cursors, and the (shared) node-health flags.
/// Obtained from [`RoutingTable::snapshot`]; readers route against it
/// lock-free and check [`RoutingSnapshot::epoch`] against the table's
/// [`RoutingTable::epoch_cell`] to detect staleness.
#[derive(Debug)]
pub struct RoutingSnapshot {
    mapping: Mapping,
    /// Per-stage round-robin cursor. Atomic so routing takes `&self`.
    rr: Vec<AtomicUsize>,
    selection: Selection,
    /// Per-node health flag: a down node is skipped by every selection
    /// policy while at least one of the stage's hosts is up. Shared by
    /// every snapshot of the same table (fault transitions must reach
    /// readers of *older* snapshots without waiting for a republish).
    down: Arc<Vec<AtomicBool>>,
    /// Per-stage shard counts for keyed state (`0` = unkeyed). Fixed
    /// for the run (declared at build time), carried across installs,
    /// and consulted lock-free by [`RoutingSnapshot::route_keyed`] on
    /// the hot path.
    shards: Arc<Vec<usize>>,
    /// Generation counter: starts at 0, +1 per install.
    epoch: u64,
}

impl RoutingSnapshot {
    /// This snapshot's generation (0 at table creation, +1 per
    /// [`RoutingTable::install`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mapping this snapshot routes by.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The selection policy.
    pub fn selection(&self) -> Selection {
        self.selection
    }

    /// Number of stages routed.
    pub fn len(&self) -> usize {
        self.mapping.len()
    }

    /// True if the snapshot routes no stages (not constructible).
    pub fn is_empty(&self) -> bool {
        self.mapping.len() == 0
    }

    /// The replica hosts of `stage`.
    pub fn hosts(&self, stage: usize) -> &[NodeId] {
        self.mapping.placement(stage).hosts()
    }

    /// True if `node` hosts `stage` in this snapshot — backends use
    /// this to detect items that were in flight across a re-mapping
    /// (routed under an older epoch) and must be re-homed.
    pub fn contains(&self, stage: usize, node: NodeId) -> bool {
        self.mapping.placement(stage).contains(node)
    }

    /// Marks `node` down: every selection policy skips it while any
    /// alternative host is alive. Out-of-range nodes are ignored. The
    /// flag is shared across snapshots — see the module docs.
    pub fn mark_down(&self, node: NodeId) {
        if let Some(flag) = self.down.get(node.index()) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Lifts a [`RoutingSnapshot::mark_down`].
    pub fn mark_up(&self, node: NodeId) {
        if let Some(flag) = self.down.get(node.index()) {
            flag.store(false, Ordering::SeqCst);
        }
    }

    /// True if `node` is currently marked down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down
            .get(node.index())
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Picks the destination replica for the next item of `stage`,
    /// always round-robin. Tables configured with
    /// [`Selection::LeastLoaded`] need a load probe — route through
    /// [`RoutingSnapshot::route_with_load`] instead (debug builds
    /// assert this so a least-loaded table cannot silently round-robin).
    pub fn route(&self, stage: usize) -> NodeId {
        debug_assert!(
            self.selection == Selection::RoundRobin,
            "route() ignores the {:?} policy; use route_with_load with a load probe",
            self.selection
        );
        self.route_round_robin(stage)
    }

    fn route_round_robin(&self, stage: usize) -> NodeId {
        let hosts = self.mapping.placement(stage).hosts();
        let k = self.rr[stage].fetch_add(1, Ordering::Relaxed);
        // Skip hosts marked down, scanning from the cursor so live
        // hosts still share the load cyclically. With every host down
        // the plain pick stands: the item parks on schedule and a
        // re-map rescues it.
        for off in 0..hosts.len() {
            let h = hosts[(k + off) % hosts.len()];
            if !self.is_down(h) {
                return h;
            }
        }
        hosts[k % hosts.len()]
    }

    /// Picks the destination replica for the next item of `stage` using
    /// the configured selection policy; `load` reports the backend's
    /// current queue depth per node (only consulted under
    /// [`Selection::LeastLoaded`]).
    pub fn route_with_load(&self, stage: usize, load: impl Fn(NodeId) -> usize) -> NodeId {
        match self.selection {
            Selection::RoundRobin => self.route_round_robin(stage),
            Selection::LeastLoaded => self.route_least_loaded(stage, load),
        }
    }

    /// The declared shard count of `stage` (`0` for unkeyed stages).
    fn shard_count(&self, stage: usize) -> usize {
        self.shards.get(stage).copied().unwrap_or(0)
    }

    /// The host owning `shard` of `stage` under this snapshot's
    /// placement: position `shard % width` in the (sorted) host list.
    /// Deterministic in the placement alone — every reader of the same
    /// snapshot agrees, with no cursor and no lock.
    pub fn shard_owner(&self, stage: usize, shard: usize) -> NodeId {
        let hosts = self.mapping.placement(stage).hosts();
        hosts[owner_of(shard, hosts.len())]
    }

    /// Routes an item of a *keyed* stage by its key hash: the key's
    /// shard is fixed for the run, and the shard's owner follows the
    /// current placement. Down flags are deliberately **ignored** —
    /// a key must never detour to a replica that does not own its
    /// state, so items for a dead owner park at its host until a
    /// re-map hands the shard to a live node. Stages with no declared
    /// shard count route by hash over the current width (deterministic,
    /// but keys are not pinned across re-maps).
    pub fn route_keyed(&self, stage: usize, hash: u64) -> NodeId {
        let width = self.mapping.placement(stage).hosts().len();
        let shards = match self.shard_count(stage) {
            0 => width,
            n => n,
        };
        self.shard_owner(stage, shard_of(hash, shards))
    }

    /// Picks the currently least-loaded replica of `stage`.
    ///
    /// Tie-breaking is deterministic: among replicas reporting the
    /// minimal load, the **lowest node id** wins — hosts are stored
    /// sorted and `min_by_key` keeps the first minimum. In particular,
    /// when *all* replicas report equal load (the common cold-start
    /// case), every call routes to the lowest-id host; unlike
    /// round-robin there is no cursor, so repeated ties do not rotate.
    fn route_least_loaded(&self, stage: usize, load: impl Fn(NodeId) -> usize) -> NodeId {
        let hosts = self.mapping.placement(stage).hosts();
        hosts
            .iter()
            .filter(|&&h| !self.is_down(h))
            .min_by_key(|&&h| load(h))
            .copied()
            // Every host down: pick the nominal minimum anyway — the
            // item parks on schedule and a re-map rescues it.
            .unwrap_or_else(|| {
                *hosts
                    .iter()
                    .min_by_key(|&&h| load(h))
                    .expect("placement is never empty")
            })
    }
}

/// The shared stage→replica-set routing table: a publish cell over the
/// current [`RoutingSnapshot`]. Every read goes to the current
/// snapshot, which the table derefs to; [`RoutingTable::install`]
/// publishes a new one.
#[derive(Debug)]
pub struct RoutingTable {
    snap: Arc<RoutingSnapshot>,
    /// Mirrors the current snapshot's epoch, shared with readers that
    /// cached an `Arc<RoutingSnapshot>` so they can detect a newer
    /// publication with one atomic load — no lock on the hot path.
    epoch_cell: Arc<AtomicU64>,
}

impl RoutingTable {
    /// Creates a table routing according to `mapping` with round-robin
    /// replica selection. Node health covers the mapping's own hosts;
    /// prefer [`RoutingTable::with_selection`] with the backend's true
    /// node count when faults may name nodes outside the mapping.
    pub fn new(mapping: Mapping) -> Self {
        let nodes = mapping
            .nodes_used()
            .iter()
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        Self::with_selection(mapping, Selection::RoundRobin, nodes)
    }

    /// Creates a table with an explicit selection policy over a backend
    /// of `node_count` nodes.
    pub fn with_selection(mapping: Mapping, selection: Selection, node_count: usize) -> Self {
        let down = Arc::new(
            (0..node_count)
                .map(|_| AtomicBool::new(false))
                .collect::<Vec<_>>(),
        );
        Self::with_shared_health(mapping, selection, down)
    }

    /// Creates a table whose node-health flags are the caller's shared
    /// vector rather than a fresh private one. A multi-tenant pool
    /// builds every tenant's table over *one* health vector so a node
    /// marked down through any tenant's snapshot is instantly down for
    /// all of them — pool health is a property of the hardware, not of
    /// one session's view of it.
    pub fn with_shared_health(
        mapping: Mapping,
        selection: Selection,
        down: Arc<Vec<AtomicBool>>,
    ) -> Self {
        let rr = (0..mapping.len()).map(|_| AtomicUsize::new(0)).collect();
        let shards = Arc::new(vec![0; mapping.len()]);
        RoutingTable {
            snap: Arc::new(RoutingSnapshot {
                mapping,
                rr,
                selection,
                down,
                shards,
                epoch: 0,
            }),
            epoch_cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Declares the per-stage shard counts for keyed routing (`0` for
    /// unkeyed stages). Called once before the run starts — the counts
    /// are fixed at build time and republished unchanged by every
    /// [`RoutingTable::install`].
    ///
    /// # Panics
    /// Panics if `shards` does not cover every stage.
    pub fn with_stage_shards(mut self, shards: Vec<usize>) -> Self {
        assert_eq!(shards.len(), self.snap.len(), "shards must cover stages");
        let snap = &self.snap;
        let rr = snap
            .rr
            .iter()
            .map(|c| AtomicUsize::new(c.load(Ordering::Relaxed)))
            .collect();
        self.snap = Arc::new(RoutingSnapshot {
            mapping: snap.mapping.clone(),
            rr,
            selection: snap.selection,
            down: Arc::clone(&snap.down),
            shards: Arc::new(shards),
            epoch: snap.epoch,
        });
        self
    }

    /// The current snapshot: clone the `Arc` once and route lock-free
    /// against it. Compare [`RoutingSnapshot::epoch`] with the value in
    /// [`RoutingTable::epoch_cell`] to know when to re-fetch.
    pub fn snapshot(&self) -> Arc<RoutingSnapshot> {
        Arc::clone(&self.snap)
    }

    /// The shared epoch counter, updated on every [`RoutingTable::install`].
    /// Readers cache it alongside a snapshot so staleness detection is
    /// one `Relaxed`/`Acquire` load — never a lock.
    pub fn epoch_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch_cell)
    }

    /// Publishes a new snapshot routing by `new` (epoch + 1), returning
    /// the stages whose placement changed. Selection cursors of moved
    /// stages restart at zero so post-remap routing is deterministic;
    /// unmoved stages carry their cursor forward. Readers holding the
    /// old snapshot keep routing by the old mapping until they observe
    /// the epoch bump — their in-flight items re-home on arrival via
    /// the receiving backend's `contains` check.
    pub fn install(&mut self, new: Mapping) -> Vec<usize> {
        assert_eq!(new.len(), self.snap.len(), "mapping length must match");
        let moved = self.snap.mapping.diff(&new);
        let rr = (0..new.len())
            .map(|stage| {
                let cursor = if moved.contains(&stage) {
                    0
                } else {
                    self.snap.rr[stage].load(Ordering::Relaxed)
                };
                AtomicUsize::new(cursor)
            })
            .collect();
        let epoch = self.snap.epoch + 1;
        self.snap = Arc::new(RoutingSnapshot {
            mapping: new,
            rr,
            selection: self.snap.selection,
            down: Arc::clone(&self.snap.down),
            shards: Arc::clone(&self.snap.shards),
            epoch,
        });
        self.epoch_cell.store(epoch, Ordering::Release);
        moved
    }
}

/// Reads — hosts, health, routing — are the current snapshot's.
impl Deref for RoutingTable {
    type Target = RoutingSnapshot;

    fn deref(&self) -> &RoutingSnapshot {
        &self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_mapper::mapping::Placement;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    fn replicated_two() -> RoutingTable {
        RoutingTable::new(Mapping::new(vec![
            Placement::replicated(vec![n(0), n(1)]),
            Placement::single(n(2)),
        ]))
    }

    #[test]
    fn round_robin_cycles_hosts() {
        let rt = replicated_two();
        let picks: Vec<NodeId> = (0..4).map(|_| rt.route(0)).collect();
        assert_eq!(picks, vec![n(0), n(1), n(0), n(1)]);
        assert_eq!(rt.route(1), n(2));
    }

    #[test]
    fn least_loaded_picks_emptiest_replica() {
        let rt = replicated_two();
        let dest = rt.route_least_loaded(0, |h| if h == n(0) { 5 } else { 1 });
        assert_eq!(dest, n(1));
        // Ties break to the lowest id.
        assert_eq!(rt.route_least_loaded(0, |_| 3), n(0));
    }

    #[test]
    fn least_loaded_all_equal_ties_break_to_lowest_id_deterministically() {
        // Three replicas all reporting the same depth: every pick must
        // be the lowest node id, and repeated ties must not rotate
        // (there is no cursor — determinism is positional, not stateful).
        let rt = RoutingTable::with_selection(
            Mapping::new(vec![Placement::replicated(vec![n(2), n(0), n(1)])]),
            Selection::LeastLoaded,
            3,
        );
        for depth in [0, 3, 7] {
            for _ in 0..4 {
                assert_eq!(rt.route_least_loaded(0, |_| depth), n(0));
                assert_eq!(rt.route_with_load(0, |_| depth), n(0));
            }
        }
        // A partial tie among the higher ids still resolves to the
        // lowest id within the tied set.
        let pick = rt.route_least_loaded(0, |h| if h == n(0) { 9 } else { 2 });
        assert_eq!(pick, n(1));
    }

    #[test]
    fn route_with_load_respects_selection() {
        let rr = replicated_two();
        assert_eq!(rr.route_with_load(0, |_| 0), n(0)); // round-robin first pick
        let ll = RoutingTable::with_selection(
            Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]),
            Selection::LeastLoaded,
            2,
        );
        let dest = ll.route_with_load(0, |h| if h == n(0) { 9 } else { 0 });
        assert_eq!(dest, n(1));
    }

    #[test]
    fn install_reports_moved_stages_and_resets_cursor() {
        let mut rt = replicated_two();
        let _ = rt.route(0); // advance the cursor off zero
        let new = Mapping::new(vec![
            Placement::replicated(vec![n(0), n(1)]),
            Placement::single(n(0)), // stage 1 moves
        ]);
        let moved = rt.install(new);
        assert_eq!(moved, vec![1]);
        // Unmoved stage keeps its cursor (next pick continues the cycle).
        assert_eq!(rt.route(0), n(1));
        assert_eq!(rt.route(1), n(0));
    }

    #[test]
    fn contains_tracks_current_mapping() {
        let mut rt = replicated_two();
        assert!(rt.contains(1, n(2)));
        let moved = rt.install(Mapping::new(vec![
            Placement::replicated(vec![n(0), n(1)]),
            Placement::single(n(1)),
        ]));
        assert_eq!(moved, vec![1]);
        assert!(!rt.contains(1, n(2)));
        assert!(rt.contains(1, n(1)));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn install_rejects_wrong_arity() {
        let mut rt = replicated_two();
        rt.install(Mapping::new(vec![Placement::single(n(0))]));
    }

    #[test]
    fn round_robin_skips_down_hosts() {
        let rt = replicated_two();
        rt.mark_down(n(0));
        assert!(rt.is_down(n(0)));
        // Every pick lands on the surviving replica.
        let picks: Vec<NodeId> = (0..4).map(|_| rt.route(0)).collect();
        assert_eq!(picks, vec![n(1); 4]);
        // Recovery restores the cycle over both hosts.
        rt.mark_up(n(0));
        let picks: Vec<NodeId> = (0..4).map(|_| rt.route(0)).collect();
        assert!(picks.contains(&n(0)) && picks.contains(&n(1)));
    }

    #[test]
    fn least_loaded_skips_down_hosts() {
        let rt = RoutingTable::with_selection(
            Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]),
            Selection::LeastLoaded,
            2,
        );
        // Node 0 is emptier but down: the pick must avoid it.
        rt.mark_down(n(0));
        let pick = rt.route_least_loaded(0, |h| if h == n(0) { 0 } else { 9 });
        assert_eq!(pick, n(1));
    }

    #[test]
    fn all_hosts_down_falls_back_to_nominal_pick() {
        let rt = replicated_two();
        rt.mark_down(n(0));
        rt.mark_down(n(1));
        // The pick still lands on a declared host (items park there
        // until a re-map rescues them) rather than panicking.
        let pick = rt.route(0);
        assert!([n(0), n(1)].contains(&pick));
    }

    #[test]
    fn down_marks_outside_node_range_are_ignored() {
        let rt = replicated_two();
        rt.mark_down(NodeId(99));
        assert!(!rt.is_down(NodeId(99)));
        assert_eq!(rt.route(1), n(2));
    }

    #[test]
    fn shared_health_spans_tables() {
        // Two tenants' tables built over one health vector: a fault
        // marked through either one is down for both instantly.
        let down = Arc::new((0..3).map(|_| AtomicBool::new(false)).collect::<Vec<_>>());
        let a = RoutingTable::with_shared_health(
            Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]),
            Selection::RoundRobin,
            Arc::clone(&down),
        );
        let b = RoutingTable::with_shared_health(
            Mapping::new(vec![Placement::single(n(0)), Placement::single(n(2))]),
            Selection::RoundRobin,
            Arc::clone(&down),
        );
        a.mark_down(n(0));
        assert!(b.is_down(n(0)), "tenant B sees tenant A's fault mark");
        let picks: Vec<NodeId> = (0..4).map(|_| a.route(0)).collect();
        assert_eq!(picks, vec![n(1); 4]);
        b.mark_up(n(0));
        assert!(!a.is_down(n(0)), "recovery through B reaches A");
    }

    #[test]
    fn keyed_routing_pins_keys_to_shard_owners() {
        let rt = RoutingTable::new(Mapping::new(vec![
            Placement::replicated(vec![n(0), n(1)]),
            Placement::single(n(2)),
        ]))
        .with_stage_shards(vec![4, 0]);
        assert_eq!(rt.shard_count(0), 4);
        // Shards deal over the hosts by index: 0→n0, 1→n1, 2→n0, 3→n1.
        assert_eq!(rt.shard_owner(0, 0), n(0));
        assert_eq!(rt.shard_owner(0, 3), n(1));
        // A key's route is a pure function of (hash, placement): hash 6
        // → shard 2 → owner n0, every single time.
        for _ in 0..4 {
            assert_eq!(rt.route_keyed(0, 6), n(0));
            assert_eq!(rt.route_keyed(0, 7), n(1));
        }
        // Down flags do NOT detour keyed items — the owner holds the
        // key's state, so items park there until a re-map moves it.
        rt.mark_down(n(0));
        assert_eq!(rt.route_keyed(0, 6), n(0));
    }

    #[test]
    fn shard_counts_survive_install() {
        let mut rt = RoutingTable::new(Mapping::new(vec![Placement::single(n(0))]))
            .with_stage_shards(vec![4]);
        // Widening 1 → 2 re-deals the shards: only shards whose owner
        // index changed (the odd ones) land on the new host.
        let moved = rt.install(Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]));
        assert_eq!(moved, vec![0]);
        assert_eq!(rt.shard_count(0), 4, "shard map carried across installs");
        assert_eq!(rt.shard_owner(0, 0), n(0));
        assert_eq!(rt.shard_owner(0, 1), n(1));
        assert_eq!(rt.shard_owner(0, 2), n(0));
        assert_eq!(rt.shard_owner(0, 3), n(1));
    }

    #[test]
    fn unkeyed_stages_route_by_hash_over_width() {
        let rt = replicated_two();
        assert_eq!(rt.route_keyed(0, 2), n(0));
        assert_eq!(rt.route_keyed(0, 3), n(1));
        assert_eq!(rt.route_keyed(1, 999), n(2));
    }

    #[test]
    fn install_publishes_a_new_epoch_snapshot() {
        let mut rt = replicated_two();
        let cell = rt.epoch_cell();
        let before = rt.snapshot();
        assert_eq!(before.epoch(), 0);
        assert_eq!(cell.load(Ordering::Acquire), 0);

        let moved = rt.install(Mapping::new(vec![
            Placement::replicated(vec![n(0), n(1)]),
            Placement::single(n(0)),
        ]));
        assert_eq!(moved, vec![1]);
        let after = rt.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(cell.load(Ordering::Acquire), 1, "cell mirrors the epoch");

        // The retired snapshot is immutable: it still routes the old
        // mapping (in-flight items drain against their epoch)...
        assert!(before.contains(1, n(2)));
        assert!(!after.contains(1, n(2)));
        assert!(after.contains(1, n(0)));
    }

    #[test]
    fn down_flags_are_shared_across_snapshots() {
        let mut rt = replicated_two();
        let old = rt.snapshot();
        rt.install(Mapping::new(vec![
            Placement::replicated(vec![n(0), n(1)]),
            Placement::single(n(1)),
        ]));
        // A fault marked through the *new* generation reaches a reader
        // still routing by the old snapshot instantly — no republish.
        rt.mark_down(n(0));
        assert!(old.is_down(n(0)));
        let picks: Vec<NodeId> = (0..4).map(|_| old.route(0)).collect();
        assert_eq!(picks, vec![n(1); 4], "stale snapshot skips the dead host");
        // And the other way round: a mark through the old snapshot is
        // seen by the current table.
        old.mark_up(n(0));
        assert!(!rt.is_down(n(0)));
    }
}
