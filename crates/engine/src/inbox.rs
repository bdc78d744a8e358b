//! Worker inboxes: control messages first, then one weighted-fair lane
//! per tenant (start-time fair queueing over item counts) — and the
//! protocol by which a worker waits on its inbox, is woken, and takes
//! work off a sibling's.
//!
//! That protocol is this file's alone: the queue, its lanes, the
//! `parked` flag senders consult before paying for a notify, and the
//! `idle` flag that keeps a thief from sleeping through a wake-up are
//! private here. A worker sees [`Inbox::recv`] (block for the next
//! message, stealing before sleeping) and [`Inbox::steal`] (give up one
//! envelope the worker's own legality rule allows); senders see
//! [`Inbox::send_work`], [`Inbox::send_ctrl`] and
//! [`Inbox::wake_if_idle`]. Deterministic-interleaving yield points, when
//! they come, go at the flag transitions in `recv`, `park`, `wake_owner`
//! and `wake_if_idle` and nowhere else.
//!
//! `recv`, `send_work` and `wake_if_idle` are `#[inline]`: every
//! envelope crosses them, and their callers (the worker loop,
//! `deliver_env`) live in `worker` — without the hint `wire_item` reads
//! a few percent lower.

use crate::exec::ItemSlot;
use crate::tenant::Shared;
use adapipe_runtime::routing::RoutingSnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A routed batch of items bound for one stage on one worker.
pub(crate) struct Envelope {
    pub(crate) stage: usize,
    /// The routing epoch the sender routed this envelope under. A
    /// receiver that no longer hosts `stage` uses the mismatch with its
    /// own (current) epoch as proof the envelope is stale and re-homes
    /// it; a current-epoch envelope always lands on a current host.
    pub(crate) epoch: u64,
    pub(crate) items: Vec<ItemSlot>,
}

/// Control-plane messages, served strictly before work envelopes.
pub(crate) enum Ctrl {
    /// Deposit `tenant`'s (stateful) instance of `stage` back into the
    /// depot.
    Relinquish { tenant: Arc<Shared>, stage: usize },
    /// Pure wake-up: re-run the post-message service scan (a stateful
    /// instance landed in the depot, a node changed health, or a tenant
    /// tore down fatally and its blocked peers must re-check).
    Wake,
    /// `tenant` is detaching from the pool: drop its lane and local
    /// state, flush its accounting, and ack via `Shared::detached`.
    TenantGone { tenant: Arc<Shared> },
    /// Pool teardown sentinel: the worker exits after processing it.
    Shutdown,
}

/// One message popped from an inbox: a control message, or a work
/// envelope tagged with the tenant it belongs to.
pub(crate) enum Msg {
    Work { tenant: Arc<Shared>, env: Envelope },
    Ctrl(Ctrl),
}

/// How deep into a lane's backlog (from the tail) a thief scans for a
/// stealable envelope.
const STEAL_SCAN: usize = 8;

/// One tenant's queue inside a worker inbox, with its weighted-fair
/// virtual-time tag (start-time fair queueing): serving an envelope of
/// `n` items advances the lane's tag by `n / weight`, and the pop
/// always takes the backlogged lane with the smallest tag — so over any
/// congested window each tenant receives worker capacity proportional
/// to its share, and a spiking tenant's deep backlog cannot starve a
/// steady co-tenant's shallow one.
struct Lane {
    tenant: Arc<Shared>,
    queue: VecDeque<Envelope>,
    vtime: f64,
}

impl Lane {
    /// Items queued on this lane.
    fn items(&self) -> usize {
        self.queue.iter().map(|env| env.items.len()).sum()
    }
}

/// The guarded state of one worker inbox: control messages (served
/// first) plus one weighted-fair lane per tenant.
struct InboxQueue {
    ctrl: VecDeque<Ctrl>,
    lanes: Vec<Lane>,
    /// The inbox's virtual clock: the start tag of the lane served
    /// last. A lane going from empty to backlogged is clamped up to it,
    /// so idle periods bank no credit.
    vnow: f64,
    /// Items queued across all lanes: kept as a running count so a
    /// sender reads the backlog without walking the lanes.
    queued: usize,
    /// True while the owning worker sleeps in [`Inbox::park`] with no
    /// wake-up on its way. Only then does a sender owe it a
    /// `notify_one`, which on a futex condvar is a system call whether
    /// or not anyone listens.
    parked: bool,
}

impl InboxQueue {
    /// Pops the next message: control first, then the backlogged lane
    /// with the smallest virtual-time tag, charged the popped
    /// envelope's item count over the tenant's current share. A
    /// backlog arrives here already coalesced ([`Inbox::send_work`]),
    /// so one envelope is one pop.
    #[inline]
    fn pop(&mut self) -> Option<Msg> {
        if let Some(c) = self.ctrl.pop_front() {
            return Some(Msg::Ctrl(c));
        }
        let mut best: Option<usize> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.queue.is_empty() {
                continue;
            }
            match best {
                Some(b) if lane.vtime >= self.lanes[b].vtime => {}
                _ => best = Some(i),
            }
        }
        let i = best?;
        let lane = &mut self.lanes[i];
        self.vnow = lane.vtime;
        let env = lane.queue.pop_front().expect("lane checked non-empty");
        self.queued -= env.items.len();
        let weight = lane.tenant.share().max(MIN_LANE_WEIGHT);
        lane.vtime += env.items.len().max(1) as f64 / weight;
        Some(Msg::Work {
            tenant: Arc::clone(&lane.tenant),
            env,
        })
    }
}

/// A worker's inbox: a mutex-guarded structure rather than an mpsc
/// channel so that (a) a send can coalesce into the lane's tail
/// envelope and senders learn the post-push backlog in items (the
/// steal wake-up heuristic), (b) idle siblings can *steal* work
/// envelopes from the lane tails, and (c) concurrent tenants get
/// weighted-fair admission via per-tenant lanes instead of one FIFO a
/// spiking tenant could flood. The `idle` flag implements a
/// lost-wakeup-free hand-off with thieves: a worker advertises idleness
/// before scanning siblings, and anyone wanting to wake it clears the
/// flag first — a cleared flag makes a waiting thief loop back and
/// re-scan instead of sleeping through the notification.
///
/// Only the owner ever waits on `ready`, and it says so under the queue
/// lock (`InboxQueue::parked`). A sender that finds the flag up takes
/// it and notifies; one that finds it down has nobody to wake — the
/// owner re-checks the queue under the same lock before it parks.
pub(crate) struct Inbox {
    queue: Mutex<InboxQueue>,
    ready: Condvar,
    idle: AtomicBool,
}

impl Inbox {
    pub(crate) fn new() -> Self {
        Inbox {
            queue: Mutex::new(InboxQueue {
                ctrl: VecDeque::new(),
                lanes: Vec::new(),
                vnow: 0.0,
                queued: 0,
                parked: false,
            }),
            ready: Condvar::new(),
            idle: AtomicBool::new(false),
        }
    }

    /// Enqueues a work envelope on `tenant`'s lane (created on first
    /// use) and returns the items then queued across lanes, with the
    /// envelope's emptied buffer if its items were coalesced.
    ///
    /// A backlog pays the per-envelope costs once: the items join the
    /// lane's tail envelope instead when it is for the same stage
    /// under the same routing epoch and the merged count stays within
    /// the stage's stamp stride (`Shared::stride`) — one clock window
    /// of the worker that will serve it, which the stride adaptation
    /// keeps under a millisecond. Only a queued envelope grows; one
    /// already popped is the worker's, and an envelope is never split.
    /// Nothing waits for a run to fill: an idle lane's envelope is
    /// served as it arrives. The buffer handed back keeps its capacity,
    /// for the sender's next envelope.
    #[inline]
    pub(crate) fn send_work(
        &self,
        tenant: &Arc<Shared>,
        mut env: Envelope,
    ) -> (usize, Option<Vec<ItemSlot>>) {
        let mut q = self.queue.lock().expect("inbox lock poisoned");
        q.queued += env.items.len();
        let vnow = q.vnow;
        let idx = match q.lanes.iter().position(|l| l.tenant.id == tenant.id) {
            Some(i) => i,
            None => {
                q.lanes.push(Lane {
                    tenant: Arc::clone(tenant),
                    queue: VecDeque::new(),
                    vtime: vnow,
                });
                q.lanes.len() - 1
            }
        };
        let lane = &mut q.lanes[idx];
        if lane.queue.is_empty() && lane.vtime < vnow {
            // Re-activation: no banked credit from the idle period.
            lane.vtime = vnow;
        }
        let budget = tenant.stride[env.stage].load(Ordering::Relaxed) as usize;
        let spare = match lane.queue.back_mut() {
            Some(tail)
                if tail.stage == env.stage
                    && tail.epoch == env.epoch
                    && tail.items.len() + env.items.len() <= budget =>
            {
                tail.items.append(&mut env.items);
                Some(env.items)
            }
            _ => {
                lane.queue.push_back(env);
                None
            }
        };
        let depth = q.queued;
        self.wake_owner(q);
        (depth, spare)
    }

    /// Releases the queue lock after an enqueue and wakes the owner if
    /// it is parked. Taking the flag makes this sender the one that
    /// owes the wake-up, so a burst of sends behind it pays no further
    /// system call while the owner is still on its way back. The owner
    /// re-checks the queue under the lock before parking, so notifying
    /// after the unlock cannot lose the wake-up.
    #[inline]
    fn wake_owner(&self, mut q: MutexGuard<'_, InboxQueue>) {
        let parked = std::mem::take(&mut q.parked);
        drop(q);
        if parked {
            self.ready.notify_one();
        }
    }

    /// Parks the owning worker on its (empty) queue until someone
    /// notifies; spurious returns are the caller's loop to absorb.
    fn park<'a>(&self, mut q: MutexGuard<'a, InboxQueue>) -> MutexGuard<'a, InboxQueue> {
        q.parked = true;
        let mut q = self.ready.wait(q).expect("inbox lock poisoned");
        q.parked = false;
        q
    }

    /// Blocks until a message is available for the owning worker: its
    /// own queue first, then `steal` (the worker's scan of its siblings'
    /// inboxes), then a condvar wait. The idle flag is up from before
    /// the scan until a message is in hand, so a sender that calls
    /// [`Inbox::wake_if_idle`] at any point in between finds it, clears
    /// it, and thereby sends the owner round the loop again — a thief is
    /// never left asleep on a notification that came while it scanned.
    /// A worker woken from its park drops the lock and yields once before
    /// it pops, so the waker can finish its burst first.
    #[inline]
    pub(crate) fn recv(&self, mut steal: impl FnMut() -> Option<Msg>) -> Msg {
        loop {
            if let Some(msg) = self.queue.lock().expect("inbox lock poisoned").pop() {
                return msg;
            }
            // Out of local work: advertise idleness, then go stealing.
            self.idle.store(true, Ordering::SeqCst);
            if let Some(msg) = steal() {
                self.idle.store(false, Ordering::SeqCst);
                return msg;
            }
            let mut q = self.queue.lock().expect("inbox lock poisoned");
            loop {
                if let Some(msg) = q.pop() {
                    self.idle.store(false, Ordering::SeqCst);
                    return msg;
                }
                if !self.idle.load(Ordering::SeqCst) {
                    break; // a sender cleared the flag: re-scan for steals
                }
                // Woken: step aside once, without the lock, so a waker
                // on this CPU finishes its burst and the pop takes what
                // it queued as one envelope (envelope size follows the
                // queue, not the scheduler's choice of who runs next).
                drop(self.park(q));
                std::thread::yield_now();
                q = self.queue.lock().expect("inbox lock poisoned");
            }
        }
    }

    /// Gives up one work envelope to an idle sibling: the newest one
    /// within [`STEAL_SCAN`] of a lane's tail that `legal` allows, given
    /// the lane's tenant and its routing snapshot as of now. What may be
    /// stolen is the worker's rule, not the inbox's. A stolen envelope
    /// is not charged to the lane's virtual clock — the thief was idle,
    /// so the capacity was surplus.
    pub(crate) fn steal(
        &self,
        legal: impl Fn(&Shared, &RoutingSnapshot, &Envelope) -> bool,
    ) -> Option<(Arc<Shared>, Envelope)> {
        // Never wait on a victim's lock: a missed steal is cheap, a
        // stalled thief is not.
        let mut guard = self.queue.try_lock().ok()?;
        let q = &mut *guard;
        for lane in &mut q.lanes {
            if lane.queue.is_empty() {
                continue;
            }
            // The per-tenant snapshot read happens under this inbox's
            // lock; safe because no path takes an inbox lock while
            // holding a routing lock (remap commits and fault hooks run
            // after the adaptation loop released it).
            let snap = lane.tenant.snapshot();
            let lo = lane.queue.len().saturating_sub(STEAL_SCAN);
            let hit = (lo..lane.queue.len())
                .rev()
                .find(|&i| legal(&lane.tenant, &snap, &lane.queue[i]));
            if let Some(i) = hit {
                let env = lane.queue.remove(i).expect("index in range");
                q.queued -= env.items.len();
                return Some((Arc::clone(&lane.tenant), env));
            }
        }
        None
    }

    /// Enqueues a control message (served before any lane).
    pub(crate) fn send_ctrl(&self, c: Ctrl) {
        let mut q = self.queue.lock().expect("inbox lock poisoned");
        q.ctrl.push_back(c);
        self.wake_owner(q);
    }

    /// Removes `session`'s lane (dropping whatever it still queued —
    /// the tenant is detaching, so the backlog is either empty or
    /// deliberately discarded).
    pub(crate) fn drop_lane(&self, session: u64) {
        let mut q = self.queue.lock().expect("inbox lock poisoned");
        q.lanes.retain(|l| l.tenant.id != session);
        q.queued = q.lanes.iter().map(Lane::items).sum();
    }

    /// Items currently queued for `session` on this inbox.
    pub(crate) fn queued_for(&self, session: u64) -> u64 {
        let q = self.queue.lock().expect("inbox lock poisoned");
        q.lanes
            .iter()
            .filter(|l| l.tenant.id == session)
            .map(|l| l.items() as u64)
            .sum()
    }

    /// Wakes the owning worker if it advertised idleness; true if a
    /// wake was delivered. Clearing `idle` before notifying is what
    /// makes the hand-off race-free (see the struct docs). It notifies
    /// whatever `parked` says: only senders that already see a backlog
    /// come here, so there is no per-item system call to save.
    #[inline]
    pub(crate) fn wake_if_idle(&self) -> bool {
        if self.idle.swap(false, Ordering::SeqCst) {
            let guard = self.queue.lock().expect("inbox lock poisoned");
            self.ready.notify_one();
            drop(guard);
            true
        } else {
            false
        }
    }
}

/// Floor for a lane's fair-queueing weight: an arbiter granting a
/// (near-)zero share must throttle a tenant, not freeze its lane's
/// virtual clock.
pub(crate) const MIN_LANE_WEIGHT: f64 = 0.01;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{attach, ItemSlot, Pool};
    use crate::vnode::VNodeSpec;
    use adapipe_core::payload::Payload;
    use adapipe_core::pipeline::PipelineBuilder;
    use adapipe_core::spec::StageSpec;
    use adapipe_gridsim::fault::FaultPlan;
    use adapipe_gridsim::time::SimTime;
    use adapipe_mapper::share::ShareQuota;
    use adapipe_runtime::session::RunConfig;
    use std::time::Instant;

    #[test]
    fn pop_serves_ctrl_first_then_lanes_by_weighted_start_time() {
        // Two real tenants (a lane is keyed by, and weighted through, its
        // `Shared`), but an inbox of our own that no worker drains.
        let vnodes = vec![VNodeSpec::free("v0")];
        let pool = Pool::launch(vnodes.clone(), FaultPlan::new(), None);
        let tenant = || {
            let pipeline = PipelineBuilder::<u64>::new()
                .stage(StageSpec::balanced("id", 1.0, 0), |x: u64| x)
                .build();
            attach(
                &pool,
                pipeline,
                &Default::default(),
                &Default::default(),
                ShareQuota::default(),
            )
        };
        let (a, b) = (tenant(), tenant());
        a.shared.set_share(0.5);
        b.shared.set_share(0.25);
        let (ta, tb) = (&a.shared, &b.shared);

        let inbox = Inbox::new();
        let one_item = || Envelope {
            stage: 0,
            epoch: 0,
            items: vec![ItemSlot::new(0, SimTime::ZERO, Payload::new(0u64))],
        };
        // B's whole backlog is queued before A's: arrival order must
        // not matter, only the lanes' virtual-time tags.
        for _ in 0..2 {
            inbox.send_work(tb, one_item());
        }
        let mut depth = 0;
        for _ in 0..5 {
            depth = inbox.send_work(ta, one_item()).0;
        }
        assert_eq!(depth, 7, "send_work reports the depth across lanes");
        assert_eq!(inbox.queued_for(ta.id), 5);
        inbox.send_ctrl(Ctrl::Wake);

        let mut q = inbox.queue.lock().unwrap();
        assert!(matches!(q.pop(), Some(Msg::Ctrl(Ctrl::Wake))), "ctrl first");
        let mut served = Vec::new();
        while let Some(msg) = q.pop() {
            match msg {
                Msg::Work { tenant, .. } => served.push(tenant.id),
                Msg::Ctrl(_) => panic!("only one control message was sent"),
            }
        }
        drop(q);
        // One item costs A 1/0.5 = 2 and B 1/0.25 = 4 of virtual time;
        // the smallest start tag is served, ties to the older lane (B's
        // was created first): tags B0 A0 A2 B4 A4 A6 A8.
        let (ia, ib) = (ta.id, tb.id);
        assert_eq!(served, vec![ib, ia, ia, ib, ia, ia, ia]);

        drop((a, b));
        pool.shutdown();
    }

    type Session = crate::exec::EngineSession<u64, u64>;

    /// A pool of one vnode with two two-stage tenants attached, for
    /// tests that fill an inbox of their own by hand.
    fn two_tenants() -> (Arc<Pool>, Session, Session) {
        let vnodes = vec![VNodeSpec::free("v0")];
        let pool = Pool::launch(vnodes.clone(), FaultPlan::new(), None);
        let tenant = || {
            let pipeline = PipelineBuilder::<u64>::new()
                .stage(StageSpec::balanced("a", 1.0, 0), |x: u64| x)
                .stage(StageSpec::balanced("b", 1.0, 0), |x: u64| x)
                .build();
            attach(
                &pool,
                pipeline,
                &Default::default(),
                &Default::default(),
                ShareQuota::default(),
            )
        };
        let (a, b) = (tenant(), tenant());
        (pool, a, b)
    }

    fn envelope(stage: usize, epoch: u64, seqs: std::ops::Range<u64>) -> Envelope {
        Envelope {
            stage,
            epoch,
            items: seqs
                .map(|seq| ItemSlot::new(seq, SimTime::ZERO, Payload::new(seq)))
                .collect(),
        }
    }

    /// Pops one work envelope: whose it is, and the items it carries.
    fn pop_work(q: &mut InboxQueue) -> (u64, Envelope) {
        match q.pop() {
            Some(Msg::Work { tenant, env }) => (tenant.id, env),
            _ => panic!("a work envelope is queued"),
        }
    }

    /// Pops every work envelope queued on the first lane: stage, epoch
    /// and the sequence numbers each carries.
    fn drain_lane(inbox: &Inbox) -> Vec<(usize, u64, Vec<u64>)> {
        let mut q = inbox.queue.lock().unwrap();
        let mut served = Vec::new();
        while !q.lanes[0].queue.is_empty() {
            let (_, env) = pop_work(&mut q);
            let seqs = env.items.iter().map(|slot| slot.seq).collect();
            served.push((env.stage, env.epoch, seqs));
        }
        served
    }

    fn run(r: std::ops::Range<u64>) -> Vec<u64> {
        r.collect()
    }

    #[test]
    fn a_send_joins_the_queued_tail_in_fifo_order_within_the_stride() {
        let (pool, a, b) = two_tenants();
        let shared = Arc::clone(&a.shared);
        for stage in 0..2 {
            shared.stride[stage].store(8, Ordering::Relaxed);
        }
        let inbox = Inbox::new();
        let mut joined = Vec::new();
        for env in [
            envelope(0, 0, 0..3),
            envelope(0, 0, 3..5),
            // 5 + 4 items would pass the budget of 8: the tail stays
            // as it is, and this envelope is not split to top it up.
            envelope(0, 0, 5..9),
            // Another stage starts a new envelope ...
            envelope(1, 0, 9..10),
            // ... and so does another routing epoch ...
            envelope(1, 1, 10..11),
            envelope(1, 1, 11..12),
            // ... and an envelope over the budget by itself travels
            // whole and alone.
            envelope(0, 1, 12..24),
            envelope(0, 1, 24..25),
        ] {
            let first = env.items[0].seq;
            if inbox.send_work(&shared, env).1.is_some() {
                joined.push(first);
            }
        }
        assert_eq!(joined, vec![3, 11], "only these joined a queued tail");
        assert_eq!(inbox.queued_for(shared.id), 25);
        assert_eq!(
            drain_lane(&inbox),
            vec![
                (0, 0, run(0..5)),
                (0, 0, run(5..9)),
                (1, 0, run(9..10)),
                (1, 1, run(10..12)),
                (0, 1, run(12..24)),
                (0, 1, run(24..25)),
            ]
        );

        // A popped envelope is the worker's: the next send starts a new
        // one, however much room the budget leaves.
        inbox.send_work(&shared, envelope(0, 0, 25..26));
        let mut q = inbox.queue.lock().unwrap();
        let (_, served) = pop_work(&mut q);
        drop(q);
        assert!(inbox.send_work(&shared, envelope(0, 0, 26..27)).1.is_none());
        assert_eq!(served.items.len(), 1);
        assert_eq!(drain_lane(&inbox), vec![(0, 0, run(26..27))]);

        drop((a, b));
        pool.shutdown();
    }

    #[test]
    fn a_joined_send_hands_its_emptied_buffer_back() {
        let (pool, a, b) = two_tenants();
        let shared = Arc::clone(&a.shared);
        shared.stride[0].store(8, Ordering::Relaxed);
        let inbox = Inbox::new();
        inbox.send_work(&shared, envelope(0, 0, 0..1));
        let mut next = envelope(0, 0, 1..3);
        next.items.reserve(30);
        let (cap, buf) = (next.items.capacity(), next.items.as_ptr());
        let spare = inbox.send_work(&shared, next).1.expect("joined the tail");
        assert!(spare.is_empty(), "its items stay queued");
        assert_eq!(spare.capacity(), cap, "with the capacity it had");
        assert_eq!(spare.as_ptr(), buf, "the sender's own buffer");
        assert_eq!(drain_lane(&inbox), vec![(0, 0, run(0..3))]);

        drop((a, b));
        pool.shutdown();
    }

    #[test]
    fn a_stride_that_shrinks_after_a_join_leaves_the_joined_envelope_whole() {
        let (pool, a, b) = two_tenants();
        let shared = Arc::clone(&a.shared);
        shared.stride[0].store(8, Ordering::Relaxed);
        let inbox = Inbox::new();
        for seq in 0..4 {
            inbox.send_work(&shared, envelope(0, 0, seq..seq + 1));
        }
        // The serving worker measured a slower window: only sends
        // from now on see the smaller budget.
        shared.stride[0].store(1, Ordering::Relaxed);
        assert!(inbox.send_work(&shared, envelope(0, 0, 4..5)).1.is_none());
        assert_eq!(
            drain_lane(&inbox),
            vec![(0, 0, run(0..4)), (0, 0, run(4..5))]
        );

        drop((a, b));
        pool.shutdown();
    }

    #[test]
    fn the_depth_a_send_reports_counts_queued_items_across_lanes() {
        let (pool, a, b) = two_tenants();
        let (ta, tb) = (&a.shared, &b.shared);
        ta.stride[0].store(8, Ordering::Relaxed);
        let inbox = Inbox::new();
        // Eight one-item sends pack into one envelope on A's lane (a
        // stride of 8) and stay eight on B's (the default stride of 1):
        // both are a backlog of eight.
        let depths: Vec<usize> = (0..8)
            .map(|seq| inbox.send_work(ta, envelope(0, 0, seq..seq + 1)).0)
            .collect();
        assert_eq!(depths, (1..=8).collect::<Vec<_>>());
        for seq in 0..8 {
            inbox.send_work(tb, envelope(0, 0, seq..seq + 1));
        }
        {
            let q = inbox.queue.lock().unwrap();
            let envelopes: Vec<usize> = q.lanes.iter().map(|l| l.queue.len()).collect();
            assert_eq!(envelopes, vec![1, 8]);
        }
        let depth = |inbox: &Inbox| inbox.queue.lock().unwrap().queued;
        assert_eq!(depth(&inbox), 16);
        // A pop, a steal and a dropped lane each take their items off.
        let (_, env) = pop_work(&mut inbox.queue.lock().unwrap());
        assert_eq!(env.items.len(), 8);
        assert_eq!(depth(&inbox), 8);
        let stolen = inbox.steal(|_, _, _| true);
        assert_eq!(stolen.map(|(_, env)| env.items.len()), Some(1));
        assert_eq!(depth(&inbox), 7);
        inbox.drop_lane(tb.id);
        assert_eq!(depth(&inbox), 0);
        assert_eq!(inbox.send_work(ta, envelope(0, 0, 0..3)).0, 3);

        drop((a, b));
        pool.shutdown();
    }

    #[test]
    fn merged_pops_still_share_a_congested_inbox_by_weight() {
        let (pool, a, b) = two_tenants();
        a.shared.set_share(0.5);
        b.shared.set_share(0.25);
        let (ta, tb) = (&a.shared, &b.shared);
        ta.stride[0].store(8, Ordering::Relaxed);
        tb.stride[0].store(8, Ordering::Relaxed);

        let inbox = Inbox::new();
        for seq in 0..64 {
            inbox.send_work(tb, envelope(0, 0, seq..seq + 1));
        }
        for seq in 0..64 {
            inbox.send_work(ta, envelope(0, 0, seq..seq + 1));
        }
        // Nine pops leave both lanes backlogged: a congested window.
        let mut q = inbox.queue.lock().unwrap();
        let (mut items_a, mut items_b) = (0, 0);
        for _ in 0..9 {
            let (id, env) = pop_work(&mut q);
            assert_eq!(env.items.len(), 8, "a deep backlog fills the budget");
            if id == ta.id {
                items_a += env.items.len();
            } else {
                items_b += env.items.len();
            }
        }
        drop(q);
        // A lane is charged the items a pop serves, not one envelope:
        // eight items cost A 16 and B 32 of virtual time, so A is
        // served twice as often, eight items each time.
        assert_eq!((items_a, items_b), (48, 24));

        drop((a, b));
        pool.shutdown();
    }

    // --- the wake-and-steal seam ---------------------------------------

    use crate::worker::may_steal;
    use adapipe_gridsim::node::NodeId;
    use adapipe_mapper::mapping::{Mapping, Placement};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// Stage indices of [`replicated_tenant`]'s pipeline.
    const HOT: usize = 0;
    const COUNT: usize = 1;
    const SOLO: usize = 2;

    /// How long a step of the hand-off may take before the test calls
    /// it a lost wake-up.
    const WATCHDOG: Duration = Duration::from_secs(20);

    /// A pool of three vnodes nobody pushes into (its workers stay
    /// parked) and one tenant on it: `hot`, stateless, replicated on v0
    /// and v1; `count`, keyed, on the same two; `solo`, stateless, on
    /// v0 alone. The inboxes under test are the tests' own.
    fn replicated_tenant() -> (Arc<Pool>, Session) {
        let vnodes: Vec<VNodeSpec> = (0..3).map(|i| VNodeSpec::free(format!("v{i}"))).collect();
        let pool = Pool::launch(vnodes.clone(), FaultPlan::new(), None);
        let pipeline = PipelineBuilder::<u64>::new()
            .stage(StageSpec::balanced("hot", 1.0, 0), |x: u64| x)
            .then(|graph, tail| {
                let count = StageSpec::balanced("count", 1.0, 0).with_keyed_state(2, 8);
                let seen = |seen: &mut u64, x: u64| {
                    *seen += 1;
                    x
                };
                graph.keyed_node_with(count, tail, |x: &u64| *x, || 0u64, seen)
            })
            .stage(StageSpec::balanced("solo", 1.0, 0), |x: u64| x)
            .build();
        let both = || Placement::replicated(vec![NodeId(0), NodeId(1)]);
        let cfg = RunConfig {
            initial_mapping: Some(Mapping::new(vec![
                both(),
                both(),
                Placement::single(NodeId(0)),
            ])),
            ..RunConfig::default()
        };
        let session = attach(
            &pool,
            pipeline,
            &Default::default(),
            &cfg,
            ShareQuota::default(),
        );
        (pool, session)
    }

    #[test]
    fn only_a_legal_envelope_is_stolen_and_a_steal_costs_the_lane_nothing() {
        let (pool, session) = replicated_tenant();
        let shared = Arc::clone(&session.shared);
        let snap = shared.snapshot();
        let now = snap.epoch();
        // One envelope queued at `victim`; the sequence number `thief`
        // gets away with, if any.
        let attempt = |thief: usize, victim: usize, env: Envelope| {
            let inbox = Inbox::new();
            inbox.send_work(&shared, env);
            inbox
                .steal(|t, s, e| may_steal(thief, victim, t, s, e))
                .map(|(tenant, env)| (tenant.id, env.items[0].seq))
        };
        let one = |stage, epoch| envelope(stage, epoch, 5..6);

        assert_eq!(attempt(1, 0, one(HOT, now)), Some((shared.id, 5)));
        assert_eq!(attempt(1, 0, one(COUNT, now)), None, "stateful stage");
        assert_eq!(attempt(1, 0, one(HOT, now + 1)), None, "stale epoch");
        assert_eq!(attempt(2, 0, one(HOT, now)), None, "not a co-host");
        // `solo` lives on v0 alone: even v0 may not take it from v1.
        assert_eq!(attempt(0, 1, one(SOLO, now)), None, "single-host stage");
        snap.mark_down(NodeId(1));
        assert_eq!(attempt(1, 0, one(HOT, now)), None, "down thief");
        snap.mark_up(NodeId(1));
        snap.mark_down(NodeId(0));
        assert_eq!(attempt(1, 0, one(HOT, now)), None, "down victim");
        snap.mark_up(NodeId(0));
        assert_eq!(attempt(1, 0, one(HOT, now)), Some((shared.id, 5)));

        // From a backlog the thief takes the newest legal envelope
        // within the scan depth of the tail — and the lane's virtual
        // clock does not move: the capacity was surplus.
        let victim = Inbox::new();
        for seq in 0..10 {
            victim.send_work(&shared, envelope(HOT, now, seq..seq + 1));
        }
        victim.send_work(&shared, envelope(HOT, now + 1, 10..11));
        let vtime = |inbox: &Inbox| inbox.queue.lock().unwrap().lanes[0].vtime;
        let before = vtime(&victim);
        let stolen = victim.steal(|t, s, e| may_steal(1, 0, t, s, e));
        assert_eq!(stolen.map(|(_, env)| env.items[0].seq), Some(9));
        assert_eq!(vtime(&victim), before, "a steal is not charged");
        assert_eq!(victim.queued_for(shared.id), 10);
        pop_work(&mut victim.queue.lock().unwrap());
        assert!(vtime(&victim) > before, "a pop is");
        // A tail that sends joined is stolen whole, as one envelope.
        shared.stride[HOT].store(8, Ordering::Relaxed);
        let joined = Inbox::new();
        for seq in 0..6 {
            joined.send_work(&shared, envelope(HOT, now, seq..seq + 1));
        }
        let stolen = joined.steal(|t, s, e| may_steal(1, 0, t, s, e));
        let seqs = stolen.map(|(_, env)| env.items.iter().map(|slot| slot.seq).collect());
        assert_eq!(seqs, Some((0..6).collect::<Vec<u64>>()));
        assert_eq!(joined.queued_for(shared.id), 0);
        shared.stride[HOT].store(1, Ordering::Relaxed);
        // Nothing legal within the scan depth: the rest is the owner's.
        for seq in 11..11 + STEAL_SCAN as u64 {
            victim.send_work(&shared, envelope(HOT, now + 1, seq..seq + 1));
        }
        assert!(victim.steal(|t, s, e| may_steal(1, 0, t, s, e)).is_none());

        shared.done.store(true, Ordering::SeqCst);
        assert_eq!(attempt(1, 0, one(HOT, now)), None, "tenant tearing down");

        drop(session);
        pool.shutdown();
    }

    #[test]
    fn an_idle_owner_released_by_wake_if_idle_steals_instead_of_sleeping_on() {
        let (pool, session) = replicated_tenant();
        let shared = Arc::clone(&session.shared);
        let now = shared.snapshot().epoch();
        // Worker 1's inbox and its sibling's (worker 0's).
        let (own, sibling) = (Arc::new(Inbox::new()), Arc::new(Inbox::new()));
        let (scanned_tx, scanned_rx) = channel();
        let (got_tx, got_rx) = channel();
        let owner = {
            let (own, sibling, shared) =
                (Arc::clone(&own), Arc::clone(&sibling), Arc::clone(&shared));
            std::thread::spawn(move || {
                let seq_of = |msg| match msg {
                    Msg::Work { env, .. } => env.items[0].seq,
                    Msg::Ctrl(_) => panic!("only work was sent"),
                };
                let scan = || {
                    let loot = sibling.steal(|t, s, e| may_steal(1, 0, t, s, e));
                    scanned_tx.send(loot.is_some()).unwrap();
                    loot.map(|(tenant, env)| Msg::Work { tenant, env })
                };
                got_tx.send(seq_of(own.recv(scan))).unwrap();

                // Second round, the wake landing *while* the owner
                // scans: a sender fills the sibling's inbox just after
                // the scan passed it and clears the idle flag. The
                // owner must notice before it parks.
                let mut raced = false;
                let racing_scan = || {
                    if !std::mem::replace(&mut raced, true) {
                        sibling.send_work(&shared, envelope(HOT, now, 42..43));
                        assert!(own.wake_if_idle(), "idle is up during the scan");
                        return None;
                    }
                    scan()
                };
                got_tx.send(seq_of(own.recv(racing_scan))).unwrap();
            })
        };

        // The first scan finds nothing, and the owner parks with its
        // idle flag up. Wait for the park itself, not for a while.
        assert_eq!(scanned_rx.recv_timeout(WATCHDOG), Ok(false));
        let deadline = Instant::now() + WATCHDOG;
        while !own.queue.lock().unwrap().parked {
            assert!(Instant::now() < deadline, "the owner never parked");
            std::thread::yield_now();
        }
        assert!(own.idle.load(Ordering::SeqCst));
        // What a sender does when a sibling's inbox backs up: enqueue
        // there, then wake an idle co-host.
        sibling.send_work(&shared, envelope(HOT, now, 41..42));
        assert!(own.wake_if_idle(), "the owner advertised idleness");
        assert!(!own.wake_if_idle(), "and one sender took the flag");
        assert_eq!(
            scanned_rx.recv_timeout(WATCHDOG),
            Ok(true),
            "the owner slept through the notification"
        );
        assert_eq!(got_rx.recv_timeout(WATCHDOG), Ok(41));

        assert_eq!(
            scanned_rx.recv_timeout(WATCHDOG),
            Ok(true),
            "the owner parked on a flag a sender had already cleared"
        );
        assert_eq!(got_rx.recv_timeout(WATCHDOG), Ok(42));
        owner.join().unwrap();
        assert!(
            !own.idle.load(Ordering::SeqCst),
            "down with a message in hand"
        );

        drop(session);
        pool.shutdown();
    }
}
