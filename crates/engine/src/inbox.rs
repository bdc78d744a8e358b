//! Worker inboxes: control messages first, then one weighted-fair lane
//! per tenant (start-time fair queueing over item counts).
//!
//! `pop`, `send_work` and `wake_if_idle` are `#[inline]`: every envelope
//! crosses them, and their callers (the worker loop, `dispatch`) live in
//! `exec` — without the hint `wire_item` reads a few percent lower.

use crate::exec::{put_slot_buf, Ctrl, Envelope, Msg, Shared};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One tenant's queue inside a worker inbox, with its weighted-fair
/// virtual-time tag (start-time fair queueing): serving an envelope of
/// `n` items advances the lane's tag by `n / weight`, and the pop
/// always takes the backlogged lane with the smallest tag — so over any
/// congested window each tenant receives worker capacity proportional
/// to its share, and a spiking tenant's deep backlog cannot starve a
/// steady co-tenant's shallow one.
pub(crate) struct Lane {
    pub(crate) tenant: Arc<Shared>,
    pub(crate) queue: VecDeque<Envelope>,
    vtime: f64,
}

/// The guarded state of one worker inbox: control messages (served
/// first) plus one weighted-fair lane per tenant.
pub(crate) struct InboxQueue {
    ctrl: VecDeque<Ctrl>,
    pub(crate) lanes: Vec<Lane>,
    /// The inbox's virtual clock: the start tag of the lane served
    /// last. A lane going from empty to backlogged is clamped up to it,
    /// so idle periods bank no credit.
    vnow: f64,
    /// True while the owning worker sleeps in [`Inbox::park`] with no
    /// wake-up on its way. Only then does a sender owe it a
    /// `notify_one`, which on a futex condvar is a system call whether
    /// or not anyone listens.
    parked: bool,
}

impl InboxQueue {
    /// Pops the next message: control first, then the backlogged lane
    /// with the smallest virtual-time tag (charged by item count over
    /// the tenant's current share).
    ///
    /// A backlog pays the per-envelope costs once: the popped envelope
    /// absorbs the envelopes queued directly behind it for the same
    /// stage under the same routing epoch, in FIFO order, while the
    /// merged item count stays within the stage's stamp stride
    /// (`Shared::stride`) — one clock window of the worker that
    /// will serve it, which the stride adaptation keeps under a
    /// millisecond. An envelope is never split, and nothing waits for
    /// a run to fill: what is not queued yet travels in the next pop.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Msg> {
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
        let mut env = lane.queue.pop_front().expect("lane checked non-empty");
        let budget = lane.tenant.stride[env.stage].load(Ordering::Relaxed) as usize;
        let mut merged = env.items.len();
        let mut run = 0;
        for next in &lane.queue {
            let fits = merged + next.items.len() <= budget;
            if !fits || next.stage != env.stage || next.epoch != env.epoch {
                break;
            }
            merged += next.items.len();
            run += 1;
        }
        if run > 0 {
            env.items.reserve(merged - env.items.len());
            for mut donor in lane.queue.drain(..run) {
                env.items.append(&mut donor.items);
                put_slot_buf(donor.items);
            }
        }
        let weight = lane.tenant.share().max(MIN_LANE_WEIGHT);
        lane.vtime += merged.max(1) as f64 / weight;
        Some(Msg::Work {
            tenant: Arc::clone(&lane.tenant),
            env,
        })
    }
}

/// A worker's inbox: a mutex-guarded structure rather than an mpsc
/// channel so that (a) senders learn the post-push work depth (the
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
    pub(crate) queue: Mutex<InboxQueue>,
    ready: Condvar,
    pub(crate) idle: AtomicBool,
}

impl Inbox {
    pub(crate) fn new() -> Self {
        Inbox {
            queue: Mutex::new(InboxQueue {
                ctrl: VecDeque::new(),
                lanes: Vec::new(),
                vnow: 0.0,
                parked: false,
            }),
            ready: Condvar::new(),
            idle: AtomicBool::new(false),
        }
    }

    /// Enqueues a work envelope on `tenant`'s lane (created on first
    /// use) and returns the resulting total work depth across lanes.
    #[inline]
    pub(crate) fn send_work(&self, tenant: &Arc<Shared>, env: Envelope) -> usize {
        let mut q = self.queue.lock().expect("inbox lock poisoned");
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
        lane.queue.push_back(env);
        let depth: usize = q.lanes.iter().map(|l| l.queue.len()).sum();
        self.wake_owner(q);
        depth
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
    pub(crate) fn park<'a>(&self, mut q: MutexGuard<'a, InboxQueue>) -> MutexGuard<'a, InboxQueue> {
        q.parked = true;
        let mut q = self.ready.wait(q).expect("inbox lock poisoned");
        q.parked = false;
        q
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
    }

    /// Items currently queued for `session` on this inbox.
    pub(crate) fn queued_for(&self, session: u64) -> u64 {
        let q = self.queue.lock().expect("inbox lock poisoned");
        q.lanes
            .iter()
            .filter(|l| l.tenant.id == session)
            .flat_map(|l| l.queue.iter())
            .map(|env| env.items.len() as u64)
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
    use crate::exec::{attach, EngineConfig, ItemSlot, Pool};
    use crate::vnode::VNodeSpec;
    use adapipe_core::payload::Payload;
    use adapipe_core::pipeline::PipelineBuilder;
    use adapipe_core::spec::StageSpec;
    use adapipe_gridsim::fault::FaultPlan;
    use std::time::Instant;

    #[test]
    fn pop_serves_ctrl_first_then_lanes_by_weighted_start_time() {
        // Two real tenants (a lane is keyed by, and weighted through, its
        // `Shared`), but an inbox of our own that no worker drains.
        let vnodes = vec![VNodeSpec::free("v0")];
        let pool = Pool::launch(vnodes.clone(), FaultPlan::new());
        let tenant = || {
            let pipeline = PipelineBuilder::<u64>::new()
                .stage(StageSpec::balanced("id", 1.0, 0), |x: u64| x)
                .build();
            attach(
                &pool,
                pipeline,
                &EngineConfig::new(vnodes.clone()),
                0,
                false,
            )
        };
        let (a, b) = (tenant(), tenant());
        a.tenant_handle().set_share(0.5);
        b.tenant_handle().set_share(0.25);
        let (ta, tb) = (a.tenant_handle(), b.tenant_handle());
        let (ta, tb) = (&ta.shared, &tb.shared);

        let inbox = Inbox::new();
        let one_item = || Envelope {
            stage: 0,
            epoch: 0,
            items: vec![ItemSlot {
                seq: 0,
                born: Instant::now(),
                payload: Payload::new(0u64),
            }],
        };
        // B's whole backlog is queued before A's: arrival order must
        // not matter, only the lanes' virtual-time tags.
        for _ in 0..2 {
            inbox.send_work(tb, one_item());
        }
        let mut depth = 0;
        for _ in 0..5 {
            depth = inbox.send_work(ta, one_item());
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
        let pool = Pool::launch(vnodes.clone(), FaultPlan::new());
        let tenant = || {
            let pipeline = PipelineBuilder::<u64>::new()
                .stage(StageSpec::balanced("a", 1.0, 0), |x: u64| x)
                .stage(StageSpec::balanced("b", 1.0, 0), |x: u64| x)
                .build();
            attach(
                &pool,
                pipeline,
                &EngineConfig::new(vnodes.clone()),
                0,
                false,
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
                .map(|seq| ItemSlot {
                    seq,
                    born: Instant::now(),
                    payload: Payload::new(seq),
                })
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

    #[test]
    fn pop_merges_the_run_behind_an_envelope_in_fifo_order_within_the_stride() {
        let (pool, a, b) = two_tenants();
        let shared = Arc::clone(&a.tenant_handle().shared);
        for stage in 0..2 {
            shared.stride[stage].store(8, Ordering::Relaxed);
        }
        let inbox = Inbox::new();
        for env in [
            envelope(0, 0, 0..3),
            envelope(0, 0, 3..5),
            // 5 + 4 items would pass the budget of 8: the run ends
            // here, and this envelope is not split to top it up.
            envelope(0, 0, 5..9),
            // Another stage ends a run ...
            envelope(1, 0, 9..10),
            // ... and so does another routing epoch ...
            envelope(1, 1, 10..11),
            envelope(1, 1, 11..12),
            // ... and an envelope over the budget by itself travels
            // whole and alone.
            envelope(0, 1, 12..24),
            envelope(0, 1, 24..25),
            // The lane's end ends the last run.
        ] {
            inbox.send_work(&shared, env);
        }
        assert_eq!(inbox.queued_for(shared.id), 25);

        let mut q = inbox.queue.lock().unwrap();
        let mut served = Vec::new();
        while !q.lanes[0].queue.is_empty() {
            let (_, env) = pop_work(&mut q);
            let seqs: Vec<u64> = env.items.iter().map(|slot| slot.seq).collect();
            served.push((env.stage, env.epoch, seqs));
        }
        drop(q);
        let run = |r: std::ops::Range<u64>| r.collect::<Vec<u64>>();
        assert_eq!(
            served,
            vec![
                (0, 0, run(0..5)),
                (0, 0, run(5..9)),
                (1, 0, run(9..10)),
                (1, 1, run(10..12)),
                (0, 1, run(12..24)),
                (0, 1, run(24..25)),
            ]
        );

        drop((a, b));
        pool.shutdown();
    }

    #[test]
    fn merged_pops_still_share_a_congested_inbox_by_weight() {
        let (pool, a, b) = two_tenants();
        a.tenant_handle().set_share(0.5);
        b.tenant_handle().set_share(0.25);
        let (ta, tb) = (a.tenant_handle(), b.tenant_handle());
        let (ta, tb) = (&ta.shared, &tb.shared);
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
        // A lane is charged what a pop merged, not one envelope: eight
        // items cost A 16 and B 32 of virtual time, so A is served
        // twice as often, eight items each time.
        assert_eq!((items_a, items_b), (48, 24));

        drop((a, b));
        pool.shutdown();
    }
}
