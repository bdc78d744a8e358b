//! Worker inboxes: control messages first, then one weighted-fair lane
//! per tenant (start-time fair queueing over item counts).
//!
//! `pop`, `send_work` and `wake_if_idle` are `#[inline]`: every envelope
//! crosses them, and their callers (the worker loop, `dispatch`) live in
//! `exec` — without the hint `wire_item` reads a few percent lower.

use crate::exec::{Ctrl, Envelope, Msg, Shared};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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
}

impl InboxQueue {
    /// Pops the next message: control first, then the backlogged lane
    /// with the smallest virtual-time tag (charged by item count over
    /// the tenant's current share).
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
        let env = lane.queue.pop_front().expect("lane checked non-empty");
        let weight = lane.tenant.share().max(MIN_LANE_WEIGHT);
        lane.vtime += env.items.len().max(1) as f64 / weight;
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
pub(crate) struct Inbox {
    pub(crate) queue: Mutex<InboxQueue>,
    pub(crate) ready: Condvar,
    pub(crate) idle: AtomicBool,
}

impl Inbox {
    pub(crate) fn new() -> Self {
        Inbox {
            queue: Mutex::new(InboxQueue {
                ctrl: VecDeque::new(),
                lanes: Vec::new(),
                vnow: 0.0,
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
        drop(q);
        // The owner re-checks the queue under the lock before waiting,
        // so notifying without the lock cannot lose the wakeup.
        self.ready.notify_one();
        depth
    }

    /// Enqueues a control message (served before any lane).
    pub(crate) fn send_ctrl(&self, c: Ctrl) {
        let mut q = self.queue.lock().expect("inbox lock poisoned");
        q.ctrl.push_back(c);
        drop(q);
        self.ready.notify_one();
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
    /// makes the hand-off race-free (see the struct docs).
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
}
