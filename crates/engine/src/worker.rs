//! What one pool thread does: wait on its inbox, decide where each
//! envelope belongs, and serve, park, re-deal or re-home it.
//!
//! Replicated stateless stages form a *work-stealing pool*: each worker
//! pulls from its own inbox, and when it runs dry it scans the tail of
//! its siblings' inboxes for envelopes it may serve ([`may_steal`])
//! instead of going to sleep. A sender whose destination inbox is
//! backing up additionally wakes one idle co-host ([`deliver_env`]), so a
//! hot replica sheds load without waiting for the controller to
//! rebalance. The waiting, waking and taking are `inbox`'s protocol;
//! this file only says what is legal.
//!
//! What a worker may do with an envelope it cannot serve at once
//! follows the stage's declared access pattern, and is decided in one
//! place — [`place`] — for fresh envelopes and parked backlog alike,
//! once per `(stage, shard)`. A keyed envelope is cut into one piece per
//! shard for that decision only: the pieces placement keeps are served
//! together, as one batch ([`process_batch`]) with one region, one
//! outbox and one dispatch, however many shards the envelope spans.

use crate::exec::ItemSlot;
use crate::fusion::{process_batch, FusionPlan, SLOT_BUFS};
use crate::inbox::{Ctrl, Envelope, Msg};
use crate::pool::Pool;
use crate::tenant::{RouteCache, Shared};
use adapipe_core::metrics::StageMetrics;
use adapipe_core::stage::{quiesce, DynStage};
use adapipe_gridsim::node::NodeId;
use adapipe_runtime::routing::RoutingSnapshot;
use adapipe_state::{shard_of, StateAccess};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Inbox backlog, in queued items, beyond which a sender tries to wake
/// an idle co-host of the destination's stage (work-stealing assist).
/// Items, not envelopes: a send may coalesce into the tail envelope,
/// and the backlog a thief could relieve is the same either way.
const STEAL_WAKE_DEPTH: usize = 2;

/// A worker's thread-local view of one tenant: its stage instances,
/// parked envelopes, routing cache, and accounting (flushed into
/// `Shared::accs` when the tenant detaches).
pub(crate) struct TenantLocal {
    pub(crate) tenant: Arc<Shared>,
    /// Held stage instances, keyed by `(stage, slot)` — slot is the
    /// shard for keyed stages and `0` for everything else.
    pub(crate) local: HashMap<(usize, usize), Box<dyn DynStage>>,
    /// Parked envelopes per `(stage, slot)`: the instance is in transit
    /// (migration), or this vnode is down and the items await rescue.
    /// A queue is taken out whole when it is served, so none is empty.
    waiting: HashMap<(usize, usize), VecDeque<Envelope>>,
    /// The pieces placement decided to serve for one message, as
    /// `(slot, items)` in service order; [`serve`] hands them to one
    /// batch. Empty between messages; kept for its capacity.
    serving: Vec<(usize, Vec<ItemSlot>)>,
    /// [`handle_work`]'s per-shard buckets. Empty between messages;
    /// kept for its capacity.
    buckets: Vec<(usize, Vec<ItemSlot>)>,
    cache: RouteCache,
    pub(crate) busy: Duration,
    pub(crate) metrics: StageMetrics,
    /// Stage-fusion plan and stamp strides, refreshed lazily per
    /// routing epoch.
    pub(crate) fusion: FusionPlan,
}

impl TenantLocal {
    fn new(tenant: Arc<Shared>) -> Self {
        let cache = RouteCache::new(&tenant);
        let (ns, fusion) = (tenant.spec.len(), FusionPlan::new(&tenant.spec));
        TenantLocal {
            tenant,
            local: HashMap::new(),
            waiting: HashMap::new(),
            serving: Vec::new(),
            buckets: Vec::new(),
            cache,
            busy: Duration::ZERO,
            metrics: StageMetrics::new(ns),
            fusion,
        }
    }

    /// Flushes this worker's accounting for the tenant into the shared
    /// per-worker slot (detach / worker exit).
    fn flush_acc(self, me: usize) {
        let mut acc = self.tenant.accs[me]
            .lock()
            .expect("worker accounting poisoned");
        acc.busy += self.busy;
        match &mut acc.metrics {
            Some(m) => m.absorb(&self.metrics),
            None => acc.metrics = Some(self.metrics),
        }
    }
}

/// Worker body: serve envelopes for every attached tenant, honour
/// migrations, account busy time per tenant. Blocks on the inbox
/// (stealing from siblings before sleeping); the only exit is the
/// [`Ctrl::Shutdown`] sentinel (or the pool's done flag).
pub(crate) fn worker_loop(me: usize, pool: Arc<Pool>) {
    let mut tenants: HashMap<u64, TenantLocal> = HashMap::new();

    loop {
        let msg = pool.inboxes[me].recv(|| try_steal(me, &pool));
        // Pool teardown discards every backlog: the flag is raised
        // before the Shutdown sentinels, so a worker deep in queued work
        // exits here instead of serving the rest of its inbox first.
        if pool.done.load(Ordering::Relaxed) {
            break;
        }
        match msg {
            Msg::Work { tenant, env } => {
                // An aborted/fatally-failed tenant's backlog is
                // discarded, not served — its co-tenants keep running.
                if !tenant.done.load(Ordering::Relaxed) {
                    let tl = tenants
                        .entry(tenant.id)
                        .or_insert_with(|| TenantLocal::new(Arc::clone(&tenant)));
                    handle_work(me, env, tl);
                }
            }
            Msg::Ctrl(Ctrl::Relinquish { tenant, stage }) => {
                let tl = tenants
                    .entry(tenant.id)
                    .or_insert_with(|| TenantLocal::new(Arc::clone(&tenant)));
                relinquish(me, &pool, &tenant, stage, tl);
            }
            Msg::Ctrl(Ctrl::Wake) => {} // wake-up only; service below
            Msg::Ctrl(Ctrl::TenantGone { tenant }) => tenant_gone(me, &pool, &mut tenants, &tenant),
            Msg::Ctrl(Ctrl::Shutdown) => break,
        }
        // After every message, serve or re-route anything that became
        // actionable for any tenant: buffered items whose instance
        // landed in the depot, or whose stage has moved away meanwhile.
        for tl in tenants.values_mut() {
            if tl.tenant.done.load(Ordering::Relaxed) {
                // Aborted tenant: discard its parked backlog.
                tl.waiting.clear();
                continue;
            }
            serve_waiting(me, tl);
        }
    }
    // Pool shutdown with tenants still attached (cluster torn down
    // under live sessions): flush what accounting we have — their
    // teardown ack-waits escape on the pool flag.
    for (_, tl) in tenants.drain() {
        tl.flush_acc(me);
    }
}

/// Detaches `tenant` from worker `me`: flushes its accounting, drops
/// its local state and inbox lane, then acks. The last worker to ack
/// rings the pool's bell, which the detaching session sleeps on before
/// it reads `Shared::accs`. Once per tenant per worker, so out of the
/// message loop's line.
#[cold]
fn tenant_gone(me: usize, pool: &Pool, tenants: &mut HashMap<u64, TenantLocal>, tenant: &Shared) {
    if let Some(tl) = tenants.remove(&tenant.id) {
        tl.flush_acc(me);
    }
    pool.inboxes[me].drop_lane(tenant.id);
    let acked = tenant.detached.fetch_add(1, Ordering::SeqCst) + 1;
    if acked == pool.inboxes.len() as u64 {
        pool.bell.ring();
    }
}

/// Surrenders this worker's instances of `stage` for a migration — the
/// [`Ctrl::Relinquish`] a re-map commit sends to every old host. With
/// [`try_acquire`] it is the one place a declaration picks what happens
/// to a stage instance; "surrender" follows the declared access
/// pattern:
///
/// * **Stateless** — the replica is dropped; the depot keeps the
///   prototype and new hosts replicate their own.
/// * **Accumulator** — the local partial is snapshotted into the
///   stage's merge inbox for a surviving replica to absorb, then
///   dropped (the depot prototype seeds new replicas).
/// * **Keyed** — every locally-held shard instance is quiesced
///   (snapshot → fresh shell → restore, proving the state serializes)
///   and deposited in its shard's depot slot for the new owner.
/// * **Exclusive / Opaque** — the unique instance is quiesced and
///   deposited in slot 0; opaque closures cannot snapshot, so
///   [`quiesce`] passes the live box through unchanged.
///
/// Afterwards the stage's current hosts are woken: items they buffered
/// while the instance was in transit can be served now. The wake also
/// covers the case where this worker never held the instance (it sat in
/// the depot through a double migration) — the notification is
/// idempotent.
fn relinquish(me: usize, pool: &Pool, tenant: &Arc<Shared>, stage: usize, tl: &mut TenantLocal) {
    let state = tenant.spec.stages[stage].state;
    match state {
        StateAccess::Stateless => {
            tl.local.remove(&(stage, 0));
            return; // nothing migrates; no one is blocked on a depot slot
        }
        StateAccess::Accumulator => {
            if let Some(mut inst) = tl.local.remove(&(stage, 0)) {
                if let Some(snap) = inst.snapshot() {
                    tenant.merge_inbox[stage]
                        .lock()
                        .expect("merge inbox poisoned")
                        .push(snap);
                }
            }
        }
        StateAccess::Keyed { .. } | StateAccess::Exclusive | StateAccess::Opaque => {
            for slot in 0..state.shards().max(1) {
                if let Some(inst) = tl.local.remove(&(stage, slot)) {
                    let (inst, _bytes) = quiesce(inst);
                    tenant.depot[stage][slot]
                        .lock()
                        .expect("depot lock poisoned")
                        .replace(inst);
                }
            }
        }
    }
    let snap = tl.cache.current(tenant).clone();
    for &h in snap.hosts(stage) {
        if h.index() != me {
            pool.inboxes[h.index()].send_ctrl(Ctrl::Wake);
        }
    }
}

/// Scans the sibling inboxes, nearest first, for one envelope idle
/// worker `me` may serve.
fn try_steal(me: usize, pool: &Pool) -> Option<Msg> {
    let np = pool.inboxes.len();
    (1..np).map(|off| (me + off) % np).find_map(|victim| {
        let (tenant, env) =
            pool.inboxes[victim].steal(|t, snap, env| may_steal(me, victim, t, snap, env))?;
        tenant.steals.fetch_add(1, Ordering::Relaxed);
        Some(Msg::Work { tenant, env })
    })
}

/// Whether idle worker `thief` may serve `env`, queued at `victim` for
/// `tenant`: the stage must be stateless (stateful instances are
/// pinned) and currently replicated onto the thief under the tenant's
/// *current* routing epoch (stale envelopes belong to their addressee,
/// which re-homes them on arrival). A down worker never steals; down
/// victims keep their backlog for the replay/rescue path, which does
/// the fault accounting; a tenant tearing down has nothing worth
/// serving.
pub(crate) fn may_steal(
    thief: usize,
    victim: usize,
    tenant: &Shared,
    snap: &RoutingSnapshot,
    env: &Envelope,
) -> bool {
    !tenant.done.load(Ordering::Relaxed)
        && !snap.is_down(NodeId(thief))
        && !snap.is_down(NodeId(victim))
        && tenant.spec.stages[env.stage].state.is_stateless()
        && env.epoch == snap.epoch()
        && snap.contains(env.stage, NodeId(thief))
        && snap.hosts(env.stage).len() > 1
}

/// Serves one fresh work envelope as one batch: whole for an unkeyed
/// stage; for a keyed one, cut per shard so that [`place`] decides for
/// each shard against its own instance slot (a shard's keys pin to its
/// owner), then every piece placement keeps goes to one
/// [`process_batch`].
fn handle_work(me: usize, env: Envelope, tl: &mut TenantLocal) {
    let (stage, epoch) = (env.stage, env.epoch);
    let snap = tl.cache.current(&tl.tenant).clone();
    let shards = tl.tenant.spec.stages[stage].state.shards();
    if shards == 0 {
        place(me, tl, &snap, stage, 0, Some(env));
    } else {
        let mut buckets = std::mem::take(&mut tl.buckets);
        let cap = env.items.len().div_ceil(shards);
        for slot in env.items {
            let shard = shard_of(tl.tenant.key_hash(stage, &slot), shards);
            push_bucket(&mut buckets, shard, slot, cap);
        }
        for (shard, items) in buckets.drain(..) {
            let piece = Envelope {
                stage,
                epoch,
                items,
            };
            place(me, tl, &snap, stage, shard, Some(piece));
        }
        tl.buckets = buckets;
    }
    serve(me, tl, &snap, stage);
}

/// Serves every waiting queue that became actionable: each stage's
/// shards placed in turn, then what they hold served as one batch.
fn serve_waiting(me: usize, tl: &mut TenantLocal) {
    if tl.waiting.is_empty() {
        return;
    }
    let snap = tl.cache.current(&tl.tenant).clone();
    let mut keys: Vec<(usize, usize)> = tl.waiting.keys().copied().collect();
    keys.sort_unstable();
    for stage_keys in keys.chunk_by(|a, b| a.0 == b.0) {
        let stage = stage_keys[0].0;
        for &(_, slot) in stage_keys {
            place(me, tl, &snap, stage, slot, None);
        }
        serve(me, tl, &snap, stage);
    }
}

/// Hands what [`place`] kept for `stage` to one [`process_batch`].
fn serve(me: usize, tl: &mut TenantLocal, snap: &RoutingSnapshot, stage: usize) {
    if tl.serving.is_empty() {
        return;
    }
    let mut pieces = std::mem::take(&mut tl.serving);
    process_batch(me, tl, snap, stage, &mut pieces);
    tl.serving = pieces;
}

/// The one placement decision: what this worker does with the items it
/// holds for `(stage, slot)` — the backlog parked earlier, oldest first,
/// then the `fresh` envelope (or shard piece of one) just received, if
/// any — under `snap`, the routing state as of this message. In order:
///
/// * **not owned** — the stage, or this shard of it, is mapped
///   elsewhere: re-home the items to the current owner (counted in
///   `Shared::rehomed`). Off a down vnode this is the post-re-map
///   rescue, and each item counts as a replay.
/// * **this vnode is down** — it must not serve. Re-deal what a live
///   replica can absorb and park the rest; keyed items pin to their
///   shard owner and all park. The forced re-map moves the stage away,
///   and the wake-up its Relinquish sends lands here again.
/// * **instance in transit** — park behind whatever is parked already:
///   the previous host has not deposited the instance yet. The
///   post-message scan ([`serve_waiting`]) retries.
/// * **otherwise** — queue for service, the backlog first: the caller
///   ([`serve`]) runs every piece queued for the message in one batch.
fn place(
    me: usize,
    tl: &mut TenantLocal,
    snap: &Arc<RoutingSnapshot>,
    stage: usize,
    slot: usize,
    fresh: Option<Envelope>,
) {
    let key = (stage, slot);
    let shared = &tl.tenant;
    let me_down = snap.is_down(NodeId(me));
    let keyed = shared.spec.stages[stage].state.shards() > 0;
    // Shard ownership, not mere stage hosting: a co-host that lost this
    // shard in a re-balance must forward its items.
    let owned =
        snap.contains(stage, NodeId(me)) && (!keyed || snap.shard_owner(stage, slot).index() == me);
    let park = if !owned {
        false
    } else if me_down {
        keyed
    } else {
        !try_acquire(shared, &mut tl.local, stage, slot)
    };
    if park {
        tl.waiting.entry(key).or_default().extend(fresh);
        return;
    }
    let parked = tl.waiting.remove(&key);
    for env in parked.into_iter().flatten().chain(fresh) {
        if !owned {
            // The sender routed by a snapshot no newer than ours (the
            // inbox hand-off orders its epoch load before ours), and
            // ownership is immutable per snapshot — so a current-epoch
            // envelope always lands on a current owner, and a parked
            // one was owned under the epoch it was parked in. Arriving
            // here proves the envelope is stale.
            debug_assert_ne!(
                env.epoch,
                snap.epoch(),
                "current-epoch envelope held by a non-owner of stage {stage}"
            );
            let shared = &tl.tenant;
            shared
                .rehomed
                .fetch_add(env.items.len() as u64, Ordering::Relaxed);
            if me_down {
                for item in &env.items {
                    shared.note_replay(item.seq, stage, me);
                }
            }
            if let Some(buf) = ship(shared, snap, stage, env.items) {
                SLOT_BUFS.put(buf);
            }
        } else if me_down {
            let items = redeal(&tl.tenant, snap, me, stage, env.items);
            if !items.is_empty() {
                let env = Envelope {
                    stage,
                    epoch: snap.epoch(),
                    items,
                };
                tl.waiting.entry(key).or_default().push_back(env);
            }
        } else {
            tl.serving.push((slot, env.items));
        }
    }
}

/// Re-deals a down vnode's items to live replicas (counted and
/// announced as replays), returning the remainder to park — every
/// replica is down, so only a re-map can rescue those, and the rescue
/// flush happens on the Relinquish wake-up that re-map sends here. The
/// snapshot is lock-free, so a deep stranded backlog cannot contend the
/// adaptation thread's recovery re-map.
fn redeal(
    shared: &Arc<Shared>,
    snap: &RoutingSnapshot,
    me: usize,
    stage: usize,
    items: Vec<ItemSlot>,
) -> Vec<ItemSlot> {
    deal(shared, snap, stage, items, |slot| {
        let dest = snap.route(stage);
        let live = dest.index() != me && !snap.is_down(dest);
        if live {
            shared.note_replay(slot.seq, stage, me);
        }
        live.then_some(dest.index())
    })
}

/// Ensures `local` holds an instance of `(stage, slot)`; true on
/// success. With [`relinquish`] it is the one place a declaration
/// picks how many instances of a stage run: stateless and accumulator
/// stages copy the depot prototype ([`DynStage::fresh`]: every host
/// gets its own replica / partial); keyed stages take their shard's
/// unique instance, exclusive and opaque stages the stage's unique
/// instance, which is never copied — `false` while a migration still
/// has it in transit (the previous host has not deposited it yet).
pub(crate) fn try_acquire(
    shared: &Shared,
    local: &mut HashMap<(usize, usize), Box<dyn DynStage>>,
    stage: usize,
    slot: usize,
) -> bool {
    if local.contains_key(&(stage, slot)) {
        return true;
    }
    match shared.spec.stages[stage].state {
        StateAccess::Stateless | StateAccess::Accumulator => {
            let proto = shared.depot[stage][0].lock().expect("depot lock poisoned");
            if let Some(proto) = proto.as_ref() {
                if let Some(replica) = proto.fresh() {
                    local.insert((stage, slot), replica);
                    return true;
                }
            }
            false
        }
        StateAccess::Keyed { .. } | StateAccess::Exclusive | StateAccess::Opaque => {
            let mut cell = shared.depot[stage][slot]
                .lock()
                .expect("depot lock poisoned");
            match cell.take() {
                Some(inst) => {
                    local.insert((stage, slot), inst);
                    true
                }
                None => false, // still held by the previous host
            }
        }
    }
}

/// Appends `slot` to the batch bucketed under `key` — the consuming
/// stage, the shard, the join slot — creating the bucket on first use
/// (from the buffer pool, with room for the `cap` items the caller
/// expects it to collect, so it does not regrow item by item). Linear
/// pipelines keep exactly one bucket, so this is a length-1 scan — no
/// per-item allocation.
pub(crate) fn push_bucket<K: PartialEq>(
    buckets: &mut Vec<(K, Vec<ItemSlot>)>,
    key: K,
    slot: ItemSlot,
    cap: usize,
) {
    match buckets.iter_mut().find(|(k, _)| *k == key) {
        Some((_, batch)) => batch.push(slot),
        None => {
            let mut batch = SLOT_BUFS.take(cap);
            batch.push(slot);
            buckets.push((key, batch));
        }
    }
}

/// Routes `items` of `stage` against `snap` and delivers them bucketed
/// per destination worker. The single-host case (linear pipelines)
/// skips per-item routing entirely; replicated stages keep per-item
/// round-robin dealing inside the batch. Returns `items`' emptied
/// buffer when the single destination hands it back ([`deliver_env`]),
/// for the caller to reuse or pool.
#[must_use]
pub(crate) fn ship(
    shared: &Arc<Shared>,
    snap: &RoutingSnapshot,
    stage: usize,
    items: Vec<ItemSlot>,
) -> Option<Vec<ItemSlot>> {
    let hosts = snap.hosts(stage);
    if hosts.len() == 1 {
        let dest = hosts[0].index();
        return deliver_env(shared, snap, stage, dest, items);
    } else if shared.spec.stages[stage].state.shards() > 0 {
        // Keyed stage: every item is pinned to its key's shard owner —
        // never dealt round-robin, never detoured around a down owner
        // (the state lives there; a re-map moves it, then the items).
        deal(shared, snap, stage, items, |slot| {
            let hash = shared.key_hash(stage, slot);
            Some(snap.route_keyed(stage, hash).index())
        });
    } else {
        deal(shared, snap, stage, items, |_| {
            Some(snap.route(stage).index())
        });
    }
    None
}

/// Deals `items` of `stage` into one bucket per destination worker —
/// `dest_of` names each item's, or `None` to keep it back — and
/// delivers every non-empty bucket as one envelope. Returns the items
/// kept back.
fn deal(
    shared: &Arc<Shared>,
    snap: &RoutingSnapshot,
    stage: usize,
    mut items: Vec<ItemSlot>,
    mut dest_of: impl FnMut(&ItemSlot) -> Option<usize>,
) -> Vec<ItemSlot> {
    let cap = items.len();
    let mut buckets: Vec<Vec<ItemSlot>> = (0..shared.pool.inboxes.len())
        .map(|_| SLOT_BUFS.take(cap))
        .collect();
    let mut kept = Vec::new();
    for slot in items.drain(..) {
        match dest_of(&slot) {
            Some(dest) => buckets[dest].push(slot),
            None => kept.push(slot),
        }
    }
    SLOT_BUFS.put(items);
    for (dest, batch) in buckets.into_iter().enumerate() {
        if let Some(buf) = deliver_env(shared, snap, stage, dest, batch) {
            SLOT_BUFS.put(buf);
        }
    }
    kept
}

/// Enqueues one envelope on `dest`'s inbox lane for this tenant. The
/// buffer comes back emptied if there was nothing to send or the inbox
/// coalesced the items into the lane's tail
/// ([`Inbox::send_work`](crate::inbox::Inbox::send_work)).
fn deliver_env(
    shared: &Arc<Shared>,
    snap: &RoutingSnapshot,
    stage: usize,
    dest: usize,
    items: Vec<ItemSlot>,
) -> Option<Vec<ItemSlot>> {
    if items.is_empty() {
        return Some(items);
    }
    let env = Envelope {
        stage,
        epoch: snap.epoch(),
        items,
    };
    let (depth, spare) = shared.pool.inboxes[dest].send_work(shared, env);
    // If the inbox is backing up and the stage has live sibling
    // replicas, wake one idle co-host so it starts stealing instead of
    // sleeping through the backlog.
    if depth > STEAL_WAKE_DEPTH && shared.spec.stages[stage].state.is_stateless() {
        let hosts = snap.hosts(stage);
        if hosts.len() > 1 {
            for &h in hosts {
                if h.index() != dest
                    && !snap.is_down(h)
                    && shared.pool.inboxes[h.index()].wake_if_idle()
                {
                    break;
                }
            }
        }
    }
    spare
}

#[cfg(test)]
mod tests;
