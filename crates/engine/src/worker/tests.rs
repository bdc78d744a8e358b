//! Placement and the one-batch path: a worker parks, re-homes or
//! serves what it holds per `(stage, shard)`, and serves what it keeps
//! of one message as one batch. Most tests play worker 0 with a
//! `TenantLocal` of their own, on a tenant no worker thread sees.

use super::*;
use crate::exec::{attach, spawn, Pool};
use crate::tenant::SinkMsg;
use crate::vnode::VNodeSpec;
use adapipe_core::payload::Payload;
use adapipe_core::pipeline::{Pipeline, PipelineBuilder};
use adapipe_core::spec::StageSpec;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::time::SimTime;
use adapipe_mapper::mapping::{Mapping, Placement};
use adapipe_mapper::share::ShareQuota;
use adapipe_runtime::session::{LiveSession, RunConfig, Session};
use std::sync::mpsc::Receiver;
use std::sync::Mutex;

#[test]
fn a_parked_backlog_shipped_to_the_new_owner_counts_as_rehomed() {
    // One stateful stage on v0 of a pool nobody pushes into; this
    // test plays worker 0 with a `TenantLocal` of its own.
    let vnodes: Vec<VNodeSpec> = (0..2).map(|i| VNodeSpec::free(format!("v{i}"))).collect();
    let pool = Pool::launch(vnodes.clone(), FaultPlan::new(), None);
    let pipeline = PipelineBuilder::<u64>::new()
        .then(|graph, tail| {
            let sum = StageSpec::balanced("sum", 1.0, 0).with_state(8);
            graph.stateful_node_with(sum, tail, |x: u64| x)
        })
        .build();
    let cfg = RunConfig {
        initial_mapping: Some(Mapping::all_on(NodeId(0), 1)),
        ..RunConfig::default()
    };
    let session = attach(
        &pool,
        pipeline,
        &Session::default(),
        &cfg,
        ShareQuota::default(),
    );
    let shared = Arc::clone(&session.shared);
    let mut tl = TenantLocal::new(Arc::clone(&shared));

    // The instance is in transit (a migration's previous host has
    // not deposited it yet): a fresh envelope parks.
    let in_transit = shared.depot[0][0].lock().unwrap().take();
    assert!(in_transit.is_some());
    let items = (0..3)
        .map(|seq| ItemSlot::new(seq, SimTime::ZERO, Payload::new(seq)))
        .collect();
    let (stage, epoch) = (0, shared.snapshot().epoch());
    handle_work(
        0,
        Envelope {
            stage,
            epoch,
            items,
        },
        &mut tl,
    );
    assert_eq!(tl.waiting[&(0, 0)].len(), 1);
    assert_eq!(shared.rehomed.load(Ordering::Relaxed), 0);

    // The migration stalls and the controller moves the stage on:
    // the next scan ships the backlog to v1 — a re-homing like any
    // other, and counted as one.
    shared
        .routing
        .write()
        .unwrap()
        .install(Mapping::all_on(NodeId(1), 1));
    serve_waiting(0, &mut tl);
    assert!(tl.waiting.is_empty());
    assert_eq!(shared.rehomed.load(Ordering::Relaxed), 3);

    drop(session);
    pool.shutdown();
}

/// Keys the keyed counter sees: a multiple of [`SHARDS`], so item `x`
/// (key `x % KEYS`) lives in shard `x % SHARDS`.
const KEYS: u64 = 24;
const SHARDS: usize = 8;

/// One keyed stage, 8 shards: counts the items of key `x % KEYS` and
/// emits `(key, seen, x)`, `seen` counting this item.
fn counter() -> Pipeline<u64, (u64, u64, u64)> {
    let spec = StageSpec::balanced("count", 1.0, 8).with_keyed_state(SHARDS, 64);
    let count = |seen: &mut u64, x: u64| {
        *seen += 1;
        (x % KEYS, *seen, x)
    };
    PipelineBuilder::<u64>::new()
        .then(|graph, tail| graph.keyed_node_with(spec, tail, |x: &u64| x % KEYS, || 0u64, count))
        .build()
}

/// A tenant of `pipeline`, all on v0 of a one-vnode pool, registered
/// with no pool and drained by no collector: its sink is the test's.
fn lone_tenant<I, O>(pipeline: Pipeline<I, O>) -> (Arc<Pool>, Arc<Shared>, Receiver<SinkMsg>) {
    let pool = Pool::launch(vec![VNodeSpec::free("v0")], FaultPlan::new(), None);
    let on_v0 = Mapping::all_on(NodeId(0), pipeline.spec().len());
    let (shared, sink) = Shared::new(0, &pool, pipeline, &RunConfig::default(), on_v0);
    (pool, shared, sink)
}

/// Items `seqs` as one envelope for stage 0, each item its own
/// sequence number.
fn envelope(shared: &Shared, seqs: std::ops::Range<u64>) -> Envelope {
    let items = seqs
        .map(|seq| ItemSlot::new(seq, SimTime::ZERO, Payload::new(seq)))
        .collect();
    Envelope {
        stage: 0,
        epoch: shared.snapshot().epoch(),
        items,
    }
}

/// The counter's sink messages so far, one vector per message.
fn sink_batches(sink: &Receiver<SinkMsg>) -> Vec<Vec<(u64, u64, u64)>> {
    let batch = |msg| match msg {
        SinkMsg::Done(batch) => batch
            .into_iter()
            .map(|fin: ItemSlot| fin.payload.downcast().expect("a counter output"))
            .collect(),
        _ => panic!("only finished batches were expected"),
    };
    sink.try_iter().map(batch).collect()
}

#[test]
fn a_keyed_envelope_serves_its_held_shards_as_one_batch_and_parks_the_rest() {
    let (pool, shared, sink) = lone_tenant(counter());
    let mut tl = TenantLocal::new(Arc::clone(&shared));
    // Shards 1 and 5 are in migration transit: their previous host has
    // not deposited them yet.
    let in_transit: Vec<(usize, Box<dyn DynStage>)> = [1, 5]
        .into_iter()
        .map(|shard| {
            (
                shard,
                shared.depot[0][shard].lock().unwrap().take().unwrap(),
            )
        })
        .collect();
    let mut outputs = Vec::new();
    // Two envelopes of six items per shard: each serves the six held
    // shards as one batch, and one sink message, and parks the others.
    for (round, seqs) in [0..48, 48..96].into_iter().enumerate() {
        handle_work(0, envelope(&shared, seqs), &mut tl);
        let batches = sink_batches(&sink);
        assert_eq!(batches.len(), 1, "one sink message per envelope");
        assert_eq!(batches[0].len(), 36);
        assert!(batches[0].iter().all(|o| o.2 % 8 != 1 && o.2 % 8 != 5));
        outputs.extend(batches.concat());
        let mut parked: Vec<(usize, usize)> = tl.waiting.keys().copied().collect();
        parked.sort_unstable();
        assert_eq!(parked, [(0, 1), (0, 5)]);
        assert!(tl.waiting.values().all(|queue| queue.len() == round + 1));
    }
    // The instances land. The next envelope serves both backlogs ahead
    // of its own items, all eight shards in one batch.
    for (shard, inst) in in_transit {
        shared.depot[0][shard].lock().unwrap().replace(inst);
    }
    handle_work(0, envelope(&shared, 96..144), &mut tl);
    serve_waiting(0, &mut tl);
    assert!(tl.waiting.is_empty());
    let batches = sink_batches(&sink);
    assert_eq!(batches.len(), 1, "backlog and fresh items in one batch");
    assert_eq!(batches[0].len(), 48 + 2 * 12);
    outputs.extend(batches.concat());
    // Every item exactly once, and each key counted in input order.
    let mut xs: Vec<u64> = outputs.iter().map(|o| o.2).collect();
    xs.sort_unstable();
    assert_eq!(xs, (0..144).collect::<Vec<_>>());
    for key in 0..KEYS {
        let mut counted: Vec<(u64, u64)> = outputs
            .iter()
            .filter(|o| o.0 == key)
            .map(|o| (o.2, o.1))
            .collect();
        counted.sort_unstable();
        let seen: Vec<u64> = counted.iter().map(|c| c.1).collect();
        assert_eq!(seen, (1..=6).collect::<Vec<_>>(), "key {key}: {counted:?}");
    }
    drop(tl);
    pool.shutdown();
}

#[test]
fn a_remap_moving_every_shard_mid_stream_keeps_each_keys_count_exact() {
    const ITEMS: u64 = 3000;
    let on = |hosts: [usize; 2]| {
        let hosts = hosts.into_iter().map(NodeId).collect();
        Mapping::new(vec![Placement::replicated(hosts)])
    };
    let cfg = RunConfig {
        batch_size: 64,
        initial_mapping: Some(on([0, 1])),
        ..RunConfig::default()
    };
    let vnodes = (0..3).map(|i| VNodeSpec::free(format!("v{i}"))).collect();
    let mut session = spawn(counter(), vnodes, &Session::default(), &cfg);
    session.push_batch(&mut (0..ITEMS / 2)).unwrap();
    // Every shard changes owner (even ones v0 → v1, odd ones v1 → v2),
    // committed the way a re-map commits: the new routing, then a
    // Relinquish to each old host.
    let shared = Arc::clone(&session.shared);
    shared.routing.write().unwrap().install(on([1, 2]));
    for old in [0, 1] {
        let tenant = Arc::clone(&shared);
        shared.pool.inboxes[old].send_ctrl(Ctrl::Relinquish { tenant, stage: 0 });
    }
    session.push_batch(&mut (ITEMS / 2..ITEMS)).unwrap();
    session.close();
    let outputs: Vec<(u64, u64, u64)> = session.by_ref().collect();
    assert_eq!(session.drain().report.completed, ITEMS);
    // Each key was counted 1, 2, … up to the inline reference's count:
    // no item counted twice or lost, no shard's state reset.
    for key in 0..KEYS {
        let mut seen: Vec<u64> = outputs.iter().filter(|o| o.0 == key).map(|o| o.1).collect();
        seen.sort_unstable();
        let reference = (0..ITEMS).filter(|x| x % KEYS == key).count() as u64;
        assert_eq!(seen, (1..=reference).collect::<Vec<_>>(), "key {key}");
    }
}

#[test]
fn a_fatal_failure_in_the_first_piece_ships_nothing_from_the_later_ones() {
    let presented = Arc::new(Mutex::new(Vec::new()));
    let count = {
        let presented = Arc::clone(&presented);
        move |x: u64| {
            presented.lock().unwrap().push(x);
            if x == 16 {
                Err(format!("item {x} refused"))
            } else {
                Ok(x)
            }
        }
    };
    let spec = StageSpec::balanced("count", 1.0, 8).with_keyed_state(SHARDS, 64);
    let pipeline = PipelineBuilder::<u64>::new()
        .then(|graph, tail| graph.try_node_with(spec, tail, count))
        .build();
    let (pool, shared, sink) = lone_tenant(pipeline);
    let mut tl = TenantLocal::new(Arc::clone(&shared));
    // With no key extractor, items route by sequence number: item `x`
    // goes to shard `x % 8`, and the first piece is shard 0's (0, 8,
    // 16, 24). Item 16 fails the run under the default policy.
    handle_work(0, envelope(&shared, 0..32), &mut tl);
    assert_eq!(*presented.lock().unwrap(), [0, 8, 16], "a later piece ran");
    let msgs: Vec<SinkMsg> = sink.try_iter().collect();
    assert!(
        matches!(msgs.as_slice(), [SinkMsg::Fatal]),
        "the batch shipped what it had finished"
    );
    drop(tl);
    pool.shutdown();
}
