//! Seeded stress of the batched, work-stealing threaded hot path under
//! adaptation chaos: a replicated stateless pipeline pushed in bursts
//! through a live session while a fault plan takes a node down and back
//! up, periodic re-planning and explicit `force_remap` calls publish new
//! routing epochs mid-stream, and idle replicas steal from loaded
//! siblings. The run must stay exactly-once — no lost items, no
//! duplicates, outputs in push order — and (via the engine's
//! debug assertions, active in this build) no envelope may ever be
//! processed against a retired routing epoch on a host that no longer
//! serves its stage.
//!
//! Beside it, the wake protocol's own legs: senders skip the condvar
//! notify when the receiving worker (or the pusher at the credit gate)
//! is not parked, so a wrong "nobody is parked" is a thread asleep for
//! good. Two ping-pong streams park every thread on nearly every item
//! and run under a progress watchdog: a lost wake-up fails the test
//! instead of hanging the suite.

use adapipe::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

fn n(i: usize) -> NodeId {
    NodeId(i)
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

const STAGE_SECS: f64 = 0.002;
const ITEMS: u64 = 300;

/// Small deterministic LCG (Numerical Recipes constants) driving the
/// push/pull/control interleaving so every run replays the same chaos.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Two replicated stateless spinning stages: enough per-item work for
/// queues to build (so idle replicas steal) and for the wall-clock
/// fault schedule to land mid-stream.
fn stress_pipeline() -> Pipeline<u64, u64> {
    Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("a", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x + 1
        })
        .stage_with(StageSpec::balanced("b", STAGE_SECS, 8), |x: u64| {
            spin_for(Duration::from_secs_f64(STAGE_SECS));
            x * 3
        })
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(60),
        })
        // Node 1 drops out at 0.15 s and returns at 0.45 s; stranded
        // envelopes replay, and the periodic controller re-maps away
        // from (then possibly back onto) it while the stream is live.
        .faults(FaultPlan::new().outage(n(1), secs(0.15), secs(0.45)))
        .feed(|i| i)
        .build()
        .expect("stress pipeline builds")
}

fn stress_vnodes() -> Vec<VNodeSpec> {
    // One deliberately slow replica host so round-robin dealing
    // overloads it and its siblings have something to steal.
    vec![
        VNodeSpec::free("v0"),
        VNodeSpec::with_speed("v1", 0.5),
        VNodeSpec::free("v2"),
        VNodeSpec::free("v3"),
    ]
}

/// The chaos run: seeded bursts of batched pushes interleaved with
/// pulls and forced re-maps, over the outage schedule above.
#[test]
fn remap_node_churn_and_stealing_stay_exactly_once() {
    let cfg = RunConfig {
        items: ITEMS,
        initial_mapping: Some(Mapping::new(vec![
            Placement::replicated(vec![n(0), n(1)]),
            Placement::replicated(vec![n(2), n(3)]),
        ])),
        // Batched envelopes on the wire, a bounded credit gate, and
        // order-preserving delivery — the full hot-path configuration.
        batch_size: 8,
        queue_capacity: Some(64),
        ..RunConfig::default()
    };
    let mut session = stress_pipeline()
        .spawn(Backend::Threads(stress_vnodes()), cfg)
        .expect("spawn threads session");

    let mut rng = Lcg(0x5eed_cafe_f00d);
    let mut outputs: Vec<u64> = Vec::with_capacity(ITEMS as usize);
    let mut pushed = 0u64;
    let mut remaps_forced = 0;
    while pushed < ITEMS {
        // Bursts of 1..=12 pushes: short bursts ride the pending
        // buffer, long ones flush whole envelopes mid-loop.
        let burst = 1 + rng.next() % 12;
        let batch: Vec<u64> = (0..burst.min(ITEMS - pushed)).map(|k| pushed + k).collect();
        pushed += batch.len() as u64;
        session.push_batch(batch).unwrap();
        // Occasionally force a re-plan so fresh routing epochs are
        // published while envelopes from older epochs are in flight.
        if rng.next().is_multiple_of(7) {
            session.force_remap();
            remaps_forced += 1;
        }
        // Pull opportunistically so the credit gate keeps cycling.
        if !rng.next().is_multiple_of(3) {
            while let TryNext::Item(o) = session.try_next() {
                outputs.push(o);
            }
        }
    }
    assert!(remaps_forced > 0, "seed never forced a remap");

    let handle = session.drain();
    outputs.extend(handle.outputs);
    assert!(
        handle.error.is_none(),
        "chaos run errored: {:?}",
        handle.error
    );

    // Exactly-once, in push order: every item observed once, no
    // duplicates, no losses, resequenced despite replay and stealing.
    let expected: Vec<u64> = (0..ITEMS).map(|i| (i + 1) * 3).collect();
    assert_eq!(outputs, expected, "lost, duplicated, or reordered items");
    assert_eq!(handle.report.completed, ITEMS);
    assert!(!handle.report.truncated, "report claims truncation");
}

/// Items per ping-pong leg.
const PING_PONG_ITEMS: u64 = 200_000;

/// No thread of a ping-pong leg legitimately sleeps longer than one
/// stage call plus a thread hand-off.
const STALL: Duration = Duration::from_secs(20);

/// Runs `body` on a thread of its own and panics if the counter it is
/// handed stops moving for [`STALL`] — a lost wake-up — rather than
/// waiting forever on a stream that will never finish.
fn watchdog(body: impl FnOnce(&AtomicU64) + Send + 'static) {
    let progress = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = channel();
    let runner = {
        let progress = Arc::clone(&progress);
        std::thread::spawn(move || {
            body(&progress);
            let _ = done_tx.send(());
        })
    };
    let mut seen = 0;
    loop {
        match done_rx.recv_timeout(STALL) {
            Ok(()) => break,
            Err(RecvTimeoutError::Timeout) => {
                let now = progress.load(Ordering::Relaxed);
                assert!(
                    now > seen,
                    "stuck at item {now} for {STALL:?} — a wake-up was lost"
                );
                seen = now;
            }
            // The body panicked: its own message is the useful one.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if let Err(panic) = runner.join() {
        std::panic::resume_unwind(panic);
    }
}

/// One trivial stage behind a one-slot queue, one item per envelope.
/// The first half streams against the credit gate (two credits: the
/// pusher parks in `acquire` on nearly every push, and each completion
/// must wake it); the second half is a strict round trip (push, block
/// for the output), where the worker finds its inbox empty after every
/// item and the next send must wake it.
fn ping_pong(vnodes: Vec<VNodeSpec>, mapping: Mapping, queue_capacity: usize) {
    watchdog(move |progress| {
        let mut session = Pipeline::<u64>::builder()
            .stage("inc", |x: u64| x + 1)
            .build()
            .expect("valid pipeline")
            .spawn(
                Backend::Threads(vnodes),
                RunConfig {
                    items: PING_PONG_ITEMS,
                    initial_mapping: Some(mapping),
                    queue_capacity: Some(queue_capacity),
                    batch_size: 1,
                    ..RunConfig::default()
                },
            )
            .expect("spawn threads session");
        let mut next_out = 0u64;
        let mut check = |out: u64| {
            next_out += 1;
            assert_eq!(out, next_out, "lost, duplicated, or reordered items");
        };
        for i in 0..PING_PONG_ITEMS / 2 {
            session.push(i).expect("a live session accepts pushes");
            while let TryNext::Item(out) = session.try_next() {
                check(out);
            }
            progress.store(i, Ordering::Relaxed);
        }
        for i in PING_PONG_ITEMS / 2..PING_PONG_ITEMS {
            session.push(i).expect("a live session accepts pushes");
            // In-order delivery: everything before `i` comes out first.
            for out in session.by_ref() {
                check(out);
                if out == i + 1 {
                    break;
                }
            }
            progress.store(i, Ordering::Relaxed);
        }
        let handle = session.drain();
        assert!(handle.error.is_none(), "run errored: {:?}", handle.error);
        assert!(handle.outputs.is_empty(), "every output was pulled");
        assert_eq!(next_out, PING_PONG_ITEMS);
        assert_eq!(handle.report.completed, PING_PONG_ITEMS);
    });
}

#[test]
fn ping_pong_through_a_one_slot_queue_loses_no_wake_up() {
    ping_pong(vec![VNodeSpec::free("v0")], Mapping::all_on(n(0), 1), 1);
}

/// The same stream over two replicas of the stage and a queue deep
/// enough for a backlog (four per boundary: a sender sees more than
/// `STEAL_WAKE_DEPTH` envelopes on one inbox), so `dispatch` also calls
/// `wake_if_idle` on the sibling — while that sibling, out of work of
/// its own, is parking or parked.
#[test]
fn ping_pong_over_two_replicas_loses_no_wake_up() {
    ping_pong(
        vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")],
        Mapping::new(vec![Placement::replicated(vec![n(0), n(1)])]),
        4,
    );
}
