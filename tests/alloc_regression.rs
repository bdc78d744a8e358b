//! Allocation regression gate for the threaded hot path and for the
//! planner's inner loop.
//!
//! The data plane promises O(batches) — not O(items) — heap traffic in
//! steady state: payloads ≤ 5 words (a `Vec` plus two words, or a
//! four-field record) ride inline in `Payload`, envelope and sink
//! buffers recycle through pools, and the stride-sampled fast path
//! batches its bookkeeping. A join costs one vector per item. The
//! planner promises that scoring a candidate mapping allocates
//! nothing: one `Evaluator` workspace per `plan()`, candidates shown
//! in place on one working mapping. The
//! imaging stages promise that a frame's pixels are allocated once, by
//! whoever makes the frame. These tests pin all three with a counting
//! global allocator. The counter is
//! process-wide, so the tests of this binary take turns ([`exclusive`]).

use adapipe::api::{Backend, Branch, Pipeline, RunConfig};
use adapipe_core::payload::Payload;
use adapipe_engine::vnode::VNodeSpec;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::grid::testbed_hetero8;
use adapipe_gridsim::net::{LinkSpec, Topology};
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::SimTime;
use adapipe_mapper::graph::StageGraph;
use adapipe_mapper::mapping::{Mapping, Placement};
use adapipe_mapper::model::{Evaluator, PipelineProfile};
use adapipe_mapper::search::{local_search, plan, PlannerConfig};
use adapipe_runtime::policy::Policy;
use adapipe_workloads::imaging::{imaging_pipeline, Image};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocation (and reallocation — a grow is new heap
/// traffic) while delegating to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Held by a test while it reads the counter: another test's
/// allocations must not land in its measurement.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the others still measure alone.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations made while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The hotpath bench shape: two trivial stages, `batch_size` items per
/// pushed envelope, at most `queue_capacity` items per stage boundary.
fn run(items: u64, batch_size: usize, queue_capacity: Option<usize>) {
    let outcome = Pipeline::<u64>::builder()
        .stage("inc", |x: u64| x + 1)
        .stage("double", |x: u64| x * 2)
        .feed(|i| i)
        .build()
        .expect("valid pipeline")
        .run(
            Backend::Threads(vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]),
            RunConfig {
                items,
                batch_size,
                queue_capacity,
                ..RunConfig::default()
            },
        )
        .expect("batch run");
    assert_eq!(outcome.report.completed, items);
}

/// Extra allocations 100k extra items cost a warmed-up run.
fn steady_state_cost_of_100k_items(batch_size: usize, queue_capacity: Option<usize>) -> u64 {
    // Warm-up: fills the buffer pools, lazy statics, and thread-local
    // machinery so both measured runs start from the same steady state.
    run(20_000, batch_size, queue_capacity);
    let ((), small) = allocations_in(|| run(20_000, batch_size, queue_capacity));
    let ((), large) = allocations_in(|| run(120_000, batch_size, queue_capacity));
    large.saturating_sub(small)
}

#[test]
fn steady_state_allocations_do_not_scale_per_item() {
    let _turn = exclusive();
    // Per-envelope machinery (256-item batches → ~390 extra envelopes),
    // output-vector growth, and channel nodes are all allowed; a
    // per-item allocation anywhere would cost ≥ 100k.
    let delta = steady_state_cost_of_100k_items(256, None);
    assert!(
        delta < 25_000,
        "100k extra items cost {delta} extra allocations — something \
         on the hot path allocates per item"
    );
}

/// One item per pushed envelope through a bounded queue — the default
/// granularity, and the only one a latency-bound stream can use. A push
/// whose item joins the envelope still queued at its inbox lane's tail
/// gets its buffer back for the next push, and one that starts an
/// envelope takes the buffer a worker pooled when it served the last
/// one, so the pusher allocates no buffer per item. Everything
/// downstream of the pop — chain set-up, onward envelope, sink message,
/// output batch — is paid per coalesced envelope. On a 2-vCPU host
/// this costs ~20k per 100k items confined to one CPU and 19–49k on
/// both; with no coalescing at all it is ~840k, and when the worker
/// merged the backlog at its pop (overflowing the buffer pool, then
/// allocating per push) it was 32–90k.
#[test]
fn per_item_envelopes_allocate_under_three_quarters_per_item() {
    let _turn = exclusive();
    let delta = steady_state_cost_of_100k_items(1, Some(64));
    assert!(
        delta <= 75_000,
        "100k extra single-item envelopes cost {delta} extra \
         allocations — a backlog pays per-envelope costs per item again, \
         or a push allocates its envelope's buffer"
    );
}

/// Extra allocations 100k extra items cost a warmed-up diamond,
/// `fetch → [a ‖ b] → merge`, over `T`s in 256-item envelopes on two
/// vnodes.
fn diamond_cost_of_100k_items<T>(
    fetch: fn(u64) -> T,
    a: fn(T) -> T,
    b: fn(T) -> T,
    merge: fn(Vec<T>) -> u64,
) -> u64
where
    T: Clone + Send + 'static,
{
    let run = |items: u64| {
        let outcome = Pipeline::<u64>::builder()
            .stage("fetch", fetch)
            .parallel(vec![
                Branch::new().stage("a", a),
                Branch::new().stage("b", b),
            ])
            .merge("merge", merge)
            .feed(|i| i)
            .build()
            .expect("valid pipeline")
            .run(
                Backend::Threads(vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]),
                RunConfig {
                    items,
                    batch_size: 256,
                    queue_capacity: Some(4096),
                    ..RunConfig::default()
                },
            )
            .expect("batch run");
        assert_eq!(outcome.report.completed, items);
    };
    run(20_000);
    let ((), small) = allocations_in(|| run(20_000));
    let ((), large) = allocations_in(|| run(120_000));
    large.saturating_sub(small)
}

/// A `u64` diamond. What a join costs per item is one vector: the
/// slots its inputs are assembled in, which leave as the joined vector
/// and which `merge` unpacks its typed vector into, in place. The
/// fan-out writes its copies into a vector the envelope's outbox keeps,
/// the join map and the buckets on the way to it are per envelope; a
/// second allocation per item means one of those went back to per-item.
#[test]
fn a_diamond_allocates_its_one_join_vector_per_item_and_nothing_else() {
    let _turn = exclusive();
    let delta =
        diamond_cost_of_100k_items(|x| x + 1, |x| x * 2, |x| x + 7, |parts| parts[0] + parts[1]);
    assert!(
        delta <= 150_000,
        "100k extra items through a diamond cost {delta} extra \
         allocations — more than the join's one vector per item"
    );
}

/// A four-word record, the shape of a keyed workload's parsed and
/// scored items: under `Payload`'s five inline words, so no hop spills.
#[derive(Clone, Copy)]
struct Record {
    key: u64,
    value: u64,
    score: u64,
    tag: u64,
}

/// The same diamond passing [`Record`]s: every hop's record rides
/// inline, so the join's vector is still the only allocation per item.
/// Spilling it (as at three inline words) costs a block per record per
/// hop: about 4 allocations per item.
#[test]
fn a_diamond_of_four_word_records_spills_nothing() {
    let _turn = exclusive();
    let delta = diamond_cost_of_100k_items(
        |x| Record {
            key: x % 64,
            value: x,
            score: 0,
            tag: 0,
        },
        |r| Record {
            score: r.value * 3,
            ..r
        },
        |r| Record {
            tag: r.key ^ 5,
            ..r
        },
        |parts| parts[0].score + parts[1].tag + parts[0].key,
    );
    assert!(
        delta <= 150_000,
        "100k extra 4-word records through a diamond cost {delta} \
         extra allocations — a record spills out of the payload again"
    );
}

/// Extra allocations 100k extra items cost a warmed-up keyed stage:
/// `parse → count → fmt` in 256-item envelopes, `count` keyed on 8
/// shards over 64 keys and replicated on both vnodes (4 shards each),
/// so each envelope into it splits between two owners and, at each,
/// into four shard pieces; `queue_capacity` per stage boundary, or no
/// credit gate. Through a gate the count holds only while the pusher
/// keeps its envelopes full: one that found the gate empty and shipped
/// its part-filled envelope to wait for a single credit sent about a
/// third of its envelopes short, and the count swung twofold with the
/// scheduling.
fn keyed_cost_of_100k_items(queue_capacity: Option<usize>) -> u64 {
    let run = |items: u64| {
        let single = |v| Placement::single(NodeId(v));
        let both = Placement::replicated(vec![NodeId(0), NodeId(1)]);
        let outcome = Pipeline::<u64>::builder()
            .stage("parse", |x: u64| x + 1)
            .keyed_stage(
                "count",
                8,
                |x: &u64| x % 64,
                || 0u64,
                |seen: &mut u64, x: u64| {
                    *seen += 1;
                    (x, *seen)
                },
            )
            .stage("fmt", |(x, seen): (u64, u64)| x ^ seen)
            .feed(|i| i)
            .policy(Policy::Static)
            .build()
            .expect("valid pipeline")
            .run(
                Backend::Threads(vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]),
                RunConfig {
                    items,
                    batch_size: 256,
                    queue_capacity,
                    initial_mapping: Some(Mapping::new(vec![single(0), both, single(0)])),
                    ..RunConfig::default()
                },
            )
            .expect("batch run");
        assert_eq!(outcome.report.completed, items);
    };
    run(20_000);
    let ((), small) = allocations_in(|| run(20_000));
    let ((), large) = allocations_in(|| run(120_000));
    large.saturating_sub(small)
}

/// The pieces of one envelope are served as one batch: one region, one
/// outbox, one sink message or onward envelope. On a 2-vCPU host this
/// costs 2.6–3.2k per 100k items (about 8 per pushed envelope, debug
/// and release alike). Serving each piece as a batch of its own cost
/// 6.4–7.8k; a serve list and shard buckets allocated per message
/// instead of kept by the worker, 5.3–5.6k; an allocation per item
/// would cost ≥ 100k.
#[test]
fn a_replicated_keyed_stage_allocates_per_envelope_not_per_shard_piece() {
    let _turn = exclusive();
    let delta = keyed_cost_of_100k_items(None);
    assert!(
        delta <= 4_500,
        "100k extra items through a replicated keyed stage cost {delta} \
         extra allocations — a shard piece, a message or an item \
         allocates again"
    );
}

/// The same stage behind a credit gate (4096 items per boundary), under
/// the same bound. A pusher that finds the gate empty waits for the
/// rest of its envelope at once rather than shipping it short, so the
/// gate adds no envelopes: 3.6–3.8k on a 2-vCPU host in release, where
/// flushing and waiting for one credit cost 5.5–9.1k.
#[test]
fn a_gated_replicated_keyed_stage_allocates_per_envelope_not_per_credit() {
    let _turn = exclusive();
    let delta = keyed_cost_of_100k_items(Some(4096));
    assert!(
        delta <= 4_500,
        "100k extra items through a gated replicated keyed stage cost \
         {delta} extra allocations — a blocked push ships short \
         envelopes again"
    );
}

/// The four `imaging_pipeline` stage objects, driven in process on 192²
/// frames. Blur and sobel write into a frame they own and keep the one
/// they were handed, quantise rewrites in place, the checksum drops the
/// frame: once the first frame has sized the scratch, a frame costs no
/// allocation at all, frame-sized or other. Each hop's `Image` is 40
/// bytes, exactly `Payload`'s five inline words, so it rides inline and
/// no hop touches the payload pool. Allocating kernels cost three
/// frame-sized blocks per frame: blur's and sobel's outputs and
/// quantise's clone.
#[test]
fn imaging_stages_allocate_nothing_per_frame_after_warm_up() {
    let _turn = exclusive();
    let side = 192;
    let (_, mut stages, ..) = imaging_pipeline(side).into_parts();
    let mut checksum = |frame: Image| {
        let mut item = Payload::new(frame);
        for stage in &mut stages {
            stage.process(&mut item).expect("stages are type-aligned");
        }
        item.downcast::<u64>().expect("a checksum")
    };
    // The frames are the caller's: made before the count starts.
    let frames: Vec<Image> = (1..=64).map(|i| Image::synthetic(side, side, i)).collect();
    assert!(checksum(Image::synthetic(side, side, 0)) > 0);

    let (total, allocs) = allocations_in(|| frames.into_iter().map(&mut checksum).sum::<u64>());
    assert!(total > 0);
    assert_eq!(
        allocs, 0,
        "64 frames cost {allocs} allocations — a stage allocates its \
         output again, or a frame spills out of the payload"
    );
}

/// One planning cycle of the adaptive simulation scenario (`adabench`'s
/// `sim_*` workloads): `s0 → (s1 ‖ s2) → s3 → s4 → s5` with ramped
/// work on the hetero8 testbed, 30 s after its fastest node dropped to
/// 15 %. 8^6 assignments: the local-search path, ~4,000 candidates.
#[test]
fn one_plan_allocates_a_bounded_handful() {
    let _turn = exclusive();
    let mut profile = PipelineProfile::uniform(vec![0.4, 0.6, 0.8, 1.0, 1.2, 1.4], 32 << 10);
    profile.graph = StageGraph::builder()
        .stages(1)
        .split(&[1, 1])
        .stages(2)
        .build();
    let mut grid = testbed_hetero8(7);
    FaultPlan::new()
        .slowdown(
            NodeId(0),
            SimTime::from_secs_f64(60.0),
            SimTime::from_secs_f64(1e9),
            0.15,
        )
        .apply(&mut grid);
    let rates = grid.rates_at(SimTime::from_secs_f64(90.0));
    let config = PlannerConfig::default();

    let (planned, allocs) = allocations_in(|| plan(&profile, &rates, grid.topology(), &config));
    assert!(planned.prediction.throughput > 0.0);
    // The workspace (the incumbent's node loads included), eight seeds
    // (DP tables, seed mappings), placements growing as they widen, the
    // returned prediction: 63. Cloning a mapping per candidate cost
    // ~40,000.
    assert!(
        allocs <= 100,
        "one plan() made {allocs} allocations — a candidate allocates again"
    );
}

/// A long local search — twelve stages all on one of sixteen nodes, a
/// dozen steps of ~200–400 candidates each — allocates per *stage*
/// (a placement's host list grows the first time it widens), not per
/// step and not per candidate.
#[test]
fn local_search_allocates_per_stage_not_per_candidate() {
    let _turn = exclusive();
    let (ns, np) = (12, 16);
    let work = (0..ns).map(|s| 1.0 + 0.1 * s as f64).collect();
    let profile = PipelineProfile::uniform(work, 1_000);
    let rates = vec![1.0; np];
    let topology = Topology::uniform(np, LinkSpec::lan());
    let start = Mapping::all_on(NodeId(0), ns);
    let mut ev = Evaluator::new(&profile, &rates, &topology);

    let mut found = start.clone();
    let (score, allocs) = allocations_in(|| local_search(&mut ev, &mut found, 4));
    let steps = start.diff(&found).len();
    assert!(steps >= ns - 1, "the search barely moved: {found}");
    assert!(score.throughput > 0.5, "{found} scores {score:?}");
    let budget = 2 * ns as u64 + 4;
    assert!(
        allocs <= budget,
        "{steps}+ steps made {allocs} allocations (budget {budget})"
    );
}
