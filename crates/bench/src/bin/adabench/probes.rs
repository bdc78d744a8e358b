//! Per-layer probes: each layer's public entry points timed from
//! outside, in batches of many calls, on the types and shapes of the
//! workload that layer matters to (the `keyed_dag` key space and shard
//! count, the `imaging` frame size, the `sim_*` pipeline profile, grid
//! and topology). A probe is taken in the traced run of that workload
//! and reads 0 in every other, so `--all --trace 1` takes each once.
//!
//! A probe reports the median over its batches of (batch wall time ÷
//! calls in the batch); every batch is one span.

use crate::report::Metric;
use crate::trace::Tracer;
use crate::{gen, imaging, keyed, sim};
use adapipe::api::ArrivalProcess;
use adapipe_core::payload::Payload;
use adapipe_gridsim::event::EventQueue;
use adapipe_gridsim::node::NodeId;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_mapper::decide::{should_remap, DecisionConfig};
use adapipe_mapper::mapping::{Mapping, Placement};
use adapipe_mapper::model::evaluate;
use adapipe_mapper::search::{plan, PlannerConfig};
use adapipe_monitor::sensor::MetricBank;
use adapipe_runtime::policy::Policy;
use adapipe_runtime::routing::{RoutingTable, Selection};
use adapipe_state::{fnv1a, shard_of, StateCodec};
use adapipe_workloads::imaging::{blur, quantise, sobel, Image};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe: the reported value is their median.
const BATCHES: usize = 11;

/// Times `BATCHES` batches of `calls` calls of `f` and returns the
/// per-call time of each batch, in units of `1 / per_sec` seconds.
fn per_call(
    tr: &mut Tracer,
    name: &'static str,
    calls: usize,
    per_sec: f64,
    mut f: impl FnMut(usize),
) -> Vec<f64> {
    (0..BATCHES)
        .map(|batch| {
            let span = tr.begin(name);
            let t0 = Instant::now();
            for i in 0..calls {
                f(batch * calls + i);
            }
            let secs = t0.elapsed().as_secs_f64();
            tr.end_calls(span, calls as u32);
            secs * per_sec / calls as f64
        })
        .collect()
}

const NS: f64 = 1e9;
const US: f64 = 1e6;

/// Runs the probes shaped on `workload` and appends one metric each to
/// `out`.
pub fn run_for(workload: &str, seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    let all = tr.begin("probes");
    match workload {
        "wire_batch" => word_payload_probe(seed, tr, out),
        "keyed_dag" => {
            runtime_probes(seed, tr, out);
            state_probes(seed, tr, out);
        }
        "imaging" => {
            frame_payload_probe(seed, tr, out);
            kernel_probes(seed, tr, out);
        }
        "sim_adaptive" => planner_probes(seed, tr, out),
        "sim_static" => gridsim_probes(seed, tr, out),
        _ => {}
    }
    tr.end(all);
}

fn word_payload_probe(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    let word = per_call(tr, "core.payload_roundtrip", 100_000, NS, |i| {
        let p = Payload::new(black_box(gen::wire_item(seed, i as u64)));
        black_box(p.downcast::<u64>().expect("a u64 went in"));
    });
    out.push(Metric::over("core.payload_roundtrip_ns", "ns", &word));
}

fn frame_payload_probe(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    // A 36 KB frame does not fit the inline words: this is the spill to
    // a pooled block and back, moving the frame's heap buffer untouched.
    let mut frame = Some(Image::synthetic(imaging::SIDE, imaging::SIDE, seed));
    let spill = per_call(tr, "core.payload_image_roundtrip", 100_000, NS, |_| {
        let p = Payload::new(frame.take().expect("the frame came back"));
        frame = Some(black_box(p).downcast::<Image>().expect("an Image went in"));
    });
    out.push(Metric::over(
        "core.payload_image_roundtrip_ns",
        "ns",
        &spill,
    ));
}

fn keyed_mapping(count_hosts: Vec<NodeId>) -> Mapping {
    let v0 = || Placement::single(NodeId(0));
    Mapping::new(vec![
        v0(),
        v0(),
        v0(),
        v0(),
        Placement::replicated(count_hosts),
        v0(),
    ])
}

fn runtime_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    // The `keyed_dag` routing table: six stages, `count` keyed over 8
    // shards on both vnodes.
    let spread = keyed_mapping(vec![NodeId(0), NodeId(1)]);
    let packed = keyed_mapping(vec![NodeId(0)]);
    let mut shards = vec![0; 6];
    shards[4] = keyed::SHARDS;
    let mut table = RoutingTable::with_selection(spread.clone(), Selection::RoundRobin, 2)
        .with_stage_shards(shards);
    let snapshot = table.snapshot();
    let route = per_call(tr, "runtime.route", 100_000, NS, |i| {
        black_box(snapshot.route(black_box(i % 4)));
    });
    out.push(Metric::over("runtime.route_ns", "ns", &route));
    let keyed = per_call(tr, "runtime.route_keyed", 100_000, NS, |i| {
        let key = gen::keyed_record(seed, i as u64) >> 32;
        black_box(snapshot.route_keyed(4, black_box(key)));
    });
    out.push(Metric::over("runtime.route_keyed_ns", "ns", &keyed));
    let install = per_call(tr, "runtime.install", 2_000, US, |i| {
        let next = if i % 2 == 0 { &packed } else { &spread };
        black_box(table.install(next.clone()));
    });
    out.push(Metric::over("runtime.install_us", "us", &install));
}

fn planner_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    // The `sim_*` scenario just after the load step: what a planning
    // cycle of `sim_adaptive` sees.
    let grid = sim::grid();
    let profile = sim::pipeline(seed, Policy::Static, ArrivalProcess::AllAtOnce)
        .spec()
        .profile();
    let before = grid.rates_at(SimTime::ZERO);
    let after = grid.rates_at(SimTime::from_secs_f64(90.0));
    let topology = grid.topology();
    let config = PlannerConfig::default();
    let current = plan(&profile, &before, topology, &config);
    let candidate = plan(&profile, &after, topology, &config);

    let eval = per_call(tr, "mapper.evaluate", 2_000, US, |_| {
        black_box(evaluate(
            &profile,
            black_box(&current.mapping),
            &after,
            topology,
        ));
    });
    out.push(Metric::over("mapper.evaluate_us", "us", &eval));
    let planned = per_call(tr, "mapper.plan", 100, US, |_| {
        black_box(plan(&profile, black_box(&after), topology, &config));
    });
    out.push(Metric::over("mapper.plan_us", "us", &planned));
    let stale = evaluate(&profile, &current.mapping, &after, topology);
    let decision = DecisionConfig::default();
    let decide = per_call(tr, "mapper.should_remap", 100_000, NS, |i| {
        black_box(should_remap(
            &stale,
            &candidate.prediction,
            black_box(1_000 + i as u64),
            2.0,
            &decision,
        ));
    });
    out.push(Metric::over("mapper.should_remap_ns", "ns", &decide));

    // One availability series per node, the controller's default window.
    let mut bank = MetricBank::new(grid.len(), 20);
    let observe = per_call(tr, "monitor.observe", 20_000, NS, |i| {
        let node = i % grid.len();
        bank.observe(node, i as f64, 0.3 + 0.7 * gen::unit(seed, i as u64));
    });
    out.push(Metric::over("monitor.observe_ns", "ns", &observe));
    let predict = per_call(tr, "monitor.predict", 20_000, NS, |i| {
        black_box(bank.predict(black_box(i % grid.len())));
    });
    out.push(Metric::over("monitor.predict_ns", "ns", &predict));
}

fn state_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    let hash = per_call(tr, "state.shard_hash", 100_000, NS, |i| {
        let key = gen::keyed_record(seed, i as u64) >> 32;
        black_box(shard_of(
            fnv1a(&black_box(key).to_le_bytes()),
            keyed::SHARDS,
        ));
    });
    out.push(Metric::over("state.shard_hash_ns", "ns", &hash));
    // What `count` holds when a `keyed_dag` rep ends: a counter per key.
    let state: HashMap<u64, u64> = (0..gen::KEYS)
        .map(|key| (key, gen::draw(seed, key) % 1_000))
        .collect();
    let codec = per_call(tr, "state.codec", 100, US, |_| {
        let bytes = black_box(&state).to_bytes();
        let back = HashMap::<u64, u64>::from_bytes(&bytes).expect("a snapshot decodes");
        assert_eq!(back.len(), state.len());
    });
    out.push(Metric::over("state.codec_us", "us", &codec));
}

fn gridsim_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    // Hold model: a queue kept at 1024 pending events, one popped and
    // one scheduled per call — the simulator's steady state.
    let mut queue = EventQueue::new();
    for i in 0..1024u64 {
        queue.schedule(SimTime::from_secs_f64(gen::unit(seed, i)), i);
    }
    let events = per_call(tr, "gridsim.event_queue", 100_000, NS, |i| {
        let (at, id) = queue.pop().expect("the queue never empties");
        let ahead = SimDuration::from_secs_f64(gen::unit(seed, 2048 + i as u64));
        queue.schedule(at + ahead, black_box(id));
    });
    out.push(Metric::over("gridsim.event_queue_ns", "ns", &events));
    // A node with a random-walk background load, as the simulator asks.
    let grid = sim::grid();
    let loaded = &grid.node(NodeId(1)).load;
    let availability = per_call(tr, "gridsim.availability", 100_000, NS, |i| {
        let t = SimTime::from_secs_f64(1_300.0 * gen::unit(seed, i as u64));
        black_box(loaded.availability(black_box(t)));
    });
    out.push(Metric::over("gridsim.availability_ns", "ns", &availability));
}

fn kernel_probes(seed: u64, tr: &mut Tracer, out: &mut Vec<Metric>) {
    let frame = Image::synthetic(imaging::SIDE, imaging::SIDE, seed);
    let blurred = blur(&frame);
    let edges = sobel(&blurred);
    let b = per_call(tr, "workloads.blur", 100, US, |_| {
        black_box(blur(black_box(&frame)));
    });
    out.push(Metric::over("workloads.blur_us", "us", &b));
    let s = per_call(tr, "workloads.sobel", 100, US, |_| {
        black_box(sobel(black_box(&blurred)));
    });
    out.push(Metric::over("workloads.sobel_us", "us", &s));
    let q = per_call(tr, "workloads.quantise", 100, US, |_| {
        black_box(quantise(black_box(&edges), 8));
    });
    out.push(Metric::over("workloads.quantise_us", "us", &q));
}
