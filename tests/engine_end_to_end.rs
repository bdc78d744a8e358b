//! Cross-crate integration: the threaded backend runs the real domain
//! pipelines (imaging, signal) correctly, including under adaptation —
//! all through the unified `Pipeline` API.

use adapipe::prelude::*;
use adapipe::workloads::imaging::{self, Image};
use adapipe::workloads::signal::{self, Frame};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// True if the host can actually run `k` threads in parallel. Wall-clock
/// speedup assertions are gated on this: on an undersized host the OS
/// time-shares the virtual nodes and parallel speedups are scheduler
/// noise, so only correctness (not timing) is asserted there.
fn multicore(k: usize) -> bool {
    std::thread::available_parallelism()
        .map(|p| p.get() >= k)
        .unwrap_or(false)
}

fn free_vnodes(k: usize) -> Vec<VNodeSpec> {
    (0..k).map(|i| VNodeSpec::free(format!("v{i}"))).collect()
}

#[test]
fn imaging_pipeline_produces_identical_results_on_any_mapping() {
    // Ground truth: run the kernels sequentially in-process.
    let side = 32;
    let n = 20u64;
    let expected: Vec<u64> = imaging::frames(side, n)
        .into_iter()
        .map(|f| {
            let q = imaging::quantise(&imaging::sobel(&imaging::blur(&f)), 8);
            q.pixels.iter().map(|&p| p as u64).sum::<u64>()
        })
        .collect();

    let run_on = |vnodes: Vec<VNodeSpec>, mapping: Mapping| {
        PipelineBuilder::from_pipeline(imaging_pipeline(side))
            .feed(move |i| Image::synthetic(side, side, i))
            .build()
            .expect("imaging pipeline builds")
            .run(
                Backend::Threads(vnodes),
                RunConfig {
                    items: n,
                    initial_mapping: Some(mapping),
                    ..RunConfig::default()
                },
            )
            .expect("threaded run")
    };

    // Spread mapping on 4 nodes.
    let spread = run_on(
        free_vnodes(4),
        Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
    );
    assert_eq!(spread.outputs, expected);

    // Fully coalesced mapping must give byte-identical answers.
    let coalesced = run_on(free_vnodes(1), Mapping::all_on(NodeId(0), 4));
    assert_eq!(coalesced.outputs, expected);
}

#[test]
fn signal_pipeline_outputs_are_stable_under_remapping() {
    let frame_len = 512;
    let n = 40u64;
    // Ground truth, sequential.
    let expected: Vec<f64> = {
        let (_, mut stages, ..) = signal_pipeline(frame_len).into_parts();
        signal::frames(frame_len, n)
            .into_iter()
            .map(|f| {
                let mut item: adapipe::core::stage::BoxedItem =
                    adapipe::core::payload::Payload::new(f);
                for s in &mut stages {
                    s.process(&mut item).expect("stages are type-aligned");
                }
                item.downcast::<f64>().unwrap()
            })
            .collect()
    };

    // Adaptive run with a mid-run load step.
    let vnodes = vec![
        VNodeSpec::free("v0"),
        VNodeSpec::free("v1").with_load(LoadModel::step(1.0, 0.05, SimTime::from_secs_f64(0.2))),
        VNodeSpec::free("v2"),
    ];
    let outcome = PipelineBuilder::from_pipeline(signal_pipeline(frame_len))
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(150),
        })
        .feed(move |i| Frame::synthetic(frame_len, i))
        .build()
        .expect("signal pipeline builds")
        .run(
            Backend::Threads(vnodes),
            RunConfig {
                items: n,
                initial_mapping: Some(Mapping::from_assignment(&[
                    NodeId(0),
                    NodeId(1),
                    NodeId(2),
                    NodeId(0),
                ])),
                ..RunConfig::default()
            },
        )
        .expect("threaded run");
    assert_eq!(outcome.report.completed, n);
    // Stateless numeric kernels: results must be bit-identical regardless
    // of which node computed them or whether a migration happened.
    assert_eq!(outcome.outputs, expected);
}

#[test]
fn synthetic_twin_matches_sim_shape() {
    // The same middle-heavy spec, run (a) in simulation and (b) on the
    // threaded backend with spin items — through the one unified
    // program shape; the *shape* (which mapping class wins) must agree:
    // replication of the heavy stage helps both.
    let mk_spec = || synthetic_spec(3, CostShape::MiddleHeavy, 1.0, 0, 0.0, 5);

    // (a) simulation on 4 free nodes.
    let grid = {
        let nodes = (0..4)
            .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
            .collect();
        GridSpec::new(nodes, Topology::uniform(4, LinkSpec::lan()))
    };
    let narrow = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]);
    let wide = Mapping::new(vec![
        Placement::single(NodeId(0)),
        Placement::replicated(vec![NodeId(1), NodeId(3)]),
        Placement::single(NodeId(2)),
    ]);
    let sim_with = |mapping: Mapping| {
        PipelineBuilder::from_spec(mk_spec())
            .build()
            .expect("sim twin builds")
            .run(
                Backend::Sim(&grid),
                RunConfig {
                    items: 200,
                    initial_mapping: Some(mapping),
                    ..RunConfig::default()
                },
            )
            .expect("sim run")
            .report
    };
    let sim_narrow = sim_with(narrow.clone());
    let sim_wide = sim_with(wide.clone());
    assert!(
        sim_wide.makespan.as_secs_f64() < sim_narrow.makespan.as_secs_f64() * 0.75,
        "sim: replication must clearly win ({} vs {})",
        sim_wide.makespan,
        sim_narrow.makespan
    );

    // (b) threaded backend, 2 ms work units.
    let items = 120u64;
    let eng_with = |mapping: Mapping| {
        let spec = mk_spec();
        let feed_items = synth_items(&spec, items, 0.002);
        PipelineBuilder::from_pipeline(synth_pipeline(&spec))
            .feed(move |i| feed_items[i as usize].clone())
            .build()
            .expect("threaded twin builds")
            .run(
                Backend::Threads(free_vnodes(4)),
                RunConfig {
                    items,
                    initial_mapping: Some(mapping),
                    ..RunConfig::default()
                },
            )
            .expect("threaded run")
    };
    let eng_narrow = eng_with(narrow);
    let eng_wide = eng_with(wide);
    assert_eq!(eng_narrow.report.completed, items);
    assert_eq!(eng_wide.report.completed, items);
    if multicore(5) {
        assert!(
            eng_wide.report.makespan.as_secs_f64() < eng_narrow.report.makespan.as_secs_f64() * 0.9,
            "engine: replication must win ({} vs {})",
            eng_wide.report.makespan,
            eng_narrow.report.makespan
        );
    } else {
        eprintln!(
            "host has <5 cores: skipping wall-clock speedup assertion \
             (narrow {}, wide {})",
            eng_narrow.report.makespan, eng_wide.report.makespan
        );
    }
}

/// Simulated twin of `synthetic_twin_matches_sim_shape`'s threaded leg,
/// whose "replication must win" bound holds only on a host with five
/// cores: the same middle-heavy spec in 2-ms units (1, 4 and 1 ms), 120
/// items at `t = 0`, four free nodes on the engine's own local links,
/// and the `narrow` and `wide` mappings. Both makespans are exact on
/// any host.
#[test]
fn synthetic_twin_replication_wins_simulated() {
    let spec = synthetic_spec(3, CostShape::MiddleHeavy, 0.002, 0, 0.0, 5);
    let grid = {
        let nodes = (0..4)
            .map(|i| Node::new(NodeSpec::new(format!("v{i}"), 1.0, 1), LoadModel::free()))
            .collect();
        GridSpec::new(nodes, Topology::uniform(4, LinkSpec::local()))
    };
    let items = 120u64;
    let makespan = |mapping: Mapping| {
        let report = PipelineBuilder::from_spec(spec.clone())
            .build()
            .expect("sim twin builds")
            .run(
                Backend::Sim(&grid),
                RunConfig {
                    items,
                    initial_mapping: Some(mapping),
                    ..RunConfig::default()
                },
            )
            .expect("sim run")
            .report;
        assert_eq!(report.completed, items);
        report.makespan
    };
    let narrow = makespan(Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]));
    let wide = makespan(Mapping::new(vec![
        Placement::single(NodeId(0)),
        Placement::replicated(vec![NodeId(1), NodeId(3)]),
        Placement::single(NodeId(2)),
    ]));
    let ms = |n: u64| SimDuration::from_millis(n);
    let hop = SimDuration::from_micros(1);
    // Narrow: the 4-ms stage serves all 120 items back to back, between
    // the first item's 1-ms head and the last one's 1-ms tail.
    assert_eq!(
        narrow,
        SimTime::ZERO + ms(1) + hop + ms(4 * 120) + hop + ms(1)
    );
    // Wide: each replica serves 60 of them, alternately; the second one
    // starts a millisecond later, behind the head's second item.
    assert_eq!(wide, SimTime::ZERO + ms(2) + hop + ms(4 * 60) + hop + ms(1));
    assert!(
        wide.as_secs_f64() < narrow.as_secs_f64() * 0.9,
        "replication must win ({wide} vs {narrow})"
    );
}

/// A running sum that counts its clones: the state of a plain closure,
/// which the runtime can neither snapshot nor merge, only copy.
struct Tally {
    sum: u64,
    clones: Arc<AtomicUsize>,
}

impl Tally {
    fn add(&mut self, x: u64) -> u64 {
        self.sum += x;
        self.sum
    }
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Tally {
            sum: self.sum,
            clones: Arc::clone(&self.clones),
        }
    }
}

/// The declaration alone decides how many instances run: the plain
/// closure an exclusive declaration never copies (see
/// `fault_tolerance::exclusive_state_migrates_where_opaque_state_aborts`)
/// is copied for its hosts under a stateless one, and round-robin over
/// both copies still delivers every item exactly once.
#[test]
fn a_stateless_declaration_copies_the_closure_per_host() {
    let items = 200u64;
    let clones = Arc::new(AtomicUsize::new(0));
    let mut tally = Tally {
        sum: 0,
        clones: Arc::clone(&clones),
    };
    let mut outputs = Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("sum", 1.0, 8), move |x: u64| {
            tally.add(x);
            x
        })
        .feed(|i| i)
        .build()
        .expect("builds")
        .run(
            Backend::Threads(free_vnodes(2)),
            RunConfig {
                items,
                initial_mapping: Some(Mapping::new(vec![Placement::replicated(vec![
                    NodeId(0),
                    NodeId(1),
                ])])),
                ..RunConfig::default()
            },
        )
        .expect("threaded run")
        .outputs;
    assert!(
        clones.load(Ordering::SeqCst) >= 1,
        "no host copied the stage"
    );
    outputs.sort_unstable();
    assert_eq!(outputs, (0..items).collect::<Vec<_>>(), "not exactly once");
}
