//! Real compute, real threads: the imaging pipeline on the threaded
//! backend of the unified API, with a synthetic load step on one
//! virtual node.
//!
//! Frames pass through blur → Sobel → quantise → checksum with genuine
//! pixel arithmetic; virtual node `v1` loses 90 % of its capacity 0.5 s
//! into the run and the periodic controller re-maps around it — watch
//! it happen live through an event-bus subscriber. The feed is paced at
//! 200 frames/s, so the run lasts two seconds and outlives the step;
//! the example exits non-zero unless a re-map moved Sobel off `v1`.
//!
//! Run with: `cargo run --release --example image_pipeline`

use adapipe::prelude::*;
use adapipe::workloads::imaging::{imaging_pipeline, Image};

fn main() {
    let side = 96; // 96×96 frames: tens of µs of real kernels each
    let n_frames = 400u64;

    let vnodes = vec![
        VNodeSpec::free("v0"),
        VNodeSpec::free("v1").with_load(LoadModel::step(1.0, 0.10, SimTime::from_secs_f64(0.5))),
        VNodeSpec::free("v2"),
        VNodeSpec::free("v3"),
    ];

    // The unified program: the imaging stages (with their cost
    // metadata), a periodic policy, and a frame feed.
    let pipeline = PipelineBuilder::from_pipeline(imaging_pipeline(side))
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(250),
        })
        .feed(move |i| Image::synthetic(side, side, i))
        .arrivals(ArrivalProcess::Uniform { rate: 200.0 })
        .build()
        .expect("a valid pipeline");

    println!(
        "== imaging pipeline on 4 virtual nodes (host rate {:.0} Mspin/s) ==",
        calibrate_host() / 1e6
    );
    println!(
        "processing {n_frames} frames of {side}x{side} px at 200/s; v1 degrades to 10% at t=0.5s\n"
    );

    // Live observation: a subscriber prints each re-mapping as it
    // commits, while the run is still going.
    let events = EventBus::new();
    let remaps = events.subscribe();
    let printer = std::thread::spawn(move || {
        for event in remaps {
            if let RunEvent::Remap { plan, .. } = event {
                println!(
                    "  [live] re-mapped at t={:.2}s: stages {:?} moved",
                    plan.at.as_secs_f64(),
                    plan.moved,
                );
            }
        }
    });
    let cfg = RunConfig {
        items: n_frames,
        // Put the heavy Sobel stage on the node that is about to
        // degrade, so the controller has something to fix.
        initial_mapping: Some(Mapping::from_assignment(&[
            NodeId(0),
            NodeId(1),
            NodeId(2),
            NodeId(3),
        ])),
        events,
        ..RunConfig::default()
    };

    let handle = pipeline
        .run(Backend::Threads(vnodes), cfg)
        .expect("a compatible backend");
    // The run has dropped its handle on the bus: the stream ends.
    printer.join().expect("the event printer panicked");
    let report = handle.report();

    println!(
        "\ncompleted {} frames in {:.2}s ({:.1} frames/s), mean latency {:.0} ms",
        report.completed,
        report.makespan.as_secs_f64(),
        report.mean_throughput(),
        report.mean_latency.as_secs_f64() * 1000.0,
    );
    println!("final mapping: {}", report.final_mapping);
    for event in handle.adaptations() {
        println!(
            "re-mapped at t={:.2}s: {} -> {} (stages {:?})",
            event.at.as_secs_f64(),
            event.from,
            event.to,
            event.migrated_stages,
        );
    }

    println!("\nthroughput timeline (500 ms buckets):");
    for (t, rate) in report.timeline.series() {
        let bar: String = std::iter::repeat_n('#', (rate / 4.0).round() as usize).collect();
        println!("  t={:>5.2}s {:>6.1} f/s |{bar}", t.as_secs_f64(), rate);
    }

    // Show one output so the kernels demonstrably ran.
    println!("\nchecksum of frame 0: {}", handle.outputs[0]);

    let sobel_left_v1 = handle
        .adaptations()
        .iter()
        .any(|event| !event.to.placement(1).contains(NodeId(1)));
    if !sobel_left_v1 {
        eprintln!("no committed re-map moved the Sobel stage off the degraded v1");
        std::process::exit(1);
    }
}
