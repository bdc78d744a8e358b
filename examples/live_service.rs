//! Live streaming service: an open-ended `RunSession` absorbing a load
//! spike without dropping an item.
//!
//! A long-running service does not know its stream length up front: it
//! pushes requests as they arrive, pulls results as they complete, and
//! expects the runtime to re-map *while traffic keeps flowing*. This
//! example runs such a service on the threaded backend:
//!
//! 1. spawn a session over 3 virtual nodes with bounded queues
//!    (`queue_capacity`), so a stalled pipeline pushes back on the
//!    source instead of buffering without limit;
//! 2. push steady traffic; mid-run, node 1 collapses to 5 %
//!    availability (the "load spike") and the arrival rate doubles;
//! 3. watch the live `RunEvent` stream — every adaptation tick's
//!    verdict, the committed re-mapping away from the loaded node, and
//!    any backpressure stalls — while outputs are consumed concurrently;
//! 4. drain gracefully, print the why-table (how many ticks ended in
//!    each verdict: why the controller re-mapped, or held still), and
//!    emit the machine-readable report (`RunReport::to_json`).
//!
//! Run with: `cargo run --release --example live_service`

use adapipe::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-item work each stage spins for, per phase: ~3 ms.
const STAGE: Duration = Duration::from_millis(3);

fn main() {
    // Three vnodes; node 1 collapses to 5 % availability at t = 0.9 s.
    let vnodes = vec![
        VNodeSpec::free("v0"),
        VNodeSpec::free("v1").with_load(LoadModel::step(1.0, 0.05, SimTime::from_secs_f64(0.9))),
        VNodeSpec::free("v2"),
    ];

    let pipeline = Pipeline::<u64>::builder()
        .stage_with(StageSpec::balanced("decode", 0.003, 256), |req: u64| {
            spin_for(STAGE);
            req + 1
        })
        .stage_with(StageSpec::balanced("transform", 0.003, 256), |x: u64| {
            spin_for(STAGE);
            x * 2
        })
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(250),
        })
        .build()
        .expect("a valid pipeline");

    let mut session = pipeline
        .spawn(
            Backend::Threads(vnodes),
            RunConfig {
                items: 1_000, // amortisation hint only — the stream is open
                initial_mapping: Some(Mapping::from_assignment(&[NodeId(0), NodeId(1)])),
                queue_capacity: Some(16),
                ..RunConfig::default()
            },
        )
        .expect("a compatible backend");
    let events = session.events();

    println!("== live service: open stream, spike at t=0.9s ==\n");

    // Two traffic phases: steady 100 req/s, then a 200 req/s burst that
    // lands while node 1 is collapsed. The service never stops pushing
    // and never stops consuming.
    let epoch = Instant::now();
    let mut outputs: Vec<u64> = Vec::new();
    let mut offered = 0u64;
    for (phase, (rate, count)) in [(100.0_f64, 120u64), (200.0, 180)].iter().enumerate() {
        let phase_start = offered;
        for i in 0..*count {
            let due = epoch.elapsed().as_secs_f64();
            let target =
                (phase_start + i) as f64 / rate + if phase == 1 { 120.0 / 100.0 } else { 0.0 };
            if target > due {
                std::thread::sleep(Duration::from_secs_f64(target - due));
            }
            session.push(offered).unwrap();
            offered += 1;
            // Consume whatever is ready — the stream stays live.
            while let TryNext::Item(o) = session.try_next() {
                outputs.push(o);
            }
        }
        println!(
            "phase {} done: {:>3} pushed at {:>3.0} req/s ({} in flight)",
            phase + 1,
            count,
            rate,
            session.in_flight()
        );
    }

    // Graceful drain: every pushed request completes.
    let handle = session.drain();
    outputs.extend(handle.outputs);
    let report = handle.report;

    // What the live event stream saw, while we were serving.
    let mut remaps = 0u32;
    let mut stalls = 0u32;
    let mut why: BTreeMap<&'static str, u32> = BTreeMap::new();
    for ev in events.try_iter() {
        match ev {
            RunEvent::Remap { plan, .. } => {
                remaps += 1;
                println!(
                    "remap at t={:.2}s: {} -> {} (cost {:.3}s)",
                    plan.at.as_secs_f64(),
                    plan.from,
                    plan.to,
                    plan.migration_cost.as_secs_f64(),
                );
            }
            RunEvent::BackpressureStall { seq, waited, .. } => {
                stalls += 1;
                if stalls <= 3 {
                    println!(
                        "backpressure: push #{seq} waited {:.1}ms",
                        waited.as_secs_f64() * 1e3
                    );
                }
            }
            RunEvent::Tick { verdict, .. } => *why.entry(verdict.kind()).or_default() += 1,
            _ => {} // future event kinds: not this example's business
        }
    }

    let ticks: u32 = why.values().sum();
    println!("\nwhy-table: {ticks} adaptation ticks, by verdict");
    for (kind, count) in &why {
        println!("  {kind:<26} {count:>4}");
    }
    println!(
        "\nserved {} / {} requests | {} re-mappings | {} stall(s)",
        report.completed, offered, remaps, stalls
    );
    println!(
        "final mapping {} (collapsed node evacuated: {})",
        report.final_mapping,
        !report.final_mapping.nodes_used().contains(&NodeId(1)),
    );

    // The service contract: nothing dropped, everything exactly once,
    // in order.
    assert_eq!(report.completed, offered, "an item was dropped");
    let expect: Vec<u64> = (0..offered).map(|x| (x + 1) * 2).collect();
    assert_eq!(outputs, expect, "outputs must be exactly-once, in order");
    assert!(remaps >= 1, "the spike must force a re-mapping");

    println!("\nmachine-readable report:\n{}", report.to_json());
}
