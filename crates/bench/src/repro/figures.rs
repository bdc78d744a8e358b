//! Figures 1–6: adaptation against a load step, stream length,
//! processor count, load volatility and its own knobs, then the same
//! story on real threads.

use super::{
    collapse, free_grid, load_step_grid, run_chain4, secs, sim_run, square_wave_grid, Experiment,
};
use crate::{under, Table};
use adapipe::mapper::decide::DecisionConfig;
use adapipe::prelude::*;

/// Figure 1 — throughput over time under a load step.
///
/// A 4-stage pipeline, open-loop arrivals at 80 % of nominal capacity.
/// At t = 60 s the node hosting the heaviest share of work collapses to
/// 15 % availability. Series: static / reactive / adaptive / oracle.
pub fn f1() -> Experiment {
    let mut out = Experiment::new(
        "F1",
        "throughput timeline across a load step (static/reactive/adaptive/oracle)",
        "all curves level until t=60s; static stays collapsed afterwards; \
         adaptive recovers within one adaptation period of the oracle",
    );

    let interval = SimDuration::from_secs(5);
    let rate = 0.8; // items/s, below the nominal capacity of 1.0
    let items = (240.0 * rate) as u64;
    let bucket = SimDuration::from_secs(10);
    let policies = [
        Policy::Static,
        Policy::Reactive {
            interval,
            degradation: 0.7,
        },
        Policy::Periodic { interval },
        Policy::Oracle { interval },
    ];

    let grid = load_step_grid();
    let runs = policies.map(|policy| {
        // Static and reactive under a paced stream are the figure's
        // deliberate baselines.
        let session = Session::baseline(policy, ArrivalProcess::Uniform { rate })
            .expect("a valid policy and rate");
        run_chain4(&grid, &session, items, |cfg| {
            cfg.timeline_bucket = Some(bucket)
        })
    });

    let series = runs.each_ref().map(|run| run.timeline.series());
    let mut table = Table::new(&["t(s)", "static", "reactive", "adaptive", "oracle"]);
    let buckets = series.iter().map(Vec::len).max().unwrap_or(0);
    for b in 0..buckets {
        let t = (b as f64 + 0.5) * bucket.as_secs_f64();
        let mut row = vec![format!("{t:.0}")];
        row.extend(series.iter().map(|s| match s.get(b) {
            Some(&(_, v)) => format!("{v:.2}"),
            None => "-".to_string(),
        }));
        table.row(row);
    }
    out.table(table);
    for (policy, run) in policies.iter().zip(&runs) {
        out.note(format!(
            "{:>9}: {} re-mappings",
            policy.name(),
            run.adaptation_count()
        ));
    }
    out
}

/// Figure 2 — completion time vs stream length.
///
/// Closed streams of N items on the hetero8 testbed (random-walk
/// background load plus a mid-run slowdown of the fastest node).
/// Adaptation costs a fixed overhead per re-mapping, so its advantage
/// must *grow* with N as the cost amortises.
pub fn f2() -> Experiment {
    let mut out = Experiment::new(
        "F2",
        "completion time vs stream length N (hetero8, dynamic load)",
        "adaptive tracks oracle within a small factor and beats static by \
         a margin that grows with N",
    );

    let interval = SimDuration::from_secs(5);
    let spec = PipelineSpec::balanced(4, 2.0, 100_000);
    let mut grid = testbed_hetero8(9);
    collapse(&mut grid, 0, 50.0, 0.10);

    let mut table = Table::new(&[
        "N",
        "static(s)",
        "adaptive(s)",
        "oracle(s)",
        "adapt/static",
        "adapt/oracle",
        "remaps",
    ]);
    for n in [100u64, 200, 400, 800, 1600, 3200] {
        let run = |policy: Policy| {
            let cfg = RunConfig {
                items: n,
                ..RunConfig::default()
            };
            sim_run(&grid, &spec, &under(policy), &cfg)
        };
        let static_s = secs(&run(Policy::Static));
        let adaptive_r = run(Policy::Periodic { interval });
        let oracle_s = secs(&run(Policy::Oracle { interval }));
        table.row(vec![
            n.to_string(),
            format!("{static_s:.1}"),
            format!("{:.1}", secs(&adaptive_r)),
            format!("{oracle_s:.1}"),
            format!("{:.3}", secs(&adaptive_r) / static_s),
            format!("{:.3}", secs(&adaptive_r) / oracle_s),
            adaptive_r.adaptation_count().to_string(),
        ]);
    }
    out.table(table);
    out
}

/// Figure 3 — speedup vs processor count, with and without stage
/// replication.
///
/// An 8-stage pipeline on 1..32 homogeneous LAN nodes. With balanced
/// stages the speedup plateaus at Ns = 8 — a pipeline exposes at most
/// one processor of parallelism per stage — unless stateless stages may
/// be *replicated*, which lifts the plateau. With a middle-heavy stage
/// the unreplicated plateau is far lower (the bottleneck stage gates
/// everything), making replication's contribution starker.
pub fn f3() -> Experiment {
    let mut out = Experiment::new(
        "F3",
        "speedup vs processor count (8 stages; replication on/off)",
        "balanced: linear to ~8 then flat without replication, keeps \
         climbing with it; middle-heavy: plateaus early without \
         replication (~2.75), replication recovers most of the gap",
    );

    let specs = [CostShape::Balanced, CostShape::MiddleHeavy]
        .map(|shape| synthetic_spec(8, shape, 1.0, 10_000, 0.0, 3));
    // 300 items planned from launch rates on `np` nodes, stages at most
    // `max_width` replicas wide.
    let makespan = |spec: &PipelineSpec, np: usize, max_width: usize| {
        let mut cfg = RunConfig {
            items: 300,
            ..RunConfig::default()
        };
        cfg.controller.planner.max_width = max_width;
        let grid = free_grid(np, LinkSpec::lan());
        secs(&sim_run(&grid, spec, &Session::default(), &cfg))
    };
    // Baselines: one node, everything coalesced (so the width is moot).
    let base = specs.each_ref().map(|spec| makespan(spec, 1, 4));

    let mut table = Table::new(&[
        "Np",
        "balanced/rep-off",
        "balanced/rep-on",
        "mid-heavy/rep-off",
        "mid-heavy/rep-on",
    ]);
    for np in [1usize, 2, 4, 8, 16, 32] {
        let mut cells = vec![np.to_string()];
        for (spec, base) in specs.iter().zip(base) {
            for max_width in [1usize, 4] {
                let speedup = base / makespan(spec, np, max_width);
                cells.push(format!("{speedup:.2}"));
            }
        }
        table.row(cells);
    }
    out.table(table);
    out.note("speedup = makespan(1 node) / makespan(Np nodes), same workload".to_string());
    out
}

/// Figure 4 — adaptivity gain vs load volatility (and the thrashing
/// regime).
///
/// Square-wave background load (availability alternating 1.0 ↔ 0.1) on
/// two of four nodes, sweeping the wave period from far below to far
/// above the 5 s adaptation period. Gain = static / adaptive makespan.
///
/// The interesting regimes:
/// * period ≪ adaptation interval — the controller cannot track the
///   load; hysteresis must keep it from thrashing (gain ≈ 1, not < 1);
/// * period ≈ interval — danger zone: naive adaptation (no hysteresis)
///   loses to static here;
/// * period ≫ interval — adaptation pays off fully.
pub fn f4() -> Experiment {
    let mut out = Experiment::new(
        "F4",
        "adaptivity gain vs load volatility (square-wave period sweep)",
        "gain ~1 for very short periods (hysteresis prevents loss), dips \
         near the adaptation interval for the naive controller, grows \
         toward the static-load gain for long periods",
    );

    let interval = SimDuration::from_secs(5);
    let mut table = Table::new(&[
        "period(s)",
        "static(s)",
        "adaptive(s)",
        "naive(s)",
        "gain",
        "gain naive",
        "remaps",
        "remaps naive",
    ]);

    for period_s in [2u64, 5, 10, 20, 60, 120, 300] {
        let grid = square_wave_grid(SimDuration::from_secs(period_s));
        // `stable` = the full stability stack (hysteresis + warm-up +
        // regret guard); `naive` strips all three.
        let run = |policy: Policy, stable: bool| {
            run_chain4(&grid, &under(policy), 600, |cfg| {
                if !stable {
                    cfg.controller.decision = DecisionConfig {
                        min_relative_gain: 0.0,
                        cost_benefit_factor: 0.0,
                    };
                    cfg.controller.warmup_ticks = 0;
                    cfg.controller.guard_bad_ticks = 0;
                }
            })
        };

        let static_s = secs(&run(Policy::Static, true));
        let adaptive_r = run(Policy::Periodic { interval }, true);
        let naive_r = run(Policy::Periodic { interval }, false);
        table.row(vec![
            period_s.to_string(),
            format!("{static_s:.1}"),
            format!("{:.1}", secs(&adaptive_r)),
            format!("{:.1}", secs(&naive_r)),
            format!("{:.3}", static_s / secs(&adaptive_r)),
            format!("{:.3}", static_s / secs(&naive_r)),
            adaptive_r.adaptation_count().to_string(),
            naive_r.adaptation_count().to_string(),
        ]);
    }
    out.table(table);
    out.note("`naive` = hysteresis disabled (min gain 0, cost/benefit 0)".to_string());
    out
}

/// Figure 5 — sensitivity to the monitoring and adaptation knobs.
///
/// Re-runs the Figure-1 load-step scenario sweeping (a) the adaptation
/// interval and (b) the forecaster observation window, reporting
/// adaptive makespan for each setting. Expectations: very long
/// intervals react too slowly; very long windows dilute the step signal;
/// and there is a broad plateau of good settings in between (the pattern
/// is not fragile).
pub fn f5() -> Experiment {
    let mut out = Experiment::new(
        "F5",
        "knob sensitivity: adaptation interval x observation window (10% sensor noise)",
        "a broad plateau of good settings: the NWS ensemble de-sensitises \
         the window choice (it switches to whatever member fits), and only \
         extreme intervals (>> step timescale) degrade",
    );

    let grid = load_step_grid();
    let items = 400u64;

    // Static baseline for reference.
    let static_r = run_chain4(&grid, &Session::default(), items, |_| {});
    out.note(format!("static baseline: {:.1}s\n", secs(&static_r)));

    let intervals = [1u64, 2, 5, 10, 30, 60];
    let windows = [2usize, 4, 8, 16, 64];

    let mut headers: Vec<String> = vec!["interval(s) \\ window".to_string()];
    headers.extend(windows.iter().map(|w| format!("w={w}")));
    let mut table = Table::new(&headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    for interval_s in intervals {
        let session = under(Policy::Periodic {
            interval: SimDuration::from_secs(interval_s),
        });
        let mut row = vec![interval_s.to_string()];
        for window in windows {
            let report = run_chain4(&grid, &session, items, |cfg| {
                cfg.observation_noise = 0.10;
                cfg.noise_seed = 7;
                cfg.controller.monitor_window = window;
            });
            row.push(format!("{:.1}", secs(&report)));
        }
        table.row(row);
    }
    out.table(table);
    out.note("cells: adaptive makespan in seconds (lower is better)".to_string());
    out
}

/// Figure 6 — the one-box threaded engine under wall-clock measurement.
///
/// The F1 story re-run on real threads: a 3-stage spin-work pipeline on
/// 3 virtual nodes; the node hosting stage 1 collapses to 5 % shortly
/// into the run. Compares static / adaptive / oracle wall-clock
/// makespans and prints the adaptive throughput timeline. The scenario
/// is written once against the unified `adapipe::api` surface and
/// parameterised by policy.
///
/// The slowdown mechanism (measured compute + compensating sleep) works
/// on any host, including single-core CI boxes; see the engine docs for
/// why *speedup*-type claims live in the simulator instead.
pub fn f6() -> Experiment {
    let mut out = Experiment::new(
        "F6",
        "threaded engine, one box: load step on a stage host (wall clock)",
        "static pays the 20x slowdown for the rest of the run; adaptive \
         re-maps within ~1-2 control periods and lands near oracle",
    );
    out.note(format!(
        "host: {} hardware threads, {:.0} Mspin/s\n",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        calibrate_host() / 1e6
    ));

    let vnodes = || {
        vec![
            VNodeSpec::free("v0"),
            VNodeSpec::free("v1").with_load(LoadModel::step(
                1.0,
                0.05,
                SimTime::from_secs_f64(0.4),
            )),
            VNodeSpec::free("v2"),
        ]
    };
    let items_n = 400u64;
    let unit = 0.003; // 3 ms of spin per stage per item
    let interval = SimDuration::from_millis(250);
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]);

    let mut table = Table::new(&["policy", "makespan(s)", "tput(items/s)", "remaps"]);
    let mut adaptive_timeline = Vec::new();
    for policy in [
        Policy::Static,
        Policy::Periodic { interval },
        Policy::Oracle { interval },
    ] {
        let spec = synthetic_spec(3, CostShape::Balanced, 1.0, 0, 0.0, 1);
        let items = synth_items(&spec, items_n, unit);
        let outcome = PipelineBuilder::from_pipeline(synth_pipeline(&spec))
            .policy(policy)
            .feed(move |i| items[i as usize].clone())
            .build()
            .expect("f6 pipeline builds")
            .run(
                Backend::Threads(vnodes()),
                RunConfig {
                    items: items_n,
                    initial_mapping: Some(mapping.clone()),
                    ..RunConfig::default()
                },
            )
            .expect("threaded run");
        let report = &outcome.report;
        table.row(vec![
            policy.name().to_string(),
            format!("{:.2}", secs(report)),
            format!("{:.1}", report.mean_throughput()),
            report.adaptation_count().to_string(),
        ]);
        if matches!(policy, Policy::Periodic { .. }) {
            adaptive_timeline = report.timeline.series();
        }
    }
    out.table(table);

    out.note("adaptive throughput timeline (500 ms buckets):".to_string());
    for (t, rate) in adaptive_timeline {
        let bar: String = std::iter::repeat_n('#', (rate / 10.0).round() as usize).collect();
        out.note(format!("csv_timeline,{:.2},{:.1}", t.as_secs_f64(), rate));
        out.note(format!(
            "  t={:>5.2}s {:>6.1} it/s |{bar}",
            t.as_secs_f64(),
            rate
        ));
    }
    out
}
