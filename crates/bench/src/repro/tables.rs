//! Tables 1–5: the testbeds, the analytic model against simulation, the
//! cost of a decision and the forecasters.

use super::{free_grid, grid_of, sim_run, Experiment};
use crate::{fmt_secs, time_each, Table};
use adapipe::gridsim::rng::unit_at;
use adapipe::prelude::*;

fn load_class(model: &LoadModel) -> String {
    match model {
        LoadModel::Constant { level } if *level >= 1.0 => "free".to_string(),
        LoadModel::Constant { level } => format!("constant {level:.2}"),
        LoadModel::Step { after, at, .. } => {
            format!("step to {after:.2} @ {:.0}s", at.as_secs_f64())
        }
        LoadModel::SquareWave { lo, period, .. } => {
            format!("square lo={lo:.2} P={:.0}s", period.as_secs_f64())
        }
        LoadModel::Trace(trace) => format!("trace ({} segs)", trace.segment_count()),
        LoadModel::Overlay { .. } => "overlay".to_string(),
    }
}

/// Table 1 — the synthetic grid testbeds: the node inventory (name,
/// nominal speed, load class) and link classes of the three reference
/// grids every other experiment names.
pub fn t1() -> Experiment {
    let mut out = Experiment::new(
        "T1",
        "synthetic grid testbeds",
        "three grids spanning 1x-8x speed heterogeneity, LAN/WAN links, \
         and static/random-walk/Markov background load",
    );
    let seed = 42;
    for tb in Testbed::all() {
        let grid = tb.build(seed);
        out.note(format!(
            "testbed `{}` ({} nodes, seed {seed}):",
            tb.name(),
            grid.len()
        ));
        let mut table = Table::new(&["node", "speed", "load class", "avail@0s", "avail@300s"]);
        for id in grid.node_ids() {
            let node = grid.node(id);
            table.row(vec![
                node.spec.name.clone(),
                format!("{:.2}", node.spec.speed),
                load_class(&node.load),
                format!("{:.2}", node.load.availability(SimTime::ZERO)),
                format!(
                    "{:.2}",
                    node.load.availability(SimTime::from_secs_f64(300.0))
                ),
            ]);
        }
        out.table(table);

        // Link classes: sample one intra- and one inter-cluster pair.
        let topo = grid.topology();
        let n0 = NodeId(0);
        let n1 = NodeId(1.min(grid.len() - 1));
        let far = NodeId(grid.len() - 1);
        out.note(format!(
            "  links: self {:?} | near {:?} | far {:?}",
            topo.link(n0, n0),
            topo.link(n0, n1),
            topo.link(n0, far),
        ));
        out.note(String::new());
    }
    out
}

/// Mean throughput of 300 items run statically through `spec` on
/// `mapping`, with or without per-link serialisation.
fn static_tput(grid: &GridSpec, spec: &PipelineSpec, mapping: &Mapping, contention: bool) -> f64 {
    let cfg = RunConfig {
        items: 300,
        initial_mapping: Some(mapping.clone()),
        link_contention: contention,
        ..RunConfig::default()
    };
    sim_run(grid, spec, &Session::default(), &cfg).mean_throughput()
}

/// Table 2 — model validation: does the analytic bottleneck model pick
/// (nearly) the mapping that actually simulates fastest?
///
/// For a 3-stage pipeline on 3 nodes we sweep network quality and node
/// load, and for each cell (a) let the planner choose a mapping with the
/// analytic model, and (b) simulate *every* unreplicated mapping (3³ =
/// 27) to find the true optimum. The planner is validated if its choice
/// simulates within a few percent of the true best.
pub fn t2() -> Experiment {
    let mut out = Experiment::new(
        "T2",
        "model-selected vs simulated-best mapping (3 stages x 3 nodes)",
        "planner within ~5% of the exhaustive-simulation optimum in every \
         cell; coalescing wins on slow links, spreading on fast ones",
    );

    let cases = [
        ("lan/free", LinkSpec::lan(), [1.0, 1.0, 1.0]),
        ("lan/n2-busy", LinkSpec::lan(), [1.0, 1.0, 0.25]),
        ("lan/n1+n2-busy", LinkSpec::lan(), [1.0, 0.5, 0.25]),
        ("wan/free", LinkSpec::wan(), [1.0, 1.0, 1.0]),
        ("wan/n2-busy", LinkSpec::wan(), [1.0, 1.0, 0.25]),
        ("slowwan/free", LinkSpec::slow_wan(), [1.0, 1.0, 1.0]),
        ("slowwan/n2-busy", LinkSpec::slow_wan(), [1.0, 1.0, 0.25]),
        ("slowwan/n2-4x", LinkSpec::slow_wan(), [0.25, 0.25, 1.0]),
    ];

    let bytes = 1u64 << 20; // 1 MB items make network quality matter
    let spec = PipelineSpec::balanced(3, 1.0, bytes);
    let profile = spec.profile();

    let mut table = Table::new(&[
        "case",
        "model pick",
        "model tput",
        "sim tput(pick)",
        "sim best map",
        "sim tput(best)",
        "gap %",
    ]);
    let mut worst_gap = 0.0f64;

    for (label, link, avail) in cases {
        let grid = grid_of(avail.map(LoadModel::constant), link);
        let rates = grid.rates_at(SimTime::ZERO);

        // (a) planner choice under the analytic model (no replication, to
        // keep the space identical to the exhaustive sweep).
        let cfg = PlannerConfig {
            max_width: 1,
            ..PlannerConfig::default()
        };
        let picked = plan(&profile, &rates, grid.topology(), &cfg);

        // (b) simulate every assignment.
        let mut best: Option<(Mapping, f64)> = None;
        let mut picked_tput = 0.0;
        let mut assignments = Assignments::new(3, 3);
        loop {
            let mapping = assignments.current();
            let tput = static_tput(&grid, &spec, mapping, true);
            if *mapping == picked.mapping {
                picked_tput = tput;
            }
            if best.as_ref().is_none_or(|&(_, b)| tput > b) {
                best = Some((mapping.clone(), tput));
            }
            if !assignments.advance() {
                break;
            }
        }
        let (best_mapping, best_tput) = best.expect("27 mappings simulated");
        let gap = (best_tput - picked_tput) / best_tput * 100.0;
        worst_gap = worst_gap.max(gap);
        table.row(vec![
            label.to_string(),
            picked.mapping.notation(),
            format!("{:.3}", picked.prediction.throughput),
            format!("{picked_tput:.3}"),
            best_mapping.notation(),
            format!("{best_tput:.3}"),
            format!("{gap:.1}"),
        ]);
    }
    out.table(table);
    out.note(format!(
        "worst model-vs-simulation gap: {worst_gap:.1}% (validated if ≲5%)"
    ));
    out
}

/// Table 3 — adaptation overhead: what one planning cycle costs.
///
/// Wall-times the full planner (model + search + replication pass) over
/// instance sizes from 4×4 to 32×32 (stages × processors), reporting the
/// strategy chosen and, over calls timed one by one (21 for exhaustive
/// instances, 5 for local search), the median decision time and its
/// min–max. The claim to validate: decisions are *orders of magnitude*
/// cheaper than the adaptation period (seconds), so adaptation overhead
/// is negligible.
///
/// Measured on one core of a 2-vCPU host, the median of three runs'
/// medians, with the min–max over all their calls: 4×4 18.2 µs
/// (16.8–29.1 µs), 4×8 241 µs (228–365 µs), 4×16 211 µs (194–266 µs),
/// 4×32 485 µs (465–581 µs), 8×4 51.9 µs (48.0–68.8 µs), 8×8 419 µs
/// (394–477 µs), 8×16 1.12 ms (1.03–1.34 ms), 8×32 3.45 ms (3.29–7.66
/// ms), 16×4 302 µs (279–618 µs), 16×8 1.97 ms (1.92–2.95 ms), 16×16
/// 7.35 ms (6.58–10.9 ms), 16×32 21.5 ms (18.7–36.2 ms), 32×4 2.48 ms
/// (1.76–3.13 ms), 32×8 15.4 ms (12.6–23.0 ms), 32×16 45.5 ms
/// (42.3–73.0 ms), 32×32 184 ms (146–200 ms).
pub fn t3() -> Experiment {
    let mut out = Experiment::new(
        "T3",
        "planner decision cost vs instance size",
        "sub-millisecond for exhaustive instances and well below the 5 s \
         adaptation period at every size: about 10 ms through 16x16 and \
         0.15-0.25 s at the 32x32 corner, 3-5 % of the period",
    );

    let mut table = Table::new(&[
        "Ns",
        "Np",
        "assignments",
        "strategy",
        "median decision",
        "min decision",
        "max decision",
        "per period %",
    ]);
    let period_s = 5.0;

    for &ns in &[4usize, 8, 16, 32] {
        for &np in &[4usize, 8, 16, 32] {
            // Heterogeneous rates + mild work skew for realism.
            let rates: Vec<f64> = (0..np).map(|i| 0.5 + 3.5 * unit_at(7, i as u64)).collect();
            let work: Vec<f64> = (0..ns).map(|s| 0.5 + unit_at(11, s as u64)).collect();
            let profile = PipelineProfile::uniform(work, 50_000);
            let topology =
                Topology::clustered(np, (np / 4).max(1), LinkSpec::lan(), LinkSpec::wan());
            let cfg = PlannerConfig::default();

            // Warm-up + strategy probe.
            let probe = plan(&profile, &rates, &topology, &cfg);
            let iters = if probe.strategy == Strategy::Exhaustive {
                21
            } else {
                5
            };
            let runs = time_each(iters, || {
                std::hint::black_box(plan(&profile, &rates, &topology, &cfg));
            });
            let median = runs[runs.len() / 2];

            let count = assignment_count(ns, np)
                .map(|c| c.to_string())
                .unwrap_or_else(|| ">u64".to_string());
            table.row(vec![
                ns.to_string(),
                np.to_string(),
                count,
                format!("{:?}", probe.strategy),
                fmt_secs(median),
                fmt_secs(runs[0]),
                fmt_secs(runs[runs.len() - 1]),
                format!("{:.3}", median / period_s * 100.0),
            ]);
        }
    }
    out.table(table);
    out.note(
        "`per period %` = median decision time as a share of a 5 s adaptation period".to_string(),
    );
    out
}

fn load_classes() -> Vec<(&'static str, LoadModel)> {
    vec![
        ("constant", LoadModel::constant(0.7)),
        (
            "step",
            LoadModel::step(1.0, 0.3, SimTime::from_secs_f64(300.0)),
        ),
        (
            "square60",
            LoadModel::square_wave(1.0, 0.2, SimDuration::from_secs(60), 0.5, SimDuration::ZERO),
        ),
        (
            "sinusoid",
            LoadModel::sinusoid(0.6, 0.35, SimDuration::from_secs(120), 32),
        ),
        (
            "walk",
            LoadModel::random_walk(
                5,
                0.8,
                0.05,
                SimDuration::from_secs(2),
                0.2,
                1.0,
                SimDuration::from_secs(600),
            ),
        ),
        (
            "markov",
            LoadModel::markov_on_off(
                9,
                SimDuration::from_secs(60),
                SimDuration::from_secs(20),
                0.25,
                SimDuration::from_secs(1200),
            ),
        ),
    ]
}

fn forecasters(window: usize) -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(LastValue::new()),
        Box::new(RunningMean::new()),
        Box::new(SlidingMean::new(window)),
        Box::new(SlidingMedian::new(window)),
        Box::new(Ewma::new(0.3)),
        Box::new(AdaptiveEwma::new(0.05, 0.9)),
        Box::new(Ensemble::nws_default(window)),
    ]
}

/// Table 4 — forecaster accuracy per background-load class.
///
/// Every forecaster family observes availability samples (1 Hz) from
/// every load-model class and is scored on one-step-ahead mean absolute
/// error. The NWS-style ensemble should track the best member in every
/// class — that is the justification for using dynamic predictor
/// selection in the controller.
pub fn t4() -> Experiment {
    let mut out = Experiment::new(
        "T4",
        "one-step-ahead forecaster MAE by load class (1 Hz sampling, 600 s)",
        "persistence wins on slow dynamics, the median on spiky ones; the \
         NWS ensemble is at or near the best member in every class",
    );

    let window = 16;
    let names: Vec<&'static str> = forecasters(window).iter().map(|f| f.name()).collect();
    let mut headers = vec!["class"];
    headers.extend(names.iter().copied());
    let mut table = Table::new(&headers);

    for (class, model) in load_classes() {
        let mut row = vec![class.to_string()];
        let mut maes: Vec<f64> = Vec::new();
        for mut forecaster in forecasters(window) {
            let mut errors = ErrorStats::new();
            for step in 0..600u64 {
                let t = step as f64;
                let value = model.availability(SimTime::from_secs_f64(t));
                if let Some(pred) = forecaster.predict() {
                    errors.record(pred, value);
                }
                forecaster.observe(t, value);
            }
            maes.push(errors.mae().unwrap_or(f64::NAN));
        }
        let best = maes
            .iter()
            .take(maes.len() - 1) // exclude the ensemble itself
            .cloned()
            .fold(f64::INFINITY, f64::min);
        for (i, mae) in maes.iter().enumerate() {
            let marker = if *mae <= best + 1e-12 && i < maes.len() - 1 {
                "*"
            } else {
                ""
            };
            row.push(format!("{mae:.4}{marker}"));
        }
        table.row(row);
    }
    out.table(table);
    out.note("* = best individual member; the ensemble column should sit close to it".to_string());
    out
}

/// Table 5 — how wrong is the analytic model when links contend?
///
/// The bottleneck model treats every directed link as an independent
/// resource and ignores queueing between transfers sharing a link. The
/// simulator can enforce per-link serialisation. This table sweeps item
/// size on a WAN-linked pipeline and reports the model's throughput
/// error against contention-enabled simulation — quantifying when the
/// "communication is overlapped" assumption starts to mislead the
/// planner (and motivating the regret guard as the backstop).
pub fn t5() -> Experiment {
    let mut out = Experiment::new(
        "T5",
        "analytic-model error vs link contention (item-size sweep, slow WAN)",
        "while compute dominates, both sims match the model; once transfers \
         dominate, the model tracks the *contended* sim (it prices links as \
         serial resources) and is pessimistic for the uncontended one",
    );

    // 3 stages spread over 3 nodes joined by WAN links (12.5 MB/s).
    let grid = free_grid(3, LinkSpec::slow_wan());
    let mapping = Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(2)]);

    let mut table = Table::new(&[
        "item KB",
        "model tput",
        "sim tput (no cont.)",
        "sim tput (contention)",
        "err no-cont %",
        "err cont %",
    ]);
    for kb in [16u64, 64, 256, 1024, 4096] {
        let spec = PipelineSpec::balanced(3, 1.0, kb << 10);
        let rates = grid.rates_at(SimTime::ZERO);
        let pred = evaluate(&spec.profile(), &mapping, &rates, grid.topology());
        let free = static_tput(&grid, &spec, &mapping, false);
        let contended = static_tput(&grid, &spec, &mapping, true);
        let err = |measured: f64| (pred.throughput - measured) / measured * 100.0;
        table.row(vec![
            kb.to_string(),
            format!("{:.3}", pred.throughput),
            format!("{free:.3}"),
            format!("{contended:.3}"),
            format!("{:+.1}", err(free)),
            format!("{:+.1}", err(contended)),
        ]);
    }
    out.table(table);
    out.note("err = (model − simulated) / simulated; positive = model optimistic".to_string());
    out
}
