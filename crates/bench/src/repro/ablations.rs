//! Ablations A1 and A2: what the forecaster ensemble and each stability
//! mechanism are worth to the controller.

use super::{run_chain4, secs, square_wave_grid, Experiment};
use crate::{under, Table};
use adapipe::monitor::sensor::ForecasterKind;
use adapipe::prelude::*;

/// A grid mixing an abrupt step, a square wave, and a random walk — no
/// single predictor family is ideal for all three.
fn volatile_grid(seed: u64) -> GridSpec {
    let nodes = vec![
        Node::new(NodeSpec::new("steady", 1.0, 1), LoadModel::free()),
        Node::new(
            NodeSpec::new("stepper", 1.0, 1),
            LoadModel::step(1.0, 0.15, SimTime::from_secs_f64(60.0)),
        ),
        Node::new(
            NodeSpec::new("waver", 1.0, 1),
            LoadModel::square_wave(
                1.0,
                0.3,
                SimDuration::from_secs(80),
                0.5,
                SimDuration::from_secs(40),
            ),
        ),
        Node::new(
            NodeSpec::new("walker", 1.0, 1),
            LoadModel::random_walk(
                seed,
                0.8,
                0.08,
                SimDuration::from_secs(4),
                0.3,
                1.0,
                SimDuration::from_secs(600),
            ),
        ),
    ];
    GridSpec::new(nodes, Topology::uniform(4, LinkSpec::lan()))
}

/// Ablation A1 — does the NWS ensemble earn its keep?
///
/// The controller's forecaster is the only component standing between
/// raw availability samples and planning decisions. This ablation
/// re-runs a volatile-grid scenario with each predictor family driving
/// the same controller, measuring end-to-end makespan. The ensemble
/// should match the best individual family without knowing in advance
/// which one that is — that is precisely its job.
pub fn a1() -> Experiment {
    let mut out = Experiment::new(
        "A1 (ablation)",
        "forecaster family driving the controller, volatile 4-node grid",
        "the NWS ensemble sits at or near the best family on every seed; \
         naive persistence over-reacts to the wave, running-mean \
         under-reacts to the step",
    );

    let seeds = [3u64, 7, 11];
    let session = under(Policy::periodic_default());

    let mut table = Table::new(&["forecaster", "seed3(s)", "seed7(s)", "seed11(s)", "mean(s)"]);
    let mut best = f64::INFINITY;
    let mut ensemble = None;
    for kind in ForecasterKind::all() {
        let mut cells = vec![kind.name().to_string()];
        let mut sum = 0.0;
        for seed in seeds {
            let report = run_chain4(&volatile_grid(seed), &session, 500, |cfg| {
                cfg.controller.forecaster = kind
            });
            sum += secs(&report);
            cells.push(format!("{:.1}", secs(&report)));
        }
        let mean = sum / seeds.len() as f64;
        cells.push(format!("{mean:.1}"));
        best = best.min(mean);
        if kind.name() == "nws_ensemble" {
            ensemble = Some(mean);
        }
        table.row(cells);
    }
    out.table(table);

    let ensemble = ensemble.expect("ensemble row present");
    out.note(format!(
        "ensemble mean {:.1}s vs best family {:.1}s ({:+.1}%)",
        ensemble,
        best,
        (ensemble / best - 1.0) * 100.0
    ));
    out
}

/// Ablation A2 — which stability mechanism pays at which migration cost?
///
/// Under load oscillating near the control period, aliased forecasts
/// hallucinate large gains and the cost/benefit rule alone cannot stop
/// the controller from chasing them. The sweep below raises the fixed
/// migration overhead from free to crippling and compares:
///
/// * `chase` — default stack (hysteresis + warm-up + guard, confirm 1);
/// * `confirm` — the same plus 2-tick verdict confirmation;
/// * `bare` — hysteresis only (guard and warm-up disabled).
///
/// Expected: with cheap migrations `chase` is best (tracking the wave is
/// profitable and reverting is nearly free); as overhead grows, `chase`
/// pays for every hallucinated move and `confirm` takes over; `bare` is
/// dominated everywhere it differs.
pub fn a2() -> Experiment {
    let mut out = Experiment::new(
        "A2 (ablation)",
        "stability mechanisms vs migration overhead, oscillating load",
        "cheap migrations: chasing wins; expensive migrations: 2-tick \
         confirmation wins by refusing hallucinated gains; the bare \
         controller is never better than both",
    );

    let grid = square_wave_grid(SimDuration::from_secs(10)); // 2× the adaptation interval
    let items = 400u64;

    let static_s = secs(&run_chain4(&grid, &Session::default(), items, |_| {}));
    out.note(format!("static baseline: {static_s:.1}s\n"));

    let mut table = Table::new(&[
        "overhead(s)",
        "chase(s)",
        "chase remaps",
        "confirm(s)",
        "confirm remaps",
        "bare(s)",
        "bare remaps",
    ]);
    let session = under(Policy::periodic_default());
    for overhead_ms in [0u64, 100, 1_000, 5_000, 20_000] {
        let mut cells = vec![format!("{:.1}", overhead_ms as f64 / 1000.0)];
        // chase, confirm, bare: (confirmation ticks, guard and warm-up on).
        for (confirm, guard) in [(1, true), (2, true), (1, false)] {
            let report = run_chain4(&grid, &session, items, |cfg| {
                cfg.controller.remap_overhead = SimDuration::from_millis(overhead_ms);
                cfg.controller.confirm_ticks = confirm;
                if !guard {
                    cfg.controller.guard_bad_ticks = 0;
                    cfg.controller.warmup_ticks = 0;
                }
            });
            cells.push(format!("{:.1}", secs(&report)));
            cells.push(report.adaptation_count().to_string());
        }
        table.row(cells);
    }
    out.table(table);
    out.note(format!(
        "reference: static {static_s:.1}s — the best column should track it within \
         ~10% at every overhead"
    ));
    out
}
