//! Property-style tests for the simulated engine: determinism,
//! conservation, and model agreement.
//!
//! The workspace builds offline, so instead of a property-testing
//! framework these sweep each property over a deterministic fan of
//! seeded cases (the seeds drive `adapipe_gridsim::rng`). Failures
//! print the offending case, which reproduces exactly.

use adapipe_core::prelude::*;
use adapipe_core::simengine::run as sim_run;
use adapipe_gridsim::prelude::*;
use adapipe_gridsim::rng::{unit_at, Rng64};
use adapipe_mapper::prelude::*;

/// `policy` over a stream that is all present at `t = 0`.
fn under(policy: Policy) -> Session {
    Session::new(policy, ArrivalProcess::AllAtOnce).expect("a valid policy")
}

fn uniform_grid(np: usize, speeds_seed: u64) -> GridSpec {
    let nodes = (0..np)
        .map(|i| {
            let speed = 0.5 + 3.5 * unit_at(speeds_seed, i as u64);
            Node::new(NodeSpec::new(format!("n{i}"), speed, 1), LoadModel::free())
        })
        .collect();
    GridSpec::new(nodes, Topology::uniform(np, LinkSpec::lan()))
}

/// Two identical runs produce identical reports, even with adaptive
/// policies and noisy observation.
#[test]
fn simulation_is_deterministic() {
    for case in 0..12u64 {
        let mut rng = Rng64::new(0xD0_0D + case);
        let seed = rng.next_u64();
        let items = 10 + rng.next_range(190) as u64;
        let ns = 1 + rng.next_range(4);
        let noise = 0.2 * rng.next_unit();
        let grid = testbed_hetero8(seed);
        let spec = PipelineSpec::balanced(ns, 1.0, 5_000);
        let cfg = RunConfig {
            items,
            observation_noise: noise,
            noise_seed: seed,
            ..RunConfig::default()
        };
        let a = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        let b = sim_run(&grid, &spec, &under(Policy::periodic_default()), &cfg);
        assert_eq!(a.completed, b.completed, "case {case}");
        assert_eq!(a.makespan, b.makespan, "case {case}");
        assert_eq!(a.adaptations.len(), b.adaptations.len(), "case {case}");
        assert_eq!(a.mean_latency, b.mean_latency, "case {case}");
    }
}

/// Conservation: on a live grid every item completes exactly once.
#[test]
fn all_items_complete_exactly_once() {
    for case in 0..24u64 {
        let mut rng = Rng64::new(0xC0_FFEE + case);
        let speeds_seed = rng.next_u64();
        let items = 1 + rng.next_range(299) as u64;
        let ns = 1 + rng.next_range(5);
        let np = 1 + rng.next_range(5);
        let grid = uniform_grid(np, speeds_seed);
        let spec = PipelineSpec::balanced(ns, 0.5, 1_000);
        let report = sim_run(
            &grid,
            &spec,
            &Session::default(),
            &RunConfig {
                items,
                ..RunConfig::default()
            },
        );
        assert_eq!(report.completed, items, "case {case} (ns={ns} np={np})");
        assert!(!report.truncated, "case {case}");
        assert_eq!(report.timeline.total(), items, "case {case}");
    }
}

/// Makespan is monotone in stream length.
#[test]
fn makespan_grows_with_stream_length() {
    for case in 0..12u64 {
        let mut rng = Rng64::new(0xFACE + case);
        let speeds_seed = rng.next_u64();
        let n1 = 1 + rng.next_range(149) as u64;
        let extra = 1 + rng.next_range(149) as u64;
        let grid = uniform_grid(3, speeds_seed);
        let spec = PipelineSpec::balanced(3, 1.0, 1_000);
        let run = |items| {
            sim_run(
                &grid,
                &spec,
                &Session::default(),
                &RunConfig {
                    items,
                    ..RunConfig::default()
                },
            )
        };
        let a = run(n1);
        let b = run(n1 + extra);
        assert!(
            b.makespan >= a.makespan,
            "case {case} (n1={n1} extra={extra})"
        );
    }
}

/// One instance of the simulated-truth oracle: a chain into a diamond
/// (two or three one-stage branches and the stage joining them) and on
/// through a second chain, each stage's work and output bytes drawn by
/// `stage`, on a grid of two to four nodes of unequal speed, each under
/// its own constant load, in two clusters of LAN links joined by WAN
/// links.
fn chain_diamond_instance(
    rng: &mut Rng64,
    stage: impl Fn(&mut Rng64) -> (f64, u64),
) -> (GridSpec, PipelineSpec) {
    let head = 1 + rng.next_range(2);
    let branches = 2 + rng.next_range(2);
    let tail = rng.next_range(3);
    let (fan, join) = (head - 1, head + branches);
    let ns = join + 1 + tail;
    let mut wiring = StageGraph::dag(ns);
    for s in (1..head).chain(join + 1..ns) {
        wiring = wiring.edge(s - 1, s);
    }
    for branch in head..join {
        wiring = wiring.edge(fan, branch).edge(branch, join);
    }
    let graph = wiring.build().expect("a chain, a diamond and a chain");
    let stages = (0..ns)
        .map(|s| {
            let (work, bytes) = stage(rng);
            StageSpec::balanced(format!("s{s}"), work, bytes)
        })
        .collect();
    let mut spec = PipelineSpec::with_graph(stages, graph);
    spec.input_bytes = 10_000;
    let np = 2 + rng.next_range(3);
    let nodes = (0..np)
        .map(|i| {
            let speed = 0.5 + 3.5 * rng.next_unit();
            let load = LoadModel::constant(0.3 + 0.7 * rng.next_unit());
            Node::new(NodeSpec::new(format!("n{i}"), speed, 1), load)
        })
        .collect();
    let topology = Topology::clustered(np, 2, LinkSpec::lan(), LinkSpec::wan());
    (GridSpec::new(nodes, topology), spec)
}

/// Kendall's τ-b between two rankings of the same mappings: +1 when
/// they order every pair alike, -1 when they order every pair apart.
fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    let (mut concordant, mut discordant, mut tied_a, mut tied_b) = (0.0f64, 0.0, 0.0, 0.0);
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let (da, db) = (a[i] - a[j], b[i] - b[j]);
            match (da == 0.0, db == 0.0) {
                (true, true) => {}
                (true, false) => tied_a += 1.0,
                (false, true) => tied_b += 1.0,
                _ if (da > 0.0) == (db > 0.0) => concordant += 1.0,
                _ => discordant += 1.0,
            }
        }
    }
    let pairs_a = concordant + discordant + tied_b;
    let pairs_b = concordant + discordant + tied_a;
    (concordant - discordant) / (pairs_a * pairs_b).sqrt()
}

/// How far the model is from the simulation over one instance family.
struct Agreement {
    /// The largest relative throughput error of any run, and the run.
    worst: (f64, String),
    /// The lowest per-instance Kendall τ, and the instance.
    lowest_tau: (f64, String),
}

/// Runs instances `seed..seed + cases` of [`chain_diamond_instance`]
/// (stages drawn by `stage`), five distinct random mappings each,
/// statically for `items` items under constant load, with transfers
/// contending for links or not. With `widen`, each mapping spreads one
/// or two of its stages over two or three hosts each. Compares each
/// run's throughput with the model's (the stream's length over its
/// predicted completion time) and each instance's ranking of its
/// mappings with the simulation's.
fn model_against_simulation(
    seed: u64,
    cases: u64,
    items: u64,
    link_contention: bool,
    widen: bool,
    stage: impl Fn(&mut Rng64) -> (f64, u64) + Copy,
) -> Agreement {
    let mut agreement = Agreement {
        worst: (0.0, String::new()),
        lowest_tau: (1.0, String::new()),
    };
    for case in seed..seed + cases {
        let mut rng = Rng64::new(case);
        let (grid, spec) = chain_diamond_instance(&mut rng, stage);
        let (np, profile) = (grid.len(), spec.profile());
        let rates = grid.rates_at(SimTime::ZERO);
        let mut mappings: Vec<Mapping> = Vec::new();
        while mappings.len() < 5 {
            let assignment: Vec<NodeId> = (0..spec.len())
                .map(|_| NodeId(rng.next_range(np)))
                .collect();
            let mut mapping = Mapping::from_assignment(&assignment);
            if widen {
                for _ in 0..1 + rng.next_range(2) {
                    let placement = mapping.placement_mut(rng.next_range(spec.len()));
                    let width = (2 + rng.next_range(2)).min(np);
                    while placement.width() < width {
                        placement.add_host(NodeId(rng.next_range(np)));
                    }
                }
            }
            if !mappings.contains(&mapping) {
                mappings.push(mapping);
            }
        }
        let (mut predicted, mut simulated) = (Vec::new(), Vec::new());
        for mapping in mappings {
            let pred = evaluate(&profile, &mapping, &rates, grid.topology());
            let cfg = RunConfig {
                items,
                initial_mapping: Some(mapping.clone()),
                link_contention,
                ..RunConfig::default()
            };
            let report = sim_run(&grid, &spec, &Session::default(), &cfg);
            assert_eq!(report.completed, items, "case {case}");
            let model = items as f64 / pred.completion_time(items);
            let sim = report.mean_throughput();
            let err = (model - sim).abs() / sim;
            if err > agreement.worst.0 {
                let run = format!(
                    "case {case}, mapping {}: model {model:.4}/s vs sim {sim:.4}/s",
                    mapping.notation()
                );
                agreement.worst = (err, run);
            }
            predicted.push(model);
            simulated.push(sim);
        }
        let tau = kendall_tau(&predicted, &simulated);
        if tau < agreement.lowest_tau.0 {
            let instance = format!("case {case}: model {predicted:?} vs sim {simulated:?}");
            agreement.lowest_tau = (tau, instance);
        }
    }
    agreement
}

/// Simulated truth for the analytic model (ROADMAP 6(b)): on 48 seeded
/// chain-and-diamond instances on heterogeneous grids, 5 distinct
/// random mappings each run statically under constant load. The
/// model's throughput for a run stays within `MAX_ERR` of the simulated
/// one on every run, and on every instance the model ranks the five
/// mappings as the simulation does, to a Kendall τ of at least
/// `MIN_TAU`, which allows one pair of the ten out of order. Measured:
/// the worst run is 0.48 % off, and the lowest τ is 0.95, on an
/// instance where two mappings tie in the model but not in the
/// simulation. The data is modest and transfers do not contend for
/// links (the default), so every run here is node-bound: how the model
/// prices a busy link is [`model_prices_contended_links`]'s to measure.
#[test]
fn model_agrees_with_simulation() {
    const MAX_ERR: f64 = 0.02;
    const MIN_TAU: f64 = 0.8;
    let node_bound = |rng: &mut Rng64| {
        let work = 0.5 + 1.5 * rng.next_unit();
        (work, 1_000 + rng.next_range(50_000) as u64)
    };
    let agreement = model_against_simulation(0xAB1E, 48, 300, false, false, node_bound);
    let (err, run) = agreement.worst;
    assert!(err <= MAX_ERR, "{run} ({:.1} % off)", err * 100.0);
    let (tau, instance) = agreement.lowest_tau;
    assert!(tau >= MIN_TAU, "Kendall tau {tau:.2} on {instance}");
}

/// The model's first weak spot (ROADMAP 6(c)): the same oracle on
/// link-heavy stages — work 0.05–0.3, outputs of 100 KB to 12.8 MB in
/// powers of two — with transfers contending for their links, which is
/// how the model prices every link: as a serial resource. On these 24
/// instances of 100 items the worst run is 14.0 % off and the lowest τ
/// is 0.8. Over eight such families (192 instances, 960 runs) the worst
/// run was 18.1 % off and the lowest τ 0.6, which the bounds allow.
/// With contention off, the simulator overlaps transfers the model
/// serialises, and the same families miss by up to 92 % with τ down to
/// −1: that gap is still open, because closing it moves fixtures.
#[test]
fn model_prices_contended_links() {
    const MAX_ERR: f64 = 0.2;
    const MIN_TAU: f64 = 0.6;
    let link_heavy = |rng: &mut Rng64| {
        let work = 0.05 + 0.25 * rng.next_unit();
        (work, 100_000 << rng.next_range(8))
    };
    let agreement = model_against_simulation(0x6C1F, 24, 100, true, false, link_heavy);
    let (err, run) = agreement.worst;
    assert!(err <= MAX_ERR, "{run} ({:.1} % off)", err * 100.0);
    let (tau, instance) = agreement.lowest_tau;
    assert!(tau >= MIN_TAU, "Kendall tau {tau:.2} on {instance}");
}

/// The same oracle on replicated mappings (ROADMAP 6(c)): each mapping
/// spreads one or two stateless stages over two or three hosts, so
/// their edges are `|from| × |to|` replica pairs, which the model
/// prices at an equal share each and the simulator deals round-robin.
/// Two families, as above: node-bound stages with links that do not
/// contend (48 instances of 300 items), and link-heavy stages with
/// links that do (24 instances of 100 items). Measured: the node-bound
/// family's worst run is 4.84 % off, the link-heavy family's 23.85 %
/// (a three-way replicated entry stage feeding a two-way one), and on
/// every instance of both the model ranks the five mappings as the
/// simulation does (τ = 1). The bounds are those measurements, the
/// errors rounded out to the next tenth of a per cent. Replication
/// misses by more than the unreplicated contended family above does.
#[test]
fn model_agrees_with_simulation_on_replicated_stages() {
    let node_bound = |rng: &mut Rng64| {
        let work = 0.5 + 1.5 * rng.next_unit();
        (work, 1_000 + rng.next_range(50_000) as u64)
    };
    let link_heavy = |rng: &mut Rng64| {
        let work = 0.05 + 0.25 * rng.next_unit();
        (work, 100_000 << rng.next_range(8))
    };
    for (family, agreement, max_err, min_tau) in [
        (
            "node-bound",
            model_against_simulation(0x5EED, 48, 300, false, true, node_bound),
            0.049,
            1.0,
        ),
        (
            "link-heavy",
            model_against_simulation(0x6EED, 24, 100, true, true, link_heavy),
            0.239,
            1.0,
        ),
    ] {
        let (err, run) = agreement.worst;
        let (tau, instance) = agreement.lowest_tau;
        assert!(err <= max_err, "{family}: {run} ({:.1} % off)", err * 100.0);
        assert!(
            tau >= min_tau,
            "{family}: Kendall tau {tau:.2} on {instance}"
        );
    }
}

/// The adaptive policy never loses badly to static on any seeded
/// hetero8 grid: hysteresis bounds the cost of adaptation.
#[test]
fn adaptation_never_loses_badly() {
    for case in 0..10u64 {
        let seed = Rng64::new(0xBEEF + case).next_u64();
        let spec = PipelineSpec::balanced(4, 1.0, 5_000);
        let items = 200u64;
        let grid = testbed_hetero8(seed);
        let static_r = sim_run(
            &grid,
            &spec,
            &Session::default(),
            &RunConfig {
                items,
                ..RunConfig::default()
            },
        );
        let adaptive_r = sim_run(
            &grid,
            &spec,
            &under(Policy::periodic_default()),
            &RunConfig {
                items,
                ..RunConfig::default()
            },
        );
        assert_eq!(adaptive_r.completed, items);
        assert!(
            adaptive_r.makespan.as_secs_f64() <= static_r.makespan.as_secs_f64() * 1.25,
            "adaptive {} vs static {} (seed {seed})",
            adaptive_r.makespan,
            static_r.makespan
        );
    }
}

/// Work models: drawn work is always within the declared spread.
#[test]
fn uniform_work_respects_bounds() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x50_50 + case);
        let mean = 0.1 + 9.9 * rng.next_unit();
        let spread = 0.9 * rng.next_unit();
        let seed = rng.next_u64();
        let item = rng.next_u64();
        let w = UniformWork::new(mean, spread, seed);
        let v = w.draw(item);
        assert!(v >= mean * (1.0 - spread) - 1e-12, "case {case}");
        assert!(v <= mean * (1.0 + spread) + 1e-12, "case {case}");
    }
}
