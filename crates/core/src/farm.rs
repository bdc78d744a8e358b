//! The task-farm skeleton, expressed through the adaptive pipeline.
//!
//! Gonzalez-Velez & Cole's adaptive-structured-parallelism line treats
//! *pipeline* and *farm* as the two workhorse skeletons, and their
//! composition ("pipelines of farms") as the common application shape.
//! In this implementation a farm **is** a one-stage pipeline whose stage
//! is stateless — the planner's replication pass then spreads it over as
//! many nodes as pay off, and all of the adaptation machinery (monitor,
//! forecast, re-map, hysteresis) applies unchanged.
//!
//! This module provides the conveniences that make that composition
//! pleasant: farm construction from a worker function, and farm-stage
//! insertion into a longer pipeline.

use crate::pipeline::{Pipeline, PipelineBuilder};
use crate::spec::StageSpec;
use adapipe_runtime::session::BuildError;
use adapipe_state::StateCodec;

/// Builds a task farm: a single replicable stage intended for
/// replication across grid nodes.
///
/// `spec` carries the cost metadata (work per item, output size) and
/// the state declaration; the planner decides the replication width at
/// run time, bounded by `PlannerConfig::max_width`. The worker is built
/// like every plain closure ([`crate::stage::declared`]): it replicates
/// iff the declaration is replicable — exactly the declarations a farm
/// accepts.
///
/// ```
/// use adapipe_core::farm::farm;
/// use adapipe_core::spec::StageSpec;
///
/// let f = farm(StageSpec::balanced("render", 4.0, 1 << 20), |scene: u64| scene * 2)
///     .expect("stateless worker");
/// assert_eq!(f.len(), 1);
/// ```
///
/// # Errors
/// Returns [`BuildError::StatefulFarm`] when `spec` carries state the
/// replication pass cannot split — *opaque* (undeclared) or *exclusive*
/// state. A spec with **declared keyed or accumulator state** builds:
/// the plain worker holds no managed state, so its items shard by
/// sequence number; [`farm_keyed`] is the API to reach for when the
/// worker actually needs the managed per-key state. (Historically any
/// statefulness was a construction-time panic; it is now typed,
/// consistent with the unified builder's other validations.)
pub fn farm<I, O, F>(spec: StageSpec, worker: F) -> Result<Pipeline<I, O>, BuildError>
where
    I: Send + 'static,
    O: Send + 'static,
    F: FnMut(I) -> O + Send + Clone + 'static,
{
    if !spec.state.replicable() {
        return Err(BuildError::StatefulFarm {
            stage: spec.name.clone(),
        });
    }
    Ok(PipelineBuilder::<I>::new().stage(spec, worker).build())
}

/// Builds a task farm over *declared keyed state*: items hash to shards
/// by `key`, each worker replica owns a shard set, and `f` processes an
/// item with mutable access to its key's state `S`. This is the
/// shard-per-worker farm: the planner replicates the stage up to the
/// declared shard count, and shards migrate with their owners.
///
/// # Errors
/// Returns [`BuildError::StatefulFarm`] when `spec` does not declare
/// keyed state (`with_keyed_state`): an undeclared-stateful farm worker
/// still cannot be replicated.
pub fn farm_keyed<I, O, S, K, F>(
    spec: StageSpec,
    key: K,
    init: impl Fn() -> S + Send + Sync + 'static,
    f: F,
) -> Result<Pipeline<I, O>, BuildError>
where
    I: Send + 'static,
    O: Send + 'static,
    S: StateCodec + Send + 'static,
    K: Fn(&I) -> u64 + Send + Sync + 'static,
    F: FnMut(&mut S, I) -> O + Send + Clone + 'static,
{
    if spec.state.shards() == 0 {
        return Err(BuildError::StatefulFarm {
            stage: spec.name.clone(),
        });
    }
    Ok(PipelineBuilder::<I>::new()
        .keyed_stage(spec, key, init, f)
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::simengine::run;
    use crate::spec::PipelineSpec;
    use adapipe_gridsim::grid::GridSpec;
    use adapipe_gridsim::load::LoadModel;
    use adapipe_gridsim::net::{LinkSpec, Topology};
    use adapipe_gridsim::node::{Node, NodeSpec};
    use adapipe_gridsim::time::SimDuration;
    use adapipe_runtime::arrivals::ArrivalProcess;
    use adapipe_runtime::session::{RunConfig, Session};

    fn uniform_grid(np: usize) -> GridSpec {
        let nodes = (0..np)
            .map(|i| Node::new(NodeSpec::new(format!("n{i}"), 1.0, 1), LoadModel::free()))
            .collect();
        GridSpec::new(nodes, Topology::uniform(np, LinkSpec::lan()))
    }

    /// The simulation side of a farm: a one-stage spec with the given
    /// per-item work and item size.
    fn farm_spec(work: f64, bytes: u64) -> PipelineSpec {
        let mut spec = PipelineSpec::new(vec![StageSpec::balanced("farm", work, bytes)]);
        spec.input_bytes = bytes;
        spec
    }

    #[test]
    fn farm_is_a_one_stage_pipeline() {
        let f = farm(StageSpec::balanced("w", 1.0, 8), |x: u32| x + 1).expect("stateless");
        assert_eq!(f.len(), 1);
        assert!(f.spec().profile().state[0].replicable());
    }

    #[test]
    fn simulated_farm_scales_with_nodes() {
        // 1 unit of work per item; the planner may replicate up to 8 wide.
        let spec = farm_spec(1.0, 1_000);
        let items = 200u64;
        let mut makespans = Vec::new();
        for np in [1usize, 2, 4, 8] {
            let mut cfg = RunConfig {
                items,
                ..RunConfig::default()
            };
            cfg.controller.planner.max_width = 8;
            let report = run(&uniform_grid(np), &spec, &Session::default(), &cfg);
            assert_eq!(report.completed, items);
            makespans.push(report.makespan.as_secs_f64());
        }
        // Farm throughput scales near-linearly: 8 nodes ≥ 6x faster than 1.
        let speedup = makespans[0] / makespans[3];
        assert!(speedup > 6.0, "8-node farm speedup {speedup:.2}");
        // And monotone in between.
        assert!(makespans.windows(2).all(|w| w[1] <= w[0] * 1.01));
    }

    #[test]
    fn adaptive_farm_survives_worker_loss() {
        use adapipe_gridsim::fault::FaultPlan;
        use adapipe_gridsim::node::NodeId;
        use adapipe_gridsim::time::SimTime;

        let mut grid = uniform_grid(4);
        FaultPlan::new()
            .crash(NodeId(2), SimTime::from_secs_f64(20.0))
            .apply(&mut grid);
        let spec = farm_spec(1.0, 0);
        let mut cfg = RunConfig {
            items: 300,
            ..RunConfig::default()
        };
        cfg.controller.planner.max_width = 4;
        let session = Session::new(
            Policy::Periodic {
                interval: SimDuration::from_secs(5),
            },
            ArrivalProcess::AllAtOnce,
        )
        .expect("a valid policy");
        let report = run(&grid, &spec, &session, &cfg);
        assert_eq!(report.completed, 300, "farm must re-spread after the crash");
        assert!(report.adaptation_count() >= 1);
        assert!(!report.final_mapping.placement(0).contains(NodeId(2)));
    }

    #[test]
    fn declared_keyed_farm_builds_shard_per_worker() {
        // Satellite of the state subsystem: a *declared* keyed spec is
        // replicable, so the farm builds instead of erroring.
        let f = farm::<u32, u32, _>(
            StageSpec::balanced("w", 1.0, 0).with_keyed_state(4, 256),
            |x| x + 1,
        )
        .expect("declared keyed state is farmable");
        let profile = f.spec().profile();
        assert!(profile.state[0].replicable(), "keyed farms replicate");
        assert_eq!(profile.replica_cap, vec![4], "one shard per worker max");
    }

    #[test]
    fn keyed_farm_counts_per_key() {
        let f = farm_keyed(
            StageSpec::balanced("sessions", 1.0, 8).with_keyed_state(2, 64),
            |k: &u64| *k,
            || 0u64,
            |n: &mut u64, k: u64| {
                *n += 1;
                (k, *n)
            },
        )
        .expect("declared keyed farm builds");
        assert_eq!(f.len(), 1);
        let (_, mut stages, _, keys) = f.into_parts();
        assert!(keys[0].is_some(), "keyed farm carries its router key");
        let run = |s: &mut Box<dyn crate::stage::DynStage>, k: u64| {
            s.process(crate::payload::Payload::new(k))
                .expect("typed")
                .downcast::<(u64, u64)>()
                .unwrap()
        };
        assert_eq!(run(&mut stages[0], 5), (5, 1));
        assert_eq!(run(&mut stages[0], 5), (5, 2));
        assert_eq!(run(&mut stages[0], 6), (6, 1));
    }

    #[test]
    fn undeclared_keyed_farm_is_still_a_typed_error() {
        let err = match farm_keyed::<u64, u64, u64, _, _>(
            StageSpec::balanced("w", 1.0, 0).with_state(64),
            |k: &u64| *k,
            || 0u64,
            |_: &mut u64, k: u64| k,
        ) {
            Err(err) => err,
            Ok(_) => panic!("opaque state cannot farm"),
        };
        assert_eq!(err, BuildError::StatefulFarm { stage: "w".into() });
    }

    #[test]
    fn stateful_farm_worker_is_a_typed_error() {
        use adapipe_runtime::session::BuildError;
        let err = match farm::<u32, u32, _>(StageSpec::balanced("w", 1.0, 0).with_state(64), |x| x)
        {
            Err(err) => err,
            Ok(_) => panic!("stateful farm must be rejected"),
        };
        assert_eq!(err, BuildError::StatefulFarm { stage: "w".into() });
        assert!(err.to_string().contains("'w'"));
    }
}
