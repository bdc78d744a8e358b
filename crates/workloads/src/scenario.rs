//! Named workload scenarios shared by examples, tests and benches.
//!
//! Each scenario pins a pipeline shape (stage count, cost skew, data
//! sizes) so that every experiment in `EXPERIMENTS.md` names its workload
//! unambiguously.

use adapipe_core::pipeline::{Pipeline, PipelineBuilder};
use adapipe_core::spec::{PipelineSpec, StageSpec, UniformWork};
use adapipe_engine::vnode::spin_for;
use std::time::Duration;

/// How stage costs are distributed along the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostShape {
    /// All stages cost the same.
    Balanced,
    /// One stage (the middle one) costs `skew ×` the others.
    MiddleHeavy,
    /// Costs increase linearly from first to last stage.
    Ramp,
}

/// Builds a synthetic [`PipelineSpec`] for the simulator.
///
/// * `ns` — stage count;
/// * `shape` — cost distribution (total work ≈ `ns × base_work` for all
///   shapes, so results are comparable across shapes);
/// * `base_work` — per-stage work units for the balanced shape;
/// * `bytes` — item size on every boundary;
/// * `jitter` — per-item uniform work spread (0 = deterministic).
pub fn synthetic_spec(
    ns: usize,
    shape: CostShape,
    base_work: f64,
    bytes: u64,
    jitter: f64,
    seed: u64,
) -> PipelineSpec {
    assert!(ns > 0, "need at least one stage");
    assert!(base_work > 0.0, "work must be positive");
    let weights: Vec<f64> = match shape {
        CostShape::Balanced => vec![1.0; ns],
        CostShape::MiddleHeavy => {
            // Middle stage gets 4×; renormalise to keep total = ns.
            let mut w = vec![1.0; ns];
            w[ns / 2] = 4.0;
            let total: f64 = w.iter().sum();
            w.iter().map(|x| x * ns as f64 / total).collect()
        }
        CostShape::Ramp => {
            // 1, 2, …, ns renormalised to total ns.
            let total: f64 = (1..=ns).sum::<usize>() as f64;
            (1..=ns).map(|i| i as f64 * ns as f64 / total).collect()
        }
    };
    let stages = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let mean = base_work * w;
            let mut s = StageSpec::balanced(format!("s{i}"), mean, bytes);
            if jitter > 0.0 {
                s = s.with_work(Box::new(UniformWork::new(
                    mean,
                    jitter,
                    seed.wrapping_add(i as u64),
                )));
            }
            s
        })
        .collect();
    let mut spec = PipelineSpec::new(stages);
    spec.input_bytes = bytes;
    spec
}

/// The item type synthetic *threaded* pipelines process: carries its own
/// per-stage spin durations so replicas need no shared counters.
#[derive(Clone, Debug)]
pub struct SynthItem {
    /// Item index in the stream.
    pub seq: u64,
    /// Spin duration per stage, seconds.
    pub spin_secs: Vec<f64>,
}

/// Generates `n` synthetic items whose per-stage spins mirror `spec`'s
/// work draws scaled by `unit_secs` (wall seconds per work unit).
pub fn synth_items(spec: &PipelineSpec, n: u64, unit_secs: f64) -> Vec<SynthItem> {
    assert!(unit_secs > 0.0, "unit time must be positive");
    (0..n)
        .map(|seq| SynthItem {
            seq,
            spin_secs: (0..spec.len())
                .map(|s| spec.draw_work(s, seq) * unit_secs)
                .collect(),
        })
        .collect()
}

/// Builds a threaded [`Pipeline`] that burns each item's per-stage spin
/// duration — the wall-clock twin of a simulated synthetic workload.
pub fn synth_pipeline(spec: &PipelineSpec) -> Pipeline<SynthItem, SynthItem> {
    let ns = spec.len();
    let mut builder = PipelineBuilder::<SynthItem>::new().input_bytes(spec.input_bytes);
    for s in 0..ns {
        let stage_spec = StageSpec::balanced(
            spec.stages[s].name.clone(),
            spec.stages[s].work.mean(),
            spec.stages[s].out_bytes,
        );
        builder = builder.stage(stage_spec, move |item: SynthItem| {
            spin_for(Duration::from_secs_f64(item.spin_secs[s]));
            item
        });
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_shape_is_uniform() {
        let spec = synthetic_spec(4, CostShape::Balanced, 2.0, 100, 0.0, 0);
        let profile = spec.profile();
        assert_eq!(profile.stage_work, vec![2.0; 4]);
        assert_eq!(spec.total_mean_work(), 8.0);
    }

    #[test]
    fn middle_heavy_keeps_total_work() {
        let spec = synthetic_spec(5, CostShape::MiddleHeavy, 1.0, 0, 0.0, 0);
        let total = spec.total_mean_work();
        assert!((total - 5.0).abs() < 1e-9, "total={total}");
        let works = spec.profile().stage_work;
        let max = works.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(works[2], max, "middle stage must be heaviest");
        assert!(works[2] / works[0] > 3.9);
    }

    #[test]
    fn ramp_increases_monotonically() {
        let spec = synthetic_spec(4, CostShape::Ramp, 1.0, 0, 0.0, 0);
        let works = spec.profile().stage_work;
        assert!(works.windows(2).all(|w| w[0] < w[1]));
        assert!((spec.total_mean_work() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn jittered_spec_draws_vary_per_item() {
        let spec = synthetic_spec(2, CostShape::Balanced, 1.0, 0, 0.3, 42);
        let a = spec.draw_work(0, 1);
        let b = spec.draw_work(0, 2);
        assert_ne!(a, b);
        assert!((0.7..=1.3).contains(&a));
    }

    #[test]
    fn synth_items_mirror_spec_draws() {
        let spec = synthetic_spec(3, CostShape::Ramp, 1.0, 0, 0.2, 7);
        let items = synth_items(&spec, 10, 0.001);
        assert_eq!(items.len(), 10);
        for item in &items {
            assert_eq!(item.spin_secs.len(), 3);
            for (s, &spin) in item.spin_secs.iter().enumerate() {
                let expect = spec.draw_work(s, item.seq) * 0.001;
                assert!((spin - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn synth_pipeline_burns_and_passes_items() {
        let spec = synthetic_spec(2, CostShape::Balanced, 1.0, 0, 0.0, 0);
        let p = synth_pipeline(&spec);
        assert_eq!(p.len(), 2);
        let (_, mut stages, ..) = p.into_parts();
        let item = SynthItem {
            seq: 0,
            spin_secs: vec![0.001, 0.001],
        };
        let t0 = std::time::Instant::now();
        let mut boxed: adapipe_core::stage::BoxedItem = adapipe_core::payload::Payload::new(item);
        for s in &mut stages {
            s.process(&mut boxed).expect("stages are type-aligned");
        }
        assert!(t0.elapsed() >= Duration::from_millis(2));
        let out = boxed.downcast::<SynthItem>().unwrap();
        assert_eq!(out.seq, 0);
    }
}
