//! Per-stage instrumentation: observed service and queueing behaviour.
//!
//! The adaptive pattern's founding premise is that the skeleton can
//! *measure itself*: every task execution yields a service-time sample
//! attributable to (stage, node). Engines accumulate these into a
//! [`StageMetrics`] included in the final report — the observable a
//! deployment would feed to capacity planning, and the ground truth the
//! evaluation uses to validate the analytic model's service estimates.

use adapipe_gridsim::time::SimDuration;
use adapipe_monitor::stats::Welford;

/// Accumulated service-time statistics for one pipeline stage.
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    service: Welford,
    /// Work units processed (sum of draws).
    work_done: f64,
}

impl StageStats {
    /// Records one completed task.
    pub fn record(&mut self, service: SimDuration, work: f64) {
        self.service.push(service.as_secs_f64());
        self.work_done += work;
    }

    /// Records `count` completed tasks totalling `total` busy time and
    /// `work` work units, absorbed as one zero-variance batch at the
    /// window mean. Counts, sums and means stay exact; only the
    /// within-window service spread is collapsed — the trade the
    /// threaded engine's stride-sampled hot path makes to keep its
    /// bookkeeping at O(batches) rather than O(items).
    pub fn record_batch(&mut self, total: SimDuration, count: u64, work: f64) {
        if count == 0 {
            return;
        }
        self.service
            .push_n(total.as_secs_f64() / count as f64, count);
        self.work_done += work;
    }

    /// Number of tasks recorded.
    pub fn count(&self) -> u64 {
        self.service.count()
    }

    /// Mean service time, if any task completed.
    pub fn mean_service(&self) -> Option<SimDuration> {
        self.service.mean().map(SimDuration::from_secs_f64)
    }

    /// Service-time standard deviation, with ≥ 2 samples.
    pub fn service_std_dev(&self) -> Option<SimDuration> {
        self.service.std_dev().map(SimDuration::from_secs_f64)
    }

    /// Total work units processed.
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// Merges another stage's statistics into this one (exact for all
    /// reported moments) — how per-worker accumulators fold into one
    /// report.
    pub fn absorb(&mut self, other: &StageStats) {
        self.service.merge(&other.service);
        self.work_done += other.work_done;
    }

    /// Observed effective rate: work per busy second. Comparing this
    /// against `speed × availability` validates the engine's slowdown
    /// accounting end-to-end.
    pub fn effective_rate(&self) -> Option<f64> {
        let mean = self.service.mean()?;
        if mean <= 0.0 || self.service.count() == 0 {
            return None;
        }
        let mean_work = self.work_done / self.service.count() as f64;
        Some(mean_work / mean)
    }
}

/// Service-time statistics for every stage of a run.
#[derive(Clone, Debug, Default)]
pub struct StageMetrics {
    stages: Vec<StageStats>,
}

impl StageMetrics {
    /// Creates metrics for `ns` stages.
    pub fn new(ns: usize) -> Self {
        StageMetrics {
            stages: vec![StageStats::default(); ns],
        }
    }

    /// Records a completed task of `stage`.
    pub fn record(&mut self, stage: usize, service: SimDuration, work: f64) {
        self.stages[stage].record(service, work);
    }

    /// Records a whole window of `count` tasks of `stage` totalling
    /// `total` busy time and `work` work units in O(1) — see
    /// [`StageStats::record_batch`].
    pub fn record_batch(&mut self, stage: usize, total: SimDuration, count: u64, work: f64) {
        self.stages[stage].record_batch(total, count, work);
    }

    /// Merges another run's (or worker's) metrics into this one,
    /// stage by stage.
    ///
    /// # Panics
    /// Panics if the stage counts differ.
    pub fn absorb(&mut self, other: &StageMetrics) {
        assert_eq!(
            self.stages.len(),
            other.stages.len(),
            "stage count mismatch"
        );
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.absorb(theirs);
        }
    }

    /// Statistics of one stage.
    pub fn stage(&self, s: usize) -> &StageStats {
        &self.stages[s]
    }

    /// All stages in order.
    pub fn stages(&self) -> &[StageStats] {
        &self.stages
    }

    /// Number of stages tracked.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if no stages are tracked.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn stats_accumulate_mean_and_count() {
        let mut s = StageStats::default();
        s.record(d(1.0), 1.0);
        s.record(d(3.0), 1.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean_service(), Some(d(2.0)));
        assert_eq!(s.work_done(), 2.0);
    }

    #[test]
    fn record_batch_keeps_exact_count_mean_and_work() {
        let mut batched = StageStats::default();
        let mut stream = StageStats::default();
        for _ in 0..8 {
            stream.record(d(0.25), 1.5);
        }
        batched.record_batch(d(2.0), 8, 12.0);
        assert_eq!(batched.count(), stream.count());
        assert_eq!(batched.mean_service(), stream.mean_service());
        assert!((batched.work_done() - stream.work_done()).abs() < 1e-12);
        // A zero-count window is a no-op.
        batched.record_batch(d(5.0), 0, 5.0);
        assert_eq!(batched.count(), 8);
        assert!((batched.work_done() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn batched_windows_merge_with_streamed_samples() {
        // Mixing record() and record_batch() keeps first moments exact.
        let mut m = StageMetrics::new(1);
        m.record(0, d(1.0), 2.0);
        m.record_batch(0, d(3.0), 3, 6.0);
        let s = m.stage(0);
        assert_eq!(s.count(), 4);
        assert!((s.mean_service().unwrap().as_secs_f64() - 1.0).abs() < 1e-12);
        assert!((s.work_done() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn effective_rate_is_work_per_busy_second() {
        let mut s = StageStats::default();
        // 2 units of work in 4 s each time → rate 0.5.
        s.record(d(4.0), 2.0);
        s.record(d(4.0), 2.0);
        let rate = s.effective_rate().unwrap();
        assert!((rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_no_estimates() {
        let s = StageStats::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_service(), None);
        assert_eq!(s.effective_rate(), None);
    }

    #[test]
    fn absorb_equals_single_stream() {
        // Two workers' accumulators folded together must match one
        // accumulator that saw every sample.
        let mut a = StageMetrics::new(1);
        let mut b = StageMetrics::new(1);
        let mut whole = StageMetrics::new(1);
        for (i, v) in [1.0, 2.0, 4.0, 8.0, 16.0].iter().enumerate() {
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.record(0, d(*v), *v);
            whole.record(0, d(*v), *v);
        }
        a.absorb(&b);
        let (merged, single) = (a.stage(0), whole.stage(0));
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.work_done(), single.work_done());
        let (ms, ss) = (
            merged.mean_service().unwrap().as_secs_f64(),
            single.mean_service().unwrap().as_secs_f64(),
        );
        assert!((ms - ss).abs() < 1e-12);
        let (md, sd) = (
            merged.service_std_dev().unwrap().as_secs_f64(),
            single.service_std_dev().unwrap().as_secs_f64(),
        );
        assert!((md - sd).abs() < 1e-9, "variance merge must be exact");
    }

    #[test]
    fn std_dev_needs_two_samples() {
        let mut s = StageStats::default();
        s.record(d(2.0), 1.0);
        assert_eq!(s.service_std_dev(), None);
        s.record(d(4.0), 1.0);
        let sd = s.service_std_dev().unwrap().as_secs_f64();
        assert!((sd - std::f64::consts::SQRT_2).abs() < 1e-9);
    }
}
