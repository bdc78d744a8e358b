//! Run recording: the throughput timeline.
//!
//! Reports carry it and experiments print the figure series from it;
//! nothing here affects simulation behaviour.

use crate::time::{SimDuration, SimTime};

/// Buckets completion events into fixed windows and reports the rate per
/// window — the "throughput over time" series of figures F1/F6.
#[derive(Clone, Debug)]
pub struct ThroughputTimeline {
    window: SimDuration,
    counts: Vec<u64>,
}

impl ThroughputTimeline {
    /// Creates a timeline with the given bucket width.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "bucket width must be positive");
        ThroughputTimeline {
            window,
            counts: Vec::new(),
        }
    }

    /// Records one completion at `t`.
    pub fn record(&mut self, t: SimTime) {
        self.record_n(t, 1);
    }

    /// Records `n` completions at `t` with one bucket update — the
    /// batched form sinks use when a whole envelope of items lands in
    /// the same instant (the bucket index is computed once, not per
    /// item).
    pub fn record_n(&mut self, t: SimTime, n: u64) {
        let bucket = (t.as_nanos() / self.window.as_nanos()) as usize;
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += n;
    }

    /// The bucket width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Throughput per bucket as `(bucket_midpoint_time, items_per_second)`.
    pub fn series(&self) -> Vec<(SimTime, f64)> {
        let w = self.window.as_secs_f64();
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mid = SimTime::from_nanos(
                    i as u64 * self.window.as_nanos() + self.window.as_nanos() / 2,
                );
                (mid, c as f64 / w)
            })
            .collect()
    }

    /// Total completions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn throughput_buckets_completions() {
        let mut tl = ThroughputTimeline::new(SimDuration::from_secs(10));
        for t in [1.0, 2.0, 3.0, 11.0, 25.0] {
            tl.record(secs(t));
        }
        let series = tl.series();
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 0.3).abs() < 1e-12); // 3 items / 10 s
        assert!((series[1].1 - 0.1).abs() < 1e-12);
        assert!((series[2].1 - 0.1).abs() < 1e-12);
        assert_eq!(series[0].0, secs(5.0));
        assert_eq!(tl.total(), 5);
    }

    #[test]
    fn empty_timeline_has_empty_series() {
        let tl = ThroughputTimeline::new(SimDuration::from_secs(1));
        assert!(tl.series().is_empty());
        assert_eq!(tl.total(), 0);
    }
}
