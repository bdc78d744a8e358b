//! Run reports: everything an experiment needs to print its table row.

use crate::metrics::StageMetrics;
use adapipe_gridsim::fault::FaultPlan;
use adapipe_gridsim::time::{SimDuration, SimTime};
use adapipe_gridsim::trace::ThroughputTimeline;
use adapipe_mapper::mapping::Mapping;

/// One adaptation the controller performed.
#[derive(Clone, Debug)]
pub struct AdaptationEvent {
    /// When the re-mapping was triggered.
    pub at: SimTime,
    /// Mapping before.
    pub from: Mapping,
    /// Mapping after.
    pub to: Mapping,
    /// Stages whose placement changed.
    pub migrated_stages: Vec<usize>,
    /// Predicted throughput ratio (candidate / current) that justified
    /// the move.
    pub predicted_speedup: f64,
    /// Migration cost charged (state transfer + drain overhead).
    pub migration_cost: SimDuration,
}

/// One poison item diverted to the dead-letter channel: the item
/// exhausted a stage's retry budget and the stage's
/// `ResiliencePolicy::dead_letter` chose diversion over failing the
/// run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadLetter {
    /// Sequence number of the diverted item.
    pub seq: u64,
    /// The stage that gave up on it.
    pub stage: usize,
    /// Total attempts consumed (first try + retries).
    pub attempts: u32,
    /// The final attempt's error.
    pub reason: String,
}

/// Summary of one pipeline run (simulated or wall-clock).
#[derive(Debug)]
pub struct RunReport {
    /// Items that reached the sink.
    pub completed: u64,
    /// Time of the last completion (== makespan for closed streams).
    pub makespan: SimTime,
    /// Mean per-item latency (arrival → sink).
    pub mean_latency: SimDuration,
    /// Per-item latency samples (arrival → sink), unsorted. Use
    /// [`RunReport::latency_percentile`] for quantiles. Bounded: runs
    /// beyond ~1M completions retain a deterministic, approximately
    /// uniform subsample (see [`ReportBuilder::record_completion`]), so
    /// quantiles become estimates there while `mean_latency` stays
    /// exact.
    pub latencies: Vec<SimDuration>,
    /// Completions bucketed over time.
    pub timeline: ThroughputTimeline,
    /// Every re-mapping performed.
    pub adaptations: Vec<AdaptationEvent>,
    /// Busy seconds per node.
    pub node_busy: Vec<SimDuration>,
    /// The mapping in force when the run ended.
    pub final_mapping: Mapping,
    /// Planning cycles the controller ran (accepted or not) — the
    /// adaptation-overhead denominator.
    pub planning_cycles: u64,
    /// Observed per-stage service statistics.
    pub stage_metrics: StageMetrics,
    /// True if the run hit its safety horizon before completing.
    pub truncated: bool,
    /// Items re-dealt to a live host after their assigned node went
    /// down (at-least-once replay under the run's fault plan).
    pub replays: u64,
    /// Downtime each node accrued over the run (outages plus crash
    /// tails, clamped to the makespan). Empty when no fault plan ran.
    pub node_downtime: Vec<SimDuration>,
    /// State migrations performed: shard, partial, or whole-instance
    /// moves of declared stage state between hosts, whether triggered
    /// by a planning re-map or by a node death.
    pub migrations: u64,
    /// Total declared-state bytes shipped across hosts by those
    /// migrations (snapshot payload sizes, per the stage specs).
    pub state_bytes_moved: u64,
    /// Declared shard count per stage (0 for stages without keyed
    /// state) — the denominator for shard-rebalance accounting.
    pub stage_shards: Vec<usize>,
    /// Retry attempts consumed across all stages (each re-presentation
    /// of a failed item counts once).
    pub retries: u64,
    /// Poison items diverted to the dead-letter channel instead of
    /// completing (`== dead_letter_log.len()`).
    pub dead_letters: u64,
    /// The dead-letter channel itself: one record per diverted item,
    /// with its originating stage, attempt count, and error.
    pub dead_letter_log: Vec<DeadLetter>,
}

impl RunReport {
    /// Mean throughput over the whole run, items per second.
    pub fn mean_throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Number of re-mappings performed.
    pub fn adaptation_count(&self) -> usize {
        self.adaptations.len()
    }

    /// Total time charged to migrations.
    fn total_migration_cost(&self) -> SimDuration {
        self.adaptations.iter().fold(SimDuration::ZERO, |acc, e| {
            acc.saturating_add(e.migration_cost)
        })
    }

    /// Latency percentile, or `None` if nothing completed or `q` is
    /// NaN. An out-of-range `q` is clamped into `[0, 1]` (q < 0 reads
    /// the minimum, q > 1 the maximum) rather than forwarded into the
    /// quantile kernel, whose interpolation indices it would break.
    pub fn latency_percentile(&self, q: f64) -> Option<SimDuration> {
        if self.latencies.is_empty() || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut sorted: Vec<f64> = self.latencies.iter().map(|d| d.as_secs_f64()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Some(SimDuration::from_secs_f64(
            adapipe_monitor::stats::quantile_sorted(&sorted, q),
        ))
    }

    /// Utilisation of node `i` over the makespan; 0.0 for a node index
    /// the run never covered (reports are often probed with a foreign
    /// grid's node range — out of range is "never busy", not a panic).
    pub fn node_utilisation(&self, i: usize) -> f64 {
        let horizon = self.makespan.as_secs_f64();
        let Some(busy) = self.node_busy.get(i) else {
            return 0.0;
        };
        if horizon <= 0.0 {
            return 0.0;
        }
        (busy.as_secs_f64() / horizon).clamp(0.0, 1.0)
    }

    /// Serialises the report as one machine-readable JSON object, so
    /// bench binaries and long-running services emit comparable records
    /// without ad-hoc formatting. Times are seconds (`f64`); the final
    /// mapping is an array of per-stage host arrays; the per-item
    /// latency samples are summarised as quantiles rather than dumped.
    /// `items_per_sec` repeats `mean_throughput` under the key name the
    /// bench harness uses, so `BENCH_*.json` records are directly
    /// comparable across runs without knowing which tool wrote them.
    ///
    /// **Quantile caveat:** the emitted `latency_p50/p95/p99` values are
    /// computed from the retained latency samples. Runs beyond ~1M
    /// completions retain a decimated subsample (see
    /// [`ReportBuilder::record_completion`]), so on very long streams
    /// these quantiles are *estimates*, while `mean_latency_secs` stays
    /// exact over every completion.
    pub fn to_json(&self) -> String {
        let mapping_json = |m: &Mapping| {
            let stages: Vec<String> = (0..m.len())
                .map(|s| {
                    let hosts: Vec<String> = m
                        .placement(s)
                        .hosts()
                        .iter()
                        .map(|h| h.index().to_string())
                        .collect();
                    format!("[{}]", hosts.join(","))
                })
                .collect();
            format!("[{}]", stages.join(","))
        };
        let adaptations: Vec<String> = self
            .adaptations
            .iter()
            .map(|e| {
                let stages: Vec<String> = e.migrated_stages.iter().map(|s| s.to_string()).collect();
                format!(
                    "{{\"at_secs\":{},\"migrated_stages\":[{}],\"predicted_speedup\":{},\
                     \"migration_cost_secs\":{},\"to\":{}}}",
                    json_f64(e.at.as_secs_f64()),
                    stages.join(","),
                    json_f64(e.predicted_speedup),
                    json_f64(e.migration_cost.as_secs_f64()),
                    mapping_json(&e.to),
                )
            })
            .collect();
        let node_busy: Vec<String> = self
            .node_busy
            .iter()
            .map(|d| json_f64(d.as_secs_f64()))
            .collect();
        let node_downtime: Vec<String> = self
            .node_downtime
            .iter()
            .map(|d| json_f64(d.as_secs_f64()))
            .collect();
        let quantile = |q: f64| {
            self.latency_percentile(q)
                .map_or_else(|| "null".to_string(), |d| json_f64(d.as_secs_f64()))
        };
        let stage_shards: Vec<String> = self.stage_shards.iter().map(|s| s.to_string()).collect();
        format!(
            "{{\"completed\":{},\"makespan_secs\":{},\"mean_throughput\":{},\
             \"items_per_sec\":{},\
             \"mean_latency_secs\":{},\"latency_p50_secs\":{},\"latency_p95_secs\":{},\
             \"latency_p99_secs\":{},\"adaptation_count\":{},\"total_migration_cost_secs\":{},\
             \"planning_cycles\":{},\"truncated\":{},\"replays\":{},\"migrations\":{},\
             \"state_bytes_moved\":{},\"retries\":{},\"dead_letters\":{},\
             \"stage_shards\":[{}],\"node_busy_secs\":[{}],\
             \"node_downtime_secs\":[{}],\"final_mapping\":{},\"adaptations\":[{}]}}",
            self.completed,
            json_f64(self.makespan.as_secs_f64()),
            json_f64(self.mean_throughput()),
            json_f64(self.mean_throughput()),
            json_f64(self.mean_latency.as_secs_f64()),
            quantile(0.50),
            quantile(0.95),
            quantile(0.99),
            self.adaptation_count(),
            json_f64(self.total_migration_cost().as_secs_f64()),
            self.planning_cycles,
            self.truncated,
            self.replays,
            self.migrations,
            self.state_bytes_moved,
            self.retries,
            self.dead_letters,
            stage_shards.join(","),
            node_busy.join(","),
            node_downtime.join(","),
            mapping_json(&self.final_mapping),
            adaptations.join(","),
        )
    }
}

/// JSON-safe float: finite values render plainly, NaN/∞ become `null`
/// (JSON has no spelling for them).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Upper bound on retained per-item latency samples (8 MiB of
/// `SimDuration`). Beyond it the builder decimates deterministically —
/// see [`ReportBuilder::record_completion`] — so an *open-ended*
/// streaming session can run indefinitely without the report growing
/// per item.
const LATENCY_SAMPLE_CAP: usize = 1 << 20;

/// Accumulates per-completion observations and assembles the final
/// [`RunReport`] — the one place report shape is defined, so every
/// backend's report is identical in structure and derivation.
#[derive(Debug)]
pub struct ReportBuilder {
    expected_items: u64,
    completed: u64,
    latency_sum: SimDuration,
    latencies: Vec<SimDuration>,
    /// Record every `latency_stride`-th completion's latency sample;
    /// doubles whenever the sample buffer hits [`LATENCY_SAMPLE_CAP`],
    /// so it is always a power of two.
    latency_stride: u64,
    last_completion: SimTime,
    timeline: ThroughputTimeline,
    replays: u64,
    /// The adaptation loop's part of the report, settled by
    /// [`crate::adapt::AdaptationLoop::finish`].
    pub(crate) adaptations: Vec<AdaptationEvent>,
    pub(crate) planning_cycles: u64,
    pub(crate) migrations: u64,
    pub(crate) state_bytes_moved: u64,
    stage_shards: Vec<usize>,
    retries: u64,
    dead_letter_log: Vec<DeadLetter>,
    /// The run's fault plan and node count; per-node downtime is
    /// settled against the makespan at [`ReportBuilder::finish`].
    faults: Option<(FaultPlan, usize)>,
}

impl ReportBuilder {
    /// Creates a builder for a stream of `expected_items`, bucketing the
    /// throughput timeline at `bucket`. Streaming sessions whose length
    /// is unknown until close pass `u64::MAX` and settle the count later
    /// with [`ReportBuilder::set_expected`].
    pub fn new(bucket: SimDuration, expected_items: u64) -> Self {
        ReportBuilder {
            expected_items,
            completed: 0,
            latency_sum: SimDuration::ZERO,
            latencies: Vec::with_capacity(expected_items.min(4096) as usize),
            latency_stride: 1,
            last_completion: SimTime::ZERO,
            timeline: ThroughputTimeline::new(bucket),
            replays: 0,
            adaptations: Vec::new(),
            planning_cycles: 0,
            migrations: 0,
            state_bytes_moved: 0,
            stage_shards: Vec::new(),
            retries: 0,
            dead_letter_log: Vec::new(),
            faults: None,
        }
    }

    /// Settles the expected stream length — a streaming session calls
    /// this at `close()`, when the number of pushed items becomes known.
    pub fn set_expected(&mut self, expected_items: u64) {
        self.expected_items = expected_items;
    }

    /// Declares the fault plan this run executes under, over
    /// `node_count` nodes; [`ReportBuilder::finish`] settles the
    /// per-node downtime from it against the final makespan.
    pub fn set_faults(&mut self, plan: FaultPlan, node_count: usize) {
        self.faults = Some((plan, node_count));
    }

    /// Records `n` items re-dealt to a live host after their assigned
    /// node went down. The simulator records each replay as it
    /// happens; the threaded engine counts in an atomic shared across
    /// its workers and records the total once, at teardown — the same
    /// call either way.
    pub fn record_replay(&mut self, n: u64) {
        self.replays += n;
    }

    /// Declares the per-stage shard counts (0 for stages without keyed
    /// state) so the report can relate migration totals to shard maps.
    pub fn set_stage_shards(&mut self, stage_shards: Vec<usize>) {
        self.stage_shards = stage_shards;
    }

    /// Records `n` retry attempts (re-presentations of failed items).
    pub fn record_retries(&mut self, n: u64) {
        self.retries += n;
    }

    /// Diverts one poison item into the dead-letter channel. A
    /// dead-lettered item counts toward stream completion (see
    /// [`ReportBuilder::accounted`]) but not toward `completed`.
    pub fn record_dead_letter(&mut self, letter: DeadLetter) {
        self.dead_letter_log.push(letter);
    }

    /// Dead letters recorded so far.
    pub fn dead_letters(&self) -> u64 {
        self.dead_letter_log.len() as u64
    }

    /// Items the run has settled one way or the other: completions plus
    /// dead letters. This — not `completed` alone — is what a stream
    /// must reach for the run to count as finished rather than
    /// truncated.
    pub fn accounted(&self) -> u64 {
        self.completed + self.dead_letters()
    }

    /// Records one item reaching the sink at `at` after `latency`.
    ///
    /// Memory stays bounded on open-ended streams: the latency *sum*
    /// (and therefore the reported mean) is exact over every
    /// completion, while the per-item samples backing the quantiles are
    /// capped (at ~1M samples) via deterministic doubling
    /// decimation — when the buffer fills, every other sample is
    /// dropped and only every `2×stride`-th completion is sampled from
    /// then on, keeping the retained samples approximately uniform over
    /// the whole run.
    pub fn record_completion(&mut self, at: SimTime, latency: SimDuration) {
        self.timeline.record(at);
        if at > self.last_completion {
            self.last_completion = at;
        }
        self.sample_latency(latency);
    }

    /// Counts one completion's latency: into the exact sum always, and
    /// into the retained samples every `latency_stride`-th completion,
    /// halving the samples and doubling the stride whenever they reach
    /// [`LATENCY_SAMPLE_CAP`]. The stride is a power of two, so "every
    /// stride-th" is a mask of the completion count, not a divide.
    fn sample_latency(&mut self, latency: SimDuration) {
        self.latency_sum = self.latency_sum.saturating_add(latency);
        if self.latencies.len() >= LATENCY_SAMPLE_CAP {
            let mut keep = false;
            self.latencies.retain(|_| {
                keep = !keep;
                keep
            });
            self.latency_stride *= 2;
        }
        if self.completed & (self.latency_stride - 1) == 0 {
            self.latencies.push(latency);
        }
        self.completed += 1;
    }

    /// Records a whole envelope of items reaching the sink together at
    /// `at` — the batched form of [`ReportBuilder::record_completion`]
    /// for a session that reads one sink message per envelope.
    ///
    /// The timeline bucket and the makespan watermark are updated once
    /// per envelope instead of once per item (envelopes span
    /// microseconds; timeline buckets span hundreds of milliseconds, so
    /// attributing the whole envelope to its final completion instant
    /// is exact at bucket granularity). The latency *sum* — and
    /// therefore the reported mean — stays exact over every item, and
    /// the stride-decimated quantile sampling is identical to calling
    /// `record_completion` per item.
    pub fn record_envelope(&mut self, at: SimTime, latencies: impl Iterator<Item = SimDuration>) {
        let before = self.completed;
        for latency in latencies {
            self.sample_latency(latency);
        }
        let n = self.completed - before;
        if n == 0 {
            return;
        }
        self.timeline.record_n(at, n);
        if at > self.last_completion {
            self.last_completion = at;
        }
    }

    /// Completions recorded so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// True once every expected item has been settled (completed or
    /// dead-lettered).
    pub fn all_done(&self) -> bool {
        self.accounted() >= self.expected_items
    }

    /// Assembles the final report from the accumulated completions plus
    /// the run's terminal state.
    pub fn finish(
        self,
        final_mapping: Mapping,
        node_busy: Vec<SimDuration>,
        stage_metrics: StageMetrics,
    ) -> RunReport {
        let truncated = self.accounted() < self.expected_items;
        let node_downtime = match &self.faults {
            Some((plan, node_count)) => plan.downtime(*node_count, self.last_completion),
            None => Vec::new(),
        };
        RunReport {
            completed: self.completed,
            makespan: self.last_completion,
            mean_latency: if self.completed > 0 {
                SimDuration::from_secs_f64(self.latency_sum.as_secs_f64() / self.completed as f64)
            } else {
                SimDuration::ZERO
            },
            latencies: self.latencies,
            timeline: self.timeline,
            adaptations: self.adaptations,
            node_busy,
            final_mapping,
            planning_cycles: self.planning_cycles,
            stage_metrics,
            truncated,
            replays: self.replays,
            node_downtime,
            migrations: self.migrations,
            state_bytes_moved: self.state_bytes_moved,
            stage_shards: self.stage_shards,
            retries: self.retries,
            dead_letters: self.dead_letter_log.len() as u64,
            dead_letter_log: self.dead_letter_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_gridsim::node::NodeId;

    fn report(completed: u64, makespan_s: f64) -> RunReport {
        RunReport {
            completed,
            makespan: SimTime::from_secs_f64(makespan_s),
            mean_latency: SimDuration::from_secs(1),
            latencies: vec![SimDuration::from_secs(1); completed as usize],
            timeline: ThroughputTimeline::new(SimDuration::from_secs(1)),
            adaptations: vec![],
            node_busy: vec![SimDuration::from_secs(5), SimDuration::ZERO],
            final_mapping: Mapping::from_assignment(&[NodeId(0)]),
            planning_cycles: 0,
            stage_metrics: StageMetrics::new(1),
            truncated: false,
            replays: 0,
            node_downtime: Vec::new(),
            migrations: 0,
            state_bytes_moved: 0,
            stage_shards: Vec::new(),
            retries: 0,
            dead_letters: 0,
            dead_letter_log: Vec::new(),
        }
    }

    #[test]
    fn mean_throughput_divides_by_makespan() {
        let r = report(100, 50.0);
        assert!((r.mean_throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_makespan_throughput_is_zero() {
        let r = report(0, 0.0);
        assert_eq!(r.mean_throughput(), 0.0);
        assert_eq!(r.node_utilisation(0), 0.0);
    }

    #[test]
    fn utilisation_clamps() {
        let r = report(10, 2.0);
        // 5 s busy over 2 s horizon clamps to 1.
        assert_eq!(r.node_utilisation(0), 1.0);
        assert_eq!(r.node_utilisation(1), 0.0);
    }

    #[test]
    fn node_utilisation_is_zero_out_of_range() {
        // Probing a node index the run never covered must read as
        // "never busy", not panic (node_busy has 2 entries here).
        let r = report(10, 2.0);
        assert_eq!(r.node_utilisation(2), 0.0);
        assert_eq!(r.node_utilisation(usize::MAX), 0.0);
        // In-range indices are unaffected.
        assert_eq!(r.node_utilisation(0), 1.0);
    }

    #[test]
    fn latency_percentile_rejects_nan_and_clamps_out_of_range() {
        let mut r = report(3, 10.0);
        r.latencies = vec![
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(9),
        ];
        // NaN has no meaningful quantile: None, not a poisoned index.
        assert_eq!(r.latency_percentile(f64::NAN), None);
        // q < 0 clamps to the minimum, q > 1 to the maximum.
        assert_eq!(r.latency_percentile(-0.5), Some(SimDuration::from_secs(1)));
        assert_eq!(r.latency_percentile(1.5), Some(SimDuration::from_secs(9)));
    }

    #[test]
    fn replays_and_downtime_flow_into_the_report() {
        use adapipe_gridsim::fault::FaultPlan;
        let mut b = ReportBuilder::new(SimDuration::from_secs(1), 2);
        b.record_completion(SimTime::from_secs_f64(10.0), SimDuration::from_secs(1));
        b.record_completion(SimTime::from_secs_f64(40.0), SimDuration::from_secs(1));
        b.record_replay(1);
        b.record_replay(1);
        // Node 1 is out [5, 15) and crashed at 30: downtime clamps to
        // the 40 s makespan → 10 + 10 = 20 s.
        let plan = FaultPlan::new()
            .outage(
                NodeId(1),
                SimTime::from_secs_f64(5.0),
                SimTime::from_secs_f64(15.0),
            )
            .crash(NodeId(1), SimTime::from_secs_f64(30.0));
        b.set_faults(plan, 2);
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![SimDuration::ZERO; 2],
            StageMetrics::new(1),
        );
        assert_eq!(r.replays, 2);
        assert_eq!(r.node_downtime.len(), 2);
        assert_eq!(r.node_downtime[0], SimDuration::ZERO);
        assert!((r.node_downtime[1].as_secs_f64() - 20.0).abs() < 1e-9);
        let json = r.to_json();
        assert!(json.contains("\"replays\":2"), "missing replays in {json}");
        assert!(json.contains("\"node_downtime_secs\":[0,20]"), "{json}");
    }

    #[test]
    fn migration_totals_flow_into_the_report_and_json() {
        let mut b = ReportBuilder::new(SimDuration::from_secs(1), 1);
        b.record_completion(SimTime::from_secs_f64(1.0), SimDuration::from_secs(1));
        b.migrations = 3;
        b.state_bytes_moved = 1024;
        b.set_stage_shards(vec![4, 0]);
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![SimDuration::ZERO],
            StageMetrics::new(1),
        );
        assert_eq!(r.migrations, 3);
        assert_eq!(r.state_bytes_moved, 1024);
        assert_eq!(r.stage_shards, vec![4, 0]);
        let json = r.to_json();
        assert!(json.contains("\"migrations\":3"), "{json}");
        assert!(json.contains("\"state_bytes_moved\":1024"), "{json}");
        assert!(json.contains("\"stage_shards\":[4,0]"), "{json}");
    }

    #[test]
    fn resilience_counters_flow_into_the_report_and_json() {
        let mut b = ReportBuilder::new(SimDuration::from_secs(1), 3);
        b.record_completion(SimTime::from_secs_f64(1.0), SimDuration::from_secs(1));
        b.record_completion(SimTime::from_secs_f64(2.0), SimDuration::from_secs(1));
        b.record_retries(4);
        assert!(!b.all_done(), "2 of 3 settled");
        b.record_dead_letter(DeadLetter {
            seq: 1,
            stage: 2,
            attempts: 3,
            reason: "checksum mismatch".into(),
        });
        // A dead letter settles the third item: the stream is complete,
        // not truncated, even though only 2 items *completed*.
        assert_eq!(b.accounted(), 3);
        assert!(b.all_done());
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![SimDuration::ZERO],
            StageMetrics::new(1),
        );
        assert!(!r.truncated);
        assert_eq!(r.completed, 2);
        assert_eq!((r.retries, r.dead_letters), (4, 1));
        assert_eq!(r.dead_letter_log.len(), 1);
        assert_eq!(r.dead_letter_log[0].stage, 2);
        assert_eq!(r.dead_letter_log[0].attempts, 3);
        let json = r.to_json();
        for key in ["\"retries\":4", "\"dead_letters\":1"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn latency_percentiles_interpolate() {
        let mut r = report(3, 10.0);
        r.latencies = vec![
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(9),
        ];
        assert_eq!(r.latency_percentile(0.0), Some(SimDuration::from_secs(1)));
        assert_eq!(r.latency_percentile(0.5), Some(SimDuration::from_secs(2)));
        assert_eq!(r.latency_percentile(1.0), Some(SimDuration::from_secs(9)));
        r.latencies.clear();
        assert_eq!(r.latency_percentile(0.5), None);
    }

    #[test]
    fn builder_assembles_report_identically_for_any_backend() {
        let mut b = ReportBuilder::new(SimDuration::from_secs(1), 3);
        b.record_completion(SimTime::from_secs_f64(1.0), SimDuration::from_secs(1));
        b.record_completion(SimTime::from_secs_f64(3.0), SimDuration::from_secs(3));
        assert_eq!(b.completed(), 2);
        assert!(!b.all_done());
        b.planning_cycles = 4;
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![SimDuration::from_secs(2)],
            StageMetrics::new(1),
        );
        assert_eq!(r.completed, 2);
        assert!(r.truncated, "2 of 3 expected items is a truncated run");
        assert_eq!(r.makespan, SimTime::from_secs_f64(3.0));
        assert_eq!(r.mean_latency, SimDuration::from_secs(2));
        assert_eq!(r.planning_cycles, 4);
    }

    #[test]
    fn builder_with_no_completions_reports_zeroes() {
        let b = ReportBuilder::new(SimDuration::from_secs(1), 0);
        assert!(b.all_done());
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![],
            StageMetrics::new(1),
        );
        assert_eq!(r.completed, 0);
        assert!(!r.truncated);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.mean_latency, SimDuration::ZERO);
    }

    #[test]
    fn latency_samples_stay_bounded_on_endless_streams() {
        // 2.5 M completions — an open-ended session's lifetime in
        // miniature. The sample buffer must stay at or under the cap,
        // the mean must stay exact, and quantiles must stay sane.
        let mut b = ReportBuilder::new(SimDuration::from_secs(3600), u64::MAX);
        let n = 2_500_000u64;
        for i in 0..n {
            // Latencies 1..=10 s, cycling: mean 5.5 s, p50 ≈ 5–6 s.
            let latency = SimDuration::from_secs((i % 10) + 1);
            b.record_completion(SimTime::from_secs_f64(i as f64 * 1e-3), latency);
        }
        assert_eq!(b.completed(), n);
        assert!(
            b.latencies.len() <= LATENCY_SAMPLE_CAP,
            "samples grew past the cap: {}",
            b.latencies.len()
        );
        // Still a substantial sample after decimation.
        assert!(b.latencies.len() > LATENCY_SAMPLE_CAP / 4);
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![SimDuration::ZERO],
            StageMetrics::new(1),
        );
        assert!(
            (r.mean_latency.as_secs_f64() - 5.5).abs() < 1e-3,
            "mean is exact"
        );
        let p50 = r.latency_percentile(0.5).unwrap().as_secs_f64();
        assert!((4.0..=7.0).contains(&p50), "p50 estimate off: {p50}");
    }

    #[test]
    fn record_envelope_matches_per_item_recording() {
        // Same items recorded one-by-one vs. as envelopes must agree on
        // count, mean, makespan, timeline totals, and retained samples.
        let mut per_item = ReportBuilder::new(SimDuration::from_secs(1), u64::MAX);
        let mut batched = ReportBuilder::new(SimDuration::from_secs(1), u64::MAX);
        let latencies: Vec<SimDuration> = (1..=10).map(SimDuration::from_secs).collect();
        let at = SimTime::from_secs_f64(2.5);
        for &l in &latencies {
            per_item.record_completion(at, l);
        }
        batched.record_envelope(at, latencies.iter().copied());
        // An empty envelope is a no-op.
        batched.record_envelope(SimTime::from_secs_f64(9.0), std::iter::empty());
        assert_eq!(batched.completed(), per_item.completed());
        assert_eq!(batched.latencies, per_item.latencies);
        assert_eq!(batched.latency_sum, per_item.latency_sum);
        assert_eq!(batched.last_completion, per_item.last_completion);
        assert_eq!(batched.timeline.total(), per_item.timeline.total());
    }

    #[test]
    fn record_envelope_decimates_past_the_sample_cap() {
        let mut b = ReportBuilder::new(SimDuration::from_secs(3600), u64::MAX);
        let n = 2_500_000u64;
        let batch = 64u64;
        let mut i = 0u64;
        while i < n {
            let count = batch.min(n - i);
            let env: Vec<SimDuration> = (i..i + count)
                .map(|k| SimDuration::from_secs((k % 10) + 1))
                .collect();
            b.record_envelope(SimTime::from_secs_f64(i as f64 * 1e-3), env.into_iter());
            i += count;
        }
        assert_eq!(b.completed(), n);
        assert!(b.latencies.len() <= LATENCY_SAMPLE_CAP);
        assert!(b.latencies.len() > LATENCY_SAMPLE_CAP / 4);
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![SimDuration::ZERO],
            StageMetrics::new(1),
        );
        assert!((r.mean_latency.as_secs_f64() - 5.5).abs() < 1e-3);
    }

    /// The rule `sample_latency` kept before the mask: a divide per
    /// completion. A model of what the builder retains.
    #[derive(Default)]
    struct DivideRule {
        completed: u64,
        stride: u64,
        sum: SimDuration,
        kept: Vec<SimDuration>,
    }

    impl DivideRule {
        fn record(&mut self, latency: SimDuration) {
            self.stride = self.stride.max(1);
            self.sum = self.sum.saturating_add(latency);
            if self.kept.len() >= LATENCY_SAMPLE_CAP {
                let mut keep = false;
                self.kept.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            if self.completed.is_multiple_of(self.stride) {
                self.kept.push(latency);
            }
            self.completed += 1;
        }
    }

    #[test]
    fn the_sampling_mask_keeps_exactly_what_the_divide_kept() {
        // Past three stride doublings (1 → 8): 2²² completions fill the
        // cap at strides 1, 2 and 4.
        let n = (1u64 << 22) + 12_345;
        let latency = |k: u64| SimDuration::from_nanos(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
        let at = SimTime::from_secs_f64(1.0);
        let mut model = DivideRule::default();
        let mut per_item = ReportBuilder::new(SimDuration::from_secs(1), u64::MAX);
        for k in 0..n {
            model.record(latency(k));
            per_item.record_completion(at, latency(k));
        }
        // Envelopes of 1 to 97 items, cutting across every doubling.
        let mut batched = ReportBuilder::new(SimDuration::from_secs(1), u64::MAX);
        let (mut k, mut size) = (0, 1);
        while k < n {
            let end = (k + size).min(n);
            batched.record_envelope(at, (k..end).map(latency));
            (k, size) = (end, size % 97 + 1);
        }
        assert_eq!(model.stride, 8, "three doublings");
        for b in [&per_item, &batched] {
            assert_eq!(b.latency_stride, model.stride);
            assert_eq!(b.completed, model.completed);
            assert_eq!(b.latency_sum, model.sum);
            assert!(b.latencies == model.kept, "the same samples, in order");
        }
    }

    #[test]
    fn set_expected_settles_an_open_stream() {
        let mut b = ReportBuilder::new(SimDuration::from_secs(1), u64::MAX);
        b.record_completion(SimTime::from_secs_f64(1.0), SimDuration::from_secs(1));
        assert!(!b.all_done());
        b.set_expected(1);
        assert!(b.all_done());
        let r = b.finish(
            Mapping::from_assignment(&[NodeId(0)]),
            vec![SimDuration::ZERO],
            StageMetrics::new(1),
        );
        assert!(!r.truncated);
    }

    #[test]
    fn to_json_emits_every_headline_field() {
        let mut r = report(10, 5.0);
        let m = Mapping::from_assignment(&[NodeId(0)]);
        r.adaptations.push(AdaptationEvent {
            at: SimTime::from_secs_f64(2.0),
            from: m.clone(),
            to: m,
            migrated_stages: vec![0],
            predicted_speedup: 1.4,
            migration_cost: SimDuration::from_millis(100),
        });
        let json = r.to_json();
        for key in [
            "\"completed\":10",
            "\"makespan_secs\":5",
            "\"mean_throughput\":2",
            "\"items_per_sec\":2",
            "\"latency_p95_secs\":",
            "\"adaptation_count\":1",
            "\"planning_cycles\":0",
            "\"truncated\":false",
            "\"final_mapping\":[[0]]",
            "\"migrated_stages\":[0]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Structurally sound: balanced braces/brackets, no raw NaN/inf.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn to_json_renders_non_finite_values_as_null() {
        let mut r = report(0, 0.0);
        r.mean_latency = SimDuration::from_secs_f64(0.0);
        let json = r.to_json();
        // No completions: quantiles are null, throughput is finite 0.
        assert!(json.contains("\"latency_p50_secs\":null"));
        assert!(json.contains("\"mean_throughput\":0"));
    }

    #[test]
    fn migration_cost_sums_events() {
        let mut r = report(1, 1.0);
        let m = Mapping::from_assignment(&[NodeId(0)]);
        for _ in 0..2 {
            r.adaptations.push(AdaptationEvent {
                at: SimTime::ZERO,
                from: m.clone(),
                to: m.clone(),
                migrated_stages: vec![0],
                predicted_speedup: 1.5,
                migration_cost: SimDuration::from_millis(250),
            });
        }
        assert_eq!(r.adaptation_count(), 2);
        assert_eq!(r.total_migration_cost(), SimDuration::from_millis(500));
    }
}
