//! What one run prints: every metric by name with its unit, value,
//! quartiles and sample count for people, then the one-line JSON result.

use crate::harness::Tally;
use crate::json;
use crate::stats::Summary;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// What the result line reports.
    pub value: f64,
    /// The samples `value` was taken from, for the table.
    pub summary: Summary,
}

impl Metric {
    /// A metric that is the median over timed reps.
    pub fn over(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            unit,
            value: summary.median,
            summary,
        }
    }

    /// An end-to-end rate over a run's reps, each already scaled to the
    /// host's nominal speed: their upper quartile. What the scaling
    /// leaves is mostly one-sided — a rep that a slow spell of the host
    /// began or ended in, a spell the reference kernel follows only in
    /// part — and over ten-run sets the faster quartile repeated better
    /// than the median on five workloads of six (see the README).
    pub fn faster_quartile_of_rates(
        name: &'static str,
        unit: &'static str,
        rates: &[f64],
    ) -> Metric {
        let summary = Summary::of(rates);
        Metric {
            name,
            unit,
            value: summary.q3,
            summary,
        }
    }

    /// The same for an end-to-end time: the lower quartile.
    pub fn faster_quartile_of_times(
        name: &'static str,
        unit: &'static str,
        secs: &[f64],
    ) -> Metric {
        let summary = Summary::of(secs);
        Metric {
            name,
            unit,
            value: summary.q1,
            summary,
        }
    }

    /// A metric that is one exact or whole-run value.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: Summary::exact(value),
        }
    }
}

pub struct RunOutput {
    pub workload: &'static str,
    pub tally: Tally,
    /// False if an invariant beyond per-item checks broke (a simulated
    /// outcome that differed between reps, a missing `/proc` reading).
    pub invariants_hold: bool,
    /// The host's slowdown factor beside each rep of an untraced run
    /// (see `calib`): for the reader, not a metric.
    pub host_slowdown: Option<Summary>,
    pub metrics: Vec<Metric>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.invariants_hold && self.tally.failed == 0 && self.tally.attempted > 0
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}: attempted {} failed {} correct {}\n  {:<30} {:>6} {:>16} {:>16} {:>16} {:>16} {:>5}\n",
            self.workload,
            self.tally.attempted,
            self.tally.failed,
            self.correct(),
            "metric",
            "unit",
            "value",
            "median",
            "q1",
            "q3",
            "n"
        );
        for m in &self.metrics {
            let s = &m.summary;
            out.push_str(&format!(
                "  {:<30} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>5}\n",
                m.name, m.unit, m.value, s.median, s.q1, s.q3, s.n
            ));
        }
        if let Some(s) = &self.host_slowdown {
            out.push_str(&format!(
                "  host slowdown beside the reps: median {:.3} q1 {:.3} q3 {:.3} min {:.3} max {:.3} (1 = nominal)\n",
                s.median, s.q1, s.q3, s.min, s.max
            ));
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(m.name),
                    json::number(m.value),
                    json::string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let out = RunOutput {
            workload: "wire_batch",
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            invariants_hold: true,
            host_slowdown: None,
            metrics: vec![
                Metric::over("items_per_s", "1/s", &[3.0, 1.0, 2.0]),
                Metric::exact("setup_s", "s", 0.25),
            ],
        };
        let line = out.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert_eq!(
            json::metrics_of(&line),
            vec![
                ("items_per_s".to_string(), 2.0),
                ("setup_s".to_string(), 0.25)
            ]
        );
        assert!(out.table().contains("items_per_s"));
        let failed = RunOutput {
            tally: Tally {
                attempted: 10,
                failed: 1,
            },
            ..out
        };
        assert!(failed.result_line().starts_with("{\"correct\": false"));
    }
}
