//! # adapipe-bench
//!
//! The experiment-reproduction harness: one `repro_*` binary per table
//! and figure of the (reconstructed) evaluation, plus criterion
//! micro-benchmarks for the timing-sensitive claims.
//!
//! Every binary prints a self-describing header, an aligned table for
//! humans, and machine-readable CSV lines prefixed with `csv,` so plots
//! can be regenerated with a one-line grep.
//!
//! | Binary | Experiment |
//! |---|---|
//! | `repro_t1` | Table 1 — testbed inventory |
//! | `repro_t2` | Table 2 — model-selected vs simulated-best mapping |
//! | `repro_f1` | Figure 1 — throughput timeline under a load step |
//! | `repro_f2` | Figure 2 — completion time vs stream length |
//! | `repro_f3` | Figure 3 — speedup vs processor count (replication on/off) |
//! | `repro_f4` | Figure 4 — adaptivity gain vs load volatility |
//! | `repro_t3` | Table 3 — adaptation decision cost |
//! | `repro_f5` | Figure 5 — monitoring/adaptation knob sensitivity |
//! | `repro_f6` | Figure 6 — threaded engine, one box, wall clock |
//! | `repro_t4` | Table 4 — forecaster accuracy per load class |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use adapipe_runtime::arrivals::ArrivalProcess;
use adapipe_runtime::policy::Policy;
use adapipe_runtime::session::Session;
use std::time::Instant;

/// The session running `policy` over a stream that is all present at
/// `t = 0`.
pub fn under(policy: Policy) -> Session {
    Session::new(policy, ArrivalProcess::AllAtOnce).expect("a valid policy")
}

/// An aligned text table that doubles as CSV.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; must match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the aligned table followed by `csv,`-prefixed lines.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
        println!();
        println!("csv,{}", self.headers.join(","));
        for row in &self.rows {
            println!("csv,{}", row.join(","));
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str, expectation: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("expected shape: {expectation}");
    println!("==============================================================");
    println!();
}

/// Times `f` over `iters` runs, returning mean seconds per run.
pub fn time_mean<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Formats seconds adaptively (s / ms / µs).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_accepts_matching_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.print(); // must not panic
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn time_mean_is_positive() {
        let mean = time_mean(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(mean >= 0.0);
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000025), "2.5us");
    }
}
