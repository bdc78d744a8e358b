//! # adapipe-bench
//!
//! The experiment-reproduction harness: [`repro`] holds one function per
//! table and figure of the (reconstructed) evaluation, each returning
//! its rows; the `repro` binary prints them; criterion micro-benchmarks
//! cover the timing-sensitive claims.
//!
//! Every experiment prints a self-describing header, an aligned table
//! for humans, and machine-readable CSV lines prefixed with `csv,` so
//! plots can be regenerated with a one-line grep. `REPRODUCTION.md` at
//! the repository root maps each experiment to the paper's claim, its
//! committed CSV and the assertion that gates it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod repro;

use adapipe_runtime::arrivals::ArrivalProcess;
use adapipe_runtime::policy::Policy;
use adapipe_runtime::session::Session;
use std::fmt;
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

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The `csv,`-prefixed lines: the header, then one per row.
    pub fn csv(&self) -> String {
        let mut out = format!("csv,{}\n", self.headers.join(","));
        for row in &self.rows {
            out += &format!("csv,{}\n", row.join(","));
        }
        out
    }
}

/// The aligned table, a blank line, then [`Table::csv`].
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
            format!("  {}", joined.join("  "))
        };
        writeln!(f, "{}", line(&self.headers))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        writeln!(f)?;
        f.write_str(&self.csv())
    }
}

/// Times each of `iters` runs of `f` on its own, returning the seconds
/// of every run, fastest first.
pub(crate) fn time_each<F: FnMut()>(iters: usize, mut f: F) -> Vec<f64> {
    assert!(iters > 0);
    let mut runs: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_unstable_by(f64::total_cmp);
    runs
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
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.csv(), "csv,a,b\ncsv,1,2\n");
        assert!(t.to_string().ends_with(&t.csv()));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn time_each_returns_every_run_fastest_first() {
        let runs = time_each(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(runs.len(), 3);
        assert!(runs.windows(2).all(|w| w[0] <= w[1]) && runs[0] >= 0.0);
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000025), "2.5us");
    }
}
