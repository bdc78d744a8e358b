//! `adabench` — adapipe's one benchmark. See `README.md` beside this
//! file for the workloads, the metrics, how they interact, and the
//! noise findings that shaped them.
//!
//! ```text
//! adabench --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! adabench --all [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! adabench --selfcheck <N> [--seed <u64>] [--seconds <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0
//! only if every output was verified.

mod affinity;
mod alloc;
mod calib;
mod gen;
mod harness;
mod imaging;
mod json;
mod keyed;
mod probes;
mod procfs;
mod report;
mod run;
mod sim;
mod spec;
mod stats;
mod trace;
mod wire;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn main() -> std::process::ExitCode {
    alloc::pin_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run::Cli::parse(&args) {
        Ok(cli) => cli.execute(),
        Err(msg) => {
            eprintln!("adabench: {msg}\n\n{}", run::USAGE);
            std::process::ExitCode::from(2)
        }
    }
}
