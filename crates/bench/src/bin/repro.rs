//! Prints experiments of the reconstructed evaluation by id — the
//! one-command regeneration of any table or figure, or of all of them.
//!
//! `cargo run --release -p adapipe-bench --bin repro -- f2 t5`
//! `cargo run --release -p adapipe-bench --bin repro -- all`

use adapipe_bench::repro::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Option<Vec<_>> = if args == ["all"] {
        Some(EXPERIMENTS.iter().collect())
    } else {
        args.iter()
            .map(|id| EXPERIMENTS.iter().find(|(known, _)| known == id))
            .collect()
    };
    match chosen {
        Some(chosen) if !chosen.is_empty() => {
            for (_, experiment) in chosen {
                print!("{}", experiment());
            }
        }
        _ => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
            eprintln!("usage: repro <id>... | all    (ids: {})", known.join(" "));
            std::process::exit(2);
        }
    }
}
