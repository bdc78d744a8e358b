//! The architecture, held by tier-1: each test scans the sources for one
//! seam the design rests on, so crossing it fails `cargo test` rather
//! than a later review. The scans are plain text searches over the
//! library sources — `src/` and `crates/*/src/` — with no dependency.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let entries = fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("a readable directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The facade's and every crate's library sources.
fn library_sources() -> Vec<PathBuf> {
    let mut files = rust_files(&root().join("src"));
    let crates = fs::read_dir(root().join("crates")).expect("the crates directory");
    for krate in crates {
        let src = krate.expect("a readable crate entry").path().join("src");
        if src.is_dir() {
            files.extend(rust_files(&src));
        }
    }
    files
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `path:line: text` for every line of `files` that `matches`.
fn lines_matching(files: &[PathBuf], matches: impl Fn(&str) -> bool) -> Vec<String> {
    let mut hits = Vec::new();
    for path in files {
        let shown = path.strip_prefix(root()).unwrap_or(path).display();
        for (i, line) in read(path).lines().enumerate() {
            if matches(line) {
                hits.push(format!("{shown}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    hits
}

fn any_of<'a>(needles: &'a [&'a str]) -> impl Fn(&str) -> bool + 'a {
    move |line| needles.iter().any(|n| line.contains(n))
}

/// Facade seam: `src/api.rs` validates and delegates to the backends'
/// own session and cluster types, handing them the pipeline's `Session`
/// and the caller's `RunConfig` as they are. It must not execute stages,
/// drive the simulated world again — that is how item semantics came to
/// be written twice — or build the adaptation loop's substrate view.
#[test]
fn the_facade_runs_nothing() {
    let hits = lines_matching(
        &[root().join("src/api.rs")],
        any_of(&[
            "try_process",
            "SimStepper",
            "ItemFate",
            "max_retries",
            "RuntimeConfig {",
        ]),
    );
    assert!(
        hits.is_empty(),
        "src/api.rs mentions stage execution, the sim stepper or the runtime's \
         substrate; that code belongs in adapipe-core (item, simsession) or the \
         backends:\n{}",
        hits.join("\n")
    );
}

/// One config: `RunConfig` is the only run-configuration struct, read in
/// place by every layer. A per-backend copy of it, or a function
/// translating into one, is how one knob came to be declared four times.
#[test]
fn one_run_config() {
    let hits = lines_matching(
        &library_sources(),
        any_of(&[
            "struct SimConfig",
            "struct EngineConfig",
            "fn sim_config",
            "fn engine_config",
        ]),
    );
    assert!(
        hits.is_empty(),
        "a per-backend run config or translator is back; backends take \
         (&Session, &RunConfig) and read them in place:\n{}",
        hits.join("\n")
    );
}

/// One state declaration: `StateAccess` on `StageSpec::state` is the
/// only statefulness datum, read in place by builders, planner,
/// adaptation loop and both backends. A bool copy of it — or a second
/// per-stage vector of it — is how the model, the builders and the
/// engine came to disagree.
#[test]
fn one_state_declaration() {
    let bool_copy = |line: &str| {
        line.contains("pub stateless")
            || line.contains("state_access")
            || line.match_indices("stateless:").any(|(at, m)| {
                let ty = line[at + m.len()..].trim_start();
                ["bool", "&[bool]", "Vec<bool>"]
                    .iter()
                    .any(|t| ty.starts_with(t))
            })
    };
    let hits = lines_matching(&library_sources(), bool_copy);
    assert!(
        hits.is_empty(),
        "a bool or per-config copy of the state declaration is back; read \
         StageSpec::state / PipelineProfile::state in place:\n{}",
        hits.join("\n")
    );
}

/// Engine seams: the inbox owns its wake-and-steal protocol — the queue
/// lock, the lanes, the `parked` flag senders consult before a notify
/// and the `idle` flag that keeps a thief from sleeping through one are
/// private to `inbox.rs`. And no engine file grows back into "the
/// engine": 1,200 lines each, tests included.
#[test]
fn the_inbox_owns_its_protocol_and_no_engine_file_passes_1200_lines() {
    let engine = rust_files(&root().join("crates/engine/src"));
    let outside_inbox: Vec<PathBuf> = engine
        .iter()
        .filter(|p| !p.ends_with("inbox.rs"))
        .cloned()
        .collect();
    let hits = lines_matching(
        &outside_inbox,
        any_of(&[
            ".lanes",
            ".idle.",
            ".parked",
            ".queue.lock(",
            ".queue.try_lock(",
        ]),
    );
    assert!(
        hits.is_empty(),
        "inbox internals used outside crates/engine/src/inbox.rs; go through \
         Inbox::recv / steal / send_work / wake_if_idle:\n{}",
        hits.join("\n")
    );
    let long: Vec<String> = engine
        .iter()
        .map(|p| (p, read(p).matches('\n').count()))
        .filter(|&(_, lines)| lines > 1200)
        .map(|(p, lines)| format!("{}: {lines} lines", p.display()))
        .collect();
    assert!(
        long.is_empty(),
        "engine source files over 1,200 lines:\n{}",
        long.join("\n")
    );
}

/// One decision path: every adaptation decision is a `Verdict` that one
/// planning function reaches through `Controller::consider`, and the
/// event bus is the only live observer. A second planning call, or a
/// callback beside the bus, is how the recovery cycle and the remap hook
/// came to be side channels.
#[test]
fn one_decision_path() {
    let hits = lines_matching(&library_sources(), any_of(&["on_remap", "RunHooks"]));
    assert!(
        hits.is_empty(),
        "a live-observation side channel is back; subscribe to RunConfig::events:\n{}",
        hits.join("\n")
    );
    let adapt = root().join("crates/runtime/src/adapt.rs");
    let calls = read(&adapt).matches(".consider(").count();
    assert_eq!(
        calls, 1,
        "crates/runtime/src/adapt.rs must reach Controller::consider from one \
         planning function, shared by step and fault recovery"
    );
}
