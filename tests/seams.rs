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
/// be written twice — or build the adaptation loop's substrate view. Nor
/// may it write the session's method set out once per backend.
#[test]
fn the_facade_runs_nothing() {
    let hits = lines_matching(
        &[root().join("src/api.rs")],
        any_of(&[
            ".process(",
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
    // A `RunSession` holds one boxed `LiveSession`: no per-backend enum
    // to match on in every method, and one `RunHandle` as the shape of
    // every finished run.
    let hits = lines_matching(&[root().join("src/api.rs")], any_of(&["SessionInner"]));
    assert!(
        hits.is_empty(),
        "RunSession matches on its backend again; hold a \
         Box<dyn LiveSession> and make each method one call:\n{}",
        hits.join("\n")
    );
    let hits = lines_matching(&library_sources(), any_of(&["EngineOutcome"]));
    assert!(
        hits.is_empty(),
        "a backend returns its own run outcome again; every drain and batch \
         run returns adapipe_runtime::session::RunHandle:\n{}",
        hits.join("\n")
    );
}

/// One graph builder: every pipeline is declared through typed handles
/// on one graph builder, core's `DagBuilder`, which the facade's chain
/// and `parallel` sugar and core's chain builder lower onto, and which
/// builds its `StageGraph` in one place. A second builder stack, or
/// stages wired by name, is how the chain, the blocks and the DAG
/// builder came to keep three copies of stage appending and of the run
/// setters, and a mis-typed graph came to build.
#[test]
fn one_graph_builder() {
    let builders = [
        root().join("src/api.rs"),
        root().join("crates/core/src/pipeline.rs"),
    ];
    let calls = lines_matching(&builders, any_of(&["StageGraph::dag("]));
    assert_eq!(
        calls.len(),
        1,
        "the builders must build their stage graph in exactly one place:\n{}",
        calls.join("\n")
    );
    let hits = lines_matching(
        &builders,
        any_of(&[
            "StageGraphBuilder",
            ".split(",
            "HashMap<&str",
            "HashMap<String",
            "PipelineSpec::new(",
        ]),
    );
    assert!(
        hits.is_empty(),
        "a builder wires stages by name, through the graph sugar or as a \
         bare chain spec again; declare them on the typed DagBuilder:\n{}",
        hits.join("\n")
    );
}

/// Erasure stays in core: a stage is erased in the one call that
/// declares it on core's typed builder, so no erased pipeline reaches a
/// backend mis-typed, and no error path exists for one. Assembling a
/// pipeline from erased parts outside `adapipe-core`, or a facade that
/// handles erased stages, duplicators or key extractors, is how a
/// mis-typed graph came to need a run error of its own.
#[test]
fn erasure_stays_in_core() {
    let this = root().join("tests/seams.rs");
    let mut everywhere = rust_files(&root().join("src"));
    for dir in ["tests", "examples", "crates"] {
        everywhere.extend(rust_files(&root().join(dir)));
    }
    everywhere.retain(|path| *path != this);
    let core = root().join("crates/core/src");
    let outside: Vec<PathBuf> = (everywhere.iter())
        .filter(|path| !path.starts_with(&core))
        .cloned()
        .collect();
    let hits = lines_matching(&outside, any_of(&["from_parts("]));
    assert!(
        hits.is_empty(),
        "a pipeline is assembled from erased parts outside adapipe-core; \
         declare it on the typed DagBuilder:\n{}",
        hits.join("\n")
    );
    let hits = lines_matching(
        &everywhere,
        any_of(&["StageTypeMismatch", "StageTypeError"]),
    );
    assert!(
        hits.is_empty(),
        "a type-mismatch error path is back; the typed builder makes every \
         erased pipeline well-typed:\n{}",
        hits.join("\n")
    );
    let hits = lines_matching(
        &[root().join("src/api.rs")],
        any_of(&["DynStage", "FanOutFn", "KeyFn"]),
    );
    assert!(
        hits.is_empty(),
        "src/api.rs handles erased stages again; call core's typed \
         DagBuilder constructors:\n{}",
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
/// engine came to disagree. Nor may a stage instance encode it again:
/// an instance processes, makes a fresh copy of itself and moves its
/// state, and the declaration alone decides whether it is copied.
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
    let hits = lines_matching(
        &library_sources(),
        any_of(&[
            "fn replicate(",
            "fn try_process(",
            "fn declared(",
            "SealedStage",
        ]),
    );
    assert!(
        hits.is_empty(),
        "a stage instance re-encodes its declaration again (a replication \
         refusal, a sealing wrapper or a second stage call); DynStage has \
         process and fresh, and worker::try_acquire reads the declaration:\n{}",
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
/// planning function reaches through `Controller::consider`, the event
/// bus is the only live observer, and the forecasters hear only from the
/// loop's own sensing. A second planning call, a callback beside the
/// bus, or a backend's sample clock is how the recovery cycle, the remap
/// hook and the sensing path came to be side channels.
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
    // Sensing has one owner: the loop reads each elapsed availability
    // window itself before it forecasts, so no backend keeps a sample
    // clock of its own.
    let observers: Vec<String> = library_sources()
        .iter()
        .flat_map(|p| {
            let shown = p.strip_prefix(root()).unwrap_or(p).display().to_string();
            let calls = non_test_code(&read(p))
                .matches(".observe_availability(")
                .count();
            std::iter::repeat_n(shown, calls)
        })
        .collect();
    assert_eq!(
        observers,
        ["crates/runtime/src/adapt.rs"],
        "availability is observed once, by the adaptation loop's own sensing"
    );
    let hits = lines_matching(&library_sources(), any_of(&["sample_dt", "Ev::Sample"]));
    assert!(
        hits.is_empty(),
        "a backend-driven sample clock is back; the loop senses inside tick:\n{}",
        hits.join("\n")
    );
}

/// One registry per pool: each backend's pool keeps the list of the
/// sessions sharing it, and the facade's `Cluster` matches on the two
/// pools directly. A cluster type beside the pool, or a registration
/// step the facade runs after attaching, is how the tenant list came to
/// be kept twice on each backend.
#[test]
fn one_registry_per_pool() {
    let hits = lines_matching(
        &library_sources(),
        any_of(&[
            "struct SimCluster",
            "struct ThreadCluster",
            "struct TenantHandle",
        ]),
    );
    assert!(
        hits.is_empty(),
        "a second tenant registry is back; the backend's pool owns its tenants:\n{}",
        hits.join("\n")
    );
    let hits = lines_matching(&[root().join("src/api.rs")], any_of(&[".register("]));
    assert!(
        hits.is_empty(),
        "the facade registers tenants; attaching to the pool registers them:\n{}",
        hits.join("\n")
    );
    assert!(
        !root().join("crates/cluster").exists(),
        "crates/cluster is back; the pools in core and engine own their tenants"
    );
}

/// The run configuration structs, with the file that defines each.
const RUN_SETTINGS: [(&str, &str); 4] = [
    ("RunConfig", "crates/runtime/src/session.rs"),
    ("ControllerConfig", "crates/runtime/src/controller.rs"),
    ("PlannerConfig", "crates/mapper/src/search.rs"),
    ("DecisionConfig", "crates/mapper/src/decide.rs"),
];

/// Fields no library code sets, each kept for a named reason.
const UNSET_BUT_KEPT: [&str; 4] = [
    // The `least_loaded` golden fixture pins it, and adabench's probe
    // constructs `Selection`.
    "RunConfig::selection",
    // The `replicated_merge_dead_letter` fixture records completion-order
    // output.
    "RunConfig::preserve_order",
    // A shared steering handle, not a tunable.
    "RunConfig::control",
    // The 50-row golden plan table varies it per case.
    "PlannerConfig::seed",
];

/// `text` without its `#[cfg(test)]` items and its comment lines.
fn non_test_code(text: &str) -> String {
    let mut kept = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            // Skip the item the attribute gates: to its closing brace,
            // or to its `;` when it has no body.
            let mut depth = 0;
            for line in lines.by_ref() {
                depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
                let braced = line.contains(['{', '}']);
                if depth <= 0 && (braced || line.trim_end().ends_with(';')) {
                    break;
                }
            }
            continue;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    kept
}

/// The `pub` field names of `pub struct name { … }` in `text`.
fn pub_fields(text: &str, name: &str) -> Vec<String> {
    let head = format!("pub struct {name} {{");
    let body = text
        .split_once(&head)
        .unwrap_or_else(|| panic!("no `{head}`"))
        .1;
    let body = &body[..body.find("\n}").expect("the struct closes")];
    body.lines()
        .filter_map(|l| l.trim().strip_prefix("pub ")?.split_once(':'))
        .map(|(field, _)| field.trim().to_string())
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The fields set in each `name { … }` struct literal of `code`: the
/// identifiers followed by a single `:` directly inside its braces.
fn literal_fields(code: &str, name: &str) -> Vec<String> {
    let opener = format!("{name} {{");
    let mut fields = Vec::new();
    for (at, _) in code.match_indices(&opener) {
        let before = &code[..at];
        let word = before.trim_end().rsplit(|c| !is_ident(c)).next();
        if before.ends_with(is_ident) || matches!(word, Some("struct" | "impl" | "for")) {
            continue; // a longer name, or the declaration itself
        }
        let body: Vec<char> = code[at + opener.len()..].chars().collect();
        let (mut depth, mut i) = (1, 0);
        while depth > 0 && i < body.len() {
            let c = body[i];
            if depth == 1 && is_ident(c) && (i == 0 || !is_ident(body[i - 1])) {
                let start = i;
                while i < body.len() && is_ident(body[i]) {
                    i += 1;
                }
                let mut next = i;
                while next < body.len() && body[next].is_whitespace() {
                    next += 1;
                }
                let colon = body.get(next) == Some(&':') && body.get(next + 1) != Some(&':');
                let in_path = start > 0 && body[start - 1] == ':';
                if colon && !in_path {
                    fields.push(body[start..i].iter().collect());
                }
                continue;
            }
            match c {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => depth -= 1,
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// The fields a line assigns through a path — `x.name = …` or
/// `x.name.inner = …` — on the left of its first ` = `.
fn assigned_fields(line: &str) -> Vec<String> {
    let trimmed = line.trim_start();
    if trimmed.starts_with("let ") {
        return Vec::new();
    }
    let Some((lhs, _)) = line.split_once(" = ") else {
        return Vec::new();
    };
    lhs.split('.')
        .skip(1)
        .map(|seg| seg.chars().take_while(|&c| is_ident(c)).collect::<String>())
        .filter(|field| !field.is_empty())
        .collect()
}

/// Every setting has a user: each `pub` field of the run configuration
/// structs is set by some library source — the facade, a crate, or the
/// bench crate's `repro` experiments and `adabench` — outside the file
/// that defines it, in a struct literal or an assignment. Test code does
/// not count. A knob only tests turn is a code path the product never
/// takes; it goes, or its default becomes a named constant.
#[test]
fn every_run_setting_has_a_user() {
    let sources: Vec<(PathBuf, String)> = library_sources()
        .into_iter()
        .filter(|p| !p.ends_with("tests.rs"))
        .map(|p| {
            let code = non_test_code(&read(&p));
            (p, code)
        })
        .collect();
    let mut unset = Vec::new();
    for (name, home) in RUN_SETTINGS {
        let home = root().join(home);
        let mut set = std::collections::BTreeSet::new();
        for (_, code) in sources.iter().filter(|(p, _)| *p != home) {
            set.extend(literal_fields(code, name));
            set.extend(code.lines().flat_map(assigned_fields));
        }
        for field in pub_fields(&read(&home), name) {
            let qualified = format!("{name}::{field}");
            if !set.contains(&field) && !UNSET_BUT_KEPT.contains(&qualified.as_str()) {
                unset.push(qualified);
            }
        }
    }
    assert!(
        unset.is_empty(),
        "settings no library code sets; delete them or make them named \
         constants (or allow-list one with its reason):\n{}",
        unset.join("\n")
    );
}

/// Public items no other file names, each kept for its reason.
const PUBLIC_BUT_UNUSED: [(&str, &str); 5] = [
    (
        "ReadmeDoctests",
        "the harness that compiles and runs the README's code blocks as doctests",
    ),
    (
        "FanTarget",
        "the element type of the public `StageGraph::fan_targets`, which core's \
         builder and simulator read",
    ),
    (
        "Bencher",
        "the argument of every `bench_function` closure, which benches take \
         without spelling its type",
    ),
    (
        "BenchmarkGroup",
        "what `Criterion::benchmark_group` returns, which benches bind without \
         spelling its type",
    ),
    (
        "configure_from_args",
        "called through `$crate` by the `criterion_main!` expansion in each bench",
    ),
];

/// The name of the item `line` declares `pub`, if it declares one:
/// `pub fn`, `pub struct`, `pub const` and the like, with any `const`,
/// `async`, `unsafe` or `extern` qualifiers between. `pub(crate)` and
/// `pub use` declare none.
fn pub_item(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut words = rest.split_whitespace().peekable();
    while let Some(word) = words.next() {
        let declares = match word {
            "fn" | "struct" | "enum" | "trait" | "type" | "mod" | "static" | "union" => true,
            "const" => !matches!(words.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))),
            "async" | "unsafe" | "extern" | "\"C\"" => false,
            _ => return None,
        };
        if declares {
            let name = words.find(|&w| w != "mut")?;
            let name: String = name.chars().take_while(|&c| is_ident(c)).collect();
            return (!name.is_empty()).then_some(name);
        }
    }
    None
}

/// The identifiers in `text`.
fn identifiers(text: &str) -> std::collections::HashSet<&str> {
    text.split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The README's Rust code blocks, which run as doctests.
fn readme_code() -> String {
    let mut code = String::new();
    let mut inside = false;
    for line in read(&root().join("README.md")).lines() {
        let fence = line.trim_start().strip_prefix("```");
        match fence {
            Some(lang) if !inside => inside = lang.starts_with("rust"),
            Some(_) => inside = false,
            None if inside => {
                code.push_str(line);
                code.push('\n');
            }
            None => {}
        }
    }
    code
}

/// Every public item has a user: each `pub` item of the facade's and
/// the crates' library sources is named by some other `.rs` file —
/// another library file, a test, an example, a bench or adabench — or by
/// a README code block, or sits on `PUBLIC_BUT_UNUSED` with its reason.
/// Test code does not declare items here, and binaries (`src/bin/`) are
/// left to rustc's `dead_code` lint, which already sees all of their
/// callers. The match is by name, so the check is a lower bound: a name
/// that a second item shares passes.
#[test]
fn every_public_item_has_a_user() {
    let this = root().join("tests/seams.rs");
    let mut everywhere = rust_files(&root().join("src"));
    for dir in ["tests", "examples", "crates"] {
        everywhere.extend(rust_files(&root().join(dir)));
    }
    everywhere.retain(|path| *path != this);
    let texts: Vec<(PathBuf, String)> = (everywhere.into_iter())
        .map(|path| {
            let text = read(&path);
            (path, text)
        })
        .collect();
    let named: Vec<(&PathBuf, std::collections::HashSet<&str>)> =
        texts.iter().map(|(p, t)| (p, identifiers(t))).collect();
    let readme = readme_code();
    let readme = identifiers(&readme);
    let binaries = |path: &Path| path.components().any(|c| c.as_os_str() == "bin");
    let mut unused = Vec::new();
    let mut allowed = Vec::new();
    for home in library_sources().iter().filter(|p| !binaries(p)) {
        for name in non_test_code(&read(home)).lines().filter_map(pub_item) {
            let elsewhere =
                (named.iter()).any(|(path, words)| *path != home && words.contains(name.as_str()));
            if elsewhere || readme.contains(name.as_str()) {
                continue;
            }
            if PUBLIC_BUT_UNUSED.iter().any(|&(n, _)| n == name) {
                allowed.push(name);
                continue;
            }
            let shown = home.strip_prefix(root()).unwrap_or(home).display();
            unused.push(format!("{shown}: {name}"));
        }
    }
    assert!(
        unused.is_empty(),
        "public items no other file and no README code block names; delete \
         them, make them private or pub(crate), or allow-list one with its \
         reason:\n{}",
        unused.join("\n")
    );
    let stale: Vec<&str> = (PUBLIC_BUT_UNUSED.iter())
        .filter(|(name, reason)| reason.is_empty() || !allowed.iter().any(|a| a == name))
        .map(|&(name, _)| name)
        .collect();
    assert!(
        stale.is_empty(),
        "PUBLIC_BUT_UNUSED entries with no reason, or whose item is gone or \
         has a user now; drop them:\n{}",
        stale.join("\n")
    );
}

/// The library files that may say `unsafe`, each with the number of
/// code lines that do and the reason.
const UNSAFE_SITES: [(&str, usize); 4] = [
    // The type-erased item: inline storage, pooled spill blocks, the
    // vtable's drop and a stage's in-place rewrite (`Payload::map`).
    ("crates/core/src/payload.rs", 18),
    // The one dispatch to a kernel's AVX2 copy, behind
    // `is_x86_feature_detected!`.
    ("crates/workloads/src/imaging.rs", 1),
    // adabench's counting global allocator and its `mallopt` call.
    ("crates/bench/src/bin/adabench/alloc.rs", 10),
    // adabench's `sched_getaffinity` / `sched_setaffinity` calls.
    ("crates/bench/src/bin/adabench/affinity.rs", 2),
];

/// Whether a line of code, not a comment, has the word `unsafe`.
fn says_unsafe(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && line.match_indices("unsafe").any(|(at, m)| {
            let before = line[..at].chars().next_back();
            let after = line[at + m.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
}

/// `unsafe` is deliberate: blocks, fns and impls appear only in the
/// allow-listed library files, each as often as its entry says, so a
/// new site fails here until it is listed with its reason.
#[test]
fn unsafe_stays_where_it_is_listed() {
    let mut found = std::collections::BTreeMap::new();
    for hit in lines_matching(&library_sources(), says_unsafe) {
        let file = hit.split(':').next().expect("a path").to_string();
        found.entry(file).or_insert_with(Vec::new).push(hit);
    }
    let mut stray = Vec::new();
    for (file, hits) in &found {
        let listed = UNSAFE_SITES.iter().find(|(f, _)| f == file);
        let n = listed.map_or(0, |&(_, n)| n);
        if n != hits.len() {
            stray.push(format!("{file}: {} lines, {n} listed", hits.len()));
            stray.extend(hits.iter().cloned());
        }
    }
    for (file, n) in UNSAFE_SITES {
        if !found.contains_key(file) {
            stray.push(format!("{file}: 0 lines, {n} listed"));
        }
    }
    assert!(
        stray.is_empty(),
        "`unsafe` where UNSAFE_SITES does not list it; remove it, or list \
         the file and count with the reason:\n{}",
        stray.join("\n")
    );
}
