//! `BENCHMARK.json`, compiled in: the one place workload names, metric
//! names, units, directions and regression bounds are written down.
//! The run checks what it prints against it, and `--selfcheck` takes
//! its bounds from it.

use crate::json;

pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The text of the array stored under `key`, brackets excluded. The
/// file's arrays hold flat objects or strings, never other arrays.
fn array(text: &'static str, key: &str) -> &'static str {
    let needle = format!("{}: [", json::string(key));
    let start = text
        .find(&needle)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} array"))
        + needle.len();
    let len = text[start..]
        .find(']')
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key:?} is not closed"));
    &text[start..start + len]
}

/// The string stored under `key` in one flat object.
fn string_field(object: &'static str, key: &str) -> Option<&'static str> {
    let needle = format!("{}: \"", json::string(key));
    let tail = &object[object.find(&needle)? + needle.len()..];
    Some(&tail[..tail.find('"')?])
}

fn objects(array: &'static str) -> impl Iterator<Item = &'static str> {
    array.split('}').filter(|o| o.contains('{'))
}

fn metrics(key: &str) -> Vec<MetricSpec> {
    objects(array(BENCHMARK_JSON, key))
        .map(|o| {
            let field = |k| {
                string_field(o, k)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks {k}"))
            };
            MetricSpec {
                name: field("name"),
                unit: field("unit"),
                higher_is_better: field("better") == "higher",
                bound: json::number_after(o, "bound"),
            }
        })
        .collect()
}

pub fn end_to_end() -> Vec<MetricSpec> {
    metrics("end_to_end")
}

pub fn per_layer() -> Vec<MetricSpec> {
    metrics("per_layer")
}

#[cfg(test)]
fn workloads() -> Vec<&'static str> {
    objects(array(BENCHMARK_JSON, "workloads"))
        .filter_map(|o| string_field(o, "name"))
        .collect()
}

pub fn run_seconds() -> u64 {
    json::number_after(BENCHMARK_JSON, "run_seconds").expect("BENCHMARK.json has run_seconds")
        as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_file_meets_the_contract() {
        let e2e = end_to_end();
        assert!((1..=16).contains(&e2e.len()));
        for m in &e2e {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let widest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");

        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        assert!(layers.iter().all(|m| m.bound.is_none()));

        let names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in e2e.iter().chain(&layers) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=60).contains(&run_seconds()));
        assert!(BENCHMARK_JSON.len() <= 64 << 10);
    }

    #[test]
    fn workloads_match_the_program_and_explain_themselves() {
        assert_eq!(workloads(), crate::run::WORKLOADS);
        for o in objects(array(BENCHMARK_JSON, "workloads")) {
            let why = string_field(o, "why").expect("every workload says why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }
    }
}
