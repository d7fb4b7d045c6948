//! `BENCHMARK.json` names exactly the workloads and metrics the benchmark
//! reports, and every name and unit stays inside the allowed charsets.

use guardrail::obs::json::{self, Json};
use guardrail_e2ebench::inputs::SHAPES;
use guardrail_e2ebench::run::{E2E_METRICS, LAYER_METRICS};
use std::collections::BTreeSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key} is an array"))
}

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(entry: &Json) -> BTreeSet<&str> {
    entry.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn top_level_keys_and_command() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        BTreeSet::from(["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"])
    );
    let command: Vec<&str> =
        entries(&doc, "command").iter().map(|c| c.as_str().expect("string")).collect();
    assert_eq!(command, ["bash", "e2ebench/run.sh"]);
    let paths: Vec<&str> =
        entries(&doc, "paths").iter().map(|c| c.as_str().expect("string")).collect();
    assert_eq!(paths, ["e2ebench"]);
    let secs = doc.get("run_seconds").and_then(Json::as_u64).expect("whole run_seconds");
    assert!((1..=60).contains(&secs));
}

#[test]
fn workloads_match_the_shapes() {
    let doc = benchmark_json();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), BTreeSet::from(["name", "why"]));
            let why = str_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            str_of(w, "name")
        })
        .collect();
    let shapes: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
    assert_eq!(names, shapes);
    assert!(names.iter().all(|n| valid_name(n)));
}

#[test]
fn end_to_end_metrics_match_the_report() {
    let doc = benchmark_json();
    let mut names = Vec::new();
    for m in entries(&doc, "end_to_end") {
        assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better", "bound"]));
        let name = str_of(m, "name");
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(str_of(m, "unit")), "{name}");
        assert!(matches!(str_of(m, "better"), "higher" | "lower"));
        let bound = m.get("bound").and_then(Json::as_num).expect("numeric bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        names.push(name);
    }
    assert_eq!(names, E2E_METRICS);
    let setup = &entries(&doc, "end_to_end")[0];
    assert_eq!((str_of(setup, "unit"), str_of(setup, "better")), ("s", "lower"));
    let largest = entries(&doc, "end_to_end")
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_num).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_num), Some(largest));
}

#[test]
fn per_layer_metrics_match_the_traced_report() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| {
            assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better"]));
            let (name, unit) = (str_of(m, "name"), str_of(m, "unit"));
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(matches!(str_of(m, "better"), "higher" | "lower"));
            (name, unit)
        })
        .collect();
    assert_eq!(listed, LAYER_METRICS);
    let all: BTreeSet<&str> =
        listed.iter().map(|(n, _)| *n).chain(E2E_METRICS.iter().copied()).collect();
    assert_eq!(all.len(), listed.len() + E2E_METRICS.len(), "a metric name is used twice");
}
