//! `BENCHMARK.json` names exactly the workloads and metrics the program
//! runs and prints, with the same units.

use cgct_perfbench::report::{END_TO_END, PER_LAYER};
use cgct_perfbench::workload::Workload;
use cgct_sim::json::Json;

fn definition() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(def: &Json, key: &str) -> Vec<(String, String)> {
    def.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_the_definition() {
    let def = definition();
    assert_eq!(names_and_units(&def, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&def, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn workloads_match_the_definition() {
    let def = definition();
    let listed: Vec<&str> = def
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, built);
}
