//! `BENCHMARK.json` at the repository root must name exactly the metrics
//! this benchmark prints, with the same units.

use servebench::{end_to_end_metrics, per_layer_metrics, WORKLOADS};

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let field = |key: &str| {
                let at =
                    obj.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} in {obj}"));
                let rest = &obj[at + key.len() + 2..];
                let rest = &rest[rest.find('"').unwrap() + 1..];
                rest[..rest.find('"').unwrap()].to_string()
            };
            (field("name"), if section == "workloads" { String::new() } else { field("unit") })
        })
        .collect()
}

fn owned(v: Vec<(String, &'static str)>) -> Vec<(String, String)> {
    v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(declared("end_to_end"), owned(end_to_end_metrics()));
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(declared("per_layer"), owned(per_layer_metrics()));
}

#[test]
fn workloads_match() {
    let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, WORKLOADS);
}
