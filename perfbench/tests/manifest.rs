//! `BENCHMARK.json` names exactly the workloads and metrics this benchmark
//! reports.

use ccs_perfbench::minijson::{self, Value};
use ccs_perfbench::trace::per_layer_metrics;
use ccs_perfbench::workload::Workload;
use ccs_perfbench::END_TO_END;

fn names(manifest: &Value, key: &str) -> Vec<String> {
    let Some(Value::Arr(items)) = manifest.get(key) else {
        panic!("BENCHMARK.json lacks {key:?}");
    };
    items
        .iter()
        .map(|item| {
            item.str_at("name")
                .expect("every entry has a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn the_manifest_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let manifest = minijson::parse(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names(&manifest, "workloads"), workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|&n| n.to_owned()).collect();
    assert_eq!(names(&manifest, "end_to_end"), e2e);
    let layers: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names(&manifest, "per_layer"), layers);
}
