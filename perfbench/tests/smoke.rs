//! Drives `bench run --smoke` end to end: every workload in a process of
//! its own, untraced and traced, at a scale a debug build finishes in
//! seconds. Everything `BENCHMARK.json` declares must come out: the
//! benchmark contract wants every end-to-end metric from every workload,
//! also where the README says a metric tells nothing new.

use std::collections::BTreeSet;
use std::process::Command;

use polytops_core::json::{self, Json};

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.as_object().expect("object")[key]
        .as_array()
        .expect("array")
        .iter()
        .map(|entry| {
            entry.as_object().expect("object")["name"]
                .as_str()
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_emits_everything_benchmark_json_declares() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let declared = json::parse(&declared).expect("BENCHMARK.json parses");

    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-run.json");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("bench starts");
    assert!(status.success(), "bench run --smoke failed: {status}");

    let doc =
        json::parse(&std::fs::read_to_string(&out).expect("run file")).expect("run file parses");
    let doc = doc.as_object().expect("object");
    let stamp = doc["stamp"].as_object().expect("stamp");
    for key in ["git_sha", "nproc", "rustc", "seed", "threads"] {
        assert!(stamp.contains_key(key), "stamp lacks `{key}`");
    }

    let mut seen = BTreeSet::new();
    for run in doc["runs"].as_array().expect("runs") {
        let run = run.as_object().expect("run");
        let workload = run["workload"].as_str().expect("workload");
        let trace = run["trace"].as_int().expect("trace");
        let result = run["result"].as_object().expect("result");
        assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
        assert_eq!(result["failed"].as_int(), Some(0), "{workload}");
        assert!(result["attempted"].as_int().expect("attempted") >= 1);
        let emitted: BTreeSet<String> = result["metrics"]
            .as_object()
            .expect("metrics")
            .keys()
            .cloned()
            .collect();
        let key = if trace == 0 {
            "end_to_end"
        } else {
            "per_layer"
        };
        assert_eq!(emitted, names(&declared, key), "{workload}, trace {trace}");
        if trace == 0 {
            for (name, entry) in result["metrics"].as_object().expect("metrics") {
                let value = entry.as_object().expect("entry")["value"]
                    .as_f64()
                    .expect("value");
                assert!(
                    value > 0.0,
                    "{workload}: end-to-end `{name}` must never be 0"
                );
            }
        }
        seen.insert((workload.to_string(), trace));
    }
    let expect: BTreeSet<(String, i64)> = names(&declared, "workloads")
        .into_iter()
        .flat_map(|w| [(w.clone(), 0), (w, 1)])
        .collect();
    assert_eq!(seen, expect);
}
