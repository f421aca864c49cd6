//! Tiny-scale smoke runs of every workload, traced and untraced, and the
//! agreement between what the benchmark reports and `BENCHMARK.json`.

use cuszp_benchmark::{per_layer, run, Params, Workload, END_TO_END};
use cuszp_datagen::Scale;
use std::path::Path;

fn tiny(workload: Workload, trace: bool) -> Params {
    let mut p = Params::new(workload, 3, 0.2, trace);
    p.scale = Scale::Tiny;
    p.out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-smoke-{}-{trace}", workload.name()));
    p
}

#[test]
fn every_workload_passes_its_gates_at_tiny_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let p = tiny(workload, trace);
            let report = run(&p).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let context = format!(
                "{} trace={trace}:\n{}",
                workload.name(),
                report.lines.join("\n")
            );
            assert!(report.correct(), "{context}");
            let kinds: Vec<&str> = report.tallies.iter().map(|(k, _)| *k).collect();
            let mut expected = vec![
                "compress",
                "decompress",
                "range_read",
                "put",
                "cluster_counters",
            ];
            if trace {
                expected.push("replay");
            }
            assert_eq!(kinds, expected, "{context}");
            for (kind, t) in &report.tallies {
                assert!(t.attempted > 0, "{kind} attempted nothing: {context}");
                assert_eq!(t.failed, 0, "{kind}: {context}");
            }
            let names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            let wanted: Vec<String> = if trace {
                per_layer().into_iter().map(|(n, _)| n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
            };
            let (mut a, mut b) = (names.clone(), wanted);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{context}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            if !trace {
                for m in &report.metrics {
                    assert!(m.value > 0.0, "{} is 0: {context}", m.name);
                }
            } else {
                let count = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
                for n in [
                    "cluster.degraded_reads",
                    "cluster.redirects_followed",
                    "cluster.shard_failures",
                    "server.busy",
                    "server.shed",
                ] {
                    assert_eq!(count(n), 0.0, "{n}");
                }
                assert!(count("core.chunks") >= workload.slots().len() as f64);
                let spans = p.out_dir.join(format!("spans-{}-3.jsonl", workload.name()));
                let text = std::fs::read_to_string(&spans).unwrap();
                assert!(text
                    .lines()
                    .any(|l| l.contains("\"name\":\"huffman.histogram\"")));
                assert!(text
                    .lines()
                    .any(|l| l.contains("\"name\":\"server.cluster_get\"")));
            }
            let json = report.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            let _ = std::fs::remove_dir_all(&p.out_dir);
        }
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let end = start + json[start..].find(']').expect("array closes");
    json[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_names_exactly_the_reported_metrics_and_workloads() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names_in(&json, "per_layer"), layers);
}
