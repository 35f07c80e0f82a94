//! Every workload at smoke size, untraced and traced: each run must
//! print every metric `BENCHMARK.json` names, with its unit, and fail
//! nothing.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: &[&str] = &["suite", "serve_wl", "serve_gel", "ingest"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\": [")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

/// The number after `"<name>": {"value": ` in a result line.
fn value(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len()..];
    rest[..rest.find(',').expect("value ends")].parse().expect("a number")
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let e2e = metrics("end_to_end");
    let layers = metrics("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(layers.len() > 10);
    let dir = std::env::temp_dir().join(format!("gel-e2e-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for &workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
                .args(["--workload", workload, "--seconds", "1", "--smoke", "--trace", trace])
                .current_dir(&dir)
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let ctx = format!(
                "{workload} --trace {trace}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{ctx}");
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.contains("\"correct\": true") && result.contains("\"failed\": 0,"),
                "{ctx}"
            );
            for (name, unit) in if trace == "0" { &e2e } else { &layers } {
                assert!(result.contains(&format!("\"{name}\": {{\"value\": ")), "{name} in {ctx}");
                let printed = stdout.lines().any(|l| {
                    let words: Vec<&str> = l.split_whitespace().collect();
                    words.contains(&name.as_str()) && words.contains(&unit.as_str())
                });
                assert!(printed, "{name} printed with its unit {unit}: {ctx}");
                if trace == "0" {
                    assert!(value(result, name) > 0.0, "{name} is never 0: {ctx}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
