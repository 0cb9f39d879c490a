//! Smoke test of the benchmark itself: every workload at a tiny size with
//! every check on. The result line must name each metric BENCHMARK.json
//! lists, with its unit, and report ops attempted and failed.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let body = json
        .split(&format!("\"{key}\""))
        .nth(1)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, k: &str| -> Option<String> {
        let rest = entry.split(&format!("\"{k}\"")).nth(1)?;
        let rest = rest
            .trim_start()
            .strip_prefix(':')?
            .trim_start()
            .strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_owned())
    };
    body.split('}')
        .filter_map(|e| Some((field(e, "name")?, field(e, "unit")?)))
        .collect()
}

fn number_after(line: &str, key: &str) -> f64 {
    let rest = line
        .split(key)
        .nth(1)
        .unwrap_or_else(|| panic!("{key} missing from {line}"));
    rest.split([',', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} is not a number in {line}"))
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .last()
        .expect("a result line")
        .to_owned()
}

#[test]
fn every_workload_reports_every_metric() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let e2e = section(&json, "end_to_end");
    let layers = section(&json, "per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["constrain", "mint", "population", "served"] {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} not in BENCHMARK.json"
        );
        for (trace, metrics) in [(false, &e2e), (true, &layers)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {line}"
            );
            assert!(
                number_after(&line, "\"attempted\": ") >= 1.0,
                "{workload}: nothing attempted"
            );
            assert_eq!(
                number_after(&line, "\"failed\": "),
                0.0,
                "{workload}: {line}"
            );
            for (name, unit) in metrics.iter() {
                let key = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&key), "{workload}: {name} missing: {line}");
                let rest = line.split(&key).nth(1).expect("present");
                let got = rest
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next());
                assert_eq!(
                    got,
                    Some(unit.as_str()),
                    "{workload}: {name} has the wrong unit"
                );
                assert!(number_after(&line, &key).is_finite());
            }
            // Exactly the listed metrics, no others.
            assert_eq!(
                line.matches("{\"value\": ").count(),
                metrics.len(),
                "{workload}: extra metrics"
            );
        }
    }
}
