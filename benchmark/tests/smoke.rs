//! Smoke run of the real binary: all four workloads at 2% size, both
//! untraced and traced, checking the driver contract's result line and
//! that every declared metric is emitted exactly once per workload.

use orochi_benchmark::json::{self, Json};
use orochi_benchmark::metrics::{Decl, END_TO_END, PER_LAYER};
use orochi_benchmark::workloads::SPECS;
use std::path::Path;
use std::process::Command;

fn run(out: &Path, workload: &str, trace: &str) -> (String, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_orochi-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--scale-mult", "0.02", "--trace", trace])
        .arg("--out")
        .arg(out)
        // The benchmark must ignore every OROCHI_* knob.
        .env("OROCHI_VM_ENGINE", "stack")
        .env("OROCHI_WORKLOAD_SKEW", "1.2")
        .env("OROCHI_OBS", "1")
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last stdout line is JSON");
    (stdout, result)
}

fn check(workload: &str, stdout: &str, result: &Json, table: &[Decl]) {
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(result.num("failed").unwrap(), 0.0, "{workload}");
    assert!(result.num("attempted").unwrap() >= 1.0, "{workload}");
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(
        names, declared,
        "{workload}: each declared metric exactly once"
    );
    for ((name, value), decl) in metrics.iter().zip(table) {
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(decl.unit),
            "{name}"
        );
        let v = value
            .num("value")
            .unwrap_or_else(|e| panic!("{workload} {name}: {e}"));
        assert!(v.is_finite(), "{workload} {name}");
        if decl.bound.is_some() {
            assert!(
                v > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
        // The human-readable table names it once too.
        let printed = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
            .count();
        assert_eq!(printed, 1, "{workload}: {name} printed {printed} times");
    }
}

#[test]
fn every_workload_emits_every_declared_metric_exactly_once() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out);
    for spec in &SPECS {
        let (stdout, result) = run(&out, spec.name, "0");
        check(spec.name, &stdout, &result, END_TO_END);
        let (stdout, result) = run(&out, spec.name, "1");
        check(spec.name, &stdout, &result, PER_LAYER);
        let trace = std::fs::read_to_string(out.join(format!("{}.trace.json", spec.name)))
            .expect("the traced run writes <workload>.trace.json");
        let trace = json::parse(&trace).expect("the trace file is JSON");
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("core.audit")));
        for s in spans {
            assert!(s.num("start").unwrap() <= s.num("end").unwrap());
        }
    }
    // Scratch stores are removed when a run ends.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("work-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(&out);
}
