//! A *set*: every workload run once untraced and once traced, written
//! as one `results.json`; and `compare`, which judges two sets.

use crate::json::{self, Json};
use crate::metrics::{Better, Decl, END_TO_END, PER_LAYER};
use crate::run::{run_traced, run_untraced, RunArgs, RunReport};
use crate::stats::Summary;
use crate::workloads::{pool_width, SPECS};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// A set has no time cap to fit, so it measures longer than a driver
/// run — enough trials (9–15 rounds, 5 set-ups) that one outlier does
/// not widen a metric's quartiles past its bound.
pub const SUITE_SECONDS: f64 = 30.0;
const SUITE_SETUPS: usize = 5;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn print_report(workload: &str, kind: &str, report: &RunReport) {
    println!(
        "== {workload} [{kind}] requests={} events={} ops_attempted={} ops_failed={}",
        report.requests, report.events, report.attempted, report.failed
    );
    for (d, s) in &report.summaries {
        println!(
            "{:<36} {:>16.6} {:<6} (n={} q1={:.6} q3={:.6} min={:.6} max={:.6})",
            d.name, s.median, d.unit, s.n, s.q1, s.q3, s.min, s.max
        );
    }
}

fn metrics_json(report: &RunReport, kind: &str) -> Vec<(String, Json)> {
    report
        .summaries
        .iter()
        .map(|(d, s)| (d.name.to_string(), s.to_json(d.unit, kind)))
        .collect()
}

/// One workload's entry in a results file: both runs' operation counts
/// and every metric's distribution.
fn workload_json(untraced: &RunReport, traced: &RunReport) -> Json {
    let mut metrics = metrics_json(untraced, "end_to_end");
    metrics.extend(metrics_json(traced, "per_layer"));
    Json::obj([
        (
            "ops_attempted",
            Json::Num((untraced.attempted + traced.attempted) as f64),
        ),
        (
            "ops_failed",
            Json::Num((untraced.failed + traced.failed) as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Runs the whole set and writes it to `path`. Returns whether every
/// verdict was right.
pub fn run_suite(seed: u64, seconds: f64, scale_mult: f64, out: &Path, path: &Path) -> bool {
    let started = Instant::now();
    let mut workloads = Vec::new();
    let mut sizes = Vec::new();
    let mut all_correct = true;
    for spec in &SPECS {
        let args = RunArgs {
            spec,
            seed,
            seconds,
            setups: SUITE_SETUPS,
            scale_mult,
            out: out.to_path_buf(),
        };
        let untraced = run_untraced(&args);
        print_report(spec.name, "end-to-end", &untraced);
        let traced = run_traced(&args);
        print_report(spec.name, "per-layer", &traced);
        all_correct &= untraced.correct() && traced.correct();
        sizes.push((
            spec.name,
            Json::obj([
                ("scale", Json::Num(spec.scale * scale_mult)),
                ("serve_workers", Json::Num(spec.serve_workers() as f64)),
                ("requests", Json::Num(untraced.requests as f64)),
                ("events", Json::Num(untraced.events as f64)),
            ]),
        ));
        workloads.push((spec.name, workload_json(&untraced, &traced)));
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        (
            "meta",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                ("pool_width", Json::Num(pool_width() as f64)),
                ("rustc", Json::str(command_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("sizes", Json::obj(sizes)),
                ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, doc.render_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!(
        "wrote {} ({:.1} s)",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    all_correct
}

/// One workload's metrics out of a results file.
fn load_metrics(doc: &Json, workload: &str) -> Result<Vec<(String, Summary)>, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("no metrics for workload {workload}"))?
        .iter()
        .map(|(name, v)| Ok((name.clone(), Summary::from_json(v)?)))
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative =
/// better).
fn worsening(d: &Decl, a: f64, b: f64) -> f64 {
    let delta = match d.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// Verdict on one end-to-end metric between two sets.
pub fn judge(d: &Decl, a: &Summary, b: &Summary) -> &'static str {
    let bound = d.bound.unwrap_or(f64::INFINITY);
    if a.spread() > bound || b.spread() > bound {
        "unresolved"
    } else if worsening(d, a.median, b.median) > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Prints the comparison of two result files; true when no end-to-end
/// metric is `worse` or `unresolved`, no exact count differs on a
/// deterministic workload, and neither set has a failed operation.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let mut clean = true;
    for spec in &SPECS {
        let (a, b) = (
            load_metrics(&a_doc, spec.name)?,
            load_metrics(&b_doc, spec.name)?,
        );
        let lookup = |set: &[(String, Summary)], name: &str| {
            set.iter().find(|(n, _)| n == name).map(|(_, s)| s.clone())
        };
        println!("== {}", spec.name);
        println!(
            "{:<24} {:>6} {:>14} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "worse by", "bound"
        );
        for d in END_TO_END {
            let (Some(sa), Some(sb)) = (lookup(&a, d.name), lookup(&b, d.name)) else {
                return Err(format!("{}: {} missing from a set", spec.name, d.name));
            };
            let verdict = judge(d, &sa, &sb);
            clean &= verdict == "ok";
            println!(
                "{:<24} {:>6} {:>14.6} {:>14} {:>14.6} {:>14} {:>8.2}% {:>6.0}%  {verdict}",
                d.name,
                d.unit,
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                100.0 * worsening(d, sa.median, sb.median),
                100.0 * d.bound.unwrap_or(0.0),
            );
        }
        if !spec.live {
            let differing: Vec<String> = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .filter(|d| d.exact)
                .filter_map(|d| {
                    let (sa, sb) = (lookup(&a, d.name)?, lookup(&b, d.name)?);
                    (sa.median != sb.median)
                        .then(|| format!("{} ({} vs {})", d.name, sa.median, sb.median))
                })
                .collect();
            if differing.is_empty() {
                println!("exact counts: identical");
            } else {
                clean = false;
                println!("exact counts DIFFER: {}", differing.join(", "));
            }
        }
        for (label, doc) in [("A", &a_doc), ("B", &b_doc)] {
            let failed = doc
                .get("workloads")
                .and_then(|w| w.get(spec.name))
                .map_or(Ok(0.0), |w| w.num("ops_failed"))?;
            if failed != 0.0 {
                clean = false;
                println!("set {label}: ops_failed = {failed}");
            }
        }
    }
    println!(
        "{}",
        if clean {
            "compare: ok"
        } else {
            "compare: NOT ok"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            n: 5,
            median,
            q1,
            q3,
            min: q1,
            max: q3,
        }
    }

    #[test]
    fn results_round_trip_through_the_file_format() {
        let report = |table: &'static [Decl], base: f64| RunReport {
            attempted: 10,
            failed: 0,
            summaries: table
                .iter()
                .enumerate()
                .map(|(i, d)| (d, summary(base + i as f64, base, base + 100.5)))
                .collect(),
            requests: 5,
            events: 10,
        };
        let (untraced, traced) = (report(END_TO_END, 1.25), report(PER_LAYER, 7.0));
        let doc = Json::obj([(
            "workloads",
            Json::obj([("wiki-audit", workload_json(&untraced, &traced))]),
        )]);
        let reread = json::parse(&doc.render_pretty()).unwrap();
        let metrics = load_metrics(&reread, "wiki-audit").unwrap();
        let expected: Vec<(String, Summary)> = untraced
            .summaries
            .iter()
            .chain(&traced.summaries)
            .map(|(d, s)| (d.name.to_string(), s.clone()))
            .collect();
        assert_eq!(metrics, expected);
        assert!(load_metrics(&reread, "shop-audit").is_err());
    }

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let decl = |better| Decl {
            name: "m",
            unit: "s",
            better,
            bound: Some(0.10),
            exact: false,
        };
        let wall = decl(Better::Lower);
        let a = summary(1.0, 0.99, 1.01);
        assert_eq!(judge(&wall, &a, &summary(1.05, 1.04, 1.06)), "ok");
        assert_eq!(judge(&wall, &a, &summary(0.5, 0.49, 0.51)), "ok");
        assert_eq!(judge(&wall, &a, &summary(1.2, 1.19, 1.21)), "worse");
        assert_eq!(judge(&wall, &a, &summary(1.0, 0.9, 1.1)), "unresolved");
        let rate = decl(Better::Higher);
        let a = summary(1000.0, 995.0, 1005.0);
        assert_eq!(judge(&rate, &a, &summary(1300.0, 1295.0, 1305.0)), "ok");
        assert_eq!(judge(&rate, &a, &summary(800.0, 795.0, 805.0)), "worse");
    }
}
