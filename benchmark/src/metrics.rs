//! Every metric the benchmark reports, declared once: name, unit,
//! direction, and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` repeats this table for the driver; a unit test
//! keeps the two in step.

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
    /// A count or byte total that must repeat exactly between two runs
    /// of one commit on the deterministic (`*-audit`) workloads.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by untraced runs.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("audit_wall_s", "s", Lower, 0.20),
    e2e("reexec_wall_s", "s", Lower, 0.15),
    e2e("audit_peak_rss_mb", "MB", Lower, 0.10),
    Decl {
        exact: true,
        ..e2e("report_bytes_per_req", "B", Lower, 0.06)
    },
    Decl {
        exact: true,
        ..e2e("store_bytes_per_event", "B", Lower, 0.06)
    },
    e2e("stream_audit_wall_s", "s", Lower, 0.20),
    e2e("seal_to_verdict_s", "s", Lower, 0.25),
];

/// One row per crate-level quantity; reported by the traced run.
pub const PER_LAYER: &[Decl] = &[
    // orochi_workload
    layer("workload.generate_s", "s", Lower),
    count("workload.requests", "count"),
    count("workload.events", "count"),
    // orochi_php
    layer("php.compile_ms", "ms", Lower),
    layer("php.scalar_exec_s", "s", Lower),
    layer("php.scalar_ns_per_dispatch", "ns", Lower),
    count("php.dispatch_total", "count"),
    // orochi_accphp
    layer("accphp.group_exec_s", "s", Lower),
    layer("accphp.group_exec_ms_p50", "ms", Lower),
    layer("accphp.group_exec_ms_max", "ms", Lower),
    layer("accphp.ns_per_dispatch_executed", "ns", Lower),
    layer("accphp.ns_per_dispatch_represented", "ns", Lower),
    count("accphp.dispatch_executed", "count"),
    Decl {
        better: Higher,
        ..count("accphp.dispatch_dedup_x", "x")
    },
    count("accphp.fallback_requests", "count"),
    layer("accphp.exec_speedup_x", "x", Higher),
    // orochi_sqldb
    layer("sqldb.redo_us_per_txn", "us", Lower),
    count("sqldb.redo_txns", "count"),
    count("sqldb.versions", "count"),
    count("sqldb.versioned_bytes", "B"),
    layer("sqldb.query_us", "us", Lower),
    count("sqldb.queries_issued", "count"),
    Decl {
        better: Higher,
        ..count("sqldb.dedup_hit_rate", "%")
    },
    // orochi_state
    layer("state.kv_build_us_per_kop", "us", Lower),
    count("state.kv_ops", "count"),
    count("state.register_ops", "count"),
    count("state.report_ops", "count"),
    // orochi_trace
    layer("trace.spill_s", "s", Lower),
    layer("trace.encode_mb_s", "MB/s", Higher),
    count("trace.segments", "count"),
    layer("trace.open_ms", "ms", Lower),
    layer("trace.decode_mb_s", "MB/s", Higher),
    layer("trace.decode_ns_per_event", "ns", Lower),
    layer("trace.balance_ns_per_event", "ns", Lower),
    // orochi_core
    layer("core.reports_load_ms", "ms", Lower),
    layer("core.opmap_ns_per_op", "ns", Lower),
    layer("core.graph_ns_per_edge", "ns", Lower),
    count("core.graph_nodes", "count"),
    count("core.graph_edges", "count"),
    layer("core.cycle_check_ms", "ms", Lower),
    layer("core.prologue_s", "s", Lower),
    layer("core.other_s", "s", Lower),
    count("core.groups", "count"),
    // `audit_par_wall_s` was meant to be end-to-end; on the 2-core box
    // its median moved 47% between two sets of one commit (see README).
    layer("core.audit_par_wall_s", "s", Lower),
    layer("core.par_speedup_x", "x", Higher),
    count("core.stream.epochs", "count"),
    layer("core.stream.epoch_lag_ms_p50", "ms", Lower),
    layer("core.stream.epoch_lag_ms_max", "ms", Lower),
    layer("core.stream.carry_peak_bytes", "B", Lower),
    layer("core.stream.finish_s", "s", Lower),
    layer("core.reject_wall_s", "s", Lower),
    // orochi_server (`serve_rps` and `serve_cpu_us_per_req` were meant
    // to be end-to-end; they do not repeat within a tenth on a 2-core
    // box once W = 2 workers and the submitter share it — see README)
    layer("server.serve_rps", "req/s", Higher),
    layer("server.rec_busy_us_per_req", "us", Lower),
    layer("server.base_busy_us_per_req", "us", Lower),
    layer("server.record_overhead_pct", "%", Lower),
    layer("server.into_bundle_s", "s", Lower),
    // the audit process itself
    layer("proc.audit_user_s", "s", Lower),
    layer("proc.audit_sys_s", "s", Lower),
    layer("proc.audit_minflt", "count", Lower),
    layer("proc.reexec_peak_rss_mb", "MB", Lower),
    layer("proc.audit_second_run_x", "x", Lower),
    // the benchmark's own instrument, and the ungated paper ratios
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("derived.audit_speedup_x", "x", Higher),
    layer("derived.report_overhead_pct", "%", Lower),
];

pub fn find(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The samples of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    /// Appends one sample of a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the tables above: emitting an
    /// undeclared metric is a bug in the benchmark.
    pub fn push(&mut self, name: &str, value: f64) {
        let decl = find(name).unwrap_or_else(|| panic!("undeclared metric {name:?}"));
        match self.0.iter_mut().find(|(n, _)| *n == decl.name) {
            Some((_, values)) => values.push(value),
            None => self.0.push((decl.name, vec![value])),
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// One summary per metric of `table`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric has no sample: every run reports
    /// every metric of its table.
    pub fn summarize(&self, table: &'static [Decl]) -> Vec<(&'static Decl, Summary)> {
        table
            .iter()
            .map(|d| {
                let values = self.get(d.name);
                assert!(!values.is_empty(), "metric {} was not measured", d.name);
                (d, Summary::of(values))
            })
            .collect()
    }
}

/// The `metrics` object of the driver contract's result line: the
/// median of each metric with its unit.
pub fn contract_metrics(summaries: &[(&'static Decl, Summary)]) -> Json {
    Json::obj(summaries.iter().map(|(d, s)| {
        (
            d.name,
            Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(d.unit))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert_eq!(
                d.bound.is_some(),
                END_TO_END.iter().any(|e| e.name == d.name)
            );
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` at the repository root is what the driver
    /// reads; it must declare exactly the tables above and the four
    /// workloads.
    #[test]
    fn benchmark_json_matches_the_declared_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let check = |key: &str, table: &[Decl]| {
            let rows = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, d) in rows.iter().zip(table) {
                assert_eq!(row.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    row.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    row.get("better").and_then(Json::as_str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                assert_eq!(
                    row.get("bound").and_then(Json::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let declared: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, declared);
    }
}
