//! The registry exporter: a JSON snapshot of every metric.

use crate::registry::{snapshot_all, HistogramSnapshot, MetricValue};

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn histogram_json(s: &HistogramSnapshot) -> String {
    // Buckets are emitted sparsely as [index, count] pairs — 65 mostly
    // zero entries per histogram would dwarf the rest of the snapshot.
    let mut buckets = String::from("[");
    let mut first = true;
    for (idx, &n) in s.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            buckets.push(',');
        }
        first = false;
        buckets.push_str(&format!("[{idx},{n}]"));
    }
    buckets.push(']');
    let p50 = s.quantile_est(50.0).map(fmt_f64).unwrap_or("null".into());
    let p99 = s.quantile_est(99.0).map(fmt_f64).unwrap_or("null".into());
    format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"buckets\":{}}}",
        s.count,
        s.sum,
        fmt_f64(s.mean()),
        p50,
        p99,
        buckets
    )
}

/// Renders every registered metric as one JSON object, keys sorted by
/// metric name. Counters and gauges are numbers; histograms are
/// objects with `count`/`sum`/`mean`/`p50`/`p99` and sparse
/// `[bucket, count]` pairs.
pub fn json_snapshot() -> String {
    let snap = snapshot_all();
    let mut out = String::from("{");
    let mut first = true;
    for (name, value) in &snap {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{name}\":"));
        match value {
            MetricValue::Counter(v) => out.push_str(&v.to_string()),
            MetricValue::Gauge(v) => out.push_str(&v.to_string()),
            MetricValue::Histogram(s) => out.push_str(&histogram_json(s)),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn json_snapshot_is_object() {
        registry::counter("test_export_counter").add(7);
        registry::histogram("test_export_hist_ns").record(1000);
        let json = json_snapshot();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"test_export_counter\":"));
        assert!(json.contains("\"test_export_hist_ns\":{\"count\":"));
    }
}
