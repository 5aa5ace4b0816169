//! The metrics the benchmark prints, by name and unit, and how each is
//! computed from a run's measurements.

use std::fmt::Write as _;

use crate::spans::Recorder;
use crate::stats::{self, median};
use crate::{Measured, Res};

/// A printed metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name in the result line and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit in the result line and `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of `metam discover` / `metam serve` sees (untraced runs).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("discover_p50_ms", "ms"),
    def("discover_tail_ms", "ms"),
    def("discovers_per_s", "1/s"),
    def("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs).
pub const PER_LAYER: &[MetricDef] = &[
    def("lake.scan_warm_ms", "ms"),
    def("lake.sketch_descriptors_ms", "ms"),
    def("lake.tables_loaded", "count"),
    def("lake.mtc_hit_share", "share"),
    def("lake.sketch_hit_share", "share"),
    def("lake.is_stale_ms", "ms"),
    def("lake.rescan_ms", "ms"),
    def("discovery.index_ms", "ms"),
    def("discovery.candidates_ms", "ms"),
    def("discovery.candidates", "count"),
    def("profile.evaluate_all_ms", "ms"),
    def("session.prepare_ms", "ms"),
    def("session.prepare_unattributed_ms", "ms"),
    def("core.search_ms", "ms"),
    def("core.query_build_ms", "ms"),
    def("core.queries", "count"),
    def("core.clusters", "count"),
    def("tasks.utility_p50_ms", "ms"),
    def("tasks.utility_tail_ms", "ms"),
    def("tasks.utility_calls", "count"),
    def("tasks.utility_share", "share"),
    def("serve.handler_ms", "ms"),
    def("serve.overhead_ms", "ms"),
    def("serve.scan_ms", "ms"),
    def("serve.rejected", "count"),
    def("bench.trace_overhead_share", "share"),
    def("bench.unattributed_share", "share"),
];

fn required(name: &str, value: Option<f64>) -> Res<f64> {
    value.ok_or_else(|| format!("no samples for {name}"))
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Res<Vec<(&'static str, f64)>> {
    let tail = stats::tail(&m.discover_ms).ok_or("no discover completed")?;
    Ok(vec![
        ("setup_s", required("setup_s", median(&m.setup_s))?),
        (
            "discover_p50_ms",
            required("discover_p50_ms", median(&m.discover_ms))?,
        ),
        ("discover_tail_ms", tail.value),
        ("discovers_per_s", m.discovers_ok as f64 / m.timed_s),
        ("peak_rss_mb", m.peak_rss_mb),
    ])
}

fn span_p50(rec: &Recorder, name: &str) -> Res<f64> {
    required(name, median(&rec.durations_ms(name)))
}

fn sample_p50(rec: &Recorder, name: &str) -> Res<f64> {
    required(name, median(rec.samples(name)))
}

fn sum(rec: &Recorder, name: &str) -> f64 {
    // A fold from +0.0: `Iterator::sum` of no floats is -0.0.
    rec.samples(name).iter().fold(0.0, |a, b| a + b)
}

/// `num / den`, or 0 when nothing was counted.
fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run.
pub fn per_layer(m: &Measured) -> Res<Vec<(&'static str, f64)>> {
    let rec = &m.rec;
    let search_total: f64 = rec.durations_ms("core.search").iter().sum();
    let utility_tail = stats::tail(rec.samples("tasks.utility_ms")).ok_or("no task calls")?;
    let (op_self, op_total) = rec.spans_named("op").fold((0.0, 0.0), |(s, t), span| {
        (s + span.ms() - rec.children_ms(span.id), t + span.ms())
    });
    let loaded = sum(rec, "lake.tables_loaded");
    let sketches = sum(rec, "lake.sketch_hits") + sum(rec, "lake.sketch_misses");
    Ok(vec![
        ("lake.scan_warm_ms", span_p50(rec, "lake.scan_warm")?),
        (
            "lake.sketch_descriptors_ms",
            span_p50(rec, "lake.sketch_descriptors")?,
        ),
        ("lake.tables_loaded", sample_p50(rec, "lake.tables_loaded")?),
        (
            "lake.mtc_hit_share",
            share(sum(rec, "lake.mtc_hits"), loaded),
        ),
        (
            "lake.sketch_hit_share",
            share(sum(rec, "lake.sketch_hits"), sketches),
        ),
        ("lake.is_stale_ms", span_p50(rec, "lake.is_stale")?),
        ("lake.rescan_ms", span_p50(rec, "lake.rescan")?),
        ("discovery.index_ms", span_p50(rec, "discovery.index")?),
        (
            "discovery.candidates_ms",
            span_p50(rec, "discovery.candidates")?,
        ),
        (
            "discovery.candidates",
            sample_p50(rec, "discovery.candidates")?,
        ),
        (
            "profile.evaluate_all_ms",
            span_p50(rec, "profile.evaluate_all")?,
        ),
        ("session.prepare_ms", span_p50(rec, "session.prepare")?),
        (
            "session.prepare_unattributed_ms",
            sample_p50(rec, "session.prepare_unattributed_ms")?,
        ),
        ("core.search_ms", span_p50(rec, "core.search")?),
        (
            "core.query_build_ms",
            sample_p50(rec, "core.query_build_ms")?,
        ),
        ("core.queries", sample_p50(rec, "core.queries")?),
        ("core.clusters", sample_p50(rec, "core.clusters")?),
        ("tasks.utility_p50_ms", sample_p50(rec, "tasks.utility_ms")?),
        ("tasks.utility_tail_ms", utility_tail.value),
        (
            "tasks.utility_calls",
            sample_p50(rec, "tasks.utility_calls")?,
        ),
        (
            "tasks.utility_share",
            share(sum(rec, "tasks.utility_op_ms"), search_total),
        ),
        ("serve.handler_ms", sample_p50(rec, "serve.handler_ms")?),
        ("serve.overhead_ms", sample_p50(rec, "serve.overhead_ms")?),
        (
            "serve.scan_ms",
            required("serve.scan_ms", median(&m.scan_ms))?,
        ),
        ("serve.rejected", sum(rec, "serve.rejected")),
        (
            "bench.trace_overhead_share",
            sample_p50(rec, "op.traced_ms")? / sample_p50(rec, "op.untraced_ms")? - 1.0,
        ),
        ("bench.unattributed_share", share(op_self, op_total)),
    ])
}

/// The result line: `correct`, `attempted`, `failed` and every metric in
/// `defs` (no more, no fewer) with its unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
) -> Res<String> {
    if values.len() != defs.len() {
        return Err(format!(
            "{} metric values for {} metrics",
            values.len(),
            defs.len()
        ));
    }
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, d) in defs.iter().enumerate() {
        let value = values
            .iter()
            .find(|(name, _)| *name == d.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        let sep = if i > 0 { "," } else { "" };
        // Writing into a String cannot fail.
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lakes::Workload;
    use metam::obs::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Arr(items)) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        entries(doc, key)
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn defs(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names_and_units(&doc, "end_to_end"), defs(END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), defs(PER_LAYER));
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_prints_exactly_the_defined_metrics() {
        let values: Vec<(&'static str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, i as f64 + 0.5))
            .collect();
        let line = result_line(true, 3, 0, END_TO_END, &values).expect("complete");
        let parsed = json::parse(&line).expect("result line parses");
        let Some(Value::Obj(metrics)) = parsed.get("metrics") else {
            panic!("no metrics object");
        };
        let printed: Vec<&String> = metrics.keys().collect();
        let mut expected: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        expected.sort();
        assert_eq!(printed, expected.iter().collect::<Vec<_>>());
        assert!(result_line(true, 3, 0, END_TO_END, &values[1..]).is_err());
        let mut nan = values.clone();
        nan[0].1 = f64::NAN;
        assert!(result_line(true, 3, 0, END_TO_END, &nan).is_err());
    }
}
