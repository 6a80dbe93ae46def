//! The metric catalogue and the benchmark's output: a table of every metric
//! with unit and sample count, then one JSON line.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), name and unit. Every workload reports
/// each of them; see `BENCHMARK.json` for the definitions.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("vs_hierholzer", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), name and unit. A layer a workload does
/// not run reads 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("load.open_s", "s"),
    ("load.file_bytes", "B"),
    ("partition.stream_s", "s"),
    ("partition.cut_frac", "fraction"),
    ("partition.imbalance", "ratio"),
    ("view.build_s", "s"),
    ("view.states_s", "s"),
    ("plan.meta_s", "s"),
    ("plan.tree_s", "s"),
    ("plan.supersteps", "count"),
    ("walk.l0_s", "s"),
    ("walk.l1_s", "s"),
    ("walk.l2_s", "s"),
    ("walk.l3_s", "s"),
    ("walk.s", "s"),
    ("phase1.complexity", "count"),
    ("phase1.paths", "count"),
    ("phase1.cycles", "count"),
    ("phase1.splice_lookups", "count"),
    ("phase1.splice_linked", "count"),
    ("phase1.materialized_longs", "Longs"),
    ("phase1.cpu_s", "s"),
    ("phase2.transfer_longs", "Longs"),
    ("phase2.cpu_s", "s"),
    ("store.disk_longs", "Longs"),
    ("store.peak_resident_longs", "Longs"),
    ("store.spilled_fragments", "count"),
    ("store.spill_write_longs", "Longs"),
    ("store.spill_read_longs", "Longs"),
    ("store.reread_ratio", "ratio"),
    ("store.spill_errors", "count"),
    ("wstream.pass_s", "s"),
    ("wstream.peak_resident_longs", "Longs"),
    ("wstream.open_chain_flushes", "count"),
    ("wstream.residual_frac", "fraction"),
    ("phase3.unroll_s", "s"),
    ("phase3.circuits", "count"),
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("wire.send_s", "s"),
    ("wire.recv_wait_s", "s"),
    ("wire.recv_timeouts", "count"),
    ("wire.useful_recv_frac", "fraction"),
    ("req_miss_p50_s", "s"),
    ("req_hit_p50_s", "s"),
    ("req_per_s", "1/s"),
    ("svc.queue_s", "s"),
    ("svc.compute_s", "s"),
    ("svc.stream_s", "s"),
    ("svc.chunks", "count/req"),
    ("svc.bytes", "B/req"),
    ("svc.cache_hit_frac", "fraction"),
    ("svc.peak_admitted_longs", "Longs"),
    ("svc.req_tail_s", "s"),
    ("svc.req_tail_pct", "percentile"),
    ("baseline.hierholzer_s", "s"),
    ("mem.model_peak_longs", "Longs"),
    ("mem.rss_per_model_long", "B/Long"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "ratio"),
    ("mem.peak_rss_mb", "MiB"),
    ("failed_frac", "fraction"),
];

/// One reported value: the number, its unit and how many samples it
/// summarises (1 for a single reading, 0 for a layer that did not run).
#[derive(Clone, Debug, PartialEq)]
pub struct Reported {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// The table lines and the final JSON line of a run.
pub fn render(metrics: &[Reported], correct: bool, attempted: u64, failed: u64) -> String {
    let mut out = String::new();
    for m in metrics {
        let how = match m.n {
            0 => "absent".to_string(),
            1 => "single".to_string(),
            n => format!("median of {n}"),
        };
        let _ = writeln!(
            out,
            "  {:<28} {:>16.6} {:<11} {how}",
            m.name, m.value, m.unit
        );
    }
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn last_line_is_the_json_object() {
        let m = vec![Reported {
            name: "wall_s".into(),
            unit: "s".into(),
            value: 0.25,
            n: 9,
        }];
        let text = render(&m, true, 10, 0);
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    use crate::workload::WORKLOADS;
    use euler_metrics::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("valid JSON")
    }

    fn metrics(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn manifest_matches_the_catalogue() {
        let m = manifest();
        assert_eq!(metrics(&m, "end_to_end"), owned(&END_TO_END));
        assert_eq!(metrics(&m, "per_layer"), owned(&PER_LAYER));
        let names: Vec<&str> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(
            names,
            WORKLOADS.iter().map(|w| w.name()).collect::<Vec<_>>()
        );
        let setup_bound = m
            .get("end_to_end")
            .and_then(Value::as_arr)
            .and_then(|l| {
                l.iter()
                    .find(|e| e.get("name").and_then(Value::as_str) == Some("setup_s"))
            })
            .and_then(|e| e.get("bound"))
            .and_then(Value::as_f64)
            .expect("setup_s bound");
        for e in m.get("end_to_end").and_then(Value::as_arr).unwrap() {
            assert!(e.get("bound").and_then(Value::as_f64).unwrap() <= setup_bound);
        }
    }
}
