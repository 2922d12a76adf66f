//! The metric names the benchmark prints, with their units, and the
//! one-line JSON result. The lists mirror `BENCHMARK.json` (a test keeps
//! them in step).

use std::collections::BTreeMap;

/// A reported metric: name and unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("estimates_per_s", "1/s"),
    m("latency_p50_ms", "ms"),
    m("mape", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer that the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    // set-up, every workload
    m("data.generate_s", "s"),
    m("workload.label_s", "s"),
    m("core.fit_s", "s"),
    m("core.snapshot_save_ms", "ms"),
    m("core.snapshot_load_ms", "ms"),
    m("core.snapshot_bytes", "bytes"),
    m("tensor.plan_compile_ms", "ms"),
    // wave
    m("client.send_us", "us"),
    m("client.recv_wait_us", "us"),
    m("protocol.encode_us", "us"),
    m("protocol.decode_us", "us"),
    m("protocol.bytes_per_request", "bytes"),
    m("server.overhead_us", "us"),
    m("serve.queue_wait_us", "us"),
    m("serve.batch_rows", "rows"),
    m("serve.coalesce_us", "us"),
    m("serve.generation_bind_us", "us"),
    m("serve.reply_us", "us"),
    m("serve.plan_replay_us_per_row", "us"),
    m("tensor.network_us_per_row", "us"),
    // wave and curve
    m("index.indicator_us_per_row", "us"),
    m("index.parts_on_per_row", "count"),
    // curve
    m("core.predict_many_us", "us"),
    m("serve.inline_ratio", "ratio"),
    m("serve.cache_hit_ratio", "ratio"),
    // update
    m("workload.update_us_per_op", "us"),
    m("workload.updates_per_s", "1/s"),
    m("core.retrain_s", "s"),
    m("core.retrain_epochs", "count"),
    m("core.retrain_s_per_epoch", "s"),
    m("serve.publish_ms", "ms"),
    m("serve.reads_during_retrain", "count"),
    // every workload
    m("obs.trace_overhead", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line: exactly the metrics of `list`, each with its
/// unit. A metric missing from `values` reads 0.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[Metric],
    values: &Values,
) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|metric| {
            let v = values.get(metric.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(v),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// `v` with every digit Rust's shortest round-trip formatting keeps, in
/// a form JSON accepts.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric array of `BENCHMARK.json`,
    /// found by scanning its `"name"`/`"unit"` keys in order.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("array present");
        let rest = &json[start..];
        let body =
            &rest[rest.find('[').expect("array opens")..rest.find(']').expect("array closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let tail = &obj[at + f.len() + 2..];
            let open = tail.find('"').expect("value opens") + 1;
            let close = open + tail[open..].find('"').expect("value closes");
            tail[open..close].to_string()
        };
        body.split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = list
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(declared(&json, key), want, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut values = Values::new();
        values.insert("setup_s", 1.5);
        values.insert("mape", 2.0);
        let line = render(true, 10, 0, &END_TO_END[..2], &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"estimates_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
    }
}
