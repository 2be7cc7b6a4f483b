//! Metric names, units and the result line.
//!
//! The names here are the benchmark's contract: later performance claims
//! cite one metric and one workload by these names.

use std::fmt::Write as _;

/// End-to-end metrics, reported by the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("windows_per_s", "windows/s"),
    ("window_p50_us", "us"),
    ("window_p99_us", "us"),
    ("setup_s", "s"),
    ("rss_bytes_per_home", "bytes"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("fleet.frame.encode_ns_per_frame", "ns"),
    ("fleet.frame.decode_ns_per_frame", "ns"),
    ("fleet.frame.bytes_per_frame", "bytes"),
    ("fleet.service.send_ns_per_frame", "ns"),
    ("fleet.service.backpressure_wait_share", "ratio"),
    ("fleet.shard.ns_per_window", "ns"),
    ("fleet.shard.allocs_per_window", "count"),
    ("fleet.shard.scans_per_window", "count"),
    ("fleet.residual_pct", "%"),
    ("gateway.decode_ns_per_frame", "ns"),
    ("gateway.loop_ns_per_window", "ns"),
    ("gateway.allocs_per_window", "count"),
    ("core.engine.ns_per_window", "ns"),
    ("core.engine.allocs_per_window", "count"),
    ("core.binarize.ns_per_window", "ns"),
    ("core.binarize.events_per_window", "count"),
    ("core.groups.lookup_ns_per_window", "ns"),
    ("core.scan.ns_per_query", "ns"),
    ("core.scan.queries_per_window", "count"),
    ("core.scan.rows_per_query", "count"),
    ("core.engine.rest_ns_per_window", "ns"),
    ("core.engine.identifying_share", "ratio"),
    ("core.train_par.ns_per_window", "ns"),
    ("core.model_io.bytes", "bytes"),
    ("core.model_io.read_ms", "ms"),
    ("core.scan.build_ms", "ms"),
    ("verify.verify_model_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// Collects metrics by name, taking the unit from the tables above.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name = value` over `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table: metric names are fixed.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// The metrics named in `table`, in table order; `None` if any is
    /// missing or not a finite number.
    pub fn select(&self, table: &[(&str, &str)]) -> Option<Vec<Metric>> {
        table
            .iter()
            .map(|(name, _)| self.get(name).filter(|m| m.value.is_finite()).cloned())
            .collect()
    }
}

/// Renders the one-line result object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Reads `"name": {"value": <number>` back out of a result line.
pub fn parse_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_values() {
        let mut m = Metrics::default();
        m.put("windows_per_s", 1234.5678, 3);
        m.put("setup_s", 0.25, 5);
        let line = result_line(true, 10, 0, &m.0);
        assert_eq!(parse_value(&line, "windows_per_s"), Some(1234.5678));
        assert_eq!(parse_value(&line, "setup_s"), Some(0.25));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
