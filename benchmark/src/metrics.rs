//! Metric names and units, percentiles, and the result line.

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["dense-probe", "flood-chain", "serve-exhaustive"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("wall_us_per_access", "us"),
    ("accesses_per_run", "count"),
    ("wire_calls_per_session", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Counts and times are
/// means per operation (one engine run, or one `serve` call); a layer a
/// workload never enters reads 0. Times are raw wall times; `host.kernel_ms`
/// is the calibration kernel's median time during the pass, to compare
/// passes made on a host running at different speeds.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("trace.ops", "count"),
    ("host.kernel_ms", "ms"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("engine.run.fixed_ms", "ms/op"),
    ("engine.pool.busy_ms", "ms/op"),
    ("query.certain.calls", "count/op"),
    ("query.certain.busy_ms", "ms/op"),
    ("query.answers.busy_ms", "ms/op"),
    ("core.precheck.busy_ms", "ms/op"),
    ("core.precheck.share", "share"),
    ("core.ir.calls", "count/op"),
    ("core.ir.busy_ms", "ms/op"),
    ("core.ir.relevant_share", "share"),
    ("core.ltr.calls", "count/op"),
    ("core.ltr.busy_ms", "ms/op"),
    ("core.ltr.relevant_share", "share"),
    ("engine.relevance.select.calls", "count/op"),
    ("engine.relevance.select.busy_ms", "ms/op"),
    ("engine.relevance.select.self_ms", "ms/op"),
    ("engine.relevance.select.hit_ratio", "share"),
    ("engine.relevance.tracking.reads", "count/op"),
    ("engine.relevance.tracking.overhead_ms", "ms/op"),
    ("engine.relevance.invalidate.calls", "count/op"),
    ("engine.relevance.invalidate.busy_ms", "ms/op"),
    ("engine.relevance.invalidate.events", "count/op"),
    ("engine.relevance.invalidate.evictions", "count/op"),
    ("schema.store.trail_ops", "count/op"),
    ("schema.store.shard_copies", "count/op"),
    ("access.frontier.calls", "count/op"),
    ("access.frontier.busy_ms", "ms/op"),
    ("access.frontier.candidates", "count/op"),
    ("access.response.calls", "count/op"),
    ("access.response.busy_ms", "ms/op"),
    ("access.response.facts_inserted", "count/op"),
    ("engine.source.calls", "count/op"),
    ("engine.source.busy_ms", "ms/op"),
    ("engine.source.tuples", "count/op"),
    ("federation.source.calls", "count/op"),
    ("federation.source.busy_ms", "ms/op"),
    ("federation.source.tuples", "count/op"),
    ("federation.serving.wire_calls", "count/op"),
    ("federation.serving.joined_calls", "count/op"),
    ("federation.serving.dedup_ratio", "share"),
    ("federation.serving.unattributed_ms", "ms/op"),
    ("federation.serving.session_virtual_ms_p50", "ms"),
    ("federation.serving.session_virtual_ms_p90", "ms"),
    ("engine.setup.busy_ms", "ms/op"),
    ("engine.run.wall_ms", "ms/op"),
];

/// Nearest-rank percentile: the smallest sample at 1-based sorted rank
/// `⌈p·n⌉`. `p` is in `0.0..=1.0`; an empty sample reads 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median of `samples` (lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The run's outcome: the checks and every reported metric.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// False when any check other than a per-run output comparison failed
    /// (the traced replay diverging from the engine).
    pub consistent: bool,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Fills in `names` from `values`; a name `values` lacks reads 0.
    pub fn pick(
        names: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        names
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, unit, value)
            })
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.consistent && self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn spec_names(section: &str) -> Vec<String> {
        let start = SPEC
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &SPEC[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 0.5), 5.0);
        assert_eq!(percentile(&samples, 0.9), 9.0);
        assert_eq!(percentile(&samples, 0.91), 10.0);
        assert_eq!(percentile(&samples, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Nearest rank never interpolates: an even count's median is the
        // lower middle sample.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    fn benchmark_json_names_match_the_emitted_metrics() {
        let names =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(
            spec_names("workloads"),
            WORKLOADS.map(String::from).to_vec()
        );
        assert_eq!(spec_names("end_to_end"), names(&END_TO_END));
        assert_eq!(spec_names("per_layer"), names(&PER_LAYER));
        let mut all: Vec<String> = spec_names("workloads");
        all.extend(names(&END_TO_END));
        all.extend(names(&PER_LAYER));
        for name in &all {
            assert!(
                valid_name(name),
                "metric name {name} is not [A-Za-z0-9_.-]+"
            );
        }
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn the_result_line_carries_every_metric_by_name_and_unit() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let outcome = Outcome {
                attempted: 3,
                failed: 0,
                consistent: true,
                metrics: Outcome::pick(table, &[(table[0].0, 1.5), (table[1].0, f64::NAN)]),
            };
            let line = outcome.to_json();
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
            ));
            for (name, unit) in table {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(line.contains("{\"value\": 1.5, "));
            assert!(!line.contains("NaN"));
        }
    }
}
