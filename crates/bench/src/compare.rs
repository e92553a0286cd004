//! Baseline-vs-fresh comparison of smoke documents (the logic behind the
//! `bench_compare` binary, kept in the library so the tolerance rules are
//! unit-tested).
//!
//! Rows are matched by `(table id, series, parameter, metric)`. Rows present
//! on only one side are ignored — experiments grow over time, so a fresh
//! document with new tables (e.g. the `F1` federation sweep, the `F2` async
//! sweep, or the `F3` multi-tenant serving sweep) still compares cleanly
//! against a baseline that predates those keys. Timing metrics (`µs` in the
//! metric name) are regression-checked against a threshold. Every other row
//! is a deterministic count (accesses, evictions, shard copies, wire
//! calls, ...): any change of one present on both sides is a semantic diff,
//! reported on its own, never as a perf regression.

use std::collections::BTreeMap;

use crate::smoke::SmokeRow;

/// Row key: (table id, series, parameter, metric).
pub type RowKey = (String, String, String, String);

/// A row whose fresh value differs from its baseline: a timing row over the
/// threshold, or a count row that changed at all.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    /// The matched row key.
    pub key: RowKey,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
}

impl RowChange {
    /// `fresh / baseline`.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }
}

/// Outcome of a comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompareReport {
    /// Timing rows present on both sides.
    pub compared: usize,
    /// Timing rows whose fresh value exceeded `threshold ×` the baseline.
    pub regressions: Vec<RowChange>,
    /// Count (non-timing) rows present on both sides.
    pub counts_compared: usize,
    /// Count rows whose fresh value differs from the baseline's.
    pub changed_counts: Vec<RowChange>,
}

fn index(rows: &[SmokeRow]) -> BTreeMap<RowKey, f64> {
    rows.iter()
        .filter_map(|r| {
            r.value.map(|v| {
                (
                    (
                        r.table.clone(),
                        r.series.clone(),
                        r.parameter.clone(),
                        r.metric.clone(),
                    ),
                    v,
                )
            })
        })
        .collect()
}

/// Compares `fresh` against `baseline`, flagging timing rows that regressed
/// by more than `threshold ×` and count rows that changed. Sub-microsecond
/// timing baselines are noise floors and never flagged.
pub fn compare_rows(baseline: &[SmokeRow], fresh: &[SmokeRow], threshold: f64) -> CompareReport {
    let baseline = index(baseline);
    let fresh = index(fresh);
    let mut report = CompareReport::default();
    for (key, base_value) in &baseline {
        let Some(new_value) = fresh.get(key) else {
            continue;
        };
        let change = RowChange {
            key: key.clone(),
            baseline: *base_value,
            fresh: *new_value,
        };
        if !key.3.contains("µs") {
            report.counts_compared += 1;
            if new_value != base_value {
                report.changed_counts.push(change);
            }
            continue;
        }
        report.compared += 1;
        let floor = 1.0f64;
        if *base_value > floor && *new_value > threshold * base_value {
            report.regressions.push(change);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(table: &str, series: &str, parameter: &str, metric: &str, value: f64) -> SmokeRow {
        SmokeRow {
            table: table.to_string(),
            series: series.to_string(),
            parameter: parameter.to_string(),
            metric: metric.to_string(),
            value: Some(value),
        }
    }

    #[test]
    fn flags_timing_regressions_over_threshold() {
        let baseline = vec![
            row("E1", "CQ", "1", "median µs", 10.0),
            row("E1", "CQ", "2", "median µs", 10.0),
        ];
        let fresh = vec![
            row("E1", "CQ", "1", "median µs", 15.0),
            row("E1", "CQ", "2", "median µs", 25.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!(report.compared, 2);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key.1, "CQ");
        assert_eq!(report.regressions[0].key.2, "2");
        assert!((report.regressions[0].ratio() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn tolerates_baselines_predating_new_keys() {
        // The baseline predates the F1 federation sweep and the F2 async
        // sweep; their rows must be ignored rather than failing the
        // comparison.
        let baseline = vec![row("E1", "CQ", "1", "median µs", 10.0)];
        let fresh = vec![
            row("E1", "CQ", "1", "median µs", 11.0),
            row("F1", "E5 federation (exhaustive)", "4", "µs/access", 120.0),
            row("F1", "E5 federation (exhaustive)", "4", "mean batch", 3.5),
            row("F1", "IR sweep", "2", "sweep µs", 900.0),
            row(
                "F2",
                "E5 async federation (exhaustive)",
                "4",
                "virtual µs/access",
                60.0,
            ),
            row(
                "F2",
                "E5 async federation (exhaustive)",
                "4",
                "wall µs/access",
                9.0,
            ),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());
        // And symmetrically: a baseline row the fresh run dropped is skipped.
        let report = compare_rows(&fresh, &baseline, 2.0);
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn tolerates_baselines_predating_the_serving_sweep() {
        // A baseline recorded before the F3 multi-tenant serving table
        // existed: every F3 row is one-sided and must be skipped, while the
        // shared E-rows still compare.
        let serving = "E5 serving (exhaustive, dedup)";
        let baseline = vec![row("E1", "CQ", "1", "median µs", 10.0)];
        let fresh = vec![
            row("E1", "CQ", "1", "median µs", 12.0),
            row("F3", serving, "4", "virtual µs/access", 40.0),
            row("F3", serving, "4", "p50 session µs", 800.0),
            row("F3", serving, "4", "p95 session µs", 950.0),
            row("F3", serving, "4", "wire calls", 12.0),
            row("F3", serving, "4", "session calls", 48.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());

        // Once both sides carry F3, its timing rows (and only those) are
        // regression-checked like any other table's.
        let aged = vec![
            row("F3", serving, "4", "p95 session µs", 100.0),
            row("F3", serving, "4", "wire calls", 12.0),
        ];
        let regressed = vec![
            row("F3", serving, "4", "p95 session µs", 500.0),
            row("F3", serving, "4", "wire calls", 48.0),
        ];
        let report = compare_rows(&aged, &regressed, 2.0);
        assert_eq!(report.compared, 1, "counter rows are not timing rows");
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key.3, "p95 session µs");
        assert_eq!(report.counts_compared, 1);
        assert_eq!(report.changed_counts.len(), 1);
        assert_eq!(report.changed_counts[0].key.3, "wire calls");
    }

    #[test]
    fn tolerates_baselines_predating_the_store_ops_table() {
        // A baseline recorded before the S1 store table existed: every S1
        // row is one-sided and must be skipped, while shared rows still
        // compare.
        let exhaustive = "E5 federation (exhaustive)";
        let baseline = vec![row("E1", "CQ", "1", "median µs", 10.0)];
        let fresh = vec![
            row("E1", "CQ", "1", "median µs", 12.0),
            row("S1", "snapshot clone", "100000", "median µs", 0.3),
            row("S1", "clone then insert", "100000", "median µs", 4000.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());

        // Once both sides carry S1, its timing rows are regression-checked;
        // shard-copy counter rows never are.
        let aged = vec![
            row("S1", "clone then insert", "1000000", "median µs", 8.0),
            row("F1", exhaustive, "4", "shard copies", 0.0),
        ];
        let regressed = vec![
            row("S1", "clone then insert", "1000000", "median µs", 80.0),
            row("F1", exhaustive, "4", "shard copies", 3.0),
        ];
        let report = compare_rows(&aged, &regressed, 2.0);
        assert_eq!(report.compared, 1, "counter rows are not timing rows");
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key.3, "median µs");
    }

    #[test]
    fn tolerates_baselines_predating_the_chaos_sweep() {
        // A baseline recorded before the F4 chaos sweep existed: every F4
        // row is one-sided and must be skipped, while shared rows still
        // compare. Within F4 only the wall-time row is ever a timing row —
        // `answers unchanged`, the failover rate and the breaker ledger are
        // semantic counters, never perf regressions.
        let baseline = vec![row("E1", "CQ", "1", "median µs", 10.0)];
        let fresh = vec![
            row("E1", "CQ", "1", "median µs", 12.0),
            row("F4", "killed primary", "10000", "answers unchanged", 1.0),
            row("F4", "killed primary", "10000", "failover rate", 0.6),
            row("F4", "killed primary", "10000", "dead skips", 14.0),
            row("F4", "flaky primary", "10000", "breaker trips", 1.0),
            row("F4", "flaky primary", "10000", "wall µs/access", 85.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());

        // Once both sides carry F4, its wall-time row (and only that row)
        // is regression-checked.
        let aged = vec![
            row("F4", "flaky primary", "10000", "wall µs/access", 40.0),
            row("F4", "flaky primary", "10000", "breaker trips", 1.0),
        ];
        let regressed = vec![
            row("F4", "flaky primary", "10000", "wall µs/access", 400.0),
            row("F4", "flaky primary", "10000", "breaker trips", 9.0),
        ];
        let report = compare_rows(&aged, &regressed, 2.0);
        assert_eq!(report.compared, 1, "counter rows are not timing rows");
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key.3, "wall µs/access");
    }

    #[test]
    fn tolerates_baselines_predating_the_invalidation_series() {
        // A baseline recorded before the F1 invalidation series existed:
        // its rows are one-sided and must be skipped, while shared rows
        // still compare. `re-checks/round` and `evictions` are semantic
        // counters — they are never timing-regression-checked; only the
        // series' wall-time row is.
        let exact = "E5 federation (invalidation, exact)";
        let relation = "E5 federation (invalidation, relation-level)";
        let baseline = vec![row("E1", "CQ", "1", "median µs", 10.0)];
        let fresh = vec![
            row("E1", "CQ", "1", "median µs", 11.0),
            row("F1", exact, "4", "re-checks/round", 90.0),
            row("F1", exact, "4", "evictions", 120.0),
            row("F1", exact, "4", "wall µs/access", 150.0),
            row("F1", relation, "4", "re-checks/round", 115.0),
            row("F1", relation, "4", "evictions", 180.0),
            row("F1", relation, "4", "wall µs/access", 140.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());

        // Once both sides carry the series, only its wall-time rows are
        // regression-checked; a counter jump is a semantic diff, not perf.
        let aged = vec![
            row("F1", exact, "4", "wall µs/access", 100.0),
            row("F1", exact, "4", "re-checks/round", 90.0),
        ];
        let regressed = vec![
            row("F1", exact, "4", "wall µs/access", 500.0),
            row("F1", exact, "4", "re-checks/round", 300.0),
        ];
        let report = compare_rows(&aged, &regressed, 2.0);
        assert_eq!(report.compared, 1, "counter rows are not timing rows");
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key.3, "wall µs/access");
    }

    #[test]
    fn counters_and_noise_floors_are_not_regressions() {
        let baseline = vec![
            row("E5", "configuration facts", "10", "count", 10.0),
            row("E1", "CQ", "1", "median µs", 0.4),
        ];
        let fresh = vec![
            row("E5", "configuration facts", "10", "count", 99.0),
            row("E1", "CQ", "1", "median µs", 40.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        // The count row is not a timing row; the 0.4µs baseline is below the
        // noise floor.
        assert_eq!(report.compared, 1);
        assert!(report.regressions.is_empty());
        // The count row's change is reported as a changed count instead.
        assert_eq!(report.counts_compared, 1);
        assert_eq!(
            report.changed_counts,
            vec![RowChange {
                key: (
                    "E5".to_string(),
                    "configuration facts".to_string(),
                    "10".to_string(),
                    "count".to_string()
                ),
                baseline: 10.0,
                fresh: 99.0,
            }]
        );
    }

    #[test]
    fn only_count_rows_that_differ_are_changed_counts() {
        let baseline = vec![
            row("F1", "E5 federation (exhaustive)", "4", "shard copies", 0.0),
            row("F1", "E5 federation (exhaustive)", "4", "accesses", 48.0),
            row("F1", "E5 federation (exhaustive)", "4", "mean batch", 7.3),
            row("F1", "E5 federation (exhaustive)", "4", "µs/access", 10.0),
        ];
        let fresh = vec![
            row("F1", "E5 federation (exhaustive)", "4", "shard copies", 4.0),
            row("F1", "E5 federation (exhaustive)", "4", "accesses", 48.0),
            row("F1", "E5 federation (exhaustive)", "4", "mean batch", 7.3),
            row("F1", "E5 federation (exhaustive)", "4", "µs/access", 19.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!((report.compared, report.counts_compared), (1, 3));
        assert!(report.regressions.is_empty(), "1.9x is under the threshold");
        assert_eq!(report.changed_counts.len(), 1);
        let change = &report.changed_counts[0];
        assert_eq!(change.key.3, "shard copies");
        assert_eq!((change.baseline, change.fresh), (0.0, 4.0));
    }

    #[test]
    fn a_timing_change_is_never_a_changed_count() {
        // Any metric naming µs is a timing, however it is spelled, and a
        // timing that moves under the threshold is not reported at all.
        let baseline = vec![
            row("F3", "E5 serving", "4", "p50 session µs", 100.0),
            row("F2", "E5 async", "4", "virtual µs/access", 60.0),
            row("F1", "IR sweep", "2", "sweep µs", 900.0),
        ];
        let fresh = vec![
            row("F3", "E5 serving", "4", "p50 session µs", 150.0),
            row("F2", "E5 async", "4", "virtual µs/access", 61.0),
            row("F1", "IR sweep", "2", "sweep µs", 1000.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!((report.compared, report.counts_compared), (3, 0));
        assert!(report.regressions.is_empty());
        assert!(report.changed_counts.is_empty());
    }

    #[test]
    fn one_sided_count_rows_are_not_changes() {
        // A count row only one side carries (a new series, or one the fresh
        // run dropped) is skipped, like a one-sided timing row.
        let baseline = vec![
            row(
                "F1",
                "E5 federation (ltr-guided, eager)",
                "8",
                "accesses",
                13.0,
            ),
            row("F1", "E5 federation (exhaustive)", "4", "accesses", 48.0),
        ];
        let fresh = vec![
            row("F1", "E5 federation (exhaustive)", "4", "accesses", 48.0),
            row(
                "F1",
                "E5 federation (invalidation, precise)",
                "4",
                "evictions",
                3442.0,
            ),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!(report.counts_compared, 1);
        assert!(report.changed_counts.is_empty());
    }
}
