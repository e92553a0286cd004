//! Baseline-vs-fresh comparison of smoke documents (the logic behind the
//! `bench_compare` binary, kept in the library so the tolerance rules are
//! unit-tested).
//!
//! Rows are matched by `(table id, series, parameter, metric)`. Timing
//! metrics (`µs` in the metric name) are regression-checked against a
//! threshold. Every other row is a deterministic count (accesses,
//! evictions, shard copies, wire calls, ...): any change of one is a
//! semantic diff, reported on its own, never as a perf regression.
//!
//! A row present on one side only is reported with the side that carries
//! it. For a count row that is a failure like a changed value: the harness
//! emits its count rows deterministically, so a count row the baseline
//! lacks (a new series) or the fresh run lacks (a deleted one) means the
//! baseline no longer describes the harness, and a change that adds or
//! removes rows updates the baseline with them. A one-sided timing row is
//! only a warning.

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

/// Which document of a comparison carries a row the other lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Only the baseline carries the row: the fresh run no longer emits it.
    Baseline,
    /// Only the fresh run carries the row: the baseline predates it.
    Fresh,
}

/// Outcome of a comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompareReport {
    /// Timing rows present on both sides.
    pub compared: usize,
    /// Timing rows whose fresh value exceeded `threshold ×` the baseline.
    pub regressions: Vec<RowChange>,
    /// Timing rows present on one side only.
    pub one_sided_timings: Vec<(RowKey, Side)>,
    /// Count (non-timing) rows present on both sides.
    pub counts_compared: usize,
    /// Count rows whose fresh value differs from the baseline's.
    pub changed_counts: Vec<RowChange>,
    /// Count rows present on one side only.
    pub one_sided_counts: Vec<(RowKey, Side)>,
}

/// Whether `key` names a timing row.
fn is_timing(key: &RowKey) -> bool {
    key.3.contains("µs")
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
/// by more than `threshold ×`, count rows that changed, and rows present on
/// one side only. Sub-microsecond timing baselines are noise floors and
/// never flagged.
pub fn compare_rows(baseline: &[SmokeRow], fresh: &[SmokeRow], threshold: f64) -> CompareReport {
    let baseline = index(baseline);
    let fresh = index(fresh);
    let mut report = CompareReport::default();
    let mut one_sided = |key: &RowKey, side| {
        let list = if is_timing(key) {
            &mut report.one_sided_timings
        } else {
            &mut report.one_sided_counts
        };
        list.push((key.clone(), side));
    };
    for key in fresh.keys().filter(|key| !baseline.contains_key(*key)) {
        one_sided(key, Side::Fresh);
    }
    for (key, base_value) in &baseline {
        let Some(new_value) = fresh.get(key) else {
            one_sided(key, Side::Baseline);
            continue;
        };
        let change = RowChange {
            key: key.clone(),
            baseline: *base_value,
            fresh: *new_value,
        };
        if !is_timing(key) {
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
    fn one_sided_rows_fail_on_counts_and_warn_on_timings() {
        // The fresh run carries a series the baseline predates, and the
        // baseline a series the fresh run no longer emits. Their count rows
        // are one-sided counts (a failure) and their timing rows one-sided
        // timings (a warning), each with the side that carries it; neither
        // is a change or a regression.
        let exhaustive = "E5 federation (exhaustive)";
        let eager = "E5 federation (ltr-guided, eager)";
        let key = |series: &str, metric: &str| {
            (
                "F1".to_string(),
                series.to_string(),
                "4".to_string(),
                metric.to_string(),
            )
        };
        let baseline = vec![
            row("E1", "CQ", "1", "median µs", 10.0),
            row("F1", eager, "4", "wall µs/access", 2500.0),
            row("F1", eager, "4", "accesses", 24.0),
        ];
        let fresh = vec![
            row("E1", "CQ", "1", "median µs", 11.0),
            row("F1", exhaustive, "4", "wall µs/access", 120.0),
            row("F1", exhaustive, "4", "mean batch", 3.5),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!((report.compared, report.counts_compared), (1, 0));
        assert!(report.regressions.is_empty());
        assert!(report.changed_counts.is_empty());
        assert_eq!(
            report.one_sided_counts,
            vec![
                (key(exhaustive, "mean batch"), Side::Fresh),
                (key(eager, "accesses"), Side::Baseline),
            ]
        );
        assert_eq!(
            report.one_sided_timings,
            vec![
                (key(exhaustive, "wall µs/access"), Side::Fresh),
                (key(eager, "wall µs/access"), Side::Baseline),
            ]
        );
        // Swapping the documents swaps the sides.
        let report = compare_rows(&fresh, &baseline, 2.0);
        assert_eq!(
            report.one_sided_counts,
            vec![
                (key(eager, "accesses"), Side::Fresh),
                (key(exhaustive, "mean batch"), Side::Baseline),
            ]
        );
    }

    #[test]
    fn serving_counters_are_not_timing_rows() {
        // Of F3's rows only the timing rows are regression-checked; a wire
        // call count that moves is a changed count.
        let serving = "E5 serving (exhaustive, dedup)";
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
    fn store_counters_are_not_timing_rows() {
        // S1's timing rows are regression-checked; shard-copy counter rows
        // never are.
        let exhaustive = "E5 federation (exhaustive)";
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
    fn chaos_counters_are_not_timing_rows() {
        // Within F4 only the wall-time row is a timing row: `answers
        // unchanged`, the failover rate and the breaker ledger are semantic
        // counters, never perf regressions.
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
    fn invalidation_counters_are_not_timing_rows() {
        // `re-checks/round` and `evictions` are semantic counters; only the
        // invalidation series' wall-time rows are regression-checked, and a
        // counter jump is a semantic diff, not perf.
        let exact = "E5 federation (invalidation, exact)";
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
            row("E1", "CQ", "1", "median µs", 10.0),
        ];
        let fresh = vec![
            row("F3", "E5 serving", "4", "p50 session µs", 150.0),
            row("F2", "E5 async", "4", "virtual µs/access", 61.0),
            row("E1", "CQ", "1", "median µs", 15.0),
        ];
        let report = compare_rows(&baseline, &fresh, 2.0);
        assert_eq!((report.compared, report.counts_compared), (3, 0));
        assert!(report.regressions.is_empty());
        assert!(report.changed_counts.is_empty());
    }
}
