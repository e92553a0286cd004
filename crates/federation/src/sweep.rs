//! Parallel relevance sweeps.
//!
//! The relevance decision procedures are pure functions of
//! `(query, configuration, access, methods)`, so verdicts for a candidate
//! set can be computed on any number of threads with results identical to
//! the sequential order. [`parallel_relevance_sweep_report`] partitions the
//! candidates into contiguous chunks across `std::thread::scope` workers
//! and returns the verdict vector aligned with the input — the harness uses
//! it to measure relevance-check throughput across worker counts on the E5
//! configurations (10⁴ facts in smoke, 10⁶ in the full harness).
//!
//! Each worker operates on its **own O(relations) snapshot** of the
//! configuration ([`accrel_schema::Configuration::snapshot`]): with the
//! copy-on-write sharded store, snapshotting a million-fact configuration
//! per worker costs a handful of `Arc` bumps, and since the checks only
//! read, no worker ever triggers a shard copy —
//! [`SweepReport::worker_shard_copies`] stays zero, which the tests pin
//! down.

use accrel_access::{Access, AccessMethods};
use accrel_core::{is_immediately_relevant, is_long_term_relevant, SearchBudget};
use accrel_engine::{RelevanceKind, RunOptions};
use accrel_query::Query;
use accrel_schema::Configuration;

/// Applies `f` to every item, partitioned into contiguous chunks across at
/// most `workers` scoped threads. The result vector is aligned with `items`
/// — worker completion order never shows. Shared by the relevance sweep and
/// the threaded executor's fetch loop.
pub(crate) fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = RunOptions::clamp_workers(workers, items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (chunk_items, out) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (item, slot) in chunk_items.iter().zip(out) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot written by its worker"))
        .collect()
}

/// Outcome of a [`parallel_relevance_sweep_report`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// The relevance verdicts, aligned with the candidate slice.
    pub verdicts: Vec<bool>,
    /// Number of worker snapshots taken (one per spawned worker chunk).
    pub snapshots: usize,
    /// Copy-on-write shard copies performed across all worker snapshots.
    /// The sweep only reads, so this is zero — reported rather than assumed,
    /// and surfaced as a harness metric so structural sharing stays
    /// observable.
    pub worker_shard_copies: u64,
}

/// Computes the `kind` relevance verdict of every access in `candidates`
/// at `conf`, fanning the checks out over at most `workers` scoped threads,
/// each holding its own copy-on-write snapshot of `conf`. The verdicts are
/// aligned with `candidates` and independent of `workers`.
///
/// Worker-count edge cases are explicit: `workers == 0` is promoted to 1
/// (a sweep cannot run on no workers), and both 0 and 1 take the in-thread
/// sequential path — one snapshot, no spawned threads — whose output the
/// regression tests pin byte-for-byte against the direct decision-procedure
/// loop. An empty candidate slice returns an empty report without
/// snapshotting at all.
pub fn parallel_relevance_sweep_report(
    query: &Query,
    conf: &Configuration,
    candidates: &[Access],
    methods: &AccessMethods,
    kind: RelevanceKind,
    budget: &SearchBudget,
    workers: usize,
) -> SweepReport {
    if candidates.is_empty() {
        return SweepReport {
            verdicts: Vec::new(),
            snapshots: 0,
            worker_shard_copies: 0,
        };
    }
    // Force the query's cached UCQ expansion before fanning out, so worker
    // threads share it instead of racing to build it.
    let _ = query.ucq();
    // 0 workers is promoted to 1; never more workers than candidates. The
    // clamp is the engine-wide one, so every layer agrees on the edge cases.
    let workers = RunOptions::clamp_workers(workers, candidates.len());
    let chunks: Vec<&[Access]> = candidates
        .chunks(candidates.len().div_ceil(workers))
        .collect();
    let swept = parallel_map(&chunks, workers, |chunk| {
        // The snapshot is O(relations); the worker owns it outright.
        let snap = conf.snapshot();
        let before = snap.shard_copies();
        let verdicts: Vec<bool> = chunk
            .iter()
            .map(|access| match kind {
                RelevanceKind::Immediate => is_immediately_relevant(query, &snap, access, methods),
                RelevanceKind::LongTerm => {
                    is_long_term_relevant(query, &snap, access, methods, budget)
                }
            })
            .collect();
        (verdicts, snap.shard_copies() - before)
    });
    SweepReport {
        snapshots: swept.len(),
        worker_shard_copies: swept.iter().map(|(_, copies)| copies).sum(),
        verdicts: swept
            .into_iter()
            .flat_map(|(verdicts, _)| verdicts)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::enumerate::{well_formed_accesses, EnumerationOptions};
    use accrel_engine::scenarios::bank_scenario;

    #[test]
    fn sweep_results_are_worker_count_independent() {
        let scenario = bank_scenario();
        // Grow the configuration a little so several accesses exist.
        let mut conf = scenario.initial_configuration.clone();
        conf.insert_named("Employee", ["e-x", "teller", "L", "F", "off-9"])
            .unwrap();
        let candidates =
            well_formed_accesses(&conf, &scenario.methods, &EnumerationOptions::default());
        assert!(candidates.len() > 1);
        let budget = accrel_core::SearchBudget::default();
        let baseline = parallel_relevance_sweep_report(
            &scenario.query,
            &conf,
            &candidates,
            &scenario.methods,
            RelevanceKind::Immediate,
            &budget,
            1,
        )
        .verdicts;
        for workers in [2, 4, 7] {
            let parallel = parallel_relevance_sweep_report(
                &scenario.query,
                &conf,
                &candidates,
                &scenario.methods,
                RelevanceKind::Immediate,
                &budget,
                workers,
            )
            .verdicts;
            assert_eq!(parallel, baseline, "workers={workers}");
        }
        // The sequential procedures agree entry by entry.
        for (access, verdict) in candidates.iter().zip(&baseline) {
            assert_eq!(
                *verdict,
                accrel_core::is_immediately_relevant(
                    &scenario.query,
                    &conf,
                    access,
                    &scenario.methods
                )
            );
        }
    }

    /// Regression (worker-count edge cases): a 1-worker sweep — and a
    /// 0-worker sweep, which is promoted to 1 — must equal the plain
    /// sequential decision-procedure loop, verdict for verdict, and report
    /// exactly one snapshot with zero shard copies.
    #[test]
    fn zero_and_one_worker_sweeps_equal_the_sequential_loop() {
        let scenario = bank_scenario();
        let mut conf = scenario.initial_configuration.clone();
        conf.insert_named("Employee", ["e-x", "teller", "L", "F", "off-9"])
            .unwrap();
        let candidates =
            well_formed_accesses(&conf, &scenario.methods, &EnumerationOptions::default());
        assert!(candidates.len() > 1);
        let budget = accrel_core::SearchBudget::default();
        let sequential: Vec<bool> = candidates
            .iter()
            .map(|a| {
                accrel_core::is_immediately_relevant(&scenario.query, &conf, a, &scenario.methods)
            })
            .collect();
        for workers in [0usize, 1] {
            let report = parallel_relevance_sweep_report(
                &scenario.query,
                &conf,
                &candidates,
                &scenario.methods,
                RelevanceKind::Immediate,
                &budget,
                workers,
            );
            assert_eq!(report.verdicts, sequential, "workers={workers}");
            assert_eq!(report.snapshots, 1, "workers={workers}");
            assert_eq!(report.worker_shard_copies, 0, "workers={workers}");
        }
    }

    /// Regression: an empty candidate slice yields an empty report (no
    /// snapshot, no threads) at every worker count, including 0.
    #[test]
    fn empty_candidate_sweeps_are_empty_reports() {
        let scenario = bank_scenario();
        let budget = accrel_core::SearchBudget::shallow();
        for workers in [0usize, 1, 4] {
            let report = parallel_relevance_sweep_report(
                &scenario.query,
                &scenario.initial_configuration,
                &[],
                &scenario.methods,
                RelevanceKind::LongTerm,
                &budget,
                workers,
            );
            assert_eq!(
                report,
                SweepReport {
                    verdicts: Vec::new(),
                    snapshots: 0,
                    worker_shard_copies: 0
                },
                "workers={workers}"
            );
        }
    }

    #[test]
    fn long_term_sweep_runs() {
        let scenario = bank_scenario();
        let conf = scenario.initial_configuration.clone();
        let candidates =
            well_formed_accesses(&conf, &scenario.methods, &EnumerationOptions::default());
        let budget = accrel_core::SearchBudget::shallow();
        let verdicts = parallel_relevance_sweep_report(
            &scenario.query,
            &conf,
            &candidates,
            &scenario.methods,
            RelevanceKind::LongTerm,
            &budget,
            4,
        )
        .verdicts;
        assert_eq!(verdicts.len(), candidates.len());
        // The bank scenario always has at least one long-term relevant
        // access at the start (the chase can begin).
        assert!(verdicts.iter().any(|&v| v));
    }

    #[test]
    fn read_only_worker_snapshots_never_copy_shards() {
        let scenario = bank_scenario();
        let mut conf = scenario.initial_configuration.clone();
        conf.insert_named("Employee", ["e-x", "teller", "L", "F", "off-9"])
            .unwrap();
        let candidates =
            well_formed_accesses(&conf, &scenario.methods, &EnumerationOptions::default());
        let budget = accrel_core::SearchBudget::shallow();
        for workers in [1, 3, 5] {
            let report = parallel_relevance_sweep_report(
                &scenario.query,
                &conf,
                &candidates,
                &scenario.methods,
                RelevanceKind::Immediate,
                &budget,
                workers,
            );
            assert_eq!(report.verdicts.len(), candidates.len());
            assert!(report.snapshots >= 1);
            assert!(report.snapshots <= workers);
            assert_eq!(
                report.worker_shard_copies, 0,
                "read-only sweep copied a shard at workers={workers}"
            );
        }
    }
}
