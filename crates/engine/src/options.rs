//! The run options.
//!
//! [`RunOptions`] is one flat struct carrying both the semantic knobs
//! (access cap, budget, relevance cache, invalidation) and the execution
//! knobs (batch size, concurrency, speculation) of every executor, with
//! [`RunOptions::normalize`] as the single place degenerate values are
//! clamped. Executors that have no use for a knob ignore it: the sequential
//! executor reads none of the batching fields.

use accrel_core::SearchBudget;
use accrel_schema::Value;

/// How the merge loop predicts the follow-up accesses of a batch.
/// `Exhaustive` needs no verdicts, so its batches fill up under either mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeculationMode {
    /// Predict from cached verdicts alone, at no extra decision-procedure
    /// cost. A guided strategy then fetches one access per batch: selection
    /// stops at the first candidate it finds relevant and takes it out of
    /// the pending set, and nothing else caches a verdict, so every cached
    /// verdict of a pending access is `false` and predicts nothing.
    CachedOnly,
    /// Run the decision procedures on the unfetched pending accesses to
    /// predict a relevance-verified batch. A verdict is read from the cache
    /// when present and is otherwise computed without being cached, logged
    /// or shared, so the run's verdict log is untouched. This pays when
    /// source latency dominates check cost. On F2's async E5 federation at
    /// 10⁴ facts (batch 16, 8 calls in flight, 48 accesses, shallow budget),
    /// `Hybrid` falls from 127.8 to 27.2 virtual µs per access at 1.4–1.8×
    /// the wall time, with 15 wasted prefetches. `LtrGuided` falls from
    /// 128.0 to 44.3 at 2.4–3.6× the wall time, with 61 wasted prefetches.
    Eager,
}

/// How cached relevance verdicts are invalidated when a response grows the
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InvalidationMode {
    /// Precise read-set invalidation: exact tracking (see
    /// [`InvalidationMode::Exact`]) with the active-domain reads of the
    /// witness searches recorded per domain and, where the backtracking
    /// enumeration was cut off by its budget, per visited *prefix* of the
    /// sorted candidate list — a new value evicts a verdict only when it
    /// lands in a domain (and below a prefix bound) the verdict actually
    /// consulted. Evictions are a subset of `Exact`'s, which are a subset of
    /// `RelationLevel`'s, at identical access sequences, answers and final
    /// configurations.
    #[default]
    Precise,
    /// Exact read-set invalidation: every computed verdict records the
    /// `(relation, value)` pairs its decision procedure actually consulted;
    /// after each growing response the rows it committed are read from the
    /// store's append-only logs, and a verdict is evicted only when one of
    /// them touches a pair it read. Active-domain walks are recorded coarsely
    /// (any new value anywhere touches them) — on adom-flooding workloads
    /// this evicts nearly everything; [`InvalidationMode::Precise`] fixes
    /// that. Kept as the intermediate differential baseline.
    Exact,
    /// Legacy relation-level invalidation: each verdict carries a coarse
    /// relation dependency set (global for dependent-method LTR) and any
    /// growth of a dep relation evicts it. Kept as the differential
    /// baseline.
    RelationLevel,
}

/// Options controlling a run, shared by every [`crate::Executor`]
/// implementation (the sequential executor, and the threaded, async and
/// serving executors of `accrel-federation`).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Maximum number of accesses the engine may execute before giving up.
    pub max_accesses: usize,
    /// Extra values independent accesses may guess (e.g. query constants).
    pub guessable_values: Vec<Value>,
    /// Budget for the long-term-relevance checks.
    pub budget: SearchBudget,
    /// Stop as soon as the query is certain (for Boolean queries) — when
    /// `false` the engine keeps going until no candidate access remains,
    /// which is useful for non-Boolean queries where more answers may
    /// appear.
    pub stop_when_certain: bool,
    /// Cache relevance verdicts between rounds, evicting them as
    /// [`RunOptions::invalidation`] says (by default, when an insert touches
    /// a verdict's recorded read set). Disable to force every candidate to
    /// be re-checked every round (the pre-incremental behaviour; the access
    /// sequences executed must not change).
    pub use_relevance_cache: bool,
    /// Maximum accesses prefetched per batch (1 disables speculation).
    /// Ignored by the sequential executor.
    pub batch_size: usize,
    /// The cap on one request's calls in flight: every batched executor
    /// keeps at most `workers` of a batch's calls in flight (worker threads
    /// for the threaded executor, semaphore permits for the async and
    /// serving executors). A multi-session serve
    /// (`accrel-federation`'s `QuerySessionRegistry::serve`) caps all its
    /// sessions together at `ServingOptions::max_in_flight_accesses`
    /// instead. Ignored by the sequential executor.
    pub workers: usize,
    /// How follow-up accesses are predicted. Ignored by the sequential
    /// executor.
    pub speculation: SpeculationMode,
    /// How cached verdicts are invalidated on growth. Only meaningful while
    /// `use_relevance_cache` is on.
    pub invalidation: InvalidationMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            max_accesses: 10_000,
            guessable_values: Vec::new(),
            budget: SearchBudget::default(),
            stop_when_certain: true,
            use_relevance_cache: true,
            batch_size: 8,
            workers: 4,
            speculation: SpeculationMode::CachedOnly,
            invalidation: InvalidationMode::default(),
        }
    }
}

impl RunOptions {
    /// A copy with every degenerate execution knob clamped to its smallest
    /// meaningful value: `workers == 0` and `batch_size == 0` both become 1.
    ///
    /// This is the **single** clamping point: every execution layer
    /// normalizes through this method (or [`RunOptions::clamp_workers`] when
    /// a task count bounds the useful concurrency), so the promotion is
    /// pinned in one place.
    pub fn normalize(&self) -> RunOptions {
        RunOptions {
            batch_size: self.batch_size.max(1),
            workers: self.workers.max(1),
            ..self.clone()
        }
    }

    /// The effective concurrency for `tasks` work items: at least one
    /// worker, never more workers than items (and still one worker when
    /// there is no work, so degenerate inputs stay well-defined).
    pub fn clamp_workers(workers: usize, tasks: usize) -> usize {
        workers.max(1).min(tasks.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: the `workers == 0` promotion (and the
    /// `batch_size == 0` one) is centralized here — every executor must
    /// see the same clamp.
    #[test]
    fn normalize_promotes_zero_knobs_to_one() {
        let zeroed = RunOptions {
            workers: 0,
            batch_size: 0,
            ..RunOptions::default()
        };
        let normal = zeroed.normalize();
        assert_eq!(normal.workers, 1);
        assert_eq!(normal.batch_size, 1);
        // Non-degenerate values pass through untouched.
        let kept = RunOptions {
            workers: 7,
            batch_size: 3,
            ..RunOptions::default()
        }
        .normalize();
        assert_eq!((kept.workers, kept.batch_size), (7, 3));
        assert_eq!(kept.max_accesses, RunOptions::default().max_accesses);
    }

    #[test]
    fn clamp_workers_promotes_zero_and_caps_at_task_count() {
        assert_eq!(RunOptions::clamp_workers(0, 5), 1);
        assert_eq!(RunOptions::clamp_workers(1, 5), 1);
        assert_eq!(RunOptions::clamp_workers(8, 3), 3);
        assert_eq!(RunOptions::clamp_workers(3, 3), 3);
        // No work still yields a well-defined single worker.
        assert_eq!(RunOptions::clamp_workers(4, 0), 1);
        assert_eq!(RunOptions::clamp_workers(0, 0), 1);
    }
}
