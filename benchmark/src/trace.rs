//! The traced pass: an in-memory span ledger, a replay of the engine's run
//! loop from public calls with a span around each layer, and a timing
//! wrapper for async sources.
//!
//! The replay mirrors `FederatedEngine::run` call for call, so its access
//! sequence, verdict log, answers and final configuration must equal
//! `Sequential::execute` on the same input; the caller checks that. Spans
//! are recorded only from this file, around calls into each layer.

use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use accrel_access::enumerate::EnumerationOptions;
use accrel_access::{apply_access_in_place, Access, AccessMethods, Response};
use accrel_core::{is_immediately_relevant, is_long_term_relevant_trailed};
use accrel_engine::{
    DeepWebSource, InvalidationMode, RelevanceKind, RelevanceOracle, RunOptions, RunRequest,
    VerdictRecord,
};
use accrel_federation::{AsyncSource, BackendStats, SourceError, SourceFuture};
use accrel_query::{certain, Query};
use accrel_schema::{AdomPrecision, Configuration, Tuple, Value};

/// Busy time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub calls: f64,
    pub busy: Duration,
}

/// Per-layer spans and counters, kept in memory for the whole pass.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    spans: BTreeMap<&'static str, SpanTotal>,
    counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Times `f` as one call of span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add_span(name, 1.0, start.elapsed());
        out
    }

    pub fn add_span(&mut self, name: &'static str, calls: f64, busy: Duration) {
        let total = self.spans.entry(name).or_default();
        total.calls += calls;
        total.busy += busy;
    }

    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    pub fn get(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Adds `other`, every entry scaled by `times`.
    pub fn merge_scaled(&mut self, other: &Ledger, times: f64) {
        for (name, total) in &other.spans {
            self.add_span(name, total.calls * times, total.busy.mul_f64(times));
        }
        for (name, value) in &other.counts {
            self.count(name, value * times);
        }
    }
}

/// The spans that tile the replay's timeline (everything else the replay
/// spends is unattributed).
const TIMELINE: [&str; 9] = [
    "engine.pool",
    "engine.setup",
    "query.certain",
    "access.frontier",
    "engine.relevance.select",
    "engine.source",
    "access.response",
    "engine.relevance.invalidate",
    "query.answers",
];

/// What a replay produced, for comparison with `Sequential::execute`.
pub struct Replay {
    pub access_sequence: Vec<Access>,
    pub verdicts: Vec<VerdictRecord>,
    pub certain: bool,
    pub answers: Vec<Tuple>,
    pub final_configuration: Configuration,
    /// Wall time of the replay, re-runs of logged decisions excluded.
    pub wall: Duration,
    /// Logged decisions whose re-run disagreed with the logged verdict.
    pub rerun_mismatches: usize,
}

/// Wall time a ledger's timeline spans cover.
pub fn covered(ledger: &Ledger) -> Duration {
    TIMELINE.iter().map(|name| ledger.get(name).busy).sum()
}

/// Replays the sequential engine's run loop for `request` from `initial`
/// against `source`, spanning each layer call into `ledger`. Each round's
/// logged decisions are also re-run at the round's configuration
/// (untracked, then read-tracked, plus the certainty pre-check alone); the
/// re-runs are timed into their own spans and kept out of `wall`.
pub fn replay(
    source: &DeepWebSource,
    request: &RunRequest,
    initial: &Configuration,
    ledger: &mut Ledger,
) -> Replay {
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let methods = source.methods();
    let (query, options, strategy) = (&request.query, &request.options, request.strategy);

    let pool = ledger.span("engine.pool", || guessable_pool(options, query, initial));
    let mut conf = ledger.span("engine.setup", || {
        let mut conf = initial.snapshot();
        conf.own_all_shards();
        conf.set_event_capture(true);
        conf
    });
    let mut oracle = RelevanceOracle::new(query, methods, options);
    let mut frontier = accrel_access::AccessFrontier::new(
        methods,
        EnumerationOptions {
            guessable_values: pool,
            max_accesses: usize::MAX,
        },
    );
    let mut pending: BTreeSet<Access> = BTreeSet::new();
    let mut access_sequence = Vec::new();
    let mut verdicts = Vec::new();
    let mut skipped = 0usize;
    let mut rerun_mismatches = 0usize;

    loop {
        if options.stop_when_certain
            && query.is_boolean()
            && ledger.span("query.certain", || certain::is_certain(query, &conf))
        {
            break;
        }
        if access_sequence.len() >= options.max_accesses {
            break;
        }
        let fresh = ledger.span("access.frontier", || frontier.refresh(&conf, methods));
        ledger.count("access.frontier.candidates", fresh.len() as f64);
        pending.extend(fresh);
        if pending.is_empty() {
            break;
        }
        let selected = ledger.span("engine.relevance.select", || {
            let candidates: Vec<&Access> = pending.iter().collect();
            oracle.select_trailed(strategy, &candidates, &mut conf, &mut skipped)
        });
        let round = oracle.take_log();
        let rerun_start = Instant::now();
        rerun_mismatches += rerun_decisions(&round, query, methods, options, &mut conf, ledger);
        excluded += rerun_start.elapsed();
        verdicts.extend(round);
        let Some(access) = selected else {
            break;
        };
        pending.remove(&access);
        let Ok(response) = ledger.span("engine.source", || source.call(&access)) else {
            continue;
        };
        ledger.count("engine.source.tuples", response.len() as f64);
        access_sequence.push(access.clone());
        let before = conf.len();
        let _ = ledger.span("access.response", || {
            apply_access_in_place(&mut conf, &access, &response, methods)
        });
        ledger.count(
            "access.response.facts_inserted",
            (conf.len() - before) as f64,
        );
        if conf.len() > before {
            if let Ok(method) = methods.get(access.method()) {
                ledger.span("engine.relevance.invalidate", || {
                    oracle.observe_growth(&mut conf, method.relation())
                });
            }
        }
    }

    let certain = ledger.span("query.certain", || certain::is_certain(query, &conf));
    let answers = ledger.span("query.answers", || certain::certain_answers(query, &conf));
    Replay {
        access_sequence,
        verdicts,
        certain,
        answers,
        final_configuration: conf,
        wall: start.elapsed().saturating_sub(excluded),
        rerun_mismatches,
    }
}

/// The engine's pool of guessable values, built the way the engine builds
/// it (caller values, then query constants, then the initial configuration's
/// values, deduplicated by linear search, then sorted).
fn guessable_pool(options: &RunOptions, query: &Query, initial: &Configuration) -> Vec<Value> {
    let mut pool = options.guessable_values.clone();
    for value in query.constants().into_iter().chain(initial.all_values()) {
        if !pool.contains(&value) {
            pool.push(value);
        }
    }
    pool.sort();
    pool
}

/// Re-runs each logged decision of one round at the round's configuration:
/// the certainty pre-check alone (`core.precheck`), the procedure untracked
/// (`core.ir` / `core.ltr`), and the procedure under the read recorder the
/// options select (`engine.relevance.tracked`). Returns how many re-runs
/// disagreed with the logged verdict.
fn rerun_decisions(
    round: &[VerdictRecord],
    query: &Query,
    methods: &AccessMethods,
    options: &RunOptions,
    conf: &mut Configuration,
    ledger: &mut Ledger,
) -> usize {
    let precision = match options.invalidation {
        InvalidationMode::Precise => Some(AdomPrecision::Precise),
        InvalidationMode::Exact => Some(AdomPrecision::Coarse),
        InvalidationMode::RelationLevel => None,
    };
    let decide = |conf: &mut Configuration, record: &VerdictRecord| match record.kind {
        RelevanceKind::Immediate => is_immediately_relevant(query, conf, &record.access, methods),
        RelevanceKind::LongTerm => {
            is_long_term_relevant_trailed(query, conf, &record.access, methods, &options.budget)
        }
    };
    let mut mismatches = 0;
    for record in round {
        ledger.span("core.precheck", || certain::is_certain(query, conf));
        let (layer, relevant) = match record.kind {
            RelevanceKind::Immediate => ("core.ir", "core.ir.relevant"),
            RelevanceKind::LongTerm => ("core.ltr", "core.ltr.relevant"),
        };
        let untracked = ledger.span(layer, || decide(conf, record));
        if untracked {
            ledger.count(relevant, 1.0);
        }
        let tracked = ledger.span("engine.relevance.tracked", || {
            if let Some(precision) = precision {
                conf.begin_read_tracking_with(precision);
            }
            let verdict = decide(conf, record);
            if precision.is_some() {
                let _ = conf.take_read_set();
            }
            verdict
        });
        mismatches += usize::from(untracked != record.verdict || tracked != record.verdict);
    }
    mismatches
}

// ---------------------------------------------------------------------------
// Timing wrapper for async sources
// ---------------------------------------------------------------------------

/// Calls, CPU time inside polls, and tuples returned by the wrapped sources.
#[derive(Debug, Default)]
pub struct SourceTally {
    pub calls: u64,
    pub busy: Duration,
    pub tuples: u64,
}

/// An [`AsyncSource`] that forwards to `inner` and tallies the time spent
/// inside its futures' polls: the source's own CPU work, not the virtual
/// round trips it awaits.
pub struct TimedSource<S> {
    inner: S,
    tally: Arc<Mutex<SourceTally>>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, tally: Arc<Mutex<SourceTally>>) -> Self {
        Self { inner, tally }
    }
}

struct TimedFuture<'a> {
    inner: SourceFuture<'a>,
    tally: &'a Mutex<SourceTally>,
}

impl Future for TimedFuture<'_> {
    type Output = Result<Response, SourceError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let start = Instant::now();
        let out = self.inner.as_mut().poll(cx);
        let busy = start.elapsed();
        let mut tally = self.tally.lock().expect("source tally poisoned");
        tally.busy += busy;
        if let Poll::Ready(result) = &out {
            tally.calls += 1;
            tally.tuples += result.as_ref().map_or(0, |r| r.len() as u64);
        }
        out
    }
}

impl<S: AsyncSource> AsyncSource for TimedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn methods(&self) -> &AccessMethods {
        self.inner.methods()
    }

    fn call(&self, access: Access) -> SourceFuture<'_> {
        Box::pin(TimedFuture {
            inner: self.inner.call(access),
            tally: &self.tally,
        })
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_engine::{Executor, Sequential};

    #[test]
    fn the_replay_matches_the_engine_byte_for_byte() {
        let inputs = crate::inputs::flood_chain(3, 1)
            .into_iter()
            .chain(crate::inputs::dense_probe(3, 2));
        for input in inputs {
            let report = Sequential::new(&input.source).execute(&input.request, &input.initial);
            let mut ledger = Ledger::default();
            let replay = replay(&input.source, &input.request, &input.initial, &mut ledger);
            assert_eq!(replay.access_sequence, report.access_sequence);
            assert_eq!(replay.verdicts, report.relevance_verdicts);
            assert_eq!(replay.answers, report.answers);
            assert_eq!(replay.certain, report.certain);
            assert_eq!(
                replay.final_configuration.sorted_facts(),
                report.final_configuration.sorted_facts()
            );
            assert_eq!(replay.rerun_mismatches, 0);
            assert_eq!(
                ledger.get("engine.source").calls,
                report.accesses_made as f64
            );
            assert!(covered(&ledger) <= replay.wall);
        }
    }

    #[test]
    fn merging_scales_spans_and_counts() {
        let mut one = Ledger::default();
        one.add_span("x", 1.0, Duration::from_millis(2));
        one.count("y", 3.0);
        let mut total = Ledger::default();
        total.merge_scaled(&one, 4.0);
        assert_eq!(total.get("x").calls, 4.0);
        assert_eq!(total.get("x").busy, Duration::from_millis(8));
        assert_eq!(total.counted("y"), 12.0);
        assert_eq!(total.counted("absent"), 0.0);
    }
}
