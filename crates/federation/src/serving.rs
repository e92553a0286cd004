//! Multi-tenant query serving: many concurrent query sessions over one
//! shared [`AsyncFederation`].
//!
//! A mediator in the paper's sense does not answer one query and exit — it
//! *serves*: queries arrive concurrently, and the autonomous sources behind
//! the access methods are a shared, expensive resource. This module stacks
//! that serving layer on the async runtime:
//!
//! * [`QuerySessionRegistry`] admits up to `max_sessions` concurrent query
//!   sessions (a FIFO [`Semaphore`], so admission order is arrival order)
//!   over one federation and one initial configuration, each session running
//!   the shared sans-IO merge loop on the virtual clock. Sessions yield
//!   between batches ([`crate::yield_now`]), so they interleave round-robin
//!   instead of running to completion one after another.
//! * **Cross-session access deduplication** — an in-flight table keyed by
//!   [`Access::stable_hash`]: when a session wants an access that another
//!   session's wire call is already fetching, it *joins* that call and
//!   shares its response instead of dialing the source again. A session's
//!   report counts every call it asked for in its `source_stats` (calls,
//!   failures, tuples), and its [`SessionStats`] split them into led and
//!   joined calls and attribute shared calls fractionally
//!   (`fractional_calls` sums `1/participants` per call). The serve's
//!   [`BackendStats`] — in total and per source, chaos counters included —
//!   count each wire call exactly once, and the two views balance.
//! * **Cross-session verdict sharing** — sessions attach the registry's
//!   [`SharedVerdictCache`] to their relevance oracles, so a verdict
//!   computed by one session (or a *previous* `serve` call on the same
//!   registry) is reused by every later session in the same verdict class
//!   (same initial configuration, query, strategy and options). The cache
//!   is version-keyed by the verdict's dependency relations, so entries
//!   retire automatically when a relevant relation grows.
//!
//! Because joined sessions receive the leader's response and the sources
//! are deterministic functions of the access, every session still reports
//! exactly what an independent sequential run would: the
//! serving-vs-sequential grid in `tests/serving_equivalence.rs` pins
//! byte-for-byte equality of access sequences, verdict logs, certain
//! answers and final configurations. The F3 harness table measures what the
//! sharing buys: aggregate throughput and per-session latency percentiles
//! against session count.

use std::cell::RefCell;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::future::Future;
use std::hash::{Hash, Hasher};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use accrel_access::{Access, Response};
use accrel_engine::relevance::SharedVerdictCache;
use accrel_engine::{BackendStats, MergeLoop, MergeStep, RunReport, RunRequest};
use accrel_schema::Configuration;

use crate::async_federation::AsyncFederation;
use crate::error::SourceError;
use crate::executor::{yield_now, Executor, Semaphore};

/// Knobs of the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingOptions {
    /// Maximum number of concurrently *admitted* sessions; arrivals beyond
    /// this wait in FIFO order for a session slot. Zero is promoted to one.
    pub max_sessions: usize,
    /// Maximum number of wire calls in flight across all sessions (joined
    /// calls do not consume a permit — they ride an existing wire call).
    /// Zero is promoted to one.
    pub max_in_flight_accesses: usize,
}

impl Default for ServingOptions {
    fn default() -> Self {
        Self {
            max_sessions: 16,
            max_in_flight_accesses: 32,
        }
    }
}

/// How the serving layer shared a session's calls with other sessions, and
/// how long the session took. (What the calls returned is counted in the
/// session report's `source_stats`.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Calls this session dialed a source for (it was the *leader*).
    pub led_calls: usize,
    /// Calls this session shared with another session's wire call.
    pub joined_calls: usize,
    /// Fair-share attribution: each call contributes `1/participants`, so
    /// summing over sessions reproduces the wire-call count.
    pub fractional_calls: f64,
    /// Virtual time from admission to completion, in microseconds.
    pub latency_micros: u64,
}

/// One session's outcome: the familiar engine report plus the serving
/// layer's traffic attribution.
#[derive(Debug)]
pub struct SessionReport {
    /// Index of the session's request in the `serve` slice.
    pub session: usize,
    /// The run report — identical to an independent sequential run against
    /// sources returning the same responses. Its `source_stats` holds the
    /// calls, failures and tuples the session asked for: joined calls count
    /// as calls here, but only once in the serve's aggregate.
    pub report: RunReport,
    /// The session's serving-layer traffic.
    pub stats: SessionStats,
}

/// Outcome of one [`QuerySessionRegistry::serve`] call.
#[derive(Debug)]
pub struct ServingReport {
    /// Per-session outcomes, in request order.
    pub sessions: Vec<SessionReport>,
    /// Backend traffic of the whole serve, with each wire call counted
    /// exactly once (deduplication makes this strictly less than the sum of
    /// per-session calls whenever sessions overlapped on an access), chaos
    /// counters included. The field-wise sum of `per_source`.
    pub aggregate: BackendStats,
    /// Per-source backend traffic of the whole serve, in registration order
    /// — wire calls, the retry/failure split each backend absorbed or
    /// surfaced, and the chaos counters charged to it, so a flaky replica's
    /// churn is visible per source rather than folded into the aggregate.
    pub per_source: Vec<(String, BackendStats)>,
    /// Wire calls actually dialed (without failover, `aggregate.calls +
    /// aggregate.failures`; kept separately so the invariant is checkable).
    pub wire_calls: usize,
    /// Calls answered by joining another session's in-flight wire call.
    pub joined_calls: usize,
    /// Virtual time from the first admission to the last completion.
    pub makespan_micros: u64,
}

impl ServingReport {
    /// Total accesses applied across all sessions' merge loops.
    pub fn total_accesses(&self) -> usize {
        self.sessions.iter().map(|s| s.report.accesses_made).sum()
    }

    /// Sum of per-session call counts (the traffic the sessions *asked*
    /// for; compare with `wire_calls` for what actually hit the sources).
    pub fn session_calls(&self) -> usize {
        self.sessions
            .iter()
            .map(|s| s.stats.led_calls + s.stats.joined_calls)
            .sum()
    }

    /// The `p`-quantile (0.0 ≤ p ≤ 1.0) of per-session virtual latency, in
    /// microseconds (0 with no sessions). True nearest-rank: the smallest
    /// latency at sorted rank `⌈p·n⌉` (1-based), so `p = 0.5` over an even
    /// count picks the lower middle element rather than the
    /// `round((n-1)·p)` interpolation this method used to apply, and
    /// `p = 0.0` / `p = 1.0` are exactly the min / max.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let mut lat: Vec<u64> = self
            .sessions
            .iter()
            .map(|s| s.stats.latency_micros)
            .collect();
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        let n = lat.len();
        let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1);
        lat[rank.min(n) - 1]
    }
}

/// The multi-tenant front end: admits query sessions over one shared
/// [`AsyncFederation`], deduplicating in-flight accesses and sharing
/// relevance verdicts across them (see the module docs). The registry is
/// long-lived: its verdict cache persists across [`QuerySessionRegistry::serve`]
/// calls, so a session started after another ended still reuses its verdicts.
#[derive(Debug)]
pub struct QuerySessionRegistry<'a> {
    federation: &'a AsyncFederation,
    options: ServingOptions,
    verdicts: SharedVerdictCache,
}

impl<'a> QuerySessionRegistry<'a> {
    /// A registry over `federation` with default options.
    pub fn new(federation: &'a AsyncFederation) -> Self {
        Self::with_options(federation, ServingOptions::default())
    }

    /// A registry over `federation` with explicit options.
    pub fn with_options(federation: &'a AsyncFederation, options: ServingOptions) -> Self {
        Self::with_verdicts(federation, options, SharedVerdictCache::new())
    }

    /// A registry over `federation` whose cross-session verdict cache starts
    /// from `verdicts` instead of empty — the warm-start path for a cache
    /// restored by [`crate::RunJournal::replay`], so a fresh process serves
    /// its first session with the previous process's verdicts already hot.
    pub fn with_verdicts(
        federation: &'a AsyncFederation,
        options: ServingOptions,
        verdicts: SharedVerdictCache,
    ) -> Self {
        Self {
            federation,
            options,
            verdicts,
        }
    }

    /// The federation the sessions run against.
    pub fn federation(&self) -> &'a AsyncFederation {
        self.federation
    }

    /// The cross-session verdict cache (persists across `serve` calls).
    pub fn verdict_cache(&self) -> &SharedVerdictCache {
        &self.verdicts
    }

    /// Runs one session per request concurrently on the virtual clock, all
    /// starting from `initial`, and reports per-session outcomes plus the
    /// aggregate backend traffic. Sessions are admitted in request order
    /// (FIFO) up to `max_sessions` at a time; each session's merge loop
    /// yields between batches, so admitted sessions interleave round-robin.
    pub fn serve(&self, requests: &[RunRequest], initial: &Configuration) -> ServingReport {
        let stats_before = self.federation.stats();
        let per_source_before = self.federation.per_source_stats();
        let clock = self.federation.clock().clone();
        let start = clock.now_micros();
        let methods = self.federation.methods();
        let session_gate = Semaphore::new(self.options.max_sessions);
        let access_gate = Semaphore::new(self.options.max_in_flight_accesses);
        let dedup = Rc::new(RefCell::new(DedupTable::default()));

        let exec = Executor::new(clock.clone());
        let mut handles = Vec::with_capacity(requests.len());
        for (session, request) in requests.iter().enumerate() {
            let class = verdict_class(request, initial);
            let verdicts = self.verdicts.clone();
            let session_gate = session_gate.clone();
            let access_gate = access_gate.clone();
            let dedup = Rc::clone(&dedup);
            let clock = clock.clone();
            let federation = self.federation;
            handles.push(exec.spawn(async move {
                let _admission = session_gate.acquire().await;
                let admitted = clock.now_micros();
                let mut stats = SessionStats::default();
                let mut traffic = BackendStats::default();
                let mut merge = MergeLoop::new(
                    &request.query,
                    request.strategy,
                    &request.options,
                    methods,
                    initial,
                )
                .with_shared_cache(class, verdicts);
                while let MergeStep::Fetch(batch) = merge.step() {
                    let responses = fetch_deduped(
                        federation,
                        &access_gate,
                        &dedup,
                        &batch,
                        &mut stats,
                        &mut traffic,
                    )
                    .await;
                    merge.supply(batch, responses);
                    // Round-robin fairness point: let every other
                    // admitted session progress one batch.
                    yield_now().await;
                }
                stats.latency_micros = clock.now_micros() - admitted;
                let mut report = merge.into_report();
                report.source_stats = traffic;
                SessionReport {
                    session,
                    report,
                    stats,
                }
            }));
        }
        let stuck = exec.run();
        assert_eq!(stuck, 0, "serving sessions blocked on a non-timer");

        let sessions: Vec<SessionReport> = handles
            .into_iter()
            .map(|h| h.take().expect("session ran to completion"))
            .collect();
        let wire_calls: usize = sessions.iter().map(|s| s.stats.led_calls).sum();
        let joined_calls: usize = sessions.iter().map(|s| s.stats.joined_calls).sum();
        let table = dedup.borrow();
        debug_assert_eq!(table.wire_calls, wire_calls);
        debug_assert_eq!(table.joined_calls, joined_calls);
        debug_assert!(table.in_flight.is_empty(), "in-flight table drained");
        let per_source = self
            .federation
            .per_source_stats()
            .into_iter()
            .zip(per_source_before)
            .map(|((name, after), (_, before))| (name, after.since(&before)))
            .collect();
        ServingReport {
            sessions,
            aggregate: self.federation.stats().since(&stats_before),
            per_source,
            wire_calls,
            joined_calls,
            makespan_micros: clock.now_micros() - start,
        }
    }
}

/// The serving executor: a [`RunRequest`] run as a single session on a
/// [`QuerySessionRegistry`] (multi-session serving goes through
/// [`QuerySessionRegistry::serve`] directly — the [`accrel_engine::Executor`]
/// trait is one-request-shaped). The registry, and with it the shared
/// verdict cache, persists across `execute` calls.
#[derive(Debug)]
pub struct Serving<'a> {
    registry: QuerySessionRegistry<'a>,
}

impl<'a> Serving<'a> {
    /// A serving executor over `federation` with default options.
    pub fn new(federation: &'a AsyncFederation) -> Self {
        Self {
            registry: QuerySessionRegistry::new(federation),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &QuerySessionRegistry<'a> {
        &self.registry
    }
}

impl accrel_engine::Executor for Serving<'_> {
    fn name(&self) -> &'static str {
        "serving"
    }

    fn execute(&self, request: &RunRequest, initial: &Configuration) -> RunReport {
        let mut serve = self.registry.serve(std::slice::from_ref(request), initial);
        let mut report = serve.sessions.remove(0).report;
        // A single-session serve's traffic is the session's.
        report.source_stats = serve.aggregate;
        report
    }

    fn reset_stats(&self) {
        self.registry.federation.reset_stats();
    }
}

/// The verdict class of a request: sessions share verdicts only when their
/// initial configuration, query, strategy and options all agree (a coarser
/// key would let a deep-budget verdict leak into a shallow-budget run).
///
/// Every ingredient must render deterministically **across processes** — a
/// journal replay (see the `journal` module) rebuilds the cache in a fresh
/// process and only hits when it derives the same class. The query is
/// therefore hashed through its `Display` form plus an id-ordered walk of
/// its schema, never through `Debug` (whose embedded `HashMap`s iterate in
/// a per-process random order).
fn verdict_class(request: &RunRequest, initial: &Configuration) -> u64 {
    let mut h = DefaultHasher::new();
    initial.fingerprint().hash(&mut h);
    request.query.to_string().hash(&mut h);
    for (rel, relation) in request.query.schema().relations_with_ids() {
        rel.0.hash(&mut h);
        format!("{relation:?}").hash(&mut h);
    }
    format!("{:?}", request.strategy).hash(&mut h);
    format!("{:?}", request.options).hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Cross-session access deduplication
// ---------------------------------------------------------------------------

/// One wire call being shared: the leader fills `result` and wakes the
/// joiners; `final_share` is the participant count at completion (what each
/// participant's fractional attribution divides by).
#[derive(Debug)]
struct InFlightCall {
    access: Access,
    result: Option<Result<Response, SourceError>>,
    participants: usize,
    final_share: usize,
    wakers: Vec<Waker>,
}

impl InFlightCall {
    fn new(access: Access) -> Self {
        Self {
            access,
            result: None,
            participants: 1,
            final_share: 1,
            wakers: Vec::new(),
        }
    }
}

/// The in-flight table: `Access::stable_hash` → shared call. Single-threaded
/// (the mini-executor never crosses threads), hence `Rc<RefCell<..>>`.
#[derive(Debug, Default)]
struct DedupTable {
    in_flight: HashMap<u64, Rc<RefCell<InFlightCall>>>,
    wire_calls: usize,
    joined_calls: usize,
}

/// Awaits the leader's result on a shared in-flight call.
struct WaitShared {
    entry: Rc<RefCell<InFlightCall>>,
}

impl Future for WaitShared {
    type Output = Result<Response, SourceError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut call = self.entry.borrow_mut();
        if let Some(result) = &call.result {
            return Poll::Ready(result.clone());
        }
        if !call.wakers.iter().any(|w| w.will_wake(cx.waker())) {
            call.wakers.push(cx.waker().clone());
        }
        Poll::Pending
    }
}

/// How one call of a batch was served.
struct CallAttribution {
    led: bool,
    /// Number of sessions that shared the wire call (1 when unshared).
    participants: usize,
}

/// Serves one access: joins an identical in-flight wire call if the dedup
/// table has one, otherwise leads a new wire call (capped by `gate`) and
/// publishes its response to late joiners.
async fn shared_call(
    federation: &AsyncFederation,
    gate: &Semaphore,
    table: &RefCell<DedupTable>,
    access: Access,
) -> (Result<Response, SourceError>, CallAttribution) {
    enum Plan {
        Join(Rc<RefCell<InFlightCall>>),
        Lead {
            registered: bool,
            entry: Rc<RefCell<InFlightCall>>,
        },
    }

    let key = access.stable_hash();
    // Decide the role synchronously (no await points), so the table state
    // observed here cannot change under us.
    let plan = {
        let mut t = table.borrow_mut();
        match t.in_flight.entry(key) {
            Entry::Occupied(slot) => {
                let entry = Rc::clone(slot.get());
                if entry.borrow().access == access {
                    entry.borrow_mut().participants += 1;
                    t.joined_calls += 1;
                    Plan::Join(entry)
                } else {
                    // A stable-hash collision between *different* accesses:
                    // lead an unregistered call rather than share a wrong
                    // response.
                    t.wire_calls += 1;
                    Plan::Lead {
                        registered: false,
                        entry: Rc::new(RefCell::new(InFlightCall::new(access.clone()))),
                    }
                }
            }
            Entry::Vacant(slot) => {
                let entry = Rc::new(RefCell::new(InFlightCall::new(access.clone())));
                slot.insert(Rc::clone(&entry));
                t.wire_calls += 1;
                Plan::Lead {
                    registered: true,
                    entry,
                }
            }
        }
    };

    match plan {
        Plan::Join(entry) => {
            let result = WaitShared {
                entry: Rc::clone(&entry),
            }
            .await;
            let participants = entry.borrow().final_share;
            (
                result,
                CallAttribution {
                    led: false,
                    participants,
                },
            )
        }
        Plan::Lead { registered, entry } => {
            let result = {
                let _permit = gate.acquire().await;
                federation.call(access).await
            };
            let participants = {
                let mut call = entry.borrow_mut();
                call.final_share = call.participants;
                call.result = Some(result.clone());
                for waker in call.wakers.drain(..) {
                    waker.wake();
                }
                call.final_share
            };
            if registered {
                // Remove our entry — but only ours: a collision bypass may
                // have replaced nothing, and a future identical access must
                // lead a fresh call now that this response is consumed.
                let mut t = table.borrow_mut();
                if let Entry::Occupied(slot) = t.in_flight.entry(key) {
                    if Rc::ptr_eq(slot.get(), &entry) {
                        slot.remove();
                    }
                }
            }
            (
                result,
                CallAttribution {
                    led: true,
                    participants,
                },
            )
        }
    }
}

/// Fetches a session's predicted batch through the dedup table, all calls
/// of the batch concurrently in flight, and folds the sharing into the
/// session's `stats` and what the calls returned into its `traffic`.
/// Responses are aligned with the batch slice.
async fn fetch_deduped(
    federation: &AsyncFederation,
    gate: &Semaphore,
    dedup: &RefCell<DedupTable>,
    batch: &[Access],
    stats: &mut SessionStats,
    traffic: &mut BackendStats,
) -> Vec<Result<Response, SourceError>> {
    type CallFuture<'f> =
        Pin<Box<dyn Future<Output = (Result<Response, SourceError>, CallAttribution)> + 'f>>;
    let calls: Vec<CallFuture<'_>> = batch
        .iter()
        .map(|access| {
            Box::pin(shared_call(federation, gate, dedup, access.clone())) as CallFuture<'_>
        })
        .collect();
    let outcomes = JoinAll::new(calls).await;
    let mut responses = Vec::with_capacity(outcomes.len());
    for (result, attribution) in outcomes {
        if attribution.led {
            stats.led_calls += 1;
        } else {
            stats.joined_calls += 1;
        }
        stats.fractional_calls += 1.0 / attribution.participants as f64;
        match &result {
            Ok(response) => {
                traffic.calls += 1;
                traffic.tuples_returned += response.len();
            }
            Err(_) => traffic.failures += 1,
        }
        responses.push(result);
    }
    responses
}

/// Drives a vector of futures to completion concurrently, preserving input
/// order in the output (a dependency-free `join_all`; the futures are boxed
/// by the caller, which makes them `Unpin`).
struct JoinAll<F: Future + Unpin> {
    slots: Vec<Option<F>>,
    outputs: Vec<Option<F::Output>>,
}

// No self-references: the struct is a plain vector of `Unpin` futures and
// already-produced outputs, so it is safely `Unpin` regardless of whether
// the *output* type is.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> JoinAll<F> {
    fn new(futures: Vec<F>) -> Self {
        let outputs = futures.iter().map(|_| None).collect();
        Self {
            slots: futures.into_iter().map(Some).collect(),
            outputs,
        }
    }
}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut done = true;
        for (slot, out) in this.slots.iter_mut().zip(this.outputs.iter_mut()) {
            if let Some(future) = slot {
                match Pin::new(future).poll(cx) {
                    Poll::Ready(value) => {
                        *out = Some(value);
                        *slot = None;
                    }
                    Poll::Pending => done = false,
                }
            }
        }
        if done {
            Poll::Ready(
                this.outputs
                    .iter_mut()
                    .map(|o| o.take().expect("all futures completed"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{LatencyModel, SimulatedSource};
    use crate::Threaded;
    use accrel_engine::scenarios::{bank_scenario, Scenario};
    use accrel_engine::{
        DeepWebSource, Executor as _, ResponsePolicy, RunOptions, Sequential, Strategy,
    };

    /// The bank scenario behind an async federation whose (deterministic)
    /// source answers after a 100µs virtual round trip — long enough for
    /// admitted sessions to overlap in flight.
    fn bank_async_federation() -> (AsyncFederation, Scenario) {
        let scenario = bank_scenario();
        let source =
            SimulatedSource::exact("bank", scenario.instance.clone(), scenario.methods.clone())
                .with_latency(LatencyModel::recorded(100));
        (AsyncFederation::single_simulated(source), scenario)
    }

    fn identical_requests(scenario: &Scenario, n: usize) -> Vec<RunRequest> {
        (0..n)
            .map(|_| RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Exhaustive))
            .collect()
    }

    #[test]
    fn identical_sessions_share_wire_calls_and_match_sequential() {
        let (federation, scenario) = bank_async_federation();
        let registry = QuerySessionRegistry::new(&federation);
        let n = 4;
        let report = registry.serve(
            &identical_requests(&scenario, n),
            &scenario.initial_configuration,
        );
        assert_eq!(report.sessions.len(), n);

        // Every session reports exactly what one sequential run reports.
        let sequential_source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let request = RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Exhaustive);
        let sequential =
            Sequential::new(&sequential_source).execute(&request, &scenario.initial_configuration);
        for s in &report.sessions {
            assert!(s.report.certain);
            assert_eq!(s.report.access_sequence, sequential.access_sequence);
            assert_eq!(s.report.answers, sequential.answers);
            assert!(s
                .report
                .final_configuration
                .same_facts(&sequential.final_configuration));
        }

        // Deduplication strictly reduced backend traffic: the four sessions
        // asked for 4× the accesses but the sources saw far fewer calls.
        assert!(report.joined_calls > 0);
        assert!(report.wire_calls < report.session_calls());
        assert_eq!(report.aggregate.calls, report.wire_calls);
        // Fractional attribution sums back to the wire-call count.
        let fractional: f64 = report
            .sessions
            .iter()
            .map(|s| s.stats.fractional_calls)
            .sum();
        assert!((fractional - report.wire_calls as f64).abs() < 1e-6);
        // Per-session latency percentiles are ordered and within makespan.
        assert!(report.latency_percentile(0.5) <= report.latency_percentile(0.95));
        assert!(report.latency_percentile(0.95) <= report.makespan_micros);
    }

    /// Satellite regression: `latency_percentile` is true nearest-rank. The
    /// old `round((n-1)·p)` index made p=0.5 on small even counts jump to
    /// the *upper* middle and let intermediate quantiles drift off-element;
    /// nearest-rank pins p=0.0 to the min, p=1.0 to the max, and p=0.5 on
    /// three sessions to exactly the middle latency.
    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let (federation, scenario) = bank_async_federation();
        let registry = QuerySessionRegistry::new(&federation);
        let report = registry.serve(
            &identical_requests(&scenario, 3),
            &scenario.initial_configuration,
        );
        let mut lat: Vec<u64> = report
            .sessions
            .iter()
            .map(|s| s.stats.latency_micros)
            .collect();
        assert_eq!(lat.len(), 3);
        lat.sort_unstable();
        assert_eq!(report.latency_percentile(0.0), lat[0]);
        assert_eq!(report.latency_percentile(0.5), lat[1]);
        assert_eq!(report.latency_percentile(1.0), lat[2]);
        // Out-of-range quantiles clamp to the extremes.
        assert_eq!(report.latency_percentile(-1.0), lat[0]);
        assert_eq!(report.latency_percentile(2.0), lat[2]);
    }

    #[test]
    fn verdict_cache_persists_across_serve_calls() {
        let (federation, scenario) = bank_async_federation();
        let registry = QuerySessionRegistry::new(&federation);
        let request = vec![RunRequest::new(scenario.query.clone())];
        let first = registry.serve(&request, &scenario.initial_configuration);
        assert_eq!(first.sessions[0].report.relevance_shared_hits, 0);
        assert!(!registry.verdict_cache().is_empty());
        // A later session over the same class reuses the verdicts.
        let second = registry.serve(&request, &scenario.initial_configuration);
        assert!(second.sessions[0].report.relevance_shared_hits > 0);
        assert_eq!(
            second.sessions[0].report.relevance_verdicts,
            first.sessions[0].report.relevance_verdicts
        );
    }

    #[test]
    fn admission_cap_still_completes_every_session() {
        let (federation, scenario) = bank_async_federation();
        let registry = QuerySessionRegistry::with_options(
            &federation,
            ServingOptions {
                max_sessions: 2,
                max_in_flight_accesses: 1,
            },
        );
        let report = registry.serve(
            &identical_requests(&scenario, 5),
            &scenario.initial_configuration,
        );
        assert_eq!(report.sessions.len(), 5);
        for s in &report.sessions {
            assert!(s.report.certain);
        }
        // Later arrivals waited for a session slot, so their latency spread
        // shows the queueing.
        assert!(report.makespan_micros >= report.latency_percentile(1.0));
    }

    #[test]
    fn serving_executor_answers_like_the_threaded_one() {
        let (federation, scenario) = bank_async_federation();
        let serving = Serving::new(&federation);
        assert_eq!(serving.name(), "serving");
        let request = RunRequest::new(scenario.query.clone())
            .with_strategy(Strategy::Hybrid)
            .with_options(RunOptions {
                budget: accrel_core::SearchBudget::shallow(),
                ..RunOptions::default()
            });
        let report = serving.execute(&request, &scenario.initial_configuration);

        let threaded_federation = crate::Federation::single(SimulatedSource::exact(
            "bank",
            scenario.instance.clone(),
            scenario.methods.clone(),
        ));
        let threaded =
            Threaded::new(&threaded_federation).execute(&request, &scenario.initial_configuration);
        assert_eq!(report.access_sequence, threaded.access_sequence);
        assert_eq!(report.certain, threaded.certain);
        assert_eq!(report.relevance_verdicts, threaded.relevance_verdicts);
    }
}
