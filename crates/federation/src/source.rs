//! The simulated deep-Web backend.
//!
//! [`SimulatedSource`] is a thread-safe deep-Web source — "answer this
//! access with a sound response" — that the threaded executor may call
//! concurrently and the async runtime wraps as an
//! [`AsyncSimulatedSource`](crate::AsyncSimulatedSource). It composes three
//! backend models over a hidden [`Instance`]:
//!
//! * [`LatencyModel`] — a per-source latency distribution (base + seeded
//!   deterministic jitter per round trip), optionally realised with real
//!   `thread::sleep`s so the F1 harness sweep of the threaded executor
//!   measures genuine overlap;
//! * [`FlakyModel`] — deterministic transient failures with an internal
//!   retry loop, the retried/failed attempts counted separately from
//!   successful calls;
//! * paging — responses delivered in pages of a fixed size, each page a
//!   simulated round trip.
//!
//! Each source counts its own traffic in one [`BackendStats`] — the flat
//! counter type of `accrel-engine`, re-exported here — whose cost fields
//! these models fill in; the federation adds its chaos counters per source
//! (see `crate::routing`).
//!
//! All three models affect *cost* (latency, retries, pages), never response
//! *content*: a `SimulatedSource` returns the exact matching tuples in
//! sorted order, optionally narrowed by one of the engine crate's response
//! policies ([`SimulatedSource::with_policy`]) — each of which answers a
//! given access deterministically regardless of call order (sound sampling
//! is hash-seeded per access, from the same [`Access::stable_hash`] the
//! backend models draw their jitter and flakiness from). That is what lets
//! the threaded and async executors promise sequential-equivalent semantics
//! under concurrency (see `crate::scheduler`).

use std::sync::Mutex;
use std::time::Duration;

use accrel_access::{Access, AccessMethods, Response};
use accrel_engine::BackendStats;
use accrel_schema::{Instance, Tuple};

use crate::error::SourceError;

/// A per-source latency distribution: `base + jitter` microseconds per
/// simulated round trip, with the jitter drawn deterministically from the
/// access and the trip index (no shared RNG state, so concurrent calls see
/// the same latencies regardless of scheduling order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed cost per round trip, in microseconds.
    pub base_micros: u64,
    /// Upper bound (exclusive) of the deterministic per-trip jitter.
    pub jitter_micros: u64,
    /// Seed mixed into the jitter hash.
    pub seed: u64,
    /// Realise the latency with `thread::sleep` (for throughput harnesses);
    /// when `false` the latency is only recorded in the stats.
    pub sleep: bool,
}

impl LatencyModel {
    /// A fixed latency of `base_micros` per round trip, recorded but not
    /// slept.
    pub fn recorded(base_micros: u64) -> Self {
        Self {
            base_micros,
            jitter_micros: 0,
            seed: 0,
            sleep: false,
        }
    }

    /// Like [`LatencyModel::recorded`] but realised with real sleeps.
    pub fn slept(base_micros: u64, jitter_micros: u64) -> Self {
        Self {
            base_micros,
            jitter_micros,
            seed: 0,
            sleep: true,
        }
    }

    pub(crate) fn trip_micros(&self, access: &Access, trip: u64) -> u64 {
        if self.jitter_micros == 0 {
            return self.base_micros;
        }
        let h = access.stable_hash_seeded(self.seed ^ trip.wrapping_mul(0x9e37));
        self.base_micros + h % self.jitter_micros
    }
}

/// Deterministic transient failures. An access is *flaky* when its hash
/// lands in the model's window; a flaky access fails its first
/// `fail_attempts` attempts of every call, and the source retries up to
/// `retries` times before giving up. Failures depend only on the access, so
/// concurrent and sequential executions see the same outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlakyModel {
    /// One in `period` accesses is flaky (`period = 1` makes every access
    /// flaky; `0` disables the model).
    pub period: u64,
    /// How many attempts of a flaky access fail before one succeeds.
    pub fail_attempts: usize,
    /// Transparent retries the source performs per call.
    pub retries: usize,
}

impl FlakyModel {
    fn planned_failures(&self, access: &Access) -> usize {
        if self.period == 0 {
            return 0;
        }
        if access.stable_hash_seeded(0) % self.period == 0 {
            self.fail_attempts
        } else {
            0
        }
    }
}

#[derive(Debug, Default)]
struct BackendState {
    stats: BackendStats,
    // Cost models live behind the state lock so churn scripts can swap them
    // mid-run (`SimulatedSource::set_latency` / `SimulatedSource::set_flaky`)
    // while calls are in flight on other threads.
    latency: Option<LatencyModel>,
    flaky: Option<FlakyModel>,
}

/// A thread-safe simulated source over a hidden instance, composing the
/// latency / flaky / paged backend models. Responses are the exact matching
/// tuples in sorted order — optionally narrowed by a
/// [`ResponsePolicy`](accrel_engine::ResponsePolicy)
/// ([`SimulatedSource::with_policy`]), whose selection is a pure function of
/// the access — so the models shape cost, never nondeterminism.
#[derive(Debug)]
pub struct SimulatedSource {
    name: String,
    instance: Instance,
    methods: AccessMethods,
    policy: Option<accrel_engine::ResponsePolicy>,
    page_size: Option<usize>,
    state: Mutex<BackendState>,
}

impl SimulatedSource {
    /// An exact, instant, reliable source (no backend model attached).
    pub fn exact(name: impl Into<String>, instance: Instance, methods: AccessMethods) -> Self {
        Self {
            name: name.into(),
            instance,
            methods,
            policy: None,
            page_size: None,
            state: Mutex::new(BackendState::default()),
        }
    }

    /// Attaches a latency model.
    pub fn with_latency(self, latency: LatencyModel) -> Self {
        self.state.lock().expect("source state poisoned").latency = Some(latency);
        self
    }

    /// Attaches a transient-failure model.
    pub fn with_flaky(self, flaky: FlakyModel) -> Self {
        self.state.lock().expect("source state poisoned").flaky = Some(flaky);
        self
    }

    /// Answers accesses through `policy` instead of exactly. The selection
    /// is [`ResponsePolicy::apply`](accrel_engine::ResponsePolicy::apply) —
    /// the same routine [`accrel_engine::DeepWebSource`]
    /// runs — so a `SimulatedSource` and a `DeepWebSource` over the same
    /// hidden instance with the same policy (same `SoundSample` seed) answer
    /// every access byte-for-byte identically. That makes policy-equipped
    /// simulated sources interchangeable *replicas* of each other and of the
    /// sequential oracle, which is what replica failover (`crate::chaos`)
    /// needs to keep the sequential-equivalence guarantee intact.
    pub fn with_policy(mut self, policy: accrel_engine::ResponsePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Delivers responses in pages of `page_size` tuples (each page one
    /// simulated round trip).
    pub fn with_paging(mut self, page_size: usize) -> Self {
        self.page_size = Some(page_size.max(1));
        self
    }

    /// The hidden instance (tests and ground-truth checks only).
    pub fn hidden_instance(&self) -> &Instance {
        &self.instance
    }

    /// A human-readable source name (used in stats and error messages).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The access methods this source understands. Sources of one
    /// federation share a single registry.
    pub fn methods(&self) -> &AccessMethods {
        &self.methods
    }

    /// Executes an access and returns its (sound) response, or an error for
    /// calls the source could not serve. The whole plan's latency is one
    /// `thread::sleep` when the latency model asks for real sleeps.
    pub fn call(&self, access: &Access) -> Result<Response, SourceError> {
        let plan = self.plan_call(access)?;
        self.commit_plan(&plan);
        // Sleep outside the state lock so concurrent calls overlap. The
        // threaded path realises the whole plan as one sleep; the async
        // adapter awaits the same trips one by one on the virtual clock.
        let latency_micros = plan.total_latency_micros();
        if latency_micros > 0 && plan.sleep {
            std::thread::sleep(Duration::from_micros(latency_micros));
        }
        if !plan.succeeds {
            return Err(self.unavailable(&plan));
        }
        Ok(Response::new(plan.tuples))
    }

    /// Cumulative backend statistics.
    pub fn stats(&self) -> BackendStats {
        self.state
            .lock()
            .expect("source state poisoned")
            .stats
            .clone()
    }

    /// Resets the statistics.
    pub fn reset_stats(&self) {
        let mut state = self.state.lock().expect("source state poisoned");
        state.stats = BackendStats::default();
    }

    /// Swaps the latency model mid-run (`None` removes it). Cost-only — a
    /// swap never changes response content.
    pub fn set_latency(&self, latency: Option<LatencyModel>) {
        self.state.lock().expect("source state poisoned").latency = latency;
    }

    /// Swaps the transient-failure model mid-run (`None` removes it).
    pub fn set_flaky(&self, flaky: Option<FlakyModel>) {
        self.state.lock().expect("source state poisoned").flaky = flaky;
    }

    /// Resolves everything about one call — response content, planned
    /// failures, page count and the per-trip latencies — *without* touching
    /// the statistics or sleeping. [`SimulatedSource::call`] and the async
    /// adapter (`crate::AsyncSimulatedSource`) both execute the same plan;
    /// they differ only in how the round trips are realised (one
    /// `thread::sleep` versus awaited virtual-clock sleeps per trip).
    pub(crate) fn plan_call(&self, access: &Access) -> Result<CallPlan, SourceError> {
        let exact =
            Response::exact(access, &self.methods, &self.instance).map_err(SourceError::Access)?;
        let mut tuples: Vec<_> = exact.tuples().to_vec();
        tuples.sort();
        if let Some(policy) = &self.policy {
            tuples = policy.apply(access, tuples);
        }

        // Snapshot the (swappable) cost models once, so one plan is computed
        // against one consistent model pair even if a churn event lands
        // mid-call.
        let (latency, flaky) = {
            let state = self.state.lock().expect("source state poisoned");
            (state.latency.clone(), state.flaky.clone())
        };
        let planned_failures = flaky
            .as_ref()
            .map(|f| f.planned_failures(access))
            .unwrap_or(0);
        let allowed_retries = flaky.as_ref().map(|f| f.retries).unwrap_or(0);
        let succeeds = planned_failures <= allowed_retries;
        let failed_attempts = planned_failures.min(allowed_retries + 1);
        // Round trips: every failed attempt is one; the successful attempt
        // costs one per page.
        let pages = match self.page_size {
            Some(page_size) => tuples.len().div_ceil(page_size).max(1),
            None => 1,
        };
        let trips = failed_attempts as u64 + if succeeds { pages as u64 } else { 0 };
        let mut trip_micros = Vec::new();
        if let Some(latency) = &latency {
            trip_micros.extend((0..trips).map(|trip| latency.trip_micros(access, trip)));
        }
        Ok(CallPlan {
            tuples,
            succeeds,
            failed_attempts,
            allowed_retries,
            pages,
            paged: self.page_size.is_some(),
            trip_micros,
            sleep: latency.map(|l| l.sleep).unwrap_or(false),
        })
    }

    /// Records a planned call's statistics (exactly once per call, whether
    /// the round trips were slept or awaited).
    pub(crate) fn commit_plan(&self, plan: &CallPlan) {
        let mut state = self.state.lock().expect("source state poisoned");
        state.stats.simulated_latency_micros += plan.total_latency_micros();
        if plan.succeeds {
            state.stats.calls += 1;
            state.stats.retries += plan.failed_attempts;
            state.stats.tuples_returned += plan.tuples.len();
            if plan.paged {
                state.stats.pages_fetched += plan.pages;
            }
        } else {
            state.stats.retries += plan.allowed_retries;
            state.stats.failures += 1;
        }
    }

    /// The [`SourceError::Unavailable`] a failed plan surfaces as.
    pub(crate) fn unavailable(&self, plan: &CallPlan) -> SourceError {
        SourceError::Unavailable {
            source: self.name.clone(),
            reason: format!(
                "transient failure persisted through {} retries",
                plan.allowed_retries
            ),
        }
    }
}

/// The fully-resolved outcome of one simulated call: what will be returned,
/// whether the flaky model lets it succeed, and the latency of every
/// simulated round trip (failed attempts first, then one per page). The
/// models shape cost, never content, so the plan is a pure function of the
/// access.
#[derive(Debug, Clone)]
pub(crate) struct CallPlan {
    /// The exact matching tuples, sorted.
    pub(crate) tuples: Vec<Tuple>,
    /// Whether the call ultimately succeeds (retries absorb the failures).
    pub(crate) succeeds: bool,
    /// Failed attempts actually performed (≤ `allowed_retries + 1`).
    pub(crate) failed_attempts: usize,
    /// Retries the source was willing to perform.
    pub(crate) allowed_retries: usize,
    /// Pages of the successful response.
    pub(crate) pages: usize,
    /// Whether the source pages at all (for the pages-fetched counter).
    pub(crate) paged: bool,
    /// Per-round-trip latency, in microseconds (empty without a latency
    /// model).
    pub(crate) trip_micros: Vec<u64>,
    /// Whether the latency model in force asked for real sleeps (snapshotted
    /// with the model, so a mid-call swap cannot split the decision).
    pub(crate) sleep: bool,
}

impl CallPlan {
    /// Total simulated latency across every round trip.
    pub(crate) fn total_latency_micros(&self) -> u64 {
        self.trip_micros.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMode};
    use accrel_engine::ResponsePolicy;
    use accrel_schema::Schema;

    fn setup() -> (Instance, AccessMethods, Access) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        let acc = mb.add("RAcc", "R", &["a"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut inst = Instance::new(schema);
        for i in 0..10 {
            inst.insert_named("R", ["k".to_string(), format!("v{i}")])
                .unwrap();
        }
        (inst, methods, Access::new(acc, binding(["k"])))
    }

    #[test]
    fn exact_source_returns_sorted_matching_tuples() {
        let (inst, methods, access) = setup();
        let source = SimulatedSource::exact("s", inst, methods);
        let resp = source.call(&access).unwrap();
        assert_eq!(resp.len(), 10);
        let mut sorted = resp.tuples().to_vec();
        sorted.sort();
        assert_eq!(resp.tuples(), sorted.as_slice());
        let stats = source.stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.tuples_returned, 10);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failures, 0);
        source.reset_stats();
        assert_eq!(source.stats(), BackendStats::default());
    }

    #[test]
    fn latency_model_is_deterministic_and_recorded() {
        let (inst, methods, access) = setup();
        let source = SimulatedSource::exact("s", inst, methods).with_latency(LatencyModel {
            base_micros: 100,
            jitter_micros: 50,
            seed: 7,
            sleep: false,
        });
        source.call(&access).unwrap();
        let first = source.stats().simulated_latency_micros;
        assert!((100..150).contains(&first));
        source.reset_stats();
        source.call(&access).unwrap();
        // Same access, same deterministic latency.
        assert_eq!(source.stats().simulated_latency_micros, first);
    }

    #[test]
    fn flaky_model_counts_retries_separately_from_calls() {
        let (inst, methods, access) = setup();
        // Every access is flaky, fails twice, and three retries are allowed:
        // each call succeeds after two absorbed failures.
        let source = SimulatedSource::exact("s", inst, methods).with_flaky(FlakyModel {
            period: 1,
            fail_attempts: 2,
            retries: 3,
        });
        let resp = source.call(&access).unwrap();
        assert_eq!(resp.len(), 10);
        let stats = source.stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn flaky_model_exhausting_retries_fails_the_call() {
        let (inst, methods, access) = setup();
        let source = SimulatedSource::exact("s", inst, methods).with_flaky(FlakyModel {
            period: 1,
            fail_attempts: 5,
            retries: 1,
        });
        let err = source.call(&access).unwrap_err();
        assert!(matches!(err, SourceError::Unavailable { .. }));
        let stats = source.stats();
        assert_eq!(stats.calls, 0);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.retries, 1);
        // The outcome is deterministic: calling again fails identically.
        assert!(source.call(&access).is_err());
    }

    #[test]
    fn paged_source_counts_pages_and_returns_everything() {
        let (inst, methods, access) = setup();
        let source = SimulatedSource::exact("s", inst, methods)
            .with_paging(3)
            .with_latency(LatencyModel::recorded(10));
        let resp = source.call(&access).unwrap();
        assert_eq!(resp.len(), 10);
        let stats = source.stats();
        // 10 tuples in pages of 3 → 4 pages, each a 10µs round trip.
        assert_eq!(stats.pages_fetched, 4);
        assert_eq!(stats.simulated_latency_micros, 40);
    }

    /// A policy-equipped simulated source answers and counts exactly like
    /// the engine crate's `DeepWebSource` under the same policy.
    #[test]
    fn with_policy_answers_like_the_deep_web_source() {
        let (inst, methods, access) = setup();
        for policy in [
            ResponsePolicy::FirstK(4),
            ResponsePolicy::SoundSample {
                probability: 0.5,
                seed: 9,
            },
        ] {
            let deep =
                accrel_engine::DeepWebSource::new(inst.clone(), methods.clone(), policy.clone());
            let source =
                SimulatedSource::exact("policy", inst.clone(), methods.clone()).with_policy(policy);
            let resp = source.call(&access).unwrap();
            assert_eq!(resp.tuples(), deep.call(&access).unwrap().tuples());
            assert_eq!(source.stats(), deep.stats());
        }
    }

    #[test]
    fn backend_stats_merge_and_diff() {
        let a = BackendStats {
            calls: 3,
            retries: 1,
            tuples_returned: 12,
            pages_fetched: 2,
            simulated_latency_micros: 100,
            failovers: 1,
            ..BackendStats::default()
        };
        let b = a.merged(&a);
        assert_eq!(b.calls, 6);
        assert_eq!(b.failovers, 2);
        assert_eq!(b.pages_fetched, 4);
        assert_eq!(b.since(&a), a);
    }
}
