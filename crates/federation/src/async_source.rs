//! The async source trait, plus its adapter for the simulated backend.
//!
//! [`AsyncSource::call`] returns a boxed future instead of blocking the
//! calling thread: a high-latency deep-Web round trip becomes an await
//! point, so one thread can keep many accesses in flight — the paper's
//! federation of slow autonomous sources wants overlapping I/O, not more
//! threads.
//!
//! [`AsyncSimulatedSource`] wraps a [`SimulatedSource`] and realises its
//! latency / flaky-retry / paging models as an *awaitable state machine*:
//! every simulated round trip (each failed attempt, then each page of the
//! successful response) is one [`VirtualClock::sleep`] await, and a source
//! without a latency model answers on its first poll, leaving the clock
//! alone. The plan — content, failure outcome, per-trip latencies — is
//! computed by the same `SimulatedSource` code the threaded path runs, so
//! both paths report identical [`BackendStats`] (calls / retries / failures
//! / pages / simulated latency) and identical responses; only how the
//! waiting happens differs (virtual awaits instead of a `thread::sleep`).
//! The `LatencyModel::sleep` flag is ignored here: the async runtime never
//! sleeps for real.

use std::future::Future;
use std::pin::Pin;

use accrel_access::{Access, AccessMethods, Response};
use accrel_engine::BackendStats;

use crate::error::SourceError;
use crate::executor::VirtualClock;
use crate::source::{LatencyModel, SimulatedSource};

/// The boxed future of one async source call. Not `Send`: the mini-executor
/// is single-threaded, so futures never cross threads (the *sources* are
/// still `Send + Sync` — many executors may use one source, one at a time
/// each).
pub type SourceFuture<'a> = Pin<Box<dyn Future<Output = Result<Response, SourceError>> + 'a>>;

/// An asynchronous deep-Web source: the engine learns about the hidden data
/// only by awaiting [`AsyncSource::call`]. The contract mirrors
/// [`SimulatedSource`]'s methods member for member; implementations whose
/// response is a deterministic function of the access alone (such as
/// [`AsyncSimulatedSource`]) inherit the executors' sequential-equivalence
/// guarantee.
///
/// **Suspension contract:** the runtime driving these futures is the
/// single-threaded mini-executor, which advances the shared
/// [`VirtualClock`] when no task is ready but never parks waiting for an
/// external wake. A call future must therefore only suspend on that clock
/// (directly or transitively through [`VirtualClock::sleep`] /
/// [`crate::Semaphore`]) or resolve without suspending — a future woken
/// from another thread (real I/O, a channel) is reported as stuck by
/// [`crate::Executor::run`] and fails the `Async` executor's run with a
/// panic. Bridging genuinely external work needs a reactor behind this
/// trait (see the ROADMAP's "real async I/O" item).
pub trait AsyncSource: Send + Sync {
    /// A human-readable source name (used in stats and error messages).
    fn name(&self) -> &str;
    /// The access methods this source understands.
    fn methods(&self) -> &AccessMethods;
    /// Starts an access; the returned future resolves to its (sound)
    /// response, or an error for calls the source could not serve. The
    /// access is taken by value so the future owns everything it needs.
    /// Must honour the trait's suspension contract (virtual-clock waits
    /// only).
    fn call(&self, access: Access) -> SourceFuture<'_>;
    /// Cumulative backend statistics.
    fn stats(&self) -> BackendStats;
    /// Resets the statistics (and any per-run simulation counters).
    fn reset_stats(&self);
    /// Swaps the source's latency model mid-run (`None` removes it).
    /// Default no-op: only simulated backends have a model to swap;
    /// [`AsyncSimulatedSource`] forwards to the wrapped synchronous source.
    /// Cost-only — a swap never changes response content.
    fn set_latency(&self, latency: Option<LatencyModel>) {
        let _ = latency;
    }
    /// Swaps the source's transient-failure model mid-run (`None` removes
    /// it). Default no-op, like [`AsyncSource::set_latency`].
    fn set_flaky(&self, flaky: Option<crate::source::FlakyModel>) {
        let _ = flaky;
    }
}

/// [`SimulatedSource`] with its round trips awaited on a [`VirtualClock`]
/// instead of slept: same responses, same statistics, no real time.
#[derive(Debug)]
pub struct AsyncSimulatedSource {
    inner: SimulatedSource,
    clock: VirtualClock,
}

impl AsyncSimulatedSource {
    /// Wraps `inner`, drawing its latencies from `clock` (share the clock
    /// of the federation / executor that will drive the calls).
    pub fn new(inner: SimulatedSource, clock: VirtualClock) -> Self {
        Self { inner, clock }
    }

    /// The wrapped synchronous source.
    pub fn inner(&self) -> &SimulatedSource {
        &self.inner
    }
}

impl AsyncSource for AsyncSimulatedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn methods(&self) -> &AccessMethods {
        self.inner.methods()
    }

    fn call(&self, access: Access) -> SourceFuture<'_> {
        Box::pin(async move {
            let plan = self.inner.plan_call(&access)?;
            // The awaitable state machine: one virtual round trip per
            // failed attempt, then one per page of the successful response
            // (the plan lists them in exactly that order).
            for &micros in &plan.trip_micros {
                if micros > 0 {
                    self.clock.sleep(micros).await;
                }
            }
            self.inner.commit_plan(&plan);
            if !plan.succeeds {
                return Err(self.inner.unavailable(&plan));
            }
            Ok(Response::new(plan.tuples))
        })
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn set_latency(&self, latency: Option<LatencyModel>) {
        self.inner.set_latency(latency)
    }

    fn set_flaky(&self, flaky: Option<crate::source::FlakyModel>) {
        self.inner.set_flaky(flaky)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::source::{FlakyModel, LatencyModel};
    use accrel_access::{binding, AccessMode};
    use accrel_schema::{Instance, Schema};

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

    fn drive(clock: &VirtualClock, future: SourceFuture<'_>) -> Result<Response, SourceError> {
        let exec = Executor::new(clock.clone());
        let handle = exec.spawn(future);
        assert_eq!(exec.run(), 0, "source future blocked on a non-timer");
        handle.take().expect("source future completed")
    }

    #[test]
    fn async_simulated_source_matches_sync_twin_exactly() {
        let (inst, methods, access) = setup();
        let build = || {
            SimulatedSource::exact("s", inst.clone(), methods.clone())
                .with_latency(LatencyModel {
                    base_micros: 100,
                    jitter_micros: 50,
                    seed: 7,
                    sleep: false,
                })
                .with_flaky(FlakyModel {
                    period: 1,
                    fail_attempts: 2,
                    retries: 3,
                })
                .with_paging(3)
        };
        let sync = build();
        let clock = VirtualClock::new();
        let async_src = AsyncSimulatedSource::new(build(), clock.clone());
        let sync_resp = sync.call(&access).unwrap();
        let async_resp = drive(&clock, async_src.call(access.clone())).unwrap();
        assert_eq!(sync_resp.tuples(), async_resp.tuples());
        // Identical statistics: calls, retries, pages, simulated latency.
        assert_eq!(sync.stats(), AsyncSource::stats(&async_src));
        // The virtual clock advanced by exactly the simulated latency.
        assert_eq!(
            clock.now_micros(),
            AsyncSource::stats(&async_src).simulated_latency_micros
        );
    }

    #[test]
    fn async_flaky_source_fails_like_the_sync_twin() {
        let (inst, methods, access) = setup();
        let build = || {
            SimulatedSource::exact("s", inst.clone(), methods.clone()).with_flaky(FlakyModel {
                period: 1,
                fail_attempts: 5,
                retries: 1,
            })
        };
        let sync = build();
        let clock = VirtualClock::new();
        let async_src = AsyncSimulatedSource::new(build(), clock.clone());
        let sync_err = sync.call(&access).unwrap_err();
        let async_err = drive(&clock, async_src.call(access.clone())).unwrap_err();
        assert_eq!(sync_err, async_err);
        assert_eq!(sync.stats(), AsyncSource::stats(&async_src));
        let stats = AsyncSource::stats(&async_src);
        assert_eq!((stats.calls, stats.retries, stats.failures), (0, 1, 1));
    }
}
