//! The async federation registry: [`crate::Federation`]'s twin over
//! [`AsyncSource`]s, sharing one [`VirtualClock`].
//!
//! The registry owns the virtual clock its simulated sources draw latencies
//! from; the `Async` executor runs its batches over the same clock, so
//! `clock().now_micros()` before and after a run measures the run's
//! *simulated* makespan — the metric the F2 throughput sweep reports
//! without a single real sleep.

use std::sync::Arc;

use accrel_access::{Access, AccessMethodId, AccessMethods};
use accrel_engine::BackendStats;
use accrel_schema::Schema;

use crate::async_source::{AsyncSimulatedSource, AsyncSource, SourceFuture};
use crate::chaos::{ChaosController, ChaosOptions};
use crate::error::FederationError;
use crate::executor::VirtualClock;
use crate::routing::{Routes, RoutesBuilder, WalkStep};
use crate::source::SimulatedSource;

/// A registry of autonomous *async* sources sharing one access-method
/// registry and one virtual clock, with a total routing from methods to
/// *ordered replica sets* of sources. Mirrors [`crate::Federation`] member
/// for member; the runtime difference is that [`AsyncFederation::call`]
/// hands back a future to be polled alongside other in-flight accesses
/// instead of blocking a worker thread. An attached [`ChaosController`]
/// fires its churn script against the federation's own virtual clock, so
/// chaotic async runs are fully deterministic (no pace heuristic needed).
#[derive(Debug)]
pub struct AsyncFederation {
    routes: Routes<dyn AsyncSource>,
    clock: VirtualClock,
}

impl AsyncFederation {
    /// Starts assembling an async federation over `methods`, with a fresh
    /// virtual clock at time zero.
    pub fn builder(methods: AccessMethods) -> AsyncFederationBuilder {
        AsyncFederationBuilder {
            routes: RoutesBuilder::new(methods),
            clock: VirtualClock::new(),
        }
    }

    /// One [`SimulatedSource`] serving every method, wrapped as an
    /// [`AsyncSimulatedSource`] over the federation's clock.
    pub fn single_simulated(source: SimulatedSource) -> Self {
        let clock = VirtualClock::new();
        AsyncFederation {
            routes: Routes::single(Box::new(AsyncSimulatedSource::new(source, clock.clone()))),
            clock,
        }
    }

    /// The virtual clock the federation's simulated latencies advance.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The shared access-method registry.
    pub fn methods(&self) -> &AccessMethods {
        self.routes.methods()
    }

    /// The schema the federation ranges over.
    pub fn schema(&self) -> &Arc<Schema> {
        self.routes.methods().schema()
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.routes.source_count()
    }

    /// The primary source serving `method`.
    pub fn source_for(&self, method: AccessMethodId) -> Option<&dyn AsyncSource> {
        self.routes.replicas(method).next()
    }

    /// The chaos controller, when one is attached.
    pub fn chaos(&self) -> Option<&ChaosController> {
        self.routes.chaos()
    }

    /// Routes an access along its replica set and starts it; the returned
    /// future resolves once the serving source's simulated round trips
    /// elapse on the shared clock. Without a chaos controller this is the
    /// primary's own future. With one, the future walks the route exactly
    /// like [`crate::Federation::call`] (tick due churn events, skip dead /
    /// open-circuit replicas, feed breaker outcomes, count failovers),
    /// awaiting each attempted replica in order.
    pub fn call(&self, access: Access) -> SourceFuture<'_> {
        if let Some(primary) = self.routes.direct(access.method()) {
            return primary.call(access);
        }
        Box::pin(async move {
            let mut walk = self.routes.walk(access.method());
            loop {
                match walk.step() {
                    WalkStep::Call(source) => walk.supply(source.call(access.clone()).await),
                    WalkStep::Done(result) => return result,
                }
            }
        })
    }

    /// Aggregate statistics: the field-wise sum of
    /// [`AsyncFederation::per_source_stats`].
    pub fn stats(&self) -> BackendStats {
        self.routes.stats()
    }

    /// Per-source statistics, in registration order, with the same chaos
    /// counters as [`crate::Federation::per_source_stats`].
    pub fn per_source_stats(&self) -> Vec<(String, BackendStats)> {
        self.routes.per_source_stats()
    }

    /// Resets every source's statistics and the chaos counters (liveness
    /// and breaker state are untouched).
    pub fn reset_stats(&self) {
        self.routes.reset_stats()
    }
}

/// Builder for [`AsyncFederation`].
#[derive(Debug)]
pub struct AsyncFederationBuilder {
    routes: RoutesBuilder<dyn AsyncSource>,
    clock: VirtualClock,
}

impl AsyncFederationBuilder {
    /// The clock the finished federation will run on (for wiring custom
    /// [`AsyncSource`] implementations to the same virtual time).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn register(
        self,
        source: Box<dyn AsyncSource>,
        method_names: &[&str],
        primary: bool,
    ) -> Result<Self, FederationError> {
        Ok(AsyncFederationBuilder {
            routes: self.routes.register(source, method_names, primary)?,
            clock: self.clock,
        })
    }

    /// Registers `source` as the primary server of the named methods. The
    /// source must range over the same schema instance as the federation.
    pub fn source(
        self,
        source: impl AsyncSource + 'static,
        method_names: &[&str],
    ) -> Result<Self, FederationError> {
        self.register(Box::new(source), method_names, true)
    }

    /// Registers `source` as a fallback replica of the named methods,
    /// appended to the end of each method's replica set. Replicas are only
    /// consulted under an attached chaos controller, when every
    /// earlier-listed replica is dead, open-circuit or failing.
    pub fn replica(
        self,
        source: impl AsyncSource + 'static,
        method_names: &[&str],
    ) -> Result<Self, FederationError> {
        self.register(Box::new(source), method_names, false)
    }

    /// Registers a [`SimulatedSource`] wrapped over the federation's clock
    /// (its latency model is awaited virtually, never slept).
    pub fn simulated(
        self,
        source: SimulatedSource,
        method_names: &[&str],
    ) -> Result<Self, FederationError> {
        let clock = self.clock.clone();
        self.source(AsyncSimulatedSource::new(source, clock), method_names)
    }

    /// Registers a [`SimulatedSource`] as a fallback replica, wrapped over
    /// the federation's clock (the async counterpart of
    /// [`crate::FederationBuilder::replica`]).
    pub fn simulated_replica(
        self,
        source: SimulatedSource,
        method_names: &[&str],
    ) -> Result<Self, FederationError> {
        let clock = self.clock.clone();
        self.replica(AsyncSimulatedSource::new(source, clock), method_names)
    }

    /// Attaches a chaos controller driven by the federation's own virtual
    /// clock. Because the executor advances that clock as awaited latencies
    /// elapse, `options.pace_micros_per_call` is forced to zero here: churn
    /// events fire when virtual time genuinely reaches them, not on a
    /// per-call pace heuristic (that heuristic exists only for the sync
    /// [`crate::Federation`], which has no executor clock).
    pub fn with_chaos(self, mut options: ChaosOptions) -> Self {
        options.pace_micros_per_call = 0;
        AsyncFederationBuilder {
            routes: self.routes.with_chaos(options),
            clock: self.clock,
        }
    }

    /// Finalises the federation; every method must have a serving source.
    pub fn build(self) -> Result<AsyncFederation, FederationError> {
        Ok(AsyncFederation {
            routes: self.routes.build(self.clock.clone())?,
            clock: self.clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{BreakerOptions, BreakerState, ChurnScript};
    use crate::executor::Executor;
    use crate::source::{FlakyModel, LatencyModel};
    use accrel_access::{binding, AccessMode};
    use accrel_schema::{Instance, Schema};

    fn setup() -> (AccessMethods, Instance) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("RAcc", "R", &["a"], AccessMode::Dependent).unwrap();
        mb.add_free("SAll", "S", AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut inst = Instance::new(schema);
        inst.insert_named("R", ["k", "v"]).unwrap();
        inst.insert_named("S", ["k"]).unwrap();
        (methods, inst)
    }

    #[test]
    fn routing_dispatches_and_advances_the_shared_clock() {
        let (methods, inst) = setup();
        let r_source = SimulatedSource::exact("r-provider", inst.clone(), methods.clone())
            .with_latency(LatencyModel::recorded(40));
        let s_source = SimulatedSource::exact("s-provider", inst, methods.clone());
        let federation = AsyncFederation::builder(methods.clone())
            .simulated(r_source, &["RAcc"])
            .unwrap()
            .simulated(s_source, &["SAll"])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(federation.source_count(), 2);
        let r_acc = methods.by_name("RAcc").unwrap();
        let s_all = methods.by_name("SAll").unwrap();
        assert_eq!(federation.source_for(r_acc).unwrap().name(), "r-provider");
        assert_eq!(federation.source_for(s_all).unwrap().name(), "s-provider");

        let exec = Executor::new(federation.clock().clone());
        let r_call = exec.spawn(federation.call(Access::new(r_acc, binding(["k"]))));
        let s_call = exec.spawn(federation.call(Access::new(s_all, binding(Vec::<&str>::new()))));
        assert_eq!(exec.run(), 0);
        assert_eq!(r_call.take().unwrap().unwrap().len(), 1);
        assert_eq!(s_call.take().unwrap().unwrap().len(), 1);
        // Only the simulated provider's 40µs round trip advanced the clock.
        assert_eq!(federation.clock().now_micros(), 40);
        let per_source = federation.per_source_stats();
        assert_eq!(per_source.len(), 2);
        assert_eq!(per_source[0].1.calls, 1);
        assert_eq!(per_source[1].1.calls, 1);
        assert_eq!(federation.stats().calls, 2);
        federation.reset_stats();
        assert_eq!(federation.stats().calls, 0);
        assert!(format!("{federation:?}").contains("r-provider"));
    }

    /// Satellite regression: the half-open probe slot is single-flight.
    /// Two calls dispatched at the same virtual instant both find the
    /// primary's breaker `HalfOpen`; before the probe-claim fix both flew a
    /// probe (the derived `state()` cannot see the other call), doubling
    /// wire traffic against a source still presumed sick.
    #[test]
    fn half_open_probe_is_single_flight_across_concurrent_calls() {
        let (methods, inst) = setup();
        let primary = SimulatedSource::exact("primary", inst.clone(), methods.clone())
            .with_latency(LatencyModel::recorded(10))
            .with_flaky(FlakyModel {
                period: 1,
                fail_attempts: 9,
                retries: 0,
            });
        let backup = SimulatedSource::exact("backup", inst, methods.clone());
        let federation = AsyncFederation::builder(methods.clone())
            .simulated(primary, &["RAcc", "SAll"])
            .unwrap()
            .simulated_replica(backup, &["RAcc", "SAll"])
            .unwrap()
            .with_chaos(ChaosOptions {
                script: ChurnScript::new(),
                breaker: Some(BreakerOptions {
                    trip_threshold: 1,
                    cooldown_micros: 100,
                }),
                pace_micros_per_call: 0,
            })
            .build()
            .unwrap();
        let r_acc = methods.by_name("RAcc").unwrap();
        let exec = Executor::new(federation.clock().clone());

        // Trip the breaker: the primary fails once, the call fails over.
        let first = exec.spawn(federation.call(Access::new(r_acc, binding(["k"]))));
        assert_eq!(exec.run(), 0);
        assert_eq!(first.take().unwrap().unwrap().len(), 1);
        let chaos = federation.chaos().unwrap();
        assert_eq!(chaos.breaker_state(0), Some(BreakerState::Open));

        // Sit out the cooldown, then dispatch two calls concurrently. Both
        // gate at the same virtual instant under a HalfOpen breaker: the
        // first claims the probe (and awaits the primary's round trip), the
        // second must short-circuit straight to the backup.
        federation.clock().advance_micros(200);
        assert_eq!(chaos.breaker_state(0), Some(BreakerState::HalfOpen));
        let a = exec.spawn(federation.call(Access::new(r_acc, binding(["k"]))));
        let b = exec.spawn(federation.call(Access::new(r_acc, binding(["k"]))));
        assert_eq!(exec.run(), 0);
        assert_eq!(a.take().unwrap().unwrap().len(), 1);
        assert_eq!(b.take().unwrap().unwrap().len(), 1);

        // The primary saw exactly two wire calls (both failed): the
        // original trip and ONE half-open probe.
        let per_source = federation.per_source_stats();
        assert_eq!(per_source[0].0, "primary");
        assert_eq!(per_source[0].1.failures, 2);
        assert_eq!(per_source[0].1.breaker_trips, 2);
        assert_eq!(per_source[0].1.short_circuited, 1);
        let stats = federation.stats();
        assert_eq!(stats.short_circuited, 1);
        assert_eq!(stats.breaker_trips, 2); // initial trip + failed probe
        assert_eq!(stats.failovers, 3); // every call was served by the backup
    }

    #[test]
    fn single_simulated_federation_serves_everything() {
        let (methods, inst) = setup();
        let federation = AsyncFederation::single_simulated(SimulatedSource::exact(
            "only",
            inst,
            methods.clone(),
        ));
        for (id, _) in methods.iter() {
            assert!(federation.source_for(id).is_some());
        }
        assert_eq!(federation.schema().relation_count(), 2);
        assert_eq!(federation.clock().now_micros(), 0);
    }
}
