//! The routing core both federations share: the method → replica table, the
//! registrations that build it, the chaos controller behind it, per-source
//! statistics, and the replica walk.
//!
//! A source's statistics are its own [`BackendStats`] merged with the chaos
//! counters the controller charged to it, and a federation's statistics
//! are the sum of its sources': the aggregate and the per-source views
//! always balance, and [`Routes::reset_stats`] zeroes both.
//!
//! [`Routes`] owns the registered sources and is generic over how they are
//! called: [`crate::Federation`] holds `Routes<dyn Source>`,
//! [`crate::AsyncFederation`] holds `Routes<dyn AsyncSource>`. Only a call
//! differs between the two, and [`ReplicaWalk`] keeps even that to a loop:
//! the walk decides each step (which replica to try next, and when the call
//! is settled), its caller makes the call — blocking or awaited — and hands
//! the result back, in the style of `accrel_engine::MergeLoop`.

use std::sync::Arc;

use accrel_access::{AccessMethodId, AccessMethods, Response};
use accrel_engine::BackendStats;

use crate::async_source::AsyncSource;
use crate::chaos::{ChaosController, ChaosOptions, Gate, ModelSwap};
use crate::error::{FederationError, SourceError};
use crate::executor::VirtualClock;
use crate::source::{FlakyModel, LatencyModel, Source};

/// What the routing core needs of a registered source, sync or async.
pub(crate) trait Backend {
    fn name(&self) -> &str;
    fn methods(&self) -> &AccessMethods;
    fn stats(&self) -> BackendStats;
    fn reset_stats(&self);
    fn set_latency(&self, latency: Option<LatencyModel>);
    fn set_flaky(&self, flaky: Option<FlakyModel>);
}

/// Forwards [`Backend`] to a source trait's own members, for its trait
/// objects.
macro_rules! backend_via {
    ($source:ident) => {
        impl Backend for dyn $source {
            fn name(&self) -> &str {
                $source::name(self)
            }
            fn methods(&self) -> &AccessMethods {
                $source::methods(self)
            }
            fn stats(&self) -> BackendStats {
                $source::stats(self)
            }
            fn reset_stats(&self) {
                $source::reset_stats(self)
            }
            fn set_latency(&self, latency: Option<LatencyModel>) {
                $source::set_latency(self, latency)
            }
            fn set_flaky(&self, flaky: Option<FlakyModel>) {
                $source::set_flaky(self, flaky)
            }
        }
    };
}

backend_via!(Source);
backend_via!(AsyncSource);

/// A registry of sources sharing one access-method registry, with a total
/// routing from methods to ordered replica sets (primary first) and an
/// optional chaos controller gating the replicas.
pub(crate) struct Routes<S: ?Sized> {
    methods: AccessMethods,
    sources: Vec<Box<S>>,
    /// Method index → ordered replica set (source indices, primary first).
    route: Vec<Vec<usize>>,
    chaos: Option<ChaosController>,
}

impl<S: ?Sized + Backend> std::fmt::Debug for Routes<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Routes")
            .field("methods", &self.methods.len())
            .field(
                "sources",
                &self.sources.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .field("route", &self.route)
            .finish()
    }
}

impl<S: ?Sized + Backend> Routes<S> {
    /// One source serving every method of its registry, without chaos.
    pub(crate) fn single(source: Box<S>) -> Self {
        let methods = source.methods().clone();
        let route = vec![vec![0]; methods.len()];
        Routes {
            methods,
            sources: vec![source],
            route,
            chaos: None,
        }
    }

    pub(crate) fn methods(&self) -> &AccessMethods {
        &self.methods
    }

    pub(crate) fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// The ordered replica set serving `method`, primary first.
    pub(crate) fn replicas(&self, method: AccessMethodId) -> impl Iterator<Item = &S> {
        self.route
            .get(method.index())
            .into_iter()
            .flatten()
            .map(|&i| &*self.sources[i])
    }

    pub(crate) fn chaos(&self) -> Option<&ChaosController> {
        self.chaos.as_ref()
    }

    /// Source `index`'s statistics, with the chaos counters charged to it.
    fn source_stats(&self, index: usize) -> BackendStats {
        let stats = self.sources[index].stats();
        match &self.chaos {
            Some(chaos) => stats.merged(&chaos.source_stats(index)),
            None => stats,
        }
    }

    /// Aggregate statistics: the sum of the per-source statistics.
    pub(crate) fn stats(&self) -> BackendStats {
        (0..self.sources.len()).fold(BackendStats::default(), |acc, i| {
            acc.merged(&self.source_stats(i))
        })
    }

    /// Per-source statistics, in registration order.
    pub(crate) fn per_source_stats(&self) -> Vec<(String, BackendStats)> {
        self.sources
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name().to_string(), self.source_stats(i)))
            .collect()
    }

    /// Resets every source's statistics and the chaos counters; liveness
    /// and breaker state are untouched.
    pub(crate) fn reset_stats(&self) {
        for s in &self.sources {
            s.reset_stats();
        }
        if let Some(chaos) = &self.chaos {
            chaos.reset_stats();
        }
    }

    /// The primary serving `method` when no chaos layer can redirect the
    /// call: its result is the call's result, so the caller may hand it out
    /// directly instead of walking.
    pub(crate) fn direct(&self, method: AccessMethodId) -> Option<&S> {
        match self.chaos {
            Some(_) => None,
            None => self.replicas(method).next(),
        }
    }

    /// Starts routing one access of `method` along its replica set.
    pub(crate) fn walk(&self, method: AccessMethodId) -> ReplicaWalk<'_, S> {
        ReplicaWalk {
            routes: self,
            method,
            position: 0,
            settled: None,
            last_err: None,
        }
    }
}

/// What a [`ReplicaWalk::step`] asks of its caller.
pub(crate) enum WalkStep<'r, S: ?Sized> {
    /// Call this source, hand the result to [`ReplicaWalk::supply`], then
    /// step again.
    Call(&'r S),
    /// The call is settled.
    Done(Result<Response, SourceError>),
}

/// One access's walk along its replica set, as a sans-IO state machine:
/// the routing [`crate::Federation::call`] documents, for both federations.
/// Without a chaos controller the primary's result is final; with one, the
/// first step fires the churn events now due.
pub(crate) struct ReplicaWalk<'r, S: ?Sized> {
    routes: &'r Routes<S>,
    method: AccessMethodId,
    /// Route positions tried or skipped so far.
    position: usize,
    settled: Option<Result<Response, SourceError>>,
    last_err: Option<SourceError>,
}

impl<'r, S: ?Sized + Backend> ReplicaWalk<'r, S> {
    /// The next source to call, or the call's final result.
    pub(crate) fn step(&mut self) -> WalkStep<'r, S> {
        if let Some(result) = self.settled.take() {
            return WalkStep::Done(result);
        }
        let routes = self.routes;
        let Some(route) = routes
            .route
            .get(self.method.index())
            .filter(|r| !r.is_empty())
        else {
            let reason = format!("no source serves {}", self.method);
            return WalkStep::Done(Err(unavailable(reason)));
        };
        let chaos = routes.chaos.as_ref();
        if self.position == 0 {
            // The walk's first step ticks the chaos layer.
            for (idx, swap) in chaos.map(ChaosController::on_call).unwrap_or_default() {
                match swap {
                    ModelSwap::Latency(l) => routes.sources[idx].set_latency(l),
                    ModelSwap::Flaky(f) => routes.sources[idx].set_flaky(f),
                }
            }
        }
        while let Some(&source) = route.get(self.position) {
            self.position += 1;
            if chaos.is_none_or(|c| c.gate(source) == Gate::Allow) {
                return WalkStep::Call(&*routes.sources[source]);
            }
        }
        WalkStep::Done(Err(self.last_err.take().unwrap_or_else(|| {
            unavailable(format!(
                "every replica of {} is dead or open-circuit",
                self.method
            ))
        })))
    }

    /// Hands back the result of the source the last step named.
    pub(crate) fn supply(&mut self, result: Result<Response, SourceError>) {
        let Some(chaos) = &self.routes.chaos else {
            self.settled = Some(result);
            return;
        };
        let position = self.position - 1;
        let source = self.routes.route[self.method.index()][position];
        match result {
            Ok(response) => {
                chaos.record(source, true);
                if position > 0 {
                    chaos.note_failover(source);
                }
                self.settled = Some(Ok(response));
            }
            Err(SourceError::Access(e)) => self.settled = Some(Err(SourceError::Access(e))),
            Err(err) => {
                chaos.record(source, false);
                self.last_err = Some(err);
            }
        }
    }
}

fn unavailable(reason: String) -> SourceError {
    SourceError::Unavailable {
        source: "<federation>".to_string(),
        reason,
    }
}

/// Builder for [`Routes`]: registrations are validated as they arrive, the
/// route table's totality and the chaos script's source names at
/// [`RoutesBuilder::build`].
pub(crate) struct RoutesBuilder<S: ?Sized> {
    /// The registry so far, without its chaos controller.
    routes: Routes<S>,
    chaos: Option<ChaosOptions>,
}

impl<S: ?Sized + Backend> std::fmt::Debug for RoutesBuilder<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.routes.fmt(f)
    }
}

impl<S: ?Sized + Backend> RoutesBuilder<S> {
    pub(crate) fn new(methods: AccessMethods) -> Self {
        let route = vec![Vec::new(); methods.len()];
        RoutesBuilder {
            routes: Routes {
                methods,
                sources: Vec::new(),
                route,
                chaos: None,
            },
            chaos: None,
        }
    }

    /// Registers `source` for the named methods: as their primary (at most
    /// one per method) or appended to their replica sets. The source must
    /// range over the same schema instance as the registry.
    pub(crate) fn register(
        mut self,
        source: Box<S>,
        method_names: &[&str],
        primary: bool,
    ) -> Result<Self, FederationError> {
        let routes = &mut self.routes;
        if !Arc::ptr_eq(source.methods().schema(), routes.methods.schema()) {
            return Err(FederationError::SchemaMismatch {
                source: source.name().to_string(),
            });
        }
        let index = routes.sources.len();
        for name in method_names {
            let id = routes
                .methods
                .by_name(name)
                .map_err(|_| FederationError::UnknownMethod((*name).to_string()))?;
            let route = &mut routes.route[id.index()];
            if primary && !route.is_empty() {
                return Err(FederationError::DuplicateRoute {
                    method: (*name).to_string(),
                });
            }
            route.push(index);
        }
        routes.sources.push(source);
        Ok(self)
    }

    pub(crate) fn with_chaos(mut self, options: ChaosOptions) -> Self {
        self.chaos = Some(options);
        self
    }

    /// Finalises the registry; every method must have a serving source. A
    /// chaos layer fires its script against `chaos_clock`.
    pub(crate) fn build(self, chaos_clock: VirtualClock) -> Result<Routes<S>, FederationError> {
        let mut routes = self.routes;
        let unrouted: Vec<String> = routes
            .route
            .iter()
            .enumerate()
            .filter(|(_, route)| route.is_empty())
            .map(|(i, _)| {
                routes
                    .methods
                    .get(AccessMethodId(i as u32))
                    .map(|m| m.name().to_string())
                    .unwrap_or_else(|_| format!("#{i}"))
            })
            .collect();
        if !unrouted.is_empty() {
            return Err(FederationError::UnroutedMethods(unrouted));
        }
        if let Some(options) = &self.chaos {
            let names: Vec<&str> = routes.sources.iter().map(|s| s.name()).collect();
            routes.chaos = Some(ChaosController::new(options, &names, chaos_clock)?);
        }
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{BreakerOptions, BreakerState, ChurnScript};
    use crate::executor::Executor;
    use crate::source::SimulatedSource;
    use crate::{AsyncFederation, Federation};
    use accrel_access::{binding, Access, AccessMode};
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

    fn source(name: &str, inst: &Instance, methods: &AccessMethods) -> Box<dyn Source> {
        Box::new(SimulatedSource::exact(name, inst.clone(), methods.clone()))
    }

    #[test]
    fn builder_rejects_bad_registrations() {
        let (methods, inst) = setup();
        let builder = || RoutesBuilder::<dyn Source>::new(methods.clone());
        let err = builder()
            .register(source("s", &inst, &methods), &["Nope"], true)
            .unwrap_err();
        assert!(matches!(err, FederationError::UnknownMethod(_)));
        let err = builder()
            .register(source("a", &inst, &methods), &["RAcc"], true)
            .unwrap()
            .register(source("b", &inst, &methods), &["RAcc"], true)
            .unwrap_err();
        assert!(matches!(err, FederationError::DuplicateRoute { .. }));
        let err = builder()
            .register(source("a", &inst, &methods), &["RAcc"], true)
            .unwrap()
            .build(VirtualClock::new())
            .unwrap_err();
        assert!(matches!(err, FederationError::UnroutedMethods(_)));
        let (other_methods, other_inst) = setup();
        let err = builder()
            .register(
                source("other", &other_inst, &other_methods),
                &["RAcc"],
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FederationError::SchemaMismatch { .. }));
        let err = builder()
            .register(source("a", &inst, &methods), &["RAcc", "SAll"], true)
            .unwrap()
            .with_chaos(ChaosOptions::scripted(
                ChurnScript::builder().kill(1, "ghost").build(),
                0,
            ))
            .build(VirtualClock::new())
            .unwrap_err();
        assert_eq!(err, FederationError::UnknownSource("ghost".into()));
    }

    /// Regression: the async federation's per-source stats carry the same
    /// breaker accounting as the sync one, and each federation's aggregate
    /// is the sum of its per-source views. One script, a flaky primary and
    /// a healthy backup, three calls through each federation: the primary
    /// trips once, then short-circuits twice, and the backup answers all
    /// three as failovers.
    #[test]
    fn both_federations_report_the_same_per_source_breaker_stats() {
        let (methods, inst) = setup();
        let primary = || {
            SimulatedSource::exact("primary", inst.clone(), methods.clone()).with_flaky(
                crate::FlakyModel {
                    period: 1,
                    fail_attempts: 9,
                    retries: 0,
                },
            )
        };
        let backup = || SimulatedSource::exact("backup", inst.clone(), methods.clone());
        let chaos = ChaosOptions {
            script: ChurnScript::new(),
            breaker: Some(BreakerOptions {
                trip_threshold: 1,
                cooldown_micros: 1_000,
            }),
            pace_micros_per_call: 0,
        };
        let names = ["RAcc", "SAll"];
        let access = Access::new(methods.by_name("RAcc").unwrap(), binding(["k"]));

        let sync = Federation::builder(methods.clone())
            .source(primary(), &names)
            .unwrap()
            .replica(backup(), &names)
            .unwrap()
            .with_chaos(chaos.clone())
            .build()
            .unwrap();
        let asynced = AsyncFederation::builder(methods.clone())
            .simulated(primary(), &names)
            .unwrap()
            .simulated_replica(backup(), &names)
            .unwrap()
            .with_chaos(chaos)
            .build()
            .unwrap();
        for _ in 0..3 {
            assert_eq!(sync.call(&access).unwrap().len(), 1);
            let exec = Executor::new(asynced.clock().clone());
            let call = exec.spawn(asynced.call(access.clone()));
            assert_eq!(exec.run(), 0);
            assert_eq!(call.take().unwrap().unwrap().len(), 1);
        }

        let per_source = sync.per_source_stats();
        assert_eq!(per_source, asynced.per_source_stats());
        assert_eq!(per_source[0].0, "primary");
        assert_eq!(per_source[0].1.breaker_trips, 1);
        assert_eq!(per_source[0].1.short_circuited, 2);
        assert_eq!(per_source[1].1.calls, 3);
        assert_eq!(per_source[1].1.failovers, 3);
        let sum = |per_source: Vec<(String, BackendStats)>| {
            per_source
                .iter()
                .fold(BackendStats::default(), |acc, (_, s)| acc.merged(s))
        };
        for (stats, per_source) in [
            (sync.stats(), sync.per_source_stats()),
            (asynced.stats(), asynced.per_source_stats()),
        ] {
            assert_eq!(stats, sum(per_source));
            assert_eq!(
                (stats.breaker_trips, stats.short_circuited, stats.failovers),
                (1, 2, 3)
            );
        }

        // A reset zeroes every counter but leaves the chaos state alone.
        let state = || {
            [sync.chaos(), asynced.chaos()]
                .map(|chaos| chaos.map(|c| (c.breaker_state(0), c.is_alive(0))))
        };
        let before = state();
        assert_eq!(before[0], Some((Some(BreakerState::Open), true)));
        sync.reset_stats();
        asynced.reset_stats();
        assert_eq!(state(), before);
        for (stats, per_source) in [
            (sync.stats(), sync.per_source_stats()),
            (asynced.stats(), asynced.per_source_stats()),
        ] {
            assert_eq!(stats, BackendStats::default());
            assert!(per_source
                .iter()
                .all(|(_, s)| *s == BackendStats::default()));
        }
    }
}
