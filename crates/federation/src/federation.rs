//! The federation registry: which source serves which access method.

use std::sync::Arc;

use accrel_access::{Access, AccessMethodId, AccessMethods, Response};
use accrel_engine::BackendStats;
use accrel_schema::Schema;

use crate::chaos::{ChaosController, ChaosOptions};
use crate::error::{FederationError, SourceError};
use crate::executor::VirtualClock;
use crate::routing::{Routes, RoutesBuilder, WalkStep};
use crate::source::SimulatedSource;

/// A registry of autonomous sources sharing one access-method registry,
/// with a total routing from methods to *ordered replica sets* of sources.
/// This is the "many Web forms, many providers" layer the paper's
/// federated-engine motivation assumes: the engine still reasons over a
/// single `ACS`, but each access is answered by the provider that owns the
/// form — or, when a [`ChaosController`] marks the primary dead or
/// open-circuit, by the next replica in its route (see [`crate::chaos`]).
#[derive(Debug)]
pub struct Federation {
    routes: Routes<SimulatedSource>,
}

impl Federation {
    /// Starts assembling a federation over `methods`.
    pub fn builder(methods: AccessMethods) -> FederationBuilder {
        FederationBuilder {
            routes: RoutesBuilder::new(methods),
        }
    }

    /// The common case of one source serving every method.
    pub fn single(source: SimulatedSource) -> Self {
        Federation {
            routes: Routes::single(Box::new(source)),
        }
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

    /// The primary source serving `method` (replicas, if any, sit behind
    /// it in the route).
    pub fn source_for(&self, method: AccessMethodId) -> Option<&SimulatedSource> {
        self.routes.replicas(method).next()
    }

    /// The chaos controller, when one is attached.
    pub fn chaos(&self) -> Option<&ChaosController> {
        self.routes.chaos()
    }

    /// Routes an access along its replica set and executes it.
    ///
    /// Without a chaos controller this is a plain dispatch to the primary.
    /// With one, each wire call first ticks the controller (pace clock +
    /// due churn events, forwarding model swaps to the targeted sources),
    /// then walks the route in order: dead and open-circuit replicas are
    /// skipped, a failing replica (retry exhaustion) feeds its breaker and
    /// the walk moves on, and the first successful response is returned —
    /// counted as a failover when it came from a non-primary position.
    /// Access-layer errors ([`SourceError::Access`]) abort immediately: a
    /// malformed access fails identically on every replica.
    pub fn call(&self, access: &Access) -> Result<Response, SourceError> {
        let mut walk = self.routes.walk(access.method());
        loop {
            match walk.step() {
                WalkStep::Call(source) => walk.supply(source.call(access)),
                WalkStep::Done(result) => return result,
            }
        }
    }

    /// Aggregate statistics: the field-wise sum of
    /// [`Federation::per_source_stats`].
    pub fn stats(&self) -> BackendStats {
        self.routes.stats()
    }

    /// Per-source statistics, in registration order. With a chaos
    /// controller attached, each entry also carries the churn, failover,
    /// skip and breaker counters charged to that source.
    pub fn per_source_stats(&self) -> Vec<(String, BackendStats)> {
        self.routes.per_source_stats()
    }

    /// Resets every source's statistics and the chaos counters (liveness
    /// and breaker state are untouched).
    pub fn reset_stats(&self) {
        self.routes.reset_stats()
    }
}

/// Builder for [`Federation`].
#[derive(Debug)]
pub struct FederationBuilder {
    routes: RoutesBuilder<SimulatedSource>,
}

impl FederationBuilder {
    /// Registers `source` as the *primary* server of the named methods (at
    /// most one primary per method). The source must range over the same
    /// schema instance as the federation.
    pub fn source(
        self,
        source: SimulatedSource,
        method_names: &[&str],
    ) -> Result<Self, FederationError> {
        let routes = self.routes.register(Box::new(source), method_names, true)?;
        Ok(FederationBuilder { routes })
    }

    /// Registers `source` as a *replica* of the named methods: it is
    /// appended to each method's ordered route and only answers when every
    /// provider before it is dead or open-circuit (which requires a chaos
    /// controller — without one, replicas are never consulted). For the
    /// sequential-equivalence guarantee to survive failover, a replica must
    /// answer every access byte-for-byte like its primary: same hidden
    /// instance, same `ResponsePolicy` (same seed) — see [`crate::chaos`].
    pub fn replica(
        self,
        source: SimulatedSource,
        method_names: &[&str],
    ) -> Result<Self, FederationError> {
        let routes = self
            .routes
            .register(Box::new(source), method_names, false)?;
        Ok(FederationBuilder { routes })
    }

    /// Attaches a chaos layer (churn script, circuit breakers, failover
    /// accounting). The script's source names are resolved at
    /// [`FederationBuilder::build`] time.
    pub fn with_chaos(self, options: ChaosOptions) -> Self {
        FederationBuilder {
            routes: self.routes.with_chaos(options),
        }
    }

    /// Finalises the federation; every method must have a serving source.
    pub fn build(self) -> Result<Federation, FederationError> {
        // The sync federation has no executor-driven clock: the chaos
        // controller owns a private clock advanced by the pace.
        let routes = self.routes.build(VirtualClock::new())?;
        Ok(Federation { routes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SimulatedSource;
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
    fn routing_dispatches_to_the_right_source() {
        let (methods, inst) = setup();
        let r_source = SimulatedSource::exact("r-provider", inst.clone(), methods.clone());
        let s_source = SimulatedSource::exact("s-provider", inst, methods.clone());
        let federation = Federation::builder(methods.clone())
            .source(r_source, &["RAcc"])
            .unwrap()
            .source(s_source, &["SAll"])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(federation.source_count(), 2);
        let r_acc = methods.by_name("RAcc").unwrap();
        let s_all = methods.by_name("SAll").unwrap();
        assert_eq!(federation.source_for(r_acc).unwrap().name(), "r-provider");
        assert_eq!(federation.source_for(s_all).unwrap().name(), "s-provider");
        let resp = federation
            .call(&Access::new(s_all, binding(Vec::<&str>::new())))
            .unwrap();
        assert_eq!(resp.len(), 1);
        let per_source = federation.per_source_stats();
        assert_eq!(per_source[0].1.calls, 0);
        assert_eq!(per_source[1].1.calls, 1);
        assert_eq!(federation.stats().calls, 1);
        federation.reset_stats();
        assert_eq!(federation.stats().calls, 0);
        assert!(format!("{federation:?}").contains("r-provider"));
    }

    #[test]
    fn single_source_federation_serves_everything() {
        let (methods, inst) = setup();
        let federation = Federation::single(SimulatedSource::exact("only", inst, methods.clone()));
        for (id, _) in methods.iter() {
            assert!(federation.source_for(id).is_some());
        }
        assert_eq!(federation.schema().relation_count(), 2);
    }
}
