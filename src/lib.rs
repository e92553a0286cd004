//! # accrel — Determining Relevance of Accesses at Runtime
//!
//! A Rust reproduction of *Benedikt, Gottlob & Senellart, "Determining
//! Relevance of Accesses at Runtime" (PODS 2011, extended version
//! arXiv:1104.0553)*: dynamic relevance of accesses for query answering over
//! data sources with limited access patterns, and query containment under
//! access limitations.
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`schema`] | `accrel-schema` | values, domains, relations, instances, configurations |
//! | [`query`] | `accrel-query` | CQs, positive queries, evaluation, certain answers, classical containment |
//! | [`access`] | `accrel-access` | access methods, bindings, responses, access paths, truncation |
//! | [`core`] | `accrel-core` | immediate & long-term relevance, containment under access limitations, reductions, critical tuples |
//! | [`engine`] | `accrel-engine` | simulated deep-Web sources, the run loop every executor drives, and the `RunRequest`/`Executor` run API with its `Sequential` executor |
//! | [`federation`] | `accrel-federation` | concurrent federation runtime: pluggable simulated sources, the `Threaded`/`Async` executors, parallel relevance sweeps, the virtual-clock mini-executor, and the multi-tenant `serving` layer |
//! | [`workloads`] | `accrel-workloads` | tiling encodings, random generators, synthetic scenarios |
//!
//! The [`prelude`] pulls in the end-user surface — build a
//! [`prelude::RunRequest`], pick an executor, run it; the machinery those
//! executors are made of (stores, oracles, frontier types, the
//! mini-executor) lives in [`prelude::internals`].
//!
//! ```
//! use accrel::prelude::*;
//!
//! // Example 2.1 of the paper: Q = S ⋈ T with a dependent access on T.
//! let mut b = Schema::builder();
//! let d = b.domain("D").unwrap();
//! let e = b.domain("E").unwrap();
//! b.relation("S", &[("a", d), ("b", e)]).unwrap();
//! b.relation("T", &[("b", e), ("c", d)]).unwrap();
//! let schema = b.build();
//!
//! let mut mb = AccessMethods::builder(schema.clone());
//! let s_acc = mb.add_free("SAcc", "S", AccessMode::Dependent).unwrap();
//! mb.add("TAcc", "T", &["b"], AccessMode::Dependent).unwrap();
//! let methods = mb.build();
//!
//! let mut qb = ConjunctiveQuery::builder(schema.clone());
//! let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
//! qb.atom("S", vec![Term::Var(x), Term::Var(y)]).unwrap();
//! qb.atom("T", vec![Term::Var(y), Term::Var(z)]).unwrap();
//! let query: Query = qb.build().into();
//!
//! // An access on S is long-term relevant in the empty configuration: the
//! // values it returns can later be fed into the dependent access on T.
//! let conf = Configuration::empty(schema);
//! let access = Access::new(s_acc, binding(Vec::<&str>::new()));
//! assert!(is_long_term_relevant(&query, &conf, &access, &methods, &SearchBudget::default()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use accrel_access as access;
pub use accrel_core as core;
pub use accrel_engine as engine;
pub use accrel_federation as federation;
pub use accrel_query as query;
pub use accrel_schema as schema;
pub use accrel_workloads as workloads;

// Compile-check the README's code blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The end-user surface: schema/query/access building blocks, the paper's
/// relevance procedures, and the unified run API — a
/// [`RunRequest`](prelude::RunRequest) executed by any
/// [`Executor`](prelude::Executor) (sequential, threaded, async, or the
/// multi-tenant serving layer).
///
/// The machinery behind these (stores, oracles, frontier types, the
/// virtual-clock mini-executor) is one level down, in
/// [`internals`](prelude::internals).
pub mod prelude {
    /// Building accesses and access-method registries, and applying
    /// responses to configurations (paper §2).
    pub use accrel_access::{
        apply_access, binding, Access, AccessMethods, AccessMode, AccessPath, Binding, Response,
    };
    /// The paper's decision procedures: immediate / long-term relevance and
    /// containment under access limitations, with their search budget.
    pub use accrel_core::{
        is_contained, is_immediately_relevant, is_long_term_relevant, SearchBudget,
    };
    /// Ready-made scenarios, including the paper's §1 bank/loan example.
    pub use accrel_engine::scenarios::{bank_scenario, bank_scenario_negative, Scenario};
    /// The run API: build a [`RunRequest`], hand it to any [`Executor`]
    /// ([`Sequential`] over a [`DeepWebSource`] here; [`Threaded`] /
    /// [`Async`] / [`Serving`] below), get a `RunReport` — or sweep every
    /// strategy at once with [`compare_strategies`].
    pub use accrel_engine::{
        compare_strategies, DeepWebSource, Executor, InvalidationMode, ResponsePolicy, RunOptions,
        RunReport, RunRequest, Sequential, SpeculationMode, Strategy,
    };
    /// The federation runtimes and their executors: thread-pooled batches
    /// ([`Threaded`] over a [`Federation`]), virtual-clock futures
    /// ([`Async`] over an [`AsyncFederation`]), and the backend cost models
    /// they simulate.
    pub use accrel_federation::{
        Async, AsyncFederation, AsyncSimulatedSource, AsyncSource, Federation, FlakyModel,
        LatencyModel, SimulatedSource, Source, Threaded,
    };
    /// The chaos layer: deterministic churn scripts, per-source circuit
    /// breakers and replica failover over either federation runtime, plus
    /// the replayable run journal.
    pub use accrel_federation::{
        BreakerOptions, BreakerState, ChaosOptions, ChurnAction, ChurnEvent, ChurnScript,
        ChurnScriptBuilder, RunJournal,
    };
    /// The multi-tenant serving layer: a [`QuerySessionRegistry`] admits
    /// concurrent query sessions over one shared federation, deduplicating
    /// in-flight accesses and sharing relevance verdicts across them.
    pub use accrel_federation::{
        QuerySessionRegistry, Serving, ServingOptions, ServingReport, SessionReport,
    };
    /// Query construction and certain-answer evaluation (paper §2).
    pub use accrel_query::{
        certain, ConjunctiveQuery, PositiveQuery, PqFormula, Query, Term, VarId,
    };
    /// Schemas, instances and configurations — the data model everything
    /// else ranges over.
    pub use accrel_schema::{tuple, Configuration, Instance, Schema, Tuple, Value};
    /// Random workload generation for equivalence grids and benchmarks.
    pub use accrel_workloads::random::{
        generate_configuration, generate_instance, generate_query, generate_workload, WorkloadSpec,
    };

    /// The machinery the executors are made of. Reach for these when
    /// building a new execution layer or instrumenting an existing one —
    /// ordinary query answering only needs the parent [`prelude`](super).
    pub mod internals {
        /// Incremental access enumeration: the frontier the merge loop
        /// refreshes each round, and the underlying enumerator.
        pub use accrel_access::enumerate::{well_formed_accesses, EnumerationOptions};
        pub use accrel_access::frontier::AccessFrontier;
        /// The relevance oracle driving access selection, its verdict log,
        /// and the cross-session shared verdict cache of the serving layer.
        pub use accrel_engine::relevance::{
            RelevanceKind, RelevanceOracle, SharedVerdictCache, VerdictRecord,
        };
        /// The statistics types surfaced inside `RunReport`: what the
        /// sources cost (per source, per federation, per run and per serve)
        /// and the merge loop's batch structure.
        pub use accrel_engine::{BackendStats, BatchStats};
        /// The run loop every executor drives: a sans-IO state machine that
        /// asks its driver to fetch predicted batches.
        pub use accrel_engine::{MergeLoop, MergeStep};
        /// The single-threaded virtual-clock mini-executor the async
        /// runtime and the serving layer run on. (`Executor` here is the
        /// task runtime — the *run API* trait of the same name lives in the
        /// parent prelude.)
        pub use accrel_federation::executor::{
            yield_now, Executor, JoinHandle, Semaphore, Sleep, VirtualClock, YieldNow,
        };
        /// Parallel relevance sweeps over copy-on-write snapshots.
        pub use accrel_federation::{parallel_relevance_sweep_report, SweepReport};
        /// The chaos controller and breaker state machine behind the
        /// prelude-level churn scripts.
        pub use accrel_federation::{ChaosController, CircuitBreaker};
        /// Error and future types of the federation runtime.
        pub use accrel_federation::{FederationError, SourceError, SourceFuture};
        /// Fact storage: the copy-on-write sharded store behind
        /// `Configuration`, and its identifiers.
        pub use accrel_schema::{FactStore, RelationId};
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d)]).unwrap();
        let schema = b.build();
        let conf = Configuration::empty(schema.clone());
        assert!(conf.is_empty());
        let mut qb = ConjunctiveQuery::builder(schema);
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        assert!(!certain::is_certain(&q, &conf));
        assert_eq!(SearchBudget::default(), SearchBudget::default());
    }

    #[test]
    fn internals_reexports_are_usable() {
        use super::prelude::internals;
        let clock = internals::VirtualClock::new();
        assert_eq!(clock.now_micros(), 0);
        let cache = internals::SharedVerdictCache::new();
        assert!(cache.is_empty());
    }
}
