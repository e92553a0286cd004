//! # accrel-federation
//!
//! The concurrent federation runtime: the execution layer that turns the
//! paper's "mediator querying many autonomous deep-Web sources" motivation
//! into a measurable subsystem.
//!
//! * [`Source`] — a thread-safe deep-Web source. [`SimulatedSource`]
//!   composes backend models (per-source [`LatencyModel`] distributions,
//!   deterministic [`FlakyModel`] transient failures with retry accounting,
//!   paged responses) over a hidden instance, answering exactly or through
//!   one of the engine crate's [`accrel_engine::ResponsePolicy`]s.
//! * [`Federation`] — the registry mapping access methods to the sources
//!   that serve them, with per-source and aggregate [`BackendStats`] (the
//!   engine crate's one flat counter type, re-exported here): a source's
//!   calls, retries, pages and latency plus the chaos counters charged to
//!   it, the aggregate being their sum.
//! * [`parallel_relevance_sweep_report`] — fan-out evaluation of the (pure)
//!   relevance decision procedures across worker threads, each holding an
//!   O(relations) copy-on-write snapshot of the configuration, reporting
//!   that no worker copied a shard.
//!
//! ## The async runtime
//!
//! High-latency sources want overlapping in-flight accesses, not more
//! threads. The [`executor`] module is a hand-rolled, dependency-free
//! single-threaded mini-executor ([`Executor`]) over a deterministic
//! [`VirtualClock`] timer wheel — latency models elapse as awaited virtual
//! sleeps, so throughput experiments need no real time at all. On top of
//! it:
//!
//! * [`AsyncSource`] — the async twin of [`Source`];
//!   [`AsyncSimulatedSource`] replays a [`SimulatedSource`]'s
//!   latency/flaky-retry/paging models as awaitable state machines (one
//!   virtual round trip per await; a source without a latency model
//!   answers on its first poll).
//! * [`AsyncFederation`] — the routing registry over async sources, owning
//!   the shared virtual clock. Both federations share one routing core
//!   (replica table, registration checks, chaos layer, per-source stats
//!   and the replica walk); only how a call is made differs.
//!
//! ## The serving layer
//!
//! [`serving`] stacks a multi-tenant front end on the async runtime: a
//! [`QuerySessionRegistry`] admits many concurrent query sessions over one
//! shared [`AsyncFederation`], deduplicates identical in-flight accesses
//! across sessions (two sessions wanting the same access share one wire
//! call), and persists relevance verdicts across sessions through a shared
//! [`accrel_engine::SharedVerdictCache`]. The F3 harness table measures its
//! aggregate throughput and per-session latency percentiles against session
//! count.
//!
//! ## Executors
//!
//! All execution layers answer the same [`accrel_engine::RunRequest`]
//! through the [`accrel_engine::Executor`] trait, and all drive the engine
//! crate's [`accrel_engine::MergeLoop`]: the engine crate's
//! [`accrel_engine::Sequential`], this crate's [`Threaded`] (relevance-
//! verified batches fetched on scoped threads over a [`Federation`]),
//! [`Async`] (batches as concurrently-polled futures over an
//! [`AsyncFederation`], capped by a FIFO [`Semaphore`] of `workers` permits;
//! `clock().now_micros()` measures a run's simulated makespan, the F2
//! harness sweep) and [`Serving`] (one session on the multi-tenant
//! registry). Each reports exactly the sequential executor's access
//! sequence, relevance verdicts, certain answers and final configuration
//! (see the loop's determinism invariant); the equivalence grid in
//! `tests/federation_equivalence.rs` iterates executors to pin it.
//!
//! Garrison & Lee-style actor simulations motivate the backend models:
//! heterogeneous latency/failure behaviour makes the runtime measurable
//! without leaving the deterministic, offline test environment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod async_federation;
mod async_scheduler;
mod async_source;
pub mod chaos;
mod error;
pub mod executor;
mod federation;
pub mod journal;
mod routing;
pub mod scheduler;
pub mod serving;
mod source;
mod sweep;

pub use accrel_engine::BackendStats;
pub use async_federation::{AsyncFederation, AsyncFederationBuilder};
pub use async_scheduler::Async;
pub use async_source::{AsyncSimulatedSource, AsyncSource, SourceFuture};
pub use chaos::{
    BreakerOptions, BreakerState, ChaosController, ChaosOptions, ChurnAction, ChurnEvent,
    ChurnScript, ChurnScriptBuilder, CircuitBreaker,
};
pub use error::{FederationError, SourceError};
pub use executor::{yield_now, Executor, JoinHandle, Semaphore, Sleep, VirtualClock, YieldNow};
pub use federation::{Federation, FederationBuilder};
pub use journal::RunJournal;
pub use scheduler::Threaded;
pub use serving::{QuerySessionRegistry, Serving, ServingOptions, ServingReport, SessionReport};
pub use source::{FlakyModel, LatencyModel, SimulatedSource, Source};
pub use sweep::{parallel_relevance_sweep_report, SweepReport};
