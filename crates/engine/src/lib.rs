//! # accrel-engine
//!
//! A simulated deep-Web environment and a federated query engine that uses
//! the relevance procedures of `accrel-core` to decide which accesses to
//! make.
//!
//! The paper's introduction motivates dynamic relevance with a federated
//! engine querying Web forms: *"Which interfaces should it use to answer the
//! query?"*. This crate realises that scenario:
//!
//! * [`DeepWebSource`] wraps a hidden [`accrel_schema::Instance`] behind a
//!   set of access methods and answers accesses according to a
//!   [`ResponsePolicy`] — exactly, or with sound (incomplete) subsets, as the
//!   paper's model allows;
//! * [`MergeLoop`] — the one run loop: a sans-IO state machine that grows a
//!   configuration by selecting and executing accesses until the query
//!   becomes certain (or nothing relevant remains). Every executor drives
//!   it — [`Sequential`] one access at a time, the executors of
//!   `accrel-federation` in speculative batches — under a pluggable
//!   [`Strategy`]:
//!   - [`Strategy::Exhaustive`] — the dynamic strategy of Li \[18\] that the
//!     paper contrasts with ("no check is made for the relevance of an
//!     access"): every well-formed access is executed;
//!   - [`Strategy::IrGuided`] — only immediately relevant accesses;
//!   - [`Strategy::LtrGuided`] — only long-term relevant accesses;
//!   - [`Strategy::Hybrid`] — immediately relevant accesses first, falling
//!     back to long-term relevant ones;
//! * [`scenarios`] — ready-made scenarios, including the bank/loan example
//!   of Section 1.
//!
//! Experiment E7 of the benchmark harness uses this crate to quantify how
//! many accesses relevance-guided strategies save over the exhaustive
//! baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod merge;
pub mod options;
pub mod relevance;
pub mod run;
pub mod scenarios;
mod source;

pub use engine::{BatchStats, RunReport, Strategy};
pub use merge::{MergeLoop, MergeStep};
pub use options::{InvalidationMode, RunOptions, SpeculationMode};
pub use relevance::{RelevanceKind, RelevanceOracle, SharedVerdictCache, VerdictRecord};
pub use run::{compare_strategies, Executor, RunRequest, Sequential};
pub use source::{BackendStats, DeepWebSource, ResponsePolicy};
