//! # accrel-bench
//!
//! Shared fixtures and measurement helpers for the experiment suite: E1–E8,
//! the S1 store table and the F1–F4 federation tables.
//!
//! The same fixtures back two consumers:
//!
//! * the Criterion benches under `benches/` (one per experiment), which
//!   measure steady-state latency of the decision procedures;
//! * the `harness` binary (`cargo run -p accrel-bench --bin harness`), which
//!   runs scaled-down versions of every experiment and prints one markdown
//!   table per experiment.
//!
//! The paper itself contains no empirical evaluation; these experiments
//! demonstrate the *shape* of its complexity results (Table 1 and the
//! tractable cases) and the engine-level value of relevance pruning.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod fixtures;
pub mod runner;
pub mod smoke;
