//! # accrel-bench
//!
//! Shared fixtures and measurement helpers for the experiment suite: E1–E8,
//! the S1 store table and the F1–F4 federation tables.
//!
//! The `harness` binary (`cargo run -p accrel-bench --bin harness`) is the
//! one timing path: it runs every experiment through
//! [`runner::median_micros`] and prints one markdown table per experiment
//! (`--smoke` and `--million` also write JSON, which `bench_compare` diffs
//! against a committed baseline). The `fuzz` binary drives the differential
//! fuzzer.
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
