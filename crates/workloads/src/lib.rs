//! # accrel-workloads
//!
//! Workload generators for exercising and benchmarking the `accrel`
//! decision procedures:
//!
//! * [`tiling`] — corridor tiling problems (the combinatorial core of the
//!   paper's lower bounds) with a brute-force solver for ground truth;
//! * [`encodings`] — the Proposition 6.2 reduction from width-`n` corridor
//!   tiling to query containment under access limitations (arity ≤ 3,
//!   PSPACE-hardness), used as a structured workload generator; the
//!   configuration gadgets of the Theorem 5.1 exponential-corridor
//!   construction (the Boolean `And`/`Or`/`Eq` tables) are also provided
//!   here;
//! * [`random`] — seeded random generators for schemas, access methods,
//!   configurations, conjunctive and positive queries, used by the
//!   scaling experiments (E1, E2, E5) and the property-based tests;
//! * [`scenarios`] — synthetic deep-Web scenarios (chains and stars of
//!   dependent sources) complementing the bank scenario of
//!   `accrel-engine`, used by the engine ablation (E7);
//! * [`differential`] — the chaos scenario fuzzer: seeded random
//!   schema/query/policy/churn-script tuples run through every concurrent
//!   execution layer and compared against the sequential oracle, with
//!   greedy shrinking of any divergence to a minimal reproducible case.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod differential;
pub mod encodings;
pub mod random;
pub mod scenarios;
pub mod tiling;
