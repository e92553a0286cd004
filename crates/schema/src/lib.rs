//! # accrel-schema
//!
//! Relational substrate for the `accrel` workspace: values, abstract domains,
//! relations, schemas, tuples, fact stores, database instances and
//! *configurations* (the partial views of an instance accumulated by making
//! accesses), following Section 2 of Benedikt, Gottlob & Senellart,
//! *Determining Relevance of Accesses at Runtime* (PODS 2011).
//!
//! The central notions are:
//!
//! * [`Schema`] — a set of relations, each attribute typed with an abstract
//!   [`Domain`];
//! * [`Instance`] — a (virtual) database instance `I` for the schema;
//! * [`Configuration`] — a subset of an instance: the facts currently known
//!   by the query engine. A configuration is *consistent with* an instance
//!   `I` if all its facts belong to `I`.
//! * [`Value`] — constants populating tuples; [`Value::Fresh`] values are
//!   labelled nulls used by the decision procedures in `accrel-core` to stand
//!   for "some value not yet in the configuration".
//!
//! Everything is index/arena based (`u32` ids into vectors) rather than
//! pointer-linked, so the term-graph style structures used by the witness
//! searches stay borrow-checker friendly.
//!
//! The fact store is interned and indexed: values are mapped to dense
//! [`ValueId`]s by a [`ValueInterner`], tuples are kept columnar per
//! relation, every (relation, attribute) pair maintains a value → rows
//! index, and the active domain is a set maintained on insert rather than
//! recomputed by scanning. The store is append-only: no row ever leaves it,
//! so what it gained since a [`GrowthCursor`] last looked is a suffix of its
//! logs. See the module documentation in `store.rs` for the invariants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod configuration;
mod domain;
mod error;
mod instance;
mod intern;
mod layered;
mod relation;
mod schema;
mod store;
mod tuple;
mod value;

pub use configuration::Configuration;
pub use domain::{Domain, DomainId};
pub use error::SchemaError;
pub use instance::Instance;
pub use intern::{ValueId, ValueInterner};
pub use layered::Suffix;
pub use relation::{Attribute, Relation, RelationId};
pub use schema::{Schema, SchemaBuilder};
pub use store::{AdomPrecision, Candidates, Fact, FactStore, Growth, GrowthCursor, Read, ReadSet};
pub use tuple::{tuple, Tuple};
pub use value::{FreshSupply, Value};

/// Convenient result alias for fallible schema-level operations.
pub type Result<T> = std::result::Result<T, SchemaError>;
