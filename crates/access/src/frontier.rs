//! Incremental enumeration of well-formed accesses.
//!
//! [`crate::enumerate::well_formed_accesses`] recomputes the full candidate
//! set from scratch — `O(∏ |Adom restricted to input domain|)` per method —
//! every time it is called. The run loop needs the candidates at every
//! round, and configurations only grow (Section 2 of the paper), so an
//! access is new at a round exactly when its binding uses a value new to
//! `Adom(Conf)`.
//!
//! [`AccessFrontier`] enumerates only those. It keeps one watermark per
//! relation (the rows already read) and, per *value space* (one input
//! domain's active domain, plus the guessable pool for independent
//! methods), the values already taken in, in a `BTreeSet`. A refresh:
//!
//! 1. reads the rows committed past each watermark
//!    ([`accrel_schema::FactStore::rows_since`]) and keeps the values each
//!    space has not taken in yet. The first refresh instead reads each input
//!    domain's active domain once;
//! 2. emits, per method, the bindings with at least one new coordinate as
//!    semi-naive blocks `old × … × old × new × all × … × all`: the new
//!    coordinate sits at each position in turn, earlier positions take old
//!    values only and later ones any value. The blocks are disjoint and
//!    together hold every such binding once;
//! 3. sorts each method's batch, so a refresh returns its accesses in the
//!    order full enumeration would (methods in registration order, bindings
//!    lexicographically), then adds the new values to the known sets.
//!
//! **Cost.** The rows added since the last refresh × their arity, plus the
//! bindings emitted and their sort; each value read costs a logarithmic set
//! lookup, and each new one an insert. After the first refresh nothing walks
//! the whole active domain.
//!
//! **Contracts.** Every refresh sees the same configuration. Its store is
//! append-only, so a committed row never moves under a watermark. No
//! refresh runs under an open trail mark or an installed read recorder
//! (speculative rows are not committed, and the frontier's reads must not
//! leak into a verdict's read set); [`AccessFrontier::refresh`] panics on
//! either. Under these contracts the union of all emissions equals
//! what `well_formed_accesses` returns at the latest configuration, and no
//! access is emitted twice. `well_formed_accesses` stays the independent
//! reference the tests and the differential fuzzer check the frontier
//! against.

use std::collections::BTreeSet;

use accrel_schema::{Configuration, DomainId, Value};

use crate::access::{Access, Binding};
use crate::enumerate::{self, EnumerationOptions};
use crate::method::{AccessMethodId, AccessMethods, AccessMode};

/// The values one method position draws from: the active domain of one
/// abstract domain, plus the guessable pool when `with_pool` (independent
/// methods).
#[derive(Debug, Clone)]
struct ValueSpace {
    domain: DomainId,
    with_pool: bool,
    /// Values taken in by earlier refreshes.
    known: BTreeSet<Value>,
    /// Values the current refresh takes in: sorted, disjoint from `known`.
    new: Vec<Value>,
}

/// Per-method incremental state.
#[derive(Debug, Clone)]
struct MethodFrontier {
    id: AccessMethodId,
    /// The value space of each input position; `None` when a position's
    /// domain cannot be resolved, so the method never emits.
    spaces: Option<Vec<usize>>,
    /// Whether the single access of a zero-input method was emitted.
    emitted_free: bool,
}

/// Incremental well-formed-access enumerator over one growing
/// configuration (see the module documentation for its cost and
/// contracts).
#[derive(Debug, Clone)]
pub struct AccessFrontier {
    options: EnumerationOptions,
    fronts: Vec<MethodFrontier>,
    spaces: Vec<ValueSpace>,
    /// Per domain index: whether some value space draws from the domain.
    tracked: Vec<bool>,
    /// Rows already read, per relation; `None` before the first refresh.
    watermarks: Option<Vec<usize>>,
    emitted: usize,
}

impl AccessFrontier {
    /// Creates a frontier for `methods` under `options`. The same registry
    /// must be passed to every subsequent [`AccessFrontier::refresh`].
    pub fn new(methods: &AccessMethods, options: EnumerationOptions) -> Self {
        let schema = methods.schema();
        let mut spaces: Vec<ValueSpace> = Vec::new();
        let mut fronts = Vec::with_capacity(methods.len());
        for (id, m) in methods.iter() {
            let with_pool = m.mode() == AccessMode::Independent;
            let positions = m
                .input_positions()
                .iter()
                .map(|&pos| {
                    let domain = schema.domain_of(m.relation(), pos).ok()?;
                    let found = spaces
                        .iter()
                        .position(|s| s.domain == domain && s.with_pool == with_pool);
                    Some(found.unwrap_or_else(|| {
                        spaces.push(ValueSpace {
                            domain,
                            with_pool,
                            known: BTreeSet::new(),
                            new: Vec::new(),
                        });
                        spaces.len() - 1
                    }))
                })
                .collect();
            fronts.push(MethodFrontier {
                id,
                spaces: positions,
                emitted_free: false,
            });
        }
        let mut tracked = vec![false; schema.domain_count()];
        for space in &spaces {
            tracked[space.domain.index()] = true;
        }
        Self {
            options,
            fronts,
            spaces,
            tracked,
            watermarks: None,
            emitted: 0,
        }
    }

    /// Total number of accesses emitted so far (bounded by the options'
    /// `max_accesses`, which the frontier treats as a cumulative cap).
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Emits every well-formed access at `conf` that was not emitted by an
    /// earlier refresh: for each method, the bindings drawing at least one
    /// value the frontier had not yet taken in.
    ///
    /// The result is sorted: methods in registration order, each method's
    /// bindings lexicographically — the order full enumeration uses.
    ///
    /// # Panics
    ///
    /// If `conf` has an open trail mark or an installed read recorder: the
    /// frontier reads committed rows only, and its reads must not leak into
    /// a verdict's read set.
    pub fn refresh(&mut self, conf: &Configuration, methods: &AccessMethods) -> Vec<Access> {
        debug_assert_eq!(
            self.fronts.len(),
            methods.len(),
            "refresh must use the registry the frontier was built for"
        );
        let store = conf.store();
        assert!(
            !store.trail_is_active(),
            "access frontier refreshed under an open trail mark"
        );
        assert!(
            !store.is_recording_reads(),
            "access frontier refreshed inside a read-recording region"
        );
        self.take_in(conf);
        let mut out = Vec::new();
        for front in &mut self.fronts {
            if self.emitted >= self.options.max_accesses {
                break;
            }
            let Some(positions) = &front.spaces else {
                continue;
            };
            // Zero-input (free) methods: one access, emitted once.
            if positions.is_empty() {
                if !front.emitted_free {
                    front.emitted_free = true;
                    out.push(Access::new(front.id, Binding::empty()));
                    self.emitted += 1;
                }
                continue;
            }
            let room = self.options.max_accesses - self.emitted;
            let start = out.len();
            push_new_bindings(front.id, positions, &self.spaces, room, &mut out);
            out[start..].sort_unstable();
            out.truncate(start + room.min(out.len() - start));
            self.emitted += out.len() - start;
        }
        for space in &mut self.spaces {
            space.known.extend(space.new.drain(..));
        }
        out
    }

    /// Fills each value space's `new` list with what this refresh takes in:
    /// on the first refresh each tracked domain's active domain (plus the
    /// pool for independent spaces), afterwards the values of the rows
    /// committed past the watermarks that the space does not know yet.
    fn take_in(&mut self, conf: &Configuration) {
        let (store, schema) = (conf.store(), conf.schema());
        let mut arrived: Vec<Vec<Value>> = vec![Vec::new(); self.tracked.len()];
        let first = self.watermarks.is_none();
        match &mut self.watermarks {
            None => {
                for (d, values) in arrived.iter_mut().enumerate() {
                    if self.tracked[d] {
                        *values = conf.values_of_domain(DomainId(d as u32));
                    }
                }
                let marks = schema
                    .relations_with_ids()
                    .map(|(r, _)| store.relation_len(r))
                    .collect();
                self.watermarks = Some(marks);
            }
            Some(marks) => {
                for ((r, relation), mark) in schema.relations_with_ids().zip(marks) {
                    let rows = store.rows_since(r, *mark);
                    *mark += rows.len();
                    for row in rows {
                        for (c, v) in row.iter().enumerate() {
                            let d = relation.domain_at(c).index();
                            if self.tracked[d] {
                                arrived[d].push(v.clone());
                            }
                        }
                    }
                }
            }
        }
        for space in &mut self.spaces {
            let known = &space.known;
            space.new.extend(
                arrived[space.domain.index()]
                    .iter()
                    .filter(|v| !known.contains(v))
                    .cloned(),
            );
            if first && space.with_pool {
                space
                    .new
                    .extend(self.options.guessable_values.iter().cloned());
            }
            space.new.sort();
            space.new.dedup();
        }
    }
}

/// Appends to `out` the bindings of method `id` with at least one new
/// coordinate, `positions` naming each input position's value space: one
/// semi-naive block per pivot position `i`, with old values before `i`, new
/// ones at `i` and all values after it. Each block is enumerated in sorted
/// order and cut after `room` bindings, since the `room` smallest bindings
/// of the union are each among the `room` smallest of their own block.
fn push_new_bindings(
    id: AccessMethodId,
    positions: &[usize],
    spaces: &[ValueSpace],
    room: usize,
    out: &mut Vec<Access>,
) {
    for pivot in 0..positions.len() {
        let len = |p: usize| {
            let space = &spaces[positions[p]];
            if p < pivot {
                space.known.len()
            } else if p == pivot {
                space.new.len()
            } else {
                space.known.len() + space.new.len()
            }
        };
        if (0..positions.len()).any(|p| len(p) == 0) {
            continue;
        }
        let values: Vec<Vec<&Value>> = (0..positions.len())
            .map(|p| {
                let space = &spaces[positions[p]];
                if p < pivot {
                    space.known.iter().collect()
                } else if p == pivot {
                    space.new.iter().collect()
                } else {
                    let mut merged: Vec<&Value> = space.known.iter().chain(&space.new).collect();
                    merged.sort();
                    merged
                }
            })
            .collect();
        let lengths: Vec<usize> = values.iter().map(Vec::len).collect();
        let mut taken = 0;
        enumerate::for_each_combination(&lengths, |indices| {
            let binding = indices
                .iter()
                .zip(&values)
                .map(|(&j, list)| list[j].clone())
                .collect();
            out.push(Access::new(id, Binding::new(binding)));
            taken += 1;
            taken < room
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::well_formed_accesses;
    use accrel_schema::Schema;
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, AccessMethods) {
        let mut b = Schema::builder();
        let emp = b.domain("EmpId").unwrap();
        let off = b.domain("OffId").unwrap();
        b.relation("EmpOff", &[("emp", emp), ("off", off)]).unwrap();
        b.relation("Office", &[("off", off), ("emp", emp)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("EmpOffAcc", "EmpOff", &["emp"], AccessMode::Dependent)
            .unwrap();
        mb.add(
            "OfficePair",
            "Office",
            &["off", "emp"],
            AccessMode::Dependent,
        )
        .unwrap();
        mb.add("OfficeGuess", "Office", &["off"], AccessMode::Independent)
            .unwrap();
        mb.add_free("EmpOffAll", "EmpOff", AccessMode::Independent)
            .unwrap();
        (schema, mb.build())
    }

    fn as_set(accesses: &[Access]) -> BTreeSet<Access> {
        accesses.iter().cloned().collect()
    }

    #[test]
    fn first_refresh_matches_full_enumeration() {
        let (schema, methods) = setup();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("EmpOff", ["e1", "o1"]).unwrap();
        conf.insert_named("EmpOff", ["e2", "o1"]).unwrap();
        let options = EnumerationOptions::default();
        let mut frontier = AccessFrontier::new(&methods, options.clone());
        let emitted = frontier.refresh(&conf, &methods);
        assert_eq!(emitted, well_formed_accesses(&conf, &methods, &options));
        // A second refresh over the unchanged configuration emits nothing.
        assert!(frontier.refresh(&conf, &methods).is_empty());
    }

    #[test]
    fn incremental_emissions_track_full_enumeration_without_duplicates() {
        let (schema, methods) = setup();
        // The pool overlaps the active domain ("o1" arrives with the first
        // row) and repeats a value: the independent `OfficeGuess` must still
        // emit each binding once.
        let options = EnumerationOptions {
            guessable_values: vec![Value::sym("guess"), Value::sym("o1"), Value::sym("guess")],
            max_accesses: usize::MAX,
        };
        let mut conf = Configuration::empty(schema);
        let mut frontier = AccessFrontier::new(&methods, options.clone());
        let mut union: BTreeSet<Access> = BTreeSet::new();
        // Grow the configuration step by step; at every step the union of
        // frontier emissions must equal the full enumeration.
        let growth: Vec<(&str, [&str; 2])> = vec![
            ("EmpOff", ["e1", "o1"]),
            ("Office", ["o2", "e1"]),
            ("EmpOff", ["e2", "o1"]),
            ("Office", ["o1", "e3"]),
            ("Office", ["o3", "e2"]),
        ];
        for (rel, t) in growth {
            // A speculative row takes the relation's next row slot and is
            // undone before the committed row reuses it: it is never read.
            conf.speculate(|c| c.insert_named(rel, ["spec", "spec"]).unwrap());
            conf.insert_named(rel, t).unwrap();
            let emitted = frontier.refresh(&conf, &methods);
            assert!(
                emitted.windows(2).all(|w| w[0] < w[1]),
                "a refresh returns its accesses sorted"
            );
            for a in &emitted {
                assert!(union.insert(a.clone()), "duplicate emission of {a}");
                assert!(a.is_well_formed(&conf, &methods));
                assert!(
                    !a.binding().values().contains(&Value::sym("spec")),
                    "undone row emitted in {a}"
                );
            }
            let full = as_set(&well_formed_accesses(&conf, &methods, &options));
            assert_eq!(union, full);
        }
        let guess = methods.by_name("OfficeGuess").unwrap();
        let guessed: Vec<&Access> = union.iter().filter(|a| a.method() == guess).collect();
        assert_eq!(guessed.len(), 4, "guess, o1, o2, o3: {guessed:?}");
    }

    #[test]
    #[should_panic(expected = "open trail mark")]
    fn refresh_under_an_open_trail_mark_panics() {
        let (schema, methods) = setup();
        let mut conf = Configuration::empty(schema);
        let mut frontier = AccessFrontier::new(&methods, EnumerationOptions::default());
        let _mark = conf.begin_trail();
        frontier.refresh(&conf, &methods);
    }

    #[test]
    fn free_access_is_emitted_exactly_once() {
        let (schema, methods) = setup();
        let conf = Configuration::empty(schema);
        let mut frontier = AccessFrontier::new(&methods, EnumerationOptions::default());
        let first = frontier.refresh(&conf, &methods);
        assert_eq!(first.len(), 1);
        assert!(first[0].binding().is_empty());
        assert!(frontier.refresh(&conf, &methods).is_empty());
        assert_eq!(frontier.emitted(), 1);
    }

    #[test]
    fn cumulative_cap_limits_emissions() {
        let (schema, methods) = setup();
        let mut conf = Configuration::empty(schema);
        for i in 0..10 {
            conf.insert_named("EmpOff", [format!("e{i}"), "o1".to_string()])
                .unwrap();
        }
        let options = EnumerationOptions {
            guessable_values: Vec::new(),
            max_accesses: 3,
        };
        let mut frontier = AccessFrontier::new(&methods, options.clone());
        let emitted = frontier.refresh(&conf, &methods);
        assert_eq!(emitted, well_formed_accesses(&conf, &methods, &options));
        assert_eq!(emitted.len(), 3);
        assert!(frontier.refresh(&conf, &methods).is_empty());
    }
}
