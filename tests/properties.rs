//! Property-based integration tests over randomly generated workloads.
//!
//! These check cross-crate invariants that the paper either states or
//! implies:
//!
//! * certain answers of monotone queries are monotone under configuration
//!   growth;
//! * immediate relevance implies long-term relevance;
//! * an access to a relation not mentioned in the query is never relevant
//!   (observation (i) of Section 4);
//! * containment under access limitations is reflexive and implied by
//!   classical containment;
//! * applying an access path never loses facts, and truncations reach a
//!   sub-configuration of the full path.
//!
//! The workloads are drawn from seeded deterministic generators and iterated
//! over a fixed parameter grid, so failures reproduce exactly (no external
//! property-testing framework is available offline; the grid plays the role
//! of proptest's case sampling).

use std::collections::HashMap;

use accrel::prelude::*;
use accrel::workloads::random::{
    generate_configuration, generate_cq, generate_workload, Workload, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload_and_query(seed: u64, atoms: usize, facts: usize) -> (Workload, Query, Configuration) {
    let spec = WorkloadSpec {
        relations: 3,
        arity: 2,
        domains: 2,
        constants: 5,
        dependent_fraction: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = generate_workload(&spec, &mut rng);
    let query = Query::Cq(generate_cq(&workload, atoms, 3, 0.8, &mut rng));
    let conf = generate_configuration(&workload, facts, &mut rng);
    (workload, query, conf)
}

/// The deterministic case grid shared by the properties below.
fn cases() -> impl Iterator<Item = (u64, usize, usize)> {
    (0u64..8).flat_map(|seed| {
        [(1usize, 0usize), (2, 3), (3, 6)]
            .into_iter()
            .map(move |(atoms, facts)| (seed, atoms, facts))
    })
}

/// Grows `conf` by `rows` one at a time and checks, after each row, that
/// the semi-naive certainty status refreshed from the rows committed since
/// its last refresh equals a full evaluation. Returns the final certainty.
fn assert_status_tracks_full_evaluation(
    query: &Query,
    mut conf: Configuration,
    rows: Vec<accrel::schema::Fact>,
    ctx: &str,
) -> bool {
    let mut status = certain::CertaintyStatus::new(query);
    assert_eq!(
        status.refresh(&conf),
        certain::is_certain(query, &conf),
        "{ctx}"
    );
    for (relation, row) in rows {
        conf.insert(relation, row).unwrap();
        assert_eq!(
            status.refresh(&conf),
            certain::is_certain(query, &conf),
            "semi-naive status diverged at {ctx}"
        );
    }
    status.is_known_certain()
}

#[test]
fn certain_answers_are_monotone() {
    for (seed, atoms, facts) in cases() {
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let extra = generate_configuration(&workload, 3, &mut rng);
        let bigger = conf.union(&extra);
        if certain::is_certain(&query, &conf) {
            assert!(
                certain::is_certain(&query, &bigger),
                "monotonicity violated at seed={seed} atoms={atoms} facts={facts}"
            );
        }
        let ctx = format!("seed={seed} atoms={atoms} facts={facts}");
        assert_status_tracks_full_evaluation(&query, conf, extra.sorted_facts(), &ctx);
    }

    // A self-join whose only match maps both atoms onto one new row.
    let mut b = Schema::builder();
    let d = b.domain("D").unwrap();
    b.relation("R", &[("a", d), ("b", d)]).unwrap();
    let schema = b.build();
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let (x, y) = (qb.var("x"), qb.var("y"));
    qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
    qb.atom("R", vec![Term::Var(y), Term::Var(x)]).unwrap();
    let query: Query = qb.build().into();
    let mut conf = Configuration::empty(schema.clone());
    conf.insert_named("R", ["1", "2"]).unwrap();
    let r = schema.relation_by_name("R").unwrap();
    let rows = vec![(r, tuple(["3", "4"])), (r, tuple(["5", "5"]))];
    assert!(assert_status_tracks_full_evaluation(
        &query,
        conf,
        rows,
        "self-join"
    ));
}

#[test]
fn immediate_relevance_implies_long_term_relevance() {
    for (seed, atoms, facts) in cases() {
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let budget = SearchBudget::default();
        for (id, method) in workload.methods.iter() {
            // One binding per method, drawn from the constant pool.
            let values: Vec<Value> = method
                .input_positions()
                .iter()
                .map(|_| workload.constants[(seed as usize) % workload.constants.len()].clone())
                .collect();
            let access = Access::new(id, values.into_iter().collect());
            let ir = is_immediately_relevant(&query, &conf, &access, &workload.methods);
            if ir {
                assert!(
                    is_long_term_relevant(&query, &conf, &access, &workload.methods, &budget),
                    "IR without LTR at seed={seed} atoms={atoms} facts={facts}"
                );
            }
        }
    }
}

#[test]
fn accesses_to_unmentioned_relations_are_irrelevant() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 2, facts);
        // A query that only mentions relation R0.
        let mut qb = ConjunctiveQuery::builder(workload.schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R0", vec![Term::Var(x), Term::Var(y)]).unwrap();
        let query: Query = qb.build().into();
        for (id, method) in workload.methods.iter() {
            if workload.schema.relation(method.relation()).unwrap().name() == "R0" {
                continue;
            }
            // Accessing R1/R2 can never be immediately relevant for a query
            // about R0 only (observation (i) of Section 4); it can be
            // long-term relevant only if it is the query relation, so here
            // it must not be IR.
            let values: Vec<Value> = method
                .input_positions()
                .iter()
                .map(|_| workload.constants[0].clone())
                .collect();
            let access = Access::new(id, values.into_iter().collect());
            assert!(
                !is_immediately_relevant(&query, &conf, &access, &workload.methods),
                "unmentioned relation was IR at seed={seed} facts={facts}"
            );
        }
    }
}

#[test]
fn containment_is_reflexive_and_respects_classical_containment() {
    for (seed, atoms, facts) in cases() {
        let atoms = atoms.min(2);
        let facts = facts.min(4);
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let budget = SearchBudget::shallow();
        let outcome = is_contained(&query, &query, &conf, &workload.methods, &budget);
        assert!(
            outcome.contained,
            "containment not reflexive at seed={seed} atoms={atoms} facts={facts}"
        );
        // Classical containment (all accesses free) implies containment
        // under any access limitations.
        let mut rng = StdRng::seed_from_u64(seed + 13);
        let other = Query::Cq(generate_cq(&workload, atoms, 2, 0.8, &mut rng));
        if accrel::query::containment::query_contained_in(&query, &other) {
            let limited = is_contained(&query, &other, &conf, &workload.methods, &budget);
            assert!(
                limited.contained,
                "classical containment not respected at seed={seed} atoms={atoms} facts={facts}"
            );
        }
    }
}

#[test]
fn access_paths_grow_monotonically_and_truncations_are_subsets() {
    for (seed, _, facts) in cases() {
        let facts = facts.max(1);
        let spec = WorkloadSpec {
            dependent_fraction: 1.0,
            ..WorkloadSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = generate_workload(&spec, &mut rng);
        let instance = accrel::workloads::random::generate_instance(&workload, facts + 4, &mut rng);
        let conf = generate_configuration(&workload, facts, &mut rng);
        // Build a short path by enumerating well-formed accesses and taking
        // exact responses from the instance.
        let options = accrel::access::enumerate::EnumerationOptions::default();
        let mut path = AccessPath::new();
        let mut current = conf.clone();
        for _ in 0..3 {
            let candidates = accrel::access::enumerate::well_formed_accesses(
                &current,
                &workload.methods,
                &options,
            );
            let Some(access) = candidates.first().cloned() else {
                break;
            };
            let Ok(response) = Response::exact(&access, &workload.methods, &instance) else {
                break;
            };
            let Ok(next) = apply_access(&current, &access, &response, &workload.methods) else {
                break;
            };
            path.push(access, response);
            current = next;
        }
        let full = path
            .apply(&conf, &workload.methods)
            .unwrap_or_else(|_| conf.clone());
        assert!(conf.is_subset_of(&full), "path lost facts at seed={seed}");
        let (_, truncated_conf) = path.truncate(&conf, &workload.methods);
        assert!(
            truncated_conf.is_subset_of(&full),
            "truncation escaped the path at seed={seed}"
        );
        assert!(
            conf.is_subset_of(&truncated_conf),
            "truncation lost base facts at seed={seed}"
        );
    }
}

/// Naive scan oracle for `FactStore::matching`: filter every tuple of the
/// relation by `Tuple::matches_binding`, in row order.
fn matching_oracle(
    store: &accrel::schema::FactStore,
    relation: accrel::schema::RelationId,
    positions: &[usize],
    binding: &[Value],
) -> Vec<accrel::schema::Tuple> {
    store
        .tuples(relation)
        .filter(|t| t.matches_binding(positions, binding))
        .cloned()
        .collect()
}

/// The `(position, id)` constraints `FactStore::posting_rows` and
/// `posting_bound` take for `(position, value)` ones: each value's interned
/// id, or for a value the store lacks an id past the interner's range, as
/// a join gives it.
fn constraint_ids(
    store: &accrel::schema::FactStore,
    constraints: &[(usize, &Value)],
) -> Vec<(usize, accrel::schema::ValueId)> {
    let known = store.interner().len();
    let ids = constraints.iter().enumerate().map(|(k, &(pos, v))| {
        let past = accrel::schema::ValueId((known + k) as u32);
        (pos, store.interner().lookup(v).unwrap_or(past))
    });
    ids.collect()
}

/// The tuples meeting every `(position, value)` constraint, in row order,
/// walked through `FactStore::posting_rows` with the constraints checked by
/// id on each row, as a join's unification checks them.
fn posting_tuples<'s>(
    store: &'s accrel::schema::FactStore,
    relation: accrel::schema::RelationId,
    constraints: &[(usize, &Value)],
) -> Vec<&'s Tuple> {
    let ids = constraint_ids(store, constraints);
    let known = store.interner().len();
    let rows = store.posting_rows(relation, ids.iter().copied(), |id| {
        constraints[id.index() - known].1
    });
    rows.filter(|row| ids.iter().all(|&(pos, id)| row.id(pos) == id))
        .map(|row| row.tuple())
        .collect()
}

/// Naive scan oracle for `FactStore::active_domain`: rescan every fact.
fn adom_oracle(
    store: &accrel::schema::FactStore,
) -> std::collections::HashSet<(Value, accrel::schema::DomainId)> {
    let mut out = std::collections::HashSet::new();
    for (rel, t) in store.facts() {
        let relation = store.schema().relation(rel).unwrap();
        for (pos, v) in t.iter().enumerate() {
            out.insert((v.clone(), relation.domain_at(pos)));
        }
    }
    out
}

#[test]
fn indexed_matching_agrees_with_scan_oracle_on_random_configurations() {
    // In row order: downstream determinism relies on `matching` returning
    // rows in insertion order, also after later inserts. `matching` walks
    // the lazy `posting_rows` cursor; the cursor is also checked directly,
    // drained and stopped after its first row, which must record the same
    // reads.
    fn assert_matching_agrees(
        store: &mut accrel::schema::FactStore,
        workload: &Workload,
        ctx: &str,
    ) {
        use accrel::schema::AdomPrecision;
        for (rel, relation) in workload.schema.relations_with_ids() {
            let arity = relation.arity();
            // Probe every single position and the full-tuple binding, with
            // values drawn from the pool (both present and absent ones).
            for value in workload.constants.iter().take(4) {
                for pos in 0..arity {
                    let binding = std::slice::from_ref(value);
                    let oracle = matching_oracle(store, rel, &[pos], binding);
                    assert_eq!(
                        store.matching(rel, &[pos], binding),
                        oracle,
                        "matching mismatch: {ctx}"
                    );
                    let ids = constraint_ids(store, &[(pos, value)]);
                    store.begin_read_tracking_with(AdomPrecision::Precise);
                    let drained: Vec<Tuple> = (store.posting_rows(rel, ids.clone(), |_| value))
                        .map(|row| row.tuple().clone())
                        .collect();
                    let drained_reads = store.take_read_set();
                    store.begin_read_tracking_with(AdomPrecision::Precise);
                    let first = (store.posting_rows(rel, ids, |_| value).next())
                        .map(|row| row.tuple().clone());
                    assert_eq!(store.take_read_set(), drained_reads, "cursor reads: {ctx}");
                    assert_eq!(drained, oracle, "drained cursor mismatch: {ctx}");
                    assert_eq!(first.as_ref(), oracle.first(), "first row: {ctx}");
                }
            }
            for t in store.tuples(rel).take(3).cloned().collect::<Vec<_>>() {
                let positions: Vec<usize> = (0..arity).collect();
                assert_eq!(
                    store.matching(rel, &positions, t.values()),
                    matching_oracle(store, rel, &positions, t.values()),
                    "full-binding mismatch: {ctx}"
                );
            }
        }
    }

    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 4);
        let mut store = conf.store().clone();
        let ctx = format!("seed={seed} facts={facts}");
        assert_matching_agrees(&mut store, &workload, &ctx);
        let mut rng = StdRng::seed_from_u64(seed + 707);
        let extra = generate_configuration(&workload, 6, &mut rng);
        for (rel, t) in extra.facts() {
            let _ = store.insert(rel, t);
        }
        assert_matching_agrees(&mut store, &workload, &format!("after inserts {ctx}"));
    }
}

#[test]
fn cached_active_domain_agrees_with_scan_oracle_after_inserts() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 6);
        let mut store = conf.store().clone();
        assert_eq!(store.active_domain(), adom_oracle(&store));
        // Insert a fresh batch into a snapshot, checking the maintained
        // cache against the oracle after every insert; discarding the
        // snapshot undoes the batch for the store, whose cache never saw it.
        let before = store.active_domain();
        let mut rng = StdRng::seed_from_u64(seed + 77);
        let extra = generate_configuration(&workload, 5, &mut rng);
        let mut snapshot = store.clone();
        for (rel, t) in extra.facts() {
            let _ = snapshot.insert(rel, t);
            assert_eq!(
                snapshot.active_domain(),
                adom_oracle(&snapshot),
                "adom cache diverged after an insert at seed={seed}"
            );
        }
        drop(snapshot);
        assert_eq!(
            store.active_domain(),
            before,
            "a discarded snapshot's inserts reached the store at seed={seed}"
        );
        // Commit the batch; the cache must track it too.
        for (rel, t) in extra.facts() {
            let _ = store.insert(rel, t);
        }
        assert_eq!(store.active_domain(), adom_oracle(&store));
        // values_of_domain is the sorted per-domain projection of the oracle.
        for d in 0..workload.schema.domain_count() {
            let d = accrel::schema::DomainId(d as u32);
            let mut want: Vec<Value> = adom_oracle(&store)
                .into_iter()
                .filter(|(_, vd)| *vd == d)
                .map(|(v, _)| v)
                .collect();
            want.sort();
            assert_eq!(
                store.values_of_domain(d),
                want,
                "domain values at seed={seed}"
            );
        }
    }
}

/// Naive deep-copy oracle for the copy-on-write store: rebuild an
/// independent store holding exactly the same facts, sharing nothing.
fn deep_copy_oracle(store: &accrel::schema::FactStore) -> accrel::schema::FactStore {
    let mut copy = accrel::schema::FactStore::new(store.schema().clone());
    for (rel, t) in store.facts() {
        copy.insert(rel, t).expect("oracle facts are well-typed");
    }
    copy
}

/// Asserts two stores agree observationally: same facts, same active
/// domain, and same index-backed matching results, in row order, for every
/// probe drawn from the workload pool.
fn assert_stores_agree(
    a: &accrel::schema::FactStore,
    b: &accrel::schema::FactStore,
    workload: &Workload,
    context: &str,
) {
    assert_eq!(a.len(), b.len(), "len diverged: {context}");
    assert_eq!(a.sorted_facts(), b.sorted_facts(), "facts: {context}");
    assert_eq!(a.active_domain(), b.active_domain(), "adom: {context}");
    for (rel, relation) in workload.schema.relations_with_ids() {
        assert_eq!(
            a.relation_len(rel),
            b.relation_len(rel),
            "relation len: {context}"
        );
        for value in workload.constants.iter().take(4) {
            for pos in 0..relation.arity() {
                assert_eq!(
                    a.matching(rel, &[pos], std::slice::from_ref(value)),
                    b.matching(rel, &[pos], std::slice::from_ref(value)),
                    "matching diverged: {context}"
                );
            }
        }
    }
}

#[test]
fn cow_clone_then_mutate_diverges_like_a_deep_copy() {
    // Oracle grid for the copy-on-write shards: grow a clone and its origin
    // with different batches of inserts; both handles must behave exactly
    // like independently deep-copied stores.
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 5);
        let original = conf.store().clone();
        let mut clone = original.clone();
        let mut oracle_original = deep_copy_oracle(&original);
        let mut oracle_clone = deep_copy_oracle(&original);
        let mut original = original;

        // Grow the clone with fresh facts.
        let mut rng = StdRng::seed_from_u64(seed + 101);
        let extra = generate_configuration(&workload, 6, &mut rng);
        for (rel, t) in extra.facts() {
            assert_eq!(
                clone.insert(rel, t.clone()).unwrap(),
                oracle_clone.insert(rel, t).unwrap()
            );
        }
        // Grow the original differently: insert another batch.
        let mut rng = StdRng::seed_from_u64(seed + 202);
        let other = generate_configuration(&workload, 4, &mut rng);
        for (rel, t) in other.facts() {
            assert_eq!(
                original.insert(rel, t.clone()).unwrap(),
                oracle_original.insert(rel, t).unwrap()
            );
        }

        let ctx = format!("seed={seed} facts={facts}");
        assert_stores_agree(&clone, &oracle_clone, &workload, &format!("clone {ctx}"));
        assert_stores_agree(
            &original,
            &oracle_original,
            &workload,
            &format!("original {ctx}"),
        );
    }
}

#[test]
fn cow_unmutated_shards_stay_pointer_equal_across_clones() {
    // A clone shares every shard's base with its origin, and its first
    // growing write starts tails of its own: every base stays shared and
    // nothing is copied, however large the origin.
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 5);
        let base = conf.store();
        let mut clone = base.clone();
        // Insert one fact of new values into exactly one relation.
        let (target, target_rel) = workload
            .schema
            .relations_with_ids()
            .next()
            .expect("workload has relations");
        let fresh_tuple = accrel::schema::Tuple::new(
            (0..target_rel.arity())
                .map(|i| Value::sym(format!("cow-fresh-{seed}-{i}")))
                .collect(),
        );
        assert!(clone.insert(target, fresh_tuple.clone()).unwrap());
        for (rel, _) in workload.schema.relations_with_ids() {
            assert!(
                base.shares_relation_base(&clone, rel),
                "relation {rel:?} must keep its shared base at seed={seed}"
            );
        }
        assert!(base.shares_adom_base(&clone));
        assert!(base.shares_interner_base(&clone));
        // Neither handle copied anything, and the origin is undisturbed.
        assert_eq!(base.shard_copies(), 0, "read-only origin at seed={seed}");
        assert_eq!(clone.shard_copies(), 0, "growing clone at seed={seed}");
        assert!(!base.contains(target, &fresh_tuple));
        assert!(clone.contains(target, &fresh_tuple));
    }
}

#[test]
fn rows_since_a_row_count_are_the_rows_inserted_after_it_across_snapshots() {
    // Oracle: each relation's rows in insertion order. Inserts append. A
    // speculative snapshot's rows are its own: the snapshot reads them
    // after the rows it shares, the store it was taken from never does, and
    // that store's later rows are not the snapshot's.
    use accrel::schema::{FactStore, Tuple};

    fn assert_rows_since(store: &FactStore, oracle: &[Vec<Tuple>], ctx: &str) {
        for (r, rows) in oracle.iter().enumerate() {
            let relation = accrel::schema::RelationId(r as u32);
            for k in 0..=rows.len() + 1 {
                let want = rows.get(k..).unwrap_or(&[]);
                assert!(
                    store.rows_since(relation, k).iter().eq(want),
                    "{ctx} relation={r} k={k}"
                );
            }
        }
    }
    fn insert_all(store: &mut FactStore, oracle: &mut [Vec<Tuple>], batch: &Configuration) {
        for (rel, t) in batch.facts() {
            if store.insert(rel, t.clone()).unwrap() {
                oracle[rel.index()].push(t);
            }
        }
    }

    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 4);
        let mut store = FactStore::new(workload.schema.clone());
        let mut oracle = vec![Vec::new(); workload.schema.relation_count()];
        insert_all(&mut store, &mut oracle, &conf);
        let ctx = format!("seed={seed} facts={facts}");
        assert_rows_since(&store, &oracle, &format!("initial {ctx}"));

        let mut rng = StdRng::seed_from_u64(seed + 606);
        let speculative = generate_configuration(&workload, 5, &mut rng);
        let committed = generate_configuration(&workload, 5, &mut rng);
        let mut snapshot = store.clone();
        let mut inside = oracle.clone();
        insert_all(&mut snapshot, &mut inside, &speculative);
        assert_rows_since(&snapshot, &inside, &format!("in the snapshot {ctx}"));
        assert_rows_since(&store, &oracle, &format!("beside the snapshot {ctx}"));
        insert_all(&mut store, &mut oracle, &committed);
        assert_rows_since(&store, &oracle, &format!("after later commits {ctx}"));
        assert_rows_since(&snapshot, &inside, &format!("after the store grew {ctx}"));
    }
}

/// A live handle of a lineage: the configuration, its deep-copied
/// reference (cloned with the handle) and the cursors that follow it.
struct LineageHandle {
    conf: Configuration,
    log: GrowthLog,
    marks: Vec<GrowthMark>,
}

impl LineageHandle {
    fn mark(&mut self) {
        self.marks.push(GrowthMark {
            cursor: accrel::schema::GrowthCursor::at(self.conf.store()),
            rows: self.log.rows.len(),
            entered: self.log.entered.len(),
            reads: Vec::new(),
        });
    }

    fn snapshot(&self) -> Self {
        LineageHandle {
            conf: self.conf.snapshot(),
            log: self.log.clone(),
            marks: self.marks.clone(),
        }
    }
}

/// Checks one handle against its reference through every read the store
/// offers: facts in row order, `rows_since`, membership, the order of
/// `posting_rows` and `matching` and `posting_bound` on one and on two
/// constraints (some on a value the store never saw), the active domain in
/// entry order, and the interner's round trips with dense ids.
fn assert_handle_agrees(handle: &LineageHandle, probes: &[Value], ctx: &str) {
    use accrel::schema::{DomainId, GrowthCursor, ValueId};
    fn on<'a>(rows: &'a [Tuple], pos: usize, v: &'a Value) -> impl Iterator<Item = &'a Tuple> {
        rows.iter().filter(move |t| t.get(pos) == Some(v))
    }
    let (store, log) = (handle.conf.store(), &handle.log);
    let interner = store.interner();
    assert_eq!(interner.len(), log.values.len(), "interner {ctx}");
    for ((id, v), (i, want)) in interner.iter().zip(log.values.iter().enumerate()) {
        assert_eq!((id, v), (ValueId(i as u32), want), "interner order {ctx}");
        assert_eq!(interner.lookup(want), Some(id), "lookup {ctx}");
        assert_eq!(interner.resolve(id), want, "resolve {ctx}");
    }
    let everything = GrowthCursor::default().advance(store);
    let entered: Vec<_> = (everything.entered().iter())
        .map(|&(id, d)| (interner.resolve(id).clone(), d))
        .collect();
    assert_eq!(entered, log.entered, "adom entry order {ctx}");
    assert_eq!(store.active_domain_len(), log.entered.len());
    for d in (0..store.schema().domain_count()).map(|d| DomainId(d as u32)) {
        for v in probes {
            let want = log.adom.contains(&(v.clone(), d));
            assert_eq!(store.adom_contains(v, d), want, "adom_contains {ctx}");
        }
    }
    for (relation, rel) in store.schema().relations_with_ids() {
        let rows = log.rows_of(relation);
        assert!(store.tuples(relation).eq(&rows), "facts in row order {ctx}");
        let scan = posting_tuples(store, relation, &[]);
        assert!(scan.into_iter().eq(&rows), "scan {ctx}");
        for k in 0..=rows.len() + 1 {
            let want = rows.get(k..).unwrap_or(&[]);
            assert!(
                store.rows_since(relation, k).iter().eq(want),
                "rows_since {k} {ctx}"
            );
        }
        assert!(
            rows.iter().all(|t| store.contains(relation, t)),
            "membership {ctx}"
        );
        for pos in 0..rel.arity() {
            for v in probes {
                let want: Vec<&Tuple> = on(&rows, pos, v).collect();
                let found = posting_tuples(store, relation, &[(pos, v)]);
                assert_eq!(found, want, "posting rows {ctx}");
                let matched = store.matching(relation, &[pos], std::slice::from_ref(v));
                assert!(matched.iter().eq(want.iter().copied()), "matching {ctx}");
                let ids = constraint_ids(store, &[(pos, v)]);
                assert_eq!(store.posting_bound(relation, ids), want.len());
            }
        }
        if rel.arity() < 2 {
            continue;
        }
        for (a, b) in probes.iter().zip(probes.iter().rev()) {
            let want: Vec<&Tuple> = on(&rows, 0, a).filter(|t| t.get(1) == Some(b)).collect();
            let found = posting_tuples(store, relation, &[(1, b), (0, a)]);
            assert_eq!(found, want, "two-constraint posting rows {ctx}");
            let matched = store.matching(relation, &[1, 0], &[b.clone(), a.clone()]);
            assert!(matched.iter().eq(want.iter().copied()), "matching {ctx}");
            let bound = on(&rows, 0, a).count().min(on(&rows, 1, b).count());
            let ids = constraint_ids(store, &[(0, a), (1, b)]);
            assert_eq!(store.posting_bound(relation, ids), bound);
        }
    }
    assert_eq!(store.len(), log.rows.len(), "len {ctx}");
}

#[test]
fn clone_lineages_agree_with_deep_copied_references() {
    // Random trees of handles: clones of grown clones over several
    // generations, handles dropped in between (so a base can become
    // unshared again), single inserts and `extend_facts` batches on every
    // live handle, and growth cursors marked and advanced at random. Each
    // handle must read exactly like its deep-copied reference after every
    // step, every handle must keep sharing each base with every other (all
    // descend from one root, and a base is only ever written while no other
    // handle holds it), and `is_subset_of` / `same_facts` between any two
    // handles must agree with the references.
    use rand::Rng;

    let spec = WorkloadSpec {
        relations: 3,
        arity: 2,
        domains: 2,
        constants: 4,
        dependent_fraction: 0.0,
    };
    let mut counts = TouchCounts::default();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = generate_workload(&spec, &mut rng).schema;
        let mut pool: Vec<Value> = (0..4).map(|i| Value::sym(format!("c{i}"))).collect();
        let mut minted = 0usize;
        let mut fact = |rng: &mut StdRng, pool: &mut Vec<Value>| {
            let relation = accrel::schema::RelationId(rng.gen_range(0..3u32));
            let arity = schema.arity(relation).unwrap();
            let values = (0..arity)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        minted += 1;
                        pool.push(Value::sym(format!("n{minted}")));
                        pool[pool.len() - 1].clone()
                    } else {
                        pool[rng.gen_range(0..pool.len())].clone()
                    }
                })
                .collect();
            (relation, Tuple::new(values))
        };
        let mut handles = vec![LineageHandle {
            conf: Configuration::empty(schema.clone()),
            log: GrowthLog::default(),
            marks: Vec::new(),
        }];
        // A mark inside a base that later grows a tail: the root appends to
        // its unshared base around the mark, is cloned, then grows again.
        handles[0].mark();
        for i in 0..8 {
            if i == 5 {
                let child = handles[0].snapshot();
                handles.push(child);
            }
            let f = fact(&mut rng, &mut pool);
            let root = &mut handles[0];
            let new = root.conf.insert(f.0, f.1.clone()).unwrap();
            assert_eq!(new, root.log.commit(&schema, &f));
            if i == 2 {
                root.mark();
            }
        }
        let ctx = format!("seed={seed} spanning mark");
        let root = &mut handles[0];
        check_growth(&root.conf, &root.log, &mut root.marks[1], &mut counts, &ctx);

        for step in 0..70 {
            let ctx = format!("seed={seed} step={step}");
            let h = rng.gen_range(0..handles.len());
            match rng.gen_range(0..10u32) {
                0..=2 => {
                    let f = fact(&mut rng, &mut pool);
                    let handle = &mut handles[h];
                    let new = handle.conf.insert(f.0, f.1.clone()).unwrap();
                    assert_eq!(new, handle.log.commit(&schema, &f), "insert {ctx}");
                }
                3 | 4 => {
                    let mut batch: Vec<_> = (0..rng.gen_range(1..6usize))
                        .map(|_| fact(&mut rng, &mut pool))
                        .collect();
                    if rng.gen_bool(0.3) {
                        // Repeat a row, stored or not.
                        batch.extend(handles[h].log.facts.iter().next().cloned());
                        batch.push(batch[0].clone());
                    }
                    let handle = &mut handles[h];
                    let added = handle.conf.extend_facts(batch.clone()).unwrap();
                    assert_eq!(
                        added,
                        handle.log.commit_batch(&schema, &batch),
                        "batch {ctx}"
                    );
                }
                5 | 6 if handles.len() < 6 => {
                    let clone = handles[h].snapshot();
                    handles.push(clone);
                }
                7 if handles.len() > 1 => {
                    handles.swap_remove(h);
                }
                8 => handles[h].mark(),
                _ if !handles[h].marks.is_empty() => {
                    let handle = &mut handles[h];
                    let i = rng.gen_range(0..handle.marks.len());
                    check_growth(
                        &handle.conf,
                        &handle.log,
                        &mut handle.marks[i],
                        &mut counts,
                        &ctx,
                    );
                }
                _ => handles[h].mark(),
            }
            let probes = [
                pool[rng.gen_range(0..pool.len())].clone(),
                pool[rng.gen_range(0..pool.len())].clone(),
                pool[pool.len() - 1].clone(),
                Value::sym("never-stored"),
            ];
            for (i, a) in handles.iter().enumerate() {
                assert_handle_agrees(a, &probes, &format!("{ctx} handle={i}"));
                for b in &handles {
                    let (sa, sb) = (a.conf.store(), b.conf.store());
                    for (relation, _) in schema.relations_with_ids() {
                        assert!(sa.shares_relation_base(sb, relation), "base {ctx}");
                    }
                    assert!(sa.shares_adom_base(sb) && sa.shares_interner_base(sb));
                    let want = a.log.facts.is_subset(&b.log.facts);
                    assert_eq!(a.conf.is_subset_of(&b.conf), want, "subset {ctx}");
                    let same = a.log.facts == b.log.facts;
                    assert_eq!(a.conf.same_facts(&b.conf), same, "same_facts {ctx}");
                }
            }
        }
    }
}

#[test]
fn duplicate_only_rounds_evict_nothing_and_leave_the_verdict_cache_intact() {
    // Re-applying an already-applied response inserts zero facts: the store
    // shows no growth, the oracle drains nothing, and every cached verdict
    // survives — re-checking the same accesses afterwards must be pure
    // cache hits. (Precise read-set invalidation is the default; the
    // duplicate round must be invisible to it.)
    use accrel::access::apply_access_in_place;
    use accrel::access::enumerate::{well_formed_accesses, EnumerationOptions};
    use accrel::engine::{RelevanceOracle, RunOptions};
    use accrel::schema::GrowthCursor;

    for seed in 0..6u64 {
        let spec = WorkloadSpec {
            relations: 3,
            arity: 2,
            domains: 2,
            constants: 5,
            dependent_fraction: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = generate_workload(&spec, &mut rng);
        let query = Query::Cq(generate_cq(&workload, 2, 3, 0.8, &mut rng));
        let instance = accrel::workloads::random::generate_instance(&workload, 12, &mut rng);
        let mut conf = generate_configuration(&workload, 4, &mut rng);

        let options = RunOptions::default();
        let mut oracle = RelevanceOracle::new(&query, &workload.methods, &options);

        // Warm the verdict cache over the current candidate set.
        let candidates =
            well_formed_accesses(&conf, &workload.methods, &EnumerationOptions::default());
        for access in candidates.iter().take(8) {
            let _ = oracle.check_ir(access, &mut conf);
            let _ = oracle.check_ltr(access, &mut conf);
        }

        // Find an access whose exact response actually grows the
        // configuration, apply it, and drain its growth the way the engine
        // does after a growing round.
        let mut applied: Option<(Access, Response)> = None;
        for access in &candidates {
            let Ok(response) = Response::exact(access, &workload.methods, &instance) else {
                continue;
            };
            let mut cursor = GrowthCursor::at(conf.store());
            let _ = apply_access_in_place(&mut conf, access, &response, &workload.methods);
            if !cursor.advance(conf.store()).is_empty() {
                let relation = workload.methods.get(access.method()).unwrap().relation();
                oracle.observe_growth(&mut conf, relation);
                applied = Some((access.clone(), response));
                break;
            }
        }
        let Some((access, response)) = applied else {
            continue; // nothing grows at this seed; the grid covers others
        };

        // Re-warm so the cache holds verdicts again after the growth round.
        for access in candidates.iter().take(8) {
            let _ = oracle.check_ir(access, &mut conf);
            let _ = oracle.check_ltr(access, &mut conf);
        }
        let evictions_before = oracle.evictions();
        let drained_before = oracle.events_drained();
        let misses_before = oracle.misses();

        // The duplicate-only round: same access, same response, zero new
        // facts. The store shows no growth, and draining must evict
        // nothing.
        let mut cursor = GrowthCursor::at(conf.store());
        let _ = apply_access_in_place(&mut conf, &access, &response, &workload.methods);
        assert!(
            cursor.advance(conf.store()).is_empty(),
            "duplicate response grew at seed={seed}"
        );
        let relation = workload.methods.get(access.method()).unwrap().relation();
        oracle.observe_growth(&mut conf, relation);
        assert_eq!(
            oracle.evictions(),
            evictions_before,
            "duplicate round evicted cached verdicts at seed={seed}"
        );
        assert_eq!(
            oracle.events_drained(),
            drained_before,
            "duplicate round drained events at seed={seed}"
        );

        // Cache survival: the same checks are now pure hits.
        for access in candidates.iter().take(8) {
            let _ = oracle.check_ir(access, &mut conf);
            let _ = oracle.check_ltr(access, &mut conf);
        }
        assert_eq!(
            oracle.misses(),
            misses_before,
            "verdict cache lost entries across a duplicate-only round at seed={seed}"
        );
    }
}

#[test]
fn index_backed_candidates_agree_with_membership_semantics() {
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 4);
        let store = conf.store();
        for (rel, _) in workload.schema.relations_with_ids() {
            // Unconstrained posting rows enumerate exactly the relation.
            assert_eq!(
                posting_tuples(store, rel, &[]).len(),
                store.relation_len(rel),
                "full scan mismatch at seed={seed}"
            );
            // Every stored tuple is found by its own full constraint set,
            // through the posting rows and through `matching`, and by
            // contains().
            for t in store.tuples(rel) {
                let constraints: Vec<(usize, &Value)> = t.iter().enumerate().collect();
                let hits = posting_tuples(store, rel, &constraints);
                assert!(
                    hits.contains(&t),
                    "tuple lost by its own constraints at seed={seed}"
                );
                let positions: Vec<usize> = (0..t.arity()).collect();
                let matched = store.matching(rel, &positions, t.values());
                assert_eq!(matched, std::slice::from_ref(t));
                assert!(store.contains(rel, t));
            }
        }
    }
}

/// The per-row reference behind the growth-feed and lineage properties:
/// every committed row in commit order, with per position its value, the
/// position's domain and whether the `(value, domain)` pair was new to the
/// active domain, the active domain's pairs in entry order, and the values
/// in the order the store interns them.
#[derive(Clone, Default)]
struct GrowthLog {
    facts: std::collections::HashSet<accrel::schema::Fact>,
    adom: std::collections::HashSet<(Value, accrel::schema::DomainId)>,
    rows: Vec<GrowthRow>,
    entered: Vec<(Value, accrel::schema::DomainId)>,
    values: Vec<Value>,
}

type GrowthRow = (
    accrel::schema::RelationId,
    Vec<(Value, accrel::schema::DomainId, bool)>,
);

impl GrowthLog {
    /// Interns the values of `t`, as the store does before it checks for a
    /// duplicate row.
    fn intern(&mut self, t: &Tuple) {
        for v in t.iter() {
            if !self.values.contains(v) {
                self.values.push(v.clone());
            }
        }
    }

    /// Logs `fact` if the store just committed it, that is if it is new.
    /// The newly-in-adom flags are read before the row's pairs are added.
    fn commit(&mut self, schema: &Schema, fact: &accrel::schema::Fact) -> bool {
        self.intern(&fact.1);
        if !self.facts.insert(fact.clone()) {
            return false;
        }
        let relation = schema.relation(fact.0).unwrap();
        let values: Vec<_> = fact
            .1
            .iter()
            .enumerate()
            .map(|(c, v)| {
                let pair = (v.clone(), relation.domain_at(c));
                (v.clone(), pair.1, !self.adom.contains(&pair))
            })
            .collect();
        for (v, d, _) in &values {
            if self.adom.insert((v.clone(), *d)) {
                self.entered.push((v.clone(), *d));
            }
        }
        self.rows.push((fact.0, values));
        true
    }

    /// Logs an `extend_facts` batch as the store commits it: every value
    /// interned in batch order, then the rows relation by relation, in
    /// batch order within each. Returns how many rows were new.
    fn commit_batch(&mut self, schema: &Schema, batch: &[accrel::schema::Fact]) -> usize {
        batch.iter().for_each(|(_, t)| self.intern(t));
        let mut committed = 0;
        for (relation, _) in schema.relations_with_ids() {
            for fact in batch.iter().filter(|(r, _)| *r == relation) {
                committed += usize::from(self.commit(schema, fact));
            }
        }
        committed
    }

    /// The committed rows of `relation`, in row order.
    fn rows_of(&self, relation: accrel::schema::RelationId) -> Vec<Tuple> {
        (self.rows.iter().filter(|(r, _)| *r == relation))
            .map(|(_, values)| Tuple::new(values.iter().map(|(v, _, _)| v.clone()).collect()))
            .collect()
    }
}

/// Whether one committed row could change the answer of `read`: the
/// per-row rule that [`ReadSet::touched_by`] over a whole growth must agree
/// with, applied to each row of the growth.
fn touched_by_row(read: &accrel::schema::Read, row: &GrowthRow, conf: &Configuration) -> bool {
    use accrel::schema::Read;
    let interner = conf.store().interner();
    let (relation, values) = row;
    let carries = |v: &Value| values.iter().any(|(x, _, _)| x == v);
    let mut entered = values.iter().filter(|(_, _, newly)| *newly);
    match read {
        Read::All => true,
        Read::Relation(r) => r == relation,
        Read::Pair(r, id) => r == relation && carries(interner.resolve(*id)),
        Read::UnknownValue(r, v) => r == relation && carries(v),
        Read::Adom => entered.next().is_some(),
        Read::AdomDomain(d) => entered.any(|(_, dd, _)| dd == d),
        Read::AdomPair(id, d) => entered.any(|(v, dd, _)| v == interner.resolve(*id) && dd == d),
        Read::AdomUnknown(v, d) => entered.any(|(x, dd, _)| x == v && dd == d),
        Read::AdomPrefix(d, bound) => entered.any(|(x, dd, _)| dd == d && x < bound),
    }
}

/// A cursor with the log positions it stands at and the read sets recorded
/// there.
#[derive(Clone)]
struct GrowthMark {
    cursor: accrel::schema::GrowthCursor,
    rows: usize,
    entered: usize,
    reads: Vec<accrel::schema::ReadSet>,
}

/// Touched and untouched read comparisons made so far.
#[derive(Default)]
struct TouchCounts {
    touched: usize,
    untouched: usize,
}

/// Advances `mark` over `conf` and checks the growth against `log`: the
/// rows per relation, the entered pairs in entry order, and every recorded
/// read (alone and as its set) against the per-row rule.
fn check_growth(
    conf: &Configuration,
    log: &GrowthLog,
    mark: &mut GrowthMark,
    counts: &mut TouchCounts,
    ctx: &str,
) {
    use accrel::schema::ReadSet;
    let growth = mark.cursor.advance(conf.store());
    let window = &log.rows[mark.rows..];
    let row_count: usize = growth.relations().map(|(_, rows)| rows.len()).sum();
    assert_eq!(row_count, window.len(), "row count at {ctx}");
    for (relation, _) in conf.schema().relations_with_ids() {
        let want: Vec<Tuple> = window
            .iter()
            .filter(|(r, _)| *r == relation)
            .map(|(_, values)| Tuple::new(values.iter().map(|(v, _, _)| v.clone()).collect()))
            .collect();
        assert!(growth.rows(relation).iter().eq(&want), "rows at {ctx}");
    }
    let entered: Vec<_> = growth
        .entered()
        .iter()
        .map(|&(id, d)| (growth.interner().resolve(id).clone(), d))
        .collect();
    assert_eq!(entered, log.entered[mark.entered..], "entered at {ctx}");
    for reads in &mark.reads {
        for read in reads.iter() {
            let want = window.iter().any(|row| touched_by_row(read, row, conf));
            let alone: ReadSet = std::iter::once(read.clone()).collect();
            assert_eq!(alone.touched_by(&growth), want, "{read:?} at {ctx}");
            if want {
                counts.touched += 1;
            } else {
                counts.untouched += 1;
            }
        }
        let want = window
            .iter()
            .any(|row| reads.iter().any(|read| touched_by_row(read, row, conf)));
        assert_eq!(reads.touched_by(&growth), want, "read set at {ctx}");
    }
    mark.rows = log.rows.len();
    mark.entered = log.entered.len();
}

/// Reads recorded at `conf`: the relevance procedures' reads for a few
/// well-formed accesses at both adom precisions, plus point and walk reads
/// of the store, some against values it does not hold yet.
fn record_reads(
    workload: &Workload,
    query: &Query,
    conf: &mut Configuration,
    pool: &[accrel::schema::Fact],
    rng: &mut StdRng,
) -> Vec<accrel::schema::ReadSet> {
    use accrel::access::enumerate::{well_formed_accesses, EnumerationOptions};
    use accrel::core::{
        is_immediately_relevant_given_uncertain, is_long_term_relevant_given_uncertain,
    };
    use accrel::schema::AdomPrecision;
    use rand::Rng;

    let methods = &workload.methods;
    let accesses = well_formed_accesses(conf, methods, &EnumerationOptions::default());
    let budget = SearchBudget::shallow();
    let mut sets = Vec::new();
    for precision in [AdomPrecision::Coarse, AdomPrecision::Precise] {
        for _ in 0..2 {
            if accesses.is_empty() {
                break;
            }
            let access = &accesses[rng.gen_range(0..accesses.len())];
            conf.begin_read_tracking_with(precision);
            let _ = is_immediately_relevant_given_uncertain(query, conf, access, methods);
            sets.push(conf.take_read_set());
            conf.begin_read_tracking_with(precision);
            let _ = is_long_term_relevant_given_uncertain(query, conf, access, methods, &budget);
            sets.push(conf.take_read_set());
        }
    }
    conf.begin_read_tracking_with(AdomPrecision::Precise);
    for _ in 0..3 {
        let (relation, t) = &pool[rng.gen_range(0..pool.len())];
        let first = &t.values()[0];
        let _ = conf.contains(*relation, t);
        let domain = conf.schema().domain_of(*relation, 0).unwrap();
        let _ = conf.adom_contains(first, domain);
        conf.rec_adom_walk(domain, Some(first));
        let _ = conf.matching(*relation, &[0], std::slice::from_ref(first));
    }
    sets.push(conf.take_read_set());
    sets
}

#[test]
fn growth_cursors_agree_with_a_per_row_reference() {
    use rand::Rng;

    // One growth step: a single insert (a duplicate now and then), an
    // `extend_facts` batch across relations, a new mark with read sets
    // recorded where it stands, or an advance of a random mark.
    #[allow(clippy::too_many_arguments)]
    fn step(
        workload: &Workload,
        query: &Query,
        conf: &mut Configuration,
        log: &mut GrowthLog,
        marks: &mut Vec<GrowthMark>,
        pool: &[accrel::schema::Fact],
        rng: &mut StdRng,
        counts: &mut TouchCounts,
        ctx: &str,
    ) {
        let schema = workload.schema.clone();
        match rng.gen_range(0..4u32) {
            0 => {
                let fact = pool[rng.gen_range(0..pool.len())].clone();
                assert_eq!(conf.active_domain_untracked(), log.adom, "adom at {ctx}");
                let new = conf.insert(fact.0, fact.1.clone()).unwrap();
                assert_eq!(new, log.commit(&schema, &fact), "insert at {ctx}");
            }
            1 => {
                let batch: Vec<_> = (0..rng.gen_range(1..5usize))
                    .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                    .collect();
                let inserted = conf.extend_facts(batch.clone()).unwrap();
                assert_eq!(
                    inserted,
                    log.commit_batch(&schema, &batch),
                    "batch at {ctx}"
                );
                assert_eq!(conf.active_domain_untracked(), log.adom, "adom at {ctx}");
            }
            2 => {
                let reads = record_reads(workload, query, conf, pool, rng);
                marks.push(GrowthMark {
                    cursor: accrel::schema::GrowthCursor::at(conf.store()),
                    rows: log.rows.len(),
                    entered: log.entered.len(),
                    reads,
                });
            }
            _ => {
                let i = rng.gen_range(0..marks.len());
                check_growth(conf, log, &mut marks[i], counts, ctx);
            }
        }
    }

    let spec = WorkloadSpec {
        relations: 3,
        arity: 2,
        domains: 2,
        constants: 6,
        dependent_fraction: 0.5,
    };
    let mut counts = TouchCounts::default();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = generate_workload(&spec, &mut rng);
        let query = Query::Cq(generate_cq(&workload, 2, 3, 0.6, &mut rng));
        let pool: Vec<_> = generate_configuration(&workload, 24, &mut rng)
            .facts()
            .collect();
        let mut conf = Configuration::empty(workload.schema.clone());
        let mut log = GrowthLog::default();
        // The default cursor stands before the first row.
        let mut marks = vec![GrowthMark {
            cursor: Default::default(),
            rows: 0,
            entered: 0,
            reads: Vec::new(),
        }];
        for i in 0..60 {
            let ctx = format!("seed={seed} step={i}");
            step(
                &workload,
                &query,
                &mut conf,
                &mut log,
                &mut marks,
                &pool,
                &mut rng,
                &mut counts,
                &ctx,
            );
            if i == 30 {
                // A snapshot taken part-way grows on its own; the marks
                // taken before it follow it too.
                let mut snapshot = conf.snapshot();
                let mut snapshot_log = log.clone();
                let mut snapshot_marks = marks.clone();
                for j in 0..20 {
                    let ctx = format!("seed={seed} snapshot step={j}");
                    step(
                        &workload,
                        &query,
                        &mut snapshot,
                        &mut snapshot_log,
                        &mut snapshot_marks,
                        &pool,
                        &mut rng,
                        &mut counts,
                        &ctx,
                    );
                }
                for mark in &mut snapshot_marks {
                    let ctx = format!("seed={seed} snapshot end");
                    check_growth(&snapshot, &snapshot_log, mark, &mut counts, &ctx);
                }
            }
        }
        for mark in &mut marks {
            let ctx = format!("seed={seed} end");
            check_growth(&conf, &log, mark, &mut counts, &ctx);
        }
    }
    assert!(
        counts.touched >= 2000 && counts.untouched >= 10000,
        "too few comparisons: {} touched, {} untouched",
        counts.touched,
        counts.untouched
    );
}

#[test]
fn events_drained_counts_the_rows_committed_after_the_first_cached_verdict() {
    // A guided run caches a verdict before its first access, so it drains
    // every row its responses commit. An exhaustive run caches none, so it
    // drains nothing.
    let scenario = bank_scenario();
    let source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        ResponsePolicy::Exact,
    );
    let initial = &scenario.initial_configuration;
    let run = |strategy| {
        let request = RunRequest::new(scenario.query.clone()).with_strategy(strategy);
        Sequential::new(&source).execute(&request, initial)
    };
    let hybrid = run(Strategy::Hybrid);
    let committed = hybrid.final_configuration.len() - initial.len();
    assert!(committed > 0);
    assert_eq!(hybrid.events_drained, committed);
    let exhaustive = run(Strategy::Exhaustive);
    assert!(exhaustive.final_configuration.len() > initial.len());
    assert_eq!(exhaustive.events_drained, 0);
}

// ---------------------------------------------------------------------------
// An independent reference for the join kernel
// ---------------------------------------------------------------------------

/// The values a brute-force search assigns to variables: the
/// configuration's active domain, the query's constants and the values of
/// `extra`, sorted and deduplicated.
fn reference_values(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    extra: &[accrel::schema::Fact],
) -> Vec<Value> {
    let mut values = conf.all_values();
    values.extend(query.constants());
    values.extend(extra.iter().flat_map(|(_, t)| t.iter().cloned()));
    values.sort();
    values.dedup();
    values
}

/// `query`'s variables in order of first occurrence.
fn variables_in_order(query: &ConjunctiveQuery) -> Vec<VarId> {
    let mut vars: Vec<VarId> = Vec::new();
    for atom in query.atoms() {
        for term in atom.terms() {
            if let Term::Var(v) = term {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
    }
    vars
}

/// Hands every assignment of `query`'s variables over
/// [`reference_values`] under which each atom's image is a fact of `conf`
/// (checked with `contains`) or of `extra` to `visit`, until `visit`
/// returns `true`; returns whether it did. Independent of the join kernel:
/// it assigns variables in a fixed order and never probes an index or
/// counts a candidate. An atom is checked as soon as its last variable is
/// assigned, which prunes the search without changing its answer.
fn brute_force(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    extra: &[accrel::schema::Fact],
    visit: &mut dyn FnMut(&HashMap<VarId, Value>) -> bool,
) -> bool {
    let values = reference_values(query, conf, extra);
    let vars = variables_in_order(query);
    // `due[k]`: the atoms whose variables are all among the first k.
    let mut due: Vec<Vec<&accrel::query::Atom>> = vec![Vec::new(); vars.len() + 1];
    for atom in query.atoms() {
        let last = atom
            .terms()
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => vars.iter().position(|x| x == v),
                Term::Const(_) => None,
            })
            .max()
            .map_or(0, |i| i + 1);
        due[last].push(atom);
    }
    let holds = |atom: &accrel::query::Atom, h: &HashMap<VarId, Value>| {
        let t = atom
            .substitute(h)
            .to_tuple()
            .expect("every variable assigned");
        conf.contains(atom.relation(), &t) || extra.contains(&(atom.relation(), t))
    };
    fn go(
        k: usize,
        vars: &[VarId],
        values: &[Value],
        due: &[Vec<&accrel::query::Atom>],
        holds: &dyn Fn(&accrel::query::Atom, &HashMap<VarId, Value>) -> bool,
        h: &mut HashMap<VarId, Value>,
        visit: &mut dyn FnMut(&HashMap<VarId, Value>) -> bool,
    ) -> bool {
        if !due[k].iter().all(|atom| holds(atom, h)) {
            return false;
        }
        let Some(&v) = vars.get(k) else {
            return visit(h);
        };
        for value in values {
            h.insert(v, value.clone());
            if go(k + 1, vars, values, due, holds, h, visit) {
                return true;
            }
        }
        h.remove(&v);
        false
    }
    go(0, &vars, &values, &due, &holds, &mut HashMap::new(), visit)
}

/// Whether the Boolean closure of `query` holds on `conf` plus `extra`, by
/// brute force.
fn brute_holds(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    extra: &[accrel::schema::Fact],
) -> bool {
    brute_force(query, conf, extra, &mut |_| true)
}

/// The answers of `query` on `conf`, by brute force, sorted.
fn brute_answers(query: &ConjunctiveQuery, conf: &Configuration) -> Vec<Tuple> {
    let mut out = Vec::new();
    brute_force(query, conf, &[], &mut |h| {
        out.push(Tuple::new(
            query.free_vars().iter().map(|v| h[v].clone()).collect(),
        ));
        false
    });
    out.sort();
    out.dedup();
    out
}

/// `query` with every variable in its head, in first-occurrence order.
fn with_full_head(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let names = (0..query.var_count()).map(|i| format!("v{i}")).collect();
    let head = variables_in_order(query);
    ConjunctiveQuery::new(query.schema().clone(), query.atoms().to_vec(), head, names)
}

/// Checks `holds_cq`, `answers_cq` (Boolean and with every variable in the
/// head) and a `CertaintyStatus` grown by `rows` against the brute-force
/// reference.
fn assert_kernel_agrees(
    query: &ConjunctiveQuery,
    mut conf: Configuration,
    rows: Vec<accrel::schema::Fact>,
    ctx: &str,
) {
    use accrel::query::eval::{answers_cq, holds_cq};
    let open = with_full_head(query);
    let boolean: Query = query.clone().into();
    let mut status = certain::CertaintyStatus::new(&boolean);
    for row in std::iter::once(None).chain(rows.into_iter().map(Some)) {
        if let Some((relation, t)) = row {
            conf.insert(relation, t).unwrap();
        }
        let holds = brute_holds(query, &conf, &[]);
        assert_eq!(holds_cq(query, conf.store()), holds, "holds_cq at {ctx}");
        assert_eq!(status.refresh(&conf), holds, "certainty status at {ctx}");
        let expected = if holds {
            vec![Tuple::empty()]
        } else {
            Vec::new()
        };
        assert_eq!(
            answers_cq(query, conf.store()),
            expected,
            "Boolean answers at {ctx}"
        );
        assert_eq!(
            answers_cq(&open, conf.store()),
            brute_answers(&open, &conf),
            "answers at {ctx}"
        );
    }
}

/// `query` with the variable `v` replaced by the constant `value`.
fn pinned_var(query: &ConjunctiveQuery, v: VarId, value: &Value) -> ConjunctiveQuery {
    let mapping = HashMap::from([(v, value.clone())]);
    let atoms = query.atoms().iter().map(|a| a.substitute(&mapping));
    let names = query.var_names().to_vec();
    ConjunctiveQuery::new(query.schema().clone(), atoms.collect(), Vec::new(), names)
}

/// An overlay under which `query` holds: the images of its atoms under a
/// valuation that sends its variables in turn to a stored value (when
/// `conf` has one), a fresh null and `ghost`, a symbol `conf` lacks.
fn completing_overlay(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    ghost: &Value,
) -> Vec<accrel::schema::Fact> {
    let stored = conf.all_values().into_iter().next();
    let mut fresh = conf.fresh_supply();
    let mut image = HashMap::new();
    for (k, v) in variables_in_order(query).into_iter().enumerate() {
        let value = match (k % 3, &stored) {
            (0, Some(stored)) => stored.clone(),
            (1, _) => fresh.next_value(),
            _ => ghost.clone(),
        };
        image.insert(v, value);
    }
    let facts = query.atoms().iter().map(|a| {
        let t = a.substitute(&image).to_tuple();
        (a.relation(), t.expect("every variable mapped"))
    });
    facts.collect()
}

/// Checks that `h` extends `partial` and maps every atom of `query` onto a
/// fact of `conf` or of `extra`.
fn assert_maps_into(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    extra: &[accrel::schema::Fact],
    partial: &accrel::query::Valuation,
    h: &accrel::query::Valuation,
    ctx: &str,
) {
    for (v, value) in partial.iter() {
        assert_eq!(h.get(*v), Some(value), "partial binding lost at {ctx}");
    }
    for atom in query.atoms() {
        let t = atom.substitute(h.as_map()).to_tuple().expect("total");
        let fact = (atom.relation(), t);
        assert!(
            conf.contains_fact(&fact) || extra.contains(&fact),
            "{fact:?} is no fact at {ctx}"
        );
    }
}

/// Checks the overlay and partial-valuation entry points of the join
/// kernel against the brute-force reference, on the values a join must
/// give ids of its own: overlay facts holding fresh nulls and a symbol the
/// store never interned, partial valuations binding a variable to a value
/// the store lacks, and a query constant unknown to the interner.
fn assert_overlays_agree(query: &ConjunctiveQuery, conf: &Configuration, ctx: &str) {
    use accrel::query::eval::{
        find_homomorphism, find_homomorphism_with_extra, holds_cq, holds_cq_with_extra,
    };
    use accrel::query::Valuation;
    let ghost = Value::sym("ghost");
    assert!(conf.store().interner().lookup(&ghost).is_none());
    let check = |query: &ConjunctiveQuery, extra: &[accrel::schema::Fact], ctx: &str| {
        let holds = brute_holds(query, conf, extra);
        let store = conf.store();
        assert_eq!(holds_cq_with_extra(query, store, extra), holds, "{ctx}");
        let none = Valuation::new();
        let found = find_homomorphism_with_extra(query.atoms(), store, extra, &none);
        assert_eq!(found.is_some(), holds, "homomorphism at {ctx}");
        if let Some(h) = found {
            assert_maps_into(query, conf, extra, &none, &h, ctx);
        }
    };
    let variant = variables_in_order(query)
        .first()
        .map(|&v| (v, pinned_var(query, v, &ghost)));
    let full = completing_overlay(query, conf, &ghost);
    let mut overlays = vec![full.clone(), full.iter().rev().cloned().collect()];
    overlays.extend((0..full.len()).map(|k| [&full[..k], &full[k + 1..]].concat()));
    for (k, extra) in overlays.iter().enumerate() {
        check(query, extra, &format!("overlay {k} at {ctx}"));
        let Some((v, pinned)) = &variant else {
            continue;
        };
        // The query constant `ghost` is unknown to the interner.
        check(pinned, &[], &format!("unknown constant at {ctx}"));
        let completed = completing_overlay(pinned, conf, &ghost);
        check(
            pinned,
            &completed,
            &format!("unknown constant, overlay at {ctx}"),
        );
        // A partial valuation binding `v` to a value the store lacks.
        for value in [ghost.clone(), conf.fresh_supply().next_value()] {
            let partial = Valuation::from_pairs([(*v, value.clone())]);
            let pinned = pinned_var(query, *v, &value);
            let ctx = format!("{v} = {value} over overlay {k} at {ctx}");
            let found = find_homomorphism(query.atoms(), conf.store(), &partial);
            assert_eq!(found.is_some(), brute_holds(&pinned, conf, &[]), "{ctx}");
            let found = find_homomorphism_with_extra(query.atoms(), conf.store(), extra, &partial);
            let holds = brute_holds(&pinned, conf, extra);
            assert_eq!(found.is_some(), holds, "{ctx}");
            if let Some(h) = found {
                assert_maps_into(query, conf, extra, &partial, &h, &ctx);
            }
        }
    }
    // The unknown constant without an overlay never holds.
    if let Some((_, pinned)) = &variant {
        assert!(!holds_cq(pinned, conf.store()), "{ctx}");
    }
}

/// Checks `holds_pq` and `answers_pq` of the two-disjunct positive query
/// `left ∨ right` against the brute-force reference, with the variables
/// both disjuncts share free.
fn assert_union_agrees(
    left: &ConjunctiveQuery,
    right: &ConjunctiveQuery,
    conf: &Configuration,
    ctx: &str,
) {
    use accrel::query::eval::{answers_pq, holds_pq};
    use accrel::query::PqFormula;
    let shared: Vec<VarId> = variables_in_order(left)
        .into_iter()
        .filter(|v| variables_in_order(right).contains(v))
        .collect();
    let conjunction = |q: &ConjunctiveQuery| {
        PqFormula::And(q.atoms().iter().cloned().map(PqFormula::Atom).collect())
    };
    let formula = PqFormula::Or(vec![conjunction(left), conjunction(right)]);
    let vars = left.var_count().max(right.var_count());
    let names = (0..vars).map(|i| format!("v{i}")).collect();
    let union = PositiveQuery::new(left.schema().clone(), formula, shared.clone(), names);
    assert_eq!(union.ucq().len(), 2, "{ctx}");
    let holds = brute_holds(left, conf, &[]) || brute_holds(right, conf, &[]);
    assert_eq!(holds_pq(&union, conf.store()), holds, "holds_pq at {ctx}");
    let head = |q: &ConjunctiveQuery| {
        let names = q.var_names().to_vec();
        ConjunctiveQuery::new(
            q.schema().clone(),
            q.atoms().to_vec(),
            shared.clone(),
            names,
        )
    };
    let mut expected = brute_answers(&head(left), conf);
    expected.extend(brute_answers(&head(right), conf));
    expected.sort();
    expected.dedup();
    if shared.is_empty() {
        expected = if holds {
            vec![Tuple::empty()]
        } else {
            Vec::new()
        };
    }
    assert_eq!(
        answers_pq(&union, conf.store()),
        expected,
        "answers_pq at {ctx}"
    );
}

/// A binary relation `R` over one domain, for the hand-written shapes.
fn binary_schema() -> std::sync::Arc<Schema> {
    let mut b = Schema::builder();
    let d = b.domain("D").unwrap();
    b.relation("R", &[("a", d), ("b", d)]).unwrap();
    b.relation("S", &[("a", d)]).unwrap();
    b.build()
}

/// `R(x, x)` and the self-join `R(x, y) ∧ R(y, x) ∧ S(y)`.
fn repeated_variable_and_self_join(schema: &std::sync::Arc<Schema>) -> [ConjunctiveQuery; 2] {
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let x = qb.var("x");
    qb.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
    let repeated = qb.build();
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let (x, y) = (qb.var("x"), qb.var("y"));
    qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
    qb.atom("R", vec![Term::Var(y), Term::Var(x)]).unwrap();
    qb.atom("S", vec![Term::Var(y)]).unwrap();
    [repeated, qb.build()]
}

#[test]
fn join_kernel_agrees_with_a_brute_force_reference() {
    for (seed, atoms, facts) in cases() {
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let Query::Cq(cq) = &query else {
            unreachable!("the grid draws conjunctive queries")
        };
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let extra = generate_configuration(&workload, 4, &mut rng);
        let ctx = format!("seed={seed} atoms={atoms} facts={facts}");
        assert_overlays_agree(cq, &conf, &ctx);
        let other = accrel::workloads::random::generate_cq(&workload, atoms, 3, 0.8, &mut rng);
        assert_union_agrees(cq, &other, &conf, &ctx);
        assert_union_agrees(cq, &other, &conf.union(&extra), &format!("grown {ctx}"));
        assert_kernel_agrees(cq, conf, extra.sorted_facts(), &ctx);
    }

    let schema = binary_schema();
    let r = schema.relation_by_name("R").unwrap();
    let s = schema.relation_by_name("S").unwrap();
    let [repeated, self_join] = repeated_variable_and_self_join(&schema);
    for query in [&repeated, &self_join] {
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("R", ["1", "2"]).unwrap();
        conf.insert_named("S", ["1"]).unwrap();
        assert_overlays_agree(query, &conf, &format!("{query:?}"));
        let rows = vec![
            (r, tuple(["3", "4"])),
            (r, tuple(["2", "1"])),
            (s, tuple(["2"])),
            (r, tuple(["5", "5"])),
        ];
        assert_kernel_agrees(query, conf, rows, &format!("{query:?}"));
    }
    // The self-join over a configuration whose S holds no row: its S atom
    // matches overlay facts only, with values the store never interned.
    let mut conf = Configuration::empty(schema.clone());
    conf.insert_named("R", ["1", "2"]).unwrap();
    conf.insert_named("R", ["2", "1"]).unwrap();
    assert_overlays_agree(&self_join, &conf, "self-join, S empty");
    assert_union_agrees(&repeated, &self_join, &conf, "R(x, x) or the self-join");
}

/// Immediate relevance by its definition: the query is not certain at
/// `conf`, and some response to `access` makes it certain. Tries every
/// response of at most `k` tuples on the accessed relation, where `k` is
/// the number of query atoms on it (a witness maps each onto at most one
/// tuple). A response tuple holds the binding at the input positions and,
/// at each output position, a value of the active domain, a query
/// constant, a binding value or one of `k` fresh values.
fn ir_by_trying_every_response(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> bool {
    let method = methods.get(access.method()).unwrap();
    let relation = method.relation();
    let k = query
        .atoms()
        .iter()
        .filter(|a| a.relation() == relation)
        .count();
    let mut values = reference_values(query, conf, &[]);
    values.extend(access.binding().values().iter().cloned());
    let mut fresh = accrel::schema::FreshSupply::above(values.iter());
    values.extend((0..k).map(|_| fresh.next_value()));
    values.sort();
    values.dedup();
    let arity = conf.schema().arity(relation).unwrap();
    let mut tuples: Vec<Vec<Value>> = vec![vec![Value::int(0); arity]];
    for pos in 0..arity {
        let choices: Vec<Value> = match method.input_positions().iter().position(|&p| p == pos) {
            Some(k) => vec![access.binding().get(k).unwrap().clone()],
            None => values.clone(),
        };
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                choices.iter().map(move |v| {
                    let mut t = t.clone();
                    t[pos] = v.clone();
                    t
                })
            })
            .collect();
    }
    let tuples: Vec<accrel::schema::Fact> = tuples
        .into_iter()
        .map(|t| (relation, Tuple::new(t)))
        .collect();
    // Every subset of at most `k` tuples, as strictly increasing indexes.
    fn responses_make_certain(
        query: &ConjunctiveQuery,
        conf: &Configuration,
        tuples: &[accrel::schema::Fact],
        from: usize,
        room: usize,
        chosen: &mut Vec<accrel::schema::Fact>,
    ) -> bool {
        if !chosen.is_empty() && brute_holds(query, conf, chosen) {
            return true;
        }
        if room == 0 {
            return false;
        }
        (from..tuples.len()).any(|i| {
            chosen.push(tuples[i].clone());
            let found = responses_make_certain(query, conf, tuples, i + 1, room - 1, chosen);
            chosen.pop();
            found
        })
    }
    !brute_holds(query, conf, &[])
        && responses_make_certain(query, conf, &tuples, 0, k, &mut Vec::new())
}

/// Variants of the Boolean `query` around the charge rule of an access to
/// `relation` with its one input place at `input` and `bound` there: every
/// atom on `relation` pinned at `input` to `bound` (so each can be
/// charged) and to `other` (so none can); and `query` with one more atom on
/// `relation`, fresh outside `input`, holding at `input` the query's first
/// variable or `other`.
fn charge_variants(
    query: &ConjunctiveQuery,
    relation: accrel::schema::RelationId,
    input: usize,
    bound: &Value,
    other: &Value,
) -> Vec<ConjunctiveQuery> {
    use accrel::query::Atom;
    let vars = query.var_count();
    let arity = query.schema().arity(relation).unwrap();
    let rebuilt = |atoms: Vec<Atom>| {
        let names = (0..vars + arity).map(|i| format!("v{i}")).collect();
        ConjunctiveQuery::new(query.schema().clone(), atoms, Vec::new(), names)
    };
    let pinned = |c: &Value| {
        let atoms = query.atoms().iter().map(|a| {
            let mut terms = a.terms().to_vec();
            if a.relation() == relation {
                terms[input] = Term::Const(c.clone());
            }
            Atom::new(a.relation(), terms)
        });
        rebuilt(atoms.collect())
    };
    let with_one_more = |at_input: Term| {
        let terms = (0..arity).map(|p| {
            if p == input {
                at_input.clone()
            } else {
                Term::Var(VarId((vars + p) as u32))
            }
        });
        let mut atoms = query.atoms().to_vec();
        atoms.push(Atom::new(relation, terms.collect()));
        rebuilt(atoms)
    };
    let first = variables_in_order(query).first().copied();
    let joined = Term::Var(first.unwrap_or(VarId(vars as u32)));
    vec![
        pinned(bound),
        pinned(other),
        with_one_more(joined),
        with_one_more(Term::Const(other.clone())),
    ]
}

#[test]
fn immediate_relevance_agrees_with_trying_every_response() {
    use accrel::core::is_immediately_relevant_given_uncertain;
    let check = |query: &ConjunctiveQuery,
                 conf: &Configuration,
                 access: &Access,
                 methods: &AccessMethods,
                 ctx: &str|
     -> bool {
        let expected = ir_by_trying_every_response(query, conf, access, methods);
        let q: Query = query.clone().into();
        assert_eq!(
            is_immediately_relevant(&q, conf, access, methods),
            expected,
            "IR at {ctx}"
        );
        if !brute_holds(query, conf, &[]) {
            assert_eq!(
                is_immediately_relevant_given_uncertain(&q, conf, access, methods),
                expected,
                "IR given uncertain at {ctx}"
            );
        }
        expected
    };
    let (mut relevant, mut variants_relevant) = (0, [0; 4]);
    for (seed, atoms, facts) in cases() {
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let Query::Cq(cq) = &query else {
            unreachable!("the grid draws conjunctive queries")
        };
        for (id, method) in workload.methods.iter() {
            for shift in [0, 2] {
                let pick = |k: usize| &workload.constants[k % workload.constants.len()];
                let value = pick(seed as usize + shift);
                let values = method.input_positions().iter().map(|_| value.clone());
                let access = Access::new(id, values.collect());
                let ctx = format!("seed={seed} atoms={atoms} facts={facts} {access:?}");
                relevant += usize::from(check(cq, &conf, &access, &workload.methods, &ctx));
                // The grid's methods have one input place each.
                let input = method.input_positions()[0];
                let other = pick(seed as usize + shift + 1);
                let variants = charge_variants(cq, method.relation(), input, value, other);
                for (k, variant) in variants.iter().enumerate() {
                    let ctx = format!("{ctx} variant {k}: {variant:?}");
                    let ir = check(variant, &conf, &access, &workload.methods, &ctx);
                    variants_relevant[k] += usize::from(ir);
                }
            }
        }
    }
    assert!(relevant > 0, "the grid never exercises a relevant access");
    // Pinning every atom on the accessed relation to a value other than the
    // binding leaves nothing to charge; the other variants stay relevant in
    // some cases.
    assert_eq!(variants_relevant[1], 0, "{variants_relevant:?}");
    assert!(
        [0, 2, 3].iter().all(|&k| variants_relevant[k] > 0),
        "{variants_relevant:?}"
    );

    // R(x, x) is completed only by a response repeating the binding, a
    // value the configuration does not hold; the self-join needs its
    // second R row.
    let schema = binary_schema();
    let mut mb = AccessMethods::builder(schema.clone());
    let probe = mb
        .add("probe", "R", &["a"], AccessMode::Independent)
        .unwrap();
    let methods = mb.build();
    let [repeated, self_join] = repeated_variable_and_self_join(&schema);
    let mut conf = Configuration::empty(schema.clone());
    conf.insert_named("R", ["1", "2"]).unwrap();
    conf.insert_named("S", ["2"]).unwrap();
    let access = |v: &str| Access::new(probe, binding([v]));
    assert!(check(
        &repeated,
        &conf,
        &access("9"),
        &methods,
        "R(x, x) on 9"
    ));
    assert!(check(
        &self_join,
        &conf,
        &access("2"),
        &methods,
        "self-join on 2"
    ));
    assert!(!check(
        &self_join,
        &conf,
        &access("1"),
        &methods,
        "self-join on 1"
    ));

    // S(x) ∧ U(x) ∧ S(y) ∧ T(y) with U(0), S(7) and three T rows, accessed
    // at S(0): the search charges S(x), then tries S(y) (fewer candidates
    // than T(y)) by the charge first. That binds y = 0, which no T row
    // has, so only S(y)'s configuration row S(7) completes the witness.
    let mut b = Schema::builder();
    let d = b.domain("D").unwrap();
    for name in ["S", "T", "U"] {
        b.relation(name, &[("a", d)]).unwrap();
    }
    let schema = b.build();
    let mut mb = AccessMethods::builder(schema.clone());
    let s_check = mb
        .add_boolean("SCheck", "S", AccessMode::Independent)
        .unwrap();
    let methods = mb.build();
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let (x, y) = (qb.var("x"), qb.var("y"));
    for (relation, v) in [("S", x), ("U", x), ("S", y), ("T", y)] {
        qb.atom(relation, vec![Term::Var(v)]).unwrap();
    }
    let query = qb.build();
    let mut conf = Configuration::empty(schema);
    for (relation, v) in [("U", "0"), ("S", "7"), ("T", "7"), ("T", "8"), ("T", "9")] {
        conf.insert_named(relation, [v]).unwrap();
    }
    let access = Access::new(s_check, binding(["0"]));
    assert!(check(
        &query,
        &conf,
        &access,
        &methods,
        "charge, then fall back"
    ));

    // R(1, y) ∧ R(y, z) ∧ S(z) accessed at R(5): only the second R atom
    // can be charged. The search branches on R(1, y) first (the fewest
    // candidates) and matches it in the configuration with nothing charged
    // yet, which must not cut the branch: R(y, z) is still open.
    let schema = binary_schema();
    let mut mb = AccessMethods::builder(schema.clone());
    let probe = mb
        .add("probe", "R", &["a"], AccessMode::Independent)
        .unwrap();
    let methods = mb.build();
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let (y, z) = (qb.var("y"), qb.var("z"));
    qb.atom("R", vec![Term::constant("1"), Term::Var(y)])
        .unwrap();
    qb.atom("R", vec![Term::Var(y), Term::Var(z)]).unwrap();
    qb.atom("S", vec![Term::Var(z)]).unwrap();
    let query = qb.build();
    let mut conf = Configuration::empty(schema.clone());
    for (a, b) in [("1", "5"), ("2", "3"), ("3", "4")] {
        conf.insert_named("R", [a, b]).unwrap();
    }
    for v in ["9", "8", "7"] {
        conf.insert_named("S", [v]).unwrap();
    }
    let at = |v: &str| Access::new(probe, binding([v]));
    assert!(check(
        &query,
        &conf,
        &at("5"),
        &methods,
        "second atom charged"
    ));
    let q: Query = query.into();
    let w = accrel::core::ir::immediate_relevance_witness(&q, &conf, &at("5"), &methods).unwrap();
    assert_eq!(w.response.len(), 1);
    assert_eq!(w.response[0].get(0), Some(&Value::sym("5")));

    // R(1, y) ∧ S(y) accessed at R(5): the one R atom holds 1 where the
    // binding holds 5, so no response can match it. IR is false, decided
    // without reading the configuration, also by the search alone, which
    // would otherwise start from S (three rows against R(1, y)'s three
    // and a possible charge).
    conf.insert_named("R", ["1", "6"]).unwrap();
    conf.insert_named("R", ["1", "4"]).unwrap();
    let mut qb = ConjunctiveQuery::builder(schema);
    let y = qb.var("y");
    qb.atom("R", vec![Term::constant("1"), Term::Var(y)])
        .unwrap();
    qb.atom("S", vec![Term::Var(y)]).unwrap();
    let query = qb.build();
    assert!(!check(
        &query,
        &conf,
        &at("5"),
        &methods,
        "constant off the binding"
    ));
    let q: Query = query.clone().into();
    conf.begin_read_tracking_with(accrel::schema::AdomPrecision::Precise);
    assert!(!is_immediately_relevant(&q, &conf, &at("5"), &methods));
    assert!(!is_immediately_relevant_given_uncertain(
        &q,
        &conf,
        &at("5"),
        &methods
    ));
    assert!(conf.take_read_set().is_empty());
    assert!(check(
        &query,
        &conf,
        &at("1"),
        &methods,
        "constant on the binding"
    ));
}

/// Long-term relevance under independent accesses by its ΣP2 condition,
/// with the valuations enumerated directly: the query is not certain at
/// `conf`, and some disjunct has a valuation under which every atom is
/// covered and the facts left to later accesses keep every disjunct false
/// on `conf`. Each variable takes a configuration value, a binding value
/// or a fresh null of its own. An atom's image is covered by a stored fact
/// or by the access (on the accessed relation, holding the binding at the
/// input places) when it can be, and otherwise by a later access, which
/// needs a method on its relation. Independent of the ΣP2 walk: it never
/// draws candidates or charges an atom.
fn ltr_by_enumerating_valuations(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> bool {
    use accrel::query::eval::holds_cq_with_extra;
    let ucq = query.ucq();
    if ucq.iter().any(|d| brute_holds(d, conf, &[])) {
        return false;
    }
    let method = methods.get(access.method()).unwrap();
    let binding = access.binding().values();
    let by_access = |relation, t: &Tuple| {
        let mut inputs = method.input_positions().iter().zip(binding);
        relation == method.relation() && inputs.all(|(&p, b)| t.get(p) == Some(b))
    };
    let mut values = conf.all_values();
    values.extend(binding.iter().cloned());
    values.sort();
    values.dedup();
    let mut fresh = accrel::schema::FreshSupply::above(values.iter());
    // The facts left to later accesses, or `None` when some atom cannot be
    // covered at all.
    let later_facts = |disjunct: &ConjunctiveQuery, h: &HashMap<VarId, Value>| {
        let mut later = Vec::new();
        for atom in disjunct.atoms() {
            let t = atom
                .substitute(h)
                .to_tuple()
                .expect("every variable assigned");
            if conf.contains(atom.relation(), &t) || by_access(atom.relation(), &t) {
                continue;
            }
            if !methods.has_method(atom.relation()) {
                return None;
            }
            later.push((atom.relation(), t));
        }
        Some(later)
    };
    ucq.iter().any(|disjunct| {
        let vars = variables_in_order(disjunct);
        let choices: Vec<Vec<Value>> = vars
            .iter()
            .map(|_| {
                let mut own = values.clone();
                own.push(fresh.next_value());
                own
            })
            .collect();
        let mut h = HashMap::new();
        let mut odometer = vec![0; vars.len()];
        loop {
            for (k, v) in vars.iter().enumerate() {
                h.insert(*v, choices[k][odometer[k]].clone());
            }
            let witness = later_facts(disjunct, &h).is_some_and(|later| {
                !ucq.iter()
                    .any(|d| holds_cq_with_extra(d, conf.store(), &later))
            });
            if witness {
                return true;
            }
            // The next valuation, or the end of them.
            let Some(k) = (0..vars.len()).find(|&k| odometer[k] + 1 < choices[k].len()) else {
                return false;
            };
            odometer[k] += 1;
            odometer[..k].fill(0);
        }
    })
}

#[test]
fn ltr_independent_agrees_with_a_brute_force_reference() {
    use accrel::core::ltr_independent::is_ltr_independent;
    use accrel::core::{is_long_term_relevant_given_uncertain, SearchBudget};
    use accrel::query::PqFormula;
    // Checks the ΣP2 walk, with and without its certainty check, against
    // the reference; returns the reference's verdict.
    let check = |q: &Query,
                 conf: &Configuration,
                 access: &Access,
                 methods: &AccessMethods,
                 ctx: &str|
     -> bool {
        let expected = ltr_by_enumerating_valuations(q, conf, access, methods);
        let ltr = is_ltr_independent(q, conf, access, methods);
        assert_eq!(ltr, expected, "LTR at {ctx}");
        if !q.ucq().iter().any(|d| brute_holds(d, conf, &[])) {
            let budget = SearchBudget::default();
            let given_uncertain =
                is_long_term_relevant_given_uncertain(q, conf, access, methods, &budget);
            assert_eq!(given_uncertain, expected, "LTR given uncertain at {ctx}");
        }
        expected
    };
    // Relevant accesses: of the grid's queries, of their unions with a
    // second query, and with the accessed method the only one.
    let mut accesses = 0;
    let (mut relevant, mut union_relevant, mut alone_relevant) = (0, 0, 0);
    for (seed, atoms, facts) in cases() {
        let (workload, query, conf) = workload_and_query(seed, atoms, facts);
        let Query::Cq(cq) = &query else {
            unreachable!("the grid draws conjunctive queries")
        };
        // The grid's query or'ed with another of the same size.
        let mut rng = StdRng::seed_from_u64(seed + 3);
        let other = accrel::workloads::random::generate_cq(&workload, atoms, 3, 0.8, &mut rng);
        let conjunction = |q: &ConjunctiveQuery| {
            PqFormula::And(q.atoms().iter().cloned().map(PqFormula::Atom).collect())
        };
        let names = (0..cq.var_count().max(other.var_count()))
            .map(|i| format!("v{i}"))
            .collect();
        let formula = PqFormula::Or(vec![conjunction(cq), conjunction(&other)]);
        let union: Query = PositiveQuery::new(cq.schema().clone(), formula, vec![], names).into();
        for (id, method) in workload.methods.iter() {
            // The grid's methods have one input place each. With the
            // accessed method the only one, no other relation can take a
            // later access.
            let input = method.input_positions()[0];
            let mut alone = AccessMethods::builder(workload.schema.clone());
            let alone_id = alone
                .add_positions(
                    "alone",
                    method.relation(),
                    vec![input],
                    AccessMode::Independent,
                )
                .unwrap();
            let alone = alone.build();
            let domain = workload.schema.domain_of(method.relation(), input).unwrap();
            let mut bound = conf.values_of_domain(domain);
            bound.push(Value::sym("unseen"));
            for value in bound {
                let ctx = format!("seed={seed} atoms={atoms} facts={facts} {method:?} {value:?}");
                let access = Access::new(id, binding([value.clone()]));
                accesses += 1;
                relevant += usize::from(check(&query, &conf, &access, &workload.methods, &ctx));
                let union_ltr = check(&union, &conf, &access, &workload.methods, &ctx);
                union_relevant += usize::from(union_ltr);
                let access = Access::new(alone_id, binding([value]));
                for q in [&query, &union] {
                    let ctx = format!("{ctx} alone {q:?}");
                    alone_relevant += usize::from(check(q, &conf, &access, &alone, &ctx));
                }
            }
        }
    }
    assert_eq!((accesses, relevant), (222, 95));
    assert!(union_relevant > relevant, "{union_relevant}");
    assert!((1..relevant).contains(&alone_relevant), "{alone_relevant}");

    // (A(u) ∧ R(x, y)) ∨ R(z, z) over an empty configuration, accessed at
    // A(a): the access covers A(u), and R(x, y) is left to a later access,
    // which may return two distinct values. One null for both x and y would
    // make that later fact R(n, n), which satisfies R(z, z) and hides the
    // witness.
    let mut b = Schema::builder();
    let d = b.domain("D").unwrap();
    b.relation("A", &[("a", d)]).unwrap();
    b.relation("R", &[("a", d), ("b", d)]).unwrap();
    let schema = b.build();
    let mut mb = AccessMethods::builder(schema.clone());
    let a_check = mb
        .add_boolean("ACheck", "A", AccessMode::Independent)
        .unwrap();
    mb.add("RAcc", "R", &["a"], AccessMode::Independent)
        .unwrap();
    let methods = mb.build();
    let mut pb = PositiveQuery::builder(schema.clone());
    let [u, x, y, z] = ["u", "x", "y", "z"].map(|n| pb.var(n));
    let au = pb.atom("A", vec![Term::Var(u)]).unwrap();
    let rxy = pb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
    let rzz = pb.atom("R", vec![Term::Var(z), Term::Var(z)]).unwrap();
    let query: Query = pb.build(au.and(rxy).or(rzz)).into();
    let conf = Configuration::empty(schema);
    let access = Access::new(a_check, binding(["a"]));
    assert!(check(&query, &conf, &access, &methods, "distinct nulls"));
}

#[test]
fn unknown_values_stay_symbolic_in_read_sets() {
    // A join gives a value the store never interned an id of its own, past
    // the interner's range. A probe on it must record the value, not that
    // id: the id names no stored value, and a later insert could give a
    // real value the same id.
    use accrel::core::is_immediately_relevant_given_uncertain;
    use accrel::engine::{RelevanceOracle, RunOptions};
    use accrel::query::eval::holds_cq;
    use accrel::schema::{AdomPrecision, GrowthCursor, Read};

    let schema = binary_schema();
    let (r, s) = (
        schema.relation_by_name("R").unwrap(),
        schema.relation_by_name("S").unwrap(),
    );
    let mut conf = Configuration::empty(schema.clone());
    for (a, b) in [("1", "2"), ("2", "3")] {
        conf.insert_named("R", [a, b]).unwrap();
    }
    conf.insert_named("S", ["9"]).unwrap();
    let ghost = Value::sym("ghost");
    assert!(conf.store().interner().lookup(&ghost).is_none());
    let symbolic = |reads: &accrel::schema::ReadSet| {
        let reads: Vec<&Read> = reads.iter().collect();
        assert_eq!(reads, [&Read::UnknownValue(r, ghost.clone())]);
    };

    // R(x, ghost) ∧ S(x): the R atom has no candidate, so the join branches
    // on it first and records its probe of the unknown constant.
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let x = qb.var("x");
    qb.atom("R", vec![Term::Var(x), Term::Const(ghost.clone())])
        .unwrap();
    qb.atom("S", vec![Term::Var(x)]).unwrap();
    let constant = qb.build();
    conf.begin_read_tracking_with(AdomPrecision::Precise);
    assert!(!holds_cq(&constant, conf.store()));
    let reads = conf.take_read_set();
    symbolic(&reads);
    let mut cursor = GrowthCursor::at(conf.store());
    conf.insert(r, tuple(["4", "ghost"])).unwrap();
    assert!(reads.touched_by(&cursor.advance(conf.store())));

    // R(x, y) ∧ S(y) accessed at S(ghost): the search branches on S(y)
    // (one row and a possible charge, against R's three rows), the charge
    // binds y to the binding's value, which the store lacks, and the probe
    // of R through y refutes the witness.
    let mut conf = Configuration::empty(schema.clone());
    for (a, b) in [("1", "2"), ("2", "3"), ("3", "4")] {
        conf.insert_named("R", [a, b]).unwrap();
    }
    conf.insert_named("S", ["9"]).unwrap();
    let mut mb = AccessMethods::builder(schema.clone());
    let check = mb
        .add("check", "S", &["a"], AccessMode::Independent)
        .unwrap();
    let methods = mb.build();
    let query: Query = {
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let (x, y) = (qb.var("x"), qb.var("y"));
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        qb.build().into()
    };
    let access = Access::new(check, binding(["ghost"]));
    assert!(!certain::is_certain(&query, &conf));
    conf.begin_read_tracking_with(AdomPrecision::Precise);
    assert!(!is_immediately_relevant_given_uncertain(
        &query, &conf, &access, &methods
    ));
    symbolic(&conf.take_read_set());

    // So the verdict stays cached until a row carries the value, and that
    // row evicts it: the access is immediately relevant then.
    let options = RunOptions::default();
    let mut oracle = RelevanceOracle::new(&query, &methods, &options);
    assert!(!oracle.check_ir(&access, &mut conf));
    conf.insert(s, tuple(["7"])).unwrap();
    oracle.observe_growth(&mut conf, s);
    assert!(!oracle.check_ir(&access, &mut conf));
    assert_eq!(oracle.evictions(), 0, "a row without the value evicted it");
    conf.insert(r, tuple(["5", "ghost"])).unwrap();
    oracle.observe_growth(&mut conf, r);
    assert!(oracle.check_ir(&access, &mut conf));
    assert_eq!(oracle.evictions(), 1);
}

#[test]
fn a_refutation_reads_only_the_atoms_it_branched_on() {
    // Shaped like the dense-probe benchmark: R0(x, y) ∧ R1(y, z) ∧ R2(z, w)
    // over a large R0, a small R1 keyed by a method on its first place, and
    // an R2 that no R1 row joins. The dead key j0 occurs in R1 only, so no
    // response to R1(j0)? can complete the query. A join that starts from
    // the small middle atom refutes that without scanning R0, and a search
    // that must charge the access refutes it without scanning R1 either.
    use accrel::core::is_immediately_relevant_given_uncertain;
    use accrel::engine::{RelevanceOracle, RunOptions};
    use accrel::schema::{AdomPrecision, GrowthCursor, Read};

    let mut b = Schema::builder();
    let d = b.domain("D").unwrap();
    let k = b.domain("K").unwrap();
    b.relation("R0", &[("a", d), ("b", k)]).unwrap();
    b.relation("R1", &[("a", k), ("b", d)]).unwrap();
    b.relation("R2", &[("a", d), ("b", d)]).unwrap();
    let schema = b.build();
    let rel = |name: &str| schema.relation_by_name(name).unwrap();
    let (r0, r1, r2) = (rel("R0"), rel("R1"), rel("R2"));
    let mut mb = AccessMethods::builder(schema.clone());
    let probe = mb
        .add("probe", "R1", &["a"], AccessMode::Dependent)
        .unwrap();
    let methods = mb.build();
    let query: Query = {
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| qb.var(n));
        qb.atom("R0", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R1", vec![Term::Var(y), Term::Var(z)]).unwrap();
        qb.atom("R2", vec![Term::Var(z), Term::Var(w)]).unwrap();
        qb.build().into()
    };
    let sym = |s: String| Value::sym(s);
    let mut conf = Configuration::empty(schema.clone());
    for i in 0..400 {
        let row = tuple([sym(format!("d{i:03}")), sym(format!("k{}", i % 8))]);
        conf.insert(r0, row).unwrap();
    }
    for i in 0..12 {
        let key = if i < 10 {
            format!("k{}", i % 8)
        } else {
            "j0".into()
        };
        conf.insert(r1, tuple([sym(key), sym(format!("m{i:02}"))]))
            .unwrap();
    }
    for i in 0..400 {
        let row = tuple([
            sym(format!("d{i:03}")),
            sym(format!("d{:03}", (i * 7) % 400)),
        ]);
        conf.insert(r2, row).unwrap();
    }
    assert!(!certain::is_certain(&query, &conf));
    let dead = Access::new(probe, binding(["j0"]));

    // The count behind the choice records nothing.
    conf.begin_read_tracking_with(AdomPrecision::Precise);
    assert_eq!(conf.store().posting_bound(r0, []), 400);
    let k3 = conf.store().interner().lookup(&Value::sym("k3")).unwrap();
    assert_eq!(conf.store().posting_bound(r0, [(1, k3)]), 50);
    assert!(conf.take_read_set().is_empty());

    // The refutation charges R1(j0, z) and probes R0 at j0, which no R0
    // row holds. Matching R1(y, z) in the configuration instead would leave
    // nothing to charge (R1 is the only atom on the accessed relation), so
    // that branch is cut before it scans R1: the probe of R0 is the whole
    // read set, and R0 is never read as a whole.
    conf.begin_read_tracking_with(AdomPrecision::Precise);
    assert!(!is_immediately_relevant_given_uncertain(
        &query, &conf, &dead, &methods
    ));
    let reads = conf.take_read_set();
    let j0 = conf.store().interner().lookup(&Value::sym("j0")).unwrap();
    assert_eq!(reads.iter().collect::<Vec<_>>(), [&Read::Pair(r0, j0)]);
    assert!(!reads.iter().any(|r| *r == Read::Relation(r0)), "{reads:?}");

    // So an R0 row that carries no probed value leaves the verdict cached.
    let options = RunOptions::default();
    let mut oracle = RelevanceOracle::new(&query, &methods, &options);
    assert!(!oracle.check_ir(&dead, &mut conf));
    let misses = oracle.misses();
    let mut cursor = GrowthCursor::at(conf.store());
    conf.insert(r0, tuple(["d999", "k7"])).unwrap();
    assert!(!reads.touched_by(&cursor.advance(conf.store())));
    oracle.observe_growth(&mut conf, r0);
    assert!(!oracle.check_ir(&dead, &mut conf));
    assert_eq!(oracle.misses(), misses, "the R0 insert evicted the verdict");
    assert_eq!(oracle.evictions(), 0);
}
