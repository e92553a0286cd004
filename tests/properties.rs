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

/// Grows `conf` by `rows` one at a time with event capture on and checks,
/// after each row, that the semi-naive certainty status refreshed from the
/// drained insert events equals a full evaluation. Returns the final
/// certainty.
fn assert_status_tracks_full_evaluation(
    query: &Query,
    mut conf: Configuration,
    rows: Vec<accrel::schema::Fact>,
    ctx: &str,
) -> bool {
    conf.set_event_capture(true);
    let mut status = certain::CertaintyStatus::new(query);
    assert_eq!(
        status.refresh(&conf),
        certain::is_certain(query, &conf),
        "{ctx}"
    );
    for (relation, row) in rows {
        conf.insert(relation, row).unwrap();
        for event in conf.take_events() {
            status.observe(&event, conf.store().interner());
        }
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
    // rows in insertion order, also after later inserts.
    fn assert_matching_agrees(store: &accrel::schema::FactStore, workload: &Workload, ctx: &str) {
        for (rel, relation) in workload.schema.relations_with_ids() {
            let arity = relation.arity();
            // Probe every single position and the full-tuple binding, with
            // values drawn from the pool (both present and absent ones).
            for value in workload.constants.iter().take(4) {
                for pos in 0..arity {
                    let binding = std::slice::from_ref(value);
                    assert_eq!(
                        store.matching(rel, &[pos], binding),
                        matching_oracle(store, rel, &[pos], binding),
                        "matching mismatch: {ctx}"
                    );
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
        assert_matching_agrees(&store, &workload, &ctx);
        let mut rng = StdRng::seed_from_u64(seed + 707);
        let extra = generate_configuration(&workload, 6, &mut rng);
        for (rel, t) in extra.facts() {
            let _ = store.insert(rel, t);
        }
        assert_matching_agrees(&store, &workload, &format!("after inserts {ctx}"));
    }
}

#[test]
fn cached_active_domain_agrees_with_scan_oracle_after_inserts_and_undo() {
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
    for (seed, _, facts) in cases() {
        let (workload, _, conf) = workload_and_query(seed, 1, facts + 5);
        let base = conf.store();
        let mut clone = base.clone();
        // A fresh clone shares every shard with its origin.
        for (rel, _) in workload.schema.relations_with_ids() {
            assert!(
                base.shares_relation_shard(&clone, rel),
                "fresh clone must share relation shards at seed={seed}"
            );
        }
        assert!(base.shares_adom_shard(&clone));
        assert!(base.shares_interner(&clone));
        // Insert one fact into exactly one relation of the clone: only that
        // relation's shard (plus adom, plus interner for the new value)
        // diverges.
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
        assert!(clone.insert(target, fresh_tuple).unwrap());
        for (rel, _) in workload.schema.relations_with_ids() {
            if rel == target {
                assert!(
                    !base.shares_relation_shard(&clone, rel),
                    "mutated shard must diverge at seed={seed}"
                );
            } else {
                assert!(
                    base.shares_relation_shard(&clone, rel),
                    "untouched shard {rel:?} must stay shared at seed={seed}"
                );
            }
        }
        assert!(!base.shares_adom_shard(&clone));
        assert!(!base.shares_interner(&clone));
        // The origin handle performed no copy; the clone performed some.
        assert_eq!(base.shard_copies(), 0, "read-only origin at seed={seed}");
        assert!(clone.shard_copies() > 0);
    }
}

#[test]
fn rows_since_a_row_count_are_the_rows_inserted_after_it_across_speculation() {
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
                assert_eq!(
                    store.rows_since(relation, k),
                    want,
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

#[test]
fn duplicate_only_rounds_evict_nothing_and_leave_the_verdict_cache_intact() {
    // Re-applying an already-applied response inserts zero facts: the store
    // queues no insert events, the oracle drains nothing, and every cached
    // verdict survives — re-checking the same accesses afterwards must be
    // pure cache hits. (Exact read-set invalidation is the default; the
    // duplicate round must be invisible to it.)
    use accrel::access::apply_access_in_place;
    use accrel::access::enumerate::{well_formed_accesses, EnumerationOptions};
    use accrel::engine::{RelevanceOracle, RunOptions};

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
        conf.set_event_capture(true);

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
        // configuration, apply it, and drain its events the way the engine
        // does after a growing round.
        let mut applied: Option<(Access, Response)> = None;
        for access in &candidates {
            let Ok(response) = Response::exact(access, &workload.methods, &instance) else {
                continue;
            };
            let before = conf.len();
            let _ = apply_access_in_place(&mut conf, access, &response, &workload.methods);
            if conf.len() > before {
                let relation = workload.methods.get(access.method()).unwrap().relation();
                oracle.observe_growth(&mut conf, relation);
                applied = Some((access.clone(), response));
                break;
            }
            assert_eq!(conf.pending_events(), 0, "duplicate queued events");
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
        // facts. No events may queue, and draining must evict nothing.
        let before = conf.len();
        let _ = apply_access_in_place(&mut conf, &access, &response, &workload.methods);
        assert_eq!(conf.len(), before, "duplicate response grew at seed={seed}");
        assert_eq!(
            conf.pending_events(),
            0,
            "duplicate response queued insert events at seed={seed}"
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
            // Unconstrained candidates enumerate exactly the relation.
            assert_eq!(
                store.candidates(rel, &[]).len(),
                store.relation_len(rel),
                "full scan mismatch at seed={seed}"
            );
            // Every stored tuple is found by its own full constraint set and
            // by contains().
            for t in store.tuples(rel) {
                let constraints: Vec<(usize, &Value)> = t.iter().enumerate().collect();
                let hits = store.candidates(rel, &constraints);
                assert!(
                    hits.contains(&t),
                    "tuple lost by its own constraints at seed={seed}"
                );
                assert!(store.contains(rel, t));
            }
        }
    }
}
