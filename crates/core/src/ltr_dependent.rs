//! Long-term relevance with dependent access methods (Section 5).
//!
//! A witness that `(AcM, Bind)` is long-term relevant for `Q` at `Conf` is a
//! well-formed path `p` starting with that access such that `Q`'s certain
//! answers after `p` differ from those after the *truncation* of `p` (the
//! path without its initial access, cut at the first step that stops being
//! well-formed).
//!
//! The search mirrors the containment witness search (same crayfish-chase
//! structure, same [`SearchBudget`]):
//!
//! 1. pick a disjunct of `Q` and a valuation of its variables into
//!    configuration constants, the values returned by the initial access
//!    (including a "generic" tuple of fresh outputs the access may always
//!    return), and fresh nulls;
//! 2. split the disjunct's image into configuration facts, facts returned by
//!    the initial access, and facts that later accesses must produce;
//! 3. plan the production of the later facts (with auxiliary generator
//!    chains) starting from the values made accessible by `Conf` and the
//!    initial response;
//! 4. accept if the query is false on the configuration the *truncated*
//!    path reaches — either because the second access of the constructed
//!    path deliberately consumes a value only the initial response provides
//!    (making the truncation collapse to `Conf`), or because even the full
//!    set of later facts does not satisfy the query.
//!
//! Step 0 is a pre-check: a certain Boolean query has no relevant access.
//! [`is_ltr_dependent_trailed`] runs it before the search; a caller that
//! already knows the query is not certain (the engine's per-run certainty
//! status) runs the search alone through
//! [`crate::is_long_term_relevant_given_uncertain_trailed`]. The certainty
//! checks *inside* the search, on truncated configurations, stay.
//!
//! The NEXPTIME upper bound of Theorem 5.2 (2NEXPTIME for positive queries,
//! Theorem 5.6) bounds the witness size; as for containment the search is
//! complete relative to the budget.

use std::collections::HashSet;

use accrel_access::{Access, AccessMethods, AccessMode};
use accrel_query::{certain, ConjunctiveQuery, Query};
use accrel_schema::{Configuration, DomainId, FreshSupply, RelationId, Tuple, Value};

use crate::budget::SearchBudget;
use crate::reductions;
use crate::search;

/// Decides long-term relevance of `access` for `query` at `conf` when
/// dependent access methods are in play (the access itself may be of either
/// mode). Non-Boolean queries go through the Proposition 2.2 reduction.
///
/// This immutable entry point runs the witness search on a private
/// copy-on-write snapshot of `conf`; callers that own their configuration
/// mutably should prefer [`is_ltr_dependent_trailed`], which speculates on
/// the live store under a trail mark and copies no shards at all.
pub fn is_ltr_dependent(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    let mut scratch = conf.snapshot();
    is_ltr_dependent_trailed(query, &mut scratch, access, methods, budget)
}

/// The trail-backed variant of [`is_ltr_dependent`]: witness condition B's
/// truncation replays mutate `conf` in place under a trail mark and are
/// undone exactly, so no configuration snapshot (and, once the store is
/// unshared, no copy-on-write shard copy) is ever made. `conf` is returned
/// to its byte-for-byte pre-call state before every return.
pub fn is_ltr_dependent_trailed(
    query: &Query,
    conf: &mut Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if !query.is_boolean() {
        return reductions::boolean_instances(query, conf)
            .iter()
            .any(|q| is_ltr_dependent_trailed(q, conf, access, methods, budget));
    }
    // A certain Boolean query cannot gain new certain answers.
    !certain::is_certain(query, conf)
        && is_ltr_dependent_given_uncertain_trailed(query, conf, access, methods, budget)
}

/// [`is_ltr_dependent_trailed`] for a Boolean `query` the caller knows is
/// not certain at `conf`: the witness search without the certainty
/// pre-check. On a certain query the answer is meaningless.
pub(crate) fn is_ltr_dependent_given_uncertain_trailed(
    query: &Query,
    conf: &mut Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    debug_assert!(query.is_boolean(), "the body takes Boolean queries only");
    if !access.is_well_formed(conf, methods) {
        return false;
    }
    let Ok(method) = methods.get(access.method()) else {
        return false;
    };
    let schema = methods.schema().clone();
    let access_relation = method.relation();
    let input_positions = method.input_positions().to_vec();
    let output_positions = method.output_positions(&schema);

    // The "generic" tuple the initial access may always return: the binding
    // on the input positions and fresh values on the output positions. Its
    // values are offered to the valuation enumeration and to producibility.
    let mut fresh = FreshSupply::above(
        conf.all_values_untracked()
            .iter()
            .chain(query.constants().iter().collect::<Vec<_>>()),
    );
    let generic_tuple = if output_positions.is_empty() {
        None
    } else {
        let arity = schema.arity(access_relation).unwrap_or(0);
        let mut values = vec![Value::fresh(u64::MAX); arity];
        for (k, &pos) in input_positions.iter().enumerate() {
            if let Some(v) = access.binding().get(k) {
                values[pos] = v.clone();
            }
        }
        for &pos in &output_positions {
            values[pos] = fresh.next_value();
        }
        Some(Tuple::new(values))
    };
    let mut generic_extra: Vec<(Value, DomainId)> = match &generic_tuple {
        Some(t) => output_positions
            .iter()
            .filter_map(|&pos| {
                let v = t.get(pos)?.clone();
                let d = schema.domain_of(access_relation, pos).ok()?;
                Some((v, d))
            })
            .collect(),
        None => Vec::new(),
    };
    // The binding constants are also candidate values for the query
    // variables (they need not occur in the configuration when the access
    // method is independent).
    for (k, &pos) in input_positions.iter().enumerate() {
        if let (Some(v), Ok(d)) = (
            access.binding().get(k),
            schema.domain_of(access_relation, pos),
        ) {
            generic_extra.push((v.clone(), d));
        }
    }

    for disjunct in query.ucq() {
        if disjunct_witness(
            query,
            disjunct,
            conf,
            access,
            access_relation,
            &input_positions,
            generic_tuple.as_ref(),
            &generic_extra,
            methods,
            budget,
            &mut fresh.clone(),
        ) {
            return true;
        }
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn disjunct_witness(
    query: &Query,
    disjunct: &ConjunctiveQuery,
    conf: &mut Configuration,
    access: &Access,
    access_relation: RelationId,
    input_positions: &[usize],
    generic_tuple: Option<&Tuple>,
    generic_extra: &[(Value, DomainId)],
    methods: &AccessMethods,
    budget: &SearchBudget,
    fresh: &mut FreshSupply,
) -> bool {
    let schema = methods.schema();
    let valuations =
        search::enumerate_valuations(disjunct, conf, generic_extra, fresh, budget.max_valuations);
    // The accessible-value pool over Adom(Conf) is constant across
    // valuations; build it once (the pool records the membership, minimum
    // and emptiness reads the planner actually performs, instead of a
    // whole-active-domain read). Chain discovery is memoised by domain-set
    // across valuations too.
    let conf_pool = search::AdomPool::of(conf);
    let mut chain_cache = search::ChainCache::new();

    'next_valuation: for h in valuations {
        // Partition the disjunct's image.
        let mut first_facts: Vec<(RelationId, Tuple)> = Vec::new();
        let mut later_facts: Vec<(RelationId, Tuple)> = Vec::new();
        for atom in disjunct.atoms() {
            let grounded = atom.substitute(&h);
            let Some(tuple) = grounded.to_tuple() else {
                continue 'next_valuation;
            };
            if conf.contains(atom.relation(), &tuple) {
                continue;
            }
            let first_covered = atom.relation() == access_relation
                && tuple.matches_binding(input_positions, access.binding().values());
            if first_covered {
                first_facts.push((atom.relation(), tuple));
            } else {
                later_facts.push((atom.relation(), tuple));
            }
        }
        first_facts.sort();
        first_facts.dedup();
        later_facts.sort();
        later_facts.dedup();

        // Values accessible once the initial access has returned: Adom(Conf)
        // plus every value of the initial response (first facts + generic
        // tuple).
        let mut base = conf_pool.clone();
        for (rel, tuple) in &first_facts {
            absorb(&mut base, schema, *rel, tuple);
        }
        if let Some(t) = generic_tuple {
            absorb(&mut base, schema, access_relation, t);
        }
        // The (value, domain) pairs only the initial response provides. Only
        // the overlay can contain them — Adom(Conf) pairs never pass the
        // filter — and each candidate is a recorded point probe.
        let mut new_pairs: Vec<(Value, DomainId)> = base
            .overlay()
            .iter()
            .filter(|(v, d)| !conf.adom_contains(v, *d))
            .cloned()
            .collect();
        new_pairs.sort();

        for alternative in 0..budget.max_chain_alternatives.max(1) {
            let mut plan_fresh = fresh.clone();
            let Some(plan) = search::plan_production(
                &later_facts,
                &base,
                methods,
                conf,
                budget,
                &mut plan_fresh,
                alternative,
                &mut chain_cache,
            ) else {
                if alternative == 0 {
                    break;
                }
                continue;
            };

            // Witness condition A: the truncation can be made to collapse to
            // Conf by inserting, right after the initial access, an access
            // that consumes a value only the initial response provides.
            if !new_pairs.is_empty() && break_access_exists(&new_pairs, &conf_pool, conf, methods) {
                // The query is not certain at Conf (checked by the caller),
                // so the certain answers differ: witness found.
                return true;
            }

            // Witness condition B: replay the planned accesses without the
            // initial one; the truncation keeps the longest well-formed
            // prefix. The query must be false on what it reaches. The
            // replay speculates on the live store under a trail mark — the
            // certainty check runs inside the scope and every inserted
            // response tuple is undone on exit, replacing the per-plan
            // snapshot this path used to discard.
            if replay_truncation_uncertain(query, conf, &plan, methods) {
                return true;
            }

            if plan.aux_count == 0 {
                break;
            }
        }
    }
    false
}

/// Adds the `(value, domain)` pairs of a fact to `pool`.
fn absorb(
    pool: &mut search::AdomPool,
    schema: &accrel_schema::Schema,
    relation: RelationId,
    tuple: &Tuple,
) {
    if let Ok(rel) = schema.relation(relation) {
        for (p, v) in tuple.iter().enumerate() {
            if p < rel.arity() {
                pool.insert(v.clone(), rel.domain_at(p));
            }
        }
    }
}

/// Is there a dependent access method that could be called with one of the
/// `new_pairs` values as an input (its remaining inputs fillable from the
/// configuration or the new values)? Such an access, placed immediately
/// after the initial one with an empty response, makes the truncated path
/// collapse to the starting configuration.
fn break_access_exists(
    new_pairs: &[(Value, DomainId)],
    conf_pool: &search::AdomPool,
    conf: &Configuration,
    methods: &AccessMethods,
) -> bool {
    let schema = methods.schema();
    let mut pool = conf_pool.clone();
    for (v, d) in new_pairs {
        pool.insert(v.clone(), *d);
    }
    let new_domains: HashSet<DomainId> = new_pairs.iter().map(|(_, d)| *d).collect();
    for (_, m) in methods.iter() {
        if m.mode() != AccessMode::Dependent {
            continue;
        }
        let mut uses_new = false;
        let mut fillable = true;
        for &pos in m.input_positions() {
            let Ok(d) = schema.domain_of(m.relation(), pos) else {
                fillable = false;
                break;
            };
            if !pool.has_domain(conf, d) {
                fillable = false;
                break;
            }
            if new_domains.contains(&d) {
                uses_new = true;
            }
        }
        if fillable && uses_new && !m.input_positions().is_empty() {
            return true;
        }
    }
    false
}

/// Replays the planned accesses from `conf` without the initial access,
/// keeping the maximal well-formed prefix (the truncation semantics), and
/// reports whether the query is *not* certain on the configuration reached.
/// The replay mutates `conf` in place under a trail mark and is undone
/// before returning — allocation-free speculation instead of a discarded
/// snapshot.
fn replay_truncation_uncertain(
    query: &Query,
    conf: &mut Configuration,
    plan: &search::FactPlan,
    methods: &AccessMethods,
) -> bool {
    let path = plan.to_path(methods);
    conf.speculate(|current| {
        for step in path.steps() {
            if accrel_access::apply_access_in_place(current, &step.access, &step.response, methods)
                .is_err()
            {
                break;
            }
        }
        !certain::is_certain(query, current)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMode};
    use accrel_query::{ConjunctiveQuery, Term};
    use accrel_schema::Schema;
    use std::sync::Arc;

    /// Example 2.1: schema with S and T, Q = S ⋈ T, dependent access on T.
    fn example_2_1() -> (Arc<Schema>, AccessMethods, Query) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        b.relation("S", &[("a", d), ("b", e)]).unwrap();
        b.relation("T", &[("b", e), ("c", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("SAcc", "S", AccessMode::Dependent).unwrap();
        mb.add("TAcc", "T", &["b"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom("S", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("T", vec![Term::Var(y), Term::Var(z)]).unwrap();
        let q: Query = qb.build().into();
        (schema, methods, q)
    }

    #[test]
    fn example_2_1_access_on_s_is_long_term_relevant() {
        let (schema, methods, q) = example_2_1();
        let s_acc = methods.by_name("SAcc").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_acc, binding(Vec::<&str>::new()));
        assert!(is_ltr_dependent(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }

    #[test]
    fn example_2_1_not_relevant_once_query_is_certain() {
        let (schema, methods, q) = example_2_1();
        let s_acc = methods.by_name("SAcc").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("S", ["a", "b"]).unwrap();
        conf.insert_named("T", ["b", "c"]).unwrap();
        let access = Access::new(s_acc, binding(Vec::<&str>::new()));
        assert!(!is_ltr_dependent(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }

    #[test]
    fn boolean_access_relevance_depends_on_remaining_subgoals() {
        // Schema: R(a) with a Boolean dependent access, W(a) with no access.
        // Q = R(x) ∧ W(x).  With Conf = {W(c)} the Boolean access R(c)? is
        // LTR (its positive answer makes Q certain).  With Conf = {W(c),
        // R(c)} the query is already certain, so it is not.  With Conf
        // containing only values unrelated to W, the access is not LTR.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d)]).unwrap();
        b.relation("W", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_boolean("RCheck", "R", AccessMode::Dependent)
            .unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x)]).unwrap();
        qb.atom("W", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        let r_check = methods.by_name("RCheck").unwrap();

        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("W", ["c"]).unwrap();
        let access = Access::new(r_check, binding(["c"]));
        assert!(is_ltr_dependent(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));

        let mut conf_done = conf.clone();
        conf_done.insert_named("R", ["c"]).unwrap();
        assert!(!is_ltr_dependent(
            &q,
            &conf_done,
            &access,
            &methods,
            &SearchBudget::default()
        ));

        // The access is only well-formed for values in the configuration;
        // an unrelated binding is rejected outright.
        let stranger = Access::new(r_check, binding(["zzz"]));
        assert!(!is_ltr_dependent(
            &q,
            &conf,
            &stranger,
            &methods,
            &SearchBudget::default()
        ));
    }

    #[test]
    fn access_whose_outputs_feed_later_dependent_accesses_is_relevant() {
        // Bank-flavoured chain: Emp(e) free access produces employee ids,
        // Off(e, o) dependent on e, Q = ∃e,o Off(e, o).  The free Emp access
        // is LTR in the empty configuration: its output unlocks Off.
        let mut b = Schema::builder();
        let emp = b.domain("EmpId").unwrap();
        let off = b.domain("OffId").unwrap();
        b.relation("Emp", &[("e", emp)]).unwrap();
        b.relation("Off", &[("e", emp), ("o", off)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("EmpAll", "Emp", AccessMode::Dependent).unwrap();
        mb.add("OffByEmp", "Off", &["e"], AccessMode::Dependent)
            .unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let e = qb.var("e");
        let o = qb.var("o");
        qb.atom("Off", vec![Term::Var(e), Term::Var(o)]).unwrap();
        let q: Query = qb.build().into();
        let emp_all = methods.by_name("EmpAll").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(emp_all, binding(Vec::<&str>::new()));
        assert!(is_ltr_dependent(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }

    #[test]
    fn access_is_not_relevant_when_the_query_is_unreachable() {
        // Q mentions a relation with no access method and no facts: nothing
        // is ever relevant.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.relation("Hidden", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("SAll", "S", AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.atom("Hidden", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        let s_all = methods.by_name("SAll").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_all, binding(Vec::<&str>::new()));
        assert!(!is_ltr_dependent(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }

    #[test]
    fn free_key_access_stays_relevant_when_other_keys_are_known() {
        // Q = ∃x,y T(x, y) with a dependent access on T keyed by x, and one
        // key value already known from Conf through relation K.  The free
        // access on K is still long-term relevant: it may return a *fresh*
        // key whose T-fact exists while the known key's does not, and a path
        // that consumes that fresh key cannot be replayed by its truncation.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        b.relation("K", &[("k", d)]).unwrap();
        b.relation("T", &[("k", d), ("v", e)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("KAll", "K", AccessMode::Dependent).unwrap();
        mb.add("TByK", "T", &["k"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("T", vec![Term::Var(x), Term::Var(y)]).unwrap();
        let q: Query = qb.build().into();
        let k_all = methods.by_name("KAll").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("K", ["k1"]).unwrap();
        let access = Access::new(k_all, binding(Vec::<&str>::new()));
        // A fresh key could expose a T-fact that the already-known key does
        // not have, and the truncated path (without the K access) cannot use
        // that fresh key: the access is LTR.
        assert!(is_ltr_dependent(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }

    #[test]
    fn non_boolean_query_reduces_to_boolean_instances() {
        let (schema, methods, _) = example_2_1();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom("S", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("T", vec![Term::Var(y), Term::Var(z)]).unwrap();
        qb.free(&[x]);
        let q: Query = qb.build().into();
        let s_acc = methods.by_name("SAcc").unwrap();
        let conf = Configuration::empty(schema);
        let access = Access::new(s_acc, binding(Vec::<&str>::new()));
        assert!(is_ltr_dependent(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }
}
