//! Long-term relevance with dependent access methods (Section 5).
//!
//! A witness that `(AcM, Bind)` is long-term relevant for `Q` at `Conf` is a
//! well-formed path `p` starting with that access such that `Q`'s certain
//! answers after `p` differ from those after the *truncation* of `p` (the
//! path without its initial access, cut at the first step that stops being
//! well-formed).
//!
//! Two pre-checks come before any search:
//!
//! * **Dead ends.** An access whose response no atom of `Q` can map onto
//!   (no atom is on the accessed relation with input places compatible
//!   with the binding), none of whose new values any dependent method can
//!   take as an input, is never long-term relevant: every later step of a
//!   path survives the truncation, and the two configurations differ only
//!   in facts `Q` never matches ([`is_dead_end`] holds the proof). The check reads only the
//!   schema, the query and the methods, so it runs first — before the
//!   Proposition 2.2 reduction, the certainty pre-check and the
//!   well-formedness probe — and its `false` has an empty read set and is
//!   exact whatever the budget.
//! * **Certainty.** A certain Boolean query has no relevant access.
//!   [`is_ltr_dependent`] checks it before the search; a caller that
//!   already knows the query is not certain (the engine's per-run certainty
//!   status) runs the dead-end check and the search alone through
//!   [`crate::is_long_term_relevant_given_uncertain`]. The certainty
//!   checks *inside* the search, on truncated configurations, stay.
//!
//! The search is the containment witness search (`search::find_witness`:
//! the same crayfish-chase structure, the same [`SearchBudget`]) with the
//! access as its initial access. Steps 1–3 are that search's; this module
//! adds the initial access and step 4:
//!
//! 1. pick a disjunct of `Q` and a valuation of its variables into
//!    configuration constants, the values returned by the initial access
//!    (including a "generic" tuple of fresh outputs the access may always
//!    return), and fresh nulls — valuations are streamed one at a time and
//!    the search stops at the first one that yields a witness;
//! 2. split the disjunct's image into configuration facts, facts returned by
//!    the initial access, and facts that later accesses must produce;
//! 3. plan the production of the later facts (with auxiliary generator
//!    chains) starting from the values made accessible by `Conf` and the
//!    initial response;
//! 4. accept if the query is false on the configuration the *truncated*
//!    path reaches — either because the second access of the constructed
//!    path deliberately consumes a value only the initial response provides
//!    (making the truncation collapse to `Conf`), or because even the full
//!    set of later facts does not satisfy the query. The truncation is a
//!    function of `Conf` and the path's facts alone, so it is replayed as an
//!    overlay: its facts are evaluated on top of the store, never written
//!    to it, and the search only reads `Conf`.
//!
//! The NEXPTIME upper bound of Theorem 5.2 (2NEXPTIME for positive queries,
//! Theorem 5.6) bounds the witness size. As for containment, the search is
//! sound for "relevant", but a "not relevant" answer can be wrong even when
//! no cap of the [`SearchBudget`] fires (see there).

use std::collections::HashSet;

use accrel_access::{Access, AccessMethods, AccessMode};
use accrel_query::{certain, eval, Query};
use accrel_schema::{Configuration, DomainId, RelationId, Tuple, Value};

use crate::budget::SearchBudget;
use crate::reductions;
use crate::search;

/// Decides long-term relevance of `access` for `query` at `conf` when
/// dependent access methods are in play (the access itself may be of either
/// mode). Non-Boolean queries go through the Proposition 2.2 reduction.
/// The search only reads `conf`.
pub fn is_ltr_dependent(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if is_dead_end(query, access, methods) {
        return false;
    }
    // A certain Boolean query cannot gain new certain answers.
    let decide = |q: &Query| {
        !certain::is_certain(q, conf) && witness_search(q, conf, access, methods, budget)
    };
    if query.is_boolean() {
        decide(query)
    } else {
        reductions::boolean_instances(query, conf)
            .iter()
            .any(decide)
    }
}

/// [`is_ltr_dependent`] for a Boolean `query` the caller knows is not
/// certain at `conf`: the dead-end check and the witness search, without
/// the certainty pre-check. On a certain query the answer is meaningless.
pub(crate) fn is_ltr_dependent_given_uncertain(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    debug_assert!(query.is_boolean(), "the body takes Boolean queries only");
    !is_dead_end(query, access, methods) && witness_search(query, conf, access, methods, budget)
}

/// Is `access` a *dead end* for `query`: an access that is never long-term
/// relevant, decided from the schema, the query, the access methods and the
/// binding alone? It is one when both hold:
///
/// 1. no atom of any disjunct of `query` is *chargeable* to the access: on
///    the accessed relation, with each constant at an input place equal to
///    the binding value there, and no variable at two input places whose
///    binding values differ (`search::is_chargeable`);
/// 2. no dependent method has an input position whose domain the access can
///    supply a value of: an output domain of the accessed method, or — for
///    an independent method, whose binding need not come from the
///    configuration — any domain of the accessed relation.
///
/// *Proof that a dead end is not long-term relevant.* Take any well-formed
/// path `(a₀, r₀), (a₁, r₁), …, (aₙ, rₙ)` from `Conf` whose first access
/// `a₀` is a dead end, and write `Conf_i` for `Conf ∪ r₀ ∪ … ∪ r_{i-1}` and
/// `Conf'_i` for `Conf ∪ r₁ ∪ … ∪ r_{i-1}`. By induction on `i ≥ 1`, the
/// truncation keeps step `i`. Independent accesses are always well-formed.
/// A dependent `aᵢ` needs each binding value `v`, at an input domain `d` of
/// its method, in `Adom(Conf_i)`. If `(v, d)` is in `Adom(Conf'_i)` we are
/// done; otherwise it occurs only in `r₀`, at a position of domain `d`. By
/// condition 2 that is not an output position of `a₀`'s method, and that
/// method is not independent (else every domain of its relation would
/// count), so it is an input position of a dependent `a₀`. Then `v` is
/// `a₀`'s binding value there, already in `Adom(Conf)` at `d` for `a₀` to
/// be well-formed — a contradiction. So the truncation is `(a₁, r₁), …,
/// (aₙ, rₙ)` in full, and the two paths reach `Conf_{n+1}` and
/// `Conf'_{n+1}`, which differ only in facts of `r₀`. Every tuple of `r₀`
/// holds `a₀`'s binding at its method's input places, so an atom that a
/// homomorphism maps onto a fact of `r₀` agrees with the binding there: it
/// is chargeable. By condition 1 no atom is, so every homomorphism of a
/// disjunct into `Conf_{n+1}` maps into `Conf'_{n+1}` as well, the certain
/// answers coincide on the two, and no path starting with `a₀` witnesses
/// long-term relevance. This is the long-term counterpart of Section 4's
/// observation that an access to a relation the query does not mention is
/// never immediately relevant.
///
/// The check reads nothing from the configuration, so a dead-end verdict
/// has an empty read set, and it is exact whatever the [`SearchBudget`].
pub fn is_dead_end(query: &Query, access: &Access, methods: &AccessMethods) -> bool {
    let Ok(method) = methods.get(access.method()) else {
        return false;
    };
    if search::charges_some_atom(query, access, method) {
        return false;
    }
    let relation = method.relation();
    let schema = methods.schema();
    let positions: Vec<usize> = if method.mode() == AccessMode::Independent {
        (0..schema.arity(relation).unwrap_or(0)).collect()
    } else {
        method.output_positions(schema)
    };
    let supplied: HashSet<DomainId> = positions
        .into_iter()
        .filter_map(|p| schema.domain_of(relation, p).ok())
        .collect();
    !methods.iter().any(|(_, m)| {
        m.mode() == AccessMode::Dependent
            && m.input_positions().iter().any(|&p| {
                schema
                    .domain_of(m.relation(), p)
                    .is_ok_and(|d| supplied.contains(&d))
            })
    })
}

/// The Section 5 witness search for a Boolean `query` not certain at
/// `conf`, with no dead-end check: a well-formedness probe, then one
/// [`search::find_witness`] per disjunct, with `access` as the initial
/// access. A plan is a witness by condition A or B below.
fn witness_search(
    query: &Query,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    if !access.is_well_formed(conf, methods) {
        return false;
    }
    let Ok(method) = methods.get(access.method()) else {
        return false;
    };
    let (relation, inputs) = (method.relation(), method.input_positions());
    let outputs = method.output_positions(methods.schema());

    // The "generic" tuple the initial access may always return: the binding
    // on the input positions and fresh values on the output positions.
    let mut fresh = conf.fresh_supply().skipping(&query.constants());
    let generic = (!outputs.is_empty()).then(|| {
        let arity = methods.schema().arity(relation).unwrap_or(0);
        let mut values = vec![Value::fresh(u64::MAX); arity];
        for (&pos, v) in inputs.iter().zip(access.binding().values()) {
            values[pos] = v.clone();
        }
        for &pos in &outputs {
            values[pos] = fresh.next_value();
        }
        Tuple::new(values)
    });
    let initial = search::InitialAccess {
        relation,
        inputs,
        binding: access.binding().values(),
        generic,
    };

    query.ucq().iter().any(|disjunct| {
        search::find_witness(
            disjunct,
            conf,
            Some(&initial),
            &mut fresh.clone(),
            methods,
            budget,
            |_, base| {
                // The (value, domain) pairs only the initial response
                // provides. Only the overlay can contain them — Adom(Conf)
                // pairs never pass the filter — and each candidate is a
                // recorded point probe.
                let mut new_pairs: Vec<(Value, DomainId)> = base
                    .overlay()
                    .iter()
                    .filter(|(v, d)| !conf.adom_contains(v, *d))
                    .cloned()
                    .collect();
                new_pairs.sort();
                move |plan: &search::FactPlan| {
                    // Witness condition A: the truncation can be made to
                    // collapse to Conf by inserting, right after the initial
                    // access, an access that consumes a value only the
                    // initial response provides. The query is not certain
                    // at Conf (checked by the caller), so the certain
                    // answers differ.
                    if !new_pairs.is_empty() && break_access_exists(&new_pairs, conf, methods) {
                        return Some(());
                    }
                    // Witness condition B: replay the planned accesses
                    // without the initial one; the truncation keeps the
                    // longest well-formed prefix. The query must be false on
                    // what it reaches.
                    let uncertain = replay_truncation_uncertain(query, conf, plan, methods);
                    #[cfg(test)]
                    tests::log_replay(plan, uncertain);
                    uncertain.then_some(())
                }
            },
        )
        .is_some()
    })
}

/// Is there a dependent access method that could be called with one of the
/// `new_pairs` values as an input (its remaining inputs fillable from the
/// configuration or the new values)? Such an access, placed immediately
/// after the initial one with an empty response, makes the truncated path
/// collapse to the starting configuration.
fn break_access_exists(
    new_pairs: &[(Value, DomainId)],
    conf: &Configuration,
    methods: &AccessMethods,
) -> bool {
    let schema = methods.schema();
    let mut pool = search::AdomPool::of(conf);
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
            if !pool.has_domain(d) {
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
///
/// The replay reads `conf` and never writes it. A step's dependent inputs
/// must come from `Adom(Conf)` or an earlier kept step, never from the
/// initial response the truncation drops; they are probed as the planner
/// probes them ([`search::inputs_accessible`]), and the first step that
/// fails ends the truncation. A planned fact holds its access's binding, so
/// its response is always valid. The kept steps' facts are evaluated as an
/// overlay on the store.
fn replay_truncation_uncertain(
    query: &Query,
    conf: &Configuration,
    plan: &search::FactPlan,
    methods: &AccessMethods,
) -> bool {
    let mut pool = search::AdomPool::of(conf);
    let mut kept: Vec<(RelationId, Tuple)> = Vec::new();
    for step in &plan.ordered {
        if !search::inputs_accessible(step.method, &step.tuple, methods, &pool) {
            break;
        }
        search::absorb_fact(step.relation, &step.tuple, methods, &mut pool);
        kept.push((step.relation, step.tuple.clone()));
    }
    !query
        .ucq()
        .iter()
        .any(|d| eval::holds_cq_with_extra(d, conf.store(), &kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::enumerate::{well_formed_accesses, EnumerationOptions};
    use accrel_access::{binding, AccessMode, AccessPath, Response};
    use accrel_query::{ConjunctiveQuery, PositiveQuery, Term, VarId};
    use accrel_schema::Schema;
    use std::cell::RefCell;
    use std::sync::Arc;

    /// A plan witness condition B replayed, with the replay's verdict.
    type Replay = (search::FactPlan, bool);

    thread_local! {
        /// The replays witness condition B runs on this thread, while
        /// [`replays_during`] listens.
        static REPLAYED: RefCell<Option<Vec<Replay>>> = const { RefCell::new(None) };
    }

    /// Records a replay condition B ran, if a test listens.
    pub(super) fn log_replay(plan: &search::FactPlan, uncertain: bool) {
        REPLAYED.with(|log| {
            if let Some(replays) = log.borrow_mut().as_mut() {
                replays.push((plan.clone(), uncertain));
            }
        });
    }

    /// Runs `search` and returns the replays condition B ran during it.
    fn replays_during(search: impl FnOnce()) -> Vec<Replay> {
        REPLAYED.with(|log| *log.borrow_mut() = Some(Vec::new()));
        search();
        REPLAYED.with(|log| log.borrow_mut().take().unwrap_or_default())
    }

    /// Condition B by the paper's definition, through `accrel-access`: the
    /// path is the initial access followed by the plan's steps, its
    /// truncation is replayed from `conf` by applying each access, and the
    /// query must not be certain at the configuration that reaches. Also
    /// returns how many steps the truncation kept.
    fn truncation_by_definition(
        query: &Query,
        conf: &Configuration,
        initial: &Access,
        plan: &search::FactPlan,
        methods: &AccessMethods,
    ) -> (bool, usize) {
        let mut path = AccessPath::new();
        path.push(initial.clone(), Response::empty());
        for step in plan.to_path(methods).steps() {
            path.push(step.access.clone(), step.response.clone());
        }
        let (kept, reached) = path.truncate(conf, methods);
        (!certain::is_certain(query, &reached), kept.len())
    }

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

    /// The adom-flooding chain: `Q = R0(x, y) ∧ R1(y, z) ∧ R2(z, w)`, with
    /// `Dead(k, v)` off the query and its output domain `C` no method's
    /// input.
    fn flooding_chain() -> (AccessMethods, Query, Configuration) {
        let mut b = Schema::builder();
        let key = b.domain("B").unwrap();
        let link = b.domain("A").unwrap();
        let sink = b.domain("C").unwrap();
        b.relation("R0", &[("k", key), ("a", link)]).unwrap();
        b.relation("R1", &[("a", link), ("b", link)]).unwrap();
        b.relation("R2", &[("a", link), ("b", link)]).unwrap();
        b.relation("Feed", &[("k", key), ("v", key)]).unwrap();
        b.relation("Dead", &[("k", key), ("v", sink)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        for (name, relation, input) in [
            ("acc0", "R0", "k"),
            ("acc1", "R1", "a"),
            ("acc2", "R2", "a"),
            ("accD", "Dead", "k"),
            ("accF", "Feed", "k"),
        ] {
            mb.add(name, relation, &[input], AccessMode::Dependent)
                .unwrap();
        }
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| qb.var(n));
        qb.atom("R0", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("R1", vec![Term::Var(y), Term::Var(z)]).unwrap();
        qb.atom("R2", vec![Term::Var(z), Term::Var(w)]).unwrap();
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("Feed", [0i64, 1]).unwrap();
        for i in 0..4 {
            let (a, b) = (format!("a{i}"), format!("a{}", i + 1));
            conf.insert_named("R1", [a.clone(), b.clone()]).unwrap();
            conf.insert_named("R2", [a, b]).unwrap();
        }
        (methods, qb.build().into(), conf)
    }

    #[test]
    fn the_flooding_chain_dead_access_is_a_dead_end() {
        let (methods, q, mut conf) = flooding_chain();
        let dead = Access::new(methods.by_name("accD").unwrap(), binding([0i64]));
        let feed = Access::new(methods.by_name("accF").unwrap(), binding([0i64]));
        assert!(is_dead_end(&q, &dead, &methods));
        // Feed's output domain B is acc0's input domain.
        assert!(!is_dead_end(&q, &feed, &methods));
        let budget = SearchBudget::default();
        assert!(!witness_search(&q, &conf, &dead, &methods, &budget));
        assert!(is_ltr_dependent(&q, &conf, &feed, &methods, &budget));
        // The dead-end verdict reads nothing from the configuration.
        conf.begin_read_tracking_with(accrel_schema::AdomPrecision::Precise);
        assert!(!is_ltr_dependent(&q, &conf, &dead, &methods, &budget));
        assert!(conf.take_read_set().is_empty());
    }

    #[test]
    fn a_boolean_dependent_access_on_an_unmentioned_relation_is_a_dead_end() {
        // Q = R(x) ∧ W(x); the Boolean check on U returns no new value, and
        // U is not in the query, even though R's method takes D inputs.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        for name in ["R", "W", "U"] {
            b.relation(name, &[("a", d)]).unwrap();
        }
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_boolean("RCheck", "R", AccessMode::Dependent)
            .unwrap();
        let u_check = mb
            .add_boolean("UCheck", "U", AccessMode::Dependent)
            .unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x)]).unwrap();
        qb.atom("W", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("W", ["c"]).unwrap();
        let access = Access::new(u_check, binding(["c"]));
        assert!(is_dead_end(&q, &access, &methods));
        assert!(!witness_search(
            &q,
            &conf,
            &access,
            &methods,
            &SearchBudget::default()
        ));
    }

    #[test]
    fn an_independent_access_feeding_a_dependent_input_is_not_pruned() {
        // K(k, v) is off the query and its output domain F is no method's
        // input, but an independent K access may bind a key no configuration
        // holds, and T's dependent method takes keys: the path K(k)?, T(k)?
        // makes Q = ∃x,y T(x, y) true, while its truncation cannot call
        // T(k)?. The same method made dependent is a dead end.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        let f = b.domain("F").unwrap();
        b.relation("K", &[("k", d), ("v", f)]).unwrap();
        b.relation("T", &[("k", d), ("v", e)]).unwrap();
        let schema = b.build();
        let methods_with = |mode| {
            let mut mb = AccessMethods::builder(schema.clone());
            mb.add("KByK", "K", &["k"], mode).unwrap();
            mb.add("TByK", "T", &["k"], AccessMode::Dependent).unwrap();
            mb.build()
        };
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("T", vec![Term::Var(x), Term::Var(y)]).unwrap();
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("K", ["k0", "v0"]).unwrap();
        let independent = methods_with(AccessMode::Independent);
        let access = Access::new(independent.by_name("KByK").unwrap(), binding(["k1"]));
        assert!(!is_dead_end(&q, &access, &independent));
        assert!(is_ltr_dependent(
            &q,
            &conf,
            &access,
            &independent,
            &SearchBudget::default()
        ));
        let dependent = methods_with(AccessMode::Dependent);
        let access = Access::new(dependent.by_name("KByK").unwrap(), binding(["k0"]));
        assert!(is_dead_end(&q, &access, &dependent));
    }

    /// SplitMix64: a deterministic generator for the randomized worlds.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn percent(&mut self, p: usize) -> bool {
            self.below(100) < p
        }
    }

    /// A random mixed world: 3–6 relations of arity 1–3 over 2–5 domains,
    /// one method per relation (70% dependent, each position an input with
    /// probability ½), 0–5 facts, and a 1–2-atom CQ and a two-atom PQ, each
    /// kept only when uncertain. Variables are named per domain, so every
    /// variable has one domain. A query term is a constant with probability
    /// 15%; with `pin_inputs`, a term at an input place of its relation's
    /// method that is not one yet becomes one with probability 40% (the
    /// draws are unchanged without it).
    fn random_world(seed: u64, pin_inputs: bool) -> (AccessMethods, Configuration, Vec<Query>) {
        let mut rng = SplitMix(seed);
        let mut b = Schema::builder();
        let domains: Vec<DomainId> = (0..2 + rng.below(4))
            .map(|i| b.domain(format!("D{i}")).unwrap())
            .collect();
        let relations: Vec<Vec<DomainId>> = (0..3 + rng.below(4))
            .map(|_| {
                (0..1 + rng.below(3))
                    .map(|_| domains[rng.below(domains.len())])
                    .collect()
            })
            .collect();
        for (r, doms) in relations.iter().enumerate() {
            let names: Vec<String> = (0..doms.len()).map(|p| format!("a{p}")).collect();
            let attrs: Vec<(&str, DomainId)> = names
                .iter()
                .map(String::as_str)
                .zip(doms.iter().copied())
                .collect();
            b.relation(format!("R{r}"), &attrs).unwrap();
        }
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        let mut inputs_of = Vec::new();
        for (r, doms) in relations.iter().enumerate() {
            let inputs: Vec<usize> = (0..doms.len()).filter(|_| rng.percent(50)).collect();
            let mode = if rng.percent(70) {
                AccessMode::Dependent
            } else {
                AccessMode::Independent
            };
            mb.add_positions(format!("m{r}"), RelationId(r as u32), inputs.clone(), mode)
                .unwrap();
            inputs_of.push(inputs);
        }
        let methods = mb.build();
        let mut conf = Configuration::empty(schema.clone());
        for _ in 0..rng.below(6) {
            let r = rng.below(relations.len());
            let t = Tuple::new(
                (0..relations[r].len())
                    .map(|_| Value::int(rng.below(3) as i64))
                    .collect(),
            );
            conf.insert(RelationId(r as u32), t).unwrap();
        }
        let atom = |rng: &mut SplitMix, var: &mut dyn FnMut(String) -> VarId| {
            let r = rng.below(relations.len());
            let terms = relations[r]
                .iter()
                .enumerate()
                .map(|(p, d)| {
                    let pinned = |rng: &mut SplitMix| {
                        pin_inputs && inputs_of[r].contains(&p) && rng.percent(40)
                    };
                    if rng.percent(15) || pinned(rng) {
                        Term::Const(Value::int(rng.below(3) as i64))
                    } else {
                        Term::Var(var(format!("x{}_{}", d.0, rng.below(2))))
                    }
                })
                .collect();
            (RelationId(r as u32), terms)
        };
        let mut cq = ConjunctiveQuery::builder(schema.clone());
        for _ in 0..1 + rng.below(2) {
            let (r, terms) = atom(&mut rng, &mut |n| cq.var(n));
            cq.atom_id(r, terms);
        }
        let mut pq = PositiveQuery::builder(schema);
        let (r1, t1) = atom(&mut rng, &mut |n| pq.var(n));
        let (r2, t2) = atom(&mut rng, &mut |n| pq.var(n));
        let formula = pq.atom_id(r1, t1).or(pq.atom_id(r2, t2));
        let queries = [Query::from(cq.build()), Query::from(pq.build(formula))]
            .into_iter()
            .filter(|q| !certain::is_certain(q, &conf))
            .collect();
        (methods, conf, queries)
    }

    #[test]
    fn dead_ends_are_never_relevant_under_the_full_search() {
        // The lemma behind `is_dead_end`, checked against the search itself
        // (no pre-check) at a generous budget on random mixed worlds whose
        // queries often hold constants at input places.
        let budget = SearchBudget::default().with_max_valuations(20_000);
        let options = EnumerationOptions {
            guessable_values: vec![Value::int(7)],
            max_accesses: usize::MAX,
        };
        let (mut accesses, mut dead_ends, mut by_binding) = (0, 0, 0);
        for seed in 0..400 {
            let (methods, conf, queries) = random_world(seed, true);
            let candidates = well_formed_accesses(&conf, &methods, &options);
            for q in &queries {
                for access in &candidates {
                    accesses += 1;
                    if is_dead_end(q, access, &methods) {
                        dead_ends += 1;
                        // Condition 1 held only through the binding: the
                        // query mentions the accessed relation.
                        let relation = methods.get(access.method()).unwrap().relation();
                        by_binding += usize::from(q.relations().contains(&relation));
                        assert!(
                            !witness_search(q, &conf, access, &methods, &budget),
                            "seed {seed}: dead end {access:?} is relevant for {q:?}"
                        );
                    }
                }
            }
        }
        assert!(
            dead_ends >= 1_000 && by_binding >= 300,
            "only {dead_ends} dead ends ({by_binding} by the binding) in {accesses} accesses"
        );
    }

    /// A 64-bit FNV-1a hash of everything written to it.
    struct Fnv(u64);

    impl Fnv {
        fn write(&mut self, item: impl std::fmt::Debug) {
            for byte in format!("{item:?};").bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    #[test]
    fn dependent_verdicts_witnesses_and_reads_are_pinned_on_a_seeded_grid() {
        // Both Section 5 procedures on random mixed worlds, under a precise
        // recorder: dependent LTR for every query and well-formed access,
        // containment for every ordered pair of queries. Every verdict, every
        // non-containment witness path and every read set goes into one
        // digest, so a change to the shared witness search that moves any of
        // them fails here.
        let budget = SearchBudget::default().with_max_valuations(2_000);
        let options = EnumerationOptions {
            guessable_values: vec![Value::int(7)],
            max_accesses: usize::MAX,
        };
        let mut digest = Fnv(0xCBF2_9CE4_8422_2325);
        let (mut ltr_calls, mut relevant) = (0, 0);
        let (mut containment_calls, mut contained) = (0, 0);
        let mut reads = 0;
        for seed in 0..300 {
            let (methods, mut conf, queries) = random_world(seed, seed % 2 == 0);
            let candidates = well_formed_accesses(&conf, &methods, &options);
            for q in &queries {
                for access in &candidates {
                    conf.begin_read_tracking_with(accrel_schema::AdomPrecision::Precise);
                    let verdict = is_ltr_dependent(q, &conf, access, &methods, &budget);
                    let read_set = conf.take_read_set();
                    digest.write(verdict);
                    read_set.iter().for_each(|read| digest.write(read));
                    ltr_calls += 1;
                    relevant += usize::from(verdict);
                    reads += read_set.len();
                }
            }
            for q1 in &queries {
                for q2 in &queries {
                    conf.begin_read_tracking_with(accrel_schema::AdomPrecision::Precise);
                    let outcome = crate::is_contained(q1, q2, &conf, &methods, &budget);
                    let read_set = conf.take_read_set();
                    digest.write(outcome.contained);
                    digest.write(outcome.witness.map(|w| w.path));
                    read_set.iter().for_each(|read| digest.write(read));
                    containment_calls += 1;
                    contained += usize::from(outcome.contained);
                    reads += read_set.len();
                }
            }
        }
        assert_eq!(
            (ltr_calls, relevant, containment_calls, contained, reads),
            (3_248, 1_498, 644, 472, 21_623)
        );
        assert_eq!(digest.0, 0xFF21_DC4B_58A1_4F16);
    }

    #[test]
    fn a_constant_at_an_input_place_prunes_only_other_bindings() {
        // Q = Approval(il, 30): an Approval(tx)? response can never match
        // the atom, and its output domain O feeds no method, so it is a dead
        // end; Approval(il)? can return Approval(il, 30) and is relevant.
        let mut b = Schema::builder();
        let state = b.domain("S").unwrap();
        let offering = b.domain("O").unwrap();
        b.relation("Approval", &[("s", state), ("o", offering)])
            .unwrap();
        b.relation("Known", &[("s", state)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        let by_state = mb
            .add("ApprByState", "Approval", &["s"], AccessMode::Dependent)
            .unwrap();
        let methods = mb.build();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        qb.atom("Approval", vec![Term::constant("il"), Term::constant("30")])
            .unwrap();
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("Known", ["il"]).unwrap();
        conf.insert_named("Known", ["tx"]).unwrap();
        let budget = SearchBudget::default();
        let (tx, il) = (
            Access::new(by_state, binding(["tx"])),
            Access::new(by_state, binding(["il"])),
        );
        assert!(is_dead_end(&q, &tx, &methods));
        assert!(!witness_search(&q, &conf, &tx, &methods, &budget));
        assert!(!is_dead_end(&q, &il, &methods));
        assert!(is_ltr_dependent(&q, &conf, &il, &methods, &budget));
        // The dead-end verdict reads nothing from the configuration.
        conf.begin_read_tracking_with(accrel_schema::AdomPrecision::Precise);
        assert!(!is_ltr_dependent(&q, &conf, &tx, &methods, &budget));
        assert!(conf.take_read_set().is_empty());
    }

    #[test]
    fn overlay_replays_agree_with_the_truncation_of_the_access_path() {
        // Every replay witness condition B runs on random mixed worlds, and
        // the same plan with its steps reversed (which the truncation cuts
        // far more often), checked against the paper's truncation applied
        // access by access.
        let budget = SearchBudget::default().with_max_valuations(200);
        let options = EnumerationOptions {
            guessable_values: vec![Value::int(7)],
            max_accesses: usize::MAX,
        };
        let (mut replays, mut witness_cuts) = (0, 0);
        let (mut compared, mut cut, mut uncertain) = (0, 0, 0);
        for seed in 0..400 {
            let (methods, conf, queries) = random_world(seed, false);
            for q in &queries {
                for access in &well_formed_accesses(&conf, &methods, &options) {
                    let run = replays_during(|| {
                        witness_search(q, &conf, access, &methods, &budget);
                    });
                    replays += run.len();
                    for (plan, verdict) in run {
                        let mut reversed = plan.clone();
                        reversed.ordered.reverse();
                        let reversed_verdict =
                            replay_truncation_uncertain(q, &conf, &reversed, &methods);
                        for (i, (plan, overlay)) in [(plan, verdict), (reversed, reversed_verdict)]
                            .into_iter()
                            .enumerate()
                        {
                            let (defined, kept) =
                                truncation_by_definition(q, &conf, access, &plan, &methods);
                            assert_eq!(
                                overlay, defined,
                                "seed {seed}: {access:?} for {q:?}, plan {plan:?}"
                            );
                            let was_cut = kept < plan.ordered.len();
                            witness_cuts += usize::from(i == 0 && was_cut);
                            compared += 1;
                            cut += usize::from(was_cut);
                            uncertain += usize::from(overlay);
                        }
                    }
                }
            }
        }
        // 65,162 replays, 4 of them cut (a cut witness plan is rare: a step
        // fed by the initial response usually makes condition A hold
        // first); of the 130,324 compared, 40,516 are cut and 41,310 leave
        // the query uncertain.
        assert!(replays >= 50_000, "only {replays} plans replayed");
        assert!(witness_cuts >= 1, "no witness replay cut a step");
        assert!(cut >= 30_000, "only {cut} of {compared} replays cut a step");
        assert!(
            uncertain >= 30_000 && compared - uncertain >= 30_000,
            "{uncertain} of {compared} replays left the query uncertain"
        );
    }

    /// `Init(a)`, `S(a)` and `T(k, v)`, with free dependent methods on
    /// `Init` and `S` and a dependent method on `T` keyed by `k`, and the
    /// empty configuration.
    fn replay_world() -> (AccessMethods, Configuration) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        b.relation("Init", &[("a", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        b.relation("T", &[("k", d), ("v", e)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_free("InitAll", "Init", AccessMode::Dependent)
            .unwrap();
        mb.add_free("SAll", "S", AccessMode::Dependent).unwrap();
        mb.add("TByK", "T", &["k"], AccessMode::Dependent).unwrap();
        (mb.build(), Configuration::empty(schema))
    }

    /// A plan producing `facts` in order, each by its relation's method.
    fn plan_of(methods: &AccessMethods, facts: &[(&str, &[&str])]) -> search::FactPlan {
        let ordered = facts
            .iter()
            .map(|(relation, values)| {
                let relation = methods.schema().relation_by_name(relation).unwrap();
                search::PlannedFact {
                    relation,
                    tuple: Tuple::new(values.iter().map(|v| Value::sym(*v)).collect()),
                    method: methods.methods_for(relation)[0],
                }
            })
            .collect();
        search::FactPlan {
            ordered,
            aux_count: 0,
        }
    }

    #[test]
    fn a_step_fed_by_an_earlier_kept_step_is_kept() {
        // Q = ∃x,y S(x) ∧ T(x, y). T(v, w)? needs v, which only the kept
        // step S() → S(v) supplies: both are kept and Q holds.
        let (methods, conf) = replay_world();
        let plan = |facts: &[(&str, &[&str])]| plan_of(&methods, facts);
        let schema = conf.schema().clone();
        let mut qb = ConjunctiveQuery::builder(schema);
        let (x, y) = (qb.var("x"), qb.var("y"));
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.atom("T", vec![Term::Var(x), Term::Var(y)]).unwrap();
        let q: Query = qb.build().into();
        let initial = Access::new(
            methods.by_name("InitAll").unwrap(),
            binding(Vec::<&str>::new()),
        );
        let fed = plan(&[("S", &["v"]), ("T", &["v", "w"])]);
        assert!(!replay_truncation_uncertain(&q, &conf, &fed, &methods));
        assert_eq!(
            truncation_by_definition(&q, &conf, &initial, &fed, &methods),
            (false, 2)
        );
        // Without the feeding step, T(v, w)? is cut.
        let unfed = plan(&[("T", &["v", "w"])]);
        assert!(replay_truncation_uncertain(&q, &conf, &unfed, &methods));
        assert_eq!(
            truncation_by_definition(&q, &conf, &initial, &unfed, &methods),
            (true, 0)
        );
    }

    #[test]
    fn a_step_fed_only_by_the_initial_response_is_cut_with_all_after_it() {
        // Q = ∃x S(x). The initial access Init() returns Init(v); the plan's
        // T(v, w)? needs v, which Conf does not hold, so the truncation ends
        // before it, and the well-formed S() → S(u) after it goes too.
        let (methods, conf) = replay_world();
        let plan = |facts: &[(&str, &[&str])]| plan_of(&methods, facts);
        let mut qb = ConjunctiveQuery::builder(conf.schema().clone());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q: Query = qb.build().into();
        let initial = Access::new(
            methods.by_name("InitAll").unwrap(),
            binding(Vec::<&str>::new()),
        );
        let blocked = plan(&[("T", &["v", "w"]), ("S", &["u"])]);
        // The whole path, initial response included, is well-formed.
        let mut path = AccessPath::new();
        path.push(
            initial.clone(),
            Response::new(vec![Tuple::new(vec![Value::sym("v")])]),
        );
        for step in blocked.to_path(&methods).steps() {
            path.push(step.access.clone(), step.response.clone());
        }
        assert!(path.is_well_formed_at(&conf, &methods));
        assert!(replay_truncation_uncertain(&q, &conf, &blocked, &methods));
        assert_eq!(
            truncation_by_definition(&q, &conf, &initial, &blocked, &methods),
            (true, 0)
        );
        // S() → S(u) alone survives and makes Q hold.
        let open = plan(&[("S", &["u"])]);
        assert!(!replay_truncation_uncertain(&q, &conf, &open, &methods));
        assert_eq!(
            truncation_by_definition(&q, &conf, &initial, &open, &methods),
            (false, 1)
        );
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
