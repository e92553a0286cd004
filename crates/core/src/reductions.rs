//! The reductions of Section 2 and Section 3 connecting relevance and
//! containment.
//!
//! * [`boolean_instances`] — Proposition 2.2: relevance of an access for a
//!   query of output arity `k` reduces to relevance for polynomially many
//!   Boolean instantiations of the head (configuration constants plus `k`
//!   fresh ones);
//! * [`ltr_to_non_containment`] — Proposition 3.4: long-term relevance of a
//!   (Boolean) access for a Boolean positive query reduces to
//!   *non*-containment of a rewritten query in the original one, over a
//!   schema extended with an inaccessible `IsBind` relation recording the
//!   binding;
//! * [`containment_to_not_ltr`] — Proposition 3.3 (positive-query version):
//!   containment of `Q1` in `Q2` under access limitations reduces to
//!   *non*-relevance of a Boolean access on a fresh relation `A` for the
//!   query `((∃x A(x)) ∨ Q2) ∧ Q1`;
//! * [`ltr_via_containment_oracle`] — Proposition 3.5: a nondeterministic
//!   polynomial-time algorithm deciding long-term relevance of a Boolean
//!   access for a CQ with an oracle for containment under access
//!   limitations (here: by enumerating the subsets the proposition guesses).
//!
//! All constructions preserve [`accrel_schema::RelationId`]s by appending
//! new relations at the end of the schema, so existing queries,
//! configurations and access methods can be ported across unchanged.

use std::collections::HashMap;
use std::sync::Arc;

use accrel_access::{binding, Access, AccessMethods, AccessMode};
use accrel_query::{
    Atom, ConjunctiveQuery, PositiveQuery, PqFormula, Query, Term, Valuation, VarId,
};
use accrel_schema::{Configuration, DomainId, Schema, Tuple, Value};

use crate::budget::SearchBudget;
use crate::containment;
use crate::search;

/// Proposition 2.2: the Boolean instantiations of a query of output arity
/// `k`, obtained by substituting every combination of configuration
/// constants (of the right output domains) and `k` fresh constants for the
/// head variables.
///
/// The access is relevant (IR or LTR) for the original query iff it is
/// relevant for at least one of the returned Boolean queries.
pub fn boolean_instances(query: &Query, conf: &Configuration) -> Vec<Query> {
    match query {
        Query::Cq(cq) => boolean_instances_cq(cq, conf)
            .into_iter()
            .map(Query::Cq)
            .collect(),
        Query::Pq(pq) => {
            let free = pq.free_vars().to_vec();
            head_substitutions(&free, pq_output_domains(pq), conf)
                .into_iter()
                .map(|m| Query::Pq(pq.substitute(&m)))
                .collect()
        }
    }
}

fn boolean_instances_cq(cq: &ConjunctiveQuery, conf: &Configuration) -> Vec<ConjunctiveQuery> {
    let free = cq.free_vars().to_vec();
    let domains = cq.output_domains().ok();
    head_substitutions(&free, domains, conf)
        .into_iter()
        .map(|m| cq.substitute(&m))
        .collect()
}

fn pq_output_domains(pq: &PositiveQuery) -> Option<Vec<DomainId>> {
    pq.ucq().first().and_then(|d| d.output_domains().ok())
}

/// Enumerates the head substitutions of Proposition 2.2.
fn head_substitutions(
    free: &[VarId],
    domains: Option<Vec<DomainId>>,
    conf: &Configuration,
) -> Vec<HashMap<VarId, Value>> {
    if free.is_empty() {
        return vec![HashMap::new()];
    }
    let mut fresh = conf.fresh_supply();
    // Candidate values per head position: configuration constants of the
    // position's domain plus one fresh constant specific to that position.
    // When the head domains are known, each position reads only its own
    // domain (a per-domain walk for the recorder); only an untyped head
    // falls back to a whole-active-domain read.
    let mut per_position: Vec<Vec<Value>> = Vec::with_capacity(free.len());
    for (i, _) in free.iter().enumerate() {
        let mut candidates: Vec<Value> = match &domains {
            Some(ds) => match ds.get(i) {
                Some(d) => conf.values_of_domain(*d),
                None => Vec::new(),
            },
            None => conf.active_domain().into_iter().map(|(v, _)| v).collect(),
        };
        candidates.sort();
        candidates.dedup();
        candidates.push(fresh.next_value());
        per_position.push(candidates);
    }
    // Cartesian product.
    let mut out = vec![HashMap::new()];
    for (i, v) in free.iter().enumerate() {
        let mut next = Vec::with_capacity(out.len() * per_position[i].len());
        for m in &out {
            for value in &per_position[i] {
                let mut m2 = m.clone();
                m2.insert(*v, value.clone());
                next.push(m2);
            }
        }
        out = next;
    }
    out
}

/// The output of [`ltr_to_non_containment`] (Proposition 3.4): long-term
/// relevance of the original access holds iff `q1` is **not** contained in
/// `q2` under `methods` starting from `configuration`.
#[derive(Debug, Clone)]
pub struct LtrToContainment {
    /// The rewritten query `Q'` (accessed-relation atoms disjoined with
    /// `IsBind`).
    pub q1: Query,
    /// The original query, ported to the extended schema.
    pub q2: Query,
    /// The starting configuration, extended with the `IsBind` fact.
    pub configuration: Configuration,
    /// The access methods, ported to the extended schema (no method on
    /// `IsBind`).
    pub methods: AccessMethods,
}

/// Proposition 3.4: reduces long-term relevance of `access` for the Boolean
/// positive query `query` at `conf` to non-containment.
pub fn ltr_to_non_containment(
    query: &PositiveQuery,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
) -> LtrToContainment {
    let schema = methods.schema();
    let method = methods
        .get(access.method())
        .expect("access method must exist");
    let input_positions = method.input_positions().to_vec();
    let input_domains: Vec<DomainId> = input_positions
        .iter()
        .filter_map(|&p| schema.domain_of(method.relation(), p).ok())
        .collect();

    // Extended schema: IsBind appended.
    let new_schema = extend_schema(schema, &[("IsBind", input_domains)]);
    let is_bind = new_schema
        .relation_by_name("IsBind")
        .expect("IsBind was just added");

    // Ported methods (no method on IsBind — its content is fixed).
    let new_methods = port_methods(methods, new_schema.clone());

    // Ported configuration plus the IsBind(Bind) fact.
    let mut new_conf = port_configuration(conf, new_schema.clone());
    new_conf
        .insert(is_bind, Tuple::new(access.binding().values().to_vec()))
        .expect("IsBind fact has the binding arity");

    // Q' : every atom over the accessed relation R(i, o) becomes
    // R(i, o) ∨ IsBind(i).
    let rewritten = rewrite_with_isbind(
        query.formula(),
        method.relation(),
        &input_positions,
        is_bind,
    );
    let q1 = PositiveQuery::new(
        new_schema.clone(),
        rewritten,
        query.free_vars().to_vec(),
        query.var_names().to_vec(),
    );
    let q2 = PositiveQuery::new(
        new_schema,
        query.formula().clone(),
        query.free_vars().to_vec(),
        query.var_names().to_vec(),
    );
    LtrToContainment {
        q1: Query::Pq(q1),
        q2: Query::Pq(q2),
        configuration: new_conf,
        methods: new_methods,
    }
}

fn rewrite_with_isbind(
    formula: &PqFormula,
    relation: accrel_schema::RelationId,
    input_positions: &[usize],
    is_bind: accrel_schema::RelationId,
) -> PqFormula {
    match formula {
        PqFormula::Atom(a) if a.relation() == relation => {
            let projected: Vec<Term> = input_positions
                .iter()
                .filter_map(|&p| a.term_at(p).cloned())
                .collect();
            PqFormula::Or(vec![
                PqFormula::Atom(a.clone()),
                PqFormula::Atom(Atom::new(is_bind, projected)),
            ])
        }
        PqFormula::Atom(_) => formula.clone(),
        PqFormula::And(fs) => PqFormula::And(
            fs.iter()
                .map(|f| rewrite_with_isbind(f, relation, input_positions, is_bind))
                .collect(),
        ),
        PqFormula::Or(fs) => PqFormula::Or(
            fs.iter()
                .map(|f| rewrite_with_isbind(f, relation, input_positions, is_bind))
                .collect(),
        ),
    }
}

/// The output of [`containment_to_not_ltr`] (Proposition 3.3): `Q1` is
/// contained in `Q2` under the original access limitations iff `access` is
/// **not** long-term relevant for `query` at `configuration`.
#[derive(Debug, Clone)]
pub struct ContainmentToLtr {
    /// The combined query `((∃x A(x)) ∨ Q2) ∧ Q1`.
    pub query: Query,
    /// The starting configuration (ported; contains no `A`-fact).
    pub configuration: Configuration,
    /// The access methods extended with the Boolean method on `A`.
    pub methods: AccessMethods,
    /// The distinguished access `A(c)?`.
    pub access: Access,
}

/// Proposition 3.3 (positive-query version): reduces containment of `q1` in
/// `q2` under `methods` starting from `conf` to non-relevance.
pub fn containment_to_not_ltr(
    q1: &PositiveQuery,
    q2: &PositiveQuery,
    conf: &Configuration,
    methods: &AccessMethods,
) -> ContainmentToLtr {
    let schema = methods.schema();
    // A fresh unary relation A over a fresh abstract domain.
    let new_schema = extend_schema_with_domain(schema, "ADom", &[("A", 1)]);
    let a_rel = new_schema.relation_by_name("A").expect("A was just added");

    let mut mb = AccessMethods::builder(new_schema.clone());
    copy_methods_into(methods, &mut mb);
    // The Boolean access on A is made independent so that A(c)? is
    // well-formed in any configuration; this does not weaken the reduction
    // since A occurs nowhere else.
    let a_check = mb
        .add_boolean("ACheck", "A", AccessMode::Independent)
        .expect("A exists in the new schema");
    let new_methods = mb.build();

    let new_conf = port_configuration(conf, new_schema.clone());

    // Merge the variable spaces of Q1 and Q2 and add the fresh x for A(x).
    let mut var_names = q1.var_names().to_vec();
    let offset = var_names.len() as u32;
    for name in q2.var_names() {
        var_names.push(format!("{name}'"));
    }
    let renaming: HashMap<VarId, VarId> = (0..q2.var_names().len() as u32)
        .map(|i| (VarId(i), VarId(i + offset)))
        .collect();
    let q2_renamed = rename_formula(q2.formula(), &renaming);
    let x = VarId(var_names.len() as u32);
    var_names.push("a_witness".to_string());

    let formula = PqFormula::And(vec![
        PqFormula::Or(vec![
            PqFormula::Atom(Atom::new(a_rel, vec![Term::Var(x)])),
            q2_renamed,
        ]),
        q1.formula().clone(),
    ]);
    let combined = PositiveQuery::new(new_schema, formula, Vec::new(), var_names);

    let access = Access::new(a_check, binding(["reduction-c"]));
    ContainmentToLtr {
        query: Query::Pq(combined),
        configuration: new_conf,
        methods: new_methods,
        access,
    }
}

fn rename_formula(formula: &PqFormula, renaming: &HashMap<VarId, VarId>) -> PqFormula {
    match formula {
        PqFormula::Atom(a) => PqFormula::Atom(a.rename_vars(renaming)),
        PqFormula::And(fs) => {
            PqFormula::And(fs.iter().map(|f| rename_formula(f, renaming)).collect())
        }
        PqFormula::Or(fs) => {
            PqFormula::Or(fs.iter().map(|f| rename_formula(f, renaming)).collect())
        }
    }
}

/// Proposition 3.5: decides long-term relevance of a Boolean access for a
/// Boolean conjunctive query using the containment procedure as an oracle.
///
/// The algorithm splits the query into the subgoals compatible with the
/// access (`Q1`) and the rest (`Q2`), guesses a proper subset `Q'1 ⊊ Q1`,
/// and asks the oracle whether `Q'1 ∧ Q2 ⊑_ACS,Conf Q`; the access is
/// relevant iff some guess is not contained.
pub fn ltr_via_containment_oracle(
    query: &ConjunctiveQuery,
    conf: &Configuration,
    access: &Access,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> bool {
    let Ok(method) = methods.get(access.method()) else {
        return false;
    };
    let relation = method.relation();
    let input_positions = method.input_positions();
    // Indices of subgoals compatible with the access.
    let mut compatible = Vec::new();
    let mut rest = Vec::new();
    for (i, atom) in query.atoms().iter().enumerate() {
        let is_compatible = atom.relation() == relation
            && search::charge_to_access(atom, &Valuation::new(), access, input_positions).is_some();
        if is_compatible {
            compatible.push(i);
        } else {
            rest.push(i);
        }
    }
    if compatible.is_empty() {
        return false;
    }
    let whole: Query = Query::Cq(query.clone());
    // Enumerate proper subsets of the compatible subgoals.
    let n = compatible.len();
    for mask in 0..(1u32 << n) {
        if mask == (1u32 << n) - 1 {
            // Not a *proper* subset.
            continue;
        }
        let mut kept: Vec<usize> = rest.clone();
        for (bit, &idx) in compatible.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                kept.push(idx);
            }
        }
        kept.sort_unstable();
        let guessed = query.restrict_to_atoms(&kept);
        let outcome = containment::is_contained(&Query::Cq(guessed), &whole, conf, methods, budget);
        if !outcome.contained {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Schema / method / configuration porting helpers.
// ---------------------------------------------------------------------------

/// Builds a new schema containing all of `schema`'s domains and relations
/// (ids preserved) plus the given extra relations.
pub fn extend_schema(schema: &Schema, extra: &[(&str, Vec<DomainId>)]) -> Arc<Schema> {
    let mut b = Schema::builder();
    for d in schema.domains() {
        b.domain(d.name()).expect("original domains are unique");
    }
    for rel in schema.relations() {
        let attrs: Vec<(&str, DomainId)> = rel
            .attributes()
            .iter()
            .map(|a| (a.name(), a.domain()))
            .collect();
        b.relation(rel.name(), &attrs)
            .expect("original relations are unique");
    }
    for (name, domains) in extra {
        b.relation_with_domains(*name, domains)
            .expect("extra relation name must be fresh");
    }
    b.build()
}

/// Like [`extend_schema`] but also adds a fresh domain used for the new
/// relations, which all have the given arities over that domain.
pub fn extend_schema_with_domain(
    schema: &Schema,
    domain_name: &str,
    extra: &[(&str, usize)],
) -> Arc<Schema> {
    let mut b = Schema::builder();
    for d in schema.domains() {
        b.domain(d.name()).expect("original domains are unique");
    }
    let new_dom = b
        .domain(domain_name)
        .expect("new domain name must be fresh");
    for rel in schema.relations() {
        let attrs: Vec<(&str, DomainId)> = rel
            .attributes()
            .iter()
            .map(|a| (a.name(), a.domain()))
            .collect();
        b.relation(rel.name(), &attrs)
            .expect("original relations are unique");
    }
    for (name, arity) in extra {
        b.relation_uniform(*name, *arity, new_dom)
            .expect("extra relation name must be fresh");
    }
    b.build()
}

/// Ports an access-method registry onto an extended schema (method ids and
/// names preserved).
pub fn port_methods(methods: &AccessMethods, new_schema: Arc<Schema>) -> AccessMethods {
    let mut mb = AccessMethods::builder(new_schema);
    copy_methods_into(methods, &mut mb);
    mb.build()
}

fn copy_methods_into(methods: &AccessMethods, mb: &mut accrel_access::AccessMethodsBuilder) {
    for (_, m) in methods.iter() {
        mb.add_positions(
            m.name(),
            m.relation(),
            m.input_positions().to_vec(),
            m.mode(),
        )
        .expect("original methods are unique and well-typed");
    }
}

/// Ports a configuration onto an extended schema (relation ids preserved).
pub fn port_configuration(conf: &Configuration, new_schema: Arc<Schema>) -> Configuration {
    let mut out = Configuration::empty(new_schema);
    for (rel, t) in conf.facts() {
        out.insert(rel, t).expect("ported facts keep their arity");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltr_dependent::is_ltr_dependent;
    use accrel_query::PositiveQuery;
    use accrel_schema::Schema;

    fn example_3_2() -> (Arc<Schema>, AccessMethods, PositiveQuery, PositiveQuery) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add_boolean("RCheck", "R", AccessMode::Dependent)
            .unwrap();
        mb.add_free("SAll", "S", AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut b1 = PositiveQuery::builder(schema.clone());
        let x = b1.var("x");
        let f1 = b1.atom("R", vec![Term::Var(x)]).unwrap();
        let q1 = b1.build(f1);
        let mut b2 = PositiveQuery::builder(schema.clone());
        let x = b2.var("x");
        let f2 = b2.atom("S", vec![Term::Var(x)]).unwrap();
        let q2 = b2.build(f2);
        (schema, methods, q1, q2)
    }

    #[test]
    fn boolean_instances_of_a_boolean_query_is_the_query_itself() {
        let (schema, _, q1, _) = example_3_2();
        let conf = Configuration::empty(schema);
        let instances = boolean_instances(&Query::Pq(q1.clone()), &conf);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0], Query::Pq(q1));
    }

    #[test]
    fn boolean_instances_enumerate_conf_constants_and_fresh_ones() {
        let (schema, _, _, _) = example_3_2();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("R", vec![Term::Var(x)]).unwrap();
        qb.free(&[x]);
        let q: Query = qb.build().into();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("S", ["a"]).unwrap();
        conf.insert_named("S", ["b"]).unwrap();
        let instances = boolean_instances(&q, &conf);
        // a, b, plus one fresh constant.
        assert_eq!(instances.len(), 3);
        assert!(instances.iter().all(|i| i.is_boolean()));
        // Two-variable head: cartesian product (3 × 3).
        let mut qb = ConjunctiveQuery::builder(q.schema().clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        qb.free(&[x, y]);
        let q2: Query = qb.build().into();
        assert_eq!(boolean_instances(&q2, &conf).len(), 9);
    }

    #[test]
    fn schema_extension_preserves_relation_ids() {
        let (schema, methods, _, _) = example_3_2();
        let d = schema.domain_by_name("D").unwrap();
        let extended = extend_schema(&schema, &[("Extra", vec![d, d])]);
        assert_eq!(extended.relation_count(), schema.relation_count() + 1);
        for (id, rel) in schema.relations_with_ids() {
            assert_eq!(extended.relation(id).unwrap().name(), rel.name());
        }
        let ported = port_methods(&methods, extended.clone());
        assert_eq!(ported.len(), methods.len());
        assert_eq!(
            ported.by_name("RCheck").unwrap(),
            methods.by_name("RCheck").unwrap()
        );
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("S", ["v"]).unwrap();
        let ported_conf = port_configuration(&conf, extended);
        assert_eq!(ported_conf.len(), 1);
        let with_domain = extend_schema_with_domain(&schema, "NewDom", &[("A", 1)]);
        assert!(with_domain.relation_by_name("A").is_ok());
        assert!(with_domain.domain_by_name("NewDom").is_ok());
    }

    #[test]
    fn prop_3_4_ltr_matches_non_containment() {
        // Use the Example 3.2 world: the Boolean access R(v)? (for a value v
        // present in the configuration) is LTR for Q = ∃x R(x) iff the
        // rewritten query is not contained in Q.
        let (schema, methods, q1, _) = example_3_2();
        let r_check = methods.by_name("RCheck").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("S", ["v"]).unwrap();
        let access = Access::new(r_check, binding(["v"]));
        let budget = SearchBudget::default();

        let direct = is_ltr_dependent(&Query::Pq(q1.clone()), &conf, &access, &methods, &budget);
        let reduction = ltr_to_non_containment(&q1, &conf, &access, &methods);
        let oracle = containment::is_contained(
            &reduction.q1,
            &reduction.q2,
            &reduction.configuration,
            &reduction.methods,
            &budget,
        );
        assert!(direct);
        assert!(!oracle.contained);
        assert_eq!(direct, !oracle.contained);
    }

    #[test]
    fn prop_3_4_non_relevant_access_maps_to_containment() {
        // If the query is already certain the access is not LTR and the
        // rewritten query is contained.
        let (schema, methods, q1, _) = example_3_2();
        let r_check = methods.by_name("RCheck").unwrap();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("S", ["v"]).unwrap();
        conf.insert_named("R", ["v"]).unwrap();
        let access = Access::new(r_check, binding(["v"]));
        let budget = SearchBudget::default();
        let direct = is_ltr_dependent(&Query::Pq(q1.clone()), &conf, &access, &methods, &budget);
        let reduction = ltr_to_non_containment(&q1, &conf, &access, &methods);
        let oracle = containment::is_contained(
            &reduction.q1,
            &reduction.q2,
            &reduction.configuration,
            &reduction.methods,
            &budget,
        );
        assert!(!direct);
        assert!(oracle.contained);
    }

    #[test]
    fn prop_3_3_containment_matches_non_relevance() {
        // Example 3.2: Q1 ⊑ Q2 under the access limitations, so the
        // distinguished access of the reduction must not be LTR; the
        // converse containment fails, so there the access must be LTR.
        let (schema, methods, q1, q2) = example_3_2();
        let conf = Configuration::empty(schema);
        let budget = SearchBudget::default();

        let holds = containment::is_contained(
            &Query::Pq(q1.clone()),
            &Query::Pq(q2.clone()),
            &conf,
            &methods,
            &budget,
        );
        assert!(holds.contained);
        let red = containment_to_not_ltr(&q1, &q2, &conf, &methods);
        let ltr = is_ltr_dependent(
            &red.query,
            &red.configuration,
            &red.access,
            &red.methods,
            &budget,
        );
        assert!(!ltr, "containment holds, so the A-access must not be LTR");

        let fails = containment::is_contained(
            &Query::Pq(q2.clone()),
            &Query::Pq(q1.clone()),
            &conf,
            &methods,
            &budget,
        );
        assert!(!fails.contained);
        let red = containment_to_not_ltr(&q2, &q1, &conf, &methods);
        let ltr = is_ltr_dependent(
            &red.query,
            &red.configuration,
            &red.access,
            &red.methods,
            &budget,
        );
        assert!(ltr, "containment fails, so the A-access must be LTR");
    }

    #[test]
    fn prop_3_5_oracle_algorithm_agrees_with_direct_ltr() {
        // Boolean access on R for Q = R(v) ∧ S(v) in two configurations.
        let (schema, methods, _, _) = example_3_2();
        let r_check = methods.by_name("RCheck").unwrap();
        let budget = SearchBudget::default();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        qb.atom("R", vec![Term::constant("v")]).unwrap();
        qb.atom("S", vec![Term::constant("v")]).unwrap();
        let q = qb.build();
        let access = Access::new(r_check, binding(["v"]));

        // Configuration where S(v) is known: the access completes the query.
        let mut conf = Configuration::empty(schema.clone());
        conf.insert_named("S", ["v"]).unwrap();
        let via_oracle = ltr_via_containment_oracle(&q, &conf, &access, &methods, &budget);
        let direct = is_ltr_dependent(&Query::Cq(q.clone()), &conf, &access, &methods, &budget);
        assert!(via_oracle);
        assert_eq!(via_oracle, direct);

        // Configuration where the query is already certain: not relevant.
        let mut conf_done = conf.clone();
        conf_done.insert_named("R", ["v"]).unwrap();
        let via_oracle = ltr_via_containment_oracle(&q, &conf_done, &access, &methods, &budget);
        let direct = is_ltr_dependent(
            &Query::Cq(q.clone()),
            &conf_done,
            &access,
            &methods,
            &budget,
        );
        assert!(!direct);
        assert_eq!(via_oracle, direct);

        // An access whose binding conflicts with the query constants has no
        // compatible subgoal and is never relevant.
        let mut conf_other = Configuration::empty(schema);
        conf_other.insert_named("S", ["w"]).unwrap();
        let mismatched = Access::new(r_check, binding(["w"]));
        assert!(!ltr_via_containment_oracle(
            &q,
            &conf_other,
            &mismatched,
            &methods,
            &budget
        ));

        // A repeated variable takes one value: `∃x R(x, x)` has no subgoal
        // compatible with the Boolean access `RAcc(a, b)`, and one
        // compatible with `RAcc(a, a)`, in either access mode.
        for mode in [AccessMode::Dependent, AccessMode::Independent] {
            let mut b = Schema::builder();
            let d = b.domain("D").unwrap();
            b.relation("R", &[("a", d), ("b", d)]).unwrap();
            b.relation("S", &[("a", d)]).unwrap();
            let schema = b.build();
            let mut mb = AccessMethods::builder(schema.clone());
            mb.add_boolean("RAcc", "R", mode).unwrap();
            let methods = mb.build();
            let r_acc = methods.by_name("RAcc").unwrap();
            let mut qb = ConjunctiveQuery::builder(schema.clone());
            let x = qb.var("x");
            qb.atom("R", vec![Term::Var(x), Term::Var(x)]).unwrap();
            let q = qb.build();
            let mut conf = Configuration::empty(schema);
            conf.insert_named("S", ["a"]).unwrap();
            conf.insert_named("S", ["b"]).unwrap();
            for (values, relevant) in [(["a", "b"], false), (["a", "a"], true)] {
                let access = Access::new(r_acc, binding(values));
                let ctx = format!("{mode:?} access {access}");
                let via_oracle = ltr_via_containment_oracle(&q, &conf, &access, &methods, &budget);
                let direct = crate::is_long_term_relevant(
                    &Query::Cq(q.clone()),
                    &conf,
                    &access,
                    &methods,
                    &budget,
                );
                assert_eq!(direct, relevant, "{ctx}");
                assert_eq!(via_oracle, direct, "{ctx}");
            }
        }
    }
}
