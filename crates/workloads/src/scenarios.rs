//! Synthetic deep-Web scenarios for the engine ablation (experiment E7).
//!
//! Two families complement the bank scenario of `accrel-engine`:
//!
//! * **chains** — `depth` levels of sources where level `i+1` can only be
//!   queried with identifiers returned by level `i`; the query asks for a
//!   fact at the deepest level. This is the worst case for purely
//!   immediate-relevance reasoning and the best case for long-term
//!   relevance pruning (only the accesses along the single productive chain
//!   are relevant).
//! * **stars** — one hub source fanning out to `branches` satellite
//!   sources, only one of which is mentioned by the query: an exhaustive
//!   engine queries every satellite, a relevance-guided one only the useful
//!   branch.

use accrel_access::{AccessMethods, AccessMode};
use accrel_engine::scenarios::Scenario;
use accrel_query::{ConjunctiveQuery, Query, Term};
use accrel_schema::{Configuration, Instance, Schema};

/// Builds a chain scenario of the given depth (number of dependent hops).
///
/// Schema: `Seed(k0)` known locally; `Hop_i(k_{i-1}, k_i)` for `i = 1..depth`
/// each with a dependent access keyed by `k_{i-1}`. The query asks for a
/// tuple of the last hop. Each level also carries a decoy value that leads
/// nowhere, so exhaustive evaluation keeps querying useless keys.
pub fn chain_scenario(depth: usize) -> Scenario {
    let depth = depth.max(1);
    let mut sb = Schema::builder();
    let domains: Vec<_> = (0..=depth)
        .map(|i| sb.domain(format!("K{i}")).expect("fresh domain"))
        .collect();
    sb.relation("Seed", &[("k", domains[0])]).unwrap();
    for i in 1..=depth {
        sb.relation(
            format!("Hop{i}"),
            &[("prev", domains[i - 1]), ("next", domains[i])],
        )
        .unwrap();
    }
    let schema = sb.build();

    let mut mb = AccessMethods::builder(schema.clone());
    for i in 1..=depth {
        mb.add(
            format!("HopAcc{i}"),
            &format!("Hop{i}"),
            &["prev"],
            AccessMode::Dependent,
        )
        .unwrap();
    }
    let methods = mb.build();

    let mut instance = Instance::new(schema.clone());
    // The productive chain: seed0 → v1 → v2 → ... → v_depth.
    instance.insert_named("Seed", ["seed0"]).unwrap();
    instance.insert_named("Seed", ["decoy0"]).unwrap();
    let mut prev = "seed0".to_string();
    for i in 1..=depth {
        let next = format!("v{i}");
        instance
            .insert_named(&format!("Hop{i}"), [prev.clone(), next.clone()])
            .unwrap();
        // A decoy branch that dead-ends immediately.
        instance
            .insert_named(
                &format!("Hop{i}"),
                [format!("dead{i}"), format!("deadend{i}")],
            )
            .unwrap();
        prev = next;
    }

    let mut initial = Configuration::empty(schema.clone());
    initial.insert_named("Seed", ["seed0"]).unwrap();
    initial.insert_named("Seed", ["decoy0"]).unwrap();

    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let mut vars = Vec::new();
    for i in 0..=depth {
        vars.push(qb.var(format!("x{i}")));
    }
    for i in 1..=depth {
        qb.atom(
            &format!("Hop{i}"),
            vec![Term::Var(vars[i - 1]), Term::Var(vars[i])],
        )
        .unwrap();
    }
    let query: Query = qb.build().into();

    Scenario {
        name: format!("chain-{depth}"),
        description: format!("{depth}-hop dependent chain with decoy keys"),
        schema,
        methods,
        instance,
        query,
        initial_configuration: initial,
        expected_answer: true,
    }
}

/// Builds a star scenario: a hub relation returning keys for `branches`
/// satellite relations, with the query touching only the last branch.
pub fn star_scenario(branches: usize) -> Scenario {
    let branches = branches.max(1);
    let mut sb = Schema::builder();
    let key = sb.domain("Key").unwrap();
    let val = sb.domain("Val").unwrap();
    sb.relation("Hub", &[("k", key)]).unwrap();
    for b in 0..branches {
        sb.relation(format!("Sat{b}"), &[("k", key), ("v", val)])
            .unwrap();
    }
    let schema = sb.build();

    let mut mb = AccessMethods::builder(schema.clone());
    mb.add_free("HubAll", "Hub", AccessMode::Dependent).unwrap();
    for b in 0..branches {
        mb.add(
            format!("SatAcc{b}"),
            &format!("Sat{b}"),
            &["k"],
            AccessMode::Dependent,
        )
        .unwrap();
    }
    let methods = mb.build();

    let mut instance = Instance::new(schema.clone());
    for k in 0..3 {
        instance.insert_named("Hub", [format!("key{k}")]).unwrap();
        for b in 0..branches {
            instance
                .insert_named(
                    &format!("Sat{b}"),
                    [format!("key{k}"), format!("val{b}-{k}")],
                )
                .unwrap();
        }
    }

    let initial = Configuration::empty(schema.clone());

    // Query: ∃k,v Sat_{last}(k, v) — only the *last* satellite matters, so
    // an exhaustive engine that scans sources in registration order wastes
    // accesses on every decoy satellite before reaching the useful one.
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let k = qb.var("k");
    let v = qb.var("v");
    qb.atom(
        &format!("Sat{}", branches - 1),
        vec![Term::Var(k), Term::Var(v)],
    )
    .unwrap();
    let query: Query = qb.build().into();

    Scenario {
        name: format!("star-{branches}"),
        description: format!("hub with {branches} satellites, query touches one"),
        schema,
        methods,
        instance,
        query,
        initial_configuration: initial,
        expected_answer: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_engine::{
        DeepWebSource, Executor as _, ResponsePolicy, RunReport, RunRequest, Sequential, Strategy,
    };
    use accrel_query::certain;

    fn run(s: &Scenario, source: &DeepWebSource, strategy: Strategy) -> RunReport {
        let request = RunRequest::new(s.query.clone()).with_strategy(strategy);
        Sequential::new(source).execute(&request, &s.initial_configuration)
    }

    #[test]
    fn chain_scenarios_are_well_formed() {
        for depth in 1..=3 {
            let s = chain_scenario(depth);
            assert!(s.query.validate().is_ok());
            assert!(s.instance.is_consistent(&s.initial_configuration));
            assert!(!certain::is_certain(&s.query, &s.initial_configuration));
            assert!(certain::is_certain(
                &s.query,
                &s.instance.full_configuration()
            ));
            assert_eq!(s.methods.len(), depth);
            assert_eq!(s.name, format!("chain-{depth}"));
        }
    }

    #[test]
    fn star_scenarios_are_well_formed() {
        let s = star_scenario(4);
        assert!(s.query.validate().is_ok());
        assert!(s.instance.is_consistent(&s.initial_configuration));
        assert!(certain::is_certain(
            &s.query,
            &s.instance.full_configuration()
        ));
        assert_eq!(s.methods.len(), 5);
        assert_eq!(s.schema.relation_count(), 5);
    }

    #[test]
    fn exhaustive_engine_solves_the_chain() {
        let s = chain_scenario(3);
        let source =
            DeepWebSource::new(s.instance.clone(), s.methods.clone(), ResponsePolicy::Exact);
        let report = run(&s, &source, Strategy::Exhaustive);
        assert!(report.certain);
        // It needs at least one access per hop.
        assert!(report.accesses_made >= 3);
    }

    #[test]
    fn ltr_guided_engine_skips_the_star_decoys() {
        let s = star_scenario(4);
        let source =
            DeepWebSource::new(s.instance.clone(), s.methods.clone(), ResponsePolicy::Exact);
        let exhaustive = run(&s, &source, Strategy::Exhaustive);
        source.reset_stats();
        let guided = run(&s, &source, Strategy::LtrGuided);
        assert!(exhaustive.certain);
        assert!(guided.certain);
        assert!(guided.accesses_made <= exhaustive.accesses_made);
        // The guided run never touches the decoy satellites.
        assert!(guided.accesses_made <= 1 + 3);
    }
}
