//! End-to-end integration tests: scenarios → engine → answers, spanning all
//! workspace crates through the facade.

use accrel::engine::scenarios::{bank_scenario, bank_scenario_negative};
use accrel::prelude::*;
use accrel::workloads::scenarios::{chain_scenario, star_scenario};

fn run(
    scenario: &accrel::engine::scenarios::Scenario,
    strategy: Strategy,
) -> accrel::engine::RunReport {
    let source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        ResponsePolicy::Exact,
    );
    let request = RunRequest::new(scenario.query.clone()).with_strategy(strategy);
    Sequential::new(&source).execute(&request, &scenario.initial_configuration)
}

#[test]
fn bank_scenario_is_answered_by_exhaustive_and_relevance_guided_engines() {
    let scenario = bank_scenario();
    let exhaustive = run(&scenario, Strategy::Exhaustive);
    let guided = run(&scenario, Strategy::LtrGuided);
    let hybrid = run(&scenario, Strategy::Hybrid);
    assert!(exhaustive.certain);
    assert!(guided.certain);
    assert!(hybrid.certain);
    assert!(guided.accesses_made <= exhaustive.accesses_made);
    assert!(hybrid.accesses_made <= exhaustive.accesses_made);
    // The engine's knowledge is always sound w.r.t. the hidden instance.
    assert!(scenario
        .instance
        .is_consistent(&exhaustive.final_configuration));
    assert!(scenario.instance.is_consistent(&guided.final_configuration));
}

#[test]
fn negative_bank_scenario_terminates_without_an_answer() {
    let scenario = bank_scenario_negative();
    let exhaustive = run(&scenario, Strategy::Exhaustive);
    assert!(!exhaustive.certain);
    // Exhaustive evaluation learnt everything reachable, and still the
    // query is not certain — consistent with the ground truth.
    assert!(!certain::is_certain(
        &scenario.query,
        &scenario.instance.full_configuration()
    ));
}

#[test]
fn chain_scenarios_answered_with_bounded_accesses() {
    for depth in 1..=3 {
        let scenario = chain_scenario(depth);
        let guided = run(&scenario, Strategy::LtrGuided);
        assert!(guided.certain, "depth {depth}");
        // The guided engine needs at least one access per hop and should
        // not wander far beyond the decoy keys.
        assert!(guided.accesses_made >= depth);
        let exhaustive = run(&scenario, Strategy::Exhaustive);
        assert!(exhaustive.certain);
        assert!(guided.accesses_made <= exhaustive.accesses_made);
    }
}

#[test]
fn star_scenario_relevance_pruning_skips_decoy_branches() {
    let scenario = star_scenario(5);
    let exhaustive = run(&scenario, Strategy::Exhaustive);
    let guided = run(&scenario, Strategy::LtrGuided);
    assert!(exhaustive.certain && guided.certain);
    assert!(guided.accesses_made < exhaustive.accesses_made);
}

#[test]
fn engine_answers_are_certain_answers_of_the_hidden_instance() {
    // Whatever a sound engine reports as certain must hold in the hidden
    // instance (soundness of certain answers under monotone queries).
    for scenario in [bank_scenario(), chain_scenario(2), star_scenario(3)] {
        let report = run(&scenario, Strategy::Hybrid);
        if report.certain {
            assert!(certain::is_certain(
                &scenario.query,
                &scenario.instance.full_configuration()
            ));
        }
        assert!(scenario.instance.is_consistent(&report.final_configuration));
    }
}

#[test]
fn incomplete_sources_never_break_soundness() {
    let scenario = bank_scenario();
    let source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        ResponsePolicy::SoundSample {
            probability: 0.5,
            seed: 3,
        },
    );
    let request = RunRequest::new(scenario.query.clone()).with_strategy(Strategy::Exhaustive);
    let report = Sequential::new(&source).execute(&request, &scenario.initial_configuration);
    assert!(scenario.instance.is_consistent(&report.final_configuration));
}

#[test]
fn containment_explains_engine_behaviour_on_the_chain() {
    // "The deepest hop is reachable" is contained in "the first hop is
    // reachable" under the chain's access limitations; accordingly any
    // engine run that made the deepest hop certain also made the first hop
    // certain.
    let scenario = chain_scenario(3);
    let schema = scenario.schema.clone();
    let mut q1b = ConjunctiveQuery::builder(schema.clone());
    let (a, b) = (q1b.var("a"), q1b.var("b"));
    q1b.atom("Hop3", vec![Term::Var(a), Term::Var(b)]).unwrap();
    let deepest: Query = q1b.build().into();
    let mut q2b = ConjunctiveQuery::builder(schema);
    let (a, b) = (q2b.var("a"), q2b.var("b"));
    q2b.atom("Hop1", vec![Term::Var(a), Term::Var(b)]).unwrap();
    let first: Query = q2b.build().into();
    let outcome = is_contained(
        &deepest,
        &first,
        &scenario.initial_configuration,
        &scenario.methods,
        &SearchBudget::default(),
    );
    assert!(outcome.contained);

    let report = run(&scenario, Strategy::Exhaustive);
    if certain::is_certain(&deepest, &report.final_configuration) {
        assert!(certain::is_certain(&first, &report.final_configuration));
    }
}
