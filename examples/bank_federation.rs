//! The Section 1 motivating scenario end-to-end: a federated engine answers
//! the bank/loan query against four simulated Web forms, comparing the
//! exhaustive baseline with relevance-guided access selection.
//!
//! ```text
//! cargo run --example bank_federation --release
//! ```

use accrel::engine::scenarios::bank_scenario;
use accrel::prelude::*;

fn main() {
    let scenario = bank_scenario();
    println!("scenario : {}", scenario.description);
    println!("query    : {}", scenario.query);
    println!(
        "local knowledge: {} facts, hidden source: {} facts\n",
        scenario.initial_configuration.len(),
        scenario.instance.len()
    );

    let source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        ResponsePolicy::Exact,
    );
    let request = RunRequest::new(scenario.query.clone());

    println!("| strategy    | answered | accesses | skipped | tuples |");
    println!("|-------------|----------|----------|---------|--------|");
    for report in compare_strategies(
        &Sequential::new(&source),
        &request,
        &scenario.initial_configuration,
    ) {
        println!(
            "| {:<11} | {:<8} | {:<8} | {:<7} | {:<6} |",
            report.strategy.name(),
            report.certain,
            report.accesses_made,
            report.accesses_skipped,
            report.tuples_retrieved
        );
    }

    println!(
        "\nThe exhaustive strategy is the dynamic evaluation of Li [18] that the paper \
         contrasts with: it pulls every form it can fill in. The IR-guided strategy stalls \
         immediately — nothing is *immediately* relevant before the last step of a multi-hop \
         plan, which is exactly why the paper introduces long-term relevance. On this scenario \
         almost every access is long-term relevant (any known employee could turn out to be \
         the Illinois loan officer), so LTR pruning saves little here; the star scenario of \
         `accrel-workloads` (see the harness's E7 table) shows the 5x savings it brings when the \
         source graph has genuinely irrelevant branches."
    );
}
