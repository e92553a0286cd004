//! The lower-bound machinery as a workload generator: corridor tiling
//! problems, the Proposition 6.2 encoding into containment under access
//! limitations, and what the decision procedures report on them.
//!
//! ```text
//! cargo run --example tiling_workloads
//! ```

use accrel::prelude::*;
use accrel::workloads::encodings::{encode_prop_6_2, encoding_stats};
use accrel::workloads::tiling::{checkerboard, cycling_rows, frozen_checkerboard};

fn main() {
    println!("| problem              | width | solvable | relations | config facts | q_wrong disjuncts |");
    println!("|----------------------|-------|----------|-----------|--------------|-------------------|");
    for (name, problem) in [
        ("checkerboard", checkerboard(2)),
        ("checkerboard", checkerboard(3)),
        ("frozen checkerboard", frozen_checkerboard(2)),
        ("cycling rows", cycling_rows(2)),
    ] {
        let enc = encode_prop_6_2(&problem);
        let stats = encoding_stats(&problem, &enc);
        println!(
            "| {:<20} | {:<5} | {:<8} | {:<9} | {:<12} | {:<17} |",
            name,
            problem.width,
            problem.solvable(8),
            stats.relations,
            stats.configuration_facts,
            stats.wrong_disjuncts
        );
    }

    // The reduction in action on an unsolvable instance: q_final ⊑ q_wrong
    // must hold (every reachable configuration that spells the final row
    // also exhibits a violation), and the checker agrees.
    let problem = frozen_checkerboard(2);
    let enc = encode_prop_6_2(&problem);
    let outcome = is_contained(
        &enc.q_final,
        &enc.q_wrong,
        &enc.configuration,
        &enc.methods,
        &SearchBudget::shallow(),
    );
    println!(
        "\nfrozen checkerboard (unsolvable): q_final ⊑ q_wrong ? {}  (expected: true)",
        outcome.contained
    );

    // On a solvable instance the ground truth is non-containment; the
    // witness is a full correct tiling, which lies beyond the default
    // search budget of the (budget-complete) checker — this is exactly the
    // exponential behaviour the lower bound builds on, and the harness's E3
    // table measures the encoding's growth.
    let problem = checkerboard(2);
    println!(
        "checkerboard 2×corridor is solvable: {} (brute-force solver)",
        problem.solvable(4)
    );
}
