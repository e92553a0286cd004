//! Differential scenario fuzzer driver: random chaos-federation scenarios
//! (schema × query × response policy × churn script) run through the
//! threaded, async and serving executors and diffed against the sequential
//! oracle, whose own certainty and answers are first checked against a full
//! evaluation on its final configuration, and whose run is regrown with an
//! independent access frontier checked against full enumeration after every
//! response. The serving executor must also report the async executor's
//! source traffic and virtual makespan. Any divergence is shrunk to a
//! minimal reproducing case and printed; the process exits non-zero so CI
//! can gate on it.
//!
//! With `--invalidation-seeds <N>` the sweep additionally diffs **precise**
//! and **exact read-set invalidation** against the relation-level baseline on each
//! case (identical observable run, verdict-log subsequence, never more
//! re-checks or evictions), and all three against an uncached run that
//! calls the pre-checking decision procedures for every verdict.
//!
//! ```text
//! cargo run --release -p accrel-bench --bin fuzz -- --seeds 25
//! cargo run --release -p accrel-bench --bin fuzz -- --seeds 100 --base-seed 4242
//! cargo run --release -p accrel-bench --bin fuzz -- --seeds 25 --invalidation-seeds 25
//! ```

use std::process::ExitCode;

use accrel_workloads::differential;

fn main() -> ExitCode {
    let mut seeds = 25usize;
    let mut base_seed = 0u64;
    let mut invalidation_seeds = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => return usage("--seeds takes a count"),
            },
            "--base-seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => base_seed = n,
                None => return usage("--base-seed takes a u64"),
            },
            "--invalidation-seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => invalidation_seeds = n,
                None => return usage("--invalidation-seeds takes a count"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    println!("# accrel differential fuzzer: {seeds} seeds from base {base_seed}\n");
    let summary = differential::fuzz(base_seed, seeds);
    let (v, t) = (&summary.virtual_traffic, &summary.threaded_traffic);
    println!("cases run      : {}", summary.cases);
    println!("                 async=serving  threaded");
    println!("churn events   : {:<14} {}", v.churn_events, t.churn_events);
    println!("failovers      : {:<14} {}", v.failovers, t.failovers);
    println!(
        "breaker trips  : {:<14} {}",
        v.breaker_trips, t.breaker_trips
    );
    println!(
        "(the async totals are fixed by the seeds, and the serving layer must report \
         them too; the threaded ones depend on the order its two workers reach the \
         chaos clock)"
    );

    let mut failed = false;
    if summary.failures.is_empty() {
        println!(
            "\nall {} cases agree with the sequential oracle",
            summary.cases
        );
    } else {
        for failure in &summary.failures {
            println!(
                "\nseed {} diverged ({:?} differs under {:?}); minimal reproducing case:\n{}",
                failure.seed,
                failure.divergence.field,
                failure.divergence.executor,
                failure.minimal
            );
        }
        eprintln!(
            "\n{} of {} cases diverged",
            summary.failures.len(),
            summary.cases
        );
        failed = true;
    }

    if invalidation_seeds > 0 {
        println!(
            "\n# invalidation differential: {invalidation_seeds} seeds from base {base_seed} \
             (precise vs exact read-set vs relation-level)"
        );
        let inv = differential::fuzz_invalidation(base_seed, invalidation_seeds);
        println!(
            "cases run      : {}\nprecise misses : {}\nexact misses   : {}\nbaseline misses: {}",
            inv.cases, inv.precise_misses, inv.exact_misses, inv.relation_misses
        );
        if inv.failures.is_empty() {
            println!(
                "all {} cases: precise and exact invalidation match the relation-level \
                 baseline (and never re-check more)",
                inv.cases
            );
        } else {
            for (seed, field) in &inv.failures {
                eprintln!("seed {seed}: invalidation invariant `{field}` broken");
            }
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    println!("usage: fuzz [--seeds <count>] [--base-seed <u64>] [--invalidation-seeds <count>]");
    println!("  --seeds <count>               number of consecutive seeds to run (default 25)");
    println!("  --base-seed <u64>             first seed of the sweep (default 0)");
    println!("  --invalidation-seeds <count>  also diff exact read-set invalidation against");
    println!("                                the relation-level baseline over <count> seeds");
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
