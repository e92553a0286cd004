//! Experiment harness: runs scaled-down versions of experiments E1–E8, the
//! S1 store table and the F1–F4 federation tables, and prints one markdown
//! table per experiment.
//!
//! ```text
//! cargo run -p accrel-bench --bin harness --release
//! ```
//!
//! With `--smoke` every experiment runs at its smallest sizes (the E and S
//! rows timing the median of 5 samples after an untimed warm-up call, the F
//! rows one whole run each), and the tables are also written as JSON to
//! `BENCH_smoke.json` (override with `--out <path>`), so CI can record the
//! perf trajectory cheaply:
//!
//! ```text
//! cargo run -p accrel-bench --bin harness --release -- --smoke
//! ```
//!
//! With `--million` only the million-fact sweeps run (the E5
//! data-complexity point, the S1 store table and the F1–F4 federation
//! sweeps at 10⁶ facts), written as JSON to `BENCH_million.json` by
//! default — the basis of the non-blocking `million_fact` CI job, which
//! diffs the output against the committed `BENCH_million_baseline.json`.

use std::process::ExitCode;

use accrel_bench::runner;

#[derive(PartialEq)]
enum Mode {
    Full,
    Smoke,
    Million,
    CheckInvalidation,
}

fn main() -> ExitCode {
    let mut mode = Mode::Full;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => mode = Mode::Smoke,
            "--million" => mode = Mode::Million,
            "--check-invalidation" => mode = Mode::CheckInvalidation,
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("error: --out requires a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: harness [--smoke | --million | --check-invalidation] [--out <path>]"
                );
                println!();
                println!("  --smoke       run every experiment at its smallest sizes, write JSON");
                println!("  --million     run only E5, S1 and F1-F4 at 10^6 facts, write JSON");
                println!("  --check-invalidation");
                println!("                assert the invalidation savings hold: exact read-set");
                println!("                invalidation re-runs strictly fewer decision procedures");
                println!("                than the relation-level baseline on the bank workload,");
                println!("                and precise per-domain tracking saves strictly on the");
                println!("                E5 adom-flooding chain (ordered precise <= exact <=");
                println!("                relation-level)");
                println!("  --out <path>  JSON output path (default BENCH_smoke.json /");
                println!("                BENCH_million.json)");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    if out_path.is_some() && (mode == Mode::Full || mode == Mode::CheckInvalidation) {
        eprintln!("error: --out only applies to --smoke / --million runs");
        return ExitCode::FAILURE;
    }
    if mode == Mode::CheckInvalidation {
        return match runner::check_invalidation_savings() {
            Ok(savings) => {
                println!(
                    "bank: {} decision procedures re-run (exact) vs {} (relation-level); \
                     E5 flooding chain: {} (precise) vs {} (exact) vs {} (relation-level) \
                     — savings intact",
                    savings.bank_exact,
                    savings.bank_relation,
                    savings.e5_precise,
                    savings.e5_exact,
                    savings.e5_relation
                );
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let out_path = out_path.unwrap_or_else(|| {
        String::from(match mode {
            Mode::Million => "BENCH_million.json",
            _ => "BENCH_smoke.json",
        })
    });

    println!("# accrel experiment harness\n");
    println!(
        "Reproduction of the complexity landscape of `Determining Relevance of Accesses at \
         Runtime` (PODS 2011). The paper has no empirical evaluation; these tables demonstrate \
         the shape of its results (Table 1, the tractable cases, and the engine-level value of \
         relevance pruning).\n"
    );

    let tables = match mode {
        Mode::Smoke => runner::run_smoke(),
        Mode::Million => runner::run_million(),
        Mode::Full => runner::run_all(),
        Mode::CheckInvalidation => unreachable!("handled above"),
    };
    for table in &tables {
        println!("{}", table.to_markdown());
    }

    if mode != Mode::Full {
        let label = if mode == Mode::Million {
            "million"
        } else {
            "smoke"
        };
        let json = runner::tables_to_json(label, &tables);
        if let Err(e) = std::fs::write(&out_path, json) {
            eprintln!("error: failed to write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out_path}");
    }
    ExitCode::SUCCESS
}
