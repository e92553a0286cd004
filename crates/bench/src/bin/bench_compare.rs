//! Compares two `BENCH_smoke.json` files (baseline vs fresh) and reports
//! per-row regressions.
//!
//! ```text
//! cargo run -p accrel-bench --bin bench_compare -- BENCH_baseline.json BENCH_smoke.json
//! ```
//!
//! Rows are matched by `(table id, series, parameter, metric)`.
//!
//! * Timing rows (`µs` metrics) whose fresh value exceeds `threshold ×` the
//!   baseline are printed as GitHub `::warning::` annotations. They fail the
//!   run only under `--fail-on-regression`: a single-sample smoke pass is
//!   too noisy to gate merges on. A timing row present on one side only is
//!   a warning too.
//! * Every other row is a deterministic count. Each one whose value
//!   changed, or that only one side carries, is printed as an `::error::`
//!   annotation, and any of them makes the exit code 1: a changed, new or
//!   vanished count is a behaviour change, and a deliberate one updates the
//!   baseline with it.
//!
//! The comparison rules live in `accrel_bench::compare`.

use std::process::ExitCode;

use accrel_bench::compare::{compare_rows, RowKey, Side};
use accrel_bench::smoke::{parse_smoke_rows, SmokeRow};

fn load(path: &str) -> Result<Vec<SmokeRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_smoke_rows(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 2.0f64;
    let mut fail_on_regression = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => match args.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t > 0.0 => threshold = t,
                _ => {
                    eprintln!("error: --threshold requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--fail-on-regression" => fail_on_regression = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench_compare [--threshold N] [--fail-on-regression] \
                     <baseline.json> <fresh.json>"
                );
                return ExitCode::SUCCESS;
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("error: expected exactly two JSON paths (baseline, fresh); try --help");
        return ExitCode::FAILURE;
    }
    let (baseline, fresh) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = compare_rows(&baseline, &fresh, threshold);
    let only = |(key, side): &(RowKey, Side)| {
        let side = match side {
            Side::Baseline => "baseline",
            Side::Fresh => "fresh run",
        };
        format!(
            "{} / {} / {} / {}: only in the {side}",
            key.0, key.1, key.2, key.3
        )
    };
    for row in &report.one_sided_counts {
        println!("::error title=one-sided count row::{}", only(row));
    }
    for row in &report.one_sided_timings {
        println!("::warning title=one-sided timing row::{}", only(row));
    }
    for c in &report.changed_counts {
        println!(
            "::error title=count row changed::{} / {} / {} / {}: {} -> {}",
            c.key.0, c.key.1, c.key.2, c.key.3, c.baseline, c.fresh
        );
    }
    for r in &report.regressions {
        println!(
            "::warning title=bench regression::{} / {} / {} / {}: {:.1}µs -> {:.1}µs ({:.2}x)",
            r.key.0,
            r.key.1,
            r.key.2,
            r.key.3,
            r.baseline,
            r.fresh,
            r.ratio()
        );
    }
    println!(
        "bench_compare: {} count rows compared, {} changed, {} one-sided; \
         {} timing rows compared, {} regression(s) over {threshold:.1}x, {} one-sided",
        report.counts_compared,
        report.changed_counts.len(),
        report.one_sided_counts.len(),
        report.compared,
        report.regressions.len(),
        report.one_sided_timings.len()
    );
    if !report.changed_counts.is_empty()
        || !report.one_sided_counts.is_empty()
        || (fail_on_regression && !report.regressions.is_empty())
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
