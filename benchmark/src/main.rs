//! The accrel benchmark: three closed-loop, single-client workloads driven
//! through the public run APIs, with end-to-end metrics from an untraced
//! pass and per-layer metrics from a separate traced pass.
//!
//! ```text
//! accrel-perfbench --workload <dense-probe|flood-chain|serve-exhaustive>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from the seed alone. Set-up (inputs, hidden instances and
//! the reference outputs every timed run is checked against) is repeated
//! [`SETUP_REPS`] times and its median reported. The timed loop then runs
//! whole passes over the inputs until `--seconds` have elapsed. Times are
//! scaled against a calibration kernel run between operations (see
//! [`clock`]). The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`).

mod clock;
mod inputs;
mod metrics;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accrel_engine::{Executor, RunOptions, RunReport, RunRequest, Sequential};
use accrel_federation::{QuerySessionRegistry, ServingOptions, ServingReport};

use clock::{closed_loop, timed_setup, Op, Stopwatch};
use inputs::{Batch, SeqInput, ServeWorld};
use metrics::{median, percentile, ratio, Outcome, END_TO_END, PER_LAYER};
use trace::{Ledger, SourceTally, TimedSource};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Inputs of the `flood-chain` workload (each reference run costs about
/// half a second, so the pool stays small).
const FLOOD_INPUTS: usize = 7;
/// Distinct `serve` batches in the serving workload.
const SERVE_BATCHES: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            metrics::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("accrel-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-exhaustive" => serving(&args),
        _ => sequential(&args),
    };
    for (name, unit, value) in &outcome.metrics {
        eprintln!("{name:<44} {value:>14.4} {unit}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// `run_ms_p50`, `run_ms_p90` and `wall_us_per_access` from operations
/// that returned `(wall ms, accesses)`, with every time scaled to the
/// reference host (see [`clock`]).
fn time_metrics(ops: &[Op<(f64, usize)>]) -> [(&'static str, f64); 3] {
    let times: Vec<f64> = ops.iter().map(|op| op.scaled(op.out.0)).collect();
    let accesses: usize = ops.iter().map(|op| op.out.1).sum();
    [
        ("run_ms_p50", percentile(&times, 0.5)),
        ("run_ms_p90", percentile(&times, 0.9)),
        (
            "wall_us_per_access",
            ratio(times.iter().sum::<f64>() * 1e3, accesses as f64),
        ),
    ]
}

/// The median kernel time of a pass, in ms.
fn host_kernel_ms<T>(ops: &[Op<T>]) -> f64 {
    median(&ops.iter().map(|op| op.kernel_ms).collect::<Vec<_>>())
}

/// A timed run's output agrees with its reference: access sequence,
/// answers, certainty and final configuration.
fn same_outcome(run: &RunReport, reference: &RunReport) -> bool {
    run.access_sequence == reference.access_sequence
        && run.answers == reference.answers
        && run.certain == reference.certain
        && run.final_configuration.len() == reference.final_configuration.len()
        && run
            .final_configuration
            .same_facts(&reference.final_configuration)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// dense-probe and flood-chain: Sequential::execute
// ---------------------------------------------------------------------------

fn sequential(args: &Args) -> Outcome {
    let ((inputs, references), setup_s) = timed_setup(SETUP_REPS, |watch| {
        let inputs = watch.time(|| match args.workload.as_str() {
            "dense-probe" => inputs::dense_probe(args.seed, inputs::LIVE_KEYS),
            _ => inputs::flood_chain(args.seed, FLOOD_INPUTS),
        });
        // The reference runs with the verdict cache off, so it shares no
        // cache or invalidation code with the timed runs.
        let references: Vec<RunReport> = inputs
            .iter()
            .map(|input| {
                let uncached = RunOptions {
                    use_relevance_cache: false,
                    ..input.request.options.clone()
                };
                let request = input.request.clone().with_options(uncached);
                watch.time(|| Sequential::new(&input.source).execute(&request, &input.initial))
            })
            .collect();
        (inputs, references)
    });
    if args.trace {
        return sequential_traced(args, &inputs, &references);
    }

    let mut failed = 0usize;
    let ops = closed_loop(inputs.len(), args.seconds, |i| {
        let input = &inputs[i];
        let start = Instant::now();
        let report = Sequential::new(&input.source).execute(&input.request, &input.initial);
        let wall = ms(start.elapsed());
        failed += usize::from(!same_outcome(&report, &references[i]));
        (wall, report.accesses_made)
    });
    let per_input = |f: fn(&RunReport) -> usize| {
        references.iter().map(|r| f(r) as f64).sum::<f64>() / references.len() as f64
    };
    let mut values = vec![
        ("setup_s", setup_s),
        ("accesses_per_run", per_input(|r| r.accesses_made)),
        (
            "wire_calls_per_session",
            per_input(|r| r.source_stats.calls),
        ),
        ("peak_rss_mb", metrics::peak_rss_mb()),
    ];
    values.extend(time_metrics(&ops));
    Outcome {
        attempted: ops.len(),
        failed,
        consistent: true,
        metrics: Outcome::pick(&END_TO_END, &values),
    }
}

/// The traced pass over the sequential inputs. Each operation runs the
/// engine untraced (the comparison point), the traced replay with its
/// decision re-runs, and a zero-access run for the fixed per-run cost.
fn sequential_traced(args: &Args, inputs: &[SeqInput], references: &[RunReport]) -> Outcome {
    let mut ledger = Ledger::default();
    let (mut ops, mut failed, mut diverged) = (0usize, 0usize, 0usize);
    let (mut engine_wall, mut replay_wall, mut fixed) = (0.0, 0.0, 0.0);
    let mut counts = Counters::default();
    let passes = closed_loop(inputs.len(), args.seconds, |i| {
        let input = &inputs[i];
        let executor = Sequential::new(&input.source);
        let start = Instant::now();
        let report = executor.execute(&input.request, &input.initial);
        engine_wall += ms(start.elapsed());
        failed += usize::from(!same_outcome(&report, &references[i]));

        let replay = trace::replay(&input.source, &input.request, &input.initial, &mut ledger);
        replay_wall += ms(replay.wall);
        let faithful = replay.access_sequence == report.access_sequence
            && replay.verdicts == report.relevance_verdicts
            && replay.answers == report.answers
            && replay.certain == report.certain
            && replay.final_configuration.sorted_facts()
                == report.final_configuration.sorted_facts()
            && replay.rerun_mismatches == 0;
        diverged += usize::from(!faithful);

        let zero = RunRequest {
            options: RunOptions {
                max_accesses: 0,
                ..input.request.options.clone()
            },
            ..input.request.clone()
        };
        let start = Instant::now();
        std::hint::black_box(executor.execute(&zero, &input.initial));
        fixed += ms(start.elapsed());

        counts.add(&report);
        ops += 1;
    });
    if diverged > 0 {
        eprintln!("accrel-perfbench: traced replay diverged from Sequential::execute on {diverged} of {ops} runs");
    }
    let mut values = layer_values(&ledger, ops as f64, &counts);
    let covered = ms(trace::covered(&ledger));
    values.extend([
        ("trace.ops", ops as f64),
        ("host.kernel_ms", host_kernel_ms(&passes)),
        (
            "trace.unattributed_share",
            ratio(replay_wall - covered, replay_wall),
        ),
        (
            "trace.overhead_share",
            ratio(replay_wall - engine_wall, engine_wall),
        ),
        ("engine.run.wall_ms", engine_wall / ops as f64),
        ("engine.run.fixed_ms", fixed / ops as f64),
    ]);
    Outcome {
        attempted: ops,
        failed,
        consistent: diverged == 0,
        metrics: Outcome::pick(&PER_LAYER, &values),
    }
}

/// Engine counters summed over the traced pass.
#[derive(Default)]
struct Counters {
    hits: usize,
    misses: usize,
    reads: usize,
    evictions: usize,
    events: usize,
    trail_ops: u64,
    shard_copies: u64,
}

impl Counters {
    fn add(&mut self, report: &RunReport) {
        self.hits += report.relevance_cache_hits;
        self.misses += report.relevance_cache_misses;
        self.reads += report.reads_tracked;
        self.evictions += report.evictions;
        self.events += report.events_drained;
        self.trail_ops += report.trail_ops.pushed + report.trail_ops.undone;
        self.shard_copies += report.shard_copies;
    }
}

/// The per-layer values the replay ledger and engine counters give, as
/// means per operation.
fn layer_values(ledger: &Ledger, ops: f64, c: &Counters) -> Vec<(&'static str, f64)> {
    let per_op = |v: f64| ratio(v, ops);
    let busy = |name: &str| per_op(ms(ledger.get(name).busy));
    let calls = |name: &str| per_op(ledger.get(name).calls);
    let decisions = ledger.get("core.ir").busy + ledger.get("core.ltr").busy;
    let tracked = ledger.get("engine.relevance.tracked").busy;
    vec![
        ("engine.pool.busy_ms", busy("engine.pool")),
        ("engine.setup.busy_ms", busy("engine.setup")),
        ("query.certain.calls", calls("query.certain")),
        ("query.certain.busy_ms", busy("query.certain")),
        ("query.answers.busy_ms", busy("query.answers")),
        ("core.precheck.busy_ms", busy("core.precheck")),
        (
            "core.precheck.share",
            ratio(ms(ledger.get("core.precheck").busy), ms(decisions)),
        ),
        ("core.ir.calls", calls("core.ir")),
        ("core.ir.busy_ms", busy("core.ir")),
        (
            "core.ir.relevant_share",
            ratio(
                ledger.counted("core.ir.relevant"),
                ledger.get("core.ir").calls,
            ),
        ),
        ("core.ltr.calls", calls("core.ltr")),
        ("core.ltr.busy_ms", busy("core.ltr")),
        (
            "core.ltr.relevant_share",
            ratio(
                ledger.counted("core.ltr.relevant"),
                ledger.get("core.ltr").calls,
            ),
        ),
        (
            "engine.relevance.select.calls",
            calls("engine.relevance.select"),
        ),
        (
            "engine.relevance.select.busy_ms",
            busy("engine.relevance.select"),
        ),
        (
            "engine.relevance.select.self_ms",
            per_op(ms(ledger.get("engine.relevance.select").busy) - ms(tracked)),
        ),
        (
            "engine.relevance.select.hit_ratio",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        ),
        ("engine.relevance.tracking.reads", per_op(c.reads as f64)),
        (
            "engine.relevance.tracking.overhead_ms",
            per_op(ms(tracked) - ms(decisions)),
        ),
        (
            "engine.relevance.invalidate.calls",
            calls("engine.relevance.invalidate"),
        ),
        (
            "engine.relevance.invalidate.busy_ms",
            busy("engine.relevance.invalidate"),
        ),
        (
            "engine.relevance.invalidate.events",
            per_op(c.events as f64),
        ),
        (
            "engine.relevance.invalidate.evictions",
            per_op(c.evictions as f64),
        ),
        ("schema.store.trail_ops", per_op(c.trail_ops as f64)),
        ("schema.store.shard_copies", per_op(c.shard_copies as f64)),
        ("access.frontier.calls", calls("access.frontier")),
        ("access.frontier.busy_ms", busy("access.frontier")),
        (
            "access.frontier.candidates",
            per_op(ledger.counted("access.frontier.candidates")),
        ),
        ("access.response.calls", calls("access.response")),
        ("access.response.busy_ms", busy("access.response")),
        (
            "access.response.facts_inserted",
            per_op(ledger.counted("access.response.facts_inserted")),
        ),
        ("engine.source.calls", calls("engine.source")),
        ("engine.source.busy_ms", busy("engine.source")),
        (
            "engine.source.tuples",
            per_op(ledger.counted("engine.source.tuples")),
        ),
    ]
}

// ---------------------------------------------------------------------------
// serve-exhaustive: QuerySessionRegistry::serve
// ---------------------------------------------------------------------------

/// Set-up output of the serving workload.
struct ServeSetup {
    world: ServeWorld,
    batches: Vec<Batch>,
    references: BTreeMap<(usize, usize), RunReport>,
}

fn serve_setup(seed: u64, watch: &mut Stopwatch) -> ServeSetup {
    let world = watch.time(inputs::serve_world);
    let batches = watch.time(|| inputs::serve_batches(seed, &world, SERVE_BATCHES));
    let oracle = inputs::world_source(&world);
    let mut references = BTreeMap::new();
    for batch in &batches {
        for (key, request) in batch.keys.iter().zip(&batch.requests) {
            if !references.contains_key(key) {
                let reference =
                    watch.time(|| Sequential::new(&oracle).execute(request, &world.initial));
                references.insert(*key, reference);
            }
        }
    }
    ServeSetup {
        world,
        batches,
        references,
    }
}

/// One `serve` call of `batch` on a fresh registry: the report, its wall
/// time, and how many sessions disagree with their references.
fn serve_once(
    federation: &accrel_federation::AsyncFederation,
    setup: &ServeSetup,
    batch: &Batch,
) -> (ServingReport, Duration, usize) {
    let registry = QuerySessionRegistry::with_options(
        federation,
        ServingOptions {
            max_sessions: inputs::SESSIONS,
            ..ServingOptions::default()
        },
    );
    let start = Instant::now();
    let report = registry.serve(&batch.requests, &setup.world.initial);
    let wall = start.elapsed();
    let failed = report
        .sessions
        .iter()
        .filter(|s| !same_outcome(&s.report, &setup.references[&batch.keys[s.session]]))
        .count();
    (report, wall, failed)
}

fn serving(args: &Args) -> Outcome {
    let ((setup, federation), setup_s) = timed_setup(SETUP_REPS, |watch| {
        let setup = serve_setup(args.seed, watch);
        let federation = watch.time(|| inputs::serve_federation(&setup.world, |source| source));
        (setup, federation)
    });
    if args.trace {
        return serving_traced(args, &setup, &federation);
    }

    let (mut wire_calls, mut sessions, mut failed) = (0usize, 0usize, 0usize);
    let ops = closed_loop(setup.batches.len(), args.seconds, |b| {
        let (report, wall, bad) = serve_once(&federation, &setup, &setup.batches[b]);
        wire_calls += report.wire_calls;
        sessions += report.sessions.len();
        failed += bad;
        (ms(wall), report.total_accesses())
    });
    let keys = setup.batches.iter().flat_map(|b| &b.keys);
    let per_session: Vec<f64> = keys
        .map(|key| setup.references[key].accesses_made as f64)
        .collect();
    let mut values = vec![
        ("setup_s", setup_s),
        (
            "accesses_per_run",
            per_session.iter().sum::<f64>() / per_session.len() as f64,
        ),
        (
            "wire_calls_per_session",
            ratio(wire_calls as f64, sessions as f64),
        ),
        ("peak_rss_mb", metrics::peak_rss_mb()),
    ];
    values.extend(time_metrics(&ops));
    Outcome {
        attempted: sessions,
        failed,
        consistent: true,
        metrics: Outcome::pick(&END_TO_END, &values),
    }
}

/// The traced serving pass. Each operation serves its batch twice, on the
/// plain federation and on one whose sources are wrapped in
/// [`TimedSource`], then replays each distinct session request through the
/// traced replay to attribute per-session engine time.
fn serving_traced(
    args: &Args,
    setup: &ServeSetup,
    plain: &accrel_federation::AsyncFederation,
) -> Outcome {
    let tally = Arc::new(Mutex::new(SourceTally::default()));
    let timed = inputs::serve_federation(&setup.world, |source| {
        TimedSource::new(source, tally.clone())
    });
    let oracle = inputs::world_source(&setup.world);

    let mut ledger = Ledger::default();
    let (mut ops, mut sessions, mut failed, mut diverged) = (0usize, 0usize, 0usize, 0usize);
    let (mut plain_wall, mut traced_wall, mut attributed) = (0.0, 0.0, 0.0);
    let (mut wire_calls, mut joined_calls, mut session_calls) = (0usize, 0usize, 0usize);
    let mut latencies = Vec::new();
    let mut counts = Counters::default();
    let passes = closed_loop(setup.batches.len(), args.seconds, |b| {
        let batch = &setup.batches[b];
        let (plain_report, wall, bad) = serve_once(plain, setup, batch);
        plain_wall += ms(wall);
        failed += bad;
        sessions += plain_report.sessions.len();

        let (report, wall, bad) = serve_once(&timed, setup, batch);
        let source = std::mem::take(&mut *tally.lock().expect("source tally poisoned"));
        traced_wall += ms(wall);
        failed += bad;
        ledger.add_span("federation.source", source.calls as f64, source.busy);
        ledger.count("federation.source.tuples", source.tuples as f64);
        wire_calls += report.wire_calls;
        joined_calls += report.joined_calls;
        session_calls += report.session_calls();
        for session in &report.sessions {
            counts.add(&session.report);
        }
        latencies.extend(
            report
                .sessions
                .iter()
                .map(|s| s.stats.latency_micros as f64 / 1e3),
        );
        sessions += report.sessions.len();

        // Replay each distinct request once and weigh it by how many
        // sessions asked for it.
        let mut multiplicity: BTreeMap<(usize, usize), (usize, &RunRequest)> = BTreeMap::new();
        for (key, request) in batch.keys.iter().zip(&batch.requests) {
            multiplicity.entry(*key).or_insert((0, request)).0 += 1;
        }
        let mut engine_ms = 0.0;
        for (key, (times, request)) in multiplicity {
            let mut session = Ledger::default();
            let replay = trace::replay(&oracle, request, &setup.world.initial, &mut session);
            let reference = &setup.references[&key];
            diverged += usize::from(
                replay.access_sequence != reference.access_sequence
                    || replay.answers != reference.answers
                    || replay.certain != reference.certain
                    || !replay
                        .final_configuration
                        .same_facts(&reference.final_configuration),
            );
            engine_ms += times as f64 * (ms(replay.wall) - ms(session.get("engine.source").busy));
            ledger.merge_scaled(&session, times as f64);
        }
        attributed += engine_ms + ms(source.busy);
        ops += 1;
    });
    if diverged > 0 {
        eprintln!("accrel-perfbench: traced replay diverged from the sequential reference {diverged} times");
    }
    let ops_f = ops as f64;
    let mut values = layer_values(&ledger, ops_f, &counts);
    let unattributed = traced_wall - attributed;
    values.extend([
        ("trace.ops", ops_f),
        ("host.kernel_ms", host_kernel_ms(&passes)),
        ("trace.unattributed_share", ratio(unattributed, traced_wall)),
        (
            "trace.overhead_share",
            ratio(traced_wall - plain_wall, plain_wall),
        ),
        ("engine.run.wall_ms", ratio(plain_wall, ops_f)),
        (
            "federation.source.calls",
            ratio(ledger.get("federation.source").calls, ops_f),
        ),
        (
            "federation.source.busy_ms",
            ratio(ms(ledger.get("federation.source").busy), ops_f),
        ),
        (
            "federation.source.tuples",
            ratio(ledger.counted("federation.source.tuples"), ops_f),
        ),
        (
            "federation.serving.wire_calls",
            ratio(wire_calls as f64, ops_f),
        ),
        (
            "federation.serving.joined_calls",
            ratio(joined_calls as f64, ops_f),
        ),
        (
            "federation.serving.dedup_ratio",
            ratio(joined_calls as f64, session_calls as f64),
        ),
        (
            "federation.serving.unattributed_ms",
            ratio(unattributed, ops_f),
        ),
        (
            "federation.serving.session_virtual_ms_p50",
            percentile(&latencies, 0.5),
        ),
        (
            "federation.serving.session_virtual_ms_p90",
            percentile(&latencies, 0.9),
        ),
    ]);
    Outcome {
        attempted: sessions,
        failed,
        consistent: diverged == 0,
        metrics: Outcome::pick(&PER_LAYER, &values),
    }
}
