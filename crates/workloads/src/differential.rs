//! The differential scenario fuzzer: random chaos scenarios checked
//! against the sequential oracle, with shrinking.
//!
//! Each [`FuzzCase`] is derived from a single `u64` seed and fully
//! determines a scenario: a random schema/instance/query workload, a
//! response policy, a strategy, and a churn script that kills, revives and
//! degrades the primary provider mid-run while a replica stands by. The
//! fuzzer runs the scenario through every concurrent execution layer —
//! threaded, async and serving — and compares each report field-by-field
//! against the sequential executor ([`run_case`]). Because replica failover
//! is supposed to *hide* churn (replicas answer under the same
//! [`ResponsePolicy`] seed, so a failed-over access returns byte-for-byte
//! the primary's response), any divergence is a bug in the resilience
//! layer, and [`shrink`] reduces the failing case greedily — dropping
//! churn events, then halving the data knobs — to a minimal reproducible
//! case whose seed and script print via `Display`.
//!
//! The generator keeps scenarios *sound by construction*: only the primary
//! provider is ever killed or made flaky, so at most one replica of the
//! pair is degraded at any time and the merge loop never observes an
//! ultimate failure (which the sans-IO loop would silently drop,
//! legitimately diverging from the oracle). The
//! `unsound_replica` flag deliberately breaks that soundness — the replica
//! answers under a perturbed policy — to prove the harness catches real
//! divergence (see `tests/chaos_equivalence.rs`).

use std::collections::BTreeSet;
use std::fmt;

use accrel_access::enumerate::{well_formed_accesses, EnumerationOptions};
use accrel_access::{apply_access_in_place, Access, AccessFrontier};
use accrel_core::SearchBudget;
use accrel_engine::{
    BackendStats, DeepWebSource, Executor, InvalidationMode, ResponsePolicy, RunOptions, RunReport,
    RunRequest, Sequential, Strategy, VerdictRecord,
};
use accrel_federation::{
    Async, AsyncFederation, ChaosOptions, ChurnScript, Federation, FlakyModel, LatencyModel,
    Serving, SimulatedSource, Threaded,
};
use accrel_query::{certain, Query};
use accrel_schema::{Configuration, Instance, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::random::{
    generate_configuration, generate_cq, generate_instance, generate_workload, Workload,
    WorkloadSpec,
};

/// The primary provider's name in every generated scenario.
pub const PRIMARY: &str = "provider-a";
/// The standby replica's name in every generated scenario.
pub const REPLICA: &str = "provider-b";

/// Virtual microseconds the sync federation's chaos clock self-advances per
/// wire call (async federations pace on their executor clock instead).
const SYNC_PACE_MICROS: u64 = 7;

/// A fully-determined fuzz scenario. [`FuzzCase::from_seed`] derives every
/// knob from the seed; [`shrink`] mutates the knobs (and the script)
/// directly, so a shrunk case remains reproducible from its printed form.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Seed of the workload generators (schema, instance, query).
    pub seed: u64,
    /// Constant-pool size of the generated workload.
    pub constants: usize,
    /// Facts in the hidden instance.
    pub facts: usize,
    /// Atoms in the generated conjunctive query.
    pub atoms: usize,
    /// The access-selection strategy under test.
    pub strategy: Strategy,
    /// The response policy both providers answer under.
    pub policy: ResponsePolicy,
    /// The churn script fired against the providers.
    pub script: ChurnScript,
    /// When set, the replica answers under a *perturbed* policy — an
    /// injected unsoundness the fuzzer must catch as divergence.
    pub unsound_replica: bool,
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FuzzCase {{ seed: {}, constants: {}, facts: {}, atoms: {}, \
             strategy: {:?}, policy: {:?}, unsound_replica: {} }}",
            self.seed,
            self.constants,
            self.facts,
            self.atoms,
            self.strategy,
            self.policy,
            self.unsound_replica
        )?;
        for event in self.script.events() {
            writeln!(f, "  @{}µs {:?}", event.at_micros, event.action)?;
        }
        Ok(())
    }
}

impl FuzzCase {
    /// Derives a scenario from `seed`. Same seed, same case — including a
    /// byte-identical churn script (pinned by the determinism test).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe_d00d_f00d);
        let constants = rng.gen_range(3..8);
        let facts = rng.gen_range(6..29);
        let atoms = rng.gen_range(1..4);
        let strategy = Strategy::all()[rng.gen_range(0..Strategy::all().len())];
        let policy = match rng.gen_range(0..3) {
            0 => ResponsePolicy::Exact,
            1 => ResponsePolicy::FirstK(rng.gen_range(1..5)),
            _ => ResponsePolicy::SoundSample {
                probability: 0.3 + 0.5 * rng.gen::<f64>(),
                seed: rng.gen(),
            },
        };
        let script = generate_script(&mut rng);
        Self {
            seed,
            constants,
            facts,
            atoms,
            strategy,
            policy,
            script,
            unsound_replica: false,
        }
    }

    /// The policy the replica answers under: the primary's, unless the case
    /// injects unsoundness.
    fn replica_policy(&self) -> ResponsePolicy {
        if !self.unsound_replica {
            return self.policy.clone();
        }
        match &self.policy {
            ResponsePolicy::Exact => ResponsePolicy::FirstK(1),
            ResponsePolicy::FirstK(k) => ResponsePolicy::FirstK(k.saturating_sub(1)),
            ResponsePolicy::SoundSample { probability, seed } => ResponsePolicy::SoundSample {
                probability: *probability,
                seed: seed.wrapping_add(1),
            },
        }
    }

    /// Materialises the workload data: schema+methods, hidden instance,
    /// initial configuration and query. Pure function of the case's knobs.
    pub fn materialize(&self) -> (Workload, Instance, Configuration, Query) {
        let spec = WorkloadSpec {
            relations: 3,
            arity: 2,
            domains: 2,
            constants: self.constants.max(2),
            dependent_fraction: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xda7a_5a17_0000_0001);
        let workload = generate_workload(&spec, &mut rng);
        let instance = generate_instance(&workload, self.facts.max(1), &mut rng);
        let initial = generate_configuration(&workload, (self.facts / 6).max(1), &mut rng);
        let query: Query = generate_cq(
            &workload,
            self.atoms.max(1),
            self.atoms.max(1) + 1,
            0.7,
            &mut rng,
        )
        .into();
        (workload, instance, initial, query)
    }

    /// The run options every layer (and the oracle) executes under.
    pub fn options(&self) -> RunOptions {
        RunOptions {
            max_accesses: 16,
            budget: SearchBudget::shallow(),
            batch_size: 3,
            workers: 2,
            ..RunOptions::default()
        }
    }
}

/// Generates a churn script that only ever degrades the primary (so the
/// standby replica is always healthy and failover can hide every failure):
/// kills and revives alternate on the primary, flaky/latency swaps target
/// the primary, and the replica only ever receives harmless latency swaps.
fn generate_script(rng: &mut StdRng) -> ChurnScript {
    let mut builder = ChurnScript::builder();
    let mut at = 0u64;
    let mut primary_alive = true;
    for _ in 0..rng.gen_range(0..6) {
        at += rng.gen_range(5u64..80);
        if primary_alive {
            match rng.gen_range(0..4) {
                0 => {
                    builder = builder.kill(at, PRIMARY);
                    primary_alive = false;
                }
                1 => {
                    let flaky = (rng.gen::<f64>() < 0.7).then(|| FlakyModel {
                        period: rng.gen_range(1..4),
                        fail_attempts: rng.gen_range(1..5),
                        retries: rng.gen_range(0..3),
                    });
                    builder = builder.set_flaky(at, PRIMARY, flaky);
                }
                2 => {
                    let latency = (rng.gen::<f64>() < 0.7)
                        .then(|| LatencyModel::recorded(rng.gen_range(10u64..200)));
                    builder = builder.set_latency(at, PRIMARY, latency);
                }
                _ => {
                    builder = builder.set_latency(
                        at,
                        REPLICA,
                        Some(LatencyModel::recorded(rng.gen_range(10u64..200))),
                    );
                }
            }
        } else if rng.gen::<f64>() < 0.6 {
            builder = builder.revive(at, PRIMARY);
            primary_alive = true;
        } else {
            builder = builder.set_latency(at, REPLICA, None);
        }
    }
    builder.build()
}

/// Where a concurrent layer diverged from the sequential oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The diverging execution layer (`"threaded"`, `"async"`, `"serving"`).
    pub executor: &'static str,
    /// The first report field that differed.
    pub field: &'static str,
}

/// Outcome of running one case through every layer.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The first divergence found, if any.
    pub divergence: Option<Divergence>,
    /// Source traffic, chaos counters included, of the async layer, which
    /// the serving layer must equal (a difference is a divergence). Their
    /// scripts fire on the executor's virtual clock, so these totals are a
    /// function of the case.
    pub virtual_traffic: BackendStats,
    /// Source traffic of the threaded layer. Its chaos clock advances per
    /// wire call, and its two workers race to make those calls, so which
    /// call meets a scripted event, and with it the churn, failover and
    /// breaker counts, can differ between two runs of the same case. The
    /// answers cannot: failover hides every event.
    pub threaded_traffic: BackendStats,
    /// The sequential oracle's report (the ground truth the layers were
    /// compared against).
    pub oracle: RunReport,
}

/// Compares a concurrent layer's report against the oracle, field by field,
/// in the order the sequential-equivalence invariant lists them.
fn first_differing_field(report: &RunReport, oracle: &RunReport) -> Option<&'static str> {
    if report.access_sequence != oracle.access_sequence {
        return Some("access_sequence");
    }
    if report.relevance_verdicts != oracle.relevance_verdicts {
        return Some("relevance_verdicts");
    }
    if report.certain != oracle.certain {
        return Some("certain");
    }
    if report.answers != oracle.answers {
        return Some("answers");
    }
    if !report
        .final_configuration
        .same_facts(&oracle.final_configuration)
    {
        return Some("final_configuration");
    }
    None
}

/// Checks a report's certainty and answers against a full evaluation of
/// `query` on its final configuration. Every executor and invalidation mode
/// reads certainty from the same per-run status, so comparing reports with
/// each other cannot catch a wrong one.
fn status_mismatch(report: &RunReport, query: &Query) -> Option<&'static str> {
    let conf = &report.final_configuration;
    if report.certain != certain::is_certain(query, conf) {
        return Some("certain_vs_full_evaluation");
    }
    if report.answers != certain::certain_answers(query, conf) {
        return Some("answers_vs_full_evaluation");
    }
    None
}

/// Checks the access frontier against full enumeration along the oracle's
/// run: regrows `initial` access by access with `source`'s responses and,
/// after every step, refreshes one frontier of its own. Its emissions so
/// far must hold no access twice and equal [`well_formed_accesses`] at the
/// regrown configuration. Every executor draws its candidates from the same
/// frontier, so comparing their reports with each other cannot catch a
/// frontier bug.
fn frontier_mismatch(
    source: &DeepWebSource,
    oracle: &RunReport,
    query: &Query,
    initial: &Configuration,
) -> Option<&'static str> {
    let methods = source.methods();
    let mut pool: Vec<Value> = query.constants().into_iter().collect();
    pool.extend(initial.all_values());
    let options = EnumerationOptions {
        guessable_values: pool,
        max_accesses: usize::MAX,
    };
    let mut frontier = AccessFrontier::new(methods, options.clone());
    let mut conf = initial.snapshot();
    let mut emitted: BTreeSet<Access> = BTreeSet::new();
    let steps = std::iter::once(None).chain(oracle.access_sequence.iter().map(Some));
    for access in steps {
        if let Some(access) = access {
            let response = source
                .call(access)
                .expect("an access the oracle made replays against its source");
            let _ = apply_access_in_place(&mut conf, access, &response, methods);
        }
        for access in frontier.refresh(&conf, methods) {
            if !emitted.insert(access) {
                return Some("frontier_vs_full_enumeration");
            }
        }
        if emitted
            != well_formed_accesses(&conf, methods, &options)
                .into_iter()
                .collect()
        {
            return Some("frontier_vs_full_enumeration");
        }
    }
    None
}

/// Runs `case` through the sequential oracle and the three concurrent
/// layers (threaded, async, serving), each over a primary+replica pair
/// under the case's churn script, and reports the first divergence. The
/// oracle itself is first checked against a full evaluation of the query
/// on its final configuration, and the access frontier against full
/// enumeration along the oracle's run (both reported as executor
/// `"sequential"`). Last, the serving layer must report the async layer's
/// `source_stats` and virtual makespan (reported as executor `"serving"`,
/// field `"source_stats"` or `"virtual_makespan"`).
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    let (workload, instance, initial, query) = case.materialize();
    let methods = workload.methods.clone();
    let names: Vec<&str> = methods.iter().map(|(_, m)| m.name()).collect();
    let request = RunRequest::new(query)
        .with_strategy(case.strategy)
        .with_options(case.options());

    let oracle_source = DeepWebSource::new(instance.clone(), methods.clone(), case.policy.clone());
    let oracle = Sequential::new(&oracle_source).execute(&request, &initial);
    let mut divergence = status_mismatch(&oracle, &request.query)
        .or_else(|| frontier_mismatch(&oracle_source, &oracle, &request.query, &initial))
        .map(|field| Divergence {
            executor: "sequential",
            field,
        });

    // Both providers carry a (virtual) latency model from the start: the
    // async federations' chaos clocks only advance as awaited latencies
    // elapse, so latency-free sources would never reach any script deadline.
    let primary = || {
        SimulatedSource::exact(PRIMARY, instance.clone(), methods.clone())
            .with_policy(case.policy.clone())
            .with_latency(LatencyModel::recorded(15))
    };
    let replica = || {
        SimulatedSource::exact(REPLICA, instance.clone(), methods.clone())
            .with_policy(case.replica_policy())
            .with_latency(LatencyModel::recorded(25))
    };
    // The async and serving layers fire the chaos script on the
    // federation's executor clock.
    let chaotic_async = || {
        AsyncFederation::builder(methods.clone())
            .simulated(primary(), &names)
            .expect("primary registers")
            .simulated_replica(replica(), &names)
            .expect("replica registers")
            .with_chaos(ChaosOptions::scripted(case.script.clone(), 0))
            .build()
            .expect("federation builds")
    };

    // Threaded: the sync federation paces the chaos clock per wire call.
    let threaded_federation = Federation::builder(methods.clone())
        .source(primary(), &names)
        .expect("primary registers")
        .replica(replica(), &names)
        .expect("replica registers")
        .with_chaos(ChaosOptions::scripted(
            case.script.clone(),
            SYNC_PACE_MICROS,
        ))
        .build()
        .expect("federation builds");
    let async_federation = chaotic_async();
    // Serving: one session on the multi-tenant registry, same chaos.
    let serving_federation = chaotic_async();
    let threaded = Threaded::new(&threaded_federation).execute(&request, &initial);
    // A virtual-clock run's report and the virtual time it took.
    let virtual_run = |executor: &dyn Executor, federation: &AsyncFederation| {
        let before = federation.clock().now_micros();
        let report = executor.execute(&request, &initial);
        (report, federation.clock().now_micros() - before)
    };
    let (asynced, async_makespan) = virtual_run(&Async::new(&async_federation), &async_federation);
    let (served, serving_makespan) =
        virtual_run(&Serving::new(&serving_federation), &serving_federation);
    for (executor, report) in [
        ("threaded", &threaded),
        ("async", &asynced),
        ("serving", &served),
    ] {
        divergence = divergence.or_else(|| {
            first_differing_field(report, &oracle).map(|field| Divergence { executor, field })
        });
    }
    // The serving executor is a one-session serve capped at the async
    // run's in-flight limit, on an identically built federation: it must
    // make the same calls, meet the same churn and take as long.
    let traffic_field = if served.source_stats != asynced.source_stats {
        Some("source_stats")
    } else if serving_makespan != async_makespan {
        Some("virtual_makespan")
    } else {
        None
    };
    divergence = divergence.or_else(|| {
        traffic_field.map(|field| Divergence {
            executor: "serving",
            field,
        })
    });

    CaseOutcome {
        divergence,
        virtual_traffic: asynced.source_stats,
        threaded_traffic: threaded.source_stats,
        oracle,
    }
}

/// Where an exact-invalidation run broke faith with its relation-level
/// baseline (see [`run_invalidation_case`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidationDivergence {
    /// Which invariant failed.
    pub field: &'static str,
}

/// Outcome of the invalidation differential on one case.
#[derive(Debug)]
pub struct InvalidationOutcome {
    /// The first broken invariant, if any.
    pub divergence: Option<InvalidationDivergence>,
    /// Decision procedures run under precise (per-domain) invalidation.
    pub precise_misses: usize,
    /// Decision procedures run under exact (coarse-adom) invalidation.
    pub exact_misses: usize,
    /// Decision procedures run under relation-level invalidation.
    pub relation_misses: usize,
    /// Verdicts evicted under precise invalidation.
    pub precise_evictions: usize,
    /// Verdicts evicted under exact invalidation.
    pub exact_evictions: usize,
    /// Verdicts evicted under relation-level invalidation.
    pub relation_evictions: usize,
}

/// Whether `needle` is an (ordered, not necessarily contiguous) subsequence
/// of `hay`.
fn is_subsequence(needle: &[VerdictRecord], hay: &[VerdictRecord]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// The second fuzzer mode: diffs the three invalidation modes — **precise**
/// (per-domain adom reads), **exact** (coarse `Read::Adom`) and the
/// **relation-level baseline** — on the case's random schema × query ×
/// policy workload. Each refinement only ever *keeps* verdicts the coarser
/// scheme would have evicted — and every kept verdict is sound (its
/// decision procedure read nothing the growth touched) — so the three runs
/// must agree on everything observable:
///
/// * each run's certainty and answers equal a full evaluation on its final
///   configuration;
/// * access sequence, certainty, answers and final configuration identical
///   to a fourth, **uncached** run, which calls the pre-checking decision
///   procedures for every verdict and so shares no verdict, read set or
///   eviction with the three cached runs;
/// * each run's verdict log is a *subsequence* of the next-coarser run's
///   (the re-checks it skips are the only difference): precise ⊆ exact ⊆
///   relation-level;
/// * misses and evictions are ordered precise ≤ exact ≤ relation-level;
/// * the threaded executor under the case's churn script, running precise
///   invalidation (the default), still matches the sequential precise run
///   byte-for-byte.
pub fn run_invalidation_case(case: &FuzzCase) -> InvalidationOutcome {
    let (workload, instance, initial, query) = case.materialize();
    let methods = workload.methods.clone();
    let names: Vec<&str> = methods.iter().map(|(_, m)| m.name()).collect();
    let request = |invalidation, use_relevance_cache| {
        RunRequest::new(query.clone())
            .with_strategy(case.strategy)
            .with_options(RunOptions {
                invalidation,
                use_relevance_cache,
                ..case.options()
            })
    };

    let source = DeepWebSource::new(instance.clone(), methods.clone(), case.policy.clone());
    let sequential = Sequential::new(&source);
    let run = |invalidation, cached| sequential.execute(&request(invalidation, cached), &initial);
    let precise = run(InvalidationMode::Precise, true);
    let exact = run(InvalidationMode::Exact, true);
    let relation = run(InvalidationMode::RelationLevel, true);
    let uncached = run(InvalidationMode::Precise, false);

    let mut divergence = None;
    let mut diverge = |field: &'static str, broken: bool| {
        if broken && divergence.is_none() {
            divergence = Some(InvalidationDivergence { field });
        }
    };
    for report in [&precise, &exact, &relation, &uncached] {
        if let Some(field) = status_mismatch(report, &query) {
            diverge(field, true);
        }
    }
    for cached in [&precise, &exact, &relation] {
        diverge(
            "access_sequence",
            cached.access_sequence != uncached.access_sequence,
        );
        diverge("certain", cached.certain != uncached.certain);
        diverge("answers", cached.answers != uncached.answers);
        diverge(
            "final_configuration",
            !cached
                .final_configuration
                .same_facts(&uncached.final_configuration),
        );
    }
    diverge(
        "verdict_log_subsequence",
        !is_subsequence(&precise.relevance_verdicts, &exact.relevance_verdicts)
            || !is_subsequence(&exact.relevance_verdicts, &relation.relevance_verdicts),
    );
    diverge(
        "misses_exceed_baseline",
        precise.relevance_cache_misses > exact.relevance_cache_misses
            || exact.relevance_cache_misses > relation.relevance_cache_misses,
    );
    diverge(
        "evictions_exceed_baseline",
        precise.evictions > exact.evictions || exact.evictions > relation.evictions,
    );

    // Executor invariance under the new default: the threaded executor,
    // churned by the case's script, must still match the sequential
    // precise run field-for-field.
    let federation = Federation::builder(methods.clone())
        .source(
            SimulatedSource::exact(PRIMARY, instance.clone(), methods.clone())
                .with_policy(case.policy.clone())
                .with_latency(LatencyModel::recorded(15)),
            &names,
        )
        .expect("primary registers")
        .replica(
            SimulatedSource::exact(REPLICA, instance, methods.clone())
                .with_policy(case.policy.clone())
                .with_latency(LatencyModel::recorded(25)),
            &names,
        )
        .expect("replica registers")
        .with_chaos(ChaosOptions::scripted(
            case.script.clone(),
            SYNC_PACE_MICROS,
        ))
        .build()
        .expect("federation builds");
    let threaded =
        Threaded::new(&federation).execute(&request(InvalidationMode::Precise, true), &initial);
    if divergence.is_none() {
        divergence = first_differing_field(&threaded, &precise)
            .map(|field| InvalidationDivergence { field });
    }

    InvalidationOutcome {
        divergence,
        precise_misses: precise.relevance_cache_misses,
        exact_misses: exact.relevance_cache_misses,
        relation_misses: relation.relevance_cache_misses,
        precise_evictions: precise.evictions,
        exact_evictions: exact.evictions,
        relation_evictions: relation.evictions,
    }
}

/// Aggregate outcome of an invalidation-differential sweep.
#[derive(Debug, Default)]
pub struct InvalidationSummary {
    /// Seeds run.
    pub cases: usize,
    /// `(seed, broken invariant)` per diverging case.
    pub failures: Vec<(u64, &'static str)>,
    /// Decision procedures run across all cases, precise mode.
    pub precise_misses: usize,
    /// Decision procedures run across all cases, exact mode.
    pub exact_misses: usize,
    /// Decision procedures run across all cases, relation-level mode.
    pub relation_misses: usize,
}

/// Runs `count` seeded invalidation differentials starting at `base_seed`.
pub fn fuzz_invalidation(base_seed: u64, count: usize) -> InvalidationSummary {
    let mut summary = InvalidationSummary::default();
    for i in 0..count {
        let seed = base_seed.wrapping_add(i as u64);
        let case = FuzzCase::from_seed(seed);
        let outcome = run_invalidation_case(&case);
        summary.cases += 1;
        summary.precise_misses += outcome.precise_misses;
        summary.exact_misses += outcome.exact_misses;
        summary.relation_misses += outcome.relation_misses;
        if let Some(divergence) = outcome.divergence {
            summary.failures.push((seed, divergence.field));
        }
    }
    summary
}

/// Greedily shrinks a diverging case to a minimal one that still diverges:
/// first drop churn events one at a time, then halve the data knobs
/// (constants, facts, atoms). Returns the case unchanged if it does not
/// diverge to begin with.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    let mut current = case.clone();
    if run_case(&current).divergence.is_none() {
        return current;
    }
    loop {
        let mut improved = false;
        for i in 0..current.script.len() {
            let candidate = FuzzCase {
                script: current.script.without_event(i),
                ..current.clone()
            };
            if run_case(&candidate).divergence.is_some() {
                current = candidate;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for mutate in [
            |c: &FuzzCase| FuzzCase {
                constants: (c.constants / 2).max(2),
                ..c.clone()
            },
            |c: &FuzzCase| FuzzCase {
                facts: (c.facts / 2).max(1),
                ..c.clone()
            },
            |c: &FuzzCase| FuzzCase {
                atoms: (c.atoms / 2).max(1),
                ..c.clone()
            },
        ] {
            let candidate = mutate(&current);
            if candidate != current && run_case(&candidate).divergence.is_some() {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// A confirmed, shrunk divergence.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The original seed that produced the divergence.
    pub seed: u64,
    /// The shrunk minimal case (print it — it reproduces the bug).
    pub minimal: FuzzCase,
    /// Where the minimal case diverges.
    pub divergence: Divergence,
}

/// Aggregate outcome of a fuzz sweep.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Seeds run.
    pub cases: usize,
    /// The async layer's traffic, which the serving layer's equals, summed
    /// over every case (see [`CaseOutcome::virtual_traffic`]): reproducible
    /// for a seed window.
    pub virtual_traffic: BackendStats,
    /// The threaded layer's traffic summed over every case (see
    /// [`CaseOutcome::threaded_traffic`]): its chaos counts may vary
    /// between runs.
    pub threaded_traffic: BackendStats,
    /// Shrunk divergences (empty on a green sweep).
    pub failures: Vec<FuzzFailure>,
}

/// Runs `count` seeded cases starting at `base_seed`, shrinking any
/// divergence to a minimal reproducible case.
pub fn fuzz(base_seed: u64, count: usize) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for i in 0..count {
        let seed = base_seed.wrapping_add(i as u64);
        let case = FuzzCase::from_seed(seed);
        let outcome = run_case(&case);
        summary.cases += 1;
        summary.virtual_traffic = summary.virtual_traffic.merged(&outcome.virtual_traffic);
        summary.threaded_traffic = summary.threaded_traffic.merged(&outcome.threaded_traffic);
        if let Some(divergence) = outcome.divergence {
            let minimal = shrink(&case);
            summary.failures.push(FuzzFailure {
                seed,
                minimal,
                divergence,
            });
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_byte_identical_case_and_verdicts() {
        for seed in [0u64, 1, 7, 42] {
            let a = FuzzCase::from_seed(seed);
            let b = FuzzCase::from_seed(seed);
            assert_eq!(a, b, "seed {seed} must regenerate the same case");
            assert_eq!(a.script, b.script);
            let ra = run_case(&a);
            let rb = run_case(&b);
            assert_eq!(ra.divergence, rb.divergence);
            assert_eq!(
                ra.virtual_traffic, rb.virtual_traffic,
                "seed {seed} must reproduce the virtual-clock layers' traffic"
            );
            assert_eq!(
                ra.oracle.relevance_verdicts, rb.oracle.relevance_verdicts,
                "seed {seed} must reproduce the verdict log"
            );
            assert_eq!(ra.oracle.access_sequence, rb.oracle.access_sequence);
        }
    }

    #[test]
    fn sound_cases_never_diverge() {
        let summary = fuzz(1000, 10);
        assert_eq!(summary.cases, 10);
        assert!(
            summary.failures.is_empty(),
            "sound scenarios diverged: {:?}",
            summary.failures
        );
    }

    #[test]
    fn exact_invalidation_agrees_with_relation_level_baseline() {
        let summary = fuzz_invalidation(2000, 8);
        assert_eq!(summary.cases, 8);
        assert!(
            summary.failures.is_empty(),
            "exact invalidation diverged from the relation-level baseline: {:?}",
            summary.failures
        );
        // Across the sweep the exact mode must never run more procedures
        // than the baseline (per-case this is already an invariant; the
        // aggregate is the useful telemetry line).
        assert!(summary.exact_misses <= summary.relation_misses);
    }

    /// The cases below seed 200 whose methods are all independent and
    /// whose strategy runs long-term relevance: those where the executors
    /// and the invalidation tiers diff the ΣP2 procedure's verdicts and
    /// read sets (the blocking corpus, seeds 0..25, holds only seed 16).
    /// Each must agree. The seed list is pinned, so a generator change that
    /// moves it is noticed.
    #[test]
    fn independent_ltr_cases_agree_across_executors_and_invalidation_tiers() {
        use accrel_access::AccessMode;
        let seeds: Vec<u64> = (0..200)
            .filter(|&seed| {
                let case = FuzzCase::from_seed(seed);
                let (workload, ..) = case.materialize();
                let mut methods = workload.methods.iter();
                matches!(case.strategy, Strategy::LtrGuided | Strategy::Hybrid)
                    && methods.all(|(_, m)| m.mode() == AccessMode::Independent)
            })
            .collect();
        assert_eq!(
            seeds,
            [16, 49, 55, 57, 83, 87, 93, 96, 97, 100, 102, 108, 132, 139, 164, 194]
        );
        for seed in seeds {
            let case = FuzzCase::from_seed(seed);
            assert_eq!(run_case(&case).divergence, None, "seed {seed}");
            let outcome = run_invalidation_case(&case);
            assert_eq!(outcome.divergence, None, "seed {seed}");
        }
    }

    #[test]
    fn generated_scripts_only_degrade_the_primary() {
        use accrel_federation::ChurnAction;
        for seed in 0..50u64 {
            let case = FuzzCase::from_seed(seed);
            for event in case.script.events() {
                match &event.action {
                    ChurnAction::Kill(name) | ChurnAction::Revive(name) => {
                        assert_eq!(name, PRIMARY, "only the primary may die (seed {seed})");
                    }
                    ChurnAction::SetFlaky(name, _) => {
                        assert_eq!(name, PRIMARY, "only the primary may flake (seed {seed})");
                    }
                    ChurnAction::SetLatency(_, _) => {}
                }
            }
        }
    }
}
