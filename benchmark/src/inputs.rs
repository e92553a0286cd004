//! Seeded input generation for the three workloads.
//!
//! Every generator is a pure function of the seed. Per-input parameters that
//! drive the amount of work (where the completing probe sits, feed length,
//! access caps) are *stratified*: `n` inputs take one value from each of `n`
//! equal-width strata, at a seeded offset inside it. Inputs differ from seed
//! to seed while the pool's total work barely moves, which is what keeps the
//! end-to-end figures steady across seeds.

use accrel_access::{AccessMethods, AccessMode};
use accrel_core::SearchBudget;
use accrel_engine::{
    DeepWebSource, ResponsePolicy, RunOptions, RunRequest, SpeculationMode, Strategy,
};
use accrel_federation::{
    AsyncFederation, AsyncSimulatedSource, AsyncSource, LatencyModel, SimulatedSource,
};
use accrel_query::{ConjunctiveQuery, Query, Term};
use accrel_schema::{Configuration, Instance, Schema, Tuple, Value};
use accrel_workloads::random::{generate_instance, generate_workload, Workload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One sequential input: the hidden source, the request and the starting
/// configuration.
pub struct SeqInput {
    pub source: DeepWebSource,
    pub request: RunRequest,
    pub initial: Configuration,
}

/// `n` values in `lo..hi`, one per equal-width stratum at a seeded offset,
/// in seeded order.
pub fn stratified(rng: &mut StdRng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo) as f64 / n as f64;
    let mut values: Vec<usize> = (0..n)
        .map(|i| lo + ((i as f64 + rng.gen::<f64>()) * width) as usize)
        .map(|v| v.min(hi - 1))
        .collect();
    values.shuffle(rng);
    values
}

/// The E5 chain `R_r(x,y) ∧ R_{r+1}(y,z) ∧ R_{r+2}(z,w)` over `schema`,
/// with relation indices taken modulo `relations`.
fn chain_query(schema: &std::sync::Arc<Schema>, rotation: usize, relations: usize) -> Query {
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let vars = [qb.var("x"), qb.var("y"), qb.var("z"), qb.var("w")];
    for hop in 0..3 {
        let relation = format!("R{}", (rotation + hop) % relations);
        qb.atom(
            &relation,
            vec![Term::Var(vars[hop]), Term::Var(vars[hop + 1])],
        )
        .expect("chain relations exist and are binary");
    }
    qb.build().into()
}

// ---------------------------------------------------------------------------
// dense-probe
// ---------------------------------------------------------------------------

/// Facts in every dense-probe configuration.
pub const DENSE_FACTS: usize = 10_000;
/// Probe keys that reach `R0` (every probe on them is immediately relevant).
pub const LIVE_KEYS: usize = 16;
/// Probe keys that appear only in `R1` and sort before the live ones: the
/// immediate-relevance scan checks them first and finds them irrelevant.
const DEAD_KEYS: usize = 1;
const R0_FACTS: usize = 1_000;
const R1_FACTS: usize = 200;
/// Width of the `D` value pool the bulk of the configuration draws from.
const D_POOL: usize = 3_000;
/// Every `GROWTH_PERIOD`-th probe (at a seeded phase) returns
/// `GROWTH_TUPLES` fresh, non-completing facts.
const GROWTH_PERIOD: usize = 3;
const GROWTH_TUPLES: usize = 2;

/// `dense-probe` inputs: `R0(x,y) ∧ R1(y,z) ∧ R2(z,w)` over a
/// [`DENSE_FACTS`]-fact configuration, reachable only through one dependent
/// method on `R1` keyed by a small domain, so each round sees at most
/// `LIVE_KEYS + DEAD_KEYS` candidates. With `inputs == LIVE_KEYS` every
/// completing-probe position occurs exactly once.
pub fn dense_probe(seed: u64, inputs: usize) -> Vec<SeqInput> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD3E5_0001);
    let win_positions = stratified(&mut rng, inputs, 0, LIVE_KEYS);
    win_positions
        .into_iter()
        .map(|win| dense_probe_input(&mut rng, win))
        .collect()
}

fn dense_probe_input(rng: &mut StdRng, win: usize) -> SeqInput {
    let mut b = Schema::builder();
    let d = b.domain("D").expect("fresh domain");
    let k = b.domain("K").expect("fresh domain");
    b.relation("R0", &[("a", d), ("b", k)])
        .expect("fresh relation");
    b.relation("R1", &[("a", k), ("b", d)])
        .expect("fresh relation");
    b.relation("R2", &[("a", d), ("b", d)])
        .expect("fresh relation");
    let schema = b.build();
    let mut mb = AccessMethods::builder(schema.clone());
    mb.add("probe", "R1", &["a"], AccessMode::Dependent)
        .expect("fresh method");
    let methods = mb.build();

    let live = |i: usize| Value::sym(format!("k{i:02}"));
    let dead = |i: usize| Value::sym(format!("j{i}"));
    let pooled = |rng: &mut StdRng| Value::sym(format!("d{:05}", rng.gen_range(0..D_POOL)));
    let rel = |name: &str| schema.relation_by_name(name).expect("relation exists");
    let (r0, r1, r2) = (rel("R0"), rel("R1"), rel("R2"));

    // R0 covers every live key; R1's seed facts point at `m` values no R2
    // fact starts with, so the query is not certain at the start.
    let mut initial = Configuration::empty(schema.clone());
    while initial.len() < R0_FACTS {
        let key = if initial.len() < LIVE_KEYS {
            live(initial.len())
        } else {
            live(rng.gen_range(0..LIVE_KEYS))
        };
        let x = pooled(rng);
        initial
            .insert(r0, Tuple::new(vec![x, key]))
            .expect("typed fact");
    }
    while initial.len() < R0_FACTS + R1_FACTS {
        let key = match rng.gen_range(0..LIVE_KEYS + DEAD_KEYS) {
            i if i < LIVE_KEYS => live(i),
            i => dead(i - LIVE_KEYS),
        };
        let z = Value::sym(format!("m{:04}", rng.gen_range(0..D_POOL)));
        initial
            .insert(r1, Tuple::new(vec![key, z]))
            .expect("typed fact");
    }
    let mut r2_heads = Vec::new();
    while initial.len() < DENSE_FACTS {
        let (z, w) = (pooled(rng), pooled(rng));
        if initial
            .insert(r2, Tuple::new(vec![z.clone(), w]))
            .expect("typed fact")
        {
            r2_heads.push(z);
        }
    }

    // The hidden R1: the probe at position `win` completes the query; every
    // GROWTH_PERIOD-th other probe returns fresh, non-joining facts.
    let mut hidden = Instance::new(schema.clone());
    let phase = rng.gen_range(0..GROWTH_PERIOD);
    for i in 0..LIVE_KEYS {
        if i == win {
            let z = r2_heads[rng.gen_range(0..r2_heads.len())].clone();
            hidden
                .insert(r1, Tuple::new(vec![live(i), z]))
                .expect("typed fact");
        } else if (i + phase) % GROWTH_PERIOD == 0 {
            for _ in 0..GROWTH_TUPLES {
                let z = Value::sym(format!("n{:05}", rng.gen_range(0..D_POOL)));
                hidden
                    .insert(r1, Tuple::new(vec![live(i), z]))
                    .expect("typed fact");
            }
        }
    }
    let query = chain_query(&schema, 0, 3);
    SeqInput {
        source: DeepWebSource::new(hidden, methods, ResponsePolicy::Exact),
        request: RunRequest::new(query).with_strategy(Strategy::Hybrid),
        initial,
    }
}

// ---------------------------------------------------------------------------
// flood-chain
// ---------------------------------------------------------------------------

/// `flood-chain` inputs: the adom-flooding chain with seeded feed length
/// and link count, run like `harness --check-invalidation` runs it. With
/// seven inputs every link count in `8..15` occurs once.
pub fn flood_chain(seed: u64, inputs: usize) -> Vec<SeqInput> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF100_D002);
    let feeds = stratified(&mut rng, inputs, 40, 72);
    let links = stratified(&mut rng, inputs, 8, 15);
    feeds
        .into_iter()
        .zip(links)
        .map(|(feed, links)| {
            let fixture = accrel_bench::fixtures::adom_flooding_chain(feed as i64, links);
            let options = RunOptions {
                max_accesses: 60,
                stop_when_certain: false,
                budget: SearchBudget::shallow().with_max_valuations(600),
                ..RunOptions::default()
            };
            SeqInput {
                source: DeepWebSource::new(
                    fixture.instance,
                    fixture.methods,
                    ResponsePolicy::Exact,
                ),
                request: RunRequest::new(fixture.query)
                    .with_strategy(Strategy::Hybrid)
                    .with_options(options),
                initial: fixture.initial,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// serve-exhaustive
// ---------------------------------------------------------------------------

/// Hidden facts behind the serving federation.
pub const SERVE_FACTS: usize = 100_000;
/// Concurrent sessions per `serve` call.
pub const SESSIONS: usize = 16;
const RELATIONS: usize = 4;
const CAP_LO: usize = 32;
const CAP_HI: usize = 128;

/// The E5 world the serving workload runs against.
pub struct ServeWorld {
    pub methods: AccessMethods,
    pub instance: Instance,
    pub initial: Configuration,
    /// The chain query at every rotation of the four relations.
    pub queries: Vec<Query>,
}

/// One `serve` call's worth of session requests. `keys[i]` names session
/// `i`'s request as `(rotation, cap)`: equal keys mean equal requests.
pub struct Batch {
    pub requests: Vec<RunRequest>,
    pub keys: Vec<(usize, usize)>,
}

/// The E5 world at [`SERVE_FACTS`] hidden facts: E5's schema, methods,
/// hidden instance and seed configuration (the first 32 hidden facts), as
/// the F1–F3 harness tables build it. It does not depend on the seed; the
/// sessions served over it do.
pub fn serve_world() -> ServeWorld {
    let spec = WorkloadSpec {
        relations: RELATIONS,
        arity: 2,
        domains: 2,
        constants: SERVE_FACTS / 8,
        dependent_fraction: 1.0,
    };
    let workload: Workload = generate_workload(&spec, &mut StdRng::seed_from_u64(23));
    let instance = generate_instance(&workload, SERVE_FACTS, &mut StdRng::seed_from_u64(99));
    let initial = Configuration::from_facts(workload.schema.clone(), instance.facts().take(32))
        .expect("sampled facts are well-typed");
    let queries = (0..RELATIONS)
        .map(|r| chain_query(&workload.schema, r, RELATIONS))
        .collect();
    ServeWorld {
        methods: workload.methods,
        instance,
        initial,
        queries,
    }
}

/// `batches` batches of [`SESSIONS`] Exhaustive requests: each session
/// draws a chain rotation and an access cap (stratified per batch).
pub fn serve_batches(seed: u64, world: &ServeWorld, batches: usize) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_0004);
    (0..batches)
        .map(|_| {
            let caps = stratified(&mut rng, SESSIONS, CAP_LO, CAP_HI);
            let keys: Vec<(usize, usize)> = caps
                .into_iter()
                .map(|cap| (rng.gen_range(0..RELATIONS), cap))
                .collect();
            let requests = keys
                .iter()
                .map(|&(rotation, cap)| serve_request(world, rotation, cap))
                .collect();
            Batch { requests, keys }
        })
        .collect()
}

fn serve_request(world: &ServeWorld, rotation: usize, cap: usize) -> RunRequest {
    RunRequest::new(world.queries[rotation].clone())
        .with_strategy(Strategy::Exhaustive)
        .with_options(RunOptions {
            max_accesses: cap,
            stop_when_certain: false,
            batch_size: 16,
            workers: 8,
            speculation: SpeculationMode::CachedOnly,
            ..RunOptions::default()
        })
}

/// The sequential oracle over the world's hidden instance.
pub fn world_source(world: &ServeWorld) -> DeepWebSource {
    DeepWebSource::new(
        world.instance.clone(),
        world.methods.clone(),
        ResponsePolicy::Exact,
    )
}

/// The E5 two-provider async federation over the world: provider A fast,
/// provider B slower and paged. `wrap` decides how each provider is
/// registered (plain, or behind a timing wrapper).
pub fn serve_federation<W, S>(world: &ServeWorld, mut wrap: W) -> AsyncFederation
where
    W: FnMut(AsyncSimulatedSource) -> S,
    S: AsyncSource + 'static,
{
    let latency = |base: u64, seed: u64| LatencyModel {
        base_micros: base,
        jitter_micros: 50,
        seed,
        sleep: false,
    };
    let provider_a =
        SimulatedSource::exact("provider-a", world.instance.clone(), world.methods.clone())
            .with_latency(latency(100, 7));
    let provider_b =
        SimulatedSource::exact("provider-b", world.instance.clone(), world.methods.clone())
            .with_latency(latency(200, 11))
            .with_paging(64);
    let builder = AsyncFederation::builder(world.methods.clone());
    let clock = builder.clock().clone();
    builder
        .source(
            wrap(AsyncSimulatedSource::new(provider_a, clock.clone())),
            &["acc0", "acc1"],
        )
        .expect("provider-a methods exist")
        .source(
            wrap(AsyncSimulatedSource::new(provider_b, clock)),
            &["acc2", "acc3"],
        )
        .expect("provider-b methods exist")
        .build()
        .expect("every method routed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a sequential input hands the program, rendered.
    fn render(inputs: &[SeqInput]) -> String {
        inputs
            .iter()
            .map(|input| {
                let mut hidden: Vec<_> = input.source.hidden_instance().facts().collect();
                hidden.sort();
                format!(
                    "{} {:?} {:?} {:?} {:?}",
                    input.request.query,
                    input.request.strategy,
                    input.request.options,
                    input.initial.sorted_facts(),
                    hidden
                )
            })
            .collect()
    }

    #[test]
    fn one_seed_generates_byte_identical_inputs() {
        assert_eq!(render(&dense_probe(7, 3)), render(&dense_probe(7, 3)));
        assert_ne!(render(&dense_probe(7, 3)), render(&dense_probe(8, 3)));
        assert_eq!(render(&flood_chain(7, 3)), render(&flood_chain(7, 3)));
        assert_ne!(render(&flood_chain(7, 3)), render(&flood_chain(8, 3)));
        let world = serve_world();
        let batches = |seed| {
            serve_batches(seed, &world, 2)
                .iter()
                .map(|b| format!("{:?} {:?}", b.keys, b.requests))
                .collect::<String>()
        };
        assert_eq!(batches(7), batches(7));
        assert_ne!(batches(7), batches(8));
    }

    #[test]
    fn stratified_values_cover_each_stratum_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut values = stratified(&mut rng, LIVE_KEYS, 0, LIVE_KEYS);
        values.sort_unstable();
        assert_eq!(values, (0..LIVE_KEYS).collect::<Vec<_>>());
        let caps = stratified(&mut rng, SESSIONS, CAP_LO, CAP_HI);
        assert!(caps.iter().all(|c| (CAP_LO..CAP_HI).contains(c)));
    }

    #[test]
    fn dense_probe_starts_uncertain_within_the_candidate_budget() {
        for input in dense_probe(5, 2) {
            assert_eq!(input.initial.len(), DENSE_FACTS);
            assert!(!accrel_query::certain::is_certain(
                &input.request.query,
                &input.initial
            ));
            let keys = input.initial.store().all_values().len();
            assert!(keys > LIVE_KEYS, "the configuration is data-sized");
        }
    }
}
