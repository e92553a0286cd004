//! Workload fixtures behind the harness tables.

use accrel_access::{binding, Access, AccessMethods, AccessMode};
use accrel_core::SearchBudget;
use accrel_federation::{
    AsyncFederation, ChaosOptions, ChurnScript, Federation, LatencyModel, SimulatedSource,
};
use accrel_query::{certain, ConjunctiveQuery, Query, Term};
use accrel_schema::{Configuration, Instance, Schema, Tuple, Value};
use accrel_workloads::random::{
    generate_configuration, generate_instance, generate_query, generate_workload, Workload,
    WorkloadSpec,
};
use accrel_workloads::scenarios::{chain_scenario, star_scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A relevance-problem instance: everything needed to call the IR / LTR
/// procedures.
#[derive(Debug, Clone)]
pub struct RelevanceFixture {
    /// The query.
    pub query: Query,
    /// The configuration.
    pub configuration: Configuration,
    /// The access under scrutiny.
    pub access: Access,
    /// The access methods.
    pub methods: AccessMethods,
    /// The search budget for dependent procedures.
    pub budget: SearchBudget,
}

/// A containment-problem instance.
#[derive(Debug, Clone)]
pub struct ContainmentFixture {
    /// The (candidate) contained query.
    pub q1: Query,
    /// The containing query.
    pub q2: Query,
    /// The starting configuration.
    pub configuration: Configuration,
    /// The access methods.
    pub methods: AccessMethods,
    /// The search budget.
    pub budget: SearchBudget,
}

fn base_workload(dependent: bool, seed: u64) -> Workload {
    let spec = WorkloadSpec {
        relations: 4,
        arity: 2,
        domains: 2,
        constants: 6,
        dependent_fraction: if dependent { 1.0 } else { 0.0 },
    };
    generate_workload(&spec, &mut StdRng::seed_from_u64(seed))
}

/// E1: an immediate-relevance instance with a query of `atoms` atoms.
///
/// `conjunctive` selects CQ vs PQ; `dependent` selects the access-method
/// mode (the IR procedure itself is mode-agnostic, as in the paper).
///
/// The fixture reaches the procedures' searches. The query and
/// configuration are redrawn from the same stream until the query is not
/// certain, since a certain query settles IR and LTR at their certainty
/// check. The access calls the method on the relation of the query's first
/// atom, bound to a value that atom accepts at the method's input place:
/// its constant there, else the first configuration value of the input's
/// domain. So that atom can be charged to the access, and IR's static cut
/// (no chargeable atom) does not settle the call either.
pub fn ir_fixture(atoms: usize, conjunctive: bool, dependent: bool) -> RelevanceFixture {
    let workload = base_workload(dependent, 11);
    let mut rng = StdRng::seed_from_u64(atoms as u64 * 31 + u64::from(conjunctive));
    let (query, configuration) = loop {
        let query = generate_query(&workload, conjunctive, atoms, 3, &mut rng);
        let configuration = generate_configuration(&workload, 6, &mut rng);
        if !certain::is_certain(&query, &configuration) {
            break (query, configuration);
        }
    };
    let atom = &query.ucq()[0].atoms()[0];
    let (method_id, method) = workload
        .methods
        .iter()
        .find(|(_, m)| m.relation() == atom.relation())
        .expect("every relation has a method");
    let input = method.input_positions()[0];
    let bound_value = match atom.term_at(input) {
        Some(Term::Const(c)) => c.clone(),
        _ => configuration
            .values_of_domain(
                workload
                    .schema
                    .domain_of(method.relation(), input)
                    .expect("method input position is valid"),
            )
            .into_iter()
            .next()
            .unwrap_or_else(|| workload.constants[0].clone()),
    };
    RelevanceFixture {
        query,
        configuration,
        access: Access::new(method_id, binding([bound_value])),
        methods: workload.methods,
        budget: SearchBudget::default(),
    }
}

/// E2: a long-term-relevance instance over independent methods with a query
/// of `atoms` atoms.
pub fn ltr_independent_fixture(atoms: usize, conjunctive: bool) -> RelevanceFixture {
    let mut fixture = ir_fixture(atoms, conjunctive, false);
    fixture.budget = SearchBudget::default();
    fixture
}

/// E3/E5/E7 substrate: a chain scenario of the given depth turned into a
/// dependent LTR instance (is the first hop's access relevant?).
pub fn chain_ltr_fixture(depth: usize) -> RelevanceFixture {
    let scenario = chain_scenario(depth);
    let method = scenario.methods.by_name("HopAcc1").expect("hop 1 exists");
    RelevanceFixture {
        query: scenario.query,
        configuration: scenario.initial_configuration,
        access: Access::new(method, binding(["seed0"])),
        methods: scenario.methods,
        budget: SearchBudget::default(),
    }
}

/// E3: containment along a dependent chain — is "the deepest hop is
/// reachable" contained in "hop `k` is reachable"?
pub fn chain_containment_fixture(depth: usize, contained_hop: usize) -> ContainmentFixture {
    let scenario = chain_scenario(depth);
    let schema = scenario.schema.clone();
    let deepest = hop_query(&schema, depth, depth);
    let shallow = hop_query(&schema, depth, contained_hop.clamp(1, depth));
    ContainmentFixture {
        q1: deepest,
        q2: shallow,
        configuration: scenario.initial_configuration,
        methods: scenario.methods,
        budget: SearchBudget::default(),
    }
}

/// The Boolean query "∃ a tuple in `Hop{k}`" over a chain schema.
pub fn hop_query(schema: &std::sync::Arc<Schema>, _depth: usize, k: usize) -> Query {
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let a = qb.var("a");
    let b = qb.var("b");
    qb.atom(&format!("Hop{k}"), vec![Term::Var(a), Term::Var(b)])
        .expect("hop relation exists");
    qb.build().into()
}

/// E4: a positive-query containment instance over the Example 3.2 style
/// schema, with `width` disjuncts on each side.
pub fn pq_containment_fixture(width: usize) -> ContainmentFixture {
    let width = width.max(1);
    let mut sb = Schema::builder();
    let d = sb.domain("D").unwrap();
    for i in 0..width {
        sb.relation(format!("R{i}"), &[("a", d)]).unwrap();
        sb.relation(format!("S{i}"), &[("a", d)]).unwrap();
    }
    let schema = sb.build();
    let mut mb = AccessMethods::builder(schema.clone());
    for i in 0..width {
        mb.add_boolean(
            format!("RCheck{i}"),
            &format!("R{i}"),
            AccessMode::Dependent,
        )
        .unwrap();
        mb.add_free(format!("SAll{i}"), &format!("S{i}"), AccessMode::Dependent)
            .unwrap();
    }
    let methods = mb.build();
    // Q1 = ⋁_i ∃x R_i(x);  Q2 = ⋁_i ∃x S_i(x).  As in Example 3.2, every
    // R_i value must first come from S_i, so Q1 ⊑ Q2.
    let mut b1 = accrel_query::PositiveQuery::builder(schema.clone());
    let x1 = b1.var("x");
    let f1 = accrel_query::PqFormula::Or(
        (0..width)
            .map(|i| b1.atom(&format!("R{i}"), vec![Term::Var(x1)]).unwrap())
            .collect(),
    );
    let q1 = Query::Pq(b1.build(f1));
    let mut b2 = accrel_query::PositiveQuery::builder(schema.clone());
    let x2 = b2.var("x");
    let f2 = accrel_query::PqFormula::Or(
        (0..width)
            .map(|i| b2.atom(&format!("S{i}"), vec![Term::Var(x2)]).unwrap())
            .collect(),
    );
    let q2 = Query::Pq(b2.build(f2));
    ContainmentFixture {
        q1,
        q2,
        configuration: Configuration::empty(schema),
        methods,
        budget: SearchBudget::default(),
    }
}

/// E5: a fixed three-atom query with a configuration of `facts` facts
/// (data-complexity experiment).
///
/// The constant pool scales with the requested fact count: with the fixed
/// 6-constant pool of the small experiments, 4 binary relations over 2
/// domains saturate at 144 distinct facts, so sweeps into the 10⁴–10⁵ range
/// would silently stop growing. `constants = max(6, facts / 8)` keeps the
/// collision rate negligible at every size while resolving to exactly 6 at
/// the sizes the committed `BENCH_baseline.json` was recorded with (10 and
/// 50), so the CI bench-compare step still diffs like-for-like workloads
/// there.
pub fn data_complexity_fixture(facts: usize, dependent: bool) -> RelevanceFixture {
    let spec = WorkloadSpec {
        relations: 4,
        arity: 2,
        domains: 2,
        constants: (facts / 8).max(6),
        dependent_fraction: if dependent { 1.0 } else { 0.0 },
    };
    let workload = generate_workload(&spec, &mut StdRng::seed_from_u64(23));
    let mut rng = StdRng::seed_from_u64(99);
    // Fixed query: R0(x, y) ∧ R1(y, z) ∧ R2(z, w) — shaped like the bank
    // chain, constant size.
    let mut qb = ConjunctiveQuery::builder(workload.schema.clone());
    let x = qb.var("x");
    let y = qb.var("y");
    let z = qb.var("z");
    let w = qb.var("w");
    qb.atom("R0", vec![Term::Var(x), Term::Var(y)]).unwrap();
    qb.atom("R1", vec![Term::Var(y), Term::Var(z)]).unwrap();
    qb.atom("R2", vec![Term::Var(z), Term::Var(w)]).unwrap();
    let query: Query = qb.build().into();
    let configuration = generate_configuration(&workload, facts, &mut rng);
    let (method_id, method) = workload
        .methods
        .iter()
        .next()
        .expect("workload has methods");
    let bound_value = configuration
        .values_of_domain(
            workload
                .schema
                .domain_of(method.relation(), method.input_positions()[0])
                .expect("valid input position"),
        )
        .into_iter()
        .next()
        .unwrap_or_else(|| workload.constants[0].clone());
    RelevanceFixture {
        query,
        configuration,
        access: Access::new(method_id, binding([bound_value])),
        methods: workload.methods,
        budget: SearchBudget::default(),
    }
}

/// E5: the shape of the `dense-probe` benchmark workload at `facts` facts.
/// The chain `R0(x,y) ∧ R1(y,z) ∧ R2(z,w)` runs over a large `R0` (a tenth
/// of the facts), a small `R1` (a fiftieth, at least two rows) and an `R2`
/// holding the rest, which no `R1` row joins. So the query stays uncertain
/// at every size. The access is `R1`'s dependent method at the dead key
/// `j0`, which occurs in `R1` only: no response to it can complete the
/// query. A join that starts from the first atom walks all of `R0` to
/// learn either fact; one that starts from the most constrained atom never
/// scans `R0`.
pub fn uncertain_chain_fixture(facts: usize) -> RelevanceFixture {
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
    let probe = mb
        .add("probe", "R1", &["a"], AccessMode::Dependent)
        .expect("fresh method");
    let methods = mb.build();
    let rel = |name: &str| schema.relation_by_name(name).expect("relation exists");
    let (r0, r1, r2) = (rel("R0"), rel("R1"), rel("R2"));
    let key = |i: usize| Value::sym(format!("k{}", i % 16));
    let dv = |i: usize| Value::sym(format!("d{i}"));
    let r1_rows = (facts / 50).max(2);
    let r0_rows = (facts / 10).max(1);
    let r2_rows = facts.saturating_sub(r0_rows + r1_rows).max(1);
    let mut rows = Vec::with_capacity(r0_rows + r1_rows + r2_rows);
    rows.extend((0..r0_rows).map(|i| (r0, Tuple::new(vec![dv(i), key(i)]))));
    rows.extend((1..r1_rows).map(|i| (r1, Tuple::new(vec![key(i), Value::sym(format!("m{i}"))]))));
    rows.push((r1, Tuple::new(vec![Value::sym("j0"), Value::sym("m0")])));
    rows.extend((0..r2_rows).map(|i| (r2, Tuple::new(vec![dv(i), dv(i * 7 + 1)]))));
    let mut configuration = Configuration::empty(schema.clone());
    configuration.extend_facts(rows).expect("typed facts");
    let mut qb = ConjunctiveQuery::builder(schema);
    let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| qb.var(n));
    qb.atom("R0", vec![Term::Var(x), Term::Var(y)])
        .expect("R0 exists");
    qb.atom("R1", vec![Term::Var(y), Term::Var(z)])
        .expect("R1 exists");
    qb.atom("R2", vec![Term::Var(z), Term::Var(w)])
        .expect("R2 exists");
    RelevanceFixture {
        query: qb.build().into(),
        configuration,
        access: Access::new(probe, binding(["j0"])),
        methods,
        budget: SearchBudget::default(),
    }
}

/// F1: a federation over the E5-style workload — the hidden instance split
/// behind two simulated providers with distinct latency models, a fixed
/// three-atom chain query, and a small seed configuration.
#[derive(Debug)]
pub struct FederationFixture {
    /// The assembled federation (two latency-modelled sources).
    pub federation: Federation,
    /// The fixed three-atom chain query of E5.
    pub query: Query,
    /// The seed configuration (a sample of the hidden instance).
    pub initial: Configuration,
}

/// The shared E5-style federation world: a dependent 4-relation workload, a
/// bulk-seeded hidden instance, the fixed three-atom chain query and a
/// deterministic seed configuration. Build it **once** per harness scale
/// and derive both the F1 (threaded) and F2 (async) fixtures from it —
/// at 10⁶ facts the hidden-instance generation dominates everything else.
#[derive(Debug)]
pub struct FederationWorld {
    facts: usize,
    workload: Workload,
    instance: accrel_schema::Instance,
    query: Query,
    initial: Configuration,
}

impl FederationWorld {
    /// The hidden-instance size this world was built at.
    pub fn facts(&self) -> usize {
        self.facts
    }

    /// The E5 chain at `rotation`: `R_r(x, y) ∧ R_{r+1}(y, z) ∧ R_{r+2}(z,
    /// w)`, relation indices taken modulo the world's four relations.
    /// Rotation 0 is the world's fixed query.
    pub fn chain_query(&self, rotation: usize) -> Query {
        chain_query(&self.workload.schema, rotation)
    }
}

fn chain_query(schema: &std::sync::Arc<Schema>, rotation: usize) -> Query {
    let mut qb = ConjunctiveQuery::builder(schema.clone());
    let vars = [qb.var("x"), qb.var("y"), qb.var("z"), qb.var("w")];
    for hop in 0..3 {
        let relation = format!("R{}", (rotation + hop) % 4);
        qb.atom(
            &relation,
            vec![Term::Var(vars[hop]), Term::Var(vars[hop + 1])],
        )
        .expect("chain relations exist and are binary");
    }
    qb.build().into()
}

/// Builds the E5 federation world at `facts` hidden facts.
pub fn federation_world(facts: usize) -> FederationWorld {
    let spec = WorkloadSpec {
        relations: 4,
        arity: 2,
        domains: 2,
        constants: (facts / 8).max(6),
        dependent_fraction: 1.0,
    };
    let workload = generate_workload(&spec, &mut StdRng::seed_from_u64(23));
    let mut rng = StdRng::seed_from_u64(99);
    // The hidden instance is bulk-seeded through the generator's batched
    // `extend_facts` path.
    let instance = generate_instance(&workload, facts, &mut rng);
    // Fixed query: R0(x, y) ∧ R1(y, z) ∧ R2(z, w) — the E5 shape.
    let query = chain_query(&workload.schema, 0);
    // Seed configuration: a deterministic sample of the hidden facts, so
    // dependent accesses are unlockable from the start.
    let initial = Configuration::from_facts(
        workload.schema.clone(),
        instance.facts().take(32.min(facts)),
    )
    .expect("sampled facts are well-typed");
    FederationWorld {
        facts,
        workload,
        instance,
        query,
        initial,
    }
}

/// The two E5 providers with distinct latency profiles, splitting the
/// methods: provider A fast, provider B slower and paged.
fn federation_providers(
    world: &FederationWorld,
    latency_micros: u64,
    sleep: bool,
) -> (SimulatedSource, SimulatedSource) {
    let latency_a = LatencyModel {
        base_micros: latency_micros,
        jitter_micros: latency_micros / 2,
        seed: 7,
        sleep,
    };
    let latency_b = LatencyModel {
        base_micros: latency_micros * 2,
        jitter_micros: latency_micros / 2,
        seed: 11,
        sleep,
    };
    let provider_a = SimulatedSource::exact(
        "provider-a",
        world.instance.clone(),
        world.workload.methods.clone(),
    )
    .with_latency(latency_a);
    let provider_b = SimulatedSource::exact(
        "provider-b",
        world.instance.clone(),
        world.workload.methods.clone(),
    )
    .with_latency(latency_b)
    .with_paging(64);
    (provider_a, provider_b)
}

/// Builds the F1 fixture at `facts` hidden facts. `latency_micros` is the
/// per-round-trip base latency of the simulated providers; pass
/// `sleep = true` for throughput measurements (the latencies are actually
/// slept) and `false` for pure-semantics tests.
pub fn federation_fixture(facts: usize, latency_micros: u64, sleep: bool) -> FederationFixture {
    federation_fixture_from(&federation_world(facts), latency_micros, sleep)
}

/// [`federation_fixture`] over an already-built world (so F1 and F2 share
/// one hidden-instance build per harness scale).
pub fn federation_fixture_from(
    world: &FederationWorld,
    latency_micros: u64,
    sleep: bool,
) -> FederationFixture {
    let (provider_a, provider_b) = federation_providers(world, latency_micros, sleep);
    let federation = Federation::builder(world.workload.methods.clone())
        .source(provider_a, &["acc0", "acc1"])
        .expect("provider-a methods exist")
        .source(provider_b, &["acc2", "acc3"])
        .expect("provider-b methods exist")
        .build()
        .expect("every method routed");
    FederationFixture {
        federation,
        query: world.query.clone(),
        initial: world.initial.clone(),
    }
}

/// The adom-flooding chain behind `harness --check-invalidation`.
///
/// A three-atom chain query `R0(x,y) ∧ R1(y,z) ∧ R2(z,w)` over two
/// domains: the key domain `B` (integers) types only the head variable
/// `x`, the link domain `A` (symbols) types `y`, `z`, `w`. The hidden
/// `R0` is **empty** — the query is never certain — and `R1`/`R2` are
/// fully present in the seed configuration, so no query relation ever
/// grows. All growth comes from the feeder chain `Feed(i, i+1)` over
/// increasing integer keys of `B`: every feeder access delivers exactly
/// one fresh value, flooding the active domain while every relation the
/// decision procedures scan stays static.
///
/// The verdicts at stake are the dead-end candidates: `Dead(k, v)` maps
/// `B` keys to a third domain `C` that **no access method consumes**, so
/// an `accD` access is long-term irrelevant — its fresh outputs unlock
/// no break access (condition A) and replaying any production plan
/// without it still certifies the query (condition B). Proving that
/// requires exhausting the witness search, and the pool of dead
/// candidates grows with every feeder value.
///
/// The domain split is what separates the three invalidation modes.
/// Relation-level eviction fires on every response (dependent dep-sets
/// are global), so each feed re-proves every dead verdict. Coarse adom
/// recording (`Exact` mode) stamps `Read::Adom` on the failed witness
/// searches, so each fresh value re-proves them all too — the wash this
/// fixture exists to expose. Per-domain prefix reads survive: the
/// backtracking search puts `x` at the top of its DFS, the `A`-typed
/// subtree below it exhausts the valuation budget, and the visited
/// prefix of `B`'s sorted candidate list stays short — a fresh integer
/// sorts **above** it, so precise-mode verdicts are untouched. (`A`'s
/// full-domain reads are real but `A` never grows.)
#[derive(Debug, Clone)]
pub struct FloodFixture {
    /// The chain query (never certain: hidden `R0` is empty).
    pub query: Query,
    /// The access methods (all dependent, keyed on the first column).
    pub methods: AccessMethods,
    /// The hidden instance: the feeder chain plus the static links.
    pub instance: Instance,
    /// The seed configuration: the first feeder link and all links.
    pub initial: Configuration,
}

/// Builds the [`FloodFixture`] with `feed_len` feeder links and `links`
/// static `A`-domain link facts in `R1`/`R2`.
pub fn adom_flooding_chain(feed_len: i64, links: usize) -> FloodFixture {
    let mut b = Schema::builder();
    let key = b.domain("B").unwrap();
    let link = b.domain("A").unwrap();
    let sink = b.domain("C").unwrap();
    b.relation("R0", &[("k", key), ("a", link)]).unwrap();
    b.relation("R1", &[("a", link), ("b", link)]).unwrap();
    b.relation("R2", &[("a", link), ("b", link)]).unwrap();
    b.relation("Feed", &[("k", key), ("v", key)]).unwrap();
    b.relation("Dead", &[("k", key), ("v", sink)]).unwrap();
    let schema = b.build();

    // Method order is scan order: the dead-end candidates sort before the
    // feeder, so every long-term-relevance scan re-proves each cached dead
    // verdict (or hits its cache entry) before reaching the feed access it
    // will execute.
    let mut mb = AccessMethods::builder(schema.clone());
    mb.add("acc0", "R0", &["k"], AccessMode::Dependent).unwrap();
    mb.add("acc1", "R1", &["a"], AccessMode::Dependent).unwrap();
    mb.add("acc2", "R2", &["a"], AccessMode::Dependent).unwrap();
    mb.add("accD", "Dead", &["k"], AccessMode::Dependent)
        .unwrap();
    mb.add("accF", "Feed", &["k"], AccessMode::Dependent)
        .unwrap();
    let methods = mb.build();

    let mut instance = Instance::new(schema.clone());
    let mut initial = Configuration::empty(schema.clone());
    for i in 0..feed_len {
        instance.insert_named("Feed", [i, i + 1]).unwrap();
    }
    initial.insert_named("Feed", [0i64, 1]).unwrap();
    // The link chain a00 -> a01 -> ... is both hidden and seeded: accesses
    // on R1/R2 deliver facts the configuration already holds, so they never
    // grow it.
    for i in 0..links {
        let a = format!("a{i:02}");
        let b = format!("a{:02}", i + 1);
        instance.insert_named("R1", [a.clone(), b.clone()]).unwrap();
        instance.insert_named("R2", [a.clone(), b.clone()]).unwrap();
        initial.insert_named("R1", [a.clone(), b.clone()]).unwrap();
        initial.insert_named("R2", [a, b]).unwrap();
    }

    let mut qb = ConjunctiveQuery::builder(schema);
    let x = qb.var("x");
    let y = qb.var("y");
    let z = qb.var("z");
    let w = qb.var("w");
    qb.atom("R0", vec![Term::Var(x), Term::Var(y)]).unwrap();
    qb.atom("R1", vec![Term::Var(y), Term::Var(z)]).unwrap();
    qb.atom("R2", vec![Term::Var(z), Term::Var(w)]).unwrap();
    let query: Query = qb.build().into();

    FloodFixture {
        query,
        methods,
        instance,
        initial,
    }
}

/// F4: the E5 world behind a primary/replica federation with a churn script
/// attached. Unlike the F1 split (provider A and B each own half the
/// methods), both providers here hold the **identical** hidden instance and
/// answer every method exactly, so replica failover preserves responses
/// byte-for-byte — the property the F4 sweep pins by diffing a churned run
/// against the chaos-free sequential oracle. The sync federation paces its
/// chaos clock `pace_micros_per_call` per wire call.
pub fn chaos_federation_fixture_from(
    world: &FederationWorld,
    script: ChurnScript,
    pace_micros_per_call: u64,
) -> FederationFixture {
    let methods = world.workload.methods.clone();
    let names: Vec<&str> = methods.iter().map(|(_, m)| m.name()).collect();
    let primary = SimulatedSource::exact("provider-a", world.instance.clone(), methods.clone());
    let replica = SimulatedSource::exact("provider-b", world.instance.clone(), methods.clone());
    let federation = Federation::builder(methods.clone())
        .source(primary, &names)
        .expect("primary serves every method")
        .replica(replica, &names)
        .expect("replica serves every method")
        .with_chaos(ChaosOptions::scripted(script, pace_micros_per_call))
        .build()
        .expect("every method routed");
    FederationFixture {
        federation,
        query: world.query.clone(),
        initial: world.initial.clone(),
    }
}

/// The chaos-free sequential oracle over the same E5 world: what every F4
/// churned run must still answer byte-for-byte.
pub fn world_oracle_source(world: &FederationWorld) -> accrel_engine::DeepWebSource {
    accrel_engine::DeepWebSource::new(
        world.instance.clone(),
        world.workload.methods.clone(),
        accrel_engine::ResponsePolicy::Exact,
    )
}

/// F2: the same two-provider E5 world behind an [`AsyncFederation`] — the
/// providers' latency models elapse on the shared virtual clock, so the
/// async sweep measures simulated makespan with zero real sleeps.
#[derive(Debug)]
pub struct AsyncFederationFixture {
    /// The assembled async federation (two latency-modelled providers over
    /// one virtual clock).
    pub federation: AsyncFederation,
    /// The fixed three-atom chain query of E5.
    pub query: Query,
    /// The seed configuration (a sample of the hidden instance).
    pub initial: Configuration,
}

/// Builds the F2 fixture over an already-built world (so F1 and F2 share
/// one hidden-instance build per harness scale): identical content and
/// latency distributions to [`federation_fixture`] (with `sleep = false` —
/// the async runtime never sleeps for real).
pub fn async_federation_fixture_from(
    world: &FederationWorld,
    latency_micros: u64,
) -> AsyncFederationFixture {
    let (provider_a, provider_b) = federation_providers(world, latency_micros, false);
    let federation = AsyncFederation::builder(world.workload.methods.clone())
        .simulated(provider_a, &["acc0", "acc1"])
        .expect("provider-a methods exist")
        .simulated(provider_b, &["acc2", "acc3"])
        .expect("provider-b methods exist")
        .build()
        .expect("every method routed");
    AsyncFederationFixture {
        federation,
        query: world.query.clone(),
        initial: world.initial.clone(),
    }
}

/// E6: the single-occurrence tractable case — Example 4.2 shaped query over
/// a configuration with `facts` R-facts.
pub fn single_occurrence_fixture(facts: usize) -> (ConjunctiveQuery, RelevanceFixture) {
    let mut sb = Schema::builder();
    let d = sb.domain("D").unwrap();
    sb.relation("R", &[("a", d), ("b", d)]).unwrap();
    sb.relation("S", &[("a", d), ("b", d)]).unwrap();
    let schema = sb.build();
    let mut mb = AccessMethods::builder(schema.clone());
    let r_acc = mb
        .add("RAcc", "R", &["b"], AccessMode::Independent)
        .unwrap();
    mb.add("SAcc", "S", &["a"], AccessMode::Independent)
        .unwrap();
    let methods = mb.build();
    let mut conf = Configuration::empty(schema.clone());
    for i in 0..facts {
        conf.insert_named("R", [format!("a{i}"), format!("b{}", i % 7)])
            .unwrap();
    }
    let mut qb = ConjunctiveQuery::builder(schema);
    let x = qb.var("x");
    let z = qb.var("z");
    qb.atom("R", vec![Term::Var(x), Term::constant("5")])
        .unwrap();
    qb.atom("S", vec![Term::constant("5"), Term::Var(z)])
        .unwrap();
    let cq = qb.build();
    let fixture = RelevanceFixture {
        query: Query::Cq(cq.clone()),
        configuration: conf,
        access: Access::new(r_acc, binding(["5"])),
        methods,
        budget: SearchBudget::default(),
    };
    (cq, fixture)
}

/// E6 (small arity): a binary-relation dependent chain for comparing the
/// general dependent procedure on low-arity inputs.
pub fn small_arity_fixture(depth: usize) -> RelevanceFixture {
    chain_ltr_fixture(depth)
}

/// E7: engine scenarios by name.
pub fn engine_scenarios() -> Vec<accrel_engine::scenarios::Scenario> {
    vec![
        accrel_engine::scenarios::bank_scenario(),
        bank_head_scenario(),
        chain_scenario(3),
        star_scenario(4),
    ]
}

/// E7: the bank scenario asking *which* loan officer: the same three atoms
/// with head `e`, the officer's employee id (the hidden answer is
/// `e-carol`). A non-Boolean query runs every verdict through the
/// Proposition 2.2 reduction, one Boolean instance per head value, so an
/// access no query atom can match (`StateApprAcc(Texas)`: the `Approval`
/// atom asks for Illinois) must be settled before that reduction.
pub fn bank_head_scenario() -> accrel_engine::scenarios::Scenario {
    let mut scenario = accrel_engine::scenarios::bank_scenario();
    let Query::Cq(cq) = &scenario.query else {
        unreachable!("the bank query is a conjunctive query")
    };
    let Term::Var(e) = cq.atoms()[0].terms()[0] else {
        unreachable!("the Employee atom starts with the variable e")
    };
    scenario.query = ConjunctiveQuery::new(
        cq.schema().clone(),
        cq.atoms().to_vec(),
        vec![e],
        cq.var_names().to_vec(),
    )
    .into();
    scenario.name = "bank (head e)".to_string();
    scenario.description = "Bank scenario with head e: which loan officer".to_string();
    scenario
}

/// E8: a pair (direct LTR fixture, the Prop. 3.4 reduction inputs) on the
/// Example 3.2 world.
pub fn reduction_fixture() -> (RelevanceFixture, accrel_query::PositiveQuery) {
    let mut sb = Schema::builder();
    let d = sb.domain("D").unwrap();
    sb.relation("R", &[("a", d)]).unwrap();
    sb.relation("S", &[("a", d)]).unwrap();
    let schema = sb.build();
    let mut mb = AccessMethods::builder(schema.clone());
    let r_check = mb
        .add_boolean("RCheck", "R", AccessMode::Dependent)
        .unwrap();
    mb.add_free("SAll", "S", AccessMode::Dependent).unwrap();
    let methods = mb.build();
    let mut conf = Configuration::empty(schema.clone());
    conf.insert_named("S", ["v"]).unwrap();
    let mut b = accrel_query::PositiveQuery::builder(schema);
    let x = b.var("x");
    let f = b.atom("R", vec![Term::Var(x)]).unwrap();
    let pq = b.build(f);
    let fixture = RelevanceFixture {
        query: Query::Pq(pq.clone()),
        configuration: conf,
        access: Access::new(r_check, binding([Value::sym("v")])),
        methods,
        budget: SearchBudget::default(),
    };
    (fixture, pq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_core::{is_contained, is_immediately_relevant, is_long_term_relevant};

    /// Whether some atom of `f`'s query can be charged to its access: on
    /// the accessed relation, holding a variable or the binding at the
    /// method's one input place.
    fn some_atom_is_chargeable(f: &RelevanceFixture) -> bool {
        let method = f.methods.get(f.access.method()).unwrap();
        let [input] = method.input_positions() else {
            panic!("the fixtures' methods have one input place")
        };
        let bound = f.access.binding().get(0);
        let mut atoms = f.query.ucq().iter().flat_map(|d| d.atoms());
        atoms.any(|a| {
            a.relation() == method.relation()
                && match a.term_at(*input) {
                    Some(Term::Var(_)) => true,
                    Some(Term::Const(c)) => Some(c) == bound,
                    None => false,
                }
        })
    }

    #[test]
    fn ir_fixtures_are_runnable() {
        // Every size `run_all` and `run_smoke` time in E1 and E2 reaches
        // the search: neither the static charge cut nor the certainty
        // check settles it.
        for size in 1..=6 {
            for conjunctive in [true, false] {
                for dependent in [true, false] {
                    let f = ir_fixture(size, conjunctive, dependent);
                    let ctx =
                        format!("size {size} conjunctive {conjunctive} dependent {dependent}");
                    assert!(some_atom_is_chargeable(&f), "{ctx}");
                    assert!(!certain::is_certain(&f.query, &f.configuration), "{ctx}");
                    let _ =
                        is_immediately_relevant(&f.query, &f.configuration, &f.access, &f.methods);
                }
            }
        }
    }

    #[test]
    fn ltr_fixtures_are_runnable() {
        let f = ltr_independent_fixture(3, true);
        let _ = is_long_term_relevant(&f.query, &f.configuration, &f.access, &f.methods, &f.budget);
        let f = chain_ltr_fixture(2);
        assert!(is_long_term_relevant(
            &f.query,
            &f.configuration,
            &f.access,
            &f.methods,
            &f.budget
        ));
    }

    #[test]
    fn chain_containment_fixture_behaves_as_expected() {
        // Reaching the deepest hop implies having reached hop 1.
        let f = chain_containment_fixture(3, 1);
        let outcome = is_contained(&f.q1, &f.q2, &f.configuration, &f.methods, &f.budget);
        assert!(outcome.contained);
        // The converse fails.
        let f_rev = ContainmentFixture {
            q1: f.q2.clone(),
            q2: f.q1.clone(),
            ..f
        };
        let outcome = is_contained(
            &f_rev.q1,
            &f_rev.q2,
            &f_rev.configuration,
            &f_rev.methods,
            &f_rev.budget,
        );
        assert!(!outcome.contained);
    }

    #[test]
    fn pq_containment_fixture_is_contained() {
        let f = pq_containment_fixture(2);
        let outcome = is_contained(&f.q1, &f.q2, &f.configuration, &f.methods, &f.budget);
        assert!(outcome.contained);
    }

    #[test]
    fn data_complexity_fixture_scales_facts_only() {
        let small = data_complexity_fixture(10, true);
        let large = data_complexity_fixture(100, true);
        assert_eq!(small.query.size(), large.query.size());
        assert!(large.configuration.len() > small.configuration.len());
    }

    #[test]
    fn uncertain_chain_fixture_stays_uncertain_with_a_dead_key() {
        for facts in [10, 50, 1_000] {
            let f = uncertain_chain_fixture(facts);
            assert_eq!(f.configuration.len(), facts);
            assert!(!accrel_query::certain::is_certain(
                &f.query,
                &f.configuration
            ));
            assert!(!accrel_core::is_immediately_relevant(
                &f.query,
                &f.configuration,
                &f.access,
                &f.methods
            ));
        }
    }

    #[test]
    fn single_occurrence_fixture_matches_proposition_4_3() {
        let (cq, f) = single_occurrence_fixture(10);
        let fast = accrel_core::ltr_independent::ltr_single_occurrence(
            &cq,
            &f.configuration,
            &f.access,
            &f.methods,
        );
        let general = accrel_core::ltr_independent::is_ltr_independent(
            &f.query,
            &f.configuration,
            &f.access,
            &f.methods,
        );
        assert_eq!(fast, Some(general));
    }

    #[test]
    fn federation_fixture_is_runnable() {
        let fixture = federation_fixture(500, 0, false);
        assert_eq!(fixture.federation.source_count(), 2);
        assert!(!fixture.initial.is_empty());
        assert!(fixture.query.is_boolean());
        // Every method of the workload is routed.
        for (id, _) in fixture.federation.methods().clone().iter() {
            assert!(fixture.federation.source_for(id).is_some());
        }
        // A capped exhaustive batched run executes and retrieves tuples.
        let request = accrel_engine::RunRequest::new(fixture.query.clone())
            .with_strategy(accrel_engine::Strategy::Exhaustive)
            .with_options(accrel_engine::RunOptions {
                max_accesses: 8,
                stop_when_certain: false,
                batch_size: 4,
                workers: 2,
                speculation: accrel_engine::SpeculationMode::CachedOnly,
                ..accrel_engine::RunOptions::default()
            });
        let report = accrel_engine::Executor::execute(
            &accrel_federation::Threaded::new(&fixture.federation),
            &request,
            &fixture.initial,
        );
        assert_eq!(report.accesses_made, 8);
        assert!(report.tuples_retrieved > 0);
        assert!(report.batch_stats.mean_batch() > 1.0);
    }

    #[test]
    fn scenario_fixtures_exist() {
        assert_eq!(engine_scenarios().len(), 4);
        let Query::Cq(head) = bank_head_scenario().query else {
            unreachable!()
        };
        let free: Vec<String> = head.free_vars().iter().map(|&v| head.var_name(v)).collect();
        assert_eq!(free, ["e"]);
        let (fixture, pq) = reduction_fixture();
        assert_eq!(pq.size(), 1);
        assert!(fixture.query.is_boolean());
        let q = hop_query(&chain_scenario(2).schema, 2, 1);
        assert_eq!(q.size(), 1);
        let f = small_arity_fixture(2);
        assert!(f.query.is_boolean());
    }
}
