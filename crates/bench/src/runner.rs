//! Measurement helpers and the experiment implementations used by the
//! `harness` binary.

use std::time::Instant;

use accrel_core::{
    is_contained, is_immediately_relevant, is_immediately_relevant_given_uncertain,
    is_long_term_relevant, ltr_independent, reductions,
};
use accrel_engine::{
    compare_strategies, BatchStats, DeepWebSource, Executor, InvalidationMode, ResponsePolicy,
    RunOptions, RunReport, RunRequest, Sequential, SpeculationMode, Strategy,
};
use accrel_federation::{
    Async, ChurnScript, FlakyModel, QuerySessionRegistry, ServingOptions, Threaded,
};
use accrel_query::{certain, Query};
use accrel_schema::{AdomPrecision, Configuration};
use accrel_workloads::encodings::{encode_prop_6_2, encoding_stats};
use accrel_workloads::tiling::checkerboard;

use crate::fixtures;

/// One row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Series label (e.g. "CQ / independent").
    pub series: String,
    /// Swept parameter value (e.g. query size).
    pub parameter: String,
    /// Metric name (e.g. "median µs", "accesses").
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

impl Row {
    /// Creates a row.
    pub fn new(
        series: impl Into<String>,
        parameter: impl ToString,
        metric: impl Into<String>,
        value: f64,
    ) -> Self {
        Self {
            series: series.into(),
            parameter: parameter.to_string(),
            metric: metric.into(),
            value,
        }
    }
}

/// A named experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id ("E1", ...).
    pub id: String,
    /// Title of the experiment.
    pub title: String,
    /// The measured rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str("| series | parameter | metric | value |\n|---|---|---|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} |\n",
                r.series, r.parameter, r.metric, r.value
            ));
        }
        out
    }
}

/// Times `f` over `repeats` runs and returns the median in microseconds.
/// One untimed call comes first, so no sample pays for a cold first call.
pub fn median_micros<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let repeats = repeats.max(1);
    f();
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    samples[samples.len() / 2]
}

/// The count rows of one fixture: `verdict` (`relevant (1 = yes)` or
/// `contained (1 = yes)`), the answer `decide` reaches on `conf`, and
/// `reads`, how many reads a `Precise` read recorder sees in that one
/// untimed call. They pin what the timed calls decide and read.
fn verdict_rows(
    series: &str,
    parameter: impl ToString,
    verdict: &str,
    conf: &Configuration,
    decide: impl FnOnce(&Configuration) -> bool,
) -> [Row; 2] {
    let mut conf = conf.clone();
    conf.begin_read_tracking_with(AdomPrecision::Precise);
    let yes = decide(&conf);
    let reads = conf.take_read_set().len();
    let parameter = parameter.to_string();
    [
        Row::new(series, &parameter, verdict, f64::from(u8::from(yes))),
        Row::new(series, parameter, "reads", reads as f64),
    ]
}

/// The verdict metric of the relevance procedures' count rows.
const RELEVANT: &str = "relevant (1 = yes)";

/// The verdict metric of containment's count rows.
const CONTAINED: &str = "contained (1 = yes)";

/// E1 — immediate relevance combined complexity (Table 1, IR column).
pub fn e1_immediate(sizes: &[usize], repeats: usize) -> Table {
    let mut rows = Vec::new();
    for &size in sizes {
        for (series, conjunctive, dependent) in [
            ("CQ / independent", true, false),
            ("PQ / independent", false, false),
            ("CQ / dependent", true, true),
            ("PQ / dependent", false, true),
        ] {
            let f = fixtures::ir_fixture(size, conjunctive, dependent);
            let t = median_micros(repeats, || {
                let _ = is_immediately_relevant(&f.query, &f.configuration, &f.access, &f.methods);
            });
            rows.push(Row::new(series, size, "median µs", t));
            rows.extend(verdict_rows(
                series,
                size,
                RELEVANT,
                &f.configuration,
                |conf| is_immediately_relevant(&f.query, conf, &f.access, &f.methods),
            ));
        }
    }
    Table {
        id: "E1".to_string(),
        title: "Immediate relevance vs query size (DP-complete combined complexity)".to_string(),
        rows,
    }
}

/// E2 — long-term relevance with independent accesses (Table 1, ΣP2 rows).
pub fn e2_ltr_independent(sizes: &[usize], repeats: usize) -> Table {
    let mut rows = Vec::new();
    for &size in sizes {
        for (series, conjunctive) in [("CQ", true), ("PQ", false)] {
            let f = fixtures::ltr_independent_fixture(size, conjunctive);
            let t = median_micros(repeats, || {
                let _ = ltr_independent::is_ltr_independent(
                    &f.query,
                    &f.configuration,
                    &f.access,
                    &f.methods,
                );
            });
            rows.push(Row::new(series, size, "median µs", t));
            rows.extend(verdict_rows(
                series,
                size,
                RELEVANT,
                &f.configuration,
                |conf| ltr_independent::is_ltr_independent(&f.query, conf, &f.access, &f.methods),
            ));
        }
    }
    Table {
        id: "E2".to_string(),
        title: "Long-term relevance, independent accesses, vs query size (ΣP2)".to_string(),
        rows,
    }
}

/// E3 — dependent accesses, conjunctive queries: chain containment / LTR and
/// the growth of the Prop. 6.2 tiling encoding.
pub fn e3_dependent_cq(depths: &[usize], repeats: usize) -> Table {
    let mut rows = Vec::new();
    for &depth in depths {
        let f = fixtures::chain_containment_fixture(depth, 1);
        let t = median_micros(repeats, || {
            let _ = is_contained(&f.q1, &f.q2, &f.configuration, &f.methods, &f.budget);
        });
        rows.push(Row::new("chain containment", depth, "median µs", t));
        rows.extend(verdict_rows(
            "chain containment",
            depth,
            CONTAINED,
            &f.configuration,
            |conf| is_contained(&f.q1, &f.q2, conf, &f.methods, &f.budget).contained,
        ));
        let lf = fixtures::chain_ltr_fixture(depth);
        let t = median_micros(repeats, || {
            let _ = is_long_term_relevant(
                &lf.query,
                &lf.configuration,
                &lf.access,
                &lf.methods,
                &lf.budget,
            );
        });
        let series = "chain LTR (dependent)";
        rows.push(Row::new(series, depth, "median µs", t));
        rows.extend(verdict_rows(
            series,
            depth,
            RELEVANT,
            &lf.configuration,
            |conf| is_long_term_relevant(&lf.query, conf, &lf.access, &lf.methods, &lf.budget),
        ));
    }
    // The encoding is swept by tiling width, at least 2; depths that share
    // a width share its rows.
    let mut widths: Vec<usize> = depths.iter().map(|&d| d.max(2)).collect();
    widths.dedup();
    for width in widths {
        let problem = checkerboard(width);
        let t = median_micros(repeats, || {
            let _ = encode_prop_6_2(&problem);
        });
        rows.push(Row::new("Prop 6.2 encoding", width, "median µs", t));
        let stats = encoding_stats(&problem, &encode_prop_6_2(&problem));
        rows.push(Row::new(
            "Prop 6.2 encoding",
            width,
            "q_wrong disjuncts",
            stats.wrong_disjuncts as f64,
        ));
        rows.push(Row::new(
            "Prop 6.2 encoding",
            width,
            "relations",
            stats.relations as f64,
        ));
    }
    Table {
        id: "E3".to_string(),
        title: "Dependent accesses, CQs: containment & LTR cost, tiling-encoding growth"
            .to_string(),
        rows,
    }
}

/// E4 — dependent accesses, positive queries.
pub fn e4_dependent_pq(widths: &[usize], repeats: usize) -> Table {
    let mut rows = Vec::new();
    for &width in widths {
        let f = fixtures::pq_containment_fixture(width);
        let t = median_micros(repeats, || {
            let _ = is_contained(&f.q1, &f.q2, &f.configuration, &f.methods, &f.budget);
        });
        let series = "PQ containment (union width)";
        rows.push(Row::new(series, width, "median µs", t));
        rows.extend(verdict_rows(
            series,
            width,
            CONTAINED,
            &f.configuration,
            |conf| is_contained(&f.q1, &f.q2, conf, &f.methods, &f.budget).contained,
        ));
    }
    Table {
        id: "E4".to_string(),
        title:
            "Dependent accesses, PQs: containment cost vs union width (one exponential above CQs)"
                .to_string(),
        rows,
    }
}

/// E5 — data complexity: fixed query, growing configuration. The
/// `query certain` row says which path the IR and LTR rows timed: when the
/// configuration already certifies the query, both procedures stop at their
/// certainty pre-check, so those rows time that check alone.
pub fn e5_data_complexity(sizes: &[usize], repeats: usize) -> Table {
    let mut rows = Vec::new();
    for &size in sizes {
        for (series, dependent) in [
            ("IR (fixed query)", false),
            ("IR (fixed query, dependent)", true),
        ] {
            let f = fixtures::data_complexity_fixture(size, dependent);
            let t = median_micros(repeats, || {
                let _ = is_immediately_relevant(&f.query, &f.configuration, &f.access, &f.methods);
            });
            rows.push(Row::new(series, size, "median µs", t));
        }
        let f = fixtures::data_complexity_fixture(size, false);
        let t = median_micros(repeats, || {
            let _ = ltr_independent::is_ltr_independent_budgeted(
                &f.query,
                &f.configuration,
                &f.access,
                &f.methods,
                &f.budget,
            );
        });
        rows.push(Row::new(
            "LTR independent (fixed query)",
            size,
            "median µs",
            t,
        ));
        let t = median_micros(repeats, || {
            let _ = certain::certain_answers(&f.query, &f.configuration);
        });
        rows.push(Row::new(
            "certain answers (fixed query)",
            size,
            "median µs",
            t,
        ));
        rows.push(Row::new(
            "query certain (1 = yes)",
            size,
            "bool",
            if certain::is_certain(&f.query, &f.configuration) {
                1.0
            } else {
                0.0
            },
        ));
        rows.push(Row::new(
            "configuration facts",
            size,
            "count",
            f.configuration.len() as f64,
        ));
        // A configuration that stays uncertain at every size: the full
        // certainty check and the NP half of a dead key's IR check, each of
        // which must refute the chain.
        let u = fixtures::uncertain_chain_fixture(size);
        let t = median_micros(repeats, || {
            let _ = certain::is_certain(&u.query, &u.configuration);
        });
        rows.push(Row::new(
            "query certain (uncertain chain)",
            size,
            "median µs",
            t,
        ));
        let t = median_micros(repeats, || {
            let _ = is_immediately_relevant_given_uncertain(
                &u.query,
                &u.configuration,
                &u.access,
                &u.methods,
            );
        });
        rows.push(Row::new(
            "IR dead key (uncertain chain)",
            size,
            "median µs",
            t,
        ));
    }
    Table {
        id: "E5".to_string(),
        title: "Data complexity: fixed query, configuration size swept (PTIME/AC0 claims)"
            .to_string(),
        rows,
    }
}

/// E6 — tractable cases: single-occurrence fast path vs the general ΣP2
/// procedure, and the small-arity chain case.
pub fn e6_tractable_cases(sizes: &[usize], repeats: usize) -> Table {
    let mut rows = Vec::new();
    for &size in sizes {
        let (cq, f) = fixtures::single_occurrence_fixture(size);
        let t_fast = median_micros(repeats, || {
            let _ = ltr_independent::ltr_single_occurrence(
                &cq,
                &f.configuration,
                &f.access,
                &f.methods,
            );
        });
        rows.push(Row::new("Prop 4.3 fast path", size, "median µs", t_fast));
        let t_general = median_micros(repeats, || {
            let _ = ltr_independent::is_ltr_independent(
                &f.query,
                &f.configuration,
                &f.access,
                &f.methods,
            );
        });
        rows.push(Row::new(
            "general ΣP2 procedure",
            size,
            "median µs",
            t_general,
        ));
    }
    for &depth in &[1usize, 2, 3] {
        let f = fixtures::small_arity_fixture(depth);
        let t = median_micros(repeats, || {
            let _ =
                is_long_term_relevant(&f.query, &f.configuration, &f.access, &f.methods, &f.budget);
        });
        rows.push(Row::new(
            "binary-relation chain (Sec. 6)",
            depth,
            "median µs",
            t,
        ));
    }
    Table {
        id: "E6".to_string(),
        title: "Tractable cases: single-occurrence CQs and small arity".to_string(),
        rows,
    }
}

/// E7 — engine ablation: accesses, tuples and the wall time of one full
/// sequential run per strategy.
pub fn e7_engine_ablation(repeats: usize) -> Table {
    let mut rows = Vec::new();
    for scenario in fixtures::engine_scenarios() {
        let source = DeepWebSource::new(
            scenario.instance.clone(),
            scenario.methods.clone(),
            ResponsePolicy::Exact,
        );
        let executor = Sequential::new(&source);
        let request = RunRequest::new(scenario.query.clone());
        let reports = compare_strategies(&executor, &request, &scenario.initial_configuration);
        for report in reports {
            let series = format!("{} / {}", scenario.name, report.strategy.name());
            let run = request.clone().with_strategy(report.strategy);
            let t = median_micros(repeats, || {
                let _ = executor.execute(&run, &scenario.initial_configuration);
            });
            rows.push(Row::new(series.clone(), "-", "median µs", t));
            rows.push(Row::new(
                series.clone(),
                "-",
                "accesses",
                report.accesses_made as f64,
            ));
            rows.push(Row::new(
                series.clone(),
                "-",
                "tuples",
                report.tuples_retrieved as f64,
            ));
            rows.push(Row::new(
                series,
                "-",
                "answered",
                if report.certain { 1.0 } else { 0.0 },
            ));
        }
    }
    Table {
        id: "E7".to_string(),
        title: "Engine ablation: exhaustive (Li [18]) vs relevance-guided access selection"
            .to_string(),
        rows,
    }
}

/// S1 — the fact store at scale: its raw operations on a grid of `facts`
/// facts. Per-fact `insert` and one bulk `extend_facts` load into an empty
/// store, `matching` bound on one and on both attributes, `active_domain`,
/// an `adom_contains` probe, a snapshot clone (every shard shared, so
/// O(relations)) and a clone followed by one insert, with the shard copies
/// that insert performs (none: it starts tails of its own beside the bases
/// it shares).
pub fn s1_store_ops(sizes: &[usize], repeats: usize) -> Table {
    use accrel_schema::{FactStore, Schema, Tuple, Value};
    use std::hint::black_box;
    let mut b = Schema::builder();
    let d = b.domain("D").unwrap();
    let e = b.domain("E").unwrap();
    b.relation("R", &[("a", d), ("b", e)]).unwrap();
    let schema = b.build();
    let r = schema.relation_by_name("R").unwrap();
    let mut rows = Vec::new();
    for &facts in sizes {
        // A near-square R(a{i}, b{j}) grid holding exactly `facts` tuples.
        let side = (facts as f64).sqrt().ceil() as usize + 1;
        let mut grid = Vec::with_capacity(facts);
        'outer: for i in 0..side {
            for j in 0..side {
                if grid.len() >= facts {
                    break 'outer;
                }
                grid.push((
                    r,
                    Tuple::new(vec![
                        Value::sym(format!("a{i}")),
                        Value::sym(format!("b{j}")),
                    ]),
                ));
            }
        }
        let t = median_micros(repeats, || {
            let mut store = FactStore::new(schema.clone());
            for (relation, tuple) in &grid {
                store.insert(*relation, tuple.clone()).expect("well-typed");
            }
        });
        rows.push(Row::new("insert", facts, "median µs", t));
        let t = median_micros(repeats, || {
            let mut store = FactStore::new(schema.clone());
            store
                .extend_facts(grid.iter().cloned())
                .expect("well-typed");
        });
        rows.push(Row::new("bulk extend_facts", facts, "median µs", t));
        let probe_a = grid[facts / 2].1.values()[0].clone();
        let probe_b = grid[facts / 3].1.values()[1].clone();
        let mut store = FactStore::new(schema.clone());
        store.extend_facts(grid).expect("grid facts are well-typed");
        let both = [probe_a.clone(), probe_b];
        let ops: [(&str, &dyn Fn()); 6] = [
            ("match first attribute", &|| {
                black_box(store.matching(r, &[0], std::slice::from_ref(&probe_a)));
            }),
            ("match both attributes", &|| {
                black_box(store.matching(r, &[0, 1], &both));
            }),
            ("active domain", &|| {
                black_box(store.active_domain());
            }),
            ("adom contains", &|| {
                black_box(store.adom_contains(&probe_a, d));
            }),
            ("snapshot clone", &|| {
                black_box(store.clone());
            }),
            ("clone then insert", &|| {
                let mut snap = store.clone();
                snap.insert_named("R", ["fresh-a", "fresh-b"])
                    .expect("well-typed");
                black_box(snap);
            }),
        ];
        for (series, op) in ops {
            let t = median_micros(repeats, op);
            rows.push(Row::new(series, facts, "median µs", t));
        }
        let mut snap = store.clone();
        snap.insert_named("R", ["fresh-a", "fresh-b"])
            .expect("well-typed");
        let copies = snap.shard_copies() - store.shard_copies();
        rows.push(Row::new(
            "clone then insert",
            facts,
            "shard copies",
            copies as f64,
        ));
    }
    Table {
        id: "S1".to_string(),
        title: "Fact store at scale: raw operations".to_string(),
        rows,
    }
}

/// E8 — reduction consistency: direct LTR vs the Prop. 3.4 / 3.5 routes.
pub fn e8_reductions(repeats: usize) -> Table {
    let mut rows = Vec::new();
    let (f, pq) = fixtures::reduction_fixture();
    let direct = median_micros(repeats, || {
        let _ = is_long_term_relevant(&f.query, &f.configuration, &f.access, &f.methods, &f.budget);
    });
    let series = "direct dependent LTR";
    rows.push(Row::new(series, "-", "median µs", direct));
    rows.extend(verdict_rows(
        series,
        "-",
        RELEVANT,
        &f.configuration,
        |conf| is_long_term_relevant(&f.query, conf, &f.access, &f.methods, &f.budget),
    ));
    let via_34 = median_micros(repeats, || {
        let red = reductions::ltr_to_non_containment(&pq, &f.configuration, &f.access, &f.methods);
        let _ = is_contained(
            &red.q1,
            &red.q2,
            &red.configuration,
            &red.methods,
            &f.budget,
        );
    });
    rows.push(Row::new(
        "via Prop 3.4 + containment",
        "-",
        "median µs",
        via_34,
    ));
    // Prop 3.5 takes a CQ, so it runs on the depth-2 dependent chain; E3's
    // `chain LTR (dependent)` row at depth 2 is the direct route there.
    let cf = fixtures::chain_ltr_fixture(2);
    let Query::Cq(cq) = &cf.query else {
        unreachable!("the chain LTR query is a CQ")
    };
    let via_35 = median_micros(repeats, || {
        let _ = reductions::ltr_via_containment_oracle(
            cq,
            &cf.configuration,
            &cf.access,
            &cf.methods,
            &cf.budget,
        );
    });
    rows.push(Row::new(
        "via Prop 3.5 oracle (depth-2 chain)",
        "-",
        "median µs",
        via_35,
    ));
    // Consistency of the verdicts.
    let direct_verdict =
        is_long_term_relevant(&f.query, &f.configuration, &f.access, &f.methods, &f.budget);
    let red = reductions::ltr_to_non_containment(&pq, &f.configuration, &f.access, &f.methods);
    let contained = is_contained(
        &red.q1,
        &red.q2,
        &red.configuration,
        &red.methods,
        &f.budget,
    )
    .contained;
    rows.push(Row::new(
        "verdicts agree (1 = yes)",
        "-",
        "bool",
        if direct_verdict != contained {
            1.0
        } else {
            0.0
        },
    ));
    Table {
        id: "E8".to_string(),
        title: "Relevance ↔ containment reductions: cost and verdict consistency".to_string(),
        rows,
    }
}

/// F1 — the threaded federation sweep: an exhaustive engine run over the
/// `facts`-fact E5 federation fixture at every batch size (workers scale
/// with the batch), then a Hybrid run under each invalidation mode.
/// Latencies are really slept, so the per-access wall time shows the
/// batching payoff.
///
/// The hidden instance is generated **once** per harness scale — callers
/// build a [`fixtures::FederationWorld`] and F1 and F2 both derive their
/// fixtures from it (sources are immutable; statistics are reset between
/// runs) — at the 10⁶-fact scale of `run_all`, rebuilding it per batch size
/// (or per table) used to dominate the sweep. Each run's `shard copies` row
/// reports the copy-on-write traffic of its configuration handle.
pub fn f1_federation_sweep(
    world: &fixtures::FederationWorld,
    max_accesses: usize,
    batch_sizes: &[usize],
) -> Table {
    let facts = world.facts();
    let mut rows = Vec::new();
    let slept = fixtures::federation_fixture_from(world, 100, true);
    for &batch_size in batch_sizes {
        slept.federation.reset_stats();
        let options = RunOptions {
            max_accesses,
            stop_when_certain: false,
            batch_size,
            workers: batch_size.min(8),
            speculation: SpeculationMode::CachedOnly,
            ..RunOptions::default()
        };
        let request = RunRequest::new(slept.query.clone())
            .with_strategy(Strategy::Exhaustive)
            .with_options(options);
        let start = Instant::now();
        let report = Threaded::new(&slept.federation).execute(&request, &slept.initial);
        let wall = start.elapsed().as_secs_f64() * 1e6;
        let series = "E5 federation (exhaustive)";
        rows.push(Row::new(
            series,
            batch_size,
            "wall µs/access",
            wall / report.accesses_made.max(1) as f64,
        ));
        rows.push(Row::new(
            series,
            batch_size,
            "mean batch",
            report.batch_stats.mean_batch(),
        ));
        rows.push(Row::new(
            series,
            batch_size,
            "accesses",
            report.accesses_made as f64,
        ));
        rows.push(Row::new(
            series,
            batch_size,
            "source calls",
            report.source_stats.calls as f64,
        ));
        rows.push(Row::new(
            series,
            batch_size,
            "shard copies",
            report.shard_copies as f64,
        ));
    }
    // Read-set invalidation against its relation-level baseline on a
    // **relevance-guided** growing run (the exhaustive strategy never
    // consults the oracle; the E5 workload is fully dependent, so every
    // response grows a relation other verdicts depend on). The headline
    // metric is **re-checks/round** — decision procedures re-run per growth
    // round after cache invalidation. Exact invalidation only re-verifies a
    // verdict when a response inserted a pair its procedure actually read;
    // precise invalidation further scopes the active-domain reads per
    // domain and visited prefix, so the rows must order precise ≤ exact ≤
    // relation-level; the answers are pinned byte-for-byte by the
    // equivalence suite and the differential fuzzer.
    for (mode_label, invalidation) in [
        ("precise", InvalidationMode::Precise),
        ("exact", InvalidationMode::Exact),
        ("relation-level", InvalidationMode::RelationLevel),
    ] {
        slept.federation.reset_stats();
        let inv_batch = 4usize;
        let options = RunOptions {
            max_accesses: max_accesses.min(24),
            stop_when_certain: false,
            batch_size: inv_batch,
            workers: inv_batch,
            invalidation,
            budget: accrel_core::SearchBudget::shallow(),
            ..RunOptions::default()
        };
        let request = RunRequest::new(slept.query.clone())
            .with_strategy(Strategy::Hybrid)
            .with_options(options);
        let start = Instant::now();
        let report = Threaded::new(&slept.federation).execute(&request, &slept.initial);
        let wall = start.elapsed().as_secs_f64() * 1e6;
        let series = format!("E5 federation (invalidation, {mode_label})");
        rows.push(Row::new(
            series.clone(),
            inv_batch,
            "re-checks/round",
            report.relevance_cache_misses as f64 / report.rounds.max(1) as f64,
        ));
        rows.push(Row::new(
            series.clone(),
            inv_batch,
            "evictions",
            report.evictions as f64,
        ));
        rows.push(Row::new(
            series,
            inv_batch,
            "wall µs/access",
            wall / report.accesses_made.max(1) as f64,
        ));
    }
    Table {
        id: "F1".to_string(),
        title: format!(
            "Federation sweep at {facts} facts: batched exhaustive throughput and read-set \
             invalidation"
        ),
        rows,
    }
}

/// F2 — the async federation sweep: the same exhaustive E5 federation run
/// as F1, executed by the `Async` executor on the hand-rolled
/// mini-executor, swept over the **in-flight limit** at a fixed batch size.
/// Latencies elapse on the shared virtual clock, so the headline metric is
/// `virtual µs/access` — the simulated makespan per access, which shrinks
/// as the in-flight limit lets more round trips overlap — measured with
/// zero real sleeps (the `wall µs/access` row shows the executor's true
/// CPU cost stays flat).
///
/// Four guided series follow at the largest in-flight limit, under the
/// shallow budget: `ltr-guided` and `hybrid`, each under both speculation
/// modes. Under `cached-only` a guided strategy fetches one access per
/// batch; under `eager` it runs the decision procedures to predict a
/// relevance-verified batch. Their `virtual µs/access` against `wall
/// µs/access` is what that extra checking buys when source latency
/// dominates, and `wasted prefetches` counts the predicted accesses the run
/// never selected.
pub fn f2_async_sweep(
    world: &fixtures::FederationWorld,
    max_accesses: usize,
    batch_size: usize,
    in_flight_limits: &[usize],
) -> Table {
    let facts = world.facts();
    let mut rows = Vec::new();
    let fixture = fixtures::async_federation_fixture_from(world, 100);
    let options = |workers| RunOptions {
        max_accesses,
        stop_when_certain: false,
        batch_size,
        workers,
        speculation: SpeculationMode::CachedOnly,
        ..RunOptions::default()
    };
    for &in_flight in in_flight_limits {
        let series = "E5 async federation (exhaustive)";
        let report = f2_run(
            &fixture,
            series,
            Strategy::Exhaustive,
            options(in_flight),
            &mut rows,
        );
        rows.push(Row::new(
            series,
            in_flight,
            "shard copies",
            report.shard_copies as f64,
        ));
    }
    if let Some(&in_flight) = in_flight_limits.iter().max() {
        for strategy in [Strategy::LtrGuided, Strategy::Hybrid] {
            for (mode, speculation) in [
                ("cached-only", SpeculationMode::CachedOnly),
                ("eager", SpeculationMode::Eager),
            ] {
                let series = format!("E5 async federation ({}, {mode})", strategy.name());
                let options = RunOptions {
                    speculation,
                    budget: accrel_core::SearchBudget::shallow(),
                    ..options(in_flight)
                };
                let report = f2_run(&fixture, &series, strategy, options, &mut rows);
                rows.push(Row::new(
                    series,
                    in_flight,
                    "wasted prefetches",
                    report.batch_stats.speculative_wasted as f64,
                ));
            }
        }
    }
    Table {
        id: "F2".to_string(),
        title: format!(
            "Async federation sweep at {facts} facts: virtual-clock throughput vs in-flight \
             limit (batch size {batch_size}, no real sleeps), exhaustive and guided"
        ),
        rows,
    }
}

/// Runs one F2 request on `fixture` and pushes the rows every F2 series
/// reports, keyed by the request's in-flight limit; returns the report for
/// the series' own rows.
fn f2_run(
    fixture: &fixtures::AsyncFederationFixture,
    series: &str,
    strategy: Strategy,
    options: RunOptions,
    rows: &mut Vec<Row>,
) -> RunReport {
    fixture.federation.reset_stats();
    let in_flight = options.workers;
    let virtual_before = fixture.federation.clock().now_micros();
    let request = RunRequest::new(fixture.query.clone())
        .with_strategy(strategy)
        .with_options(options);
    let start = Instant::now();
    let report = Async::new(&fixture.federation).execute(&request, &fixture.initial);
    let wall = start.elapsed().as_secs_f64() * 1e6;
    let virtual_elapsed = (fixture.federation.clock().now_micros() - virtual_before) as f64;
    let accesses = report.accesses_made.max(1) as f64;
    let mut push = |metric: &str, value: f64| {
        rows.push(Row::new(series, in_flight, metric, value));
    };
    push("virtual µs/access", virtual_elapsed / accesses);
    push("wall µs/access", wall / accesses);
    push("accesses", report.accesses_made as f64);
    push("mean batch", report.batch_stats.mean_batch());
    push("source calls", report.source_stats.calls as f64);
    report
}

/// F3 — the multi-tenant serving sweep: `n` identical exhaustive sessions
/// admitted concurrently over one shared async E5 federation, with
/// cross-session access deduplication and verdict sharing on. Each session
/// count gets a fresh fixture (fresh virtual clock, fresh registry), so the
/// rows are directly comparable. The headline metric is `virtual µs/access`
/// — simulated makespan divided by the *total* accesses applied across
/// sessions — which must fall as sessions share wire calls; `wire calls`
/// vs `session calls` shows the deduplication directly (wire calls grow
/// sublinearly in the session count), and the p50/p95 rows report the
/// per-session virtual-latency distribution under contention. Two mixed
/// serves follow (see `f3_mixed_serves`), whose count rows pin the order
/// in which the serving layer fetches.
pub fn f3_serving_sweep(
    world: &fixtures::FederationWorld,
    max_accesses: usize,
    session_counts: &[usize],
) -> Table {
    let facts = world.facts();
    let mut rows = Vec::new();
    for &sessions in session_counts {
        let fixture = fixtures::async_federation_fixture_from(world, 100);
        let registry = QuerySessionRegistry::with_options(
            &fixture.federation,
            ServingOptions {
                max_sessions: sessions,
                max_in_flight_accesses: 32,
            },
        );
        let requests: Vec<RunRequest> = (0..sessions)
            .map(|_| {
                RunRequest::new(fixture.query.clone())
                    .with_strategy(Strategy::Exhaustive)
                    .with_options(RunOptions {
                        max_accesses,
                        stop_when_certain: false,
                        batch_size: 16,
                        workers: 8,
                        speculation: SpeculationMode::CachedOnly,
                        ..RunOptions::default()
                    })
            })
            .collect();
        let start = Instant::now();
        let report = registry.serve(&requests, &fixture.initial);
        let wall = start.elapsed().as_secs_f64() * 1e6;
        let series = "E5 serving (exhaustive, dedup)";
        rows.push(Row::new(
            series,
            sessions,
            "virtual µs/access",
            report.makespan_micros as f64 / report.total_accesses().max(1) as f64,
        ));
        rows.push(Row::new(
            series,
            sessions,
            "p50 session µs",
            report.latency_percentile(0.5) as f64,
        ));
        rows.push(Row::new(
            series,
            sessions,
            "p95 session µs",
            report.latency_percentile(0.95) as f64,
        ));
        rows.push(Row::new(
            series,
            sessions,
            "wire calls",
            report.wire_calls as f64,
        ));
        rows.push(Row::new(
            series,
            sessions,
            "session calls",
            report.session_calls() as f64,
        ));
        rows.push(Row::new(series, sessions, "wall µs", wall));
    }
    f3_mixed_serves(world, max_accesses, &mut rows);
    Table {
        id: "F3".to_string(),
        title: format!(
            "Multi-tenant serving at {facts} facts: aggregate throughput and per-session \
             latency vs session count (dedup + shared verdicts)"
        ),
        rows,
    }
}

/// Sessions in F3's mixed serves (as in the benchmark's `serve-exhaustive`).
const MIXED_SESSIONS: usize = 16;

/// F3's mixed serves, shaped like the benchmark's `serve-exhaustive`
/// workload: [`MIXED_SESSIONS`] exhaustive sessions, session `i` running the
/// E5 chain at rotation `i mod 4` under an access cap of its own (one per
/// equal-width stratum of `max_accesses / 4 .. max_accesses`, in a fixed
/// scrambled order), served under the default in-flight limit of 32 and
/// under a contended limit of 4. Identical sessions share every call, so
/// their traffic cannot show in which order the batch joins and the dedup
/// table serve calls; these sessions overlap only in part, and at 4 calls in
/// flight the order in which calls reach the admission semaphore decides
/// which session leads a call and which joins it, so the count rows pin it.
fn f3_mixed_serves(world: &fixtures::FederationWorld, max_accesses: usize, rows: &mut Vec<Row>) {
    let low = max_accesses / 4;
    let requests: Vec<RunRequest> = (0..MIXED_SESSIONS)
        .map(|i| {
            // 7 is coprime with 16: a permutation of the strata.
            let stratum = (i * 7) % MIXED_SESSIONS;
            let cap = low + stratum * (max_accesses - low) / MIXED_SESSIONS;
            RunRequest::new(world.chain_query(i % 4))
                .with_strategy(Strategy::Exhaustive)
                .with_options(RunOptions {
                    max_accesses: cap,
                    stop_when_certain: false,
                    batch_size: 16,
                    workers: 8,
                    speculation: SpeculationMode::CachedOnly,
                    ..RunOptions::default()
                })
        })
        .collect();
    let series = "E5 serving (16 mixed exhaustive sessions)";
    for in_flight in [32, 4] {
        let fixture = fixtures::async_federation_fixture_from(world, 100);
        let registry = QuerySessionRegistry::with_options(
            &fixture.federation,
            ServingOptions {
                max_sessions: MIXED_SESSIONS,
                max_in_flight_accesses: in_flight,
            },
        );
        let start = Instant::now();
        let report = registry.serve(&requests, &fixture.initial);
        let wall = start.elapsed().as_secs_f64() * 1e6;
        let batch_total = |stat: fn(&BatchStats) -> usize| -> f64 {
            report
                .sessions
                .iter()
                .map(|s| stat(&s.report.batch_stats))
                .sum::<usize>() as f64
        };
        let mut push = |metric: &str, value: f64| {
            rows.push(Row::new(series, in_flight, metric, value));
        };
        push("accesses", report.total_accesses() as f64);
        push("wire calls", report.wire_calls as f64);
        push("joined calls", report.joined_calls as f64);
        push("session calls", report.session_calls() as f64);
        push("batches", batch_total(|b| b.batches));
        push("wasted prefetches", batch_total(|b| b.speculative_wasted));
        push("p50 session µs", report.latency_percentile(0.5) as f64);
        push("wall µs", wall);
    }
}

/// F4 — the answers-unchanged-under-churn sweep: the E5 world behind a
/// primary/replica federation, run under two churn regimes (a mid-run kill
/// of the primary; a mid-run flip of the primary into retry-exhausting
/// flakiness) and diffed against the chaos-free sequential oracle. The
/// headline row per regime is `answers unchanged` — 1.0 exactly when the
/// access sequence, answers, certain-verdict and final configuration are
/// byte-for-byte the oracle's — alongside the failover rate and the breaker
/// ledger (trips, open-circuit skips, dead-source skips) that show the
/// resilience machinery actually engaged rather than the script never
/// firing.
///
/// Batches are fetched by a single worker: with several, concurrent calls
/// race on the shared circuit breaker, and the ledger rows (open-circuit
/// skips in particular) vary from run to run. Batches of 8 still exercise
/// prefetching, failover and the breaker.
pub fn f4_chaos_sweep(world: &fixtures::FederationWorld, max_accesses: usize) -> Table {
    let facts = world.facts();
    let mut rows = Vec::new();
    let oracle_source = fixtures::world_oracle_source(world);
    let regimes: [(&str, ChurnScript); 2] = [
        (
            "killed primary",
            ChurnScript::builder().kill(40, "provider-a").build(),
        ),
        (
            "flaky primary",
            ChurnScript::builder()
                .set_flaky(
                    40,
                    "provider-a",
                    Some(FlakyModel {
                        period: 1,
                        fail_attempts: 4,
                        retries: 1,
                    }),
                )
                .build(),
        ),
    ];
    for (series, script) in regimes {
        let fixture = fixtures::chaos_federation_fixture_from(world, script, 5);
        let options = RunOptions {
            max_accesses,
            stop_when_certain: false,
            batch_size: 8,
            workers: 1,
            speculation: SpeculationMode::CachedOnly,
            ..RunOptions::default()
        };
        let request = RunRequest::new(fixture.query.clone())
            .with_strategy(Strategy::Exhaustive)
            .with_options(options);
        let start = Instant::now();
        let report = Threaded::new(&fixture.federation).execute(&request, &fixture.initial);
        let wall = start.elapsed().as_secs_f64() * 1e6;
        let oracle = Sequential::new(&oracle_source).execute(&request, &fixture.initial);
        let unchanged = report.access_sequence == oracle.access_sequence
            && report.answers == oracle.answers
            && report.certain == oracle.certain
            && report
                .final_configuration
                .same_facts(&oracle.final_configuration);
        rows.push(Row::new(
            series,
            facts,
            "answers unchanged",
            if unchanged { 1.0 } else { 0.0 },
        ));
        rows.push(Row::new(
            series,
            facts,
            "accesses",
            report.accesses_made as f64,
        ));
        rows.push(Row::new(
            series,
            facts,
            "failover rate",
            report.source_stats.failovers as f64 / report.accesses_made.max(1) as f64,
        ));
        rows.push(Row::new(
            series,
            facts,
            "churn events",
            report.source_stats.churn_events as f64,
        ));
        rows.push(Row::new(
            series,
            facts,
            "breaker trips",
            report.source_stats.breaker_trips as f64,
        ));
        rows.push(Row::new(
            series,
            facts,
            "open-circuit skips",
            report.source_stats.short_circuited as f64,
        ));
        rows.push(Row::new(
            series,
            facts,
            "dead skips",
            report.source_stats.dead_skips as f64,
        ));
        rows.push(Row::new(
            series,
            facts,
            "wall µs/access",
            wall / report.accesses_made.max(1) as f64,
        ));
    }
    Table {
        id: "F4".to_string(),
        title: format!(
            "Chaos sweep at {facts} facts: answers unchanged under primary churn \
             (replica failover + circuit breakers)"
        ),
        rows,
    }
}

/// Runs every experiment at harness scale and returns the tables. The E5
/// and F1 sweeps reach 10⁶ facts — the copy-on-write sharded store keeps
/// the bulk load (one `extend_facts` pass) and the per-round configuration
/// growth affordable at that size.
pub fn run_all() -> Vec<Table> {
    let world = fixtures::federation_world(1_000_000);
    vec![
        e1_immediate(&[1, 2, 3, 4, 5, 6], 5),
        e2_ltr_independent(&[1, 2, 3, 4, 5], 3),
        e3_dependent_cq(&[1, 2, 3, 4], 3),
        e4_dependent_pq(&[1, 2, 3, 4, 5], 3),
        e5_data_complexity(&[10, 100, 1_000, 10_000, 100_000, 1_000_000], 3),
        e6_tractable_cases(&[10, 100, 1000], 5),
        e7_engine_ablation(3),
        e8_reductions(3),
        s1_store_ops(&[100_000, 1_000_000], 3),
        f1_federation_sweep(&world, 96, &[1, 2, 4, 8, 16, 32]),
        f2_async_sweep(&world, 96, 16, &[1, 2, 4, 8, 16]),
        f3_serving_sweep(&world, 96, &[1, 4, 16, 64]),
        f4_chaos_sweep(&world, 96),
    ]
}

/// Runs every experiment at its smallest fixture sizes — the CI smoke pass
/// that records the perf trajectory. The E and S rows take the median of 5
/// samples after [`median_micros`]' untimed warm-up call: a single sample
/// of a few-µs row follows the binary's code layout more than its code
/// path. The F tables time whole runs, once. E5 tops out at 10⁵ facts here
/// (10⁶ is the `run_million` job's scale).
pub fn run_smoke() -> Vec<Table> {
    const REPEATS: usize = 5;
    let world = fixtures::federation_world(10_000);
    vec![
        e1_immediate(&[1, 2], REPEATS),
        e2_ltr_independent(&[1, 2], REPEATS),
        e3_dependent_cq(&[1, 2], REPEATS),
        e4_dependent_pq(&[1, 2], REPEATS),
        e5_data_complexity(&[10, 50, 100_000], REPEATS),
        e6_tractable_cases(&[10, 100], REPEATS),
        e7_engine_ablation(REPEATS),
        e8_reductions(REPEATS),
        s1_store_ops(&[100_000], REPEATS),
        f1_federation_sweep(&world, 48, &[1, 4, 16]),
        f2_async_sweep(&world, 48, 16, &[1, 2, 4, 8]),
        f3_serving_sweep(&world, 48, &[1, 4, 16]),
        f4_chaos_sweep(&world, 48),
    ]
}

/// Per-mode re-check totals asserted by `harness --check-invalidation`
/// (a blocking CI step).
#[derive(Debug, Clone, Copy)]
pub struct InvalidationSavings {
    /// Bank workload total re-checks under exact read-set invalidation.
    pub bank_exact: usize,
    /// Bank workload total re-checks under the relation-level baseline.
    pub bank_relation: usize,
    /// E5 adom-flooding chain total re-checks under precise invalidation.
    pub e5_precise: usize,
    /// E5 adom-flooding chain total re-checks under exact invalidation.
    pub e5_exact: usize,
    /// E5 adom-flooding chain total re-checks under the baseline.
    pub e5_relation: usize,
}

/// The bank setup of `harness --check-invalidation`: a Hybrid run of the
/// dependent-method bank scenario that never stops at certainty.
fn bank_invalidation_run(invalidation: InvalidationMode) -> RunReport {
    let scenario = accrel_engine::scenarios::bank_scenario();
    let source = DeepWebSource::new(
        scenario.instance.clone(),
        scenario.methods.clone(),
        ResponsePolicy::Exact,
    );
    let request = RunRequest::new(scenario.query.clone())
        .with_strategy(Strategy::Hybrid)
        .with_options(RunOptions {
            stop_when_certain: false,
            invalidation,
            ..RunOptions::default()
        });
    Sequential::new(&source).execute(&request, &scenario.initial_configuration)
}

/// The flooding-chain setup of `harness --check-invalidation`: a Hybrid run
/// of 60 accesses over `adom_flooding_chain(64, 12)` under the shallow
/// 600-valuation budget.
fn flood_invalidation_run(invalidation: InvalidationMode) -> RunReport {
    let flood = fixtures::adom_flooding_chain(64, 12);
    let source = DeepWebSource::new(
        flood.instance.clone(),
        flood.methods.clone(),
        ResponsePolicy::Exact,
    );
    let request = RunRequest::new(flood.query.clone())
        .with_strategy(Strategy::Hybrid)
        .with_options(RunOptions {
            max_accesses: 60,
            stop_when_certain: false,
            invalidation,
            budget: accrel_core::SearchBudget::shallow().with_max_valuations(600),
            ..RunOptions::default()
        });
    Sequential::new(&source).execute(&request, &flood.initial)
}

/// The CI assertion behind `harness --check-invalidation`, two workloads
/// deep. On the dependent-method bank scenario — whose value-specific reads
/// give exact invalidation the most to keep — the exact mode must re-run
/// **strictly fewer** decision procedures than the relation-level baseline.
/// On the E5 adom-flooding chain — where nearly every response introduces
/// fresh values, so any verdict whose search walked a whole active domain
/// is evicted — the **precise** mode's per-domain prefix reads must still
/// save strictly, with the re-check totals ordered precise ≤ exact ≤
/// relation-level. Exact ties precise there today: the chain's dead-end
/// accesses, whose budget-exhausting searches once gave exact a coarse
/// adom read to lose on every insert, are decided without reading the
/// configuration. (The answers are pinned identical by the equivalence
/// suite; this guards the savings themselves.) Returns an error when any
/// saving vanished or the ordering broke.
pub fn check_invalidation_savings() -> Result<InvalidationSavings, String> {
    let bank = |mode| bank_invalidation_run(mode).relevance_cache_misses;
    let chain = |mode| flood_invalidation_run(mode).relevance_cache_misses;
    let savings = InvalidationSavings {
        bank_exact: bank(InvalidationMode::Exact),
        bank_relation: bank(InvalidationMode::RelationLevel),
        e5_precise: chain(InvalidationMode::Precise),
        e5_exact: chain(InvalidationMode::Exact),
        e5_relation: chain(InvalidationMode::RelationLevel),
    };
    if savings.bank_exact >= savings.bank_relation {
        return Err(format!(
            "exact read-set invalidation no longer saves re-checks on the dependent-method \
             bank workload: {} decision procedures re-run (exact) vs {} (relation-level)",
            savings.bank_exact, savings.bank_relation
        ));
    }
    if savings.e5_precise > savings.e5_exact || savings.e5_exact > savings.e5_relation {
        return Err(format!(
            "invalidation re-check totals out of order on the E5 adom-flooding chain: \
             {} (precise) vs {} (exact) vs {} (relation-level) — precise ≤ exact ≤ \
             relation-level must hold",
            savings.e5_precise, savings.e5_exact, savings.e5_relation
        ));
    }
    if savings.e5_precise >= savings.e5_relation {
        return Err(format!(
            "precise invalidation no longer saves re-checks on the E5 adom-flooding chain: \
             {} decision procedures re-run (precise) vs {} (relation-level)",
            savings.e5_precise, savings.e5_relation
        ));
    }
    Ok(savings)
}

/// The million-fact job: the E5 data-complexity point, the S1 store table
/// and the F1 (threaded), F2 (async, virtual-clock), F3 (multi-tenant
/// serving) and F4 (chaos) sweeps at 10⁶ facts, once each — the
/// non-blocking CI step compares the resulting JSON against
/// `BENCH_million_baseline.json`, whose key set matches this job's, and
/// uploads it.
pub fn run_million() -> Vec<Table> {
    let world = fixtures::federation_world(1_000_000);
    vec![
        e5_data_complexity(&[1_000_000], 1),
        s1_store_ops(&[1_000_000], 1),
        f1_federation_sweep(&world, 48, &[8]),
        f2_async_sweep(&world, 48, 16, &[4, 8]),
        f3_serving_sweep(&world, 48, &[1, 4, 16, 64]),
        f4_chaos_sweep(&world, 48),
    ]
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a set of experiment tables as a stable JSON document (the
/// `BENCH_smoke.json` artefact produced by `harness --smoke`).
pub fn tables_to_json(mode: &str, tables: &[Table]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(mode)));
    out.push_str("  \"tables\": [\n");
    for (ti, table) in tables.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"rows\": [\n",
            json_escape(&table.id),
            json_escape(&table.title)
        ));
        for (ri, row) in table.rows.iter().enumerate() {
            let row_sep = if ri + 1 == table.rows.len() { "" } else { "," };
            out.push_str(&format!(
                "      {{\"series\": \"{}\", \"parameter\": \"{}\", \"metric\": \"{}\", \"value\": {}}}{}\n",
                json_escape(&row.series),
                json_escape(&row.parameter),
                json_escape(&row.metric),
                if row.value.is_finite() {
                    format!("{:.3}", row.value)
                } else {
                    "null".to_string()
                },
                row_sep
            ));
        }
        let table_sep = if ti + 1 == tables.len() { "" } else { "," };
        out.push_str(&format!("    ]}}{table_sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every invalidation counter of the two `--check-invalidation` setups,
    /// under all three modes: `(relevance_cache_misses, reads_tracked,
    /// evictions, events_drained)`. `check_invalidation_savings` checks
    /// only the orderings; this pins the values, so a change to how reads
    /// are recorded, counted or evicted shows up here first.
    #[test]
    fn invalidation_counters_are_pinned() {
        let modes = [
            InvalidationMode::Precise,
            InvalidationMode::Exact,
            InvalidationMode::RelationLevel,
        ];
        let counters = |r: RunReport| {
            (
                r.relevance_cache_misses,
                r.reads_tracked,
                r.evictions,
                r.events_drained,
            )
        };
        let bank = modes.map(|m| counters(bank_invalidation_run(m)));
        assert_eq!(bank, [(32, 132, 24, 11), (32, 110, 24, 11), (63, 0, 59, 0)]);
        let chain = modes.map(|m| counters(flood_invalidation_run(m)));
        assert_eq!(
            chain,
            [(137, 403, 0, 16), (137, 360, 43, 16), (272, 0, 195, 0)]
        );
    }

    #[test]
    fn rows_and_tables_render() {
        let table = Table {
            id: "E0".to_string(),
            title: "smoke".to_string(),
            rows: vec![Row::new("s", 1, "m", 2.5)],
        };
        let md = table.to_markdown();
        assert!(md.contains("### E0"));
        assert!(md.contains("| s | 1 | m | 2.500 |"));
    }

    #[test]
    fn median_micros_is_positive() {
        let t = median_micros(3, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn median_micros_makes_one_untimed_call_first() {
        for repeats in [1, 3] {
            let mut calls = 0;
            median_micros(repeats, || calls += 1);
            assert_eq!(calls, repeats + 1);
        }
    }

    #[test]
    fn tables_render_as_json() {
        let tables = vec![Table {
            id: "E0".to_string(),
            title: "smoke \"quoted\"".to_string(),
            rows: vec![Row::new("s", 1, "m", 2.5)],
        }];
        let json = tables_to_json("smoke", &tables);
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("smoke \\\"quoted\\\""));
        assert!(json.contains("\"value\": 2.500"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn small_experiments_run() {
        // Per series and size: the timing, the verdict and the reads.
        let t1 = e1_immediate(&[1, 2], 1);
        assert_eq!(t1.rows.len(), 24);
        let t2 = e2_ltr_independent(&[1, 2], 1);
        assert_eq!(t2.rows.len(), 12);
        // Both E3 series at depth 1, then the width-2 encoding's rows.
        let t3 = e3_dependent_cq(&[1], 1);
        assert_eq!(t3.rows.len(), 9);
        let t4 = e4_dependent_pq(&[1], 1);
        assert_eq!(t4.rows.len(), 3);
        let t5 = e5_data_complexity(&[5, 10], 1);
        assert_eq!(t5.rows.len(), 16);
        assert!(t5.rows.iter().any(|r| r.metric == "count" && r.value > 0.0));
        let t8 = e8_reductions(1);
        assert_eq!(t8.rows.len(), 6);
        assert!(t8.rows.iter().any(|r| r.metric == "bool" && r.value == 1.0));
    }

    #[test]
    fn federation_sweep_reports_effective_batching() {
        // A scaled-down F1 (10³ facts to keep the test quick): batch size 4
        // must report a mean batch above 1 on the exhaustive run.
        let table = f1_federation_sweep(&fixtures::federation_world(1_000), 24, &[1, 4]);
        assert_eq!(table.id, "F1");
        let mean_batch_at = |batch: &str| {
            table
                .rows
                .iter()
                .find(|r| r.metric == "mean batch" && r.parameter == batch)
                .map(|r| r.value)
                .expect("mean batch row present")
        };
        assert!((mean_batch_at("1") - 1.0).abs() < 1e-9);
        assert!(mean_batch_at("4") > 1.0, "batching must be effective");
        // Copy-on-write observability: the batched runs report their shard
        // copies.
        assert!(table.rows.iter().any(|r| r.metric == "shard copies"));
    }

    /// Acceptance pin: at the 10⁴-fact E5 fixture, raising the in-flight
    /// limit must shrink the virtual-clock makespan per access — throughput
    /// scales with the limit, with zero real sleeps anywhere in the run
    /// (the whole sweep takes wall milliseconds despite simulating
    /// 100–200µs round trips).
    #[test]
    fn async_sweep_throughput_scales_with_in_flight_limit() {
        let table = f2_async_sweep(&fixtures::federation_world(10_000), 48, 16, &[1, 4]);
        assert_eq!(table.id, "F2");
        let metric_at = |metric: &str, in_flight: &str| {
            table
                .rows
                .iter()
                .find(|r| {
                    r.series == "E5 async federation (exhaustive)"
                        && r.metric == metric
                        && r.parameter == in_flight
                })
                .map(|r| r.value)
                .unwrap_or_else(|| panic!("row {metric}@{in_flight} present"))
        };
        // The run itself is identical at every limit (same merge loop, same
        // deterministic sources) — only the simulated makespan moves.
        assert_eq!(metric_at("accesses", "1"), metric_at("accesses", "4"));
        assert!(metric_at("accesses", "1") > 0.0);
        assert_eq!(
            metric_at("source calls", "1"),
            metric_at("source calls", "4")
        );
        let serial = metric_at("virtual µs/access", "1");
        let overlapped = metric_at("virtual µs/access", "4");
        assert!(serial > 0.0);
        assert!(
            overlapped < serial,
            "virtual µs/access must drop when 4 calls overlap: {overlapped} vs {serial}"
        );
        // Batching is effective, so there is something to overlap.
        assert!(metric_at("mean batch", "4") > 1.0);
    }

    /// Acceptance pin: the F4 chaos sweep reports `answers unchanged = 1`
    /// under every churn regime — and the churn genuinely engaged (events
    /// fired, the killed run failed over past a dead source, the flaky run
    /// tripped breakers), so the 1.0 is not a vacuous no-churn pass.
    #[test]
    fn chaos_sweep_answers_survive_churn() {
        let table = f4_chaos_sweep(&fixtures::federation_world(1_000), 24);
        assert_eq!(table.id, "F4");
        let metric_of = |series: &str, metric: &str| {
            table
                .rows
                .iter()
                .find(|r| r.series == series && r.metric == metric)
                .map(|r| r.value)
                .unwrap_or_else(|| panic!("row {series}/{metric} present"))
        };
        for series in ["killed primary", "flaky primary"] {
            assert_eq!(
                metric_of(series, "answers unchanged"),
                1.0,
                "{series}: churn must not change answers"
            );
            assert!(
                metric_of(series, "churn events") > 0.0,
                "{series}: the script must fire"
            );
            assert!(
                metric_of(series, "failover rate") > 0.0,
                "{series}: failed primary calls must fail over"
            );
        }
        assert!(metric_of("killed primary", "dead skips") > 0.0);
        assert!(metric_of("flaky primary", "breaker trips") > 0.0);
    }

    /// Acceptance pin: with deduplication on, identical concurrent sessions
    /// share wire calls — so aggregate throughput (virtual µs per applied
    /// access) improves with the session count while wire calls grow
    /// sublinearly.
    #[test]
    fn serving_sweep_shares_wire_calls_across_sessions() {
        let table = f3_serving_sweep(&fixtures::federation_world(1_000), 24, &[1, 4]);
        assert_eq!(table.id, "F3");
        let metric_at = |metric: &str, sessions: &str| {
            table
                .rows
                .iter()
                .find(|r| r.metric == metric && r.parameter == sessions)
                .map(|r| r.value)
                .unwrap_or_else(|| panic!("row {metric}@{sessions} present"))
        };
        // Four identical sessions ask for 4× the accesses…
        assert_eq!(
            metric_at("session calls", "4"),
            4.0 * metric_at("session calls", "1")
        );
        // …but dedup keeps the wire traffic sublinear, so the simulated
        // makespan per applied access falls.
        assert!(metric_at("wire calls", "4") < 4.0 * metric_at("wire calls", "1"));
        assert!(metric_at("virtual µs/access", "4") < metric_at("virtual µs/access", "1"));
        // Percentiles are ordered and populated.
        assert!(metric_at("p50 session µs", "4") <= metric_at("p95 session µs", "4"));
        assert!(metric_at("p50 session µs", "1") > 0.0);
    }
}
