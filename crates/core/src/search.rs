//! Shared witness-search machinery: the charge step and grounding of the
//! join-driven searches, valuation enumeration and producibility planning
//! ("crayfish chase" supporting chains).
//!
//! Both containment under access limitations and dependent long-term
//! relevance look for a *witness*: a homomorphic image of (a disjunct of)
//! the witnessed query made of facts that can be produced by a well-formed
//! access path, possibly together with auxiliary *value-generator* facts
//! whose only purpose is to make an input value of the right abstract domain
//! accessible. This module provides:
//!
//! * [`Charge`] and [`ground_with_fresh_nulls`] — the steps immediate
//!   relevance and independent long-term relevance share when they drive
//!   the join kernel (`accrel_query::eval::Join`): charging an atom to the
//!   access, and grounding a witness's unbound variables with fresh nulls;
//! * [`find_valuation`] — a visitor over candidate assignments of a
//!   disjunct's variables to configuration constants, caller-supplied extra
//!   values, or shared fresh nulls (restricted-growth enumeration so that
//!   null sharing patterns are covered exactly once). It runs the caller's
//!   per-valuation check as it goes and stops at the first witness, so a
//!   search pays only for the valuations it visits, and it records the
//!   active-domain prefix it actually walked;
//! * [`plan_production`] — given a set of needed facts and a set of already
//!   accessible `(value, domain)` pairs, find an ordering, an access-method
//!   assignment and auxiliary generator chains that produce all of them by
//!   well-formed accesses, within a [`SearchBudget`];
//! * [`find_witness`] — Section 5's search for one disjunct, which both
//!   containment and dependent long-term relevance run: the valuation walk,
//!   the split of each image into the facts an initial access returns and
//!   those later accesses must produce, and the producibility plans of the
//!   later facts, each handed to the caller's witness check.

use std::collections::{HashMap, HashSet, VecDeque};

use accrel_access::{
    Access, AccessMethod, AccessMethodId, AccessMethods, AccessMode, AccessPath, Binding, Response,
};
use accrel_query::eval::Join;
use accrel_query::{Atom, ConjunctiveQuery, Query, Term, Valuation, VarId};
use accrel_schema::{Configuration, DomainId, FreshSupply, RelationId, Tuple, Value, ValueId};

use crate::budget::SearchBudget;

/// A value made available to the valuation enumeration beyond the
/// configuration's active domain (e.g. the outputs of the initial access in
/// the dependent-LTR search), together with the abstract domain it carries.
pub(crate) type ExtraValue = (Value, DomainId);

/// Whether `atom` can be charged to `access`, a call to `method`, under
/// some valuation: it is on the accessed relation and the [`Charge`] step
/// accepts it with nothing bound. So each constant at an input place
/// equals the binding value there, and no variable sits at two input places
/// whose binding values differ. A valuation only adds constraints, so an
/// atom that fails here fails under every valuation; and since every tuple
/// of a response holds the binding at the input places, no other atom ever
/// maps onto one. Decided without building that valuation: it runs before
/// every IR check, certain queries included.
pub(crate) fn is_chargeable(atom: &Atom, access: &Access, method: &AccessMethod) -> bool {
    let (inputs, binding) = (method.input_positions(), access.binding());
    let bound_at = |pos: usize, k: usize| Some((atom.term_at(pos)?, binding.get(k)?));
    atom.relation() == method.relation()
        && inputs
            .iter()
            .enumerate()
            .all(|(k, &pos)| match bound_at(pos, k) {
                None => false,
                Some((Term::Const(c), bound)) => c == bound,
                // The variable's first input place binds it.
                Some((var, bound)) => inputs
                    .iter()
                    .enumerate()
                    .find(|&(_, &p)| atom.term_at(p) == Some(var))
                    .is_some_and(|(j, _)| binding.get(j) == Some(bound)),
            })
}

/// Whether some atom of some disjunct of `query` is chargeable to `access`
/// ([`is_chargeable`]): when none is, no response to `access` can be the
/// image of a query atom. Reads only the query, the method and the binding.
pub(crate) fn charges_some_atom(query: &Query, access: &Access, method: &AccessMethod) -> bool {
    query
        .ucq()
        .iter()
        .any(|d| d.atoms().iter().any(|a| is_chargeable(a, access, method)))
}

/// The one charge step, for the searches that drive a [`Join`] (immediate
/// and independent long-term relevance, the Proposition 4.3 test): charging
/// an atom to the access binds its input places, those of the accessed
/// method, to the binding's ids, resolved at the first charge (a search
/// often ends before one). Output places stay free, and nothing is read.
/// The callers check the binding's arity first.
pub(crate) struct Charge<'a> {
    access: &'a Access,
    method: &'a AccessMethod,
    inputs: Option<Vec<(usize, ValueId)>>,
}

impl<'a> Charge<'a> {
    /// The charge step for `access`, a call to `method`.
    pub(crate) fn new(access: &'a Access, method: &'a AccessMethod) -> Self {
        Self {
            access,
            method,
            inputs: None,
        }
    }

    /// Charges atom `i` of `join`: whether that agrees with the join's
    /// bindings. On a mismatch (a constant other than the bound value, or a
    /// variable taking two values, also within the atom: `R(x, x)` is never
    /// charged to the binding `(a, b)`) nothing is bound.
    pub(crate) fn apply(&mut self, join: &mut Join<'a>, i: usize) -> bool {
        let (access, method) = (self.access, self.method);
        let inputs = self.inputs.get_or_insert_with(|| {
            let values = access.binding().values();
            let inputs = method.input_positions().iter().zip(values);
            inputs.map(|(&pos, v)| (pos, join.id(v))).collect()
        });
        join.unify_at(i, inputs)
    }
}

/// `valuation` grounded on `atoms`: every variable of the atoms it leaves
/// unbound gets a distinct fresh null of `conf`, in order of first
/// occurrence, so which null a variable gets does not depend on hashing. A
/// fresh null is a value `conf` does not hold; by monotonicity it is the
/// weakest value a witness can give a variable that no choice bound.
pub(crate) fn ground_with_fresh_nulls(
    atoms: &[Atom],
    valuation: Valuation,
    conf: &Configuration,
) -> HashMap<VarId, Value> {
    let mut fresh = conf.fresh_supply();
    let mut full = valuation.into_map();
    for term in atoms.iter().flat_map(Atom::terms) {
        if let Term::Var(v) = term {
            full.entry(*v).or_insert_with(|| fresh.next_value());
        }
    }
    full
}

/// The accessible `(value, domain)` pool of a witness search: the
/// configuration's active domain overlaid with the values an initial
/// response or an already-planned fact has made accessible.
///
/// The producibility planner asks three questions of it: "is this concrete
/// pair accessible", "what is the least accessible value of domain `d`", and
/// "is domain `d` populated at all". The pool answers exactly those and
/// records exactly those reads: membership probes that miss the overlay
/// route through the recorded [`Configuration::adom_contains`]; a domain's
/// least value and its emptiness come from the store's value order of the
/// domain (`FactStore::domain_order_untracked`) and are recorded at use
/// time via [`Configuration::rec_adom_walk`] (a prefix read bounded by
/// the returned minimum, or a whole-domain read when the domain was
/// observed empty); overlay hits touch the store not at all. Every answer is
/// stable under monotone growth of reads the pool did not record.
///
/// The pool borrows its configuration, so the configuration cannot grow
/// while a pool built from it is alive.
#[derive(Debug, Clone)]
pub(crate) struct AdomPool<'c> {
    /// The configuration whose active domain the pool extends; probes that
    /// miss the overlay are recorded on it.
    conf: &'c Configuration,
    /// Values made accessible on top of `Adom(Conf)` (response tuples,
    /// generator-chain outputs). Membership here never touches the store.
    overlay: HashSet<(Value, DomainId)>,
}

impl<'c> AdomPool<'c> {
    /// The pool over `conf`'s active domain with an empty overlay.
    pub(crate) fn of(conf: &'c Configuration) -> Self {
        Self {
            conf,
            overlay: HashSet::new(),
        }
    }

    /// The pool over `conf`'s active domain with `pairs` as its overlay.
    #[cfg(test)]
    pub(crate) fn from_pairs(conf: &'c Configuration, pairs: HashSet<(Value, DomainId)>) -> Self {
        Self {
            conf,
            overlay: pairs,
        }
    }

    /// Makes `(value, domain)` accessible.
    pub(crate) fn insert(&mut self, value: Value, domain: DomainId) {
        self.overlay.insert((value, domain));
    }

    /// The overlay pairs — the values accessible beyond `Adom(Conf)`.
    pub(crate) fn overlay(&self) -> &HashSet<(Value, DomainId)> {
        &self.overlay
    }

    /// Is `(value, domain)` accessible? Overlay hits are free; everything
    /// else is a recorded point probe of the active domain.
    pub(crate) fn contains(&self, value: &Value, domain: DomainId) -> bool {
        if self.overlay.contains(&(value.clone(), domain)) {
            return true;
        }
        self.conf.adom_contains(value, domain)
    }

    /// Whether `Adom(Conf)` holds a value of `domain`, unrecorded.
    fn conf_has(&self, domain: DomainId) -> bool {
        let runs = self.conf.store().domain_order_untracked(domain);
        runs.iter().any(|run| !run.is_empty())
    }

    /// The least accessible value of `domain`, recording the walk: a prefix
    /// read bounded by the returned minimum (only a value sorting strictly
    /// below it changes the answer), or a whole-domain read when the domain
    /// was observed empty.
    pub(crate) fn min_value(&self, domain: DomainId) -> Option<Value> {
        let store = self.conf.store();
        let runs = store.domain_order_untracked(domain);
        let firsts = runs.into_iter().filter_map(|run| run.first());
        let overlay = self.overlay.iter().filter(|(_, d)| *d == domain);
        let min = overlay
            .map(|(v, _)| v)
            .chain(firsts.map(|&id| store.interner().resolve(id)))
            .min();
        self.conf.rec_adom_walk(domain, min);
        min.cloned()
    }

    /// Is any value of `domain` accessible? A positive answer is stable
    /// under growth and records nothing; a negative one flips as soon as a
    /// value enters the domain and records a whole-domain read.
    pub(crate) fn has_domain(&self, domain: DomainId) -> bool {
        let populated = self.conf_has(domain) || self.overlay.iter().any(|(_, d)| *d == domain);
        if !populated {
            self.conf.rec_adom_walk(domain, None);
        }
        populated
    }

    /// The set of populated domains. Presence is stable under growth;
    /// absence is recorded as a whole-domain read for every schema domain
    /// the pool observed empty.
    pub(crate) fn domains(&self) -> HashSet<DomainId> {
        let mut populated: HashSet<DomainId> = self.overlay.iter().map(|(_, d)| *d).collect();
        for i in 0..self.conf.schema().domains().len() {
            let d = DomainId(i as u32);
            if self.conf_has(d) {
                populated.insert(d);
            } else if !populated.contains(&d) {
                self.conf.rec_adom_walk(d, None);
            }
        }
        populated
    }
}

/// Visits candidate valuations of `cq`'s variables in enumeration order and
/// returns the first `Some` that `visit` produces, without visiting the
/// valuations after it.
///
/// Every variable may map to:
/// * a constant of the configuration's active domain carrying the variable's
///   inferred abstract domain;
/// * one of `extra` whose domain matches;
/// * a fresh null, possibly shared with other variables of the same domain
///   (sharing patterns are enumerated canonically: the i-th variable of a
///   domain may reuse any null already introduced for that domain or open a
///   new one).
///
/// A variable with no inferred domain takes any value of the active domain
/// or of `extra`. Constants are tried in value order: per domain, the
/// store's value order of the domain (`FactStore::domain_order_untracked`)
/// merged with the extra values of that domain, one list that every
/// variable of the domain borrows.
///
/// At most `limit` valuations are visited. Fresh nulls are drawn from
/// `fresh` in depth-first order, the first time a null slot is used, so they
/// are globally distinct from any other null in play. `visit` receives the
/// valuation and the supply as it stands after that valuation's nulls were
/// drawn: a supply cloned from it invents values above every value of the
/// valuation.
///
/// Once the walk ends, the active-domain reads it made are recorded on
/// `conf`: per typed domain a visited-prefix read when every traversal of
/// that domain's candidate list was cut — by `limit` or by the stop at a
/// witness — and a whole-domain read when some traversal ran off the end of
/// the list.
pub(crate) fn find_valuation<T>(
    cq: &ConjunctiveQuery,
    conf: &Configuration,
    extra: &[ExtraValue],
    fresh: &mut FreshSupply,
    limit: usize,
    mut visit: impl FnMut(&HashMap<VarId, Value>, &FreshSupply) -> Option<T>,
) -> Option<T> {
    let (vars, domains) = typed_variables(cq);
    if vars.is_empty() {
        return visit(&HashMap::new(), fresh);
    }
    // Candidate constants: one sorted, duplicate-free list per domain, which
    // the domain's variables share. Untyped variables draw from every
    // domain at once, deduplicated across domains. Nothing is recorded
    // here: what the walk consulted is recorded once it ends.
    let mut untyped: Vec<Value> = Vec::new();
    if domains.contains(&None) {
        untyped.extend(conf.active_domain_untracked().into_iter().map(|(v, _)| v));
        untyped.extend(extra.iter().map(|(v, _)| v.clone()));
        untyped.sort();
        untyped.dedup();
    }
    let mut lists: Vec<(Option<DomainId>, Vec<&Value>)> = Vec::new();
    for &d in &domains {
        if lists.iter().any(|(e, _)| *e == d) {
            continue;
        }
        let list = match d {
            Some(d) => {
                let store = conf.store();
                let runs = store.domain_order_untracked(d).into_iter().flatten();
                let mut list: Vec<&Value> = runs.map(|&id| store.interner().resolve(id)).collect();
                list.extend(extra.iter().filter(|(_, e)| *e == d).map(|(v, _)| v));
                // Two sorted runs and a few extras: the sort merges them.
                list.sort();
                list.dedup();
                list
            }
            None => untyped.iter().collect(),
        };
        lists.push((d, list));
    }
    let list_of = |d: &Option<DomainId>| {
        let (_, list) = lists
            .iter()
            .find(|(e, _)| e == d)
            .expect("a list per domain");
        list.as_slice()
    };
    let candidates: Vec<&[&Value]> = domains.iter().map(list_of).collect();
    let mut walk = ValuationWalk {
        vars: &vars,
        domains: &domains,
        candidates: &candidates,
        used_slots: HashMap::new(),
        slot_values: HashMap::new(),
        current: HashMap::new(),
        visited: 0,
        limit,
        found: None,
        stats: vec![VisitStats::default(); vars.len()],
    };
    walk.go(0, fresh, &mut visit);

    // Record what the walk consulted. Candidate lists are sorted and
    // deduplicated, so per typed domain the visited valuations are a
    // function of either the visited prefix (every traversal cut: only a
    // value sorting strictly below the largest visited candidate changes
    // the walk) or the whole domain (some traversal observed the natural end
    // of the list). Untyped variables draw from every domain at once —
    // global fallback.
    for (dom, list) in &lists {
        let (max_pos, completed) = domains
            .iter()
            .zip(&walk.stats)
            .filter(|&(d, _)| d == dom)
            .fold((None, false), |(max_pos, completed), (_, stats)| {
                (max_pos.max(stats.max_pos), completed || stats.completed)
            });
        match dom {
            None if max_pos.is_some() || completed => conf.rec_adom_global(),
            None => {}
            Some(d) if completed => conf.rec_adom_walk(*d, None),
            Some(d) => {
                if let Some(p) = max_pos {
                    conf.rec_adom_walk(*d, Some(list[p]));
                }
            }
        }
    }
    walk.found
}

/// `cq`'s variables in id order, with the abstract domain inferred for each
/// (`None`: untyped).
fn typed_variables(cq: &ConjunctiveQuery) -> (Vec<VarId>, Vec<Option<DomainId>>) {
    let mut vars: Vec<VarId> = cq.variables().into_iter().collect();
    vars.sort();
    let var_domains = cq.infer_var_domains().unwrap_or_default();
    let domains = vars.iter().map(|v| var_domains.get(v).copied()).collect();
    (vars, domains)
}

/// Per-variable visit statistics for the read recorder: the highest
/// candidate-list index the walk entered, and whether some traversal ran off
/// the natural end of the list (as opposed to being cut by the limit or by
/// the stop at a witness — a cut traversal never observed the end, so a
/// prefix read suffices; a completed one observed "no further candidates",
/// which a value sorting above everything visited would falsify).
#[derive(Default, Clone, Copy)]
struct VisitStats {
    max_pos: Option<usize>,
    completed: bool,
}

/// The depth-first state of [`find_valuation`]: restricted-growth fresh-slot
/// indices over per-variable candidate lists.
struct ValuationWalk<'a, T> {
    vars: &'a [VarId],
    /// The inferred domain of each variable (`None`: untyped).
    domains: &'a [Option<DomainId>],
    /// The constant candidates of each variable, sorted.
    candidates: &'a [&'a [&'a Value]],
    /// Fresh-null slots open per domain on the current path.
    used_slots: HashMap<Option<DomainId>, usize>,
    /// The null of each (domain, slot), drawn on first use.
    slot_values: HashMap<(Option<DomainId>, usize), Value>,
    current: HashMap<VarId, Value>,
    visited: usize,
    limit: usize,
    found: Option<T>,
    stats: Vec<VisitStats>,
}

impl<T> ValuationWalk<'_, T> {
    /// Has the walk hit its limit or found a witness?
    fn halted(&self) -> bool {
        self.found.is_some() || self.visited >= self.limit
    }

    fn go(
        &mut self,
        idx: usize,
        fresh: &mut FreshSupply,
        visit: &mut impl FnMut(&HashMap<VarId, Value>, &FreshSupply) -> Option<T>,
    ) {
        if self.halted() {
            return;
        }
        if idx == self.vars.len() {
            self.visited += 1;
            self.found = visit(&self.current, fresh);
            return;
        }
        let v = self.vars[idx];
        let dom = self.domains[idx];
        // Constant choices.
        for (pos, c) in self.candidates[idx].iter().enumerate() {
            if self.halted() {
                // Cut before entering `pos`: the end of the list was never
                // observed on this traversal.
                return;
            }
            let stats = &mut self.stats[idx];
            stats.max_pos = Some(stats.max_pos.map_or(pos, |m| m.max(pos)));
            self.current.insert(v, Value::clone(c));
            self.go(idx + 1, fresh, visit);
        }
        if self.halted() {
            // The cut coincided with the end of the list: still only a
            // prefix was consulted before the walk stopped.
            return;
        }
        self.stats[idx].completed = true;
        // Fresh-null choices: reuse any already-open slot of this domain or
        // open the next one (restricted growth keeps patterns canonical).
        let open = *self.used_slots.get(&dom).unwrap_or(&0);
        for slot in 0..=open {
            if self.halted() {
                return;
            }
            let value = self
                .slot_values
                .entry((dom, slot))
                .or_insert_with(|| fresh.next_value())
                .clone();
            self.current.insert(v, value);
            let bumped = slot == open;
            if bumped {
                self.used_slots.insert(dom, open + 1);
            }
            self.go(idx + 1, fresh, visit);
            if bumped {
                self.used_slots.insert(dom, open);
            }
        }
        self.current.remove(&v);
    }
}

/// Every valuation [`find_valuation`] visits, in order.
#[cfg(test)]
pub(crate) fn enumerate_valuations(
    cq: &ConjunctiveQuery,
    conf: &Configuration,
    extra: &[ExtraValue],
    fresh: &mut FreshSupply,
    limit: usize,
) -> Vec<HashMap<VarId, Value>> {
    let mut out = Vec::new();
    find_valuation(cq, conf, extra, fresh, limit, |h, _| {
        out.push(h.clone());
        None::<()>
    });
    out
}

/// A fact scheduled for production by a witness path, with the access method
/// chosen for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlannedFact {
    /// The relation of the fact.
    pub relation: RelationId,
    /// The tuple of the fact.
    pub tuple: Tuple,
    /// The access method used to produce it.
    pub method: AccessMethodId,
}

/// The result of producibility planning: facts in production order
/// (auxiliary generator facts interleaved where needed).
#[derive(Debug, Clone, Default)]
pub(crate) struct FactPlan {
    /// All produced facts, in order.
    pub ordered: Vec<PlannedFact>,
    /// How many of them are auxiliary generator facts (not part of the
    /// query image).
    pub aux_count: usize,
}

impl FactPlan {
    /// Converts the plan into an access path (each fact produced by one
    /// access returning exactly that fact).
    pub fn to_path(&self, methods: &AccessMethods) -> AccessPath {
        let mut path = AccessPath::new();
        for f in &self.ordered {
            let m = match methods.get(f.method) {
                Ok(m) => m,
                Err(_) => continue,
            };
            let binding: Binding = m
                .input_positions()
                .iter()
                .filter_map(|&p| f.tuple.get(p).cloned())
                .collect::<Vec<Value>>()
                .into_iter()
                .collect();
            path.push(
                Access::new(f.method, binding),
                Response::new(vec![f.tuple.clone()]),
            );
        }
        path
    }

    /// The facts of the plan as `(relation, tuple)` pairs.
    pub fn facts(&self) -> Vec<(RelationId, Tuple)> {
        self.ordered
            .iter()
            .map(|f| (f.relation, f.tuple.clone()))
            .collect()
    }
}

/// Is every input position of `method` satisfiable from `accessible` for the
/// concrete `tuple`? Independent methods are always satisfiable. The
/// dependent inputs are probed in input order, up to the first one missing.
pub(crate) fn inputs_accessible(
    method_id: AccessMethodId,
    tuple: &Tuple,
    methods: &AccessMethods,
    accessible: &AdomPool,
) -> bool {
    let Ok(m) = methods.get(method_id) else {
        return false;
    };
    if m.mode() == AccessMode::Independent {
        return true;
    }
    let schema = methods.schema();
    m.input_positions().iter().all(|&p| {
        let Some(v) = tuple.get(p) else { return false };
        let Ok(d) = schema.domain_of(m.relation(), p) else {
            return false;
        };
        accessible.contains(v, d)
    })
}

/// The missing `(value, domain)` pairs preventing `method` from producing
/// `tuple` given `accessible`.
fn missing_inputs(
    method_id: AccessMethodId,
    tuple: &Tuple,
    methods: &AccessMethods,
    accessible: &AdomPool,
) -> Vec<(Value, DomainId)> {
    let Ok(m) = methods.get(method_id) else {
        return vec![(Value::fresh(u64::MAX), DomainId(u32::MAX))];
    };
    if m.mode() == AccessMode::Independent {
        return Vec::new();
    }
    let schema = methods.schema();
    let mut out = Vec::new();
    for &p in m.input_positions() {
        let Some(v) = tuple.get(p) else { continue };
        let Ok(d) = schema.domain_of(m.relation(), p) else {
            continue;
        };
        if !accessible.contains(v, d) {
            out.push((v.clone(), d));
        }
    }
    out
}

/// Adds every `(value, domain)` pair of a fact to the accessible pool.
pub(crate) fn absorb_fact(
    relation: RelationId,
    tuple: &Tuple,
    methods: &AccessMethods,
    pool: &mut AdomPool,
) {
    let schema = methods.schema();
    let Ok(rel) = schema.relation(relation) else {
        return;
    };
    for (p, v) in tuple.iter().enumerate() {
        if p < rel.arity() {
            pool.insert(v.clone(), rel.domain_at(p));
        }
    }
}

/// A generator chain: a sequence of access methods whose last element has an
/// output position of the target domain, and whose inputs become accessible
/// as the chain unfolds.
#[derive(Debug, Clone)]
struct GeneratorChain {
    methods: Vec<AccessMethodId>,
}

/// Memo for [`find_generator_chains`]: the viable chains depend only on the
/// *target domain* and the *set of accessible domains* (never on the
/// concrete values), so planning is done once per (relation, binding
/// pattern) shape instead of once per stuck fact. Callers create one cache
/// per witness search and thread it through every [`plan_production`] call.
#[derive(Debug, Default)]
pub(crate) struct ChainCache {
    map: HashMap<(DomainId, Vec<DomainId>), Vec<GeneratorChain>>,
}

impl ChainCache {
    /// Creates an empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The chains producing `target` from `base_domains`, computed at most
    /// once per distinct (target, domain-set) key.
    fn chains(
        &mut self,
        target: DomainId,
        base_domains: &HashSet<DomainId>,
        methods: &AccessMethods,
        budget: &SearchBudget,
    ) -> &[GeneratorChain] {
        let mut key_domains: Vec<DomainId> = base_domains.iter().copied().collect();
        key_domains.sort();
        self.map
            .entry((target, key_domains))
            .or_insert_with(|| find_generator_chains(target, base_domains, methods, budget))
    }
}

/// Finds up to `max_alternatives` generator chains (shortest first) that can
/// produce a value of `target` starting from the domains in `base_domains`.
fn find_generator_chains(
    target: DomainId,
    base_domains: &HashSet<DomainId>,
    methods: &AccessMethods,
    budget: &SearchBudget,
) -> Vec<GeneratorChain> {
    let schema = methods.schema();
    // Breadth-first search over (reachable-domain set, chain) states;
    // the state space is tiny (domains are few), so we simply keep a queue
    // of chains and avoid revisiting identical reachable-domain sets more
    // than a few times.
    let mut chains: Vec<GeneratorChain> = Vec::new();
    let mut queue: VecDeque<(HashSet<DomainId>, Vec<AccessMethodId>)> = VecDeque::new();
    queue.push_back((base_domains.clone(), Vec::new()));
    let mut expansions = 0usize;
    while let Some((domains, chain)) = queue.pop_front() {
        if chains.len() >= budget.max_chain_alternatives {
            break;
        }
        if chain.len() >= budget.max_chain_length {
            continue;
        }
        expansions += 1;
        if expansions > 10_000 {
            break;
        }
        for (id, m) in methods.iter() {
            let usable = m.mode() == AccessMode::Independent
                || m.input_positions().iter().all(|&p| {
                    schema
                        .domain_of(m.relation(), p)
                        .map(|d| domains.contains(&d))
                        .unwrap_or(false)
                });
            if !usable {
                continue;
            }
            let outputs = m.output_positions(schema);
            if outputs.is_empty() {
                continue;
            }
            let out_domains: Vec<DomainId> = outputs
                .iter()
                .filter_map(|&p| schema.domain_of(m.relation(), p).ok())
                .collect();
            let mut next_chain = chain.clone();
            next_chain.push(id);
            if out_domains.contains(&target) {
                chains.push(GeneratorChain {
                    methods: next_chain.clone(),
                });
                if chains.len() >= budget.max_chain_alternatives {
                    break;
                }
                continue;
            }
            let mut next_domains = domains.clone();
            let mut grew = false;
            for d in out_domains {
                grew |= next_domains.insert(d);
            }
            if grew {
                queue.push_back((next_domains, next_chain));
            }
        }
    }
    chains
}

/// Materialises a generator chain so that its final fact carries `needed`
/// (a value of domain `target`) at an output position. Returns the chain's
/// facts in production order, or `None` if some input value cannot be
/// chosen.
fn materialise_chain(
    chain: &GeneratorChain,
    needed: &Value,
    target: DomainId,
    accessible: &AdomPool,
    methods: &AccessMethods,
    fresh: &mut FreshSupply,
) -> Option<Vec<PlannedFact>> {
    let schema = methods.schema();
    let mut pool = accessible.clone();
    let mut out = Vec::new();
    for (i, &mid) in chain.methods.iter().enumerate() {
        let m = methods.get(mid).ok()?;
        let rel = schema.relation(m.relation()).ok()?;
        let is_last = i + 1 == chain.methods.len();
        let mut values: Vec<Value> = Vec::with_capacity(rel.arity());
        let mut placed_needed = false;
        for p in 0..rel.arity() {
            let d = rel.domain_at(p);
            if m.input_positions().contains(&p) {
                if m.mode() == AccessMode::Independent {
                    // Free guess: reuse an accessible value if there is one,
                    // otherwise invent a junk value.
                    let candidate = pool.min_value(d);
                    values.push(candidate.unwrap_or_else(|| fresh.next_value()));
                } else {
                    let candidate = pool.min_value(d)?;
                    values.push(candidate);
                }
            } else {
                // Output position.
                if is_last && d == target && !placed_needed {
                    values.push(needed.clone());
                    placed_needed = true;
                } else {
                    values.push(fresh.next_value());
                }
            }
        }
        if is_last && !placed_needed {
            return None;
        }
        let tuple = Tuple::new(values);
        for (p, v) in tuple.iter().enumerate() {
            pool.insert(v.clone(), rel.domain_at(p));
        }
        out.push(PlannedFact {
            relation: m.relation(),
            tuple,
            method: mid,
        });
    }
    Some(out)
}

/// The most promising way out of a stuck planning state: (missing-input
/// count, the method to use, the values still to be generated).
type BestStuckChoice = (usize, AccessMethodId, Vec<(Value, DomainId)>);

/// Plans the production of `needed` facts starting from the accessible pairs
/// in `base`.
///
/// `alternative` selects which generator-chain combination to try when a
/// value has several possible supporting chains (callers iterate over
/// alternatives when the first plan accidentally satisfies the containing
/// query). Generator-chain discovery is memoised in `chain_cache`, which
/// callers share across every valuation of the same witness search. Returns
/// `None` when some fact cannot be produced within the budget.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_production(
    needed: &[(RelationId, Tuple)],
    base: &AdomPool,
    methods: &AccessMethods,
    budget: &SearchBudget,
    fresh: &mut FreshSupply,
    alternative: usize,
    chain_cache: &mut ChainCache,
) -> Option<FactPlan> {
    let mut accessible = base.clone();
    let mut remaining: Vec<(RelationId, Tuple)> = needed.to_vec();
    let mut plan = FactPlan::default();

    while !remaining.is_empty() {
        // First, place every fact that is directly producible.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut i = 0;
            while i < remaining.len() {
                let (rel, tuple) = remaining[i].clone();
                let method = methods
                    .methods_for(rel)
                    .iter()
                    .copied()
                    .find(|&mid| inputs_accessible(mid, &tuple, methods, &accessible));
                if let Some(mid) = method {
                    absorb_fact(rel, &tuple, methods, &mut accessible);
                    plan.ordered.push(PlannedFact {
                        relation: rel,
                        tuple,
                        method: mid,
                    });
                    remaining.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
        }
        if remaining.is_empty() {
            break;
        }
        // Stuck: pick the remaining fact with the fewest missing inputs and
        // generate the missing values via auxiliary chains.
        let mut best: Option<BestStuckChoice> = None;
        for (i, (rel, tuple)) in remaining.iter().enumerate() {
            for &mid in methods.methods_for(*rel) {
                let missing = missing_inputs(mid, tuple, methods, &accessible);
                // A fact on a relation without methods never gets here
                // (methods_for is empty), handled below.
                let better = match &best {
                    None => true,
                    Some((_, _, best_missing)) => missing.len() < best_missing.len(),
                };
                if better {
                    best = Some((i, mid, missing));
                }
            }
            if methods.methods_for(*rel).is_empty() {
                // Fact on a relation without access methods can never be
                // produced.
                return None;
            }
        }
        let (idx, mid, missing) = best?;
        if missing.is_empty() {
            // Should have been placed in the direct phase; guard against
            // infinite loops.
            return None;
        }
        for (value, domain) in missing {
            let accessible_domains = accessible.domains();
            let chains = chain_cache.chains(domain, &accessible_domains, methods, budget);
            if chains.is_empty() {
                return None;
            }
            let chain = chains[alternative % chains.len()].clone();
            let aux = materialise_chain(&chain, &value, domain, &accessible, methods, fresh)?;
            if plan.aux_count + aux.len() > budget.max_aux_facts {
                return None;
            }
            for f in aux {
                absorb_fact(f.relation, &f.tuple, methods, &mut accessible);
                plan.aux_count += 1;
                plan.ordered.push(f);
            }
        }
        // Now the chosen fact must be producible; place it.
        let (rel, tuple) = remaining[idx].clone();
        if !inputs_accessible(mid, &tuple, methods, &accessible) {
            return None;
        }
        absorb_fact(rel, &tuple, methods, &mut accessible);
        plan.ordered.push(PlannedFact {
            relation: rel,
            tuple,
            method: mid,
        });
        remaining.remove(idx);
    }
    Some(plan)
}

/// The initial access of a dependent long-term relevance witness, as the
/// witness search sees it: which image facts it returns itself, and which
/// values its response makes accessible.
pub(crate) struct InitialAccess<'a> {
    /// The accessed relation.
    pub relation: RelationId,
    /// The input places of the accessed method.
    pub inputs: &'a [usize],
    /// The binding, one value per input place.
    pub binding: &'a [Value],
    /// The "generic" tuple the access may always return: the binding at the
    /// input places and fresh values at the output places (`None` when the
    /// method has no output place).
    pub generic: Option<Tuple>,
}

impl InitialAccess<'_> {
    /// Can the access return `tuple` of `relation`?
    fn returns(&self, relation: RelationId, tuple: &Tuple) -> bool {
        relation == self.relation && tuple.matches_binding(self.inputs, self.binding)
    }

    /// The values the access offers a valuation: its binding (which an
    /// independent method need not take from the configuration) and the
    /// generic tuple, each with the domain of its place.
    fn values(&self, methods: &AccessMethods) -> Vec<ExtraValue> {
        let domain = |p: usize| methods.schema().domain_of(self.relation, p).ok();
        let bound = self.inputs.iter().copied().zip(self.binding);
        let generic = self.generic.iter().flat_map(|t| t.iter().enumerate());
        bound
            .chain(generic)
            .filter_map(|(p, v)| Some((v.clone(), domain(p)?)))
            .collect()
    }
}

/// Section 5's witness search for one disjunct, shared by containment and
/// dependent long-term relevance.
///
/// It walks the disjunct's valuations with [`find_valuation`] (over the
/// active domain, the values `initial` offers and fresh nulls drawn from
/// `fresh`). Each valuation's image, less the facts `conf` already holds,
/// splits into the facts `initial` returns and the facts later accesses
/// must produce; without an initial access, every fact is a later one. The
/// base pool is `Adom(Conf)` plus every value of the returned facts and of
/// the generic tuple. `check` sees the valuation and the base pool once,
/// and returns the check for that valuation's plans. The plans are those of
/// [`plan_production`] for the later facts from the base pool, one per
/// chain alternative: the loop stops when alternative 0 has no plan, and
/// after any plan with no auxiliary facts, since every alternative then
/// plans alike. The first plan whose check returns a witness ends the walk.
pub(crate) fn find_witness<P, T>(
    disjunct: &ConjunctiveQuery,
    conf: &Configuration,
    initial: Option<&InitialAccess>,
    fresh: &mut FreshSupply,
    methods: &AccessMethods,
    budget: &SearchBudget,
    mut check: impl FnMut(&HashMap<VarId, Value>, &AdomPool) -> P,
) -> Option<T>
where
    P: FnMut(&FactPlan) -> Option<T>,
{
    let extra = initial.map_or_else(Vec::new, |a| a.values(methods));
    // Generator chains depend only on domain sets: plan them once per shape
    // across every valuation of the disjunct.
    let mut chain_cache = ChainCache::new();
    find_valuation(
        disjunct,
        conf,
        &extra,
        fresh,
        budget.max_valuations,
        |h, fresh| {
            let mut base = AdomPool::of(conf);
            if let Some(a) = initial {
                if let Some(generic) = &a.generic {
                    absorb_fact(a.relation, generic, methods, &mut base);
                }
            }
            let mut later = Vec::new();
            for atom in disjunct.atoms() {
                let (relation, tuple) = (atom.relation(), atom.substitute(h).to_tuple()?);
                if conf.contains(relation, &tuple) {
                    continue;
                }
                match initial {
                    Some(a) if a.returns(relation, &tuple) => {
                        absorb_fact(relation, &tuple, methods, &mut base)
                    }
                    _ => later.push((relation, tuple)),
                }
            }
            later.sort();
            later.dedup();
            let mut check_plan = check(h, &base);
            for alternative in 0..budget.max_chain_alternatives.max(1) {
                let plan = plan_production(
                    &later,
                    &base,
                    methods,
                    budget,
                    &mut fresh.clone(),
                    alternative,
                    &mut chain_cache,
                );
                match plan {
                    None if alternative == 0 => break,
                    None => continue,
                    Some(plan) => {
                        if let Some(witness) = check_plan(&plan) {
                            return Some(witness);
                        }
                        if plan.aux_count == 0 {
                            break;
                        }
                    }
                }
            }
            None
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use accrel_access::{binding, AccessMode};
    use accrel_query::Term;
    use accrel_schema::{tuple, AdomPrecision, FactStore, GrowthCursor, Read, Schema};
    use std::sync::Arc;

    fn two_domain_setup() -> (Arc<Schema>, AccessMethods) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        let e = b.domain("E").unwrap();
        // R(d, e) with dependent access on the first position,
        // S(e) with a free access, T(e, d) with dependent access on e.
        b.relation("R", &[("a", d), ("b", e)]).unwrap();
        b.relation("S", &[("a", e)]).unwrap();
        b.relation("T", &[("a", e), ("b", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("RAcc", "R", &["a"], AccessMode::Dependent).unwrap();
        mb.add_free("SAcc", "S", AccessMode::Independent).unwrap();
        mb.add("TAcc", "T", &["a"], AccessMode::Dependent).unwrap();
        (schema, mb.build())
    }

    #[test]
    fn chargeable_atoms_are_those_the_charge_step_accepts_unbound() {
        // Every atom of R(a, b, c) over the terms x, y, 1 and 2, every
        // binding over 1 and 2 (and one too short, which the callers of the
        // charge step reject first), for methods with one, two and three
        // input places, plus an atom of another relation.
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d), ("c", d)]).unwrap();
        b.relation("S", &[("a", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        let r = schema.relation_by_name("R").unwrap();
        let methods: Vec<AccessMethodId> = [vec![1], vec![0, 2], vec![0, 1, 2]]
            .into_iter()
            .enumerate()
            .map(|(i, inputs)| {
                mb.add_positions(format!("m{i}"), r, inputs, AccessMode::Independent)
                    .unwrap()
            })
            .collect();
        let methods_set = mb.build();
        let store = FactStore::new(schema.clone());
        let unbound = Valuation::new();
        let terms = [
            Term::Var(VarId(0)),
            Term::Var(VarId(1)),
            Term::constant("1"),
            Term::constant("2"),
        ];
        let mut atoms = vec![Atom::new(
            schema.relation_by_name("S").unwrap(),
            vec![Term::Var(VarId(0))],
        )];
        for i in 0..64 {
            let pick = |shift: usize| terms[(i >> shift) & 3].clone();
            atoms.push(Atom::new(r, vec![pick(0), pick(2), pick(4)]));
        }
        let (mut chargeable, mut checked) = (0, 0);
        for &id in &methods {
            let method = methods_set.get(id).unwrap();
            let inputs = method.input_positions().len();
            let mut bindings: Vec<Binding> = (0..1 << inputs)
                .map(|bits: usize| {
                    let value = |k: usize| if bits >> k & 1 == 1 { "2" } else { "1" };
                    binding((0..inputs).map(value).collect::<Vec<_>>())
                })
                .collect();
            bindings.push(binding(vec!["1"; inputs - 1]));
            for bound in &bindings {
                let access = Access::new(id, bound.clone());
                for atom in &atoms {
                    let mut join = Join::new(std::slice::from_ref(atom), &store, &[], &unbound);
                    let expected = atom.relation() == r
                        && access.check_arity(&methods_set).is_ok()
                        && Charge::new(&access, method).apply(&mut join, 0);
                    assert_eq!(
                        is_chargeable(atom, &access, method),
                        expected,
                        "{atom:?} under {access:?}"
                    );
                    chargeable += usize::from(expected);
                    checked += 1;
                }
            }
        }
        assert!(chargeable > 100 && checked - chargeable > 100);
    }

    #[test]
    fn valuation_enumeration_covers_constants_and_shared_nulls() {
        let (schema, _) = two_domain_setup();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        let q = qb.build();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["c", "e1"]).unwrap();
        let mut fresh = FreshSupply::new();
        let vals = enumerate_valuations(&q, &conf, &[], &mut fresh, 1000);
        // x (domain D): {c, fresh}; y (domain E): {e1, fresh}: 4 candidates.
        assert_eq!(vals.len(), 4);
        assert!(vals
            .iter()
            .any(|m| m[&x] == Value::sym("c") && m[&y] == Value::sym("e1")));
        assert!(vals.iter().any(|m| m[&x].is_fresh() && m[&y].is_fresh()));
        // Different domains never share a null.
        for m in &vals {
            if m[&x].is_fresh() && m[&y].is_fresh() {
                assert_ne!(m[&x], m[&y]);
            }
        }
    }

    #[test]
    fn valuation_enumeration_shares_nulls_within_a_domain() {
        let (schema, _) = two_domain_setup();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        // Both variables of domain E.
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        let q = qb.build();
        let conf = Configuration::empty(schema);
        let mut fresh = FreshSupply::new();
        let vals = enumerate_valuations(&q, &conf, &[], &mut fresh, 1000);
        // x: fresh slot 0; y: reuse slot 0 or open slot 1 → 2 valuations.
        assert_eq!(vals.len(), 2);
        assert!(vals.iter().any(|m| m[&x] == m[&y]));
        assert!(vals.iter().any(|m| m[&x] != m[&y]));
    }

    #[test]
    fn valuation_enumeration_uses_extra_values_and_respects_limit() {
        let (schema, _) = two_domain_setup();
        let e = schema.domain_by_name("E").unwrap();
        let d = schema.domain_by_name("D").unwrap();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q = qb.build();
        let conf = Configuration::empty(schema);
        let mut fresh = FreshSupply::new();
        // Extra value of the right domain is offered; wrong-domain one is not.
        let vals = enumerate_valuations(
            &q,
            &conf,
            &[(Value::sym("seen"), e), (Value::sym("wrong"), d)],
            &mut fresh,
            1000,
        );
        assert_eq!(vals.len(), 2);
        assert!(vals.iter().any(|m| m[&x] == Value::sym("seen")));
        assert!(!vals.iter().any(|m| m[&x] == Value::sym("wrong")));
        let limited = enumerate_valuations(&q, &conf, &[], &mut fresh, 1);
        assert_eq!(limited.len(), 1);
    }

    #[test]
    fn a_stop_at_valuation_k_leaves_the_rest_unvisited() {
        let (schema, _) = two_domain_setup();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom("R", vec![Term::Var(x), Term::Var(y)]).unwrap();
        qb.atom("S", vec![Term::Var(y)]).unwrap();
        let q = qb.build();
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["c", "e1"]).unwrap();
        conf.insert_named("S", ["e2"]).unwrap();
        let all = enumerate_valuations(&q, &conf, &[], &mut FreshSupply::new(), 1000);
        assert_eq!(all.len(), 6);
        for k in 1..=all.len() {
            let mut visits = 0;
            let found = find_valuation(&q, &conf, &[], &mut FreshSupply::new(), 1000, |h, _| {
                visits += 1;
                (visits == k).then(|| h.clone())
            });
            assert_eq!(visits, k);
            assert_eq!(found.as_ref(), Some(&all[k - 1]));
        }
        // The supply a visitor sees has drawn every null of its valuation,
        // so a clone of it invents values above all of them.
        find_valuation(&q, &conf, &[], &mut FreshSupply::new(), 1000, |h, fresh| {
            let next = fresh.clone().next_value();
            assert!(h.values().all(|v| *v < next));
            None::<()>
        });
    }

    #[test]
    fn an_early_stop_records_only_the_visited_prefix() {
        let (schema, _) = two_domain_setup();
        let e = schema.domain_by_name("E").unwrap();
        let mut qb = ConjunctiveQuery::builder(schema.clone());
        let x = qb.var("x");
        qb.atom("S", vec![Term::Var(x)]).unwrap();
        let q = qb.build();
        let mut conf = Configuration::empty(schema);
        for v in [10, 20, 30, 40] {
            conf.insert_named("S", [v]).unwrap();
        }
        let reads_of = |conf: &mut Configuration, stop_at: usize| {
            conf.begin_read_tracking_with(AdomPrecision::Precise);
            let mut visits = 0;
            find_valuation(&q, conf, &[], &mut FreshSupply::new(), 1000, |_, _| {
                visits += 1;
                (visits == stop_at).then_some(())
            });
            conf.take_read_set()
        };
        // Stopped at the second valuation: only the values up to 20 were
        // walked. A walk that ran off the end of the list read the domain.
        let stopped = reads_of(&mut conf, 2);
        assert_eq!(
            stopped.iter().cloned().collect::<Vec<_>>(),
            vec![Read::AdomPrefix(e, Value::int(20))]
        );
        let full = reads_of(&mut conf, usize::MAX);
        assert_eq!(
            full.iter().cloned().collect::<Vec<_>>(),
            vec![Read::AdomDomain(e)]
        );
        let mut cursor = GrowthCursor::at(conf.store());
        conf.insert_named("S", [25]).unwrap();
        let above = cursor.advance(conf.store());
        assert!(!stopped.touched_by(&above));
        assert!(full.touched_by(&above));
        conf.insert_named("S", [15]).unwrap();
        let below = cursor.advance(conf.store());
        assert!(stopped.touched_by(&below));
    }

    /// A seeded SplitMix64 stream for the randomized cases below.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// One of a few symbols and integers, so the order crosses kinds.
        fn value(&mut self) -> Value {
            match self.below(7) {
                k @ 0..=3 => Value::int(k as i64 - 1),
                k => Value::sym(["b", "a", "c"][k - 4]),
            }
        }
    }

    /// A configuration of `two_domain_setup`'s schema whose store holds a
    /// base of up to 5 facts, shared with a clone that is kept alive, and 1–3
    /// facts in a tail of its own.
    fn base_and_tail(schema: &Arc<Schema>, draws: &mut Draws) -> (Configuration, Configuration) {
        let fill = |conf: &mut Configuration, n: usize, draws: &mut Draws| {
            for _ in 0..n {
                let r = RelationId(draws.below(3) as u32);
                let arity = schema.arity(r).unwrap();
                let t = Tuple::new((0..arity).map(|_| draws.value()).collect());
                conf.insert(r, t).unwrap();
            }
        };
        let mut base = Configuration::empty(schema.clone());
        fill(&mut base, draws.below(6), draws);
        let mut conf = base.clone();
        fill(&mut conf, 1 + draws.below(3), draws);
        (base, conf)
    }

    /// [`find_valuation`] on the candidate lists it built before the store
    /// kept each domain in value order: the whole active domain cloned into
    /// a set, grouped per domain with the extra values, each list sorted and
    /// deduplicated, and every value once for untyped variables; then the
    /// same walk, and its reads recorded from those lists.
    fn find_valuation_on_rebuilt_lists<T>(
        cq: &ConjunctiveQuery,
        conf: &Configuration,
        extra: &[ExtraValue],
        fresh: &mut FreshSupply,
        limit: usize,
        mut visit: impl FnMut(&HashMap<VarId, Value>, &FreshSupply) -> Option<T>,
    ) -> Option<T> {
        let (vars, domains) = typed_variables(cq);
        if vars.is_empty() {
            return visit(&HashMap::new(), fresh);
        }
        let mut by_domain: HashMap<DomainId, Vec<Value>> = HashMap::new();
        let mut untyped: Vec<Value> = Vec::new();
        for (val, d) in conf.active_domain_untracked() {
            by_domain.entry(d).or_default().push(val.clone());
            untyped.push(val);
        }
        for (val, d) in extra {
            by_domain.entry(*d).or_default().push(val.clone());
            untyped.push(val.clone());
        }
        for list in by_domain.values_mut() {
            list.sort();
            list.dedup();
        }
        untyped.sort();
        untyped.dedup();
        let lists: Vec<Vec<&Value>> = domains
            .iter()
            .map(|d| match d {
                Some(d) => by_domain.get(d).map_or(Vec::new(), |l| l.iter().collect()),
                None => untyped.iter().collect(),
            })
            .collect();
        let candidates: Vec<&[&Value]> = lists.iter().map(Vec::as_slice).collect();
        let mut walk = ValuationWalk {
            vars: &vars,
            domains: &domains,
            candidates: &candidates,
            used_slots: HashMap::new(),
            slot_values: HashMap::new(),
            current: HashMap::new(),
            visited: 0,
            limit,
            found: None,
            stats: vec![VisitStats::default(); vars.len()],
        };
        walk.go(0, fresh, &mut visit);
        let mut domain_reads: HashMap<DomainId, (Option<usize>, bool)> = HashMap::new();
        let mut untyped_read = false;
        for (dom, stats) in domains.iter().zip(&walk.stats) {
            match dom {
                Some(d) => {
                    let entry = domain_reads.entry(*d).or_insert((None, false));
                    if let Some(p) = stats.max_pos {
                        entry.0 = Some(entry.0.map_or(p, |m: usize| m.max(p)));
                    }
                    entry.1 |= stats.completed;
                }
                None => untyped_read |= stats.max_pos.is_some() || stats.completed,
            }
        }
        if untyped_read {
            conf.rec_adom_global();
        }
        for (d, (max_pos, completed)) in domain_reads {
            if completed {
                conf.rec_adom_walk(d, None);
            } else if let Some(p) = max_pos {
                if let Some(list) = by_domain.get(&d) {
                    conf.rec_adom_walk(d, Some(&list[p]));
                }
            }
        }
        walk.found
    }

    #[test]
    fn the_walk_on_the_store_order_matches_the_rebuilt_lists() {
        let (schema, _) = two_domain_setup();
        let (d, e) = (DomainId(0), DomainId(1));
        let mut draws = Draws(7);
        let (mut walks, mut cut, mut untyped) = (0, 0, 0);
        for case in 0..96 {
            let (_base, mut conf) = base_and_tail(&schema, &mut draws);
            // One to three atoms over variables named per domain, so each
            // variable has one domain, except that every fourth case puts a
            // variable at both domains, which leaves every variable untyped.
            let mut qb = ConjunctiveQuery::builder(schema.clone());
            for _ in 0..1 + draws.below(3) {
                let (rel, doms) = [
                    ("R", ["d", "e"].as_slice()),
                    ("S", &["e"]),
                    ("T", &["e", "d"]),
                ][draws.below(3)];
                let terms = doms
                    .iter()
                    .map(|dom| Term::Var(qb.var(format!("{dom}{}", draws.below(2)))))
                    .collect();
                qb.atom(rel, terms).unwrap();
            }
            if case % 4 == 3 {
                let clash = Term::Var(qb.var("e0"));
                qb.atom("R", vec![clash.clone(), clash]).unwrap();
            }
            let q = qb.build();
            // Extra values, some of them already in the active domain.
            let extra: Vec<ExtraValue> = (0..draws.below(4))
                .map(|_| (draws.value(), [d, e][draws.below(2)]))
                .collect();
            let stop = 1 + draws.below(6);
            for limit in [1 + draws.below(4), 100_000] {
                let run = |conf: &mut Configuration, oracle: bool| {
                    conf.begin_read_tracking_with(AdomPrecision::Precise);
                    let mut seen = Vec::new();
                    let mut visit = |h: &HashMap<VarId, Value>, _: &FreshSupply| {
                        seen.push(h.clone());
                        (seen.len() == stop).then_some(seen.len())
                    };
                    let mut fresh = conf.fresh_supply();
                    let found = if oracle {
                        find_valuation_on_rebuilt_lists(
                            &q, conf, &extra, &mut fresh, limit, &mut visit,
                        )
                    } else {
                        find_valuation(&q, conf, &extra, &mut fresh, limit, &mut visit)
                    };
                    (found, seen, conf.take_read_set())
                };
                let got = run(&mut conf, false);
                assert_eq!(got, run(&mut conf, true), "case {case}, limit {limit}");
                walks += 1;
                cut += usize::from(got.0.is_none() && got.1.len() == limit);
                untyped += usize::from(got.2.iter().any(|r| *r == Read::Adom));
            }
        }
        // The grid reaches every kind of walk it is meant to.
        assert!(
            walks == 192 && cut > 20 && untyped > 10,
            "{cut} cut, {untyped} untyped"
        );
    }

    #[test]
    fn the_pool_answers_and_records_as_its_minimum_snapshot_did() {
        let (schema, _) = two_domain_setup();
        let domains = [DomainId(0), DomainId(1)];
        let mut draws = Draws(11);
        for case in 0..64 {
            let (_base, mut conf) = base_and_tail(&schema, &mut draws);
            let overlay: HashSet<(Value, DomainId)> = (0..draws.below(3))
                .map(|_| (draws.value(), domains[draws.below(2)]))
                .collect();
            let asked = domains[draws.below(2)];
            conf.begin_read_tracking_with(AdomPrecision::Precise);
            let got = {
                let pool = AdomPool::from_pairs(&conf, overlay.clone());
                (
                    pool.min_value(asked),
                    pool.has_domain(asked),
                    pool.domains(),
                )
            };
            let got_reads = conf.take_read_set();
            // The snapshot the pool kept before: each populated domain's
            // least value, from a scan of the active domain.
            let mut mins: HashMap<DomainId, Value> = HashMap::new();
            for (v, dom) in conf.active_domain_untracked() {
                let min = mins.entry(dom).or_insert_with(|| v.clone());
                if v < *min {
                    *min = v;
                }
            }
            conf.begin_read_tracking_with(AdomPrecision::Precise);
            let overlay_of = |dom| overlay.iter().filter(move |(_, od)| *od == dom);
            let min = overlay_of(asked)
                .map(|(v, _)| v)
                .chain(mins.get(&asked))
                .min()
                .cloned();
            conf.rec_adom_walk(asked, min.as_ref());
            let populated = mins.contains_key(&asked) || overlay_of(asked).next().is_some();
            if !populated {
                conf.rec_adom_walk(asked, None);
            }
            let mut all: HashSet<DomainId> = mins.keys().copied().collect();
            all.extend(overlay.iter().map(|(_, od)| *od));
            for dom in domains {
                if !all.contains(&dom) {
                    conf.rec_adom_walk(dom, None);
                }
            }
            let want_reads = conf.take_read_set();
            assert_eq!(got, (min, populated, all), "case {case}");
            assert_eq!(got_reads, want_reads, "case {case}");
        }
    }

    #[test]
    fn plan_production_orders_dependent_facts() {
        // Need R(c, v) and T(v, w): R first (input c accessible), whose
        // output v then unlocks T.
        let (schema, methods) = two_domain_setup();
        let r = schema.relation_by_name("R").unwrap();
        let t = schema.relation_by_name("T").unwrap();
        let d = schema.domain_by_name("D").unwrap();
        let mut base = HashSet::new();
        base.insert((Value::sym("c"), d));
        let empty_conf = Configuration::empty(schema.clone());
        let base = AdomPool::from_pairs(&empty_conf, base);
        let v = Value::fresh(100);
        let w = Value::fresh(101);
        let needed = vec![
            (t, Tuple::new(vec![v.clone(), w.clone()])),
            (r, Tuple::new(vec![Value::sym("c"), v.clone()])),
        ];
        let mut fresh = FreshSupply::new();
        let plan = plan_production(
            &needed,
            &base,
            &methods,
            &SearchBudget::default(),
            &mut fresh,
            0,
            &mut ChainCache::new(),
        )
        .expect("plan should exist");
        assert_eq!(plan.ordered.len(), 2);
        assert_eq!(plan.aux_count, 0);
        assert_eq!(plan.ordered[0].relation, r);
        assert_eq!(plan.ordered[1].relation, t);
        // The plan converts to a well-formed access path from a
        // configuration that exposes c in domain D.
        let mut conf = Configuration::empty(schema);
        conf.insert_named("R", ["c", "seed"]).unwrap();
        let path = plan.to_path(&methods);
        assert_eq!(path.len(), 2);
        assert!(path.is_well_formed_at(&conf, &methods));
    }

    #[test]
    fn plan_production_inserts_generator_chains() {
        // Need T(v, w) alone: v (domain E) is not accessible, but the free
        // access on S can generate it.
        let (schema, methods) = two_domain_setup();
        let t = schema.relation_by_name("T").unwrap();
        let empty_conf = Configuration::empty(schema.clone());
        let base = AdomPool::from_pairs(&empty_conf, HashSet::new());
        let v = Value::fresh(100);
        let w = Value::fresh(101);
        let needed = vec![(t, Tuple::new(vec![v.clone(), w]))];
        let mut fresh = FreshSupply::new();
        let plan = plan_production(
            &needed,
            &base,
            &methods,
            &SearchBudget::default(),
            &mut fresh,
            0,
            &mut ChainCache::new(),
        )
        .expect("plan should exist");
        assert_eq!(plan.aux_count, 1);
        assert_eq!(plan.ordered.len(), 2);
        // The auxiliary fact is an S-fact carrying v.
        let s = schema.relation_by_name("S").unwrap();
        assert_eq!(plan.ordered[0].relation, s);
        assert_eq!(plan.ordered[0].tuple.get(0), Some(&v));
        let path = plan.to_path(&methods);
        let conf = Configuration::empty(schema);
        assert!(path.is_well_formed_at(&conf, &methods));
    }

    #[test]
    fn plan_production_fails_without_any_route() {
        // Remove the free S access: a T-fact with a fresh E-input can no
        // longer be produced.
        let (schema, _) = two_domain_setup();
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("TAcc", "T", &["a"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let t = schema.relation_by_name("T").unwrap();
        let needed = vec![(t, Tuple::new(vec![Value::fresh(0), Value::fresh(1)]))];
        let mut fresh = FreshSupply::above([Value::fresh(1)].iter());
        let plan = plan_production(
            &needed,
            &AdomPool::of(&Configuration::empty(schema.clone())),
            &methods,
            &SearchBudget::default(),
            &mut fresh,
            0,
            &mut ChainCache::new(),
        );
        assert!(plan.is_none());
    }

    #[test]
    fn plan_production_fails_on_relations_without_methods() {
        let (schema, _) = two_domain_setup();
        // Only R has a method; an S fact is not producible.
        let mut mb = AccessMethods::builder(schema.clone());
        mb.add("RAcc", "R", &["a"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let s = schema.relation_by_name("S").unwrap();
        let needed = vec![(s, tuple(["x"]))];
        let mut fresh = FreshSupply::new();
        assert!(plan_production(
            &needed,
            &AdomPool::of(&Configuration::empty(schema.clone())),
            &methods,
            &SearchBudget::default(),
            &mut fresh,
            0,
            &mut ChainCache::new(),
        )
        .is_none());
    }

    #[test]
    fn generator_chains_respect_budget_and_target_domain() {
        let (schema, methods) = two_domain_setup();
        let e = schema.domain_by_name("E").unwrap();
        let d = schema.domain_by_name("D").unwrap();
        let chains = find_generator_chains(e, &HashSet::new(), &methods, &SearchBudget::default());
        assert!(!chains.is_empty());
        // Domain D is only produced by T's output, which needs an E input —
        // reachable through S then T.
        let chains_d =
            find_generator_chains(d, &HashSet::new(), &methods, &SearchBudget::default());
        assert!(!chains_d.is_empty());
        assert!(chains_d.iter().any(|c| c.methods.len() == 2));
        // With a tiny budget nothing of length 2 can be found.
        let tight = SearchBudget {
            max_chain_length: 1,
            ..SearchBudget::default()
        };
        let chains_tight = find_generator_chains(d, &HashSet::new(), &methods, &tight);
        assert!(chains_tight.is_empty());
    }
}
