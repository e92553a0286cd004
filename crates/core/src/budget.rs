//! Search budgets bounding the witness searches.

/// Resource bounds for the witness searches used by containment under access
/// limitations and dependent long-term relevance.
///
/// The paper shows (Theorem 5.2, via the crayfish-chase / tree-like model
/// property) that counterexamples to containment can be bounded in size — by
/// an exponential in the query sizes for CQs and a double exponential for
/// PQs. The searches implemented here are not complete relative to that
/// bound, at any budget:
///
/// * They are sound for "relevant" and "not contained": each such answer
///   rests on a witness path that well-formed accesses can take.
/// * A "not relevant" or "contained" answer can be wrong even when no cap
///   fires. The producibility planner makes one generator-chain pick per
///   set of accessible domains, so a witness that needs an intermediate
///   fact another pick would produce is never tried. The Proposition 6.2
///   encoding of `cycling_rows(1)` is one: its corridor is tileable, yet
///   containment answers "contained" under both the shallow and the default
///   budget. A cap that fires can make such an answer wrong as well.
/// * Direction 1 of `ROADMAP.md` is where the search becomes complete and
///   reports a cap that cut it.
///
/// The budget is a cap, not a cost: a search visits valuations one at a
/// time and stops at its first witness, so a verdict found early pays for
/// the valuations before it and no more. Only a search that finds no
/// witness can use the whole budget. Dependent long-term relevance decides
/// *dead-end* accesses (see [`crate::ltr_dependent::is_dead_end`]) before
/// searching, so their "not relevant" is exact at any budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of candidate valuations of a disjunct's variables
    /// visited per disjunct; the walk stops earlier at the first witness.
    pub max_valuations: usize,
    /// Maximum number of auxiliary "value generator" facts that may be added
    /// beyond the image of the query homomorphism (the supporting chains of
    /// the crayfish chase).
    pub max_aux_facts: usize,
    /// Maximum length of a single value-generator chain.
    pub max_chain_length: usize,
    /// Maximum number of alternative generator-chain combinations tried when
    /// the first combination accidentally satisfies the containing query.
    pub max_chain_alternatives: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            max_valuations: 200_000,
            max_aux_facts: 16,
            max_chain_length: 8,
            max_chain_alternatives: 8,
        }
    }
}

impl SearchBudget {
    /// A small budget for quick, shallow checks (used by some benchmarks to
    /// bound worst-case runtime).
    pub fn shallow() -> Self {
        Self {
            max_valuations: 5_000,
            max_aux_facts: 4,
            max_chain_length: 3,
            max_chain_alternatives: 2,
        }
    }

    /// A generous budget for exhaustive offline analysis.
    pub fn exhaustive() -> Self {
        Self {
            max_valuations: 5_000_000,
            max_aux_facts: 64,
            max_chain_length: 32,
            max_chain_alternatives: 32,
        }
    }

    /// Returns a copy with a different valuation cap.
    pub fn with_max_valuations(mut self, max: usize) -> Self {
        self.max_valuations = max;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_generosity() {
        let shallow = SearchBudget::shallow();
        let default = SearchBudget::default();
        let exhaustive = SearchBudget::exhaustive();
        assert!(shallow.max_valuations < default.max_valuations);
        assert!(default.max_valuations < exhaustive.max_valuations);
        assert!(shallow.max_aux_facts <= default.max_aux_facts);
        assert!(default.max_chain_length <= exhaustive.max_chain_length);
    }

    #[test]
    fn with_max_valuations_overrides_only_that_field() {
        let b = SearchBudget::default().with_max_valuations(7);
        assert_eq!(b.max_valuations, 7);
        assert_eq!(b.max_aux_facts, SearchBudget::default().max_aux_facts);
    }
}
