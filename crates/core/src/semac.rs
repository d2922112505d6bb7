//! The semantic-acyclicity deciders.
//!
//! * **No constraints** (the baseline recalled in Section 1): a CQ is
//!   semantically acyclic iff its core is acyclic.  This is exact.
//! * **Under tgds** ([`semantic_acyclicity_under_tgds`]): a witness search
//!   following the paper's small-query property (Propositions 8 and 15).  We
//!   generate candidate acyclic witnesses from three sources —
//!   1. the core of the input query,
//!   2. acyclic sub-conjunctions of the *chase expansion* of the query
//!      (the query's atoms plus the atoms derived by chasing its canonical
//!      database, read back with [`sac_query::FrozenQuery::thaw`]), which
//!      automatically satisfy `q ⊆Σ q'`, and
//!   3. acyclic Lemma 9 compactions of homomorphisms of the query into its
//!      (acyclic) chase when the chase is acyclic —
//!
//!   and verify candidates with the exact containment tests of
//!   [`crate::containment`].  A positive answer always comes with a verified
//!   witness.  A negative answer means the bounded candidate space was
//!   exhausted; for the classes the paper proves decidable this candidate
//!   space contains a witness whenever one exists for every workload we
//!   exercise (the paper's own examples and the generated families), but the
//!   search is not a proof of absence in general — callers needing the
//!   distinction can inspect the `exhausted_candidates` flag of
//!   [`SemAcResult::NoWitness`].
//! * **Under egds** ([`semantic_acyclicity_under_egds`]): chase the query
//!   with the egds (always terminating), then run the same witness search on
//!   the chased query — for keys over unary/binary schemas this follows the
//!   paper's Proposition 22 route (the chase preserves acyclicity, so the
//!   chased core being acyclic is the common case).  A chase that
//!   identifies a head variable with a constant leaves no chased query to
//!   search, and the decider answers `NoWitness` without a search.
//!
//! Each decision chases the input query once ([`ChasedQuery`]).  That one
//! chase seeds the expansion and Route 3 and answers the `q ⊆Σ candidate`
//! half of every verification; only the `candidate ⊆Σ q` half chases, once
//! per candidate.

use crate::containment::{chase_under_egds, chase_under_tgds, tgd_containment};
use sac_acyclic::{
    compact_acyclic_witness, is_acyclic_atoms, is_acyclic_instance, is_acyclic_query,
};
use sac_chase::ChaseBudget;
use sac_common::{Atom, Symbol};
use sac_deps::{Egd, Tgd};
use sac_query::{core_of, ChasedQuery, ConjunctiveQuery, Homomorphisms};
use std::collections::BTreeSet;
use std::slice;

/// Configuration for the witness search.
#[derive(Debug, Clone, Copy)]
pub struct SemAcConfig {
    /// Budget for every chase run performed by the decider.
    pub chase_budget: ChaseBudget,
    /// Maximum number of candidate witnesses to verify.
    pub max_candidates: usize,
    /// Maximum size (atoms) of the chase expansion used to seed candidates.
    pub max_expansion_atoms: usize,
}

impl Default for SemAcConfig {
    fn default() -> SemAcConfig {
        SemAcConfig {
            chase_budget: ChaseBudget::small(),
            max_candidates: 20_000,
            max_expansion_atoms: 24,
        }
    }
}

/// The outcome of a semantic-acyclicity decision.
#[derive(Debug, Clone)]
pub enum SemAcResult {
    /// The query is semantically acyclic; the attached acyclic query is a
    /// verified witness (`q ≡Σ witness`).
    Witness(ConjunctiveQuery),
    /// No witness was found.  `exhausted_candidates` is `true` when the whole
    /// candidate space was searched (the answer is then negative for every
    /// workload whose witnesses live in the chase expansion — all of the
    /// paper's examples do), and `false` when a budget cut the search short.
    NoWitness {
        /// Whether the candidate space was fully explored.
        exhausted_candidates: bool,
    },
}

impl SemAcResult {
    /// `true` iff a witness was found.
    pub fn is_acyclic(&self) -> bool {
        matches!(self, SemAcResult::Witness(_))
    }

    /// The witness query, if any.
    pub fn witness(&self) -> Option<&ConjunctiveQuery> {
        match self {
            SemAcResult::Witness(w) => Some(w),
            SemAcResult::NoWitness { .. } => None,
        }
    }
}

/// A search a budget cut short, or one with nothing to search.
const CUT_SHORT: SemAcResult = SemAcResult::NoWitness {
    exhausted_candidates: false,
};

/// The constraint-free baseline: a CQ is semantically acyclic iff its core is
/// acyclic.  Returns the acyclic core as a witness when it is.
pub fn is_semantically_acyclic_no_constraints(
    query: &ConjunctiveQuery,
) -> Option<ConjunctiveQuery> {
    let core = core_of(query);
    is_acyclic_query(&core).then_some(core)
}

/// Decides semantic acyclicity of `query` under a set of tgds.
pub fn semantic_acyclicity_under_tgds(
    query: &ConjunctiveQuery,
    tgds: &[Tgd],
    config: SemAcConfig,
) -> SemAcResult {
    // Fast path: the core is already acyclic (no constraints needed).
    if let Some(core) = is_semantically_acyclic_no_constraints(query) {
        return SemAcResult::Witness(core);
    }
    let left = chase_under_tgds(query, tgds, config.chase_budget);
    witness_from_chase(&left, tgds, config)
}

/// The tgd decider past its fast path, on `left`, the query's kept chase.
pub(crate) fn witness_from_chase(
    left: &ChasedQuery,
    tgds: &[Tgd],
    config: SemAcConfig,
) -> SemAcResult {
    let sigma = Sigma::Tgds(tgds, config.chase_budget);
    let query = &left.query;
    let chased = left.chased.as_ref().expect("a tgd chase has a model");

    // Route 3: if the chase is acyclic (e.g. guarded sets, Proposition 12),
    // Lemma 9 compactions of homomorphisms of q into the chase are natural
    // witness candidates.
    if is_acyclic_instance(&chased.instance) {
        let mut found: Option<ConjunctiveQuery> = None;
        let mut tried = 0usize;
        // Only homomorphisms that send the head to the canonical tuple
        // produce witnesses with the right answer behaviour.
        let homs = Homomorphisms::new(&query.body, &chased.instance, &query.head);
        homs.search_terms(&chased.instance, &chased.head, |h| {
            let h = homs.substitution(h);
            if let Some(candidate) = compact_acyclic_witness(query, &chased.instance, &h) {
                tried += 1;
                if sigma.verify(left, &candidate) {
                    found = Some(candidate);
                    return true;
                }
            }
            tried >= config.max_candidates
        });
        if let Some(w) = found {
            return SemAcResult::Witness(w);
        }
    }

    // Route 2: acyclic sub-conjunctions of the chase expansion, the chase
    // read back with the query's own variables.  Such a candidate
    // automatically satisfies q ⊆Σ candidate (dropping atoms of an
    // Σ-equivalent expansion only loses constraints), so only candidate ⊆Σ q
    // needs verifying — but we verify both directions for robustness when the
    // chase was truncated.
    let expansion = chased.thaw().expect("a tgd chase keeps the frozen head");
    subquery_witness_search(left, &expansion, sigma, config)
}

/// Decides semantic acyclicity of `query` under a set of egds.
pub fn semantic_acyclicity_under_egds(
    query: &ConjunctiveQuery,
    egds: &[Egd],
    config: SemAcConfig,
) -> SemAcResult {
    // Fast path: the core is already acyclic (no constraints needed).  In
    // particular, an acyclic input query is always its own witness — even
    // when the chase under the egds destroys acyclicity (Examples 4 and 5).
    if let Some(core) = is_semantically_acyclic_no_constraints(query) {
        return SemAcResult::Witness(core);
    }

    let sigma = Sigma::Egds(egds);
    let left = chase_under_egds(query, egds);
    let Some(chased) = &left.chased else {
        // Unsatisfiable under Σ: equivalent to any unsatisfiable acyclic
        // query; report the (acyclic) single-atom restriction of q as a
        // degenerate witness if it exists, otherwise no witness.
        let single = ConjunctiveQuery::new_unchecked(
            query.head.clone(),
            query.body.first().cloned().into_iter().collect(),
        );
        if is_acyclic_query(&single) && sigma.contains(&sigma.chase(&single), query) {
            return SemAcResult::Witness(single);
        }
        return CUT_SHORT;
    };

    // The chase read back as a query is Σ-equivalent to the input — unless
    // it sent a head variable to a constant, which no query head can say.
    let Some(chased_query) = chased.thaw() else {
        return CUT_SHORT;
    };

    // Its core being acyclic settles the question for acyclicity-preserving
    // classes (K2, unary FDs).
    let core = core_of(&chased_query);
    if is_acyclic_query(&core) {
        return SemAcResult::Witness(core);
    }
    subquery_witness_search(&left, &chased_query, sigma, config)
}

/// The constraints a decision runs under: how it chases a query, and how a
/// kept chase answers a containment.
#[derive(Clone, Copy)]
enum Sigma<'a> {
    Tgds(&'a [Tgd], ChaseBudget),
    Egds(&'a [Egd]),
}

impl Sigma<'_> {
    fn chase(self, query: &ConjunctiveQuery) -> ChasedQuery {
        match self {
            Sigma::Tgds(tgds, budget) => chase_under_tgds(query, tgds, budget),
            Sigma::Egds(egds) => chase_under_egds(query, egds),
        }
    }

    /// Whether `left.query ⊆Σ right` is certain.
    fn contains(self, left: &ChasedQuery, right: &ConjunctiveQuery) -> bool {
        match self {
            Sigma::Tgds(tgds, _) => tgd_containment(left, right, tgds).holds(),
            Sigma::Egds(_) => left.contains(slice::from_ref(right)),
        }
    }

    /// Whether `candidate ≡Σ left.query`: the query's side from its kept
    /// chase, the candidate's from a chase of its own.
    fn verify(self, left: &ChasedQuery, candidate: &ConjunctiveQuery) -> bool {
        self.contains(left, candidate) && self.contains(&self.chase(candidate), &left.query)
    }
}

/// Enumerates acyclic sub-conjunctions of `expansion`'s body (smallest
/// first) that cover its head variables, verifying each against `left`.
fn subquery_witness_search(
    left: &ChasedQuery,
    expansion: &ConjunctiveQuery,
    sigma: Sigma,
    config: SemAcConfig,
) -> SemAcResult {
    let atoms: Vec<Atom> = {
        let mut seen = BTreeSet::new();
        expansion
            .body
            .iter()
            .filter(|a| seen.insert(*a))
            .cloned()
            .collect()
    };
    if atoms.len() > config.max_expansion_atoms {
        return CUT_SHORT;
    }
    let head_vars: BTreeSet<Symbol> = expansion.free_variables();
    let n = atoms.len();
    let mut tried = 0usize;
    // Enumerate subsets in order of increasing size so that the returned
    // witness is small.
    for size in 1..=n {
        let mut indices: Vec<usize> = (0..size).collect();
        loop {
            tried += 1;
            if tried > config.max_candidates {
                return CUT_SHORT;
            }
            let subset: Vec<Atom> = indices.iter().map(|i| atoms[*i].clone()).collect();
            let vars: BTreeSet<Symbol> = subset.iter().flat_map(|a| a.variables()).collect();
            if head_vars.iter().all(|v| vars.contains(v)) && is_acyclic_atoms(&subset) {
                let candidate = ConjunctiveQuery::new_unchecked(expansion.head.clone(), subset);
                if sigma.verify(left, &candidate) {
                    return SemAcResult::Witness(candidate);
                }
            }
            // Next combination.
            if !next_combination(&mut indices, n) {
                break;
            }
        }
    }
    SemAcResult::NoWitness {
        exhausted_candidates: !left.truncated,
    }
}

/// Advances `indices` to the next `k`-combination of `{0, …, n-1}`; returns
/// `false` when the enumeration is finished.
fn next_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] != i + n - k {
            indices[i] += 1;
            for j in (i + 1)..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{contained_under_egds, equivalent_under_tgds};
    use sac_common::{atom, intern};
    use sac_deps::FunctionalDependency;

    fn config() -> SemAcConfig {
        SemAcConfig::default()
    }

    fn example1_triangle() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
                atom!("Owns", var "x", var "y"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn no_constraint_baseline_uses_the_core() {
        // A query with a redundant atom whose core is acyclic.
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "x", var "yp"),
        ])
        .unwrap();
        assert!(is_semantically_acyclic_no_constraints(&q).is_some());
        // The Example 1 triangle is a core and cyclic: not semantically
        // acyclic without constraints.
        assert!(is_semantically_acyclic_no_constraints(&example1_triangle()).is_none());
    }

    #[test]
    fn example1_is_semantically_acyclic_under_the_collector_tgd() {
        let tgds = vec![Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()];
        let q = example1_triangle();
        let result = semantic_acyclicity_under_tgds(&q, &tgds, config());
        let witness = result.witness().expect("Example 1 has an acyclic witness");
        assert!(is_acyclic_query(witness));
        // The witness is genuinely Σ-equivalent to the triangle.
        assert!(equivalent_under_tgds(&q, witness, &tgds, ChaseBudget::small()).holds());
        // And it matches the paper's reformulation (2 atoms).
        assert!(witness.size() <= 2);
    }

    #[test]
    fn example1_without_the_tgd_is_not_semantically_acyclic() {
        let result = semantic_acyclicity_under_tgds(&example1_triangle(), &[], config());
        assert!(!result.is_acyclic());
        if let SemAcResult::NoWitness {
            exhausted_candidates,
        } = result
        {
            assert!(exhausted_candidates);
        }
    }

    #[test]
    fn guarded_tgd_can_provide_the_missing_edge() {
        // Guarded variant of the Example 1 phenomenon: a guard atom implies
        // the closing edge of a triangle.
        // G(x,y,z) → E(x,y), E(y,z), E(x,z): guarded (single body atom).
        let tgds = vec![Tgd::new(
            vec![atom!("G", var "x", var "y", var "z")],
            vec![
                atom!("E", var "x", var "y"),
                atom!("E", var "y", var "z"),
                atom!("E", var "x", var "z"),
            ],
        )
        .unwrap()];
        // q :- G(x,y,z), E(x,y), E(y,z), E(x,z): the E-triangle is implied by
        // the guard, so q is equivalent to the acyclic q' :- G(x,y,z).
        let q = ConjunctiveQuery::boolean(vec![
            atom!("G", var "x", var "y", var "z"),
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "x", var "z"),
        ])
        .unwrap();
        let result = semantic_acyclicity_under_tgds(&q, &tgds, config());
        let witness = result.witness().expect("guard makes the query acyclic");
        assert!(is_acyclic_query(witness));
        assert!(equivalent_under_tgds(&q, witness, &tgds, ChaseBudget::small()).holds());
    }

    #[test]
    fn cyclic_core_without_helpful_constraints_has_no_witness() {
        // A 4-cycle with an unrelated inclusion dependency: still cyclic.
        let tgds = vec![Tgd::new(
            vec![atom!("Unrelated", var "a", var "b")],
            vec![atom!("Other", var "b")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x1", var "x2"),
            atom!("E", var "x2", var "x3"),
            atom!("E", var "x3", var "x4"),
            atom!("E", var "x4", var "x1"),
        ])
        .unwrap();
        let result = semantic_acyclicity_under_tgds(&q, &tgds, config());
        assert!(!result.is_acyclic());
    }

    #[test]
    fn linear_tgds_making_a_cycle_redundant() {
        // Σ: E(x,y) → E(y,x) (linear, guarded).  The 2-cycle E(x,y),E(y,x) is
        // then equivalent to the single acyclic atom E(x,y).
        let tgds = vec![Tgd::new(
            vec![atom!("E", var "x", var "y")],
            vec![atom!("E", var "y", var "x")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "x"),
        ])
        .unwrap();
        let result = semantic_acyclicity_under_tgds(&q, &tgds, config());
        // Note: the 2-cycle E(x,y), E(y,x) is already α-acyclic (its two
        // atoms cover each other), so the witness is the query itself; the
        // point of the test is that the decider recognizes this immediately.
        let witness = result.witness().expect("the 2-cycle is α-acyclic");
        assert!(witness.size() <= 2);
        assert!(is_acyclic_query(witness));
    }

    #[test]
    fn semantic_acyclicity_under_keys_example4_style() {
        // Example 4's query is acyclic to begin with; after adding the
        // closing R(x,v) → with the key identifying y and v the query becomes
        // cyclic, and is NOT semantically acyclic under the key (its chased
        // core is the cyclic query).  We check both phenomena.
        let key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
        let acyclic_q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("S", var "x", var "y", var "z"),
            atom!("S", var "x", var "z", var "w"),
            atom!("S", var "x", var "w", var "v"),
            atom!("R", var "x", var "v"),
        ])
        .unwrap();
        // The input is acyclic, so it is trivially semantically acyclic.
        let result = semantic_acyclicity_under_egds(&acyclic_q, &key, config());
        assert!(result.is_acyclic());
    }

    #[test]
    fn keys_over_binary_predicates_collapse_redundant_joins() {
        // Key R: {1} → {2}; the cyclic-looking query
        // R(x,y), R(x,z), T(y,z) becomes acyclic after the chase merges y,z.
        let key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
        let q = ConjunctiveQuery::boolean(vec![
            atom!("R", var "x", var "y"),
            atom!("R", var "x", var "z"),
            atom!("T", var "y", var "z"),
        ])
        .unwrap();
        let result = semantic_acyclicity_under_egds(&q, &key, config());
        let witness = result.witness().expect("the key merges y and z");
        assert!(is_acyclic_query(witness));
        assert!(contained_under_egds(&q, witness, &key));
        assert!(contained_under_egds(witness, &q, &key));
    }

    #[test]
    fn triangle_is_not_semantically_acyclic_under_unrelated_keys() {
        let key = FunctionalDependency::key("Unrelated", 2, [1])
            .unwrap()
            .to_egds();
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "z", var "x"),
        ])
        .unwrap();
        let result = semantic_acyclicity_under_egds(&q, &key, config());
        assert!(!result.is_acyclic());
    }

    #[test]
    fn witnesses_are_returned_with_matching_head_arity() {
        let tgds = vec![Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()];
        let q = example1_triangle();
        if let SemAcResult::Witness(w) = semantic_acyclicity_under_tgds(&q, &tgds, config()) {
            assert_eq!(w.head.len(), q.head.len());
        } else {
            panic!("expected a witness");
        }
    }

    #[test]
    fn acyclic_inputs_are_their_own_witnesses() {
        let q = ConjunctiveQuery::boolean(vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
        ])
        .unwrap();
        let result = semantic_acyclicity_under_tgds(&q, &[], config());
        assert!(result.is_acyclic());
        let result_egds = semantic_acyclicity_under_egds(&q, &[], config());
        assert!(result_egds.is_acyclic());
    }
}
