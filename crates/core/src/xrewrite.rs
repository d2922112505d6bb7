//! The backward-resolution rewriting loop.
//!
//! Starting from the input query, repeatedly pick a disjunct `p`, a tgd
//! `τ = φ → ∃z̄ ψ` (with variables renamed apart), and an atom `α` of `p`
//! unifiable with a head atom of `ψ`; when the unification satisfies the
//! applicability conditions below, add the rewritten disjunct
//! `θ(p \ {α}) ∪ θ(φ)` to the set.  The loop runs to a fixpoint modulo a
//! canonical form (variable renaming by first occurrence), or until the
//! budget is exhausted.
//!
//! Applicability conditions (soundness of a single resolution step): for
//! every existential variable `z` of `τ` whose class under the unifier meets
//! a term of the query atom `α`, the class must contain
//! * no constant,
//! * no frontier variable of `τ`,
//! * no answer (head) variable of `p`,
//! * no query variable that occurs in `p` outside of `α`.
//!
//! These are the classic conditions under which the resolution step is the
//! inverse of a chase step; together with the fixpoint they yield the perfect
//! rewriting for non-recursive and sticky sets (Propositions 17 and 19).

use crate::unify::Unifier;
use sac_common::{Atom, FreshSource, Symbol, Term};
use sac_deps::Tgd;
use sac_query::{ConjunctiveQuery, UnionOfConjunctiveQueries};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Limits on a UCQ rewriting computation.
///
/// For UCQ-rewritable classes (non-recursive, sticky) the rewriting reaches a
/// fixpoint well within reasonable budgets; the limits exist so that feeding
/// a non-UCQ-rewritable set (e.g. a recursive guarded set) never diverges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteBudget {
    /// Maximum number of disjuncts kept in the rewriting.
    pub max_disjuncts: usize,
    /// Maximum number of atoms allowed in a generated disjunct.
    pub max_atoms_per_disjunct: usize,
    /// Maximum number of rewriting steps (disjunct × tgd × atom applications).
    pub max_steps: usize,
}

impl RewriteBudget {
    /// Budget for unit tests and interactive inputs.
    pub fn small() -> RewriteBudget {
        RewriteBudget {
            max_disjuncts: 2_000,
            max_atoms_per_disjunct: 64,
            max_steps: 50_000,
        }
    }

    /// Budget for the benchmark workloads (Example 3 sweeps in particular).
    pub fn large() -> RewriteBudget {
        RewriteBudget {
            max_disjuncts: 50_000,
            max_atoms_per_disjunct: 1_024,
            max_steps: 2_000_000,
        }
    }

    /// Custom budget.
    pub fn new(
        max_disjuncts: usize,
        max_atoms_per_disjunct: usize,
        max_steps: usize,
    ) -> RewriteBudget {
        RewriteBudget {
            max_disjuncts,
            max_atoms_per_disjunct,
            max_steps,
        }
    }
}

impl Default for RewriteBudget {
    fn default() -> RewriteBudget {
        RewriteBudget::small()
    }
}

/// The result of a rewriting computation.
#[derive(Debug, Clone)]
pub struct UcqRewriting {
    /// The disjuncts accumulated so far (always includes the input query).
    pub ucq: UnionOfConjunctiveQueries,
    /// Whether a fixpoint was reached (the rewriting is complete/perfect).
    pub complete: bool,
    /// Number of successful resolution steps performed.
    pub steps: usize,
}

impl UcqRewriting {
    /// The height of the rewriting (maximal disjunct size), the quantity
    /// `f_C(q, Σ)` of Section 5 (row e5 of EXPERIMENTS.md, "e1–e10: the
    /// paper's examples"; `rewrite.xrewrite_ms` times it).
    pub fn height(&self) -> usize {
        self.ucq.height()
    }
}

/// Computes the UCQ rewriting of `query` under `tgds` within `budget`.
pub fn rewrite(query: &ConjunctiveQuery, tgds: &[Tgd], budget: RewriteBudget) -> UcqRewriting {
    let mut fresh = FreshSource::new();
    let start = query.dedup_atoms();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    seen.insert(canonical_form(&start));
    let mut disjuncts: Vec<ConjunctiveQuery> = vec![start.clone()];
    let mut queue: VecDeque<ConjunctiveQuery> = VecDeque::from([start]);
    let mut steps = 0usize;
    let mut complete = true;

    while let Some(current) = queue.pop_front() {
        for tgd in tgds {
            // Rename the tgd apart from the current disjunct.  The renaming
            // must be *consistent* across occurrences of the same variable,
            // hence the memo map.
            let mut rename_map: BTreeMap<Symbol, Symbol> = BTreeMap::new();
            let renamed = tgd.rename_variables(|v| {
                *rename_map
                    .entry(v)
                    .or_insert_with(|| fresh.fresh_var(&format!("r_{}", v.as_str())))
            });
            for (atom_idx, atom) in current.body.iter().enumerate() {
                for head_atom in &renamed.head {
                    if steps >= budget.max_steps || disjuncts.len() >= budget.max_disjuncts {
                        complete = false;
                        return finish(disjuncts, complete, steps);
                    }
                    let Some(rewritten) =
                        resolution_step(&current, atom_idx, atom, &renamed, head_atom)
                    else {
                        continue;
                    };
                    if rewritten.size() > budget.max_atoms_per_disjunct {
                        complete = false;
                        continue;
                    }
                    steps += 1;
                    let canon = canonical_form(&rewritten);
                    if seen.insert(canon) {
                        disjuncts.push(rewritten.clone());
                        queue.push_back(rewritten);
                    }
                }
            }
        }
    }
    finish(disjuncts, complete, steps)
}

fn finish(disjuncts: Vec<ConjunctiveQuery>, complete: bool, steps: usize) -> UcqRewriting {
    UcqRewriting {
        ucq: UnionOfConjunctiveQueries::new(disjuncts).expect("rewriting preserves the head arity"),
        complete,
        steps,
    }
}

/// Attempts one backward-resolution step of `atom` (at `atom_idx` in `query`)
/// against `head_atom` of `tgd`.
fn resolution_step(
    query: &ConjunctiveQuery,
    atom_idx: usize,
    atom: &Atom,
    tgd: &Tgd,
    head_atom: &Atom,
) -> Option<ConjunctiveQuery> {
    let mut unifier = Unifier::new();
    if !unifier.unify_atoms(atom, head_atom) {
        return None;
    }

    let existential = tgd.existential_variables();
    let frontier = tgd.frontier_variables();
    let answer_vars: BTreeSet<Symbol> = query.free_variables();

    // Query variables occurring outside the rewritten atom.
    let mut outside: BTreeSet<Symbol> = BTreeSet::new();
    for (i, other) in query.body.iter().enumerate() {
        if i != atom_idx {
            outside.extend(other.variables());
        }
    }
    outside.extend(answer_vars.iter().copied());

    // Applicability: check every class that contains an existential variable.
    for z in &existential {
        let z_term = Term::Variable(*z);
        // Only classes actually touched by the unification matter.
        let class = unifier.class_of(z_term);
        if class.len() <= 1 {
            continue;
        }
        for member in class {
            if member == z_term {
                continue;
            }
            match member {
                Term::Constant(_) => return None,
                Term::Null(_) => return None,
                Term::Variable(v) => {
                    if frontier.contains(&v) {
                        return None;
                    }
                    if existential.contains(&v) && v != *z {
                        return None;
                    }
                    // A query variable: it must not occur outside the atom
                    // being rewritten and must not be an answer variable.
                    if !existential.contains(&v) && outside.contains(&v) {
                        return None;
                    }
                }
            }
        }
    }

    // Answer variables must stay variables (our CQ model has no constants in
    // heads); bail out of steps that would bind them to constants.
    for v in &answer_vars {
        if unifier.resolve(Term::Variable(*v)).is_constant() {
            return None;
        }
    }

    // Build the rewritten disjunct: θ(body(q) \ {α}) ∪ θ(body(τ)).
    let mut body: Vec<Atom> = Vec::new();
    for (i, other) in query.body.iter().enumerate() {
        if i != atom_idx {
            body.push(unifier.resolve_atom(other));
        }
    }
    for b in &tgd.body {
        body.push(unifier.resolve_atom(b));
    }
    // Deduplicate atoms.
    let mut dedup: Vec<Atom> = Vec::new();
    let mut seen: BTreeSet<Atom> = BTreeSet::new();
    for a in body {
        if seen.insert(a.clone()) {
            dedup.push(a);
        }
    }

    // Head: answer variables resolved through the unifier (they remain
    // variables by the check above).
    let head: Vec<Symbol> = query
        .head
        .iter()
        .map(|v| match unifier.resolve(Term::Variable(*v)) {
            Term::Variable(sym) => sym,
            _ => unreachable!("answer variables were checked to remain variables"),
        })
        .collect();

    Some(ConjunctiveQuery::new_unchecked(head, dedup))
}

/// A canonical string form of a query up to consistent variable renaming:
/// variables are renumbered in first-occurrence order over the sorted atom
/// list, constants keep their names.
fn canonical_form(query: &ConjunctiveQuery) -> String {
    // Sort atoms by (predicate name, shape) first to reduce sensitivity to
    // atom order, then rename variables by first occurrence.
    let mut atoms: Vec<Atom> = query.body.clone();
    atoms.sort_by_key(|a| {
        (
            a.predicate.as_str(),
            a.args
                .iter()
                .map(|t| match t {
                    Term::Constant(c) => format!("c{}", c.as_str()),
                    Term::Variable(_) => "v".to_string(),
                    Term::Null(n) => format!("n{n}"),
                })
                .collect::<Vec<_>>(),
        )
    });
    let mut names: BTreeMap<Symbol, usize> = BTreeMap::new();
    let mut next = 0usize;
    let mut render_term = |t: &Term| -> String {
        match t {
            Term::Constant(c) => format!("c:{}", c.as_str()),
            Term::Null(n) => format!("n:{n}"),
            Term::Variable(v) => {
                let id = *names.entry(*v).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                format!("v{id}")
            }
        }
    };
    let mut out = String::new();
    // Head first so that answer-variable positions matter.
    out.push_str("H(");
    for v in &query.head {
        out.push_str(&render_term(&Term::Variable(*v)));
        out.push(',');
    }
    out.push(')');
    for a in &atoms {
        out.push_str(a.predicate.as_str().as_str());
        out.push('(');
        for t in &a.args {
            out.push_str(&render_term(t));
            out.push(',');
        }
        out.push(')');
    }
    out
}

/// Interns a fresh-looking variable name for tests.
#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};
    use sac_query::{contained_in, evaluate_boolean, FrozenQuery};

    fn budget() -> RewriteBudget {
        RewriteBudget::small()
    }

    #[test]
    fn rewrite_budget_presets_are_ordered() {
        assert!(RewriteBudget::small().max_disjuncts < RewriteBudget::large().max_disjuncts);
        assert_eq!(RewriteBudget::default(), RewriteBudget::small());
    }

    #[test]
    fn linear_tgd_produces_the_expected_two_disjuncts() {
        // Σ = { R(x,y) → S(y) }, q() :- S(u): rewriting = S(u) ∨ R(x,u).
        let tgds = vec![Tgd::new(
            vec![atom!("R", var "x", var "y")],
            vec![atom!("S", var "y")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::boolean(vec![atom!("S", var "u")]).unwrap();
        let rw = rewrite(&q, &tgds, budget());
        assert!(rw.complete);
        assert_eq!(rw.ucq.len(), 2);
        // One disjunct mentions R.
        assert!(rw
            .ucq
            .disjuncts
            .iter()
            .any(|d| d.predicates().contains(&intern("R"))));
    }

    #[test]
    fn existential_variables_are_erased_when_isolated() {
        // Person(x) → ∃z HasParent(x,z); q() :- HasParent(u,v)
        // rewrites to Person(u).
        let tgds = vec![Tgd::new(
            vec![atom!("Person", var "x")],
            vec![atom!("HasParent", var "x", var "z")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::boolean(vec![atom!("HasParent", var "u", var "v")]).unwrap();
        let rw = rewrite(&q, &tgds, budget());
        assert!(rw.complete);
        assert_eq!(rw.ucq.len(), 2);
        assert!(rw
            .ucq
            .disjuncts
            .iter()
            .any(|d| d.size() == 1 && d.predicates().contains(&intern("Person"))));
    }

    #[test]
    fn existential_variable_shared_outside_the_atom_blocks_the_step() {
        // Same tgd, but v is used elsewhere: HasParent(u,v), Child(v).
        let tgds = vec![Tgd::new(
            vec![atom!("Person", var "x")],
            vec![atom!("HasParent", var "x", var "z")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::boolean(vec![
            atom!("HasParent", var "u", var "v"),
            atom!("Child", var "v"),
        ])
        .unwrap();
        let rw = rewrite(&q, &tgds, budget());
        assert!(rw.complete);
        assert_eq!(rw.ucq.len(), 1, "no sound rewriting step exists");
    }

    #[test]
    fn answer_variables_cannot_be_absorbed_into_existentials() {
        let tgds = vec![Tgd::new(
            vec![atom!("Person", var "x")],
            vec![atom!("HasParent", var "x", var "z")],
        )
        .unwrap()];
        // v is an answer variable: the step must be blocked.
        let q = ConjunctiveQuery::new(
            vec![intern("v")],
            vec![atom!("HasParent", var "u", var "v")],
        )
        .unwrap();
        let rw = rewrite(&q, &tgds, budget());
        assert!(rw.complete);
        assert_eq!(rw.ucq.len(), 1);
    }

    #[test]
    fn rewriting_characterizes_containment_for_nonrecursive_sets() {
        // Σ: Employee(x, d) → Dept(d); Dept(d) → ∃m Manages(m, d)
        // q() :- Manages(m, d).  Then q'() :- Employee(e, d) is contained in q
        // under Σ, and the rewriting of q must witness it without the chase.
        let tgds = vec![
            Tgd::new(
                vec![atom!("Employee", var "x", var "d")],
                vec![atom!("Dept", var "d")],
            )
            .unwrap(),
            Tgd::new(
                vec![atom!("Dept", var "d")],
                vec![atom!("Manages", var "m", var "d")],
            )
            .unwrap(),
        ];
        let q = ConjunctiveQuery::boolean(vec![atom!("Manages", var "m", var "d")]).unwrap();
        let rw = rewrite(&q, &tgds, budget());
        assert!(rw.complete);
        // Disjuncts: Manages(m,d) ∨ Dept(d) ∨ Employee(x,d).
        assert_eq!(rw.ucq.len(), 3);

        let q_prime =
            ConjunctiveQuery::boolean(vec![atom!("Employee", cst "ann", cst "sales")]).unwrap();
        let frozen = FrozenQuery::freeze(&q_prime);
        assert!(rw.ucq.evaluate_boolean(&frozen.instance));

        let unrelated = ConjunctiveQuery::boolean(vec![atom!("Project", cst "p")]).unwrap();
        let frozen2 = FrozenQuery::freeze(&unrelated);
        assert!(!rw.ucq.evaluate_boolean(&frozen2.instance));
    }

    #[test]
    fn rewriting_of_example3_has_exponential_height() {
        // Example 3 (arity n = 2): the disjunct mentioning only P_n contains
        // 2^n atoms.  We build the family for n = 2 and check the height.
        // Σ_i: P_i(x̄_{1..i-1}, Z, x̄_{i+1..n}, Z, O), P_i(…, O, …, Z, O) → P_{i-1}(…, Z, …, Z, O)
        // with n = 2 the predicates have arity n + 2 = 4.
        let n = 2usize;
        let mk_var = |name: String| Term::Variable(intern(&name));
        let mut tgds = Vec::new();
        for i in 1..=n {
            let mut args_z: Vec<Term> = Vec::new();
            let mut args_o: Vec<Term> = Vec::new();
            let mut head_args: Vec<Term> = Vec::new();
            for j in 1..=n {
                if j == i {
                    args_z.push(mk_var("Z".into()));
                    args_o.push(mk_var("O".into()));
                    head_args.push(mk_var("Z".into()));
                } else {
                    args_z.push(mk_var(format!("x{j}")));
                    args_o.push(mk_var(format!("x{j}")));
                    head_args.push(mk_var(format!("x{j}")));
                }
            }
            for args in [&mut args_z, &mut args_o, &mut head_args] {
                args.push(mk_var("Z".into()));
                args.push(mk_var("O".into()));
            }
            tgds.push(
                Tgd::new(
                    vec![
                        Atom::from_parts(&format!("P{i}"), args_z),
                        Atom::from_parts(&format!("P{i}"), args_o),
                    ],
                    vec![Atom::from_parts(&format!("P{}", i - 1), head_args)],
                )
                .unwrap(),
            );
        }
        // q() :- P0(0,…,0,0,1).
        let mut q_args = vec![Term::constant("0"); n];
        q_args.push(Term::constant("0"));
        q_args.push(Term::constant("1"));
        let q = ConjunctiveQuery::boolean(vec![Atom::from_parts("P0", q_args)]).unwrap();

        let rw = rewrite(&q, &tgds, RewriteBudget::large());
        assert!(rw.complete);
        // The P_n-only disjunct has 2^n atoms, so the height is at least 2^n.
        let pn = intern(&format!("P{n}"));
        let pn_only = rw
            .ucq
            .disjuncts
            .iter()
            .filter(|d| d.predicates() == BTreeSet::from([pn]))
            .map(|d| d.size())
            .max()
            .unwrap_or(0);
        assert!(
            pn_only >= 1 << n,
            "expected a P{n}-only disjunct with ≥ {} atoms, found {}",
            1 << n,
            pn_only
        );
    }

    #[test]
    fn rewriting_result_always_contains_the_original_query() {
        let tgds = vec![Tgd::new(vec![atom!("A", var "x")], vec![atom!("B", var "x")]).unwrap()];
        let q = ConjunctiveQuery::boolean(vec![atom!("B", var "u"), atom!("C", var "u")]).unwrap();
        let rw = rewrite(&q, &tgds, budget());
        assert!(rw
            .ucq
            .disjuncts
            .iter()
            .any(|d| contained_in(d, &q) && contained_in(&q, d)));
        // And the rewritten disjunct A(u), C(u) is present too.
        assert!(rw
            .ucq
            .disjuncts
            .iter()
            .any(|d| d.predicates().contains(&intern("A"))));
        // Sanity: evaluating the rewriting on a database satisfying only the
        // rewritten disjunct succeeds.
        let db = sac_storage::Instance::from_atoms(vec![atom!("A", cst "k"), atom!("C", cst "k")])
            .unwrap();
        assert!(rw.ucq.evaluate_boolean(&db));
        assert!(!evaluate_boolean(&q, &db));
    }

    #[test]
    fn budget_exhaustion_is_reported_for_recursive_sets() {
        // A recursive guarded set (not UCQ rewritable): the loop must stop and
        // report incompleteness rather than diverge.
        let tgds = vec![Tgd::new(
            vec![atom!("P", var "x", var "y"), atom!("S", var "x")],
            vec![atom!("S", var "y")],
        )
        .unwrap()];
        let q = ConjunctiveQuery::boolean(vec![atom!("S", cst "b")]).unwrap();
        let rw = rewrite(&q, &tgds, RewriteBudget::new(16, 8, 200));
        assert!(!rw.complete);
        assert!(rw.ucq.len() <= 16);
    }
}
