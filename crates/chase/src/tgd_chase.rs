//! The restricted (standard) chase for tgds.

use crate::budget::ChaseBudget;
use sac_common::{FreshSource, Substitution};
use sac_deps::Tgd;
use sac_query::{ConjunctiveQuery, FrozenQuery, Homomorphisms};
use sac_storage::Instance;

/// The result of a tgd chase run.
#[derive(Debug, Clone)]
pub struct TgdChaseResult {
    /// The chased instance (a prefix of the full chase if `terminated` is
    /// false).
    pub instance: Instance,
    /// Whether the chase reached a fixpoint (every tgd satisfied).
    pub terminated: bool,
    /// The number of chase steps (tgd firings) performed.
    pub steps: usize,
}

/// Runs the restricted chase of `instance` under `tgds` within `budget`.
///
/// A tgd fires on a trigger (a homomorphism of its body) only if the trigger
/// cannot be extended to a homomorphism of body ∧ head — the *restricted*
/// chase condition, which keeps the result small and matches the paper's
/// usage (any chase result is as good as any other for containment purposes,
/// Lemma 1 and the surrounding discussion).
pub fn tgd_chase(instance: &Instance, tgds: &[Tgd], budget: ChaseBudget) -> TgdChaseResult {
    let mut current = instance.clone();
    let mut fresh = FreshSource::starting_after_null(current.max_null_label().unwrap_or(0));
    let mut steps = 0usize;
    // Each tgd's trigger search, compiled once per run: its body, and its
    // head with every body variable pre-bound, so that a trigger's binding
    // array is where the head search starts.
    let mut searches: Vec<(Homomorphisms, Homomorphisms)> = tgds
        .iter()
        .map(|tgd| {
            let body = Homomorphisms::new(&tgd.body, &current, &[]);
            let head = Homomorphisms::new(&tgd.head, &current, body.variables());
            (body, head)
        })
        .collect();

    loop {
        if budget.exceeded(steps, current.len()) {
            return TgdChaseResult {
                instance: current,
                terminated: false,
                steps,
            };
        }
        match first_active_trigger(&searches, &current) {
            None => {
                return TgdChaseResult {
                    instance: current,
                    terminated: true,
                    steps,
                }
            }
            Some((tgd_idx, trigger)) => {
                apply_trigger(&mut current, &tgds[tgd_idx], &trigger, &mut fresh);
                for (body, head) in &mut searches {
                    body.note_growth(&current);
                    head.note_growth(&current);
                }
                steps += 1;
            }
        }
    }
}

/// Chases the canonical database of a query (Lemma 1's `chase(q, Σ)`).
///
/// Returns the chase result together with the frozen query (which records the
/// canonical head tuple `c(x̄)`).
pub fn tgd_chase_query(
    query: &ConjunctiveQuery,
    tgds: &[Tgd],
    budget: ChaseBudget,
) -> (TgdChaseResult, FrozenQuery) {
    let frozen = FrozenQuery::freeze(query);
    let result = tgd_chase(&frozen.instance, tgds, budget);
    (result, frozen)
}

/// Finds an *active* trigger: a tgd and a homomorphism of its body into the
/// instance whose frontier extends to no homomorphism of the head.
fn first_active_trigger(
    searches: &[(Homomorphisms, Homomorphisms)],
    instance: &Instance,
) -> Option<(usize, Substitution)> {
    searches.iter().enumerate().find_map(|(i, (body, head))| {
        let mut trigger = None;
        body.search(instance, &[], |h| {
            let active = !head.search(instance, h, |_| true);
            if active {
                trigger = Some((i, body.substitution(h)));
            }
            active
        });
        trigger
    })
}

/// Fires `tgd` on `trigger`, adding the head atoms with fresh nulls for the
/// existential variables.
fn apply_trigger(
    instance: &mut Instance,
    tgd: &Tgd,
    trigger: &Substitution,
    fresh: &mut FreshSource,
) {
    let mut extended = trigger.clone();
    for z in tgd.existential_variables() {
        let null = fresh.fresh_null();
        let bound = extended.bind_var(z, null);
        debug_assert!(bound, "existential variable was already bound");
    }
    for atom in &tgd.head {
        let fact = extended.apply_atom(atom);
        debug_assert!(fact.is_ground() || fact.variables().is_empty());
        instance
            .insert(fact)
            .expect("chase preserves arity consistency");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern, Term};
    use sac_query::evaluate_boolean;

    fn collector_tgd() -> Tgd {
        Tgd::new(
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
            vec![atom!("Owns", var "x", var "y")],
        )
        .unwrap()
    }

    #[test]
    fn example1_chase_adds_owns_atoms() {
        let db = Instance::from_atoms(vec![
            atom!("Interest", cst "alice", cst "jazz"),
            atom!("Class", cst "kind_of_blue", cst "jazz"),
        ])
        .unwrap();
        let result = tgd_chase(&db, &[collector_tgd()], ChaseBudget::small());
        assert!(result.terminated);
        assert_eq!(result.steps, 1);
        assert!(result
            .instance
            .contains(&atom!("Owns", cst "alice", cst "kind_of_blue")));
    }

    #[test]
    fn chase_is_idempotent_on_models() {
        let db = Instance::from_atoms(vec![
            atom!("Interest", cst "a", cst "s"),
            atom!("Class", cst "r", cst "s"),
            atom!("Owns", cst "a", cst "r"),
        ])
        .unwrap();
        let result = tgd_chase(&db, &[collector_tgd()], ChaseBudget::small());
        assert!(result.terminated);
        assert_eq!(result.steps, 0);
        assert_eq!(result.instance.len(), db.len());
    }

    #[test]
    fn existential_tgds_invent_nulls() {
        let tgd = Tgd::new(
            vec![atom!("Person", var "x")],
            vec![atom!("HasParent", var "x", var "z")],
        )
        .unwrap();
        let db = Instance::from_atoms(vec![atom!("Person", cst "ann")]).unwrap();
        let result = tgd_chase(&db, &[tgd], ChaseBudget::small());
        assert!(result.terminated);
        assert_eq!(result.steps, 1);
        let parents: Vec<_> = result
            .instance
            .atoms()
            .filter(|a| a.predicate == intern("HasParent"))
            .collect();
        assert_eq!(parents.len(), 1);
        assert!(parents[0].args[1].is_null());
    }

    #[test]
    fn restricted_chase_does_not_fire_satisfied_heads() {
        // Person(x) → ∃z Knows(x, z); the database already has Knows(ann, bob).
        let tgd = Tgd::new(
            vec![atom!("Person", var "x")],
            vec![atom!("Knows", var "x", var "z")],
        )
        .unwrap();
        let db = Instance::from_atoms(vec![
            atom!("Person", cst "ann"),
            atom!("Knows", cst "ann", cst "bob"),
        ])
        .unwrap();
        let result = tgd_chase(&db, &[tgd], ChaseBudget::small());
        assert!(result.terminated);
        assert_eq!(result.steps, 0);
    }

    #[test]
    fn non_terminating_chase_is_cut_by_the_budget() {
        // Person(x) → ∃z Parent(x,z); Parent(x,z) → Person(z): infinite chase.
        let tgds = vec![
            Tgd::new(
                vec![atom!("Person", var "x")],
                vec![atom!("Parent", var "x", var "z")],
            )
            .unwrap(),
            Tgd::new(
                vec![atom!("Parent", var "x", var "z")],
                vec![atom!("Person", var "z")],
            )
            .unwrap(),
        ];
        let db = Instance::from_atoms(vec![atom!("Person", cst "adam")]).unwrap();
        let budget = ChaseBudget::new(25, 1_000);
        let result = tgd_chase(&db, &tgds, budget);
        assert!(!result.terminated);
        assert_eq!(result.steps, 25);
        assert!(result.instance.len() > db.len());
    }

    #[test]
    fn chase_of_query_freezes_variables_first() {
        let q = ConjunctiveQuery::new(
            vec![intern("x"), intern("y")],
            vec![
                atom!("Interest", var "x", var "z"),
                atom!("Class", var "y", var "z"),
            ],
        )
        .unwrap();
        let (result, frozen) = tgd_chase_query(&q, &[collector_tgd()], ChaseBudget::small());
        assert!(result.terminated);
        // The collector tgd fires once on the frozen query and adds Owns.
        assert_eq!(result.instance.len(), 3);
        assert_eq!(frozen.head.len(), 2);
        // chase(q, Σ) now satisfies the full Example 1 triangle query.
        let triangle = ConjunctiveQuery::boolean(vec![
            atom!("Interest", var "x", var "z"),
            atom!("Class", var "y", var "z"),
            atom!("Owns", var "x", var "y"),
        ])
        .unwrap();
        assert!(evaluate_boolean(&triangle, &result.instance));
    }

    #[test]
    fn example2_chase_builds_a_clique() {
        // Example 2: q = P(x1) ∧ … ∧ P(xn), τ = P(x), P(y) → R(x,y).
        let n = 4;
        let atoms: Vec<_> = (0..n)
            .map(|i| sac_common::Atom::from_parts("P", vec![Term::Null(i)]))
            .collect();
        let db = Instance::from_atoms(atoms).unwrap();
        let tgd = Tgd::new(
            vec![atom!("P", var "x"), atom!("P", var "y")],
            vec![atom!("R", var "x", var "y")],
        )
        .unwrap();
        let result = tgd_chase(&db, &[tgd], ChaseBudget::small());
        assert!(result.terminated);
        // R holds all n² ordered pairs.
        let r_count = result
            .instance
            .relation(intern("R"))
            .map(|r| r.len())
            .unwrap_or(0);
        assert_eq!(r_count, (n * n) as usize);
    }

    #[test]
    fn multiple_head_atoms_are_all_added() {
        let tgd = Tgd::new(
            vec![atom!("A", var "x")],
            vec![atom!("B", var "x", var "z"), atom!("C", var "z")],
        )
        .unwrap();
        let db = Instance::from_atoms(vec![atom!("A", cst "a")]).unwrap();
        let result = tgd_chase(&db, &[tgd], ChaseBudget::small());
        assert!(result.terminated);
        assert_eq!(result.instance.len(), 3);
        // The same fresh null must link B and C.
        let b = result
            .instance
            .atoms()
            .find(|a| a.predicate == intern("B"))
            .unwrap();
        let c = result
            .instance
            .atoms()
            .find(|a| a.predicate == intern("C"))
            .unwrap();
        assert_eq!(b.args[1], c.args[0]);
    }

    #[test]
    fn full_tgds_terminate_on_any_database() {
        // Transitive closure is full and terminates.
        let tgd = Tgd::new(
            vec![atom!("E", var "x", var "y"), atom!("E", var "y", var "z")],
            vec![atom!("E", var "x", var "z")],
        )
        .unwrap();
        let db = Instance::from_atoms(vec![
            atom!("E", cst "a", cst "b"),
            atom!("E", cst "b", cst "c"),
            atom!("E", cst "c", cst "d"),
        ])
        .unwrap();
        let result = tgd_chase(&db, &[tgd], ChaseBudget::small());
        assert!(result.terminated);
        // Transitive closure of a 3-edge path has 6 edges.
        assert_eq!(result.instance.len(), 6);
    }
}
