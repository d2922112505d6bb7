//! The Theorem 7 reduction: PCP ≤ semantic acyclicity under full tgds.
//!
//! Undecidability cannot be "run", but the reduction can: given a Post
//! Correspondence Problem instance over `{a, b}`, we build the Boolean CQ `q`
//! and the set `Σ` of full tgds from the proof of Theorem 7 (the appendix's
//! "temporary" version, whose underlying shape is the one sketched in
//! Figure 2), such that
//!
//! * if the PCP instance has a solution `i1 … im`, then the acyclic *path
//!   query* spelling `w_{i1} … w_{im}` is Σ-equivalent to `q`
//!   ([`solution_path_query`] builds it, and the equivalence is checkable
//!   with the chase because full tgds always terminate);
//! * if the instance has no solution, no path query is Σ-equivalent to `q`.
//!
//! The tests exercise both directions on concrete instances, which is the
//! strongest executable evidence a library can give for a reduction used in
//! an undecidability proof.

use sac_common::{Atom, SacError, SacResult, Term};
use sac_deps::Tgd;
use sac_query::ConjunctiveQuery;

/// A PCP instance: two equally long lists of non-empty words over `{a, b}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcpInstance {
    /// The first list `w_1, …, w_n`.
    pub top: Vec<String>,
    /// The second list `w'_1, …, w'_n`.
    pub bottom: Vec<String>,
}

impl PcpInstance {
    /// Creates an instance, validating the alphabet and the list lengths.
    pub fn new(top: Vec<&str>, bottom: Vec<&str>) -> SacResult<PcpInstance> {
        let top: Vec<String> = top.into_iter().map(str::to_owned).collect();
        let bottom: Vec<String> = bottom.into_iter().map(str::to_owned).collect();
        if top.len() != bottom.len() || top.is_empty() {
            return Err(SacError::invalid(
                "PCP lists must be non-empty and equally long",
            ));
        }
        for w in top.iter().chain(bottom.iter()) {
            if w.is_empty() || !w.chars().all(|c| c == 'a' || c == 'b') {
                return Err(SacError::invalid(format!(
                    "PCP words must be non-empty words over {{a,b}}, got `{w}`"
                )));
            }
        }
        Ok(PcpInstance { top, bottom })
    }

    /// The even-length normalization used by the appendix proof (`a ↦ aa`,
    /// `b ↦ bb`), which does not change solvability.
    pub fn normalize_even(&self) -> PcpInstance {
        let double = |w: &String| w.chars().flat_map(|c| [c, c]).collect::<String>();
        PcpInstance {
            top: self.top.iter().map(double).collect(),
            bottom: self.bottom.iter().map(double).collect(),
        }
    }

    /// Checks whether an index sequence is a solution.
    pub fn is_solution(&self, indices: &[usize]) -> bool {
        if indices.is_empty() || indices.iter().any(|i| *i >= self.top.len()) {
            return false;
        }
        let top: String = indices.iter().map(|i| self.top[*i].as_str()).collect();
        let bottom: String = indices.iter().map(|i| self.bottom[*i].as_str()).collect();
        top == bottom
    }

    /// Brute-force search for a solution of length at most `max_len`
    /// (exponential; used only by tests and demos on tiny instances).
    pub fn find_solution(&self, max_len: usize) -> Option<Vec<usize>> {
        let n = self.top.len();
        let mut stack: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        while let Some(seq) = stack.pop() {
            if self.is_solution(&seq) {
                return Some(seq);
            }
            if seq.len() >= max_len {
                continue;
            }
            // Prune: one concatenation must be a prefix of the other.
            let top: String = seq.iter().map(|i| self.top[*i].as_str()).collect();
            let bottom: String = seq.iter().map(|i| self.bottom[*i].as_str()).collect();
            if !(top.starts_with(&bottom) || bottom.starts_with(&top)) {
                continue;
            }
            for i in 0..n {
                let mut next = seq.clone();
                next.push(i);
                stack.push(next);
            }
        }
        None
    }
}

/// A path of atoms spelling `word` from `from` to `to`, with fresh
/// intermediate variables derived from `prefix`.
fn word_path(word: &str, from: Term, to: Term, prefix: &str) -> Vec<Atom> {
    let letters: Vec<char> = word.chars().collect();
    let mut atoms = Vec::with_capacity(letters.len());
    let mut current = from;
    for (i, letter) in letters.iter().enumerate() {
        let next = if i + 1 == letters.len() {
            to
        } else {
            Term::variable(&format!("{prefix}_{i}"))
        };
        let predicate = match letter {
            'a' => "Pa",
            'b' => "Pb",
            other => unreachable!("validated alphabet, got {other}"),
        };
        atoms.push(Atom::from_parts(predicate, vec![current, next]));
        current = next;
    }
    atoms
}

/// The atoms of the "copy of q" gadget over variables `(x, y, z, u, v)` —
/// these are exactly the atoms the finalization rules add and the atoms the
/// query `q` consists of (besides the finalization body pattern itself).
fn gadget_atoms(x: Term, y: Term, z: Term, u: Term, v: Term) -> Vec<Atom> {
    let mut atoms = vec![
        Atom::from_parts("start", vec![x]),
        Atom::from_parts("end", vec![v]),
        Atom::from_parts("Phash", vec![x, y]),
        Atom::from_parts("Phash", vec![x, z]),
        Atom::from_parts("Phash", vec![x, u]),
        Atom::from_parts("Pa", vec![y, z]),
        Atom::from_parts("Pa", vec![z, u]),
        Atom::from_parts("Pa", vec![u, y]),
        Atom::from_parts("Pb", vec![z, y]),
        Atom::from_parts("Pb", vec![u, z]),
        Atom::from_parts("Pb", vec![y, u]),
        Atom::from_parts("Pstar", vec![y, v]),
        Atom::from_parts("Pstar", vec![z, v]),
        Atom::from_parts("Pstar", vec![u, v]),
    ];
    for s in [y, z, u] {
        for t in [y, z, u] {
            atoms.push(Atom::from_parts("sync", vec![s, t]));
        }
    }
    atoms
}

/// Builds the Theorem 7 reduction: the Boolean CQ `q` and the set `Σ` of full
/// tgds for a PCP instance.
pub fn build_pcp_reduction(instance: &PcpInstance) -> (ConjunctiveQuery, Vec<Tgd>) {
    let x = Term::variable("x");
    let y = Term::variable("y");
    let z = Term::variable("z");
    let u = Term::variable("u");
    let v = Term::variable("v");
    let q = ConjunctiveQuery::new_unchecked(Vec::new(), gadget_atoms(x, y, z, u, v));

    let mut tgds = Vec::new();

    // 1. Initialization: start(x), Phash(x,y) → sync(y,y).
    tgds.push(
        Tgd::new(
            vec![
                Atom::from_parts("start", vec![Term::variable("ix")]),
                Atom::from_parts("Phash", vec![Term::variable("ix"), Term::variable("iy")]),
            ],
            vec![Atom::from_parts(
                "sync",
                vec![Term::variable("iy"), Term::variable("iy")],
            )],
        )
        .expect("initialization tgd is well-formed"),
    );

    // 2. Synchronization, one rule per index.
    for (i, (w, w_prime)) in instance.top.iter().zip(instance.bottom.iter()).enumerate() {
        let sx = Term::variable(&format!("s{i}_x"));
        let sy = Term::variable(&format!("s{i}_y"));
        let sz = Term::variable(&format!("s{i}_z"));
        let su = Term::variable(&format!("s{i}_u"));
        let mut body = vec![Atom::from_parts("sync", vec![sx, sy])];
        body.extend(word_path(w, sx, sz, &format!("s{i}_top")));
        body.extend(word_path(w_prime, sy, su, &format!("s{i}_bot")));
        tgds.push(
            Tgd::new(body, vec![Atom::from_parts("sync", vec![sz, su])])
                .expect("synchronization tgd is well-formed"),
        );
    }

    // 3. Finalization, one rule per index.
    for (i, (w, w_prime)) in instance.top.iter().zip(instance.bottom.iter()).enumerate() {
        let fx = Term::variable(&format!("f{i}_x"));
        let fy = Term::variable(&format!("f{i}_y"));
        let fz = Term::variable(&format!("f{i}_z"));
        let fu = Term::variable(&format!("f{i}_u"));
        let fv = Term::variable(&format!("f{i}_v"));
        let fy1 = Term::variable(&format!("f{i}_y1"));
        let fy2 = Term::variable(&format!("f{i}_y2"));
        let mut body = vec![
            Atom::from_parts("start", vec![fx]),
            Atom::from_parts("Pa", vec![fy, fz]),
            Atom::from_parts("Pa", vec![fz, fu]),
            Atom::from_parts("Pstar", vec![fu, fv]),
            Atom::from_parts("end", vec![fv]),
            Atom::from_parts("sync", vec![fy1, fy2]),
        ];
        body.extend(word_path(w, fy1, fy, &format!("f{i}_top")));
        body.extend(word_path(w_prime, fy2, fy, &format!("f{i}_bot")));
        // Head: the full copy of the gadget minus the atoms already in the
        // body pattern (keeping them is harmless; we add the complete gadget
        // so the head literally contains a copy of q over (fx, fy, fz, fu, fv)).
        let head = gadget_atoms(fx, fy, fz, fu, fv);
        tgds.push(Tgd::new(body, head).expect("finalization tgd is well-formed"));
    }

    (q, tgds)
}

/// The acyclic *path query* associated with a candidate solution sequence:
/// `start → P# → (spell w_{i1}…w_{im}) → Pa → Pa → P* → end`.
///
/// Returns an error if the sequence is not a valid index sequence.
pub fn solution_path_query(
    instance: &PcpInstance,
    indices: &[usize],
) -> SacResult<ConjunctiveQuery> {
    if indices.is_empty() || indices.iter().any(|i| *i >= instance.top.len()) {
        return Err(SacError::invalid("invalid PCP index sequence"));
    }
    let word: String = indices.iter().map(|i| instance.top[*i].as_str()).collect();
    let x = Term::variable("p_x");
    let first = Term::variable("p_0");
    let w_end = Term::variable("p_wend");
    let z = Term::variable("p_z");
    let u = Term::variable("p_u");
    let v = Term::variable("p_v");
    let mut atoms = vec![
        Atom::from_parts("start", vec![x]),
        Atom::from_parts("Phash", vec![x, first]),
    ];
    atoms.extend(word_path(&word, first, w_end, "p_w"));
    atoms.push(Atom::from_parts("Pa", vec![w_end, z]));
    atoms.push(Atom::from_parts("Pa", vec![z, u]));
    atoms.push(Atom::from_parts("Pstar", vec![u, v]));
    atoms.push(Atom::from_parts("end", vec![v]));
    Ok(ConjunctiveQuery::new_unchecked(Vec::new(), atoms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{contained_under_tgds, equivalent_under_tgds, ContainmentAnswer};
    use sac_acyclic::is_acyclic_query;
    use sac_chase::ChaseBudget;
    use sac_deps::classify_tgds;

    fn budget() -> ChaseBudget {
        ChaseBudget::new(5_000, 100_000)
    }

    #[test]
    fn instance_validation_and_solutions() {
        assert!(PcpInstance::new(vec!["a"], vec!["a", "b"]).is_err());
        assert!(PcpInstance::new(vec!["ac"], vec!["a"]).is_err());
        let inst = PcpInstance::new(vec!["a", "ab"], vec!["aa", "b"]).unwrap();
        assert!(inst.is_solution(&[0, 1]));
        assert!(!inst.is_solution(&[1, 0]));
        assert!(!inst.is_solution(&[]));
        assert_eq!(inst.find_solution(3), Some(vec![0, 1]));
        let unsolvable = PcpInstance::new(vec!["a"], vec!["b"]).unwrap();
        assert_eq!(unsolvable.find_solution(4), None);
    }

    #[test]
    fn even_normalization_preserves_solvability() {
        let inst = PcpInstance::new(vec!["a", "ab"], vec!["aa", "b"]).unwrap();
        let even = inst.normalize_even();
        assert!(even.is_solution(&[0, 1]));
        assert!(even.top.iter().all(|w| w.len() % 2 == 0));
    }

    #[test]
    fn reduction_produces_full_body_connected_tgds_and_a_cyclic_query() {
        let inst = PcpInstance::new(vec!["a"], vec!["a"])
            .unwrap()
            .normalize_even();
        let (q, tgds) = build_pcp_reduction(&inst);
        let classification = classify_tgds(&tgds);
        assert!(classification.full, "Theorem 7 uses full tgds");
        // The initialization and synchronization rules are body-connected
        // (the finalization rules are not: `start(x)` floats freely, exactly
        // as in the paper's construction).
        assert!(tgds[0].is_body_connected());
        assert!(tgds[1].is_body_connected());
        assert!(!is_acyclic_query(&q), "the gadget query is cyclic");
        assert!(q.is_connected());
    }

    #[test]
    fn solvable_instance_yields_an_equivalent_acyclic_path_query() {
        // w1 = aa, w1' = aa: solution [0].
        let inst = PcpInstance::new(vec!["a"], vec!["a"])
            .unwrap()
            .normalize_even();
        let solution = inst.find_solution(2).expect("trivially solvable");
        let (q, tgds) = build_pcp_reduction(&inst);
        let path = solution_path_query(&inst, &solution).unwrap();
        assert!(is_acyclic_query(&path));
        // Full tgds terminate, so the chase-based equivalence test is exact.
        assert!(
            equivalent_under_tgds(&q, &path, &tgds, budget()).holds(),
            "the solution path query must be Σ-equivalent to q"
        );
    }

    #[test]
    fn path_query_of_a_non_solution_is_not_equivalent() {
        // Unsolvable instance: a / b.
        let inst = PcpInstance::new(vec!["a"], vec!["b"])
            .unwrap()
            .normalize_even();
        let (q, tgds) = build_pcp_reduction(&inst);
        // A candidate path spelling the top word of index 0 (not a solution).
        let path = solution_path_query(&inst, &[0]).unwrap();
        // q always maps into the chase of an acyclic path's canonical db only
        // if the finalization fires; here it must not.
        assert_eq!(
            contained_under_tgds(&path, &q, &tgds, budget()),
            ContainmentAnswer::Fails
        );
        assert!(!equivalent_under_tgds(&q, &path, &tgds, budget()).holds());
    }

    #[test]
    fn the_gadget_query_always_contains_the_path_query() {
        // Direction that holds regardless of solvability: q ⊆Σ path, because
        // the path maps homomorphically into q (wrap around the triangle).
        let inst = PcpInstance::new(vec!["ab"], vec!["ba"])
            .unwrap()
            .normalize_even();
        let (q, tgds) = build_pcp_reduction(&inst);
        let path = solution_path_query(&inst, &[0]).unwrap();
        assert!(contained_under_tgds(&q, &path, &tgds, budget()).holds());
    }

    #[test]
    fn two_index_solution_also_witnesses_equivalence() {
        let inst = PcpInstance::new(vec!["a", "ab"], vec!["aa", "b"])
            .unwrap()
            .normalize_even();
        let solution = inst.find_solution(3).expect("solvable");
        let (q, tgds) = build_pcp_reduction(&inst);
        let path = solution_path_query(&inst, &solution).unwrap();
        assert!(equivalent_under_tgds(&q, &path, &tgds, budget()).holds());
    }
}
