//! One test per named artifact of the paper (examples, figures, theorems with
//! executable content), serving as the index of reproduced results.

use sac::prelude::*;

/// Example 1 + Theorem 11 machinery: semantic acyclicity under a (full,
/// non-recursive) tgd, witness matches the paper's reformulation.
#[test]
fn example_1_reformulation() {
    let q = sac::gen::example1_triangle();
    let tgds = vec![sac::gen::collector_tgd()];
    let witness = semantic_acyclicity_under_tgds(&q, &tgds, SemAcConfig::default())
        .witness()
        .cloned()
        .expect("Example 1");
    assert_eq!(witness.size(), 2);
    let preds: Vec<String> = witness.predicates().iter().map(|p| p.as_str()).collect();
    assert!(preds.contains(&"Interest".to_string()));
    assert!(preds.contains(&"Class".to_string()));
}

/// Figure 1: the marking procedure classifies the sticky and non-sticky sets.
#[test]
fn figure_1_stickiness() {
    assert!(is_sticky(&sac::gen::figure1_sticky()));
    assert!(!is_sticky(&sac::gen::figure1_non_sticky()));
}

/// Example 2: non-recursive/sticky chases can destroy acyclicity (n-clique).
#[test]
fn example_2_clique() {
    let n = 5;
    let probe = chase_preserves_acyclicity(
        &sac::gen::example2_query(n),
        &[sac::gen::example2_tgd()],
        ChaseBudget::large(),
    );
    assert!(probe.input_acyclic && !probe.output_acyclic);
    assert!(probe.clique_lower_bound >= n);
}

/// Example 3: the UCQ rewriting height under the sticky family is 2^n.
#[test]
fn example_3_exponential_rewriting_height() {
    for n in 2..=3usize {
        let (tgds, q) = sac::gen::example3_sticky_family(n);
        assert!(is_sticky(&tgds));
        let rw = rewrite(&q, &tgds, RewriteBudget::large());
        assert!(rw.complete);
        assert!(
            rw.height() >= 1 << n,
            "height {} should be ≥ 2^{n}",
            rw.height()
        );
    }
}

/// Examples 4 and 5: keys over ≥3-ary predicates destroy acyclicity, keys
/// over unary/binary predicates do not (Propositions 22 / Theorem 23).
#[test]
fn examples_4_and_5_keys() {
    let ternary_key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
    let probe = sac::chase::probe::egd_chase_preserves_acyclicity(
        &sac::gen::example4_query(),
        &ternary_key,
    );
    assert!(probe.input_acyclic && !probe.output_acyclic);

    let binary_key = FunctionalDependency::key("E", 2, [1]).unwrap().to_egds();
    let acyclic_queries = [sac::gen::path_query(5), sac::gen::star_query(5)];
    for q in acyclic_queries {
        let probe = sac::chase::probe::egd_chase_preserves_acyclicity(&q, &binary_key);
        assert!(probe.preserved());
    }
}

/// Theorem 7 / Figure 2: the PCP reduction, executable in both directions on
/// concrete instances.
#[test]
fn theorem_7_pcp_reduction() {
    let solvable = PcpInstance::new(vec!["a"], vec!["a"])
        .unwrap()
        .normalize_even();
    let (q, tgds) = sac::core::build_pcp_reduction(&solvable);
    assert!(classify_tgds(&tgds).full);
    let path = solution_path_query(&solvable, &[0]).unwrap();
    assert!(equivalent_under_tgds(&q, &path, &tgds, ChaseBudget::new(5_000, 100_000)).holds());

    let unsolvable = PcpInstance::new(vec!["a"], vec!["b"])
        .unwrap()
        .normalize_even();
    let (q, tgds) = sac::core::build_pcp_reduction(&unsolvable);
    let candidate = solution_path_query(&unsolvable, &[0]).unwrap();
    assert!(
        !equivalent_under_tgds(&q, &candidate, &tgds, ChaseBudget::new(5_000, 100_000)).holds()
    );
}

/// Lemma 9 / Figure 3: compact acyclic witnesses of linear size.
#[test]
fn lemma_9_compaction() {
    use sac::acyclic::compact_acyclic_witness;
    let q = parse_query("q() :- Start(S), End(E).").unwrap();
    let mut atoms = Vec::new();
    atoms.push(sac_atom("Start", &[0]));
    for i in 0..30u64 {
        atoms.push(sac_atom("Next", &[i, i + 1]));
    }
    atoms.push(sac_atom("End", &[30]));
    let instance = Instance::from_atoms(atoms).unwrap();
    let hom = sac::query::all_homomorphisms(&q.body, &instance).remove(0);
    let witness = compact_acyclic_witness(&q, &instance, &hom).unwrap();
    assert!(is_acyclic_query(&witness));
    assert!(witness.size() <= 3 * q.size());
    assert!(contained_in(&witness, &q));
}

fn sac_atom(pred: &str, nulls: &[u64]) -> Atom {
    Atom::from_parts(pred, nulls.iter().map(|n| Term::Null(*n)).collect())
}

/// Theorem 25: cover-game evaluation equals standard evaluation for
/// semantically acyclic queries on databases satisfying the constraints.
#[test]
fn theorem_25_cover_game_evaluation() {
    let q = ConjunctiveQuery::boolean(sac::gen::example1_triangle().body).unwrap();
    let db = sac::gen::music_database(15, 30, 4);
    let game = cover_game_evaluate(&q, &db);
    let exact = evaluate(&q, &db);
    assert_eq!(game, exact);
}

/// Section 8.2: acyclic approximations exist and are Σ-contained in the query.
#[test]
fn section_8_2_approximations() {
    let q = parse_query("q() :- E(X, Y), E(Y, Z), E(Z, X).").unwrap();
    let report = acyclic_approximations(&q, &[], ChaseBudget::small());
    assert!(!report.maximal.is_empty());
    for approx in &report.maximal {
        assert!(is_acyclic_query(approx));
        assert!(contained_under_tgds(approx, &q, &[], ChaseBudget::small()).holds());
    }
}
