//! Prints the qualitative outcome of every experiment E1–E10 as a compact
//! table (the quantitative timing series come from `cargo bench`).  This is
//! the binary whose output EXPERIMENTS.md records.
//!
//! Run with `cargo run --release -p sac-bench --bin experiment_report`.

use sac::prelude::*;
use std::time::Instant;

fn main() {
    println!("{:<6} {:<52} outcome", "exp", "artifact");
    println!("{}", "-".repeat(110));

    // E1 — Example 1.
    {
        let q = sac::gen::example1_triangle();
        let tgds = vec![sac::gen::collector_tgd()];
        let data = sac::gen::music_database(400, 800, 20);
        let t0 = Instant::now();
        let slow = evaluate(&q, &data).len();
        let t_naive = t0.elapsed();
        // The witness search runs at prepare time; the timed part is the
        // engine's Yannakakis pass over the witness.
        let db = Database::from_instance(data).with_tgds(tgds);
        let prepared = db.prepare(&q).expect("Example 1 prepares");
        let outcome = match &prepared.explain().witness {
            Some(w) => {
                let t1 = Instant::now();
                let fast = prepared.execute().len();
                let t_fast = t1.elapsed();
                format!(
                    "witness of size {} found; answers {}={} ; naive {:?} vs yannakakis {:?}",
                    w.size(),
                    slow,
                    fast,
                    t_naive,
                    t_fast
                )
            }
            None => "NO WITNESS (unexpected)".to_string(),
        };
        println!("{:<6} {:<52} {}", "E1", "Example 1 reformulation", outcome);
    }

    // E2 — Figure 1.
    println!(
        "{:<6} {:<52} sticky set -> {}, non-sticky variant -> {}",
        "E2",
        "Figure 1 stickiness marking",
        is_sticky(&sac::gen::figure1_sticky()),
        is_sticky(&sac::gen::figure1_non_sticky())
    );

    // E3 — guarded decision scaling.
    {
        let tgds = vec![parse_tgd("E(X, Y) -> E(Y, X).").unwrap()];
        let mut cells = Vec::new();
        for n in [2usize, 4, 6, 8] {
            let q = sac::gen::cycle_query(n);
            let t = Instant::now();
            let res = semantic_acyclicity_under_tgds(&q, &tgds, SemAcConfig::default());
            cells.push(format!("n={n}:{}/{:?}", res.is_acyclic(), t.elapsed()));
        }
        println!(
            "{:<6} {:<52} {}",
            "E3",
            "SemAc(G) scaling on cycles",
            cells.join("  ")
        );
    }

    // E4 — Example 2.
    {
        let mut cells = Vec::new();
        for n in [4usize, 8, 16] {
            let probe = chase_preserves_acyclicity(
                &sac::gen::example2_query(n),
                &[sac::gen::example2_tgd()],
                ChaseBudget::large(),
            );
            cells.push(format!(
                "n={n}: atoms={}, clique≥{}, acyclic={}",
                probe.output_atoms, probe.clique_lower_bound, probe.output_acyclic
            ));
        }
        println!(
            "{:<6} {:<52} {}",
            "E4",
            "Example 2 clique growth",
            cells.join("  ")
        );
    }

    // E5 — Example 3.
    {
        let mut cells = Vec::new();
        for n in [2usize, 3, 4] {
            let (tgds, q) = sac::gen::example3_sticky_family(n);
            let rw = rewrite(&q, &tgds, RewriteBudget::large());
            cells.push(format!("n={n}: height={} (2^n={})", rw.height(), 1 << n));
        }
        println!(
            "{:<6} {:<52} {}",
            "E5",
            "Example 3 rewriting height",
            cells.join("  ")
        );
    }

    // E6 — Examples 4/5.
    {
        let key = FunctionalDependency::key("R", 2, [1]).unwrap().to_egds();
        let mut cells = Vec::new();
        for n in [4usize, 8, 16] {
            let probe = sac::chase::probe::egd_chase_preserves_acyclicity(
                &sac::gen::key_ring_query(n),
                &key,
            );
            cells.push(format!("n={n}: acyclic={}", probe.output_acyclic));
        }
        println!(
            "{:<6} {:<52} {}",
            "E6",
            "Example 4/5 key chase (ring family)",
            cells.join("  ")
        );
    }

    // E7 — cover game.
    {
        let q = ConjunctiveQuery::boolean(sac::gen::example1_triangle().body).unwrap();
        let db = sac::gen::music_database(80, 80, 10);
        let t0 = Instant::now();
        let game = cover_game_evaluate(&q, &db).len();
        let t_game = t0.elapsed();
        let t1 = Instant::now();
        let exact = usize::from(evaluate_boolean(&q, &db));
        let t_naive = t1.elapsed();
        println!(
            "{:<6} {:<52} game={game} exact={exact} agree={} ; game {:?} vs naive {:?}",
            "E7",
            "Theorem 25 cover-game evaluation",
            game == exact,
            t_game,
            t_naive
        );
    }

    // E8 — FPT evaluation scaling.
    {
        let q = sac::gen::example1_triangle();
        let tgds = vec![sac::gen::collector_tgd()];
        let mut cells = Vec::new();
        for customers in [100usize, 400, 1600] {
            let db = Database::from_instance(sac::gen::music_database(customers, customers, 25))
                .with_tgds(tgds.clone());
            // Cold: the timer covers the witness search and the run.
            let t = Instant::now();
            let n = db.run(&q).len();
            cells.push(format!(
                "|D|={}: {} answers in {:?}",
                db.len(),
                n,
                t.elapsed()
            ));
        }
        println!(
            "{:<6} {:<52} {}",
            "E8",
            "Prop 24 FPT evaluation scaling",
            cells.join("  ")
        );
    }

    // E9 — approximations.
    {
        let q = sac::gen::cycle_query(3);
        let report = acyclic_approximations(&q, &[], ChaseBudget::small());
        println!(
            "{:<6} {:<52} {} maximal approximation(s), exact={}",
            "E9",
            "Section 8.2 acyclic approximations (triangle)",
            report.maximal.len(),
            report.exact
        );
    }

    // E10 — PCP reduction.
    {
        let inst = PcpInstance::new(vec!["a", "ab"], vec!["aa", "b"])
            .unwrap()
            .normalize_even();
        let sol = inst.find_solution(3).unwrap();
        let (q, tgds) = sac::core::build_pcp_reduction(&inst);
        let path = solution_path_query(&inst, &sol).unwrap();
        let ok = equivalent_under_tgds(&q, &path, &tgds, ChaseBudget::new(5_000, 100_000)).holds();
        let bad_inst = PcpInstance::new(vec!["a"], vec!["b"])
            .unwrap()
            .normalize_even();
        let (q2, tgds2) = sac::core::build_pcp_reduction(&bad_inst);
        let bad_path = solution_path_query(&bad_inst, &[0]).unwrap();
        let bad =
            equivalent_under_tgds(&q2, &bad_path, &tgds2, ChaseBudget::new(5_000, 100_000)).holds();
        println!(
            "{:<6} {:<52} solvable instance equivalent={ok}, unsolvable instance equivalent={bad}",
            "E10", "Theorem 7 PCP reduction"
        );
    }
}
