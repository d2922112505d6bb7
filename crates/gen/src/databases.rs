//! Synthetic databases for the evaluation experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_common::{Atom, Term};
use sac_storage::Instance;

/// The Example 1 music-collector database with `customers` customers,
/// `records` records and `styles` styles, **closed under the collector tgd**
/// (every customer owns every record of a style they are interested in), so
/// it satisfies the constraint by construction.
///
/// Interests and record classifications are assigned round-robin, which makes
/// the answer counts predictable for the tests and for the `serve_semac`
/// benchmark workload (rows e1 and e8 of EXPERIMENTS.md, "e1–e10: the
/// paper's examples").
pub fn music_database(customers: usize, records: usize, styles: usize) -> Instance {
    let styles = styles.max(1);
    let mut inst = Instance::new();
    let style_name = |s: usize| Term::constant(&format!("style{s}"));
    for r in 0..records {
        inst.insert(Atom::from_parts(
            "Class",
            vec![Term::constant(&format!("rec{r}")), style_name(r % styles)],
        ))
        .expect("consistent arities");
    }
    for c in 0..customers {
        let s = c % styles;
        inst.insert(Atom::from_parts(
            "Interest",
            vec![Term::constant(&format!("cust{c}")), style_name(s)],
        ))
        .expect("consistent arities");
        // Close under the collector tgd: own every record of the style.
        let mut r = s;
        while r < records {
            inst.insert(Atom::from_parts(
                "Owns",
                vec![
                    Term::constant(&format!("cust{c}")),
                    Term::constant(&format!("rec{r}")),
                ],
            ))
            .expect("consistent arities");
            r += styles;
        }
    }
    inst
}

/// A random directed graph over `nodes` nodes with `edges` edges (predicate
/// `E`), seeded for reproducibility.
pub fn random_graph_database(nodes: usize, edges: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new();
    let node = |i: usize| Term::constant(&format!("n{i}"));
    let mut inserted = 0usize;
    let mut attempts = 0usize;
    while inserted < edges && attempts < edges * 20 {
        attempts += 1;
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if inst
            .insert(Atom::from_parts("E", vec![node(a), node(b)]))
            .expect("consistent arities")
        {
            inserted += 1;
        }
    }
    inst
}

/// An append-heavy streaming workload over the binary `E` graph schema: a
/// base random graph of `base_edges` edges plus `batches` disjoint append
/// batches of (up to) `batch_size` fresh edges each, seeded for
/// reproducibility.
///
/// The batches are what a streaming ingestion pipeline delivers: every
/// atom is new with respect to the base *and* to every earlier batch, so
/// replaying them against the base reproduces one deterministic growth
/// history — exactly the shape the engine's materialized views maintain
/// over (EXPERIMENTS.md, "e14 view maintenance").  Batches can come up short only when the
/// `nodes²` edge space is nearly exhausted; size `nodes` generously.
pub fn streaming_graph_workload(
    nodes: usize,
    base_edges: usize,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> (Instance, Vec<Vec<Atom>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let node = |i: usize| Term::constant(&format!("n{i}"));
    let mut grown = Instance::new();
    let mut draw_edges = |grown: &mut Instance, count: usize| -> Vec<Atom> {
        let mut fresh = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while fresh.len() < count && attempts < count * 20 + 100 {
            attempts += 1;
            let a = rng.gen_range(0..nodes);
            let b = rng.gen_range(0..nodes);
            let atom = Atom::from_parts("E", vec![node(a), node(b)]);
            if grown.insert(atom.clone()).expect("consistent arities") {
                fresh.push(atom);
            }
        }
        fresh
    };
    draw_edges(&mut grown, base_edges);
    let base = grown.clone();
    let stream = (0..batches)
        .map(|_| draw_edges(&mut grown, batch_size))
        .collect();
    (base, stream)
}

/// A star-schema database: a `Fact(id, dim1, dim2)` table with two dimension
/// tables `Dim1(d1, attr)` and `Dim2(d2, attr)` — a shape for
/// evaluation-scaling sweeps (row e8 of EXPERIMENTS.md, "e1–e10: the paper's
/// examples").
pub fn star_schema_database(facts: usize, dim1: usize, dim2: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim1 = dim1.max(1);
    let dim2 = dim2.max(1);
    let mut inst = Instance::new();
    for d in 0..dim1 {
        inst.insert(Atom::from_parts(
            "Dim1",
            vec![
                Term::constant(&format!("d1_{d}")),
                Term::constant(&format!("attr{}", d % 7)),
            ],
        ))
        .expect("consistent arities");
    }
    for d in 0..dim2 {
        inst.insert(Atom::from_parts(
            "Dim2",
            vec![
                Term::constant(&format!("d2_{d}")),
                Term::constant(&format!("attr{}", d % 5)),
            ],
        ))
        .expect("consistent arities");
    }
    for f in 0..facts {
        let a = rng.gen_range(0..dim1);
        let b = rng.gen_range(0..dim2);
        inst.insert(Atom::from_parts(
            "Fact",
            vec![
                Term::constant(&format!("f{f}")),
                Term::constant(&format!("d1_{a}")),
                Term::constant(&format!("d2_{b}")),
            ],
        ))
        .expect("consistent arities");
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::collector_tgd;
    use sac_chase::{tgd_chase, ChaseBudget};
    use sac_common::intern;

    #[test]
    fn music_database_satisfies_the_collector_tgd() {
        let db = music_database(10, 20, 4);
        let chased = tgd_chase(&db, &[collector_tgd()], ChaseBudget::large());
        assert!(chased.terminated);
        assert_eq!(
            chased.steps, 0,
            "the generated database must already be closed under the tgd"
        );
    }

    #[test]
    fn music_database_sizes_scale_with_parameters() {
        let small = music_database(5, 10, 2);
        let large = music_database(50, 100, 2);
        assert!(large.len() > small.len());
        assert!(small.relation(intern("Interest")).unwrap().len() == 5);
        assert!(small.relation(intern("Class")).unwrap().len() == 10);
    }

    #[test]
    fn random_graph_is_reproducible_and_bounded() {
        let a = random_graph_database(50, 200, 1);
        let b = random_graph_database(50, 200, 1);
        assert_eq!(a.len(), b.len());
        assert!(a.len() <= 200);
        assert!(a.len() > 100, "should achieve most requested edges");
    }

    #[test]
    fn streaming_workload_batches_are_fresh_and_reproducible() {
        let (base, stream) = streaming_graph_workload(20, 60, 4, 10, 9);
        assert_eq!(stream.len(), 4);
        let mut grown = base.clone();
        for batch in &stream {
            assert_eq!(batch.len(), 10, "the edge space is far from exhausted");
            for atom in batch {
                assert!(
                    grown.insert(atom.clone()).unwrap(),
                    "every streamed atom is new at its point in the history"
                );
            }
        }
        assert_eq!(grown.len(), base.len() + 40);
        // Same seed, same history.
        let (base2, stream2) = streaming_graph_workload(20, 60, 4, 10, 9);
        assert_eq!(base.len(), base2.len());
        assert_eq!(stream, stream2);
    }

    #[test]
    fn star_schema_has_three_relations() {
        let db = star_schema_database(100, 10, 10, 3);
        assert_eq!(db.predicates().count(), 3);
        assert_eq!(db.relation(intern("Fact")).unwrap().len(), 100);
    }
}
