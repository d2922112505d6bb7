//! The one homomorphism search: a pattern compiled to slots, run over
//! dictionary codes.
//!
//! Homomorphisms are the primitive behind Lemma 1's containment test, the
//! core, the chase's trigger and head checks, the verification of every
//! candidate witness (Propositions 8 and 15) and the engine's search rung.
//! All of them run this search, in two halves:
//!
//! * **compile** ([`search_steps`]): every variable of the pattern is a slot
//!   of one `[u32]` binding array, and the atoms are ordered greedily from
//!   the target's statistics — repeatedly the atom with the fewest estimated
//!   candidates given what is bound so far (relation cardinality divided by
//!   the distinct count of every bound column).  Each atom becomes a
//!   [`SearchStep`]: the slots it writes, and its probe key as constants and
//!   slots.  The slots of an initial binding are bound before the first
//!   step.
//! * **run** ([`search`]): a step's candidates come from the index on
//!   exactly its bound columns — the relation's sidecar for one column, a
//!   [`JoinIndex`] for several — keyed by the codes the array already holds,
//!   so they agree with the bindings by construction.  Each candidate row
//!   passes [`CodeShape::admits`] (repeated variables, constants) and
//!   overwrites its slots in place; the visitor ends the search by returning
//!   `true`.
//!
//! Nothing is decoded unless a caller needs terms
//! ([`Homomorphisms::substitution`]), and a constant or an initial binding
//! the dictionary never saw matches nothing: no stored fact can hold it.
//!
//! The engine compiles its search rung from these pieces and caches plan
//! and indexes; every other caller uses [`Homomorphisms`], which compiles a
//! pattern against one (typically tens-of-facts) instance and builds each
//! multi-column index it needs the first time a search probes it, and a
//! chase catches them up as its instance grows.  The definition-level
//! enumerator this
//! search is judged against is [`mod@crate::evaluate`], which shares no code
//! with this module.

use sac_common::{Atom, Substitution, Symbol, Term};
use sac_storage::{dict, IndexKey, Instance, JoinIndex, Relation};
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// The shape of one atom: distinct variables, where they first occur, which
/// positions must agree (repeated variables) and which are pinned to
/// constants.
#[derive(Debug, Clone)]
pub struct NodeShape {
    /// Distinct variables in first-occurrence order.
    pub vars: Vec<Symbol>,
    /// Position of the first occurrence of each variable (aligned with `vars`).
    pub var_first: Vec<usize>,
    /// `(later, first)` position pairs that must hold equal terms.
    pub eq_checks: Vec<(usize, usize)>,
    /// Positions holding a rigid (non-variable) term, ascending.
    pub const_positions: Vec<usize>,
    /// The rigid terms at `const_positions`, aligned.
    pub const_key: Vec<Term>,
}

impl NodeShape {
    /// The shape of `atom`.
    pub fn of_atom(atom: &Atom) -> NodeShape {
        let mut vars = Vec::new();
        let mut var_first = Vec::new();
        let mut eq_checks = Vec::new();
        let mut const_positions = Vec::new();
        let mut const_key = Vec::new();
        for (pos, term) in atom.args.iter().enumerate() {
            match term {
                Term::Variable(v) => match vars.iter().position(|u| u == v) {
                    Some(i) => eq_checks.push((pos, var_first[i])),
                    None => {
                        vars.push(*v);
                        var_first.push(pos);
                    }
                },
                rigid => {
                    const_positions.push(pos);
                    const_key.push(*rigid);
                }
            }
        }
        NodeShape {
            vars,
            var_first,
            eq_checks,
            const_positions,
            const_key,
        }
    }
}

/// A [`NodeShape`] with its constants pushed through the dictionary: the
/// decode-free admission test over columnar rows.
pub struct CodeShape<'a> {
    shape: &'a NodeShape,
    /// The codes of `shape.const_key`, aligned.
    pub const_codes: Vec<u32>,
}

impl<'a> CodeShape<'a> {
    /// `None` when some rigid term of the atom was never encoded — then no
    /// stored tuple can match and the atom matches nothing without touching
    /// the relation (the dictionary's `None` is a process-wide absence
    /// guarantee).
    pub fn of(shape: &'a NodeShape) -> Option<CodeShape<'a>> {
        Some(CodeShape {
            shape,
            const_codes: dict::lookup_row(&shape.const_key)?,
        })
    }

    /// Whether row `row` of `cols` passes the shape's repeated-variable and
    /// constant filters: the one definition of "this relation row matches
    /// this atom", shared by the engine's match sets, its delta path and
    /// every search.
    #[inline]
    pub fn admits(&self, cols: &[&[u32]], row: usize) -> bool {
        let (shape, at) = (self.shape, |p: &usize| cols[*p][row]);
        shape.eq_checks.iter().all(|(a, b)| at(a) == at(b))
            && shape
                .const_positions
                .iter()
                .map(at)
                .eq(self.const_codes.iter().copied())
    }

    /// When the shape [`CodeShape::admits`] row `row` of `cols`, appends to
    /// `out` the codes the row holds at the distinct variables' first
    /// occurrences; returns whether it did.
    #[inline]
    pub fn admit_row(&self, cols: &[&[u32]], row: usize, out: &mut Vec<u32>) -> bool {
        let admitted = self.admits(cols, row);
        if admitted {
            out.extend(self.shape.var_first.iter().map(|p| cols[*p][row]));
        }
        admitted
    }
}

/// The relation `atom` reads, when it exists with the atom's arity
/// (otherwise nothing can match the atom).
pub fn relation_of<'d>(atom: &Atom, db: &'d Instance) -> Option<&'d Relation> {
    let relation = db.relation(atom.predicate);
    relation.filter(|rel| rel.arity() == atom.arity())
}

/// A new slot in `keys` for a probe of `predicate` on the positions `key`.
/// `None` for keys of fewer than two columns, which the storage layer's
/// sidecar indexes serve with no index of their own.  Every probing site
/// gets a slot of its own: sites with equal keys share a cached index, not
/// the slot, so the number of keys is the number of index-served probe sites.
pub fn index_slot(keys: &mut Vec<IndexKey>, predicate: Symbol, key: &[usize]) -> Option<usize> {
    (key.len() > 1).then(|| {
        keys.push((predicate, key.to_vec()));
        keys.len() - 1
    })
}

/// One column of a search step's probe key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPart {
    /// The code of the step's `i`-th constant (`shape.const_key[i]`).
    Const(usize),
    /// The code an earlier step, or the initial binding, left in this slot.
    Slot(usize),
}

/// One step of a compiled search: match one pattern atom against its
/// relation, under the bindings of the steps before it.
#[derive(Debug, Clone)]
pub struct SearchStep {
    /// The pattern atom matched (its index in the pattern).
    pub atom: usize,
    pub shape: NodeShape,
    /// `(column, slot)` per distinct variable of the atom nothing bound
    /// before this step (`column` counts in `shape.vars`): where this step
    /// writes its code.  The others are columns of the probe key.
    pub binds: Vec<(usize, usize)>,
    /// The probe key of the step's candidate lookup: the argument positions
    /// known when the step runs — constants, and variables bound before it —
    /// ascending, each with where its code comes from.
    pub key: Vec<(usize, KeyPart)>,
    /// The index slot serving a key of several columns; one column is the
    /// relation's own sidecar index, none a sweep.
    pub index: Option<usize>,
}

/// Orders and compiles one search of `pattern` over `db`'s statistics.  The
/// order is greedy: repeatedly pick the unplanned atom with the smallest
/// estimated candidate count given the variables bound so far (relation
/// cardinality divided by the distinct count of every bound column),
/// tie-breaking towards more bound positions; `first` forces the first
/// pick.  Each pick becomes a step over the binding array laid out as
/// `layout`, whose first `prebound` slots hold an initial binding; its probe
/// key — when it has several columns — gets a new slot in `keys`.  Returns
/// the steps and the estimated cost of the search.
pub fn search_steps(
    pattern: &[Atom],
    db: &Instance,
    mut first: Option<usize>,
    layout: &[Symbol],
    prebound: usize,
    keys: &mut Vec<IndexKey>,
) -> (Vec<SearchStep>, f64) {
    let slot = |v: &Symbol| {
        let slot = layout.iter().position(|u| u == v);
        slot.expect("every pattern variable has a slot")
    };
    let relations: Vec<Option<&Relation>> = pattern.iter().map(|a| relation_of(a, db)).collect();
    let mut remaining: Vec<usize> = (0..pattern.len()).collect();
    let mut bound_vars: BTreeSet<Symbol> = layout[..prebound].iter().copied().collect();
    let mut steps = Vec::new();
    let mut estimated_cost = 0.0f64;
    let mut frontier = 1.0f64;

    while !remaining.is_empty() {
        // Whether a position of an atom is known before the atom runs: a
        // constant, or a variable bound so far.
        let known = |atom: &Atom, pos: &usize| {
            let var = atom.args[*pos].as_variable();
            var.is_none_or(|v| bound_vars.contains(&v))
        };
        // The best pick: its index in `remaining`, its estimate, and how
        // many of its positions are known.
        let mut best: Option<(usize, f64, usize)> = None;
        for (i, &atom_idx) in remaining.iter().enumerate() {
            if first.is_some_and(|forced| forced != atom_idx) {
                continue;
            }
            let (atom, rel) = (&pattern[atom_idx], relations[atom_idx]);
            // Missing relation (or arity clash): zero candidates — the best
            // possible atom to run first.
            let mut est = rel.map_or(0.0, |rel| rel.len() as f64);
            let mut bound = 0;
            for pos in (0..atom.arity()).filter(|pos| known(atom, pos)) {
                bound += 1;
                if let Some(distinct) = rel.map(|rel| rel.distinct_at(pos)).filter(|d| *d > 0) {
                    est /= distinct as f64;
                }
            }
            let better = best.is_none_or(|(_, best_est, best_bound)| {
                est < best_est || (est == best_est && bound > best_bound)
            });
            if better {
                best = Some((i, est, bound));
            }
        }
        let (i, est, _) = best.expect("remaining is non-empty");
        let atom_idx = remaining.swap_remove(i);
        first = None;
        frontier *= est;
        estimated_cost += frontier;

        let atom = &pattern[atom_idx];
        let key_positions: Vec<usize> = (0..atom.arity()).filter(|p| known(atom, p)).collect();
        let shape = NodeShape::of_atom(atom);
        let unbound = |(_, v): &(usize, &Symbol)| !bound_vars.contains(*v);
        let vars = shape.vars.iter().enumerate().filter(unbound);
        let binds = vars.map(|(column, v)| (column, slot(v)));
        let part = |pos: &usize| match &atom.args[*pos] {
            Term::Variable(v) => KeyPart::Slot(slot(v)),
            _ => KeyPart::Const(shape.const_positions.partition_point(|p| p < pos)),
        };
        steps.push(SearchStep {
            index: index_slot(keys, atom.predicate, &key_positions),
            atom: atom_idx,
            binds: binds.collect(),
            key: key_positions.iter().map(|pos| (*pos, part(pos))).collect(),
            shape,
        });
        bound_vars.extend(atom.variables_iter());
    }
    (steps, estimated_cost)
}

/// A [`SearchStep`] with what one run adds to it: the relation's column
/// slices and the dictionary codes of the atom's constants.
struct BoundStep<'a> {
    step: &'a SearchStep,
    rel: &'a Relation,
    cols: Vec<&'a [u32]>,
    shape: CodeShape<'a>,
}

/// Runs `steps`, compiled for `pattern`, over `db`: extends `bindings`
/// (whose pre-bound slots are filled) by every homomorphism, the first step
/// confined to rows at or above `from_row`, and hands each binding array to
/// `visit` until it returns `true` — which the search then returns.
/// `index` hands out the index in a slot the compiler allocated; it is only
/// asked for the slots of steps whose relation exists with the atom's
/// arity.  Nothing is visited when some atom can match nothing at all: its
/// relation is missing or of another arity, or the dictionary never saw one
/// of its constants.
pub fn search<'i>(
    pattern: &[Atom],
    steps: &[SearchStep],
    db: &Instance,
    index: impl Fn(usize) -> &'i JoinIndex,
    from_row: usize,
    bindings: &mut [u32],
    mut visit: impl FnMut(&[u32]) -> bool,
) -> bool {
    let bound = steps.iter().map(|step| {
        let rel = relation_of(&pattern[step.atom], db)?;
        Some(BoundStep {
            step,
            rel,
            cols: rel.columns(),
            shape: CodeShape::of(&step.shape)?,
        })
    });
    match bound.collect::<Option<Vec<BoundStep<'_>>>>() {
        Some(bound) => descend(&bound, from_row, &index, bindings, &mut visit),
        None => false,
    }
}

/// One level of the backtracking search: extends `bindings` by every row of
/// the first of `steps` that agrees with them, and recurses into the rest.
/// Candidates come from the index on exactly the step's bound columns, so
/// they agree with the bindings by construction; slots are overwritten in
/// place — a step only writes slots no earlier step reads, so nothing needs
/// undoing on the way back.
fn descend<'i, I: Fn(usize) -> &'i JoinIndex, F: FnMut(&[u32]) -> bool>(
    steps: &[BoundStep<'_>],
    from_row: usize,
    index: &I,
    bindings: &mut [u32],
    visit: &mut F,
) -> bool {
    let Some((bound, rest)) = steps.split_first() else {
        return visit(bindings);
    };
    let step = bound.step;
    let code = |part: &KeyPart| match part {
        KeyPart::Const(i) => bound.shape.const_codes[*i],
        KeyPart::Slot(slot) => bindings[*slot],
    };
    // One bound column is the relation's sidecar index, several the step's
    // index; both list row ids in ascending order.
    let rows = match (step.index, step.key.first()) {
        (Some(slot), _) => {
            let key: Vec<u32> = step.key.iter().map(|(_, part)| code(part)).collect();
            Some(index(slot).rows_codes(&key))
        }
        (None, Some((pos, part))) => Some(bound.rel.rows_with_code(*pos, code(part))),
        (None, None) => None,
    };
    let mut extend = |row: usize| {
        if !bound.shape.admits(&bound.cols, row) {
            return false;
        }
        for (column, slot) in &step.binds {
            bindings[*slot] = bound.cols[step.shape.var_first[*column]][row];
        }
        descend(rest, 0, index, bindings, visit)
    };
    match rows {
        Some(rows) => {
            let skipped = rows.partition_point(|row| (*row as usize) < from_row);
            rows[skipped..].iter().any(|row| extend(*row as usize))
        }
        None => (from_row..bound.rel.len()).any(extend),
    }
}

/// A pattern compiled for one target instance, some of its variables bound
/// up front: the search behind the core, containment, the chase and the
/// deciders.  It owns the multi-column indexes its steps probe, each built
/// the first time a search reaches its step; every search runs over the
/// instance it was compiled for, or a grown version of it once
/// [`Homomorphisms::note_growth`] has caught the built indexes up.
pub struct Homomorphisms<'p> {
    pattern: &'p [Atom],
    /// Slot → variable: the pre-bound variables first, then the pattern's
    /// others in order of first occurrence.
    layout: Vec<Symbol>,
    /// The slot of each variable of the initial binding (repeats kept).
    fixed: Vec<usize>,
    steps: Vec<SearchStep>,
    keys: Vec<IndexKey>,
    indexes: Vec<OnceCell<JoinIndex>>,
}

impl<'p> Homomorphisms<'p> {
    /// Compiles `pattern` for `target`, the variables `fixed` (which may
    /// repeat) bound before the first step by every search's initial
    /// binding.
    pub fn new(pattern: &'p [Atom], target: &Instance, fixed: &[Symbol]) -> Homomorphisms<'p> {
        let mut layout: Vec<Symbol> = Vec::new();
        let variables = fixed.iter().copied();
        for v in variables.chain(pattern.iter().flat_map(Atom::variables_iter)) {
            if !layout.contains(&v) {
                layout.push(v);
            }
        }
        let fixed: Vec<usize> = fixed
            .iter()
            .map(|v| layout.iter().position(|u| u == v).expect("laid out above"))
            .collect();
        let prebound = fixed.iter().max().map_or(0, |slot| slot + 1);
        let mut keys = Vec::new();
        let (steps, _) = search_steps(pattern, target, None, &layout, prebound, &mut keys);
        Homomorphisms {
            pattern,
            layout,
            fixed,
            steps,
            indexes: vec![OnceCell::new(); keys.len()],
            keys,
        }
    }

    /// Catches the built indexes up with `target`, a grown version of the
    /// instance compiled for: the rows appended since are added to each.
    pub fn note_growth(&mut self, target: &Instance) {
        for ((predicate, _), index) in self.keys.iter().zip(&mut self.indexes) {
            if let (Some(index), Some(rel)) = (index.get_mut(), target.relation(*predicate)) {
                index.extend_from(rel);
            }
        }
    }

    /// The variables of the binding array, in slot order: the pre-bound
    /// ones first, then the pattern's others in order of first occurrence.
    pub fn variables(&self) -> &[Symbol] {
        &self.layout
    }

    /// The binding-array slot of `v`, if it is pre-bound or occurs in the
    /// pattern.
    pub fn slot(&self, v: Symbol) -> Option<usize> {
        self.layout.iter().position(|u| *u == v)
    }

    /// Visits the binding array of every homomorphism into `target` that
    /// extends `initial` — the codes of the pre-bound variables, aligned
    /// with `fixed` — until `visit` returns `true`, and returns whether it
    /// did.  An initial binding that gives a repeated variable two values
    /// extends to nothing.
    pub fn search(
        &self,
        target: &Instance,
        initial: &[u32],
        visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        let mut bindings = vec![0; self.layout.len()];
        for (i, (&slot, &code)) in self.fixed.iter().zip(initial).enumerate() {
            if self.fixed[..i].contains(&slot) && bindings[slot] != code {
                return false;
            }
            bindings[slot] = code;
        }
        let index = |slot: usize| {
            self.indexes[slot].get_or_init(|| {
                let (predicate, positions) = &self.keys[slot];
                let rel = target.relation(*predicate);
                JoinIndex::build(rel.expect("a probed relation exists"), positions)
            })
        };
        let (pattern, steps) = (self.pattern, &self.steps);
        search(pattern, steps, target, index, 0, &mut bindings, visit)
    }

    /// [`Homomorphisms::search`] from an initial binding given as terms.  A
    /// term the dictionary never saw occurs in no fact, so nothing extends
    /// a binding to it.
    pub fn search_terms(
        &self,
        target: &Instance,
        initial: &[Term],
        visit: impl FnMut(&[u32]) -> bool,
    ) -> bool {
        dict::lookup_row(initial).is_some_and(|codes| self.search(target, &codes, visit))
    }

    /// Whether some homomorphism into `target` extends the initial binding
    /// `initial`.
    pub fn exists(&self, target: &Instance, initial: &[Term]) -> bool {
        self.search_terms(target, initial, |_| true)
    }

    /// The substitution a binding array stands for, decoded.
    pub fn substitution(&self, bindings: &[u32]) -> Substitution {
        let decoder = dict::decoder();
        let pairs = self.layout.iter().zip(bindings);
        Substitution::from_pairs(pairs.map(|(v, code)| (Term::Variable(*v), decoder.decode(*code))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_common::{atom, intern};

    fn path_db(n: usize) -> Instance {
        // E(a0,a1), E(a1,a2), ..., E(a{n-1}, a{n})
        let mut inst = Instance::new();
        for i in 0..n {
            inst.insert(Atom::from_parts(
                "E",
                vec![
                    Term::constant(&format!("a{i}")),
                    Term::constant(&format!("a{}", i + 1)),
                ],
            ))
            .unwrap();
        }
        inst
    }

    /// Every homomorphism from `pattern` into `db` extending `initial`,
    /// decoded.
    fn homs(pattern: &[Atom], db: &Instance, initial: &[(&str, Term)]) -> Vec<Substitution> {
        let vars: Vec<Symbol> = initial.iter().map(|(v, _)| intern(v)).collect();
        let terms: Vec<Term> = initial.iter().map(|(_, t)| *t).collect();
        let search = Homomorphisms::new(pattern, db, &vars);
        let mut out = Vec::new();
        search.search_terms(db, &terms, |h| {
            out.push(search.substitution(h));
            false
        });
        out
    }

    #[test]
    fn single_atom_pattern_matches_every_fact() {
        let db = path_db(4);
        let pattern = vec![atom!("E", var "x", var "y")];
        assert_eq!(homs(&pattern, &db, &[]).len(), 4);
    }

    #[test]
    fn two_step_path_pattern() {
        let db = path_db(4);
        let pattern = vec![atom!("E", var "x", var "y"), atom!("E", var "y", var "z")];
        // Paths of length 2 in a 4-edge path: 3.
        assert_eq!(homs(&pattern, &db, &[]).len(), 3);
    }

    #[test]
    fn unsatisfiable_pattern_has_no_homomorphism() {
        let db = path_db(2);
        // A cycle of length 2 does not embed into a directed path.
        let pattern = vec![atom!("E", var "x", var "y"), atom!("E", var "y", var "x")];
        assert!(!Homomorphisms::new(&pattern, &db, &[]).exists(&db, &[]));
    }

    #[test]
    fn constants_in_pattern_restrict_matches() {
        let db = path_db(4);
        let pattern = vec![atom!("E", cst "a0", var "y")];
        let found = homs(&pattern, &db, &[]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get_var(intern("y")), Some(Term::constant("a1")));
    }

    #[test]
    fn missing_predicate_yields_no_matches() {
        let db = path_db(2);
        let pattern = vec![atom!("Missing", var "x")];
        assert!(!Homomorphisms::new(&pattern, &db, &[]).exists(&db, &[]));
        // An arity clash matches nothing either.
        let pattern = vec![atom!("E", var "x", var "y", var "z")];
        assert!(homs(&pattern, &db, &[]).is_empty());
    }

    #[test]
    fn initial_substitution_is_respected() {
        let db = path_db(4);
        let pattern = vec![atom!("E", var "x", var "y")];
        let found = homs(&pattern, &db, &[("x", Term::constant("a2"))]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get_var(intern("y")), Some(Term::constant("a3")));
        // A repeated variable bound to two values, and a value the
        // dictionary never saw, extend to nothing.
        let clash = [("x", Term::constant("a2")), ("x", Term::constant("a3"))];
        assert!(homs(&pattern, &db, &clash).is_empty());
        let unseen = [("x", Term::constant("homomorphism_never_stored"))];
        assert!(homs(&pattern, &db, &unseen).is_empty());
    }

    #[test]
    fn repeated_variables_must_agree() {
        let mut db = Instance::new();
        db.insert(atom!("R", cst "a", cst "a")).unwrap();
        db.insert(atom!("R", cst "a", cst "b")).unwrap();
        let pattern = vec![atom!("R", var "x", var "x")];
        assert_eq!(homs(&pattern, &db, &[]).len(), 1);
    }

    #[test]
    fn empty_pattern_has_exactly_the_initial_homomorphism() {
        let db = path_db(1);
        let found = homs(&[], &db, &[]);
        assert_eq!(found.len(), 1);
        assert!(found[0].is_empty());
        // With an initial binding, the one homomorphism is that binding.
        let found = homs(&[], &db, &[("x", Term::constant("a0"))]);
        let initial = Substitution::from_pairs([(Term::variable("x"), Term::constant("a0"))]);
        assert_eq!(found, vec![initial]);
    }

    #[test]
    fn cross_product_pattern_enumerates_all_pairs() {
        let db = path_db(3);
        let pattern = vec![
            atom!("E", var "x1", var "y1"),
            atom!("E", var "x2", var "y2"),
        ];
        assert_eq!(homs(&pattern, &db, &[]).len(), 9);
    }

    #[test]
    fn for_each_supports_early_exit() {
        let db = path_db(5);
        let pattern = vec![atom!("E", var "x", var "y")];
        let mut seen = 0;
        let stopped = Homomorphisms::new(&pattern, &db, &[]).search(&db, &[], |_| {
            seen += 1;
            seen == 2
        });
        assert!(stopped);
        assert_eq!(seen, 2);
    }

    #[test]
    fn triangle_pattern_in_triangle_db() {
        let mut db = Instance::new();
        for (s, t) in [("a", "b"), ("b", "c"), ("c", "a")] {
            db.insert(Atom::from_parts(
                "E",
                vec![Term::constant(s), Term::constant(t)],
            ))
            .unwrap();
        }
        let pattern = vec![
            atom!("E", var "x", var "y"),
            atom!("E", var "y", var "z"),
            atom!("E", var "z", var "x"),
        ];
        // Three rotations of the triangle.
        assert_eq!(homs(&pattern, &db, &[]).len(), 3);
    }
}
