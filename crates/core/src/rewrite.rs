//! UCQ rewriting of conjunctive queries under tgds — the engine behind the
//! paper's Section 5 (Definition 2: *UCQ rewritability*).
//!
//! For non-recursive and sticky sets of tgds, CQ containment `q' ⊆Σ q` can be
//! reduced to the evaluation of a (finite, constraint-free) union of CQs `Q`
//! over the canonical database of `q'`: [`rewrite`] computes that `Q` by
//! backward resolution (piece unification) in the style of the XRewrite
//! algorithm of Gottlob, Orsi & Pieris (TODS 2014), which the paper's
//! Propositions 17 and 19 invoke, and [`contained_via_rewriting`] is the
//! containment test on it.
//!
//! The rewriting loop is budgeted: for UCQ-rewritable classes it reaches a
//! fixpoint and reports `complete = true`; for other classes (e.g. guarded
//! sets, which are *not* UCQ rewritable — see the appendix counterexample) it
//! stops at the budget and reports `complete = false`, letting callers fall
//! back to chase-based reasoning.

pub use crate::containment::contained_via_rewriting;
pub use crate::xrewrite::{rewrite, RewriteBudget, UcqRewriting};
