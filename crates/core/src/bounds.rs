//! Conservative argument bounds of constrained atoms: the pre-check in
//! front of every tie-and-solve scan of the maintenance algorithms.
//!
//! For each argument position, the bound is a set every instance's value
//! at that position lies in, read straight off the atom: a constant
//! argument is its own singleton; a variable argument is the intersection
//! of the top-level `X op k` (integer `k`) and `X = c` literals on it;
//! anything else — field projections, `in(..)`, `!=`, `not(..)`,
//! comparisons against variables or non-integers — leaves the position
//! unbounded. Two atoms whose bounds are disjoint at some position share
//! no instance, so `a.constraint ∧ b.constraint_at(a.args)` is
//! unsolvable and neither the tying nor the solver call is needed. The
//! test is a necessary condition only: bounds that meet decide nothing.
//!
//! Bounds are computed on the fly from the atom — nothing is stored, so
//! there is no index to keep in step with the copy-on-write store.

use crate::atom::ConstrainedAtom;
use mmv_constraints::{CmpOp, Constraint, Lit, Term, Value, ValueSet, Var};

/// Per-argument-position bounds of one constrained atom (or of a clause
/// head under the clause's constraint).
#[derive(Debug, Clone)]
pub(crate) struct ArgBounds(Vec<ValueSet>);

impl ArgBounds {
    /// The bounds of an atom's arguments.
    pub fn of(atom: &ConstrainedAtom) -> Self {
        ArgBounds(
            atom.args
                .iter()
                .map(|t| term_bound(t, &atom.constraint))
                .collect(),
        )
    }

    /// Bounds from explicit per-position sets.
    pub fn from_sets(sets: Vec<ValueSet>) -> Self {
        ArgBounds(sets)
    }

    /// The bound at position `i`.
    pub fn at(&self, i: usize) -> &ValueSet {
        &self.0[i]
    }

    /// Per position, the constant the bound pins the argument to, if it
    /// does — the pattern for [`crate::view::MaterializedView::probe_with`].
    pub fn constants(&self) -> impl Iterator<Item = Option<&Value>> {
        self.0.iter().map(|b| match b {
            ValueSet::Finite(s) if s.len() == 1 => s.iter().next(),
            _ => None,
        })
    }

    /// Whether `args` under `constraint` may share an instance with the
    /// atom these bounds were read from: same arity and bounds that meet
    /// at every position. `false` proves the two disjoint.
    pub fn meets(&self, args: &[Term], constraint: &Constraint) -> bool {
        args.len() == self.0.len()
            && args
                .iter()
                .zip(&self.0)
                .all(|(t, b)| !term_bound(t, constraint).intersect(b).is_empty())
    }

    /// [`ArgBounds::meets`] over an atom.
    pub fn meets_atom(&self, atom: &ConstrainedAtom) -> bool {
        self.meets(&atom.args, &atom.constraint)
    }
}

/// The bound of one argument term under `constraint`.
fn term_bound(t: &Term, constraint: &Constraint) -> ValueSet {
    match t {
        Term::Const(v) => ValueSet::singleton(v.clone()),
        Term::Field(..) => ValueSet::All,
        Term::Var(x) => constraint
            .lits
            .iter()
            .filter_map(|l| lit_bound(l, *x))
            .fold(ValueSet::All, |acc, b| acc.intersect(&b)),
    }
}

/// What one top-level literal says about variable `x` on its own, if
/// anything. The strict comparisons saturate exactly as the solver's
/// `tighten_const` does, so the bound is never tighter than the solver's.
fn lit_bound(l: &Lit, x: Var) -> Option<ValueSet> {
    let (op, k) = match l {
        Lit::Eq(Term::Var(v), Term::Const(c)) | Lit::Eq(Term::Const(c), Term::Var(v))
            if *v == x =>
        {
            return Some(ValueSet::singleton(c.clone()));
        }
        Lit::Cmp(Term::Var(v), op, Term::Const(Value::Int(k))) if *v == x => (*op, *k),
        Lit::Cmp(Term::Const(Value::Int(k)), op, Term::Var(v)) if *v == x => (op.flip(), *k),
        _ => return None,
    };
    Some(match op {
        CmpOp::Lt => ValueSet::ints_to(k.saturating_sub(1)),
        CmpOp::Le => ValueSet::ints_to(k),
        CmpOp::Gt => ValueSet::ints_from(k.saturating_add(1)),
        CmpOp::Ge => ValueSet::ints_from(k),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::{satisfiable, NoDomains, Truth, VarGen};
    use proptest::prelude::*;

    fn x() -> Term {
        Term::var(Var(0))
    }

    fn interval(pred: &str, lo: i64, hi: i64) -> ConstrainedAtom {
        ConstrainedAtom::new(
            pred,
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                Term::int(hi),
                CmpOp::Ge,
                x(),
            )),
        )
    }

    #[test]
    fn reads_intervals_constants_and_equalities() {
        let b = ArgBounds::of(&interval("p", 3, 9));
        assert_eq!(b.at(0), &ValueSet::ints_between(3, 9));
        assert!(b.meets_atom(&interval("p", 9, 12)));
        assert!(!b.meets_atom(&interval("p", 10, 12)));
        // A point request, as a constrained atom or as a ground fact.
        let point = ConstrainedAtom::new("p", vec![x()], Constraint::eq(x(), Term::int(9)));
        assert!(b.meets_atom(&point));
        assert!(b.meets_atom(&ConstrainedAtom::fact("p", vec![Value::int(9)])));
        assert!(!b.meets_atom(&ConstrainedAtom::fact("p", vec![Value::int(2)])));
        // Comparisons hold of integers only.
        assert!(!b.meets_atom(&ConstrainedAtom::fact("p", vec![Value::str("s")])));
        assert_eq!(
            ArgBounds::of(&point).constants().collect::<Vec<_>>(),
            vec![Some(&Value::int(9))]
        );
        // Arity is part of the test; anything unread is unbounded.
        assert!(!b.meets_atom(&ConstrainedAtom::new(
            "p",
            vec![x(), x()],
            Constraint::truth()
        )));
        let loose = ConstrainedAtom::new("p", vec![x()], Constraint::neq(x(), Term::int(5)));
        assert_eq!(ArgBounds::of(&loose).at(0), &ValueSet::All);
        assert!(b.meets_atom(&loose));
    }

    fn arg() -> impl Strategy<Value = Term> {
        prop_oneof![
            4 => (0u32..2).prop_map(|v| Term::var(Var(v))),
            1 => (0i64..8).prop_map(Term::int),
            1 => Just(Term::str("s")),
        ]
    }

    fn op() -> impl Strategy<Value = CmpOp> {
        prop_oneof![
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge)
        ]
    }

    /// A literal the bounds read (`X op k`, `k op X`, `X = c`) or must
    /// read past (`X != k`, `X op Y`).
    fn flat_lit() -> impl Strategy<Value = Lit> {
        let var = || (0u32..3).prop_map(|v| Term::var(Var(v)));
        prop_oneof![
            3 => (var(), op(), 0i64..8).prop_map(|(v, op, k)| Lit::Cmp(v, op, Term::int(k))),
            2 => (0i64..8, op(), var()).prop_map(|(k, op, v)| Lit::Cmp(Term::int(k), op, v)),
            2 => (var(), 0i64..8).prop_map(|(v, k)| Lit::Eq(v, Term::int(k))),
            1 => var().prop_map(|v| Lit::Eq(Term::str("s"), v)),
            1 => (var(), 0i64..8).prop_map(|(v, k)| Lit::Neq(v, Term::int(k))),
            1 => (var(), op(), var()).prop_map(|(a, op, b)| Lit::Cmp(a, op, b)),
        ]
    }

    /// Flat literals plus the `not(..)` blocks deletions accumulate.
    fn lit() -> impl Strategy<Value = Lit> {
        prop_oneof![
            4 => flat_lit(),
            1 => collection::vec(flat_lit(), 1..=2_usize)
                .prop_map(|lits| Lit::Not(Constraint::conj(lits))),
        ]
    }

    fn atom() -> impl Strategy<Value = ConstrainedAtom> {
        (
            collection::vec(arg(), 1..=2_usize),
            collection::vec(lit(), 0..=4_usize),
        )
            .prop_map(|(args, lits)| ConstrainedAtom::new("p", args, Constraint::conj(lits)))
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(512),
            failure_persistence: None,
            ..ProptestConfig::default()
        })]

        /// The pre-check only ever drops a candidate the solver would
        /// have refuted: disjoint bounds ⇒ the tied conjunction is
        /// `Unsat` (and a differing arity ⇒ there is nothing to tie).
        #[test]
        fn disjoint_bounds_imply_unsat(a in atom(), b in atom()) {
            let mut gen = VarGen::starting_at(100);
            for (a, b) in [(&a, &b), (&b, &a)] {
                if ArgBounds::of(b).meets_atom(a) {
                    continue;
                }
                match b.constraint_at(&a.args, &mut gen) {
                    None => prop_assert_ne!(a.args.len(), b.args.len()),
                    Some(tied) => prop_assert_eq!(
                        satisfiable(&a.constraint.clone().and(tied), &NoDomains),
                        Truth::Unsat,
                        "bounds of {} miss {}, yet they share an instance", b, a
                    ),
                }
            }
        }
    }
}
