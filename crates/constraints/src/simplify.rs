//! Syntactic constraint simplification.
//!
//! The maintenance algorithms pile up redundancy: StDel replaces
//! `B(X) <- X <= 5` with `B(X) <- X <= 5 & not(X <= 5 & X = 6)`, which the
//! paper (Example 5) simplifies to `B(X) <- X <= 5 & X != 6`. This module
//! performs exactly that class of cheap, *equivalence-preserving* rewrites:
//!
//! * drop literals that are syntactically true (`t = t`, `3 <= 5`),
//! * detect literals that are syntactically false (`t != t`, `1 = 2`),
//! * inside `not(φ)`, drop conjuncts of φ that literally appear in the
//!   enclosing conjunction (they are implied by context),
//! * unwrap `not(single-literal)` to the negated literal,
//! * `not(true)` makes the whole conjunction false; `not(false)` is
//!   dropped,
//! * deduplicate repeated literals.
//!
//! Simplification never consults a resolver, so it is safe to apply to
//! `W_P` views whose constraints must remain syntactically stable under
//! external change (Theorem 4): all rewrites are time-independent.

use crate::constraint::{Constraint, Lit};
use crate::fxhash::FxHashSet;
use crate::term::Term;
use crate::value::Value;

/// Outcome of simplification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Simplified {
    /// The constraint is syntactically unsatisfiable.
    Unsat,
    /// An equivalent, usually smaller constraint.
    Constraint(Constraint),
}

impl Simplified {
    /// The constraint, mapping `Unsat` to `None`.
    pub fn into_constraint(self) -> Option<Constraint> {
        match self {
            Simplified::Unsat => None,
            Simplified::Constraint(c) => Some(c),
        }
    }
}

/// Truth status a literal can have by pure syntax.
enum LitStatus {
    True,
    False,
    Open(Lit),
}

fn const_pair(a: &Term, b: &Term) -> Option<(Value, Value)> {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Some((x.clone(), y.clone())),
        _ => None,
    }
}

fn lit_status(l: Lit) -> LitStatus {
    match &l {
        Lit::Eq(a, b) => {
            if a == b {
                return LitStatus::True;
            }
            if let Some((x, y)) = const_pair(a, b) {
                return if x == y {
                    LitStatus::True
                } else {
                    LitStatus::False
                };
            }
            LitStatus::Open(l)
        }
        Lit::Neq(a, b) => {
            if a == b {
                return LitStatus::False;
            }
            if let Some((x, y)) = const_pair(a, b) {
                return if x != y {
                    LitStatus::True
                } else {
                    LitStatus::False
                };
            }
            LitStatus::Open(l)
        }
        Lit::Cmp(a, op, b) => {
            if let Some((x, y)) = const_pair(a, b) {
                return match (x, y) {
                    (Value::Int(i), Value::Int(j)) => {
                        if op.eval(i, j) {
                            LitStatus::True
                        } else {
                            LitStatus::False
                        }
                    }
                    _ => LitStatus::False,
                };
            }
            LitStatus::Open(l)
        }
        _ => LitStatus::Open(l),
    }
}

/// Simplifies a constraint. The result is logically equivalent (same
/// solution set against every resolver).
pub fn simplify(c: &Constraint) -> Simplified {
    simplify_in_context(c, &FxHashSet::default())
}

fn simplify_in_context(c: &Constraint, context: &FxHashSet<Lit>) -> Simplified {
    let mut out: Vec<Lit> = Vec::with_capacity(c.lits.len());
    let mut seen: FxHashSet<Lit> = FxHashSet::default();

    // First pass: resolve primitive literal statuses so the context for
    // `not(·)` processing includes every open sibling literal.
    let mut open: Vec<Lit> = Vec::with_capacity(c.lits.len());
    for l in &c.lits {
        // Fold constant field projections.
        let l = l.substitute(&crate::term::Subst::new());
        match lit_status(l) {
            LitStatus::True => {}
            LitStatus::False => return Simplified::Unsat,
            LitStatus::Open(l) => open.push(l),
        }
    }
    let mut full_context: FxHashSet<Lit> = context.clone();
    for l in &open {
        if !matches!(l, Lit::Not(_)) {
            full_context.insert(l.clone());
        }
    }

    for l in open {
        let processed = match l {
            Lit::Not(inner) => {
                // Drop inner conjuncts implied by the enclosing context.
                let mut kept: Vec<Lit> = Vec::with_capacity(inner.lits.len());
                let mut inner_unsat = false;
                for il in &inner.lits {
                    let il = il.substitute(&crate::term::Subst::new());
                    match lit_status(il) {
                        LitStatus::True => {} // true conjunct: drop
                        LitStatus::False => {
                            inner_unsat = true;
                            break;
                        }
                        LitStatus::Open(il) => {
                            if !full_context.contains(&il) {
                                kept.push(il);
                            }
                        }
                    }
                }
                if inner_unsat {
                    // not(false) = true: drop the literal entirely.
                    continue;
                }
                match kept.len() {
                    // not(true): the whole conjunction is false.
                    0 => return Simplified::Unsat,
                    1 => match kept.pop().expect("len checked") {
                        // not(not(ψ)) is ψ: its conjuncts join the outer
                        // conjunction.
                        Lit::Not(psi) => {
                            for l in psi.lits {
                                if seen.insert(l.clone()) {
                                    out.push(l);
                                }
                            }
                            continue;
                        }
                        // Unwrap single-literal negations: not(X = 6) -> X != 6.
                        prim => {
                            let mut neg = prim.negate();
                            neg.lits.pop().expect("a primitive literal negates to one")
                        }
                    },
                    _ => {
                        // Recursively simplify the inner conjunction.
                        match simplify_in_context(&Constraint { lits: kept }, &full_context) {
                            Simplified::Unsat => continue, // not(false) = true
                            Simplified::Constraint(inner2) => {
                                if inner2.is_truth() {
                                    return Simplified::Unsat;
                                }
                                Lit::Not(inner2)
                            }
                        }
                    }
                }
            }
            prim => prim,
        };
        if seen.insert(processed.clone()) {
            out.push(processed);
        }
    }
    Simplified::Constraint(Constraint { lits: out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CmpOp;
    use crate::term::Var;

    fn x() -> Term {
        Term::var(Var(0))
    }

    fn simp(c: &Constraint) -> Constraint {
        match simplify(c) {
            Simplified::Constraint(c) => c,
            Simplified::Unsat => panic!("unexpected unsat"),
        }
    }

    #[test]
    fn paper_example_5_simplification() {
        // X <= 5 & not(X <= 5 & X = 6)  ==>  X <= 5 & X != 6
        let inner =
            Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and(Constraint::eq(x(), Term::int(6)));
        let c = Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and_lit(Lit::Not(inner));
        let s = simp(&c);
        assert_eq!(
            s,
            Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and(Constraint::neq(x(), Term::int(6)))
        );
    }

    #[test]
    fn trivially_true_literals_dropped() {
        let c = Constraint::eq(x(), x())
            .and(Constraint::cmp(Term::int(1), CmpOp::Le, Term::int(2)))
            .and(Constraint::eq(x(), Term::int(7)));
        assert_eq!(simp(&c), Constraint::eq(x(), Term::int(7)));
    }

    #[test]
    fn trivially_false_literal_is_unsat() {
        let c = Constraint::neq(x(), x());
        assert_eq!(simplify(&c), Simplified::Unsat);
        let c2 = Constraint::eq(Term::int(1), Term::int(2));
        assert_eq!(simplify(&c2), Simplified::Unsat);
    }

    #[test]
    fn not_of_context_literal_is_unsat() {
        // X = 3 & not(X = 3): inner conjunct implied by context -> not(true).
        let c =
            Constraint::eq(x(), Term::int(3)).and_lit(Lit::Not(Constraint::eq(x(), Term::int(3))));
        assert_eq!(simplify(&c), Simplified::Unsat);
    }

    #[test]
    fn not_false_dropped() {
        let c = Constraint::eq(x(), Term::int(1))
            .and_lit(Lit::Not(Constraint::eq(Term::int(1), Term::int(2))));
        assert_eq!(simp(&c), Constraint::eq(x(), Term::int(1)));
    }

    #[test]
    fn duplicates_removed() {
        let c = Constraint::eq(x(), Term::int(1)).and(Constraint::eq(x(), Term::int(1)));
        assert_eq!(simp(&c).lits.len(), 1);
    }

    #[test]
    fn example_6_recursive_entry_simplifies_to_unsat() {
        // X = c & Y = d & not(X = c & Y = d) from Example 6, clause 3.
        let y = Term::var(Var(1));
        let inner =
            Constraint::eq(x(), Term::str("c")).and(Constraint::eq(y.clone(), Term::str("d")));
        let c = Constraint::eq(x(), Term::str("c"))
            .and(Constraint::eq(y, Term::str("d")))
            .and_lit(Lit::Not(inner));
        assert_eq!(simplify(&c), Simplified::Unsat);
    }

    #[test]
    fn double_negation_is_its_conjunction() {
        // X >= 0 & X <= 9 & not(X >= 0 & not(X >= 3 & X <= 5)): the
        // outer not keeps one conjunct, not(3..5), and not(not(3..5)) is
        // 3..5 itself, not not(3..5).
        let y = |op, k| Constraint::cmp(x(), op, Term::int(k));
        let band = y(CmpOp::Ge, 3).and(y(CmpOp::Le, 5));
        let inner = y(CmpOp::Ge, 0).and_lit(Lit::Not(band.clone()));
        let c = y(CmpOp::Ge, 0)
            .and(y(CmpOp::Le, 9))
            .and_lit(Lit::Not(inner));
        assert_eq!(simp(&c), y(CmpOp::Ge, 0).and(y(CmpOp::Le, 9)).and(band));
    }

    #[test]
    fn field_projection_folds() {
        let rec = Value::record(vec![("k", Value::int(3))]);
        let c = Constraint::eq(Term::field(Term::Const(rec), "k"), Term::int(3));
        assert_eq!(simp(&c), Constraint::truth());
    }
}
