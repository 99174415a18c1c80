//! Constrained atoms `A(X⃗) ← φ` and their instance semantics `[·]`
//! (paper §2.3).

use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::solver::{solutions_with, EnumResult};
use mmv_constraints::{
    satisfiable_with, Constraint, DomainResolver, Lit, SolverConfig, Subst, Term, Truth, Value,
    Var, VarGen,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A constrained atom: predicate, argument terms, and a constraint over
/// their variables. The paper writes `A(X⃗) ← φ`; arguments are usually
/// variables but constants are permitted (ground facts).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConstrainedAtom {
    /// Predicate name.
    pub pred: Arc<str>,
    /// Argument terms.
    pub args: Vec<Term>,
    /// The attached constraint φ.
    pub constraint: Constraint,
}

/// The result of materializing `[A(X⃗) ← φ]` — the set of ground argument
/// tuples that are solutions of φ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instances {
    /// The exact instance set.
    Exact(BTreeSet<Vec<Value>>),
    /// Enumeration exceeded the product budget.
    Overflow,
    /// The instance set is not finitely enumerable.
    Unknown,
}

impl Instances {
    /// The tuples, if exact.
    pub fn exact(&self) -> Option<&BTreeSet<Vec<Value>>> {
        match self {
            Instances::Exact(s) => Some(s),
            _ => None,
        }
    }
}

/// What [`ConstrainedAtom::overlap`] finds unless the solver refutes it:
/// the atom's constraint tied onto the arguments
/// ([`ConstrainedAtom::constraint_at`]), and the region the two share,
/// `constraint ∧ tied`.
pub(crate) type Overlap = (Constraint, Constraint);

impl ConstrainedAtom {
    /// Builds a constrained atom.
    pub fn new(pred: &str, args: Vec<Term>, constraint: Constraint) -> Self {
        ConstrainedAtom {
            pred: Arc::from(pred),
            args,
            constraint,
        }
    }

    /// A ground fact as a constrained atom with the `true` constraint.
    pub fn fact(pred: &str, args: Vec<Value>) -> Self {
        ConstrainedAtom {
            pred: Arc::from(pred),
            args: args.into_iter().map(Term::Const).collect(),
            constraint: Constraint::truth(),
        }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Free variables of the atom (arguments first, then constraint),
    /// deduplicated in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.args {
            t.collect_vars(&mut out);
        }
        for l in &self.constraint.lits {
            l.collect_vars(&mut out);
        }
        let mut seen = mmv_constraints::fxhash::FxHashSet::default();
        out.retain(|v| seen.insert(*v));
        out
    }

    /// Renames every variable fresh (standardizing apart), extending `map`.
    pub fn rename_into(&self, map: &mut FxHashMap<Var, Var>, gen: &mut VarGen) -> Self {
        ConstrainedAtom {
            pred: self.pred.clone(),
            args: self.args.iter().map(|t| t.rename_into(map, gen)).collect(),
            constraint: self.constraint.rename_into(map, gen),
        }
    }

    /// Standardizes apart with a private mapping.
    pub fn rename(&self, gen: &mut VarGen) -> Self {
        let mut map = FxHashMap::default();
        self.rename_into(&mut map, gen)
    }

    /// This atom's predicate and arguments under another constraint —
    /// a region of it, or what is left of it.
    pub(crate) fn with_constraint(&self, constraint: Constraint) -> Self {
        ConstrainedAtom {
            pred: self.pred.clone(),
            args: self.args.clone(),
            constraint,
        }
    }

    /// Applies a substitution to arguments and constraint.
    pub fn substitute(&self, s: &Subst) -> Self {
        ConstrainedAtom {
            pred: self.pred.clone(),
            args: self.args.iter().map(|t| t.substitute(s)).collect(),
            constraint: self.constraint.substitute(s),
        }
    }

    /// The instance semantics `[A(X⃗) ← φ]`: the set of argument tuples
    /// obtained from solutions of φ, evaluated against `resolver`'s
    /// *current* state.
    pub fn instances(&self, resolver: &dyn DomainResolver, config: &SolverConfig) -> Instances {
        // Reduce to variable-tuple enumeration: alias each argument term
        // to a fresh variable.
        let mut gen = VarGen::default();
        for v in self.free_vars() {
            gen.reserve_below(v.0 + 1);
        }
        let mut c = self.constraint.clone();
        let mut vars = Vec::with_capacity(self.args.len());
        for t in &self.args {
            match t {
                Term::Var(v) if !vars.contains(v) => vars.push(*v),
                _ => {
                    let f = gen.fresh();
                    c = c.and_lit(Lit::Eq(Term::Var(f), t.clone()));
                    vars.push(f);
                }
            }
        }
        match solutions_with(&c, &vars, resolver, config) {
            EnumResult::Exact(s) => Instances::Exact(s),
            EnumResult::Overflow => Instances::Overflow,
            EnumResult::Unknown => Instances::Unknown,
        }
    }

    /// Instantiates this atom's constraint *at* the given argument terms:
    /// returns `ψσ ∧ extras`, where σ maps each argument variable of the
    /// (standardized-apart) atom to the corresponding target term,
    /// non-variable or repeated arguments contribute equality literals,
    /// and auxiliary variables stay fresh.
    ///
    /// This is the tying operation the maintenance algorithms use to
    /// express "this atom's region, over that entry's arguments" — e.g.
    /// StDel's `not(ψ_j)` tied to the parent's `children_args`, or the
    /// `Del`-set regions `ψ ∧ (X⃗ = Y⃗) ∧ φ`. Substituting (rather than
    /// conjoining fresh-variable equalities) is essential under the
    /// negation: `not(ψσ)` ranges over the caller's variables, whereas
    /// `not(ψ ∧ X⃗=Y⃗)` with fresh `Y⃗` would be satisfied by picking the
    /// fresh variables differently.
    ///
    /// `None` on arity mismatch.
    pub fn constraint_at(&self, targets: &[Term], gen: &mut VarGen) -> Option<Constraint> {
        if targets.len() != self.args.len() {
            return None;
        }
        let renamed = self.rename(gen);
        let mut subst = Subst::new();
        let mut extras: Vec<Lit> = Vec::new();
        for (arg, target) in renamed.args.iter().zip(targets) {
            match arg {
                Term::Var(v) => match subst.get(*v) {
                    Some(prev) => extras.push(Lit::Eq(target.clone(), prev.clone())),
                    None => subst.bind(*v, target.clone()),
                },
                other => extras.push(Lit::Eq(other.clone(), target.clone())),
            }
        }
        let mut c = renamed.constraint.clone();
        c.lits.extend(extras);
        Some(c.substitute(&subst))
    }

    /// The overlap test — the one place the maintenance algorithms tie
    /// two atoms and solve: can `args` under `constraint` share an
    /// instance with this atom? Ties this atom's constraint onto `args`,
    /// conjoins it and asks the solver once (counted in `solver_calls`).
    /// `None` when the solver refutes the conjunction, or on arity
    /// mismatch (nothing is tied or counted).
    ///
    /// Only the refutation is exact. The solver reads a `not(ψ)` block
    /// with auxiliary variables as `∃aux ¬ψ`, an over-approximation of
    /// its meaning `¬∃aux ψ`, so an unrefuted region may still be empty:
    /// maintenance keeps it as possibly inhabited; anything that must
    /// answer exactly (a read) has to enumerate it.
    pub(crate) fn overlap(
        &self,
        args: &[Term],
        constraint: &Constraint,
        gen: &mut VarGen,
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
        solver_calls: &mut usize,
    ) -> Option<Overlap> {
        let tied = self.constraint_at(args, gen)?;
        let region = constraint.clone().and(tied.clone());
        *solver_calls += 1;
        (satisfiable_with(&region, resolver, config) != Truth::Unsat).then_some((tied, region))
    }
}

impl fmt::Display for ConstrainedAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if !self.constraint.is_truth() {
            write!(f, " <- {}", self.constraint)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::{CmpOp, NoDomains};

    fn x() -> Term {
        Term::var(Var(0))
    }

    #[test]
    fn instance_semantics_of_interval_atom() {
        // A(X) <- 1 <= X <= 3
        let a = ConstrainedAtom::new(
            "a",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(1)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(3),
            )),
        );
        let inst = a.instances(&NoDomains, &SolverConfig::default());
        let s = inst.exact().unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.contains(&vec![Value::int(2)]));
    }

    #[test]
    fn ground_fact_instances() {
        let a = ConstrainedAtom::fact("edge", vec![Value::str("a"), Value::str("b")]);
        let inst = a.instances(&NoDomains, &SolverConfig::default());
        let s = inst.exact().unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.contains(&vec![Value::str("a"), Value::str("b")]));
    }

    #[test]
    fn repeated_variable_arguments() {
        // p(X, X) <- X = 1..2 : instances {(1,1), (2,2)}.
        let a = ConstrainedAtom::new(
            "p",
            vec![x(), x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(1)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(2),
            )),
        );
        let inst = a.instances(&NoDomains, &SolverConfig::default());
        let s = inst.exact().unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&vec![Value::int(1), Value::int(1)]));
        assert!(!s.contains(&vec![Value::int(1), Value::int(2)]));
    }

    #[test]
    fn unsat_constraint_has_no_instances() {
        let a = ConstrainedAtom::new(
            "p",
            vec![x()],
            Constraint::eq(x(), Term::int(1)).and(Constraint::neq(x(), Term::int(1))),
        );
        let inst = a.instances(&NoDomains, &SolverConfig::default());
        assert!(inst.exact().unwrap().is_empty());
    }

    #[test]
    fn unbounded_is_unknown() {
        let a = ConstrainedAtom::new("p", vec![x()], Constraint::truth());
        assert_eq!(
            a.instances(&NoDomains, &SolverConfig::default()),
            Instances::Unknown
        );
    }

    #[test]
    fn rename_keeps_structure() {
        let a = ConstrainedAtom::new(
            "p",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Le, Term::int(5)),
        );
        let mut gen = VarGen::starting_at(50);
        let b = a.rename(&mut gen);
        assert_eq!(b.pred, a.pred);
        assert_eq!(b.args, vec![Term::var(Var(50))]);
        assert_eq!(b.to_string(), "p(X50) <- X50 <= 5");
    }

    #[test]
    fn display_fact_without_constraint() {
        let a = ConstrainedAtom::fact("e", vec![Value::int(1)]);
        assert_eq!(a.to_string(), "e(1)");
    }

    #[test]
    fn constraint_at_substitutes_arg_vars() {
        // B(X) <- X = 6 tied at target [Y7] gives Y7 = 6.
        let a = ConstrainedAtom::new("B", vec![x()], Constraint::eq(x(), Term::int(6)));
        let mut gen = VarGen::starting_at(100);
        let c = a.constraint_at(&[Term::var(Var(7))], &mut gen).unwrap();
        assert_eq!(c, Constraint::eq(Term::var(Var(7)), Term::int(6)));
    }

    #[test]
    fn constraint_at_constants_fold() {
        // P(X, Y) <- X = "c" & Y = "d" tied at ("c", "d") gives a ground,
        // trivially true conjunction "c"="c" & "d"="d".
        let y = Term::var(Var(1));
        let a = ConstrainedAtom::new(
            "P",
            vec![x(), y.clone()],
            Constraint::eq(x(), Term::str("c")).and(Constraint::eq(y, Term::str("d"))),
        );
        let mut gen = VarGen::starting_at(100);
        let c = a
            .constraint_at(&[Term::str("c"), Term::str("d")], &mut gen)
            .unwrap();
        assert_eq!(
            c,
            Constraint::eq(Term::str("c"), Term::str("c"))
                .and(Constraint::eq(Term::str("d"), Term::str("d")))
        );
        // And the simplifier recognizes it as truth.
        assert_eq!(
            mmv_constraints::simplify(&c),
            mmv_constraints::Simplified::Constraint(Constraint::truth())
        );
    }

    #[test]
    fn constraint_at_repeated_vars_force_equality() {
        // Q(X, X) tied at (s, t) must force s = t.
        let a = ConstrainedAtom::new("Q", vec![x(), x()], Constraint::truth());
        let mut gen = VarGen::starting_at(100);
        let c = a
            .constraint_at(&[Term::str("s"), Term::str("t")], &mut gen)
            .unwrap();
        assert_eq!(c, Constraint::eq(Term::str("t"), Term::str("s")));
    }

    #[test]
    fn constraint_at_keeps_aux_vars_fresh() {
        // R(X) <- X = Z & Z <= 5: the aux var Z is renamed fresh.
        let z = Term::var(Var(9));
        let a = ConstrainedAtom::new(
            "R",
            vec![x()],
            Constraint::eq(x(), z.clone()).and(Constraint::cmp(z, CmpOp::Le, Term::int(5))),
        );
        let mut gen = VarGen::starting_at(100);
        let c = a.constraint_at(&[Term::var(Var(50))], &mut gen).unwrap();
        let vars = c.free_vars();
        assert!(vars.contains(&Var(50)));
        assert!(vars.iter().all(|v| *v == Var(50) || v.0 >= 100));
    }

    #[test]
    fn constraint_at_arity_mismatch_is_none() {
        let a = ConstrainedAtom::new("B", vec![x()], Constraint::truth());
        let mut gen = VarGen::starting_at(100);
        assert!(a.constraint_at(&[], &mut gen).is_none());
    }
}
