//! The constraint language of the paper (§2.3):
//!
//! * any DCA-atom `in(X, dom:f(args))` is a constraint,
//! * `X = T` and `X ≠ T` are constraints,
//! * any conjunction of constraints is a constraint,
//!
//! extended — as the paper's own numeric examples do (`X ≤ 3`) — with
//! comparison literals over the arithmetic domain, and with the `not(φ)`
//! construct that the maintenance algorithms introduce into constraint
//! parts (clauses (4), (5) and Algorithms 1–3).

use crate::fxhash::FxHashMap;
use crate::term::{Subst, Term, Var, VarGen};
use crate::value::Value;
use crate::valueset::ValueSet;
use std::fmt;
use std::sync::Arc;

/// Resolves domain calls to value sets. Implemented by the mediator's
/// domain manager; the constraint solver and ground evaluator are generic
/// over it. Resolution happens against the resolver's *current* state —
/// the `W_P` semantics of Section 4 falls out of passing resolvers for
/// different time points.
pub trait DomainResolver {
    /// Evaluates `domain:func(args)` on ground arguments.
    fn resolve(&self, domain: &str, func: &str, args: &[Value]) -> ValueSet;
}

/// A resolver with no domains: every call yields the empty set.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDomains;

impl DomainResolver for NoDomains {
    fn resolve(&self, _domain: &str, _func: &str, _args: &[Value]) -> ValueSet {
        ValueSet::Empty
    }
}

/// Comparison operators of the arithmetic constraint domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The negated operator (`not(a < b)` ⇔ `a >= b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The mirrored operator (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Applies the comparison to two integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A domain call `dom:func(args)` — the second argument of a DCA-atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Call {
    /// Domain name (e.g. `paradox`, `arith`, `facextract`).
    pub domain: Arc<str>,
    /// Function name within the domain (e.g. `select_eq`).
    pub func: Arc<str>,
    /// Argument terms; may contain variables bound elsewhere in the
    /// constraint.
    pub args: Vec<Term>,
}

impl Call {
    /// Builds a call.
    pub fn new(domain: &str, func: &str, args: Vec<Term>) -> Self {
        Call {
            domain: Arc::from(domain),
            func: Arc::from(func),
            args,
        }
    }

    /// Grounds the arguments under a total assignment.
    pub fn eval_args(&self, asg: &FxHashMap<Var, Value>) -> Option<Vec<Value>> {
        self.args.iter().map(|t| t.eval(asg)).collect()
    }

    fn substitute(&self, s: &Subst) -> Call {
        Call {
            domain: self.domain.clone(),
            func: self.func.clone(),
            args: self.args.iter().map(|t| t.substitute(s)).collect(),
        }
    }

    fn rename_into(&self, map: &mut FxHashMap<Var, Var>, gen: &mut VarGen) -> Call {
        Call {
            domain: self.domain.clone(),
            func: self.func.clone(),
            args: self.args.iter().map(|t| t.rename_into(map, gen)).collect(),
        }
    }
}

impl fmt::Display for Call {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}(", self.domain, self.func)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A constraint literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lit {
    /// `s = t`
    Eq(Term, Term),
    /// `s != t`
    Neq(Term, Term),
    /// `s op t` over integers
    Cmp(Term, CmpOp, Term),
    /// DCA-atom `in(x, call)`
    In(Term, Call),
    /// Negated DCA-atom `notin(x, call)` (arises from negation pushing)
    NotIn(Term, Call),
    /// `not(φ)` for a conjunction φ — introduced by the maintenance
    /// algorithms.
    Not(Constraint),
}

impl Lit {
    /// The logical negation of this literal, as a constraint.
    pub fn negate(&self) -> Constraint {
        match self {
            Lit::Eq(a, b) => Constraint::lit(Lit::Neq(a.clone(), b.clone())),
            Lit::Neq(a, b) => Constraint::lit(Lit::Eq(a.clone(), b.clone())),
            Lit::Cmp(a, op, b) => Constraint::lit(Lit::Cmp(a.clone(), op.negate(), b.clone())),
            Lit::In(x, c) => Constraint::lit(Lit::NotIn(x.clone(), c.clone())),
            Lit::NotIn(x, c) => Constraint::lit(Lit::In(x.clone(), c.clone())),
            Lit::Not(c) => c.clone(),
        }
    }

    /// Collects free variables.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Lit::Eq(a, b) | Lit::Neq(a, b) | Lit::Cmp(a, _, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Lit::In(x, c) | Lit::NotIn(x, c) => {
                x.collect_vars(out);
                for t in &c.args {
                    t.collect_vars(out);
                }
            }
            Lit::Not(c) => {
                for l in &c.lits {
                    l.collect_vars(out);
                }
            }
        }
    }

    /// Applies a substitution.
    pub fn substitute(&self, s: &Subst) -> Lit {
        match self {
            Lit::Eq(a, b) => Lit::Eq(a.substitute(s), b.substitute(s)),
            Lit::Neq(a, b) => Lit::Neq(a.substitute(s), b.substitute(s)),
            Lit::Cmp(a, op, b) => Lit::Cmp(a.substitute(s), *op, b.substitute(s)),
            Lit::In(x, c) => Lit::In(x.substitute(s), c.substitute(s)),
            Lit::NotIn(x, c) => Lit::NotIn(x.substitute(s), c.substitute(s)),
            Lit::Not(c) => Lit::Not(c.substitute(s)),
        }
    }

    fn rename_into(&self, map: &mut FxHashMap<Var, Var>, gen: &mut VarGen) -> Lit {
        match self {
            Lit::Eq(a, b) => Lit::Eq(a.rename_into(map, gen), b.rename_into(map, gen)),
            Lit::Neq(a, b) => Lit::Neq(a.rename_into(map, gen), b.rename_into(map, gen)),
            Lit::Cmp(a, op, b) => Lit::Cmp(a.rename_into(map, gen), *op, b.rename_into(map, gen)),
            Lit::In(x, c) => Lit::In(x.rename_into(map, gen), c.rename_into(map, gen)),
            Lit::NotIn(x, c) => Lit::NotIn(x.rename_into(map, gen), c.rename_into(map, gen)),
            Lit::Not(c) => Lit::Not(c.rename_into(map, gen)),
        }
    }

    /// Evaluates the literal under a total assignment of its variables.
    /// `None` means the assignment did not cover every variable or a term
    /// was ill-typed (e.g. a missing record field) — callers treat this as
    /// "no solution".
    pub fn eval_ground(
        &self,
        asg: &FxHashMap<Var, Value>,
        resolver: &dyn DomainResolver,
    ) -> Option<bool> {
        match self {
            Lit::Eq(a, b) => Some(a.eval(asg)? == b.eval(asg)?),
            Lit::Neq(a, b) => Some(a.eval(asg)? != b.eval(asg)?),
            Lit::Cmp(a, op, b) => {
                let (x, y) = (a.eval(asg)?, b.eval(asg)?);
                match (x, y) {
                    (Value::Int(i), Value::Int(j)) => Some(op.eval(i, j)),
                    _ => Some(false),
                }
            }
            Lit::In(x, c) => {
                let v = x.eval(asg)?;
                let args = c.eval_args(asg)?;
                Some(resolver.resolve(&c.domain, &c.func, &args).contains(&v))
            }
            Lit::NotIn(x, c) => {
                let v = x.eval(asg)?;
                let args = c.eval_args(asg)?;
                Some(!resolver.resolve(&c.domain, &c.func, &args).contains(&v))
            }
            Lit::Not(c) => {
                // Negation semantics: variables of the
                // inner conjunction that the assignment does not cover are
                // *existentially quantified inside* the negation —
                // `not(ψ)` over a region with auxiliary variables means
                // "X⃗ is not an instance of the region", i.e. `¬∃aux ψ`,
                // not `∃aux ¬ψ`. This is what makes the deletion
                // algorithms' `not(removed-region)` exclusions actually
                // exclude.
                let inner_vars = c.free_vars();
                if inner_vars.iter().all(|v| asg.contains_key(v)) {
                    return Some(!c.eval_ground(asg, resolver)?);
                }
                // Substitute the covered variables, then decide
                // ∃(uncovered): ψ by exact enumeration of the residual.
                let subst: crate::term::Subst = inner_vars
                    .iter()
                    .filter_map(|v| asg.get(v).map(|val| (*v, Term::Const(val.clone()))))
                    .collect();
                let residual = c.substitute(&subst);
                match crate::solver::solutions(&residual, &[], resolver) {
                    crate::solver::EnumResult::Exact(s) => Some(s.is_empty()),
                    _ => None,
                }
            }
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Eq(a, b) => write!(f, "{a} = {b}"),
            Lit::Neq(a, b) => write!(f, "{a} != {b}"),
            Lit::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Lit::In(x, c) => write!(f, "in({x}, {c})"),
            Lit::NotIn(x, c) => write!(f, "notin({x}, {c})"),
            Lit::Not(c) => write!(f, "not({c})"),
        }
    }
}

/// A constraint: a conjunction of literals. The empty conjunction is `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Constraint {
    /// The conjuncts.
    pub lits: Vec<Lit>,
}

impl Constraint {
    /// The trivially true constraint.
    pub fn truth() -> Self {
        Constraint { lits: vec![] }
    }

    /// A single-literal constraint.
    pub fn lit(l: Lit) -> Self {
        Constraint { lits: vec![l] }
    }

    /// A conjunction of literals.
    pub fn conj<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        Constraint {
            lits: lits.into_iter().collect(),
        }
    }

    /// `s = t`.
    pub fn eq(a: Term, b: Term) -> Self {
        Constraint::lit(Lit::Eq(a, b))
    }

    /// `s != t`.
    pub fn neq(a: Term, b: Term) -> Self {
        Constraint::lit(Lit::Neq(a, b))
    }

    /// `s op t`.
    pub fn cmp(a: Term, op: CmpOp, b: Term) -> Self {
        Constraint::lit(Lit::Cmp(a, op, b))
    }

    /// `in(x, call)`.
    pub fn member(x: Term, call: Call) -> Self {
        Constraint::lit(Lit::In(x, call))
    }

    /// Conjoins another constraint onto this one.
    pub fn and(mut self, other: Constraint) -> Constraint {
        self.lits.extend(other.lits);
        self
    }

    /// Conjoins a single literal.
    pub fn and_lit(mut self, l: Lit) -> Constraint {
        self.lits.push(l);
        self
    }

    /// Conjoins tuple equality `⟨a1..an⟩ = ⟨b1..bn⟩` (used pervasively by
    /// `T_P`'s `{X⃗ = t⃗}` parts). Panics if lengths differ — callers check
    /// arity first.
    pub fn and_tuple_eq(mut self, xs: &[Term], ts: &[Term]) -> Constraint {
        assert_eq!(xs.len(), ts.len(), "tuple equality arity mismatch");
        for (x, t) in xs.iter().zip(ts) {
            if x != t {
                self.lits.push(Lit::Eq(x.clone(), t.clone()));
            }
        }
        self
    }

    /// Whether this is the empty (true) conjunction.
    pub fn is_truth(&self) -> bool {
        self.lits.is_empty()
    }

    /// Free variables, deduplicated, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for l in &self.lits {
            l.collect_vars(&mut out);
        }
        let mut seen = crate::fxhash::FxHashSet::default();
        out.retain(|v| seen.insert(*v));
        out
    }

    /// Applies a substitution to all conjuncts.
    pub fn substitute(&self, s: &Subst) -> Constraint {
        Constraint {
            lits: self.lits.iter().map(|l| l.substitute(s)).collect(),
        }
    }

    /// Renames all variables to fresh ones (standardizing apart), extending
    /// `map` so that related structures can be renamed consistently.
    pub fn rename_into(&self, map: &mut FxHashMap<Var, Var>, gen: &mut VarGen) -> Constraint {
        Constraint {
            lits: self.lits.iter().map(|l| l.rename_into(map, gen)).collect(),
        }
    }

    /// Ground evaluation under a total assignment: the semantic truth of
    /// the constraint at the resolver's current state. `None` when the
    /// assignment does not cover all variables.
    pub fn eval_ground(
        &self,
        asg: &FxHashMap<Var, Value>,
        resolver: &dyn DomainResolver,
    ) -> Option<bool> {
        for l in &self.lits {
            match l.eval_ground(asg, resolver) {
                Some(true) => {}
                Some(false) => return Some(false),
                // An ill-typed literal (missing field) has no solutions.
                None => return Some(false),
            }
        }
        Some(true)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "true");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl From<Lit> for Constraint {
    fn from(l: Lit) -> Self {
        Constraint::lit(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;

    fn x() -> Term {
        Term::var(Var(0))
    }
    fn y() -> Term {
        Term::var(Var(1))
    }

    #[test]
    fn negate_roundtrip() {
        let l = Lit::Cmp(x(), CmpOp::Le, Term::int(5));
        let n = l.negate();
        assert_eq!(n.lits, vec![Lit::Cmp(x(), CmpOp::Gt, Term::int(5))]);
        let l2 = Lit::Eq(x(), y());
        assert_eq!(l2.negate().lits, vec![Lit::Neq(x(), y())]);
    }

    #[test]
    fn not_negates_to_inner() {
        let inner = Constraint::eq(x(), Term::int(2));
        let l = Lit::Not(inner.clone());
        assert_eq!(l.negate(), inner);
    }

    #[test]
    fn ground_eval_conjunction() {
        let c =
            Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and(Constraint::neq(x(), Term::int(3)));
        let mut asg = FxHashMap::default();
        asg.insert(Var(0), Value::int(4));
        assert_eq!(c.eval_ground(&asg, &NoDomains), Some(true));
        asg.insert(Var(0), Value::int(3));
        assert_eq!(c.eval_ground(&asg, &NoDomains), Some(false));
        asg.insert(Var(0), Value::int(9));
        assert_eq!(c.eval_ground(&asg, &NoDomains), Some(false));
    }

    #[test]
    fn ground_eval_not() {
        // X <= 5 & not(X <= 5 & X = 6)  — example 5's replaced atom.
        let inner =
            Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and(Constraint::eq(x(), Term::int(6)));
        let c = Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and_lit(Lit::Not(inner));
        let mut asg = FxHashMap::default();
        asg.insert(Var(0), Value::int(4));
        assert_eq!(c.eval_ground(&asg, &NoDomains), Some(true));
        asg.insert(Var(0), Value::int(6));
        // X = 6 fails the outer X<=5? No: 6 > 5, outer fails already.
        assert_eq!(c.eval_ground(&asg, &NoDomains), Some(false));
        asg.insert(Var(0), Value::int(5));
        assert_eq!(c.eval_ground(&asg, &NoDomains), Some(true));
    }

    #[test]
    fn free_vars_dedup_ordered() {
        let c = Constraint::eq(x(), y()).and(Constraint::neq(y(), Term::int(1)));
        assert_eq!(c.free_vars(), vec![Var(0), Var(1)]);
    }

    #[test]
    fn tuple_eq_skips_identical_terms() {
        let c = Constraint::truth().and_tuple_eq(&[x(), y()], &[x(), Term::int(3)]);
        assert_eq!(c.lits, vec![Lit::Eq(y(), Term::int(3))]);
    }

    #[test]
    fn display_readable() {
        let c = Constraint::eq(x(), Term::int(2))
            .and_lit(Lit::Not(Constraint::neq(y(), Term::str("don"))));
        assert_eq!(c.to_string(), "X0 = 2 & not(X1 != \"don\")");
        assert_eq!(Constraint::truth().to_string(), "true");
    }

    #[test]
    fn ill_typed_field_eval_is_false() {
        let c = Constraint::eq(Term::field(x(), "missing"), Term::int(1));
        let mut asg = FxHashMap::default();
        asg.insert(Var(0), Value::int(5));
        assert_eq!(c.eval_ground(&asg, &NoDomains), Some(false));
    }
}
