//! Exact enumeration of constraint solutions — the executable form of the
//! paper's instance semantics `[A(X⃗) ← φ]` (§2.3).
//!
//! Strategy: expand to DNF; per disjunct, run the conjunction solver to
//! obtain finite per-class candidate sets; take the product over *classes*
//! (variables in one equivalence class share a value by construction);
//! re-check every candidate assignment against the full disjunct with the
//! ground evaluator (which is exact); project onto the requested variables
//! and union across disjuncts.

use crate::constraint::{Constraint, DomainResolver};
use crate::fxhash::FxHashMap;
use crate::normal::dnf_for_enumeration;
use crate::solver::conj::{Candidates, Conflict, ConjSolver};
use crate::solver::{NodeId, SolverConfig};
use crate::term::Var;
use crate::value::Value;
use std::collections::BTreeSet;

/// Result of solution enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumResult {
    /// The exact, complete set of solution tuples (ordered per the
    /// requested variable list).
    Exact(BTreeSet<Vec<Value>>),
    /// The candidate space exceeded the product budget.
    Overflow,
    /// Some variable's solution space could not be finitely enumerated
    /// (infinite set, unresolved domain call, …).
    Unknown,
}

impl EnumResult {
    /// The tuples, if exact.
    pub fn exact(&self) -> Option<&BTreeSet<Vec<Value>>> {
        match self {
            EnumResult::Exact(s) => Some(s),
            _ => None,
        }
    }
}

/// Enumerates solutions of `c` projected to `vars` with default budgets.
pub fn solutions(c: &Constraint, vars: &[Var], resolver: &dyn DomainResolver) -> EnumResult {
    solutions_with(c, vars, resolver, &SolverConfig::default())
}

/// Enumerates solutions of `c` projected to `vars`.
pub fn solutions_with(
    c: &Constraint,
    vars: &[Var],
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
) -> EnumResult {
    let disjuncts = match dnf_for_enumeration(c, config.dnf_budget, vars) {
        Ok(d) => d,
        Err(_) => return EnumResult::Unknown,
    };
    let mut out: BTreeSet<Vec<Value>> = BTreeSet::new();
    let mut budget = config.product_budget;
    for d in &disjuncts {
        match enumerate_disjunct(d, vars, resolver, config, &mut budget, &mut out) {
            Ok(()) => {}
            Err(e) => return e,
        }
    }
    EnumResult::Exact(out)
}

/// Eliminates *local existentials* from a primitive disjunct: a variable
/// occurring in exactly one literal (and not requested) is implicitly
/// existentially quantified there, so the literal can be discharged
/// instead of enumerated. This is what keeps `not(ψ)` exclusions cheap:
/// negating a region constraint ψ scatters ψ's standardized-apart
/// variables across disjuncts where each appears once.
///
/// Returns `None` when a discharged literal is unsatisfiable on its own
/// (the disjunct has no solutions).
fn eliminate_local_existentials(
    d: &Constraint,
    requested: &[Var],
    resolver: &dyn DomainResolver,
) -> Option<Constraint> {
    use crate::constraint::Lit;
    use crate::term::Term;
    let mut lits = d.lits.clone();
    loop {
        // Occurrence counts across literals.
        let mut occurrences: FxHashMap<Var, usize> = FxHashMap::default();
        for lit in &lits {
            let mut vs = Vec::new();
            lit.collect_vars(&mut vs);
            vs.sort_unstable();
            vs.dedup();
            for v in vs {
                *occurrences.entry(v).or_insert(0) += 1;
            }
        }
        let is_local = |v: &Var| occurrences.get(v) == Some(&1) && !requested.contains(v);
        let mut dropped = false;
        let mut i = 0;
        while i < lits.len() {
            let lit = &lits[i];
            // Whether a term mentions a local variable / is free of `v`.
            let has_local = |t: &Term| {
                let mut vs = Vec::new();
                t.collect_vars(&mut vs);
                vs.iter().any(&is_local)
            };
            let free_of = |t: &Term, v: &Var| {
                let mut vs = Vec::new();
                t.collect_vars(&mut vs);
                !vs.contains(v)
            };
            let verdict: Option<bool> = match lit {
                // ∃v̄ (a = b): a side rooted in a local variable can be
                // chosen freely; satisfiable when the other side does not
                // mention that variable (a value cannot equal a strict
                // subterm of itself, so `v = v.f` stays).
                Lit::Eq(a, b) => {
                    let side_local_free = |s: &Term, o: &Term| {
                        let mut vs = Vec::new();
                        s.collect_vars(&mut vs);
                        vs.iter().any(|v| is_local(v) && free_of(o, v))
                    };
                    if side_local_free(a, b) || side_local_free(b, a) {
                        Some(true)
                    } else {
                        None
                    }
                }
                // ∃v̄ (a != b): over the infinite universe a side
                // containing a local variable can always be made to
                // differ, unless the sides are syntactically identical.
                Lit::Neq(a, b) => {
                    if a == b {
                        Some(false)
                    } else if has_local(a) || has_local(b) {
                        Some(true)
                    } else {
                        None
                    }
                }
                // ∃v (v op k) over the integers: satisfiable for integer k.
                Lit::Cmp(a, _, b) => match (a, b) {
                    (Term::Var(v), Term::Const(Value::Int(_)))
                    | (Term::Const(Value::Int(_)), Term::Var(v))
                        if is_local(v) =>
                    {
                        Some(true)
                    }
                    (Term::Var(v), Term::Var(w)) if v != w && is_local(v) && is_local(w) => {
                        Some(true)
                    }
                    _ => None,
                },
                // ∃v (v in S): true iff S is nonempty (evaluable when the
                // arguments are ground).
                Lit::In(x, call) => match x {
                    Term::Var(v) if is_local(v) => {
                        let ground: Option<Vec<Value>> =
                            call.args.iter().map(|t| t.as_const().cloned()).collect();
                        ground.map(|args| {
                            !resolver.resolve(&call.domain, &call.func, &args).is_empty()
                        })
                    }
                    _ => None,
                },
                // ∃v̄ ¬(x in S(args)): with every variable of the literal
                // local, this fails only if the membership held
                // *universally* — impossible for proper (non-universal)
                // set-valued domain functions, which this solver assumes
                // of every [`crate::constraint::DomainResolver`]
                // implementation. Ground calls are checked exactly.
                Lit::NotIn(x, call) => {
                    let mut vs = Vec::new();
                    lit.collect_vars(&mut vs);
                    if vs.is_empty() {
                        // Fully ground: evaluate exactly.
                        let args: Option<Vec<Value>> =
                            call.args.iter().map(|t| t.as_const().cloned()).collect();
                        match (x.as_const(), args) {
                            (Some(v), Some(args)) => Some(
                                !resolver
                                    .resolve(&call.domain, &call.func, &args)
                                    .contains(v),
                            ),
                            _ => None,
                        }
                    } else if vs.iter().any(&is_local) {
                        // A local membership variable can dodge any proper
                        // set; a local *argument* variable can be fed an
                        // ill-typed value, for which domain functions
                        // return the empty set by convention
                        // ([`crate::constraint::DomainResolver`]) — either
                        // way the negation is witnessed.
                        Some(true)
                    } else {
                        None
                    }
                }
                Lit::Not(_) => None,
            };
            match verdict {
                Some(true) => {
                    lits.remove(i);
                    dropped = true;
                    // Occurrence counts changed: restart the scan.
                    break;
                }
                Some(false) => return None,
                None => i += 1,
            }
        }
        if !dropped {
            return Some(Constraint { lits });
        }
    }
}

fn enumerate_disjunct(
    raw: &Constraint,
    vars: &[Var],
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
    budget: &mut usize,
    out: &mut BTreeSet<Vec<Value>>,
) -> Result<(), EnumResult> {
    let Some(d) = eliminate_local_existentials(raw, vars, resolver) else {
        return Ok(()); // a discharged literal was unsatisfiable
    };
    let d = &d;
    let mut solver = ConjSolver::new(resolver, config);
    if solver.assert_all(d).is_err() {
        // Unsatisfiable disjunct: contributes nothing.
        return Ok(());
    }
    // Requested variables that do not occur in the disjunct are
    // unconstrained, hence have infinitely many solutions.
    let var_classes = solver.var_classes();
    for v in vars {
        if !var_classes.contains_key(v) {
            return Err(EnumResult::Unknown);
        }
    }
    // Group the disjunct's *enumerable* variables by class: variables
    // occurring only inside opaque `not(·)` literals are existential
    // within the negation and must not be enumerated.
    let mut d_vars: Vec<Var> = Vec::new();
    for lit in &d.lits {
        if !matches!(lit, crate::constraint::Lit::Not(_)) {
            lit.collect_vars(&mut d_vars);
        }
    }
    d_vars.extend(vars.iter().copied());
    d_vars.sort_unstable();
    d_vars.dedup();
    d_vars.retain(|v| var_classes.contains_key(v));
    let mut class_vars: FxHashMap<NodeId, Vec<Var>> = FxHashMap::default();
    for v in &d_vars {
        let root = var_classes[v];
        class_vars.entry(root).or_default().push(*v);
    }
    let mut roots: Vec<NodeId> = class_vars.keys().copied().collect();
    roots.sort_unstable();
    // Static candidates from constraint propagation, where finite.
    let mut static_cands: FxHashMap<NodeId, Vec<Value>> = FxHashMap::default();
    for r in &roots {
        match solver.candidates_for_root(*r) {
            Err(Conflict) => return Ok(()), // class empty: no solutions
            Ok(Candidates::Finite(v)) => {
                static_cands.insert(*r, v);
            }
            Ok(Candidates::Infinite) => {}
        }
    }
    let mut search = JoinSearch {
        d,
        vars,
        resolver,
        config,
        class_vars: &class_vars,
        var_classes: &var_classes,
        static_cands: &static_cands,
        asg: FxHashMap::default(),
        assigned: Vec::new(),
        steps: 0,
        budget: *budget,
        out,
    };
    let remaining = roots.clone();
    let result = search.descend(&remaining);
    *budget = budget.saturating_sub(search.steps);
    result
}

/// Backtracking join search over equivalence classes: at every depth the
/// next class is the one with the fewest *currently available*
/// candidates — either statically finite (intervals, direct memberships)
/// or generated dynamically from a positive `in(X, d:f(args))` literal
/// whose argument variables are already assigned (the dependent joins of
/// the mediator clauses, e.g. `in(Y, facedb:findname(P2))`). Literals are
/// checked eagerly as soon as all their variables are assigned, pruning
/// the search space the way a join engine pushes selections.
struct JoinSearch<'a> {
    d: &'a Constraint,
    vars: &'a [Var],
    resolver: &'a dyn DomainResolver,
    config: &'a SolverConfig,
    class_vars: &'a FxHashMap<NodeId, Vec<Var>>,
    var_classes: &'a FxHashMap<Var, NodeId>,
    static_cands: &'a FxHashMap<NodeId, Vec<Value>>,
    asg: FxHashMap<Var, Value>,
    assigned: Vec<NodeId>,
    steps: usize,
    budget: usize,
    out: &'a mut BTreeSet<Vec<Value>>,
}

impl<'a> JoinSearch<'a> {
    fn descend(&mut self, remaining: &[NodeId]) -> Result<(), EnumResult> {
        if remaining.is_empty() {
            // Full assignment: exact semantic check of every literal.
            if self.d.eval_ground(&self.asg, self.resolver) == Some(true) {
                let tuple: Option<Vec<Value>> =
                    self.vars.iter().map(|v| self.asg.get(v).cloned()).collect();
                if let Some(t) = tuple {
                    self.out.insert(t);
                }
            }
            return Ok(());
        }
        // Pick the unassigned class with the fewest available candidates.
        let mut best: Option<(usize, NodeId, Vec<Value>)> = None;
        for &r in remaining {
            let cands = self.available_candidates(r)?;
            if let Some(c) = cands {
                if best.as_ref().is_none_or(|(n, _, _)| c.len() < *n) {
                    let len = c.len();
                    best = Some((len, r, c));
                    if len <= 1 {
                        break; // cannot do better
                    }
                }
            }
        }
        let Some((_, root, cands)) = best else {
            // No class is enumerable at this point: infinite solutions.
            return Err(EnumResult::Unknown);
        };
        let rest: Vec<NodeId> = remaining.iter().copied().filter(|&r| r != root).collect();
        let class = &self.class_vars[&root];
        for value in cands {
            self.steps += 1;
            if self.steps > self.budget {
                return Err(EnumResult::Overflow);
            }
            for v in class {
                self.asg.insert(*v, value.clone());
            }
            self.assigned.push(root);
            let ok = self.lits_consistent();
            if ok {
                self.descend(&rest)?;
            }
            self.assigned.pop();
            for v in class {
                self.asg.remove(v);
            }
        }
        Ok(())
    }

    /// Evaluates every literal whose variables are all assigned; `false`
    /// prunes the branch. (Literals with unassigned variables are checked
    /// later, and everything is re-checked at the leaf.)
    fn lits_consistent(&self) -> bool {
        for lit in &self.d.lits {
            let mut vs = Vec::new();
            lit.collect_vars(&mut vs);
            if vs.iter().all(|v| self.asg.contains_key(v))
                && lit.eval_ground(&self.asg, self.resolver) != Some(true)
            {
                return false;
            }
        }
        true
    }

    /// Candidates for class `r` available *now*: statically finite sets,
    /// or dynamic generation through a positive membership literal whose
    /// arguments are fully assigned.
    fn available_candidates(&mut self, r: NodeId) -> Result<Option<Vec<Value>>, EnumResult> {
        let mut best: Option<Vec<Value>> = self.static_cands.get(&r).cloned();
        for lit in &self.d.lits {
            let crate::constraint::Lit::In(x, call) = lit else {
                continue;
            };
            let Some(xv) = x.as_var() else { continue };
            if self.var_classes[&xv] != r {
                continue;
            }
            let mut argvars = Vec::new();
            for t in &call.args {
                t.collect_vars(&mut argvars);
            }
            if !argvars.iter().all(|v| self.asg.contains_key(v)) {
                continue;
            }
            let Some(args) = call.eval_args(&self.asg) else {
                // Ill-typed under this assignment: the literal can never
                // hold, so the branch is dead (lits_consistent will catch
                // it once x is assigned; give it no candidates now).
                return Ok(Some(Vec::new()));
            };
            self.steps += 1;
            if self.steps > self.budget {
                return Err(EnumResult::Overflow);
            }
            let set = self.resolver.resolve(&call.domain, &call.func, &args);
            if let Some(vals) = set.enumerate(self.config.enum_limit) {
                if best.as_ref().is_none_or(|b| vals.len() < b.len()) {
                    best = Some(vals);
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Call, CmpOp, Lit, NoDomains};
    use crate::term::Term;
    use crate::valueset::ValueSet;

    fn x() -> Term {
        Term::var(Var(0))
    }
    fn y() -> Term {
        Term::var(Var(1))
    }

    fn tuples(r: &EnumResult) -> Vec<Vec<Value>> {
        r.exact().unwrap().iter().cloned().collect()
    }

    #[test]
    fn bounded_interval_enumeration() {
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(1)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(3),
        ));
        let r = solutions(&c, &[Var(0)], &NoDomains);
        assert_eq!(
            tuples(&r),
            vec![
                vec![Value::int(1)],
                vec![Value::int(2)],
                vec![Value::int(3)]
            ]
        );
    }

    #[test]
    fn paper_example_semantics() {
        // φ = (X = 2 & Y != X & Y > X): [p(X,Y) <- φ] = {p(2,3), p(2,4), ...}
        // bounded here with Y <= 5 for finiteness.
        let c = Constraint::eq(x(), Term::int(2))
            .and(Constraint::neq(y(), x()))
            .and(Constraint::cmp(y(), CmpOp::Gt, x()))
            .and(Constraint::cmp(y(), CmpOp::Le, Term::int(5)));
        let r = solutions(&c, &[Var(0), Var(1)], &NoDomains);
        assert_eq!(
            tuples(&r),
            vec![
                vec![Value::int(2), Value::int(3)],
                vec![Value::int(2), Value::int(4)],
                vec![Value::int(2), Value::int(5)],
            ]
        );
    }

    #[test]
    fn unbounded_is_unknown() {
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(0));
        assert_eq!(solutions(&c, &[Var(0)], &NoDomains), EnumResult::Unknown);
    }

    #[test]
    fn unsat_gives_empty() {
        let c = Constraint::eq(x(), Term::int(1)).and(Constraint::eq(x(), Term::int(2)));
        let r = solutions(&c, &[Var(0)], &NoDomains);
        assert!(r.exact().unwrap().is_empty());
    }

    #[test]
    fn not_literal_carves_out_point() {
        // 1 <= X <= 4 & not(X = 2): {1, 3, 4}
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(1))
            .and(Constraint::cmp(x(), CmpOp::Le, Term::int(4)))
            .and_lit(Lit::Not(Constraint::eq(x(), Term::int(2))));
        let r = solutions(&c, &[Var(0)], &NoDomains);
        assert_eq!(
            tuples(&r),
            vec![
                vec![Value::int(1)],
                vec![Value::int(3)],
                vec![Value::int(4)]
            ]
        );
    }

    #[test]
    fn membership_enumeration() {
        struct R;
        impl DomainResolver for R {
            fn resolve(&self, _d: &str, _f: &str, _a: &[Value]) -> ValueSet {
                ValueSet::finite([Value::str("a"), Value::str("b")])
            }
        }
        let c = Constraint::member(x(), Call::new("d", "f", vec![]))
            .and(Constraint::neq(x(), Term::str("a")));
        let r = solutions(&c, &[Var(0)], &R);
        assert_eq!(tuples(&r), vec![vec![Value::str("b")]]);
    }

    #[test]
    fn projection_onto_subset_of_vars() {
        // X in 1..2, Y = X+? — use equality: Y = X; project onto Y only.
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(1))
            .and(Constraint::cmp(x(), CmpOp::Le, Term::int(2)))
            .and(Constraint::eq(y(), x()));
        let r = solutions(&c, &[Var(1)], &NoDomains);
        assert_eq!(tuples(&r), vec![vec![Value::int(1)], vec![Value::int(2)]]);
    }

    #[test]
    fn aux_var_projection_dedups() {
        // Aux var Y ranges over 1..3 but we only ask for X = 9.
        let c = Constraint::eq(x(), Term::int(9))
            .and(Constraint::cmp(y(), CmpOp::Ge, Term::int(1)))
            .and(Constraint::cmp(y(), CmpOp::Le, Term::int(3)));
        let r = solutions(&c, &[Var(0)], &NoDomains);
        assert_eq!(tuples(&r), vec![vec![Value::int(9)]]);
    }

    #[test]
    fn ground_constraint_no_vars() {
        let c = Constraint::eq(Term::int(1), Term::int(1));
        let r = solutions(&c, &[], &NoDomains);
        assert_eq!(tuples(&r), vec![Vec::<Value>::new()]);
        let c2 = Constraint::eq(Term::int(1), Term::int(2));
        let r2 = solutions(&c2, &[], &NoDomains);
        assert!(r2.exact().unwrap().is_empty());
    }

    #[test]
    fn overflow_detected() {
        let cfg = SolverConfig {
            product_budget: 4,
            ..SolverConfig::default()
        };
        let c = Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(100),
        ));
        assert_eq!(
            solutions_with(&c, &[Var(0)], &NoDomains, &cfg),
            EnumResult::Overflow
        );
    }
}
