//! Three-valued constraint satisfiability and exact solution enumeration.
//!
//! * [`satisfiable`] decides whether a constraint (possibly containing
//!   `not(·)`) is solvable against a [`DomainResolver`]; the answer is
//!   [`Truth::Sat`], [`Truth::Unsat`] or [`Truth::Unknown`] (sound in both
//!   definite directions).
//! * [`solutions`] enumerates the solution tuples of a constraint over a
//!   chosen variable list — the `[A(X⃗) ← φ]` instance semantics of §2.3 —
//!   exactly, when the solution space is finite and within budget.

mod conj;
mod enumerate;
mod unionfind;

pub use enumerate::{solutions, solutions_with, EnumResult};

use crate::constraint::{Constraint, DomainResolver};
use crate::normal::{dnf_with_budget, DEFAULT_DNF_BUDGET};

pub(crate) use conj::{Conflict, ConjSolver};
pub(crate) use unionfind::NodeId;

/// The verdict of a satisfiability test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely satisfiable.
    Sat,
    /// Definitely unsatisfiable.
    Unsat,
    /// Could not be decided within the configured budgets (treated as
    /// "possibly satisfiable" by the maintenance algorithms, which is
    /// sound: at worst they keep an entry or do work a definite verdict
    /// would have dropped, and instance enumeration stays exact).
    Unknown,
}

impl Truth {
    /// Whether the constraint could have solutions (i.e. is not `Unsat`).
    pub fn possibly_sat(self) -> bool {
        !matches!(self, Truth::Unsat)
    }
}

/// Budgets bounding solver effort. Every budget failure degrades the
/// answer to `Unknown` rather than diverging or giving a wrong verdict.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of DNF disjuncts expanded from `not(·)` literals.
    pub dnf_budget: usize,
    /// Maximum size of a per-class candidate enumeration.
    pub enum_limit: usize,
    /// Node-expansion budget for the disequality witness search.
    pub witness_budget: usize,
    /// Maximum number of candidate tuples examined by [`solutions`].
    pub product_budget: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            dnf_budget: DEFAULT_DNF_BUDGET,
            enum_limit: 4096,
            witness_budget: 50_000,
            product_budget: 500_000,
        }
    }
}

/// Decides satisfiability with default budgets.
pub fn satisfiable(c: &Constraint, resolver: &dyn DomainResolver) -> Truth {
    satisfiable_with(c, resolver, &SolverConfig::default())
}

/// Decides satisfiability with explicit budgets.
pub fn satisfiable_with(
    c: &Constraint,
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
) -> Truth {
    let disjuncts = match dnf_with_budget(c, config.dnf_budget) {
        Ok(d) => d,
        Err(_) => return Truth::Unknown,
    };
    if disjuncts.is_empty() {
        return Truth::Unsat;
    }
    let mut any_unknown = false;
    for d in &disjuncts {
        let mut solver = ConjSolver::new(resolver, config);
        match solver.assert_all(d) {
            Err(Conflict) => continue,
            Ok(()) => match solver.verdict() {
                Truth::Sat => return Truth::Sat,
                Truth::Unknown => any_unknown = true,
                Truth::Unsat => {}
            },
        }
    }
    if any_unknown {
        Truth::Unknown
    } else {
        Truth::Unsat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CmpOp, Lit, NoDomains};
    use crate::term::{Term, Var};

    fn x() -> Term {
        Term::var(Var(0))
    }

    #[test]
    fn not_literal_satisfiability() {
        // X <= 5 & not(X <= 5 & X = 6): satisfiable (e.g. X = 0).
        let inner =
            Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and(Constraint::eq(x(), Term::int(6)));
        let c = Constraint::cmp(x(), CmpOp::Le, Term::int(5)).and_lit(Lit::Not(inner));
        assert_eq!(satisfiable(&c, &NoDomains), Truth::Sat);
    }

    #[test]
    fn contradictory_not_unsat() {
        // X = 3 & not(X = 3): unsatisfiable.
        let c =
            Constraint::eq(x(), Term::int(3)).and_lit(Lit::Not(Constraint::eq(x(), Term::int(3))));
        assert_eq!(satisfiable(&c, &NoDomains), Truth::Unsat);
    }

    #[test]
    fn paper_example_6_deleted_constraint() {
        // X = c & Y = d & not(X = c & Y = d) is not solvable (Example 6).
        let y = Term::var(Var(1));
        let inner =
            Constraint::eq(x(), Term::str("c")).and(Constraint::eq(y.clone(), Term::str("d")));
        let c = Constraint::eq(x(), Term::str("c"))
            .and(Constraint::eq(y, Term::str("d")))
            .and_lit(Lit::Not(inner));
        assert_eq!(satisfiable(&c, &NoDomains), Truth::Unsat);
    }

    #[test]
    fn empty_dnf_is_unsat() {
        let c = Constraint::lit(Lit::Not(Constraint::truth()));
        assert_eq!(satisfiable(&c, &NoDomains), Truth::Unsat);
    }
}
