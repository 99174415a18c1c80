//! The ground mirror of a workload: its constrained program and update
//! batches expanded to instance level, so `mmv-datalog`'s ground
//! evaluation checks the served view and its ground DRed prices the same
//! logical updates.

use mmv_constraints::{Constraint, NoDomains, SolverConfig, Term};
use mmv_core::atom::Instances;
use mmv_core::{ConstrainedAtom, ConstrainedDatabase};
use mmv_datalog::{DlAtom, DlProgram, DlRule, DlTerm, Fact};

/// The instances of `atoms` as ground facts. Panics when an atom's
/// instance set is not finitely enumerable: the workloads only use
/// bounded intervals and ground atoms.
pub fn ground_facts<'a>(atoms: impl IntoIterator<Item = &'a ConstrainedAtom>) -> Vec<Fact> {
    let mut out = Vec::new();
    for atom in atoms {
        match atom.instances(&NoDomains, &SolverConfig::default()) {
            Instances::Exact(tuples) => {
                out.extend(tuples.into_iter().map(|t| Fact::new(&atom.pred, t)))
            }
            other => panic!("{atom} has no finite instance set: {other:?}"),
        }
    }
    out
}

/// The ground program with the same least model as `db`: fact clauses
/// become their instances, rule clauses (which must carry no constraint)
/// become Datalog rules.
pub fn ground_mirror(db: &ConstrainedDatabase) -> DlProgram {
    let term = |t: &Term| match t {
        Term::Var(v) => DlTerm::Var(v.0),
        Term::Const(c) => DlTerm::Const(c.clone()),
        other => panic!("no ground form for term {other}"),
    };
    let mut rules = Vec::new();
    let mut edb = Vec::new();
    for (_, clause) in db.clauses() {
        if clause.body.is_empty() {
            let head = ConstrainedAtom::new(
                &clause.head_pred,
                clause.head_args.clone(),
                clause.constraint.clone(),
            );
            edb.extend(ground_facts([&head]));
        } else {
            assert_eq!(
                clause.constraint,
                Constraint::truth(),
                "rule clauses must be constraint-free"
            );
            let head = DlAtom::new(
                &clause.head_pred,
                clause.head_args.iter().map(term).collect(),
            );
            let body = clause
                .body
                .iter()
                .map(|a| DlAtom::new(&a.pred, a.args.iter().map(term).collect()))
                .collect();
            rules.push(DlRule::new(head, body).expect("workload rules are range-restricted"));
        }
    }
    DlProgram::new(rules, edb)
}
