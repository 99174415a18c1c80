//! Ground workload generators: the classic Datalog programs over an edge
//! list (transitive closure — recursive; two-hop paths — nonrecursive),
//! in both the ground engine's and the constrained engine's
//! representations.

use mmv_constraints::{Constraint, Term, Value, Var};
use mmv_core::{BodyAtom, Clause, ConstrainedDatabase};
use mmv_datalog::{DlAtom, DlProgram, DlRule, DlTerm, Fact};

/// The recursive transitive-closure program over `edge` facts.
pub fn tc_program(edges: &[(i64, i64)]) -> DlProgram {
    DlProgram::new(
        vec![
            DlRule::new(
                DlAtom::new("tc", vec![DlTerm::Var(0), DlTerm::Var(1)]),
                vec![DlAtom::new("edge", vec![DlTerm::Var(0), DlTerm::Var(1)])],
            )
            .expect("safe rule"),
            DlRule::new(
                DlAtom::new("tc", vec![DlTerm::Var(0), DlTerm::Var(1)]),
                vec![
                    DlAtom::new("edge", vec![DlTerm::Var(0), DlTerm::Var(2)]),
                    DlAtom::new("tc", vec![DlTerm::Var(2), DlTerm::Var(1)]),
                ],
            )
            .expect("safe rule"),
        ],
        edge_facts(edges),
    )
}

/// The nonrecursive two-hop program (`p2(X,Y) :- edge(X,Z), edge(Z,Y)`),
/// plus a second stratum `reach1(X) :- p2(X, Y)`.
pub fn two_hop_program(edges: &[(i64, i64)]) -> DlProgram {
    DlProgram::new(
        vec![
            DlRule::new(
                DlAtom::new("p2", vec![DlTerm::Var(0), DlTerm::Var(1)]),
                vec![
                    DlAtom::new("edge", vec![DlTerm::Var(0), DlTerm::Var(2)]),
                    DlAtom::new("edge", vec![DlTerm::Var(2), DlTerm::Var(1)]),
                ],
            )
            .expect("safe rule"),
            DlRule::new(
                DlAtom::new("src2", vec![DlTerm::Var(0)]),
                vec![DlAtom::new("p2", vec![DlTerm::Var(0), DlTerm::Var(1)])],
            )
            .expect("safe rule"),
        ],
        edge_facts(edges),
    )
}

fn edge_facts(edges: &[(i64, i64)]) -> Vec<Fact> {
    edges
        .iter()
        .map(|&(a, b)| Fact::new("edge", vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

/// Translates a ground Datalog program into an equivalent constrained
/// database: facts become constant-argument clauses, rules become
/// constraint-free clauses. This is the bridge `tests/ground_equivalence.rs`
/// checks the two engines across, and perfbench's `tc_ground` workload
/// prices (`core.dred.batch_ms` against `datalog.ground_dred_ms`).
pub fn ground_to_constrained(p: &DlProgram) -> ConstrainedDatabase {
    let mut db = ConstrainedDatabase::new();
    for f in &p.edb {
        db.push(Clause::fact(
            &f.pred,
            f.args.iter().cloned().map(Term::Const).collect(),
            Constraint::truth(),
        ));
    }
    for r in &p.rules {
        let conv = |t: &DlTerm| match t {
            DlTerm::Var(v) => Term::Var(Var(*v)),
            DlTerm::Const(c) => Term::Const(c.clone()),
        };
        db.push(Clause::new(
            &r.head.pred,
            r.head.args.iter().map(conv).collect(),
            Constraint::truth(),
            r.body
                .iter()
                .map(|a| BodyAtom::new(&a.pred, a.args.iter().map(conv).collect()))
                .collect(),
        ));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::{NoDomains, SolverConfig};
    use mmv_core::{fixpoint, FixpointConfig, Operator, SupportMode};

    #[test]
    fn ground_and_constrained_engines_agree_on_tc() {
        let chain: Vec<(i64, i64)> = (0..5).map(|i| (i, i + 1)).collect();
        let p = tc_program(&chain);
        let ground = mmv_datalog::evaluate(&p);

        let cdb = ground_to_constrained(&p);
        let (view, _) = fixpoint(
            &cdb,
            &NoDomains,
            Operator::Tp,
            SupportMode::Plain,
            &FixpointConfig::default(),
        )
        .unwrap();
        let inst = view
            .instances(&NoDomains, &SolverConfig::default())
            .unwrap();
        let ground_set: std::collections::BTreeSet<(String, Vec<_>)> = ground
            .facts()
            .map(|f| (f.pred.to_string(), f.args))
            .collect();
        let constrained_set: std::collections::BTreeSet<(String, Vec<_>)> =
            inst.into_iter().map(|(p, t)| (p.to_string(), t)).collect();
        assert_eq!(ground_set, constrained_set);
    }
}
