//! Ground DRed — the delete/rederive algorithm of Gupta, Mumick &
//! Subrahmanian \[22\] that Section 3.1.1 of the paper extends to
//! constraints. This is the baseline the Extended DRed and StDel
//! algorithms are measured against (perfbench's `tc_ground` workload:
//! `datalog.ground_dred_ms` beside `core.dred.batch_ms` and
//! `core.stdel.batch_ms`).
//!
//! Given a materialized view `M` of a definite program and a set of EDB
//! deletions/insertions:
//!
//! 1. **Overestimate**: semi-naively propagate deletions — a derived fact
//!    is possibly-deleted if some rule derivation for it uses a
//!    possibly-deleted fact.
//! 2. **Put back**: a possibly-deleted fact with an alternative
//!    derivation from the remaining view is *rederived* (this is the
//!    expensive step StDel eliminates).
//! 3. **Insert**: semi-naively propagate insertions.

use crate::ast::Fact;
use crate::database::Database;
use crate::eval::{instantiate, join, TupleSource};
use crate::program::DlProgram;

/// Statistics about one DRed maintenance run (exposed so benchmarks can
/// report the overestimate and rederivation volumes the paper discusses).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DredStats {
    /// Facts in the deletion overestimate.
    pub overestimated: usize,
    /// Facts put back by rederivation.
    pub rederived: usize,
    /// Facts added by insertion propagation.
    pub inserted: usize,
}

/// Applies an EDB update to a materialized view with DRed.
///
/// `materialized` must be the least model of `program` (EDB ∪ IDB).
/// Returns the maintained view and run statistics.
pub fn apply_update(
    program: &DlProgram,
    materialized: &Database,
    deletions: &[Fact],
    insertions: &[Fact],
) -> (Database, DredStats) {
    let mut stats = DredStats::default();
    let mut view = materialized.clone();

    // ---- Step 1: overestimate deletions --------------------------------
    let mut overestimate = Database::new();
    let mut delta = Database::new();
    for f in deletions {
        if view.contains(f) && overestimate.insert(f) {
            delta.insert(f);
        }
    }
    while !delta.is_empty() {
        let mut next = Database::new();
        for rule in &program.rules {
            for dpos in 0..rule.body.len() {
                if delta.relation(&rule.body[dpos].pred).is_none() {
                    continue;
                }
                let sources: Vec<&dyn TupleSource> = (0..rule.body.len())
                    .map(|i| {
                        if i == dpos {
                            &delta as &dyn TupleSource
                        } else {
                            // Other positions draw from the *original*
                            // view: any derivation that existed.
                            materialized as &dyn TupleSource
                        }
                    })
                    .collect();
                join(&rule.body, &sources, &mut |b| {
                    if let Some(args) = instantiate(&rule.head, b) {
                        let fact = Fact {
                            pred: rule.head.pred.clone(),
                            args,
                        };
                        if materialized.contains(&fact) && !overestimate.contains(&fact) {
                            overestimate.insert(&fact);
                            next.insert(&fact);
                        }
                    }
                });
            }
        }
        delta = next;
    }
    stats.overestimated = overestimate.len();
    for f in overestimate.facts() {
        view.remove(&f);
    }

    // ---- Step 2: rederive ------------------------------------------------
    // A possibly-deleted *derived* fact comes back if some rule derives it
    // from the remaining view. (Deleted EDB facts never come back.)
    let idb = program.idb_predicates();
    let mut rederived = Database::new();
    loop {
        let mut progressed = false;
        for rule in &program.rules {
            if overestimate.relation(&rule.head.pred).is_none() {
                continue;
            }
            let sources: Vec<&dyn TupleSource> = rule
                .body
                .iter()
                .map(|_| &view as &dyn TupleSource)
                .collect();
            join(&rule.body, &sources, &mut |b| {
                if let Some(args) = instantiate(&rule.head, b) {
                    let fact = Fact {
                        pred: rule.head.pred.clone(),
                        args,
                    };
                    if idb.contains(&fact.pred)
                        && overestimate.contains(&fact)
                        && !rederived.contains(&fact)
                    {
                        rederived.insert(&fact);
                    }
                }
            });
        }
        for f in rederived.facts() {
            if overestimate.remove(&f) {
                view.insert(&f);
                stats.rederived += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // ---- Step 3: insertions ----------------------------------------------
    let mut delta = Database::new();
    for f in insertions {
        if view.insert(f) {
            delta.insert(f);
        }
    }
    // First, rules might fire purely from existing facts plus the new
    // ones; semi-naive propagation from the inserted delta suffices since
    // the view was already closed under the rules.
    while !delta.is_empty() {
        let mut next = Database::new();
        for rule in &program.rules {
            for dpos in 0..rule.body.len() {
                if delta.relation(&rule.body[dpos].pred).is_none() {
                    continue;
                }
                let sources: Vec<&dyn TupleSource> = (0..rule.body.len())
                    .map(|i| {
                        if i == dpos {
                            &delta as &dyn TupleSource
                        } else {
                            &view as &dyn TupleSource
                        }
                    })
                    .collect();
                join(&rule.body, &sources, &mut |b| {
                    if let Some(args) = instantiate(&rule.head, b) {
                        let fact = Fact {
                            pred: rule.head.pred.clone(),
                            args,
                        };
                        if !view.contains(&fact) {
                            next.insert(&fact);
                        }
                    }
                });
            }
        }
        for f in next.facts() {
            view.insert(&f);
            stats.inserted += 1;
        }
        delta = next;
    }

    (view, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DlAtom, DlRule, DlTerm};
    use crate::eval::evaluate;
    use mmv_constraints::Value;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    fn tc_program(edges: &[(i64, i64)]) -> DlProgram {
        DlProgram::new(
            vec![
                DlRule::new(
                    DlAtom::new("tc", vec![DlTerm::Var(0), DlTerm::Var(1)]),
                    vec![DlAtom::new("e", vec![DlTerm::Var(0), DlTerm::Var(1)])],
                )
                .unwrap(),
                DlRule::new(
                    DlAtom::new("tc", vec![DlTerm::Var(0), DlTerm::Var(1)]),
                    vec![
                        DlAtom::new("e", vec![DlTerm::Var(0), DlTerm::Var(2)]),
                        DlAtom::new("tc", vec![DlTerm::Var(2), DlTerm::Var(1)]),
                    ],
                )
                .unwrap(),
            ],
            edges
                .iter()
                .map(|&(a, b)| Fact::new("e", vec![v(a), v(b)]))
                .collect(),
        )
    }

    /// Oracle: apply the update to the EDB and recompute from scratch.
    fn oracle(program: &DlProgram, deletions: &[Fact], insertions: &[Fact]) -> Database {
        let mut p = program.clone();
        p.edb.retain(|f| !deletions.contains(f));
        p.edb.extend(insertions.iter().cloned());
        evaluate(&p)
    }

    #[test]
    fn delete_edge_matches_recompute() {
        let p = tc_program(&[(1, 2), (2, 3), (3, 4), (1, 3)]);
        let m = evaluate(&p);
        let del = vec![Fact::new("e", vec![v(2), v(3)])];
        let (maintained, stats) = apply_update(&p, &m, &del, &[]);
        let expected = oracle(&p, &del, &[]);
        assert_eq!(maintained.sorted_facts(), expected.sorted_facts());
        // tc(1,3) must survive via the direct edge (rederivation).
        assert!(maintained.contains(&Fact::new("tc", vec![v(1), v(3)])));
        assert!(stats.rederived > 0, "alternative derivation exercised");
    }

    #[test]
    fn insert_edge_matches_recompute() {
        let p = tc_program(&[(1, 2), (3, 4)]);
        let m = evaluate(&p);
        let ins = vec![Fact::new("e", vec![v(2), v(3)])];
        let (maintained, _) = apply_update(&p, &m, &[], &ins);
        let expected = oracle(&p, &[], &ins);
        assert_eq!(maintained.sorted_facts(), expected.sorted_facts());
        assert!(maintained.contains(&Fact::new("tc", vec![v(1), v(4)])));
    }

    #[test]
    fn mixed_update_matches_recompute() {
        let p = tc_program(&[(1, 2), (2, 3), (3, 1)]);
        let m = evaluate(&p);
        let del = vec![Fact::new("e", vec![v(3), v(1)])];
        let ins = vec![Fact::new("e", vec![v(3), v(5)])];
        let (maintained, _) = apply_update(&p, &m, &del, &ins);
        let expected = oracle(&p, &del, &ins);
        assert_eq!(maintained.sorted_facts(), expected.sorted_facts());
    }

    #[test]
    fn cycle_deletion_fully_unwinds() {
        // On a pure cycle, deleting one edge removes many tc facts; DRed's
        // overestimate is the whole closure and nothing is rederived
        // incorrectly.
        let p = tc_program(&[(1, 2), (2, 3), (3, 1)]);
        let m = evaluate(&p);
        let del = vec![Fact::new("e", vec![v(1), v(2)])];
        let (maintained, _) = apply_update(&p, &m, &del, &[]);
        let expected = oracle(&p, &del, &[]);
        assert_eq!(maintained.sorted_facts(), expected.sorted_facts());
        assert!(!maintained.contains(&Fact::new("tc", vec![v(1), v(2)])));
        assert!(maintained.contains(&Fact::new("tc", vec![v(2), v(1)])));
    }

    #[test]
    fn deleting_absent_fact_is_noop() {
        let p = tc_program(&[(1, 2)]);
        let m = evaluate(&p);
        let (maintained, stats) = apply_update(&p, &m, &[Fact::new("e", vec![v(9), v(9)])], &[]);
        assert_eq!(maintained.sorted_facts(), m.sorted_facts());
        assert_eq!(stats.overestimated, 0);
    }
}
