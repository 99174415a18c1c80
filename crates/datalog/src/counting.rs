//! The counting algorithm of Gupta, Katiyar & Mumick \[21\]: every derived
//! fact carries the number of its derivations; EDB updates propagate
//! count deltas stratum by stratum, and a fact dies when its count
//! reaches zero.
//!
//! The paper improves on counting with StDel precisely because counting
//! is **not applicable to recursive views** (a fact on a cycle can have
//! infinitely many derivations). Construction therefore fails with
//! [`Recursive`] on recursive programs (`recursive_program_rejected`
//! below), while StDel maintains exactly such a view in perfbench's
//! `tc_ground` workload (`core.stdel.batch_ms`).

use crate::ast::{DlRule, Fact};
use crate::database::Database;
use crate::eval::{instantiate, join, TupleSource};
use crate::program::{DlProgram, Recursive};
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::Value;
use std::sync::Arc;

type Counts = FxHashMap<Vec<Value>, i64>;

/// A materialized view maintained by derivation counting.
pub struct CountingEngine {
    program: DlProgram,
    strata: Vec<Vec<Arc<str>>>,
    /// Derivation counts per predicate (EDB facts count 1).
    counts: FxHashMap<Arc<str>, Counts>,
    /// Live-fact mirror used for joins.
    db: Database,
}

impl CountingEngine {
    /// Builds the counted view; fails on recursive programs.
    pub fn new(program: DlProgram) -> Result<Self, Recursive> {
        let strata = program.strata()?;
        let idb = program.idb_predicates();
        debug_assert!(
            program.edb.iter().all(|f| !idb.contains(&f.pred)),
            "EDB and IDB predicates must be disjoint"
        );
        let mut engine = CountingEngine {
            program,
            strata,
            counts: FxHashMap::default(),
            db: Database::new(),
        };
        // EDB facts count 1 each.
        let edb = engine.program.edb.clone();
        for f in edb {
            if engine.db.insert(&f) {
                *engine
                    .counts
                    .entry(f.pred.clone())
                    .or_default()
                    .entry(f.args.clone())
                    .or_insert(0) += 1;
            }
        }
        // Strata in dependency order: count every derivation.
        for stratum in engine.strata.clone() {
            for pred in &stratum {
                let rules: Vec<DlRule> = engine
                    .program
                    .rules
                    .iter()
                    .filter(|r| r.head.pred == *pred)
                    .cloned()
                    .collect();
                let mut new_counts: Counts = Counts::default();
                for rule in &rules {
                    let db = &engine.db;
                    let counts = &engine.counts;
                    let sources: Vec<&dyn TupleSource> =
                        rule.body.iter().map(|_| db as &dyn TupleSource).collect();
                    join(&rule.body, &sources, &mut |b| {
                        let mut product: i64 = 1;
                        for atom in &rule.body {
                            let t = instantiate(atom, b).expect("full bindings");
                            product = product.saturating_mul(lookup(counts, &atom.pred, &t));
                        }
                        if let Some(head) = instantiate(&rule.head, b) {
                            *new_counts.entry(head).or_insert(0) += product;
                        }
                    });
                }
                for (tuple, c) in &new_counts {
                    if *c > 0 {
                        engine.db.insert(&Fact {
                            pred: pred.clone(),
                            args: tuple.clone(),
                        });
                    }
                }
                engine.counts.insert(pred.clone(), new_counts);
            }
        }
        Ok(engine)
    }

    /// The live facts of the counted view.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Derivation count of a fact (0 if absent).
    pub fn count(&self, fact: &Fact) -> i64 {
        lookup(&self.counts, &fact.pred, &fact.args)
    }

    /// Applies EDB deletions and insertions, propagating count deltas.
    /// Set semantics per fact: the final state is
    /// `(present ∧ ¬deleted) ∨ inserted`; duplicate mentions within one
    /// batch are idempotent.
    pub fn update(&mut self, deletions: &[Fact], insertions: &[Fact]) {
        let del_set: std::collections::HashSet<&Fact> = deletions.iter().collect();
        let ins_set: std::collections::HashSet<&Fact> = insertions.iter().collect();
        let mut delta: FxHashMap<Arc<str>, Counts> = FxHashMap::default();
        let mut delta_db = Database::new();
        let mut seen: std::collections::HashSet<&Fact> = std::collections::HashSet::new();
        for f in deletions.iter().chain(insertions) {
            if !seen.insert(f) {
                continue;
            }
            let initial = self.db.contains(f);
            let fin = (initial && !del_set.contains(f)) || ins_set.contains(f);
            let d = fin as i64 - initial as i64;
            if d != 0 {
                *delta
                    .entry(f.pred.clone())
                    .or_default()
                    .entry(f.args.clone())
                    .or_insert(0) += d;
                delta_db.insert(f);
            }
        }
        // Old-state snapshot, kept only for predicates whose counts
        // change (unchanged predicates: old == new).
        let mut old_counts: FxHashMap<Arc<str>, Counts> = FxHashMap::default();
        let mut old_db = self.db.clone();

        // Apply the EDB deltas.
        for (pred, dc) in &delta {
            old_counts.insert(
                pred.clone(),
                self.counts.get(pred).cloned().unwrap_or_default(),
            );
            self.apply_deltas(pred, dc);
        }

        // Propagate stratum by stratum.
        for stratum in self.strata.clone() {
            for pred in &stratum {
                let rules: Vec<DlRule> = self
                    .program
                    .rules
                    .iter()
                    .filter(|r| r.head.pred == *pred)
                    .cloned()
                    .collect();
                let mut head_delta: Counts = Counts::default();
                for rule in &rules {
                    // Telescoping: Π new − Π old =
                    //   Σ_j (Π_{i<j} new_i) · δ_j · (Π_{i>j} old_i).
                    for j in 0..rule.body.len() {
                        if delta_db.relation(&rule.body[j].pred).is_none() {
                            continue;
                        }
                        let new_db = &self.db;
                        let sources: Vec<&dyn TupleSource> = (0..rule.body.len())
                            .map(|i| {
                                if i == j {
                                    &delta_db as &dyn TupleSource
                                } else if i < j {
                                    new_db as &dyn TupleSource
                                } else {
                                    &old_db as &dyn TupleSource
                                }
                            })
                            .collect();
                        join(&rule.body, &sources, &mut |b| {
                            let mut product: i64 = 1;
                            for (i, atom) in rule.body.iter().enumerate() {
                                let t = instantiate(atom, b).expect("full bindings");
                                let factor = if i == j {
                                    lookup(&delta, &atom.pred, &t)
                                } else if i < j {
                                    lookup(&self.counts, &atom.pred, &t)
                                } else {
                                    // Old state: snapshot if changed,
                                    // else current.
                                    match old_counts.get(&atom.pred) {
                                        Some(c) => c.get(&t).copied().unwrap_or(0),
                                        None => lookup(&self.counts, &atom.pred, &t),
                                    }
                                };
                                product = product.saturating_mul(factor);
                                if product == 0 {
                                    break;
                                }
                            }
                            if product != 0 {
                                if let Some(head) = instantiate(&rule.head, b) {
                                    *head_delta.entry(head).or_insert(0) += product;
                                }
                            }
                        });
                    }
                }
                head_delta.retain(|_, c| *c != 0);
                if head_delta.is_empty() {
                    continue;
                }
                // Record old state before mutating this predicate.
                old_counts
                    .entry(pred.clone())
                    .or_insert_with(|| self.counts.get(pred).cloned().unwrap_or_default());
                for (tuple, _) in head_delta.iter() {
                    let f = Fact {
                        pred: pred.clone(),
                        args: tuple.clone(),
                    };
                    // Preserve old liveness for downstream "old" joins.
                    if self.db.contains(&f) {
                        old_db.insert(&f);
                    }
                }
                self.apply_deltas(pred, &head_delta);
                // Extend the delta database for downstream strata.
                delta
                    .entry(pred.clone())
                    .or_default()
                    .extend(head_delta.iter().map(|(t, c)| (t.clone(), *c)));
                for tuple in head_delta.keys() {
                    delta_db.insert(&Fact {
                        pred: pred.clone(),
                        args: tuple.clone(),
                    });
                }
            }
        }
    }

    fn apply_deltas(&mut self, pred: &Arc<str>, deltas: &Counts) {
        let table = self.counts.entry(pred.clone()).or_default();
        for (tuple, dc) in deltas {
            let entry = table.entry(tuple.clone()).or_insert(0);
            *entry += dc;
            let fact = Fact {
                pred: pred.clone(),
                args: tuple.clone(),
            };
            if *entry <= 0 {
                debug_assert!(*entry == 0, "negative derivation count for {fact}");
                table.remove(tuple);
                self.db.remove(&fact);
            } else {
                self.db.insert(&fact);
            }
        }
    }
}

fn lookup(counts: &FxHashMap<Arc<str>, Counts>, pred: &str, tuple: &[Value]) -> i64 {
    counts
        .get(pred)
        .and_then(|c| c.get(tuple))
        .copied()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DlAtom, DlTerm};
    use crate::eval::evaluate;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    /// path2(X, Y) :- e(X, Z), e(Z, Y)   — nonrecursive two-hop paths.
    fn two_hop(edges: &[(i64, i64)]) -> DlProgram {
        DlProgram::new(
            vec![DlRule::new(
                DlAtom::new("p2", vec![DlTerm::Var(0), DlTerm::Var(1)]),
                vec![
                    DlAtom::new("e", vec![DlTerm::Var(0), DlTerm::Var(2)]),
                    DlAtom::new("e", vec![DlTerm::Var(2), DlTerm::Var(1)]),
                ],
            )
            .unwrap()],
            edges
                .iter()
                .map(|&(a, b)| Fact::new("e", vec![v(a), v(b)]))
                .collect(),
        )
    }

    #[test]
    fn counts_reflect_multiple_derivations() {
        // 1->2->4 and 1->3->4: p2(1,4) has two derivations.
        let p = two_hop(&[(1, 2), (2, 4), (1, 3), (3, 4)]);
        let eng = CountingEngine::new(p).unwrap();
        assert_eq!(eng.count(&Fact::new("p2", vec![v(1), v(4)])), 2);
        assert!(eng.database().contains(&Fact::new("p2", vec![v(1), v(4)])));
    }

    #[test]
    fn deletion_decrements_and_survives_alternative() {
        let p = two_hop(&[(1, 2), (2, 4), (1, 3), (3, 4)]);
        let mut eng = CountingEngine::new(p.clone()).unwrap();
        eng.update(&[Fact::new("e", vec![v(1), v(2)])], &[]);
        // One derivation remains: p2(1,4) survives with count 1.
        assert_eq!(eng.count(&Fact::new("p2", vec![v(1), v(4)])), 1);
        // Cross-check the whole database with recomputation.
        let mut p2 = p;
        p2.edb.retain(|f| *f != Fact::new("e", vec![v(1), v(2)]));
        let expected = evaluate(&p2);
        assert_eq!(eng.database().sorted_facts(), expected.sorted_facts());
    }

    #[test]
    fn deletion_to_zero_removes_fact() {
        let p = two_hop(&[(1, 2), (2, 4)]);
        let mut eng = CountingEngine::new(p).unwrap();
        eng.update(&[Fact::new("e", vec![v(2), v(4)])], &[]);
        assert_eq!(eng.count(&Fact::new("p2", vec![v(1), v(4)])), 0);
        assert!(!eng.database().contains(&Fact::new("p2", vec![v(1), v(4)])));
    }

    #[test]
    fn insertion_increments() {
        let p = two_hop(&[(1, 2), (2, 4)]);
        let mut eng = CountingEngine::new(p.clone()).unwrap();
        eng.update(
            &[],
            &[
                Fact::new("e", vec![v(1), v(3)]),
                Fact::new("e", vec![v(3), v(4)]),
            ],
        );
        assert_eq!(eng.count(&Fact::new("p2", vec![v(1), v(4)])), 2);
        let mut p2 = p;
        p2.edb.push(Fact::new("e", vec![v(1), v(3)]));
        p2.edb.push(Fact::new("e", vec![v(3), v(4)]));
        let expected = evaluate(&p2);
        assert_eq!(eng.database().sorted_facts(), expected.sorted_facts());
    }

    #[test]
    fn multi_stratum_propagation() {
        // q(X) :- p2(X, Y).  — second stratum over two-hop paths.
        let mut p = two_hop(&[(1, 2), (2, 4), (1, 3), (3, 4)]);
        p.rules.push(
            DlRule::new(
                DlAtom::new("q", vec![DlTerm::Var(0)]),
                vec![DlAtom::new("p2", vec![DlTerm::Var(0), DlTerm::Var(1)])],
            )
            .unwrap(),
        );
        let mut eng = CountingEngine::new(p.clone()).unwrap();
        assert_eq!(eng.count(&Fact::new("q", vec![v(1)])), 2);
        // Delete both paths: q(1) must die.
        eng.update(
            &[
                Fact::new("e", vec![v(2), v(4)]),
                Fact::new("e", vec![v(3), v(4)]),
            ],
            &[],
        );
        assert_eq!(eng.count(&Fact::new("q", vec![v(1)])), 0);
        let mut p2 = p;
        p2.edb.retain(|f| {
            *f != Fact::new("e", vec![v(2), v(4)]) && *f != Fact::new("e", vec![v(3), v(4)])
        });
        let expected = evaluate(&p2);
        assert_eq!(eng.database().sorted_facts(), expected.sorted_facts());
    }

    #[test]
    fn recursive_program_rejected() {
        let p = DlProgram::new(
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
            vec![Fact::new("e", vec![v(1), v(2)])],
        );
        assert!(CountingEngine::new(p).is_err());
    }

    #[test]
    fn deleting_absent_and_duplicate_inserts_are_noops() {
        let p = two_hop(&[(1, 2), (2, 4)]);
        let mut eng = CountingEngine::new(p).unwrap();
        let before = eng.database().sorted_facts();
        eng.update(
            &[Fact::new("e", vec![v(8), v(9)])],
            &[Fact::new("e", vec![v(1), v(2)])],
        );
        assert_eq!(eng.database().sorted_facts(), before);
    }
}
