//! Reads answer like the instance semantics says.
//!
//! `query` and `ask` tie a pattern to each entry and enumerate;
//! `instances()` enumerates every live entry with no pattern at all. So
//! for random views, after random maintenance, `query(p, pattern)` must
//! equal `instances()` filtered by the pattern and `ask` must equal
//! membership — for every bound/free pattern over a value universe that
//! reaches past the views' own values.
//!
//! The views mix what an argument-bounds selector reads (constant
//! arguments, interval comparisons, `=`) with what it must read past
//! (`!=`, and the `not(..)` blocks StDel, Extended DRed's over-deletion
//! and insertion's `Add` conjoin onto *replaced* constraints), in both
//! support modes — the property a read path that selects through
//! `MaterializedView::candidates` and `ConstrainedAtom::overlap` has to
//! keep (ROADMAP item 3). It already rules one shortcut out: an entry
//! the solver calls `Sat` need not hold the tuple (a `not(..)` block
//! with auxiliary variables is over-approximated), so `ask` cannot stop
//! at the first candidate the solver does not refute without
//! enumerating it.

use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Value, Var};
use mmv_core::{
    apply_batch, fixpoint, BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase, FixpointConfig,
    Operator, SupportMode, UpdateBatch,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn x() -> Term {
    Term::var(Var(0))
}

fn y() -> Term {
    Term::var(Var(1))
}

fn between(t: Term, lo: i64, hi: i64) -> Constraint {
    Constraint::cmp(t.clone(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
        t,
        CmpOp::Le,
        Term::int(hi),
    ))
}

/// One `p/2` atom: `(args, constraint)`. Every variable argument is
/// bounded, so instances stay enumerable.
fn p_atom() -> impl Strategy<Value = (Vec<Term>, Constraint)> {
    let val = || prop_oneof![4 => (0i64..7).prop_map(Term::int), 1 => Just(Term::str("s"))];
    prop_oneof![
        // A ground fact.
        2 => (val(), val()).prop_map(|(a, b)| (vec![a, b], Constraint::truth())),
        // An interval over X beside a constant argument.
        2 => (0i64..7, 0i64..3, val())
            .prop_map(|(lo, w, b)| (vec![x(), b], between(x(), lo, lo + w))),
        // An interval over X, Y pinned by `=`.
        2 => (0i64..7, 0i64..3, val())
            .prop_map(|(lo, w, b)| (vec![x(), y()], between(x(), lo, lo + w).and(Constraint::eq(y(), b)))),
        // Two intervals and a `!=` the bounds must read past.
        2 => (0i64..7, 0i64..3, 0i64..7, 0i64..2, 0i64..7).prop_map(|(lo, w, lo2, w2, k)| {
            let c = between(x(), lo, lo + w)
                .and(between(y(), lo2, lo2 + w2))
                .and(Constraint::neq(x(), Term::int(k)));
            (vec![x(), y()], c)
        }),
        // The diagonal: one variable in both positions.
        1 => (0i64..7, 0i64..3).prop_map(|(lo, w)| (vec![x(), x()], between(x(), lo, lo + w))),
    ]
}

/// Random `p/2` facts under two rules: a projection and a join, so that
/// derived entries carry their children's constraints (and, in support
/// mode, StDel's `not(..)` blocks tied to child arguments).
fn program() -> impl Strategy<Value = ConstrainedDatabase> {
    collection::vec(p_atom(), 1..=6_usize).prop_map(|facts| {
        let mut db = ConstrainedDatabase::new();
        for (args, c) in facts {
            db.push(Clause::fact("p", args, c));
        }
        db.push(Clause::new(
            "q",
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new("p", vec![x(), y()])],
        ));
        db.push(Clause::new(
            "r",
            vec![x(), Term::var(Var(2))],
            Constraint::truth(),
            vec![
                BodyAtom::new("p", vec![x(), y()]),
                BodyAtom::new("p", vec![y(), Term::var(Var(2))]),
            ],
        ));
        db
    })
}

fn update() -> impl Strategy<Value = UpdateBatch> {
    let atom = || p_atom().prop_map(|(args, c)| ConstrainedAtom::new("p", args, c));
    (
        collection::vec(atom(), 0..=2_usize),
        collection::vec(atom(), 0..=2_usize),
    )
        .prop_map(|(deletes, inserts)| UpdateBatch { deletes, inserts })
}

/// Past both ends of the views' integers, plus the string constant and
/// one no view holds.
fn universe() -> Vec<Value> {
    let mut u: Vec<Value> = (-1..=10).map(Value::int).collect();
    u.extend([Value::str("s"), Value::str("t")]);
    u
}

/// Every bound/free pattern of the given arity over the universe.
fn patterns(arity: usize) -> Vec<Vec<Option<Value>>> {
    let mut choices: Vec<Option<Value>> = vec![None];
    choices.extend(universe().into_iter().map(Some));
    let mut out: Vec<Vec<Option<Value>>> = vec![Vec::new()];
    for _ in 0..arity {
        out = out
            .into_iter()
            .flat_map(|p| {
                choices.iter().map(move |c| {
                    let mut p = p.clone();
                    p.push(c.clone());
                    p
                })
            })
            .collect();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(48),
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    #[test]
    fn reads_match_the_instance_semantics(
        db in program(),
        updates in collection::vec(update(), 0..=3_usize),
    ) {
        let config = FixpointConfig::default();
        for mode in [SupportMode::WithSupports, SupportMode::Plain] {
            let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, mode, &config).unwrap();
            for batch in &updates {
                apply_batch(&db, &mut view, batch, &NoDomains, Operator::Tp, &config).unwrap();
            }
            let instances = view.instances(&NoDomains, &config.solver).unwrap();
            for (pred, arity) in [("p", 2), ("q", 1), ("r", 2), ("absent", 1)] {
                let held: BTreeSet<&Vec<Value>> = instances
                    .iter()
                    .filter(|(p, _)| p.as_ref() == pred)
                    .map(|(_, t)| t)
                    .collect();
                for pattern in patterns(arity) {
                    let expected: BTreeSet<Vec<Value>> = held
                        .iter()
                        .filter(|t| pattern.iter().zip(t.iter()).all(|(p, v)| p.as_ref().is_none_or(|p| p == v)))
                        .map(|t| (*t).clone())
                        .collect();
                    let got = view.query(pred, &pattern, &NoDomains, &config.solver).unwrap();
                    prop_assert_eq!(
                        &got, &expected,
                        "{:?}: query {}{:?} on\n{}", mode, pred, pattern, view
                    );
                    if let Some(point) = pattern.iter().cloned().collect::<Option<Vec<Value>>>() {
                        prop_assert_eq!(
                            view.ask(pred, &point, &NoDomains, &config.solver).unwrap(),
                            held.contains(&point),
                            "{:?}: ask {}{:?} on\n{}", mode, pred, point, view
                        );
                    }
                }
            }
            // A pattern of the wrong arity matches nothing.
            prop_assert!(view.query("p", &[None], &NoDomains, &config.solver).unwrap().is_empty());
            prop_assert!(!view.ask("q", &[Value::int(1), Value::int(1)], &NoDomains, &config.solver).unwrap());
        }
    }
}
