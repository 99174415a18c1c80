//! Property-based tests of the paper's theorems: for randomized
//! constrained programs and updates, every incremental algorithm must
//! agree with its declarative oracle (Theorems 1–3), and `W_P` views must
//! be syntactically stable and instance-exact under external change
//! (Theorem 4, Corollary 1).

use mmv::constraints::{CmpOp, Constraint, NoDomains, Term, Var};
use mmv::core::{
    deletion_oracle, dred_delete, fixpoint, insert_atom, insertion_oracle, stdel_delete, BodyAtom,
    Clause, ConstrainedAtom, ConstrainedDatabase, FixpointConfig, Operator, SupportMode,
};
use proptest::prelude::*;

/// A randomized bounded-interval layered program description.
#[derive(Debug, Clone)]
struct ProgramSpec {
    /// Per layer-0 predicate: the interval facts (lo, width).
    facts: Vec<Vec<(i64, i64)>>,
    /// Derived layers: for each layer, for each predicate, body indices
    /// into the previous layer.
    layers: Vec<Vec<Vec<usize>>>,
}

fn x() -> Term {
    Term::var(Var(0))
}

fn interval(lo: i64, hi: i64) -> Constraint {
    Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
        x(),
        CmpOp::Le,
        Term::int(hi),
    ))
}

fn build_db(spec: &ProgramSpec) -> ConstrainedDatabase {
    let mut db = ConstrainedDatabase::new();
    for (j, facts) in spec.facts.iter().enumerate() {
        for (lo, width) in facts {
            db.push(Clause::fact(
                &format!("p0_{j}"),
                vec![x()],
                interval(*lo, lo + width),
            ));
        }
    }
    for (l, layer) in spec.layers.iter().enumerate() {
        for (j, body) in layer.iter().enumerate() {
            db.push(Clause::new(
                &format!("p{}_{j}", l + 1),
                vec![x()],
                Constraint::truth(),
                body.iter()
                    .map(|&src| BodyAtom::new(&format!("p{l}_{src}"), vec![x()]))
                    .collect(),
            ));
        }
    }
    db
}

fn spec_strategy() -> impl Strategy<Value = ProgramSpec> {
    let facts = proptest::collection::vec(
        proptest::collection::vec((0i64..60, 1i64..25), 1..3),
        2..4usize,
    );
    facts.prop_flat_map(|facts| {
        let preds = facts.len();
        let layers = proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(0..preds, 1..=3usize),
                preds..=preds,
            ),
            1..3usize,
        );
        layers.prop_map(move |layers| ProgramSpec {
            facts: facts.clone(),
            layers,
        })
    })
}

fn deletion_strategy() -> impl Strategy<Value = (usize, i64, i64)> {
    // (layer-0 predicate index, interval lo, width)
    (0usize..4, 0i64..85, 0i64..10)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24), failure_persistence: None, ..ProptestConfig::default()
    })]

    /// Theorem 2: StDel's result has exactly the instances of
    /// `T_{P'} ↑ ω (∅)`.
    #[test]
    fn stdel_matches_oracle(spec in spec_strategy(), del in deletion_strategy()) {
        let db = build_db(&spec);
        let cfg = FixpointConfig::default();
        let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::WithSupports, &cfg).unwrap();
        let pred = format!("p0_{}", del.0 % spec.facts.len());
        let deletion = ConstrainedAtom::new(&pred, vec![x()], interval(del.1, del.1 + del.2));
        let expected = deletion_oracle(&db, &view, &deletion, &NoDomains, &cfg).unwrap();
        stdel_delete(&mut view, &deletion, &NoDomains, &cfg.solver).unwrap();
        let got = view.instances(&NoDomains, &cfg.solver).unwrap();
        prop_assert_eq!(got, expected);
    }

    /// Theorem 1: Extended DRed's result has exactly the instances of
    /// `T_{P'} ↑ ω (∅)`.
    #[test]
    fn dred_matches_oracle(spec in spec_strategy(), del in deletion_strategy()) {
        let db = build_db(&spec);
        let cfg = FixpointConfig::default();
        let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).unwrap();
        let pred = format!("p0_{}", del.0 % spec.facts.len());
        let deletion = ConstrainedAtom::new(&pred, vec![x()], interval(del.1, del.1 + del.2));
        let expected = deletion_oracle(&db, &view, &deletion, &NoDomains, &cfg).unwrap();
        dred_delete(&db, &mut view, &deletion, &NoDomains, &cfg).unwrap();
        let got = view.instances(&NoDomains, &cfg.solver).unwrap();
        prop_assert_eq!(got, expected);
    }

    /// StDel and Extended DRed agree with each other on the same update.
    #[test]
    fn stdel_and_dred_agree(spec in spec_strategy(), del in deletion_strategy()) {
        let db = build_db(&spec);
        let cfg = FixpointConfig::default();
        let (mut vs, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::WithSupports, &cfg).unwrap();
        let (mut vp, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).unwrap();
        let pred = format!("p0_{}", del.0 % spec.facts.len());
        let deletion = ConstrainedAtom::new(&pred, vec![x()], interval(del.1, del.1 + del.2));
        stdel_delete(&mut vs, &deletion, &NoDomains, &cfg.solver).unwrap();
        dred_delete(&db, &mut vp, &deletion, &NoDomains, &cfg).unwrap();
        prop_assert_eq!(
            vs.instances(&NoDomains, &cfg.solver).unwrap(),
            vp.instances(&NoDomains, &cfg.solver).unwrap()
        );
    }

    /// Theorem 3: insertion's result has exactly the instances of
    /// `T_{P♭} ↑ ω (∅)`.
    #[test]
    fn insertion_matches_oracle(spec in spec_strategy(), ins in deletion_strategy()) {
        let db = build_db(&spec);
        let cfg = FixpointConfig::default();
        let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::WithSupports, &cfg).unwrap();
        let pred = format!("p0_{}", ins.0 % spec.facts.len());
        // Insertions may overlap existing intervals or not.
        let insertion = ConstrainedAtom::new(&pred, vec![x()], interval(ins.1, ins.1 + ins.2));
        let expected = insertion_oracle(&db, &insertion, &NoDomains, &cfg).unwrap();
        insert_atom(&db, &mut view, &insertion, &NoDomains, Operator::Tp, &cfg).unwrap();
        let got = view.instances(&NoDomains, &cfg.solver).unwrap();
        prop_assert_eq!(got, expected);
    }

    /// Delete-then-reinsert restores the deleted instances (and possibly
    /// more was never deleted): final instances equal the insertion
    /// oracle applied after deletion.
    #[test]
    fn delete_then_reinsert_roundtrip(spec in spec_strategy(), upd in deletion_strategy()) {
        let db = build_db(&spec);
        let cfg = FixpointConfig::default();
        let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::WithSupports, &cfg).unwrap();
        let before = view.instances(&NoDomains, &cfg.solver).unwrap();
        let pred = format!("p0_{}", upd.0 % spec.facts.len());
        let atom = ConstrainedAtom::new(&pred, vec![x()], interval(upd.1, upd.1 + upd.2));
        stdel_delete(&mut view, &atom, &NoDomains, &cfg.solver).unwrap();
        insert_atom(&db, &mut view, &atom, &NoDomains, Operator::Tp, &cfg).unwrap();
        let after = view.instances(&NoDomains, &cfg.solver).unwrap();
        // Reinserting restores the deleted base instances; derived
        // instances reappear through P_ADD. The result can only differ
        // from `before` by instances of `atom` that were never in the
        // view (the insertion adds them).
        prop_assert!(after.is_superset(&before));
        for f in after.difference(&before) {
            // Anything new must stem from the inserted atom's own
            // instances outside the original view.
            prop_assert!(!before.contains(f));
        }
    }

    /// Deleting everything a predicate holds empties that predicate.
    #[test]
    fn total_deletion_empties_predicate(spec in spec_strategy()) {
        let db = build_db(&spec);
        let cfg = FixpointConfig::default();
        let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::WithSupports, &cfg).unwrap();
        let pred = "p0_0";
        let atom = ConstrainedAtom::new(pred, vec![x()], interval(-1000, 1000));
        stdel_delete(&mut view, &atom, &NoDomains, &cfg.solver).unwrap();
        let got = view.instances(&NoDomains, &cfg.solver).unwrap();
        prop_assert!(got.iter().all(|(p, _)| p.as_ref() != pred));
    }

    /// Theorem 4 + Corollary 1, randomized: under arbitrary external
    /// update sequences, the W_P view never changes syntactically and its
    /// instances always equal a freshly built T_P view's.
    #[test]
    fn wp_invariance_under_random_external_updates(
        updates in proptest::collection::vec((0usize..6, proptest::collection::vec(0i64..100, 0..3)), 1..6)
    ) {
        use mmv_bench::sensors::{monitoring_db, SensorDomain};
        use mmv_domains::DomainManager;
        use std::sync::Arc;

        let sensors = Arc::new(SensorDomain::new(6));
        let mut manager = DomainManager::new();
        manager.register(sensors.clone());
        let db = monitoring_db(6, 50);
        let cfg = FixpointConfig::default();
        let (wp, _) = fixpoint(&db, &manager, Operator::Wp, SupportMode::WithSupports, &cfg).unwrap();
        let baseline = wp.compact();
        for (sensor, values) in updates {
            sensors.set(sensor, values);
            // Theorem 4: syntactic invariance (the view is untouched by
            // construction; assert it anyway to pin the API contract).
            prop_assert!(wp.syntactically_equal(&baseline));
            // Corollary 1: instance equality with a fresh T_P build.
            let (tp, _) = fixpoint(&db, &manager, Operator::Tp, SupportMode::WithSupports, &cfg).unwrap();
            prop_assert_eq!(
                wp.instances(&manager, &cfg.solver).unwrap(),
                tp.instances(&manager, &cfg.solver).unwrap()
            );
        }
    }
}
