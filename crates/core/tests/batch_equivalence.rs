//! Batch maintenance ≡ sequential maintenance.
//!
//! The batched entry points ([`dred_delete_batch`], [`stdel_delete_batch`],
//! [`insert_batch`], [`apply_batch`]) must land on the same view as
//! applying the same updates one at a time.
//!
//! Two regimes, two strengths of "same":
//!
//! * **Unique-derivation workloads** (stratified chain rules over
//!   per-predicate *disjoint* interval facts): every instance has
//!   exactly one derivation, so DRed's rederivation never restores
//!   anything and the batch must reproduce the sequential view
//!   *syntactically* (same entries up to renaming).
//! * **Shared-derivation workloads** (joins, overlapping facts):
//!   sequential DRed accumulates redundant rederived entries that a
//!   single batched pass has no reason to create, so the views are
//!   compared at the *instance* level — and both are checked against
//!   the declarative [`batch_oracle`] (the least model of the rewritten
//!   database, Theorems 1–3 lifted to update sets).

use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Var};
use mmv_core::{
    apply_batch, batch_oracle, dred_delete, dred_delete_batch, fixpoint, insert_atom, insert_batch,
    stdel_delete, stdel_delete_batch, BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase,
    FixpointConfig, MaterializedView, Operator, ParallelFixpoint, SupportMode, UpdateBatch,
    WorkerPool,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn x() -> Term {
    Term::var(Var(0))
}

/// Interval fact `pred(X) <- 20*slot <= X <= 20*slot + width` with
/// `width < 20`: facts of one predicate never overlap.
fn disjoint_fact(pred: &str, slot: i64, width: i64) -> Clause {
    let lo = 20 * slot;
    Clause::fact(
        pred,
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(lo + width),
        )),
    )
}

const FACT_PREDS: [&str; 2] = ["b0", "b1"];

/// A stratified chain program over disjoint facts: every derived
/// predicate has exactly one clause with exactly one body atom, so each
/// instance of the least model has a unique derivation.
fn chain_db(widths0: &[i64], widths1: &[i64], wiring: &[usize]) -> ConstrainedDatabase {
    let mut clauses: Vec<Clause> = Vec::new();
    for (slot, w) in widths0.iter().enumerate() {
        clauses.push(disjoint_fact("b0", slot as i64, *w));
    }
    for (slot, w) in widths1.iter().enumerate() {
        clauses.push(disjoint_fact("b1", slot as i64, *w));
    }
    // Layer 1 draws from the facts, each following layer from the one
    // below; `wiring` picks the body predicate per derived predicate.
    let mut below: Vec<String> = FACT_PREDS.iter().map(|p| p.to_string()).collect();
    let mut wiring = wiring.iter().copied().cycle();
    for layer in 0..2 {
        let mut current: Vec<String> = Vec::new();
        for j in 0..2 {
            let head = format!("q{layer}_{j}");
            let src = &below[wiring.next().expect("cycled") % below.len()];
            clauses.push(Clause::new(
                &head,
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new(src, vec![x()])],
            ));
            current.push(head);
        }
        below = current;
    }
    ConstrainedDatabase::from_clauses(clauses)
}

/// A shared-derivation program: overlapping facts and a join rule, so
/// instances may have several derivations.
fn sharing_db(widths: &[(i64, i64)]) -> ConstrainedDatabase {
    let mut clauses: Vec<Clause> = Vec::new();
    for (lo, w) in widths {
        clauses.push(Clause::fact(
            "b0",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(*lo)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(lo + w),
            )),
        ));
    }
    // b1 covers a fixed band; q is derivable from either fact predicate
    // (shared coverage), r joins both.
    clauses.push(Clause::fact(
        "b1",
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(40),
        )),
    ));
    for src in FACT_PREDS {
        clauses.push(Clause::new(
            "q",
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new(src, vec![x()])],
        ));
    }
    clauses.push(Clause::new(
        "r",
        vec![x()],
        Constraint::truth(),
        vec![
            BodyAtom::new("b0", vec![x()]),
            BodyAtom::new("b1", vec![x()]),
        ],
    ));
    ConstrainedDatabase::from_clauses(clauses)
}

fn point(pred: &str, v: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(pred, vec![x()], Constraint::eq(x(), Term::int(v)))
}

/// Insertion interval in fresh value space (disjoint from every fact,
/// so it is genuinely new; overlaps between insertions are allowed and
/// exercised).
fn fresh_interval(pred: &str, lo: i64, w: i64) -> ConstrainedAtom {
    let lo = 1000 + lo;
    ConstrainedAtom::new(
        pred,
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(lo + w),
        )),
    )
}

fn build(db: &ConstrainedDatabase, mode: SupportMode) -> MaterializedView {
    fixpoint(
        db,
        &NoDomains,
        Operator::Tp,
        mode,
        &FixpointConfig::default(),
    )
    .expect("base fixpoint")
    .0
}

#[derive(Debug, Clone)]
struct Workload {
    db: ConstrainedDatabase,
    deletes: Vec<ConstrainedAtom>,
    inserts: Vec<ConstrainedAtom>,
}

fn chain_workload() -> impl Strategy<Value = Workload> {
    (
        collection::vec(0i64..15, 1..=3),
        collection::vec(0i64..15, 1..=3),
        collection::vec(0usize..4, 4..=4),
        collection::vec((0usize..2, 0i64..60), 1..=4),
        collection::vec((0usize..2, 0i64..40, 0i64..6), 0..=3),
    )
        .prop_map(|(widths0, widths1, wiring, dels, inss)| Workload {
            db: chain_db(&widths0, &widths1, &wiring),
            deletes: dels
                .into_iter()
                .map(|(p, v)| point(FACT_PREDS[p], v))
                .collect(),
            inserts: inss
                .into_iter()
                .map(|(p, lo, w)| fresh_interval(FACT_PREDS[p], lo, w))
                .collect(),
        })
}

fn sharing_workload() -> impl Strategy<Value = Workload> {
    (
        collection::vec((0i64..40, 0i64..12), 2..=4),
        collection::vec((0usize..2, 0i64..50), 1..=3),
        collection::vec((0usize..2, 0i64..40, 0i64..6), 0..=2),
    )
        .prop_map(|(widths, dels, inss)| Workload {
            db: sharing_db(&widths),
            deletes: dels
                .into_iter()
                .map(|(p, v)| point(FACT_PREDS[p], v))
                .collect(),
            inserts: inss
                .into_iter()
                .map(|(p, lo, w)| fresh_interval(FACT_PREDS[p], lo, w))
                .collect(),
        })
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// Shared pools for the thread sweep: 1, 2, and N (honoring
/// `MMV_POOL_THREADS`, at least 4) workers, built once per process.
fn sweep_pools() -> &'static [Arc<WorkerPool>] {
    static POOLS: OnceLock<Vec<Arc<WorkerPool>>> = OnceLock::new();
    POOLS.get_or_init(|| {
        let n = std::env::var("MMV_POOL_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
            .max(4);
        [1, 2, n]
            .into_iter()
            .map(|t| Arc::new(WorkerPool::new(t)))
            .collect()
    })
}

/// A pooled batch against the no-pool one: the same rendering (entry
/// order and variable numbers, not only the same entries up to
/// renaming) and the same counters.
fn assert_same_run<S: PartialEq + std::fmt::Debug>(
    what: &str,
    db: &ConstrainedDatabase,
    (pooled, pooled_stats): (&MaterializedView, S),
    (inline, inline_stats): (&MaterializedView, S),
) {
    assert_eq!(
        pooled.to_string(),
        inline.to_string(),
        "{what} renders differently on\n{db}"
    );
    assert_eq!(
        pooled_stats, inline_stats,
        "{what} counters differ on\n{db}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: cases(),
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Batched Extended DRed ≡ one-at-a-time Extended DRed on
    /// unique-derivation workloads, syntactically.
    #[test]
    fn dred_batch_matches_sequential(w in chain_workload()) {
        let cfg = FixpointConfig::default();
        let base = build(&w.db, SupportMode::Plain);
        let mut batched = base.clone();
        let batched_stats =
            dred_delete_batch(&w.db, &mut batched, &w.deletes, &NoDomains, &cfg).expect("batch");
        let mut sequential = base;
        for d in &w.deletes {
            dred_delete(&w.db, &mut sequential, d, &NoDomains, &cfg).expect("sequential");
        }
        prop_assert!(
            batched.syntactically_equal(&sequential),
            "DRed diverged on\n{}\nbatched:\n{batched}\nsequential:\n{sequential}",
            w.db
        );
        // The batched path again, under the work-stealing pool at each
        // sweep width: the view, its rendering and the counters must
        // equal the no-pool batch.
        for pool in sweep_pools() {
            let par = FixpointConfig {
                parallel: Some(ParallelFixpoint {
                    pool: Arc::clone(pool),
                    resolver: Arc::new(NoDomains),
                }),
                ..cfg.clone()
            };
            let mut parallel = build(&w.db, SupportMode::Plain);
            let parallel_stats = dred_delete_batch(&w.db, &mut parallel, &w.deletes, &NoDomains, &par)
                .expect("parallel batch");
            prop_assert!(
                parallel.syntactically_equal(&sequential),
                "DRed/pool={} diverged on\n{}\nparallel:\n{parallel}\nsequential:\n{sequential}",
                pool.threads(),
                w.db
            );
            assert_same_run(&format!("DRed/pool={}", pool.threads()), &w.db, (&parallel, parallel_stats), (&batched, batched_stats));
        }
    }

    /// Batched StDel ≡ one-at-a-time StDel on unique-derivation
    /// workloads, syntactically.
    #[test]
    fn stdel_batch_matches_sequential(w in chain_workload()) {
        let cfg = FixpointConfig::default();
        let base = build(&w.db, SupportMode::WithSupports);
        let mut batched = base.clone();
        stdel_delete_batch(&mut batched, &w.deletes, &NoDomains, &cfg.solver).expect("batch");
        let mut sequential = base;
        for d in &w.deletes {
            stdel_delete(&mut sequential, d, &NoDomains, &cfg.solver).expect("sequential");
        }
        prop_assert!(
            batched.syntactically_equal(&sequential),
            "StDel diverged on\n{}\nbatched:\n{batched}\nsequential:\n{sequential}",
            w.db
        );
    }

    /// Batched insertion ≡ one-at-a-time insertion, syntactically, in
    /// both support modes.
    #[test]
    fn insert_batch_matches_sequential(w in chain_workload()) {
        let cfg = FixpointConfig::default();
        for mode in [SupportMode::Plain, SupportMode::WithSupports] {
            let base = build(&w.db, mode);
            let mut batched = base.clone();
            let batched_stats =
                insert_batch(&w.db, &mut batched, &w.inserts, &NoDomains, Operator::Tp, &cfg)
                    .expect("batch");
            let mut sequential = base;
            for i in &w.inserts {
                insert_atom(&w.db, &mut sequential, i, &NoDomains, Operator::Tp, &cfg)
                    .expect("sequential");
            }
            prop_assert!(
                batched.syntactically_equal(&sequential),
                "insert/{mode:?} diverged on\n{}\nbatched:\n{batched}\nsequential:\n{sequential}",
                w.db
            );
            for pool in sweep_pools() {
                let par = FixpointConfig {
                    parallel: Some(ParallelFixpoint {
                        pool: Arc::clone(pool),
                        resolver: Arc::new(NoDomains),
                    }),
                    ..cfg.clone()
                };
                let mut parallel = build(&w.db, mode);
                let parallel_stats =
                    insert_batch(&w.db, &mut parallel, &w.inserts, &NoDomains, Operator::Tp, &par)
                        .expect("parallel batch");
                prop_assert!(
                    parallel.syntactically_equal(&sequential),
                    "insert/{mode:?}/pool={} diverged on\n{}\n\
                     parallel:\n{parallel}\nsequential:\n{sequential}",
                    pool.threads(),
                    w.db
                );
                assert_same_run(&format!("insert/{mode:?}/pool={}", pool.threads()), &w.db, (&parallel, parallel_stats), (&batched, batched_stats));
            }
        }
    }

    /// A full transaction (deletes then inserts) through `apply_batch`
    /// ≡ the same updates applied one at a time, syntactically, in both
    /// support modes — and both match the declarative batch oracle at
    /// the instance level.
    #[test]
    fn apply_batch_matches_sequential_and_oracle(w in chain_workload()) {
        let cfg = FixpointConfig::default();
        let batch = UpdateBatch {
            deletes: w.deletes.clone(),
            inserts: w.inserts.clone(),
        };
        for mode in [SupportMode::Plain, SupportMode::WithSupports] {
            let base = build(&w.db, mode);
            let oracle = batch_oracle(&w.db, &base, &batch, &NoDomains, &cfg).expect("oracle");
            let mut batched = base.clone();
            let batched_stats =
                apply_batch(&w.db, &mut batched, &batch, &NoDomains, Operator::Tp, &cfg)
                    .expect("batch");
            // `base` still shares every page with `batched`, so these are
            // the copies the batch cost a writer beside a live snapshot.
            let inline_share = batched.share_stats();
            let mut sequential = base;
            for d in &w.deletes {
                match mode {
                    SupportMode::Plain => {
                        dred_delete(&w.db, &mut sequential, d, &NoDomains, &cfg).expect("dred");
                    }
                    SupportMode::WithSupports => {
                        stdel_delete(&mut sequential, d, &NoDomains, &cfg.solver).expect("stdel");
                    }
                }
            }
            for i in &w.inserts {
                insert_atom(&w.db, &mut sequential, i, &NoDomains, Operator::Tp, &cfg)
                    .expect("insert");
            }
            prop_assert!(
                batched.syntactically_equal(&sequential),
                "apply_batch/{mode:?} diverged on\n{}\nbatched:\n{batched}\nsequential:\n{sequential}",
                w.db
            );
            prop_assert_eq!(
                batched.instances(&NoDomains, &cfg.solver).expect("instances"),
                oracle.clone(),
                "apply_batch/{:?} missed the oracle on\n{}",
                mode,
                w.db
            );
            for pool in sweep_pools() {
                let par = FixpointConfig {
                    parallel: Some(ParallelFixpoint {
                        pool: Arc::clone(pool),
                        resolver: Arc::new(NoDomains),
                    }),
                    ..cfg.clone()
                };
                let mut parallel = build(&w.db, mode);
                let snapshot = parallel.clone();
                let parallel_stats =
                    apply_batch(&w.db, &mut parallel, &batch, &NoDomains, Operator::Tp, &par)
                        .expect("parallel batch");
                assert_same_run(&format!("apply_batch/{mode:?}/pool={}", pool.threads()), &w.db, (&parallel, parallel_stats), (&batched, batched_stats));
                prop_assert!(
                    parallel.syntactically_equal(&batched),
                    "apply_batch/{mode:?}/pool={} diverged on\n{}\n\
                     parallel:\n{parallel}\nbatched:\n{batched}",
                    pool.threads(),
                    w.db
                );
                // The pooled executor's frozen round-start clone must be
                // gone before each merge: a multi-round batch copies the
                // same pages and keys as the inline run, not more.
                prop_assert_eq!(
                    parallel.share_stats(),
                    inline_share,
                    "apply_batch/{:?}/pool={} copy-on-write counters differ from the no-pool run on\n{}",
                    mode,
                    pool.threads(),
                    w.db
                );
                drop(snapshot);
            }
        }
    }

    /// On shared-derivation workloads (joins, overlapping coverage),
    /// batch and sequential maintenance agree at the instance level and
    /// both match the declarative oracle, in both support modes.
    #[test]
    fn shared_derivations_agree_on_instances(w in sharing_workload()) {
        let cfg = FixpointConfig::default();
        let batch = UpdateBatch {
            deletes: w.deletes.clone(),
            inserts: w.inserts.clone(),
        };
        for mode in [SupportMode::Plain, SupportMode::WithSupports] {
            let base = build(&w.db, mode);
            let oracle = batch_oracle(&w.db, &base, &batch, &NoDomains, &cfg).expect("oracle");
            let mut batched = base.clone();
            apply_batch(&w.db, &mut batched, &batch, &NoDomains, Operator::Tp, &cfg)
                .expect("batch");
            let mut sequential = base;
            for d in &w.deletes {
                match mode {
                    SupportMode::Plain => {
                        dred_delete(&w.db, &mut sequential, d, &NoDomains, &cfg).expect("dred");
                    }
                    SupportMode::WithSupports => {
                        stdel_delete(&mut sequential, d, &NoDomains, &cfg.solver).expect("stdel");
                    }
                }
            }
            for i in &w.inserts {
                insert_atom(&w.db, &mut sequential, i, &NoDomains, Operator::Tp, &cfg)
                    .expect("insert");
            }
            let batched_inst = batched.instances(&NoDomains, &cfg.solver).expect("instances");
            prop_assert_eq!(
                &batched_inst,
                &sequential.instances(&NoDomains, &cfg.solver).expect("instances"),
                "batch vs sequential instances diverged ({:?}) on\n{}",
                mode,
                w.db
            );
            prop_assert_eq!(
                &batched_inst,
                &oracle,
                "batch missed the oracle ({:?}) on\n{}",
                mode,
                w.db
            );
        }
    }
}
