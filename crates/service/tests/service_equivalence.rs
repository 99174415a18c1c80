//! The service must be invisible: at every pool width it serves
//! *syntactically* the same view as bare `apply_batch` on one view (and,
//! instance-level, the same state as the declarative `batch_oracle`) on
//! any sequence of batches over several independent chains, in both
//! support modes, and replaying its log reproduces it — and concurrent
//! readers must see the epoch move monotonically and every chain agree
//! with its base inside one snapshot.

use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Value, Var};
use mmv_core::batch::{apply_batch, UpdateBatch};
use mmv_core::semantics::batch_oracle;
use mmv_core::tp::{fixpoint, FixpointConfig, Operator};
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase, SupportMode};
use mmv_service::{ServiceWorker, ViewService};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const COMPONENTS: usize = 3;

fn x() -> Term {
    Term::var(Var(0))
}

/// `COMPONENTS` independent chains `bK → aK`, each over `[0, 9]`.
fn multi_chain_db() -> ConstrainedDatabase {
    let mut clauses = Vec::new();
    for k in 0..COMPONENTS {
        clauses.push(Clause::fact(
            &format!("b{k}"),
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(9),
            )),
        ));
        clauses.push(Clause::new(
            &format!("a{k}"),
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new(&format!("b{k}"), vec![x()])],
        ));
    }
    ConstrainedDatabase::from_clauses(clauses)
}

fn del_point(comp: usize, v: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(
        &format!("b{comp}"),
        vec![x()],
        Constraint::eq(x(), Term::int(v)),
    )
}

fn ins_interval(comp: usize, lo: i64, w: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(
        &format!("b{comp}"),
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(lo + w),
        )),
    )
}

#[derive(Debug, Clone)]
enum Op {
    Del { comp: usize, v: i64 },
    Ins { comp: usize, lo: i64, w: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => ((0..COMPONENTS), (0i64..12)).prop_map(|(comp, v)| Op::Del { comp, v }),
        1 => ((0..COMPONENTS), (20i64..50), (0i64..3))
            .prop_map(|(comp, lo, w)| Op::Ins { comp, lo, w }),
    ]
}

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    collection::vec(collection::vec(op_strategy(), 1..=4_usize), 1..=4_usize)
}

fn to_batch(ops: &[Op]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for op in ops {
        match *op {
            Op::Del { comp, v } => batch.deletes.push(del_point(comp, v)),
            Op::Ins { comp, lo, w } => batch.inserts.push(ins_interval(comp, lo, w)),
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24),
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    #[test]
    fn service_equals_apply_batch_and_oracle(batches in batches_strategy()) {
        let db = multi_chain_db();
        let cfg = FixpointConfig::default();
        let scfg = SolverConfig::default();
        for mode in [SupportMode::Plain, SupportMode::WithSupports] {
            // The declarative oracle for the first batch, taken from
            // the (shared) base state.
            let (base_view, _) = fixpoint(&db, &NoDomains, Operator::Tp, mode, &cfg)
                .expect("base fixpoint");
            let first_oracle = batch_oracle(
                &db, &base_view, &to_batch(&batches[0]), &NoDomains, &cfg,
            ).expect("oracle evaluates");

            // The service sweeps the pool width (1 = no pool, 2 and 4 =
            // pooled rounds); the bare reference always runs inline, so
            // every width is checked against the same inline state.
            for pool_threads in [1usize, 2, 4] {
            let svc = ViewService::builder()
                .mode(mode)
                .fixpoint(cfg.clone())
                .pool_threads(pool_threads)
                .build(db.clone())
                .expect("service builds");
            prop_assert_eq!(svc.pool().is_some(), pool_threads > 1);
            let mut bare = base_view.clone();

            for (i, ops) in batches.iter().enumerate() {
                let batch = to_batch(ops);
                let applied = svc.apply(batch.clone()).expect("service apply");
                apply_batch(&db, &mut bare, &batch, &NoDomains, Operator::Tp, &cfg)
                    .expect("bare apply");
                prop_assert_eq!(applied.epoch, i as u64 + 1, "one epoch per batch");

                // The served state is syntactically identical (atoms,
                // supports, external tickets — everything).
                let snap = svc.snapshot();
                prop_assert!(
                    snap.view().syntactically_equal(&bare),
                    "{mode:?} diverged after batch {i}:\nserved:\n{served}\nbare:\n{bare}",
                    mode = mode, i = i, served = snap.view(), bare = bare,
                );
                if i == 0 {
                    let inst = snap.instances(&NoDomains, &scfg).expect("instances");
                    prop_assert_eq!(&inst, &first_oracle, "{:?} != oracle on batch 0", mode);
                }
            }

            // Replaying the service's log onto one fresh view
            // reproduces the served state.
            let replayed = svc
                .log()
                .replay(&db, &NoDomains, Operator::Tp, mode, &cfg)
                .expect("replay");
            prop_assert!(replayed.syntactically_equal(svc.snapshot().view()));
            }
        }
    }
}

/// Concurrent readers racing writers on independent chains: the epoch
/// must be monotone on every read, and every chain must agree with its
/// base inside one snapshot — never a torn publication.
#[test]
fn concurrent_readers_observe_monotone_untorn_epochs() {
    let db = multi_chain_db();
    let svc = Arc::new(ViewService::builder().build(db).expect("service builds"));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let svc = svc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let cfg = SolverConfig::default();
                let mut last_epoch = 0u64;
                let mut reads = 0u64;
                // At least one read before honouring `stop`: a reader
                // first scheduled after the writers finish still checks
                // the final state.
                loop {
                    let snap = svc.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epoch regressed");
                    last_epoch = snap.epoch();
                    // The snapshot is internally consistent: the chain
                    // agrees with its base.
                    let probe = Value::int((reads % 10) as i64);
                    let k = (reads as usize) % COMPONENTS;
                    let in_b = snap
                        .ask(
                            &format!("b{k}"),
                            std::slice::from_ref(&probe),
                            &NoDomains,
                            &cfg,
                        )
                        .expect("read b");
                    let in_a = snap
                        .ask(&format!("a{k}"), &[probe], &NoDomains, &cfg)
                        .expect("read a");
                    assert_eq!(in_b, in_a, "torn chain inside one snapshot");
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            })
        })
        .collect();

    // One worker per component plus a main-thread writer whose batches
    // span two chains.
    let workers: Vec<_> = (0..COMPONENTS)
        .map(|k| {
            let (tx, worker) = ServiceWorker::spawn(svc.clone());
            for v in 0..5 {
                tx.submit(UpdateBatch::deleting(vec![del_point(k, v)]))
                    .expect("submit");
            }
            drop(tx);
            worker
        })
        .collect();
    for i in 0..4 {
        svc.apply(UpdateBatch::deleting(vec![
            del_point(i % COMPONENTS, 6 + i as i64),
            del_point((i + 1) % COMPONENTS, 6 + i as i64),
        ]))
        .expect("two-chain batch");
    }
    for w in workers {
        w.join().expect("worker");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader") > 0);
    }
    assert_eq!(svc.epoch(), (COMPONENTS * 5 + 4) as u64);
}
