//! Concurrency smoke tests: reader threads racing the writer.
//!
//! The program is a chain `b → a → c`, and every batch updates `b` and
//! lets maintenance propagate — so in every *published* state the three
//! predicates answer identically. A reader that ever observed a
//! half-applied batch (say, `b` already weakened but `a` not yet) would
//! see the invariant break; a reader that observed a torn publication
//! would see epochs move backwards. Both are asserted on every read.

use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Value, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::tp::Operator;
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase, SupportMode};
use mmv_service::{ServiceWorker, ViewService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

fn x() -> Term {
    Term::var(Var(0))
}

fn chain_db() -> ConstrainedDatabase {
    ConstrainedDatabase::from_clauses(vec![
        Clause::fact(
            "b",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(99),
            )),
        ),
        Clause::new(
            "a",
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new("b", vec![x()])],
        ),
        Clause::new(
            "c",
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new("a", vec![x()])],
        ),
    ])
}

fn point(v: i64) -> ConstrainedAtom {
    ConstrainedAtom::new("b", vec![x()], Constraint::eq(x(), Term::int(v)))
}

fn interval(lo: i64, hi: i64) -> ConstrainedAtom {
    interval_in("b", lo, hi)
}

fn interval_in(pred: &str, lo: i64, hi: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(
        pred,
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(hi),
        )),
    )
}

fn service(mode: SupportMode) -> Arc<ViewService> {
    Arc::new(
        ViewService::builder()
            .mode(mode)
            .build(chain_db())
            .expect("base view builds"),
    )
}

/// The batch sequence the writer applies: point deletions walking
/// through the base interval plus periodic fresh-space insertions.
fn batches(n: usize) -> Vec<UpdateBatch> {
    (0..n)
        .map(|k| {
            let mut batch =
                UpdateBatch::deleting(vec![point(2 * k as i64), point(2 * k as i64 + 1)]);
            if k % 3 == 0 {
                let lo = 200 + 10 * k as i64;
                batch = batch.insert(interval(lo, lo + 4));
            }
            batch
        })
        .collect()
}

fn readers_race_writer(mode: SupportMode) {
    let svc = service(mode);
    let n_batches = 12;
    let final_epoch = n_batches as u64;
    let readers: Vec<_> = (0..4)
        .map(|seed| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let cfg = SolverConfig::default();
                let mut last_epoch = 0u64;
                let mut reads = 0u64;
                // Sample points across the deleted range, the kept
                // range, and the inserted range.
                let probes = [0i64, 5, 11, 42, 97, 203, 214];
                loop {
                    let snap = svc.snapshot();
                    let epoch = snap.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "epoch moved backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    let p = probes[(reads as usize + seed) % probes.len()];
                    let in_b = snap
                        .ask("b", &[Value::int(p)], &NoDomains, &cfg)
                        .expect("b query");
                    // A sample of the answers against membership in the
                    // same snapshot's instance set, which is enumerated
                    // entry by entry and never goes through the read
                    // path's selector.
                    if reads % 16 == 0 {
                        let held = snap.instances(&NoDomains, &cfg).expect("instances");
                        assert_eq!(
                            in_b,
                            held.contains(&(Arc::from("b"), vec![Value::int(p)])),
                            "epoch {epoch}: ask b({p}) disagrees with the snapshot's instances"
                        );
                    }
                    // Internal consistency: the chain must agree with
                    // its base inside one snapshot, whatever the epoch.
                    for derived in ["a", "c"] {
                        let hit = snap
                            .ask(derived, &[Value::int(p)], &NoDomains, &cfg)
                            .expect("derived query");
                        assert_eq!(
                            in_b, hit,
                            "snapshot at epoch {epoch} is torn: b({p}) = {in_b} \
                             but {derived}({p}) = {hit}"
                        );
                    }
                    reads += 1;
                    if epoch >= final_epoch {
                        return reads;
                    }
                }
            })
        })
        .collect();

    let (tx, worker) = ServiceWorker::spawn(svc.clone());
    for batch in batches(n_batches) {
        tx.submit(batch).expect("submit");
    }
    drop(tx);
    assert_eq!(worker.join().expect("worker"), n_batches);

    for reader in readers {
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0);
    }

    // Final content: the walked points are gone, the rest intact, the
    // inserted intervals present — all the way up the chain.
    let snap = svc.snapshot();
    assert_eq!(snap.epoch(), final_epoch);
    let cfg = SolverConfig::default();
    for pred in ["a", "b", "c"] {
        assert!(!snap.ask(pred, &[Value::int(5)], &NoDomains, &cfg).unwrap());
        assert!(snap.ask(pred, &[Value::int(42)], &NoDomains, &cfg).unwrap());
        assert!(snap
            .ask(pred, &[Value::int(203)], &NoDomains, &cfg)
            .unwrap());
    }

    // Recovery: replaying the log reproduces the served view exactly.
    let replayed = svc
        .log()
        .replay(svc.db(), &NoDomains, Operator::Tp, mode, svc.config())
        .expect("replay");
    assert!(replayed.syntactically_equal(&snap.merged_view()));
}

#[test]
fn readers_race_writer_with_supports() {
    readers_race_writer(SupportMode::WithSupports);
}

#[test]
fn readers_race_writer_plain() {
    readers_race_writer(SupportMode::Plain);
}

#[test]
fn concurrent_direct_appliers_serialize() {
    // Multiple threads calling `apply` directly: batches serialize on
    // the writer lock, every epoch is distinct, and the log holds all
    // of them in epoch order.
    let svc = service(SupportMode::WithSupports);
    let applied_epochs = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let svc = svc.clone();
            let applied_epochs = applied_epochs.clone();
            std::thread::spawn(move || {
                for k in 0..3 {
                    let v = 10 * w + k; // distinct points per writer
                    svc.apply(UpdateBatch::deleting(vec![point(v)]))
                        .expect("apply");
                    applied_epochs.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    assert_eq!(applied_epochs.load(Ordering::Relaxed), 12);
    assert_eq!(svc.epoch(), 12);
    let log = svc.log();
    assert_eq!(log.len(), 12);
    let epochs: Vec<u64> = log.records().iter().map(|r| r.epoch).collect();
    assert_eq!(epochs, (1..=12).collect::<Vec<_>>());
    // All 12 distinct points are gone.
    let cfg = SolverConfig::default();
    for w in 0..4i64 {
        for k in 0..3i64 {
            assert!(!svc.ask("c", &[Value::int(10 * w + k)], &cfg).unwrap());
        }
    }
}

/// Two independent chains b0 → a0 and b1 → a1.
fn two_chain_db() -> ConstrainedDatabase {
    let mut clauses = Vec::new();
    for k in 0..2 {
        clauses.push(Clause::fact(
            &format!("b{k}"),
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(99),
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

#[test]
fn concurrent_inserters_replay_syntactically() {
    // 4 racing writers (2 per chain) × 6 two-insert batches. A writer
    // takes its tickets under the writer lock, so commit (= log) order
    // and ticket order agree, gaplessly, however the writers race; and
    // replay reproduces the served view syntactically, because each
    // record carries the tickets its batch was applied under.
    for round in 0..24 {
        let svc = ViewService::builder()
            .mode(SupportMode::WithSupports)
            .build(two_chain_db())
            .expect("base view builds");
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for w in 0..4i64 {
                let (svc, start) = (&svc, &start);
                s.spawn(move || {
                    let pred = format!("b{}", w % 2);
                    start.wait();
                    for k in 0..6 {
                        let lo = 1000 * (w + 1) + 10 * k;
                        svc.apply(UpdateBatch::inserting(vec![
                            interval_in(&pred, lo, lo + 2),
                            interval_in(&pred, lo + 5, lo + 7),
                        ]))
                        .expect("apply");
                    }
                });
            }
        });
        let log = svc.log();
        assert_eq!(log.len(), 24);
        let bases: Vec<u64> = log.records().iter().map(|r| r.ticket_base).collect();
        assert_eq!(bases, (0..24).map(|i| 2 * i).collect::<Vec<u64>>());
        let replayed = log
            .replay(
                svc.db(),
                &NoDomains,
                Operator::Tp,
                SupportMode::WithSupports,
                svc.config(),
            )
            .expect("replay");
        assert!(
            replayed.syntactically_equal(&svc.snapshot().merged_view()),
            "round {round}: replay diverged from the served view; ticket bases in log order: {bases:?}"
        );
    }
}
