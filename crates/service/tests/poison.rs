//! Panic-injection: a batch that panics mid-application poisons the
//! writer mutex, and the service must *recover* — keep serving reads,
//! keep accepting batches, and lose exactly the panicking batch. (An
//! earlier service bricked instead: one poisoned writer mutex made every
//! later `apply`/`log` call panic.)

use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Value, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::tp::{FixpointConfig, Operator};
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase, SupportMode};
use mmv_service::{Recovery, ServiceError, ViewService};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn x() -> Term {
    Term::var(Var(0))
}

/// Two independent chains: b0 → a0 and b1 → a1.
fn two_chain_db() -> ConstrainedDatabase {
    let mut clauses = Vec::new();
    for k in 0..2 {
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

fn point(pred: &str, v: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(pred, vec![x()], Constraint::eq(x(), Term::int(v)))
}

fn poisoned_lanes_recover(mode: SupportMode) {
    let svc = Arc::new(
        ViewService::builder()
            .mode(mode)
            .build(two_chain_db())
            .expect("service builds"),
    );
    let cfg = SolverConfig::default();

    // A healthy batch first, so the published state is epoch 1.
    svc.apply(UpdateBatch::deleting(vec![point("b0", 0)]))
        .expect("healthy batch");
    let before = svc.snapshot();
    assert_eq!(before.epoch(), 1);

    // Inject a panic into a batch on both chains: the hook fires once
    // the writer view is maintained, so the writer mutex ends up
    // poisoned over a view holding a batch that was never published.
    let calls = Arc::new(AtomicUsize::new(0));
    let hook_calls = calls.clone();
    svc.set_fault_hook(Some(Box::new(move || {
        hook_calls.fetch_add(1, Ordering::SeqCst);
        panic!("injected writer panic");
    })));
    let poisoned = UpdateBatch::deleting(vec![point("b0", 1), point("b1", 1)]);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| svc.apply(poisoned)));
    assert!(result.is_err(), "the injected panic must escape apply");
    svc.set_fault_hook(None);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "one hook call per batch");

    // Readers were never at risk: the published state is untouched.
    let snap = svc.snapshot();
    assert_eq!(snap.epoch(), 1, "a panicked batch publishes nothing");
    for pred in ["b0", "b1", "a0", "a1"] {
        assert!(
            snap.ask(pred, &[Value::int(1)], &NoDomains, &cfg).unwrap(),
            "{pred}(1) must survive the panicked deletion"
        );
    }

    // The writer accepts batches again: locking the poisoned writer
    // clears the poison and rebuilds the writer view from the last
    // published snapshot, dropping the unpublished batch.
    let a = svc
        .apply(UpdateBatch::deleting(vec![point("b0", 2)]))
        .expect("writer recovered");
    assert_eq!(a.epoch, 2);
    let b = svc
        .apply(UpdateBatch::deleting(vec![point("b1", 3)]))
        .expect("second batch after recovery");
    assert_eq!(b.epoch, 3);
    let both = svc
        .apply(UpdateBatch::deleting(vec![point("b0", 4), point("b1", 4)]))
        .expect("two-chain batch after recovery");
    assert_eq!(both.epoch, 4);

    // The recovery was logged once, rebuilt to the last published
    // epoch (the healthy batch's).
    {
        // `log()` borrows the live log (guard-scoped: drop it before
        // the next `apply`/`log` call).
        let log = svc.log();
        assert_eq!(log.recoveries(), &[Recovery { epoch: 1 }]);
    }

    // Exactly the panicked batch is lost: the served state equals a
    // service that applied only the successful batches...
    let clean = ViewService::builder()
        .mode(mode)
        .build(two_chain_db())
        .expect("clean service builds");
    for batch in [
        UpdateBatch::deleting(vec![point("b0", 0)]),
        UpdateBatch::deleting(vec![point("b0", 2)]),
        UpdateBatch::deleting(vec![point("b1", 3)]),
        UpdateBatch::deleting(vec![point("b0", 4), point("b1", 4)]),
    ] {
        clean.apply(batch).expect("clean apply");
    }
    let served = svc.snapshot().merged_view();
    assert!(served.syntactically_equal(&clean.snapshot().merged_view()));

    // ...and replaying the log (which never saw the panicked batch)
    // reproduces it too.
    let replayed = svc
        .log()
        .replay(svc.db(), &NoDomains, Operator::Tp, mode, svc.config())
        .expect("replay");
    assert!(replayed.syntactically_equal(&served));
}

#[test]
fn poisoned_lanes_recover_with_supports() {
    poisoned_lanes_recover(SupportMode::WithSupports);
}

#[test]
fn poisoned_lanes_recover_plain() {
    poisoned_lanes_recover(SupportMode::Plain);
}

#[test]
fn panicking_insert_batch_does_not_burn_tickets() {
    // A panicked batch must not consume external-insertion tickets:
    // otherwise every later insert's `External(t)` support diverges
    // from what replaying the log (which never saw the panicked batch)
    // would produce, silently breaking the recovery story.
    let svc = Arc::new(
        ViewService::builder()
            .build(two_chain_db())
            .expect("service builds"),
    );
    let interval = |pred: &str, lo: i64| {
        ConstrainedAtom::new(
            pred,
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(lo + 2),
            )),
        )
    };
    // Panic mid-application of a batch carrying two insertions.
    svc.set_fault_hook(Some(Box::new(|| panic!("injected insert-batch panic"))));
    let poisoned =
        UpdateBatch::inserting(vec![interval("b0", 20), interval("b1", 20)]).delete(point("b0", 1));
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| svc.apply(poisoned)));
    assert!(result.is_err());
    svc.set_fault_hook(None);

    // A later insert-carrying batch applies on the recovered writer and
    // must reuse the un-burned tickets: replaying the log reproduces
    // the served view *syntactically*, External tickets included.
    svc.apply(UpdateBatch::inserting(vec![interval("b0", 30)]).delete(point("b1", 2)))
        .expect("the recovered writer accepts inserts");
    svc.apply(UpdateBatch::inserting(vec![interval("b1", 40)]))
        .expect("second insert batch");
    let replayed = svc
        .log()
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
        "ticket burn broke replay:\nreplayed:\n{replayed}\nserved:\n{}",
        svc.snapshot().merged_view()
    );
}

#[test]
fn worker_killed_by_panicking_batch_reports_instead_of_repanicking() {
    // The worker thread dies with the panicking batch, but join()
    // reports WorkerGone rather than panicking the supervisor — and
    // the service itself recovers the writer on the next batch.
    let svc = Arc::new(
        ViewService::builder()
            .build(two_chain_db())
            .expect("service builds"),
    );
    svc.set_fault_hook(Some(Box::new(|| panic!("injected worker-batch panic"))));
    let (tx, worker) = mmv_service::ServiceWorker::spawn(svc.clone());
    tx.submit(UpdateBatch::deleting(vec![point("b0", 1)]))
        .expect("submit");
    drop(tx);
    let err = worker.join().unwrap_err();
    let ServiceError::WorkerGone(payload) = err else {
        panic!("expected WorkerGone, got {err}");
    };
    let payload = payload.expect("the panic payload message is carried through");
    assert!(
        payload.contains("injected worker-batch panic"),
        "the hook's panic message survives the join: {payload:?}"
    );
    svc.set_fault_hook(None);
    svc.apply(UpdateBatch::deleting(vec![point("b0", 1)]))
        .expect("the writer recovers after the worker's panic");
    assert_eq!(svc.log().recoveries().len(), 1);
}

#[test]
fn worker_surfaces_batch_errors_not_poison() {
    // A worker feeding a service whose batch fails (budget) gets a
    // clean error — unrelated to the poison path, but pins that the
    // error path still rolls back and rejects.
    let svc = Arc::new(
        ViewService::builder()
            .fixpoint(FixpointConfig {
                max_entries: 5,
                ..FixpointConfig::default()
            })
            .build(two_chain_db())
            .expect("4-entry base view fits"),
    );
    let big = UpdateBatch::inserting(vec![
        ConstrainedAtom::new(
            "b0",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(20)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(25),
            )),
        ),
        ConstrainedAtom::new(
            "b0",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(30)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(35),
            )),
        ),
    ]);
    let err = svc.apply(big).unwrap_err();
    assert!(matches!(err, ServiceError::Batch(_)));
    assert_eq!(svc.epoch(), 0);
    // The writer still works.
    svc.apply(UpdateBatch::deleting(vec![point("b0", 1)]))
        .expect("writer healthy after rejected batch");
}

#[test]
fn pool_worker_panic_does_not_poison_the_lane() {
    // A panic inside a *pool worker* (mid-round parallelism) must NOT
    // poison the writer mutex: the round's merge never runs, the error
    // propagates through the ordinary rollback-on-error path, and the
    // next batch applies without any writer recovery being logged. The
    // event is journaled in the health transition ring instead.
    let svc = Arc::new(
        ViewService::builder()
            .pool_threads(2)
            .build(two_chain_db())
            .expect("service builds"),
    );
    let pool = Arc::clone(svc.pool().expect("pool enabled"));
    let cfg = SolverConfig::default();

    svc.apply(UpdateBatch::deleting(vec![point("b0", 0)]))
        .expect("healthy batch");
    assert_eq!(svc.epoch(), 1);
    let transitions_before = svc.health_transitions_total();

    // Every pool task panics: the first round of the next batch's
    // propagation dies inside a worker thread.
    pool.set_fault_hook(Some(Box::new(|_| panic!("injected pool-worker panic"))));
    let interval = ConstrainedAtom::new(
        "b0",
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(20)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(23),
        )),
    );
    let err = svc
        .apply(UpdateBatch::inserting(vec![interval.clone()]))
        .expect_err("the worker panic surfaces as an error, not a re-panic");
    assert!(
        err.to_string().contains("pool worker panicked mid-round"),
        "unexpected error: {err}"
    );
    pool.set_fault_hook(None);

    // Nothing published, readers unharmed.
    assert_eq!(svc.epoch(), 1);
    assert!(!svc.ask("a0", &[Value::int(21)], &cfg).unwrap());

    // The containment was journaled as a health event (from == to,
    // state never left Healthy), and counted.
    assert!(svc.health_transitions_total() > transitions_before);
    let journal = svc.health_transitions();
    let event = journal
        .last()
        .expect("the writer event is in the transition ring");
    assert_eq!(event.from, event.to, "containment is not a state change");
    assert!(
        event.reason.contains("pool worker panic"),
        "journal entry names the cause: {:?}",
        event.reason
    );

    // The writer was never poisoned: the same batch applies cleanly
    // with no writer recovery logged, and the pool's workers survived.
    svc.apply(UpdateBatch::inserting(vec![interval]))
        .expect("writer healthy, workers alive");
    assert_eq!(svc.epoch(), 2);
    assert!(svc.ask("a0", &[Value::int(21)], &cfg).unwrap());
    assert!(
        svc.log().recoveries().is_empty(),
        "error-path rollback, not poison recovery"
    );
}
