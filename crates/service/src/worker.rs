//! The dedicated writer thread: submission-ordered batch application.
//!
//! A [`ServiceWorker`] serializes batches from any number of
//! [`BatchSender`] clones into one application order. It is one
//! convenient writer: callers may also call [`ViewService::apply`] from
//! their own threads, and the service's writer lock orders them.

use crate::service::{ServiceError, ViewService};
use mmv_core::batch::UpdateBatch;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// A dedicated writer thread: callers submit batches through a channel
/// and continue immediately; the worker applies them in submission
/// order against the shared service.
///
/// Dropping the last [`BatchSender`] shuts the worker down;
/// [`ServiceWorker::join`] then returns how many batches were applied,
/// or the first error (the worker stops at the first failed batch —
/// submission order is the transaction order, so skipping a failed
/// transaction silently would reorder history).
pub struct ServiceWorker {
    handle: JoinHandle<Result<usize, ServiceError>>,
}

/// The submission side of a [`ServiceWorker`]. Cloneable; all clones
/// feed the same worker.
#[derive(Clone)]
pub struct BatchSender {
    tx: mpsc::Sender<UpdateBatch>,
    /// The service's `mmv_worker_queue_depth` gauge: up on submit,
    /// down when the worker picks the batch up.
    depth: mmv_obs::Gauge,
}

impl BatchSender {
    /// Enqueues a batch for the worker. Fails only if the worker has
    /// already shut down.
    pub fn submit(&self, batch: UpdateBatch) -> Result<(), ServiceError> {
        self.depth.inc();
        self.tx.send(batch).map_err(|_| {
            self.depth.dec();
            ServiceError::WorkerGone(None)
        })
    }
}

impl ServiceWorker {
    /// Spawns the writer thread for `service`.
    pub fn spawn(service: Arc<ViewService>) -> (BatchSender, ServiceWorker) {
        let (tx, rx) = mpsc::channel::<UpdateBatch>();
        let depth = service.obs.queue_depth.clone();
        let worker_depth = depth.clone();
        let handle = std::thread::spawn(move || {
            let mut applied = 0usize;
            for batch in rx {
                worker_depth.dec();
                service.apply(batch)?;
                applied += 1;
            }
            Ok(applied)
        });
        (BatchSender { tx, depth }, ServiceWorker { handle })
    }

    /// Waits for the worker to drain and shut down (drop every
    /// [`BatchSender`] first, or this blocks forever). Returns the
    /// number of batches applied. A worker killed by a panicking batch
    /// reports [`ServiceError::WorkerGone`] — carrying the panic
    /// message when the payload was a string, as `panic!` payloads
    /// almost always are — rather than re-panicking the supervisor;
    /// the service itself recovers the poisoned writer on the next
    /// batch (see [`crate::service`]).
    pub fn join(self) -> Result<usize, ServiceError> {
        self.handle.join().unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
            Err(ServiceError::WorkerGone(msg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::solver::SolverConfig;
    use mmv_constraints::{CmpOp, Constraint, Term, Value, Var};
    use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase};

    fn x() -> Term {
        Term::var(Var(0))
    }

    #[test]
    fn worker_applies_in_submission_order() {
        let db = ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "b",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(9),
                )),
            ),
            Clause::new(
                "a",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("b", vec![x()])],
            ),
        ]);
        let svc = Arc::new(ViewService::builder().build(db).unwrap());
        let point =
            |v: i64| ConstrainedAtom::new("b", vec![x()], Constraint::eq(x(), Term::int(v)));
        let (tx, worker) = ServiceWorker::spawn(svc.clone());
        for v in [2, 4, 6] {
            tx.submit(mmv_core::UpdateBatch::deleting(vec![point(v)]))
                .unwrap();
        }
        drop(tx);
        assert_eq!(worker.join().unwrap(), 3);
        assert_eq!(svc.epoch(), 3);
        let cfg = SolverConfig::default();
        for v in [2, 4, 6] {
            assert!(!svc.ask("b", &[Value::int(v)], &cfg).unwrap());
        }
        assert!(svc.ask("b", &[Value::int(5)], &cfg).unwrap());
        let log = svc.log();
        assert_eq!(log.len(), 3);
        let epochs: Vec<_> = log.records().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
    }
}
