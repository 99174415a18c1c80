//! The append-only update log: every applied batch, in epoch order.
//!
//! The log is the service's recovery and audit story: replaying it onto
//! a freshly built view reproduces the writer's final state, because
//! batch application is deterministic (same database, same batches,
//! same order, same tickets ⇒ syntactically equal view). The service
//! tests pin exactly that property, and the batch-vs-sequential
//! equivalence suite leans on it to compare maintenance strategies.
//! Replay and recovery reissue each batch's recorded tickets and epoch,
//! so both are syntactically identical to the served view.
//!
//! A [`LogRecord`] is exactly the content of a WAL batch frame
//! ([`mmv_core::parser::WalPayload::Batch`]): one format for the
//! in-memory and the durable log. What a batch cost lives elsewhere —
//! in [`Applied`][crate::Applied], the trace ring and the metrics
//! registry.
//!
//! Besides applied batches, the log records writer *recoveries*
//! ([`Recovery`]): the writer view was poisoned by a panicking batch and
//! was rebuilt from the last published snapshot.
//!
//! A record is appended once its batch is durable and just before the
//! batch publishes, so the log never holds a batch readers could not
//! see.

use crate::snapshot::Epoch;
use mmv_constraints::DomainResolver;
use mmv_core::batch::{apply_batch_ticketed, BatchError, UpdateBatch};
use mmv_core::tp::{fixpoint, FixpointConfig, Operator};
use mmv_core::{ConstrainedDatabase, FixpointError, MaterializedView, SupportMode};

/// One applied batch: what was applied, when (epoch), and under which
/// external-insertion tickets.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// The epoch the batch produced (the snapshot published after it).
    pub epoch: Epoch,
    /// The first of the batch's external-insertion tickets: insertion
    /// `i` was applied under ticket `ticket_base + i`.
    pub ticket_base: u64,
    /// The batch itself.
    pub batch: UpdateBatch,
}

/// One writer recovery: the writer mutex was found poisoned (a previous
/// batch panicked mid-application), the poison was cleared, and the
/// writer view was rebuilt from the last published snapshot — so only
/// the panicking batch was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The epoch the writer view was rebuilt to (the last published).
    pub epoch: Epoch,
}

/// Replay failure: rebuilding the base view or re-applying a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The base fixpoint could not be rebuilt.
    Fixpoint(FixpointError),
    /// A logged batch failed to re-apply at the given epoch.
    Batch(Epoch, BatchError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Fixpoint(e) => write!(f, "replay base fixpoint: {e}"),
            ReplayError::Batch(epoch, e) => write!(f, "replay batch at epoch {epoch}: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Fixpoint(e) => Some(e),
            ReplayError::Batch(_, e) => Some(e),
        }
    }
}

/// An append-only, in-memory log of applied batches and writer
/// recoveries.
#[derive(Debug, Clone, Default)]
pub struct UpdateLog {
    records: Vec<LogRecord>,
    recoveries: Vec<Recovery>,
}

impl UpdateLog {
    /// An empty log.
    pub fn new() -> Self {
        UpdateLog::default()
    }

    /// Appends a record. Records must arrive in ascending epoch order
    /// (the one writer allocates the epoch and appends under its lock,
    /// so this is structural, not racy).
    pub fn append(&mut self, record: LogRecord) {
        debug_assert!(
            self.records.last().is_none_or(|r| r.epoch < record.epoch),
            "log epochs must ascend"
        );
        self.records.push(record);
    }

    /// Records a writer recovery.
    pub fn record_recovery(&mut self, recovery: Recovery) {
        self.recoveries.push(recovery);
    }

    /// Writer recoveries, in occurrence order.
    pub fn recoveries(&self) -> &[Recovery] {
        &self.recoveries
    }

    /// Number of applied batches.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no batch has been applied yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in epoch order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Total updates (deletes + inserts) across all logged batches.
    pub fn total_updates(&self) -> usize {
        self.records.iter().map(|r| r.batch.len()).sum()
    }

    /// Replays the log onto a freshly built view: builds `op ↑ ω (∅)`
    /// of `db` in `mode`, then re-applies every logged batch in order
    /// under its recorded tickets. The result is syntactically equal
    /// to the writer's view at the last logged epoch — the recovery
    /// path after losing the materialized state.
    pub fn replay(
        &self,
        db: &ConstrainedDatabase,
        resolver: &dyn DomainResolver,
        op: Operator,
        mode: SupportMode,
        config: &FixpointConfig,
    ) -> Result<MaterializedView, ReplayError> {
        let (mut view, _) =
            fixpoint(db, resolver, op, mode, config).map_err(ReplayError::Fixpoint)?;
        for record in &self.records {
            let (batch, first) = (&record.batch, record.ticket_base);
            apply_batch_ticketed(db, &mut view, batch, first, resolver, op, config)
                .map_err(|e| ReplayError::Batch(record.epoch, e))?;
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Var};
    use mmv_core::batch::apply_batch;
    use mmv_core::{BodyAtom, Clause, ConstrainedAtom};

    fn x() -> Term {
        Term::var(Var(0))
    }

    fn db() -> ConstrainedDatabase {
        ConstrainedDatabase::from_clauses(vec![
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
        ])
    }

    fn point(v: i64) -> ConstrainedAtom {
        ConstrainedAtom::new("b", vec![x()], Constraint::eq(x(), Term::int(v)))
    }

    #[test]
    fn replay_reproduces_the_applied_sequence() {
        let db = db();
        let cfg = FixpointConfig::default();
        let (mut view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .unwrap();
        let mut log = UpdateLog::new();
        let mut tickets = 0u64;
        for (epoch, batch) in [
            UpdateBatch::deleting(vec![point(3)]),
            UpdateBatch::deleting(vec![point(5)]).insert(point(12)),
        ]
        .into_iter()
        .enumerate()
        {
            // `apply_batch` draws the view's own tickets: 0, 1, … in
            // request order — the record's base is the next one.
            let ticket_base = tickets;
            tickets += batch.inserts.len() as u64;
            apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, &cfg).unwrap();
            log.append(LogRecord {
                epoch: epoch as Epoch + 1,
                ticket_base,
                batch,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_updates(), 3);
        let replayed = log
            .replay(
                &db,
                &NoDomains,
                Operator::Tp,
                SupportMode::WithSupports,
                &cfg,
            )
            .unwrap();
        assert!(replayed.syntactically_equal(&view));
    }
}
