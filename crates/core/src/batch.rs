//! Batched update transactions: one maintenance pass per *set* of
//! updates.
//!
//! The paper's algorithms are defined over sets of updates — `Del` and
//! `Add` are sets of constrained atoms — but the single-atom entry
//! points ([`crate::dred_delete`], [`crate::stdel_delete`],
//! [`crate::insert_atom`]) process one request per maintenance pass.
//! [`UpdateBatch`] packages a transaction's deletions and insertions,
//! and [`apply_batch`] applies it with the set-oriented entry points:
//! deletions first (one `P_OUT` unfolding seeded with every deleted
//! atom and a single rederivation fixpoint for Extended DRed; one
//! support walk for StDel), then insertions (one `P_ADD` propagation
//! seeded with every `Add` entry). Maintaining the combined batch shares
//! the per-pass work — frontier seeding, support-forest sorting,
//! rederivation deltas — that per-update maintenance repeats.
//!
//! The deletion algorithm is chosen by the view's [`SupportMode`]:
//! `Plain` views use Extended DRed (Algorithm 1), `WithSupports` views
//! use StDel (Algorithm 2). Within a batch, deletions apply before
//! insertions, so a batch that deletes and inserts overlapping regions
//! ends with the inserted instances present.

use crate::atom::ConstrainedAtom;
use crate::delete_dred::{dred_delete_batch, DredError, ExtDredStats};
use crate::delete_stdel::{stdel_delete_batch, StDelError, StDelStats};
use crate::insert::{insert_batch, insert_batch_ticketed, InsertBatchStats};
use crate::program::ConstrainedDatabase;
use crate::tp::{FixpointConfig, FixpointError, Operator};
use crate::view::{MaterializedView, SupportMode};
use mmv_constraints::DomainResolver;
use std::fmt;

/// One update transaction: a set of deletions and a set of insertions,
/// applied atomically by [`apply_batch`] (deletions first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Constrained atoms whose instances leave the view.
    pub deletes: Vec<ConstrainedAtom>,
    /// Constrained atoms whose instances enter the view.
    pub inserts: Vec<ConstrainedAtom>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// A pure-deletion batch.
    pub fn deleting(deletes: Vec<ConstrainedAtom>) -> Self {
        UpdateBatch {
            deletes,
            inserts: Vec::new(),
        }
    }

    /// A pure-insertion batch.
    pub fn inserting(inserts: Vec<ConstrainedAtom>) -> Self {
        UpdateBatch {
            deletes: Vec::new(),
            inserts,
        }
    }

    /// Adds a deletion request.
    pub fn delete(mut self, atom: ConstrainedAtom) -> Self {
        self.deletes.push(atom);
        self
    }

    /// Adds an insertion request.
    pub fn insert(mut self, atom: ConstrainedAtom) -> Self {
        self.inserts.push(atom);
        self
    }

    /// Total update requests in the batch.
    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len()
    }

    /// Whether the batch carries no requests.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty()
    }
}

impl fmt::Display for UpdateBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.deletes {
            writeln!(f, "- {d}")?;
        }
        for i in &self.inserts {
            writeln!(f, "+ {i}")?;
        }
        Ok(())
    }
}

/// Statistics of the deletion phase of a batch (per deletion algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteStats {
    /// No deletions were requested.
    None,
    /// Extended DRed statistics (`Plain` views).
    Dred(ExtDredStats),
    /// StDel statistics (`WithSupports` views).
    StDel(StDelStats),
}

/// Statistics of one applied batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Deletion-phase statistics.
    pub deletes: DeleteStats,
    /// Insertion-phase statistics.
    pub inserts: InsertBatchStats,
    /// Live view entries after the batch.
    pub view_entries: usize,
}

/// Failure to apply a batch. The view must be considered corrupt after
/// an error: a batch is not internally transactional. If rollback
/// matters, apply batches to a scratch view and publish only on success
/// (the `mmv-service` writer works this way: readers keep the last
/// published snapshot whenever a batch fails).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BatchError {
    /// The deletion phase failed (Extended DRed).
    Dred(DredError),
    /// The deletion phase failed (StDel).
    StDel(StDelError),
    /// The insertion phase failed.
    Insert(FixpointError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Dred(e) => write!(f, "batch deletion (DRed): {e}"),
            BatchError::StDel(e) => write!(f, "batch deletion (StDel): {e}"),
            BatchError::Insert(e) => write!(f, "batch insertion: {e}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Dred(e) => Some(e),
            BatchError::StDel(e) => Some(e),
            BatchError::Insert(e) => Some(e),
        }
    }
}

impl From<DredError> for BatchError {
    fn from(e: DredError) -> Self {
        BatchError::Dred(e)
    }
}

impl From<StDelError> for BatchError {
    fn from(e: StDelError) -> Self {
        BatchError::StDel(e)
    }
}

impl From<FixpointError> for BatchError {
    fn from(e: FixpointError) -> Self {
        BatchError::Insert(e)
    }
}

/// Applies one [`UpdateBatch`] to the view: batched deletion (algorithm
/// chosen by the view's support mode), then batched insertion. `op`
/// selects the admission semantics of the insertion propagation (match
/// how the view was built).
pub fn apply_batch(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    batch: &UpdateBatch,
    resolver: &dyn DomainResolver,
    op: Operator,
    config: &FixpointConfig,
) -> Result<BatchStats, BatchError> {
    let deletes = delete_phase(db, view, batch, resolver, config)?;
    let inserts = insert_batch(db, view, &batch.inserts, resolver, op, config)?;
    Ok(BatchStats {
        deletes,
        inserts,
        view_entries: view.len(),
    })
}

/// [`apply_batch`] with caller-chosen external-insertion tickets: the
/// insertion requests take `first_ticket`, `first_ticket + 1`, … (see
/// [`insert_batch_ticketed`]). The `mmv-service` writer keeps the ticket
/// counter beside the published view, so log replay reissues each
/// batch's recorded tickets.
pub fn apply_batch_ticketed(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    batch: &UpdateBatch,
    first_ticket: u64,
    resolver: &dyn DomainResolver,
    op: Operator,
    config: &FixpointConfig,
) -> Result<BatchStats, BatchError> {
    let deletes = delete_phase(db, view, batch, resolver, config)?;
    let inserts =
        insert_batch_ticketed(db, view, &batch.inserts, first_ticket, resolver, op, config)?;
    Ok(BatchStats {
        deletes,
        inserts,
        view_entries: view.len(),
    })
}

fn delete_phase(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    batch: &UpdateBatch,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<DeleteStats, BatchError> {
    if batch.deletes.is_empty() {
        return Ok(DeleteStats::None);
    }
    Ok(match view.mode() {
        SupportMode::Plain => DeleteStats::Dred(dred_delete_batch(
            db,
            view,
            &batch.deletes,
            resolver,
            config,
        )?),
        SupportMode::WithSupports => DeleteStats::StDel(stdel_delete_batch(
            view,
            &batch.deletes,
            resolver,
            &config.solver,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BodyAtom, Clause};
    use crate::tp::fixpoint;
    use mmv_constraints::{CmpOp, Constraint, NoDomains, SolverConfig, Term, Value, Var};

    fn x() -> Term {
        Term::var(Var(0))
    }

    fn interval_db() -> ConstrainedDatabase {
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

    fn point(pred: &str, v: i64) -> ConstrainedAtom {
        ConstrainedAtom::new(pred, vec![x()], Constraint::eq(x(), Term::int(v)))
    }

    fn build(db: &ConstrainedDatabase, mode: SupportMode) -> MaterializedView {
        fixpoint(
            db,
            &NoDomains,
            Operator::Tp,
            mode,
            &FixpointConfig::default(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn batch_applies_deletes_then_inserts_in_both_modes() {
        let db = interval_db();
        let cfg = FixpointConfig::default();
        let scfg = SolverConfig::default();
        let batch = UpdateBatch::new()
            .delete(point("b", 3))
            .delete(point("b", 5))
            .insert(point("b", 20));
        for mode in [SupportMode::Plain, SupportMode::WithSupports] {
            let mut view = build(&db, mode);
            let stats = apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, &cfg)
                .expect("batch applies");
            match (mode, &stats.deletes) {
                (SupportMode::Plain, DeleteStats::Dred(d)) => assert_eq!(d.del_atoms, 2),
                // Both points lie in b's one entry: it is replaced once.
                (SupportMode::WithSupports, DeleteStats::StDel(s)) => {
                    assert_eq!(s.direct_replacements, 1)
                }
                other => panic!("wrong deletion algorithm for {other:?}"),
            }
            assert_eq!(stats.inserts.added, 1);
            // Deleted points are gone from both b and the derived a.
            for pred in ["a", "b"] {
                for v in [3, 5] {
                    assert!(
                        view.query(pred, &[Some(Value::int(v))], &NoDomains, &scfg)
                            .unwrap()
                            .is_empty(),
                        "{pred}({v}) should be deleted in {mode:?}"
                    );
                }
                // The inserted point propagated up to a.
                assert_eq!(
                    view.query(pred, &[Some(Value::int(20))], &NoDomains, &scfg)
                        .unwrap()
                        .len(),
                    1,
                    "{pred}(20) should be present in {mode:?}"
                );
            }
            assert_eq!(stats.view_entries, view.len());
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let db = interval_db();
        let mut view = build(&db, SupportMode::Plain);
        let before = view.len();
        let stats = apply_batch(
            &db,
            &mut view,
            &UpdateBatch::new(),
            &NoDomains,
            Operator::Tp,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.deletes, DeleteStats::None);
        assert_eq!(stats.inserts.added, 0);
        assert_eq!(view.len(), before);
    }

    #[test]
    fn builder_and_display() {
        let batch = UpdateBatch::deleting(vec![point("b", 1)]).insert(point("b", 2));
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        let s = batch.to_string();
        assert!(s.contains("- b(X0)"));
        assert!(s.contains("+ b(X0)"));
        assert!(UpdateBatch::inserting(vec![]).is_empty());
    }
}
