//! Executable declarative semantics: the oracles of Theorems 1, 2 and 3.
//!
//! The paper specifies what each maintenance algorithm must compute by
//! *rewriting the database* and taking the least model:
//!
//! * deletion of `Del` ⇒ `P'` (clause rewrite (4)):
//!   `[algorithm output] = [T_{P'} ↑ ω (∅)]`,
//! * insertion of `A(X⃗) ← φ` ⇒ `P♭ = P ∪ Add ∪ weakened clauses`; at the
//!   instance level this equals the least model of `P ∪ {A(X⃗) ← φ}`
//!   (the Add-exclusions and clause weakenings only suppress *duplicate
//!   entries*, never instances).
//!
//! These functions recompute from scratch — they are the slow, obviously-
//! correct implementations that the property tests compare the
//! incremental algorithms against, and the "full recomputation" baseline
//! of the benchmarks.

use crate::atom::ConstrainedAtom;
use crate::batch::UpdateBatch;
use crate::program::{Clause, ConstrainedDatabase};
use crate::tp::{fixpoint, FixpointConfig, FixpointError, Operator};
use crate::view::{GroundFact, InstanceError, MaterializedView, SupportMode};
use mmv_constraints::{satisfiable_with, DomainResolver, Lit, Truth};
use std::collections::BTreeSet;
use std::fmt;

/// An oracle evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// Fixpoint iteration failed.
    Fixpoint(FixpointError),
    /// Instance materialization failed.
    Instances(InstanceError),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Fixpoint(e) => write!(f, "oracle fixpoint: {e}"),
            OracleError::Instances(e) => write!(f, "oracle instances: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<FixpointError> for OracleError {
    fn from(e: FixpointError) -> Self {
        OracleError::Fixpoint(e)
    }
}

impl From<InstanceError> for OracleError {
    fn from(e: InstanceError) -> Self {
        OracleError::Instances(e)
    }
}

/// Builds the `Del` set for a deletion request against a view: the
/// request intersected with each matching view atom (§3.1, "Declarative
/// Semantics of Constrained-Atom Deletion").
pub fn build_del(
    view: &mut MaterializedView,
    deletion: &ConstrainedAtom,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Vec<ConstrainedAtom> {
    let mut del = Vec::new();
    // Borrow entries directly while the var gen is out of the view (see
    // `tp::propagate`) — no entry atom clones.
    let mut gen = std::mem::take(view.var_gen_mut());
    for &id in view.entries_for_pred(&deletion.pred) {
        let atom = &view.entry(id).atom;
        if atom.args.len() != deletion.args.len() {
            continue;
        }
        let dpsi = deletion
            .constraint_at(&atom.args, &mut gen)
            .expect("arity checked");
        let region = atom.constraint.clone().and(dpsi);
        if satisfiable_with(&region, resolver, &config.solver) == Truth::Unsat {
            continue;
        }
        del.push(ConstrainedAtom {
            pred: atom.pred.clone(),
            args: atom.args.clone(),
            constraint: region,
        });
    }
    *view.var_gen_mut() = gen;
    del
}

/// The paper's clause rewrite (4): every clause whose head predicate is
/// being deleted from carries `not(Del-region)` tied to its head
/// arguments; all other clauses pass through unchanged. The least model
/// of the result is the *declarative semantics* of the deletion
/// (Theorems 1 and 2 compare the algorithms against it).
pub fn rewrite_for_deletion(
    db: &ConstrainedDatabase,
    del: &[ConstrainedAtom],
) -> ConstrainedDatabase {
    let mut gen = db.fresh_gen();
    let mut out = ConstrainedDatabase::new();
    for (cid, clause) in db.clauses() {
        let mut c = clause.clone();
        for d in del {
            if d.pred != clause.head_pred || d.args.len() != clause.head_args.len() {
                continue;
            }
            let dpsi = d
                .constraint_at(&c.head_args, &mut gen)
                .expect("arity checked");
            c = Clause::new(
                &c.head_pred,
                c.head_args.clone(),
                c.constraint.and_lit(Lit::Not(dpsi)),
                c.body.clone(),
            );
        }
        out.push_numbered(cid, c);
    }
    out
}

/// The declarative result of a deletion: `[T_{P'} ↑ ω (∅)]`, computed
/// from scratch. `view` is only used (and not modified logically) to
/// build `Del`; pass the *pre-deletion* view.
pub fn deletion_oracle(
    db: &ConstrainedDatabase,
    view: &MaterializedView,
    deletion: &ConstrainedAtom,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<BTreeSet<GroundFact>, OracleError> {
    let mut scratch = view.clone();
    let del = build_del(&mut scratch, deletion, resolver, config);
    let pprime = rewrite_for_deletion(db, &del);
    let (oracle_view, _) = fixpoint(&pprime, resolver, Operator::Tp, SupportMode::Plain, config)?;
    Ok(oracle_view.instances(resolver, &config.solver)?)
}

/// The declarative result of an [`UpdateBatch`]
/// (deletions-then-insertions): the instances of the least model of
/// `P' ∪ Ins`, where `P'` is the deletion rewrite (4) for the *union*
/// of the batch's `Del` sets and `Ins` holds one fact clause per
/// insertion request. This is the oracle [`crate::batch::apply_batch`]
/// is tested against: batched maintenance must land on the same
/// instance set as the rewritten database's least model.
pub fn batch_oracle(
    db: &ConstrainedDatabase,
    view: &MaterializedView,
    batch: &UpdateBatch,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<BTreeSet<GroundFact>, OracleError> {
    let mut scratch = view.clone();
    let mut del = Vec::new();
    for deletion in &batch.deletes {
        del.extend(build_del(&mut scratch, deletion, resolver, config));
    }
    let mut rewritten = rewrite_for_deletion(db, &del);
    for insertion in &batch.inserts {
        rewritten.push(Clause::fact(
            &insertion.pred,
            insertion.args.clone(),
            insertion.constraint.clone(),
        ));
    }
    let (oracle_view, _) = fixpoint(
        &rewritten,
        resolver,
        Operator::Tp,
        SupportMode::Plain,
        config,
    )?;
    Ok(oracle_view.instances(resolver, &config.solver)?)
}

/// The declarative result of an insertion: `[T_{P♭} ↑ ω (∅)]`, computed
/// from scratch as the least model of `P ∪ {insertion}`.
pub fn insertion_oracle(
    db: &ConstrainedDatabase,
    insertion: &ConstrainedAtom,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<BTreeSet<GroundFact>, OracleError> {
    let mut extended = db.clone();
    extended.push(Clause::fact(
        &insertion.pred,
        insertion.args.clone(),
        insertion.constraint.clone(),
    ));
    let (oracle_view, _) = fixpoint(
        &extended,
        resolver,
        Operator::Tp,
        SupportMode::Plain,
        config,
    )?;
    Ok(oracle_view.instances(resolver, &config.solver)?)
}

/// Full-recomputation baseline: the least model's instances, from
/// scratch (what a system without incremental maintenance pays on every
/// update).
pub fn recompute_instances(
    db: &ConstrainedDatabase,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<BTreeSet<GroundFact>, OracleError> {
    let (view, _) = fixpoint(db, resolver, Operator::Tp, SupportMode::Plain, config)?;
    Ok(view.instances(resolver, &config.solver)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delete_stdel::stdel_delete;
    use crate::program::BodyAtom;
    use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Var};

    fn x() -> Term {
        Term::var(Var(0))
    }

    fn bounded_db() -> ConstrainedDatabase {
        ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "B",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(9),
                )),
            ),
            Clause::new(
                "A",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("B", vec![x()])],
            ),
            Clause::fact(
                "A",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(7)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(12),
                )),
            ),
            Clause::new(
                "C",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("A", vec![x()])],
            ),
        ])
    }

    #[test]
    fn stdel_agrees_with_deletion_oracle() {
        let db = bounded_db();
        let (mut view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        let deletion = ConstrainedAtom::new(
            "B",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(4)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(8),
            )),
        );
        let cfg = FixpointConfig::default();
        let expected = deletion_oracle(&db, &view, &deletion, &NoDomains, &cfg).unwrap();
        stdel_delete(&mut view, &deletion, &NoDomains, &cfg.solver).unwrap();
        assert_eq!(view.instances(&NoDomains, &cfg.solver).unwrap(), expected);
    }

    #[test]
    fn dred_agrees_with_deletion_oracle() {
        let db = bounded_db();
        let (mut view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::Plain,
            &FixpointConfig::default(),
        )
        .unwrap();
        let deletion = ConstrainedAtom::new("B", vec![x()], Constraint::eq(x(), Term::int(8)));
        let cfg = FixpointConfig::default();
        let expected = deletion_oracle(&db, &view, &deletion, &NoDomains, &cfg).unwrap();
        crate::delete_dred::dred_delete(&db, &mut view, &deletion, &NoDomains, &cfg).unwrap();
        assert_eq!(view.instances(&NoDomains, &cfg.solver).unwrap(), expected);
    }

    #[test]
    fn insertion_agrees_with_oracle() {
        let db = bounded_db();
        let (mut view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        let insertion = ConstrainedAtom::new(
            "B",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(20)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(22),
            )),
        );
        let cfg = FixpointConfig::default();
        let expected = insertion_oracle(&db, &insertion, &NoDomains, &cfg).unwrap();
        crate::insert::insert_atom(&db, &mut view, &insertion, &NoDomains, Operator::Tp, &cfg)
            .unwrap();
        assert_eq!(view.instances(&NoDomains, &cfg.solver).unwrap(), expected);
    }

    #[test]
    fn delete_everything_leaves_empty_instances() {
        let db = bounded_db();
        let (mut view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        let cfg = FixpointConfig::default();
        for pred in ["C", "A", "B"] {
            let deletion = ConstrainedAtom::new(
                pred,
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(-100)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(100),
                )),
            );
            stdel_delete(&mut view, &deletion, &NoDomains, &cfg.solver).unwrap();
        }
        assert!(view.instances(&NoDomains, &cfg.solver).unwrap().is_empty());
    }
}
