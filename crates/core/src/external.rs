//! Maintenance under *external* change — Section 4 of the paper.
//!
//! When an integrated domain changes (a PARADOX table is updated, the
//! surveillance photo set grows), the behaviour of the functions behind
//! `in(·,·)` changes from `f_t` to `f_{t+1}`. The paper contrasts two
//! regimes:
//!
//! * **`T_P` materialization**: derived atoms were admitted based on
//!   solvability *at build time*, so the view is stale after the change
//!   and must be recomputed ([`MaintenanceStrategy::TpRecompute`]).
//! * **`W_P` materialization**: no solvability filtering ever happened,
//!   so the view is a time-independent syntactic object; *no maintenance
//!   action whatsoever* is required (Theorem 4), and querying it at time
//!   `t` yields exactly the instances of the `T_P` view built at `t`
//!   (Corollary 1). This is [`MaintenanceStrategy::WpDeferred`].
//!
//! [`MediatedMaterializedView`] packages a constrained database, a
//! strategy and the current view, exposing the maintenance hook that the
//! `paper` binary's `external` and `mediator` sections measure.

use crate::atom::ConstrainedAtom;
use crate::delete_stdel::{stdel_delete, StDelError, StDelStats};
use crate::insert::{insert_atom, InsertStats};
use crate::program::ConstrainedDatabase;
use crate::tp::{fixpoint, FixpointConfig, FixpointError, Operator};
use crate::view::{InstanceError, MaterializedView, SupportMode};
use mmv_constraints::{DomainResolver, SolverConfig, Value};
use std::collections::BTreeSet;

/// How the view reacts to external domain changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// Materialize with `T_P`; recompute the fixpoint whenever a domain
    /// changes.
    TpRecompute,
    /// Materialize with `W_P`; never touch the view, evaluate constraints
    /// at query time.
    WpDeferred,
}

impl MaintenanceStrategy {
    /// The fixpoint operator this strategy materializes with.
    pub fn operator(self) -> Operator {
        match self {
            MaintenanceStrategy::TpRecompute => Operator::Tp,
            MaintenanceStrategy::WpDeferred => Operator::Wp,
        }
    }
}

/// What [`MediatedMaterializedView::on_external_change`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceAction {
    /// The view was rebuilt from scratch (`T_P` strategy).
    Recomputed,
    /// Nothing needed to happen (`W_P` strategy, or the clock did not
    /// move).
    NoActionNeeded,
}

/// A materialized mediated view bundled with its database and strategy.
pub struct MediatedMaterializedView {
    db: ConstrainedDatabase,
    strategy: MaintenanceStrategy,
    config: FixpointConfig,
    view: MaterializedView,
    /// The external clock value the view was last (re)built at.
    built_at: u64,
}

impl MediatedMaterializedView {
    /// Materializes the view of `db` under `strategy`. `clock` is the
    /// current external logical time (e.g.
    /// `mmv_domains::DomainManager::clock`).
    pub fn materialize(
        db: ConstrainedDatabase,
        strategy: MaintenanceStrategy,
        resolver: &dyn DomainResolver,
        clock: u64,
        config: FixpointConfig,
    ) -> Result<Self, FixpointError> {
        let (view, _) = fixpoint(
            &db,
            resolver,
            strategy.operator(),
            SupportMode::WithSupports,
            &config,
        )?;
        Ok(MediatedMaterializedView {
            db,
            strategy,
            config,
            view,
            built_at: clock,
        })
    }

    /// The underlying view.
    pub fn view(&self) -> &MaterializedView {
        &self.view
    }

    /// The database defining the view.
    pub fn database(&self) -> &ConstrainedDatabase {
        &self.db
    }

    /// The strategy in force.
    pub fn strategy(&self) -> MaintenanceStrategy {
        self.strategy
    }

    /// The maintenance hook: call after external domains may have
    /// changed. Under `W_P` this never does anything — the paper's
    /// headline result.
    pub fn on_external_change(
        &mut self,
        resolver: &dyn DomainResolver,
        clock: u64,
    ) -> Result<MaintenanceAction, FixpointError> {
        if clock == self.built_at {
            return Ok(MaintenanceAction::NoActionNeeded);
        }
        match self.strategy {
            MaintenanceStrategy::WpDeferred => {
                // Theorem 4: the view is syntactically time-invariant.
                self.built_at = clock;
                Ok(MaintenanceAction::NoActionNeeded)
            }
            MaintenanceStrategy::TpRecompute => {
                let (view, _) = fixpoint(
                    &self.db,
                    resolver,
                    Operator::Tp,
                    SupportMode::WithSupports,
                    &self.config,
                )?;
                self.view = view;
                self.built_at = clock;
                Ok(MaintenanceAction::Recomputed)
            }
        }
    }

    /// Queries `pred(pattern)` against the view, evaluating constraints
    /// at the resolver's *current* state (the `W_P` query-time
    /// semantics; for `T_P` views this matches build-time state as long
    /// as maintenance was run).
    pub fn query(
        &self,
        pred: &str,
        pattern: &[Option<Value>],
        resolver: &dyn DomainResolver,
        solver: &SolverConfig,
    ) -> Result<BTreeSet<Vec<Value>>, InstanceError> {
        self.view.query(pred, pattern, resolver, solver)
    }

    /// View-update deletion (Algorithm 2, StDel).
    pub fn delete(
        &mut self,
        deletion: &ConstrainedAtom,
        resolver: &dyn DomainResolver,
    ) -> Result<StDelStats, StDelError> {
        stdel_delete(&mut self.view, deletion, resolver, &self.config.solver)
    }

    /// View-update insertion (Algorithm 3).
    pub fn insert(
        &mut self,
        insertion: &ConstrainedAtom,
        resolver: &dyn DomainResolver,
    ) -> Result<InsertStats, FixpointError> {
        insert_atom(
            &self.db,
            &mut self.view,
            insertion,
            resolver,
            self.strategy.operator(),
            &self.config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Clause;
    use mmv_constraints::{Call, Constraint, Term, Var};
    use mmv_domains::{DomainManager, FacePackage};
    use std::sync::Arc;

    /// Example 8's single-rule database:
    ///   A(X) <- in(X, faces:findface(Y)) || B(X, Y)-ish — modelled here
    /// with the face package: match(F) <- in(F, facextract:segmentface("sv")).
    fn face_db() -> ConstrainedDatabase {
        let f = Term::var(Var(0));
        ConstrainedDatabase::from_clauses(vec![Clause::fact(
            "extracted",
            vec![f.clone()],
            Constraint::member(
                f,
                Call::new("facextract", "segmentface", vec![Term::str("sv")]),
            ),
        )])
    }

    fn manager(pkg: &FacePackage) -> DomainManager {
        let mut m = DomainManager::new();
        m.register(Arc::new(pkg.extract_domain()));
        m.register(Arc::new(pkg.db_domain()));
        m
    }

    #[test]
    fn theorem_4_wp_view_is_syntactically_invariant() {
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "img1", &[1]);
        let m = manager(&pkg);
        let mut mv = MediatedMaterializedView::materialize(
            face_db(),
            MaintenanceStrategy::WpDeferred,
            &m,
            m.clock(),
            FixpointConfig::default(),
        )
        .unwrap();
        let before = mv.view().compact();
        // External change: the photo set grows.
        pkg.add_photo("sv", "img2", &[2]);
        let action = mv.on_external_change(&m, m.clock()).unwrap();
        assert_eq!(action, MaintenanceAction::NoActionNeeded);
        assert!(mv.view().syntactically_equal(&before));
        // Rebuilding from scratch under W_P also yields the same syntax.
        let rebuilt = MediatedMaterializedView::materialize(
            face_db(),
            MaintenanceStrategy::WpDeferred,
            &m,
            m.clock(),
            FixpointConfig::default(),
        )
        .unwrap();
        assert!(rebuilt.view().syntactically_equal(&before));
    }

    #[test]
    fn corollary_1_wp_instances_track_tp_at_every_time() {
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "img1", &[1]);
        let m = manager(&pkg);
        let cfg = FixpointConfig::default();
        let wp = MediatedMaterializedView::materialize(
            face_db(),
            MaintenanceStrategy::WpDeferred,
            &m,
            m.clock(),
            cfg.clone(),
        )
        .unwrap();

        for step in 0..4u64 {
            if step > 0 {
                pkg.add_photo("sv", &format!("img{}", step + 1), &[step]);
            }
            // T_P view built right now.
            let tp = MediatedMaterializedView::materialize(
                face_db(),
                MaintenanceStrategy::TpRecompute,
                &m,
                m.clock(),
                cfg.clone(),
            )
            .unwrap();
            let wp_inst = wp.view().instances(&m, &cfg.solver).unwrap();
            let tp_inst = tp.view().instances(&m, &cfg.solver).unwrap();
            assert_eq!(wp_inst, tp_inst, "instances diverged at step {step}");
        }
    }

    #[test]
    fn tp_strategy_recomputes_wp_does_not() {
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "img1", &[1]);
        let m = manager(&pkg);
        let mut tp = MediatedMaterializedView::materialize(
            face_db(),
            MaintenanceStrategy::TpRecompute,
            &m,
            m.clock(),
            FixpointConfig::default(),
        )
        .unwrap();
        let mut wp = MediatedMaterializedView::materialize(
            face_db(),
            MaintenanceStrategy::WpDeferred,
            &m,
            m.clock(),
            FixpointConfig::default(),
        )
        .unwrap();
        pkg.add_photo("sv", "img2", &[9]);
        assert_eq!(
            tp.on_external_change(&m, m.clock()).unwrap(),
            MaintenanceAction::Recomputed
        );
        assert_eq!(
            wp.on_external_change(&m, m.clock()).unwrap(),
            MaintenanceAction::NoActionNeeded
        );
        // Both answer the new query correctly.
        let scfg = SolverConfig::default();
        let tp_ans = tp.query("extracted", &[None], &m, &scfg).unwrap();
        let wp_ans = wp.query("extracted", &[None], &m, &scfg).unwrap();
        assert_eq!(tp_ans, wp_ans);
        assert_eq!(tp_ans.len(), 2);
    }

    #[test]
    fn unchanged_clock_is_noop_for_both() {
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "img1", &[1]);
        let m = manager(&pkg);
        let mut tp = MediatedMaterializedView::materialize(
            face_db(),
            MaintenanceStrategy::TpRecompute,
            &m,
            m.clock(),
            FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(
            tp.on_external_change(&m, m.clock()).unwrap(),
            MaintenanceAction::NoActionNeeded
        );
    }

    #[test]
    fn example_7_removal_under_wp() {
        // Example 7: g(b) goes from {a} to {}: the W_P view keeps the
        // syntactic atom; its instances become empty at query time.
        let pkg = FacePackage::new();
        pkg.add_photo("sv", "only", &[7]);
        let m = manager(&pkg);
        let cfg = FixpointConfig::default();
        let wp = MediatedMaterializedView::materialize(
            face_db(),
            MaintenanceStrategy::WpDeferred,
            &m,
            m.clock(),
            cfg.clone(),
        )
        .unwrap();
        assert_eq!(wp.view().instances(&m, &cfg.solver).unwrap().len(), 1);
        pkg.remove_photo("sv", "only");
        // No maintenance, yet the instances are now empty.
        assert!(wp.view().instances(&m, &cfg.solver).unwrap().is_empty());
        assert_eq!(wp.view().len(), 1, "syntactic entry remains (Theorem 4)");
    }
}
