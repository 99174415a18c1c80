//! The Extended DRed algorithm — Algorithm 1 of the paper (§3.1.1),
//! generalizing the ground DRed algorithm of Gupta, Mumick &
//! Subrahmanian \[22\] to constrained databases.
//!
//! Given a deletion request `A(X⃗) ← φ` against a duplicate-free
//! ([`SupportMode::Plain`]) view `M` of database `P`:
//!
//! 1. **Del**: intersect the request with the matching view atoms — only
//!    instances actually in the view are deleted.
//! 2. **Unfold `P_OUT`**: the overestimate of possibly-deleted atoms,
//!    propagating the deletion through clauses (exactly one body child
//!    from the previous layer, the rest from `M`).
//! 3. **Over-delete to `M'`**: weaken every overlapping view atom with
//!    `not(pout-region)`, so `[M'] = [M] \ [P_OUT]`.
//! 4. **Rederive**: close `M'` under the *rewritten* database `P'`
//!    (clauses for the deleted predicate carry `not(Del)`), restricted to
//!    derivations that can restore instances inside a `P_OUT` region —
//!    the paper's step 3 with the `P''` pruning realized as a
//!    region-overlap test (see DESIGN.md). This rederivation is the
//!    expensive step StDel eliminates.

use crate::atom::ConstrainedAtom;
use crate::program::{Clause, ConstrainedDatabase};
use crate::tp::{
    collect_combos, derive, derive_combo, Candidate, DeltaSource, Derivation, Engine, EngineStats,
    FixpointConfig, FixpointError, FixpointStats, Gate, Split, ATOM_SLOT,
};
use crate::view::{canonicalize, EntryId, MaterializedView, SupportMode};
use mmv_constraints::fxhash::{FxHashMap, FxHashSet};
use mmv_constraints::{
    satisfiable_with, Constraint, DomainResolver, Lit, SolverConfig, Truth, VarGen,
};
use std::fmt;
use std::sync::Arc;

/// Statistics of one Extended DRed run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExtDredStats {
    /// Atoms in the `Del` set.
    pub del_atoms: usize,
    /// Atoms in the unfolded overestimate `P_OUT`.
    pub pout_atoms: usize,
    /// View entries weakened in the over-deletion step.
    pub weakened: usize,
    /// Entries added back by rederivation.
    pub rederived: usize,
    /// Entries removed because their constraint became unsolvable.
    pub removed: usize,
    /// Satisfiability tests performed.
    pub solver_calls: usize,
    /// Constant-argument index probes during unfolding/rederivation.
    pub index_probes: usize,
    /// Candidate entries scanned during unfolding/rederivation joins.
    pub candidates_scanned: usize,
}

impl ExtDredStats {
    /// Accumulates another run's counters (used when a batch is split
    /// across independent shards and each part reports separately).
    pub fn absorb(&mut self, o: &ExtDredStats) {
        self.del_atoms += o.del_atoms;
        self.pout_atoms += o.pout_atoms;
        self.weakened += o.weakened;
        self.rederived += o.rederived;
        self.removed += o.removed;
        self.solver_calls += o.solver_calls;
        self.index_probes += o.index_probes;
        self.candidates_scanned += o.candidates_scanned;
    }
}

/// Extended DRed failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DredError {
    /// The view must be duplicate-free (`SupportMode::Plain`).
    NeedsPlainView,
    /// A fixpoint budget was exhausted during unfolding or rederivation.
    Budget(FixpointError),
}

impl fmt::Display for DredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DredError::NeedsPlainView => {
                write!(f, "Extended DRed requires a SupportMode::Plain view")
            }
            DredError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DredError {}

/// Deletes `[deletion]`'s instances from a plain view (Algorithm 1).
pub fn dred_delete(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    deletion: &ConstrainedAtom,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<ExtDredStats, DredError> {
    dred_delete_batch(db, view, std::slice::from_ref(deletion), resolver, config)
}

/// Deletes the instances of a whole *set* of deletion requests from a
/// plain view in one maintenance pass.
///
/// The batched run is Algorithm 1 applied to the union of the requests:
/// `Del` collects every request's intersection with the view (requests
/// are intersected in order, against the same pre-update view), the
/// `P_OUT` overestimate is unfolded once from the combined frontier, the
/// over-deletion weakens each entry with every overlapping region, and —
/// the payoff — a *single* rederivation fixpoint closes the view under
/// `P'` rewritten with the whole `Del` set. Sequential single-atom
/// deletion pays the rederivation seed (a full live-entry delta) once
/// per request; the batch pays it once total.
pub fn dred_delete_batch(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    deletions: &[ConstrainedAtom],
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<ExtDredStats, DredError> {
    if view.mode() != SupportMode::Plain {
        return Err(DredError::NeedsPlainView);
    }
    // The var gen leaves the view for the duration of the run (see
    // `tp::propagate`): join children stay borrowed from the view while
    // `derive` standardizes apart.
    let mut gen = std::mem::take(view.var_gen_mut());
    let result = dred_delete_inner(db, view, &mut gen, deletions, resolver, config);
    *view.var_gen_mut() = gen;
    result
}

fn dred_delete_inner(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    gen: &mut VarGen,
    deletions: &[ConstrainedAtom],
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
) -> Result<ExtDredStats, DredError> {
    let mut stats = ExtDredStats::default();
    let mut jstats = FixpointStats::default();

    // ---- Del: every deletion intersected with the view ------------------
    let mut del: Vec<ConstrainedAtom> = Vec::new();
    for deletion in deletions {
        for &id in view.entries_for_pred(&deletion.pred) {
            let atom = &view.entry(id).atom;
            if atom.args.len() != deletion.args.len() {
                continue;
            }
            let dpsi = deletion
                .constraint_at(&atom.args, gen)
                .expect("arity checked");
            let region = atom.constraint.clone().and(dpsi);
            stats.solver_calls += 1;
            if satisfiable_with(&region, resolver, &config.solver) == Truth::Unsat {
                continue;
            }
            // Keep Del regions compact: they are conjoined into P' and
            // into every over-deleted entry, so redundancy here
            // multiplies across the whole run (acute for batches,
            // whose Del sets are larger).
            let region = match mmv_constraints::simplify(&region) {
                mmv_constraints::Simplified::Constraint(c) => c,
                mmv_constraints::Simplified::Unsat => continue,
            };
            del.push(ConstrainedAtom {
                pred: atom.pred.clone(),
                args: atom.args.clone(),
                constraint: region,
            });
        }
    }
    stats.del_atoms = del.len();
    if del.is_empty() {
        return Ok(stats);
    }

    // ---- Step 1: unfold P_OUT --------------------------------------------
    let mut pout: Vec<ConstrainedAtom> = Vec::new();
    let mut seen: FxHashSet<ConstrainedAtom> = FxHashSet::default();
    for d in &del {
        seen.insert(canonicalize(d));
        pout.push(d.clone());
    }
    let mut delta: Vec<ConstrainedAtom> = del.clone();
    let mut combos: Vec<EntryId> = Vec::new();
    let mut rounds = 0usize;
    while !delta.is_empty() {
        rounds += 1;
        if rounds > config.max_iterations {
            return Err(DredError::Budget(FixpointError::IterationBudget {
                iterations: rounds,
            }));
        }
        let mut next: Vec<ConstrainedAtom> = Vec::new();
        for (_, clause) in db.clauses() {
            let n = clause.body.len();
            if n == 0 {
                continue;
            }
            // Exactly one body position from the delta, the rest from M
            // (probed through the view's constant-argument index).
            for dpos in 0..n {
                for dm in delta.iter().filter(|a| a.pred == clause.body[dpos].pred) {
                    combos.clear();
                    collect_combos(
                        view,
                        &clause.body,
                        dpos,
                        &[],
                        &DeltaSource::Atom(dm),
                        None,
                        &mut jstats,
                        &mut combos,
                    );
                    for chunk in combos.chunks_exact(n) {
                        let derived = {
                            let children: Vec<&ConstrainedAtom> = chunk
                                .iter()
                                .map(|&id| {
                                    if id == ATOM_SLOT {
                                        dm
                                    } else {
                                        &view.entry(id).atom
                                    }
                                })
                                .collect();
                            derive(clause, &children, gen)
                        };
                        if let Some(derived) = derived {
                            stats.solver_calls += 1;
                            if satisfiable_with(&derived.atom.constraint, resolver, &config.solver)
                                != Truth::Unsat
                            {
                                let canon = canonicalize(&derived.atom);
                                if seen.insert(canon) {
                                    next.push(derived.atom);
                                }
                            }
                        }
                    }
                }
            }
        }
        pout.extend(next.iter().cloned());
        if pout.len() > config.max_entries {
            return Err(DredError::Budget(FixpointError::EntryBudget {
                entries: pout.len(),
            }));
        }
        delta = next;
    }
    stats.pout_atoms = pout.len();

    // ---- Step 2: over-delete to M' ----------------------------------------
    let mut pout_by_pred: FxHashMap<Arc<str>, Vec<ConstrainedAtom>> = FxHashMap::default();
    for p in &pout {
        pout_by_pred
            .entry(p.pred.clone())
            .or_default()
            .push(p.clone());
    }
    let mut touched: Vec<EntryId> = Vec::new();
    for (pred, pouts) in &pout_by_pred {
        for id in view.entries_for_pred(pred).to_vec() {
            let (constraint, changed) = {
                let atom = &view.entry(id).atom;
                let mut constraint = atom.constraint.clone();
                let mut changed = false;
                for p in pouts {
                    if p.args.len() != atom.args.len() {
                        continue;
                    }
                    let ppsi = p.constraint_at(&atom.args, gen).expect("arity checked");
                    stats.solver_calls += 1;
                    if satisfiable_with(
                        &constraint.clone().and(ppsi.clone()),
                        resolver,
                        &config.solver,
                    ) == Truth::Unsat
                    {
                        continue;
                    }
                    // Simplify after *each* conjunct, not once at the
                    // end: the next region's solvability test (and, in
                    // a batch, every later region's) runs against this
                    // constraint, so letting raw not() chains pile up
                    // makes those solver calls quadratically slower.
                    constraint =
                        match mmv_constraints::simplify(&constraint.and_lit(Lit::Not(ppsi))) {
                            mmv_constraints::Simplified::Constraint(c) => c,
                            mmv_constraints::Simplified::Unsat => {
                                Constraint::lit(Lit::Not(Constraint::truth()))
                            }
                        };
                    changed = true;
                }
                (constraint, changed)
            };
            if changed {
                view.replace_constraint(id, constraint);
                touched.push(id);
                stats.weakened += 1;
            }
        }
    }

    // ---- Step 3: rederive within the P_OUT regions over P' ----------------
    // `T_{P''} ↑ ω (M')`: the shared round driver over the rewritten
    // program, with the region gate in place of the operator's.
    let pprime = rewrite_for_deletion_gated(db, &del, gen, resolver, config, &mut stats);
    let gate = RederiveGate {
        regions: Arc::new(pout_by_pred),
        solver: config.solver.clone(),
    };
    let mut delta_ids: Vec<EntryId> = view.live_entries().map(|(id, _)| id).collect();
    let before = view.len();
    // Constrained facts (empty-body clauses) of P' can themselves restore
    // deleted regions — e.g. Example 4's independent `A(X) <- X >= 3`.
    for (_, clause) in pprime.clauses() {
        if !clause.body.is_empty() || !gate.runs(clause) {
            continue;
        }
        let restored = derive(clause, &[], gen)
            .and_then(|d| gate.restores(d.atom, resolver, gen, &mut stats.solver_calls));
        if let Some(id) = restored.and_then(|atom| view.insert(atom, None, vec![])) {
            delta_ids.push(id);
        }
    }
    let engine = Engine {
        db: &pprime,
        resolver,
        config,
        gate,
    };
    let rederive = engine
        .run(view, gen, delta_ids)
        .map_err(DredError::Budget)?;
    // Rederivation only inserts.
    stats.rederived = view.len() - before;
    stats.solver_calls += rederive.solver_calls;
    jstats.absorb(&rederive.fixpoint);

    // ---- Hygiene: drop weakened entries that became unsolvable ------------
    for id in touched {
        if !view.is_live(id) {
            continue;
        }
        let c = view.entry(id).atom.constraint.clone();
        stats.solver_calls += 1;
        if satisfiable_with(&c, resolver, &config.solver) == Truth::Unsat {
            view.remove(id);
            stats.removed += 1;
        }
    }
    stats.index_probes = jstats.index_probes;
    stats.candidates_scanned = jstats.candidates_scanned;
    Ok(stats)
}

/// Rederivation's gate for the shared round driver: only clauses whose
/// head predicate lost a region run, and a derivation is kept only if it
/// can restore instances inside one (the `P''` pruning) and is solvable.
#[derive(Clone)]
struct RederiveGate {
    /// The `P_OUT` regions by predicate, shared with the pool tasks.
    regions: Arc<FxHashMap<Arc<str>, Vec<ConstrainedAtom>>>,
    solver: SolverConfig,
}

impl RederiveGate {
    /// The region-overlap test: `atom` survives iff it overlaps some
    /// `P_OUT` region of its predicate and is itself solvable.
    fn restores(
        &self,
        atom: ConstrainedAtom,
        resolver: &dyn DomainResolver,
        gen: &mut VarGen,
        solver_calls: &mut usize,
    ) -> Option<ConstrainedAtom> {
        let overlaps = self.regions.get(&atom.pred)?.iter().any(|p| {
            if p.args.len() != atom.args.len() {
                return false;
            }
            let ppsi = p.constraint_at(&atom.args, gen).expect("arity checked");
            *solver_calls += 1;
            satisfiable_with(&atom.constraint.clone().and(ppsi), resolver, &self.solver)
                != Truth::Unsat
        });
        if !overlaps {
            return None;
        }
        *solver_calls += 1;
        (satisfiable_with(&atom.constraint, resolver, &self.solver) != Truth::Unsat).then_some(atom)
    }
}

impl Gate for RederiveGate {
    fn runs(&self, clause: &Clause) -> bool {
        self.regions.contains_key(&clause.head_pred)
    }

    fn admit(
        &self,
        view: &MaterializedView,
        split: &Split<'_>,
        chunk: &[EntryId],
        resolver: &dyn DomainResolver,
        gen: &mut VarGen,
        stats: &mut EngineStats,
    ) -> Option<Candidate> {
        let d = derive_combo(view, split.clause, chunk, gen)?;
        let atom = self.restores(d.atom, resolver, gen, &mut stats.solver_calls)?;
        // A plain view keeps no derivation metadata.
        let rederived = Derivation {
            atom,
            children_args: Vec::new(),
        };
        Some((None, rederived))
    }
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

/// [`rewrite_for_deletion`] with a redundancy gate: a `not(Del-region)`
/// is conjoined onto a clause only if the region *overlaps* the
/// clause's own constraint — excluding a disjoint region excludes
/// nothing (the same gate Algorithm 3 applies when building `Add`).
///
/// The blind rewrite is the declarative spec and stays as the oracle;
/// this one keeps the executable `P'` small. The distinction is what
/// makes *batched* deletion viable: a batch's `Del` holds every
/// request's regions, and conjoining all of them onto every clause of a
/// hot predicate makes each rederivation solver call case-split over a
/// product of `not()` blocks — cost exponential in the batch size.
/// Gated, each clause keeps only the regions it can actually lose,
/// which is what the equivalent sequence of single-atom runs would have
/// confronted one at a time.
fn rewrite_for_deletion_gated(
    db: &ConstrainedDatabase,
    del: &[ConstrainedAtom],
    gen: &mut VarGen,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
    stats: &mut ExtDredStats,
) -> ConstrainedDatabase {
    let mut out = ConstrainedDatabase::new();
    for (cid, clause) in db.clauses() {
        let mut c = clause.clone();
        for d in del {
            if d.pred != clause.head_pred || d.args.len() != clause.head_args.len() {
                continue;
            }
            let dpsi = d.constraint_at(&c.head_args, gen).expect("arity checked");
            // Every derivation through the clause satisfies the clause
            // constraint, so a region disjoint from it can never be
            // produced — the not() would only bloat P'.
            stats.solver_calls += 1;
            if satisfiable_with(
                &c.constraint.clone().and(dpsi.clone()),
                resolver,
                &config.solver,
            ) == Truth::Unsat
            {
                continue;
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BodyAtom;
    use crate::tp::{fixpoint, Operator};
    use mmv_constraints::{CmpOp, NoDomains, SolverConfig, Term, Value, Var};

    fn x() -> Term {
        Term::var(Var(0))
    }

    /// The Examples 4/5 database (>= reading; see delete_stdel.rs).
    fn example4_db() -> ConstrainedDatabase {
        ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "A",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(3)),
            ),
            Clause::new(
                "A",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("B", vec![x()])],
            ),
            Clause::fact(
                "B",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(5)),
            ),
            Clause::new(
                "C",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("A", vec![x()])],
            ),
        ])
    }

    fn build_plain(db: &ConstrainedDatabase) -> MaterializedView {
        fixpoint(
            db,
            &NoDomains,
            Operator::Tp,
            SupportMode::Plain,
            &FixpointConfig::default(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn paper_example_4_extended_dred() {
        // Delete B(X) <- X = 6. P_OUT = {B@6, A@6, C@6}; A keeps 6 via
        // the independent clause-0 fact (rederivation), C keeps 6 through
        // the rederived A.
        let db = example4_db();
        let mut view = build_plain(&db);
        let deletion = ConstrainedAtom::new("B", vec![x()], Constraint::eq(x(), Term::int(6)));
        let stats = dred_delete(
            &db,
            &mut view,
            &deletion,
            &NoDomains,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.del_atoms, 1);
        // Overestimate covers B, A-via-B, C-via-A (Del + 2 unfolded).
        assert!(stats.pout_atoms >= 3, "pout = {}", stats.pout_atoms);
        let cfg = SolverConfig::default();
        // B lost 6.
        assert!(view
            .query("B", &[Some(Value::int(6))], &NoDomains, &cfg)
            .unwrap()
            .is_empty());
        // A keeps 6 (independent proof, exactly the paper's point).
        assert_eq!(
            view.query("A", &[Some(Value::int(6))], &NoDomains, &cfg)
                .unwrap()
                .len(),
            1
        );
        // C keeps 6 through A.
        assert_eq!(
            view.query("C", &[Some(Value::int(6))], &NoDomains, &cfg)
                .unwrap()
                .len(),
            1
        );
        // Untouched instances intact.
        assert_eq!(
            view.query("B", &[Some(Value::int(7))], &NoDomains, &cfg)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn dred_on_ground_diamond() {
        // Ground diamond: s -> {l, r} -> t; path facts; deleting one
        // edge keeps reach(t) via the other branch.
        let v0 = Term::var(Var(0));
        let v1 = Term::var(Var(1));
        let v2 = Term::var(Var(2));
        let edge = |a: &str, b: &str| {
            Clause::fact(
                "edge",
                vec![Term::str(a), Term::str(b)],
                Constraint::truth(),
            )
        };
        let db = ConstrainedDatabase::from_clauses(vec![
            edge("s", "l"),
            edge("s", "r"),
            edge("l", "t"),
            edge("r", "t"),
            Clause::new(
                "path2",
                vec![v0.clone(), v1.clone()],
                Constraint::truth(),
                vec![
                    BodyAtom::new("edge", vec![v0.clone(), v2.clone()]),
                    BodyAtom::new("edge", vec![v2.clone(), v1.clone()]),
                ],
            ),
        ]);
        let mut view = build_plain(&db);
        let deletion = ConstrainedAtom::fact("edge", vec![Value::str("s"), Value::str("l")]);
        dred_delete(
            &db,
            &mut view,
            &deletion,
            &NoDomains,
            &FixpointConfig::default(),
        )
        .unwrap();
        let cfg = SolverConfig::default();
        // path2(s, t) survives via r.
        assert_eq!(
            view.query(
                "path2",
                &[Some(Value::str("s")), Some(Value::str("t"))],
                &NoDomains,
                &cfg
            )
            .unwrap()
            .len(),
            1
        );
        // edge(s, l) is gone.
        assert!(view
            .query(
                "edge",
                &[Some(Value::str("s")), Some(Value::str("l"))],
                &NoDomains,
                &cfg
            )
            .unwrap()
            .is_empty());
    }

    #[test]
    fn dred_matches_declarative_oracle() {
        // [result] must equal [T_{P'} ↑ ω (∅)] (Theorem 1), checked on a
        // finite-instance program.
        let db = ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "B",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(8),
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
                Constraint::cmp(x(), CmpOp::Ge, Term::int(5)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(10),
                )),
            ),
        ]);
        let mut view = build_plain(&db);
        let deletion = ConstrainedAtom::new(
            "A",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(6)),
        );
        // Build Del for the oracle the same way the algorithm does.
        let mut oracle_del: Vec<ConstrainedAtom> = Vec::new();
        for id in view.entries_for_pred("A").to_vec() {
            let atom = view.entry(id).atom.clone();
            let dpsi = deletion
                .constraint_at(&atom.args, view.var_gen_mut())
                .unwrap();
            oracle_del.push(ConstrainedAtom {
                pred: atom.pred.clone(),
                args: atom.args.clone(),
                constraint: atom.constraint.clone().and(dpsi),
            });
        }
        let pprime = rewrite_for_deletion(&db, &oracle_del);
        let (oracle_view, _) = fixpoint(
            &pprime,
            &NoDomains,
            Operator::Tp,
            SupportMode::Plain,
            &FixpointConfig::default(),
        )
        .unwrap();

        dred_delete(
            &db,
            &mut view,
            &deletion,
            &NoDomains,
            &FixpointConfig::default(),
        )
        .unwrap();
        let cfg = SolverConfig::default();
        assert_eq!(
            view.instances(&NoDomains, &cfg).unwrap(),
            oracle_view.instances(&NoDomains, &cfg).unwrap()
        );
    }

    #[test]
    fn needs_plain_view() {
        let db = example4_db();
        let mut view = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap()
        .0;
        let deletion = ConstrainedAtom::fact("B", vec![Value::int(6)]);
        assert_eq!(
            dred_delete(
                &db,
                &mut view,
                &deletion,
                &NoDomains,
                &FixpointConfig::default()
            ),
            Err(DredError::NeedsPlainView)
        );
    }

    #[test]
    fn noop_deletion_leaves_view_unchanged() {
        let db = example4_db();
        let mut view = build_plain(&db);
        let before: Vec<String> = view
            .live_entries()
            .map(|(_, e)| canonicalize(&e.atom).to_string())
            .collect();
        let deletion = ConstrainedAtom::new("B", vec![x()], Constraint::eq(x(), Term::int(2)));
        let stats = dred_delete(
            &db,
            &mut view,
            &deletion,
            &NoDomains,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.del_atoms, 0);
        let after: Vec<String> = view
            .live_entries()
            .map(|(_, e)| canonicalize(&e.atom).to_string())
            .collect();
        assert_eq!(before, after);
    }
}
