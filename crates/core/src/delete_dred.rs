//! The Extended DRed algorithm — Algorithm 1 of the paper (§3.1.1),
//! generalizing the ground DRed algorithm of Gupta, Mumick &
//! Subrahmanian \[22\] to constrained databases.
//!
//! Given a deletion request `A(X⃗) ← φ` against a duplicate-free
//! ([`SupportMode::Plain`]) view `M` of database `P`, the steps are
//! numbered as the paper's, here and in the code:
//!
//! - **Del** (before step 1): intersect the request with the matching
//!   view atoms — only instances actually in the view are deleted.
//! 1. **Unfold `P_OUT`**: the overestimate of possibly-deleted atoms,
//!    propagating the deletion through clauses (exactly one body child
//!    from the previous layer, the rest from `M`).
//! 2. **Over-delete to `M'`**: weaken every overlapping view atom with
//!    `not(pout-region)`, so `[M'] = [M] \ [P_OUT]`.
//! 3. **Rederive**: close `M'` under the *rewritten* database `P'`
//!    (clauses for the deleted predicate carry `not(Del)`), restricted to
//!    derivations that restore instances inside a `P_OUT` region — the
//!    `P''` pruning, written into the program (see "`P_OUT` is a
//!    program" below). This rederivation is the expensive step StDel
//!    eliminates.
//!
//! Step 2's weakening and the `not(Del)` rewrite of `P'` are the crate's
//! one weakening rule (`atom::weaken`): a region is conjoined, negated,
//! only where the constraint built so far still meets it, and the result
//! is simplified after each conjunct.
//!
//! # Cost follows the update
//!
//! Every scan above selects its candidates by argument bounds (the
//! crate's `bounds` module) before anything is tied or solved, and the
//! selection visits what the update meets, not the predicate. `Del` and
//! the over-deletion ask the view for the entries whose bounds meet the
//! request or region (`MaterializedView::candidates`), which looks them
//! up in the view's interval index. The rederivation program is not all
//! of `P'` but the clauses that can restore anything: rules whose head
//! predicate lost a region (the database lists its rules apart from its
//! facts), and constrained facts whose head bounds meet one, which the
//! database's own interval index of fact clauses hands over
//! (`ConstrainedDatabase::facts_meeting`); each is compared with a `Del`
//! atom's bounds before the two are tied. Both programs' joins select
//! by bounds too: under `T_P`, a body position is looked up in the
//! view's interval index with the bounds the already-chosen children
//! place on its variables, unless a constant narrows it to constant
//! matches (see `tp`). `ExtDredStats::selected`
//! counts what the selectors of `Del`, the over-deletion and `P''`
//! visit, `candidates_scanned` what the joins visit. The pre-check is a
//! necessary condition only — it drops exactly candidates the solver
//! would have refuted — so the maintained view is the one the
//! whole-predicate scans produced.
//!
//! # `P_OUT` is a program
//!
//! So is rederivation. Neither step has a loop of its own: each is a
//! program run by `tp::propagate` with the `T_P` operator over a scratch
//! clone of the view whose first delta is a set of atoms under marked
//! predicates (`°p`, `°` a reserved marker), and each hands back what it
//! derived past those atoms (`Run::scratch_run`).
//!
//! - Step 1 runs the over-deletion program of ground DRed \[22\],
//!   `°h ← b1,…,°bi,…,bn` for every rule and body position, from `Del`.
//!   Building it walks the rules of `P`, not its facts, once per batch.
//! - Step 3 runs `h ← °h, b1,…,bn ∧ not(Del)` for every clause of `P''`
//!   (a fact becomes `h ← °h ∧ not(Del)`), from `P_OUT`; the way every
//!   `shapiro` variant's `make_alternative_derivation_program` writes
//!   rederivation. Tying the head to `°h(h's arguments)` is the region
//!   test, and the join does it. Its `h` atoms are inserted into `M'`: a
//!   restored atom carries the region it restores, one entry per
//!   derivation and region.
//!
//! Their rounds take whichever executor the round driver picks, as
//! `P_ADD`'s do.

use crate::atom::{simplify_keep, weaken, ConstrainedAtom, Overlap, Weakened};
use crate::bounds::ArgBounds;
use crate::program::{BodyAtom, Clause, ClauseId, ConstrainedDatabase};
// The blind rewrite is the declarative spec: it lives with the oracles.
pub use crate::semantics::rewrite_for_deletion;
use crate::tp::{propagate, FixpointConfig, FixpointError, FixpointStats, Operator};
use crate::view::{EntryId, MaterializedView, SupportMode};
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{satisfiable_with, Constraint, DomainResolver, Term, Truth, VarGen};
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
    /// Rules the round planner visited during unfolding/rederivation
    /// ([`FixpointStats::rules_visited`]).
    pub rules_visited: usize,
    /// Candidates dismissed by the argument-bounds pre-check, without
    /// tying or a solver call: (entry, request) pairs of `Del`, (entry,
    /// region) pairs of the over-deletion, (fact clause, region) pairs of
    /// `P''`, (clause, `Del` atom) pairs of the `P'` rewrite.
    pub prefiltered: usize,
    /// Entries and fact clauses the bounds selectors visited: the view
    /// entries of `Del` and the over-deletion, and the fact clauses
    /// `P''` takes from the database's index.
    pub selected: usize,
}

impl ExtDredStats {
    /// Accumulates another run's counters.
    pub fn absorb(&mut self, o: &ExtDredStats) {
        self.del_atoms += o.del_atoms;
        self.pout_atoms += o.pout_atoms;
        self.weakened += o.weakened;
        self.rederived += o.rederived;
        self.removed += o.removed;
        self.solver_calls += o.solver_calls;
        self.index_probes += o.index_probes;
        self.candidates_scanned += o.candidates_scanned;
        self.rules_visited += o.rules_visited;
        self.prefiltered += o.prefiltered;
        self.selected += o.selected;
    }
}

/// Extended DRed failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DredError {
    /// The view must be duplicate-free (`SupportMode::Plain`).
    NeedsPlainView,
    /// A fixpoint budget was exhausted during unfolding or rederivation.
    /// Both run over a scratch copy of the view, so the entry budget
    /// counts the view's entries plus the marked atoms and what the
    /// program derived.
    Budget(FixpointError),
    /// A predicate of the database or the view already carries the
    /// marker Extended DRed reserves for its scratch programs'
    /// predicates; the deletion is refused before anything changes.
    ReservedPredicate(Arc<str>),
}

impl fmt::Display for DredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DredError::NeedsPlainView => {
                write!(f, "Extended DRed requires a SupportMode::Plain view")
            }
            DredError::Budget(e) => write!(f, "{e}"),
            DredError::ReservedPredicate(pred) => write!(
                f,
                "predicate `{pred}` uses the marker `{MARK}` Extended DRed reserves for P_OUT"
            ),
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
/// the payoff — a *single* rederivation program, `P'` rewritten with the
/// whole `Del` set, runs once from every `P_OUT` region. Sequential
/// single-atom deletion builds and runs that program once per request;
/// the batch does it once total.
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
    let mut run = Run {
        resolver,
        config,
        stats: ExtDredStats::default(),
    };
    let over = run.over_delete(db, view, gen, deletions)?;
    if over.pout.is_empty() {
        return Ok(run.stats);
    }
    // ---- Hygiene: drop weakened entries that became unsolvable ------------
    // (those the simplifier proved false went in step 2), before step 3:
    // a derivation through one could restore nothing.
    for &id in &over.touched {
        if run.unsat(&view.entry(id).atom.constraint) {
            view.remove(id);
            run.stats.removed += 1;
        }
    }
    run.rederive(db, view, gen, &over)?;
    Ok(run.stats)
}

/// One `P_OUT` atom with its argument bounds, read once: every entry
/// scan and fact clause is checked against the bounds before it is tied
/// to the region and handed to the solver.
struct Region {
    atom: ConstrainedAtom,
    bounds: ArgBounds,
}

/// What over-deletion (`Del`, steps 1 and 2) leaves for rederivation.
struct OverDeletion {
    /// `P_OUT`: `Del` first (empty when the requests hit nothing in the
    /// view), then the unfolded atoms in derivation order.
    pout: Vec<Region>,
    /// How many of `pout`'s atoms are `Del`'s.
    del: usize,
    /// The positions in `pout` of each predicate's regions.
    by_pred: FxHashMap<Arc<str>, Vec<usize>>,
    /// The entries step 2 weakened.
    touched: Vec<EntryId>,
}

/// The context and counters of one Extended DRed run.
struct Run<'a> {
    resolver: &'a dyn DomainResolver,
    config: &'a FixpointConfig,
    stats: ExtDredStats,
}

impl Run<'_> {
    /// One counted solver call.
    fn unsat(&mut self, c: &Constraint) -> bool {
        self.stats.solver_calls += 1;
        satisfiable_with(c, self.resolver, &self.config.solver) == Truth::Unsat
    }

    /// One counted weakening ([`weaken`]).
    fn weaken<'a>(
        &mut self,
        constraint: &Constraint,
        ties: impl IntoIterator<Item = (&'a ConstrainedAtom, &'a [Term])>,
        gen: &mut VarGen,
    ) -> Weakened {
        weaken(
            constraint,
            ties,
            gen,
            self.resolver,
            &self.config.solver,
            &mut self.stats.solver_calls,
        )
    }

    /// One counted overlap test ([`ConstrainedAtom::overlap`]).
    fn overlap(
        &mut self,
        other: &ConstrainedAtom,
        args: &[Term],
        constraint: &Constraint,
        gen: &mut VarGen,
    ) -> Option<Overlap> {
        other.overlap(
            args,
            constraint,
            gen,
            self.resolver,
            &self.config.solver,
            &mut self.stats.solver_calls,
        )
    }

    /// `Del`, the `P_OUT` unfolding (step 1) and the weakening of `view`
    /// to `M'` (step 2), each entry by every region it meets in one
    /// [`weaken`].
    fn over_delete(
        &mut self,
        db: &ConstrainedDatabase,
        view: &mut MaterializedView,
        gen: &mut VarGen,
        deletions: &[ConstrainedAtom],
    ) -> Result<OverDeletion, DredError> {
        // ---- Del: every deletion intersected with the view --------------
        let mut del: Vec<ConstrainedAtom> = Vec::new();
        for deletion in deletions {
            let bounds = ArgBounds::of(deletion);
            let stats = &mut self.stats;
            for id in view.candidates(
                &deletion.pred,
                &bounds,
                &mut stats.prefiltered,
                &mut stats.selected,
            ) {
                let atom = &view.entry(id).atom;
                let Some((_, region)) = self.overlap(deletion, &atom.args, &atom.constraint, gen)
                else {
                    continue;
                };
                // Keep Del regions compact: they are conjoined into P' and
                // into every over-deleted entry, so redundancy here
                // multiplies across the whole run (acute for batches,
                // whose Del sets are larger).
                let Some(region) = simplify_keep(region) else {
                    continue;
                };
                del.push(atom.with_constraint(region));
            }
        }
        self.stats.del_atoms = del.len();
        let mut over = OverDeletion {
            pout: Vec::new(),
            del: del.len(),
            by_pred: FxHashMap::default(),
            touched: Vec::new(),
        };
        if del.is_empty() {
            return Ok(over);
        }

        // ---- Step 1: unfold P_OUT ----------------------------------------
        let program = over_deletion_program(db, view, &del)?;
        let unfolded = self.scratch_run(&program, db, view, gen, &del)?;
        self.stats.pout_atoms = del.len() + unfolded.len();
        let unmarked = unfolded.into_iter().map(|atom| ConstrainedAtom {
            pred: Arc::from(&atom.pred[MARK.len()..]),
            ..atom
        });
        for atom in del.into_iter().chain(unmarked) {
            over.by_pred
                .entry(atom.pred.clone())
                .or_default()
                .push(over.pout.len());
            let bounds = ArgBounds::of(&atom);
            over.pout.push(Region { atom, bounds });
        }

        // ---- Step 2: over-delete to M' ------------------------------------
        let pout = &over.pout;
        for (pred, regions) in &over.by_pred {
            // (entry, region) pairs whose bounds meet, grouped by entry
            // with each entry's regions in P_OUT order.
            let mut met: Vec<(EntryId, usize)> = Vec::new();
            for &r in regions {
                let stats = &mut self.stats;
                let ids = view.candidates(
                    pred,
                    &pout[r].bounds,
                    &mut stats.prefiltered,
                    &mut stats.selected,
                );
                met.extend(ids.into_iter().map(|id| (id, r)));
            }
            met.sort_unstable();
            for group in met.chunk_by(|a, b| a.0 == b.0) {
                let id = group[0].0;
                let atom = &view.entry(id).atom;
                let ties = group
                    .iter()
                    .map(|&(_, r)| (&pout[r].atom, atom.args.as_slice()));
                match self.weaken(&atom.constraint, ties, gen) {
                    Weakened::Unchanged => continue,
                    Weakened::To(c, _) => {
                        view.replace_constraint(id, c);
                        over.touched.push(id);
                    }
                    // The simplifier proved it false: dropped now, not
                    // left for the hygiene pass to ask the solver.
                    Weakened::Empty => {
                        view.remove(id);
                        self.stats.removed += 1;
                    }
                }
                self.stats.weakened += 1;
            }
        }
        Ok(over)
    }

    /// Runs `program` with the `T_P` operator over a scratch clone of
    /// `view` whose first delta is `atoms` under marked predicates, and
    /// returns the atoms it derived past them, in derivation order. Plain
    /// mode `insert` drops a canonical duplicate; `T_P` admission drops
    /// an unsolvable derivation. The scratch is gone before the caller
    /// changes `view`, so none of its pages stay shared.
    fn scratch_run<'a>(
        &mut self,
        program: &ConstrainedDatabase,
        db: &ConstrainedDatabase,
        view: &MaterializedView,
        gen: &mut VarGen,
        atoms: impl IntoIterator<Item = &'a ConstrainedAtom>,
    ) -> Result<Vec<ConstrainedAtom>, DredError> {
        let mut scratch = view.clone();
        let mut delta: Vec<EntryId> = Vec::new();
        for a in atoms {
            let atom = ConstrainedAtom {
                pred: mark(&a.pred, db, view)?,
                ..a.clone()
            };
            delta.extend(scratch.insert(atom, None, Vec::new()));
        }
        let watermark = scratch.entry_slots();
        *scratch.var_gen_mut() = std::mem::take(gen);
        let mut joins = FixpointStats::default();
        let result = propagate(
            program,
            self.resolver,
            Operator::Tp,
            &mut scratch,
            delta,
            self.config,
            &mut joins,
        );
        *gen = std::mem::take(scratch.var_gen_mut());
        result.map_err(DredError::Budget)?;
        // Every derivation that was not syntactically false met the `T_P`
        // solvability test.
        self.stats.solver_calls += joins.derivations_tried - joins.pruned_syntactic;
        self.stats.index_probes += joins.index_probes;
        self.stats.candidates_scanned += joins.candidates_scanned;
        self.stats.rules_visited += joins.rules_visited;
        Ok((watermark..scratch.entry_slots())
            .map(|id| scratch.entry(id).atom.clone())
            .collect())
    }

    /// Step 3: rederive within the `P_OUT` regions — `T_{P''} ↑ ω (M')`
    /// as the program [`Run::rederivation_program`] builds, run from the
    /// `P_OUT` atoms of the predicates it heads. What it derives is
    /// inserted into `view`.
    fn rederive(
        &mut self,
        db: &ConstrainedDatabase,
        view: &mut MaterializedView,
        gen: &mut VarGen,
        over: &OverDeletion,
    ) -> Result<(), DredError> {
        let program = self.rederivation_program(db, view, over, gen)?;
        // A region of a predicate the program does not head restores
        // nothing.
        let regions = over
            .pout
            .iter()
            .map(|r| &r.atom)
            .filter(|a| !program.clauses_for_head(&a.pred).is_empty());
        let restored = self.scratch_run(&program, db, view, gen, regions)?;
        let before = view.len();
        for atom in restored {
            view.insert(atom, None, Vec::new());
        }
        self.stats.rederived = view.len() - before;
        Ok(())
    }

    /// The program rederivation runs: for every clause of `P''`, `h ←
    /// °h, b1,…,bn` under the clause's constraint weakened by `Del`.
    ///
    /// `P''` is the clauses of the rewritten database `P'` that can
    /// restore anything. A rule can only if its head predicate lost a
    /// region; a constrained fact only if, further, its head bounds meet
    /// one of them. Everything else of `P'` is left out rather than
    /// cloned, so building the program costs what the over-deleted
    /// predicates' clauses cost, not what `P` does. Clause numbers are
    /// the originals.
    ///
    /// The rewrite is [`rewrite_for_deletion`] through the weakening rule
    /// ([`weaken`]): a `not(Del-region)` is conjoined onto a clause only
    /// if the region *overlaps* the clause's constraint built so far —
    /// excluding a disjoint region excludes nothing (the same rule
    /// Algorithm 3 builds `Add` by) — and a clause the simplifier proves
    /// false is left out: it can restore nothing. The blind rewrite is
    /// the declarative spec and stays as the oracle; this one keeps the
    /// executable clauses small. The distinction is what makes *batched*
    /// deletion viable: a batch's `Del` holds every request's regions,
    /// and conjoining all of them onto every clause of a hot predicate
    /// makes each rederivation solver call case-split over a product of
    /// `not()` blocks — cost exponential in the batch size. Gated, each
    /// clause keeps only the regions it can actually lose, which is what
    /// the equivalent sequence of single-atom runs would have confronted
    /// one at a time.
    fn rederivation_program(
        &mut self,
        db: &ConstrainedDatabase,
        view: &MaterializedView,
        over: &OverDeletion,
        gen: &mut VarGen,
    ) -> Result<ConstrainedDatabase, DredError> {
        let mut cids: Vec<ClauseId> = over
            .by_pred
            .keys()
            .flat_map(|pred| db.clauses_for_head(pred))
            .copied()
            .filter(|&cid| !db.clause(cid).body.is_empty())
            .collect();
        // The facts whose head bounds meet a region of their predicate,
        // from the database's interval index; every other fact is
        // dismissed against each of the predicate's regions.
        for (pred, regions) in &over.by_pred {
            let mut met: Vec<ClauseId> = regions
                .iter()
                .flat_map(|&r| {
                    db.facts_meeting(pred, &over.pout[r].bounds, &mut self.stats.selected)
                })
                .collect();
            met.sort_unstable();
            met.dedup();
            self.stats.prefiltered += (db.fact_count(pred) - met.len()) * regions.len();
            cids.extend(met);
        }
        cids.sort_unstable();
        let del = &over.pout[..over.del];
        let mut out = ConstrainedDatabase::new();
        for cid in cids {
            let clause = db.clause(cid);
            let mut ties = Vec::new();
            for d in del.iter().filter(|d| d.atom.pred == clause.head_pred) {
                // The conjoined not() blocks leave the head's bounds as
                // the original clause's.
                if d.bounds.meets(&clause.head_args, &clause.constraint) {
                    ties.push((&d.atom, clause.head_args.as_slice()));
                } else {
                    self.stats.prefiltered += 1;
                }
            }
            // Every derivation through the clause satisfies the clause
            // constraint, so a region disjoint from it can never be
            // produced: the weakening conjoins no not() for it.
            let constraint = match self.weaken(&clause.constraint, ties, gen) {
                Weakened::Unchanged => clause.constraint.clone(),
                Weakened::To(constraint, _) => constraint,
                // Nothing derived through it survives: it restores nothing.
                Weakened::Empty => continue,
            };
            let region = BodyAtom {
                pred: mark(&clause.head_pred, db, view)?,
                args: clause.head_args.clone(),
            };
            let body = std::iter::once(region)
                .chain(clause.body.iter().cloned())
                .collect();
            out.push_numbered(
                cid,
                Clause {
                    constraint,
                    body,
                    ..clause.clone()
                },
            );
        }
        Ok(out)
    }
}

/// The reserved predicate marker of the scratch programs: `°p` holds the
/// `P_OUT` atoms of `p`.
const MARK: &str = "°";

/// `°pred`, refused if `pred` already carries the marker or the
/// database or view already uses the marked name: a scratch program
/// would join that predicate's entries as `P_OUT` atoms.
fn mark(
    pred: &str,
    db: &ConstrainedDatabase,
    view: &MaterializedView,
) -> Result<Arc<str>, DredError> {
    if pred.starts_with(MARK) {
        return Err(DredError::ReservedPredicate(Arc::from(pred)));
    }
    let marked: Arc<str> = Arc::from(format!("{MARK}{pred}"));
    if !view.entries_for_pred(&marked).is_empty() || !db.clauses_for_head(&marked).is_empty() {
        return Err(DredError::ReservedPredicate(marked));
    }
    Ok(marked)
}

/// The over-deletion program — the δ⁻ rules of ground DRed \[22\]: for
/// each rule `h ← b1,…,bn` of `db` reachable upward from `del`'s
/// predicates and each position `i`, `°h ← b1,…,°bi,…,bn`, in `db`
/// order, then position order (the order the round driver's splits come
/// in). A rule the deletion cannot reach never fires, so it is left out
/// rather than cloned. Facts emit nothing.
fn over_deletion_program(
    db: &ConstrainedDatabase,
    view: &MaterializedView,
    del: &[ConstrainedAtom],
) -> Result<ConstrainedDatabase, DredError> {
    let mut program = ConstrainedDatabase::new();
    for (_, rule) in db.rules_above(del.iter().map(|a| a.pred.as_ref())) {
        let head_pred = mark(&rule.head_pred, db, view)?;
        for i in 0..rule.body.len() {
            let mut clause = rule.clone();
            clause.head_pred = head_pred.clone();
            clause.body[i].pred = mark(&rule.body[i].pred, db, view)?;
            program.push(clause);
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BodyAtom;
    use crate::tp::fixpoint;
    use crate::view::canonicalize;
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
        // The overestimate is exactly B@6, A@6 via B, C@6 via A: Del plus
        // two unfolded.
        assert_eq!(stats.pout_atoms, 3);
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
    fn marked_predicate_is_refused() {
        // `°B` would be joined as if it held P_OUT atoms of `B`.
        let mut db = example4_db();
        db.push(Clause::fact(
            "°B",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)),
        ));
        let mut view = build_plain(&db);
        let before = view.clone();
        let deletion = ConstrainedAtom::new("B", vec![x()], Constraint::eq(x(), Term::int(6)));
        assert_eq!(
            dred_delete(
                &db,
                &mut view,
                &deletion,
                &NoDomains,
                &FixpointConfig::default()
            ),
            Err(DredError::ReservedPredicate(Arc::from("°B")))
        );
        assert!(view.syntactically_equal(&before));
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
    mod rederivation {
        use super::*;
        use proptest::prelude::*;

        fn y() -> Term {
            Term::var(Var(1))
        }

        fn between(lo: i64, hi: i64) -> Constraint {
            Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(hi),
            ))
        }

        fn interval_fact(pred: &'static str) -> impl Strategy<Value = Clause> {
            (0i64..12, 0i64..4)
                .prop_map(move |(lo, w)| Clause::fact(pred, vec![x()], between(lo, lo + w)))
        }

        /// Two-body-atom rules whose body atoms share both, one or none
        /// of their variables with the head, plus a second way to derive
        /// `q` so that over-deleted instances have something to come
        /// back through.
        fn rule() -> impl Strategy<Value = Clause> {
            let rule = |head: &str, head_args: Vec<Term>, body: Vec<BodyAtom>| {
                Clause::new(head, head_args, Constraint::truth(), body)
            };
            prop_oneof![
                Just(rule(
                    "q",
                    vec![x()],
                    vec![BodyAtom::new("b", vec![x()]), BodyAtom::new("c", vec![x()])]
                )),
                Just(rule(
                    "q",
                    vec![x()],
                    vec![BodyAtom::new("b", vec![x()]), BodyAtom::new("c", vec![y()])]
                )),
                Just(rule(
                    "r",
                    vec![x(), y()],
                    vec![BodyAtom::new("b", vec![x()]), BodyAtom::new("c", vec![y()])]
                )),
                Just(rule(
                    "q",
                    vec![x()],
                    vec![
                        BodyAtom::new("r", vec![x(), y()]),
                        BodyAtom::new("c", vec![y()])
                    ]
                )),
                Just(rule("q", vec![x()], vec![BodyAtom::new("c", vec![x()])])),
            ]
        }

        fn workload() -> impl Strategy<Value = (ConstrainedDatabase, Vec<ConstrainedAtom>)> {
            let deletion =
                (prop_oneof![Just("b"), Just("c")], 0i64..14, 0i64..3).prop_map(|(pred, lo, w)| {
                    ConstrainedAtom::new(pred, vec![x()], between(lo, lo + w))
                });
            (
                collection::vec(interval_fact("b"), 1..=3_usize),
                collection::vec(interval_fact("c"), 1..=3_usize),
                collection::vec(interval_fact("q"), 0..=1_usize),
                collection::vec(rule(), 1..=3_usize),
                collection::vec(deletion, 1..=2_usize),
            )
                .prop_map(|(b, c, q, rules, deletions)| {
                    let clauses = b.into_iter().chain(c).chain(q).chain(rules);
                    (ConstrainedDatabase::from_clauses(clauses), deletions)
                })
        }

        /// Runs on a width-2 pool, built once.
        fn width_two() -> FixpointConfig {
            use crate::pool::WorkerPool;
            use crate::tp::ParallelFixpoint;
            static POOL: std::sync::OnceLock<Arc<WorkerPool>> = std::sync::OnceLock::new();
            FixpointConfig {
                parallel: Some(ParallelFixpoint {
                    pool: Arc::clone(POOL.get_or_init(|| Arc::new(WorkerPool::new(2)))),
                    resolver: Arc::new(NoDomains),
                }),
                ..FixpointConfig::default()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64),
                failure_persistence: None,
                ..ProptestConfig::default()
            })]

            /// The region-tied rederivation program restores exactly what
            /// the declarative oracle keeps, on two-body-atom rules that
            /// share two, one or none of their variables with the head,
            /// and its pooled run is the inline run, entry for entry.
            #[test]
            fn rederivation_program_matches_the_oracle((db, deletions) in workload()) {
                let base = build_plain(&db);
                let inline = FixpointConfig::default();
                let batch = crate::batch::UpdateBatch {
                    deletes: deletions.clone(),
                    inserts: Vec::new(),
                };
                let expected = crate::semantics::batch_oracle(&db, &base, &batch, &NoDomains, &inline)
                    .expect("oracle");
                let mut view = base.clone();
                dred_delete_batch(&db, &mut view, &deletions, &NoDomains, &inline)
                    .expect("inline");
                let solver = SolverConfig::default();
                prop_assert_eq!(
                    view.instances(&NoDomains, &solver).expect("instances"),
                    expected,
                    "oracle differs on\n{}\ndeleting {:?}\nview:\n{}", db, deletions, view
                );
                let mut pooled = base.clone();
                dred_delete_batch(&db, &mut pooled, &deletions, &NoDomains, &width_two())
                    .expect("pooled");
                prop_assert!(
                    view.syntactically_equal(&pooled),
                    "pool diverged on\n{db}\ndeleting {deletions:?}\ninline:\n{view}\npooled:\n{pooled}"
                );
            }
        }
    }
}
