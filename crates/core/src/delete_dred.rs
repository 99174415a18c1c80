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
//!    derivations that can restore instances inside a `P_OUT` region —
//!    the `P''` pruning realized as a region-overlap test (see "Cost
//!    follows the update" below). This rederivation is the expensive
//!    step StDel eliminates.
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
//! up in the view's interval index. The program the rederivation runs
//! is not all of `P'` but the clauses that can restore anything: rules
//! whose head predicate lost a region (the database lists its rules
//! apart from its facts), and constrained facts whose head bounds meet
//! one, which the database's own interval index of fact clauses hands
//! over (`ConstrainedDatabase::facts_meeting`); each is compared with a
//! `Del` atom's bounds before the two are tied. The region gate compares
//! a derived atom's bounds with a region's in the same way. And the
//! rederivation is *seeded from the `P_OUT` regions*, not from the view:
//! its first delta holds only entries that could be a child of a
//! restoring derivation (see `rederivation_seed`, again through the
//! view's index), so a deletion that over-deletes nothing that can come
//! back enumerates almost nothing. `ExtDredStats::selected` counts what
//! the selectors visit. The pre-check is a necessary condition only — it
//! drops exactly candidates the solver would have refuted — so the
//! maintained view is the one the whole-predicate scans produced.
//!
//! # `P_OUT` is a program
//!
//! The unfolding has no loop of its own. It is the over-deletion program
//! of ground DRed \[22\] (`°h ← b1,…,°bi,…,bn` for every rule and body
//! position, `°` a reserved marker), run by `tp::propagate` over a
//! scratch clone of the view with `Del` under marked predicates as the
//! first delta; see `Run::unfold`. Its rounds take whichever executor
//! the round driver picks, as rederivation's and `P_ADD`'s do. Building
//! that program walks the rules of `P`, not its facts, once per batch.

use crate::atom::{simplify_keep, weaken, ConstrainedAtom, Overlap, Weakened};
use crate::bounds::ArgBounds;
use crate::program::{Clause, ClauseId, ConstrainedDatabase};
// The blind rewrite is the declarative spec: it lives with the oracles.
pub use crate::semantics::rewrite_for_deletion;
use crate::tp::{
    derive, derive_combo, propagate, Candidate, Derivation, Engine, EngineStats, FixpointConfig,
    FixpointError, FixpointStats, Gate, Operator, Split,
};
use crate::view::{EntryId, MaterializedView, SupportMode};
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{
    satisfiable_with, Constraint, DomainResolver, SolverConfig, Term, Truth, ValueSet, VarGen,
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
    /// Candidates dismissed by the argument-bounds pre-check, without
    /// tying or a solver call: (entry, request) pairs of `Del`, (entry,
    /// region) pairs of the over-deletion and of the rederivation seed,
    /// (derived atom, region) and (fact clause, region) pairs of the
    /// rederivation, (clause, `Del` atom) pairs of the `P'` rewrite.
    pub prefiltered: usize,
    /// Entries and fact clauses the bounds selectors visited: the view
    /// entries of `Del`, the over-deletion and the rederivation seed,
    /// and the fact clauses `P''` takes from the database's index.
    pub selected: usize,
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
    /// The unfolding runs over a scratch copy of the view, so there the
    /// entry budget counts the view's entries plus `P_OUT`'s.
    Budget(FixpointError),
    /// A predicate of the database or the view already carries the
    /// marker the `P_OUT` unfolding reserves for its own predicates; the
    /// deletion is refused before anything changes.
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
/// the payoff — a *single* rederivation fixpoint closes the view under
/// `P'` rewritten with the whole `Del` set, seeded from the entries whose
/// argument bounds meet a `P_OUT` region. Sequential single-atom deletion
/// builds `P'`, selects that seed and runs the rederivation rounds once
/// per request; the batch does each once total.
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
        joins: FixpointStats::default(),
    };
    let over = run.over_delete(db, view, gen, deletions)?;
    if over.del.is_empty() {
        return Ok(run.stats);
    }
    let program = run.rederivation_program(db, &over.del, &over.regions, gen);
    let seed = rederivation_seed(&program, view, &over.regions, &mut run.stats);
    run.rederive(&program, view, gen, over.regions, seed)?;

    // ---- Hygiene: drop weakened entries that became unsolvable ------------
    // (those the simplifier proved false went in step 2).
    for id in over.touched {
        if !view.is_live(id) {
            continue;
        }
        if run.unsat(&view.entry(id).atom.constraint) {
            view.remove(id);
            run.stats.removed += 1;
        }
    }
    run.stats.index_probes = run.joins.index_probes;
    run.stats.candidates_scanned = run.joins.candidates_scanned;
    Ok(run.stats)
}

/// One `P_OUT` region with its argument bounds, read once: every entry
/// scan, derived atom and fact clause is checked against the bounds
/// before it is tied to the region and handed to the solver.
struct Region {
    atom: ConstrainedAtom,
    bounds: ArgBounds,
}

/// The `P_OUT` regions by predicate.
type Regions = FxHashMap<Arc<str>, Vec<Region>>;

/// What over-deletion (`Del`, steps 1 and 2) leaves for rederivation.
struct OverDeletion {
    /// The `Del` set; empty when the requests hit nothing in the view.
    del: Vec<ConstrainedAtom>,
    regions: Regions,
    /// The entries step 2 weakened.
    touched: Vec<EntryId>,
}

/// The context and counters of one Extended DRed run.
struct Run<'a> {
    resolver: &'a dyn DomainResolver,
    config: &'a FixpointConfig,
    stats: ExtDredStats,
    /// Join counters of the unfolding and the rederivation.
    joins: FixpointStats,
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
        if del.is_empty() {
            return Ok(OverDeletion {
                del,
                regions: Regions::default(),
                touched: Vec::new(),
            });
        }

        // ---- Step 1: unfold P_OUT ----------------------------------------
        let pout = self.unfold(db, view, gen, &del)?;
        self.stats.pout_atoms = pout.len();

        // ---- Step 2: over-delete to M' ------------------------------------
        let mut regions = Regions::default();
        for atom in pout {
            let bounds = ArgBounds::of(&atom);
            regions
                .entry(atom.pred.clone())
                .or_default()
                .push(Region { atom, bounds });
        }
        let mut touched: Vec<EntryId> = Vec::new();
        for (pred, pouts) in &regions {
            // (entry, region) pairs whose bounds meet, grouped by entry
            // with each entry's regions in P_OUT order.
            let mut met: Vec<(EntryId, usize)> = Vec::new();
            for (r, region) in pouts.iter().enumerate() {
                let stats = &mut self.stats;
                let ids = view.candidates(
                    pred,
                    &region.bounds,
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
                    .map(|&(_, r)| (&pouts[r].atom, atom.args.as_slice()));
                match self.weaken(&atom.constraint, ties, gen) {
                    Weakened::Unchanged => continue,
                    Weakened::To(c, _) => {
                        view.replace_constraint(id, c);
                        touched.push(id);
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
        Ok(OverDeletion {
            del,
            regions,
            touched,
        })
    }

    /// Step 1, `P_OUT`: the least fixpoint of "exactly one child from the
    /// previous layer, the rest from `M`", as one `T_P` run of the
    /// over-deletion program (see [`over_deletion_program`]) over a
    /// scratch clone of `view` whose first delta is `Del` under marked
    /// predicates. Each program rule marks one position and only marked
    /// atoms ever enter the delta, so every other position draws from
    /// `M`; plain-mode `insert` drops a canonical duplicate; `T_P`
    /// admission drops an unsolvable derivation. Returns `Del` as given,
    /// then the unfolded atoms in derivation order, unmarked. The scratch is gone
    /// before the caller weakens `view`, so none of its pages stay
    /// shared.
    fn unfold(
        &mut self,
        db: &ConstrainedDatabase,
        view: &MaterializedView,
        gen: &mut VarGen,
        del: &[ConstrainedAtom],
    ) -> Result<Vec<ConstrainedAtom>, DredError> {
        let program = over_deletion_program(db, view)?;
        let mut scratch = view.clone();
        let mut delta: Vec<EntryId> = Vec::with_capacity(del.len());
        for d in del {
            let atom = ConstrainedAtom {
                pred: mark(&d.pred, db, view)?,
                ..d.clone()
            };
            delta.extend(scratch.insert(atom, None, Vec::new()));
        }
        let unfolded = scratch.entry_slots();
        *scratch.var_gen_mut() = std::mem::take(gen);
        let mut joins = FixpointStats::default();
        let result = propagate(
            &program,
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
        self.joins.absorb(&joins);
        let mut pout = del.to_vec();
        pout.extend((unfolded..scratch.entry_slots()).map(|id| {
            let atom = &scratch.entry(id).atom;
            ConstrainedAtom {
                pred: Arc::from(&atom.pred[MARK.len()..]),
                args: atom.args.clone(),
                constraint: atom.constraint.clone(),
            }
        }));
        Ok(pout)
    }

    /// Step 3: rederive within the `P_OUT` regions — `T_{P''} ↑ ω (M')`,
    /// the shared round driver over `program` (see
    /// [`Run::rederivation_program`]) with the region gate in place of
    /// the operator's, started from `seed` (see [`rederivation_seed`]).
    fn rederive(
        &mut self,
        program: &ConstrainedDatabase,
        view: &mut MaterializedView,
        gen: &mut VarGen,
        regions: Regions,
        mut seed: Vec<EntryId>,
    ) -> Result<(), DredError> {
        let gate = RederiveGate {
            regions: Arc::new(regions),
            solver: self.config.solver.clone(),
        };
        let before = view.len();
        // Constrained facts (empty-body clauses) can themselves restore
        // deleted regions — e.g. Example 4's independent `A(X) <- X >= 3`.
        let mut facts = EngineStats::default();
        for (_, clause) in program.clauses() {
            if !clause.body.is_empty() {
                continue;
            }
            let restored = derive(clause, &[], gen)
                .and_then(|d| gate.restores(d.atom, self.resolver, gen, &mut facts));
            if let Some(id) = restored.and_then(|atom| view.insert(atom, None, vec![])) {
                seed.push(id);
            }
        }
        let engine = Engine {
            db: program,
            resolver: self.resolver,
            config: self.config,
            gate,
        };
        let rederived = engine.run(view, gen, seed).map_err(DredError::Budget)?;
        // Rederivation only inserts.
        self.stats.rederived = view.len() - before;
        self.stats.solver_calls += facts.solver_calls + rederived.solver_calls;
        self.stats.prefiltered += facts.prefiltered + rederived.prefiltered;
        self.joins.absorb(&rederived.fixpoint);
        Ok(())
    }

    /// The program rederivation runs, `P''`: the clauses of the rewritten
    /// database `P'` that can restore anything. A rule can only if its
    /// head predicate lost a region; a constrained fact only if, further,
    /// its head bounds meet one of them. Everything else of `P'` is left
    /// out rather than cloned, so building the program costs what the
    /// over-deleted predicates' clauses cost, not what `P` does. Clause
    /// numbers are the originals.
    ///
    /// The rewrite is [`rewrite_for_deletion`] through the weakening rule
    /// ([`weaken`]): a `not(Del-region)` is conjoined onto a clause only
    /// if the region *overlaps* the clause's constraint built so far —
    /// excluding a disjoint region excludes nothing (the same rule
    /// Algorithm 3 builds `Add` by) — and a clause the simplifier proves
    /// false is left out: it can restore nothing. The blind rewrite is
    /// the declarative spec and
    /// stays as the oracle; this one keeps the executable clauses small.
    /// The distinction is what makes *batched* deletion viable: a batch's
    /// `Del` holds every request's regions, and conjoining all of them
    /// onto every clause of a hot predicate makes each rederivation solver
    /// call case-split over a product of `not()` blocks — cost exponential
    /// in the batch size. Gated, each clause keeps only the regions it can
    /// actually lose, which is what the equivalent sequence of single-atom
    /// runs would have confronted one at a time.
    fn rederivation_program(
        &mut self,
        db: &ConstrainedDatabase,
        del: &[ConstrainedAtom],
        regions: &Regions,
        gen: &mut VarGen,
    ) -> ConstrainedDatabase {
        let del: Vec<(&ConstrainedAtom, ArgBounds)> =
            del.iter().map(|d| (d, ArgBounds::of(d))).collect();
        let mut cids: Vec<ClauseId> = db
            .rules()
            .filter(|(_, rule)| regions.contains_key(&rule.head_pred))
            .map(|(cid, _)| cid)
            .collect();
        // The facts whose head bounds meet a region of their predicate,
        // from the database's interval index; every other fact is
        // dismissed against each of the predicate's regions.
        for (pred, head_regions) in regions {
            let mut met: Vec<ClauseId> = head_regions
                .iter()
                .flat_map(|r| db.facts_meeting(pred, &r.bounds, &mut self.stats.selected))
                .collect();
            met.sort_unstable();
            met.dedup();
            self.stats.prefiltered += (db.fact_count(pred) - met.len()) * head_regions.len();
            cids.extend(met);
        }
        cids.sort_unstable();
        let mut out = ConstrainedDatabase::new();
        for cid in cids {
            let clause = db.clause(cid);
            let mut ties = Vec::new();
            for (d, bounds) in del.iter().filter(|(d, _)| d.pred == clause.head_pred) {
                // The conjoined not() blocks leave the head's bounds as
                // the original clause's.
                if bounds.meets(&clause.head_args, &clause.constraint) {
                    ties.push((*d, clause.head_args.as_slice()));
                } else {
                    self.stats.prefiltered += 1;
                }
            }
            // Every derivation through the clause satisfies the clause
            // constraint, so a region disjoint from it can never be
            // produced: the weakening conjoins no not() for it.
            match self.weaken(&clause.constraint, ties, gen) {
                Weakened::Unchanged => out.push_numbered(cid, clause.clone()),
                Weakened::To(constraint, _) => out.push_numbered(
                    cid,
                    Clause {
                        constraint,
                        ..clause.clone()
                    },
                ),
                // Nothing derived through it survives: it restores nothing.
                Weakened::Empty => {}
            }
        }
        out
    }
}

/// The reserved predicate marker of the over-deletion program: `°p`
/// holds the `P_OUT` atoms of `p`.
const MARK: &str = "°";

/// `°pred`, refused if `pred` already carries the marker or the
/// database or view already uses the marked name: the unfolding would
/// join that predicate's entries as `P_OUT` atoms.
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
/// each rule `h ← b1,…,bn` of `db` and each position `i`,
/// `°h ← b1,…,°bi,…,bn`, in `db` order, then position order (the order
/// the round driver's splits come in). Facts emit nothing.
fn over_deletion_program(
    db: &ConstrainedDatabase,
    view: &MaterializedView,
) -> Result<ConstrainedDatabase, DredError> {
    let mut program = ConstrainedDatabase::new();
    for (_, rule) in db.rules() {
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

/// The delta rederivation starts from: per rule of `program` and per
/// body atom, the entries whose argument bounds meet some `P_OUT` region
/// of the head predicate at every position where the body atom and the
/// head share a variable (a body atom sharing none contributes all its
/// entries). A derivation can restore instances inside a region only if
/// its head does, and a shared variable carries the child's value to the
/// head — so *every* child of a restoring derivation passes this filter,
/// at least one of them is in the delta, and semi-naive enumeration finds
/// the derivation. Ascending ids, like the live-entry scan this replaces.
fn rederivation_seed(
    program: &ConstrainedDatabase,
    view: &MaterializedView,
    regions: &Regions,
    stats: &mut ExtDredStats,
) -> Vec<EntryId> {
    let mut seed: Vec<EntryId> = Vec::new();
    for (_, clause) in program.clauses() {
        // Every clause of the program heads a predicate with regions.
        let head_regions = &regions[&clause.head_pred];
        for body_atom in &clause.body {
            // (body position, head position) pairs naming one variable.
            let shared: Vec<(usize, usize)> = body_atom
                .args
                .iter()
                .enumerate()
                .filter_map(|(k, t)| Some((k, t.as_var()?)))
                .flat_map(|(k, v)| {
                    clause
                        .head_args
                        .iter()
                        .enumerate()
                        .filter(move |(_, t)| t.as_var() == Some(v))
                        .map(move |(h, _)| (k, h))
                })
                .collect();
            if shared.is_empty() {
                seed.extend_from_slice(view.entries_for_pred(&body_atom.pred));
                continue;
            }
            for region in head_regions {
                if region.atom.args.len() != clause.head_args.len() {
                    continue;
                }
                let mut sets = vec![ValueSet::All; body_atom.args.len()];
                for &(k, h) in &shared {
                    sets[k] = sets[k].intersect(region.bounds.at(h));
                }
                seed.extend(view.candidates(
                    &body_atom.pred,
                    &ArgBounds::from_sets(sets),
                    &mut stats.prefiltered,
                    &mut stats.selected,
                ));
            }
        }
    }
    seed.sort_unstable();
    seed.dedup();
    seed
}

/// Rederivation's gate for the shared round driver: a derivation is kept
/// only if it can restore instances inside a `P_OUT` region of its
/// predicate (the `P''` pruning) and is solvable.
#[derive(Clone)]
struct RederiveGate {
    /// The `P_OUT` regions by predicate, shared with the pool tasks.
    regions: Arc<Regions>,
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
        stats: &mut EngineStats,
    ) -> Option<ConstrainedAtom> {
        let overlaps = self.regions.get(&atom.pred)?.iter().any(|r| {
            if !r.bounds.meets_atom(&atom) {
                stats.prefiltered += 1;
                return false;
            }
            r.atom
                .overlap(
                    &atom.args,
                    &atom.constraint,
                    gen,
                    resolver,
                    &self.solver,
                    &mut stats.solver_calls,
                )
                .is_some()
        });
        if !overlaps {
            return None;
        }
        stats.solver_calls += 1;
        (satisfiable_with(&atom.constraint, resolver, &self.solver) != Truth::Unsat).then_some(atom)
    }
}

impl Gate for RederiveGate {
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
        let atom = self.restores(d.atom, resolver, gen, stats)?;
        // A plain view keeps no derivation metadata.
        let rederived = Derivation {
            atom,
            children_args: Vec::new(),
        };
        Some((None, Vec::new(), rederived))
    }
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
    mod seed_filter {
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

        /// `M'` closed under `P'` from the region-filtered seed, or from
        /// every live entry (what the seed replaced).
        fn rederived(
            db: &ConstrainedDatabase,
            base: &MaterializedView,
            deletions: &[ConstrainedAtom],
            every_live_entry: bool,
        ) -> MaterializedView {
            let mut view = base.clone();
            let mut gen = std::mem::take(view.var_gen_mut());
            let config = FixpointConfig::default();
            let mut run = Run {
                resolver: &NoDomains,
                config: &config,
                stats: ExtDredStats::default(),
                joins: FixpointStats::default(),
            };
            let over = run
                .over_delete(db, &mut view, &mut gen, deletions)
                .expect("over-deletion");
            if !over.del.is_empty() {
                let program = run.rederivation_program(db, &over.del, &over.regions, &mut gen);
                let seed = if every_live_entry {
                    view.live_entries().map(|(id, _)| id).collect()
                } else {
                    rederivation_seed(&program, &view, &over.regions, &mut ExtDredStats::default())
                };
                run.rederive(&program, &mut view, &mut gen, over.regions, seed)
                    .expect("rederivation");
            }
            *view.var_gen_mut() = gen;
            view
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64),
                failure_persistence: None,
                ..ProptestConfig::default()
            })]

            #[test]
            fn region_seed_rederives_what_the_live_seed_does((db, deletions) in workload()) {
                let base = build_plain(&db);
                let filtered = rederived(&db, &base, &deletions, false);
                let full = rederived(&db, &base, &deletions, true);
                prop_assert!(
                    filtered.syntactically_equal(&full),
                    "seeds diverged on\n{db}\ndeleting {deletions:?}\nregion seed:\n{filtered}\nlive seed:\n{full}"
                );
            }
        }
    }
}
