//! The fixpoint operators `T_P` (Gabbrielli–Levi, §2.3) and `W_P` (§4).
//!
//! Both map interpretations (sets of constrained atoms) to
//! interpretations by instantiating clauses with standardized-apart view
//! entries and conjoining the resulting constraints. Their single
//! difference is the paper's central observation: `T_P` requires the
//! combined constraint to be *solvable at evaluation time*, so external
//! domain updates invalidate the view; `W_P` omits the check, making the
//! materialized view a purely syntactic object that never needs
//! maintenance under external change (Theorem 4).
//!
//! Iteration is semi-naive under duplicate semantics: a derivation is new
//! iff its support is new (Lemma 1), so each derivation is constructed at
//! most once.
//!
//! # The indexed join engine
//!
//! Clause bodies are joined against the view through two persistent,
//! incrementally-maintained structures owned by [`MaterializedView`]
//! (updated in `insert`/`remove`, never rebuilt per round):
//!
//! * **per-predicate live lists** — the ids of all live entries of a
//!   predicate, and
//! * a **constant-argument discrimination index** — `(pred, position,
//!   value) → ids` for entries with a constant at that argument
//!   position. An entry with a variable there can match any value, so a
//!   probe also returns every entry the position's interval index files.
//!
//! `collect_combos` enumerates the combinations for one `(clause,
//! delta-position)` pair by visiting the delta position first and
//! propagating the constant bindings it implies into
//! [`MaterializedView::probe`] lookups for the remaining positions.
//! Combinations whose constants conflict are skipped before any renaming
//! or constraint construction — exactly the combinations `derive` would
//! reject as syntactically false through its equality union-find, so the
//! view contents are unchanged under both `T_P` and `W_P` (which must
//! keep unsolvable-but-not-syntactically-false atoms).
//!
//! The semi-naive **old/delta/all invariant**: a round's delta is the
//! list of ids the previous round inserted (or the run's seed), grouped
//! by predicate and ascending within each group. Each clause's
//! delta-carrying body positions are ordered by ascending estimated
//! fan-out into a `delta_plan`; the position of rank `k` serves as the
//! delta of one split, in which positions of rank `< k` draw from the
//! view's non-delta entries ("old": a binary search of that predicate's
//! delta), rank `k` from the delta, and every other position from all
//! entries ("all") — so every combination involving at least one delta
//! entry is enumerated exactly once per round, without building
//! per-round sets or rescanning the view.
//!
//! # One round driver, two executors
//!
//! `T_P`/`W_P` propagation and Extended DRed's rederivation are the same
//! loop — plan the round's `(clause, delta-position)` splits
//! (`plan_splits`), enumerate and gate each split (`run_split`), fold
//! the surviving candidates into the view in plan order — and run it
//! through the same `Engine`. An engine contributes only its `Gate`:
//! support-dedup → `derive` → operator admission for propagation;
//! `derive` → "overlaps a `P_OUT` region" → solvable for rederivation
//! (in `delete_dred`). Extended DRed's `P_OUT` unfolding is neither a
//! third engine nor a mode of one: it is a *program*, the over-deletion
//! rules `°h ← b1,…,°bi,…,bn`, that `propagate` runs with the `T_P` gate
//! over a scratch clone of the view whose first delta is `Del` under
//! marked predicates. Every delta the driver sees is therefore a list of
//! view entries.
//!
//! A round has one discipline: every split enumerates the round-start
//! view, renaming with a private variable generator started at the
//! round's base watermark, and only then are the split outputs merged
//! into the view, in plan order. Nothing is inserted while a round
//! enumerates, so the splits are mutually independent, and *who* runs
//! them is the driver's choice, made per round from what it can observe,
//! never from an option:
//!
//! * **Inline**: with no [`FixpointConfig::parallel`] pool or a 1-wide
//!   one, the caller thread calls `run_split` for each split over the
//!   view itself.
//! * **Pooled**: otherwise the view is frozen once (a handful of `Arc`
//!   bumps), every split becomes one owning [`WorkerPool`] task calling
//!   the same `run_split` over the frozen clone, and the frozen handle is
//!   dropped as soon as the tasks are back. A task panic surfaces as
//!   [`FixpointError::WorkerPanic`] before any merge.
//!
//! The two executors therefore run the same enumeration, gate it against
//! the same view and merge the same outputs in the same order: their
//! views are identical entry for entry (variable numbers included), and
//! so are their counters — including the store's copy-on-write counters,
//! since the frozen handle is gone before the first merge insert, so no
//! page the writer already owns is shared again. `insert` drops a
//! duplicate an earlier split of the round produced. Splits may reuse
//! each other's fresh variable numbers, harmlessly — `derive` renames
//! every child per derivation and all equality here (canonicalization,
//! support dedup) is renaming-insensitive; the merge bumps the live
//! generator past every split's high mark. The `engine_equivalence`
//! proptest and the `batch_equivalence` pool sweeps (widths 1/2/N) pin
//! views, stats and renderings equal across executors.

use crate::atom::ConstrainedAtom;
use crate::normalize::normalize;
use crate::pool::WorkerPool;
use crate::program::{BodyAtom, Clause, ClauseId, ConstrainedDatabase};
use crate::support::{Producer, Support};
use crate::view::{EntryId, MaterializedView, SupportMode};
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{
    satisfiable_with, Constraint, DomainResolver, Lit, SolverConfig, Term, Truth, Value, Var,
    VarGen,
};
use std::fmt;
use std::sync::Arc;

/// Which operator to iterate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// Gabbrielli–Levi `T_P`: keep a derived atom only if its constraint
    /// is solvable against the resolver's current state.
    Tp,
    /// The paper's `W_P`: keep every derived atom; satisfiability is
    /// deferred to query time.
    Wp,
}

/// Budgets and knobs for fixpoint iteration.
#[derive(Debug, Clone)]
pub struct FixpointConfig {
    /// Solver budgets for the per-derivation solvability test (`T_P`).
    pub solver: SolverConfig,
    /// Maximum semi-naive rounds before giving up.
    pub max_iterations: usize,
    /// Maximum live view entries before giving up. Extended DRed's
    /// `P_OUT` unfolding runs over a scratch copy of the view, so there
    /// it counts the view's entries plus `P_OUT`'s. A sharded service
    /// applies it per writer lane: it bounds each lane's view, at build
    /// as in every batch, not the whole view.
    pub max_entries: usize,
    /// Intra-round parallelism: when set (and the pool has more than
    /// one thread), each round's independent `(clause, delta-position)`
    /// splits run as pool tasks over a frozen round-start view, with a
    /// deterministic submission-order merge — see
    /// [the module docs][self#one-round-driver-two-executors]. `None`
    /// (the default) runs every round on the caller thread.
    pub parallel: Option<ParallelFixpoint>,
}

impl Default for FixpointConfig {
    fn default() -> Self {
        FixpointConfig {
            solver: SolverConfig::default(),
            max_iterations: 512,
            max_entries: 1_000_000,
            parallel: None,
        }
    }
}

/// Intra-round parallel execution: a shared [`WorkerPool`] plus an
/// owned, thread-safe handle to the *same* domain resolver the fixpoint
/// is driven with — pool tasks run the `T_P` admission test themselves,
/// so they need a `Send + Sync` resolver they can hold across threads.
/// Callers must pass the resolver this handle wraps as the borrowed
/// resolver argument of [`fixpoint`]/`propagate`; the view service
/// guarantees that by construction.
#[derive(Clone)]
pub struct ParallelFixpoint {
    /// The pool the round's splits are submitted to (shared across
    /// writer lanes).
    pub pool: Arc<WorkerPool>,
    /// The resolver tasks admit derivations against.
    pub resolver: Arc<dyn DomainResolver + Send + Sync>,
}

impl fmt::Debug for ParallelFixpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelFixpoint")
            .field("threads", &self.pool.threads())
            .finish_non_exhaustive()
    }
}

/// Fixpoint iteration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixpointError {
    /// The iteration budget was exhausted (likely a recursive program
    /// with infinitely many derivations, such as supports around a
    /// cycle, which never reaches a fixpoint).
    IterationBudget {
        /// Rounds executed.
        iterations: usize,
    },
    /// The entry budget was exhausted.
    EntryBudget {
        /// Entries materialized.
        entries: usize,
    },
    /// A work-stealing pool task panicked mid-round. The round's merge
    /// never ran, so the view holds exactly the pre-round state; the
    /// pool's workers survive for the next batch. Surfacing this as an
    /// error (instead of re-panicking on the submitting thread) keeps
    /// the caller's locks unpoisoned — the service's normal
    /// rollback-on-error path restores every touched lane.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for FixpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixpointError::IterationBudget { iterations } => {
                write!(
                    f,
                    "fixpoint iteration budget exhausted after {iterations} rounds"
                )
            }
            FixpointError::EntryBudget { entries } => {
                write!(f, "fixpoint entry budget exhausted at {entries} entries")
            }
            FixpointError::WorkerPanic { message } => {
                write!(f, "pool worker panicked mid-round: {message}")
            }
        }
    }
}

impl std::error::Error for FixpointError {}

/// Statistics of one fixpoint run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FixpointStats {
    /// Semi-naive rounds executed.
    pub iterations: usize,
    /// Derivations constructed (before dedup/solvability filtering).
    pub derivations_tried: usize,
    /// Derivations discarded by the `T_P` solvability check.
    pub pruned_unsolvable: usize,
    /// Derivations discarded as syntactically false.
    pub pruned_syntactic: usize,
    /// Join-position lookups answered by the constant-argument
    /// discrimination index (as opposed to full per-predicate scans).
    pub index_probes: usize,
    /// Candidate entries scanned across all join-position lookups. A
    /// blind cartesian enumeration scans the full per-predicate lists at
    /// every position; the index keeps this near the number of
    /// derivations that actually exist.
    pub candidates_scanned: usize,
}

impl FixpointStats {
    /// Accumulates another run's counters (used when a batch is split
    /// across independent shards and each part reports separately).
    pub fn absorb(&mut self, o: &FixpointStats) {
        self.iterations += o.iterations;
        self.derivations_tried += o.derivations_tried;
        self.pruned_unsolvable += o.pruned_unsolvable;
        self.pruned_syntactic += o.pruned_syntactic;
        self.index_probes += o.index_probes;
        self.candidates_scanned += o.candidates_scanned;
    }
}

/// A candidate derivation, before filtering.
pub(crate) struct Derivation {
    pub atom: ConstrainedAtom,
    pub children_args: Vec<Vec<Term>>,
}

/// Builds one derivation: `clause` applied to `children` (one per body
/// atom), standardizing everything apart from `gen`. Returns `None` if
/// the combined constraint is syntactically false (which includes arity
/// mismatches and constant conflicts).
///
/// `derive` never constructs supports — the caller assembles one from
/// the children's (`Arc`-shared) supports only when the view tracks
/// them, so plain-mode iteration allocates none at all.
pub(crate) fn derive(
    clause: &Clause,
    children: &[&ConstrainedAtom],
    gen: &mut VarGen,
) -> Option<Derivation> {
    debug_assert_eq!(clause.body.len(), children.len());
    let rc = clause.rename(gen);
    let mut constraint = rc.constraint;
    let mut children_args: Vec<Vec<Term>> = Vec::with_capacity(children.len());
    for (body_atom, child) in rc.body.iter().zip(children) {
        if body_atom.args.len() != child.args.len() {
            return None; // arity mismatch: no derivation
        }
        let mut map = FxHashMap::default();
        let rchild = child.rename_into(&mut map, gen);
        constraint = constraint.and(rchild.constraint);
        for (ca, ba) in rchild.args.iter().zip(&body_atom.args) {
            if ca != ba {
                constraint = constraint.and_lit(Lit::Eq(ca.clone(), ba.clone()));
            }
        }
        children_args.push(rchild.args);
    }
    // Normalize: propagate equalities, preferring head-arg variables as
    // representatives, then simplify.
    let mut order: Vec<Var> = Vec::new();
    for t in &rc.head_args {
        t.collect_vars(&mut order);
    }
    let (subst, constraint) = normalize(&constraint, &order).ok()?;
    let head_args: Vec<Term> = rc.head_args.iter().map(|t| t.substitute(&subst)).collect();
    let children_args = children_args
        .into_iter()
        .map(|args| args.into_iter().map(|t| t.substitute(&subst)).collect())
        .collect();
    Some(Derivation {
        atom: ConstrainedAtom {
            pred: rc.head_pred,
            args: head_args,
            constraint,
        },
        children_args,
    })
}

/// Computes the least fixpoint `op ↑ ω (∅)` of the database: the
/// constrained facts (empty-body clauses) form the first delta.
pub fn fixpoint(
    db: &ConstrainedDatabase,
    resolver: &dyn DomainResolver,
    op: Operator,
    mode: SupportMode,
    config: &FixpointConfig,
) -> Result<(MaterializedView, FixpointStats), FixpointError> {
    let mut view = MaterializedView::new(mode, db.fresh_gen());
    let mut stats = FixpointStats::default();
    let mut delta: Vec<EntryId> = Vec::new();
    for (cid, clause) in db.clauses() {
        if !clause.body.is_empty() {
            continue;
        }
        stats.derivations_tried += 1;
        let Some(d) = derive(clause, &[], view.var_gen_mut()) else {
            stats.pruned_syntactic += 1;
            continue;
        };
        if !admit(op, &d.atom.constraint, resolver, &config.solver, &mut stats) {
            continue;
        }
        let support =
            matches!(mode, SupportMode::WithSupports).then(|| Support::leaf(Producer::Clause(cid)));
        if let Some(id) = view.insert(d.atom, support, d.children_args) {
            delta.push(id);
        }
    }
    propagate(db, resolver, op, &mut view, delta, config, &mut stats)?;
    Ok((view, stats))
}

/// A round's delta grouped by predicate (O(|delta|), never a view
/// rescan). Every list ascends: each seed does, and every later delta
/// is the ids the previous merge appended — which is what lets the
/// "old" exclusion binary-search it.
type DeltaByPred = FxHashMap<Arc<str>, Vec<EntryId>>;

fn group_by_pred(view: &MaterializedView, ids: &[EntryId]) -> DeltaByPred {
    debug_assert!(ids.is_sorted(), "a round's delta ascends");
    let mut out = DeltaByPred::default();
    for &id in ids {
        out.entry(view.entry(id).atom.pred.clone())
            .or_default()
            .push(id);
    }
    out
}

struct ComboCtx<'a> {
    view: &'a MaterializedView,
    body: &'a [BodyAtom],
    dpos: usize,
    /// The delta position's candidates.
    delta: &'a [EntryId],
    /// Per body position, the delta entries it must skip: the delta of
    /// its predicate at the split's `older` positions, else nothing.
    excluded: Vec<&'a [EntryId]>,
    /// Visit order of body positions: the delta position first (it is
    /// the most selective source and its bindings prune every other
    /// position), then the rest by ascending estimated probe
    /// cardinality (see `collect_combos`). The old/delta/all split
    /// is decided by position, not visit order, so the enumerated
    /// combination set is unchanged.
    order: &'a [usize],
}

/// Extends `bindings` by matching the child's argument tuple against the
/// body atom's; `false` exactly when two constants conflict — the cases
/// `derive`'s equality union-find would reject as syntactically false,
/// so skipping them changes no view content under either operator.
fn bind_child(
    body: &BodyAtom,
    child_args: &[Term],
    bindings: &mut FxHashMap<Var, Value>,
    trail: &mut Vec<Var>,
) -> bool {
    if body.args.len() != child_args.len() {
        return false; // arity mismatch: derive would refuse anyway
    }
    for (b, c) in body.args.iter().zip(child_args) {
        match (b, c) {
            (Term::Const(bv), Term::Const(cv)) if bv != cv => return false,
            (Term::Const(_), _) => {}
            (Term::Var(u), Term::Const(cv)) => match bindings.get(u) {
                Some(v) if v != cv => return false,
                Some(_) => {}
                None => {
                    bindings.insert(*u, cv.clone());
                    trail.push(*u);
                }
            },
            // Variable or field child arguments carry no constant
            // information; the derived constraint decides.
            _ => {}
        }
    }
    true
}

fn unwind(bindings: &mut FxHashMap<Var, Value>, trail: &mut Vec<Var>, mark: usize) {
    for v in trail.drain(mark..) {
        bindings.remove(&v);
    }
}

fn combos_rec(
    ctx: &ComboCtx<'_>,
    stats: &mut FixpointStats,
    bindings: &mut FxHashMap<Var, Value>,
    trail: &mut Vec<Var>,
    combo: &mut Vec<EntryId>,
    out: &mut Vec<EntryId>,
) {
    let depth = combo.len();
    if depth == ctx.body.len() {
        // `combo` is in visit order; emit in body-position order.
        let start = out.len();
        out.resize(start + combo.len(), 0);
        for (d, &pos) in ctx.order.iter().enumerate() {
            out[start + pos] = combo[d];
        }
        return;
    }
    let i = ctx.order[depth];
    let atom = &ctx.body[i];
    let mark = trail.len();
    if i == ctx.dpos {
        stats.candidates_scanned += ctx.delta.len();
        // One delta list holds one predicate's entries, so the liveness
        // set is resolved once, not per candidate.
        let live = ctx.view.live_set(&atom.pred);
        for &id in ctx.delta {
            let e = ctx.view.entry(id);
            if live.is_some_and(|s| s.contains_key(&id))
                && bind_child(atom, &e.atom.args, bindings, trail)
            {
                combo.push(id);
                combos_rec(ctx, stats, bindings, trail, combo, out);
                combo.pop();
            }
            unwind(bindings, trail, mark);
        }
        return;
    }
    // Probe the constant-argument index with everything known here: the
    // body atom's own constants plus bindings implied by already-chosen
    // children. Ground facts thus join by lookup instead of scan.
    let cands = ctx.view.probe_with(
        &atom.pred,
        atom.args.iter().map(|t| match t {
            Term::Const(v) => Some(v),
            Term::Var(u) => bindings.get(u),
            Term::Field(..) => None,
        }),
    );
    if cands.discriminated() {
        stats.index_probes += 1;
    }
    stats.candidates_scanned += cands.len();
    // Old/delta/all split: positions already consumed as delta by
    // earlier splits of the plan draw from non-delta entries, the
    // remaining positions from all entries — each combination
    // enumerated exactly once per round.
    let excluded = ctx.excluded[i];
    for id in cands.iter() {
        if excluded.binary_search(&id).is_ok() {
            continue;
        }
        let e = ctx.view.entry(id);
        if bind_child(atom, &e.atom.args, bindings, trail) {
            combo.push(id);
            combos_rec(ctx, stats, bindings, trail, combo, out);
            combo.pop();
        }
        unwind(bindings, trail, mark);
    }
}

/// The per-clause, per-round delta plan, filled into the caller-held
/// scratch buffer `plan`: the body positions whose predicate carries
/// delta entries this round, ordered by ascending *estimated fan-out* —
/// the number of delta entries the position would seed the enumeration
/// with (ties fall back to clause order, keeping the plan
/// deterministic).
///
/// The semi-naive decomposition needs every planned position to serve
/// as the delta exactly once, but the *order* of the splits is free:
/// for the split at rank `k`, positions of rank `< k` draw from the
/// round's non-delta ("old") entries and everything else from all
/// entries, which keeps the splits disjoint and exhaustive under
/// any permutation. Leading with the smallest delta list means the
/// cheapest, most selective source drives the first (and therefore
/// every "all"-sourced) split. The enumerated combination set is
/// identical under any order, which the `engine_equivalence` proptest
/// pins.
fn delta_plan(body: &[BodyAtom], deltas: &DeltaByPred, plan: &mut Vec<usize>) {
    plan.clear();
    plan.extend((0..body.len()).filter(|i| deltas.contains_key(&body[*i].pred)));
    // Bodies are a handful of atoms, so re-probing the map per
    // comparison is cheaper than materializing a keyed scratch vector.
    plan.sort_unstable_by_key(|&i| (deltas.get(&body[i].pred).map_or(0, |d| d.len()), i));
}

/// Collects every combination of children of `split`'s clause body (see
/// [`Split`]) under the round's `deltas`. Combinations are appended to
/// `out` as flat chunks of `body.len()` entry ids, so the caller can
/// materialize, dedup, derive and insert without this function holding
/// any borrow of the view.
///
/// Join planning: the delta position is always visited first (its
/// bindings prune every later position), and the remaining positions
/// are visited by ascending *estimated probe cardinality* — the size of
/// the candidate list the view's constant-argument index would return
/// for the position's constant arguments with the delta position's
/// bindings folded in: a variable the delta will bind to a constant is
/// treated as bound for estimation, with the first delta entry as the
/// representative. Positions with no binding fall back to the full
/// per-predicate live count. Visiting selective positions early shrinks
/// the enumeration tree; ties fall back to clause order, keeping the
/// plan deterministic. Only the visit order changes — the enumerated
/// combination set is identical under any order, which the
/// `engine_equivalence` proptest pins.
fn collect_combos(
    view: &MaterializedView,
    split: &Split<'_>,
    deltas: &DeltaByPred,
    stats: &mut FixpointStats,
    out: &mut Vec<EntryId>,
) {
    let (body, dpos) = (split.clause.body.as_slice(), split.dpos);
    let delta = deltas[&body[dpos].pred].as_slice();
    let mut order: Vec<usize> = Vec::with_capacity(body.len());
    order.push(dpos);
    // Bindings the delta position will impose once visited, used purely
    // for cardinality estimation of the remaining positions (a partial
    // map on conflict is fine — estimates steer order, never content).
    let mut est_bindings: FxHashMap<Var, Value> = FxHashMap::default();
    let mut est_trail: Vec<Var> = Vec::new();
    if let Some(&first) = delta.first() {
        let args = &view.entry(first).atom.args;
        let _ = bind_child(&body[dpos], args, &mut est_bindings, &mut est_trail);
    }
    let mut rest: Vec<(usize, usize)> = (0..body.len())
        .filter(|&i| i != dpos)
        .map(|i| {
            let est = view
                .probe_with(
                    &body[i].pred,
                    body[i].args.iter().map(|t| match t {
                        Term::Const(v) => Some(v),
                        Term::Var(u) => est_bindings.get(u),
                        Term::Field(..) => None,
                    }),
                )
                .len();
            (est, i)
        })
        .collect();
    rest.sort_unstable();
    order.extend(rest.into_iter().map(|(_, i)| i));
    let ctx = ComboCtx {
        view,
        body,
        dpos,
        delta,
        excluded: (0..body.len())
            .map(|i| {
                if split.older.contains(&i) {
                    deltas[&body[i].pred].as_slice()
                } else {
                    &[]
                }
            })
            .collect(),
        order: &order,
    };
    let mut bindings = FxHashMap::default();
    let mut trail = Vec::new();
    let mut combo = Vec::with_capacity(body.len());
    combos_rec(&ctx, stats, &mut bindings, &mut trail, &mut combo, out);
}

/// Semi-naive propagation: closes `view` under the operator, starting
/// from `delta` (ids of entries not yet combined with the rest). This is
/// both the fixpoint engine's inner loop and the upward-propagation step
/// of the insertion algorithm (`P_ADD`, Algorithm 3).
pub(crate) fn propagate(
    db: &ConstrainedDatabase,
    resolver: &dyn DomainResolver,
    op: Operator,
    view: &mut MaterializedView,
    delta: Vec<EntryId>,
    config: &FixpointConfig,
    stats: &mut FixpointStats,
) -> Result<(), FixpointError> {
    // The var gen leaves the view for the duration of the run so that
    // `derive` can standardize apart while the child atoms stay borrowed
    // from the view.
    let mut gen = std::mem::take(view.var_gen_mut());
    let engine = Engine {
        db,
        resolver,
        config,
        gate: OperatorGate {
            op,
            solver: config.solver.clone(),
        },
    };
    let result = engine.run(view, &mut gen, delta);
    *view.var_gen_mut() = gen;
    stats.absorb(&result?.fixpoint);
    Ok(())
}

/// What an engine plugs into the shared round driver ([`Engine`]): which
/// enumerated combinations become view entries. Everything else — the
/// program (Extended DRed hands the driver only the clauses that can
/// rederive), planning, enumeration, the
/// choice of executor, the merge — is the driver's and identical for
/// every engine. A gate is cloned into each pool task, so it owns
/// (`Arc`-shares) whatever it reads.
pub(crate) trait Gate: Clone + Send + 'static {
    /// Decides one combination: `chunk` holds one entry id of `view` —
    /// the round-start view, or a frozen clone of it — per body atom of
    /// `split.clause`. Returns what to insert, or `None` to drop the
    /// combination.
    fn admit(
        &self,
        view: &MaterializedView,
        split: &Split<'_>,
        chunk: &[EntryId],
        resolver: &dyn DomainResolver,
        gen: &mut VarGen,
        stats: &mut EngineStats,
    ) -> Option<Candidate>;
}

/// A combination that passed its engine's gate, ready for
/// `MaterializedView::insert_derived`: the support, the ids of the
/// entries its children name (empty without a support) and the
/// derivation.
pub(crate) type Candidate = (Option<Support>, Vec<EntryId>, Derivation);

/// Counters of one driver run (or of one split of it): the join
/// engine's, plus the solver calls and bounds pre-check dismissals a
/// gate chooses to report (Extended DRed does).
#[derive(Default)]
pub(crate) struct EngineStats {
    pub fixpoint: FixpointStats,
    pub solver_calls: usize,
    pub prefiltered: usize,
}

/// The `T_P`/`W_P` gate: support-level dedup, `derive`, then the
/// operator's admission test.
#[derive(Clone)]
struct OperatorGate {
    op: Operator,
    solver: SolverConfig,
}

impl Gate for OperatorGate {
    fn admit(
        &self,
        view: &MaterializedView,
        split: &Split<'_>,
        chunk: &[EntryId],
        resolver: &dyn DomainResolver,
        gen: &mut VarGen,
        stats: &mut EngineStats,
    ) -> Option<Candidate> {
        let stats = &mut stats.fixpoint;
        stats.derivations_tried += 1;
        // Support-level dedup before paying for construction; the
        // support is assembled once, from Arc-shared child supports,
        // and reused for the insert.
        let (support, children) = if view.mode() == SupportMode::WithSupports {
            let s = Support::node(
                Producer::Clause(split.cid),
                chunk
                    .iter()
                    .map(|&id| view.entry(id).support.clone().expect("WithSupports entry"))
                    .collect(),
            );
            if view.entry_by_support(&s).is_some() {
                return None;
            }
            (Some(s), chunk.to_vec())
        } else {
            (None, Vec::new())
        };
        let Some(d) = derive_combo(view, split.clause, chunk, gen) else {
            stats.pruned_syntactic += 1;
            return None;
        };
        admit(self.op, &d.atom.constraint, resolver, &self.solver, stats)
            .then_some((support, children, d))
    }
}

/// [`derive`] over a combination of view entries.
pub(crate) fn derive_combo(
    view: &MaterializedView,
    clause: &Clause,
    chunk: &[EntryId],
    gen: &mut VarGen,
) -> Option<Derivation> {
    let children: Vec<&ConstrainedAtom> = chunk.iter().map(|&id| &view.entry(id).atom).collect();
    derive(clause, &children, gen)
}

/// One `(clause, delta-position)` split of a round: body position
/// `dpos` draws from the round's delta entries of that position's
/// predicate, the positions in `older` — the delta of earlier splits of
/// the same clause's [`delta_plan`] — from the *non-delta* entries
/// ("old"), and every other position from all entries ("all").
pub(crate) struct Split<'a> {
    pub cid: ClauseId,
    pub clause: &'a Clause,
    dpos: usize,
    older: Vec<usize>,
}

/// The round's splits in sequential iteration order: clauses in
/// database order, each clause's positions in [`delta_plan`] order.
/// Both executors consume this list front to back, which is what makes
/// their output identical.
fn plan_splits<'a>(db: &'a ConstrainedDatabase, deltas: &DeltaByPred) -> Vec<Split<'a>> {
    let mut splits = Vec::new();
    let mut plan = Vec::new();
    for (cid, clause) in db.rules() {
        delta_plan(&clause.body, deltas, &mut plan);
        for (k, &dpos) in plan.iter().enumerate() {
            splits.push(Split {
                cid,
                clause,
                dpos,
                older: plan[..k].to_vec(),
            });
        }
    }
    splits
}

/// What one split hands to the merge: the candidates that passed the
/// gate, in enumeration order; the split's own counters; and the high
/// mark of the variable generator it renamed with.
struct SplitOutput {
    candidates: Vec<Candidate>,
    stats: EngineStats,
    gen_high: u32,
}

/// Enumerates one split against the round-start `view` and gates every
/// combination, renaming with a private generator started at the
/// round's `base` watermark — the only place a round calls
/// [`collect_combos`]. The inline executor passes the view itself, the
/// pooled one a frozen clone.
fn run_split<G: Gate>(
    view: &MaterializedView,
    split: &Split<'_>,
    deltas: &DeltaByPred,
    resolver: &dyn DomainResolver,
    gate: &G,
    base: u32,
) -> SplitOutput {
    let mut stats = EngineStats::default();
    let mut gen = VarGen::starting_at(base);
    let mut combos: Vec<EntryId> = Vec::new();
    collect_combos(view, split, deltas, &mut stats.fixpoint, &mut combos);
    let candidates = combos
        .chunks_exact(split.clause.body.len())
        .filter_map(|chunk| gate.admit(view, split, chunk, resolver, &mut gen, &mut stats))
        .collect();
    SplitOutput {
        candidates,
        stats,
        gen_high: gen.watermark(),
    }
}

/// The one semi-naive round driver, shared by `T_P`/`W_P` propagation
/// and Extended DRed's rederivation: the engines differ only in their
/// [`Gate`]. See [the module docs][self#one-round-driver-two-executors].
pub(crate) struct Engine<'a, G> {
    pub db: &'a ConstrainedDatabase,
    pub resolver: &'a dyn DomainResolver,
    pub config: &'a FixpointConfig,
    pub gate: G,
}

impl<G: Gate> Engine<'_, G> {
    /// Closes `view` under the engine's clauses, starting from `delta`.
    /// `gen` is the view's variable generator, taken out of the view by
    /// the caller for the duration of the run.
    pub fn run(
        &self,
        view: &mut MaterializedView,
        gen: &mut VarGen,
        mut delta: Vec<EntryId>,
    ) -> Result<EngineStats, FixpointError> {
        let mut stats = EngineStats::default();
        while !delta.is_empty() {
            stats.fixpoint.iterations += 1;
            if stats.fixpoint.iterations > self.config.max_iterations {
                return Err(FixpointError::IterationBudget {
                    iterations: stats.fixpoint.iterations,
                });
            }
            let deltas = Arc::new(group_by_pred(view, &delta));
            let splits = plan_splits(self.db, &deltas);
            delta = self.round(view, gen, splits, deltas, &mut stats)?;
        }
        Ok(stats)
    }

    /// One round: runs every split over the round-start view — inline,
    /// or pooled when a pool of more than one thread is configured — and
    /// then merges the outputs into `view` in plan order; returns the
    /// inserted ids (the next round's delta).
    fn round(
        &self,
        view: &mut MaterializedView,
        gen: &mut VarGen,
        splits: Vec<Split<'_>>,
        deltas: Arc<DeltaByPred>,
        stats: &mut EngineStats,
    ) -> Result<Vec<EntryId>, FixpointError> {
        let base = gen.watermark();
        let pooled = self
            .config
            .parallel
            .as_ref()
            .filter(|par| par.pool.threads() > 1 && !splits.is_empty());
        let outputs = match pooled {
            None => splits
                .iter()
                .map(|split| run_split(view, split, &deltas, self.resolver, &self.gate, base))
                .collect(),
            Some(par) => self.run_pooled(par, view, splits, deltas, base)?,
        };
        let mut next = Vec::new();
        for out in outputs {
            self.merge(view, gen, out, stats, &mut next)?;
        }
        Ok(next)
    }

    /// The pooled executor: one owning pool task per split over a frozen
    /// clone of `view`, outputs in submission order.
    fn run_pooled(
        &self,
        par: &ParallelFixpoint,
        view: &MaterializedView,
        splits: Vec<Split<'_>>,
        deltas: Arc<DeltaByPred>,
        base: u32,
    ) -> Result<Vec<SplitOutput>, FixpointError> {
        // Pool jobs are `'static`: each owns its split and an `Arc` bump
        // of the frozen view and of the grouped delta.
        let frozen = Arc::new(view.clone());
        let tasks: Vec<_> = splits
            .into_iter()
            .map(|split| {
                let frozen = Arc::clone(&frozen);
                let deltas = Arc::clone(&deltas);
                let (cid, clause, dpos, older) =
                    (split.cid, split.clause.clone(), split.dpos, split.older);
                let resolver = Arc::clone(&par.resolver);
                let gate = self.gate.clone();
                move || {
                    let split = Split {
                        cid,
                        clause: &clause,
                        dpos,
                        older,
                    };
                    run_split(&frozen, &split, &deltas, resolver.as_ref(), &gate, base)
                }
            })
            .collect();
        let results = par.pool.run(tasks);
        // Every task has finished and dropped its handle; dropping ours
        // before the first insert leaves the store's pages exactly as
        // shared as they were at round start, so the merge copies only
        // what an inline round would.
        drop(frozen);
        // A task panic is an *error* on the submitting thread, not a
        // re-panic: nothing has been merged, so the view holds the
        // pre-round state, the caller's locks stay unpoisoned, and the
        // pool's workers survive.
        results
            .into_iter()
            .collect::<Result<Vec<SplitOutput>, _>>()
            .map_err(|payload| FixpointError::WorkerPanic {
                message: crate::pool::panic_message(payload.as_ref()),
            })
    }

    /// Folds one split's output into the live view. `insert` itself
    /// drops a candidate whose support (or, in plain mode, canonical
    /// form) an earlier split of this round already produced — the
    /// duplicates the round-start view could not show.
    fn merge(
        &self,
        view: &mut MaterializedView,
        gen: &mut VarGen,
        out: SplitOutput,
        stats: &mut EngineStats,
        next: &mut Vec<EntryId>,
    ) -> Result<(), FixpointError> {
        stats.fixpoint.absorb(&out.stats.fixpoint);
        stats.solver_calls += out.stats.solver_calls;
        stats.prefiltered += out.stats.prefiltered;
        gen.reserve_below(out.gen_high);
        for (support, children, d) in out.candidates {
            if let Some(id) = view.insert_derived(d.atom, support, d.children_args, &children) {
                next.push(id);
                if view.len() > self.config.max_entries {
                    return Err(FixpointError::EntryBudget {
                        entries: view.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The operator's admission test for a derived constraint.
fn admit(
    op: Operator,
    constraint: &Constraint,
    resolver: &dyn DomainResolver,
    solver: &SolverConfig,
    stats: &mut FixpointStats,
) -> bool {
    match op {
        Operator::Wp => true,
        Operator::Tp => {
            if satisfiable_with(constraint, resolver, solver) == Truth::Unsat {
                stats.pruned_unsolvable += 1;
                false
            } else {
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BodyAtom, Clause};
    use mmv_constraints::{CmpOp, NoDomains, Value};

    fn x() -> Term {
        Term::var(Var(0))
    }

    /// The paper's Example 5 database (ids 0-based; paper clause k =
    /// `ClauseId(k-1)`):
    /// 1. `A(X) <- X <= 3`
    /// 2. `A(X) <- B(X)`
    /// 3. `B(X) <- X <= 5`
    /// 4. `C(X) <- A(X)`
    fn example5_db() -> ConstrainedDatabase {
        ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "A",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Le, Term::int(3)),
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
                Constraint::cmp(x(), CmpOp::Le, Term::int(5)),
            ),
            Clause::new(
                "C",
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new("A", vec![x()])],
            ),
        ])
    }

    fn render(view: &MaterializedView) -> Vec<String> {
        let mut v: Vec<String> = view
            .live_entries()
            .map(|(_, e)| {
                let atom = crate::view::canonicalize(&e.atom);
                match &e.support {
                    Some(s) => format!("{atom} {s}"),
                    None => atom.to_string(),
                }
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn example5_view_matches_paper() {
        let db = example5_db();
        let (view, stats) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        // Paper's materialized view (supports in 1-based clause numbers
        // there; 0-based here):
        //   A(X) <- X <= 3   <0>
        //   A(X) <- X <= 5   <1, <2>>
        //   B(X) <- X <= 5   <2>
        //   C(X) <- X <= 3   <3, <0>>
        //   C(X) <- X <= 5   <3, <1, <2>>>
        assert_eq!(
            render(&view),
            vec![
                "A(X0) <- X0 <= 3 <0>",
                "A(X0) <- X0 <= 5 <1, <2>>",
                "B(X0) <- X0 <= 5 <2>",
                "C(X0) <- X0 <= 3 <3, <0>>",
                "C(X0) <- X0 <= 5 <3, <1, <2>>>",
            ]
        );
        assert_eq!(view.len(), 5);
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn example6_recursive_view_matches_paper() {
        // Example 6:
        //   1. P(X,Y) <- X = a & Y = b
        //   2. P(X,Y) <- X = a & Y = c
        //   3. P(X,Y) <- X = c & Y = d
        //   4. A(X,Y) <- P(X,Y)
        //   5. A(X,Y) <- P(X,Z), A(Z,Y)
        let (xv, yv, zv) = (Term::var(Var(0)), Term::var(Var(1)), Term::var(Var(2)));
        let pfact = |a: &str, b: &str| {
            Clause::fact(
                "P",
                vec![xv.clone(), yv.clone()],
                Constraint::eq(xv.clone(), Term::str(a))
                    .and(Constraint::eq(yv.clone(), Term::str(b))),
            )
        };
        let db = ConstrainedDatabase::from_clauses(vec![
            pfact("a", "b"),
            pfact("a", "c"),
            pfact("c", "d"),
            Clause::new(
                "A",
                vec![xv.clone(), yv.clone()],
                Constraint::truth(),
                vec![BodyAtom::new("P", vec![xv.clone(), yv.clone()])],
            ),
            Clause::new(
                "A",
                vec![xv.clone(), yv.clone()],
                Constraint::truth(),
                vec![
                    BodyAtom::new("P", vec![xv.clone(), zv.clone()]),
                    BodyAtom::new("A", vec![zv.clone(), yv.clone()]),
                ],
            ),
        ]);
        let (view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        // The paper's 7-entry view: 3 P facts, 3 A copies, and the
        // recursive A(a, d) via P(a,c) ∧ A(c,d).
        assert_eq!(view.len(), 7);
        let inst = view
            .instances(&NoDomains, &SolverConfig::default())
            .unwrap();
        let a_insts: Vec<_> = inst
            .iter()
            .filter(|(p, _)| p.as_ref() == "A")
            .map(|(_, t)| t.clone())
            .collect();
        assert!(a_insts.contains(&vec![Value::str("a"), Value::str("d")]));
        assert_eq!(a_insts.len(), 4);
        // The recursive entry comes from clause 5 (0-based: 4) with
        // children P(a,c) (clause 2 -> <1>) and the derived A(c,d)
        // (paper support <4,<3>> -> 0-based <3, <2>>).
        let deep = view
            .live_entries()
            .find(|(_, e)| e.support.as_ref().is_some_and(|s| s.height() == 2))
            .expect("recursive entry");
        assert_eq!(
            deep.1.support.as_ref().unwrap().to_string(),
            "<4, <1>, <3, <2>>>"
        );
    }

    #[test]
    fn wp_keeps_unsolvable_derivations() {
        // Under a resolver where the call is empty, T_P prunes but W_P
        // retains the atom (Example 7's B(X) <- in(X, d:g(b))).
        let call = mmv_constraints::Call::new("d", "g", vec![Term::str("b")]);
        let db = ConstrainedDatabase::from_clauses(vec![Clause::fact(
            "B",
            vec![x()],
            Constraint::member(x(), call),
        )]);
        let (tp_view, _) = fixpoint(
            &db,
            &NoDomains, // every call resolves to {} -> unsolvable
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(tp_view.len(), 0);
        let (wp_view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Wp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(wp_view.len(), 1);
    }

    /// Example 5 with a lower bound added so instance sets are finite.
    fn bounded_example5_db() -> ConstrainedDatabase {
        ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "A",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(3),
                )),
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
                Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                    x(),
                    CmpOp::Le,
                    Term::int(5),
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
    fn plain_mode_produces_same_instances() {
        let db = bounded_example5_db();
        let cfg = FixpointConfig::default();
        let (with, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .unwrap();
        let (plain, _) = fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &cfg).unwrap();
        let scfg = SolverConfig::default();
        assert_eq!(
            with.instances(&NoDomains, &scfg).unwrap(),
            plain.instances(&NoDomains, &scfg).unwrap()
        );
        // Plain mode deduplicates; duplicate semantics keeps both A atoms.
        assert!(plain.len() <= with.len());
    }

    #[test]
    fn iteration_budget_reports_divergence() {
        // succ-style runaway recursion: N(X) <- N(Y) & X = Y + 1 over the
        // arith domain would diverge; simulate with a self-join that
        // always makes fresh atoms. Here: N(X) <- X >= 0; N(X) <- N(Y), X > Y.
        // Each round builds new constraints, and plain-mode dedup cannot
        // close it because the constraint grows.
        let y = Term::var(Var(1));
        let db = ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "N",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Ge, Term::int(0)),
            ),
            Clause::new(
                "N",
                vec![x()],
                Constraint::cmp(x(), CmpOp::Gt, y.clone()),
                vec![BodyAtom::new("N", vec![y.clone()])],
            ),
        ]);
        let cfg = FixpointConfig {
            max_iterations: 16,
            ..FixpointConfig::default()
        };
        let err = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, FixpointError::IterationBudget { .. }));
    }

    #[test]
    fn constant_index_prunes_ground_joins() {
        // Transitive closure over a 20-edge ground chain. Every entry is
        // ground, so the recursive clause's second position joins by
        // constant lookup: candidates scanned stays linear in the number
        // of real derivations, where blind cartesian enumeration would
        // scan |e| x |tc| pairs per round (tens of thousands).
        let k: i64 = 20;
        let mut clauses: Vec<Clause> = (0..k)
            .map(|i| {
                Clause::fact(
                    "e",
                    vec![Term::int(i), Term::int(i + 1)],
                    Constraint::truth(),
                )
            })
            .collect();
        let (xv, yv, zv) = (Term::var(Var(0)), Term::var(Var(1)), Term::var(Var(2)));
        clauses.push(Clause::new(
            "tc",
            vec![xv.clone(), yv.clone()],
            Constraint::truth(),
            vec![BodyAtom::new("e", vec![xv.clone(), yv.clone()])],
        ));
        clauses.push(Clause::new(
            "tc",
            vec![xv.clone(), yv.clone()],
            Constraint::truth(),
            vec![
                BodyAtom::new("e", vec![xv.clone(), zv.clone()]),
                BodyAtom::new("tc", vec![zv.clone(), yv.clone()]),
            ],
        ));
        let db = ConstrainedDatabase::from_clauses(clauses);
        let (view, stats) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::Plain,
            &FixpointConfig::default(),
        )
        .unwrap();
        // k edges + k(k+1)/2 closure facts.
        assert_eq!(view.len() as i64, k + k * (k + 1) / 2);
        assert!(stats.index_probes > 0, "index never probed");
        // Every enumerated combination is a real derivation: the index
        // plus delta-first binding propagation leaves nothing to prune.
        assert_eq!(view.len(), stats.derivations_tried);
        // Blind cartesian enumeration scans |e| x |tc| pairs per round
        // (> 4000 on this chain); the index keeps scanning linear in the
        // derivation count (measured: 459).
        assert!(
            stats.candidates_scanned < 1000,
            "index failed to prune: scanned {}",
            stats.candidates_scanned
        );
    }

    #[test]
    fn seeded_fixpoint_is_inflationary() {
        let db = example5_db();
        let cfg = FixpointConfig::default();
        let (mut seed, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &cfg,
        )
        .unwrap();
        // Inject an extra fact entry, then propagate from it: everything
        // survives.
        let extra = ConstrainedAtom::new(
            "A",
            vec![Term::var(Var(900))],
            Constraint::eq(Term::var(Var(900)), Term::int(99)),
        );
        let ticket = seed.fresh_external_ticket();
        let injected = seed
            .insert(
                extra,
                Some(Support::leaf(Producer::External(ticket))),
                vec![],
            )
            .expect("fresh entry");
        let before = seed.len();
        let mut closed = seed;
        let mut stats = FixpointStats::default();
        propagate(
            &db,
            &NoDomains,
            Operator::Tp,
            &mut closed,
            vec![injected],
            &cfg,
            &mut stats,
        )
        .unwrap();
        // The new A atom feeds clause 4 (C(X) <- A(X)): at least one new
        // derivation appears.
        assert!(closed.len() > before);
        let hits = closed
            .query(
                "C",
                &[Some(Value::int(99))],
                &NoDomains,
                &SolverConfig::default(),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
    }
}

/// Property check: the indexed join engine must be observationally
/// identical to a blind reference evaluator — the pre-index engine with
/// per-round full rescans, `HashSet` delta partitioning, unfiltered
/// cartesian products, and per-combination clones — on random constrained
/// databases, for both operators and both view modes.
#[cfg(test)]
mod engine_equivalence {
    use super::*;
    use crate::program::Clause;
    use mmv_constraints::{CmpOp, NoDomains};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The reference evaluator. Deliberately naive: candidate lists are
    /// rebuilt from a full `live_entries` scan every round and every
    /// combination is enumerated and cloned.
    fn naive_fixpoint(
        db: &ConstrainedDatabase,
        resolver: &dyn DomainResolver,
        op: Operator,
        mode: SupportMode,
        config: &FixpointConfig,
    ) -> Result<MaterializedView, FixpointError> {
        let mut view = MaterializedView::new(mode, db.fresh_gen());
        let mut stats = FixpointStats::default();
        let mut delta: Vec<EntryId> = Vec::new();
        for (cid, clause) in db.clauses() {
            if !clause.body.is_empty() {
                continue;
            }
            let Some(d) = derive(clause, &[], view.var_gen_mut()) else {
                continue;
            };
            if !admit(op, &d.atom.constraint, resolver, &config.solver, &mut stats) {
                continue;
            }
            let support = matches!(mode, SupportMode::WithSupports)
                .then(|| Support::leaf(Producer::Clause(cid)));
            if let Some(id) = view.insert(d.atom, support, d.children_args) {
                delta.push(id);
            }
        }
        let mut iterations = 0usize;
        while !delta.is_empty() {
            iterations += 1;
            if iterations > config.max_iterations {
                return Err(FixpointError::IterationBudget { iterations });
            }
            let delta_set: HashSet<EntryId> = delta.iter().copied().collect();
            let mut all: FxHashMap<Arc<str>, Vec<EntryId>> = FxHashMap::default();
            let mut old: FxHashMap<Arc<str>, Vec<EntryId>> = FxHashMap::default();
            let mut delta_by_pred: FxHashMap<Arc<str>, Vec<EntryId>> = FxHashMap::default();
            for (id, e) in view.live_entries() {
                all.entry(e.atom.pred.clone()).or_default().push(id);
                if delta_set.contains(&id) {
                    delta_by_pred
                        .entry(e.atom.pred.clone())
                        .or_default()
                        .push(id);
                } else {
                    old.entry(e.atom.pred.clone()).or_default().push(id);
                }
            }
            let empty: Vec<EntryId> = Vec::new();
            let mut next_delta: Vec<EntryId> = Vec::new();
            for (cid, clause) in db.clauses() {
                let n = clause.body.len();
                if n == 0 {
                    continue;
                }
                for dpos in 0..n {
                    let dlist = delta_by_pred.get(&clause.body[dpos].pred).unwrap_or(&empty);
                    if dlist.is_empty() {
                        continue;
                    }
                    let lists: Vec<&[EntryId]> = (0..n)
                        .map(|i| {
                            let src = match i.cmp(&dpos) {
                                std::cmp::Ordering::Less => old.get(&clause.body[i].pred),
                                std::cmp::Ordering::Equal => Some(dlist),
                                std::cmp::Ordering::Greater => all.get(&clause.body[i].pred),
                            };
                            src.map(|v| v.as_slice()).unwrap_or(&[])
                        })
                        .collect();
                    if lists.iter().any(|l| l.is_empty()) {
                        continue;
                    }
                    let mut combo = vec![0usize; n];
                    'combos: loop {
                        let ids: Vec<EntryId> = (0..n).map(|i| lists[i][combo[i]]).collect();
                        let support = matches!(mode, SupportMode::WithSupports).then(|| {
                            Support::node(
                                Producer::Clause(cid),
                                ids.iter()
                                    .map(|&id| view.entry(id).support.clone().expect("supports"))
                                    .collect(),
                            )
                        });
                        let duplicate = support
                            .as_ref()
                            .is_some_and(|s| view.entry_by_support(s).is_some());
                        if !duplicate {
                            // The historic clone-per-combination block.
                            let owned: Vec<ConstrainedAtom> =
                                ids.iter().map(|&id| view.entry(id).atom.clone()).collect();
                            let derived = {
                                let refs: Vec<&ConstrainedAtom> = owned.iter().collect();
                                derive(clause, &refs, view.var_gen_mut())
                            };
                            if let Some(d) = derived {
                                if admit(
                                    op,
                                    &d.atom.constraint,
                                    resolver,
                                    &config.solver,
                                    &mut stats,
                                ) {
                                    if let Some(id) = view.insert(d.atom, support, d.children_args)
                                    {
                                        next_delta.push(id);
                                        if view.len() > config.max_entries {
                                            return Err(FixpointError::EntryBudget {
                                                entries: view.len(),
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        for i in 0..n {
                            combo[i] += 1;
                            if combo[i] < lists[i].len() {
                                continue 'combos;
                            }
                            combo[i] = 0;
                        }
                        break;
                    }
                }
            }
            delta = next_delta;
        }
        Ok(view)
    }

    fn var_term() -> impl Strategy<Value = Term> {
        (0u32..3).prop_map(|v| Term::var(Var(v)))
    }

    fn any_term() -> impl Strategy<Value = Term> {
        prop_oneof![2 => var_term(), 1 => (0i64..4).prop_map(Term::int)]
    }

    /// Body atoms over a fixed-arity vocabulary: `e/2` and `b/1` are fact
    /// predicates, `q/1` and `r/2` derived (possibly mutually recursive).
    fn body_atom() -> impl Strategy<Value = BodyAtom> {
        prop_oneof![
            3 => (any_term(), any_term()).prop_map(|(a, b)| BodyAtom::new("e", vec![a, b])),
            2 => any_term().prop_map(|t| BodyAtom::new("b", vec![t])),
            1 => any_term().prop_map(|t| BodyAtom::new("q", vec![t])),
            1 => (any_term(), any_term()).prop_map(|(a, b)| BodyAtom::new("r", vec![a, b])),
        ]
    }

    fn rule() -> impl Strategy<Value = Clause> {
        let head = prop_oneof![Just(("q", 1u32)), Just(("r", 2u32))];
        (head, collection::vec(body_atom(), 1..=2_usize)).prop_map(|((pred, arity), body)| {
            let args: Vec<Term> = (0..arity).map(|i| Term::var(Var(i))).collect();
            Clause::new(pred, args, Constraint::truth(), body)
        })
    }

    fn ground_fact() -> impl Strategy<Value = Clause> {
        ((0i64..4), (0i64..4)).prop_map(|(a, b)| {
            Clause::fact("e", vec![Term::int(a), Term::int(b)], Constraint::truth())
        })
    }

    fn interval_fact() -> impl Strategy<Value = Clause> {
        ((0i64..6), (0i64..4)).prop_map(|(lo, w)| {
            let x = Term::var(Var(0));
            Clause::fact(
                "b",
                vec![x.clone()],
                Constraint::cmp(x.clone(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                    x,
                    CmpOp::Le,
                    Term::int(lo + w),
                )),
            )
        })
    }

    fn db_strategy() -> impl Strategy<Value = ConstrainedDatabase> {
        (
            collection::vec(ground_fact(), 2..=6_usize),
            collection::vec(interval_fact(), 1..=3_usize),
            collection::vec(rule(), 1..=4_usize),
        )
            .prop_map(|(ground, intervals, rules)| {
                ConstrainedDatabase::from_clauses(ground.into_iter().chain(intervals).chain(rules))
            })
    }

    /// Shared pools for the thread sweep: 1, 2, and N (honoring
    /// `MMV_POOL_THREADS`, at least 4) worker threads, built once.
    fn sweep_pools() -> &'static [Arc<WorkerPool>] {
        use std::sync::OnceLock;
        static POOLS: OnceLock<Vec<Arc<WorkerPool>>> = OnceLock::new();
        POOLS.get_or_init(|| {
            let n = std::env::var("MMV_POOL_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
                .max(4);
            [1, 2, n]
                .into_iter()
                .map(|t| Arc::new(WorkerPool::new(t)))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(32),
            failure_persistence: None,
            ..ProptestConfig::default()
        })]

        #[test]
        fn indexed_engine_matches_naive_reference(db in db_strategy()) {
            let cfg = FixpointConfig {
                max_iterations: 10,
                max_entries: 600,
                ..FixpointConfig::default()
            };
            for op in [Operator::Tp, Operator::Wp] {
                for mode in [SupportMode::Plain, SupportMode::WithSupports] {
                    let naive = naive_fixpoint(&db, &NoDomains, op, mode, &cfg);
                    let indexed = fixpoint(&db, &NoDomains, op, mode, &cfg);
                    match (&naive, &indexed) {
                        (Ok(nv), Ok((iv, _))) => prop_assert!(
                            nv.syntactically_equal(iv),
                            "{op:?}/{mode:?} diverged on\n{db}\nnaive:\n{nv}\nindexed:\n{iv}"
                        ),
                        // Budget exhaustion (runaway recursion) must hit
                        // both engines: they insert identical entries.
                        (Err(_), Err(_)) => {}
                        (n, i) => prop_assert!(
                            false,
                            "asymmetric outcome on\n{db}\nnaive ok: {}, indexed ok: {}",
                            n.is_ok(),
                            i.is_ok()
                        ),
                    }
                    // Pool sweep: at every pool width the run must
                    // equal the inline one — the same view (supports
                    // included), the same rendering (entry order and
                    // variable numbers) and the same counters.
                    for pool in sweep_pools() {
                        let pcfg = FixpointConfig {
                            parallel: Some(ParallelFixpoint {
                                pool: Arc::clone(pool),
                                resolver: Arc::new(NoDomains),
                            }),
                            ..cfg.clone()
                        };
                        let parallel = fixpoint(&db, &NoDomains, op, mode, &pcfg);
                        match (&indexed, &parallel) {
                            (Ok((sv, ss)), Ok((pv, ps))) => {
                                prop_assert!(
                                    sv.syntactically_equal(pv),
                                    "{op:?}/{mode:?} parallel({}) diverged on\n{db}\n\
                                     sequential:\n{sv}\nparallel:\n{pv}",
                                    pool.threads()
                                );
                                prop_assert_eq!(
                                    sv.to_string(),
                                    pv.to_string(),
                                    "{op:?}/{mode:?} parallel({}) renders differently on\n{db}",
                                    pool.threads()
                                );
                                prop_assert_eq!(
                                    ss,
                                    ps,
                                    "{op:?}/{mode:?} parallel({}) counters differ on\n{db}",
                                    pool.threads()
                                );
                            }
                            (Err(_), Err(_)) => {}
                            (s, p) => prop_assert!(
                                false,
                                "asymmetric outcome at {} threads on\n{db}\n\
                                 sequential ok: {}, parallel ok: {}",
                                pool.threads(),
                                s.is_ok(),
                                p.is_ok()
                            ),
                        }
                    }
                }
            }
        }
    }
}
