//! Constrained-atom insertion — Algorithm 3 of the paper (§3.2).
//!
//! To insert `A(X⃗) ← φ` into a materialized view `M`:
//!
//! 1. Build `Add`: the instances of φ *not already in* `M` — the paper's
//!    `not(ψ) ∧ φ`, by the crate's one weakening rule (`atom::weaken`).
//!    Each entry whose bounds meet the insertion's is tied to the
//!    insertion's arguments and tested against the `Add` built so far;
//!    a region it still meets is conjoined, negated, and the result
//!    simplified. An `Add` the simplifier proves false inserts nothing
//!    and asks the solver nothing more.
//! 2. Materialize `Add` as a new entry (with an external-insertion
//!    support ticket, so StDel keeps working afterwards).
//! 3. Unfold `P_ADD`: propagate the insertion upward through the clauses
//!    semi-naively (at least one body child from the previous layer —
//!    note the contrast with `P_OUT`, which requires *exactly* one).
//!
//! Step 3 reuses the fixpoint engine's semi-naive propagation with the
//! new entry as the initial delta, which is precisely the `P_ADD`
//! construction.

use crate::atom::{simplify_keep, weaken, ConstrainedAtom, Weakened};
use crate::bounds::ArgBounds;
use crate::program::ConstrainedDatabase;
use crate::support::{Producer, Support};
use crate::tp::{propagate, FixpointConfig, FixpointError, FixpointStats, Operator};
use crate::view::{EntryId, MaterializedView, SupportMode};
use mmv_constraints::{satisfiable_with, DomainResolver, Truth};

/// Statistics of one insertion run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InsertStats {
    /// Whether a new base entry was added (false: all instances already
    /// present).
    pub added: bool,
    /// Entries derived by upward propagation (`P_ADD` beyond `Add`).
    pub propagated: usize,
    /// Fixpoint statistics of the propagation.
    pub fixpoint: FixpointStats,
}

/// Statistics of one batched insertion run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InsertBatchStats {
    /// Base `Add` entries materialized (≤ the number of requests; a
    /// request whose instances are all present adds nothing).
    pub added: usize,
    /// Entries derived by upward propagation (`P_ADD` beyond the adds).
    pub propagated: usize,
    /// Fixpoint statistics of the (single) propagation pass.
    pub fixpoint: FixpointStats,
    /// Satisfiability tests performed while building the `Add` entries
    /// (the propagation's own are `fixpoint.derivations_tried -
    /// fixpoint.pruned_syntactic`).
    pub solver_calls: usize,
    /// View entries dismissed from an `Add` build by the argument-bounds
    /// pre-check, without tying or a solver call.
    pub prefiltered: usize,
    /// Entries the `Add` builds' bounds selector visited.
    pub selected: usize,
}

impl InsertBatchStats {
    /// Accumulates another run's counters.
    pub fn absorb(&mut self, o: &InsertBatchStats) {
        self.added += o.added;
        self.propagated += o.propagated;
        self.fixpoint.absorb(&o.fixpoint);
        self.solver_calls += o.solver_calls;
        self.prefiltered += o.prefiltered;
        self.selected += o.selected;
    }
}

/// Inserts `[insertion]`'s instances into the view (Algorithm 3),
/// propagating consequences through `db`'s clauses. `op` selects the
/// admission semantics (`T_P` checks solvability of derived constraints;
/// `W_P` admits everything), matching how the view was built.
pub fn insert_atom(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    insertion: &ConstrainedAtom,
    resolver: &dyn DomainResolver,
    op: Operator,
    config: &FixpointConfig,
) -> Result<InsertStats, FixpointError> {
    let batch = insert_batch(
        db,
        view,
        std::slice::from_ref(insertion),
        resolver,
        op,
        config,
    )?;
    Ok(InsertStats {
        added: batch.added > 0,
        propagated: batch.propagated,
        fixpoint: batch.fixpoint,
    })
}

/// Inserts a whole *set* of insertion requests in one maintenance pass
/// (Algorithm 3 over the set).
///
/// Each request's `Add` entry is built in order against the current view
/// — so later requests exclude the regions covered by earlier requests
/// in the same batch, exactly as sequential insertion would — but the
/// semi-naive `P_ADD` propagation runs *once*, seeded with every new
/// base entry. Sequential insertion pays a full propagation fixpoint
/// (with its per-round index and bookkeeping work) per request; the
/// batch pays it once.
pub fn insert_batch(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    insertions: &[ConstrainedAtom],
    resolver: &dyn DomainResolver,
    op: Operator,
    config: &FixpointConfig,
) -> Result<InsertBatchStats, FixpointError> {
    // One ticket per *request*, drawn upfront — so the ticket sequence
    // depends only on the request sequence, never on which requests turn
    // out to be no-ops.
    let tickets: Vec<u64> = insertions
        .iter()
        .map(|_| view.fresh_external_ticket())
        .collect();
    let first = tickets.first().copied().unwrap_or_default();
    insert_batch_ticketed(db, view, insertions, first, resolver, op, config)
}

/// [`insert_batch`] with caller-chosen external-insertion tickets: the
/// `k`-th request takes ticket `first_ticket + k`. The caller is
/// responsible for ticket uniqueness across the view's lifetime; the
/// `mmv-service` writer numbers every batch's requests from its own
/// counter, and log replay reissues each batch's recorded first ticket.
pub fn insert_batch_ticketed(
    db: &ConstrainedDatabase,
    view: &mut MaterializedView,
    insertions: &[ConstrainedAtom],
    first_ticket: u64,
    resolver: &dyn DomainResolver,
    op: Operator,
    config: &FixpointConfig,
) -> Result<InsertBatchStats, FixpointError> {
    let mut stats = InsertBatchStats::default();
    let mut new_ids: Vec<EntryId> = Vec::with_capacity(insertions.len());
    for (insertion, ticket) in insertions.iter().zip(first_ticket..) {
        if let Some(id) = materialize_add(view, insertion, ticket, resolver, config, &mut stats) {
            new_ids.push(id);
            stats.added += 1;
        }
    }
    if new_ids.is_empty() {
        return Ok(stats);
    }

    // ---- P_ADD: one semi-naive upward propagation for the whole batch ----
    let before = view.len();
    let mut fstats = FixpointStats::default();
    propagate(db, resolver, op, view, new_ids, config, &mut fstats)?;
    stats.propagated = view.len() - before;
    stats.fixpoint = fstats;
    Ok(stats)
}

/// Builds and materializes one request's `Add` entry: the instances of
/// the insertion *not already in* the view (steps 1–2 of Algorithm 3).
/// Returns the new entry's id, or `None` if every instance is present.
fn materialize_add(
    view: &mut MaterializedView,
    insertion: &ConstrainedAtom,
    ticket: u64,
    resolver: &dyn DomainResolver,
    config: &FixpointConfig,
    stats: &mut InsertBatchStats,
) -> Option<EntryId> {
    // ---- Build Add: φ ∧ ⋀ not(ψ_existing) -------------------------------
    // The var gen leaves the view while existing entries stay borrowed
    // (see `tp::propagate`), so no entry atom is cloned here.
    let mut gen = std::mem::take(view.var_gen_mut());
    // Standardize the insertion apart from the view's variables first.
    let ins = insertion.rename(&mut gen);
    // Only entries whose argument bounds meet the insertion's can
    // already hold some of its instances.
    let bounds = ArgBounds::of(&ins);
    let (prefiltered, selected) = (&mut stats.prefiltered, &mut stats.selected);
    let ids = view.candidates(&ins.pred, &bounds, prefiltered, selected);
    // Each entry is tied against the Add built so far: a region the
    // insertion or an earlier entry already excludes excludes nothing
    // more and is left out. This keeps Add small — conjoining a not()
    // per view entry would make the constraint (and every downstream
    // P_ADD derivation) grow with the view.
    let weakened = weaken(
        &ins.constraint,
        ids.iter()
            .map(|&id| (&view.entry(id).atom, ins.args.as_slice())),
        &mut gen,
        resolver,
        &config.solver,
        &mut stats.solver_calls,
    );
    *view.var_gen_mut() = gen;
    let add_constraint = match weakened {
        Weakened::Unchanged => simplify_keep(ins.constraint.clone())?,
        Weakened::To(c, _) => c,
        Weakened::Empty => return None,
    };
    // Solvability gate: nothing new to insert if Add is unsolvable.
    stats.solver_calls += 1;
    if satisfiable_with(&add_constraint, resolver, &config.solver) == Truth::Unsat {
        return None;
    }
    let add_atom = ins.with_constraint(add_constraint);

    // ---- Materialize Add --------------------------------------------------
    let support = match view.mode() {
        SupportMode::WithSupports => Some(Support::leaf(Producer::External(ticket))),
        SupportMode::Plain => None,
    };
    // `None`: canonically identical entry already present (Plain mode).
    view.insert(add_atom, support, vec![])
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

    fn law_db() -> ConstrainedDatabase {
        // seenwith facts; swlndc(X, Y) <- seenwith(X, Y); suspect <- swlndc.
        let (v0, v1) = (Term::var(Var(0)), Term::var(Var(1)));
        ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "seenwith",
                vec![Term::str("don"), Term::str("ed")],
                Constraint::truth(),
            ),
            Clause::new(
                "swlndc",
                vec![v0.clone(), v1.clone()],
                Constraint::truth(),
                vec![BodyAtom::new("seenwith", vec![v0.clone(), v1.clone()])],
            ),
            Clause::new(
                "suspect",
                vec![v1.clone()],
                Constraint::truth(),
                vec![BodyAtom::new("swlndc", vec![v0.clone(), v1.clone()])],
            ),
        ])
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
    fn paper_style_insertion_propagates_upward() {
        // The paper's motivating case: insert seenwith("don", "jane")
        // even though no clause derives it (a policeman reported it).
        let db = law_db();
        let mut view = build(&db, SupportMode::WithSupports);
        assert_eq!(view.len(), 3);
        let ins = ConstrainedAtom::fact("seenwith", vec![Value::str("don"), Value::str("jane")]);
        let stats = insert_atom(
            &db,
            &mut view,
            &ins,
            &NoDomains,
            Operator::Tp,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert!(stats.added);
        // swlndc(don, jane) and suspect(jane) derived.
        assert_eq!(stats.propagated, 2);
        let cfg = SolverConfig::default();
        assert_eq!(
            view.query("suspect", &[Some(Value::str("jane"))], &NoDomains, &cfg)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn duplicate_insertion_is_noop() {
        let db = law_db();
        let mut view = build(&db, SupportMode::WithSupports);
        let ins = ConstrainedAtom::fact("seenwith", vec![Value::str("don"), Value::str("ed")]);
        let stats = insert_atom(
            &db,
            &mut view,
            &ins,
            &NoDomains,
            Operator::Tp,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert!(!stats.added);
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn partial_overlap_inserts_only_difference() {
        // B(X) <- 0 <= X <= 5 in the view; insert B(X) <- 3 <= X <= 8:
        // Add is 3..8 minus 0..5 = 6..8.
        let db = ConstrainedDatabase::from_clauses(vec![Clause::fact(
            "B",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(5),
            )),
        )]);
        let mut view = build(&db, SupportMode::WithSupports);
        let ins = ConstrainedAtom::new(
            "B",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(3)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(8),
            )),
        );
        insert_atom(
            &db,
            &mut view,
            &ins,
            &NoDomains,
            Operator::Tp,
            &FixpointConfig::default(),
        )
        .unwrap();
        let cfg = SolverConfig::default();
        let inst = view.instances(&NoDomains, &cfg).unwrap();
        // Union must be exactly 0..8.
        assert_eq!(inst.len(), 9);
        // The new entry covers only 6..8 (the difference).
        let added = view
            .live_entries()
            .find(|(_, e)| {
                matches!(
                    e.support.as_ref().map(|s| s.producer()),
                    Some(Producer::External(_))
                )
            })
            .expect("inserted entry");
        let added_inst = added.1.atom.instances(&NoDomains, &cfg);
        let tuples = match added_inst {
            crate::atom::Instances::Exact(t) => t,
            other => panic!("expected exact instances, got {other:?}"),
        };
        assert_eq!(
            tuples.into_iter().collect::<Vec<_>>(),
            vec![
                vec![Value::int(6)],
                vec![Value::int(7)],
                vec![Value::int(8)]
            ]
        );
    }

    #[test]
    fn add_ties_each_entry_against_the_add_built_so_far() {
        // Entries B(X) <- 0 <= X <= 5 and B(X) <- 3 <= X <= 5; insert
        // B(X) <- 0 <= X <= 9. The first entry leaves Add at 6..9, which
        // the second entry's region no longer meets: Add conjoins one
        // not(..) (simplified to X > 5), not two.
        let interval = |lo, hi| {
            Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(hi),
            ))
        };
        let db = ConstrainedDatabase::from_clauses(vec![
            Clause::fact("B", vec![x()], interval(0, 5)),
            Clause::fact("B", vec![x()], interval(3, 5)),
        ]);
        let mut view = build(&db, SupportMode::WithSupports);
        let ins = ConstrainedAtom::new("B", vec![x()], interval(0, 9));
        let stats = insert_batch(
            &db,
            &mut view,
            std::slice::from_ref(&ins),
            &NoDomains,
            Operator::Tp,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.added, 1);
        let (_, added) = view
            .live_entries()
            .find(|(_, e)| {
                matches!(
                    e.support.as_ref().map(|s| s.producer()),
                    Some(Producer::External(_))
                )
            })
            .expect("inserted entry");
        let lits = &added.atom.constraint.lits;
        assert_eq!(lits.len(), 3, "{}", added.atom);
        assert!(
            !lits
                .iter()
                .any(|l| matches!(l, mmv_constraints::Lit::Not(_))),
            "{}",
            added.atom
        );
        let cfg = SolverConfig::default();
        let expected: Vec<Vec<Value>> = (6..=9).map(|v| vec![Value::int(v)]).collect();
        match added.atom.instances(&NoDomains, &cfg) {
            crate::atom::Instances::Exact(t) => {
                assert_eq!(t.into_iter().collect::<Vec<_>>(), expected)
            }
            other => panic!("expected exact instances, got {other:?}"),
        }
    }

    #[test]
    fn insertion_matches_declarative_oracle() {
        // [M ∪ P_ADD] must equal [T_{P ∪ Add} ↑ ω (∅)] (Theorem 3's
        // instance-level reading).
        let db = law_db();
        let mut view = build(&db, SupportMode::Plain);
        let ins = ConstrainedAtom::fact("seenwith", vec![Value::str("don"), Value::str("jane")]);
        insert_atom(
            &db,
            &mut view,
            &ins,
            &NoDomains,
            Operator::Tp,
            &FixpointConfig::default(),
        )
        .unwrap();

        let mut oracle_db = db.clone();
        oracle_db.push(Clause::fact(
            "seenwith",
            vec![Term::str("don"), Term::str("jane")],
            Constraint::truth(),
        ));
        let (oracle, _) = fixpoint(
            &oracle_db,
            &NoDomains,
            Operator::Tp,
            SupportMode::Plain,
            &FixpointConfig::default(),
        )
        .unwrap();
        let cfg = SolverConfig::default();
        assert_eq!(
            view.instances(&NoDomains, &cfg).unwrap(),
            oracle.instances(&NoDomains, &cfg).unwrap()
        );
    }

    #[test]
    fn insert_then_stdel_roundtrip() {
        // Supports issued for insertions keep StDel functional.
        let db = law_db();
        let mut view = build(&db, SupportMode::WithSupports);
        let ins = ConstrainedAtom::fact("seenwith", vec![Value::str("don"), Value::str("jane")]);
        insert_atom(
            &db,
            &mut view,
            &ins,
            &NoDomains,
            Operator::Tp,
            &FixpointConfig::default(),
        )
        .unwrap();
        let cfg = SolverConfig::default();
        assert_eq!(
            view.query("suspect", &[Some(Value::str("jane"))], &NoDomains, &cfg)
                .unwrap()
                .len(),
            1
        );
        crate::delete_stdel::stdel_delete(&mut view, &ins, &NoDomains, &cfg).unwrap();
        assert!(view
            .query("suspect", &[Some(Value::str("jane"))], &NoDomains, &cfg)
            .unwrap()
            .is_empty());
        // The other suspect (ed) is untouched.
        assert_eq!(
            view.query("suspect", &[Some(Value::str("ed"))], &NoDomains, &cfg)
                .unwrap()
                .len(),
            1
        );
    }
}
