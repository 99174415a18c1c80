//! The Straight Delete (StDel) algorithm — Algorithm 2 of the paper
//! (§3.1.2).
//!
//! StDel deletes constrained atoms from a support-tracked view **without
//! any rederivation step**: because every entry records, via its support,
//! exactly which derivation produced it, the effect of a deletion is
//! propagated *upward* along supports by conjoining `not(removed-region)`
//! onto each affected entry's constraint. Entries whose constraint
//! becomes unsolvable are removed (step 4).
//!
//! Processing order: step 3 visits only the entries that depend on the
//! deletion. It is a worklist in ascending `(support height, id)` order,
//! seeded with the parents of the entries step 2 replaced; an entry
//! that emits a `P_OUT` pair adds its own parents. The view's reverse
//! support index supplies the parents. A derivation's children are
//! strictly lower than it, so all `P_OUT` pairs of a child exist before
//! any parent consults them, and every parent joins the worklist above
//! the entry being processed. The entries visited are those that the
//! whole view, sorted by height, would have changed, in the same order.

use crate::atom::ConstrainedAtom;
use crate::bounds::ArgBounds;
use crate::support::Support;
use crate::view::{EntryId, MaterializedView, SupportMode};
use mmv_constraints::fxhash::FxHashMap;
use mmv_constraints::{satisfiable_with, Constraint, DomainResolver, Lit, SolverConfig, Truth};
use std::collections::BTreeSet;
use std::fmt;

/// `P_OUT`: per support, the regions removed from the entry owning it.
type Pout = FxHashMap<Support, Vec<ConstrainedAtom>>;

/// Statistics of one StDel run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StDelStats {
    /// Entries replaced in step 2 (direct matches of the deletion).
    pub direct_replacements: usize,
    /// Entries replaced in step 3 (support propagation).
    pub propagated_replacements: usize,
    /// `P_OUT` pairs emitted.
    pub pout_pairs: usize,
    /// Entries removed in step 4 (constraint no longer solvable).
    pub removed: usize,
    /// Solvability tests performed.
    pub solver_calls: usize,
    /// Step-2 candidates dismissed by the argument-bounds pre-check,
    /// without tying or a solver call.
    pub prefiltered: usize,
    /// Entries step 2's bounds selector visited: what the deletion's
    /// bounds meet in the interval index, not the whole predicate.
    pub selected: usize,
    /// Entries step 3 took off its worklist: those with at least one
    /// child that lost instances.
    pub walked: usize,
}

impl StDelStats {
    /// Accumulates another run's counters (used when a batch is split
    /// across independent shards and each part reports separately).
    pub fn absorb(&mut self, o: &StDelStats) {
        self.direct_replacements += o.direct_replacements;
        self.propagated_replacements += o.propagated_replacements;
        self.pout_pairs += o.pout_pairs;
        self.removed += o.removed;
        self.solver_calls += o.solver_calls;
        self.prefiltered += o.prefiltered;
        self.selected += o.selected;
        self.walked += o.walked;
    }
}

/// StDel failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StDelError {
    /// The view does not track supports (use Extended DRed instead).
    NeedsSupports,
}

impl fmt::Display for StDelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StDelError::NeedsSupports => {
                write!(
                    f,
                    "StDel requires a view built with SupportMode::WithSupports"
                )
            }
        }
    }
}

impl std::error::Error for StDelError {}

/// Deletes `[deletion]`'s instances from the view (Algorithm 2). The
/// view is modified in place; its support structure is preserved so
/// further StDel calls keep working.
pub fn stdel_delete(
    view: &mut MaterializedView,
    deletion: &ConstrainedAtom,
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
) -> Result<StDelStats, StDelError> {
    stdel_delete_batch(view, std::slice::from_ref(deletion), resolver, config)
}

/// Deletes the instances of a whole *set* of deletion requests in one
/// StDel pass (Algorithm 2 over the union of the requests).
///
/// Step 2 intersects each request with the view in order, so the `P_OUT`
/// pairs of all requests accumulate on the affected supports; one upward
/// propagation then replaces every affected ancestor exactly once per
/// pair, and one final sweep removes entries whose constraint became
/// unsolvable. The upward step visits the entries that depend on what
/// step 2 replaced, each once, in ascending support height (see the
/// module docs); sequential single-atom deletion visits a shared
/// ancestor once per request, the batch once in total.
pub fn stdel_delete_batch(
    view: &mut MaterializedView,
    deletions: &[ConstrainedAtom],
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
) -> Result<StDelStats, StDelError> {
    if view.mode() != SupportMode::WithSupports {
        return Err(StDelError::NeedsSupports);
    }
    let mut stats = StDelStats::default();
    let mut pout = direct_deletions(view, deletions, resolver, config, &mut stats);
    if pout.is_empty() {
        return Ok(stats);
    }

    // ---- Step 3: upward propagation along supports -----------------------
    // The entries with a child in `pout`, by ascending support height:
    // children are complete before parents.
    let mut worklist: BTreeSet<(u32, EntryId)> = BTreeSet::new();
    for support in pout.keys() {
        enqueue_parents(view, support, &mut worklist);
    }
    while let Some((_, id)) = worklist.pop_first() {
        stats.walked += 1;
        let support = view.entry(id).support.clone().expect("WithSupports");
        if propagate_entry(view, id, &support, &mut pout, resolver, config, &mut stats) {
            enqueue_parents(view, &support, &mut worklist);
        }
    }

    sweep(view, &pout, resolver, config, &mut stats);
    Ok(stats)
}

/// Step 2: intersects each request with the view, replacing every entry
/// it overlaps and recording the removed region as a `P_OUT` pair of
/// the entry's support.
fn direct_deletions(
    view: &mut MaterializedView,
    deletions: &[ConstrainedAtom],
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
    stats: &mut StDelStats,
) -> Pout {
    let mut pout = Pout::default();
    for deletion in deletions {
        // Only entries whose argument bounds meet the request's can lose
        // instances to it (the ids are a snapshot: the loop below
        // replaces constraints).
        let bounds = ArgBounds::of(deletion);
        let (prefiltered, selected) = (&mut stats.prefiltered, &mut stats.selected);
        for id in view.candidates(&deletion.pred, &bounds, prefiltered, selected) {
            let entry = view.entry(id);
            let support = entry.support.clone().expect("WithSupports mode");
            let atom = entry.atom.clone();
            // The deletion's constraint over this entry's args.
            let Some((dpsi, region)) = deletion.overlap(
                &atom.args,
                &atom.constraint,
                view.var_gen_mut(),
                resolver,
                config,
                &mut stats.solver_calls,
            ) else {
                continue; // this entry contributes nothing to Del
            };
            // Replace F with A(X⃗) <- φ ∧ not(deletion-region).
            let new_constraint = atom.constraint.clone().and_lit(Lit::Not(dpsi));
            view.replace_constraint(id, simplify_keep(new_constraint));
            stats.direct_replacements += 1;
            // Record (removed region, spt(F)).
            pout.entry(support)
                .or_default()
                .push(atom.with_constraint(region));
            stats.pout_pairs += 1;
        }
    }
    pout
}

/// Step 4: removes the affected entries whose constraint became
/// unsolvable.
fn sweep(
    view: &mut MaterializedView,
    pout: &Pout,
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
    stats: &mut StDelStats,
) {
    let affected: Vec<EntryId> = pout
        .keys()
        .filter_map(|s| view.entry_by_support(s))
        .collect();
    for id in affected {
        let c = view.entry(id).atom.constraint.clone();
        stats.solver_calls += 1;
        if satisfiable_with(&c, resolver, config) == Truth::Unsat {
            view.remove(id);
            stats.removed += 1;
        }
    }
}

/// Adds the live entries whose support has `support` as a child to
/// step 3's worklist, keyed by their support height.
fn enqueue_parents(
    view: &MaterializedView,
    support: &Support,
    worklist: &mut BTreeSet<(u32, EntryId)>,
) {
    let height = |p: EntryId| {
        view.entry(p)
            .support
            .as_ref()
            .expect("WithSupports")
            .height()
    };
    worklist.extend(view.parents_of(support).iter().map(|&p| (height(p), p)));
}

/// Step 3 for the entry `id` (whose support is `support`): each `P_OUT`
/// pair of each of its children is tied to that child's arguments in
/// this derivation; every solvable region is conjoined, negated, onto
/// the entry's constraint and emitted as a pair of the entry's own.
/// Returns whether any pair was emitted.
fn propagate_entry(
    view: &mut MaterializedView,
    id: EntryId,
    support: &Support,
    pout: &mut Pout,
    resolver: &dyn DomainResolver,
    config: &SolverConfig,
    stats: &mut StDelStats,
) -> bool {
    let mut emitted = false;
    for (j, child) in support.children().iter().enumerate() {
        let Some(pairs) = pout.get(child) else {
            continue;
        };
        let pairs = pairs.clone();
        for pair in pairs {
            let entry = view.entry(id);
            let atom = entry.atom.clone();
            let child_args = entry.children_args.get(j).cloned().unwrap_or_default();
            // The pair's removed region over the child's argument tuple
            // inside this derivation; condition (c): the affected region
            // must be solvable.
            let Some((ppsi, region)) = pair.overlap(
                &child_args,
                &atom.constraint,
                view.var_gen_mut(),
                resolver,
                config,
                &mut stats.solver_calls,
            ) else {
                continue;
            };
            // Replace F's constraint with φ ∧ not(ψ_j over child args).
            let new_constraint = atom.constraint.clone().and_lit(Lit::Not(ppsi));
            view.replace_constraint(id, simplify_keep(new_constraint));
            stats.propagated_replacements += 1;
            // Emit (removed region of F, spt(F)).
            pout.entry(support.clone())
                .or_default()
                .push(atom.with_constraint(region));
            stats.pout_pairs += 1;
            emitted = true;
        }
    }
    emitted
}

/// Simplifies a weakened entry's constraint, keeping a canonical `false`
/// when the simplifier proves it unsatisfiable — the entry is replaced
/// either way, and the deletion's sweep of unsolvable entries (StDel's
/// step 4, Extended DRed's hygiene pass) drops it.
pub(crate) fn simplify_keep(c: Constraint) -> Constraint {
    mmv_constraints::simplify(&c)
        .into_constraint()
        .unwrap_or_else(|| Constraint::lit(Lit::Not(Constraint::truth())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BodyAtom, Clause, ConstrainedDatabase};
    use crate::tp::{fixpoint, FixpointConfig, Operator};
    use mmv_constraints::{CmpOp, NoDomains, Term, Value, Var};

    fn x() -> Term {
        Term::var(Var(0))
    }

    /// The paper's Examples 4/5 database. The deletion of `B(X) <- X = 6`
    /// is only non-vacuous if the facts read `X >= 3` / `X >= 5` (the
    /// comparison glyphs are ambiguous in the source scan; the >= reading
    /// is the one consistent with both examples' walk-throughs).
    fn example5_db() -> ConstrainedDatabase {
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

    fn build(db: &ConstrainedDatabase) -> MaterializedView {
        fixpoint(
            db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap()
        .0
    }

    fn rendered(view: &MaterializedView) -> Vec<String> {
        let mut v: Vec<String> = view
            .live_entries()
            .map(|(_, e)| crate::view::canonicalize(&e.atom).to_string())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn paper_example_5_stdel_run() {
        // Delete B(X) <- X = 6 from Example 5's view.
        let db = example5_db();
        let mut view = build(&db);
        let deletion = ConstrainedAtom::new("B", vec![x()], Constraint::eq(x(), Term::int(6)));
        let stats =
            stdel_delete(&mut view, &deletion, &NoDomains, &SolverConfig::default()).unwrap();
        // Exactly as the paper walks it: B(X)<-X<=5 replaced (step 2);
        // A(X)<-X<=5 replaced (support <1,<2>> contains <2>);
        // C(X)<-X<=5 replaced (support <3,<1,<2>>>).
        assert_eq!(stats.direct_replacements, 1);
        assert_eq!(stats.propagated_replacements, 2);
        assert_eq!(stats.pout_pairs, 3);
        assert_eq!(stats.removed, 0);
        // The final view simplifies to the paper's result.
        assert_eq!(
            rendered(&view),
            vec![
                "A(X0) <- X0 >= 3",
                "A(X0) <- X0 >= 5 & X0 != 6",
                "B(X0) <- X0 >= 5 & X0 != 6",
                "C(X0) <- X0 >= 3",
                "C(X0) <- X0 >= 5 & X0 != 6",
            ]
        );
    }

    /// `pred(X, Y) <- X = a & Y = b`.
    fn pair(pred: &str, a: Term, b: Term) -> ConstrainedAtom {
        let (xv, yv) = (Term::var(Var(0)), Term::var(Var(1)));
        ConstrainedAtom::new(
            pred,
            vec![xv.clone(), yv.clone()],
            Constraint::eq(xv, a).and(Constraint::eq(yv, b)),
        )
    }

    /// Example 6's program: a `P` fact per edge and `A` their transitive
    /// closure, `A(X,Y) <- P(X,Y)` and `A(X,Y) <- P(X,Z), A(Z,Y)`.
    fn closure_db(edges: &[(Term, Term)]) -> ConstrainedDatabase {
        let (xv, yv, zv) = (Term::var(Var(0)), Term::var(Var(1)), Term::var(Var(2)));
        let mut clauses: Vec<Clause> = edges
            .iter()
            .map(|(a, b)| {
                let fact = pair("P", a.clone(), b.clone());
                Clause::fact("P", fact.args, fact.constraint)
            })
            .collect();
        clauses.push(Clause::new(
            "A",
            vec![xv.clone(), yv.clone()],
            Constraint::truth(),
            vec![BodyAtom::new("P", vec![xv.clone(), yv.clone()])],
        ));
        clauses.push(Clause::new(
            "A",
            vec![xv.clone(), yv.clone()],
            Constraint::truth(),
            vec![
                BodyAtom::new("P", vec![xv, zv.clone()]),
                BodyAtom::new("A", vec![zv, yv]),
            ],
        ));
        ConstrainedDatabase::from_clauses(clauses)
    }

    fn example6_db() -> ConstrainedDatabase {
        let s = Term::str;
        closure_db(&[(s("a"), s("b")), (s("a"), s("c")), (s("c"), s("d"))])
    }

    #[test]
    fn paper_example_6_recursive_stdel() {
        // Example 6: delete P(X,Y) <- X = c & Y = d; entries 3, 6, 7
        // become unsolvable and are removed.
        let mut view = build(&example6_db());
        assert_eq!(view.len(), 7);
        let deletion = pair("P", Term::str("c"), Term::str("d"));
        let stats =
            stdel_delete(&mut view, &deletion, &NoDomains, &SolverConfig::default()).unwrap();
        // P(c,d), A(c,d) and the recursive A(a,d) all die.
        assert_eq!(stats.removed, 3);
        assert_eq!(view.len(), 4);
        let inst = view
            .instances(&NoDomains, &SolverConfig::default())
            .unwrap();
        let tuples: Vec<_> = inst.iter().map(|(p, t)| format!("{p}{t:?}")).collect();
        assert_eq!(tuples.len(), 4);
        assert!(!tuples.iter().any(|t| t.contains("\"d\"")));
    }

    #[test]
    fn deleting_one_instance_keeps_the_rest() {
        // Example 3 flavour: ground facts; delete one person.
        let db = ConstrainedDatabase::from_clauses(vec![
            Clause::fact(
                "seenwith",
                vec![Term::str("don"), Term::str("john")],
                Constraint::truth(),
            ),
            Clause::fact(
                "seenwith",
                vec![Term::str("don"), Term::str("ed")],
                Constraint::truth(),
            ),
            Clause::new(
                "swlndc",
                vec![Term::var(Var(0)), Term::var(Var(1))],
                Constraint::truth(),
                vec![BodyAtom::new(
                    "seenwith",
                    vec![Term::var(Var(0)), Term::var(Var(1))],
                )],
            ),
        ]);
        let mut view = build(&db);
        assert_eq!(view.len(), 4);
        let deletion =
            ConstrainedAtom::fact("seenwith", vec![Value::str("don"), Value::str("john")]);
        let stats =
            stdel_delete(&mut view, &deletion, &NoDomains, &SolverConfig::default()).unwrap();
        // seenwith(don, john) and swlndc(don, john) are deleted — the
        // two-atom P_OUT of Example 3.
        assert_eq!(stats.removed, 2);
        let inst = view
            .instances(&NoDomains, &SolverConfig::default())
            .unwrap();
        assert_eq!(inst.len(), 2);
        assert!(inst.iter().all(|(_, t)| t[1] == Value::str("ed")));
    }

    #[test]
    fn deleting_absent_instances_is_noop() {
        let db = example5_db();
        let mut view = build(&db);
        let before = rendered(&view);
        let deletion = ConstrainedAtom::new(
            "B",
            vec![x()],
            Constraint::eq(x(), Term::int(2)), // outside X >= 5
        );
        let stats =
            stdel_delete(&mut view, &deletion, &NoDomains, &SolverConfig::default()).unwrap();
        assert_eq!(stats.direct_replacements, 0);
        assert_eq!(rendered(&view), before);
    }

    #[test]
    fn unknown_predicate_is_noop() {
        let db = example5_db();
        let mut view = build(&db);
        let deletion = ConstrainedAtom::fact("zzz", vec![Value::int(1)]);
        let stats =
            stdel_delete(&mut view, &deletion, &NoDomains, &SolverConfig::default()).unwrap();
        assert_eq!(stats.pout_pairs, 0);
    }

    #[test]
    fn plain_view_rejected() {
        let db = example5_db();
        let mut view = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::Plain,
            &FixpointConfig::default(),
        )
        .unwrap()
        .0;
        let deletion = ConstrainedAtom::fact("B", vec![Value::int(1)]);
        assert_eq!(
            stdel_delete(&mut view, &deletion, &NoDomains, &SolverConfig::default()),
            Err(StDelError::NeedsSupports)
        );
    }

    #[test]
    fn repeated_deletions_compose() {
        let db = example5_db();
        let mut view = build(&db);
        let cfg = SolverConfig::default();
        for k in [6, 7, 8] {
            let deletion = ConstrainedAtom::new("B", vec![x()], Constraint::eq(x(), Term::int(k)));
            stdel_delete(&mut view, &deletion, &NoDomains, &cfg).unwrap();
        }
        // B is now X >= 5 minus {6, 7, 8}.
        let hits = view
            .query("B", &[Some(Value::int(7))], &NoDomains, &cfg)
            .unwrap();
        assert!(hits.is_empty());
        let keeps = view
            .query("B", &[Some(Value::int(9))], &NoDomains, &cfg)
            .unwrap();
        assert_eq!(keeps.len(), 1);
        // And C (derived through A through B) lost them as well; C keeps
        // 7 only via the independent A(X) <- X >= 3 entry.
        let c7 = view
            .query("C", &[Some(Value::int(7))], &NoDomains, &cfg)
            .unwrap();
        assert_eq!(c7.len(), 1);
        let c4 = view
            .query("C", &[Some(Value::int(4))], &NoDomains, &cfg)
            .unwrap();
        assert_eq!(c4.len(), 1);
    }

    /// Reference for step 3: every live entry in ascending (support
    /// height, id) order, each propagated from whatever its children
    /// have in `P_OUT`. `walked` counts the entries with such a child.
    fn whole_view_walk(view: &mut MaterializedView, deletions: &[ConstrainedAtom]) -> StDelStats {
        let cfg = SolverConfig::default();
        let mut stats = StDelStats::default();
        let mut pout = direct_deletions(view, deletions, &NoDomains, &cfg, &mut stats);
        if pout.is_empty() {
            return stats;
        }
        let mut by_height: Vec<(u32, EntryId)> = view
            .live_entries()
            .map(|(id, e)| (e.support.as_ref().unwrap().height(), id))
            .collect();
        by_height.sort_unstable();
        for (_, id) in by_height {
            let support = view.entry(id).support.clone().unwrap();
            if support.children().iter().any(|c| pout.contains_key(c)) {
                stats.walked += 1;
                propagate_entry(view, id, &support, &mut pout, &NoDomains, &cfg, &mut stats);
            }
        }
        sweep(view, &pout, &NoDomains, &cfg, &mut stats);
        stats
    }

    /// The worklist and the whole-view walk leave the same view, down
    /// to entry ids and variable names, with the same counters.
    fn assert_matches_whole_view_walk(
        view: &MaterializedView,
        deletions: &[ConstrainedAtom],
    ) -> StDelStats {
        let (mut worked, mut walked) = (view.clone(), view.clone());
        let stats =
            stdel_delete_batch(&mut worked, deletions, &NoDomains, &SolverConfig::default())
                .unwrap();
        assert_eq!(stats, whole_view_walk(&mut walked, deletions));
        assert_eq!(worked.to_string(), walked.to_string());
        assert_eq!(
            worked.var_gen_mut().watermark(),
            walked.var_gen_mut().watermark()
        );
        stats
    }

    #[test]
    fn worklist_visits_what_the_whole_view_walk_changed() {
        let example6 = build(&example6_db());
        let stats =
            assert_matches_whole_view_walk(&example6, &[pair("P", Term::str("c"), Term::str("d"))]);
        // A(c,d) and the recursive A(a,d); the leaves are not walked.
        assert_eq!(stats.walked, 2);
        // On the chain 0→1→2→3, A(1,3) derived through P(1,2) and
        // A(2,3) has both children affected.
        let i = Term::int;
        let chain = build(&closure_db(&[(i(0), i(1)), (i(1), i(2)), (i(2), i(3))]));
        let stats =
            assert_matches_whole_view_walk(&chain, &[pair("P", i(1), i(2)), pair("A", i(2), i(3))]);
        assert!(stats.propagated_replacements > 0);
        assert!(stats.walked < chain.len(), "{stats:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..Default::default() })]

        #[test]
        fn worklist_matches_whole_view_walk_on_random_dags(
            edges in proptest::collection::btree_set((0i64..5, 1i64..6), 1..12usize),
            deletions in proptest::collection::vec((0u8..2, 0i64..5, 1i64..6), 1..4usize),
        ) {
            let i = Term::int;
            let edges: Vec<(Term, Term)> =
                edges.into_iter().filter(|(a, b)| a < b).map(|(a, b)| (i(a), i(b))).collect();
            let deletions: Vec<ConstrainedAtom> = deletions
                .into_iter()
                .map(|(p, a, b)| pair(["P", "A"][p as usize], i(a), i(b)))
                .collect();
            assert_matches_whole_view_walk(&build(&closure_db(&edges)), &deletions);
        }
    }
}
