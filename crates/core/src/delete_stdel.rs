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
//! Step 2 only selects: per request, the entries whose argument bounds
//! meet the request's, from the view's interval index. It ties, solves
//! and replaces nothing.
//!
//! Step 3 weakens, settles and replaces. It is a worklist in ascending
//! `(support height, id)` order, seeded with the entries step 2
//! selected; an entry that changed adds its parents. The view's reverse
//! support index supplies the parents. A derivation's children are
//! strictly lower than it, so every child is settled before any parent
//! consults it, and every parent joins the worklist above the entry
//! being processed. The entries visited are those that the whole view,
//! sorted by height, would have changed, in the same order.
//!
//! Each entry the walk reaches is weakened once, by the crate's one
//! weakening rule (`atom::weaken`): first by the requests that met it,
//! tied to its own arguments, then by its children's `P_OUT` pairs,
//! tied to the arguments each child has in its derivation. Its
//! constraint is then final and is tested for emptiness once: free when
//! the simplifier proved it false, else one solver call, of which only
//! `Unsat` counts (the solver over-approximates `not(..)` blocks, so
//! `Sat` may be wrong). A survivor is replaced once and records the
//! regions it lost as its `P_OUT` pairs. A derivation with an empty
//! child is empty itself, so an entry with an emptied child is emptied
//! without a tie, a solver call or a replacement; its parents still
//! hear of it. The emptied entries are removed after the walk, in the
//! walk's order.

use crate::atom::{weaken, ConstrainedAtom, Weakened};
use crate::bounds::ArgBounds;
use crate::support::Support;
use crate::view::{EntryId, MaterializedView, SupportMode};
use mmv_constraints::fxhash::{FxHashMap, FxHashSet};
use mmv_constraints::{satisfiable_with, DomainResolver, SolverConfig, Truth, VarGen};
use std::collections::BTreeSet;
use std::fmt;

/// `P_OUT`: per support, the regions removed from the entry owning it.
type Pout = FxHashMap<Support, Vec<ConstrainedAtom>>;

/// Statistics of one StDel run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StDelStats {
    /// Surviving entries replaced that step 2 selected for a request,
    /// each once (an entry hit both directly and through a child counts
    /// here only).
    pub direct_replacements: usize,
    /// Surviving entries replaced that step 2 did not select: only
    /// their children's `P_OUT` pairs met them. Each once.
    pub propagated_replacements: usize,
    /// `P_OUT` pairs recorded: one per region a surviving entry lost,
    /// to a request or through a child. An emptied entry records none.
    pub pout_pairs: usize,
    /// Entries removed (constraint no longer solvable).
    pub removed: usize,
    /// Entries emptied through an emptied child, with no tie and no
    /// solver call (counted in `removed` too).
    pub emptied: usize,
    /// Solvability tests performed.
    pub solver_calls: usize,
    /// Step-2 candidates dismissed by the argument-bounds pre-check,
    /// without tying or a solver call.
    pub prefiltered: usize,
    /// Entries step 2's bounds selector visited: what the deletion's
    /// bounds meet in the interval index, not the whole predicate.
    pub selected: usize,
    /// Entries step 3 took off its worklist with at least one child
    /// that lost instances.
    pub walked: usize,
}

impl StDelStats {
    /// Accumulates another run's counters.
    pub fn absorb(&mut self, o: &StDelStats) {
        self.direct_replacements += o.direct_replacements;
        self.propagated_replacements += o.propagated_replacements;
        self.pout_pairs += o.pout_pairs;
        self.removed += o.removed;
        self.emptied += o.emptied;
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
/// Step 2 selects, per request, the entries it may meet; one upward
/// walk then settles every affected entry exactly once: weakened by the
/// requests that met it and by its children's pairs, tested, and
/// replaced once, or emptied through an emptied child. The walk visits
/// the entries step 2 selected and those that depend on what changed,
/// each once, in ascending support height (see the module docs);
/// sequential single-atom deletion visits a shared ancestor once per
/// request, the batch once in total.
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
    let mut walk = Walk::select(view, deletions, &mut stats);

    // ---- Step 3: weaken along supports, each entry once ------------------
    // The entries step 2 selected and, as they change, their parents, by
    // ascending support height: children are settled before parents.
    let mut worklist: BTreeSet<(u32, EntryId)> =
        walk.met.keys().map(|&id| (height(view, id), id)).collect();
    while let Some((_, id)) = worklist.pop_first() {
        if let Some(support) = walk.settle(view, id, resolver, config, &mut stats) {
            let parents = view.parents_of(&support);
            worklist.extend(parents.iter().map(|&p| (height(view, p), p)));
        }
    }
    walk.finish(view, &mut stats);
    Ok(stats)
}

/// The support height of entry `id`: the walk's ordering key.
fn height(view: &MaterializedView, id: EntryId) -> u32 {
    view.entry(id)
        .support
        .as_ref()
        .expect("WithSupports")
        .height()
}

/// What a deletion has done to the view so far.
struct Walk<'a> {
    /// The view's var gen, out of the view while its entries stay
    /// borrowed (see `tp::propagate`); [`Walk::finish`] puts it back.
    gen: VarGen,
    /// Per entry step 2 selected, the requests whose bounds meet it, in
    /// request order.
    met: FxHashMap<EntryId, Vec<&'a ConstrainedAtom>>,
    pout: Pout,
    /// Supports of the entries found empty: every derivation with one
    /// of them as a child is empty too.
    emptied: FxHashSet<Support>,
    /// The emptied entries, in the order the walk settled them.
    dead: Vec<EntryId>,
}

impl<'a> Walk<'a> {
    /// Step 2: per request, in request order, the entries whose argument
    /// bounds meet the request's. Nothing is tied, solved or replaced.
    fn select(
        view: &mut MaterializedView,
        deletions: &'a [ConstrainedAtom],
        stats: &mut StDelStats,
    ) -> Self {
        let mut met: FxHashMap<EntryId, Vec<&ConstrainedAtom>> = FxHashMap::default();
        for deletion in deletions {
            let bounds = ArgBounds::of(deletion);
            let (prefiltered, selected) = (&mut stats.prefiltered, &mut stats.selected);
            for id in view.candidates(&deletion.pred, &bounds, prefiltered, selected) {
                met.entry(id).or_default().push(deletion);
            }
        }
        Walk {
            gen: std::mem::take(view.var_gen_mut()),
            met,
            pout: Pout::default(),
            emptied: FxHashSet::default(),
            dead: Vec::new(),
        }
    }

    /// Step 3 (and 4) for the entry `id`: weakens it once, first by the
    /// requests that met it (tied to its own arguments), then by its
    /// children's `P_OUT` pairs (tied to the arguments each child has in
    /// this derivation), or empties it through an emptied child. A
    /// weakened constraint is tested for emptiness once; a survivor is
    /// replaced once and records the regions it lost as its pairs.
    /// Returns the entry's support when it changed, so its parents must
    /// be visited.
    fn settle(
        &mut self,
        view: &mut MaterializedView,
        id: EntryId,
        resolver: &dyn DomainResolver,
        config: &SolverConfig,
        stats: &mut StDelStats,
    ) -> Option<Support> {
        let entry = view.entry(id);
        let support = entry.support.clone().expect("WithSupports");
        let children = support.children();
        let met = self.met.get(&id);
        let affected = children
            .iter()
            .any(|c| self.pout.contains_key(c) || self.emptied.contains(c));
        if !affected && met.is_none() {
            return None;
        }
        stats.walked += usize::from(affected);
        let empty = if children.iter().any(|c| self.emptied.contains(c)) {
            stats.emptied += 1;
            true
        } else {
            let atom = &entry.atom;
            let requests = met
                .into_iter()
                .flatten()
                .map(|&r| (r, atom.args.as_slice()));
            let pairs = children
                .iter()
                .zip(&entry.children_args)
                .flat_map(|(child, args)| {
                    let pairs = self.pout.get(child).into_iter().flatten();
                    pairs.map(move |pair| (pair, args.as_slice()))
                });
            let weakened = weaken(
                &atom.constraint,
                requests.chain(pairs),
                &mut self.gen,
                resolver,
                config,
                &mut stats.solver_calls,
            );
            match weakened {
                Weakened::Unchanged => return None,
                Weakened::Empty => true,
                Weakened::To(c, regions) => {
                    stats.solver_calls += 1;
                    let empty = satisfiable_with(&c, resolver, config) == Truth::Unsat;
                    if !empty {
                        stats.pout_pairs += regions.len();
                        let lost = regions.into_iter().map(|r| atom.with_constraint(r));
                        self.pout.insert(support.clone(), lost.collect());
                        if met.is_some() {
                            stats.direct_replacements += 1;
                        } else {
                            stats.propagated_replacements += 1;
                        }
                        view.replace_constraint(id, c);
                    }
                    empty
                }
            }
        };
        if empty {
            self.emptied.insert(support.clone());
            self.dead.push(id);
        }
        Some(support)
    }

    /// Step 4: puts the view's var gen back and removes the emptied
    /// entries, in walk order.
    fn finish(self, view: &mut MaterializedView, stats: &mut StDelStats) {
        *view.var_gen_mut() = self.gen;
        for &id in &self.dead {
            view.remove(id);
        }
        stats.removed = self.dead.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::simplify_keep;
    use crate::program::{BodyAtom, Clause, ConstrainedDatabase};
    use crate::tp::{fixpoint, FixpointConfig, Operator};
    use mmv_constraints::{CmpOp, Constraint, Lit, NoDomains, Term, Value, Var};

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

    #[test]
    fn a_lost_region_that_carries_an_earlier_exclusion_is_lost_whole() {
        // b(X) <- 0 <= X <= 20, and a(X) <- b(X) & 0 <= X <= 9. After
        // deleting b's 3..5, b and a carry not(3..5). Deleting b's 0..9
        // then hands a the region 0..20 & not(3..5) & 0..9, whose every
        // primitive conjunct a's constraint already holds: a loses all
        // it has left and is removed.
        let db = ConstrainedDatabase::from_clauses(vec![
            Clause::fact("b", vec![x()], interval(0, 20)),
            Clause::new(
                "a",
                vec![x()],
                interval(0, 9),
                vec![BodyAtom::new("b", vec![x()])],
            ),
        ]);
        let mut view = build(&db);
        let cfg = SolverConfig::default();
        for (lo, hi) in [(3, 5), (0, 9)] {
            let deletion = ConstrainedAtom::new("b", vec![x()], interval(lo, hi));
            stdel_delete(&mut view, &deletion, &NoDomains, &cfg).unwrap();
        }
        let inst = view.instances(&NoDomains, &cfg).unwrap();
        let expected: Vec<String> = (10..=20).map(|v| format!("b[{v}]")).collect();
        let got: Vec<String> = inst.iter().map(|(p, t)| format!("{p}[{}]", t[0])).collect();
        assert_eq!(got, expected, "{view}");
    }

    /// Reference for step 3's order: every live entry in ascending
    /// (support height, id) order, each settled by the walk's own rule.
    /// `walked` counts the entries with an affected child.
    fn whole_view_walk(view: &mut MaterializedView, deletions: &[ConstrainedAtom]) -> StDelStats {
        let cfg = SolverConfig::default();
        let mut stats = StDelStats::default();
        let mut walk = Walk::select(view, deletions, &mut stats);
        let mut by_height: Vec<(u32, EntryId)> = view
            .live_entries()
            .map(|(id, e)| (e.support.as_ref().unwrap().height(), id))
            .collect();
        by_height.sort_unstable();
        for (_, id) in by_height {
            walk.settle(view, id, &NoDomains, &cfg, &mut stats);
        }
        walk.finish(view, &mut stats);
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

    /// `X >= lo & X <= hi`.
    fn interval(lo: i64, hi: i64) -> Constraint {
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(hi),
        ))
    }

    #[test]
    fn worklist_visits_what_the_whole_view_walk_changed() {
        let example6 = build(&example6_db());
        let stats =
            assert_matches_whole_view_walk(&example6, &[pair("P", Term::str("c"), Term::str("d"))]);
        // A(c,d) and the recursive A(a,d); the leaves are not walked.
        assert_eq!(stats.walked, 2);
        // Both die through the emptied P(c,d), untied and unsolved.
        assert_eq!((stats.emptied, stats.removed), (2, 3));
        // R(X) <- P(X), Q(X) has both children narrowed, not emptied:
        // it is weakened by both children's pairs in one replacement and
        // survives, and so does S above it.
        let unary = |pred: &str, c| Clause::fact(pred, vec![x()], c);
        let rule = |head: &str, body: &[&str]| {
            let body = body.iter().map(|p| BodyAtom::new(p, vec![x()])).collect();
            Clause::new(head, vec![x()], Constraint::truth(), body)
        };
        let join = build(&ConstrainedDatabase::from_clauses(vec![
            unary("P", interval(0, 9)),
            unary("Q", interval(3, 12)),
            unary("T", interval(20, 29)),
            rule("R", &["P", "Q"]),
            rule("S", &["R"]),
            rule("U", &["T"]),
        ]));
        let point = |pred: &str, v| {
            ConstrainedAtom::new(pred, vec![x()], Constraint::eq(x(), Term::int(v)))
        };
        let stats = assert_matches_whole_view_walk(&join, &[point("P", 4), point("Q", 6)]);
        assert_eq!(stats.propagated_replacements, 2, "{stats:?}");
        assert_eq!((stats.walked, stats.emptied, stats.removed), (2, 0, 0));
        assert!(stats.walked < join.len(), "{stats:?}");
    }

    /// StDel as it was before emptiness cascaded: every `P_OUT` pair is
    /// tied onto every parent and conjoined, negated, one replacement
    /// per pair (an entry the simplifier proves false keeps `not(true)`),
    /// and a final sweep asks the solver about every entry with a pair.
    fn full_weakening_and_sweep(
        view: &mut MaterializedView,
        deletions: &[ConstrainedAtom],
    ) -> StDelStats {
        let cfg = SolverConfig::default();
        let mut stats = StDelStats::default();
        let mut calls = 0;
        let weaken = |c: Constraint, psi: Constraint| {
            simplify_keep(c.and_lit(Lit::Not(psi)))
                .unwrap_or_else(|| Constraint::lit(Lit::Not(Constraint::truth())))
        };
        let mut pout = Pout::default();
        for deletion in deletions {
            let bounds = ArgBounds::of(deletion);
            let (prefiltered, selected) = (&mut stats.prefiltered, &mut stats.selected);
            for id in view.candidates(&deletion.pred, &bounds, prefiltered, selected) {
                let entry = view.entry(id);
                let (support, atom) = (entry.support.clone().unwrap(), entry.atom.clone());
                let Some((dpsi, region)) = deletion.overlap(
                    &atom.args,
                    &atom.constraint,
                    view.var_gen_mut(),
                    &NoDomains,
                    &cfg,
                    &mut calls,
                ) else {
                    continue;
                };
                view.replace_constraint(id, weaken(atom.constraint.clone(), dpsi));
                pout.entry(support)
                    .or_default()
                    .push(atom.with_constraint(region));
            }
        }
        let mut worklist: BTreeSet<(u32, EntryId)> = BTreeSet::new();
        let enqueue = |view: &MaterializedView, s: &Support, w: &mut BTreeSet<(u32, EntryId)>| {
            w.extend(view.parents_of(s).iter().map(|&p| (height(view, p), p)));
        };
        for support in pout.keys() {
            enqueue(view, support, &mut worklist);
        }
        while let Some((_, id)) = worklist.pop_first() {
            stats.walked += 1;
            let entry = view.entry(id);
            let (support, children_args) =
                (entry.support.clone().unwrap(), entry.children_args.clone());
            let mut emitted = false;
            for (child, child_args) in support.children().iter().zip(&children_args) {
                for pair in pout.get(child).cloned().unwrap_or_default() {
                    let atom = view.entry(id).atom.clone();
                    let Some((ppsi, region)) = pair.overlap(
                        child_args,
                        &atom.constraint,
                        view.var_gen_mut(),
                        &NoDomains,
                        &cfg,
                        &mut calls,
                    ) else {
                        continue;
                    };
                    view.replace_constraint(id, weaken(atom.constraint.clone(), ppsi));
                    pout.entry(support.clone())
                        .or_default()
                        .push(atom.with_constraint(region));
                    emitted = true;
                }
            }
            if emitted {
                enqueue(view, &support, &mut worklist);
            }
        }
        let affected: Vec<EntryId> = pout
            .keys()
            .filter_map(|s| view.entry_by_support(s))
            .collect();
        for id in affected {
            calls += 1;
            let c = &view.entry(id).atom.constraint;
            if satisfiable_with(c, &NoDomains, &cfg) == Truth::Unsat {
                view.remove(id);
                stats.removed += 1;
            }
        }
        stats.solver_calls = calls;
        stats
    }

    /// The cascade leaves the view full weakening and a sweep leave,
    /// removes and walks the same entries, and asks the solver no more.
    fn assert_cascade_matches_full_weakening(
        view: &MaterializedView,
        deletions: &[ConstrainedAtom],
    ) {
        let (mut cascaded, mut swept) = (view.clone(), view.clone());
        let cascade = stdel_delete_batch(
            &mut cascaded,
            deletions,
            &NoDomains,
            &SolverConfig::default(),
        )
        .unwrap();
        let reference = full_weakening_and_sweep(&mut swept, deletions);
        assert!(
            cascaded.syntactically_equal(&swept),
            "cascade:\n{cascaded}\nreference:\n{swept}"
        );
        assert_eq!(
            (cascade.removed, cascade.walked),
            (reference.removed, reference.walked)
        );
        assert!(
            cascade.solver_calls <= reference.solver_calls,
            "{cascade:?} against {reference:?}"
        );
    }

    /// A random layered interval program: interval facts over two
    /// layer-0 predicates, and per higher layer two rules, each over
    /// one or two predicates of the layer below (so a parent can have
    /// two affected children), some with an interval of their own.
    fn layered_db(facts: &[(u8, i64, i64)], rules: &[(u8, u8, bool, i64)]) -> ConstrainedDatabase {
        let mut clauses: Vec<Clause> = facts
            .iter()
            .map(|&(p, lo, w)| Clause::fact(&format!("p0_{p}"), vec![x()], interval(lo, lo + w)))
            .collect();
        for (k, &(a, b, join, lo)) in rules.iter().enumerate() {
            let (layer, j) = (k / 2 + 1, k % 2);
            let below = |p: u8| BodyAtom::new(&format!("p{}_{p}", layer - 1), vec![x()]);
            let mut body = vec![below(a)];
            if join {
                body.push(below(b));
            }
            let guard = if lo % 3 == 0 {
                interval(lo, lo + 12)
            } else {
                Constraint::truth()
            };
            clauses.push(Clause::new(
                &format!("p{layer}_{j}"),
                vec![x()],
                guard,
                body,
            ));
        }
        ConstrainedDatabase::from_clauses(clauses)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(48),
            ..Default::default()
        })]

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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(32),
            ..Default::default()
        })]

        #[test]
        fn cascade_matches_full_weakening_on_random_ground_closures(
            edges in proptest::collection::btree_set((0i64..6, 1i64..7), 1..14usize),
            deletions in proptest::collection::vec((0u8..2, 0usize..16), 1..4usize),
        ) {
            let i = Term::int;
            let edges: Vec<(Term, Term)> =
                edges.into_iter().filter(|(a, b)| a < b).map(|(a, b)| (i(a), i(b))).collect();
            // Mostly edges of the graph (and their closure atoms), so
            // most requests hit.
            let deletions: Vec<ConstrainedAtom> = deletions
                .into_iter()
                .map(|(p, k)| {
                    let (a, b) = match edges.len() {
                        0 => (i(0), i(k as i64)),
                        n => edges[k % n].clone(),
                    };
                    pair(["P", "A"][p as usize], a, b)
                })
                .collect();
            assert_cascade_matches_full_weakening(&build(&closure_db(&edges)), &deletions);
        }

        #[test]
        fn cascade_matches_full_weakening_on_random_interval_programs(
            facts in proptest::collection::vec((0u8..2, 0i64..24, 0i64..10), 1..6usize),
            rules in proptest::collection::vec((0u8..2, 0u8..2, 0u8..2, 0i64..24), 2..7usize),
            deletions in proptest::collection::vec((0u8..6, 0u8..2, 0i64..28, 0i64..20), 1..8usize),
        ) {
            let rules: Vec<(u8, u8, bool, i64)> =
                rules.into_iter().map(|(a, b, join, lo)| (a, b, join == 1, lo)).collect();
            let layers = rules.len().div_ceil(2);
            // A layer draw of 3 or more repeats the previous request's
            // predicate, so several requests often meet one entry.
            let mut previous = (0, 0);
            let deletions: Vec<ConstrainedAtom> = deletions
                .into_iter()
                .map(|(layer, j, lo, w)| {
                    if layer < 3 {
                        previous = (usize::from(layer) % (layers + 1), j);
                    }
                    let (layer, j) = previous;
                    let c = if w < 4 { Constraint::eq(x(), Term::int(lo)) } else { interval(lo, lo + w) };
                    ConstrainedAtom::new(&format!("p{layer}_{j}"), vec![x()], c)
                })
                .collect();
            assert_cascade_matches_full_weakening(&build(&layered_db(&facts, &rules)), &deletions);
        }
    }
}
