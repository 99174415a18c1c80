//! Maintenance cost follows the update, not the view.
//!
//! One batch — four point deletes that retire a four-point interval,
//! plus one fresh interval — is applied to the same layered interval
//! program at two sizes (`facts_per_pred` 64 and 512). The interval sits
//! beyond the program's value space (the shape of perfbench's
//! `LayeredStream`), so what the update overlaps is the same at both
//! sizes, and the *exact* solver-call counters of StDel, Extended DRed
//! and insertion must be too: the argument-bounds pre-check dismisses
//! every other entry, region and clause before the solver is asked.
//! StDel's upward step is held to the same rule at a third size, 4,096:
//! it visits the entries that depend on the deletion, the same ones at
//! every size, not every live entry. So is Extended DRed: its `P_OUT`,
//! the entries it weakens and rederives, and the candidates its joins
//! scan are the same at all three sizes. So is what the bounds selectors
//! of all three algorithms visit (`selected`): the interval index hands
//! them the entries and fact clauses the update meets, while the
//! dismissal count (`prefiltered`) still grows with the view. The
//! resulting views are checked against the declarative oracle.
//!
//! On a recursive ground transitive closure, StDel's solver calls for
//! one edge deletion do not grow with the number of derivations that
//! depend on the edge either: the edge's entry is emptied, and every
//! dependent derivation is emptied through it, untied and unsolved.
//!
//! However many of a batch's point deletes meet one entry, StDel
//! weakens it by all of them in one pass: it is replaced once if it
//! survives, and removed unreplaced if they empty it.
//!
//! The program's size does not show either. One StDel batch and one
//! Extended DRed batch against one copy of a 12-rule layered program
//! visit as many rules (`rules_visited`) when 99 disjoint copies sit
//! beside it: `P_ADD`, the `P_OUT` unfolding and the rederivation plan
//! only the rules that read a predicate their delta holds, and the
//! over-deletion program holds only the rules the deletion reaches.

use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Value, Var};
use mmv_core::{
    apply_batch, batch_oracle, fixpoint, BatchStats, BodyAtom, Clause, ConstrainedAtom,
    ConstrainedDatabase, DeleteStats, FixpointConfig, Operator, ParallelFixpoint, SupportMode,
    UpdateBatch, WorkerPool,
};
use std::sync::Arc;

const LAYERS: usize = 2;
const PREDS_PER_LAYER: usize = 2;
/// Holds 4,096 distinct interval starts per predicate, so a plain view
/// folds no facts at the largest size either.
const VALUE_SPACE: i64 = 8192;
const INTERVAL_WIDTH: i64 = 8;
/// Beyond every program interval (those end below `VALUE_SPACE +
/// INTERVAL_WIDTH`).
const BLOCK_LO: i64 = 2 * (VALUE_SPACE + INTERVAL_WIDTH);
const BLOCK_POINTS: i64 = 4;

fn x() -> Term {
    Term::var(Var(0))
}

fn pred(layer: usize, j: usize) -> String {
    format!("p{layer}_{j}")
}

fn interval(lo: i64, hi: i64) -> Constraint {
    Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
        x(),
        CmpOp::Le,
        Term::int(hi),
    ))
}

/// `facts_per_pred` interval facts per layer-0 predicate, chain rules
/// `p{k}_j(X) <- p{k-1}_j(X)` above them, and the block as one more
/// fact of `p0_0`.
fn program(facts_per_pred: usize) -> ConstrainedDatabase {
    let mut db = ConstrainedDatabase::new();
    for j in 0..PREDS_PER_LAYER {
        for i in 0..facts_per_pred as i64 {
            // A stride coprime to the value space: the starts of one
            // predicate are distinct (a plain view would fold equal
            // facts into one entry) and spread over the whole space.
            let lo = ((i + 1) * (7919 + 2 * j as i64)) % VALUE_SPACE;
            db.push(Clause::fact(
                &pred(0, j),
                vec![x()],
                interval(lo, lo + INTERVAL_WIDTH),
            ));
        }
    }
    for layer in 1..=LAYERS {
        for j in 0..PREDS_PER_LAYER {
            db.push(Clause::new(
                &pred(layer, j),
                vec![x()],
                Constraint::truth(),
                vec![BodyAtom::new(&pred(layer - 1, j), vec![x()])],
            ));
        }
    }
    db.push(Clause::fact(
        &pred(0, 0),
        vec![x()],
        interval(BLOCK_LO, BLOCK_LO + BLOCK_POINTS - 1),
    ));
    db
}

fn batch() -> UpdateBatch {
    let fresh = BLOCK_LO + 2 * BLOCK_POINTS;
    UpdateBatch {
        deletes: (BLOCK_LO..BLOCK_LO + BLOCK_POINTS)
            .map(|p| {
                ConstrainedAtom::new(&pred(0, 0), vec![x()], Constraint::eq(x(), Term::int(p)))
            })
            .collect(),
        inserts: vec![ConstrainedAtom::new(
            &pred(0, 1),
            vec![x()],
            interval(fresh, fresh + BLOCK_POINTS - 1),
        )],
    }
}

/// Applies the batch to the program of the given size and checks the
/// result against the oracle (`rewrite_for_deletion` + `fixpoint`).
fn maintained(facts_per_pred: usize, mode: SupportMode, config: &FixpointConfig) -> BatchStats {
    let db = program(facts_per_pred);
    let inline = FixpointConfig::default();
    let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, mode, &inline).expect("build");
    assert_eq!(
        view.len(),
        (LAYERS + 1) * (PREDS_PER_LAYER * facts_per_pred + 1)
    );
    let batch = batch();
    let expected = batch_oracle(&db, &view, &batch, &NoDomains, &inline).expect("oracle");
    let stats =
        apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, config).expect("maintenance");
    assert_eq!(
        view.instances(&NoDomains, &inline.solver)
            .expect("instances"),
        expected,
        "{mode:?} at {facts_per_pred} facts per predicate"
    );
    // The retired interval and its chain are gone, the fresh one and
    // its chain are in.
    assert_eq!(
        view.len(),
        (LAYERS + 1) * (PREDS_PER_LAYER * facts_per_pred + 1)
    );
    stats
}

/// The entries StDel's upward step visited.
fn stdel_walked(stats: &BatchStats) -> usize {
    match stats.deletes {
        DeleteStats::StDel(s) => s.walked,
        _ => panic!("a view with supports deletes by StDel"),
    }
}

/// `(deletion solver calls, deletion prefiltered)`.
fn delete_counters(stats: &BatchStats) -> (usize, usize) {
    match stats.deletes {
        DeleteStats::StDel(s) => (s.solver_calls, s.prefiltered),
        DeleteStats::Dred(d) => (d.solver_calls, d.prefiltered),
        DeleteStats::None => panic!("the batch deletes"),
    }
}

/// Entries and fact clauses the deletion's bounds selectors visited.
fn delete_selected(stats: &BatchStats) -> usize {
    match stats.deletes {
        DeleteStats::StDel(s) => s.selected,
        DeleteStats::Dred(d) => d.selected,
        DeleteStats::None => panic!("the batch deletes"),
    }
}

/// `(deletion selected, Add-build selected)`: equal at every size.
fn selected(stats: &BatchStats) -> (usize, usize) {
    (delete_selected(stats), stats.inserts.selected)
}

/// Returns the stats at the two sizes.
fn solver_calls_do_not_scale_with_the_view(mode: SupportMode) -> (BatchStats, BatchStats) {
    // Inline, and under a pool as wide as the CI leg asks for: the
    // counters are the same numbers either way.
    let width = std::env::var("MMV_POOL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let pooled = FixpointConfig {
        parallel: Some(ParallelFixpoint {
            pool: Arc::new(WorkerPool::new(width)),
            resolver: Arc::new(NoDomains),
        }),
        ..FixpointConfig::default()
    };
    let small = maintained(64, mode, &FixpointConfig::default());
    let large = maintained(512, mode, &FixpointConfig::default());
    let large_pooled = maintained(512, mode, &pooled);

    let (small_calls, small_dismissed) = delete_counters(&small);
    let (large_calls, large_dismissed) = delete_counters(&large);
    assert!(small_calls > 0, "{mode:?}: the update overlaps something");
    assert_eq!(small_calls, large_calls, "{mode:?} deletion solver calls");
    assert_eq!(
        small.inserts.solver_calls, large.inserts.solver_calls,
        "{mode:?} Add-build solver calls"
    );
    assert_eq!(
        small.inserts.fixpoint.derivations_tried, large.inserts.fixpoint.derivations_tried,
        "{mode:?} P_ADD derivations"
    );
    // What grew with the view was dismissed without the solver:
    // each request faces every fact of its predicate.
    assert!(
        large_dismissed - small_dismissed >= (512 - 64) * BLOCK_POINTS as usize,
        "{mode:?} deletion prefiltered {small_dismissed} -> {large_dismissed}"
    );
    assert_eq!(
        (small.inserts.prefiltered, large.inserts.prefiltered),
        (64, 512),
        "{mode:?} Add-build prefiltered"
    );
    // ...yet not visited: the selectors see what the update meets.
    assert!(
        delete_selected(&small) > 0,
        "{mode:?}: the deletion meets something"
    );
    assert_eq!(selected(&small), selected(&large), "{mode:?} selected");
    assert_eq!(large, large_pooled, "{mode:?} counters under the pool");
    (small, large)
}

#[test]
fn stdel_solver_calls_do_not_scale_with_the_view() {
    let (small, large) = solver_calls_do_not_scale_with_the_view(SupportMode::WithSupports);
    let huge = maintained(4096, SupportMode::WithSupports, &FixpointConfig::default());
    let walked = stdel_walked(&small);
    assert!(walked > 0, "the deletion has dependents");
    assert_eq!(
        (stdel_walked(&large), stdel_walked(&huge)),
        (walked, walked),
        "StDel walked at 512 and 4,096 facts per predicate"
    );
    assert_eq!(
        selected(&huge),
        selected(&small),
        "StDel and Add-build selected at 4,096 facts per predicate"
    );
}

#[test]
fn dred_solver_calls_do_not_scale_with_the_view() {
    let (small, large) = solver_calls_do_not_scale_with_the_view(SupportMode::Plain);
    let huge = maintained(4096, SupportMode::Plain, &FixpointConfig::default());
    // `(P_OUT, weakened, rederived, candidates scanned)`.
    let visited = |stats: &BatchStats| match stats.deletes {
        DeleteStats::Dred(d) => (d.pout_atoms, d.weakened, d.rederived, d.candidates_scanned),
        _ => panic!("a plain view deletes by Extended DRed"),
    };
    let at_64 = visited(&small);
    assert!(at_64.0 > 0, "the deletion unfolds");
    assert_eq!(
        (visited(&large), visited(&huge)),
        (at_64, at_64),
        "Extended DRed's work at 512 and 4,096 facts per predicate"
    );
    assert_eq!(
        selected(&huge),
        selected(&small),
        "Extended DRed and Add-build selected at 4,096 facts per predicate"
    );
}

/// Two interval facts' predicates per chain, `p0_j` and `r0_j`, with
/// `facts_per_pred` facts each, joined by `q_j(X) <- p0_j(X), r0_j(X)`.
/// The `r0_j` facts sit in the next stretch of the line, between the
/// `p0_j` facts and the block, so the join of the two predicates stays
/// empty and the view grows linearly. The block is one more fact of
/// `p0_0`, and one `r0_j` fact per chain covers the block and the
/// batch's fresh interval, so both the deletion and the insertion join
/// something.
fn two_body_program(facts_per_pred: usize) -> ConstrainedDatabase {
    let mut db = ConstrainedDatabase::new();
    for j in 0..PREDS_PER_LAYER {
        for (body, base) in [("p0", 0), ("r0", VALUE_SPACE + INTERVAL_WIDTH)] {
            for i in 0..facts_per_pred as i64 {
                let lo = base + ((i + 1) * (7919 + 2 * j as i64)) % VALUE_SPACE;
                db.push(Clause::fact(
                    &format!("{body}_{j}"),
                    vec![x()],
                    interval(lo, lo + INTERVAL_WIDTH),
                ));
            }
        }
        db.push(Clause::fact(
            &format!("r0_{j}"),
            vec![x()],
            interval(BLOCK_LO, BLOCK_LO + 4 * BLOCK_POINTS),
        ));
        db.push(Clause::new(
            &format!("q_{j}"),
            vec![x()],
            Constraint::truth(),
            vec![
                BodyAtom::new(&format!("p0_{j}"), vec![x()]),
                BodyAtom::new(&format!("r0_{j}"), vec![x()]),
            ],
        ));
    }
    db.push(Clause::fact(
        &pred(0, 0),
        vec![x()],
        interval(BLOCK_LO, BLOCK_LO + BLOCK_POINTS - 1),
    ));
    db
}

#[test]
fn two_body_joins_select_by_bounds() {
    // `(P_ADD derivations tried, P_ADD candidates scanned, Extended
    // DRed's candidates scanned)`: a join's second body atom is looked
    // up by the bounds the first places on `X`, not scanned whole.
    let counters = |facts_per_pred: usize| {
        let db = two_body_program(facts_per_pred);
        let inline = FixpointConfig::default();
        let (mut view, _) =
            fixpoint(&db, &NoDomains, Operator::Tp, SupportMode::Plain, &inline).expect("build");
        let batch = batch();
        let expected = batch_oracle(&db, &view, &batch, &NoDomains, &inline).expect("oracle");
        let stats = apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, &inline)
            .expect("maintenance");
        assert_eq!(
            view.instances(&NoDomains, &inline.solver)
                .expect("instances"),
            expected,
            "{facts_per_pred} facts per predicate"
        );
        let DeleteStats::Dred(d) = stats.deletes else {
            panic!("a plain view deletes by Extended DRed")
        };
        (
            stats.inserts.fixpoint.derivations_tried,
            stats.inserts.fixpoint.candidates_scanned,
            d.candidates_scanned,
        )
    };
    let at_64 = counters(64);
    assert!(at_64.0 > 0, "the fresh interval joins");
    assert!(at_64.2 > 0, "the deletion unfolds through the join");
    assert_eq!(
        (counters(512), counters(4096)),
        (at_64, at_64),
        "at 512 and 4,096 facts per predicate"
    );
}

/// Transitive closure `A` of the edges `P`: `0 → 1`, then `1 → c → D`
/// through `fan` middle nodes `c`, so `2 * fan + 1` derivations of `A`
/// depend on the edge `0 → 1` (`fan` of them reach `D` by distinct
/// paths).
fn fan_closure(fan: i64) -> ConstrainedDatabase {
    const D: i64 = 1_000_000;
    let (x, y, z) = (Term::var(Var(0)), Term::var(Var(1)), Term::var(Var(2)));
    let mut db = ConstrainedDatabase::new();
    let edge =
        |a: i64, b: i64| Clause::fact("P", vec![Term::int(a), Term::int(b)], Constraint::truth());
    db.push(edge(0, 1));
    for c in 2..2 + fan {
        db.push(edge(1, c));
        db.push(edge(c, D));
    }
    db.push(Clause::new(
        "A",
        vec![x.clone(), y.clone()],
        Constraint::truth(),
        vec![BodyAtom::new("P", vec![x.clone(), y.clone()])],
    ));
    db.push(Clause::new(
        "A",
        vec![x.clone(), y.clone()],
        Constraint::truth(),
        vec![
            BodyAtom::new("P", vec![x, z.clone()]),
            BodyAtom::new("A", vec![z, y]),
        ],
    ));
    db
}

#[test]
fn stdel_edge_deletion_costs_the_same_however_many_paths_depend_on_it() {
    let counters = |fan: i64| {
        let db = fan_closure(fan);
        let inline = FixpointConfig::default();
        let (mut view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &inline,
        )
        .expect("build");
        let batch = UpdateBatch {
            deletes: vec![ConstrainedAtom::fact(
                "P",
                vec![Value::int(0), Value::int(1)],
            )],
            inserts: Vec::new(),
        };
        let expected = batch_oracle(&db, &view, &batch, &NoDomains, &inline).expect("oracle");
        let stats = apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, &inline)
            .expect("maintenance");
        assert_eq!(
            view.instances(&NoDomains, &inline.solver)
                .expect("instances"),
            expected,
            "fan {fan}"
        );
        match stats.deletes {
            DeleteStats::StDel(s) => (s.solver_calls, s.removed, s.walked, s.emptied),
            _ => panic!("a view with supports deletes by StDel"),
        }
    };
    let (few, hundreds) = (counters(2), counters(300));
    // The edge and its `2 * fan + 1` dependents go; all the dependents
    // are visited, and all are emptied through the edge.
    assert_eq!(
        (few.1, few.2, few.3),
        (6, 5, 5),
        "removed, walked and emptied at fan 2"
    );
    assert_eq!(
        (hundreds.1, hundreds.2, hundreds.3),
        (602, 601, 601),
        "removed, walked and emptied at fan 300"
    );
    assert!(few.0 > 0, "the deletion meets the edge");
    assert_eq!(few.0, hundreds.0, "StDel solver calls at fan 2 and 300");
}

/// An interval fact `[lo, lo + 3]` of `p0_0` under the three-rule chain
/// `p{k}_0(X) <- p{k-1}_0(X)`, and a StDel batch deleting `points` of
/// its points.
fn chain_under_block(points: i64) -> mmv_core::StDelStats {
    let mut db = ConstrainedDatabase::new();
    db.push(Clause::fact(
        &pred(0, 0),
        vec![x()],
        interval(BLOCK_LO, BLOCK_LO + BLOCK_POINTS - 1),
    ));
    for layer in 1..=3 {
        db.push(Clause::new(
            &pred(layer, 0),
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new(&pred(layer - 1, 0), vec![x()])],
        ));
    }
    let inline = FixpointConfig::default();
    let (mut view, _) = fixpoint(
        &db,
        &NoDomains,
        Operator::Tp,
        SupportMode::WithSupports,
        &inline,
    )
    .expect("build");
    let batch = UpdateBatch {
        deletes: (BLOCK_LO..BLOCK_LO + points)
            .map(|p| {
                ConstrainedAtom::new(&pred(0, 0), vec![x()], Constraint::eq(x(), Term::int(p)))
            })
            .collect(),
        inserts: Vec::new(),
    };
    let expected = batch_oracle(&db, &view, &batch, &NoDomains, &inline).expect("oracle");
    let stats = apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, &inline)
        .expect("maintenance");
    assert_eq!(
        view.instances(&NoDomains, &inline.solver)
            .expect("instances"),
        expected,
        "{points} points"
    );
    match stats.deletes {
        DeleteStats::StDel(s) => s,
        _ => panic!("a view with supports deletes by StDel"),
    }
}

#[test]
fn stdel_replaces_an_entry_once_however_many_requests_meet_it() {
    // All four points: the block entry is weakened by all four requests
    // at once, found empty by one solver call and never replaced; its
    // chain is emptied through it.
    let all = chain_under_block(BLOCK_POINTS);
    assert_eq!(
        (all.direct_replacements, all.removed, all.emptied),
        (0, 4, 3),
        "{all:?}"
    );
    // Four overlap tests and one emptiness test.
    assert!(all.solver_calls <= 5, "{all:?}");
    // Three of them: the block entry survives and is replaced once.
    let three = chain_under_block(BLOCK_POINTS - 1);
    assert_eq!(
        (three.direct_replacements, three.removed),
        (1, 0),
        "{three:?}"
    );
}

/// Layers of chain rules above layer 0 in [`layered_copies`].
const COPY_LAYERS: usize = 3;
/// Chains per copy in [`layered_copies`]: 3 × 4 = 12 rules per copy.
const COPY_PREDS: usize = 4;

/// `copies` disjoint copies of a layered program: per copy `c`, 8
/// interval facts per layer-0 predicate `p0_j_c` and chain rules
/// `pk_j_c(X) <- p{k-1}_j_c(X)` above them, plus copy 0's block as one
/// more fact of `p0_0_0`.
fn layered_copies(copies: usize) -> ConstrainedDatabase {
    let name = |layer: usize, j: usize, c: usize| format!("p{layer}_{j}_{c}");
    let mut db = ConstrainedDatabase::new();
    for c in 0..copies {
        for j in 0..COPY_PREDS {
            for i in 0..8 {
                let lo = 100 * i;
                db.push(Clause::fact(
                    &name(0, j, c),
                    vec![x()],
                    interval(lo, lo + INTERVAL_WIDTH),
                ));
            }
        }
        for layer in 1..=COPY_LAYERS {
            for j in 0..COPY_PREDS {
                db.push(Clause::new(
                    &name(layer, j, c),
                    vec![x()],
                    Constraint::truth(),
                    vec![BodyAtom::new(&name(layer - 1, j, c), vec![x()])],
                ));
            }
        }
    }
    db.push(Clause::fact(
        &name(0, 0, 0),
        vec![x()],
        interval(BLOCK_LO, BLOCK_LO + BLOCK_POINTS - 1),
    ));
    db
}

/// Copy 0's batch: retire the block and insert a fresh interval.
fn copy_batch() -> UpdateBatch {
    let fresh = BLOCK_LO + 2 * BLOCK_POINTS;
    let atom = |pred: &str, c: Constraint| ConstrainedAtom::new(pred, vec![x()], c);
    UpdateBatch {
        deletes: (BLOCK_LO..BLOCK_LO + BLOCK_POINTS)
            .map(|p| atom("p0_0_0", Constraint::eq(x(), Term::int(p))))
            .collect(),
        inserts: vec![atom("p0_1_0", interval(fresh, fresh + BLOCK_POINTS - 1))],
    }
}

/// `(P_ADD rules visited, Extended DRed rules visited)` for the batch
/// against `copies` copies, checked against the oracle.
fn rules_visited(copies: usize, mode: SupportMode) -> (usize, usize) {
    let db = layered_copies(copies);
    assert_eq!(db.rules().count(), 12 * copies);
    let config = FixpointConfig::default();
    let (mut view, _) = fixpoint(&db, &NoDomains, Operator::Tp, mode, &config).expect("build");
    let batch = copy_batch();
    let expected = batch_oracle(&db, &view, &batch, &NoDomains, &config).expect("oracle");
    let stats = apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, &config)
        .expect("maintenance");
    assert_eq!(
        view.instances(&NoDomains, &config.solver)
            .expect("instances"),
        expected,
        "{mode:?} at {copies} copies"
    );
    let dred = match stats.deletes {
        DeleteStats::Dred(d) => {
            // `Del` and the three layers above it.
            assert_eq!(d.pout_atoms, 4 * (COPY_LAYERS + 1), "P_OUT atoms");
            d.rules_visited
        }
        DeleteStats::StDel(_) => 0,
        DeleteStats::None => panic!("the batch deletes"),
    };
    (stats.inserts.fixpoint.rules_visited, dred)
}

#[test]
fn rules_visited_do_not_scale_with_the_program() {
    // P_ADD walks up copy 0's chain p0_1 -> p3_1: one rule in each of
    // three rounds. Extended DRed's unfolding walks up p0_0 -> p3_0 the
    // same way (3), and its rederivation, over the three chain rules of
    // P'' under `°h`, visits 4 more.
    for (mode, expected) in [
        (SupportMode::WithSupports, (COPY_LAYERS, 0)),
        (SupportMode::Plain, (COPY_LAYERS, 2 * COPY_LAYERS + 1)),
    ] {
        assert_eq!(rules_visited(1, mode), expected, "{mode:?} at 12 rules");
        assert_eq!(
            rules_visited(100, mode),
            expected,
            "{mode:?} at 1,200 rules"
        );
    }
}
