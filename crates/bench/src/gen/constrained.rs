//! Constrained (non-ground) workload generators: layered interval
//! programs whose views have controllable size, derivation depth and
//! sharing — the workload family of the `paper` binary's `deletion`,
//! `insertion` and `supports` sections, and of perfbench's `layered_*`
//! workloads.

use mmv_constraints::{CmpOp, Constraint, Term, Var};
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Specification of a layered interval program.
///
/// Layer 0 holds `preds_per_layer` predicates with `facts_per_pred`
/// interval facts each (`p(X) <- lo <= X <= hi`); every higher layer
/// derives each of its predicates from `body_atoms` predicates of the
/// layer below (same variable), so the view has
/// `layers × preds_per_layer × facts_per_pred^…` entries and derivation
/// height `layers`.
#[derive(Debug, Clone, Copy)]
pub struct LayeredSpec {
    /// Number of derived layers above the facts.
    pub layers: usize,
    /// Predicates per layer.
    pub preds_per_layer: usize,
    /// Interval facts per layer-0 predicate.
    pub facts_per_pred: usize,
    /// Width of each random interval.
    pub interval_width: i64,
    /// Value-space upper bound for interval starts.
    pub value_space: i64,
    /// Body atoms per derived clause (1 = chain, 2 = join).
    pub body_atoms: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LayeredSpec {
    fn default() -> Self {
        LayeredSpec {
            layers: 3,
            preds_per_layer: 4,
            facts_per_pred: 4,
            interval_width: 40,
            value_space: 1000,
            body_atoms: 1,
            seed: 1,
        }
    }
}

/// The name of predicate `j` in layer `k`.
pub fn pred_name(layer: usize, j: usize) -> String {
    format!("p{layer}_{j}")
}

/// Generates the layered program. Layer-0 facts are exactly the
/// intervals of [`fact_intervals`] (the single source of truth, so
/// update generators like [`effective_deletion`] can never desync from
/// the program).
pub fn layered_program(spec: &LayeredSpec) -> ConstrainedDatabase {
    assert!(spec.preds_per_layer >= 1 && spec.body_atoms >= 1);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let x = Term::var(Var(0));
    let mut db = ConstrainedDatabase::new();
    for (pred, lo, hi) in fact_intervals(spec) {
        db.push(Clause::fact(
            &pred,
            vec![x.clone()],
            Constraint::cmp(x.clone(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
                x.clone(),
                CmpOp::Le,
                Term::int(hi),
            )),
        ));
        // Keep this RNG's stream identical to the pre-fact_intervals
        // layout: the fact loop used to draw one value per fact, and the
        // wiring draws below continue from that position.
        let _ = rng.gen_range(0..spec.value_space.max(1));
    }
    for layer in 1..=spec.layers {
        for j in 0..spec.preds_per_layer {
            let body: Vec<BodyAtom> = (0..spec.body_atoms)
                .map(|b| {
                    // First body atom below the same index keeps chains
                    // aligned; extra atoms pick random lower predicates.
                    let src = if b == 0 {
                        j
                    } else {
                        rng.gen_range(0..spec.preds_per_layer)
                    };
                    BodyAtom::new(&pred_name(layer - 1, src), vec![x.clone()])
                })
                .collect();
            db.push(Clause::new(
                &pred_name(layer, j),
                vec![x.clone()],
                Constraint::truth(),
                body,
            ));
        }
    }
    db
}

/// A random point-deletion request against a layer-0 predicate of the
/// spec (the update of the `paper` binary's `deletion` sweep). The
/// point is uniform over the value space, so it may or may not hit a
/// fact interval.
pub fn random_deletion(spec: &LayeredSpec, seed: u64) -> ConstrainedAtom {
    let mut rng = SmallRng::seed_from_u64(seed);
    let j = rng.gen_range(0..spec.preds_per_layer);
    let point = rng.gen_range(0..spec.value_space + spec.interval_width);
    let x = Term::var(Var(0));
    ConstrainedAtom::new(
        &pred_name(0, j),
        vec![x.clone()],
        Constraint::eq(x, Term::int(point)),
    )
}

/// The layer-0 fact intervals of the spec, in generation order:
/// `(predicate, lo, hi)`. [`layered_program`] builds its layer-0 fact
/// clauses from exactly this list.
pub fn fact_intervals(spec: &LayeredSpec) -> Vec<(String, i64, i64)> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut out = Vec::with_capacity(spec.preds_per_layer * spec.facts_per_pred);
    for j in 0..spec.preds_per_layer {
        for _ in 0..spec.facts_per_pred {
            let lo = rng.gen_range(0..spec.value_space.max(1));
            out.push((pred_name(0, j), lo, lo + spec.interval_width));
        }
    }
    out
}

/// A point-deletion request guaranteed to hit a layer-0 fact: the point
/// is drawn *inside* a random fact's interval, so the deletion always
/// produces a non-empty `Del` set (the batched-maintenance benchmarks
/// need every update to trigger a real maintenance pass).
pub fn effective_deletion(spec: &LayeredSpec, seed: u64) -> ConstrainedAtom {
    let intervals = fact_intervals(spec);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xde1e7e);
    let (pred, lo, hi) = &intervals[rng.gen_range(0..intervals.len())];
    let point = rng.gen_range(*lo..=*hi);
    let x = Term::var(Var(0));
    ConstrainedAtom::new(pred, vec![x.clone()], Constraint::eq(x, Term::int(point)))
}

/// A random small-interval insertion request against a layer-0 predicate
/// (the updates of the `paper` binary's `insertion` section).
pub fn random_insertion(spec: &LayeredSpec, seed: u64, width: i64) -> ConstrainedAtom {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let j = rng.gen_range(0..spec.preds_per_layer);
    let lo = rng.gen_range(0..spec.value_space.max(1)) + 2 * spec.value_space;
    let x = Term::var(Var(0));
    ConstrainedAtom::new(
        &pred_name(0, j),
        vec![x.clone()],
        Constraint::cmp(x.clone(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x,
            CmpOp::Le,
            Term::int(lo + width),
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::NoDomains;
    use mmv_core::{fixpoint, FixpointConfig, Operator, SupportMode};

    #[test]
    fn view_size_matches_structure() {
        let spec = LayeredSpec {
            layers: 2,
            preds_per_layer: 3,
            facts_per_pred: 2,
            body_atoms: 1,
            ..LayeredSpec::default()
        };
        let db = layered_program(&spec);
        let (view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        // Chain shape: every layer mirrors layer 0's entries.
        assert_eq!(view.len(), 3 * 2 * (2 + 1));
    }

    #[test]
    fn join_shape_multiplies_derivations() {
        let spec = LayeredSpec {
            layers: 1,
            preds_per_layer: 2,
            facts_per_pred: 2,
            body_atoms: 2,
            interval_width: 2000, // wide: joins stay solvable
            ..LayeredSpec::default()
        };
        let db = layered_program(&spec);
        let (view, _) = fixpoint(
            &db,
            &NoDomains,
            Operator::Tp,
            SupportMode::WithSupports,
            &FixpointConfig::default(),
        )
        .unwrap();
        // 4 facts + per derived pred up to 2*2 joins.
        assert!(view.len() > 4, "view = {}", view.len());
    }

    #[test]
    fn deletion_requests_hit_layer_zero() {
        let spec = LayeredSpec::default();
        let d = random_deletion(&spec, 9);
        assert!(d.pred.starts_with("p0_"));
        let d2 = random_deletion(&spec, 9);
        assert_eq!(d.to_string(), d2.to_string());
    }

    #[test]
    fn effective_deletions_always_hit_a_fact() {
        // Cover the `paper` configurations (its batched deletion sweep
        // uses 8–16 facts/pred), not just the default spec.
        for facts_per_pred in [4, 8, 16] {
            let spec = LayeredSpec {
                facts_per_pred,
                ..LayeredSpec::default()
            };
            let intervals = fact_intervals(&spec);
            assert_eq!(intervals.len(), spec.preds_per_layer * spec.facts_per_pred);
            let db = layered_program(&spec);
            let (view, _) = fixpoint(
                &db,
                &NoDomains,
                Operator::Tp,
                SupportMode::WithSupports,
                &FixpointConfig::default(),
            )
            .unwrap();
            for seed in 0..16 {
                let d = effective_deletion(&spec, seed);
                let stats = mmv_core::stdel_delete(
                    &mut view.clone(),
                    &d,
                    &NoDomains,
                    &mmv_constraints::SolverConfig::default(),
                )
                .unwrap();
                // An entry the deletion empties outright is removed,
                // not replaced.
                assert!(
                    stats.direct_replacements + stats.removed > 0,
                    "deletion {d} (seed {seed}) hit nothing"
                );
            }
        }
    }

    #[test]
    fn insertions_target_fresh_space() {
        let spec = LayeredSpec::default();
        let ins = random_insertion(&spec, 3, 5);
        assert!(ins.pred.starts_with("p0_"));
    }
}
