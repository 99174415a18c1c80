//! Stationary, seed-taking update streams. What a batch inserts a later
//! batch retires, so the view a stream maintains keeps its size and its
//! constraints keep their length however long the stream runs.

pub mod layered;
pub mod tc;

use mmv_core::batch::UpdateBatch;
use mmv_core::ConstrainedDatabase;
use rand::rngs::SmallRng;
use rand::Rng;

/// Fisher–Yates shuffle (the vendored `rand` has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i as u64) as usize);
    }
}

/// One point read on a workload's top predicate, with the answer the
/// served view must give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    pub pred: String,
    pub args: Vec<mmv_constraints::Value>,
    pub expect: bool,
}

/// An endless, deterministic sequence of update batches over one
/// program. Reads stay valid at every point of the stream: updates never
/// change the answers `reads` expects.
pub trait UpdateStream {
    /// The program the stream's first batch applies to.
    fn initial_db(&self) -> ConstrainedDatabase;
    /// The next batch.
    fn next_batch(&mut self) -> UpdateBatch;
    /// The database after every batch issued so far: what a
    /// from-scratch recomputation starts from.
    fn current_db(&self) -> ConstrainedDatabase;
    /// A batch that returns the view to the size it has on the initial
    /// database, for streams whose view size depends on where they
    /// stop; applied before reads are timed. `None` when every batch
    /// boundary already is such a state.
    fn settle(&mut self) -> Option<UpdateBatch> {
        None
    }
    /// `n` point reads, alternating hit and miss.
    fn reads(&self, n: usize) -> Vec<Read>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::layered::LayeredStream;
    use crate::gen::tc::{dag_edges, TcStream};
    use mmv_bench::gen::constrained::LayeredSpec;
    use mmv_constraints::{NoDomains, SolverConfig};
    use mmv_core::{
        apply_batch, fixpoint, recompute_instances, FixpointConfig, MaterializedView, Operator,
        SupportMode,
    };

    fn small_layered(seed: u64) -> LayeredStream {
        LayeredStream::new(
            LayeredSpec {
                layers: 3,
                preds_per_layer: 4,
                facts_per_pred: 12,
                body_atoms: 1,
                seed,
                ..LayeredSpec::default()
            },
            seed,
        )
    }

    fn small_tc(seed: u64) -> TcStream {
        TcStream::new(14, dag_edges(14, 20, 3, 5), seed)
    }

    fn rendered(stream: &mut dyn UpdateStream, n: usize) -> String {
        (0..n)
            .map(|_| format!("{}\n", stream.next_batch()))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_batches() {
        assert_eq!(
            rendered(&mut small_layered(7), 300),
            rendered(&mut small_layered(7), 300)
        );
        assert_ne!(
            rendered(&mut small_layered(7), 300),
            rendered(&mut small_layered(8), 300)
        );
        assert_eq!(
            rendered(&mut small_tc(7), 300),
            rendered(&mut small_tc(7), 300)
        );
        assert_ne!(
            rendered(&mut small_tc(7), 300),
            rendered(&mut small_tc(8), 300)
        );
        let (a, b) = (small_layered(7), small_layered(7));
        assert_eq!(a.initial_db().to_string(), b.initial_db().to_string());
        assert_eq!(a.reads(64), b.reads(64));
    }

    fn build(stream: &dyn UpdateStream, mode: SupportMode) -> MaterializedView {
        let (view, _) = fixpoint(
            &stream.initial_db(),
            &NoDomains,
            Operator::Tp,
            mode,
            &FixpointConfig::default(),
        )
        .unwrap();
        view
    }

    /// Live entries and mean literals per entry constraint.
    fn shape(view: &MaterializedView) -> (usize, f64) {
        let lits: usize = view
            .live_entries()
            .map(|(_, e)| e.atom.constraint.lits.len())
            .sum();
        (view.len(), lits as f64 / view.len() as f64)
    }

    /// Applies 1,000 batches and checks the view's shape at every
    /// hundredth batch boundary against the initial one.
    fn stays_flat(mut stream: impl UpdateStream, mode: SupportMode, settle: bool) {
        let db = stream.initial_db();
        let cfg = FixpointConfig::default();
        let mut view = build(&stream, mode);
        let initial = shape(&view);
        for b in 1..=1000 {
            apply_batch(
                &db,
                &mut view,
                &stream.next_batch(),
                &NoDomains,
                Operator::Tp,
                &cfg,
            )
            .unwrap();
            if b % 100 == 0 {
                if let Some(batch) = stream.settle().filter(|_| settle) {
                    apply_batch(&db, &mut view, &batch, &NoDomains, Operator::Tp, &cfg).unwrap();
                }
                let now = shape(&view);
                assert_eq!(now.0, initial.0, "view size at batch {b}");
                assert!(
                    (now.1 - initial.1).abs() <= 0.01 * initial.1,
                    "constraint length at batch {b}: {now:?} vs {initial:?}"
                );
                // Bounds the slots the store never reclaims, as the
                // benchmark's service restarts do.
                view = view.compact();
            }
        }
        let served = view
            .instances(&NoDomains, &SolverConfig::default())
            .unwrap();
        assert_eq!(
            served,
            recompute_instances(&stream.current_db(), &NoDomains, &cfg).unwrap()
        );
    }

    #[test]
    fn layered_view_stays_flat_over_1000_batches() {
        stays_flat(small_layered(3), SupportMode::WithSupports, false);
        stays_flat(small_layered(3), SupportMode::Plain, false);
    }

    #[test]
    fn tc_view_stays_flat_over_1000_batches() {
        stays_flat(small_tc(3), SupportMode::WithSupports, true);
    }

    #[test]
    fn batches_have_the_advertised_mix() {
        let mut s = small_layered(1);
        for _ in 0..50 {
            let b = s.next_batch();
            assert_eq!((b.deletes.len(), b.inserts.len()), (4, 1));
        }
        let mut s = small_tc(1);
        let first = s.next_batch();
        assert_eq!((first.deletes.len(), first.inserts.len()), (1, 0));
        let mut previous = first;
        for _ in 0..50 {
            let b = s.next_batch();
            assert_eq!(
                b.inserts, previous.deletes,
                "re-inserts what the previous batch deleted"
            );
            assert_ne!(b.deletes, previous.deletes);
            previous = b;
        }
    }

    #[test]
    fn reads_hold_before_and_after_updates() {
        let cfg = FixpointConfig::default();
        let check = |mut stream: Box<dyn UpdateStream>| {
            let db = stream.initial_db();
            let mut view = build(stream.as_ref(), SupportMode::WithSupports);
            let reads = stream.reads(64);
            assert_eq!(reads.iter().filter(|r| r.expect).count(), 32);
            for round in 0..3 {
                for r in &reads {
                    let got = view.ask(&r.pred, &r.args, &NoDomains, &cfg.solver).unwrap();
                    assert_eq!(got, r.expect, "{}({:?}) in round {round}", r.pred, r.args);
                }
                for _ in 0..7 {
                    apply_batch(
                        &db,
                        &mut view,
                        &stream.next_batch(),
                        &NoDomains,
                        Operator::Tp,
                        &cfg,
                    )
                    .unwrap();
                }
            }
        };
        check(Box::new(small_layered(2)));
        check(Box::new(small_tc(2)));
    }
}
