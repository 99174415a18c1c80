//! Update stream over the layered interval program: every batch inserts
//! one fresh four-point interval into a layer-0 predicate and retires the
//! interval inserted `LAG` batches earlier, one point-deletion at a time
//! (4 deletes + 1 insert). The last point-deletion leaves the retired
//! entry unsolvable, so StDel / Extended DRed remove it and its derived
//! chain: the view holds `LAG` inserted intervals at every batch
//! boundary.

use super::{shuffle, Read, UpdateStream};
use mmv_bench::gen::constrained::{fact_intervals, layered_program, pred_name, LayeredSpec};
use mmv_constraints::{CmpOp, Constraint, Term, Value, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::{Clause, ConstrainedAtom, ConstrainedDatabase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Batches between an interval's insertion and its retirement.
pub const LAG: usize = 8;
/// Points per inserted interval (= point-deletions per batch).
pub const BLOCK_POINTS: i64 = 4;
/// Inserted intervals cycle through this many disjoint positions, so two
/// live intervals never overlap and values stay bounded.
const SLOTS: u64 = 2 * LAG as u64;
const SLOT_STRIDE: i64 = 2 * BLOCK_POINTS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    pred: usize,
    lo: i64,
}

pub struct LayeredStream {
    spec: LayeredSpec,
    rng: SmallRng,
    issued: u64,
    live: VecDeque<Block>,
}

fn x() -> Term {
    Term::var(Var(0))
}

fn interval(lo: i64, hi: i64) -> Constraint {
    Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
        x(),
        CmpOp::Le,
        Term::int(hi),
    ))
}

impl LayeredStream {
    /// The stream for `spec` (whose own `seed` places the program's
    /// intervals); `seed` orders the updates.
    pub fn new(spec: LayeredSpec, seed: u64) -> Self {
        let mut s = LayeredStream {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0x1a7e_4ed5),
            issued: 0,
            live: VecDeque::with_capacity(LAG + 1),
        };
        // The first LAG intervals are part of the initial program, so
        // batch 0 already has one to retire and every batch is alike.
        for _ in 0..LAG {
            let b = s.fresh_block();
            s.live.push_back(b);
        }
        s
    }

    fn fresh_block(&mut self) -> Block {
        // Beyond every program interval (those end below
        // value_space + interval_width).
        let base = 2 * (self.spec.value_space + self.spec.interval_width);
        let slot = (self.issued % SLOTS) as i64;
        self.issued += 1;
        Block {
            pred: self.rng.gen_range(0..self.spec.preds_per_layer),
            lo: base + slot * SLOT_STRIDE,
        }
    }

    fn with_live(&self, live: impl Iterator<Item = Block>) -> ConstrainedDatabase {
        let mut db = layered_program(&self.spec);
        for b in live {
            db.push(Clause::fact(
                &pred_name(0, b.pred),
                vec![x()],
                interval(b.lo, b.lo + BLOCK_POINTS - 1),
            ));
        }
        db
    }
}

impl UpdateStream for LayeredStream {
    fn initial_db(&self) -> ConstrainedDatabase {
        // Only meaningful before the first batch; the live set is then
        // exactly the pre-seeded intervals.
        self.with_live(self.live.iter().copied())
    }

    fn next_batch(&mut self) -> UpdateBatch {
        let retired = self
            .live
            .pop_front()
            .expect("LAG intervals are always live");
        let mut points: Vec<i64> = (retired.lo..retired.lo + BLOCK_POINTS).collect();
        shuffle(&mut points, &mut self.rng);
        let deletes = points
            .into_iter()
            .map(|p| {
                ConstrainedAtom::new(
                    &pred_name(0, retired.pred),
                    vec![x()],
                    Constraint::eq(x(), Term::int(p)),
                )
            })
            .collect();
        let fresh = self.fresh_block();
        self.live.push_back(fresh);
        UpdateBatch {
            deletes,
            inserts: vec![ConstrainedAtom::new(
                &pred_name(0, fresh.pred),
                vec![x()],
                interval(fresh.lo, fresh.lo + BLOCK_POINTS - 1),
            )],
        }
    }

    fn current_db(&self) -> ConstrainedDatabase {
        self.with_live(self.live.iter().copied())
    }

    fn reads(&self, n: usize) -> Vec<Read> {
        // Hits sit inside a program interval of the chain's layer-0
        // predicate (body_atoms = 1 keeps chains index-aligned), misses
        // beyond every interval the program or the stream ever holds.
        assert_eq!(self.spec.body_atoms, 1, "hit reads rely on aligned chains");
        let facts = fact_intervals(&self.spec);
        let beyond =
            4 * (self.spec.value_space + self.spec.interval_width) + SLOTS as i64 * SLOT_STRIDE;
        let mut rng = SmallRng::seed_from_u64(self.spec.seed ^ 0x0ead_5eed);
        (0..n)
            .map(|i| {
                let (pred0, lo, hi) = &facts[rng.gen_range(0..facts.len())];
                let top = pred0.replacen("p0_", &format!("p{}_", self.spec.layers), 1);
                let hit = i % 2 == 0;
                let v = if hit {
                    rng.gen_range(*lo..=*hi)
                } else {
                    beyond + rng.gen_range(0..self.spec.value_space)
                };
                Read {
                    pred: top,
                    args: vec![Value::int(v)],
                    expect: hit,
                }
            })
            .collect()
    }
}
