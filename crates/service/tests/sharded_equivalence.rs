//! Sharding must be invisible: a service with per-predicate writer
//! lanes must serve *syntactically* the same view as the single-lane
//! service (and, instance-level, the same state as the declarative
//! `batch_oracle`) on any sequence of mixed single-/cross-shard
//! batches, in both support modes — and concurrent readers must see
//! per-shard and global epochs move monotonically, never a torn
//! cross-shard publication.

use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Value, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::semantics::batch_oracle;
use mmv_core::tp::{fixpoint, FixpointConfig, Operator};
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase, ShardSpec, SupportMode};
use mmv_service::{ServiceWorker, ViewService};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const COMPONENTS: usize = 3;

fn x() -> Term {
    Term::var(Var(0))
}

/// `COMPONENTS` independent chains `bK → aK`, each over `[0, 9]`.
fn multi_chain_db() -> ConstrainedDatabase {
    let mut clauses = Vec::new();
    for k in 0..COMPONENTS {
        clauses.push(Clause::fact(
            &format!("b{k}"),
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(9),
            )),
        ));
        clauses.push(Clause::new(
            &format!("a{k}"),
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new(&format!("b{k}"), vec![x()])],
        ));
    }
    ConstrainedDatabase::from_clauses(clauses)
}

fn del_point(comp: usize, v: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(
        &format!("b{comp}"),
        vec![x()],
        Constraint::eq(x(), Term::int(v)),
    )
}

fn ins_interval(comp: usize, lo: i64, w: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(
        &format!("b{comp}"),
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(lo + w),
        )),
    )
}

#[derive(Debug, Clone)]
enum Op {
    Del { comp: usize, v: i64 },
    Ins { comp: usize, lo: i64, w: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => ((0..COMPONENTS), (0i64..12)).prop_map(|(comp, v)| Op::Del { comp, v }),
        1 => ((0..COMPONENTS), (20i64..50), (0i64..3))
            .prop_map(|(comp, lo, w)| Op::Ins { comp, lo, w }),
    ]
}

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    collection::vec(collection::vec(op_strategy(), 1..=4_usize), 1..=4_usize)
}

fn to_batch(ops: &[Op]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for op in ops {
        match *op {
            Op::Del { comp, v } => batch.deletes.push(del_point(comp, v)),
            Op::Ins { comp, lo, w } => batch.inserts.push(ins_interval(comp, lo, w)),
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24),
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    #[test]
    fn sharded_equals_single_lane_and_oracle(batches in batches_strategy()) {
        let db = multi_chain_db();
        let cfg = FixpointConfig::default();
        let scfg = SolverConfig::default();
        for mode in [SupportMode::Plain, SupportMode::WithSupports] {
            // The declarative oracle for the first batch, taken from
            // the (shared) base state.
            let (base_view, _) = fixpoint(&db, &NoDomains, Operator::Tp, mode, &cfg)
                .expect("base fixpoint");
            let first_oracle = batch_oracle(
                &db, &base_view, &to_batch(&batches[0]), &NoDomains, &cfg,
            ).expect("oracle evaluates");

            // The sharded service sweeps the intra-lane pool width
            // (1 = no pool, 2 and 4 = pooled rounds); the
            // single-lane reference always runs inline, so every
            // width is checked against the same inline state.
            for pool_threads in [1usize, 2, 4] {
            let sharded = ViewService::builder()
                .mode(mode)
                .fixpoint(cfg.clone())
                .pool_threads(pool_threads)
                .build(db.clone())
                .expect("sharded service builds");
            prop_assert_eq!(sharded.shard_map().num_shards(), COMPONENTS);
            prop_assert_eq!(sharded.pool().is_some(), pool_threads > 1);
            let single = ViewService::builder()
                .mode(mode)
                .fixpoint(cfg.clone())
                .shards(ShardSpec::single_lane())
                .pool_threads(1)
                .build(db.clone())
                .expect("single-lane service builds");
            prop_assert!(single.shard_map().is_single());

            let mut last_shard_epochs = [0u64; COMPONENTS];
            for (i, ops) in batches.iter().enumerate() {
                let batch = to_batch(ops);
                let touched: std::collections::BTreeSet<usize> = batch
                    .deletes.iter().chain(&batch.inserts)
                    .map(|a| sharded.shard_map().shard_of(&a.pred))
                    .collect();
                let a = sharded.apply(batch.clone()).expect("sharded apply");
                let b = single.apply(batch).expect("single-lane apply");
                prop_assert_eq!(a.epoch, b.epoch, "global epochs advance in lockstep");
                prop_assert_eq!(a.shards_touched, touched.len());
                prop_assert_eq!(b.shards_touched.min(1), 1);

                // Shard epochs advance exactly for touched shards.
                let snap = sharded.snapshot();
                for (s, last) in last_shard_epochs.iter_mut().enumerate() {
                    let expect = *last + u64::from(touched.contains(&s));
                    prop_assert_eq!(snap.shard_epoch(s), expect, "shard {} epoch", s);
                    *last = snap.shard_epoch(s);
                }

                // The served states are syntactically identical (atoms,
                // supports, external tickets — everything).
                let merged = snap.merged_view();
                prop_assert!(
                    merged.syntactically_equal(&single.snapshot().merged_view()),
                    "{mode:?} diverged after batch {i}:\nsharded:\n{merged}\nsingle:\n{sv}",
                    mode = mode, i = i, merged = merged,
                    sv = single.snapshot().merged_view(),
                );
                if i == 0 {
                    let inst = snap.instances(&NoDomains, &scfg).expect("instances");
                    prop_assert_eq!(&inst, &first_oracle, "{:?} != oracle on batch 0", mode);
                }
            }

            // Replaying the sharded service's log onto one fresh view
            // reproduces the merged served state.
            let replayed = sharded
                .log()
                .replay(&db, &NoDomains, Operator::Tp, mode, &cfg)
                .expect("replay");
            prop_assert!(replayed.syntactically_equal(&sharded.snapshot().merged_view()));
            }
        }
    }
}

/// Concurrent readers racing writers on independent lanes: per-shard
/// epochs and the global epoch must be monotone on every read, and a
/// cross-shard batch must never be observed torn (both its shards move
/// in one publication).
#[test]
fn concurrent_readers_observe_monotone_untorn_epochs() {
    let db = multi_chain_db();
    let svc = Arc::new(ViewService::builder().build(db).expect("service builds"));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let svc = svc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let cfg = SolverConfig::default();
                let mut last_global = 0u64;
                let mut last_shard = [0u64; COMPONENTS];
                let mut reads = 0u64;
                // At least one read before honouring `stop`: a reader
                // first scheduled after the writers finish still checks
                // the final state.
                loop {
                    let snap = svc.snapshot();
                    assert!(snap.epoch() >= last_global, "global epoch regressed");
                    last_global = snap.epoch();
                    let mut sum = 0;
                    for (s, last) in last_shard.iter_mut().enumerate() {
                        let e = snap.shard_epoch(s);
                        assert!(e >= *last, "shard {s} epoch regressed");
                        *last = e;
                        sum += e;
                    }
                    // Each batch bumps the global epoch once and every
                    // touched shard once; with single- and two-shard
                    // batches in flight, the shard-epoch sum can never
                    // exceed twice the global epoch — a torn two-phase
                    // publish (one shard visible without its sibling
                    // *and* the global bump) would break the bound the
                    // other way: shard movement with no global tick.
                    assert!(
                        sum <= 2 * snap.epoch(),
                        "shard epochs moved without a global publication: \
                         sum {sum} > 2 x global {}",
                        snap.epoch()
                    );
                    // And the snapshot is internally consistent per
                    // shard: the chain agrees with its base.
                    let probe = Value::int((reads % 10) as i64);
                    let k = (reads as usize) % COMPONENTS;
                    let in_b = snap
                        .ask(
                            &format!("b{k}"),
                            std::slice::from_ref(&probe),
                            &NoDomains,
                            &cfg,
                        )
                        .expect("read b");
                    let in_a = snap
                        .ask(&format!("a{k}"), &[probe], &NoDomains, &cfg)
                        .expect("read a");
                    assert_eq!(in_b, in_a, "torn chain inside one shard snapshot");
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            })
        })
        .collect();

    // One worker per component plus a main-thread cross-shard mixer.
    let workers: Vec<_> = (0..COMPONENTS)
        .map(|k| {
            let (tx, worker) = ServiceWorker::spawn(svc.clone());
            for v in 0..5 {
                tx.submit(UpdateBatch::deleting(vec![del_point(k, v)]))
                    .expect("submit");
            }
            drop(tx);
            worker
        })
        .collect();
    for i in 0..4 {
        svc.apply(UpdateBatch::deleting(vec![
            del_point(i % COMPONENTS, 6 + i as i64),
            del_point((i + 1) % COMPONENTS, 6 + i as i64),
        ]))
        .expect("cross-shard batch");
    }
    for w in workers {
        w.join().expect("worker");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader") > 0);
    }
    assert_eq!(svc.epoch(), (COMPONENTS * 5 + 4) as u64);
}
