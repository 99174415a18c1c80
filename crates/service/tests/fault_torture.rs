//! Seeded storage-fault torture: random workloads under random fault
//! schedules, checked against a reference service that never saw a
//! failed batch.
//!
//! The contract under test is the strongest the service makes:
//!
//! * A batch that `apply` ACKs is in the served view, durable, and
//!   identical to the reference's.
//! * A batch that `apply` rejects leaves **no trace** — not in the
//!   served view, not in the log, not on disk.
//! * A persistent fault flips the service read-only; healing the
//!   "disk" lets the background probe restore write service.
//! * After a simulated crash frozen at an arbitrary operation,
//!   `recover()` serves exactly the acked prefix — plus at most the
//!   single in-flight batch whose frame hit the disk before the
//!   crash's ACK could.
//!
//! Every assertion carries the failing seed; re-run one with
//! `MMV_FAULT_SEED=<seed> cargo test -p mmv-service --test
//! fault_torture env_seeded_torture`.

#![allow(
    clippy::disallowed_methods,
    reason = "tests stage storage behind the Vfs, time runs and poison locks on purpose"
)]

use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{CmpOp, Constraint, Term, Value, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase};
use mmv_service::{
    Applied, Durability, Fault, FaultPlan, FaultVfs, FsyncPolicy, OpSel, RetryPolicy, ServiceError,
    ServiceHealth, StdVfs, StorageOp, ViewService,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn x() -> Term {
    Term::var(Var(0))
}

/// `n` independent chains bk → ak.
fn chain_db(n: usize) -> ConstrainedDatabase {
    let mut clauses = Vec::new();
    for k in 0..n {
        clauses.push(Clause::fact(
            &format!("b{k}"),
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(49),
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

fn point(pred: &str, v: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(pred, vec![x()], Constraint::eq(x(), Term::int(v)))
}

fn interval(pred: &str, lo: i64, hi: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(
        pred,
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(hi),
        )),
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmv-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// splitmix64 — the workload's own deterministic stream, independent
/// of the fault plan's.
fn next(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *rng;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random batch: point deletes walking the base intervals, fresh
/// interval insertions (external tickets), occasionally on both chains.
fn random_batch(rng: &mut u64, step: u64) -> UpdateBatch {
    let r = next(rng);
    let comp = (r % 2) as usize;
    let pred = format!("b{comp}");
    let mut batch = if r & 4 == 0 {
        UpdateBatch::deleting(vec![point(&pred, ((r >> 8) % 50) as i64)])
    } else {
        let lo = 100 + 5 * step as i64;
        UpdateBatch::inserting(vec![interval(&pred, lo, lo + 2)])
    };
    if r & 24 == 0 {
        let other = format!("b{}", 1 - comp);
        batch = batch.delete(point(&other, ((r >> 16) % 50) as i64));
    }
    batch
}

fn assert_same(tag: &str, seed: u64, live: &ViewService, reference: &ViewService) {
    let lv = live.snapshot().merged_view();
    let rv = reference.snapshot().merged_view();
    assert!(
        lv.syntactically_equal(&rv),
        "seed {seed}: {tag}: served view diverged from the reference\nlive:\n{lv}\nreference:\n{rv}"
    );
}

/// Heals the fault image and waits for the probe to restore write
/// service. New random faults can re-break storage mid-probe, so keep
/// healing until the service reports healthy.
fn heal_until_healthy(svc: &ViewService, vfs: &FaultVfs, seed: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.health() != ServiceHealth::Healthy {
        vfs.heal();
        assert!(
            Instant::now() < deadline,
            "seed {seed}: the probe never restored write service; health = {}, transitions: {:?}",
            svc.health(),
            svc.health_transitions(),
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy::default().with_backoff(Duration::ZERO, Duration::ZERO)
}

/// A batch the scripted fault will reject: it deletes the served point
/// `v` *and* inserts a fresh interval (one external ticket) on `pred`,
/// so a rollback that restored only part of the view shows either way.
fn doomed(pred: &str, v: i64) -> UpdateBatch {
    UpdateBatch::deleting(vec![point(pred, v)]).insert(interval(pred, 500, 502))
}

/// The published epoch and the service's next external ticket, taken
/// before a batch is rejected.
fn before_reject(svc: &ViewService) -> (u64, u64) {
    let epoch = svc.epoch();
    let next_ticket = svc
        .log()
        .records()
        .iter()
        .map(|r| r.ticket_base + r.batch.inserts.len() as u64)
        .max()
        .unwrap_or(0);
    (epoch, next_ticket)
}

/// The abort contract, read off the next successful batch on the chain
/// `doomed(pred, v)` was rejected on: it publishes the next epoch, the
/// view still serves `v` and not the doomed interval (up the chain), and
/// the batch is logged under the ticket the rejected one had taken.
/// Together: the abort restored the writer view, and the epoch and
/// ticket counter never moved.
fn next_batch_after_abort(
    svc: &ViewService,
    pred: &str,
    v: i64,
    (epoch, next_ticket): (u64, u64),
) -> Applied {
    let applied = svc
        .apply(UpdateBatch::deleting(vec![point(pred, 40)]).insert(interval(pred, 600, 601)))
        .expect("the next batch on the chain applies");
    let snap = svc.snapshot();
    assert_eq!(snap.epoch(), epoch + 1);
    assert_eq!(applied.epoch, epoch + 1);
    let derived = pred.replace('b', "a");
    let cfg = SolverConfig::default();
    let served = |x: i64| {
        snap.ask(
            &derived,
            &[Value::int(x)],
            &mmv_constraints::NoDomains,
            &cfg,
        )
        .expect("ask")
    };
    assert!(served(v), "the rejected deletion of {v} left a trace");
    assert!(!served(501), "the rejected insertion left a trace");
    assert!(!served(40) && served(600), "the next batch itself landed");
    let log = svc.log();
    let record = log.records().last().expect("the next batch is logged");
    assert_eq!(record.epoch, applied.epoch);
    assert_eq!(record.ticket_base, next_ticket);
    applied
}

/// One full torture run: 60 random batches under the seeded fault mix,
/// state checked against the reference after every batch, then a
/// recovery of whatever the faulted VFS let reach the disk.
fn torture_seed(seed: u64) {
    let dir = tmp_dir(&format!("seed-{seed}"));
    let vfs = FaultVfs::new(Arc::new(StdVfs), FaultPlan::seeded(seed));
    let svc = ViewService::builder()
        .durability(
            Durability::durable(&dir)
                .fsync(FsyncPolicy::Always)
                .checkpoint_every(0)
                .vfs(Arc::new(vfs.clone()))
                .probe_interval(Duration::from_millis(2)),
        )
        .retry(fast_retry())
        .build(chain_db(2))
        .expect("segments are created lazily, so the build itself is unfaulted");
    let reference = ViewService::builder()
        .build(chain_db(2))
        .expect("reference builds");

    let mut rng = seed ^ 0x5DEE_CE66_D154_33D5;
    let mut acked = 0u64;
    let mut rejected = 0u64;
    for step in 0..60 {
        let batch = random_batch(&mut rng, step);
        match svc.apply(batch.clone()) {
            Ok(_) => {
                reference
                    .apply(batch)
                    .expect("the reference applies every batch the live service acked");
                acked += 1;
            }
            Err(ServiceError::Storage(_)) | Err(ServiceError::ReadOnly) => {
                rejected += 1;
                if svc.health() == ServiceHealth::ReadOnly {
                    heal_until_healthy(&svc, &vfs, seed);
                }
            }
            Err(e) => panic!("seed {seed}: unexpected apply error: {e}"),
        }
        // Rejected or acked, the served view must equal the
        // reference's — a failed batch leaves no trace.
        assert_same("after batch", seed, &svc, &reference);
    }
    assert!(acked > 0, "seed {seed}: no batch ever landed");
    let live_epoch = svc.epoch();
    let stats = vfs.stats();
    drop(svc);

    // Recovery over the surviving files (unfaulted) serves exactly the
    // acked state: under FsyncPolicy::Always an ACK means durable.
    let (recovered, report) = ViewService::builder()
        .durability(
            Durability::durable(&dir)
                .fsync(FsyncPolicy::Never)
                .checkpoint_every(0),
        )
        .recover(chain_db(2))
        .unwrap_or_else(|e| {
            panic!(
                "seed {seed}: recovery failed after {acked} acked / {rejected} rejected \
                 batches ({} ops, {} faults): {e}",
                stats.ops,
                stats.injected.len()
            )
        });
    assert_eq!(
        recovered.epoch(),
        live_epoch,
        "seed {seed}: recovered epoch diverged (report: {report:?})"
    );
    assert_same("after recovery", seed, &recovered, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash sweep for one seed: freeze the storage image at operation `k`
/// for a spread of `k`, recover each image, and require the recovered
/// state to be the acked prefix — plus at most the in-flight batch
/// whose written-but-unacknowledged frame legitimately survives a
/// crash between the write and its ACK.
fn crash_sweep_seed(seed: u64) {
    for k in [2, 4, 7, 11, 16, 22] {
        let dir = tmp_dir(&format!("crash-{seed}-{k}"));
        let vfs = FaultVfs::new(
            Arc::new(StdVfs),
            FaultPlan::none().script(OpSel::Nth(k), Fault::Crash),
        );
        let svc = ViewService::builder()
            .durability(
                Durability::durable(&dir)
                    .fsync(FsyncPolicy::Always)
                    .checkpoint_every(0)
                    .vfs(Arc::new(vfs.clone()))
                    .probe_interval(Duration::from_secs(3600)),
            )
            .retry(RetryPolicy::none())
            .build(chain_db(2))
            .expect("build");
        let reference = ViewService::builder().build(chain_db(2)).expect("build");
        let mut rng = seed ^ 0x5DEE_CE66_D154_33D5;
        let mut in_flight = None;
        for step in 0..30 {
            let batch = random_batch(&mut rng, step);
            match svc.apply(batch.clone()) {
                Ok(_) => {
                    reference.apply(batch).expect("reference");
                }
                Err(_) => {
                    in_flight = Some(batch);
                    break;
                }
            }
        }
        drop(svc);

        let (recovered, _) = ViewService::builder()
            .durability(
                Durability::durable(&dir)
                    .fsync(FsyncPolicy::Never)
                    .checkpoint_every(0),
            )
            .recover(chain_db(2))
            .unwrap_or_else(|e| panic!("seed {seed} crash@{k}: recovery failed: {e}"));
        let rv = recovered.snapshot().merged_view();
        if rv.syntactically_equal(&reference.snapshot().merged_view()) {
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        // Not the acked prefix — the only other legal image is acked
        // plus the one in-flight batch.
        let batch = in_flight.unwrap_or_else(|| {
            panic!("seed {seed} crash@{k}: recovered state diverged with no batch in flight:\n{rv}")
        });
        reference.apply(batch).expect("reference applies in-flight");
        assert!(
            rv.syntactically_equal(&reference.snapshot().merged_view()),
            "seed {seed} crash@{k}: recovered state is neither the acked prefix nor \
             acked + in-flight:\n{rv}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pinned_seeds_torture() {
    for seed in 1..=32u64 {
        torture_seed(seed);
    }
}

#[test]
fn pinned_seeds_crash_sweep() {
    for seed in [3, 7, 11, 19, 27, 31] {
        crash_sweep_seed(seed);
    }
}

/// `MMV_FAULT_SEED=<n>` runs one extra seed end to end (torture +
/// crash sweep) — the CI hook for reproducing and for rolling fresh
/// seeds without editing the pinned list.
#[test]
fn env_seeded_torture() {
    let Ok(raw) = std::env::var("MMV_FAULT_SEED") else {
        return;
    };
    let seed: u64 = raw
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("MMV_FAULT_SEED={raw:?} is not a u64: {e}"));
    eprintln!("fault torture: MMV_FAULT_SEED = {seed}");
    torture_seed(seed);
    crash_sweep_seed(seed);
}

/// Raises a stop flag when dropped. A `thread::scope` joins its threads
/// before a panic inside it can propagate, so a writer assertion that
/// fails while readers spin on the flag would hang instead of
/// reporting; held by the writer, this releases them on unwind too.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The acceptance centerpiece: a persistent fault flips the service
/// read-only mid-traffic; concurrent readers never miss a beat and
/// observe monotone epochs throughout; healing the disk restores
/// write service, journaled both ways.
#[test]
fn persistent_fault_flips_read_only_while_readers_keep_serving() {
    let dir = tmp_dir("read-only");
    // The 4th data append hits ENOSPC, persistently.
    let vfs = FaultVfs::new(
        Arc::new(StdVfs),
        FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Append, 4), Fault::Enospc),
    );
    let svc = Arc::new(
        ViewService::builder()
            .durability(
                Durability::durable(&dir)
                    .fsync(FsyncPolicy::Always)
                    .checkpoint_every(0)
                    .vfs(Arc::new(vfs.clone()))
                    .probe_interval(Duration::from_millis(2)),
            )
            .retry(fast_retry())
            .build(chain_db(2))
            .expect("build"),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let cfg = SolverConfig::default();
    std::thread::scope(|s| {
        // Two background readers: every snapshot must answer, and the
        // epochs they observe must be monotone across the flip.
        let mut readers = Vec::new();
        for _ in 0..2 {
            let svc = svc.clone();
            let stop = stop.clone();
            let reads = reads.clone();
            let cfg = cfg.clone();
            readers.push(s.spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = svc.snapshot();
                    assert!(snap.epoch() >= last, "reader observed a rewound epoch");
                    last = snap.epoch();
                    snap.ask("a0", &[Value::int(1)], &mmv_constraints::NoDomains, &cfg)
                        .expect("reads keep working in every health state");
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                last
            }));
        }
        let stop_readers = StopOnDrop(&stop);

        // Writer: batches 1..=3 land (appends 1-3; append 0 is the
        // segment header), batch 4 hits ENOSPC.
        for i in 1..=3 {
            svc.apply(UpdateBatch::deleting(vec![point("b0", i)]))
                .expect("pre-fault batches apply");
        }
        let before = before_reject(&svc);
        let err = svc
            .apply(doomed("b0", 4))
            .expect_err("the faulted append must reject the batch");
        assert!(matches!(err, ServiceError::Storage(_)), "{err}");
        assert!(err.to_string().contains("persistent"), "{err}");
        assert_eq!(svc.health(), ServiceHealth::ReadOnly);
        assert_eq!(svc.epoch(), 3, "the rejected batch published nothing");

        // Writes now fail fast, without touching storage.
        let ops_before = vfs.stats().ops;
        let err = svc
            .apply(UpdateBatch::deleting(vec![point("b0", 5)]))
            .expect_err("read-only rejects writes");
        assert!(matches!(err, ServiceError::ReadOnly), "{err}");
        assert_eq!(
            vfs.stats().ops,
            ops_before,
            "a fast-failed write performs no storage I/O"
        );

        // Readers kept serving epoch 3 throughout the outage.
        let reads_during_outage = reads.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(10));
        assert!(
            reads.load(Ordering::Relaxed) > reads_during_outage,
            "readers stalled during the outage"
        );

        // The disk comes back; the probe restores write service.
        vfs.heal();
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.health() != ServiceHealth::Healthy {
            assert!(Instant::now() < deadline, "probe never healed the service");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Writes resume after the probe heals, on a cleanly aborted view.
        let applied = next_batch_after_abort(&svc, "b0", 4, before);
        assert_eq!(applied.epoch, 4);

        drop(stop_readers);
        for r in readers {
            assert!(r.join().expect("reader thread") >= 3);
        }
    });

    // Both flips were journaled, in order, with reasons.
    let transitions = svc.health_transitions();
    assert_eq!(transitions.len(), 2, "{transitions:?}");
    assert_eq!(transitions[0].from, ServiceHealth::Healthy);
    assert_eq!(transitions[0].to, ServiceHealth::ReadOnly);
    assert!(transitions[0].reason.contains("append"), "{transitions:?}");
    assert_eq!(transitions[1].from, ServiceHealth::ReadOnly);
    assert_eq!(transitions[1].to, ServiceHealth::Healthy);

    // The outage is in the WAL too: recovery sees the health frames
    // and serves the full post-heal state.
    drop(svc);
    let (recovered, _) = ViewService::builder()
        .durability(
            Durability::durable(&dir)
                .fsync(FsyncPolicy::Never)
                .checkpoint_every(0),
        )
        .recover(chain_db(2))
        .expect("recovery");
    assert_eq!(recovered.epoch(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Several writers race into a group-commit window whose fsync fails.
/// The writer lock lets one in at a time: the first waits on the doomed
/// fsync and gets its error, and every writer behind it gets an error
/// too — the WAL's sticky error, or `ReadOnly` once the service has
/// flipped. None of their epochs is ever published.
#[test]
fn group_commit_fsync_failure_fails_every_writer_in_the_window() {
    let dir = tmp_dir("gc-broadcast");
    let vfs = FaultVfs::new(
        Arc::new(StdVfs),
        FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Fsync, 0), Fault::FsyncFail),
    );
    let svc = Arc::new(
        ViewService::builder()
            .durability(
                Durability::durable(&dir)
                    .fsync(FsyncPolicy::GroupCommit(Duration::from_millis(25)))
                    .checkpoint_every(0)
                    .vfs(Arc::new(vfs.clone()))
                    .probe_interval(Duration::from_millis(2)),
            )
            .retry(fast_retry())
            .build(chain_db(4))
            .expect("build"),
    );

    // Four writers on four disjoint chains, racing into the window.
    let before = before_reject(&svc);
    let errors: Vec<ServiceError> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let svc = svc.clone();
                s.spawn(move || svc.apply(doomed(&format!("b{k}"), 1)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("writer thread")
                    .expect_err("every writer in or behind the failed window gets an error")
            })
            .collect()
    });
    for e in &errors {
        assert!(
            matches!(e, ServiceError::Storage(_) | ServiceError::ReadOnly),
            "{e}"
        );
    }
    assert!(
        errors.iter().any(|e| matches!(e, ServiceError::Storage(_))),
        "the writer that reached the WAL saw the storage error"
    );
    assert_eq!(
        svc.epoch(),
        0,
        "no writer in the failed window observes a published epoch"
    );
    assert!(svc.log().is_empty(), "the failed batches left no records");
    assert_eq!(svc.health(), ServiceHealth::ReadOnly);

    // Heal; the probe brings writes back and the next window commits.
    vfs.heal();
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.health() != ServiceHealth::Healthy {
        assert!(Instant::now() < deadline, "probe never healed the service");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The rejected writers handed nothing back, so the post-heal batch
    // finds the view cleanly aborted and is the first and only
    // published one, at epoch 1 under ticket 0.
    let applied = next_batch_after_abort(&svc, "b0", 1, before);
    assert_eq!(applied.epoch, 1);
    assert_eq!(svc.epoch(), applied.epoch);
    assert_eq!(svc.log().len(), 1, "exactly the post-heal batch is logged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `FsyncPolicy::Never` has no flusher to defer to: an append error
/// surfaces in `apply` itself, cleanly, with full attribution.
#[test]
fn never_policy_append_error_fails_cleanly() {
    let dir = tmp_dir("never");
    // Append 0 is the segment header, append 1 the first batch frame,
    // append 2 the second batch's frame — the one that dies.
    let vfs = FaultVfs::new(
        Arc::new(StdVfs),
        FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Append, 2), Fault::Enospc),
    );
    let svc = ViewService::builder()
        .durability(
            Durability::durable(&dir)
                .fsync(FsyncPolicy::Never)
                .checkpoint_every(0)
                .vfs(Arc::new(vfs.clone()))
                .probe_interval(Duration::from_millis(2)),
        )
        .retry(fast_retry())
        .build(chain_db(2))
        .expect("build");
    svc.apply(UpdateBatch::deleting(vec![point("b0", 1)]))
        .expect("first batch applies");
    let before = before_reject(&svc);
    let err = svc
        .apply(doomed("b0", 2))
        .expect_err("the faulted append rejects the batch");
    let msg = err.to_string();
    assert!(msg.contains("append"), "op attribution: {msg}");
    assert!(msg.contains("wal-000001.log"), "path attribution: {msg}");
    assert!(msg.contains("persistent"), "classification: {msg}");
    assert_eq!(svc.epoch(), 1, "the rejected batch published nothing");
    assert_eq!(svc.log().len(), 1, "and logged nothing");
    assert_eq!(svc.health(), ServiceHealth::ReadOnly);

    vfs.heal();
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.health() != ServiceHealth::Healthy {
        assert!(Instant::now() < deadline, "probe never healed the service");
        std::thread::sleep(Duration::from_millis(1));
    }
    let applied = next_batch_after_abort(&svc, "b0", 2, before);
    assert_eq!(applied.epoch, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint failures degrade health without ever stopping writes or
/// killing the checkpointer: heal the disk and the held job completes,
/// restoring full health.
#[test]
fn checkpoint_faults_degrade_without_stopping_writes() {
    let dir = tmp_dir("ckpt-degraded");
    // Every path containing "chk-" fails: checkpoints are down, the
    // WAL is untouched.
    let vfs = FaultVfs::new(
        Arc::new(StdVfs),
        FaultPlan::none().script(OpSel::PathContains("chk-".into()), Fault::Eio),
    );
    let svc = ViewService::builder()
        .durability(
            Durability::durable(&dir)
                .fsync(FsyncPolicy::Always)
                .checkpoint_every(2)
                .vfs(Arc::new(vfs.clone()))
                .probe_interval(Duration::from_millis(2)),
        )
        .retry(fast_retry())
        .build(chain_db(2))
        .expect("build");

    svc.apply(UpdateBatch::deleting(vec![point("b0", 1)]))
        .expect("apply");
    svc.apply(UpdateBatch::deleting(vec![point("b0", 2)]))
        .expect("epoch 2 applies and stages a checkpoint");
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.health() != ServiceHealth::Degraded {
        assert!(
            Instant::now() < deadline,
            "the failing checkpoint never degraded health: {:?}",
            svc.health_transitions()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Degraded ≠ read-only: writes keep committing.
    let applied = svc
        .apply(UpdateBatch::deleting(vec![point("b0", 3)]))
        .expect("writes continue while degraded");
    assert_eq!(applied.epoch, 3);
    assert_eq!(svc.checkpoint_stats().expect("durable").checkpoints, 0);

    // Heal: the checkpointer's held job re-attempts and completes.
    vfs.heal();
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.health() != ServiceHealth::Healthy {
        assert!(
            Instant::now() < deadline,
            "the healed checkpointer never restored health: {:?}",
            svc.health_transitions()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Health flips before the counters are published; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.checkpoint_stats().expect("durable").checkpoints == 0 {
        assert!(Instant::now() < deadline, "no checkpoint landed after heal");
        std::thread::sleep(Duration::from_millis(1));
    }
    let transitions = svc.health_transitions();
    assert!(
        transitions
            .iter()
            .any(|t| t.to == ServiceHealth::Degraded && t.reason.contains("checkpoint")),
        "{transitions:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
