//! Crash recovery: a durable service rebuilt from its checkpoint + WAL
//! tail must serve the *syntactically* identical view — supports,
//! external tickets and all — that it served before dying.
//!
//! The centerpiece is a kill-the-process test: a child process applies
//! a deterministic batch sequence under `FsyncPolicy::GroupCommit` and
//! prints each epoch once `apply` returns (i.e. once the frame is
//! durable); the parent SIGKILLs it mid-load, recovers the directory,
//! and compares against a never-killed reference service that applied
//! the same prefix. The rest pins the recovery contract edge cases:
//! clean-shutdown round trips, checkpointed tails, torn final frames
//! (silently truncated), and corrupt non-final segments (explicit
//! [`ServiceError::Storage`]).

#![allow(
    clippy::disallowed_methods,
    reason = "tests stage, corrupt and clean up WAL directories behind the Vfs on purpose"
)]

use mmv_constraints::{CmpOp, Constraint, Term, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase};
use mmv_service::{Durability, FsyncPolicy, ServiceError, ViewService};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn x() -> Term {
    Term::var(Var(0))
}

/// Two independent chains b0 → a0 and b1 → a1, so the batch stream
/// exercises batches on one chain and on both.
fn two_chain_db() -> ConstrainedDatabase {
    let mut clauses = Vec::new();
    for k in 0..2 {
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

/// The deterministic batch stream both the killed child and the
/// never-killed reference apply: point deletions walking the base
/// intervals, a fresh-space insertion (external tickets!) every third
/// batch, and a batch on both chains every fourth.
fn batch_for(i: u64) -> UpdateBatch {
    let comp = (i % 2) as usize;
    let pred = format!("b{comp}");
    let mut batch = UpdateBatch::deleting(vec![point(&pred, (i as i64 * 7) % 50)]);
    if i % 3 == 0 {
        let lo = 100 + 5 * i as i64;
        batch = batch.insert(interval(&pred, lo, lo + 2));
    }
    if i % 4 == 0 {
        let other = format!("b{}", 1 - comp);
        batch = batch.delete(point(&other, (i as i64 * 11) % 50));
    }
    batch
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmv-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A never-killed in-memory reference that applied batches `1..=n`.
fn reference_after(n: u64) -> ViewService {
    let svc = ViewService::builder()
        .build(two_chain_db())
        .expect("reference builds");
    for i in 1..=n {
        svc.apply(batch_for(i)).expect("reference apply");
    }
    svc
}

fn durable_config(dir: &Path) -> Durability {
    // Fsync nothing in tests that don't kill the process — the
    // recovery contract is about bytes, not about the disk.
    Durability::durable(dir)
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(0)
}

#[test]
fn clean_shutdown_round_trips() {
    let dir = tmp_dir("clean");
    let n = 12u64;
    {
        let svc = ViewService::builder()
            .durability(durable_config(&dir))
            .build(two_chain_db())
            .expect("durable service builds");
        for i in 1..=n {
            svc.apply(batch_for(i)).expect("apply");
        }
    }
    let (recovered, report) = ViewService::builder()
        .durability(durable_config(&dir))
        .recover(two_chain_db())
        .expect("recovery succeeds");
    assert_eq!(report.checkpoint_epoch, None, "no checkpoint was cut");
    assert_eq!(report.replayed_records, n);
    assert_eq!(report.recovered_epoch, n);
    assert!(!report.torn_tail);
    assert_eq!(recovered.epoch(), n);

    let reference = reference_after(n);
    assert!(
        recovered
            .snapshot()
            .merged_view()
            .syntactically_equal(&reference.snapshot().merged_view()),
        "recovered view diverged:\nrecovered:\n{}\nreference:\n{}",
        recovered.snapshot().merged_view(),
        reference.snapshot().merged_view(),
    );

    // The recovered service keeps going: new batches apply and are
    // logged at the right epochs.
    let a = recovered.apply(batch_for(n + 1)).expect("post-recovery");
    assert_eq!(a.epoch, n + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_and_no_checkpoint_recovered_builds_agree() {
    // Two constructions of the epoch-0 view: a fresh build, and a
    // recovery from a directory with no checkpoint and no records.
    let fresh = ViewService::builder()
        .pool_threads(2)
        .build(two_chain_db())
        .expect("service builds");
    let pool = fresh.pool().expect("width 2 has a pool");
    assert_eq!(
        pool.metrics().tasks_total.get(),
        0,
        "the view builds off the pool"
    );
    let dir = tmp_dir("no-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    let (recovered, report) = ViewService::builder()
        .durability(durable_config(&dir))
        .recover(two_chain_db())
        .expect("recovery succeeds");
    assert_eq!(report.checkpoint_epoch, None);
    assert_eq!(report.replayed_records, 0);
    let (fresh, recovered) = (fresh.snapshot(), recovered.snapshot());
    assert_eq!(fresh.len(), 4, "both chains are built");
    assert!(
        fresh.view().syntactically_equal(recovered.view()),
        "recovered differs:\nfresh:\n{fresh}\nrecovered:\n{recovered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_inserters_recover_syntactically() {
    // 4 racing writers (2 per chain) × 6 two-insert batches under group
    // commit with a checkpoint every 5 epochs: frames land in commit
    // order, tickets are taken in lock order, checkpoints are cut
    // mid-race — and recovery still serves the syntactically identical
    // view, because every frame carries its ticket base.
    for round in 0..8 {
        let dir = tmp_dir("racing-inserters");
        let durability = || Durability::durable(&dir).checkpoint_every(5);
        let svc = ViewService::builder()
            .durability(durability())
            .build(two_chain_db())
            .expect("durable service builds");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for w in 0..4i64 {
                let (svc, start) = (&svc, &start);
                s.spawn(move || {
                    let pred = format!("b{}", w % 2);
                    start.wait();
                    for k in 0..6 {
                        let lo = 1000 * (w + 1) + 10 * k;
                        svc.apply(UpdateBatch::inserting(vec![
                            interval(&pred, lo, lo + 2),
                            interval(&pred, lo + 5, lo + 7),
                        ]))
                        .expect("apply");
                    }
                });
            }
        });
        let served = svc.snapshot().merged_view();
        drop(svc);
        let (recovered, report) = ViewService::builder()
            .durability(durability())
            .recover(two_chain_db())
            .expect("recovery succeeds");
        assert_eq!(report.recovered_epoch, 24);
        let recovered = recovered.snapshot().merged_view();
        assert!(
            recovered.syntactically_equal(&served),
            "round {round}: recovered view diverged:\nrecovered:\n{recovered}\nserved:\n{served}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_replays_only_past_the_checkpoint() {
    let dir = tmp_dir("checkpoint");
    let n = 10u64;
    let checkpoint_at = 6u64;
    {
        let svc = ViewService::builder()
            .durability(durable_config(&dir))
            .build(two_chain_db())
            .expect("durable service builds");
        for i in 1..=n {
            svc.apply(batch_for(i)).expect("apply");
            if i == checkpoint_at {
                assert!(svc.request_checkpoint(), "checkpoint accepted");
                // Wait for the background write so the later batches
                // are strictly after it.
                loop {
                    let s = svc.checkpoint_stats().expect("durable");
                    if s.checkpoints > 0 || s.failed > 0 {
                        assert_eq!(s.failed, 0, "checkpoint failed");
                        assert_eq!(s.last_epoch, checkpoint_at);
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
    }
    let (recovered, report) = ViewService::builder()
        .durability(durable_config(&dir))
        .recover(two_chain_db())
        .expect("recovery succeeds");
    assert_eq!(report.checkpoint_epoch, Some(checkpoint_at));
    assert_eq!(
        report.replayed_records,
        n - checkpoint_at,
        "only the tail past the checkpoint replays"
    );
    assert_eq!(recovered.epoch(), n);
    let reference = reference_after(n);
    assert!(recovered
        .snapshot()
        .merged_view()
        .syntactically_equal(&reference.snapshot().merged_view()));

    // External tickets survived the checkpoint: inserting after
    // recovery continues the pre-crash numbering, which only shows if
    // the served views stay syntactically equal through *new* inserts.
    recovered.apply(batch_for(n + 1)).expect("post-recovery");
    let reference2 = reference_after(n + 1);
    assert!(recovered
        .snapshot()
        .merged_view()
        .syntactically_equal(&reference2.snapshot().merged_view()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_silently() {
    let dir = tmp_dir("torn");
    let n = 8u64;
    {
        let svc = ViewService::builder()
            .durability(durable_config(&dir))
            .build(two_chain_db())
            .expect("durable service builds");
        for i in 1..=n {
            svc.apply(batch_for(i)).expect("apply");
        }
    }
    // Append half a frame to the newest segment — the write the crash
    // interrupted.
    let seg = newest_segment(&dir);
    let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(b"@9999 deadbeef\nbatch epoch=999").unwrap();
    drop(f);

    let (recovered, report) = ViewService::builder()
        .durability(durable_config(&dir))
        .recover(two_chain_db())
        .expect("a torn tail recovers silently");
    assert!(report.torn_tail);
    assert_eq!(report.replayed_records, n, "all complete records survive");
    assert_eq!(recovered.epoch(), n);
    let reference = reference_after(n);
    assert!(recovered
        .snapshot()
        .merged_view()
        .syntactically_equal(&reference.snapshot().merged_view()));

    // The repair truncated the torn frame away: recovering a second
    // time reports a clean tail.
    drop(recovered);
    let (_, report2) = ViewService::builder()
        .durability(durable_config(&dir))
        .recover(two_chain_db())
        .expect("second recovery");
    assert!(!report2.torn_tail, "repair removed the torn frame");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_non_final_segment_is_an_explicit_error() {
    let dir = tmp_dir("corrupt");
    {
        let svc = ViewService::builder()
            // Tiny segments: every batch rotates, so corruption lands
            // in a non-final segment (a torn *tail* is recoverable;
            // corrupt *history* must never be silently dropped).
            .durability(durable_config(&dir).segment_bytes(1))
            .build(two_chain_db())
            .expect("durable service builds");
        for i in 1..=4 {
            svc.apply(batch_for(i)).expect("apply");
        }
    }
    let mut segs = all_segments(&dir);
    segs.sort();
    assert!(segs.len() >= 2, "tiny segments must have rotated");
    // Flip a payload byte inside the first (non-final) segment, past
    // its header line.
    let first = &segs[0];
    let mut bytes = std::fs::read(first).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    let target = header_end + 20;
    bytes[target] ^= 0x20;
    std::fs::write(first, bytes).unwrap();

    let err = ViewService::builder()
        .durability(durable_config(&dir))
        .recover(two_chain_db())
        .expect_err("corrupt history must not recover silently");
    assert!(
        matches!(err, ServiceError::Storage(_)),
        "wrong error: {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn building_over_an_existing_wal_is_refused() {
    let dir = tmp_dir("refuse");
    {
        let svc = ViewService::builder()
            .durability(durable_config(&dir))
            .build(two_chain_db())
            .expect("durable service builds");
        svc.apply(batch_for(1)).expect("apply");
    }
    let err = ViewService::builder()
        .durability(durable_config(&dir))
        .build(two_chain_db())
        .expect_err("a fresh build must not shadow existing durable state");
    assert!(matches!(err, ServiceError::Storage(_)));
    // Recovery, by contrast, is the sanctioned path.
    ViewService::builder()
        .durability(durable_config(&dir))
        .recover(two_chain_db())
        .expect("recovery works on the same dir");
    let _ = std::fs::remove_dir_all(&dir);
}

fn all_segments(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?;
            (name.starts_with("wal-") && name.ends_with(".log")).then(|| p.clone())
        })
        .collect()
}

fn newest_segment(dir: &Path) -> PathBuf {
    let mut segs = all_segments(dir);
    segs.sort();
    segs.pop().expect("at least one segment")
}

// ---- The kill-the-process test ----------------------------------------

/// Child-process body, disguised as a test: inert unless the parent
/// sets `MMV_RECOVERY_CHILD_DIR`. It applies the deterministic batch
/// stream under real group-commit fsync and prints `epoch N` after
/// each `apply` returns — i.e. after the WAL frame is durable — so
/// every epoch the parent *reads* is an epoch recovery must reach.
#[test]
fn kill_child_write_load() {
    let Ok(dir) = std::env::var("MMV_RECOVERY_CHILD_DIR") else {
        return;
    };
    let svc = ViewService::builder()
        .durability(
            Durability::durable(&dir)
                .fsync(FsyncPolicy::GroupCommit(std::time::Duration::ZERO))
                .checkpoint_every(4),
        )
        .build(two_chain_db())
        .expect("child durable service builds");
    for i in 1..=1_000u64 {
        let applied = svc.apply(batch_for(i)).expect("child apply");
        println!("epoch {}", applied.epoch);
        std::io::stdout().flush().unwrap();
    }
}

#[test]
fn sigkill_mid_load_recovers_the_durable_prefix() {
    let dir = tmp_dir("kill");
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "kill_child_write_load", "--nocapture"])
        .env("MMV_RECOVERY_CHILD_DIR", &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");
    // Read durable-epoch lines until the child is far enough along to
    // have cut a checkpoint (cadence 4) and written WAL past it.
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let mut durable_epoch = 0u64;
    while durable_epoch < 11 {
        let line = lines
            .next()
            .expect("child died before reaching epoch 11")
            .expect("read child stdout");
        if let Some(n) = line.strip_prefix("epoch ") {
            durable_epoch = n.trim().parse().expect("epoch line");
        }
    }
    // SIGKILL: no destructors, no flusher shutdown, no rename
    // completion — whatever is on disk is what recovery gets.
    child.kill().expect("kill child");
    let _ = child.wait();

    let (recovered, report) = ViewService::builder()
        .durability(Durability::durable(&dir))
        .recover(two_chain_db())
        .expect("recovery after SIGKILL");
    assert!(
        report.recovered_epoch >= durable_epoch,
        "acknowledged epoch {durable_epoch} lost: only {} recovered",
        report.recovered_epoch
    );
    // Replay covered exactly the records after the newest checkpoint.
    let base = report.checkpoint_epoch.unwrap_or(0);
    assert_eq!(
        report.replayed_records,
        report.recovered_epoch - base,
        "replay must cover exactly the post-checkpoint tail ({report:?})"
    );
    assert!(
        report.checkpoint_epoch.is_some(),
        "child passed epoch 8, cadence-4 checkpoints must have landed"
    );

    // The recovered view is syntactically identical — supports and
    // external insertion tickets included — to a service that applied
    // the same prefix and was never killed.
    let reference = reference_after(report.recovered_epoch);
    assert!(
        recovered
            .snapshot()
            .merged_view()
            .syntactically_equal(&reference.snapshot().merged_view()),
        "post-crash view diverged at epoch {}:\nrecovered:\n{}\nreference:\n{}",
        report.recovered_epoch,
        recovered.snapshot().merged_view(),
        reference.snapshot().merged_view(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
