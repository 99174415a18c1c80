//! Observability surface tests: concurrent scrapes against live
//! writers, full-subsystem coverage of one Prometheus scrape, the
//! batch trace ring, and the disabled-observability path.

#![allow(
    clippy::disallowed_methods,
    reason = "tests time runs against deadlines on purpose"
)]

use mmv_constraints::{CmpOp, Constraint, Term, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::{BodyAtom, Clause, ConstrainedAtom, ConstrainedDatabase};
use mmv_service::{
    validate_prometheus, Durability, FaultPlan, FaultVfs, FsyncPolicy, ObsOptions, ServiceWorker,
    Stage, StdVfs, ViewService,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn x() -> Term {
    Term::var(Var(0))
}

/// Two independent dependency components (b→a and c).
fn two_component_db() -> ConstrainedDatabase {
    ConstrainedDatabase::from_clauses(vec![
        Clause::fact(
            "b",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(0)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(9),
            )),
        ),
        Clause::new(
            "a",
            vec![x()],
            Constraint::truth(),
            vec![BodyAtom::new("b", vec![x()])],
        ),
        Clause::fact(
            "c",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(100)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(109),
            )),
        ),
    ])
}

fn point(pred: &str, v: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(pred, vec![x()], Constraint::eq(x(), Term::int(v)))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmv-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads the value of an unlabeled counter sample from a scrape.
fn sample_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// N writers keep applying batches while M scrapers render and
/// validate the registry: every scrape parses, counters are monotone,
/// and no histogram is ever torn (cumulative buckets + `+Inf == _count`
/// are checked by the validator).
#[test]
fn scrapes_stay_valid_and_monotone_under_write_load() {
    const WRITERS: usize = 4;
    const BATCHES: i64 = 40;
    const SCRAPERS: usize = 2;
    let svc = Arc::new(ViewService::builder().build(two_component_db()).unwrap());
    let mut handles = Vec::new();
    for w in 0..WRITERS as i64 {
        let svc = svc.clone();
        handles.push(std::thread::spawn(move || {
            // Writers alternate between the two components with
            // disjoint value ranges so every batch succeeds.
            for i in 0..BATCHES {
                let v = 1000 * (w + 1) + i;
                let pred = if (w + i) % 2 == 0 { "b" } else { "c" };
                svc.apply(UpdateBatch::inserting(vec![point(pred, v)]))
                    .expect("insert applies");
            }
        }));
    }
    let mut scrapers = Vec::new();
    for _ in 0..SCRAPERS {
        let svc = svc.clone();
        scrapers.push(std::thread::spawn(move || {
            let mut last_applied = 0.0f64;
            for _ in 0..25 {
                let text = svc.metrics().render_prometheus();
                validate_prometheus(&text).expect("scrape parses");
                let applied = sample_value(&text, "mmv_batches_applied_total")
                    .expect("applied counter present");
                assert!(
                    applied >= last_applied,
                    "counter went backwards: {applied} < {last_applied}"
                );
                last_applied = applied;
                std::thread::sleep(Duration::from_micros(200));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for s in scrapers {
        s.join().unwrap();
    }
    let text = svc.metrics().render_prometheus();
    validate_prometheus(&text).expect("final scrape parses");
    let total = (WRITERS as i64 * BATCHES) as f64;
    assert_eq!(
        sample_value(&text, "mmv_batches_applied_total"),
        Some(total)
    );
    // The writer-lock gauge is one series, back at zero, and the stage
    // histograms filled in.
    assert_eq!(sample_value(&text, "mmv_writer_lock_waiters"), Some(0.0));
    assert_eq!(
        svc.stage_timings(Stage::Apply).count(),
        WRITERS as u64 * BATCHES as u64
    );
    // The JSON exposition renders the same families.
    let json = svc.metrics().render_json();
    assert!(json.contains("\"mmv_batches_applied_total\""));
    assert!(json.contains("\"mmv_batch_stage_seconds\""));
}

/// ISSUE 8 acceptance: one scrape of a durable service under write
/// load exposes all five subsystems — the writer, WAL, checkpoints,
/// health + storage faults, and core fixpoint counters.
#[test]
fn one_scrape_exposes_all_five_subsystems() {
    let dir = tmp_dir("acceptance");
    let vfs = FaultVfs::new(Arc::new(StdVfs), FaultPlan::none());
    let svc = ViewService::builder()
        .durability(
            Durability::durable(&dir)
                .fsync(FsyncPolicy::GroupCommit(Duration::ZERO))
                .checkpoint_every(4)
                .vfs(Arc::new(vfs.clone())),
        )
        .build(two_component_db())
        .unwrap();
    for v in 0..8 {
        svc.apply(UpdateBatch::inserting(vec![point("b", 1000 + v)]))
            .expect("insert applies");
    }
    // Checkpoints land asynchronously; wait for the cadence-staged one.
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.checkpoint_stats().unwrap().checkpoints == 0 {
        assert!(Instant::now() < deadline, "checkpoint never landed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let text = svc.metrics().render_prometheus();
    validate_prometheus(&text).expect("scrape parses");
    for family in [
        // Writer + batch lifecycle.
        "mmv_batches_applied_total",
        "mmv_writer_lock_waiters",
        "mmv_batch_stage_seconds_bucket",
        // WAL.
        "mmv_wal_records_total",
        "mmv_wal_fsyncs_total",
        // Checkpoints.
        "mmv_checkpoints_total",
        "mmv_checkpoint_seconds_count",
        // Health + storage faults.
        "mmv_health_state",
        "mmv_vfs_fault_ops_total",
        // Core maintenance.
        "mmv_fixpoint_iterations_total",
        "mmv_insert_added_total",
        "mmv_store_entry_pages_copied_total",
        // Sub-page CoW key-copy counters.
        "mmv_store_by_const_keys_copied_total",
        "mmv_store_slot_keys_copied_total",
    ] {
        assert!(text.contains(family), "scrape is missing {family}:\n{text}");
    }
    // The legacy stats structs are views over the same counters. The
    // second cadence checkpoint may still be landing (it appends its
    // own WAL marker frame off the write path), so re-scrape until
    // the two views agree instead of racing the checkpointer.
    let deadline = Instant::now() + Duration::from_secs(10);
    let wal = loop {
        let wal = svc.wal_stats().unwrap();
        let text = svc.metrics().render_prometheus();
        if sample_value(&text, "mmv_wal_records_total") == Some(wal.records as f64) {
            break wal;
        }
        assert!(
            Instant::now() < deadline,
            "mmv_wal_records_total never converged with WalStats::records"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(wal.records >= 8);
    let traces = svc.recent_traces();
    assert_eq!(traces.len(), 8, "one trace per applied batch");
    let last = traces.last().unwrap();
    assert_eq!(last.epoch, svc.epoch());
    assert!(last.stage(Stage::WalRender) > Duration::ZERO);
    assert!(last.stage(Stage::Apply) > Duration::ZERO);
    assert!(last.total() > Duration::ZERO);
    // Group commit defers publication on the flusher, so the batch
    // waited for durability.
    assert!(last.stage(Stage::FsyncWait) > Duration::ZERO);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shared work-stealing pool registers its instruments like every
/// other subsystem, they move once batches route hot-loop tasks
/// through the pool, and width 1 disables the pool (and its families)
/// entirely.
#[test]
fn pool_instruments_register_and_count_tasks() {
    let svc = ViewService::builder()
        .pool_threads(4)
        .build(two_component_db())
        .unwrap();
    assert_eq!(svc.pool().expect("pool enabled").threads(), 4);
    for v in 0..6 {
        svc.apply(UpdateBatch::inserting(vec![point("b", 1000 + v)]))
            .expect("insert applies");
    }
    let text = svc.metrics().render_prometheus();
    validate_prometheus(&text).expect("scrape parses");
    for family in [
        "mmv_pool_tasks_total",
        "mmv_pool_steals_total",
        "mmv_pool_workers_busy",
    ] {
        assert!(text.contains(family), "scrape is missing {family}:\n{text}");
    }
    let tasks = sample_value(&text, "mmv_pool_tasks_total").expect("tasks counter present");
    assert!(
        tasks > 0.0,
        "insertion propagation should have routed tasks through the pool"
    );

    let seq = ViewService::builder()
        .pool_threads(1)
        .build(two_component_db())
        .unwrap();
    assert!(seq.pool().is_none(), "width 1 disables the pool");
    assert!(!seq
        .metrics()
        .render_prometheus()
        .contains("mmv_pool_tasks_total"));
}

/// Traces ring: capacity bounds retention, oldest evicted first.
#[test]
fn trace_ring_is_bounded_and_ordered() {
    let svc = ViewService::builder()
        .observability(ObsOptions::default().trace_capacity(4))
        .build(two_component_db())
        .unwrap();
    for v in 0..10 {
        svc.apply(UpdateBatch::inserting(vec![point("b", 1000 + v)]))
            .unwrap();
    }
    let traces = svc.recent_traces();
    assert_eq!(traces.len(), 4);
    let epochs: Vec<u64> = traces.iter().map(|t| t.epoch).collect();
    assert_eq!(epochs, vec![7, 8, 9, 10], "oldest evicted, order kept");
}

/// Disabled observability: no traces, batch instruments stay at zero,
/// but the registry still scrapes cleanly and batches still apply.
#[test]
fn disabled_observability_records_nothing() {
    let svc = ViewService::builder()
        .observability(ObsOptions::disabled())
        .build(two_component_db())
        .unwrap();
    for v in 0..5 {
        svc.apply(UpdateBatch::inserting(vec![point("c", 2000 + v)]))
            .unwrap();
    }
    assert_eq!(svc.epoch(), 5);
    assert!(svc.recent_traces().is_empty());
    assert_eq!(svc.stage_timings(Stage::Apply).count(), 0);
    let text = svc.metrics().render_prometheus();
    validate_prometheus(&text).expect("scrape still parses");
    assert_eq!(sample_value(&text, "mmv_batches_applied_total"), Some(0.0));
}

/// The worker queue-depth gauge returns to zero once the worker
/// drains.
#[test]
fn worker_queue_depth_returns_to_zero() {
    let svc = Arc::new(ViewService::builder().build(two_component_db()).unwrap());
    let (tx, worker) = ServiceWorker::spawn(svc.clone());
    for v in 0..6 {
        tx.submit(UpdateBatch::inserting(vec![point("b", 3000 + v)]))
            .unwrap();
    }
    drop(tx);
    assert_eq!(worker.join().unwrap(), 6);
    let text = svc.metrics().render_prometheus();
    assert_eq!(sample_value(&text, "mmv_worker_queue_depth"), Some(0.0));
}
