//! # mmv-service — a concurrent materialized-view service
//!
//! The paper's maintenance algorithms (Extended DRed, StDel, insertion)
//! are defined over *sets* of updates; `mmv-core` exposes them as
//! set-oriented batch entry points ([`mmv_core::batch`]). This crate
//! turns those into a long-lived concurrent server with four pillars:
//!
//! * **Batched update transactions** — writers group updates into an
//!   [`UpdateBatch`]; one maintenance pass applies the whole batch,
//!   amortizing the per-pass frontier/rederivation work that per-update
//!   maintenance repeats.
//! * **Per-predicate writer lanes** — the clause dependency graph
//!   partitions predicates into provably independent shards
//!   ([`mmv_core::shard`]); each gets its own writer lane (view, epoch,
//!   lock, sub-database), so batches against independent predicates
//!   maintain concurrently, each lane seeing only its own clauses and
//!   entries. Cross-shard batches lock lanes in canonical order and
//!   publish through an atomic two-phase swap. A lane poisoned by a
//!   panicking batch recovers from its last published shard snapshot —
//!   the other lanes never stop serving.
//! * **Snapshot-isolated reads** — the service publishes immutable,
//!   epoch-tagged per-shard [`ViewSnapshot`]s composed into a
//!   [`ServiceSnapshot`] after every batch. Readers clone `Arc` handles
//!   and query from any thread without synchronizing with the writers:
//!   they observe the last *published* consistent state, never a
//!   half-maintained view or a torn multi-shard epoch.
//! * **An update log** — an append-only [`UpdateLog`] of applied
//!   batches (epoch, ticket base, batch — exactly a WAL frame's
//!   content) and lane recoveries that can be replayed onto a freshly
//!   built view to reproduce the served state (recovery), and that the
//!   equivalence tests use to pin batch determinism.
//! * **Durability** — opt-in via [`Durability::durable`]: every batch
//!   is appended to a segmented write-ahead log *before* it is
//!   published, with group-commit fsync batching ([`wal`]); a
//!   background thread periodically checkpoints the served view
//!   ([`checkpoint`]); and [`ViewService::recover`] rebuilds the
//!   service after a crash from the newest valid checkpoint plus the
//!   WAL tail, tolerating a torn final frame.
//! * **Observability** — every subsystem registers its counters into
//!   one lock-free [`MetricsRegistry`] ([`ViewService::metrics`]),
//!   scrapeable as Prometheus text or JSON concurrently with writers
//!   at zero coordination cost; each applied batch leaves a
//!   per-stage wall-clock [`BatchTrace`]
//!   ([`ViewService::recent_traces`]). Gated by [`ObsOptions`].
//! * **Fault tolerance** — all storage I/O goes through a [`Vfs`]
//!   (swappable for the deterministic, seed-driven [`FaultVfs`] in
//!   tests); transient faults are absorbed by bounded-backoff retry
//!   ([`RetryPolicy`]); a persistent WAL failure flips the service
//!   [`ServiceHealth::ReadOnly`] — writes fail fast, readers keep
//!   serving the last published snapshot — and a background probe
//!   restores write service when storage recovers ([`health`]).
//!
//! ```
//! use mmv_service::{ServiceWorker, ViewService};
//! use mmv_core::batch::UpdateBatch;
//! use mmv_core::parser::{parse_atom, parse_program};
//! use mmv_constraints::{NoDomains, SolverConfig, Value};
//! use std::sync::Arc;
//!
//! let parsed = parse_program("b(X) <- X >= 5.  a(X) <- || b(X).").unwrap();
//! let service = Arc::new(ViewService::builder().build(parsed.db).unwrap());
//!
//! // Readers hold epoch-tagged snapshots...
//! let before = service.snapshot();
//! assert_eq!(before.epoch(), 0);
//!
//! // ...while a batch of updates is applied in one maintenance pass.
//! let batch = UpdateBatch::deleting(vec![parse_atom("b(X) <- X = 6").unwrap()]);
//! let applied = service.apply(batch).unwrap();
//! assert_eq!(applied.epoch, 1);
//!
//! // The old snapshot is isolated; the new one reflects the batch.
//! let cfg = SolverConfig::default();
//! assert!(before.ask("a", &[Value::int(6)], &NoDomains, &cfg).unwrap());
//! assert!(!service.ask("a", &[Value::int(6)], &cfg).unwrap());
//! # drop(ServiceWorker::spawn(service.clone()));
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod health;
mod lanes;
pub mod log;
mod obs;
pub mod service;
pub mod snapshot;
pub mod vfs;
pub mod wal;
pub mod worker;

pub use checkpoint::CheckpointStats;
pub use config::{Durability, ObsOptions, RecoveryReport, ServiceConfig, ViewServiceBuilder};
pub use health::{HealthTransition, RetryPolicy, ServiceHealth, HEALTH_TRANSITION_CAP};
pub use log::{LogRecord, Recovery, ReplayError, UpdateLog};
pub use service::{Applied, FaultHook, ServiceError, SharedResolver, ViewService};
pub use snapshot::{Epoch, PublishStats, ServiceSnapshot, ViewSnapshot};
pub use vfs::{
    Fault, FaultPlan, FaultStats, FaultVfs, OpSel, ScriptedFault, StdVfs, StorageOp, Vfs,
};
pub use wal::{FsyncPolicy, StorageError, WalStats};
pub use worker::{BatchSender, ServiceWorker};

// Re-export the batch and shard vocabulary so service users need not
// depend on mmv-core directly for the common path.
pub use mmv_core::batch::{BatchError, BatchStats, DeleteStats, UpdateBatch};
pub use mmv_core::shard::{ShardId, ShardMap, ShardSpec};

// Re-export the observability vocabulary the service's own API speaks
// ([`ViewService::metrics`], [`ViewService::recent_traces`]) so
// scraping a service needs no direct mmv-obs dependency.
pub use mmv_obs::{
    validate_prometheus, BatchTrace, HistogramSnapshot, MetricsRegistry, Stage, TraceRing,
};

/// Send/Sync audit: the service shares these across reader and writer
/// threads, so a regression (an `Rc`, a `RefCell`, a raw pointer
/// slipping into the view or its substrate) must fail to compile here
/// rather than at some distant use site.
const _SEND_SYNC_AUDIT: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<mmv_core::MaterializedView>();
    assert_send_sync::<mmv_core::ConstrainedDatabase>();
    assert_send_sync::<mmv_core::ConstrainedAtom>();
    assert_send_sync::<mmv_core::Support>();
    assert_send_sync::<mmv_constraints::VarGen>();
    assert_send_sync::<mmv_constraints::Constraint>();
    assert_send_sync::<mmv_constraints::Value>();
    assert_send_sync::<UpdateBatch>();
    assert_send_sync::<ViewSnapshot>();
    assert_send_sync::<ServiceSnapshot>();
    assert_send_sync::<mmv_core::ShardMap>();
    assert_send_sync::<UpdateLog>();
    assert_send_sync::<ViewService>();
    assert_send_sync::<BatchSender>();
    // The persistent shared-store types: snapshots physically share
    // entry pages, predicate indexes and trie nodes with the writer
    // across threads, so these must stay Send + Sync (no Rc, RefCell,
    // Cell, or raw-pointer sharing may slip into the store).
    assert_send_sync::<mmv_core::view::Entry>();
    assert_send_sync::<mmv_core::SharedVec<std::sync::Arc<mmv_core::view::Entry>>>();
    assert_send_sync::<mmv_core::SharedMap<mmv_core::Support, mmv_core::EntryId>>();
    assert_send_sync::<mmv_core::SharedMap<u64, Vec<mmv_core::EntryId>>>();
    assert_send_sync::<mmv_core::ShareStats>();
    assert_send_sync::<PublishStats>();
    // Observability: scrapers render and writers bump from arbitrary
    // threads, so the registry and its handles must stay Send + Sync.
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<TraceRing>();
    assert_send_sync::<BatchTrace>();
    assert_send_sync::<mmv_obs::Counter>();
    assert_send_sync::<mmv_obs::Gauge>();
    assert_send_sync::<mmv_obs::Histogram>();
};
