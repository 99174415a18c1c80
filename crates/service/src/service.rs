//! The concurrent view service: one writer, many snapshot readers.
//!
//! # Concurrency model
//!
//! The service keeps one writer view behind one writer mutex and
//! publishes one [`ViewSnapshot`] per applied batch. Writers take turns
//! on the lock; readers never take it. Maintenance needs no static
//! partition of the program to stay local: `P_OUT`, rederivation and
//! `P_ADD` unfold only from the updated predicates, and the round
//! driver visits only the rules that read a predicate of its delta.
//!
//! # The commit path
//!
//! Every batch runs one pipeline, one function per stage: lock the
//! writer view, maintain it, **commit**, then hand a due checkpoint to
//! the background thread and record telemetry. Commit is the only way a
//! batch becomes visible: the maintained view is frozen into the next
//! [`ViewSnapshot`] (an `Arc`-bump clone under the CoW store), the
//! batch's WAL frame is written, its [`LogRecord`] appended, and the
//! snapshot swapped into the published table under a small publication
//! lock. Readers call [`ViewService::snapshot`], which clones the
//! published snapshot under the same lock, and then query entirely on
//! their own handle, unsynchronized: readers are never blocked by
//! maintenance and never observe a half-applied batch. The epoch (one
//! tick per batch) increases monotonically.
//!
//! # Durability
//!
//! With [`Durability::durable`] commit first writes the record as a
//! write-ahead-log frame, *before* the record is mirrored or anything is
//! swapped — a frame that fails to reach the OS rejects the batch like
//! any other error. Where the append itself settles durability
//! ([`FsyncPolicy::Always`], [`FsyncPolicy::Never`]) the swap follows at
//! once; under [`FsyncPolicy::GroupCommit`] the writer waits, still
//! holding the writer lock, for the flusher to make the frame durable
//! ([`crate::wal`]), and only then swaps. So group commit coalesces the
//! frames of one writer's wait, not those of several writers. A
//! background thread periodically checkpoints the served view
//! ([`crate::checkpoint`]); [`ViewService::recover`] rebuilds the
//! service from the newest valid checkpoint plus the WAL tail.
//!
//! # Failure semantics
//!
//! A batch can fail at three points — maintenance, the WAL append, the
//! durability wait — and all three undo it through the same abort: the
//! writer view re-adopts the last published snapshot's view (an `Arc`
//! re-adoption, not a rebuild). The epoch and the ticket counter live
//! in the published table and move only at the swap, so a failed batch
//! hands nothing back. Nothing was swapped before any failure point, so
//! no reader could observe the batch; it is rejected with
//! [`ServiceError::Batch`] (or [`ServiceError::Storage`], when the WAL
//! failed).
//!
//! # Degraded serving
//!
//! Storage faults are classified transient or persistent
//! ([`StorageError::is_transient`]). Transient faults are absorbed by
//! bounded exponential retry ([`crate::RetryPolicy`], configured via
//! [`ServiceConfig::retry`][crate::ServiceConfig]) inside the WAL and
//! checkpointer and never surface. A *persistent* WAL failure rejects
//! the batch and flips the service [`ServiceHealth::ReadOnly`]:
//! subsequent writes fail fast with [`ServiceError::ReadOnly`] (the
//! writer lock is not taken) while readers keep being served the last
//! published snapshot, untouched. A background probe periodically
//! re-opens the WAL and restores [`ServiceHealth::Healthy`] when storage
//! recovers; every transition is journaled
//! ([`ViewService::health_transitions`]) and written to the WAL as a
//! `health` frame. Persistent *checkpoint* failures only degrade health
//! ([`ServiceHealth::Degraded`]) — writes and reads continue, recovery
//! just replays a longer WAL tail — and the checkpointer retries in the
//! background rather than dying.
//!
//! A batch that *panics* mid-application poisons the writer mutex.
//! Poison is not fatal: readers keep being served from the published
//! table throughout, and the next `apply` recovers the writer — the
//! poison is cleared, the writer view is rebuilt from the last published
//! snapshot, and a [`Recovery`] record is logged — so exactly the
//! panicking batch is lost, and the service keeps serving and accepting
//! batches.

use crate::checkpoint::{self, CheckpointStats, Checkpointer};
use crate::config::{not_durable, Durability, RecoveryReport, ServiceConfig, ViewServiceBuilder};
use crate::health::{Health, HealthProbe, HealthTransition, ServiceHealth};
use crate::log::{LogRecord, Recovery, ReplayError, UpdateLog};
use crate::obs::{ServiceObs, StageClock};
use crate::snapshot::{Epoch, PublishStats, ViewSnapshot};
use crate::vfs::StorageOp;
use crate::wal::{self, FsyncPolicy, StorageError, Wal, WalStats};
use crate::writer::{Publication, Writer};
use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{DomainResolver, Value};
use mmv_core::batch::{apply_batch_ticketed, BatchError, BatchStats, UpdateBatch};
use mmv_core::delete_dred::DredError;
use mmv_core::parser::{render_wal_batch, render_wal_payload, WalPayload};
use mmv_core::pool::WorkerPool;
use mmv_core::tp::{fixpoint, FixpointConfig, FixpointError, Operator, ParallelFixpoint};
use mmv_core::view::ShareStats;
use mmv_core::{ConstrainedDatabase, InstanceError, MaterializedView};
use mmv_obs::sync::lock_clean;
use mmv_obs::{BatchTrace, HistogramSnapshot, MetricsRegistry, Stage};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A resolver the service can share across reader and writer threads.
pub type SharedResolver = Arc<dyn DomainResolver + Send + Sync>;

/// A fault-injection hook: called after each batch's maintenance, before
/// its commit. Tests install one that panics to exercise the
/// poisoned-writer recovery path: the writer view then holds a batch
/// that was never published.
pub type FaultHook = Box<dyn FnMut() + Send>;

/// Service failure — the one error type every `mmv-service` entry
/// point reports, layered over the lower-level errors it wraps
/// (reachable through [`std::error::Error::source`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// Building the initial view failed.
    Build(FixpointError),
    /// Applying a batch failed; the writer view was rolled back and
    /// nothing was published.
    Batch(BatchError),
    /// Re-applying a logged batch during recovery failed.
    Replay(ReplayError),
    /// Durable storage failed: a WAL append or flush, or corrupt
    /// on-disk state during recovery.
    Storage(StorageError),
    /// The service is read-only after a persistent storage failure:
    /// the batch was rejected before taking the writer lock. Readers
    /// are unaffected; the background probe restores write service when
    /// storage recovers (watch [`ViewService::health`]).
    ReadOnly,
    /// The worker channel is closed (the worker already shut down).
    /// Carries the worker's panic message when it died panicking and
    /// the payload was a string.
    WorkerGone(Option<String>),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Build(e) => write!(f, "service build: {e}"),
            ServiceError::Batch(e) => write!(f, "service batch: {e}"),
            ServiceError::Replay(e) => write!(f, "service recovery: {e}"),
            ServiceError::Storage(e) => write!(f, "service storage: {e}"),
            ServiceError::ReadOnly => write!(
                f,
                "service is read-only: durable storage is unavailable \
                 (reads keep serving the last published snapshot)"
            ),
            ServiceError::WorkerGone(None) => write!(f, "service worker has shut down"),
            ServiceError::WorkerGone(Some(msg)) => {
                write!(f, "service worker has shut down (panicked: {msg})")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Build(e) => Some(e),
            ServiceError::Batch(e) => Some(e),
            ServiceError::Replay(e) => Some(e),
            ServiceError::Storage(e) => Some(e),
            ServiceError::ReadOnly | ServiceError::WorkerGone(_) => None,
        }
    }
}

/// The outcome of one applied batch.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// The epoch the batch produced.
    pub epoch: Epoch,
    /// Maintenance statistics.
    pub stats: BatchStats,
    /// Wall-clock maintenance latency (excluding snapshot publication).
    pub latency: std::time::Duration,
    /// Publication cost: the freeze-and-swap time and the batch's
    /// copied-vs-shared page accounting.
    pub publish: PublishStats,
}

/// The durable half of the service: the open WAL, the background
/// checkpointer + health probe, and the checkpoint cadence.
struct DurableState {
    /// Declared first so the probe stops before the rest tears down.
    _probe: HealthProbe,
    wal: Arc<Wal>,
    checkpointer: Checkpointer,
    checkpoint_every: u64,
}

/// Replay context for one logged batch: publish under the *recorded*
/// epoch with the *recorded* ticket base. (Recovery replays before the
/// durable stack is opened, so the record being replayed — already on
/// disk — is not written again.)
struct ReplayCtx {
    epoch: Epoch,
    ticket_base: u64,
}

/// What [`ViewService::commit`] published.
struct Committed {
    /// The snapshot to hand to the checkpointer, with the ticket counter
    /// after it, when the batch landed on the checkpoint cadence.
    checkpoint: Option<(Arc<ViewSnapshot>, u64)>,
    /// What the swap took out of the published table, for the writer
    /// to reclaim.
    retired: Arc<ViewSnapshot>,
}

/// A long-lived concurrent view service over one constrained database.
///
/// Construct with [`ViewService::builder`] (all knobs defaulted —
/// durability, resolver, operator, support mode, fixpoint budgets),
/// share behind an `Arc`, read via [`ViewService::snapshot`] from any
/// thread, and write via [`ViewService::apply`] (directly, or through a
/// [`ServiceWorker`][crate::ServiceWorker]). A durable service is
/// rebuilt after a crash with [`ViewService::recover`].
pub struct ViewService {
    db: ConstrainedDatabase,
    resolver: SharedResolver,
    op: Operator,
    config: FixpointConfig,
    /// The work-stealing pool, `None` when the resolved width is 1
    /// (parallelism disabled — every round runs on the writer's own
    /// thread). When present, `config.parallel` lets the round driver
    /// submit rounds to it.
    pool: Option<Arc<WorkerPool>>,
    writer: Writer,
    published: Publication,
    /// The update log, one record per published batch.
    log: Mutex<UpdateLog>,
    /// Health state machine + transition journal (shared with the
    /// checkpointer and the storage probe).
    health: Arc<Health>,
    durable: Option<DurableState>,
    /// Cheap "a fault hook is installed" flag so the hot write path
    /// never touches the hook mutex outside of tests.
    fault_armed: AtomicBool,
    fault: Mutex<Option<FaultHook>>,
    /// Unified metrics registry + batch-lifecycle trace ring; every
    /// subsystem's detached counters are registered here.
    pub(crate) obs: ServiceObs,
}

impl fmt::Debug for ViewService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("ViewService")
            .field("epoch", &snap.epoch())
            .field("entries", &snap.len())
            .field("mode", &snap.mode())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

impl ViewService {
    /// A builder with every knob at its default — the construction
    /// API. `ViewService::builder().build(db)` is the minimal service.
    pub fn builder() -> ViewServiceBuilder {
        ViewServiceBuilder::new()
    }

    /// Builds the view (`op ↑ ω (∅)` of `db`) and publishes it as epoch
    /// 0. With [`Durability::durable`] the WAL is opened too — the
    /// directory must hold no earlier WAL/checkpoint state (that is what
    /// [`ViewService::recover`] is for).
    pub fn with_config(
        db: ConstrainedDatabase,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let view = Self::base_view(&db, &config)?;
        let mut svc = Self::assemble(db, &config, view, 0, 0);
        if let Some(dir) = config.durability.dir() {
            Self::require_fresh_dir(dir)?;
            svc.open_durable(dir, &config, 1)?;
        }
        Ok(svc)
    }

    /// Recovers a durable service from `dir`: loads the newest valid
    /// checkpoint (if any — otherwise the view is built from the
    /// database, as [`ViewService::with_config`] builds it), replays
    /// every WAL record past it through the normal ticketed batch path,
    /// truncates a torn final frame per the torn-tail contract, and
    /// reopens the WAL for appending. Replay reissues each batch's
    /// recorded tickets and epoch, so the recovered view is
    /// syntactically identical to the pre-crash served view.
    ///
    /// `config` must match the database the WAL was written against
    /// (same operator and support mode), and the checkpoint must hold
    /// one view section; `config` must be durable (anything else is a
    /// [`ServiceError::Storage`]). Its fsync and checkpoint knobs apply,
    /// its directory is ignored in favor of `dir`.
    pub fn recover(
        dir: &Path,
        db: ConstrainedDatabase,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        if config.durability.dir().is_none() {
            return Err(not_durable());
        }
        let (op, mode) = (config.op, config.mode);
        let chk = checkpoint::load_newest(dir).map_err(ServiceError::Storage)?;
        let scan = wal::scan_dir(dir, true).map_err(ServiceError::Storage)?;
        let mismatch = |detail: String| {
            ServiceError::Storage(StorageError::Corrupt {
                file: dir.to_path_buf(),
                offset: 0,
                detail,
            })
        };
        let (view, base_epoch, tickets) = match &chk {
            Some(c) => {
                let found = (c.mode, c.op, c.shards.len());
                let configured = (mode, op, 1);
                if found != configured {
                    return Err(mismatch(format!(
                        "checkpoint (mode, op, shards) {found:?} != configured {configured:?}"
                    )));
                }
                // The view's variable generator must clear both the
                // database's own variables and every variable a
                // checkpointed entry uses (entries are stored with
                // exact variable identity).
                let mut gen = db.fresh_gen();
                let entries = &c.shards[0].1;
                for e in entries {
                    let mut vs = e.atom.free_vars();
                    for t in e.children_args.iter().flatten() {
                        t.collect_vars(&mut vs);
                    }
                    vs.iter().for_each(|v| gen.reserve_below(v.0 + 1));
                }
                let mut view = MaterializedView::new(mode, gen);
                for e in entries {
                    let (atom, support) = (e.atom.clone(), e.support.clone());
                    view.insert(atom, support, e.children_args.clone());
                }
                (view, c.epoch, c.tickets)
            }
            None => (Self::base_view(&db, &config)?, 0, 0),
        };
        let mut svc = Self::assemble(db, &config, view, base_epoch, tickets);
        // Replay runs on the still in-memory service: the batches go
        // through the normal commit path — landing in the log as they
        // did originally — but no frame is written, since `durable` is
        // only opened below.
        let mut replayed = 0u64;
        for payload in &scan.payloads {
            match payload {
                WalPayload::Batch {
                    epoch,
                    ticket_base,
                    batch,
                } if *epoch > base_epoch => {
                    svc.apply_inner(
                        batch.clone(),
                        Some(ReplayCtx {
                            epoch: *epoch,
                            ticket_base: *ticket_base,
                        }),
                    )
                    .map_err(|e| match e {
                        ServiceError::Batch(be) => {
                            ServiceError::Replay(ReplayError::Batch(*epoch, be))
                        }
                        other => other,
                    })?;
                    replayed += 1;
                }
                WalPayload::Recovery { epoch, .. } => {
                    lock_clean(&svc.log).record_recovery(Recovery { epoch: *epoch })
                }
                _ => {}
            }
        }
        svc.open_durable(dir, &config, scan.next_seq)?;
        let report = RecoveryReport {
            checkpoint_epoch: chk.as_ref().map(|c| c.epoch),
            replayed_records: replayed,
            recovered_epoch: svc.epoch(),
            torn_tail: scan.torn_tail,
            segments_scanned: scan.segments,
        };
        Ok((svc, report))
    }

    /// Opens the durable stack over `dir` — the WAL (next segment
    /// `start_seq`), the background checkpointer and the health probe —
    /// and registers their instruments: the one place fresh
    /// construction and recovery wire durability, so both take every
    /// parameter from `config.durability`.
    fn open_durable(
        &mut self,
        dir: &Path,
        config: &ServiceConfig,
        start_seq: u64,
    ) -> Result<(), ServiceError> {
        let Durability::Durable {
            fsync,
            checkpoint_every,
            segment_bytes,
            vfs,
            probe_interval,
            ..
        } = &config.durability
        else {
            return Err(not_durable());
        };
        let retry = config.retry;
        let wal = Wal::open_with(vfs.clone(), dir, *fsync, *segment_bytes, start_seq, retry)
            .map_err(ServiceError::Storage)?;
        vfs.register_metrics(&self.obs.registry);
        wal.metrics().register_into(&self.obs.registry);
        let checkpointer = Checkpointer::spawn_with(
            vfs.clone(),
            dir.to_path_buf(),
            self.op,
            wal.clone(),
            retry,
            self.health.clone(),
            *probe_interval,
        );
        checkpointer.metrics().register_into(&self.obs.registry);
        let probe = HealthProbe::spawn(self.health.clone(), wal.clone(), *probe_interval);
        self.durable = Some(DurableState {
            _probe: probe,
            wal,
            checkpointer,
            checkpoint_every: *checkpoint_every,
        });
        Ok(())
    }

    /// The view of a service starting from scratch: `op ↑ ω (∅)` of
    /// `db`, with `max_entries` bounding it as in every batch.
    fn base_view(
        db: &ConstrainedDatabase,
        config: &ServiceConfig,
    ) -> Result<MaterializedView, ServiceError> {
        let (resolver, op, mode) = (config.resolver.as_ref(), config.op, config.mode);
        // The view builds on the caller thread, off the worker pool:
        // `config.fixpoint` is not yet wired to the pool here. Pooled
        // build rounds saved no time over inline rounds and raised peak
        // RSS by ~4 % on the layered benchmark workloads (glibc gives
        // each worker thread that allocates its own malloc arena).
        let (view, _) =
            fixpoint(db, resolver, op, mode, &config.fixpoint).map_err(ServiceError::Build)?;
        Ok(view)
    }

    /// Assembles the in-memory service around `view`, published at
    /// `epoch` with ticket counter `tickets` (shared by fresh
    /// construction and recovery).
    fn assemble(
        db: ConstrainedDatabase,
        config: &ServiceConfig,
        view: MaterializedView,
        epoch: Epoch,
        tickets: u64,
    ) -> ViewService {
        let resolver = config.resolver.clone();
        let mut fx = config.fixpoint.clone();
        let (writer, published) = Writer::new(view, epoch, tickets);
        let health = Arc::new(Health::default());
        health.note_epoch(epoch);
        let obs = ServiceObs::new(&config.observability);
        health.register_into(&obs.registry);
        obs.publish_epoch_hint(epoch);
        // The work-stealing pool: builder override, then the
        // MMV_POOL_THREADS environment variable, then the host's
        // available parallelism. Width 1 means no pool at all — every
        // round runs on the writer's own thread. An explicitly
        // pre-wired `config.parallel` (a caller-owned pool) is
        // respected as-is. The pool serves batches only; the build
        // stays off it (see `base_view`).
        let threads = Self::resolve_pool_threads(config.pool_threads);
        let pool = if threads > 1 && fx.parallel.is_none() {
            let pool = Arc::new(WorkerPool::new(threads));
            pool.metrics().register_into(&obs.registry);
            fx.parallel = Some(ParallelFixpoint {
                pool: Arc::clone(&pool),
                resolver: resolver.clone(),
            });
            Some(pool)
        } else {
            None
        };
        ViewService {
            db,
            resolver,
            op: config.op,
            config: fx,
            pool,
            writer,
            published,
            log: Mutex::new(UpdateLog::new()),
            health,
            durable: None,
            fault_armed: AtomicBool::new(false),
            fault: Mutex::new(None),
            obs,
        }
    }

    /// Rejects a durable-build directory that already holds WAL or
    /// checkpoint state — building over history would shadow it;
    /// recovery is the explicit path.
    #[expect(
        clippy::disallowed_methods,
        reason = "pre-build freshness probe; runs before the service's Vfs exists"
    )]
    fn require_fresh_dir(dir: &Path) -> Result<(), ServiceError> {
        let dir_err = |op: StorageOp| {
            move |e: std::io::Error| ServiceError::Storage(StorageError::io(op, dir, e))
        };
        std::fs::create_dir_all(dir).map_err(dir_err(StorageOp::Create))?;
        let entries = std::fs::read_dir(dir).map_err(dir_err(StorageOp::ReadDir))?;
        for entry in entries {
            let entry = entry.map_err(dir_err(StorageOp::ReadDir))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("wal-") || name.starts_with("chk-") {
                return Err(ServiceError::Storage(StorageError::io(
                    StorageOp::Create,
                    dir,
                    std::io::Error::new(
                        std::io::ErrorKind::AlreadyExists,
                        format!(
                            "{} already holds durable state ({name}); use ViewService::recover",
                            dir.display()
                        ),
                    ),
                )));
            }
        }
        Ok(())
    }

    /// The database the service maintains the view of.
    pub fn db(&self) -> &ConstrainedDatabase {
        &self.db
    }

    /// The service's shared resolver.
    pub fn resolver(&self) -> &SharedResolver {
        &self.resolver
    }

    /// The fixpoint configuration batches are applied under.
    pub fn config(&self) -> &FixpointConfig {
        &self.config
    }

    /// The work-stealing pool that runs a round's splits, `None` when
    /// the resolved width is 1 (parallelism disabled). Its instruments
    /// (`mmv_pool_tasks_total`, `mmv_pool_steals_total`,
    /// `mmv_pool_workers_busy`) are registered in
    /// [`ViewService::metrics`].
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// The pool width to use: the builder's override, else the
    /// `MMV_POOL_THREADS` environment variable, else the host's
    /// available parallelism (0 and unparsable values fall through to
    /// the next source).
    fn resolve_pool_threads(requested: Option<usize>) -> usize {
        requested
            .filter(|&n| n > 0)
            .or_else(|| {
                std::env::var("MMV_POOL_THREADS")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    }

    /// Cumulative WAL I/O counters (`None` for an in-memory service).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|d| d.wal.stats())
    }

    /// Cumulative checkpoint counters (`None` for an in-memory
    /// service).
    pub fn checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.durable.as_ref().map(|d| d.checkpointer.stats())
    }

    /// The service's current health: `Healthy`, `Degraded` (checkpoints
    /// failing, writes and reads fine), or `ReadOnly` (WAL down, writes
    /// rejected, reads served from the last published snapshot). An
    /// in-memory service is always `Healthy`.
    pub fn health(&self) -> ServiceHealth {
        self.health.current()
    }

    /// The journal of health transitions, oldest first: every flip
    /// between `Healthy`, `Degraded`, and `ReadOnly`, with the epoch it
    /// happened at and the storage error (or probe success) behind it.
    /// The journal is a bounded ring (the newest
    /// [`HEALTH_TRANSITION_CAP`][crate::health::HEALTH_TRANSITION_CAP]
    /// entries); [`ViewService::health_transitions_total`] counts every
    /// transition ever, including evicted ones.
    pub fn health_transitions(&self) -> Vec<HealthTransition> {
        self.health.transitions()
    }

    /// Total health transitions since construction — monotone even
    /// after the bounded journal starts evicting old entries.
    pub fn health_transitions_total(&self) -> u64 {
        self.health.transitions_total()
    }

    /// The service's unified metrics registry: writer-lock, WAL,
    /// checkpoint, health, storage-fault, and core maintenance
    /// counters, all behind lock-free handles. Scrape with
    /// [`MetricsRegistry::render_prometheus`] or
    /// [`MetricsRegistry::render_json`] from any thread, concurrently
    /// with writers — rendering never takes a lock the write path
    /// takes.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    /// The most recent completed batch traces, oldest first: per-stage
    /// wall-clock through lock wait → apply → WAL render → append →
    /// fsync wait → publish → checkpoint staging. Bounded by
    /// [`ObsOptions::trace_capacity`][crate::config::ObsOptions];
    /// empty when observability is disabled.
    pub fn recent_traces(&self) -> Vec<BatchTrace> {
        self.obs.traces.recent()
    }

    /// A snapshot of one pipeline stage's cumulative latency histogram
    /// (nanosecond buckets; derive p50/p99 with
    /// [`HistogramSnapshot::quantile`]).
    pub fn stage_timings(&self, stage: Stage) -> HistogramSnapshot {
        self.obs.stage_histogram(stage).snapshot()
    }

    /// Hands the current snapshot to the background checkpointer
    /// regardless of cadence. Returns `false` for an in-memory service
    /// or when a checkpoint is already in flight.
    pub fn request_checkpoint(&self) -> bool {
        let Some(d) = &self.durable else { return false };
        let (snap, tickets) = self.published.state();
        d.checkpointer.request(snap, tickets)
    }

    /// Installs (or clears) the fault-injection hook called after each
    /// batch's maintenance, before its commit. Test support: a hook that
    /// panics exercises exactly the mid-batch writer panic the
    /// poisoned-writer recovery exists for.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        self.fault_armed.store(hook.is_some(), Ordering::Release); // order: armed is a fast-path hint; the fault mutex orders the hook value itself
        *lock_clean(&self.fault) = hook;
    }

    /// Journals a poisoned writer's recovery (see [`Writer::lock`]) in
    /// the log and, best-effort, the WAL — as the `recovery shard=0`
    /// frame, with the published epoch as the frame's epoch lower bound:
    /// a WAL append failure only costs the audit trail, never the
    /// recovery itself.
    fn journal_recovery(&self, recovery: Recovery) {
        if let Some(d) = &self.durable {
            let frame = render_wal_payload(&WalPayload::Recovery {
                shard: 0,
                epoch: recovery.epoch,
            });
            let _ = d.wal.append(self.published.epoch(), &frame);
        }
        lock_clean(&self.log).record_recovery(recovery);
    }

    /// The current published snapshot. The publication lock is held
    /// only for one `Arc` clone; all queries on the returned snapshot
    /// run without any synchronization with the writer.
    pub fn snapshot(&self) -> Arc<ViewSnapshot> {
        self.published.snapshot()
    }

    /// The epoch of the current published state.
    pub fn epoch(&self) -> Epoch {
        self.published.epoch()
    }

    /// Applies one batch as a transaction: lock the writer view,
    /// maintain it, then commit — append the log record (for a durable
    /// service the WAL frame first, write-ahead; under group commit the
    /// writer then waits for the flusher to make the frame durable) and
    /// publish the next snapshot. Writers take turns on the writer
    /// lock; readers are never blocked.
    ///
    /// On error the writer view is restored from the published snapshot
    /// and nothing is published or logged — the failed batch is simply
    /// rejected. A persistent storage failure additionally flips the
    /// service read-only: later writes fail fast with
    /// [`ServiceError::ReadOnly`] until the background probe restores
    /// storage (see [`ViewService::health`]).
    pub fn apply(&self, batch: UpdateBatch) -> Result<Applied, ServiceError> {
        let result = self.apply_inner(batch, None);
        if result.is_err() && self.obs.enabled {
            self.obs.batches_failed.inc();
        }
        result
    }

    /// The writer pipeline, one call per [`Stage`] seam: lock → maintain
    /// → commit → checkpoint hand-off and telemetry.
    fn apply_inner(
        &self,
        batch: UpdateBatch,
        replay: Option<ReplayCtx>,
    ) -> Result<Applied, ServiceError> {
        // Fail fast while read-only: the batch is rejected before the
        // writer lock is taken, so degraded-mode writes cost almost
        // nothing. (Replay runs before the durable stack that flips
        // health exists.)
        if self.health.current() == ServiceHealth::ReadOnly {
            return Err(ServiceError::ReadOnly);
        }
        // The per-batch stage stopwatch. Disabled (or during replay,
        // which rebuilds history rather than serving it), it is inert:
        // no clock reads on the uninstrumented path.
        let mut clock = StageClock::new(self.obs.enabled && replay.is_none());
        let mut view = self
            .writer
            .lock(&self.published, &self.obs, |r| self.journal_recovery(r));
        clock.lap(Stage::LockWait);
        // Only the lock holder publishes, so the published epoch and
        // ticket counter are this batch's to advance. Replay reissues
        // the recorded ones.
        let (last_epoch, next_ticket) = {
            let (published, next_ticket) = self.published.state();
            (published.epoch(), next_ticket)
        };
        let (epoch, ticket_base) = match &replay {
            Some(ctx) => (ctx.epoch, ctx.ticket_base),
            None => (last_epoch + 1, next_ticket),
        };
        let tickets = next_ticket.max(ticket_base + batch.inserts.len() as u64);
        let before = view.share_stats();

        // Obs-gated: `None` (no clock read) when observability is off,
        // so the reported batch latency is zero rather than measured.
        let start = clock.now();
        let stats = match self.maintain(&mut view, &batch, ticket_base) {
            Ok(stats) => stats,
            Err(e) => {
                self.abort(&mut view);
                return Err(ServiceError::Batch(e));
            }
        };
        let latency = clock.since(start);
        clock.lap(Stage::Apply);

        let (frozen, mut publish) = Self::freeze(&view, epoch, &before, &clock);
        let record = LogRecord {
            epoch,
            ticket_base,
            batch,
        };
        let committed = self.commit(&mut view, record, frozen, tickets, &mut clock)?;
        drop(view);
        // The writer, not a reader, frees the epochs this swap retired.
        clock.mark();
        self.published.reclaim(committed.retired);
        clock.lap(Stage::Publish);
        publish.publish_latency += clock.trace.stage(Stage::Publish);

        if let (Some((snap, tickets)), Some(d)) = (committed.checkpoint, &self.durable) {
            clock.mark();
            d.checkpointer.request(snap, tickets);
            clock.lap(Stage::Checkpoint);
        }
        if let Some(mut trace) = clock.finish() {
            trace.epoch = epoch;
            self.obs.record_applied(
                trace,
                &stats,
                publish.entry_pages_copied,
                publish.pred_indexes_copied,
                publish.by_const_keys_copied,
                publish.slot_keys_copied,
            );
        }
        Ok(Applied {
            epoch,
            stats,
            latency,
            publish,
        })
    }

    /// Maintains the writer view: the whole batch in one
    /// [`apply_batch_ticketed`] pass, its insertions numbered from
    /// `ticket_base`. The caller aborts the batch on error.
    fn maintain(
        &self,
        view: &mut MaterializedView,
        batch: &UpdateBatch,
        ticket_base: u64,
    ) -> Result<BatchStats, BatchError> {
        let (resolver, op) = (self.resolver.as_ref(), self.op);
        let stats = apply_batch_ticketed(
            &self.db,
            view,
            batch,
            ticket_base,
            resolver,
            op,
            &self.config,
        )
        .inspect_err(|e| {
            // A contained pool-worker panic arrives here as an
            // ordinary batch error — the writer mutex was never
            // poisoned — and the caller's abort *is* the
            // recovery. Journal it in the health audit trail.
            if let Some(msg) = worker_panic(e) {
                self.health.writer_event(&format!(
                    "writer view recovered after pool worker panic: {msg}"
                ));
            }
        })?;
        // Fault injection (tests): may panic with the batch maintained
        // but unpublished, poisoning the writer mutex — exactly a
        // mid-batch writer panic. The armed flag keeps the hot path off
        // the hook mutex when no hook is installed.
        // order: pairs with set_fault_hook's Release; the mutex orders the hook value
        if self.fault_armed.load(Ordering::Acquire) {
            if let Some(hook) = lock_clean(&self.fault).as_mut() {
                hook();
            }
        }
        Ok(stats)
    }

    /// Freezes the maintained view into the next snapshot (Arc bumps
    /// under the shared store) and accounts what the batch copied versus
    /// left shared.
    fn freeze(
        view: &MaterializedView,
        epoch: Epoch,
        before: &ShareStats,
        clock: &StageClock,
    ) -> (Arc<ViewSnapshot>, PublishStats) {
        let start = clock.now();
        let after = view.share_stats();
        let (by_const_keys_copied, slot_keys_copied) = after.key_copies_since(before);
        let frozen = Arc::new(ViewSnapshot::new(epoch, view.clone()));
        let publish = PublishStats {
            publish_latency: clock.since(start),
            entry_pages_copied: after.entry_pages_copied - before.entry_pages_copied,
            entry_pages_total: after.entry_pages,
            pred_indexes_copied: after.pred_indexes_copied - before.pred_indexes_copied,
            pred_indexes_total: after.pred_indexes,
            by_const_keys_copied,
            by_const_keys_total: after.by_const_keys,
            slot_keys_copied,
        };
        (frozen, publish)
    }

    /// Commit, the one path every batch publishes through: append the
    /// WAL frame, wait for durability where the append did not already
    /// settle it, append the log record, swap. Readers see the whole
    /// batch or none of it.
    ///
    /// The frame is written *before* anything is logged or swapped
    /// (write-ahead): a failed append rejects the batch with nothing
    /// published or logged. Under an inline fsync policy (and in
    /// memory) the append settles durability, so the swap follows right
    /// away. Under group commit the frame is not yet durable: the writer
    /// waits, still holding the writer lock over its unpublished view,
    /// until the flusher reports the frame durable, so no reader ever
    /// observes an epoch that an fsync failure could still roll back.
    fn commit(
        &self,
        view: &mut MaterializedView,
        record: LogRecord,
        frozen: Arc<ViewSnapshot>,
        tickets: u64,
        clock: &mut StageClock,
    ) -> Result<Committed, ServiceError> {
        if let Some(d) = &self.durable {
            clock.mark();
            let frame = render_wal_batch(record.epoch, record.ticket_base, &record.batch);
            clock.lap(Stage::WalRender);
            let appended = d.wal.append(record.epoch, &frame);
            clock.lap(Stage::WalAppend);
            let lsn = match appended {
                Ok(lsn) => lsn,
                Err(e) => {
                    // A persistent fault (transients were already
                    // retried away below us) flips the service
                    // read-only.
                    self.abort(view);
                    if !e.is_transient() {
                        self.health.wal_failed(&format!("WAL append failed: {e}"));
                    }
                    return Err(ServiceError::Storage(e));
                }
            };
            if matches!(d.wal.policy(), FsyncPolicy::GroupCommit(_)) {
                clock.mark();
                if let Err(e) = d.wal.wait_durable(lsn) {
                    // The flusher gave up on this frame: it never became
                    // durable and was truncated from (or queued for
                    // truncation in) its segment. Un-publish everything
                    // and go read-only.
                    self.abort(view);
                    self.health.wal_failed(&format!("WAL flush failed: {e}"));
                    return Err(ServiceError::Storage(e));
                }
                clock.lap(Stage::FsyncWait);
            }
        }
        clock.mark();
        let epoch = record.epoch;
        lock_clean(&self.log).append(record);
        let committed = self.publish(epoch, frozen, tickets);
        clock.lap(Stage::Publish);
        Ok(committed)
    }

    /// The only swap into the published table: the batch's snapshot
    /// and the ticket counter after it land inside one publication
    /// critical section. The snapshot is handed back for the
    /// checkpointer when the batch lands on the checkpoint cadence.
    fn publish(&self, epoch: Epoch, frozen: Arc<ViewSnapshot>, tickets: u64) -> Committed {
        let retired = self.published.swap(Arc::clone(&frozen), tickets);
        self.health.note_epoch(epoch);
        let on_cadence = self
            .durable
            .as_ref()
            .is_some_and(|d| d.checkpoint_every > 0 && epoch % d.checkpoint_every == 0);
        Committed {
            checkpoint: on_cadence.then_some((frozen, tickets)),
            retired,
        }
    }

    /// Undoes an unpublished batch — the one rollback, called from
    /// every failure point (maintenance error, WAL append failure,
    /// failed durability wait): the writer view re-adopts the last
    /// published snapshot's. The epoch and the ticket counter move only
    /// at the swap, so there is nothing else to hand back. Readers keep
    /// the last published snapshot untouched throughout.
    fn abort(&self, view: &mut MaterializedView) {
        *view = self.published.snapshot().view().clone();
    }

    /// Locks the update log (epoch-ordered records of every applied
    /// batch, plus writer recoveries) for replay or inspection. Writers
    /// block while the guard lives, and calling [`ViewService::apply`]
    /// from the same thread while holding one deadlocks — so read what
    /// you need and drop it (or `clone()` the [`UpdateLog`] out for
    /// longer inspection).
    pub fn log(&self) -> MutexGuard<'_, UpdateLog> {
        lock_clean(&self.log)
    }

    /// Convenience read: query the *current* snapshot with the
    /// service's own resolver.
    pub fn query(
        &self,
        pred: &str,
        pattern: &[Option<Value>],
        config: &SolverConfig,
    ) -> Result<BTreeSet<Vec<Value>>, InstanceError> {
        self.snapshot()
            .query(pred, pattern, self.resolver.as_ref(), config)
    }

    /// Convenience read: boolean query against the current snapshot.
    pub fn ask(
        &self,
        pred: &str,
        args: &[Value],
        config: &SolverConfig,
    ) -> Result<bool, InstanceError> {
        self.snapshot()
            .ask(pred, args, self.resolver.as_ref(), config)
    }
}

/// The panic message when a batch error is a contained pool-worker
/// panic ([`FixpointError::WorkerPanic`]), whichever maintenance phase
/// it escaped from.
fn worker_panic(e: &BatchError) -> Option<&str> {
    match e {
        BatchError::Insert(FixpointError::WorkerPanic { message })
        | BatchError::Dred(DredError::Budget(FixpointError::WorkerPanic { message })) => {
            Some(message)
        }
        _ => None,
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a test stages a dirty durable directory"
)]
mod tests {
    use super::*;
    use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Var};
    use mmv_core::{BodyAtom, Clause, ConstrainedAtom, SupportMode};

    fn x() -> Term {
        Term::var(Var(0))
    }

    fn db() -> ConstrainedDatabase {
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
        ])
    }

    /// `db()` plus an independent fact predicate `c` over `[100, 109]`.
    fn with_c() -> ConstrainedDatabase {
        let mut db = db();
        let c_range = Constraint::cmp(x(), CmpOp::Ge, Term::int(100)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(109),
        ));
        db.push(Clause::fact("c", vec![x()], c_range));
        db
    }

    fn point(v: i64) -> ConstrainedAtom {
        ConstrainedAtom::new("b", vec![x()], Constraint::eq(x(), Term::int(v)))
    }

    fn service(mode: SupportMode) -> ViewService {
        ViewService::builder().mode(mode).build(db()).unwrap()
    }

    #[test]
    fn snapshots_are_epoch_tagged_and_isolated() {
        let svc = service(SupportMode::WithSupports);
        let before = svc.snapshot();
        assert_eq!(before.epoch(), 0);
        let cfg = SolverConfig::default();
        assert!(before.ask("a", &[Value::int(3)], &NoDomains, &cfg).unwrap());

        let applied = svc
            .apply(UpdateBatch::deleting(vec![point(3)]))
            .expect("batch applies");
        assert_eq!(applied.epoch, 1);
        assert_eq!(svc.epoch(), 1);
        // The old snapshot still answers with the pre-batch state.
        assert!(before.ask("a", &[Value::int(3)], &NoDomains, &cfg).unwrap());
        // The new snapshot reflects the deletion.
        assert!(!svc.ask("a", &[Value::int(3)], &cfg).unwrap());
        assert!(svc.query("a", &[Some(Value::int(4))], &cfg).unwrap().len() == 1);
    }

    #[test]
    fn exhausted_build_budget_is_a_build_error() {
        let svc = ViewService::builder()
            .fixpoint(FixpointConfig {
                max_iterations: 0,
                ..FixpointConfig::default()
            })
            .build(db());
        assert!(matches!(svc, Err(ServiceError::Build(_))));
    }

    #[test]
    fn max_entries_bounds_the_view_at_build() {
        // The view holds 3 entries (b, a and c): a budget of 3 builds; a
        // budget of 2 fails the build, fresh or recovered with no
        // checkpoint, though b and a alone would fit it.
        let budget = |max_entries| FixpointConfig {
            max_entries,
            ..FixpointConfig::default()
        };
        let svc = ViewService::builder()
            .fixpoint(budget(3))
            .build(with_c())
            .expect("the view fits the budget");
        assert_eq!(svc.snapshot().len(), 3);
        let err = ViewService::builder()
            .fixpoint(budget(2))
            .build(with_c())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Build(_)), "{err}");
        let dir = std::env::temp_dir().join(format!("mmv-svc-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = ViewService::builder()
            .fixpoint(budget(2))
            .durability(Durability::durable(&dir))
            .recover(with_c())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Build(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_batches_publish_nothing() {
        // max_entries = 3 admits the 2-entry base view; the batch's
        // deletion goes through, then its insertion (1 add + a
        // propagated `a` entry) overflows the budget — a maintenance
        // error with the writer view half-applied.
        let svc = ViewService::builder()
            .fixpoint(FixpointConfig {
                max_entries: 3,
                ..FixpointConfig::default()
            })
            .build(db())
            .expect("base view fits the budget");
        let interval = ConstrainedAtom::new(
            "b",
            vec![x()],
            Constraint::cmp(x(), CmpOp::Ge, Term::int(30)).and(Constraint::cmp(
                x(),
                CmpOp::Le,
                Term::int(40),
            )),
        );
        let err = svc
            .apply(UpdateBatch::deleting(vec![point(3)]).insert(interval))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Batch(_)));
        assert_eq!(svc.epoch(), 0, "failed batch must not publish");
        assert!(svc.log().is_empty());
        // The abort restored the writer view, and the epoch and ticket
        // counter never moved: a subsequent in-budget batch applies
        // cleanly, publishes the next epoch, still serves the point the
        // rejected batch deleted (and not the interval it inserted), and
        // is logged under the ticket the rejected batch had taken.
        let ok = svc.apply(UpdateBatch::deleting(vec![point(5)])).unwrap();
        assert_eq!(ok.epoch, 1);
        let snap = svc.snapshot();
        assert_eq!(snap.epoch(), 1);
        let cfg = SolverConfig::default();
        assert!(snap.ask("a", &[Value::int(3)], &NoDomains, &cfg).unwrap());
        assert!(!snap.ask("a", &[Value::int(35)], &NoDomains, &cfg).unwrap());
        assert!(!snap.ask("a", &[Value::int(5)], &NoDomains, &cfg).unwrap());
        assert_eq!(svc.log().records()[0].ticket_base, 0);
    }

    #[test]
    fn publication_counts_copied_vs_shared_pages() {
        // Three predicates; the batch below inserts into b and
        // propagates to a, so c's index is not touched, let alone
        // copied: it stays shared with epoch 0.
        let svc = ViewService::builder().build(with_c()).unwrap();
        let applied = svc
            .apply(UpdateBatch::inserting(vec![point(30)]))
            .expect("batch applies");
        let p = applied.publish;
        assert_eq!(p.pred_indexes_total, 3, "the view hosts b, a and c");
        assert_eq!(
            p.pred_indexes_copied, 2,
            "b (insert) and a (propagation) copied: {p:?}"
        );
        assert!(p.entry_pages_copied >= 1, "the batch touched the slab");
        assert!(p.entry_pages_copied <= p.entry_pages_total as u64);
        assert_eq!(svc.snapshot().epoch(), 1);
    }

    #[test]
    fn writers_free_retired_epochs_readers_never_do() {
        let svc = service(SupportMode::WithSupports);
        let held = svc.snapshot();
        let held_weak = Arc::downgrade(&held);
        for k in 0..200 {
            svc.apply(UpdateBatch::deleting(vec![point(k % 10)]))
                .expect("batch applies");
            assert!(
                svc.published.retired_len() <= 1,
                "batch {k}: {} retired snapshots kept",
                svc.published.retired_len()
            );
        }
        // The held snapshot.
        assert_eq!(svc.published.retired_len(), 1);
        drop(held);
        assert!(
            held_weak.upgrade().is_some(),
            "the reader's drop is not the last one"
        );
        svc.apply(UpdateBatch::new()).expect("batch applies");
        assert_eq!(svc.published.retired_len(), 0);
        assert_eq!(held_weak.strong_count(), 0, "the writer freed it");
    }

    #[test]
    fn empty_batches_publish_an_epoch_copying_nothing() {
        let svc = service(SupportMode::WithSupports);
        let before = svc.snapshot();
        let applied = svc.apply(UpdateBatch::new()).expect("empty batch applies");
        assert_eq!(applied.epoch, 1);
        assert_eq!(applied.publish.entry_pages_copied, 0);
        assert_eq!(applied.publish.pred_indexes_copied, 0);
        let snap = svc.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert!(snap.view().syntactically_equal(before.view()));
    }

    #[test]
    fn recovery_refuses_a_checkpoint_with_several_sections() {
        // A checkpoint holding several `shard` sections (written by a
        // service that kept one writer view per section) is not loaded
        // into one view.
        let dir = std::env::temp_dir().join(format!("mmv-svc-sections-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let svc = service(SupportMode::WithSupports);
        let path = checkpoint::write_checkpoint(&dir, &svc.snapshot(), 0, Operator::Tp).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let body = &text[..text.rfind("#end crc=").unwrap()];
        let body = format!("{}shard 1 epoch=0\n", body.replace("shards=1", "shards=2"));
        let crc = crate::wal::crc32(body.as_bytes());
        std::fs::write(&path, format!("{body}#end crc={crc:08x}\n")).unwrap();
        let err = ViewService::builder()
            .durability(Durability::durable(&dir))
            .recover(db())
            .unwrap_err();
        assert!(err.to_string().contains("(mode, op, shards)"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builder_on_a_dirty_durable_dir_is_refused() {
        let dir = std::env::temp_dir().join(format!("mmv-svc-dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("wal-000001.log"),
            "#mmv-wal v1 seg=1 first_epoch=1\n",
        )
        .unwrap();
        let err = ViewService::builder()
            .durability(Durability::durable(&dir))
            .build(db())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
