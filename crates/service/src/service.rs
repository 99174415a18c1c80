//! The concurrent view service: per-predicate writer lanes, many
//! snapshot readers.
//!
//! # Concurrency model
//!
//! The clause dependency graph partitions the database's predicates
//! into independent groups ([`ShardMap`]); the service gives each group
//! its own **writer lane** — a mutable shard view plus a shard epoch,
//! guarded by the lane's own `Mutex` — and each lane maintains its
//! slice of the view with the sub-database of its own clauses (original
//! clause numbering preserved, so supports are identical to the
//! unsharded run). Batches that touch one shard take only that lane's
//! lock, so updates to independent predicates maintain concurrently;
//! cross-shard batches acquire their lanes in canonical (ascending
//! shard id) order, which makes lane deadlock impossible.
//!
//! Publication is **two-phase**: after maintenance, each touched lane's
//! view is frozen into a per-shard [`ViewSnapshot`] (phase one, an
//! `Arc`-bump clone under the CoW store), and then all of them are
//! swapped into the published table inside one critical section of a
//! small publication lock, which also advances the global epoch (phase
//! two). Readers call [`ViewService::snapshot`], which clones the whole
//! table under the same lock into a composite [`ServiceSnapshot`] —
//! so a reader observes either none or all of a cross-shard batch's
//! shard snapshots, never a torn multi-shard epoch. Queries then run
//! entirely on the caller's own handles, unsynchronized: readers are
//! never blocked by maintenance and never observe a half-applied batch.
//! The global epoch (one tick per batch) and every shard epoch (one
//! tick per batch touching the shard) increase monotonically.
//!
//! # Durability
//!
//! With [`Durability::durable`] the same critical section also appends
//! the batch as a write-ahead-log frame *before* the swap — a frame
//! that fails to reach the OS rejects the batch like any other error —
//! and the writer then waits (outside all locks) for the group-commit
//! flusher to make the frame durable ([`crate::wal`]). A background
//! thread periodically checkpoints the whole served view
//! ([`crate::checkpoint`]); [`ViewService::recover`] rebuilds the
//! service from the newest valid checkpoint plus the WAL tail.
//!
//! # Failure semantics
//!
//! A batch that fails with an error publishes nothing: every locked
//! lane's writer view is restored from its last published shard
//! snapshot (an `Arc` re-adoption, not a rebuild) and the batch is
//! rejected with [`ServiceError::Batch`] (or
//! [`ServiceError::Storage`], when the WAL append failed). Under
//! [`FsyncPolicy::GroupCommit`] publication is *deferred* until the
//! flusher reports the frame durable — the touched lanes stay locked
//! across the wait — so a batch whose fsync fails is rolled back
//! (lanes, log record, epoch) before any reader could observe it.
//!
//! # Degraded serving
//!
//! Storage faults are classified transient or persistent
//! ([`StorageError::is_transient`]). Transient faults are absorbed by
//! bounded exponential retry ([`crate::RetryPolicy`], configured via
//! [`ServiceConfig::retry`][crate::ServiceConfig]) inside the WAL and
//! checkpointer and never surface. A *persistent* WAL failure rejects
//! the batch and flips the service [`ServiceHealth::ReadOnly`]:
//! subsequent writes fail fast with [`ServiceError::ReadOnly`] (no
//! lane is locked, no ticket burned) while readers keep being served
//! the last published composite snapshot, untouched. A background
//! probe periodically re-opens the WAL and restores
//! [`ServiceHealth::Healthy`] when storage recovers; every transition
//! is journaled ([`ViewService::health_transitions`]) and written to
//! the WAL as a `health` frame. Persistent *checkpoint* failures only
//! degrade health ([`ServiceHealth::Degraded`]) — writes and reads
//! continue, recovery just replays a longer WAL tail — and the
//! checkpointer retries in the background rather than dying.
//!
//! A batch that *panics* mid-application poisons the mutexes of the
//! lanes it held. Poison is not fatal and not contagious: the other
//! lanes keep accepting batches and readers keep being served from the
//! published table throughout. The next `apply` that routes a batch to
//! a poisoned lane recovers it — the poison is cleared, the lane's
//! writer view is rebuilt from its last published shard snapshot, and a
//! [`Recovery`] record is logged — so exactly the panicking batch is
//! lost, and the service keeps serving and accepting batches on every
//! lane. (Historically the writer was a single lane whose poisoned lock
//! made every later call panic; the per-lane recovery above replaced
//! that.)

use crate::checkpoint::{self, CheckpointStats, Checkpointer};
use crate::config::{Durability, ObsOptions, RecoveryReport, ServiceConfig, ViewServiceBuilder};
use crate::health::{Health, HealthProbe, HealthTransition, ServiceHealth};
use crate::log::{DurableLog, LogRecord, LogSink, Recovery, ReplayError, UpdateLog};
use crate::obs::{ServiceObs, StageClock};
use crate::snapshot::{Epoch, PublishStats, ServiceSnapshot, ViewSnapshot};
use crate::vfs::{StdVfs, StorageOp, Vfs};
use crate::wal::{self, FsyncPolicy, StorageError, Wal, WalStats};
use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{DomainResolver, Value};
use mmv_core::batch::{apply_batch_ticketed, BatchError, BatchStats, UpdateBatch};
use mmv_core::delete_dred::DredError;
use mmv_core::parser::WalPayload;
use mmv_core::pool::WorkerPool;
use mmv_core::shard::{ShardId, ShardMap};
use mmv_core::tp::{fixpoint, FixpointConfig, FixpointError, Operator, ParallelFixpoint};
use mmv_core::view::ShareStats;
use mmv_core::{ConstrainedDatabase, InstanceError, MaterializedView, SupportMode};
use mmv_obs::sync::{lock_clean, read_clean, write_clean};
use mmv_obs::{BatchTrace, HistogramSnapshot, MetricsRegistry, Stage};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A resolver the service can share across reader and writer threads.
pub type SharedResolver = Arc<dyn DomainResolver + Send + Sync>;

/// A fault-injection hook: called with the shard id right before each
/// per-lane maintenance step. Tests install one that panics to exercise
/// the poisoned-lane recovery path.
pub type FaultHook = Box<dyn FnMut(ShardId) + Send>;

/// Service failure — the one error type every `mmv-service` entry
/// point reports, layered over the lower-level errors it wraps
/// (reachable through [`std::error::Error::source`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// Building the initial view failed.
    Build(FixpointError),
    /// Applying a batch failed; every touched lane was rolled back and
    /// nothing was published.
    Batch(BatchError),
    /// Re-applying a logged batch during recovery failed.
    Replay(ReplayError),
    /// Durable storage failed: a WAL append or flush, or corrupt
    /// on-disk state during recovery.
    Storage(StorageError),
    /// The service is read-only after a persistent storage failure:
    /// the batch was rejected before touching any lane. Readers are
    /// unaffected; the background probe restores write service when
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
    /// The global epoch the batch produced.
    pub epoch: Epoch,
    /// Maintenance statistics (merged across the touched shards).
    pub stats: BatchStats,
    /// Wall-clock maintenance latency (excluding snapshot publication).
    pub latency: std::time::Duration,
    /// Publication cost: the two-phase freeze-and-swap time and the
    /// batch's copied-vs-shared page accounting over touched shards.
    pub publish: PublishStats,
    /// Writer lanes the batch touched (≥ 2: a cross-shard publish).
    pub shards_touched: usize,
}

/// One writer lane's mutable state.
struct LaneState {
    view: MaterializedView,
    epoch: Epoch,
}

/// The published table: one frozen snapshot per shard plus the global
/// epoch, swapped together under the publication lock. The composite
/// is prebuilt here at publish time so a reader's
/// [`ViewService::snapshot`] is a single `Arc` clone, not an O(shards)
/// assembly under the read lock.
struct Published {
    shards: Vec<Arc<ViewSnapshot>>,
    epoch: Epoch,
    composite: Arc<ServiceSnapshot>,
    /// Batches appended to the WAL whose publication is deferred on
    /// the group-commit flusher. Checkpoints are staged only when this
    /// is zero: a composite snapshotted with a lower-epoch batch still
    /// in flight would claim WAL coverage it does not have.
    deferred_inflight: usize,
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

/// A batch's reserved external-insertion ticket range, rolled back on
/// drop unless committed. The rollback covers every way maintenance
/// can fail to publish — an error return *or a panic unwinding out of
/// `apply`* — so the global counter stays in step with what
/// [`UpdateLog::replay`] will draw (a panicked batch must not burn
/// tickets: its lanes recover to the pre-batch published state). The
/// rollback is conditional on nothing having interleaved, which makes
/// it exact under sequential use — the scope of the replay guarantee
/// (see `crate::log`).
struct TicketReservation<'a> {
    counter: &'a Mutex<u64>,
    base: u64,
    n: u64,
    committed: bool,
}

impl<'a> TicketReservation<'a> {
    fn reserve(counter: &'a Mutex<u64>, n: u64) -> Self {
        let mut t = lock_clean(counter);
        let base = *t;
        *t += n;
        TicketReservation {
            counter,
            base,
            n,
            committed: false,
        }
    }

    /// Marks the tickets as consumed — called once the batch's shard
    /// snapshots are published (the point of no return).
    fn commit(mut self) {
        self.committed = true;
    }
}

impl Drop for TicketReservation<'_> {
    fn drop(&mut self) {
        if self.committed || self.n == 0 {
            return;
        }
        let mut t = lock_clean(self.counter);
        if *t == self.base + self.n {
            *t = self.base;
        }
    }
}

/// Replay context for one logged batch: publish under the *recorded*
/// epoch with the *recorded* ticket base, and skip the WAL (the record
/// being replayed is already on disk).
struct ReplayCtx {
    epoch: Epoch,
    ticket_base: u64,
}

/// A borrowed view of the service's update log (see
/// [`ViewService::log`]): derefs to [`UpdateLog`]. The guard holds the
/// log lock — writers block while it lives, and calling
/// [`ViewService::apply`] from the same thread while holding one
/// deadlocks — so read what you need and drop it (or `clone()` the
/// `UpdateLog` out for longer inspection).
pub struct LogRead<'a>(MutexGuard<'a, Box<dyn LogSink>>);

impl std::ops::Deref for LogRead<'_> {
    type Target = UpdateLog;

    fn deref(&self) -> &UpdateLog {
        self.0.memory()
    }
}

impl fmt::Debug for LogRead<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.memory(), f)
    }
}

/// A long-lived concurrent view service over one constrained database.
///
/// Construct with [`ViewService::builder`] (all knobs defaulted —
/// shard layout, durability, resolver, operator, support mode,
/// fixpoint budgets), share behind an `Arc`, read via
/// [`ViewService::snapshot`] from any thread, and write via
/// [`ViewService::apply`] (directly, or through a
/// [`ServiceWorker`][crate::ServiceWorker]). A durable service is
/// rebuilt after a crash with [`ViewService::recover`].
pub struct ViewService {
    db: ConstrainedDatabase,
    resolver: SharedResolver,
    op: Operator,
    config: FixpointConfig,
    /// The shared intra-lane work-stealing pool, `None` when the
    /// resolved width is 1 (parallelism disabled — every round runs on
    /// the lane's own thread). When present, `config.parallel` lets the
    /// round driver submit every lane's rounds to it.
    pool: Option<Arc<WorkerPool>>,
    shards: Arc<ShardMap>,
    /// Per lane: the sub-database of the shard's clauses.
    lane_dbs: Vec<ConstrainedDatabase>,
    lanes: Vec<Mutex<LaneState>>,
    published: RwLock<Published>,
    /// The update-log sink (in-memory, or WAL-backed). Lock order: the
    /// sink lock is always taken *before* the publication lock by any
    /// thread that holds both.
    log: Mutex<Box<dyn LogSink>>,
    /// Global external-insertion ticket counter: each batch reserves
    /// one ticket per insertion request, so a split batch issues the
    /// same tickets the unsplit batch would.
    tickets: Mutex<u64>,
    /// The next-global-epoch allocator (the last allocated epoch).
    /// Under deferred publication the *published* epoch lags frames
    /// already in the WAL, so allocation cannot read it; this counter
    /// is the source of truth, advanced under the sink lock so WAL
    /// frames append in epoch order.
    next_epoch: Mutex<Epoch>,
    /// Health state machine + transition journal (shared with the
    /// checkpointer and the storage probe).
    health: Arc<Health>,
    durable: Option<DurableState>,
    /// Cheap "a fault hook is installed" flag so the hot write path
    /// never touches the hook mutex (a cross-lane serialization point)
    /// outside of tests.
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
            .field("shards", &snap.shard_count())
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

    /// Builds the initial materialized view (`op ↑ ω (∅)` of `db`),
    /// partitions it into writer lanes, and publishes the composite as
    /// global epoch 0. With [`Durability::durable`] the WAL is opened
    /// too — the directory must hold no earlier WAL/checkpoint state
    /// (that is what [`ViewService::recover`] is for).
    pub fn with_config(
        db: ConstrainedDatabase,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let ServiceConfig {
            resolver,
            op,
            mode,
            fixpoint: fx,
            shards: spec,
            durability,
            retry,
            observability,
            pool_threads,
            ..
        } = config;
        let (view, _) =
            fixpoint(&db, resolver.as_ref(), op, mode, &fx).map_err(ServiceError::Build)?;
        let shards = Arc::new(ShardMap::from_db(&db, &spec));
        let lane_views = Self::split_view(view, &shards, mode);
        let lane_epochs = vec![0; lane_views.len()];
        let mut svc = Self::assemble(AssembleParts {
            db,
            resolver,
            op,
            config: fx,
            shards,
            lane_views,
            lane_epochs,
            epoch: 0,
            tickets: 0,
            obs: observability,
            pool_threads,
        });
        if let Durability::Durable {
            dir,
            fsync,
            checkpoint_every,
            segment_bytes,
            vfs,
            probe_interval,
        } = durability
        {
            Self::require_fresh_dir(&dir)?;
            let wal = Wal::open_with(vfs.clone(), &dir, fsync, segment_bytes, 1, retry)
                .map_err(ServiceError::Storage)?;
            vfs.register_metrics(&svc.obs.registry);
            wal.metrics().register_into(&svc.obs.registry);
            let checkpointer = Checkpointer::spawn_with(
                vfs,
                dir,
                op,
                wal.clone(),
                retry,
                svc.health.clone(),
                probe_interval,
            );
            checkpointer.metrics().register_into(&svc.obs.registry);
            let probe = HealthProbe::spawn(svc.health.clone(), wal.clone(), probe_interval);
            svc.log = Mutex::new(Box::new(DurableLog::new(wal.clone())));
            svc.durable = Some(DurableState {
                _probe: probe,
                wal,
                checkpointer,
                checkpoint_every,
            });
        }
        Ok(svc)
    }

    /// Recovers a durable service from `dir`: loads the newest valid
    /// checkpoint (if any — otherwise the base fixpoint is rebuilt),
    /// replays every WAL record past it through the normal ticketed
    /// batch path, truncates a torn final frame per the torn-tail
    /// contract, and reopens the WAL for appending. The recovered view
    /// is syntactically identical to the pre-crash served view (for
    /// sequentially applied batches; see the ticket-permutation caveat
    /// in [`crate::log`]).
    ///
    /// `config` must match the database the WAL was written against
    /// (same operator, support mode, and shard layout); fsync and
    /// checkpoint knobs are taken from `config.durability` when it is
    /// durable (its directory is ignored in favor of `dir`).
    pub fn recover(
        dir: &Path,
        db: ConstrainedDatabase,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let ServiceConfig {
            resolver,
            op,
            mode,
            fixpoint: fx,
            shards: spec,
            durability,
            retry,
            observability,
            pool_threads,
            ..
        } = config;
        let (fsync, checkpoint_every, segment_bytes, vfs, probe_interval) = match durability {
            Durability::Durable {
                fsync,
                checkpoint_every,
                segment_bytes,
                vfs,
                probe_interval,
                ..
            } => (fsync, checkpoint_every, segment_bytes, vfs, probe_interval),
            _ => (
                FsyncPolicy::GroupCommit(std::time::Duration::ZERO),
                256,
                8 << 20,
                Arc::new(StdVfs) as Arc<dyn Vfs>,
                std::time::Duration::from_millis(250),
            ),
        };
        let chk = checkpoint::load_newest(dir).map_err(ServiceError::Storage)?;
        let scan = wal::scan_dir(dir, true).map_err(ServiceError::Storage)?;
        let shards = Arc::new(ShardMap::from_db(&db, &spec));
        let mismatch = |detail: String| {
            ServiceError::Storage(StorageError::Corrupt {
                file: dir.to_path_buf(),
                offset: 0,
                detail,
            })
        };
        let (lane_views, lane_epochs, base_epoch, base_tickets) = match &chk {
            Some(c) => {
                if c.mode != mode {
                    return Err(mismatch(format!(
                        "checkpoint mode {:?} != configured {:?}",
                        c.mode, mode
                    )));
                }
                if c.op != op {
                    return Err(mismatch(format!(
                        "checkpoint op {:?} != configured {:?}",
                        c.op, op
                    )));
                }
                if c.shards.len() != shards.num_shards() {
                    return Err(mismatch(format!(
                        "checkpoint has {} shards, current layout {}",
                        c.shards.len(),
                        shards.num_shards()
                    )));
                }
                // The lanes' variable generator must clear both the
                // database's own variables and every variable a
                // checkpointed entry uses (entries are stored with
                // exact variable identity).
                let mut gen = db.fresh_gen();
                for (_, entries) in &c.shards {
                    for e in entries {
                        for v in e.atom.free_vars() {
                            gen.reserve_below(v.0 + 1);
                        }
                        let mut vs = Vec::new();
                        for args in &e.children_args {
                            for t in args {
                                t.collect_vars(&mut vs);
                            }
                        }
                        for v in vs {
                            gen.reserve_below(v.0 + 1);
                        }
                    }
                }
                let mut lane_views: Vec<MaterializedView> = (0..shards.num_shards())
                    .map(|_| MaterializedView::new(mode, gen.clone()))
                    .collect();
                for (_, entries) in &c.shards {
                    for e in entries {
                        let s = shards.shard_of(&e.atom.pred);
                        lane_views[s].insert(
                            e.atom.clone(),
                            e.support.clone(),
                            e.children_args.clone(),
                        );
                    }
                }
                let lane_epochs: Vec<Epoch> = c.shards.iter().map(|(e, _)| *e).collect();
                (lane_views, lane_epochs, c.epoch, c.tickets)
            }
            None => {
                let (view, _) =
                    fixpoint(&db, resolver.as_ref(), op, mode, &fx).map_err(ServiceError::Build)?;
                let lane_views = Self::split_view(view, &shards, mode);
                let lane_epochs = vec![0; lane_views.len()];
                (lane_views, lane_epochs, 0, 0)
            }
        };
        let mut svc = Self::assemble(AssembleParts {
            db,
            resolver,
            op,
            config: fx,
            shards,
            lane_views,
            lane_epochs,
            epoch: base_epoch,
            tickets: base_tickets,
            obs: observability,
            pool_threads,
        });
        let mut replayed = 0u64;
        let mut recoveries: Vec<Recovery> = Vec::new();
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
                WalPayload::Batch { .. } | WalPayload::Checkpoint { .. } => {}
                WalPayload::Recovery { shard, epoch } => recoveries.push(Recovery {
                    shard: *shard,
                    epoch: *epoch,
                }),
                _ => {}
            }
        }
        let recovered_epoch = svc.read_published().epoch;
        let wal = Wal::open_with(vfs.clone(), dir, fsync, segment_bytes, scan.next_seq, retry)
            .map_err(ServiceError::Storage)?;
        vfs.register_metrics(&svc.obs.registry);
        wal.metrics().register_into(&svc.obs.registry);
        let checkpointer = Checkpointer::spawn_with(
            vfs,
            dir.to_path_buf(),
            op,
            wal.clone(),
            retry,
            svc.health.clone(),
            probe_interval,
        );
        checkpointer.metrics().register_into(&svc.obs.registry);
        let probe = HealthProbe::spawn(svc.health.clone(), wal.clone(), probe_interval);
        {
            let mut sink = lock_clean(&svc.log);
            let mut mem = sink.take_memory();
            for r in recoveries {
                mem.record_recovery(r);
            }
            *sink = Box::new(DurableLog::with_memory(wal.clone(), mem));
        }
        svc.durable = Some(DurableState {
            _probe: probe,
            wal,
            checkpointer,
            checkpoint_every,
        });
        let report = RecoveryReport {
            checkpoint_epoch: chk.as_ref().map(|c| c.epoch),
            replayed_records: replayed,
            recovered_epoch,
            torn_tail: scan.torn_tail,
            segments_scanned: scan.segments,
        };
        Ok((svc, report))
    }

    /// Splits a built view into per-shard views: each lane re-hosts
    /// its predicates' entries (supports and children metadata moved
    /// verbatim — clause numbering is global, so they stay valid
    /// against the lane's restricted sub-database). A single lane
    /// adopts the built view as-is.
    fn split_view(
        mut view: MaterializedView,
        shards: &ShardMap,
        mode: SupportMode,
    ) -> Vec<MaterializedView> {
        if shards.is_single() {
            return vec![view];
        }
        let gen = view.var_gen_mut().clone();
        let mut lane_views: Vec<MaterializedView> = (0..shards.num_shards())
            .map(|_| MaterializedView::new(mode, gen.clone()))
            .collect();
        for (_, e) in view.live_entries() {
            let s = shards.shard_of(&e.atom.pred);
            lane_views[s].insert(e.atom.clone(), e.support.clone(), e.children_args.clone());
        }
        lane_views
    }

    /// Assembles the in-memory service from prepared lanes (shared by
    /// fresh construction and recovery).
    fn assemble(parts: AssembleParts) -> ViewService {
        let AssembleParts {
            db,
            resolver,
            op,
            mut config,
            shards,
            lane_views,
            lane_epochs,
            epoch,
            tickets,
            obs: obs_opts,
            pool_threads,
        } = parts;
        let lane_dbs: Vec<ConstrainedDatabase> = (0..shards.num_shards())
            .map(|s| shards.restrict_db(&db, s))
            .collect();
        let mut published = Vec::with_capacity(lane_views.len());
        let mut lanes = Vec::with_capacity(lane_views.len());
        for (lane_view, lane_epoch) in lane_views.into_iter().zip(lane_epochs) {
            // The lane adopts a structurally-shared clone of the
            // published shard snapshot (a few Arc bumps).
            let snapshot = Arc::new(ViewSnapshot::new(lane_epoch, lane_view));
            lanes.push(Mutex::new(LaneState {
                view: snapshot.view().clone(),
                epoch: lane_epoch,
            }));
            published.push(snapshot);
        }
        let composite = Arc::new(ServiceSnapshot::new(
            epoch,
            published.clone(),
            shards.clone(),
        ));
        let health = Arc::new(Health::default());
        health.note_epoch(epoch);
        let obs = ServiceObs::new(&obs_opts, shards.num_shards());
        health.register_into(&obs.registry);
        obs.publish_epoch_hint(epoch);
        // The shared work-stealing pool: builder override, then the
        // MMV_POOL_THREADS environment variable, then the host's
        // available parallelism. Width 1 means no pool at all — every
        // lane runs its rounds on its own thread. An explicitly
        // pre-wired `config.parallel` (a caller-owned pool) is
        // respected as-is.
        let threads = Self::resolve_pool_threads(pool_threads);
        let pool = if threads > 1 && config.parallel.is_none() {
            let pool = Arc::new(WorkerPool::new(threads));
            pool.metrics().register_into(&obs.registry);
            config.parallel = Some(ParallelFixpoint {
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
            op,
            config,
            pool,
            shards,
            lane_dbs,
            lanes,
            published: RwLock::new(Published {
                shards: published,
                epoch,
                composite,
                deferred_inflight: 0,
            }),
            log: Mutex::new(Box::new(UpdateLog::new())),
            tickets: Mutex::new(tickets),
            next_epoch: Mutex::new(epoch),
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
    fn require_fresh_dir(dir: &Path) -> Result<(), ServiceError> {
        let dir_err = |op: StorageOp| {
            move |e: std::io::Error| ServiceError::Storage(StorageError::io(op, dir, e))
        };
        std::fs::create_dir_all(dir).map_err(dir_err(StorageOp::Create))?; // mmv-lint: allow(vfs-confine) pre-build freshness probe; runs before the service's Vfs exists
        let entries = std::fs::read_dir(dir).map_err(dir_err(StorageOp::ReadDir))?; // mmv-lint: allow(vfs-confine) pre-build freshness probe; runs before the service's Vfs exists
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

    /// The shared intra-lane work-stealing pool, `None` when the
    /// resolved width is 1 (parallelism disabled). All lanes submit
    /// their hot-loop tasks here; its instruments
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

    /// The predicate → writer-lane partition.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shards
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

    /// The service's unified metrics registry: writer-lane, WAL,
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
    /// wall-clock through split → lock wait → apply → WAL render →
    /// append → fsync wait → publish → checkpoint staging. Bounded by
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

    /// Hands the current composite snapshot to the background
    /// checkpointer regardless of cadence. Returns `false` for an
    /// in-memory service or when a checkpoint is already in flight.
    pub fn request_checkpoint(&self) -> bool {
        let Some(d) = &self.durable else { return false };
        let snap = self.snapshot();
        let tickets = *lock_clean(&self.tickets);
        d.checkpointer.request(snap, tickets)
    }

    /// Installs (or clears) the fault-injection hook called with the
    /// shard id right before each per-lane maintenance step. Test
    /// support: a hook that panics exercises exactly the mid-batch
    /// writer panic the poisoned-lane recovery exists for.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        self.fault_armed.store(hook.is_some(), Ordering::Release); // order: armed is a fast-path hint; the fault mutex orders the hook value itself
        *lock_clean(&self.fault) = hook;
    }

    /// The publication table, poison-recovered: the write section only
    /// swaps `Arc`s and bumps counters, so a panic can interrupt but
    /// never tear it.
    fn read_published(&self) -> RwLockReadGuard<'_, Published> {
        read_clean(&self.published)
    }

    /// Write side of [`ViewService::read_published`], same recovery.
    fn write_published(&self) -> RwLockWriteGuard<'_, Published> {
        write_clean(&self.published)
    }

    /// Locks one writer lane, recovering it if a previous batch's panic
    /// poisoned the mutex: the poison is cleared, the lane's writer
    /// view re-adopts its last published shard snapshot (dropping
    /// whatever the panicking batch half-applied), and the recovery is
    /// logged. Lanes must be locked in ascending shard order.
    fn lock_lane(&self, shard: ShardId) -> MutexGuard<'_, LaneState> {
        match self.lanes[shard].lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.lanes[shard].clear_poison();
                let mut g = poisoned.into_inner();
                let (snap, global_epoch) = {
                    let p = self.read_published();
                    (p.shards[shard].clone(), p.epoch)
                };
                g.view = snap.view().clone();
                g.epoch = snap.epoch();
                lock_clean(&self.log).record_recovery(
                    Recovery {
                        shard,
                        epoch: snap.epoch(),
                    },
                    global_epoch,
                );
                g
            }
        }
    }

    /// The current composite snapshot, prebuilt at publish time. The
    /// publication lock is held only for one `Arc` clone; all queries
    /// on the returned snapshot run without any synchronization with
    /// the writer lanes.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        self.read_published().composite.clone()
    }

    /// The global epoch of the current published state.
    pub fn epoch(&self) -> Epoch {
        self.read_published().epoch
    }

    /// Applies one batch as a transaction: split it by shard, lock the
    /// touched lanes in canonical order, maintain each lane's view with
    /// its own sub-database, then publish all touched shard snapshots
    /// atomically (two-phase publish) and append to the log — for a
    /// durable service the WAL frame is written *before* the swap, and
    /// under group commit the swap itself waits for the flusher to
    /// make the frame durable. Batches on disjoint shards run
    /// concurrently; readers are never blocked.
    ///
    /// On error every touched lane's writer view is restored from its
    /// published shard snapshot and nothing is published or logged —
    /// the failed batch is simply rejected. A persistent storage
    /// failure additionally flips the service read-only: later writes
    /// fail fast with [`ServiceError::ReadOnly`] until the background
    /// probe restores storage (see [`ViewService::health`]).
    pub fn apply(&self, batch: UpdateBatch) -> Result<Applied, ServiceError> {
        let result = self.apply_inner(batch, None);
        if result.is_err() && self.obs.enabled {
            self.obs.batches_failed.inc();
        }
        result
    }

    fn apply_inner(
        &self,
        batch: UpdateBatch,
        replay: Option<ReplayCtx>,
    ) -> Result<Applied, ServiceError> {
        // Fail fast while read-only: the batch is rejected before any
        // lane is locked or ticket reserved, so degraded-mode writes
        // cost almost nothing and never contend with readers. (Replay
        // is exempt — it rebuilds recorded history, it doesn't write.)
        if replay.is_none() && self.health.current() == ServiceHealth::ReadOnly {
            return Err(ServiceError::ReadOnly);
        }
        // The per-batch stage stopwatch. Disabled (or during replay,
        // whose WAL stages never run), it is inert: no clock reads on
        // the uninstrumented path.
        let mut clock = StageClock::new(self.obs.enabled && replay.is_none());
        // Route the batch. The common case — every request in one
        // shard (always true single-lane) — borrows the batch as-is;
        // only genuinely cross-shard batches pay the split's per-atom
        // clones.
        let touched: BTreeSet<ShardId> = batch
            .deletes
            .iter()
            .chain(&batch.inserts)
            .map(|a| self.shards.shard_of(&a.pred))
            .collect();
        let whole_positions: Vec<usize> = (0..batch.inserts.len()).collect();
        let split_parts;
        // Per touched shard, ascending: its slice of the batch and the
        // original positions of its insertions (the ticket offsets).
        let parts: Vec<(ShardId, &UpdateBatch, &[usize])> = if touched.len() <= 1 {
            touched
                .iter()
                .map(|&s| (s, &batch, whole_positions.as_slice()))
                .collect()
        } else {
            split_parts = self.shards.split(&batch);
            split_parts
                .iter()
                .map(|p| (p.shard, &p.batch, p.insert_positions.as_slice()))
                .collect()
        };
        clock.lap(Stage::Split);
        // Reserve the batch's external-insertion tickets: one per
        // request, globally ordered, so shard-split insertion supports
        // match the single-lane (and log-replay) numbering. The RAII
        // reservation rolls the counter back if the batch errors or
        // panics before publication. Replay skips the counter and uses
        // the recorded base instead.
        let n_inserts = batch.inserts.len() as u64;
        let (ticket_base, mut reservation) = match &replay {
            Some(ctx) => (ctx.ticket_base, None),
            None => {
                let r = TicketReservation::reserve(&self.tickets, n_inserts);
                (r.base, Some(r))
            }
        };
        // Lock the touched lanes in ascending shard order (parts are
        // sorted) — the canonical order that makes deadlock impossible.
        // The waiters gauge brackets each acquisition so scrapers see
        // per-lane queueing while it happens.
        let mut guards: Vec<(ShardId, MutexGuard<'_, LaneState>)> = parts
            .iter()
            .map(|&(s, _, _)| {
                if self.obs.enabled {
                    self.obs.lane_waiters[s].inc();
                }
                let g = self.lock_lane(s);
                if self.obs.enabled {
                    self.obs.lane_waiters[s].dec();
                }
                (s, g)
            })
            .collect();
        clock.lap(Stage::LockWait);
        let befores: Vec<ShareStats> = guards.iter().map(|(_, g)| g.view.share_stats()).collect();

        // Obs-gated: `None` (no clock read) when observability is off,
        // so the reported batch latency is zero rather than measured.
        let start = clock.now();
        let mut stats = BatchStats::empty();
        for (&(shard, part_batch, positions), (_, guard)) in parts.iter().zip(guards.iter_mut()) {
            // Fault injection (tests): may panic, poisoning every lane
            // this call still holds — exactly a mid-batch writer panic.
            // The armed flag keeps the hot path off the shared hook
            // mutex when no hook is installed.
            // order: pairs with set_fault_hook's Release; the mutex orders the hook value
            if self.fault_armed.load(Ordering::Acquire) {
                if let Some(hook) = lock_clean(&self.fault).as_mut() {
                    hook(shard);
                }
            }
            let tickets: Vec<u64> = positions.iter().map(|&i| ticket_base + i as u64).collect();
            match apply_batch_ticketed(
                &self.lane_dbs[shard],
                &mut guard.view,
                part_batch,
                &tickets,
                self.resolver.as_ref(),
                self.op,
                &self.config,
            ) {
                Ok(s) => stats.absorb(&s),
                Err(e) => {
                    // Roll back every touched lane — the failing part
                    // may have half-applied, and earlier parts must not
                    // outlive a rejected transaction. Re-adopting the
                    // published handles is a few Arc bumps.
                    {
                        let p = self.read_published();
                        for (s, g) in guards.iter_mut() {
                            g.view = p.shards[*s].view().clone();
                        }
                    }
                    // A contained pool-worker panic arrives here as an
                    // ordinary batch error — the lane mutex was never
                    // poisoned — and the rollback above *is* the lane
                    // recovery. Journal it in the health audit trail.
                    if let Some(msg) = worker_panic(&e) {
                        self.health.lane_event(&format!(
                            "writer lane {shard} recovered after pool worker panic: {msg}"
                        ));
                    }
                    // `reservation` drops here, un-reserving the
                    // tickets (exact under sequential use).
                    return Err(ServiceError::Batch(e));
                }
            }
        }
        let latency = clock.since(start);
        clock.lap(Stage::Apply);
        let shards_touched = parts.len();
        drop(parts); // releases the borrow of `batch` for the log record

        // ---- Two-phase publish -----------------------------------------
        // Phase one: freeze each touched lane into its next shard
        // snapshot (Arc bumps under the shared store, O(touched)).
        let publish_start = clock.now();
        let mut publish = PublishStats::default();
        let mut frozen: Vec<(ShardId, Arc<ViewSnapshot>)> = Vec::with_capacity(guards.len());
        for ((shard, guard), before) in guards.iter_mut().zip(&befores) {
            guard.epoch += 1;
            let after = guard.view.share_stats();
            publish.entry_pages_copied += after.entry_pages_copied - before.entry_pages_copied;
            publish.entry_pages_total += after.entry_pages;
            publish.pred_indexes_copied += after.pred_indexes_copied - before.pred_indexes_copied;
            publish.pred_indexes_total += after.pred_indexes;
            let (by_const_copied, slot_copied) = after.key_copies_since(before);
            publish.by_const_keys_copied += by_const_copied;
            publish.by_const_keys_total += after.by_const_keys;
            publish.slot_keys_copied += slot_copied;
            frozen.push((
                *shard,
                Arc::new(ViewSnapshot::new(guard.epoch, guard.view.clone())),
            ));
        }
        // Phase two: append the log record (for a durable sink: write
        // the WAL frame — write-ahead, so a failed append rejects the
        // batch with nothing published), then swap all touched shards
        // and advance the global epoch inside one publication critical
        // section — readers see the whole batch or none of it, and WAL
        // frames append in epoch order (the epoch allocator is bumped
        // under the sink lock) even when disjoint batches publish
        // concurrently. Under an inline fsync policy the append itself
        // settles durability, so the swap happens right here; under
        // group commit it is *deferred* until the flusher reports the
        // frame durable, so no reader ever observes an epoch that an
        // fsync failure could still roll back. Lock order: sink before
        // publication, for every thread that holds both.
        let defer_publish = replay.is_none()
            && self
                .durable
                .as_ref()
                .is_some_and(|d| matches!(d.wal.policy(), FsyncPolicy::GroupCommit(_)));
        let mut frozen = Some(frozen);
        let mut checkpoint_snapshot: Option<Arc<ServiceSnapshot>> = None;
        let (epoch, wait_lsn) = {
            let mut sink = lock_clean(&self.log);
            let epoch = {
                let mut ne = lock_clean(&self.next_epoch);
                match &replay {
                    Some(ctx) => {
                        *ne = (*ne).max(ctx.epoch);
                        ctx.epoch
                    }
                    None => {
                        *ne += 1;
                        *ne
                    }
                }
            };
            // The view size after this publish: touched shards at
            // their frozen size, the rest as published. (Relative to
            // the *published* table — with other batches' publications
            // still deferred this is a statistic, not an invariant.)
            {
                let p = self.read_published();
                let frozen = frozen.as_ref().expect("not yet consumed");
                let mut total = 0usize;
                let mut fi = 0;
                for (s, snap) in p.shards.iter().enumerate() {
                    if fi < frozen.len() && frozen[fi].0 == s {
                        total += frozen[fi].1.len();
                        fi += 1;
                    } else {
                        total += snap.len();
                    }
                }
                stats.view_entries = total;
            }
            publish.publish_latency = clock.since(publish_start);
            let record = LogRecord {
                epoch,
                batch,
                stats,
                latency,
                publish,
                shards_touched,
            };
            // WAL render and append time themselves inside the traced
            // sink; the plain path skips even that bookkeeping.
            let appended = if clock.enabled() {
                sink.append_traced(record, ticket_base, &mut clock.trace)
            } else {
                sink.append(record, ticket_base)
            };
            let lsn = match appended {
                Ok(lsn) => lsn,
                Err(e) => {
                    // The WAL rejected the frame: the batch must not
                    // publish. Restore every touched lane (view *and*
                    // epoch — phase one already bumped it), hand the
                    // global epoch back, and — on a persistent fault
                    // (transients were already retried away below us)
                    // — flip the service read-only.
                    self.rollback_lanes(&mut guards);
                    self.rewind_epoch(epoch, replay.is_some());
                    if replay.is_none() && !e.is_transient() {
                        self.health.wal_failed(&format!("WAL append failed: {e}"));
                    }
                    return Err(ServiceError::Storage(e));
                }
            };
            if defer_publish && lsn.is_some() {
                self.write_published().deferred_inflight += 1;
                (epoch, lsn)
            } else {
                clock.mark();
                checkpoint_snapshot = self.publish_frozen(
                    epoch,
                    frozen.take().expect("not yet consumed"),
                    reservation.take(),
                    replay.is_none(),
                    false,
                );
                clock.lap(Stage::Publish);
                (epoch, None)
            }
        };
        // The durability wait (group commit only). The touched lanes
        // stay locked — their writer views hold unpublished state —
        // but the sink and publication locks are free, so disjoint
        // batches keep appending and coalesce into the same fsync.
        if let Some(lsn) = wait_lsn {
            let d = self
                .durable
                .as_ref()
                .expect("deferred publication implies a durable service");
            clock.mark();
            match d.wal.wait_durable(lsn) {
                Ok(()) => {
                    clock.lap(Stage::FsyncWait);
                    checkpoint_snapshot = self.publish_frozen(
                        epoch,
                        frozen.take().expect("not yet consumed"),
                        reservation.take(),
                        true,
                        true,
                    );
                    clock.lap(Stage::Publish);
                }
                Err(e) => {
                    // The flusher gave up on this frame: it never
                    // became durable and was truncated from (or queued
                    // for truncation in) its segment. Un-publish
                    // everything — lanes, log record, epoch — and go
                    // read-only; readers keep the last published
                    // composite untouched.
                    self.rollback_lanes(&mut guards);
                    lock_clean(&self.log).retract(epoch);
                    self.rewind_epoch(epoch, false);
                    self.write_published().deferred_inflight -= 1;
                    self.health.wal_failed(&format!("WAL flush failed: {e}"));
                    return Err(ServiceError::Storage(e));
                }
            }
        }
        drop(guards);
        if let Some(ctx) = &replay {
            // Replay restores the ticket counter's high-water mark.
            let mut t = lock_clean(&self.tickets);
            *t = (*t).max(ctx.ticket_base + n_inserts);
        }
        if let Some(snap) = checkpoint_snapshot {
            clock.mark();
            let tickets = *lock_clean(&self.tickets);
            if let Some(d) = &self.durable {
                d.checkpointer.request(snap, tickets);
            }
            clock.lap(Stage::Checkpoint);
        }
        if let Some(mut trace) = clock.finish() {
            trace.epoch = epoch;
            trace.shards_touched = shards_touched as u32;
            self.obs.record_applied(
                trace,
                touched.iter().copied(),
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
            shards_touched,
        })
    }

    /// Swaps a batch's frozen shard snapshots into the published table
    /// and advances the global epoch (monotonically — a deferred
    /// publication can complete after a higher-epoch batch on disjoint
    /// shards). Commits the ticket reservation at the swap, the point
    /// of no return. Returns the composite to hand to the checkpointer
    /// when the batch lands on the checkpoint cadence — only while no
    /// other deferred publication is in flight, so a checkpoint never
    /// claims WAL coverage its snapshot does not contain.
    fn publish_frozen(
        &self,
        epoch: Epoch,
        frozen: Vec<(ShardId, Arc<ViewSnapshot>)>,
        reservation: Option<TicketReservation<'_>>,
        stage_checkpoint: bool,
        was_deferred: bool,
    ) -> Option<Arc<ServiceSnapshot>> {
        let mut p = self.write_published();
        for (shard, snapshot) in frozen {
            p.shards[shard] = snapshot;
        }
        p.epoch = p.epoch.max(epoch);
        if let Some(r) = reservation {
            r.commit();
        }
        p.composite = Arc::new(ServiceSnapshot::new(
            p.epoch,
            p.shards.clone(),
            self.shards.clone(),
        ));
        self.health.note_epoch(p.epoch);
        if was_deferred {
            p.deferred_inflight -= 1;
        }
        if stage_checkpoint && p.deferred_inflight == 0 {
            if let Some(d) = &self.durable {
                if d.checkpoint_every > 0 && epoch % d.checkpoint_every == 0 {
                    return Some(p.composite.clone());
                }
            }
        }
        None
    }

    /// Restores every locked lane to its last published shard snapshot
    /// (view *and* epoch — phase one may already have bumped it): the
    /// rejected batch leaves no trace in any writer lane.
    fn rollback_lanes(&self, guards: &mut [(ShardId, MutexGuard<'_, LaneState>)]) {
        let p = self.read_published();
        for (s, g) in guards.iter_mut() {
            g.view = p.shards[*s].view().clone();
            g.epoch = p.shards[*s].epoch();
        }
    }

    /// Hands a rejected batch's global epoch back to the allocator —
    /// conditional on nothing having interleaved, like the ticket
    /// rollback, so epoch numbering stays gapless under sequential
    /// use. (Replay never allocates, so it never rewinds.)
    fn rewind_epoch(&self, epoch: Epoch, replay: bool) {
        if replay {
            return;
        }
        let mut ne = lock_clean(&self.next_epoch);
        if *ne == epoch {
            *ne = epoch - 1;
        }
    }

    /// Borrows the update log (epoch-ordered records of every applied
    /// batch, plus lane recoveries) for replay or inspection. The
    /// guard holds the log lock — see [`LogRead`].
    pub fn log(&self) -> LogRead<'_> {
        LogRead(lock_clean(&self.log))
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

/// Prepared lanes for [`ViewService::assemble`], shared by fresh
/// construction and recovery.
struct AssembleParts {
    db: ConstrainedDatabase,
    resolver: SharedResolver,
    op: Operator,
    config: FixpointConfig,
    shards: Arc<ShardMap>,
    lane_views: Vec<MaterializedView>,
    lane_epochs: Vec<Epoch>,
    epoch: Epoch,
    tickets: u64,
    obs: ObsOptions,
    pool_threads: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmv_constraints::{CmpOp, Constraint, NoDomains, Term, Var};
    use mmv_core::{BodyAtom, Clause, ConstrainedAtom};

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
        assert_eq!(before.shard_count(), 1, "b and a share a component");
        let cfg = SolverConfig::default();
        assert!(before.ask("a", &[Value::int(3)], &NoDomains, &cfg).unwrap());

        let applied = svc
            .apply(UpdateBatch::deleting(vec![point(3)]))
            .expect("batch applies");
        assert_eq!(applied.epoch, 1);
        assert_eq!(applied.shards_touched, 1);
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
    fn failed_batches_publish_nothing() {
        // max_entries = 3 admits the 2-entry base view; the two-insert
        // batch (2 adds + a propagated `a` entry) overflows it.
        let svc = ViewService::builder()
            .fixpoint(FixpointConfig {
                max_entries: 3,
                ..FixpointConfig::default()
            })
            .build(db())
            .expect("base view fits the budget");
        let err = svc
            .apply(UpdateBatch::inserting(vec![point(30), point(40)]))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Batch(_)));
        assert_eq!(svc.epoch(), 0, "failed batch must not publish");
        assert!(svc.log().is_empty());
        // The writer view was rolled back to the published state: a
        // subsequent in-budget batch applies cleanly.
        let ok = svc.apply(UpdateBatch::deleting(vec![point(5)])).unwrap();
        assert_eq!(ok.epoch, 1);
    }

    #[test]
    fn publication_counts_copied_vs_shared_pages() {
        // Three predicates; b/a form one dependency component and c its
        // own, so the batch below (insert into b, propagate to a) locks
        // only the b/a lane — c's shard is not even touched, let alone
        // copied, and the publish accounting covers the touched lane.
        let db = ConstrainedDatabase::from_clauses(vec![
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
        ]);
        let svc = ViewService::builder().build(db).unwrap();
        assert_eq!(svc.shard_map().num_shards(), 2);
        let c_shard = svc.shard_map().shard_of("c");
        let applied = svc
            .apply(UpdateBatch::inserting(vec![point(30)]))
            .expect("batch applies");
        assert_eq!(applied.shards_touched, 1);
        let p = applied.publish;
        assert_eq!(p.pred_indexes_total, 2, "the touched lane hosts b and a");
        assert_eq!(
            p.pred_indexes_copied, 2,
            "b (insert) and a (propagation) copied: {p:?}"
        );
        assert!(p.entry_pages_copied >= 1, "the batch touched the slab");
        assert!(p.entry_pages_copied <= p.entry_pages_total as u64);
        // c's shard stayed at epoch 0 while the global epoch moved.
        let snap = svc.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.shard_epoch(c_shard), 0);
        assert_eq!(snap.shard_epoch(1 - c_shard), 1);
        // The log carries the same per-epoch accounting.
        assert_eq!(svc.log().records()[0].publish, p);
    }

    #[test]
    fn cross_shard_batches_publish_atomically() {
        // b/a and c are independent; one batch touching both publishes
        // one global epoch with both shard epochs advanced.
        let db = ConstrainedDatabase::from_clauses(vec![
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
        ]);
        let svc = ViewService::builder().build(db).unwrap();
        let del_c = ConstrainedAtom::new("c", vec![x()], Constraint::eq(x(), Term::int(105)));
        let applied = svc
            .apply(UpdateBatch::deleting(vec![point(3), del_c]))
            .expect("cross-shard batch applies");
        assert_eq!(applied.shards_touched, 2);
        assert_eq!(applied.epoch, 1);
        let snap = svc.snapshot();
        assert_eq!(snap.shard_epoch(0), 1);
        assert_eq!(snap.shard_epoch(1), 1);
        let cfg = SolverConfig::default();
        assert!(!snap.ask("b", &[Value::int(3)], &NoDomains, &cfg).unwrap());
        assert!(!snap.ask("c", &[Value::int(105)], &NoDomains, &cfg).unwrap());
        assert!(snap.ask("c", &[Value::int(104)], &NoDomains, &cfg).unwrap());
        assert_eq!(svc.log().records()[0].shards_touched, 2);
    }

    #[test]
    fn empty_batches_publish_an_epoch_touching_no_lane() {
        let svc = service(SupportMode::WithSupports);
        let applied = svc.apply(UpdateBatch::new()).expect("empty batch applies");
        assert_eq!(applied.epoch, 1);
        assert_eq!(applied.shards_touched, 0);
        let snap = svc.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.shard_epoch(0), 0, "no lane was touched");
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
