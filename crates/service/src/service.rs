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
//! # The commit path
//!
//! Every batch runs one pipeline, one function per stage: route it to
//! its lanes, lock them, maintain each lane's view, **commit**, then
//! hand a due checkpoint to the background thread and record
//! telemetry. Commit is the only way a batch becomes visible, and it
//! publishes in **two phases**: after maintenance, each touched lane's
//! view is frozen into a per-shard [`ViewSnapshot`] (phase one, an
//! `Arc`-bump clone under the CoW store); then, under the log lock, the
//! batch is given its global epoch and its [`LogRecord`] is appended,
//! and all frozen snapshots are swapped into the published table
//! inside one critical section of a small publication lock, which also
//! advances the global epoch (phase two). Readers call
//! [`ViewService::snapshot`], which clones the prebuilt composite
//! [`ServiceSnapshot`] under the same lock — so a reader observes
//! either none or all of a cross-shard batch's shard snapshots, never
//! a torn multi-shard epoch. Queries then run entirely on the caller's
//! own handles, unsynchronized: readers are never blocked by
//! maintenance and never observe a half-applied batch. The global
//! epoch (one tick per batch) and every shard epoch (one tick per
//! batch touching the shard) increase monotonically.
//!
//! # Durability
//!
//! With [`Durability::durable`] commit first writes the record as a
//! write-ahead-log frame, under the same hold of the log lock and
//! *before* the record is mirrored or anything is swapped — a frame
//! that fails to reach the OS rejects the batch like any other error.
//! Where the append itself settles durability ([`FsyncPolicy::Always`],
//! [`FsyncPolicy::Never`]) the swap follows at once; under
//! [`FsyncPolicy::GroupCommit`] the writer releases the log lock and
//! waits — its lanes still locked — for the flusher to make the frame
//! durable ([`crate::wal`]), and only then swaps. A background thread
//! periodically checkpoints the whole served view
//! ([`crate::checkpoint`]); [`ViewService::recover`] rebuilds the
//! service from the newest valid checkpoint plus the WAL tail.
//!
//! # Failure semantics
//!
//! A batch can fail at three points — maintenance, the WAL append, the
//! durability wait — and all three undo it through the same abort:
//! every locked lane's writer view and shard epoch are restored from
//! its last published shard snapshot (an `Arc` re-adoption, not a
//! rebuild), its tickets and epoch are handed back, and a record
//! already mirrored is retracted. Nothing was swapped before any of
//! them, so no reader could observe the batch; it is rejected with
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
//! lane.

use crate::checkpoint::{self, CheckpointStats, Checkpointer};
use crate::config::{not_durable, Durability, RecoveryReport, ServiceConfig, ViewServiceBuilder};
use crate::health::{Health, HealthProbe, HealthTransition, ServiceHealth};
use crate::lanes::{Frozen, LaneGuard, Lanes, Publication, Retired};
use crate::log::{LogRecord, Recovery, ReplayError, UpdateLog};
use crate::obs::{ServiceObs, StageClock};
use crate::snapshot::{Epoch, PublishStats, ServiceSnapshot, ViewSnapshot};
use crate::vfs::StorageOp;
use crate::wal::{self, FsyncPolicy, StorageError, Wal, WalStats};
use mmv_constraints::solver::SolverConfig;
use mmv_constraints::{DomainResolver, Value};
use mmv_core::batch::{apply_batch_ticketed, BatchError, BatchStats, UpdateBatch};
use mmv_core::delete_dred::DredError;
use mmv_core::parser::{render_wal_batch, render_wal_payload, WalPayload};
use mmv_core::pool::WorkerPool;
use mmv_core::shard::{ShardId, ShardMap};
use mmv_core::tp::{fixpoint, FixpointConfig, FixpointError, Operator, ParallelFixpoint};
use mmv_core::view::ShareStats;
use mmv_core::{ConstrainedDatabase, InstanceError, MaterializedView};
use mmv_obs::sync::lock_clean;
use mmv_obs::{BatchTrace, HistogramSnapshot, MetricsRegistry, Stage};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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
/// `apply`* (a panicked batch must not burn tickets: its lanes recover
/// to the pre-batch published state). It is conditional on nothing
/// having interleaved, so numbering stays gapless under sequential
/// use; a concurrently rolled-back batch may leave a gap, which
/// neither replay nor recovery depends on — both reissue each batch's
/// recorded tickets (see `crate::log`).
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

    /// Marks the tickets as consumed — called at the swap that
    /// publishes the batch (the point of no return).
    fn commit(&mut self) {
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
/// epoch with the *recorded* ticket base. (Recovery replays before the
/// durable stack is opened, so the record being replayed — already on
/// disk — is not written again.)
struct ReplayCtx {
    epoch: Epoch,
    ticket_base: u64,
}

/// One lane's share of a routed batch: its requests, and the positions
/// its insertions held in the whole batch (the ticket offsets).
struct LanePart<'b> {
    shard: ShardId,
    batch: Cow<'b, UpdateBatch>,
    insert_positions: Vec<usize>,
}

/// A batch in flight between lane acquisition and publication: the
/// locked lanes (ascending shard order) and the ticket range — the
/// state [`ViewService::abort`] restores.
struct Txn<'a> {
    lanes: Vec<(ShardId, LaneGuard<'a>)>,
    ticket_base: u64,
    /// `None` during replay, which reuses the recorded tickets.
    reservation: Option<TicketReservation<'a>>,
}

/// What [`ViewService::commit`] published.
struct Committed {
    epoch: Epoch,
    /// Entries in the published composite right after the swap.
    view_entries: usize,
    /// The composite to hand to the checkpointer, when the batch
    /// landed on the checkpoint cadence.
    checkpoint: Option<Arc<ServiceSnapshot>>,
    /// What the swap took out of the published table, for the writer
    /// to reclaim once the log lock is released.
    retired: Vec<Retired>,
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
    lanes: Lanes,
    published: Publication,
    /// The update log; a durable service writes each record's WAL
    /// frame under the same lock, first. Lock order: the log lock is
    /// always taken *before* the publication lock by any thread that
    /// holds both.
    log: Mutex<UpdateLog>,
    /// Global external-insertion ticket counter: each batch reserves
    /// one ticket per insertion request, so a split batch issues the
    /// same tickets the unsplit batch would.
    tickets: Mutex<u64>,
    /// The next-global-epoch allocator (the last allocated epoch).
    /// Under deferred publication the *published* epoch lags frames
    /// already in the WAL, so allocation cannot read it; this counter
    /// is the source of truth, advanced under the log lock so WAL
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

    /// Splits `db` into writer lanes, builds each lane's view
    /// (`op ↑ ω (∅)` of the lane's sub-database), and publishes the
    /// composite as global epoch 0. With [`Durability::durable`] the
    /// WAL is opened too — the directory must hold no earlier
    /// WAL/checkpoint state (that is what [`ViewService::recover`] is
    /// for).
    pub fn with_config(
        db: ConstrainedDatabase,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let shards = Arc::new(ShardMap::from_db(&db, &config.shards));
        let lane_dbs = Self::lane_dbs(&db, &shards);
        let lanes = Self::base_lanes(&lane_dbs, &config)?;
        let mut svc = Self::assemble(db, &config, shards, lane_dbs, lanes, 0, 0);
        if let Some(dir) = config.durability.dir() {
            Self::require_fresh_dir(dir)?;
            svc.open_durable(dir, &config, 1)?;
        }
        Ok(svc)
    }

    /// Recovers a durable service from `dir`: loads the newest valid
    /// checkpoint (if any — otherwise each lane is built from its
    /// sub-database, as [`ViewService::with_config`] builds it),
    /// replays every WAL record past it through the normal ticketed
    /// batch path, truncates a torn final frame per the torn-tail
    /// contract, and reopens the WAL for appending. Replay reissues
    /// each batch's recorded tickets and epoch, so the recovered view
    /// is syntactically identical to the pre-crash served view under
    /// any interleaving of the original writers.
    ///
    /// `config` must match the database the WAL was written against
    /// (same operator, support mode, and shard layout) and be durable
    /// (anything else is a [`ServiceError::Storage`]); its fsync and
    /// checkpoint knobs apply, its directory is ignored in favor of
    /// `dir`.
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
        let shards = Arc::new(ShardMap::from_db(&db, &config.shards));
        let lane_dbs = Self::lane_dbs(&db, &shards);
        let mismatch = |detail: String| {
            ServiceError::Storage(StorageError::Corrupt {
                file: dir.to_path_buf(),
                offset: 0,
                detail,
            })
        };
        let (lanes, base_epoch, tickets) = match &chk {
            Some(c) => {
                let found = (c.mode, c.op, c.shards.len());
                let configured = (mode, op, shards.num_shards());
                if found != configured {
                    return Err(mismatch(format!(
                        "checkpoint (mode, op, shards) {found:?} != configured {configured:?}"
                    )));
                }
                // The lanes' variable generator must clear both the
                // database's own variables and every variable a
                // checkpointed entry uses (entries are stored with
                // exact variable identity).
                let mut gen = db.fresh_gen();
                let entries = || c.shards.iter().flat_map(|(_, entries)| entries);
                for e in entries() {
                    let mut vs = e.atom.free_vars();
                    for t in e.children_args.iter().flatten() {
                        t.collect_vars(&mut vs);
                    }
                    vs.iter().for_each(|v| gen.reserve_below(v.0 + 1));
                }
                let mut views: Vec<MaterializedView> = (0..shards.num_shards())
                    .map(|_| MaterializedView::new(mode, gen.clone()))
                    .collect();
                for e in entries() {
                    let (atom, support) = (e.atom.clone(), e.support.clone());
                    let s = shards.shard_of(&atom.pred);
                    views[s].insert(atom, support, e.children_args.clone());
                }
                let lane_epochs = c.shards.iter().map(|(e, _)| *e);
                let lanes = views.into_iter().zip(lane_epochs).collect();
                (lanes, c.epoch, c.tickets)
            }
            None => (Self::base_lanes(&lane_dbs, &config)?, 0, 0),
        };
        let mut svc = Self::assemble(db, &config, shards, lane_dbs, lanes, base_epoch, tickets);
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
                WalPayload::Recovery { shard, epoch } => {
                    lock_clean(&svc.log).record_recovery(Recovery {
                        shard: *shard,
                        epoch: *epoch,
                    })
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

    /// Each lane's sub-database: `db` restricted to the shard's clauses.
    fn lane_dbs(db: &ConstrainedDatabase, shards: &ShardMap) -> Vec<ConstrainedDatabase> {
        (0..shards.num_shards())
            .map(|s| shards.restrict_db(db, s))
            .collect()
    }

    /// The lanes of a service starting from scratch, every shard at
    /// epoch 0: each lane's view is `op ↑ ω (∅)` of its own
    /// sub-database, and the built view is the lane's view as-is.
    /// Shards are closed under clause dependencies, so that fixpoint is
    /// exactly the lane's part of the whole database's view, and
    /// `max_entries` bounds each lane, as it does in every batch. A
    /// single-lane service builds its one lane the same way.
    fn base_lanes(
        lane_dbs: &[ConstrainedDatabase],
        config: &ServiceConfig,
    ) -> Result<Vec<(MaterializedView, Epoch)>, ServiceError> {
        let (resolver, op, mode) = (config.resolver.as_ref(), config.op, config.mode);
        // The lanes build on the caller thread, one after another, off
        // the worker pool. One pool task per lane built faster but
        // raised peak RSS by 7–13 % on the layered and durable
        // benchmark workloads: glibc gives each worker thread that
        // allocates a view its own malloc arena. Pooled rounds inside
        // each lane's build saved no time over inline rounds and still
        // raised peak RSS by ~4 %.
        lane_dbs
            .iter()
            .map(|lane_db| {
                let (view, _) = fixpoint(lane_db, resolver, op, mode, &config.fixpoint)
                    .map_err(ServiceError::Build)?;
                Ok((view, 0))
            })
            .collect()
    }

    /// Assembles the in-memory service from prepared lanes — each a
    /// shard view and its shard epoch, beside the shard's sub-database
    /// — at global `epoch` (shared by fresh construction and recovery).
    fn assemble(
        db: ConstrainedDatabase,
        config: &ServiceConfig,
        shards: Arc<ShardMap>,
        lane_dbs: Vec<ConstrainedDatabase>,
        lane_views: Vec<(MaterializedView, Epoch)>,
        epoch: Epoch,
        tickets: u64,
    ) -> ViewService {
        let resolver = config.resolver.clone();
        let mut fx = config.fixpoint.clone();
        let (lanes, published) = Lanes::new(lane_views, epoch, shards.clone());
        let health = Arc::new(Health::default());
        health.note_epoch(epoch);
        let obs = ServiceObs::new(&config.observability, shards.num_shards());
        health.register_into(&obs.registry);
        obs.publish_epoch_hint(epoch);
        // The shared work-stealing pool: builder override, then the
        // MMV_POOL_THREADS environment variable, then the host's
        // available parallelism. Width 1 means no pool at all — every
        // lane runs its rounds on its own thread. An explicitly
        // pre-wired `config.parallel` (a caller-owned pool) is
        // respected as-is. The pool serves batches only, and lane
        // builds stay off it: one pool task per lane raised peak RSS by
        // 7–13 %, and pooled rounds inside a lane's build saved no time
        // (see `base_lanes`).
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
            shards,
            lane_dbs,
            lanes,
            published,
            log: Mutex::new(UpdateLog::new()),
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

    /// Journals a poisoned lane's recovery (see [`Lanes::lock`]) in
    /// the log and, best-effort, the WAL — with the global epoch as the
    /// frame's epoch lower bound: a WAL append failure only costs the
    /// audit trail, never the lane recovery itself.
    fn journal_recovery(&self, recovery: Recovery) {
        let mut log = lock_clean(&self.log);
        if let Some(d) = &self.durable {
            let frame = render_wal_payload(&WalPayload::Recovery {
                shard: recovery.shard,
                epoch: recovery.epoch,
            });
            let _ = d.wal.append(self.published.epoch(), &frame);
        }
        log.record_recovery(recovery);
    }

    /// The current composite snapshot, prebuilt at publish time. The
    /// publication lock is held only for one `Arc` clone; all queries
    /// on the returned snapshot run without any synchronization with
    /// the writer lanes.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        self.published.snapshot()
    }

    /// The global epoch of the current published state.
    pub fn epoch(&self) -> Epoch {
        self.published.epoch()
    }

    /// Applies one batch as a transaction: split it by shard, lock the
    /// touched lanes in canonical order, maintain each lane's view with
    /// its own sub-database, then commit — append the log record (for
    /// a durable service the WAL frame first, write-ahead; under group
    /// commit the writer then waits for the flusher to make the frame
    /// durable) and publish all touched shard snapshots atomically
    /// (two-phase publish). Batches on disjoint shards run
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

    /// The writer pipeline, one call per [`Stage`] seam: route → lock
    /// lanes → maintain → commit → checkpoint hand-off and telemetry.
    fn apply_inner(
        &self,
        batch: UpdateBatch,
        replay: Option<ReplayCtx>,
    ) -> Result<Applied, ServiceError> {
        // Fail fast while read-only: the batch is rejected before any
        // lane is locked or ticket reserved, so degraded-mode writes
        // cost almost nothing and never contend with readers. (Replay
        // runs before the durable stack that flips health exists.)
        if self.health.current() == ServiceHealth::ReadOnly {
            return Err(ServiceError::ReadOnly);
        }
        // The per-batch stage stopwatch. Disabled (or during replay,
        // which rebuilds history rather than serving it), it is inert:
        // no clock reads on the uninstrumented path.
        let mut clock = StageClock::new(self.obs.enabled && replay.is_none());
        let parts = self.route(&batch);
        clock.lap(Stage::Split);
        let (ticket_base, reservation) =
            self.tickets_for(batch.inserts.len() as u64, replay.as_ref());
        let mut txn = Txn {
            lanes: self.lock_lanes(&parts),
            ticket_base,
            reservation,
        };
        clock.lap(Stage::LockWait);
        let befores: Vec<ShareStats> = txn
            .lanes
            .iter()
            .map(|(_, g)| g.view.share_stats())
            .collect();

        // Obs-gated: `None` (no clock read) when observability is off,
        // so the reported batch latency is zero rather than measured.
        let start = clock.now();
        // `parts` moves in: its borrow of `batch` ends with the stage,
        // freeing the batch for the log record.
        let mut stats = match self.maintain(parts, &mut txn) {
            Ok(stats) => stats,
            Err(e) => {
                self.abort(&mut txn, None);
                return Err(ServiceError::Batch(e));
            }
        };
        let latency = clock.since(start);
        clock.lap(Stage::Apply);

        let (frozen, mut publish) = Self::freeze(&mut txn, &befores, &clock);
        let replay_epoch = replay.map(|ctx| ctx.epoch);
        let committed = self.commit(&mut txn, batch, frozen, replay_epoch, &mut clock)?;
        // The writer, not a reader, frees the epochs this swap retired.
        clock.mark();
        self.published.reclaim(committed.retired);
        clock.lap(Stage::Publish);
        publish.publish_latency += clock.trace.stage(Stage::Publish);
        stats.view_entries = committed.view_entries;
        // Release the lanes, keeping their ids for the lane counters.
        let touched: Vec<ShardId> = txn.lanes.into_iter().map(|(s, _)| s).collect();

        if let (Some(snap), Some(d)) = (committed.checkpoint, &self.durable) {
            clock.mark();
            let tickets = *lock_clean(&self.tickets);
            d.checkpointer.request(snap, tickets);
            clock.lap(Stage::Checkpoint);
        }
        if let Some(mut trace) = clock.finish() {
            trace.epoch = committed.epoch;
            trace.shards_touched = touched.len() as u32;
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
            epoch: committed.epoch,
            stats,
            latency,
            publish,
            shards_touched: touched.len(),
        })
    }

    /// Stage 1 — route: each request goes to the lane of its
    /// predicate; parts come back in ascending shard order. The common
    /// case — every request in one shard (always true single-lane) —
    /// borrows the batch as-is; only genuinely cross-shard batches pay
    /// the split's per-atom clones.
    fn route<'b>(&self, batch: &'b UpdateBatch) -> Vec<LanePart<'b>> {
        let mut lanes = batch
            .deletes
            .iter()
            .chain(&batch.inserts)
            .map(|a| self.shards.shard_of(&a.pred));
        let Some(first) = lanes.next() else {
            return Vec::new();
        };
        if lanes.all(|s| s == first) {
            return vec![LanePart {
                shard: first,
                batch: Cow::Borrowed(batch),
                insert_positions: (0..batch.inserts.len()).collect(),
            }];
        }
        self.shards
            .split(batch)
            .into_iter()
            .map(|p| LanePart {
                shard: p.shard,
                batch: Cow::Owned(p.batch),
                insert_positions: p.insert_positions,
            })
            .collect()
    }

    /// The batch's external-insertion tickets: one per request,
    /// globally ordered, so shard-split insertion supports match the
    /// single-lane (and log-replay) numbering. A live batch reserves
    /// its range — the RAII reservation hands it back if the batch
    /// errors or panics before publication. Replay reuses the recorded
    /// base and only keeps the counter's high-water mark past it.
    fn tickets_for(
        &self,
        n: u64,
        replay: Option<&ReplayCtx>,
    ) -> (u64, Option<TicketReservation<'_>>) {
        match replay {
            Some(ctx) => {
                let mut t = lock_clean(&self.tickets);
                *t = (*t).max(ctx.ticket_base + n);
                (ctx.ticket_base, None)
            }
            None => {
                let r = TicketReservation::reserve(&self.tickets, n);
                (r.base, Some(r))
            }
        }
    }

    /// Stage 2 — lock the touched lanes in ascending shard order
    /// (`parts` is sorted), recovering and journaling any lane a
    /// panicked batch poisoned.
    fn lock_lanes(&self, parts: &[LanePart<'_>]) -> Vec<(ShardId, LaneGuard<'_>)> {
        let shards = parts.iter().map(|p| p.shard);
        self.lanes.lock(shards, &self.published, &self.obs, |r| {
            self.journal_recovery(r)
        })
    }

    /// Stage 3 — maintain: each locked lane applies its part with the
    /// lane's own sub-database and the tickets of its insertions. The
    /// first error stops the batch; the caller aborts it.
    fn maintain(
        &self,
        parts: Vec<LanePart<'_>>,
        txn: &mut Txn<'_>,
    ) -> Result<BatchStats, BatchError> {
        let mut stats = BatchStats::empty();
        for (part, (_, lane)) in parts.iter().zip(txn.lanes.iter_mut()) {
            // Fault injection (tests): may panic, poisoning every lane
            // this call still holds — exactly a mid-batch writer panic.
            // The armed flag keeps the hot path off the shared hook
            // mutex when no hook is installed.
            // order: pairs with set_fault_hook's Release; the mutex orders the hook value
            if self.fault_armed.load(Ordering::Acquire) {
                if let Some(hook) = lock_clean(&self.fault).as_mut() {
                    hook(part.shard);
                }
            }
            let tickets: Vec<u64> = part
                .insert_positions
                .iter()
                .map(|&i| txn.ticket_base + i as u64)
                .collect();
            let applied = apply_batch_ticketed(
                &self.lane_dbs[part.shard],
                &mut lane.view,
                &part.batch,
                &tickets,
                self.resolver.as_ref(),
                self.op,
                &self.config,
            );
            match applied {
                Ok(s) => stats.absorb(&s),
                Err(e) => {
                    // A contained pool-worker panic arrives here as an
                    // ordinary batch error — the lane mutex was never
                    // poisoned — and the caller's abort *is* the lane
                    // recovery. Journal it in the health audit trail.
                    if let Some(msg) = worker_panic(&e) {
                        self.health.lane_event(&format!(
                            "writer lane {} recovered after pool worker panic: {msg}",
                            part.shard
                        ));
                    }
                    return Err(e);
                }
            }
        }
        Ok(stats)
    }

    /// Publication phase one: freeze each touched lane into its next
    /// shard snapshot (Arc bumps under the shared store, O(touched))
    /// and account what the batch copied versus left shared.
    fn freeze(
        txn: &mut Txn<'_>,
        befores: &[ShareStats],
        clock: &StageClock,
    ) -> (Frozen, PublishStats) {
        let start = clock.now();
        let mut publish = PublishStats::default();
        let mut frozen: Frozen = Vec::with_capacity(txn.lanes.len());
        for ((shard, lane), before) in txn.lanes.iter_mut().zip(befores) {
            lane.epoch += 1;
            let after = lane.view.share_stats();
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
                Arc::new(ViewSnapshot::new(lane.epoch, lane.view.clone())),
            ));
        }
        publish.publish_latency = clock.since(start);
        (frozen, publish)
    }

    /// Stage 4 — commit, the one path every batch publishes through:
    /// append the record, wait for durability where the append did not
    /// already settle it, swap (phase two). Readers see the whole
    /// batch or none of it.
    ///
    /// The epoch allocator is bumped under the log lock, so WAL frames
    /// and log records append in epoch order even when disjoint
    /// batches commit concurrently. The frame is written *before* the
    /// record is mirrored or anything is swapped (write-ahead): a
    /// failed append rejects the batch with nothing published or
    /// logged. Under an inline fsync policy (and in memory) the append
    /// settles durability, so the swap follows right away, still under
    /// the log lock. Under group commit the frame is not yet durable:
    /// the log lock is released — disjoint batches keep appending and
    /// coalesce into the same fsync — and the swap waits, with the
    /// touched lanes still locked over their unpublished writer views,
    /// until the flusher reports the frame durable, so no reader ever
    /// observes an epoch that an fsync failure could still roll back.
    /// Lock order: log before publication, for every thread that
    /// holds both.
    fn commit(
        &self,
        txn: &mut Txn<'_>,
        batch: UpdateBatch,
        frozen: Frozen,
        replay_epoch: Option<Epoch>,
        clock: &mut StageClock,
    ) -> Result<Committed, ServiceError> {
        let mut log = lock_clean(&self.log);
        let epoch = {
            // Replay reissues the recorded epoch and keeps the
            // allocator's high-water mark at or past it.
            let mut ne = lock_clean(&self.next_epoch);
            let epoch = replay_epoch.unwrap_or(*ne + 1);
            *ne = (*ne).max(epoch);
            epoch
        };
        self.published.begin();
        let mut undurable = None;
        if let Some(d) = &self.durable {
            clock.mark();
            let frame = render_wal_batch(epoch, txn.ticket_base, &batch);
            clock.lap(Stage::WalRender);
            let appended = d.wal.append(epoch, &frame);
            clock.lap(Stage::WalAppend);
            match appended {
                Ok(lsn) => {
                    let deferred = matches!(d.wal.policy(), FsyncPolicy::GroupCommit(_));
                    undurable = deferred.then_some((&d.wal, lsn));
                }
                Err(e) => {
                    // A persistent fault (transients were already
                    // retried away below us) flips the service
                    // read-only.
                    self.abort(txn, Some((epoch, &mut *log)));
                    if !e.is_transient() {
                        self.health.wal_failed(&format!("WAL append failed: {e}"));
                    }
                    return Err(ServiceError::Storage(e));
                }
            }
        }
        log.append(LogRecord {
            epoch,
            ticket_base: txn.ticket_base,
            batch,
        });
        if let Some((wal, lsn)) = undurable {
            drop(log);
            clock.mark();
            if let Err(e) = wal.wait_durable(lsn) {
                // The flusher gave up on this frame: it never became
                // durable and was truncated from (or queued for
                // truncation in) its segment. Un-publish everything
                // and go read-only.
                self.abort(txn, Some((epoch, &mut *lock_clean(&self.log))));
                self.health.wal_failed(&format!("WAL flush failed: {e}"));
                return Err(ServiceError::Storage(e));
            }
            clock.lap(Stage::FsyncWait);
        }
        clock.mark();
        let committed = self.publish(epoch, frozen, txn);
        clock.lap(Stage::Publish);
        Ok(committed)
    }

    /// Publication phase two, the only swap into the published table:
    /// all of the batch's frozen shard snapshots land, and the global
    /// epoch advances, inside one publication critical section. The
    /// epoch moves monotonically — a publication that waited on the
    /// flusher can complete after a higher-epoch batch on disjoint
    /// shards. The swap is the point of no return, so the ticket
    /// reservation commits here. The composite is handed back for the
    /// checkpointer when the batch lands on the checkpoint cadence —
    /// only while no other logged batch is still unpublished, so a
    /// checkpoint never claims WAL coverage its snapshot does not
    /// contain.
    fn publish(&self, epoch: Epoch, frozen: Frozen, txn: &mut Txn<'_>) -> Committed {
        if let Some(r) = &mut txn.reservation {
            r.commit();
        }
        let swapped = self.published.swap(frozen, epoch);
        self.health.note_epoch(swapped.epoch);
        let on_cadence = self
            .durable
            .as_ref()
            .is_some_and(|d| d.checkpoint_every > 0 && epoch % d.checkpoint_every == 0);
        Committed {
            epoch,
            view_entries: swapped.composite.len(),
            checkpoint: (on_cadence && swapped.quiescent).then_some(swapped.composite),
            retired: swapped.retired,
        }
    }

    /// Undoes an unpublished batch — the one rollback, called from
    /// every failure point (maintenance error, WAL append failure,
    /// failed durability wait). Every locked lane re-adopts its last
    /// published shard snapshot, view *and* epoch: the failing part may
    /// have half-applied, earlier parts must not outlive a rejected
    /// transaction, and the freeze already bumped the lane epochs. The
    /// ticket range is un-reserved. A batch that had allocated `epoch`
    /// (the caller passes the log it holds, or re-locks it) also has
    /// its record retracted if it was already mirrored, gives up the
    /// unpublished count it held, and hands the epoch back to the
    /// allocator — conditional on nothing having interleaved, like the
    /// ticket rollback, so numbering stays gapless under sequential
    /// use. Readers keep the last published composite untouched
    /// throughout.
    fn abort(&self, txn: &mut Txn<'_>, allocated: Option<(Epoch, &mut UpdateLog)>) {
        for (s, lane) in txn.lanes.iter_mut() {
            lane.readopt(&self.published.shard(*s));
        }
        txn.reservation = None;
        if let Some((epoch, log)) = allocated {
            log.retract(epoch);
            self.published.cancel();
            let mut ne = lock_clean(&self.next_epoch);
            if *ne == epoch {
                *ne = epoch - 1;
            }
        }
    }

    /// Locks the update log (epoch-ordered records of every applied
    /// batch, plus lane recoveries) for replay or inspection. Writers
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

    /// `db()` plus an independent fact predicate `c` over `[100, 109]`:
    /// two writer lanes, {b, a} and {c}.
    fn two_lane_db() -> ConstrainedDatabase {
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
    fn max_entries_bounds_each_lane_at_build() {
        // The whole view holds 3 entries and the larger lane, {b, a},
        // 2: a budget of 2 builds; a budget of 1 fails that lane's
        // build, fresh or recovered with no checkpoint.
        let budget = |max_entries| FixpointConfig {
            max_entries,
            ..FixpointConfig::default()
        };
        let svc = ViewService::builder()
            .fixpoint(budget(2))
            .build(two_lane_db())
            .expect("each lane fits the budget");
        assert_eq!(svc.snapshot().len(), 3);
        let err = ViewService::builder()
            .fixpoint(budget(1))
            .build(two_lane_db())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Build(_)), "{err}");
        let dir = std::env::temp_dir().join(format!("mmv-svc-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = ViewService::builder()
            .fixpoint(budget(1))
            .durability(Durability::durable(&dir))
            .recover(two_lane_db())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Build(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_batches_publish_nothing() {
        // max_entries = 3 admits the 2-entry base view; the batch's
        // deletion goes through, then its insertion (1 add + a
        // propagated `a` entry) overflows the budget — a maintenance
        // error with the lane's writer view half-applied.
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
        // The abort restored lane view, lane epoch and ticket counter:
        // a subsequent in-budget batch applies cleanly, publishes the
        // lane's next shard epoch, still serves the point the rejected
        // batch deleted (and not the interval it inserted), and is
        // logged under the ticket the rejected batch had reserved.
        let ok = svc.apply(UpdateBatch::deleting(vec![point(5)])).unwrap();
        assert_eq!(ok.epoch, 1);
        let snap = svc.snapshot();
        assert_eq!(snap.shard_epoch(0), 1);
        let cfg = SolverConfig::default();
        assert!(snap.ask("a", &[Value::int(3)], &NoDomains, &cfg).unwrap());
        assert!(!snap.ask("a", &[Value::int(35)], &NoDomains, &cfg).unwrap());
        assert!(!snap.ask("a", &[Value::int(5)], &NoDomains, &cfg).unwrap());
        assert_eq!(svc.log().records()[0].ticket_base, 0);
    }

    #[test]
    fn publication_counts_copied_vs_shared_pages() {
        // Three predicates; b/a form one dependency component and c its
        // own, so the batch below (insert into b, propagate to a) locks
        // only the b/a lane — c's shard is not even touched, let alone
        // copied, and the publish accounting covers the touched lane.
        let svc = ViewService::builder().build(two_lane_db()).unwrap();
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
    }

    #[test]
    fn cross_shard_batches_publish_atomically() {
        // b/a and c are independent; one batch touching both publishes
        // one global epoch with both shard epochs advanced.
        let svc = ViewService::builder().build(two_lane_db()).unwrap();
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
                svc.published.retired_len() <= 2,
                "batch {k}: {} retired snapshots kept",
                svc.published.retired_len()
            );
        }
        // The held composite and the one shard snapshot it holds.
        assert_eq!(svc.published.retired_len(), 2);
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
