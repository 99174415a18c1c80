//! Service configuration: the builder-style construction API.
//!
//! [`ViewService::build`][crate::ViewService] used to take five
//! positional arguments (and its sharded variant six); every new knob
//! threatened a seventh. This module replaces that with a
//! [`ServiceConfig`] value (all knobs, all defaulted) and a
//! [`ViewServiceBuilder`] over it:
//!
//! ```
//! use mmv_service::{Durability, ViewService};
//! use mmv_core::parser::parse_program;
//!
//! let parsed = parse_program("b(X) <- X >= 5.").unwrap();
//! let svc = ViewService::builder()
//!     .build(parsed.db)
//!     .unwrap();
//! # drop(svc);
//! ```
//!
//! [`Durability`] selects the update-log backing: [`Durability::InMemory`]
//! (the pre-durability behavior — the log lives and dies with the
//! process) or [`Durability::durable`], which adds a write-ahead log
//! with group-commit fsync batching ([`crate::wal`]) and periodic
//! background checkpoints ([`crate::checkpoint`]), recoverable after a
//! crash with [`ViewService::recover`][crate::ViewService::recover].
//!
//! Both [`ServiceConfig`] and [`Durability`] are `#[non_exhaustive]`:
//! construct them through [`ServiceConfig::default`] /
//! [`Durability::durable`] and the setter methods, so future knobs are
//! not breaking changes.

use crate::health::RetryPolicy;
use crate::service::{ServiceError, SharedResolver, ViewService};
use crate::vfs::{StdVfs, StorageOp, Vfs};
use crate::wal::{FsyncPolicy, StorageError};
use mmv_constraints::NoDomains;
use mmv_core::shard::ShardSpec;
use mmv_core::tp::{FixpointConfig, Operator};
use mmv_core::{ConstrainedDatabase, SupportMode};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Where the service's update log lives: in memory, or on disk behind
/// a write-ahead log with checkpoints.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub enum Durability {
    /// In-memory log only — nothing survives the process. The default.
    #[default]
    InMemory,
    /// Durable: every applied batch is appended to a WAL under `dir`
    /// before it is published, and a background thread periodically
    /// checkpoints the whole served view so recovery replays only the
    /// log tail. Construct with [`Durability::durable`].
    #[non_exhaustive]
    Durable {
        /// The storage directory (WAL segments + checkpoints).
        dir: PathBuf,
        /// When appended frames are fsynced.
        fsync: FsyncPolicy,
        /// Checkpoint once every this many epochs (0 disables
        /// checkpointing — recovery then replays the whole WAL).
        checkpoint_every: u64,
        /// Soft cap on a WAL segment's size; appends past it rotate to
        /// a fresh segment.
        segment_bytes: u64,
        /// The filesystem all storage I/O goes through. The default
        /// ([`StdVfs`]) is the real filesystem; tests install a
        /// [`FaultVfs`][crate::FaultVfs] to inject storage faults.
        vfs: Arc<dyn Vfs>,
        /// How often the background health probe retries reopening the
        /// WAL while the service is read-only.
        probe_interval: Duration,
    },
}

impl Durability {
    /// Durable storage under `dir` with the default knobs: group
    /// commit with a zero coalescing window (the flush latency itself
    /// batches concurrent writers), a checkpoint every 256 epochs,
    /// 8 MiB segments.
    pub fn durable(dir: impl Into<PathBuf>) -> Durability {
        Durability::Durable {
            dir: dir.into(),
            fsync: FsyncPolicy::GroupCommit(Duration::ZERO),
            checkpoint_every: 256,
            segment_bytes: 8 << 20,
            vfs: Arc::new(StdVfs),
            probe_interval: Duration::from_millis(250),
        }
    }

    /// Sets the fsync policy (no-op on [`Durability::InMemory`]).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Durability {
        if let Durability::Durable { fsync, .. } = &mut self {
            *fsync = policy;
        }
        self
    }

    /// Sets the checkpoint cadence in epochs, 0 to disable (no-op on
    /// [`Durability::InMemory`]).
    pub fn checkpoint_every(mut self, epochs: u64) -> Durability {
        if let Durability::Durable {
            checkpoint_every, ..
        } = &mut self
        {
            *checkpoint_every = epochs;
        }
        self
    }

    /// Sets the WAL segment size cap (no-op on
    /// [`Durability::InMemory`]).
    pub fn segment_bytes(mut self, bytes: u64) -> Durability {
        if let Durability::Durable { segment_bytes, .. } = &mut self {
            *segment_bytes = bytes;
        }
        self
    }

    /// Sets the filesystem storage I/O goes through (no-op on
    /// [`Durability::InMemory`]). The default is the real filesystem;
    /// fault-injection tests install a [`FaultVfs`][crate::FaultVfs].
    pub fn vfs(mut self, filesystem: Arc<dyn Vfs>) -> Durability {
        if let Durability::Durable { vfs, .. } = &mut self {
            *vfs = filesystem;
        }
        self
    }

    /// Sets the read-only health probe's retry cadence (no-op on
    /// [`Durability::InMemory`]).
    pub fn probe_interval(mut self, interval: Duration) -> Durability {
        if let Durability::Durable { probe_interval, .. } = &mut self {
            *probe_interval = interval;
        }
        self
    }

    /// The storage directory, when durable.
    pub fn dir(&self) -> Option<&Path> {
        match self {
            Durability::InMemory => None,
            Durability::Durable { dir, .. } => Some(dir),
        }
    }
}

/// Observability knobs: whether the service records metrics and
/// per-batch stage traces, and how many recent traces it retains.
///
/// Metrics live in a lock-free
/// [`MetricsRegistry`][mmv_obs::MetricsRegistry] and cost a handful of
/// relaxed atomic adds per batch; tracing adds a few `Instant::now`
/// calls per pipeline stage. Both are on by default. Disabling
/// observability ([`ObsOptions::disabled`]) skips the stage clocks and
/// trace ring entirely — the registry still exists (so scraping is
/// always safe) but batch-lifecycle instruments stay at zero.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ObsOptions {
    /// Record per-batch stage timings, traces, and batch counters
    /// (default: `true`).
    pub enabled: bool,
    /// How many recent [`BatchTrace`][mmv_obs::BatchTrace]s the
    /// service retains for [`recent_traces`][crate::ViewService::recent_traces]
    /// (default: 64; 0 disables the ring).
    pub trace_capacity: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: true,
            trace_capacity: 64,
        }
    }
}

impl ObsOptions {
    /// Observability off: no stage clocks, no traces, batch-lifecycle
    /// instruments stay at zero. Scraping still works.
    pub fn disabled() -> Self {
        ObsOptions {
            enabled: false,
            trace_capacity: 0,
        }
    }

    /// Sets the retained-trace capacity (0 disables the ring).
    pub fn trace_capacity(mut self, cap: usize) -> Self {
        self.trace_capacity = cap;
        self
    }
}

/// Everything that shapes a [`ViewService`], with defaults for all of
/// it. `#[non_exhaustive]`: start from [`ServiceConfig::default`] (or
/// [`ViewService::builder`]) and override fields.
#[derive(Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// The domain resolver shared across readers and writers.
    pub resolver: SharedResolver,
    /// The fixpoint operator (`T_P` or `W_P`).
    pub op: Operator,
    /// Whether view entries carry supports (StDel deletion) or not
    /// (Extended DRed).
    pub mode: SupportMode,
    /// Budgets for fixpoint computation and batch maintenance. They
    /// apply per writer lane: `max_entries` bounds each lane's view,
    /// at build as in every batch, not the whole view.
    pub fixpoint: FixpointConfig,
    /// The predicate → writer-lane partition.
    pub shards: ShardSpec,
    /// The update-log backing.
    pub durability: Durability,
    /// Retry budget for transient storage faults: every WAL append,
    /// fsync, and checkpoint write retries under this policy before
    /// the failure surfaces.
    pub retry: RetryPolicy,
    /// Metrics and batch-lifecycle tracing knobs.
    pub observability: ObsOptions,
    /// Worker threads in the shared intra-lane work-stealing pool
    /// (`None`: the `MMV_POOL_THREADS` environment variable if set,
    /// otherwise [`std::thread::available_parallelism`]). A resolved
    /// width of 1 disables intra-lane parallelism entirely — every
    /// round runs on the lane's own thread.
    pub pool_threads: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            resolver: Arc::new(NoDomains),
            op: Operator::Tp,
            mode: SupportMode::WithSupports,
            fixpoint: FixpointConfig::default(),
            shards: ShardSpec::auto(),
            durability: Durability::InMemory,
            retry: RetryPolicy::default(),
            observability: ObsOptions::default(),
            pool_threads: None,
        }
    }
}

impl fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("op", &self.op)
            .field("mode", &self.mode)
            .field("fixpoint", &self.fixpoint)
            .field("shards", &self.shards)
            .field("durability", &self.durability)
            .field("retry", &self.retry)
            .field("observability", &self.observability)
            .field("pool_threads", &self.pool_threads)
            .finish_non_exhaustive()
    }
}

/// Fluent construction of a [`ViewService`]; obtain one with
/// [`ViewService::builder`]. Every setter has a default, so
/// `ViewService::builder().build(db)` is the minimal service.
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until .build() or .recover()"]
pub struct ViewServiceBuilder {
    config: ServiceConfig,
}

impl ViewServiceBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration.
    pub fn from_config(config: ServiceConfig) -> Self {
        ViewServiceBuilder { config }
    }

    /// Sets the shared domain resolver (default: no domains).
    pub fn resolver(mut self, resolver: SharedResolver) -> Self {
        self.config.resolver = resolver;
        self
    }

    /// Sets the fixpoint operator (default: [`Operator::Tp`]).
    pub fn operator(mut self, op: Operator) -> Self {
        self.config.op = op;
        self
    }

    /// Sets the support mode (default:
    /// [`SupportMode::WithSupports`]).
    pub fn mode(mut self, mode: SupportMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets the fixpoint budgets (default:
    /// [`FixpointConfig::default`]), applied per writer lane.
    pub fn fixpoint(mut self, fixpoint: FixpointConfig) -> Self {
        self.config.fixpoint = fixpoint;
        self
    }

    /// Sets the writer-lane layout (default: [`ShardSpec::auto`], one
    /// lane per clause dependency component).
    pub fn shards(mut self, spec: ShardSpec) -> Self {
        self.config.shards = spec;
        self
    }

    /// Sets the update-log backing (default:
    /// [`Durability::InMemory`]).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.config.durability = durability;
        self
    }

    /// Sets the transient-fault retry policy (default:
    /// [`RetryPolicy::default`] — 4 retries, exponential backoff).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Sets the observability knobs (default: [`ObsOptions::default`]
    /// — metrics and tracing on, 64 retained traces).
    pub fn observability(mut self, obs: ObsOptions) -> Self {
        self.config.observability = obs;
        self
    }

    /// Sets the shared work-stealing pool width (default: the
    /// `MMV_POOL_THREADS` environment variable if set, otherwise
    /// [`std::thread::available_parallelism`]). Width 1 disables
    /// intra-lane parallelism.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.config.pool_threads = Some(threads);
        self
    }

    /// The assembled configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Builds the service over `db`: splits it into writer lanes,
    /// builds each lane's view from its sub-database, publishes epoch
    /// 0 — and, when durable, opens the WAL (the directory must hold no
    /// earlier state; recover from that instead).
    pub fn build(self, db: ConstrainedDatabase) -> Result<ViewService, ServiceError> {
        ViewService::with_config(db, self.config)
    }

    /// Recovers the service from the durable directory configured via
    /// [`ViewServiceBuilder::durability`]: loads the newest valid
    /// checkpoint, replays the WAL tail, and reopens for appending.
    /// Fails with [`ServiceError::Storage`] if the configuration is
    /// not durable.
    pub fn recover(
        self,
        db: ConstrainedDatabase,
    ) -> Result<(ViewService, RecoveryReport), ServiceError> {
        let Some(dir) = self.config.durability.dir().map(Path::to_path_buf) else {
            return Err(not_durable());
        };
        ViewService::recover(&dir, db, self.config)
    }
}

/// The error for asking a non-durable configuration for durable
/// storage: recovery has no directory to read.
pub(crate) fn not_durable() -> ServiceError {
    ServiceError::Storage(StorageError::io(
        StorageOp::ReadDir,
        "<no durable dir>",
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "recover() needs Durability::durable(dir)",
        ),
    ))
}

/// What [`ViewService::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// The global epoch of the checkpoint recovery started from
    /// (`None`: no valid checkpoint — the whole WAL was replayed onto
    /// a freshly built view).
    pub checkpoint_epoch: Option<u64>,
    /// Batch records replayed from the WAL tail.
    pub replayed_records: u64,
    /// The global epoch of the recovered, re-published state.
    pub recovered_epoch: u64,
    /// Whether the final WAL segment ended in a torn frame (dropped
    /// and truncated per the torn-tail contract).
    pub torn_tail: bool,
    /// WAL segments scanned.
    pub segments_scanned: u64,
}
