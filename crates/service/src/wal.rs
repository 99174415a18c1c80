//! The durable write-ahead log: segmented append-only files of
//! [`WalPayload`] frames, with group-commit fsync batching — all IO
//! routed through a [`Vfs`] ([`crate::vfs`]) so storage faults are
//! injectable and every failure is attributed and classified
//! ([`StorageError`]).
//!
//! # File format
//!
//! A WAL directory holds segments `wal-<seq>.log`. Each segment starts
//! with a header line
//!
//! ```text
//! #mmv-wal v1 seg=<seq> first_epoch=<e>
//! ```
//!
//! (`first_epoch` is a lower bound on the global epoch of every record
//! in the segment — informational: checkpoint pruning decides coverage
//! by reading a segment's actual frames, see [`prune_segments`]).
//! After the header come frames:
//!
//! ```text
//! @<len> <crc32-hex>
//! <payload — len bytes of textual WalPayload>
//! ```
//!
//! The payload is the textual atom format of
//! [`mmv_core::parser::render_wal_payload`]; the CRC-32 (IEEE) covers
//! the payload bytes. Everything is line-oriented and human-readable —
//! `cat` a segment to audit the update history.
//!
//! # Torn-tail contract
//!
//! A crash can tear the *last* frame of the *last* segment (a partial
//! `write`). [`scan_dir`] therefore distinguishes:
//!
//! * **Bad frame in the final segment** (malformed header, short
//!   payload, CRC mismatch): everything from the bad frame on is
//!   dropped — silently recovered, reported via [`WalScan::torn_tail`],
//!   and (in repair mode) truncated away so the next writer appends
//!   after the last good frame.
//! * **Bad frame in a non-final segment**: that is not a torn write —
//!   later segments exist, so the frame was once complete. The scan
//!   fails with an explicit [`StorageError::Corrupt`].
//! * **CRC-valid but unparseable payload**: always
//!   [`StorageError::Corrupt`], even at the tail — the bytes were
//!   written intact, so the log itself is damaged or from a future
//!   format.
//!
//! # Group commit
//!
//! Writers append under the publication lock (so frame order is epoch
//! order) and then wait on a durability watermark. A single flusher
//! thread batches every frame appended since the last fsync into one
//! `fdatasync` — so `n` concurrent writers pay one disk flush, not `n`
//! ([`FsyncPolicy::GroupCommit`]). [`FsyncPolicy::Always`] flushes
//! inline on every append; [`FsyncPolicy::Never`] never flushes
//! (contents still reach the OS page cache on every append, so a
//! process kill loses nothing — only a machine crash can).
//!
//! # Faults, retry, and the sticky error
//!
//! Transient IO failures ([`StorageError::is_transient`]) are retried
//! in place under the WAL's [`RetryPolicy`] — in the appender, the
//! group-commit flusher, and segment opening — with any partial write
//! truncated away between attempts, so a transient blip never surfaces
//! to a writer. A failure that survives retries is attributed
//! ([`StorageError::Io`]) and handled so that *disk state tracks acked
//! state*:
//!
//! * an inline (`Always`) fsync failure truncates the just-written
//!   frame before the error is returned;
//! * a flusher fsync failure truncates every frame past the durable
//!   watermark, delivers the error to **every** waiter in the batch
//!   (none observes its LSN as durable), and parks the WAL behind a
//!   *sticky error*: subsequent appends fail fast until
//!   [`Wal::probe`] — called by the service's health probe — finishes
//!   any pending repairs, clears the error, and proves the log accepts
//!   a durable append again by journaling a
//!   [`WalPayload::Health`] frame.
//!
//! Each batch frame records the batch's epoch and reserved ticket
//! base, and recovery reissues both, so the recovered view is
//! syntactically identical to the served one under any interleaving of
//! the writers (see [`crate::log`]).

use crate::health::RetryPolicy;
use crate::vfs::{StdVfs, StorageOp, Vfs, VfsFile};
use mmv_core::parser::{parse_wal_payload, render_wal_payload, WalPayload};
use mmv_obs::sync::{lock_clean, wait_clean};
use mmv_obs::Counter;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// When the WAL flushes appended frames to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsyncPolicy {
    /// `fdatasync` inline on every append: maximum durability, every
    /// writer pays a disk flush.
    Always,
    /// Group commit: a flusher thread coalesces every frame appended
    /// within the window (and while the previous flush was in flight)
    /// into one `fdatasync`. `Duration::ZERO` flushes as fast as the
    /// disk allows, with the flush latency itself as the natural
    /// batching window.
    GroupCommit(Duration),
    /// Never fsync. Frames still reach the OS page cache on append, so
    /// this survives a process kill — but not a machine crash.
    Never,
}

/// Cumulative WAL I/O counters (see [`Wal::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Frames appended.
    pub records: u64,
    /// Bytes written (headers + frames).
    pub bytes_written: u64,
    /// Group-commit rounds (or inline flushes under `Always`): each
    /// made one batch of appended frames durable.
    pub fsync_batches: u64,
    /// Individual `fdatasync` calls (≥ `fsync_batches`: a round spans
    /// a rotation's old and new segment files).
    pub fsyncs: u64,
    /// Segment files created.
    pub segments_created: u64,
    /// Transient IO failures absorbed by in-place retry.
    pub retries: u64,
}

/// The detached `mmv-obs` counters behind [`WalStats`].
///
/// The WAL owns these from birth and bumps them lock-free on the hot
/// path; [`Wal::stats`] is a view over them, and the service registers
/// the same handles into its metrics registry, so there is no parallel
/// bookkeeping.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalMetrics {
    pub records: Counter,
    pub bytes_written: Counter,
    pub fsync_batches: Counter,
    pub fsyncs: Counter,
    pub segments_created: Counter,
    pub retries: Counter,
}

impl WalMetrics {
    fn snapshot(&self) -> WalStats {
        WalStats {
            records: self.records.get(),
            bytes_written: self.bytes_written.get(),
            fsync_batches: self.fsync_batches.get(),
            fsyncs: self.fsyncs.get(),
            segments_created: self.segments_created.get(),
            retries: self.retries.get(),
        }
    }

    /// Registers every counter under its `mmv_wal_` name.
    pub(crate) fn register_into(&self, registry: &mmv_obs::MetricsRegistry) {
        registry.register_counter(
            "mmv_wal_records_total",
            "WAL frames appended",
            &[],
            &self.records,
        );
        registry.register_counter(
            "mmv_wal_bytes_written_total",
            "WAL bytes written (headers + frames)",
            &[],
            &self.bytes_written,
        );
        registry.register_counter(
            "mmv_wal_fsync_batches_total",
            "Group-commit rounds (or inline flushes) made durable",
            &[],
            &self.fsync_batches,
        );
        registry.register_counter(
            "mmv_wal_fsyncs_total",
            "Individual fdatasync calls",
            &[],
            &self.fsyncs,
        );
        registry.register_counter(
            "mmv_wal_segments_created_total",
            "WAL segment files created",
            &[],
            &self.segments_created,
        );
        registry.register_counter(
            "mmv_wal_retries_total",
            "Transient IO failures absorbed by in-place retry",
            &[],
            &self.retries,
        );
    }
}

/// A durable-storage failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// An I/O operation failed, attributed with what was being done to
    /// which file.
    Io {
        /// The operation that failed.
        op: StorageOp,
        /// The file (or directory) it failed on.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A log segment or checkpoint is damaged beyond the torn-tail
    /// contract (bad frame in a non-final segment, CRC-valid but
    /// unparseable payload, checkpoint with a valid trailer but
    /// inconsistent content).
    Corrupt {
        /// The damaged file.
        file: PathBuf,
        /// Byte offset of the damage (0 if not meaningful).
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

/// The transient/persistent classification — the one decision point
/// retry logic consults. `Interrupted`, `WouldBlock`, and `TimedOut`
/// are worth retrying; everything else (EIO, ENOSPC, permissions, …)
/// is treated as persistent.
pub(crate) fn is_transient_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl StorageError {
    /// Attributes an IO failure with the operation and path.
    pub fn io(op: StorageOp, path: impl Into<PathBuf>, source: io::Error) -> StorageError {
        StorageError::Io {
            op,
            path: path.into(),
            source,
        }
    }

    /// Whether retrying could plausibly succeed (a transient
    /// `io::ErrorKind`: interrupted / would-block / timed out);
    /// corruption never is.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io { source, .. } => is_transient_io(source),
            StorageError::Corrupt { .. } => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, path, source } => write!(
                f,
                "storage {op} failed on {}: {source} [{:?}, {}]",
                path.display(),
                source.kind(),
                if is_transient_io(source) {
                    "transient"
                } else {
                    "persistent"
                }
            ),
            StorageError::Corrupt {
                file,
                offset,
                detail,
            } => write!(f, "corrupt {} at byte {offset}: {detail}", file.display()),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            StorageError::Corrupt { .. } => None,
        }
    }
}

/// CRC-32 (IEEE 802.3), table-driven; the frame checksum.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// An open segment file plus the path it was opened under (for error
/// attribution and give-up repair bookkeeping).
#[derive(Clone)]
struct FileHandle {
    file: Arc<dyn VfsFile>,
    path: PathBuf,
}

/// One appended-but-not-yet-durable frame (GroupCommit only): enough
/// to truncate it away should its fsync batch fail.
struct FrameSpan {
    lsn: u64,
    path: PathBuf,
    start: u64,
}

/// The sticky flusher failure: its attribution, replayed to every
/// fail-fast append and durability wait until the probe clears it.
struct StickyError {
    op: StorageOp,
    path: PathBuf,
    message: String,
}

/// State the appender and the flusher share.
struct SyncShared {
    /// LSN (frame count) of the last appended frame.
    appended: u64,
    /// LSN up to which frames are known durable.
    durable: u64,
    /// Rotated-out segment files with frames possibly not yet synced.
    pending: Vec<FileHandle>,
    /// The current segment file.
    current: Option<FileHandle>,
    /// Frames past the durable watermark (GroupCommit), oldest first.
    frames: Vec<FrameSpan>,
    /// Give-up truncations that themselves failed; [`Wal::probe`]
    /// finishes them before clearing the sticky error.
    repairs: Vec<(FileHandle, u64)>,
    /// The give-up truncation applied to the *current* segment, so the
    /// probe can resynchronize the appender's length bookkeeping.
    truncated_current: Option<(PathBuf, u64)>,
    /// Sticky flusher failure: once set, appends and waits fail fast.
    error: Option<StickyError>,
    shutdown: bool,
}

struct WalShared {
    sync: Mutex<SyncShared>,
    appended_cv: Condvar,
    durable_cv: Condvar,
    /// Lock-free I/O counters — bumped by appender and flusher alike,
    /// read by [`Wal::stats`] and metric scrapes without the mutex.
    metrics: WalMetrics,
}

/// The appender's exclusive state.
struct Appender {
    file: Option<FileHandle>,
    seg_len: u64,
    next_seq: u64,
    rotate: bool,
    /// A failed append whose cleanup truncation also failed: the
    /// length to truncate the current segment back to before anything
    /// else may be appended.
    torn: Option<u64>,
}

/// A handle onto one WAL directory, opened for appending.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    retry: RetryPolicy,
    inner: Mutex<Appender>,
    shared: Arc<WalShared>,
    /// Set when a rotation was requested (checkpoint completed) so the
    /// next append opens a fresh segment.
    rotate_requested: AtomicBool,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Wal {
    /// Opens `dir` for appending through the production [`StdVfs`]
    /// with the default [`RetryPolicy`]. `start_seq` is the sequence
    /// number of the next segment to create (recovery passes one past
    /// the last scanned segment; a fresh service passes 1). Segments
    /// are created lazily on first append, so the `first_epoch` header
    /// is always exact.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
        start_seq: u64,
    ) -> Result<Arc<Wal>, StorageError> {
        Wal::open_with(
            Arc::new(StdVfs),
            dir,
            policy,
            segment_bytes,
            start_seq,
            RetryPolicy::default(),
        )
    }

    /// [`Wal::open`] with an explicit [`Vfs`] (fault injection) and
    /// retry policy.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
        start_seq: u64,
        retry: RetryPolicy,
    ) -> Result<Arc<Wal>, StorageError> {
        vfs.create_dir_all(dir)
            .map_err(|e| StorageError::io(StorageOp::Create, dir, e))?;
        let shared = Arc::new(WalShared {
            sync: Mutex::new(SyncShared {
                appended: 0,
                durable: 0,
                pending: Vec::new(),
                current: None,
                frames: Vec::new(),
                repairs: Vec::new(),
                truncated_current: None,
                error: None,
                shutdown: false,
            }),
            appended_cv: Condvar::new(),
            durable_cv: Condvar::new(),
            metrics: WalMetrics::default(),
        });
        let flusher = match policy {
            FsyncPolicy::GroupCommit(window) => {
                let shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("mmv-wal-flusher".into())
                        .spawn(move || flusher_loop(&shared, window, retry))
                        .expect("spawn WAL flusher"),
                )
            }
            FsyncPolicy::Always | FsyncPolicy::Never => None,
        };
        Ok(Arc::new(Wal {
            vfs,
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(1),
            retry,
            inner: Mutex::new(Appender {
                file: None,
                seg_len: 0,
                next_seq: start_seq.max(1),
                rotate: false,
                torn: None,
            }),
            shared,
            rotate_requested: AtomicBool::new(false),
            flusher: Mutex::new(flusher),
        }))
    }

    /// The WAL's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// A snapshot of the cumulative I/O counters.
    pub fn stats(&self) -> WalStats {
        self.shared.metrics.snapshot()
    }

    /// The detached counter handles, for registry registration.
    pub(crate) fn metrics(&self) -> WalMetrics {
        self.shared.metrics.clone()
    }

    /// Requests that the next append open a fresh segment — called
    /// after a checkpoint completes, so later records land in a new
    /// segment and the older ones become prunable by the *next*
    /// checkpoint once every record they hold is covered.
    pub fn request_rotation(&self) {
        self.rotate_requested.store(true, Ordering::Release); // order: request flag consumed by the flusher's Acquire swap
    }

    /// Appends one payload frame and returns its LSN. `epoch` is a
    /// lower bound on the record's global epoch (the batch's epoch;
    /// the current global epoch for recovery/checkpoint markers) and
    /// only feeds the segment header when this append opens one.
    ///
    /// The write reaches the OS immediately; durability depends on the
    /// policy — callers that need it call [`Wal::wait_durable`] with
    /// the returned LSN. Transient IO failures are retried in place
    /// (partial writes truncated between attempts); surfaced errors
    /// leave the log exactly as if the append never happened (or, if
    /// cleanup itself failed, park the repair for the next append or
    /// probe).
    pub fn append(&self, epoch: u64, payload: &str) -> Result<u64, StorageError> {
        let mut a = lock_clean(&self.inner);
        // Fail fast behind a sticky flusher error: the WAL is
        // read-only until the probe repairs and clears it.
        {
            let s = lock_clean(&self.shared.sync);
            if let Some(err) = &s.error {
                return Err(StorageError::io(
                    err.op,
                    err.path.clone(),
                    io::Error::other(err.message.clone()),
                ));
            }
        }
        // order: pairs with request_rotation's Release store
        if self.rotate_requested.swap(false, Ordering::Acquire) {
            a.rotate = true;
        }
        // Repair a torn frame a previous failed append left behind.
        if let Some(len) = a.torn {
            let h = a
                .file
                .clone()
                .expect("a torn frame implies an open segment");
            self.run_retry(|| h.file.set_len(len))
                .map_err(|e| StorageError::io(StorageOp::Truncate, h.path.clone(), e))?;
            a.seg_len = len;
            a.torn = None;
        }
        if a.file.is_none() || a.rotate || a.seg_len >= self.segment_bytes {
            self.open_segment(&mut a, epoch)?;
        }
        let frame = format!(
            "@{} {:08x}\n{}\n",
            payload.len(),
            crc32(payload.as_bytes()),
            payload
        );
        let h = a.file.clone().expect("segment is open");
        let start = a.seg_len;
        self.write_frame(&h, start, frame.as_bytes(), &mut a.torn)?;
        a.seg_len = start + frame.len() as u64;
        let flen = frame.len() as u64;
        let mut s = lock_clean(&self.shared.sync);
        match self.policy {
            FsyncPolicy::Never => {
                s.appended += 1;
                s.durable = s.appended;
                self.shared.metrics.records.inc();
                self.shared.metrics.bytes_written.add(flen);
                Ok(s.appended)
            }
            FsyncPolicy::Always => {
                let pending: Vec<FileHandle> = s.pending.clone();
                let mut synced = 0u64;
                let mut failed: Option<StorageError> = None;
                for f in pending.iter().chain(std::iter::once(&h)) {
                    match self.run_retry(|| f.file.sync_data()) {
                        Ok(()) => synced += 1,
                        Err(e) => {
                            failed = Some(StorageError::io(StorageOp::Fsync, f.path.clone(), e));
                            break;
                        }
                    }
                }
                match failed {
                    None => {
                        s.pending.clear();
                        s.appended += 1;
                        s.durable = s.appended;
                        self.shared.metrics.records.inc();
                        self.shared.metrics.bytes_written.add(flen);
                        self.shared.metrics.fsyncs.add(synced);
                        self.shared.metrics.fsync_batches.inc();
                        Ok(s.appended)
                    }
                    Some(e) => {
                        drop(s);
                        // The frame is neither durable nor acked:
                        // remove it so disk tracks acked state.
                        match h.file.set_len(start) {
                            Ok(()) => {
                                let _ = h.file.sync_data();
                                a.seg_len = start;
                            }
                            Err(_) => a.torn = Some(start),
                        }
                        Err(e)
                    }
                }
            }
            FsyncPolicy::GroupCommit(_) => {
                s.appended += 1;
                let lsn = s.appended;
                self.shared.metrics.records.inc();
                self.shared.metrics.bytes_written.add(flen);
                s.frames.push(FrameSpan {
                    lsn,
                    path: h.path.clone(),
                    start,
                });
                self.shared.appended_cv.notify_one();
                Ok(lsn)
            }
        }
    }

    /// Blocks until the frame at `lsn` is durable under the policy
    /// (immediate for `Never`, and for `Always` where the append
    /// already flushed). Fails fast — with the flusher's attributed
    /// error — if the fsync batch covering `lsn` failed.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), StorageError> {
        if matches!(self.policy, FsyncPolicy::Never) {
            return Ok(());
        }
        let mut s = lock_clean(&self.shared.sync);
        while s.durable < lsn && s.error.is_none() {
            s = wait_clean(&self.shared.durable_cv, s);
        }
        if s.durable >= lsn {
            return Ok(());
        }
        let err = s
            .error
            .as_ref()
            .expect("undurable wait exits only on error");
        Err(StorageError::io(
            err.op,
            err.path.clone(),
            io::Error::other(err.message.clone()),
        ))
    }

    /// Proves the log accepts durable appends again: finishes any
    /// give-up repairs the flusher could not make, clears the sticky
    /// error, and journals a [`WalPayload::Health`] frame through the
    /// normal append + durability path. The service's background
    /// health probe calls this while read-only; the first success
    /// restores `Healthy`.
    pub fn probe(&self, epoch: u64) -> Result<(), StorageError> {
        {
            let mut a = lock_clean(&self.inner);
            let mut s = lock_clean(&self.shared.sync);
            while let Some((h, len)) = s.repairs.first().cloned() {
                self.run_retry(|| h.file.set_len(len))
                    .map_err(|e| StorageError::io(StorageOp::Truncate, h.path.clone(), e))?;
                let _ = h.file.sync_data();
                if a.file.as_ref().is_some_and(|f| f.path == h.path) {
                    a.seg_len = len;
                    a.torn = None;
                }
                s.repairs.remove(0);
            }
            if s.error.take().is_some() {
                if let Some((path, len)) = s.truncated_current.take() {
                    if a.file.as_ref().is_some_and(|f| f.path == path) {
                        a.seg_len = len;
                        a.torn = None;
                    }
                }
            }
        }
        let lsn = self.append(epoch, &render_wal_payload(&WalPayload::Health { epoch }))?;
        self.wait_durable(lsn)
    }

    /// Runs `op` under the WAL's retry policy (transient failures
    /// only), counting each absorbed failure in [`WalStats::retries`].
    fn run_retry<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        self.retry
            .run(Some(&self.shared.metrics.retries), op, is_transient_io)
    }

    /// Writes `buf` at `start` (the current end of `h`), retrying
    /// transient failures with any partial write truncated away
    /// between attempts. If the cleanup truncation itself fails the
    /// offset is parked in `torn` for the next append (or probe) to
    /// repair before anything else lands.
    fn write_frame(
        &self,
        h: &FileHandle,
        start: u64,
        buf: &[u8],
        torn: &mut Option<u64>,
    ) -> Result<(), StorageError> {
        // Whether a failed write may have left a partial frame that
        // must be truncated before the next attempt (or before giving
        // up — disk must track acked state). Once set it stays set:
        // any later failed attempt needs the same truncation.
        let mut dirty = false;
        let attempt = || {
            // The repair itself can be hit by the same transient run —
            // it consumes attempts too.
            if dirty {
                h.file
                    .set_len(start)
                    .map_err(|e| (StorageOp::Truncate, e))?;
            }
            h.file.write_all(buf).map_err(|e| {
                dirty = true;
                (StorageOp::Append, e)
            })
        };
        let retries = Some(&self.shared.metrics.retries);
        self.retry
            .run(retries, attempt, |(_, e)| is_transient_io(e))
            .map_err(|(op, e)| {
                // Giving up after a failed write: one last cleanup
                // attempt. Either way a failed truncation parks the
                // offset for later repair.
                if op == StorageOp::Truncate || h.file.set_len(start).is_err() {
                    *torn = Some(start);
                }
                StorageError::io(op, h.path.clone(), e)
            })
    }

    fn open_segment(&self, a: &mut Appender, epoch: u64) -> Result<(), StorageError> {
        let seq = a.next_seq;
        let path = self.dir.join(format!("wal-{seq:06}.log"));
        let file = match self.run_retry(|| self.vfs.create_new_append(&path)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                // An earlier open failed (or crashed) after creating
                // the file — possibly with a torn header. `next_seq`
                // only advances on success, so reclaim it empty.
                let f = self
                    .vfs
                    .open_append(&path)
                    .map_err(|e| StorageError::io(StorageOp::Create, path.clone(), e))?;
                self.run_retry(|| f.set_len(0))
                    .map_err(|e| StorageError::io(StorageOp::Truncate, path.clone(), e))?;
                f
            }
            Err(e) => return Err(StorageError::io(StorageOp::Create, path.clone(), e)),
        };
        let handle = FileHandle {
            file,
            path: path.clone(),
        };
        let header = format!("#mmv-wal v1 seg={seq} first_epoch={epoch}\n");
        let mut scratch_torn = None;
        // On error, leave the file for the reclaim path above; nothing
        // in the appender state has changed.
        self.write_frame(&handle, 0, header.as_bytes(), &mut scratch_torn)?;
        // Make the file's existence durable before any frame can be —
        // and before the appender adopts the segment, so a failure
        // here retries the whole open.
        if let Err(e) = self.run_retry(|| self.vfs.sync_dir(&self.dir)) {
            let _ = handle.file.set_len(0);
            return Err(StorageError::io(StorageOp::SyncDir, self.dir.clone(), e));
        }
        let old = a.file.replace(handle.clone());
        a.next_seq = seq + 1;
        a.seg_len = header.len() as u64;
        a.rotate = false;
        let mut s = lock_clean(&self.shared.sync);
        if let Some(old) = old {
            // The rotated-out file may still hold unsynced frames; the
            // next flush covers it before the watermark advances.
            s.pending.push(old);
        }
        s.current = Some(handle);
        self.shared.metrics.segments_created.inc();
        self.shared.metrics.bytes_written.add(header.len() as u64);
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut s = lock_clean(&self.shared.sync);
            s.shutdown = true;
        }
        self.shared.appended_cv.notify_all();
        if let Some(h) = lock_clean(&self.flusher).take() {
            let _ = h.join();
        }
    }
}

/// The group-commit loop: wait for appended frames, optionally let the
/// window coalesce more, then one `fdatasync` covers them all.
/// Transient fsync failures are retried in place; a persistent one
/// triggers [`give_up`] — truncate the undurable frames, park behind a
/// sticky error, keep the thread alive for after the probe heals it.
fn flusher_loop(shared: &WalShared, window: Duration, retry: RetryPolicy) {
    let mut s = lock_clean(&shared.sync);
    loop {
        while !s.shutdown && (s.appended == s.durable || s.error.is_some()) {
            s = wait_clean(&shared.appended_cv, s);
        }
        if s.shutdown && (s.appended == s.durable || s.error.is_some()) {
            return;
        }
        if !window.is_zero() {
            drop(s);
            std::thread::sleep(window);
            s = lock_clean(&shared.sync);
        }
        let target = s.appended;
        let mut files: Vec<FileHandle> = s.pending.drain(..).collect();
        if let Some(cur) = s.current.clone() {
            files.push(cur);
        }
        drop(s);
        let mut failed: Option<(PathBuf, io::Error)> = None;
        for h in &files {
            let retries = Some(&shared.metrics.retries);
            if let Err(e) = retry.run(retries, || h.file.sync_data(), is_transient_io) {
                failed = Some((h.path.clone(), e));
                break;
            }
        }
        s = lock_clean(&shared.sync);
        match failed {
            None => {
                s.durable = s.durable.max(target);
                let target = s.durable;
                s.frames.retain(|f| f.lsn > target);
                shared.metrics.fsync_batches.inc();
                shared.metrics.fsyncs.add(files.len() as u64);
            }
            Some((path, e)) => give_up(&mut s, &files, &path, &e),
        }
        shared.durable_cv.notify_all();
    }
}

/// The flusher's persistent-failure path: every frame past the durable
/// watermark is truncated away (so no NACKed frame survives on disk),
/// the watermarks are re-converged, and a sticky error is recorded —
/// every waiter in the failed batch sees it, and appends fail fast
/// until [`Wal::probe`] clears it. Truncations that themselves fail
/// are parked for the probe to finish.
fn give_up(s: &mut SyncShared, files: &[FileHandle], path: &Path, e: &io::Error) {
    use std::collections::BTreeMap;
    let mut wanted: BTreeMap<PathBuf, u64> = BTreeMap::new();
    for f in &s.frames {
        wanted
            .entry(f.path.clone())
            .and_modify(|m| *m = (*m).min(f.start))
            .or_insert(f.start);
    }
    s.frames.clear();
    for (p, len) in wanted {
        let handle = s
            .current
            .iter()
            .chain(s.pending.iter())
            .chain(files.iter())
            .find(|h| h.path == p)
            .cloned();
        let Some(h) = handle else { continue };
        match h.file.set_len(len) {
            Ok(()) => {
                let _ = h.file.sync_data();
                if s.current.as_ref().is_some_and(|c| c.path == p) {
                    s.truncated_current = Some((p, len));
                }
            }
            Err(_) => s.repairs.push((h, len)),
        }
    }
    s.appended = s.durable;
    s.error = Some(StickyError {
        op: StorageOp::Fsync,
        path: path.to_path_buf(),
        message: e.to_string(),
    });
}

// ---------------------------------------------------------------------
// Reading a WAL directory back.

/// The result of scanning a WAL directory (see [`scan_dir`]).
#[derive(Debug)]
pub struct WalScan {
    /// Every decoded payload, in append order.
    pub payloads: Vec<WalPayload>,
    /// Segments visited.
    pub segments: u64,
    /// Whether the final segment ended in a torn frame (dropped, and
    /// truncated away in repair mode).
    pub torn_tail: bool,
    /// One past the highest segment sequence seen (the `start_seq` a
    /// recovering writer should reopen with).
    pub next_seq: u64,
}

#[expect(
    clippy::disallowed_methods,
    reason = "recovery read: segment discovery precedes the Vfs-fronted writer"
)]
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|d| d.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Parses one frame at `bytes[offset..]`. `Ok(None)` means clean end
/// of segment; `Err(detail)` a bad frame at `offset`.
fn parse_frame(bytes: &[u8], offset: usize) -> Result<Option<(String, usize)>, String> {
    if offset == bytes.len() {
        return Ok(None);
    }
    let rest = &bytes[offset..];
    if rest[0] != b'@' {
        return Err("expected '@' frame header".into());
    }
    let Some(nl) = rest.iter().take(80).position(|&b| b == b'\n') else {
        return Err("unterminated frame header".into());
    };
    let header = std::str::from_utf8(&rest[1..nl]).map_err(|_| "non-UTF-8 frame header")?;
    let (len, crc) = header
        .split_once(' ')
        .and_then(|(l, c)| Some((l.parse::<usize>().ok()?, u32::from_str_radix(c, 16).ok()?)))
        .ok_or("malformed frame header")?;
    let body_start = nl + 1;
    let body_end = body_start
        .checked_add(len)
        .filter(|&e| e < rest.len())
        .ok_or("frame shorter than its declared length")?;
    if rest[body_end] != b'\n' {
        return Err("missing frame terminator".into());
    }
    let payload = &rest[body_start..body_end];
    if crc32(payload) != crc {
        return Err(format!(
            "CRC mismatch (stored {crc:08x}, computed {:08x})",
            crc32(payload)
        ));
    }
    // From here on the frame was written intact: failures are
    // corruption, not a torn tail — the caller treats them as fatal
    // via the second error slot.
    let payload = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload")?;
    Ok(Some((payload.to_string(), offset + body_end + 1)))
}

/// Scans every segment of `dir` in order and decodes the payloads,
/// applying the torn-tail contract (see the module docs). With
/// `repair` set, a torn tail is also truncated off the final segment
/// (and the truncation fsynced) so the next writer starts clean.
/// Always reads through `std::fs` — recovery-time reads are not
/// fault-injection targets.
#[expect(
    clippy::disallowed_methods,
    reason = "recovery read: recovery-time reads are not fault-injection targets"
)]
pub fn scan_dir(dir: &Path, repair: bool) -> Result<WalScan, StorageError> {
    let files = segment_files(dir).map_err(|e| StorageError::io(StorageOp::ReadDir, dir, e))?;
    let mut scan = WalScan {
        payloads: Vec::new(),
        segments: files.len() as u64,
        torn_tail: false,
        next_seq: files.last().map_or(1, |(seq, _)| seq + 1),
    };
    let last = files.len().wrapping_sub(1);
    for (i, (_seq, path)) in files.iter().enumerate() {
        let bytes =
            std::fs::read(path).map_err(|e| StorageError::io(StorageOp::Read, path.clone(), e))?;
        let is_last = i == last;
        let corrupt = |offset: usize, detail: String| StorageError::Corrupt {
            file: path.clone(),
            offset: offset as u64,
            detail,
        };
        // The header line. A zero-length file is an empty segment
        // (creation crashed before the header reached disk).
        let mut offset = match bytes.iter().position(|&b| b == b'\n') {
            _ if bytes.is_empty() => continue,
            Some(nl) if bytes.starts_with(b"#mmv-wal v1 ") => nl + 1,
            _ if is_last => {
                // Torn header write: nothing recoverable here.
                scan.torn_tail = true;
                if repair {
                    truncate_to(path, 0)?;
                }
                continue;
            }
            _ => return Err(corrupt(0, "bad segment header".into())),
        };
        loop {
            match parse_frame(&bytes, offset) {
                Ok(None) => break,
                Ok(Some((payload, next))) => {
                    let decoded = parse_wal_payload(&payload)
                        .map_err(|e| corrupt(offset, format!("unparseable payload: {e}")))?;
                    scan.payloads.push(decoded);
                    offset = next;
                }
                Err(_) if is_last => {
                    scan.torn_tail = true;
                    if repair {
                        truncate_to(path, offset as u64)?;
                    }
                    break;
                }
                Err(detail) => return Err(corrupt(offset, detail)),
            }
        }
    }
    Ok(scan)
}

#[expect(
    clippy::disallowed_methods,
    reason = "recovery-time torn-tail truncation, before the Vfs-fronted writer reopens"
)]
fn truncate_to(path: &Path, len: u64) -> Result<(), StorageError> {
    let attr = |e| StorageError::io(StorageOp::Truncate, path, e);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(attr)?;
    f.set_len(len).map_err(attr)?;
    f.sync_data().map_err(attr)
}

/// Deletes segments made redundant by a checkpoint covering every
/// epoch `<= chk_epoch`, through [`StdVfs`]. See
/// [`prune_segments_with`].
pub fn prune_segments(dir: &Path, chk_epoch: u64) -> Result<u64, StorageError> {
    prune_segments_with(&StdVfs, dir, chk_epoch)
}

/// Deletes segments made redundant by a checkpoint covering every
/// epoch `<= chk_epoch`: a non-newest segment is prunable when *every*
/// frame in it parses cleanly and carries an epoch `<= chk_epoch` —
/// decided by reading the segment, never inferred from another
/// segment's header. (The `first_epoch` header is only a lower bound:
/// a checkpoint/recovery *marker* appended concurrently with batch
/// writers can open a rotated segment with an epoch older than batch
/// frames already sitting in the previous segment, so header-based
/// coverage inference would delete un-checkpointed batches.) The
/// newest segment is never deleted; a segment that fails to read or
/// parse is conservatively kept. Returns how many were removed.
pub fn prune_segments_with(vfs: &dyn Vfs, dir: &Path, chk_epoch: u64) -> Result<u64, StorageError> {
    let files = segment_files(dir).map_err(|e| StorageError::io(StorageOp::ReadDir, dir, e))?;
    let mut deleted = 0;
    for (_, path) in files.iter().rev().skip(1) {
        if segment_covered_by(path, chk_epoch) {
            vfs.remove_file(path)
                .map_err(|e| StorageError::io(StorageOp::Remove, path.clone(), e))?;
            deleted += 1;
        }
    }
    if deleted > 0 {
        vfs.sync_dir(dir)
            .map_err(|e| StorageError::io(StorageOp::SyncDir, dir, e))?;
    }
    Ok(deleted)
}

/// Whether every record in the segment at `path` is at an epoch the
/// checkpoint covers (`<= chk_epoch`). Any read, frame, or payload
/// failure answers `false` — pruning keeps what it cannot prove.
#[expect(
    clippy::disallowed_methods,
    reason = "pruning proof read, not a fault-injection target"
)]
fn segment_covered_by(path: &Path, chk_epoch: u64) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return false;
    };
    if bytes.is_empty() {
        // An empty segment (creation crashed pre-header) holds nothing.
        return true;
    }
    if !bytes.starts_with(b"#mmv-wal v1 ") {
        return false;
    }
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return false;
    };
    let mut offset = nl + 1;
    loop {
        match parse_frame(&bytes, offset) {
            Ok(None) => return true,
            Ok(Some((payload, next))) => {
                match parse_wal_payload(&payload) {
                    Ok(p) => {
                        let epoch = match p {
                            WalPayload::Batch { epoch, .. }
                            | WalPayload::Recovery { epoch, .. }
                            | WalPayload::Checkpoint { epoch }
                            | WalPayload::Health { epoch } => epoch,
                            _ => return false,
                        };
                        if epoch > chk_epoch {
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
                offset = next;
            }
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests stage and corrupt segments behind the Vfs"
)]
mod tests {
    use super::*;
    use crate::vfs::{Fault, FaultPlan, FaultVfs, OpSel};
    use mmv_core::batch::UpdateBatch;
    use mmv_core::parser::render_wal_payload;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmv-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch_payload(epoch: u64) -> WalPayload {
        WalPayload::Batch {
            epoch,
            ticket_base: epoch * 3,
            batch: UpdateBatch::new(),
        }
    }

    fn append_all(wal: &Wal, payloads: &[WalPayload]) {
        for p in payloads {
            let epoch = match p {
                WalPayload::Batch { epoch, .. }
                | WalPayload::Recovery { epoch, .. }
                | WalPayload::Checkpoint { epoch } => *epoch,
                _ => 0,
            };
            let lsn = wal.append(epoch, &render_wal_payload(p)).unwrap();
            wal.wait_durable(lsn).unwrap();
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    #[test]
    fn appended_frames_scan_back_in_order() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::GroupCommit(Duration::ZERO),
            FsyncPolicy::Never,
        ] {
            let dir = tmpdir(&format!("roundtrip-{policy:?}").replace(['(', ')', ' ', '.'], ""));
            let payloads: Vec<WalPayload> = (1..=5).map(batch_payload).collect();
            {
                let wal = Wal::open(&dir, policy, 1 << 20, 1).unwrap();
                append_all(&wal, &payloads);
                let stats = wal.stats();
                assert_eq!(stats.records, 5);
                assert_eq!(stats.segments_created, 1);
                if policy != FsyncPolicy::Never {
                    assert!(stats.fsync_batches >= 1, "{stats:?}");
                }
            }
            let scan = scan_dir(&dir, false).unwrap();
            assert_eq!(scan.payloads, payloads);
            assert!(!scan.torn_tail);
            assert_eq!(scan.next_seq, 2);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn segments_rotate_by_size_and_on_request() {
        let dir = tmpdir("rotate");
        let payloads: Vec<WalPayload> = (1..=4).map(batch_payload).collect();
        {
            // Tiny cap: every frame exceeds it, so each lands in its
            // own segment.
            let wal = Wal::open(&dir, FsyncPolicy::Never, 8, 1).unwrap();
            append_all(&wal, &payloads[..3]);
            wal.request_rotation();
            append_all(&wal, &payloads[3..]);
            assert_eq!(wal.stats().segments_created, 4);
        }
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(scan.payloads, payloads);
        assert_eq!(scan.segments, 4);
        // A checkpoint covering epoch 3 can prune the first three
        // segments (every record in them is at an epoch <= 3); the
        // newest segment survives regardless.
        let deleted = prune_segments(&dir, 3).unwrap();
        assert_eq!(deleted, 3);
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(scan.payloads, payloads[3..]);
        assert_eq!(scan.next_seq, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_keeps_batches_past_the_checkpoint() {
        // The checkpoint-marker race: a marker carrying the checkpoint
        // epoch opens a rotated segment *after* batch frames for later
        // epochs already landed in the previous one. Pruning must keep
        // that previous segment — its epoch-3 batch is not covered by
        // the epoch-2 checkpoint, whatever any header claims.
        let dir = tmpdir("prune-race");
        let wal = Wal::open(&dir, FsyncPolicy::Never, 1 << 20, 1).unwrap();
        append_all(
            &wal,
            &[batch_payload(1), batch_payload(2), batch_payload(3)],
        );
        wal.request_rotation();
        // Stale lower-bound marker (epoch 2) opens segment 2.
        wal.append(2, &render_wal_payload(&WalPayload::Checkpoint { epoch: 2 }))
            .unwrap();
        assert_eq!(prune_segments(&dir, 2).unwrap(), 0);
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(scan.payloads.len(), 4, "nothing was deleted");
        // Once a checkpoint actually covers epoch 3, segment 1 goes.
        assert_eq!(prune_segments(&dir, 3).unwrap(), 1);
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(scan.payloads.len(), 1, "only the marker remains");
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_but_middle_corruption_is_fatal() {
        let dir = tmpdir("torn");
        let payloads: Vec<WalPayload> = (1..=3).map(batch_payload).collect();
        {
            let wal = Wal::open(&dir, FsyncPolicy::Never, 1 << 20, 1).unwrap();
            append_all(&wal, &payloads);
        }
        let path = dir.join("wal-000001.log");
        let clean = std::fs::read(&path).unwrap();
        // Torn tail: append half a frame.
        let mut torn = clean.clone();
        torn.extend_from_slice(b"@57 deadbeef\nbatch epo");
        std::fs::write(&path, &torn).unwrap();
        let scan = scan_dir(&dir, true).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.payloads, payloads);
        // Repair truncated the tail: a second scan is clean.
        let scan = scan_dir(&dir, false).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(std::fs::read(&path).unwrap(), clean);

        // Flip a payload byte mid-file: CRC failure in the (single,
        // hence final) segment → torn tail there too; but with a
        // *later* segment present it is corruption.
        let mut flipped = clean.clone();
        let pos = clean.len() / 2;
        flipped[pos] ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        std::fs::write(
            dir.join("wal-000002.log"),
            "#mmv-wal v1 seg=2 first_epoch=4\n",
        )
        .unwrap();
        let err = scan_dir(&dir, false).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_valid_garbage_is_corrupt_even_at_the_tail() {
        let dir = tmpdir("garbage");
        {
            let wal = Wal::open(&dir, FsyncPolicy::Never, 1 << 20, 1).unwrap();
            append_all(&wal, &[batch_payload(1)]);
        }
        let path = dir.join("wal-000001.log");
        let payload = "mystery kind=7\n";
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(
            format!(
                "@{} {:08x}\n{payload}\n",
                payload.len(),
                crc32(payload.as_bytes())
            )
            .as_bytes(),
        );
        std::fs::write(&path, &bytes).unwrap();
        let err = scan_dir(&dir, true).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_fsyncs_across_writers() {
        let dir = tmpdir("group");
        let wal = Wal::open(&dir, FsyncPolicy::GroupCommit(Duration::ZERO), 1 << 20, 1).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let epoch = t * 50 + i + 1;
                        let lsn = wal
                            .append(epoch, &render_wal_payload(&batch_payload(epoch)))
                            .unwrap();
                        wal.wait_durable(lsn).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.records, 200);
        assert!(
            stats.fsync_batches < 200,
            "group commit must coalesce: {stats:?}"
        );
        drop(wal);
        assert_eq!(scan_dir(&dir, false).unwrap().payloads.len(), 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_faults_are_absorbed_by_retry() {
        // A transient blip on an append and on an fsync: both retried
        // invisibly, nothing surfaces, the log scans back clean.
        let dir = tmpdir("transient");
        let plan = FaultPlan::none()
            .script(
                OpSel::NthOfKind(StorageOp::Append, 2),
                Fault::Transient { run: 2 },
            )
            .script(
                OpSel::NthOfKind(StorageOp::Fsync, 1),
                Fault::Transient { run: 1 },
            );
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let payloads: Vec<WalPayload> = (1..=3).map(batch_payload).collect();
        {
            let wal = Wal::open_with(
                Arc::new(fault.clone()),
                &dir,
                FsyncPolicy::Always,
                1 << 20,
                1,
                fast_retry(),
            )
            .unwrap();
            append_all(&wal, &payloads);
            let stats = wal.stats();
            assert!(stats.retries >= 3, "{stats:?}");
        }
        assert!(!fault.stats().injected.is_empty());
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(scan.payloads, payloads);
        assert!(!scan.torn_tail, "partial writes were truncated away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absorbed_segment_create_retry_is_counted() {
        let dir = tmpdir("create-retry");
        let plan = FaultPlan::none().script(
            OpSel::NthOfKind(StorageOp::Create, 0),
            Fault::Transient { run: 1 },
        );
        let wal = Wal::open_with(
            Arc::new(FaultVfs::new(Arc::new(StdVfs), plan)),
            &dir,
            FsyncPolicy::Never,
            1 << 20,
            1,
            fast_retry(),
        )
        .unwrap();
        append_all(&wal, &[batch_payload(1)]);
        assert_eq!(wal.stats().retries, 1);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_is_repaired_and_retried() {
        let dir = tmpdir("short");
        let plan =
            FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Append, 1), Fault::ShortWrite);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let payloads: Vec<WalPayload> = (1..=2).map(batch_payload).collect();
        {
            let wal = Wal::open_with(
                Arc::new(fault),
                &dir,
                FsyncPolicy::Always,
                1 << 20,
                1,
                fast_retry(),
            )
            .unwrap();
            append_all(&wal, &payloads);
        }
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(scan.payloads, payloads, "the torn half-frame never lands");
        assert!(!scan.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_fsync_failure_truncates_the_unacked_frame_and_probe_recovers() {
        let dir = tmpdir("fsync-fail");
        // The first data fsync (Fsync op 0) brings the sync path down
        // persistently until heal().
        let plan =
            FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Fsync, 0), Fault::FsyncFail);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let wal = Wal::open_with(
            Arc::new(fault.clone()),
            &dir,
            FsyncPolicy::Always,
            1 << 20,
            1,
            fast_retry(),
        )
        .unwrap();
        let err = wal
            .append(1, &render_wal_payload(&batch_payload(1)))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                StorageError::Io {
                    op: StorageOp::Fsync,
                    ..
                }
            ),
            "{err}"
        );
        assert!(!err.is_transient());
        assert!(err.to_string().contains("fsync"), "{err}");
        // The NACKed frame was truncated away: header-only segment.
        let scan = scan_dir(&dir, false).unwrap();
        assert!(scan.payloads.is_empty());
        assert!(!scan.torn_tail);
        // Storage heals; the probe journals a Health frame and appends
        // flow again.
        fault.heal();
        wal.probe(7).unwrap();
        append_all(&wal, &[batch_payload(2)]);
        drop(wal);
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(
            scan.payloads,
            vec![WalPayload::Health { epoch: 7 }, batch_payload(2)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flusher_give_up_fails_every_waiter_and_leaves_no_nacked_frames() {
        let dir = tmpdir("give-up");
        let plan =
            FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Fsync, 0), Fault::FsyncFail);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let wal = Wal::open_with(
            Arc::new(fault.clone()),
            &dir,
            FsyncPolicy::GroupCommit(Duration::from_millis(20)),
            1 << 20,
            1,
            fast_retry(),
        )
        .unwrap();
        // Two frames appended into the same (failing) fsync window.
        let lsn1 = wal
            .append(1, &render_wal_payload(&batch_payload(1)))
            .unwrap();
        let lsn2 = wal
            .append(2, &render_wal_payload(&batch_payload(2)))
            .unwrap();
        assert!(wal.wait_durable(lsn1).is_err(), "waiter 1 sees the failure");
        assert!(wal.wait_durable(lsn2).is_err(), "waiter 2 sees the failure");
        // Sticky: further appends fail fast without touching the disk.
        let err = wal
            .append(3, &render_wal_payload(&batch_payload(3)))
            .unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        // Neither NACKed frame survived on disk.
        let scan = scan_dir(&dir, false).unwrap();
        assert!(scan.payloads.is_empty(), "{:?}", scan.payloads);
        // Heal, probe, and the WAL serves appends again.
        fault.heal();
        wal.probe(2).unwrap();
        let lsn = wal
            .append(3, &render_wal_payload(&batch_payload(3)))
            .unwrap();
        wal.wait_durable(lsn).unwrap();
        drop(wal);
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(
            scan.payloads,
            vec![WalPayload::Health { epoch: 2 }, batch_payload(3)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_on_append_fails_cleanly_under_never_policy() {
        let dir = tmpdir("never-enospc");
        // Append op 1 is the first frame (op 0 is the segment header).
        let plan = FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Append, 1), Fault::Enospc);
        let fault = FaultVfs::new(Arc::new(StdVfs), plan);
        let wal = Wal::open_with(
            Arc::new(fault.clone()),
            &dir,
            FsyncPolicy::Never,
            1 << 20,
            1,
            fast_retry(),
        )
        .unwrap();
        let err = wal
            .append(1, &render_wal_payload(&batch_payload(1)))
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(
                &err,
                StorageError::Io {
                    op: StorageOp::Append,
                    ..
                }
            ) && msg.contains("wal-000001.log")
                && msg.contains("persistent"),
            "{msg}"
        );
        fault.heal();
        append_all(&wal, &[batch_payload(2)]);
        drop(wal);
        let scan = scan_dir(&dir, false).unwrap();
        assert_eq!(scan.payloads, vec![batch_payload(2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
