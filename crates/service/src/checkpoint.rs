//! Checkpoints: durable snapshots of the whole served view, so
//! recovery replays only the log *tail*.
//!
//! Freezing the state is an `Arc` bump (the [`ViewSnapshot`]
//! physically shares the CoW store with the writer), so the hot path
//! hands the frozen snapshot to a background thread ([`Checkpointer`])
//! and moves on; serialization, fsync, WAL
//! rotation, and pruning all happen off the write path. If a
//! checkpoint is requested while the previous one is still being
//! written, the request is dropped (`skipped_busy`) — a later epoch
//! will try again.
//!
//! # File format and validity
//!
//! A checkpoint `chk-<epoch>.ckpt` is textual:
//!
//! ```text
//! #mmv-checkpoint v1
//! meta epoch=<e> tickets=<n> mode=<plain|supports> op=<tp|wp> shards=1
//! shard 0 epoch=<e>
//! <entry line>*          (mmv_core::parser::render_entry)
//! #end crc=<crc32 of everything above>
//! ```
//!
//! The service writes one `shard` section. The reader parses any
//! number, so recovery can see — and refuse, by its shard count — a
//! checkpoint written with several sections.
//!
//! It is written to a temp file, fsynced, renamed into place, and the
//! directory fsynced — so a crash mid-write leaves no half-visible
//! checkpoint. The `#end` trailer is the validity mark:
//! [`load_newest`] takes the newest file whose trailer CRC matches and
//! silently falls back to an older checkpoint (or none: full replay)
//! past any file without one — the torn-tail contract, applied to
//! checkpoints. A file whose trailer *matches* but whose content does
//! not parse is damage, not a torn write, and fails with
//! [`StorageError::Corrupt`].
//!
//! After a checkpoint at epoch `e` is durable, the WAL is asked to
//! rotate, and segments fully covered by `e` (see
//! [`crate::wal::prune_segments`]) plus checkpoints older than the
//! previous one are deleted.
//!
//! # Failure handling
//!
//! All checkpoint IO goes through a [`Vfs`] and is retried under the
//! service's [`RetryPolicy`] while the failure is transient
//! ([`StorageError::is_transient`]) — the write-to-temp protocol makes
//! a whole-write retry idempotent. A failure that survives retries
//! **never kills the thread**: it counts into
//! [`CheckpointStats::failed`], degrades the service health
//! ([`crate::ServiceHealth::Degraded`] — batches still commit, but
//! recovery will replay a longer WAL tail), and the failed snapshot is
//! held and re-attempted on a timer until either it succeeds or a
//! newer snapshot supersedes it. The first subsequent success restores
//! the checkpoint path to healthy.

use crate::health::{Health, RetryPolicy};
use crate::snapshot::ViewSnapshot;
use crate::vfs::{StdVfs, StorageOp, Vfs};
use crate::wal::{crc32, prune_segments_with, StorageError, Wal};
use mmv_core::parser::{parse_entry, render_entry, render_wal_payload, ParsedEntry, WalPayload};
use mmv_core::tp::Operator;
use mmv_core::SupportMode;
use mmv_obs::{Counter, Gauge, Histogram, Unit};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cumulative checkpointer counters (see [`Checkpointer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints durably written.
    pub checkpoints: u64,
    /// Global epoch of the newest durable checkpoint.
    pub last_epoch: u64,
    /// Wall-clock of the last checkpoint write (serialize + fsync +
    /// rename), in microseconds.
    pub last_micros: u64,
    /// Sum of all checkpoint write times, in microseconds.
    pub total_micros: u64,
    /// Entries serialized by the last checkpoint.
    pub last_entries: u64,
    /// WAL segments deleted by pruning, cumulative.
    pub segments_pruned: u64,
    /// Requests dropped because a checkpoint was already in flight.
    pub skipped_busy: u64,
    /// Checkpoint attempts that failed with an I/O error (the service
    /// keeps running; recovery falls back to an older checkpoint).
    pub failed: u64,
}

/// The detached `mmv-obs` instruments behind [`CheckpointStats`].
///
/// The checkpointer bumps these lock-free from its thread;
/// [`Checkpointer::stats`] is a view over them and the service registers
/// the same handles into its metrics registry.
#[derive(Clone, Debug, Default)]
pub(crate) struct CheckpointMetrics {
    pub checkpoints: Counter,
    pub failed: Counter,
    pub skipped_busy: Counter,
    pub segments_pruned: Counter,
    pub total_micros: Counter,
    pub last_epoch: Gauge,
    pub last_micros: Gauge,
    pub last_entries: Gauge,
    /// Checkpoint write wall-clock in nanoseconds (serialize + fsync +
    /// rename), registered with `Unit::Seconds`.
    pub duration: Histogram,
}

impl CheckpointMetrics {
    fn snapshot(&self) -> CheckpointStats {
        CheckpointStats {
            checkpoints: self.checkpoints.get(),
            last_epoch: self.last_epoch.get() as u64,
            last_micros: self.last_micros.get() as u64,
            total_micros: self.total_micros.get(),
            last_entries: self.last_entries.get() as u64,
            segments_pruned: self.segments_pruned.get(),
            skipped_busy: self.skipped_busy.get(),
            failed: self.failed.get(),
        }
    }

    /// Registers every instrument under its `mmv_checkpoint_` name.
    pub(crate) fn register_into(&self, registry: &mmv_obs::MetricsRegistry) {
        registry.register_counter(
            "mmv_checkpoints_total",
            "Checkpoints durably written",
            &[],
            &self.checkpoints,
        );
        registry.register_counter(
            "mmv_checkpoint_failed_total",
            "Checkpoint attempts that failed with an I/O error",
            &[],
            &self.failed,
        );
        registry.register_counter(
            "mmv_checkpoint_skipped_busy_total",
            "Checkpoint requests dropped because one was in flight",
            &[],
            &self.skipped_busy,
        );
        registry.register_counter(
            "mmv_checkpoint_segments_pruned_total",
            "WAL segments deleted by checkpoint pruning",
            &[],
            &self.segments_pruned,
        );
        registry.register_gauge(
            "mmv_checkpoint_last_epoch",
            "Global epoch of the newest durable checkpoint",
            &[],
            &self.last_epoch,
        );
        registry.register_gauge(
            "mmv_checkpoint_last_entries",
            "Entries serialized by the last checkpoint",
            &[],
            &self.last_entries,
        );
        registry.register_histogram(
            "mmv_checkpoint_seconds",
            "Checkpoint write wall-clock (serialize + fsync + rename)",
            Unit::Seconds,
            &[],
            &self.duration,
        );
    }
}

struct Job {
    snapshot: Arc<ViewSnapshot>,
    tickets: u64,
}

/// The background checkpoint writer: owns the thread, accepts frozen
/// snapshots, and keeps counters.
pub struct Checkpointer {
    tx: Option<SyncSender<Job>>,
    handle: Option<JoinHandle<()>>,
    metrics: CheckpointMetrics,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Checkpointer {
    /// `Checkpointer::spawn_with` through the production [`StdVfs`],
    /// a default retry policy, a detached health cell, and a 250 ms
    /// re-attempt timer.
    pub fn spawn(dir: PathBuf, op: Operator, wal: Arc<Wal>) -> Checkpointer {
        Checkpointer::spawn_with(
            Arc::new(StdVfs),
            dir,
            op,
            wal,
            RetryPolicy::default(),
            Arc::new(Health::default()),
            Duration::from_millis(250),
        )
    }

    /// Spawns the checkpoint thread for `dir`. `wal` is asked to
    /// rotate after each durable checkpoint, and pruning runs against
    /// the same directory. Transient IO failures retry under `retry`;
    /// persistent ones degrade `health` and re-attempt every
    /// `retry_interval` without ever killing the thread.
    pub(crate) fn spawn_with(
        vfs: Arc<dyn Vfs>,
        dir: PathBuf,
        op: Operator,
        wal: Arc<Wal>,
        retry: RetryPolicy,
        health: Arc<Health>,
        retry_interval: Duration,
    ) -> Checkpointer {
        let metrics = CheckpointMetrics::default();
        let thread_metrics = metrics.clone();
        let (tx, rx) = sync_channel::<Job>(1);
        let handle = std::thread::Builder::new()
            .name("mmv-checkpointer".into())
            .spawn(move || {
                checkpoint_loop(
                    &rx,
                    &*vfs,
                    &dir,
                    op,
                    &wal,
                    retry,
                    &health,
                    retry_interval,
                    &thread_metrics,
                );
            })
            .expect("spawn checkpointer");
        Checkpointer {
            tx: Some(tx),
            handle: Some(handle),
            metrics,
        }
    }

    /// Hands a frozen snapshot to the checkpoint thread. Returns
    /// `false` (and counts `skipped_busy`) if one is already being
    /// written — checkpointing is best-effort off the hot path.
    pub fn request(&self, snapshot: Arc<ViewSnapshot>, tickets: u64) -> bool {
        let Some(tx) = &self.tx else { return false };
        match tx.try_send(Job { snapshot, tickets }) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.metrics.skipped_busy.inc();
                false
            }
        }
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> CheckpointStats {
        self.metrics.snapshot()
    }

    /// The detached instrument handles, for registry registration.
    pub(crate) fn metrics(&self) -> CheckpointMetrics {
        self.metrics.clone()
    }

    /// Drains the queue and waits for any in-flight checkpoint — the
    /// clean-shutdown path, so tests can assert on durable state.
    pub fn flush(&mut self) {
        if let Some(tx) = self.tx.take() {
            drop(tx);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The checkpoint thread body: receive a frozen snapshot, write it
/// (whole-write retry on transient faults), and on a persistent
/// failure hold the job — degraded, re-attempting on a timer, replaced
/// whenever a newer snapshot arrives — instead of dying.
#[expect(
    clippy::too_many_arguments,
    reason = "the thread body takes what the spawner moved in"
)]
#[expect(
    clippy::disallowed_methods,
    reason = "times the background checkpoint, off the batch write path"
)]
fn checkpoint_loop(
    rx: &Receiver<Job>,
    vfs: &dyn Vfs,
    dir: &Path,
    op: Operator,
    wal: &Wal,
    retry: RetryPolicy,
    health: &Health,
    retry_interval: Duration,
    metrics: &CheckpointMetrics,
) {
    let mut held: Option<Job> = None;
    let mut disconnected = false;
    loop {
        let job = match held.take() {
            Some(j) => j,
            None if disconnected => return,
            None => match rx.recv() {
                Ok(j) => j,
                Err(_) => return,
            },
        };
        let start = Instant::now();
        let epoch = job.snapshot.epoch();
        let entries = job.snapshot.len() as u64;
        let attempt = retry.run(
            None,
            || write_checkpoint_with(vfs, dir, &job.snapshot, job.tickets, op),
            StorageError::is_transient,
        );
        match attempt {
            Ok(_) => {
                health.checkpoint_ok();
                // Rotation first, so records appended from here on
                // land in a segment the *next* checkpoint can prune
                // everything before.
                wal.request_rotation();
                let _ = wal.append(
                    epoch,
                    &render_wal_payload(&WalPayload::Checkpoint { epoch }),
                );
                let pruned = prune_segments_with(vfs, dir, epoch).unwrap_or(0);
                let _ = prune_checkpoints_with(vfs, dir, epoch);
                let took = start.elapsed();
                let micros = took.as_micros() as u64;
                metrics.checkpoints.inc();
                metrics.last_epoch.set_max(epoch as i64);
                metrics.last_micros.set(micros as i64);
                metrics.total_micros.add(micros);
                metrics.last_entries.set(entries as i64);
                metrics.segments_pruned.add(pruned);
                metrics.duration.observe_nanos(took);
            }
            Err(e) => {
                metrics.failed.inc();
                health.checkpoint_failed(&format!("checkpoint at epoch {epoch}: {e}"));
                if disconnected {
                    // Shutdown already requested: this was the final
                    // attempt.
                    return;
                }
                // Hold the snapshot and re-attempt on a timer; a newer
                // one supersedes it (checkpoints are cumulative — only
                // the newest matters).
                held = Some(match rx.recv_timeout(retry_interval) {
                    Ok(newer) => newer,
                    Err(RecvTimeoutError::Timeout) => job,
                    Err(RecvTimeoutError::Disconnected) => {
                        disconnected = true;
                        job
                    }
                });
            }
        }
    }
}

fn mode_name(mode: SupportMode) -> &'static str {
    match mode {
        SupportMode::Plain => "plain",
        SupportMode::WithSupports => "supports",
    }
}

fn op_name(op: Operator) -> &'static str {
    match op {
        Operator::Tp => "tp",
        Operator::Wp => "wp",
    }
}

/// [`write_checkpoint_with`] through the production [`StdVfs`].
pub fn write_checkpoint(
    dir: &Path,
    snapshot: &ViewSnapshot,
    tickets: u64,
    op: Operator,
) -> Result<PathBuf, StorageError> {
    write_checkpoint_with(&StdVfs, dir, snapshot, tickets, op)
}

/// Serializes and durably writes one checkpoint; returns its path.
/// Write-to-temp, fsync, rename, fsync-dir — never a half-visible
/// file, and therefore safe to re-run wholesale after any failure.
pub fn write_checkpoint_with(
    vfs: &dyn Vfs,
    dir: &Path,
    snapshot: &ViewSnapshot,
    tickets: u64,
    op: Operator,
) -> Result<PathBuf, StorageError> {
    let mut body = String::new();
    body.push_str("#mmv-checkpoint v1\n");
    writeln!(
        body,
        "meta epoch={epoch} tickets={tickets} mode={} op={} shards=1\nshard 0 epoch={epoch}",
        mode_name(snapshot.mode()),
        op_name(op),
        epoch = snapshot.epoch(),
    )
    .expect("write to String");
    for (_, e) in snapshot.view().live_entries() {
        body.push_str(&render_entry(&e.atom, e.support.as_ref(), &e.children_args));
        body.push('\n');
    }
    let trailer = format!("#end crc={:08x}\n", crc32(body.as_bytes()));
    let path = dir.join(format!("chk-{:012}.ckpt", snapshot.epoch()));
    let tmp = dir.join(format!("chk-{:012}.ckpt.tmp", snapshot.epoch()));
    {
        let f = vfs
            .create(&tmp)
            .map_err(|e| StorageError::io(StorageOp::Create, tmp.clone(), e))?;
        f.write_all(body.as_bytes())
            .map_err(|e| StorageError::io(StorageOp::Append, tmp.clone(), e))?;
        f.write_all(trailer.as_bytes())
            .map_err(|e| StorageError::io(StorageOp::Append, tmp.clone(), e))?;
        f.sync_data()
            .map_err(|e| StorageError::io(StorageOp::Fsync, tmp.clone(), e))?;
    }
    vfs.rename(&tmp, &path)
        .map_err(|e| StorageError::io(StorageOp::Rename, path.clone(), e))?;
    vfs.sync_dir(dir)
        .map_err(|e| StorageError::io(StorageOp::SyncDir, dir, e))?;
    Ok(path)
}

/// One recovered checkpoint: the global state at `epoch`.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The global epoch the checkpoint covers (every record with a
    /// larger epoch must be replayed from the WAL).
    pub epoch: u64,
    /// The external-insertion ticket counter at checkpoint time.
    pub tickets: u64,
    /// The view's support mode.
    pub mode: SupportMode,
    /// The fixpoint operator the view was built under.
    pub op: Operator,
    /// Per shard, in id order: the shard's epoch and its entries.
    pub shards: Vec<(u64, Vec<ParsedEntry>)>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "recovery read: checkpoint discovery precedes the Vfs-fronted service"
)]
fn checkpoint_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(epoch) = name
            .strip_prefix("chk-")
            .and_then(|r| r.strip_suffix(".ckpt"))
            .and_then(|d| d.parse::<u64>().ok())
        {
            out.push((epoch, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Loads the newest *valid* checkpoint in `dir` (highest epoch whose
/// `#end` trailer CRC matches), silently skipping torn ones. `None`
/// if no valid checkpoint exists — recovery then replays the whole
/// WAL. A checkpoint with an intact trailer but unparseable content
/// is [`StorageError::Corrupt`].
#[expect(
    clippy::disallowed_methods,
    reason = "recovery read: checkpoint load precedes the Vfs-fronted service"
)]
pub fn load_newest(dir: &Path) -> Result<Option<LoadedCheckpoint>, StorageError> {
    let files = checkpoint_files(dir).map_err(|e| StorageError::io(StorageOp::ReadDir, dir, e))?;
    for (_, path) in files.iter().rev() {
        let bytes =
            std::fs::read(path).map_err(|e| StorageError::io(StorageOp::Read, path.clone(), e))?;
        let Some(body) = validate_trailer(&bytes) else {
            continue; // torn checkpoint: fall back to an older one
        };
        let parsed = parse_checkpoint(body).map_err(|detail| StorageError::Corrupt {
            file: path.clone(),
            offset: 0,
            detail,
        })?;
        return Ok(Some(parsed));
    }
    Ok(None)
}

/// Checks the `#end crc=` trailer; returns the body text when intact.
fn validate_trailer(bytes: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(bytes).ok()?;
    let idx = text.rfind("\n#end crc=")?;
    let body = &text[..idx + 1];
    let crc = text[idx + 1..]
        .trim_end()
        .strip_prefix("#end crc=")
        .and_then(|h| u32::from_str_radix(h, 16).ok())?;
    (crc32(body.as_bytes()) == crc).then_some(body)
}

fn meta_field(fields: &mut std::str::SplitWhitespace<'_>, key: &str) -> Result<String, String> {
    let field = fields.next().ok_or_else(|| format!("missing {key}="))?;
    field
        .strip_prefix(key)
        .and_then(|v| v.strip_prefix('='))
        .map(str::to_string)
        .ok_or_else(|| format!("expected {key}=, found {field:?}"))
}

fn parse_checkpoint(body: &str) -> Result<LoadedCheckpoint, String> {
    let mut lines = body.lines();
    if lines.next() != Some("#mmv-checkpoint v1") {
        return Err("bad checkpoint header".into());
    }
    let meta = lines.next().ok_or("missing meta line")?;
    let mut fields = meta.split_whitespace();
    if fields.next() != Some("meta") {
        return Err("missing meta line".into());
    }
    let epoch: u64 = meta_field(&mut fields, "epoch")?
        .parse()
        .map_err(|_| "bad epoch")?;
    let tickets: u64 = meta_field(&mut fields, "tickets")?
        .parse()
        .map_err(|_| "bad tickets")?;
    let mode = match meta_field(&mut fields, "mode")?.as_str() {
        "plain" => SupportMode::Plain,
        "supports" => SupportMode::WithSupports,
        m => return Err(format!("unknown mode {m:?}")),
    };
    let op = match meta_field(&mut fields, "op")?.as_str() {
        "tp" => Operator::Tp,
        "wp" => Operator::Wp,
        o => return Err(format!("unknown op {o:?}")),
    };
    let shard_count: usize = meta_field(&mut fields, "shards")?
        .parse()
        .map_err(|_| "bad shards")?;
    let mut shards: Vec<(u64, Vec<ParsedEntry>)> = Vec::with_capacity(shard_count);
    for line in lines {
        if let Some(rest) = line.strip_prefix("shard ") {
            let (id, epoch_field) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad shard line {line:?}"))?;
            let id: usize = id.parse().map_err(|_| format!("bad shard id {id:?}"))?;
            if id != shards.len() {
                return Err(format!("shard {id} out of order"));
            }
            let shard_epoch: u64 = epoch_field
                .strip_prefix("epoch=")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad shard epoch {epoch_field:?}"))?;
            shards.push((shard_epoch, Vec::new()));
        } else {
            let shard = shards
                .last_mut()
                .ok_or_else(|| format!("entry before first shard: {line:?}"))?;
            shard
                .1
                .push(parse_entry(line).map_err(|e| format!("bad entry: {e}"))?);
        }
    }
    if shards.len() != shard_count {
        return Err(format!(
            "expected {shard_count} shards, found {}",
            shards.len()
        ));
    }
    Ok(LoadedCheckpoint {
        epoch,
        tickets,
        mode,
        op,
        shards,
    })
}

/// [`prune_checkpoints_with`] through the production [`StdVfs`].
pub fn prune_checkpoints(dir: &Path, epoch: u64) -> Result<u64, StorageError> {
    prune_checkpoints_with(&StdVfs, dir, epoch)
}

/// Deletes checkpoints older than the one *preceding* `epoch` — the
/// newest and its immediate predecessor are kept (the predecessor is
/// the fallback if the newest is later found damaged).
pub fn prune_checkpoints_with(vfs: &dyn Vfs, dir: &Path, epoch: u64) -> Result<u64, StorageError> {
    let files = checkpoint_files(dir).map_err(|e| StorageError::io(StorageOp::ReadDir, dir, e))?;
    let keep_from = files
        .iter()
        .filter(|(e, _)| *e < epoch)
        .map(|(e, _)| *e)
        .next_back()
        .unwrap_or(epoch);
    let mut deleted = 0;
    for (e, path) in &files {
        if *e < keep_from {
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

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests stage and corrupt checkpoints behind the Vfs"
)]
mod tests {
    use super::*;
    use mmv_constraints::{Constraint, Term, VarGen};
    use mmv_core::{ConstrainedAtom, MaterializedView};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmv-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_with(n: i64, epoch: u64) -> ViewSnapshot {
        let mut view = MaterializedView::new(SupportMode::Plain, VarGen::starting_at(0));
        for i in 0..n {
            view.insert(
                ConstrainedAtom::new("p", vec![Term::int(i)], Constraint::truth()),
                None,
                vec![],
            );
        }
        ViewSnapshot::new(epoch, view)
    }

    #[test]
    fn checkpoints_round_trip_and_newest_valid_wins() {
        let dir = tmpdir("roundtrip");
        write_checkpoint(&dir, &snapshot_with(3, 5), 7, Operator::Tp).unwrap();
        write_checkpoint(&dir, &snapshot_with(4, 9), 11, Operator::Tp).unwrap();
        let loaded = load_newest(&dir).unwrap().unwrap();
        assert_eq!(loaded.epoch, 9);
        assert_eq!(loaded.tickets, 11);
        assert_eq!(loaded.mode, SupportMode::Plain);
        assert_eq!(loaded.op, Operator::Tp);
        assert_eq!(loaded.shards.len(), 1);
        assert_eq!(loaded.shards[0].1.len(), 4);

        // Tear the newest: loader falls back to epoch 5.
        let newest = dir.join(format!("chk-{:012}.ckpt", 9));
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 9]).unwrap();
        let loaded = load_newest(&dir).unwrap().unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.shards[0].1.len(), 3);

        // A trailer-intact but mangled body is corruption.
        let old = dir.join(format!("chk-{:012}.ckpt", 5));
        let text = std::fs::read_to_string(&old).unwrap();
        let mangled = text.replace("mode=plain", "mode=martian");
        let idx = mangled.rfind("\n#end crc=").unwrap();
        let body = &mangled[..idx + 1];
        let fixed = format!("{body}#end crc={:08x}\n", crc32(body.as_bytes()));
        std::fs::write(&newest, "").unwrap();
        std::fs::write(&old, fixed).unwrap();
        assert!(matches!(
            load_newest(&dir),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_loads_none_and_pruning_keeps_two() {
        let dir = tmpdir("prune");
        assert!(load_newest(&dir).unwrap().is_none());
        for (n, e) in [(1, 2), (2, 4), (3, 6), (4, 8)] {
            write_checkpoint(&dir, &snapshot_with(n, e), 0, Operator::Wp).unwrap();
        }
        let deleted = prune_checkpoints(&dir, 8).unwrap();
        assert_eq!(deleted, 2, "epochs 2 and 4 go, 6 and 8 stay");
        let loaded = load_newest(&dir).unwrap().unwrap();
        assert_eq!(loaded.epoch, 8);
        assert_eq!(loaded.op, Operator::Wp);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
