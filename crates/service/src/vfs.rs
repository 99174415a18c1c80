//! The virtual filesystem under all durable storage: every byte the
//! WAL ([`crate::wal`]) or the checkpointer ([`crate::checkpoint`])
//! moves goes through a [`Vfs`], so storage failure modes are testable
//! without root, loop devices, or luck.
//!
//! [`StdVfs`] is the production implementation (thin delegation to
//! `std::fs`). [`FaultVfs`] wraps any inner `Vfs` and injects faults —
//! transient EIO, persistent EIO/ENOSPC, fsync failures, short (torn)
//! writes, and a full crash after the n-th operation — deterministically
//! from a seeded [`FaultPlan`], so every torture-suite failure replays
//! from its seed. Only *mutating* operations draw faults; reads are
//! left alone (recovery reads with [`StdVfs`] anyway).
//!
//! The injected error classes mirror the retry contract of
//! [`crate::wal::StorageError::is_transient`]: transient faults are
//! `ErrorKind::Interrupted` (absorbed by [`crate::RetryPolicy`]),
//! persistent ones are raw `EIO`/`ENOSPC` (surfaced, flipping the
//! service read-only until the fault heals).

use mmv_obs::sync::lock_clean;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The storage operation being attempted — attribution for
/// [`crate::wal::StorageError`] and the selector vocabulary for
/// scripted faults ([`OpSel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum StorageOp {
    /// Creating a file (WAL segment, checkpoint temp file).
    Create,
    /// Appending bytes to an open file.
    Append,
    /// `fdatasync` of a file.
    Fsync,
    /// fsync of a directory (making renames/creates durable).
    SyncDir,
    /// Renaming a file into place.
    Rename,
    /// Deleting a file (pruning).
    Remove,
    /// Truncating a file (torn-tail repair, rollback).
    Truncate,
    /// Reading a file.
    Read,
    /// Listing a directory.
    ReadDir,
}

impl fmt::Display for StorageOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StorageOp::Create => "create",
            StorageOp::Append => "append",
            StorageOp::Fsync => "fsync",
            StorageOp::SyncDir => "sync-dir",
            StorageOp::Rename => "rename",
            StorageOp::Remove => "remove",
            StorageOp::Truncate => "truncate",
            StorageOp::Read => "read",
            StorageOp::ReadDir => "read-dir",
        };
        f.write_str(name)
    }
}

/// An open file handle under a [`Vfs`]. Writes go to the end (all
/// mutable WAL/checkpoint files are append-shaped); `set_len` is the
/// torn-frame repair path.
pub trait VfsFile: Send + Sync {
    /// Appends all of `buf`.
    fn write_all(&self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`.
    fn sync_data(&self) -> io::Result<()>;
    /// Truncates (or extends) to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// Every filesystem operation durable storage performs. Implementations
/// must be shareable across the writer, flusher, checkpointer, and
/// probe threads.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates `path`, failing with `AlreadyExists` if present, opened
    /// for appending.
    fn create_new_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>>;
    /// Opens an existing `path` for appending (and truncation).
    fn open_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>>;
    /// Creates or truncates `path` for writing (checkpoint temp files).
    fn create(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>>;
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The file names (not paths) inside `dir`.
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// fsyncs the directory itself, making entry changes durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Registers any counters this Vfs keeps into `registry`. The
    /// production [`StdVfs`] keeps none (default no-op); [`FaultVfs`]
    /// exposes its operation and injected-fault counters, so a durable
    /// service built over fault injection reports them in every scrape.
    fn register_metrics(&self, registry: &mmv_obs::MetricsRegistry) {
        let _ = registry;
    }
}

// ---------------------------------------------------------------------
// StdVfs

/// The production [`Vfs`]: `std::fs`, nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        (&self.0).write_all(buf)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

#[expect(clippy::disallowed_methods, reason = "the production Vfs is std::fs")]
impl Vfs for StdVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn create_new_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let f = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)?;
        Ok(Arc::new(StdFile(f)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        let f = OpenOptions::new().append(true).open(path)?;
        Ok(Arc::new(StdFile(f)))
    }

    fn create(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        Ok(Arc::new(StdFile(File::create(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

// ---------------------------------------------------------------------
// FaultVfs

/// What a scripted or randomly drawn fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// A run of transient `EINTR`-class failures: the next `run`
    /// eligible operations (including the faulted one) fail with
    /// `ErrorKind::Interrupted` — the class [`crate::RetryPolicy`]
    /// absorbs.
    Transient {
        /// How many consecutive eligible operations fail.
        run: u32,
    },
    /// Persistent `EIO`: every mutating operation fails until
    /// [`FaultVfs::heal`].
    Eio,
    /// Persistent `ENOSPC`: every mutating operation fails until
    /// [`FaultVfs::heal`].
    Enospc,
    /// Persistent fsync failure: `sync_data`/`sync_dir` fail with `EIO`
    /// until [`FaultVfs::heal`]; other operations succeed. The classic
    /// "writes land, durability doesn't" device.
    FsyncFail,
    /// A short (torn) write: half the buffer reaches the file, then the
    /// write reports `ErrorKind::Interrupted`. One-shot.
    ShortWrite,
    /// Simulated crash: this and every later operation fail with `EIO`,
    /// freezing the directory as the crash image. Not healable.
    Crash,
}

/// Selects which operation a [`ScriptedFault`] fires on.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OpSel {
    /// The n-th fault-eligible operation overall (0-based).
    Nth(u64),
    /// The n-th operation of the given kind (0-based).
    NthOfKind(StorageOp, u64),
    /// Every operation whose path contains the substring, until
    /// [`FaultVfs::heal`].
    PathContains(String),
}

/// One scripted fault: fire `fault` at the operations `sel` selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Which operation(s) to fault.
    pub sel: OpSel,
    /// What happens there.
    pub fault: Fault,
}

/// A deterministic fault schedule: scripted faults checked first, then
/// a seeded random draw per eligible operation. All rates are per
/// mille (‰) of eligible operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The PRNG seed (splitmix64); the whole schedule is a pure
    /// function of the seed and the operation sequence.
    pub seed: u64,
    /// Rate of transient-run faults.
    pub transient_per_mille: u16,
    /// Longest transient run a draw can start (runs are 1..=this).
    pub max_transient_run: u32,
    /// Rate of one-shot short writes (write operations only).
    pub short_write_per_mille: u16,
    /// Rate of persistent faults (alternating EIO / ENOSPC).
    pub persistent_per_mille: u16,
    /// Rate of simulated crashes.
    pub crash_per_mille: u16,
    /// Scripted faults, checked before any random draw.
    pub scripted: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// No faults at all (a transparent wrapper — useful to count ops).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            transient_per_mille: 0,
            max_transient_run: 1,
            short_write_per_mille: 0,
            persistent_per_mille: 0,
            crash_per_mille: 0,
            scripted: Vec::new(),
        }
    }

    /// The torture-suite default mix for `seed`: frequent transient
    /// runs (absorbed by retry), occasional short writes and persistent
    /// faults, no random crashes (the crash sweep scripts those
    /// explicitly via [`FaultPlan::script`]).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_per_mille: 40,
            max_transient_run: 2,
            short_write_per_mille: 15,
            persistent_per_mille: 8,
            crash_per_mille: 0,
            scripted: Vec::new(),
        }
    }

    /// Adds a scripted fault.
    pub fn script(mut self, sel: OpSel, fault: Fault) -> FaultPlan {
        self.scripted.push(ScriptedFault { sel, fault });
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counters a [`FaultVfs`] keeps (see [`FaultVfs::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault-eligible (mutating) operations seen.
    pub ops: u64,
    /// Operation indices at which a fault first fired (the crash sweep
    /// re-runs with a scripted crash at each of these).
    pub injected: Vec<u64>,
}

struct FaultState {
    rng: u64,
    ops: u64,
    /// Detached mirrors of `ops` / `injected.len()` for the metrics
    /// registry (readable without this mutex).
    m_ops: mmv_obs::Counter,
    m_injected: mmv_obs::Counter,
    kind_ops: [u64; 9],
    transient_left: u32,
    persistent: Option<Fault>,
    sync_down: bool,
    crashed: bool,
    flip: bool,
    injected: Vec<u64>,
    plan: FaultPlan,
}

/// A deterministic fault-injecting [`Vfs`] wrapper. See the module
/// docs; construct with [`FaultVfs::new`], script via [`FaultPlan`],
/// clear persistent faults with [`FaultVfs::heal`].
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Mutex<FaultState>,
}

impl fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = lock_clean(&self.state);
        f.debug_struct("FaultVfs")
            .field("seed", &s.plan.seed)
            .field("ops", &s.ops)
            .field("injected", &s.injected.len())
            .field("crashed", &s.crashed)
            .finish()
    }
}

/// splitmix64: the one-liner PRNG behind the deterministic draws.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn op_index(op: StorageOp) -> usize {
    match op {
        StorageOp::Create => 0,
        StorageOp::Append => 1,
        StorageOp::Fsync => 2,
        StorageOp::SyncDir => 3,
        StorageOp::Rename => 4,
        StorageOp::Remove => 5,
        StorageOp::Truncate => 6,
        StorageOp::Read => 7,
        StorageOp::ReadDir => 8,
    }
}

fn eio() -> io::Error {
    io::Error::from_raw_os_error(5) // EIO
}

fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

fn transient_err() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient fault")
}

/// The decision for one eligible operation.
enum Verdict {
    Ok,
    Fail(io::Error),
    /// Write a prefix of the buffer, then fail.
    Short,
}

impl FaultVfs {
    /// Wraps `inner` with the fault schedule of `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> Arc<FaultVfs> {
        Arc::new(FaultVfs {
            inner,
            state: Mutex::new(FaultState {
                rng: plan.seed ^ 0xA076_1D64_78BD_642F,
                ops: 0,
                m_ops: mmv_obs::Counter::new(),
                m_injected: mmv_obs::Counter::new(),
                kind_ops: [0; 9],
                transient_left: 0,
                persistent: None,
                sync_down: false,
                crashed: false,
                flip: false,
                injected: Vec::new(),
                plan,
            }),
        })
    }

    /// Clears persistent faults (EIO, ENOSPC, fsync-down, and
    /// `PathContains` scripts) — "the disk came back". A simulated
    /// crash is not healable.
    pub fn heal(&self) {
        let mut s = lock_clean(&self.state);
        s.persistent = None;
        s.sync_down = false;
        s.transient_left = 0;
        s.plan
            .scripted
            .retain(|f| !matches!(f.sel, OpSel::PathContains(_)));
    }

    /// Whether a simulated crash has fired (every later op fails; the
    /// directory is frozen as the crash image).
    pub fn crashed(&self) -> bool {
        lock_clean(&self.state).crashed
    }

    /// Operation counters and the indices where faults fired.
    pub fn stats(&self) -> FaultStats {
        let s = lock_clean(&self.state);
        FaultStats {
            ops: s.ops,
            injected: s.injected.clone(),
        }
    }

    fn apply_fault(s: &mut FaultState, idx: u64, fault: Fault, is_write: bool) -> Verdict {
        s.injected.push(idx);
        s.m_injected.inc();
        match fault {
            Fault::Transient { run } => {
                s.transient_left = run.saturating_sub(1);
                Verdict::Fail(transient_err())
            }
            Fault::Eio => {
                s.persistent = Some(Fault::Eio);
                Verdict::Fail(eio())
            }
            Fault::Enospc => {
                s.persistent = Some(Fault::Enospc);
                Verdict::Fail(enospc())
            }
            Fault::FsyncFail => {
                s.sync_down = true;
                Verdict::Fail(eio())
            }
            Fault::ShortWrite if is_write => Verdict::Short,
            Fault::ShortWrite => Verdict::Fail(transient_err()),
            Fault::Crash => {
                s.crashed = true;
                Verdict::Fail(eio())
            }
        }
    }

    /// One eligible operation: advance the counters, consult the
    /// scripts, then the random bands.
    fn decide(&self, op: StorageOp, path: &Path) -> Verdict {
        let s = &mut *lock_clean(&self.state);
        let idx = s.ops;
        s.ops += 1;
        s.m_ops.inc();
        let kidx = op_index(op);
        let kop = s.kind_ops[kidx];
        s.kind_ops[kidx] += 1;
        if s.crashed {
            return Verdict::Fail(io::Error::new(
                eio().kind(),
                format!("simulated crash: {op} {}", path.display()),
            ));
        }
        let is_write = matches!(op, StorageOp::Append);
        let is_sync = matches!(op, StorageOp::Fsync | StorageOp::SyncDir);
        // Scripted faults outrank everything (they exist to pin a test
        // to an exact op).
        let scripted = s.plan.scripted.iter().find_map(|f| {
            let (hit, path_scoped) = match &f.sel {
                OpSel::Nth(n) => (*n == idx, false),
                OpSel::NthOfKind(k, n) => (*k == op && *n == kop, false),
                OpSel::PathContains(sub) => (path.to_string_lossy().contains(sub.as_str()), true),
            };
            hit.then_some((f.fault, path_scoped))
        });
        if let Some((fault, path_scoped)) = scripted {
            if !path_scoped {
                return Self::apply_fault(s, idx, fault, is_write);
            }
            // A path-scoped script faults only matching paths: the
            // script entry itself persists until heal(), so it must
            // not poison the global sticky state.
            s.injected.push(idx);
            s.m_injected.inc();
            return match fault {
                Fault::Enospc => Verdict::Fail(enospc()),
                Fault::Transient { .. } => Verdict::Fail(transient_err()),
                Fault::ShortWrite if is_write => Verdict::Short,
                Fault::ShortWrite => Verdict::Fail(transient_err()),
                Fault::Crash => {
                    s.crashed = true;
                    Verdict::Fail(eio())
                }
                Fault::Eio | Fault::FsyncFail => Verdict::Fail(eio()),
            };
        }
        if let Some(p) = s.persistent {
            return Verdict::Fail(match p {
                Fault::Enospc => enospc(),
                _ => eio(),
            });
        }
        if s.sync_down && is_sync {
            return Verdict::Fail(eio());
        }
        if s.transient_left > 0 {
            s.transient_left -= 1;
            return Verdict::Fail(transient_err());
        }
        let plan = s.plan.clone();
        let draw = (splitmix64(&mut s.rng) % 1000) as u16;
        let mut band = 0u16;
        let mut in_band = |rate: u16| {
            band += rate;
            draw < band
        };
        if in_band(plan.crash_per_mille) {
            return Self::apply_fault(s, idx, Fault::Crash, is_write);
        }
        if in_band(plan.persistent_per_mille) {
            // Alternate the two persistent classes deterministically.
            s.flip = !s.flip;
            let fault = if s.flip { Fault::Eio } else { Fault::Enospc };
            return Self::apply_fault(s, idx, fault, is_write);
        }
        if in_band(plan.short_write_per_mille) && is_write {
            return Self::apply_fault(s, idx, Fault::ShortWrite, is_write);
        }
        if in_band(plan.transient_per_mille) {
            let run =
                1 + (splitmix64(&mut s.rng) % u64::from(plan.max_transient_run.max(1))) as u32;
            return Self::apply_fault(s, idx, Fault::Transient { run }, is_write);
        }
        Verdict::Ok
    }

    fn gate(&self, op: StorageOp, path: &Path) -> io::Result<()> {
        match self.decide(op, path) {
            Verdict::Ok => Ok(()),
            Verdict::Fail(e) => Err(e),
            // Short writes only make sense on writes; elsewhere they
            // degrade to a plain transient failure.
            Verdict::Short => Err(transient_err()),
        }
    }
}

struct FaultFile {
    vfs: Arc<FaultVfs>,
    inner: Arc<dyn VfsFile>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        match self.vfs.decide(StorageOp::Append, &self.path) {
            Verdict::Ok => self.inner.write_all(buf),
            Verdict::Fail(e) => Err(e),
            Verdict::Short => {
                // Half the frame lands — the torn write the repair
                // path (truncate-to-start) must clean up.
                self.inner.write_all(&buf[..buf.len() / 2])?;
                Err(transient_err())
            }
        }
    }

    fn sync_data(&self) -> io::Result<()> {
        self.vfs.gate(StorageOp::Fsync, &self.path)?;
        self.inner.sync_data()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.vfs.gate(StorageOp::Truncate, &self.path)?;
        self.inner.set_len(len)
    }
}

/// `Vfs` for `Arc<FaultVfs>` so the wrapper can hand clones of itself
/// to the files it opens.
impl Vfs for Arc<FaultVfs> {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation happens once at open; not fault-eligible.
        self.inner.create_dir_all(dir)
    }

    fn create_new_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.gate(StorageOp::Create, path)?;
        let f = self.inner.create_new_append(path)?;
        Ok(Arc::new(FaultFile {
            vfs: self.clone(),
            inner: f,
            path: path.to_path_buf(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.gate(StorageOp::Create, path)?;
        let f = self.inner.open_append(path)?;
        Ok(Arc::new(FaultFile {
            vfs: self.clone(),
            inner: f,
            path: path.to_path_buf(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.gate(StorageOp::Create, path)?;
        let f = self.inner.create(path)?;
        Ok(Arc::new(FaultFile {
            vfs: self.clone(),
            inner: f,
            path: path.to_path_buf(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(StorageOp::Rename, to)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(StorageOp::Remove, path)?;
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.gate(StorageOp::SyncDir, dir)?;
        self.inner.sync_dir(dir)
    }

    fn register_metrics(&self, registry: &mmv_obs::MetricsRegistry) {
        let s = lock_clean(&self.state);
        registry.register_counter(
            "mmv_vfs_fault_ops_total",
            "Fault-eligible storage operations seen by the FaultVfs",
            &[],
            &s.m_ops,
        );
        registry.register_counter(
            "mmv_vfs_faults_injected_total",
            "Storage faults the FaultVfs injected",
            &[],
            &s.m_injected,
        );
        self.inner.register_metrics(registry);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check the Vfs against the files it wrote"
)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmv-vfs-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips() {
        let dir = tmpdir("std");
        let vfs = StdVfs;
        let f = vfs.create_new_append(&dir.join("a")).unwrap();
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.sync_data().unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read(&dir.join("a")).unwrap(), b"hello world");
        f.set_len(5).unwrap();
        assert_eq!(vfs.read(&dir.join("a")).unwrap(), b"hello");
        vfs.rename(&dir.join("a"), &dir.join("b")).unwrap();
        assert_eq!(vfs.read_dir_names(&dir).unwrap(), vec!["b".to_string()]);
        vfs.remove_file(&dir.join("b")).unwrap();
        assert!(vfs.read_dir_names(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plans_are_deterministic() {
        let dir = tmpdir("det");
        let run = || {
            let vfs = FaultVfs::new(Arc::new(StdVfs), FaultPlan::seeded(42));
            let mut outcomes = Vec::new();
            for i in 0..200 {
                let path = dir.join(format!("f{i}"));
                let r = vfs.create(&path).and_then(|f| {
                    f.write_all(b"x")?;
                    f.sync_data()
                });
                outcomes.push(r.is_ok());
                let _ = std::fs::remove_file(&path);
            }
            (outcomes, vfs.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(!sa.injected.is_empty(), "the default mix injects faults");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scripted_faults_fire_and_heal() {
        let dir = tmpdir("script");
        let plan = FaultPlan::none()
            .script(OpSel::NthOfKind(StorageOp::Append, 1), Fault::Enospc)
            .script(OpSel::PathContains("ckpt".into()), Fault::Eio);
        let vfs = FaultVfs::new(Arc::new(StdVfs), plan);
        assert!(vfs.create(&dir.join("x.ckpt")).is_err(), "path script");
        let f = vfs.create(&dir.join("plain")).unwrap();
        f.write_all(b"first").unwrap();
        let err = f.write_all(b"second").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
        // ENOSPC is persistent: everything fails until heal().
        assert!(f.write_all(b"third").is_err());
        assert!(vfs.sync_dir(&dir).is_err());
        vfs.heal();
        f.write_all(b"fourth").unwrap();
        assert!(vfs.create(&dir.join("y.ckpt")).is_ok(), "script healed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_freezes_the_image() {
        let dir = tmpdir("crash");
        let plan = FaultPlan::none().script(OpSel::Nth(2), Fault::Crash);
        let vfs = FaultVfs::new(Arc::new(StdVfs), plan);
        let f = vfs.create(&dir.join("a")).unwrap(); // op 0
        f.write_all(b"durable").unwrap(); // op 1
        assert!(f.write_all(b" lost").is_err()); // op 2: crash
        assert!(vfs.crashed());
        assert!(f.sync_data().is_err());
        assert!(vfs.create(&dir.join("b")).is_err());
        vfs.heal();
        assert!(vfs.crashed(), "a crash is not healable");
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_writes_leave_a_prefix() {
        let dir = tmpdir("short");
        let plan =
            FaultPlan::none().script(OpSel::NthOfKind(StorageOp::Append, 0), Fault::ShortWrite);
        let vfs = FaultVfs::new(Arc::new(StdVfs), plan);
        let f = vfs.create(&dir.join("a")).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted, "transient class");
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"01234");
        f.write_all(b"ok").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
