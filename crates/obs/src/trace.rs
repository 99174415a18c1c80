//! Batch-lifecycle tracing: per-stage wall-clock for each maintenance batch.
//!
//! A [`BatchTrace`] follows one update batch through the service pipeline,
//! recording nanoseconds spent in each [`Stage`]. The service keeps the
//! last N completed traces in a [`TraceRing`], queryable via
//! `ViewService::recent_traces()` without stopping writers.

use crate::sync::lock_clean;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// Pipeline stages a maintenance batch passes through, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Splitting the batch before maintenance. A service with one
    /// writer view does not split, so the stage stays at zero.
    Split,
    /// Waiting for the writer lock.
    LockWait,
    /// Fixpoint / DRed maintenance against the database.
    Apply,
    /// Rendering the batch into WAL frame text.
    WalRender,
    /// Appending the rendered frame to the WAL (excluding group-commit wait).
    WalAppend,
    /// Blocking until the group-commit flusher reports the LSN durable.
    FsyncWait,
    /// The publish critical section: swapping frozen snapshots in.
    Publish,
    /// Handing a staged snapshot to the checkpointer.
    Checkpoint,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Split,
        Stage::LockWait,
        Stage::Apply,
        Stage::WalRender,
        Stage::WalAppend,
        Stage::FsyncWait,
        Stage::Publish,
        Stage::Checkpoint,
    ];

    /// Stable snake_case name, used as the `stage` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Split => "split",
            Stage::LockWait => "lock_wait",
            Stage::Apply => "apply",
            Stage::WalRender => "wal_render",
            Stage::WalAppend => "wal_append",
            Stage::FsyncWait => "fsync_wait",
            Stage::Publish => "publish",
            Stage::Checkpoint => "checkpoint",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Split => 0,
            Stage::LockWait => 1,
            Stage::Apply => 2,
            Stage::WalRender => 3,
            Stage::WalAppend => 4,
            Stage::FsyncWait => 5,
            Stage::Publish => 6,
            Stage::Checkpoint => 7,
        }
    }
}

/// Wall-clock profile of one batch's trip through the pipeline.
///
/// Stages that did not run for a batch (e.g. WAL stages on an in-memory
/// service) stay at zero nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchTrace {
    /// Epoch the batch published as (0 until assigned).
    pub epoch: u64,
    /// Nanoseconds spent per stage, indexed in [`Stage::ALL`] order.
    pub stage_nanos: [u64; STAGE_COUNT],
}

impl BatchTrace {
    /// Adds `d` to the stage's recorded time.
    pub fn record(&mut self, stage: Stage, d: Duration) {
        self.stage_nanos[stage.index()] = self.stage_nanos[stage.index()]
            .saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Runs `f`, recording its wall-clock duration into `stage`.
    ///
    /// This is the obs-gated home for write-path timing: callers on
    /// the maintenance pipeline take their clock reads through trace
    /// helpers (only invoked when tracing is on) rather than calling
    /// `Instant::now` inline, which the workspace's `clippy.toml`
    /// disallows.
    #[expect(clippy::disallowed_methods, reason = "the obs-gated clock read")]
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.record(stage, t0.elapsed());
        out
    }

    /// Time recorded for one stage.
    pub fn stage(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.stage_nanos[stage.index()])
    }

    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(
            self.stage_nanos
                .iter()
                .fold(0u64, |a, &n| a.saturating_add(n)),
        )
    }
}

/// Bounded ring of the most recent [`BatchTrace`]s.
///
/// Pushes take a short mutex (traces are tiny copies); readers get a cloned
/// `Vec` oldest-first. Capacity 0 disables retention entirely.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    buf: Mutex<VecDeque<BatchTrace>>,
}

impl TraceRing {
    /// Creates a ring holding at most `cap` traces.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            buf: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
        }
    }

    /// Appends a trace, evicting the oldest once full.
    pub fn push(&self, trace: BatchTrace) {
        if self.cap == 0 {
            return;
        }
        let mut buf = lock_clean(&self.buf);
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<BatchTrace> {
        lock_clean(&self.buf).iter().copied().collect()
    }

    /// Maximum number of retained traces.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_all_order() {
        assert_eq!(Stage::ALL.len(), STAGE_COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::FsyncWait.name(), "fsync_wait");
    }

    #[test]
    fn trace_accumulates_per_stage() {
        let mut t = BatchTrace::default();
        t.record(Stage::Apply, Duration::from_nanos(40));
        t.record(Stage::Apply, Duration::from_nanos(2));
        t.record(Stage::Publish, Duration::from_nanos(8));
        assert_eq!(t.stage(Stage::Apply), Duration::from_nanos(42));
        assert_eq!(t.total(), Duration::from_nanos(50));
        assert_eq!(t.stage(Stage::FsyncWait), Duration::ZERO);
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = TraceRing::new(3);
        for epoch in 1..=5u64 {
            ring.push(BatchTrace {
                epoch,
                ..BatchTrace::default()
            });
        }
        let recent = ring.recent();
        assert_eq!(
            recent.iter().map(|t| t.epoch).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let ring = TraceRing::new(0);
        ring.push(BatchTrace::default());
        assert!(ring.recent().is_empty());
    }
}
