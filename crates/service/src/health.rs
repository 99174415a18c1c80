//! Service health: retry policy, the
//! [`Healthy → Degraded → ReadOnly`](ServiceHealth) state machine, and
//! the background probe that walks it back.
//!
//! The rules are few and mechanical:
//!
//! * A **transient** storage fault ([`crate::StorageError::is_transient`])
//!   never reaches this module — the WAL flusher and the checkpointer
//!   retry it under a [`RetryPolicy`] (bounded exponential backoff).
//! * A **persistent WAL failure** (append or fsync that survives
//!   retries) rolls the batch back and flips the service
//!   [`ReadOnly`](ServiceHealth::ReadOnly): writes fail fast with
//!   [`crate::ServiceError::ReadOnly`], readers keep serving the last
//!   published composite snapshot untouched.
//! * A **persistent checkpoint failure** only degrades
//!   ([`Degraded`](ServiceHealth::Degraded)): batches still commit and
//!   publish (the WAL is intact), but recovery will replay a longer
//!   tail until a checkpoint lands again.
//! * A `HealthProbe` thread periodically re-probes read-only storage
//!   ([`crate::wal::Wal::probe`] appends and fsyncs a `health` frame);
//!   the first success restores [`Healthy`](ServiceHealth::Healthy) and
//!   journals the transition in the WAL itself.
//!
//! Every transition is recorded (`Health::transitions`) with the
//! epoch it happened at and a human-readable reason — the audit trail
//! the README's operations section points at.

use mmv_obs::sync::{lock_clean, wait_timeout_clean};
use mmv_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum transitions retained by the journal; a flapping disk keeps
/// producing transitions forever, so the journal is a ring — the newest
/// `HEALTH_TRANSITION_CAP` survive and
/// `crate::ViewService::health_transitions_total` keeps the full count.
pub const HEALTH_TRANSITION_CAP: usize = 256;

/// Bounded exponential backoff for transient storage faults, carried
/// by [`crate::ServiceConfig::retry`] into the WAL flusher and the
/// checkpointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Retries after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per attempt.
    pub initial_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            initial_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The same policy with a different retry count.
    pub fn with_retries(mut self, retries: u32) -> RetryPolicy {
        self.max_retries = retries;
        self
    }

    /// The same policy with different backoff bounds (tests use
    /// `Duration::ZERO` to retry without sleeping).
    pub fn with_backoff(mut self, initial: Duration, max: Duration) -> RetryPolicy {
        self.initial_backoff = initial;
        self.max_backoff = max;
        self
    }

    /// The sleep before retry number `attempt` (1-based):
    /// `initial_backoff << (attempt-1)`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let raw = self
            .initial_backoff
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
        raw.min(self.max_backoff)
    }

    /// Runs `op`, retrying while it fails transiently (per `is_transient`)
    /// with backoff, and counting each absorbed failure into `retries`.
    /// Returns the first success or the last error.
    pub fn run<T, E>(
        &self,
        retries: Option<&Counter>,
        mut op: impl FnMut() -> Result<T, E>,
        is_transient: impl Fn(&E) -> bool,
    ) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < self.max_retries && is_transient(&e) => {
                    attempt += 1;
                    if let Some(c) = retries {
                        c.inc();
                    }
                    let pause = self.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The service's storage health, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceHealth {
    /// All storage paths working.
    Healthy,
    /// Checkpointing is failing (recovery replays a longer WAL tail),
    /// but batches still commit and publish.
    Degraded,
    /// The WAL cannot accept appends: writes fail fast with
    /// [`crate::ServiceError::ReadOnly`]; reads keep serving the last
    /// published snapshot.
    ReadOnly,
}

impl fmt::Display for ServiceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServiceHealth::Healthy => "healthy",
            ServiceHealth::Degraded => "degraded",
            ServiceHealth::ReadOnly => "read-only",
        })
    }
}

/// One recorded health transition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct HealthTransition {
    /// The state before.
    pub from: ServiceHealth,
    /// The state after.
    pub to: ServiceHealth,
    /// The last published global epoch when it happened.
    pub epoch: u64,
    /// Why (the triggering error, or the probe's success note).
    pub reason: String,
}

#[derive(Default)]
struct HealthInner {
    wal_down: bool,
    checkpoint_down: bool,
    /// Ring of the newest [`HEALTH_TRANSITION_CAP`] transitions.
    transitions: VecDeque<HealthTransition>,
}

impl HealthInner {
    fn state(&self) -> ServiceHealth {
        if self.wal_down {
            ServiceHealth::ReadOnly
        } else if self.checkpoint_down {
            ServiceHealth::Degraded
        } else {
            ServiceHealth::Healthy
        }
    }
}

/// Shared health cell: the WAL path and the checkpoint path each set
/// and clear their own flag; the coarsest failing path wins
/// ([`HealthInner::state`] derivation, ReadOnly > Degraded > Healthy).
#[derive(Default)]
pub(crate) struct Health {
    inner: Mutex<HealthInner>,
    epoch: AtomicU64,
    /// Detached instruments: every transition ever recorded (the ring
    /// above only keeps the newest), and the current state as a gauge
    /// (0 healthy, 1 degraded, 2 read-only).
    transitions_total: Counter,
    state_gauge: Gauge,
}

impl Health {
    fn shift(&self, guard: &mut HealthInner, set: impl FnOnce(&mut HealthInner), reason: &str) {
        let from = guard.state();
        set(guard);
        let to = guard.state();
        if from != to {
            if guard.transitions.len() == HEALTH_TRANSITION_CAP {
                guard.transitions.pop_front();
            }
            guard.transitions.push_back(HealthTransition {
                from,
                to,
                epoch: self.epoch.load(Ordering::Relaxed), // order: advisory epoch stamp on a transition; the state mutex orders the machine
                reason: reason.to_string(),
            });
            self.transitions_total.inc();
            self.state_gauge.set(match to {
                ServiceHealth::Healthy => 0,
                ServiceHealth::Degraded => 1,
                ServiceHealth::ReadOnly => 2,
            });
        }
    }

    /// The current state.
    pub(crate) fn current(&self) -> ServiceHealth {
        lock_clean(&self.inner).state()
    }

    /// A copy of the transition journal (the newest
    /// [`HEALTH_TRANSITION_CAP`] transitions, oldest first).
    pub(crate) fn transitions(&self) -> Vec<HealthTransition> {
        lock_clean(&self.inner)
            .transitions
            .iter()
            .cloned()
            .collect()
    }

    /// Every transition ever recorded, including ones the ring evicted.
    pub(crate) fn transitions_total(&self) -> u64 {
        self.transitions_total.get()
    }

    /// Registers the health instruments into `registry`.
    pub(crate) fn register_into(&self, registry: &mmv_obs::MetricsRegistry) {
        registry.register_counter(
            "mmv_health_transitions_total",
            "Health transitions recorded (including ring-evicted ones)",
            &[],
            &self.transitions_total,
        );
        registry.register_gauge(
            "mmv_health_state",
            "Current service health (0 healthy, 1 degraded, 2 read-only)",
            &[],
            &self.state_gauge,
        );
    }

    /// Records the last published epoch (stamped onto transitions).
    pub(crate) fn note_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::Relaxed); // order: monotonic stamp via fetch_max; readers tolerate slight staleness
    }

    /// A writer-lane recovery that did not change the coarse state —
    /// e.g. a pool worker panic whose batch was rolled back with the
    /// service still healthy. Journaled (with `from == to`) and counted
    /// in `mmv_health_transitions_total` so operators see the event in
    /// the same audit trail as storage flips.
    pub(crate) fn lane_event(&self, reason: &str) {
        let mut guard = lock_clean(&self.inner);
        let state = guard.state();
        if guard.transitions.len() == HEALTH_TRANSITION_CAP {
            guard.transitions.pop_front();
        }
        guard.transitions.push_back(HealthTransition {
            from: state,
            to: state,
            epoch: self.epoch.load(Ordering::Relaxed), // order: advisory epoch stamp on a transition; the state mutex orders the machine
            reason: reason.to_string(),
        });
        self.transitions_total.inc();
    }

    /// A persistent WAL failure: → ReadOnly.
    pub(crate) fn wal_failed(&self, reason: &str) {
        let mut g = lock_clean(&self.inner);
        self.shift(&mut g, |i| i.wal_down = true, reason);
    }

    /// The probe re-proved the WAL: leave ReadOnly.
    pub(crate) fn wal_restored(&self, reason: &str) {
        let mut g = lock_clean(&self.inner);
        self.shift(&mut g, |i| i.wal_down = false, reason);
    }

    /// A persistent checkpoint failure: → Degraded (unless ReadOnly).
    pub(crate) fn checkpoint_failed(&self, reason: &str) {
        let mut g = lock_clean(&self.inner);
        self.shift(&mut g, |i| i.checkpoint_down = true, reason);
    }

    /// A checkpoint landed: clear the degraded flag.
    pub(crate) fn checkpoint_ok(&self) {
        let mut g = lock_clean(&self.inner);
        self.shift(&mut g, |i| i.checkpoint_down = false, "checkpoint written");
    }
}

type StopCell = Arc<(Mutex<bool>, Condvar)>;

/// The background storage probe: wakes every `interval`, and while the
/// service is read-only asks the WAL to prove it can append + fsync
/// again ([`crate::wal::Wal::probe`]). First success restores
/// `Healthy`. Dropping it stops and joins the thread.
pub(crate) struct HealthProbe {
    stop: StopCell,
    handle: Option<JoinHandle<()>>,
}

impl HealthProbe {
    pub(crate) fn spawn(
        health: Arc<Health>,
        wal: Arc<crate::wal::Wal>,
        interval: Duration,
    ) -> HealthProbe {
        let stop: StopCell = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("mmv-health-probe".into())
            .spawn(move || probe_loop(health, wal, interval, stop2))
            .expect("spawn health probe thread");
        HealthProbe {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HealthProbe {
    fn drop(&mut self) {
        {
            let (lock, cv) = &*self.stop;
            *lock_clean(lock) = true;
            cv.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn probe_loop(health: Arc<Health>, wal: Arc<crate::wal::Wal>, interval: Duration, stop: StopCell) {
    let (lock, cv) = &*stop;
    loop {
        {
            let guard = lock_clean(lock);
            // Check before *and* after waiting: a stop signalled
            // before this thread first takes the lock would otherwise
            // be a lost wakeup and the join would stall a full tick.
            if *guard {
                return;
            }
            let (guard, _) = wait_timeout_clean(cv, guard, interval);
            if *guard {
                return;
            }
        }
        if health.current() == ServiceHealth::ReadOnly {
            let epoch = health.epoch.load(Ordering::Relaxed); // order: probe reads the stamp opportunistically; retried next tick anyway
                                                              // On Err the storage is still down; try again next tick.
            if wal.probe(epoch).is_ok() {
                health.wal_restored("storage probe succeeded");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(6),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(4), Duration::from_millis(6), "capped");
        assert_eq!(p.backoff(40), Duration::from_millis(6), "shift clamped");
    }

    #[test]
    fn run_retries_transient_only() {
        let p = RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let retries = Counter::new();
        let mut calls = 0;
        let r: Result<u32, &str> = p.run(
            Some(&retries),
            || {
                calls += 1;
                if calls < 3 {
                    Err("transient")
                } else {
                    Ok(7)
                }
            },
            |e| *e == "transient",
        );
        assert_eq!(r, Ok(7));
        assert_eq!(calls, 3);
        assert_eq!(retries.get(), 2, "absorbed failures are counted");

        let mut calls = 0;
        let r: Result<u32, &str> = p.run(
            None,
            || {
                calls += 1;
                Err("fatal")
            },
            |e| *e == "transient",
        );
        assert_eq!(r, Err("fatal"));
        assert_eq!(calls, 1, "persistent errors are not retried");

        let mut calls = 0;
        let r: Result<u32, &str> = p.run(
            None,
            || {
                calls += 1;
                Err("transient")
            },
            |e| *e == "transient",
        );
        assert_eq!(r, Err("transient"));
        assert_eq!(calls, 4, "1 try + max_retries");
    }

    #[test]
    fn health_transitions_are_journaled() {
        let h = Health::default();
        assert_eq!(h.current(), ServiceHealth::Healthy);
        h.note_epoch(5);
        h.checkpoint_failed("ckpt EIO");
        assert_eq!(h.current(), ServiceHealth::Degraded);
        h.wal_failed("append ENOSPC");
        assert_eq!(h.current(), ServiceHealth::ReadOnly);
        // Checkpoint healing while the WAL is down stays ReadOnly.
        h.checkpoint_ok();
        assert_eq!(h.current(), ServiceHealth::ReadOnly);
        h.note_epoch(9);
        h.wal_restored("probe ok");
        assert_eq!(h.current(), ServiceHealth::Healthy);

        let t = h.transitions();
        let arcs: Vec<(ServiceHealth, ServiceHealth, u64)> =
            t.iter().map(|t| (t.from, t.to, t.epoch)).collect();
        assert_eq!(
            arcs,
            vec![
                (ServiceHealth::Healthy, ServiceHealth::Degraded, 5),
                (ServiceHealth::Degraded, ServiceHealth::ReadOnly, 5),
                (ServiceHealth::ReadOnly, ServiceHealth::Healthy, 9),
            ],
            "no-op flag changes journal nothing"
        );
        assert!(t[1].reason.contains("ENOSPC"));
        assert_eq!(h.transitions_total(), 3);
    }

    #[test]
    fn transition_journal_is_a_ring() {
        let h = Health::default();
        // A flapping WAL: each flap is two transitions.
        let flaps = HEALTH_TRANSITION_CAP; // 2 * CAP transitions total
        for i in 0..flaps {
            h.note_epoch(i as u64);
            h.wal_failed("flap down");
            h.wal_restored("flap up");
        }
        let t = h.transitions();
        assert_eq!(t.len(), HEALTH_TRANSITION_CAP, "journal stays bounded");
        assert_eq!(
            h.transitions_total(),
            2 * flaps as u64,
            "counter keeps the full tally"
        );
        // The survivors are the newest transitions, oldest first.
        assert_eq!(t.last().unwrap().epoch, (flaps - 1) as u64);
        assert_eq!(
            t.first().unwrap().epoch,
            (flaps - HEALTH_TRANSITION_CAP / 2) as u64
        );
    }
}
