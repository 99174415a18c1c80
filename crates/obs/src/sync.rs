//! The workspace's one set of poison-recovering lock guards.
//!
//! A `Mutex`/`RwLock` is poisoned when a thread panics while holding
//! it. Every lock taken through these helpers guards state a panic can
//! interrupt but never tear — counters, append-only logs and rings,
//! queue push/pops, whole-slot swaps, apply-then-bump stores over plain
//! maps and vectors — so the poison flag only records that *some caller*
//! died, not that the data is invalid. Propagating it (`.unwrap()`,
//! `.expect()`) would turn one dead thread into a permanently bricked
//! component for every later caller: a panicking scraper would stop
//! metric registration, a worker torn down mid-batch would stop every
//! domain read, and the pool that exists to contain panics would
//! re-raise one. These helpers clear the flag and hand back the guard
//! instead. State that a panic *can* leave half-applied needs real
//! recovery logic on top (see the service's writer lanes), not this.
//!
//! The workspace's `clippy.toml` disallows the raw `lock`, `read`,
//! `write`, `wait` and `wait_timeout` calls everywhere else, so these
//! functions are the only place they appear.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

/// Locks `m`, clearing a poison flag left by a panicked holder.
#[expect(clippy::disallowed_methods, reason = "the one poison-recovering lock")]
pub fn lock_clean<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| {
        m.clear_poison();
        p.into_inner()
    })
}

/// Read-locks `l`, clearing a poison flag left by a panicked writer.
#[expect(
    clippy::disallowed_methods,
    reason = "the one poison-recovering read lock"
)]
pub fn read_clean<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| {
        l.clear_poison();
        p.into_inner()
    })
}

/// Write side of [`read_clean`], same recovery.
#[expect(
    clippy::disallowed_methods,
    reason = "the one poison-recovering write lock"
)]
pub fn write_clean<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| {
        l.clear_poison();
        p.into_inner()
    })
}

/// Waits on `cv`, handing back the guard even if a panicked holder
/// poisoned its mutex in the meantime. The flag stays set (the guard
/// does not reach the mutex); the next [`lock_clean`] clears it.
#[expect(clippy::disallowed_methods, reason = "the one poison-recovering wait")]
pub fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait_clean`] with a timeout.
#[expect(
    clippy::disallowed_methods,
    reason = "the one poison-recovering timed wait"
)]
pub fn wait_timeout_clean<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "poisons the locks on purpose")]
    fn guards_recover_from_poison_and_clear_it() {
        let m = Arc::new(Mutex::new(vec![1, 2]));
        let l = Arc::new(RwLock::new(7));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let _ = std::thread::spawn(move || {
            let _m = m2.lock();
            let _l = l2.write();
            panic!("poison both locks");
        })
        .join();
        assert!(m.is_poisoned() && l.is_poisoned());
        lock_clean(&m).push(3);
        assert!(!m.is_poisoned());
        assert_eq!(*lock_clean(&m), vec![1, 2, 3]);
        assert_eq!(*read_clean(&l), 7);
        assert!(!l.is_poisoned());
        *write_clean(&l) = 8;
        assert_eq!(*read_clean(&l), 8);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "poisons the mutex on purpose")]
    fn waits_return_the_guard_of_a_poisoned_mutex() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (m, cv) = &*pair;
        let mut guard = lock_clean(m);
        let pair2 = Arc::clone(&pair);
        let poisoner = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock().unwrap();
            *g = true;
            cv.notify_all();
            panic!("poison the mutex the waiter sleeps on");
        });
        while !*guard {
            guard = wait_clean(cv, guard);
        }
        drop(guard);
        assert!(poisoner.join().is_err());
        assert!(m.is_poisoned(), "the guard comes back; the flag stays");
        let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
        let (guard, timeout) = wait_timeout_clean(cv, guard, Duration::ZERO);
        assert!(timeout.timed_out() && *guard);
    }
}
