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
//! recovery logic on top (see `ViewService::lock_lane`), not this.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, clearing a poison flag left by a panicked holder.
pub fn lock_clean<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| {
        m.clear_poison();
        p.into_inner()
    })
}

/// Read-locks `l`, clearing a poison flag left by a panicked writer.
pub fn read_clean<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| {
        l.clear_poison();
        p.into_inner()
    })
}

/// Write side of [`read_clean`], same recovery.
pub fn write_clean<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| {
        l.clear_poison();
        p.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
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
}
